//! Canned RISC-V firmware for the system-level experiments (E7): a
//! software fixed-point MVM baseline, the accelerator-offload driver
//! (DMA in → doorbell → `wfi` → DMA out), and the fault-tolerant
//! [`accel_offload_guarded`] driver (ABFT checksums, watchdog, retry
//! with backoff, drift-triggered recalibration, software fallback).

use crate::system::{ACCEL_BASE, DMA_BASE, PE_STRIDE, SPM_BASE};

/// Default DRAM layout used by the canned firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramLayout {
    /// Weight matrix base (row-major Q16.16).
    pub w_addr: u32,
    /// Input vectors base (column after column).
    pub x_addr: u32,
    /// Output vectors base.
    pub y_addr: u32,
    /// ABFT plain-checksum row `c = 1ᵀ·W` (`n` Q16.16 words), used by
    /// the guarded driver's output verification.
    pub c_addr: u32,
    /// Per-vector wrapping input checksums (`batch` words), used by the
    /// guarded driver to verify staged inputs.
    pub xsum_addr: u32,
    /// Structured fault record written by the guarded driver on exit:
    /// `[detections, recoveries, fallbacks, last_device_error]`.
    pub fault_addr: u32,
}

impl Default for DramLayout {
    fn default() -> Self {
        DramLayout {
            w_addr: 0x0010_0000,
            x_addr: 0x0020_0000,
            y_addr: 0x0030_0000,
            c_addr: 0x0038_0000,
            xsum_addr: 0x0039_0000,
            fault_addr: 0x003A_0000,
        }
    }
}

/// Tuning knobs of the guarded offload driver
/// ([`accel_offload_guarded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Vectors per guarded block (must divide the batch).
    pub block: usize,
    /// ABFT output-checksum tolerance in Q16.16 LSBs (see
    /// `neuropulsim_core::abft::fixed_checksum_tolerance`).
    pub tolerance: u32,
    /// Retries per block before degrading to the software path.
    pub max_retries: u32,
    /// Backoff spin of the first retry \[iterations\]; doubles per retry.
    pub backoff_base: u32,
    /// Upper bound on the backoff spin \[iterations\].
    pub backoff_cap: u32,
    /// Retry number at which a recalibration is requested first.
    pub recal_after: u32,
    /// Watchdog deadline programmed into the device \[cycles\]
    /// (0 disables).
    pub watchdog: u32,
    /// Bounded-poll iterations for device/DMA completion.
    pub poll_limit: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            block: 16,
            tolerance: 64,
            max_retries: 3,
            backoff_base: 32,
            backoff_cap: 1024,
            recal_after: 2,
            watchdog: 4096,
            poll_limit: 2000,
        }
    }
}

/// Generates the software fixed-point MVM firmware: computes
/// `Y[:, v] = W * X[:, v]` for `batch` vectors entirely on the CPU with
/// Q16.16 `mul`/`mulh` arithmetic. The digital baseline of E7.
pub fn software_mvm(n: usize, batch: usize, layout: DramLayout) -> String {
    format!(
        "
        li   a0, {w}          # W base
        li   a1, {x}          # X base (current vector)
        li   a2, {y}          # Y base (current vector)
        li   a3, {n}          # n
        li   a4, {batch}      # vectors remaining
    vec_loop:
        beqz a4, done_all
        li   t0, 0            # i = 0
    row_loop:
        bge  t0, a3, next_vec
        li   t1, 0            # acc
        mul  t2, t0, a3
        slli t2, t2, 2
        add  t2, t2, a0       # &W[i][0]
        mv   t3, a1           # &x[0]
        li   t4, 0            # j = 0
    col_loop:
        bge  t4, a3, store_y
        lw   t5, (t2)
        lw   t6, (t3)
        mulh s0, t5, t6       # Q16.16 multiply: (t5*t6) >> 16
        mul  s1, t5, t6
        slli s0, s0, 16
        srli s1, s1, 16
        or   s1, s1, s0
        add  t1, t1, s1
        addi t2, t2, 4
        addi t3, t3, 4
        addi t4, t4, 1
        j    col_loop
    store_y:
        slli s0, t0, 2
        add  s0, s0, a2
        sw   t1, (s0)
        addi t0, t0, 1
        j    row_loop
    next_vec:
        slli s0, a3, 2
        add  a1, a1, s0
        add  a2, a2, s0
        addi a4, a4, -1
        j    vec_loop
    done_all:
        ecall
        ",
        w = layout.w_addr,
        x = layout.x_addr,
        y = layout.y_addr,
        n = n,
        batch = batch,
    )
}

/// Generates the accelerator-offload driver: DMA the input block from
/// DRAM to SPM, ring the accelerator doorbell for the whole batch, sleep
/// in `wfi` until the completion interrupt, then DMA the results back.
/// The weights are assumed pre-programmed into the photonic core.
pub fn accel_offload(n: usize, batch: usize, layout: DramLayout) -> String {
    let bytes = (n * batch * 4) as u32;
    let spm_in = SPM_BASE + 0x100;
    let spm_out = SPM_BASE + 0x100 + bytes;
    format!(
        "
        # --- DMA inputs DRAM -> SPM -------------------------------
        li   t0, {dma}
        li   t1, {x}
        sw   t1, 8(t0)        # SRC
        li   t1, {spm_in}
        sw   t1, 12(t0)       # DST
        li   t1, {bytes}
        sw   t1, 16(t0)       # LEN
        li   t1, 1
        sw   t1, 20(t0)       # IRQ_ENABLE
        sw   t1, 0(t0)        # start
        wfi
        li   t1, 2
        sw   t1, 0(t0)        # ack
        # --- run the photonic job ---------------------------------
        li   t0, {accel}
        li   t1, {spm_in}
        sw   t1, 12(t0)       # IN_ADDR
        li   t1, {spm_out}
        sw   t1, 16(t0)       # OUT_ADDR
        li   t1, {batch}
        sw   t1, 20(t0)       # BATCH
        li   t1, 1
        sw   t1, 24(t0)       # IRQ_ENABLE
        sw   t1, 0(t0)        # doorbell
        wfi
        li   t1, 2
        sw   t1, 0(t0)        # clear done
        # --- DMA results SPM -> DRAM ------------------------------
        li   t0, {dma}
        li   t1, {spm_out}
        sw   t1, 8(t0)        # SRC
        li   t1, {y}
        sw   t1, 12(t0)       # DST
        li   t1, {bytes}
        sw   t1, 16(t0)       # LEN
        li   t1, 1
        sw   t1, 0(t0)        # start
        wfi
        li   t1, 2
        sw   t1, 0(t0)        # ack
        ecall
        ",
        dma = DMA_BASE,
        accel = ACCEL_BASE,
        x = layout.x_addr,
        y = layout.y_addr,
        spm_in = spm_in,
        spm_out = spm_out,
        bytes = bytes,
        batch = batch,
    )
}

/// Generates the **guarded** accelerator-offload driver: the runtime
/// fault-tolerance protocol layered over [`accel_offload`].
///
/// The batch is processed in blocks of `cfg.block` vectors. Per block:
///
/// 1. DMA the input block DRAM → SPM (bounded status poll, no IRQ);
/// 2. verify the staged inputs against the host-precomputed wrapping
///    checksums at `layout.xsum_addr` (catches DMA/SPM corruption);
/// 3. run the photonic job with the device watchdog armed, poll for
///    completion, and check the device `ERROR` register (watchdog
///    timeout, busy-reject, SPM range, …);
/// 4. DMA the result block SPM → DRAM and verify every output vector
///    with the ABFT plain checksum: `|Σy − c·x| ≤ tolerance`, with both
///    sides read back from DRAM;
/// 5. on any failure: capped exponential backoff and retry; from retry
///    `cfg.recal_after` on, first request a device **recalibration**
///    (CTRL bit 3 — reprograms drifted PCM weights); after
///    `cfg.max_retries`, **degrade gracefully** to the software Q16.16
///    MVM for the block (weights read from `layout.w_addr`).
///
/// A final verification sweep re-checks every output vector (catching
/// late corruption of already-written results) and repairs failures by
/// software recompute. The driver then writes the structured fault
/// record `[detections, recoveries, fallbacks, last_device_error]` to
/// `layout.fault_addr`, and — when any block had to fall back — reports
/// a checksum failure into the device `ERROR` register, raising the
/// error interrupt for the host.
///
/// Register budget: `s0` block/vector index, `s1` retries, `s2`
/// detections, `s3` recoveries, `s4` fallbacks, `s5` checksum scratch,
/// `s6` last device error code; subroutines clobber only `t*`/`a*`.
///
/// This driver targets a **single device** (PE slot 0); its retry loop
/// is bounded per block (`cfg.max_retries`, then software fallback), so
/// a permanently-faulted device degrades every block to software but can
/// never livelock the driver. In a multi-PE system, use
/// [`accel_offload_guarded_at`] to point the same protocol at another
/// slot (e.g. when slot 0 is known-bad), or the fleet-level router in
/// [`crate::serve`], which spreads retries across devices and ejects a
/// PE after its retry budget.
///
/// # Panics
///
/// Panics if `n == 0`, `batch == 0`, or `cfg.block` does not divide
/// `batch`.
pub fn accel_offload_guarded(
    n: usize,
    batch: usize,
    layout: DramLayout,
    cfg: &GuardConfig,
) -> String {
    accel_offload_guarded_at(0, n, batch, layout, cfg)
}

/// [`accel_offload_guarded`] retargeted at PE slot `pe_slot`
/// (`ACCEL_BASE + PE_STRIDE * pe_slot`): the whole guarded protocol —
/// watchdog, ABFT verify, bounded retry, recalibration, software
/// fallback — against one specific fleet member. Slot 0 is the primary
/// accelerator; slots ≥ 1 must have been added with
/// [`crate::system::Platform::add_pe`].
///
/// # Panics
///
/// Panics on an empty job or a block that does not divide the batch.
pub fn accel_offload_guarded_at(
    pe_slot: usize,
    n: usize,
    batch: usize,
    layout: DramLayout,
    cfg: &GuardConfig,
) -> String {
    assert!(n > 0 && batch > 0, "guarded offload: empty job");
    let accel_base = ACCEL_BASE + PE_STRIDE * pe_slot as u32;
    let block = cfg.block.max(1).min(batch);
    assert_eq!(
        batch % block,
        0,
        "guarded offload: block ({block}) must divide batch ({batch})"
    );
    let nblocks = batch / block;
    let vec_bytes = (n * 4) as u32;
    let block_bytes = (block * n * 4) as u32;
    let spm_in = SPM_BASE + 0x100;
    let spm_out = spm_in + block_bytes;
    format!(
        "
        # ==== guarded offload: init ===============================
        li   s2, 0            # detections
        li   s3, 0            # recoveries
        li   s4, 0            # fallback blocks
        li   s6, 0            # last device error code
        li   t0, {dma}
        sw   zero, 20(t0)     # DMA completion IRQ off (polled mode)
        li   t0, {accel}
        li   t1, 2
        sw   t1, 24(t0)       # IRQ_ENABLE: error line only
        li   t1, 6
        sw   t1, 0(t0)        # CTRL: clear stale done + errors
        li   t1, {watchdog}
        sw   t1, 36(t0)       # WATCHDOG deadline
        li   s0, 0            # block index
    blk_loop:
        li   t0, {nblocks}
        bge  s0, t0, final_sweep
        li   s1, 0            # retries for this block
    attempt:
        # ---- stage inputs: DMA x[block] DRAM -> SPM --------------
        li   a3, {block_bytes}
        mul  a4, s0, a3
        li   a0, {x}
        add  a0, a0, a4
        li   a1, {spm_in}
        mv   a2, a3
        call dma_copy
        bnez a0, fail
        # ---- verify staged inputs against host checksums ---------
        li   a5, 0            # vector-in-block index
    ichk_loop:
        li   t0, {block}
        bge  a5, t0, ichk_ok
        li   t0, {vec_bytes}
        mul  t1, a5, t0
        li   a0, {spm_in}
        add  a0, a0, t1
        li   a1, {n}
        call sum_words
        li   t0, {block}
        mul  t1, s0, t0
        add  t1, t1, a5
        slli t1, t1, 2
        li   t2, {xsum}
        add  t2, t2, t1
        lw   t3, (t2)
        bne  a0, t3, fail
        addi a5, a5, 1
        j    ichk_loop
    ichk_ok:
        # ---- photonic job for this block (watchdog armed) --------
        li   t0, {accel}
        li   t1, 4
        sw   t1, 0(t0)        # clear any stale error latch
        li   t1, {spm_in}
        sw   t1, 12(t0)       # IN_ADDR
        li   t1, {spm_out}
        sw   t1, 16(t0)       # OUT_ADDR
        li   t1, {block}
        sw   t1, 20(t0)       # BATCH
        li   t1, 1
        sw   t1, 0(t0)        # doorbell
        li   t2, {poll_limit}
    job_poll:
        lw   t3, 4(t0)        # STATUS
        andi t4, t3, 2
        bnez t4, job_done
        addi t2, t2, -1
        bnez t2, job_poll
        j    fail             # lost doorbell / dead device
    job_done:
        li   t1, 2
        sw   t1, 0(t0)        # clear done
        lw   t3, 32(t0)       # ERROR
        beqz t3, job_ok
        mv   s6, t3           # remember the device fault code
        li   t1, 4
        sw   t1, 0(t0)        # acknowledge it
        j    fail
    job_ok:
        # ---- DMA y[block] SPM -> DRAM ----------------------------
        li   a3, {block_bytes}
        mul  a4, s0, a3
        li   a0, {spm_out}
        li   a1, {y}
        add  a1, a1, a4
        mv   a2, a3
        call dma_copy
        bnez a0, fail
        # ---- ABFT verify: |sum(y_v) - c.x_v| <= tol, from DRAM ---
        li   a5, 0
    ochk_loop:
        li   t0, {block}
        bge  a5, t0, blk_pass
        li   t0, {block_bytes}
        mul  t1, s0, t0
        li   t2, {vec_bytes}
        mul  t3, a5, t2
        add  t1, t1, t3       # byte offset of vector v
        li   a0, {y}
        add  a0, a0, t1
        li   a1, {n}
        call sum_words
        mv   s5, a0           # lhs = sum(y_v)
        li   t0, {block_bytes}
        mul  t1, s0, t0
        li   t2, {vec_bytes}
        mul  t3, a5, t2
        add  t1, t1, t3
        li   a0, {x}
        add  a0, a0, t1
        li   a1, {c}
        li   a2, {n}
        call dot_fixed        # rhs = c . x_v
        sub  t0, s5, a0
        srai t1, t0, 31
        xor  t0, t0, t1
        sub  t0, t0, t1       # |lhs - rhs|
        li   t1, {tol}
        bgt  t0, t1, fail
        addi a5, a5, 1
        j    ochk_loop
    blk_pass:
        beqz s1, blk_next
        addi s3, s3, 1        # clean after retries: recovered
    blk_next:
        addi s0, s0, 1
        j    blk_loop
    fail:
        addi s2, s2, 1        # fault detected
        li   t0, {max_retries}
        bge  s1, t0, fallback
        addi s1, s1, 1
        li   t0, {recal_after}
        blt  s1, t0, backoff
        # ---- repeated failures: recalibrate the device -----------
        li   t0, {accel}
        li   t1, 8
        sw   t1, 0(t0)        # CTRL: recalibration request
        li   t2, {poll_limit}
    recal_poll:
        lw   t3, 4(t0)        # STATUS
        andi t4, t3, 2
        bnez t4, recal_done
        addi t2, t2, -1
        bnez t2, recal_poll
        j    backoff          # recal never completed; retry anyway
    recal_done:
        li   t1, 2
        sw   t1, 0(t0)        # clear recal completion
    backoff:
        # ---- capped exponential backoff: base << (retries-1) -----
        li   t0, {backoff_base}
        mv   t1, s1
    bo_shift:
        addi t1, t1, -1
        beqz t1, bo_cap
        slli t0, t0, 1
        j    bo_shift
    bo_cap:
        li   t1, {backoff_cap}
        ble  t0, t1, bo_spin
        mv   t0, t1
    bo_spin:
        addi t0, t0, -1
        bnez t0, bo_spin
        j    attempt
    fallback:
        # ---- retries exhausted: software MVM for the block -------
        li   a3, {block_bytes}
        mul  a4, s0, a3
        li   a0, {w}
        li   a1, {x}
        add  a1, a1, a4
        li   a2, {y}
        add  a2, a2, a4
        li   a3, {n}
        li   a4, {block}
        call soft_block
        addi s4, s4, 1        # degraded block
        j    blk_next
    final_sweep:
        # ==== end-to-end sweep: re-verify every output vector =====
        li   s0, 0            # vector index over the whole batch
    fs_loop:
        li   t0, {batch}
        bge  s0, t0, fs_done
        li   t0, {vec_bytes}
        mul  t1, s0, t0
        li   a0, {y}
        add  a0, a0, t1
        li   a1, {n}
        call sum_words
        mv   s5, a0
        li   t0, {vec_bytes}
        mul  t1, s0, t0
        li   a0, {x}
        add  a0, a0, t1
        li   a1, {c}
        li   a2, {n}
        call dot_fixed
        sub  t0, s5, a0
        srai t1, t0, 31
        xor  t0, t0, t1
        sub  t0, t0, t1
        li   t1, {tol}
        ble  t0, t1, fs_next
        # late corruption: detected; repair the vector in software
        addi s2, s2, 1
        li   t0, {vec_bytes}
        mul  a4, s0, t0
        li   a0, {w}
        li   a1, {x}
        add  a1, a1, a4
        li   a2, {y}
        add  a2, a2, a4
        li   a3, {n}
        li   a4, 1
        call soft_block
        addi s3, s3, 1        # repaired
    fs_next:
        addi s0, s0, 1
        j    fs_loop
    fs_done:
        # ==== structured fault record + error IRQ =================
        li   t0, {fault}
        sw   s2, 0(t0)        # detections
        sw   s3, 4(t0)        # recoveries
        sw   s4, 8(t0)        # fallback blocks
        sw   s6, 12(t0)       # last device error code
        beqz s4, fw_exit
        li   t0, {accel}
        li   t1, 1
        sw   t1, 32(t0)       # report CHECKSUM: record + error IRQ
    fw_exit:
        ecall

        # ---- dma_copy(a0 = src, a1 = dst, a2 = len) -> a0 = 0 ok --
    dma_copy:
        li   t0, {dma}
        sw   a0, 8(t0)        # SRC
        sw   a1, 12(t0)       # DST
        sw   a2, 16(t0)       # LEN
        li   t1, 1
        sw   t1, 0(t0)        # start
        li   t2, {poll_limit}
    dc_poll:
        lw   t3, 4(t0)        # STATUS
        andi t3, t3, 2
        bnez t3, dc_done
        addi t2, t2, -1
        bnez t2, dc_poll
        li   a0, 1
        ret
    dc_done:
        li   t1, 2
        sw   t1, 0(t0)        # ack
        li   a0, 0
        ret

        # ---- sum_words(a0 = base, a1 = count) -> a0 wrapping sum --
    sum_words:
        li   t0, 0
    sw_loop:
        beqz a1, sw_done
        lw   t1, (a0)
        add  t0, t0, t1
        addi a0, a0, 4
        addi a1, a1, -1
        j    sw_loop
    sw_done:
        mv   a0, t0
        ret

        # ---- dot_fixed(a0 = x, a1 = c, a2 = n) -> a0 = c.x Q16.16 -
    dot_fixed:
        li   t0, 0
    df_loop:
        beqz a2, df_done
        lw   t1, (a0)
        lw   t2, (a1)
        mulh t3, t1, t2
        mul  t4, t1, t2
        slli t3, t3, 16
        srli t4, t4, 16
        or   t4, t4, t3
        add  t0, t0, t4
        addi a0, a0, 4
        addi a1, a1, 4
        addi a2, a2, -1
        j    df_loop
    df_done:
        mv   a0, t0
        ret

        # ---- soft_block(a0=W, a1=x, a2=y, a3=n, a4=count) ---------
    soft_block:
        beqz a4, sb_done
        li   t0, 0            # row i
    sb_row:
        bge  t0, a3, sb_next
        li   t1, 0            # acc
        mul  t2, t0, a3
        slli t2, t2, 2
        add  t2, t2, a0       # &W[i][0]
        mv   t3, a1
        li   t4, 0            # col j
    sb_col:
        bge  t4, a3, sb_store
        lw   t5, (t2)
        lw   t6, (t3)
        mulh a6, t5, t6
        mul  a7, t5, t6
        slli a6, a6, 16
        srli a7, a7, 16
        or   a7, a7, a6
        add  t1, t1, a7
        addi t2, t2, 4
        addi t3, t3, 4
        addi t4, t4, 1
        j    sb_col
    sb_store:
        slli a6, t0, 2
        add  a6, a6, a2
        sw   t1, (a6)
        addi t0, t0, 1
        j    sb_row
    sb_next:
        slli a6, a3, 2
        add  a1, a1, a6
        add  a2, a2, a6
        addi a4, a4, -1
        j    soft_block
    sb_done:
        ret
        ",
        dma = DMA_BASE,
        accel = accel_base,
        w = layout.w_addr,
        x = layout.x_addr,
        y = layout.y_addr,
        c = layout.c_addr,
        xsum = layout.xsum_addr,
        fault = layout.fault_addr,
        spm_in = spm_in,
        spm_out = spm_out,
        n = n,
        batch = batch,
        block = block,
        nblocks = nblocks,
        vec_bytes = vec_bytes,
        block_bytes = block_bytes,
        tol = cfg.tolerance,
        max_retries = cfg.max_retries,
        recal_after = cfg.recal_after.max(1),
        backoff_base = cfg.backoff_base.max(1),
        backoff_cap = cfg.backoff_cap.max(1),
        watchdog = cfg.watchdog,
        poll_limit = cfg.poll_limit.max(1),
    )
}

/// Generates the **cluster work-queue scheduler**: firmware that shards
/// a GeMM (`batch` input vectors against the common pre-programmed
/// weight matrix) across `pes` processing elements — slot 0 is the
/// primary accelerator, slots 1..`pes` the extra PEs — through an
/// in-DRAM work queue.
///
/// The batch is cut into `batch / tile` tiles of `tile` vectors. The
/// scheduler keeps one in-flight table entry per PE at
/// `layout.fault_addr + 0x100` (`tile_index + 1`, 0 = idle) and sweeps
/// the fleet round-robin: a finished PE has its results DMA'd from its
/// private SPM window back to `y` and is immediately re-armed with the
/// next tile; an idle PE gets the next tile staged (DMA `x` → its SPM
/// window) and its doorbell rung. The sweep repeats until every tile has
/// been collected, so faster PEs naturally steal more tiles — the same
/// self-balancing shape the host-side [`crate::serve`] router uses.
///
/// Every PE owns a disjoint `2 * tile * n * 4`-byte operand window in
/// the scratchpad (inputs then outputs), so transfers and photonic jobs
/// on different PEs overlap freely. Completion is polled (no IRQ): the
/// scheduler is itself the idle loop. This scheduler assumes healthy
/// PEs — fault tolerance belongs to [`accel_offload_guarded`] (single
/// device) and the [`crate::serve`] fleet router; a hung DMA parks the
/// firmware on a `j`-to-self so the failure surfaces as a run timeout
/// instead of silent partial results.
///
/// # Panics
///
/// Panics if the job is empty, `pes == 0`, `tile` does not divide
/// `batch`, or the per-PE operand windows would overflow the scratchpad.
pub fn cluster_offload(
    n: usize,
    batch: usize,
    pes: usize,
    tile: usize,
    layout: DramLayout,
) -> String {
    assert!(n > 0 && batch > 0, "cluster offload: empty job");
    assert!(pes > 0, "cluster offload: need at least one PE");
    let tile = tile.max(1).min(batch);
    assert_eq!(
        batch % tile,
        0,
        "cluster offload: tile ({tile}) must divide batch ({batch})"
    );
    let ntiles = batch / tile;
    let tile_bytes = (tile * n * 4) as u32;
    let pe_span = 2 * tile_bytes;
    let spm_in0 = SPM_BASE + 0x100;
    assert!(
        0x100 + pes as u32 * pe_span <= crate::system::SPM_SIZE as u32,
        "cluster offload: {pes} PE operand windows overflow the scratchpad"
    );
    let table = layout.fault_addr + 0x100;
    format!(
        "
        # ==== cluster work-queue scheduler ========================
        li   t0, {dma}
        sw   zero, 20(t0)     # DMA polled mode (no IRQ)
        li   s1, 0            # next tile to dispatch
        li   s2, 0            # tiles collected
        li   t0, 0
        li   t1, {table}
    wq_init:                  # in-flight table: all PEs idle
        slli t2, t0, 2
        add  t2, t2, t1
        sw   zero, (t2)
        addi t0, t0, 1
        li   t2, {pes}
        blt  t0, t2, wq_init
    wq_sweep:
        li   s0, 0            # PE slot
    wq_pe:
        li   t0, {stride}
        mul  t1, s0, t0
        li   s4, {accel}
        add  s4, s4, t1       # s4 = MMR base of PE s0
        slli t0, s0, 2
        li   s5, {table}
        add  s5, s5, t0       # s5 = &inflight[s0]
        lw   s6, (s5)         # s6 = in-flight tile + 1 (0 = idle)
        beqz s6, wq_dispatch
        # ---- PE busy: collect if its job finished ----------------
        lw   t0, 4(s4)        # STATUS
        andi t0, t0, 2
        beqz t0, wq_next
        li   t0, 2
        sw   t0, 0(s4)        # ack done
        addi s6, s6, -1       # tile index
        li   t0, {pe_span}
        mul  t1, s0, t0
        li   a0, {spm_out0}
        add  a0, a0, t1       # src: this PE's result window
        li   t0, {tile_bytes}
        mul  a1, s6, t0
        li   t1, {y}
        add  a1, a1, t1       # dst: Y + tile * tile_bytes
        li   a2, {tile_bytes}
        call dma_copy
        bnez a0, wq_hang
        sw   zero, (s5)       # PE idle again
        addi s2, s2, 1
    wq_dispatch:
        # ---- PE idle: shard the next tile onto it ----------------
        li   t0, {ntiles}
        bge  s1, t0, wq_next
        li   t0, {tile_bytes}
        mul  a0, s1, t0
        li   t1, {x}
        add  a0, a0, t1       # src: X + tile * tile_bytes
        li   t0, {pe_span}
        mul  a1, s0, t0
        li   t1, {spm_in0}
        add  a1, a1, t1       # dst: this PE's input window
        li   a2, {tile_bytes}
        call dma_copy
        bnez a0, wq_hang
        li   t0, {pe_span}
        mul  t1, s0, t0
        li   t2, {spm_in0}
        add  t2, t2, t1
        sw   t2, 12(s4)       # IN_ADDR
        li   t3, {tile_bytes}
        add  t2, t2, t3
        sw   t2, 16(s4)       # OUT_ADDR
        li   t0, {tile}
        sw   t0, 20(s4)       # BATCH
        sw   zero, 24(s4)     # polled: completion IRQ off
        li   t0, 1
        sw   t0, 0(s4)        # doorbell
        addi t0, s1, 1
        sw   t0, (s5)         # inflight[pe] = tile + 1
        addi s1, s1, 1
    wq_next:
        addi s0, s0, 1
        li   t0, {pes}
        blt  s0, t0, wq_pe
        li   t0, {ntiles}
        blt  s2, t0, wq_sweep
        ecall
    wq_hang:
        j    wq_hang          # hung DMA: park; surfaces as timeout

        # ---- dma_copy(a0 = src, a1 = dst, a2 = len) -> a0 = 0 ok --
    dma_copy:
        li   t0, {dma}
        sw   a0, 8(t0)        # SRC
        sw   a1, 12(t0)       # DST
        sw   a2, 16(t0)       # LEN
        li   t1, 1
        sw   t1, 0(t0)        # start
        li   t2, {poll_limit}
    dc_poll:
        lw   t3, 4(t0)        # STATUS
        andi t3, t3, 2
        bnez t3, dc_done
        addi t2, t2, -1
        bnez t2, dc_poll
        li   a0, 1
        ret
    dc_done:
        li   t1, 2
        sw   t1, 0(t0)        # ack
        li   a0, 0
        ret
        ",
        dma = DMA_BASE,
        accel = ACCEL_BASE,
        stride = PE_STRIDE,
        table = table,
        x = layout.x_addr,
        y = layout.y_addr,
        spm_in0 = spm_in0,
        spm_out0 = spm_in0 + tile_bytes,
        pes = pes,
        tile = tile,
        ntiles = ntiles,
        tile_bytes = tile_bytes,
        pe_span = pe_span,
        poll_limit = 4096,
    )
}

/// Generates a two-layer neural-network firmware for a 2-PE cluster:
/// `y = W2 * relu(W1 * x)` with `W1` on PE 0, `W2` on PE 1, the ReLU
/// applied by the host on the scratchpad-resident intermediate, and DMA
/// at both ends. This is the paper's Fig. 3 PE-cluster flow: MMRs
/// coordinate "communication between the accelerator and the host, as
/// well as between multiple accelerators (i.e., processing elements)".
pub fn two_layer_offload(n: usize, layout: DramLayout) -> String {
    let bytes = (n * 4) as u32;
    let spm_in = SPM_BASE + 0x100;
    let spm_mid = spm_in + bytes;
    let spm_out = spm_mid + bytes;
    let pe1 = ACCEL_BASE + PE_STRIDE;
    format!(
        "
        # --- DMA x: DRAM -> SPM -----------------------------------
        li   t0, {dma}
        li   t1, {x}
        sw   t1, 8(t0)
        li   t1, {spm_in}
        sw   t1, 12(t0)
        li   t1, {bytes}
        sw   t1, 16(t0)
        li   t1, 1
        sw   t1, 20(t0)
        sw   t1, 0(t0)
        wfi
        li   t1, 2
        sw   t1, 0(t0)
        # --- layer 1 on PE 0 ---------------------------------------
        li   t0, {pe0}
        li   t1, {spm_in}
        sw   t1, 12(t0)
        li   t1, {spm_mid}
        sw   t1, 16(t0)
        li   t1, 1
        sw   t1, 20(t0)
        sw   t1, 24(t0)
        sw   t1, 0(t0)
        wfi
        li   t1, 2
        sw   t1, 0(t0)
        # --- host ReLU over the intermediate -----------------------
        li   t0, {spm_mid}
        li   t2, {n}
    relu:
        lw   t1, (t0)
        srai t3, t1, 31       # all-ones if negative
        not  t3, t3
        and  t1, t1, t3
        sw   t1, (t0)
        addi t0, t0, 4
        addi t2, t2, -1
        bnez t2, relu
        # --- layer 2 on PE 1 ---------------------------------------
        li   t0, {pe1}
        li   t1, {spm_mid}
        sw   t1, 12(t0)
        li   t1, {spm_out}
        sw   t1, 16(t0)
        li   t1, 1
        sw   t1, 20(t0)
        sw   t1, 24(t0)
        sw   t1, 0(t0)
        wfi
        li   t1, 2
        sw   t1, 0(t0)
        # --- DMA y: SPM -> DRAM ------------------------------------
        li   t0, {dma}
        li   t1, {spm_out}
        sw   t1, 8(t0)
        li   t1, {y}
        sw   t1, 12(t0)
        li   t1, {bytes}
        sw   t1, 16(t0)
        li   t1, 1
        sw   t1, 0(t0)
        wfi
        li   t1, 2
        sw   t1, 0(t0)
        ecall
        ",
        dma = DMA_BASE,
        pe0 = ACCEL_BASE,
        pe1 = pe1,
        x = layout.x_addr,
        y = layout.y_addr,
        spm_in = spm_in,
        spm_mid = spm_mid,
        spm_out = spm_out,
        bytes = bytes,
        n = n,
    )
}

/// The software twin of [`two_layer_offload`]: both MVMs and the ReLU in
/// fixed-point on the CPU. `W1` at `layout.w_addr`, `W2` immediately
/// after it (`n*n` words later).
pub fn two_layer_software(n: usize, layout: DramLayout) -> String {
    let w2_addr = layout.w_addr + (n * n * 4) as u32;
    let mid_addr = layout.y_addr + (n * 4) as u32; // scratch after y
    format!(
        "
        # mid = W1 * x
        li   a0, {w1}
        li   a1, {x}
        li   a2, {mid}
        li   a3, {n}
        call mvm
        # relu(mid)
        li   t0, {mid}
        li   t2, {n}
    relu:
        lw   t1, (t0)
        srai t3, t1, 31
        not  t3, t3
        and  t1, t1, t3
        sw   t1, (t0)
        addi t0, t0, 4
        addi t2, t2, -1
        bnez t2, relu
        # y = W2 * mid
        li   a0, {w2}
        li   a1, {mid}
        li   a2, {y}
        li   a3, {n}
        call mvm
        ecall

        # ---- mvm(a0 = W, a1 = x, a2 = y, a3 = n) -------------------
    mvm:
        li   t0, 0            # i
    mvm_row:
        bge  t0, a3, mvm_done
        li   t1, 0            # acc
        mul  t2, t0, a3
        slli t2, t2, 2
        add  t2, t2, a0
        mv   t3, a1
        li   t4, 0
    mvm_col:
        bge  t4, a3, mvm_store
        lw   t5, (t2)
        lw   t6, (t3)
        mulh s0, t5, t6
        mul  s1, t5, t6
        slli s0, s0, 16
        srli s1, s1, 16
        or   s1, s1, s0
        add  t1, t1, s1
        addi t2, t2, 4
        addi t3, t3, 4
        addi t4, t4, 1
        j    mvm_col
    mvm_store:
        slli s0, t0, 2
        add  s0, s0, a2
        sw   t1, (s0)
        addi t0, t0, 1
        j    mvm_row
    mvm_done:
        ret
        ",
        w1 = layout.w_addr,
        w2 = w2_addr,
        x = layout.x_addr,
        y = layout.y_addr,
        mid = mid_addr,
        n = n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{RunOutcome, System};
    use neuropulsim_linalg::RMatrix;
    use neuropulsim_riscv::cpu::Halt;

    fn test_matrix(n: usize) -> RMatrix {
        RMatrix::from_fn(n, n, |i, j| {
            0.5 * ((i as f64 - j as f64) * 0.37).sin() + if i == j { 0.5 } else { 0.0 }
        })
    }

    fn write_operands(sys: &mut System, w: &RMatrix, x: &[Vec<f64>], layout: DramLayout) {
        let n = w.rows();
        let w_flat: Vec<f64> = (0..n * n).map(|k| w.as_slice()[k]).collect();
        sys.write_fixed_vector(layout.w_addr, &w_flat);
        for (v, col) in x.iter().enumerate() {
            sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, col);
        }
    }

    #[test]
    fn software_mvm_computes_correctly() {
        let n = 4;
        let batch = 3;
        let w = test_matrix(n);
        let x: Vec<Vec<f64>> = (0..batch)
            .map(|v| {
                (0..n)
                    .map(|k| 0.25 * (v as f64 + 1.0) * ((k + 1) as f64) / n as f64)
                    .collect()
            })
            .collect();
        let layout = DramLayout::default();
        let mut sys = System::new();
        write_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&software_mvm(n, batch, layout));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        for (v, col) in x.iter().enumerate() {
            let want = w.mul_vec(col);
            let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-3, "vector {v} element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn offload_matches_software_results() {
        let n = 4;
        let batch = 3;
        let w = test_matrix(n);
        let x: Vec<Vec<f64>> = (0..batch)
            .map(|v| (0..n).map(|k| 0.1 * ((v * n + k) as f64).cos()).collect())
            .collect();
        let layout = DramLayout::default();
        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&w);
        write_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&accel_offload(n, batch, layout));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        for (v, col) in x.iter().enumerate() {
            let want = w.mul_vec(col);
            let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-3, "vector {v} element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn two_layer_cluster_matches_digital_reference() {
        let n = 4;
        let layout = DramLayout::default();
        let w1 = test_matrix(n);
        let w2 = RMatrix::from_fn(n, n, |i, j| 0.4 * ((2 * i + j) as f64 * 0.23).cos());
        let x: Vec<f64> = (0..n).map(|k| 0.3 * (k as f64 - 1.5)).collect();

        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&w1);
        let pe1_base = sys.platform.add_pe();
        assert_eq!(
            pe1_base,
            crate::system::ACCEL_BASE + crate::system::PE_STRIDE
        );
        sys.platform.pe_mut(1).load_matrix(&w2);
        sys.write_fixed_vector(layout.x_addr, &x);
        sys.load_firmware_source(&two_layer_offload(n, layout));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));

        let mid: Vec<f64> = w1.mul_vec(&x).iter().map(|&v| v.max(0.0)).collect();
        let want = w2.mul_vec(&mid);
        let got = sys.read_fixed_vector(layout.y_addr, n);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 2e-3, "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn two_layer_software_matches_digital_reference() {
        let n = 4;
        let layout = DramLayout::default();
        let w1 = test_matrix(n);
        let w2 = RMatrix::from_fn(n, n, |i, j| 0.4 * ((2 * i + j) as f64 * 0.23).cos());
        let x: Vec<f64> = (0..n).map(|k| 0.3 * (k as f64 - 1.5)).collect();

        let mut sys = System::new();
        sys.write_fixed_vector(layout.w_addr, w1.as_slice());
        sys.write_fixed_vector(layout.w_addr + (n * n * 4) as u32, w2.as_slice());
        sys.write_fixed_vector(layout.x_addr, &x);
        sys.load_firmware_source(&two_layer_software(n, layout));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));

        let mid: Vec<f64> = w1.mul_vec(&x).iter().map(|&v| v.max(0.0)).collect();
        let want = w2.mul_vec(&mid);
        let got = sys.read_fixed_vector(layout.y_addr, n);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 2e-3, "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn offload_is_faster_than_software_at_scale() {
        let n = 8;
        let batch = 16;
        let w = test_matrix(n);
        let x: Vec<Vec<f64>> = (0..batch)
            .map(|v| (0..n).map(|k| 0.05 * ((v + k) as f64)).collect())
            .collect();
        let layout = DramLayout::default();

        let mut sw = System::new();
        write_operands(&mut sw, &w, &x, layout);
        sw.load_firmware_source(&software_mvm(n, batch, layout));
        let sw_report = sw.run(100_000_000);
        assert_eq!(sw_report.outcome, RunOutcome::Halted(Halt::Ecall));

        let mut hw = System::new();
        hw.platform.pe_mut(0).load_matrix(&w);
        write_operands(&mut hw, &w, &x, layout);
        hw.load_firmware_source(&accel_offload(n, batch, layout));
        let hw_report = hw.run(100_000_000);
        assert_eq!(hw_report.outcome, RunOutcome::Halted(Halt::Ecall));

        assert!(
            hw_report.cycles < sw_report.cycles / 2,
            "offload {} cycles should beat software {} cycles",
            hw_report.cycles,
            sw_report.cycles
        );
    }

    #[test]
    fn cluster_offload_shards_a_gemm_across_three_pes() {
        let n = 4;
        let batch = 12;
        let tile = 2;
        let pes = 3;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x: Vec<Vec<f64>> = (0..batch)
            .map(|v| {
                (0..n)
                    .map(|k| 0.15 * ((v * n + k) as f64 * 0.29).sin())
                    .collect()
            })
            .collect();
        let mut sys = System::new();
        for _ in 1..pes {
            sys.platform.add_pe();
        }
        for k in 0..sys.platform.pe_count() {
            sys.platform.pe_mut(k).load_matrix(&w);
        }
        write_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&cluster_offload(n, batch, pes, tile, layout));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        for (v, col) in x.iter().enumerate() {
            let want = w.mul_vec(col);
            let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 2e-3, "vector {v} element {i}: {a} vs {b}");
            }
        }
        // The work queue actually sharded: every fleet member pulled
        // tiles, and together they account for the whole batch.
        let pes = sys.platform.pes();
        let jobs: Vec<u64> = pes.iter().map(|pe| pe.jobs_completed).collect();
        assert!(
            jobs.iter().all(|&j| j > 0),
            "idle PE in a saturated cluster: {jobs:?}"
        );
        let vectors: u64 = pes.iter().map(|pe| pe.vectors_processed).sum();
        assert_eq!(vectors, batch as u64);
    }

    #[test]
    fn cluster_offload_degenerates_to_a_single_pe() {
        let n = 4;
        let batch = 6;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x: Vec<Vec<f64>> = (0..batch)
            .map(|v| (0..n).map(|k| 0.1 * ((v + 2 * k) as f64).cos()).collect())
            .collect();
        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&w);
        write_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&cluster_offload(n, batch, 1, 3, layout));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        for (v, col) in x.iter().enumerate() {
            let want = w.mul_vec(col);
            let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 2e-3, "vector {v} element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn guarded_offload_runs_on_a_secondary_pe_while_primary_is_bricked() {
        use crate::guard::{read_guard_record, write_guard_operands, GuardRecord};
        use neuropulsim_core::abft::fixed_checksum_tolerance;

        let n = 8;
        let batch = 16;
        let layout = DramLayout::default();
        let w = test_matrix(n);
        let x: Vec<Vec<f64>> = (0..batch)
            .map(|v| {
                (0..n)
                    .map(|k| 0.2 * ((v * n + k) as f64 * 0.17).cos())
                    .collect()
            })
            .collect();
        let cfg = GuardConfig {
            tolerance: fixed_checksum_tolerance(n),
            ..GuardConfig::default()
        };
        let mut sys = System::new();
        // Slot 0 is permanently dead; the guarded protocol is simply
        // retargeted at slot 1 and must run clean there.
        sys.platform.pe_mut(0).inject_hard_fault();
        sys.platform.add_pe();
        sys.platform.pe_mut(1).load_matrix(&w);
        write_guard_operands(&mut sys, &w, &x, layout);
        sys.load_firmware_source(&accel_offload_guarded_at(1, n, batch, layout, &cfg));
        let report = sys.run(10_000_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let rec = read_guard_record(&sys, layout);
        assert_eq!(rec, GuardRecord::default(), "clean run on the healthy PE");
        for (v, col) in x.iter().enumerate() {
            let want = w.mul_vec(col);
            let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 2e-3, "vector {v} element {i}: {a} vs {b}");
            }
        }
        assert_eq!(
            sys.platform.pe(0).jobs_completed,
            0,
            "the bricked primary must have done no work"
        );
        assert!(sys.platform.pe(1).jobs_completed > 0);
    }
}
