//! Bit-identity of the fast simulation paths (bulk dispatch — compiled
//! traces plus code decoded from memory — and the `wfi` fast-forward)
//! against the seed interpreter, on workloads chosen to attack their
//! weak spots: randomized program grids, faults injected into text the
//! bulk path has already run or traced, and DMA writes over code.

use neuropulsim_linalg::RMatrix;
use neuropulsim_riscv::cpu::Halt;
use neuropulsim_riscv::isa::{encode, Instruction};
use neuropulsim_sim::campaign::{CampaignConfig, Stratum};
use neuropulsim_sim::fault::{Campaign, FaultKind, FaultTarget};
use neuropulsim_sim::firmware::{accel_offload, DramLayout};
use neuropulsim_sim::system::{RunOutcome, System};

fn lcg(state: &mut u64) -> u32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as u32
}

/// Deterministic random program: straight-line ALU/memory traffic with
/// forward-only branches (always terminates) ending in `ecall`.
fn random_program(seed: u64, len: usize) -> Vec<u32> {
    use Instruction::*;
    let mut s = seed;
    let mut prog = Vec::with_capacity(len + 1);
    for k in 0..len {
        let rd = (1 + lcg(&mut s) % 15) as u8;
        let rs1 = (lcg(&mut s) % 16) as u8;
        let rs2 = (lcg(&mut s) % 16) as u8;
        let inst = match lcg(&mut s) % 10 {
            0 => Addi {
                rd,
                rs1,
                imm: (lcg(&mut s) % 4096) as i32 - 2048,
            },
            1 => Add { rd, rs1, rs2 },
            2 => Sub { rd, rs1, rs2 },
            3 => Xor { rd, rs1, rs2 },
            4 => Mul { rd, rs1, rs2 },
            5 => Slli {
                rd,
                rs1,
                shamt: (lcg(&mut s) % 32) as u8,
            },
            6 => Sltu { rd, rs1, rs2 },
            7 => Sw {
                rs1: 0,
                rs2,
                offset: (0x2000 + (lcg(&mut s) % 255) * 4) as i32,
            },
            8 => Lw {
                rd,
                rs1: 0,
                offset: (0x2000 + (lcg(&mut s) % 255) * 4) as i32,
            },
            _ if k + 2 < len => {
                if lcg(&mut s).is_multiple_of(2) {
                    Beq {
                        rs1,
                        rs2,
                        offset: 8,
                    }
                } else {
                    Bne {
                        rs1,
                        rs2,
                        offset: 8,
                    }
                }
            }
            _ => Addi { rd, rs1, imm: 1 },
        };
        prog.push(encode(inst));
    }
    prog.push(encode(Ecall));
    prog
}

fn system_in_mode(fast: bool) -> System {
    let mut sys = System::new();
    sys.cpu.set_bulk_dispatch_enabled(fast);
    sys
}

/// Runs `words` in both modes with a mid-run bit flip into the text
/// segment, asserting every observable matches.
fn assert_identical_with_text_fault(words: &[u32], flip: Option<(u32, u8)>, tag: &str) {
    let run = |fast: bool| {
        let mut sys = system_in_mode(fast);
        sys.load_firmware(words);
        // Make partial progress on the bulk path first, so the injected
        // fault lands in text that has already run there.
        let first = sys.run(137);
        if let Some((addr, bit)) = flip {
            sys.platform.dram.flip_bit(addr, bit).unwrap();
        }
        let second = sys.run(100_000);
        (first, second, sys)
    };
    let (f1, f2, fast_sys) = run(true);
    let (s1, s2, slow_sys) = run(false);
    assert_eq!(f1, s1, "{tag}: warm-up reports must match");
    assert_eq!(f2, s2, "{tag}: post-fault reports must match");
    assert_eq!(
        fast_sys.cpu, slow_sys.cpu,
        "{tag}: same architectural state"
    );
    assert_eq!(
        fast_sys.platform.dram.reads, slow_sys.platform.dram.reads,
        "{tag}: same DRAM read accounting (fetches included)"
    );
    assert_eq!(
        fast_sys.platform.dram.writes, slow_sys.platform.dram.writes,
        "{tag}: same DRAM write accounting"
    );
}

#[test]
fn randomized_program_grid_is_bit_identical() {
    for seed in 0..12u64 {
        let words = random_program(seed * 31 + 5, 220);
        assert_identical_with_text_fault(&words, None, &format!("grid seed {seed}"));
    }
}

#[test]
fn faults_into_cached_text_take_effect_identically() {
    // Flip bits in words across the text segment — including high bits
    // that turn instructions illegal — after the bulk path has run the
    // code once. The fault must be seen on the exact same cycle as the
    // seed interpreter sees it, whatever the outcome class.
    for seed in 0..12u64 {
        let words = random_program(seed * 17 + 3, 220);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
        let word_idx = lcg(&mut s) % 220;
        let bit = (lcg(&mut s) % 32) as u8;
        assert_identical_with_text_fault(
            &words,
            Some((4 * word_idx, bit)),
            &format!("text fault seed {seed} word {word_idx} bit {bit}"),
        );
    }
}

#[test]
fn dma_overwrite_of_cached_text_is_seen() {
    use Instruction::*;
    // A subroutine at `target` is called once (running it in bulk), then
    // DMA rewrites it in place while the CPU sleeps in wfi; the second
    // call must execute the patched code in both modes.
    const TARGET: i32 = 16 * 4;
    const STAGE: i32 = 0x200;
    let program: Vec<u32> = [
        Jal { rd: 1, offset: 64 }, // 0: first call to target
        Lui {
            rd: 5,
            imm: 0x4100_0000,
        }, // 1: t0 = DMA base
        Addi {
            rd: 7,
            rs1: 0,
            imm: STAGE,
        }, // 2: src = staged patch
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 8,
        }, // 3: SRC
        Addi {
            rd: 7,
            rs1: 0,
            imm: TARGET,
        }, // 4: dst = target text
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 12,
        }, // 5: DST
        Addi {
            rd: 7,
            rs1: 0,
            imm: 8,
        }, // 6: len = 2 words
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 16,
        }, // 7: LEN
        Addi {
            rd: 7,
            rs1: 0,
            imm: 1,
        }, // 8
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 20,
        }, // 9: IRQ_ENABLE
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 0,
        }, // 10: start
        Wfi,                       // 11
        Addi {
            rd: 7,
            rs1: 0,
            imm: 2,
        }, // 12
        Sw {
            rs1: 5,
            rs2: 7,
            offset: 0,
        }, // 13: ack done
        Jal { rd: 1, offset: 8 },  // 14: second call to target
        Ecall,                     // 15
        Addi {
            rd: 10,
            rs1: 0,
            imm: 1,
        }, // 16: target: a0 = 1
        Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        }, // 17: return
    ]
    .iter()
    .map(|&i| encode(i))
    .collect();
    let patch = [
        encode(Addi {
            rd: 10,
            rs1: 0,
            imm: 99,
        }),
        encode(Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        }),
    ];

    let run = |fast: bool| {
        let mut sys = system_in_mode(fast);
        sys.load_firmware(&program);
        sys.platform.dram.poke_words(STAGE as u32, &patch);
        let report = sys.run(100_000);
        (report, sys)
    };
    let (fast_report, fast_sys) = run(true);
    let (slow_report, slow_sys) = run(false);
    assert_eq!(fast_report.outcome, RunOutcome::Halted(Halt::Ecall));
    assert_eq!(fast_report, slow_report);
    assert_eq!(fast_sys.cpu, slow_sys.cpu);
    assert_eq!(
        fast_sys.cpu.reg(10),
        99,
        "second call must run the DMA-patched instruction"
    );
}

#[test]
fn mini_campaign_is_bit_identical_across_modes() {
    let n = 4;
    let batch = 4;
    let layout = DramLayout::default();
    let w = RMatrix::from_fn(n, n, |i, j| 0.3 * ((i as f64 - j as f64) * 0.41).cos());
    let x: Vec<Vec<f64>> = (0..batch)
        .map(|v| {
            (0..n)
                .map(|k| 0.2 * ((v * n + k) as f64 * 0.19).sin())
                .collect()
        })
        .collect();

    let report_json = |fast: bool| {
        let w = w.clone();
        let x = x.clone();
        let campaign = Campaign::new(
            move || {
                let mut sys = system_in_mode(fast);
                sys.platform.pe_mut(0).load_matrix(&w);
                for (v, col) in x.iter().enumerate() {
                    sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, col);
                }
                sys.load_firmware_source(&accel_offload(n, batch, layout));
                sys
            },
            move |sys| {
                (0..n * batch)
                    .map(|k| {
                        sys.platform
                            .dram
                            .peek(layout.y_addr + 4 * k as u32)
                            .unwrap_or(0)
                    })
                    .collect()
            },
            20_000,
        );
        let words = (n * batch) as u32;
        let strata = vec![
            Stratum::new(
                "dram-inputs",
                (0..words)
                    .map(|k| FaultTarget::Dram {
                        addr: layout.x_addr + 4 * k,
                    })
                    .collect(),
            ),
            Stratum::new(
                "text",
                (0..32).map(|k| FaultTarget::Dram { addr: 4 * k }).collect(),
            ),
            Stratum::new(
                "cpu-registers",
                (1..32)
                    .map(|r| FaultTarget::Register { index: r })
                    .collect(),
            ),
        ];
        let cfg = CampaignConfig {
            cadence: 96,
            injections: 45,
            ..CampaignConfig::default()
        };
        campaign
            .run_stratified("mini", 11, FaultKind::Transient, &strata, &cfg)
            .to_json()
    };

    assert_eq!(
        report_json(true),
        report_json(false),
        "campaign reports must be byte-identical with fast paths on vs off"
    );
}

/// Runs `firmware` after `setup` in both modes and asserts every
/// observable matches the seed interpreter: the report, CPU state,
/// device time, the DMA engine and both memories word for word,
/// access counters included. Returns the fast-mode system.
fn assert_polled_identical(
    tag: &str,
    setup: &dyn Fn(&mut System),
    firmware: &str,
    budget: u64,
) -> System {
    let run = |fast: bool| {
        let mut sys = system_in_mode(fast);
        setup(&mut sys);
        sys.load_firmware_source(firmware);
        let report = sys.run(budget);
        (report, sys)
    };
    let (fast_report, fast) = run(true);
    let (slow_report, slow) = run(false);
    assert_eq!(fast_report, slow_report, "{tag}: reports");
    assert_eq!(fast.cpu, slow.cpu, "{tag}: CPU state");
    assert_eq!(fast.platform.now, slow.platform.now, "{tag}: device time");
    assert_eq!(fast.platform.dma, slow.platform.dma, "{tag}: DMA engine");
    assert_eq!(fast.platform.dram, slow.platform.dram, "{tag}: DRAM");
    assert_eq!(fast.platform.spm, slow.platform.spm, "{tag}: SPM");
    assert_eq!(
        slow.bulk_dma_ticks, 0,
        "{tag}: the seed loop ticks per cycle"
    );
    fast
}

/// Source words the polled-transfer tests copy from.
fn stage_source(sys: &mut System, base: u32, words: u32) {
    for k in 0..words {
        let addr = base + 4 * k;
        let value = k.wrapping_mul(0x9E37_79B9) ^ 0x5A5A;
        if base >= 0x1000_0000 {
            sys.platform.spm.poke(addr, value).unwrap();
        } else {
            sys.platform.dram.poke(addr, value).unwrap();
        }
    }
}

/// Firmware that starts a `len`-byte transfer from `src` to `dst`, then
/// runs a hot loop that, per pass, loads and stores into both the
/// source and the destination range — `stride` bytes further each pass,
/// `ahead` bytes past the pass's base — and polls STATUS until done.
/// Accesses land both behind and ahead of the engine's cursor.
fn touch_while_polling(src: u32, dst: u32, len: u32, stride: u32, ahead: u32) -> String {
    format!(
        "
        li   t0, 0x41000000
        li   t1, {src}
        sw   t1, 8(t0)        # SRC
        li   t1, {dst}
        sw   t1, 12(t0)       # DST
        li   t1, {len}
        sw   t1, 16(t0)       # LEN
        li   t1, 1
        sw   t1, 0(t0)        # start
        li   s0, {src}
        li   s1, {dst}
        li   s3, 0
    touch:
        lw   a0, 0(s0)        # source word, moved or not yet
        addi a0, a0, 7
        sw   a0, {ahead}(s0)  # store into the source range
        lw   a1, 0(s1)        # destination word, written or not yet
        xor  s3, s3, a1
        sw   s3, {ahead}(s1)  # store into the destination range
        addi s0, s0, {stride}
        addi s1, s1, {stride}
        lw   t3, 4(t0)        # STATUS
        andi t3, t3, 2
        beqz t3, touch
        li   t1, 2
        sw   t1, 0(t0)        # ack
        mv   a0, s3
        ecall
        "
    )
}

#[test]
fn polled_dma_with_cpu_traffic_in_flight_ranges_is_bit_identical() {
    // DRAM→SPM, SPM→DRAM and DRAM→DRAM copies (both bulk copy kinds),
    // with loads and stores sweeping through the ranges in flight.
    let cases = [
        (0x2000, 0x1000_0100, 4096, 32, 256),
        (0x2000, 0x1000_0100, 2048, 8, 64),
        (0x1000_0400, 0x6000, 4096, 24, 512),
        (0x2000, 0x9000, 4096, 16, 128),
        (0x2000, 0x2400, 4096, 16, 8), // overlapping ranges
    ];
    for (src, dst, len, stride, ahead) in cases {
        let tag = format!("{src:#x}->{dst:#x} len {len} stride {stride} ahead {ahead}");
        let fast = assert_polled_identical(
            &tag,
            &|sys| stage_source(sys, src, len / 4 + 256),
            &touch_while_polling(src, dst, len, stride, ahead),
            200_000,
        );
        assert!(
            fast.bulk_dma_ticks > 0,
            "{tag}: the transfer never ran in a bulk window"
        );
        assert!(
            fast.cpu.perf_counters().trace_hits > 0,
            "{tag}: the poll loop never reached the trace tier"
        );
    }
}

#[test]
fn polled_dma_overwriting_code_the_poll_loop_runs_is_seen() {
    use Instruction::*;
    // `routine` at 0x1000 returns a0 = 1. A first call runs it. Then
    // a DMA copies 200 filler words, a patched routine (a0 = 99) over
    // it, and 200 more filler words, while a poll loop keeps calling the
    // routine and summing what it returns. Early passes
    // must run the old code and late passes the new one, switching on
    // the seed cycle: the routine sits in the transfer's write range,
    // so bulk dispatch must not decode it before the transfer
    // completes.
    const ROUTINE: u32 = 0x1000;
    const FILLER: u32 = 200;
    let routine = |value: i32| {
        [
            encode(Addi {
                rd: 10,
                rs1: 0,
                imm: value,
            }),
            encode(Jalr {
                rd: 0,
                rs1: 1,
                offset: 0,
            }),
        ]
    };
    let firmware = format!(
        "
        li   s0, {ROUTINE}
        jalr ra, 0(s0)        # first call: the old routine
        mv   s1, a0
        li   t0, 0x41000000
        li   t1, 0x2000
        sw   t1, 8(t0)        # SRC: filler, then the patch
        li   t1, {dst}
        sw   t1, 12(t0)       # DST: the routine mid-range
        li   t1, {len}
        sw   t1, 16(t0)       # LEN
        li   t1, 1
        sw   t1, 0(t0)        # start
        li   s2, 0
        li   s3, 0
    poll:
        jalr ra, 0(s0)        # old or patched, by cycle
        add  s2, s2, a0
        addi s3, s3, 1
        lw   t3, 4(t0)        # STATUS
        andi t3, t3, 2
        beqz t3, poll
        jalr ra, 0(s0)        # after completion: patched
        ecall
        ",
        dst = ROUTINE - 4 * FILLER,
        len = 4 * (2 * FILLER + 2),
    );
    let fast = assert_polled_identical(
        "patch the routine the poll loop calls",
        &|sys| {
            sys.platform.dram.poke_words(ROUTINE, &routine(1));
            let mut stage = vec![0u32; FILLER as usize];
            stage.extend(routine(99));
            stage.extend(vec![0u32; FILLER as usize]);
            sys.platform.dram.poke_words(0x2000, &stage);
            sys.platform.dma.words_per_cycle = 1;
        },
        &firmware,
        100_000,
    );
    let (first, sum, passes, last) = (
        fast.cpu.reg(9),
        fast.cpu.reg(18),
        fast.cpu.reg(19),
        fast.cpu.reg(10),
    );
    assert_eq!((first, last), (1, 99), "before and after the transfer");
    assert!(
        passes > 8 && sum > passes && sum < 99 * passes,
        "the poll loop must run both versions: {passes} passes summing {sum}"
    );
    assert!(fast.bulk_dma_ticks > 0, "the poll loop never ran in bulk");
}

#[test]
fn dma_register_writes_while_busy_take_the_precise_path() {
    // SRC, DST, LEN and CTRL rewritten mid-transfer redirect, stall,
    // extend or cut the copy in flight (a LEN at or below the bytes
    // already moved completes on the next tick), and a start while busy
    // is ignored: each must land on the seed cycle. The firmware then
    // polls with a bounded count, or sleeps on the completion IRQ.
    let cases = [
        (
            "redirect",
            "li t1, 0x3000\nsw t1, 8(t0)\nli t1, 0x10000800\nsw t1, 12(t0)",
        ),
        (
            "stall on an unmapped DST",
            "li t1, 0x70000000\nsw t1, 12(t0)",
        ),
        ("extend", "li t1, 4000\nsw t1, 16(t0)"),
        ("cut ahead of the cursor", "li t1, 1536\nsw t1, 16(t0)"),
        ("cut behind the cursor", "li t1, 64\nsw t1, 16(t0)"),
        ("zero LEN", "sw zero, 16(t0)"),
        ("start and ack while busy", "li t1, 3\nsw t1, 0(t0)"),
    ];
    for (name, writes) in cases {
        for wait in ["poll", "wfi"] {
            let firmware = format!(
                "
                li   t0, 0x41000000
                li   t1, 0x2000
                sw   t1, 8(t0)        # SRC
                li   t1, 0x10000000
                sw   t1, 12(t0)       # DST
                li   t1, 2048
                sw   t1, 16(t0)       # LEN
                li   t1, 1
                sw   t1, 20(t0)       # IRQ_ENABLE
                sw   t1, 0(t0)        # start
                li   t2, 40
            spin:
                addi t2, t2, -1
                bnez t2, spin
                {writes}
                li   t2, 300
                j    {wait}
            poll:
                lw   t3, 4(t0)
                andi t3, t3, 2
                bnez t3, done
                addi t2, t2, -1
                bnez t2, poll
                j    done
            wfi:
                wfi
            done:
                lw   a0, 4(t0)        # read back the registers
                lw   a1, 8(t0)
                lw   a2, 12(t0)
                lw   a3, 16(t0)
                ecall
                "
            );
            assert_polled_identical(
                &format!("{name}, then {wait}"),
                &|sys| {
                    stage_source(sys, 0x2000, 1024);
                    stage_source(sys, 0x3000, 1024);
                },
                &firmware,
                20_000,
            );
        }
    }
}

#[test]
fn irq_enabled_polled_transfer_and_mid_transfer_exits_are_bit_identical() {
    let start = |len: u32, irq: u32| {
        format!(
            "
            li   t0, 0x41000000
            li   t1, 0x2000
            sw   t1, 8(t0)
            li   t1, 0x10000000
            sw   t1, 12(t0)
            li   t1, {len}
            sw   t1, 16(t0)
            li   t1, {irq}
            sw   t1, 20(t0)       # IRQ_ENABLE
            li   t1, 1
            sw   t1, 0(t0)        # start
            "
        )
    };
    let setup = |sys: &mut System| stage_source(sys, 0x2000, 1024);
    // Polled to completion with the completion interrupt raised: the
    // line rises on the seed cycle, with the CPU awake.
    let poll = "
        li   t2, 0
    poll:
        addi t2, t2, 1
        lw   t3, 4(t0)
        andi t3, t3, 2
        beqz t3, poll
        li   t1, 2
        sw   t1, 0(t0)        # ack: the line drops
        ecall
        ";
    let fast = assert_polled_identical(
        "IRQ-enabled poll",
        &setup,
        &format!("{}{poll}", start(4096, 1)),
        100_000,
    );
    assert!(
        fast.bulk_dma_ticks > 0,
        "IRQ-enabled transfer never ran in bulk"
    );
    // Halting mid-transfer leaves the engine where the seed leaves it.
    let halt = "
        li   t2, 100
    spin:
        addi t2, t2, -1
        bnez t2, spin
        ecall
        ";
    let fast = assert_polled_identical(
        "halt mid-transfer",
        &setup,
        &format!("{}{halt}", start(4096, 0)),
        100_000,
    );
    assert!(
        fast.platform.dma.is_busy(),
        "the halt must land mid-transfer"
    );
    // So does a trap (a load from unmapped space) and a timeout.
    let trap = "
        li   t2, 100
    spin:
        addi t2, t2, -1
        bnez t2, spin
        li   t1, 0x70000000
        lw   a0, 0(t1)
        ecall
        ";
    let fast = assert_polled_identical(
        "trap mid-transfer",
        &setup,
        &format!("{}{trap}", start(4096, 0)),
        100_000,
    );
    assert!(
        fast.platform.dma.is_busy(),
        "the trap must land mid-transfer"
    );
    // A RAM-side fault (past the end of DRAM) in a quiet window: device
    // time still stops at the trapping instruction, as in the seed.
    assert_polled_identical(
        "trap in a quiet window",
        &|_| {},
        "li t2, 100\nspin: addi t2, t2, -1\nbnez t2, spin\nli t1, 0x500000\nlw a0, 0(t1)\necall",
        100_000,
    );
    let fast = assert_polled_identical(
        "timeout mid-transfer",
        &setup,
        &format!("{}{poll}", start(4096, 0)),
        301,
    );
    assert!(
        fast.platform.dma.is_busy(),
        "the budget must end mid-transfer"
    );
}

#[test]
fn opaque_polled_transfer_stays_on_the_precise_path() {
    // The destination runs off the end of the scratchpad: four words
    // land, then the engine stalls and re-reads its source every tick.
    // The poll gives up after a bounded count.
    let firmware = "
        li   t0, 0x41000000
        li   t1, 0x2000
        sw   t1, 8(t0)
        li   t1, 0x1003fff0   # last 16 bytes of the SPM
        sw   t1, 12(t0)
        li   t1, 64
        sw   t1, 16(t0)
        li   t1, 1
        sw   t1, 0(t0)
        li   t2, 50
    poll:
        lw   t3, 4(t0)
        andi t3, t3, 2
        bnez t3, done
        addi t2, t2, -1
        bnez t2, poll
    done:
        ecall
        ";
    let fast = assert_polled_identical(
        "opaque transfer",
        &|sys| stage_source(sys, 0x2000, 16),
        firmware,
        100_000,
    );
    assert!(fast.platform.dma.is_busy(), "the transfer must stall");
    assert_eq!(
        fast.bulk_dma_ticks, 0,
        "a stalling transfer never runs in bulk"
    );
}
