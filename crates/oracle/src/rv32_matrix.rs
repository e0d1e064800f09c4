//! Named instruction-matrix conformance suite for the RV32IM core.
//!
//! Where [`crate::harness`] fuzzes random instruction soups, this module
//! pins down *named* corner cases — one small program per architectural
//! edge (shift-amount masking, division by zero, sub-word store
//! merging, branch polarity, CSR counters, …) — and runs each program
//! twice against the reference stepper ([`crate::rv32_ref`]):
//!
//! 1. **Precise lockstep**: the production [`Cpu`] single-steps through
//!    [`Cpu::step`], which never enters bulk dispatch, and after *every*
//!    retired instruction the full architectural state (pc, all 32
//!    registers, `mcycle`, `minstret`) must equal the reference hart's.
//! 2. **Cached replay**: a fresh [`Cpu`] with bulk dispatch on (hot
//!    code in compiled traces, cold code decoded from memory) runs the
//!    same program to completion; its final state, halt cause and memory
//!    must match.
//!
//! The same machinery extends to whole ELF binaries:
//! [`lockstep_elf`] loads an ELF32 executable into both harts, steps
//! them instruction-for-instruction, and services syscalls through two
//! independent [`SyscallShim`]s whose answers must agree.

use neuropulsim_riscv::asm::assemble;
use neuropulsim_riscv::bus::{Bus, FlatMemory};
use neuropulsim_riscv::cpu::{Cpu, Halt};
use neuropulsim_sim::loader::{parse_elf32, SyscallShim, STACK_RESERVE};
use neuropulsim_sim::system::DRAM_SIZE;

use crate::rv32_ref::{RefCpu, RefHalt, RefMemory};

/// One named conformance case.
pub struct MatrixCase {
    /// Stable case name (used in reports and failure messages).
    pub name: &'static str,
    /// Assembly source; must terminate with `ecall` or `ebreak`.
    pub source: &'static str,
}

/// The full instruction matrix: every named corner case.
pub fn cases() -> Vec<MatrixCase> {
    let case = |name, source| MatrixCase { name, source };
    vec![
        // ---- immediate ALU --------------------------------------------
        case("addi_basic", "li a0, 5\naddi a0, a0, 100\necall"),
        case("addi_signed_wrap", "li a0, 0x7fffffff\naddi a0, a0, 1\necall"),
        case("addi_min_imm", "li a0, 0\naddi a0, a0, -2048\necall"),
        case("andi_sign_extended", "li a0, 0xf0f0f0f0\nandi a1, a0, -16\necall"),
        case("ori_sign_extended", "li a0, 0x12345678\nori a1, a0, -256\necall"),
        case("xori_as_not", "li a0, 0xdeadbeef\nxori a1, a0, -1\necall"),
        case("slti_boundaries", "li a0, -1\nslti a1, a0, 0\nslti a2, a0, -1\nslti a3, a0, -2\necall"),
        case("sltiu_minus_one_imm", "li a0, 5\nsltiu a1, a0, -1\nsltiu a2, a0, 5\necall"),
        case("slli_to_sign_bit", "li a0, 1\nslli a1, a0, 31\nslli a2, a0, 0\necall"),
        case("srli_from_sign_bit", "li a0, 0x80000000\nsrli a1, a0, 31\nsrli a2, a0, 1\necall"),
        case("srai_sign_fill", "li a0, 0x80000000\nsrai a1, a0, 4\nsrai a2, a0, 31\necall"),
        // ---- register ALU ---------------------------------------------
        case("add_unsigned_wrap", "li a0, 0xffffffff\nli a1, 2\nadd a2, a0, a1\necall"),
        case("sub_borrow", "li a0, 0\nli a1, 1\nsub a2, a0, a1\necall"),
        case("sll_amount_masked", "li a0, 1\nli a1, 33\nsll a2, a0, a1\necall"),
        case("srl_amount_masked", "li a0, 0x80000000\nli a1, 63\nsrl a2, a0, a1\necall"),
        case("sra_amount_masked", "li a0, 0x80000000\nli a1, 32\nsra a2, a0, a1\necall"),
        case("slt_signed_both_ways", "li a0, -5\nli a1, 3\nslt a2, a0, a1\nslt a3, a1, a0\necall"),
        case("sltu_negative_is_big", "li a0, -5\nli a1, 3\nsltu a2, a0, a1\nsltu a3, a1, a0\necall"),
        case(
            "and_or_xor",
            "li a0, 0xff00ff00\nli a1, 0x0ff00ff0\nand a2, a0, a1\nor a3, a0, a1\nxor a4, a0, a1\necall",
        ),
        // ---- upper immediates and jumps -------------------------------
        case("lui_extremes", "lui a0, 0xfffff\nlui a1, 1\necall"),
        case("auipc_offset", "auipc a0, 0\nauipc a1, 0x1000\necall"),
        case(
            "jal_writes_link",
            "jal ra, over\naddi a0, a0, 100\nover:\nmv a1, ra\necall",
        ),
        // The assembler takes only numeric jalr targets, so the two
        // jalr cases compute addresses with auipc; the comments give
        // the pc of each instruction (the program loads at 0).
        case(
            "jalr_clears_bit0",
            "auipc t0, 0\naddi t0, t0, 17\njalr ra, 0(t0)\naddi a0, a0, 100\nmv a1, ra\necall",
        ),
        case(
            "jalr_negative_offset",
            "auipc t0, 0\naddi t0, t0, 20\njalr ra, -4(t0)\naddi a0, a0, 7\necall",
        ),
        case(
            "call_ret_roundtrip",
            "li a0, 1\ncall fn\naddi a0, a0, 4\necall\nfn:\naddi a0, a0, 2\nret",
        ),
        // ---- branches, taken and not taken ----------------------------
        case(
            "beq_both_polarities",
            "li a0, 0\nli t0, 7\nli t1, 7\nbeq t0, t1, t\naddi a0, a0, 100\nt:\naddi a0, a0, 1\nli t1, 8\nbeq t0, t1, f\naddi a0, a0, 2\nf:\necall",
        ),
        case(
            "bne_both_polarities",
            "li a0, 0\nli t0, 7\nli t1, 8\nbne t0, t1, t\naddi a0, a0, 100\nt:\naddi a0, a0, 1\nli t1, 7\nbne t0, t1, f\naddi a0, a0, 2\nf:\necall",
        ),
        case(
            "blt_signed",
            "li a0, 0\nli t0, -1\nli t1, 3\nblt t0, t1, t\naddi a0, a0, 100\nt:\naddi a0, a0, 1\nblt t1, t0, f\naddi a0, a0, 2\nf:\necall",
        ),
        case(
            "bge_signed_equal",
            "li a0, 0\nli t0, 3\nli t1, 3\nbge t0, t1, t\naddi a0, a0, 100\nt:\naddi a0, a0, 1\nli t0, -7\nbge t0, t1, f\naddi a0, a0, 2\nf:\necall",
        ),
        case(
            "bltu_negative_is_big",
            "li a0, 0\nli t0, 3\nli t1, -1\nbltu t0, t1, t\naddi a0, a0, 100\nt:\naddi a0, a0, 1\nbltu t1, t0, f\naddi a0, a0, 2\nf:\necall",
        ),
        case(
            "bgeu_wraparound",
            "li a0, 0\nli t0, -1\nli t1, 1\nbgeu t0, t1, t\naddi a0, a0, 100\nt:\naddi a0, a0, 1\nbgeu t1, t0, f\naddi a0, a0, 2\nf:\necall",
        ),
        case(
            "backward_branch_loop",
            "li a0, 0\nli t0, 10\nloop:\nadd a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        // ---- loads and stores -----------------------------------------
        case(
            "sw_lw_roundtrip",
            "li t0, 0x200\nli t1, 0xcafebabe\nsw t1, 0(t0)\nlw a0, 0(t0)\nsw t1, 8(t0)\nlw a1, 8(t0)\necall",
        ),
        case(
            "lw_negative_offset",
            "li t0, 0x208\nli t1, 0x1234\nsw t1, -8(t0)\nlw a0, -8(t0)\necall",
        ),
        case(
            "lb_sign_extends",
            "li t0, 0x200\nli t1, 0x80\nsb t1, 0(t0)\nlb a0, 0(t0)\nlbu a1, 0(t0)\necall",
        ),
        case(
            "lh_sign_extends",
            "li t0, 0x200\nli t1, 0x8000\nsh t1, 0(t0)\nlh a0, 0(t0)\nlhu a1, 0(t0)\necall",
        ),
        case(
            "sb_merges_into_word",
            "li t0, 0x200\nli t1, 0xaabbccdd\nsw t1, 0(t0)\nli t2, 0x11\nsb t2, 1(t0)\nlw a0, 0(t0)\nsb t2, 3(t0)\nlw a1, 0(t0)\necall",
        ),
        case(
            "sh_merges_into_word",
            "li t0, 0x200\nli t1, 0xaabbccdd\nsw t1, 0(t0)\nli t2, 0x2233\nsh t2, 2(t0)\nlw a0, 0(t0)\necall",
        ),
        case(
            "word_access_ignores_low_bits",
            "li t0, 0x200\nli t1, 0x55667788\nsw t1, 0(t0)\nlw a0, 2(t0)\nlw a1, 3(t0)\necall",
        ),
        case(
            "store_load_forwarding_loop",
            "li t0, 0x200\nli t1, 5\nli a0, 0\nloop:\nsw t1, 0(t0)\nlw t2, 0(t0)\nadd a0, a0, t2\naddi t1, t1, -1\nbnez t1, loop\necall",
        ),
        // ---- M extension ----------------------------------------------
        case("mul_basic", "li a0, 1234\nli a1, -567\nmul a2, a0, a1\necall"),
        case("mulh_min_times_min", "li a0, 0x80000000\nmulh a1, a0, a0\nmul a2, a0, a0\necall"),
        case("mulhu_max_times_max", "li a0, 0xffffffff\nmulhu a1, a0, a0\necall"),
        case("mulhsu_mixed_signs", "li a0, -1\nli a1, 0xffffffff\nmulhsu a2, a0, a1\necall"),
        case("div_signed", "li a0, -100\nli a1, 7\ndiv a2, a0, a1\nrem a3, a0, a1\necall"),
        case("div_by_zero", "li a0, 42\nli a1, 0\ndiv a2, a0, a1\nrem a3, a0, a1\necall"),
        case(
            "div_overflow",
            "li a0, 0x80000000\nli a1, -1\ndiv a2, a0, a1\nrem a3, a0, a1\necall",
        ),
        case("divu_by_zero", "li a0, 42\nli a1, 0\ndivu a2, a0, a1\nremu a3, a0, a1\necall"),
        case("divu_remu_basic", "li a0, 0xffffffff\nli a1, 10\ndivu a2, a0, a1\nremu a3, a0, a1\necall"),
        // ---- CSRs, x0, system -----------------------------------------
        case("csr_mscratch_roundtrip", "li t0, 0x1234abcd\ncsrw 0x340, t0\ncsrr a0, 0x340\necall"),
        case("csr_cycle_instret", "nop\nnop\ncsrr a0, 0xb00\ncsrr a1, 0xb02\necall"),
        case(
            "x0_is_hardwired",
            "li t0, 99\nadd zero, t0, t0\nmv a0, zero\naddi zero, zero, 5\nmv a1, zero\necall",
        ),
        case("fence_is_nop", "li a0, 1\nfence\naddi a0, a0, 1\necall"),
        case("ebreak_halts", "li a0, 77\nebreak"),
        // ---- small kernels (exercise traces in the cached replay) -----
        case(
            "sum_1_to_100",
            "li a0, 0\nli t0, 1\nli t1, 101\nloop:\nadd a0, a0, t0\naddi t0, t0, 1\nblt t0, t1, loop\necall",
        ),
        case(
            "fibonacci_iterative",
            "li t0, 0\nli t1, 1\nli t2, 30\nloop:\nadd t3, t0, t1\nmv t0, t1\nmv t1, t3\naddi t2, t2, -1\nbnez t2, loop\nmv a0, t0\necall",
        ),
        case(
            "byte_memcpy_loop",
            "li t0, 0x200\nli t1, 0x300\nli t2, 16\nli t3, 0xa5\ninit:\nsb t3, 0(t0)\naddi t3, t3, 7\naddi t0, t0, 1\naddi t2, t2, -1\nbnez t2, init\nli t0, 0x200\nli t2, 16\ncopy:\nlbu t4, 0(t0)\nsb t4, 0(t1)\naddi t0, t0, 1\naddi t1, t1, 1\naddi t2, t2, -1\nbnez t2, copy\nlw a0, 0x300(zero)\nlw a1, 0x30c(zero)\necall",
        ),
        case(
            "nested_loop_mul_table",
            "li s0, 0x200\nli t0, 1\nouter:\nli t1, 1\ninner:\nmul t2, t0, t1\nsw t2, 0(s0)\naddi s0, s0, 4\naddi t1, t1, 1\nli t3, 6\nble t1, t3, inner\naddi t0, t0, 1\nli t3, 6\nble t0, t3, outer\nlw a0, 0x200(zero)\nlw a1, 0x28c(zero)\necall",
        ),
        case(
            "raw_dependency_chain",
            "li a0, 1\nadd a0, a0, a0\nadd a0, a0, a0\nadd a0, a0, a0\nadd a0, a0, a0\nadd a0, a0, a0\nsub a1, a0, a0\necall",
        ),
        // ---- hot loops: each op class retires >= 16 times, so the
        // cached replay runs it inside a compiled trace ---------------
        case(
            "hot_subword_loads_stores",
            "li s0, 0x200\nli t1, 0x80ff7f01\nli t0, 20\nloop:\nsb t1, 0(s0)\nsh t1, 2(s0)\nlb a0, 0(s0)\nlbu a1, 0(s0)\nlh a2, 2(s0)\nlhu a3, 2(s0)\nsw t1, 4(s0)\nlw a4, 4(s0)\nadd a5, a5, a0\nadd a5, a5, a1\nadd a5, a5, a2\nadd a5, a5, a3\nxor a5, a5, a4\naddi t1, t1, 0x123\nslli t2, t1, 7\nxor t1, t1, t2\naddi s0, s0, 8\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        case(
            "hot_lui_auipc",
            "li t0, 20\nli a0, 0\nloop:\nlui t1, 0x12345\nauipc t2, 0\nauipc t3, 0x100\nadd a0, a0, t1\nadd a0, a0, t2\nsub a0, a0, t3\nlui t1, 0xfffff\nxor a0, a0, t1\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        case(
            "hot_compares_shifts",
            "li t0, 20\nli t1, -7\nli t2, 3\nli a0, 0\nloop:\nslt a1, t1, t2\nsltu a2, t1, t2\nslti a3, t1, -5\nsltiu a4, t2, 9\nsll a5, t1, t2\nsrl a6, t1, t2\nsra a7, t1, t2\nslli s2, t1, 3\nsrli s3, t1, 29\nsrai s4, t1, 31\nadd a0, a0, a1\nadd a0, a0, a2\nadd a0, a0, a3\nadd a0, a0, a4\nxor a0, a0, a5\nxor a0, a0, a6\nxor a0, a0, a7\nadd a0, a0, s2\nadd a0, a0, s3\nadd a0, a0, s4\naddi t1, t1, 1\naddi t2, t2, 5\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        // The divisor t3 runs -12..7, so the traced iterations divide
        // by -1 (against 0x80000000: the overflow case) and by zero.
        case(
            "hot_mul_high_div_rem",
            "li t0, 20\nli t1, 0x7ffffff0\nli t2, -9\nli t3, -12\nli s5, 0x80000000\nli a0, 0\nloop:\nmulh a1, t1, t2\nmulhsu a2, t2, t1\nmulhu a3, t1, t2\ndiv a4, t1, t3\nrem a5, t1, t3\ndivu a6, t2, t3\nremu a7, t2, t3\ndiv s2, s5, t3\nrem s3, s5, t3\nadd a0, a0, a1\nxor a0, a0, a2\nadd a0, a0, a3\nxor a0, a0, a4\nadd a0, a0, a5\nxor a0, a0, a6\nadd a0, a0, a7\nxor a0, a0, s2\nadd a0, a0, s3\nslli t4, t1, 1\nxor t1, t1, t4\naddi t2, t2, 77\naddi t3, t3, 1\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        case(
            "hot_jal_in_trace",
            "li t0, 20\nli a0, 0\nloop:\njal ra, f\nf:\nadd a0, a0, ra\nj skip\naddi a0, a0, 100\nskip:\naddi a0, a0, 1\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        case(
            "hot_x0_writes",
            "li t0, 20\nli s0, 0x200\nli t1, 0x1234\nsw t1, 0(s0)\nloop:\nadd zero, t1, t1\naddi zero, t1, 5\nlui zero, 0x12345\nauipc zero, 0\nlw zero, 0(s0)\nmul zero, t1, t1\ndiv zero, t1, t0\njal zero, next\nnext:\nadd a0, a0, zero\nsltu a1, zero, t1\nadd a0, a0, a1\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        case(
            "hot_csr_counters",
            "li t0, 20\nli a0, 0\nloop:\ncsrr t1, 0xb00\ncsrr t2, 0xb02\nmul t3, t1, t1\ncsrr t4, 0xb00\nsub t4, t4, t1\nadd a0, a0, t4\nadd a1, a1, t2\ncsrw 0x340, t0\naddi t0, t0, -1\nbnez t0, loop\ncsrr a2, 0x340\necall",
        ),
        // Data-dependent branches of every polarity: guards fire
        // mid-trace on the iterations the profile did not predict.
        case(
            "hot_branch_polarity_mix",
            "li t0, 20\nli a0, 0\nloop:\nandi t1, t0, 3\nbeqz t1, m4\naddi a0, a0, 1\nm4:\nandi t2, t0, 1\nbnez t2, odd\naddi a0, a0, 3\nodd:\nblt t1, t2, lt\naddi a0, a0, 5\nlt:\nbgeu t1, t2, ge\naddi a0, a0, 7\nge:\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        // Branches whose target is their own fall-through: the path
        // never changes, only the cycle cost (taken every other pass).
        case(
            "hot_branch_to_fallthrough",
            "li t0, 20\nli a0, 0\nloop:\nandi t1, t0, 1\nbeqz t1, next\nnext:\naddi a0, a0, 1\nbnez t1, next2\nnext2:\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
        // Traces stop at `jalr`, so in hot code it runs only through
        // decoding from memory, between traces on either side of it.
        case(
            "hot_call_ret",
            "li t0, 20\nli a0, 0\nloop:\ncall fn\naddi t0, t0, -1\nbnez t0, loop\necall\nfn:\naddi a0, a0, 3\nxor a0, a0, t0\nret",
        ),
        // A computed jump whose target alternates with t0's parity:
        // pc L+16 jumps to L+24 (even) or L+32 (odd).
        case(
            "hot_computed_jump",
            "li t0, 20\nli a0, 0\nloop:\nauipc t1, 0\nandi t2, t0, 1\nslli t2, t2, 3\nadd t1, t1, t2\njalr ra, 24(t1)\naddi a0, a0, 100\naddi a0, a0, 5\nj join\nxor a0, a0, ra\njoin:\nadd a0, a0, ra\naddi t0, t0, -1\nbnez t0, loop\necall",
        ),
    ]
}

/// Memory given to matrix-case programs (they address below `0x400`).
const CASE_MEM: usize = 4096;

fn halt_name(h: Halt) -> &'static str {
    match h {
        Halt::Ecall => "ecall",
        Halt::Ebreak => "ebreak",
        Halt::CycleLimit => "limit",
    }
}

fn ref_halt_name(h: RefHalt) -> &'static str {
    match h {
        RefHalt::Ecall => "ecall",
        RefHalt::Ebreak => "ebreak",
        RefHalt::CycleLimit => "limit",
    }
}

/// First architectural-state mismatch between the two harts, if any.
fn state_diff(cpu: &Cpu, oracle: &RefCpu) -> Option<String> {
    if cpu.pc != oracle.pc {
        return Some(format!("pc {:#010x} != {:#010x}", cpu.pc, oracle.pc));
    }
    if cpu.instret != oracle.instret {
        return Some(format!("instret {} != {}", cpu.instret, oracle.instret));
    }
    if cpu.cycles != oracle.cycles {
        return Some(format!("cycles {} != {}", cpu.cycles, oracle.cycles));
    }
    for r in 0..32u8 {
        if cpu.reg(r) != oracle.regs[r as usize] {
            return Some(format!(
                "x{r} {:#010x} != {:#010x}",
                cpu.reg(r),
                oracle.regs[r as usize]
            ));
        }
    }
    None
}

/// Runs one assembly program in precise per-instruction lockstep, then
/// replays it through the cached/trace-compiled pipeline, checking both
/// against the reference hart. Returns the retired instruction count.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn lockstep_source(name: &str, source: &str, max_cycles: u64) -> Result<u64, String> {
    let words = assemble(source).map_err(|e| format!("{name}: fixture does not assemble: {e}"))?;

    // Pass 1: precise lockstep, state compared after every instruction.
    let mut mem = FlatMemory::new(CASE_MEM);
    mem.load_words(0, &words);
    let mut cpu = Cpu::new(0);
    let mut ref_mem = RefMemory::new(CASE_MEM);
    ref_mem.load_words(0, &words);
    let mut oracle = RefCpu::new(0);

    let halt = loop {
        if cpu.cycles >= max_cycles {
            return Err(format!("{name}: no halt within {max_cycles} cycles"));
        }
        let step = cpu
            .step(&mut mem)
            .map_err(|t| format!("{name}: fast trap {t:?}"))?;
        let ref_step = oracle
            .step(&mut ref_mem)
            .map_err(|t| format!("{name}: oracle trap {t:?}"))?;
        if let Some(diff) = state_diff(&cpu, &oracle) {
            return Err(format!(
                "{name}: lockstep divergence after {} instructions: {diff}",
                oracle.instret
            ));
        }
        match (step, ref_step) {
            (None, None) => {}
            (Some(h), Some(r)) => {
                if halt_name(h) != ref_halt_name(r) {
                    return Err(format!(
                        "{name}: halt mismatch {} != {}",
                        halt_name(h),
                        ref_halt_name(r)
                    ));
                }
                break h;
            }
            (h, r) => {
                return Err(format!("{name}: halt skew fast={h:?} oracle={r:?}"));
            }
        }
    };

    // Pass 2: cached replay — bulk dispatch on: traces and decoded runs.
    let mut mem2 = FlatMemory::new(CASE_MEM);
    mem2.load_words(0, &words);
    let mut cached = Cpu::new(0);
    let cached_halt = cached
        .run(&mut mem2, max_cycles)
        .map_err(|t| format!("{name}: cached trap {t:?}"))?;
    if halt_name(cached_halt) != halt_name(halt) {
        return Err(format!(
            "{name}: cached halt {} != precise {}",
            halt_name(cached_halt),
            halt_name(halt)
        ));
    }
    if let Some(diff) = state_diff(&cached, &oracle) {
        return Err(format!("{name}: cached replay diverged: {diff}"));
    }
    // Cached memory must match the per-step memory word for word.
    for addr in (0..CASE_MEM as u32).step_by(4) {
        let a = mem.peek_word(addr);
        let b = mem2.peek_word(addr);
        if a != b {
            return Err(format!(
                "{name}: cached memory diverged at {addr:#x}: {a:?} != {b:?}"
            ));
        }
    }
    Ok(oracle.instret)
}

/// Outcome of the whole matrix.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Cases run.
    pub total: usize,
    /// Total instructions retired in lockstep across all cases.
    pub instructions: u64,
    /// One entry per failed case: `name: what diverged`.
    pub failures: Vec<String>,
}

/// Runs every named case. A clean run has `failures.is_empty()`.
pub fn run_matrix(max_cycles: u64) -> MatrixReport {
    let all = cases();
    let mut report = MatrixReport {
        total: all.len(),
        instructions: 0,
        failures: Vec::new(),
    };
    for case in &all {
        match lockstep_source(case.name, case.source, max_cycles) {
            Ok(instructions) => report.instructions += instructions,
            Err(what) => report.failures.push(what),
        }
    }
    report
}

/// Result of a clean ELF lockstep run.
#[derive(Debug, Clone)]
pub struct ElfLockstep {
    /// The code the program passed to `exit`.
    pub exit_code: i32,
    /// Bytes written to fd 1 (identical on both harts by construction).
    pub stdout: Vec<u8>,
    /// Instructions retired.
    pub instructions: u64,
    /// Syscalls serviced.
    pub syscalls: u64,
}

/// Runs an ELF32 binary on the production [`Cpu`] and the reference
/// hart in per-instruction lockstep, servicing syscalls through two
/// independent shims whose answers must agree.
///
/// # Errors
///
/// Returns a description of the first divergence (state, syscall
/// arguments, shim answers, or output streams).
pub fn lockstep_elf(elf: &[u8], max_cycles: u64) -> Result<ElfLockstep, String> {
    let image = parse_elf32(elf).map_err(|e| format!("elf parse: {e}"))?;

    let mut mem = FlatMemory::new(DRAM_SIZE);
    let mut ref_mem = RefMemory::new(DRAM_SIZE);
    for seg in &image.segments {
        let words: Vec<u32> = seg
            .data
            .chunks(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..c.len()].copy_from_slice(c);
                u32::from_le_bytes(b)
            })
            .collect();
        mem.load_words(seg.vaddr, &words);
        ref_mem.load_words(seg.vaddr, &words);
    }

    let sp = DRAM_SIZE as u32 - 16;
    let heap_base = (image.load_end() + 0xfff) & !0xfff;
    let heap_limit = DRAM_SIZE as u32 - STACK_RESERVE;
    let mut cpu = Cpu::new(image.entry);
    cpu.set_reg(2, sp);
    let mut oracle = RefCpu::new(image.entry);
    oracle.regs[2] = sp;
    let mut shim = SyscallShim::new(heap_base, heap_limit);
    let mut ref_shim = SyscallShim::new(heap_base, heap_limit);

    loop {
        if cpu.cycles >= max_cycles {
            return Err(format!("elf: no exit within {max_cycles} cycles"));
        }
        let step = cpu
            .step(&mut mem)
            .map_err(|t| format!("elf: fast trap {t:?}"))?;
        let ref_step = oracle
            .step(&mut ref_mem)
            .map_err(|t| format!("elf: oracle trap {t:?}"))?;
        if let Some(diff) = state_diff(&cpu, &oracle) {
            return Err(format!(
                "elf: lockstep divergence after {} instructions: {diff}",
                oracle.instret
            ));
        }
        match (step, ref_step) {
            (None, None) => continue,
            (Some(Halt::Ecall), Some(RefHalt::Ecall)) => {}
            (h, r) => return Err(format!("elf: halt skew fast={h:?} oracle={r:?}")),
        }
        // Both harts trapped into the same ecall; the shims must agree.
        let nr = cpu.reg(17);
        let args = [cpu.reg(10), cpu.reg(11), cpu.reg(12)];
        let ret = shim.dispatch(nr, args, &mut |addr| mem.load_byte(addr).ok());
        let ref_ret = ref_shim.dispatch(nr, args, &mut |addr| {
            ref_mem
                .peek_word(addr)
                .map(|w| (w >> ((addr & 3) * 8)) as u8)
        });
        if ret != ref_ret {
            return Err(format!(
                "elf: shim answers diverged on syscall {nr}: {ret:?} != {ref_ret:?}"
            ));
        }
        if let Some(code) = ret.exit {
            if shim.stdout != ref_shim.stdout {
                return Err("elf: stdout streams diverged".into());
            }
            return Ok(ElfLockstep {
                exit_code: code,
                stdout: shim.stdout,
                instructions: oracle.instret,
                syscalls: shim.calls,
            });
        }
        cpu.set_reg(10, ret.a0);
        oracle.regs[10] = ret.a0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_large_and_uniquely_named() {
        let all = cases();
        assert!(
            all.len() >= 50,
            "matrix has {} cases, want >= 50",
            all.len()
        );
        let mut names: Vec<_> = all.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate case names");
    }

    #[test]
    fn matrix_passes_clean() {
        let report = run_matrix(100_000);
        assert!(
            report.failures.is_empty(),
            "matrix failures:\n{}",
            report.failures.join("\n")
        );
        assert!(report.instructions > 500);
    }

    #[test]
    fn a_deliberately_wrong_program_is_caught() {
        // Budget exhaustion (no halt) must be reported, not looped on.
        let err = lockstep_source("spin", "loop:\nj loop", 1000).unwrap_err();
        assert!(err.contains("no halt"), "unexpected error: {err}");
    }
}
