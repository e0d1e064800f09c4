//! Tier-1 instruction-matrix conformance: every named RV32IM corner
//! case must hold in per-instruction lockstep against the reference
//! hart AND under the cached/trace-compiled pipeline.

use neuropulsim_oracle::rv32_matrix::{cases, run_matrix};

const MATRIX_BUDGET: u64 = 100_000;

#[test]
fn matrix_has_at_least_fifty_cases() {
    assert!(cases().len() >= 50, "matrix shrank to {}", cases().len());
}

#[test]
fn every_matrix_case_is_conformant() {
    let report = run_matrix(MATRIX_BUDGET);
    assert_eq!(report.total, cases().len());
    assert!(
        report.failures.is_empty(),
        "{} of {} matrix cases diverged:\n{}",
        report.failures.len(),
        report.total,
        report.failures.join("\n")
    );
}

#[test]
fn matrix_retires_real_work() {
    // A matrix of empty programs would pass vacuously; require the
    // suite to retire a meaningful amount of lockstep work (the loop
    // kernels alone contribute several hundred instructions).
    let report = run_matrix(MATRIX_BUDGET);
    assert!(
        report.instructions > 1_000,
        "matrix retired only {} instructions",
        report.instructions
    );
}

#[test]
fn hot_loop_cases_run_inside_traces() {
    // The `hot_` cases exist to drive every trace-executor arm; require
    // that the cached replay actually dispatched compiled traces and
    // looped in them, not just decoded runs.
    use neuropulsim_riscv::asm::assemble;
    use neuropulsim_riscv::bus::FlatMemory;
    use neuropulsim_riscv::cpu::Cpu;
    let hot: Vec<_> = cases()
        .into_iter()
        .filter(|c| c.name.starts_with("hot_"))
        .collect();
    assert!(hot.len() >= 7, "hot-loop cases shrank to {}", hot.len());
    for case in hot {
        let words = assemble(case.source).expect("fixture assembles");
        let mut mem = FlatMemory::new(4096);
        mem.load_words(0, &words);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, MATRIX_BUDGET).expect("no trap");
        assert!(
            cpu.trace_engine().hits >= 8,
            "{}: only {} trace dispatches",
            case.name,
            cpu.trace_engine().hits
        );
    }
}

#[test]
fn hot_jalr_cases_run_between_traces() {
    // Traces stop at `jalr`, so every `jalr` the hot call/return and
    // computed-jump loops retire in bulk ends a run decoded from
    // memory, while the code around it runs in traces.
    use neuropulsim_riscv::asm::assemble;
    use neuropulsim_riscv::bus::FlatMemory;
    use neuropulsim_riscv::cpu::Cpu;
    for name in ["hot_call_ret", "hot_computed_jump"] {
        let case = cases()
            .into_iter()
            .find(|c| c.name == name)
            .expect("case exists");
        let words = assemble(case.source).expect("fixture assembles");
        let mut mem = FlatMemory::new(4096);
        mem.load_words(0, &words);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, MATRIX_BUDGET).expect("no trap");
        let perf = cpu.perf_counters();
        assert!(perf.block_hits >= 8, "{name}: {perf:?}");
        assert!(perf.block_misses >= 20, "{name}: {perf:?}");
    }
}
