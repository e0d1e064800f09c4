//! **E7 — Full-system offload** (paper §5, Fig. 3): cycles, time and
//! energy for software MVM on the RISC-V host vs offload to the
//! memory-mapped photonic accelerator, across problem sizes, plus the
//! DMA-batching ablation.

use neuropulsim_bench::{experiment_rng, fmt, Table};
use neuropulsim_linalg::RMatrix;
use neuropulsim_sim::firmware::{accel_offload, software_mvm, DramLayout};
use neuropulsim_sim::system::{RunOutcome, System};
use rand::Rng;

struct Run {
    cycles: u64,
    instructions: u64,
    energy: f64,
}

fn run_workload(n: usize, batch: usize, offload: bool, seed: u64) -> Run {
    let layout = DramLayout::default();
    let mut rng = experiment_rng(seed);
    let w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
    let mut sys = System::new();
    if offload {
        sys.platform.pe_mut(0).load_matrix(&w);
    }
    sys.write_fixed_vector(layout.w_addr, w.as_slice());
    for v in 0..batch {
        let col: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, &col);
    }
    let firmware = if offload {
        accel_offload(n, batch, layout)
    } else {
        software_mvm(n, batch, layout)
    };
    sys.load_firmware_source(&firmware);
    let report = sys.run(2_000_000_000);
    assert!(
        matches!(report.outcome, RunOutcome::Halted(_)),
        "workload must halt: {:?}",
        report.outcome
    );
    Run {
        cycles: report.cycles,
        instructions: report.instructions,
        energy: report.energy.total(),
    }
}

fn main() {
    println!("## E7a — Software vs photonic offload (batch = 32)\n");
    let mut table = Table::new(&[
        "N",
        "sw cycles",
        "hw cycles",
        "speedup",
        "sw energy [J]",
        "hw energy [J]",
        "energy ratio",
    ]);
    for &n in &[4usize, 8, 16, 32] {
        let sw = run_workload(n, 32, false, 1000 + n as u64);
        let hw = run_workload(n, 32, true, 1000 + n as u64);
        table.row(&[
            n.to_string(),
            sw.cycles.to_string(),
            hw.cycles.to_string(),
            format!("{:.1}x", sw.cycles as f64 / hw.cycles as f64),
            fmt(sw.energy),
            fmt(hw.energy),
            format!("{:.1}x", sw.energy / hw.energy),
        ]);
    }
    table.print();

    println!("\n## E7b — Batch scaling (N = 16): offload overhead amortization\n");
    let mut table = Table::new(&["batch", "sw cycles", "hw cycles", "speedup", "hw instr"]);
    for &batch in &[1usize, 4, 16, 64, 128] {
        let sw = run_workload(16, batch, false, 2000 + batch as u64);
        let hw = run_workload(16, batch, true, 2000 + batch as u64);
        table.row(&[
            batch.to_string(),
            sw.cycles.to_string(),
            hw.cycles.to_string(),
            format!("{:.1}x", sw.cycles as f64 / hw.cycles as f64),
            hw.instructions.to_string(),
        ]);
    }
    table.print();
    println!("\n(The host executes a fixed ~43-instruction driver regardless of");
    println!("batch — interrupts instead of polling, as the paper stresses.)");

    println!("\n## E7c — Memory-hierarchy ablation (software MVM, N = 16, batch 8)\n");
    println!("(The flat-memory model flatters the CPU baseline; with a 20-cycle");
    println!("DRAM and a 4 KiB L1 the software path lands in between — the");
    println!("photonic offload advantage only grows with memory realism.)\n");
    let mut table = Table::new(&["memory model", "sw cycles", "offload speedup"]);
    let layout = DramLayout::default();
    let build = |latency: u64, cache: bool| -> System {
        let mut rng = experiment_rng(2500);
        let n = 16;
        let w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
        let mut sys = System::new();
        sys.platform.dram_latency = latency;
        if cache {
            sys.platform.l1_cache = Some(neuropulsim_sim::cache::DirectMappedCache::new(
                128, 8, latency,
            ));
        }
        sys.write_fixed_vector(layout.w_addr, w.as_slice());
        for v in 0..8 {
            let col: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
            sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, &col);
        }
        sys.load_firmware_source(&software_mvm(n, 8, layout));
        sys
    };
    let hw = run_workload(16, 8, true, 2500);
    for (name, latency, cache) in [
        ("flat memory (idealized)", 0u64, false),
        ("20-cycle DRAM, no cache", 20, false),
        ("20-cycle DRAM + 4 KiB L1", 20, true),
    ] {
        let mut sys = build(latency, cache);
        let report = sys.run(2_000_000_000);
        assert!(matches!(report.outcome, RunOutcome::Halted(_)));
        table.row(&[
            name.to_string(),
            report.cycles.to_string(),
            format!("{:.0}x", report.cycles as f64 / hw.cycles as f64),
        ]);
    }
    table.print();
}
