//! **E12 — PE cluster** (paper §5, Fig. 3 right side: multiple
//! accelerators "(i.e., processing elements - PEs) in a cluster"
//! coordinated through MMRs and interrupts).
//!
//! A two-layer network `y = W2 relu(W1 x)` runs (a) fully in software,
//! (b) on a two-PE photonic cluster with the host applying the ReLU on
//! the scratchpad intermediate.

use neuropulsim_bench::{experiment_rng, fmt, Table};
use neuropulsim_linalg::RMatrix;
use neuropulsim_sim::firmware::{two_layer_offload, two_layer_software, DramLayout};
use neuropulsim_sim::system::{RunOutcome, System};
use rand::Rng;

struct Run {
    cycles: u64,
    instructions: u64,
    energy: f64,
    worst_error: f64,
}

fn run_two_layer(n: usize, cluster: bool, seed: u64) -> Run {
    let layout = DramLayout::default();
    let mut rng = experiment_rng(seed);
    let w1 = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
    let w2 = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();

    let mut sys = System::new();
    if cluster {
        sys.platform.pe_mut(0).load_matrix(&w1);
        let _pe1 = sys.platform.add_pe();
        sys.platform.pe_mut(1).load_matrix(&w2);
        sys.load_firmware_source(&two_layer_offload(n, layout));
    } else {
        sys.write_fixed_vector(layout.w_addr, w1.as_slice());
        sys.write_fixed_vector(layout.w_addr + (n * n * 4) as u32, w2.as_slice());
        sys.load_firmware_source(&two_layer_software(n, layout));
    }
    sys.write_fixed_vector(layout.x_addr, &x);
    let report = sys.run(2_000_000_000);
    assert!(
        matches!(report.outcome, RunOutcome::Halted(_)),
        "two-layer run must halt: {:?}",
        report.outcome
    );

    let mid: Vec<f64> = w1.mul_vec(&x).iter().map(|&v| v.max(0.0)).collect();
    let want = w2.mul_vec(&mid);
    let got = sys.read_fixed_vector(layout.y_addr, n);
    let worst_error = got
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    Run {
        cycles: report.cycles,
        instructions: report.instructions,
        energy: report.energy.total(),
        worst_error,
    }
}

fn main() {
    println!("## E12 — Two-layer network: software vs 2-PE photonic cluster\n");
    let mut table = Table::new(&[
        "N",
        "sw cycles",
        "cluster cycles",
        "speedup",
        "sw energy [J]",
        "cluster energy [J]",
        "worst |err|",
    ]);
    for &n in &[4usize, 8, 16, 32] {
        let sw = run_two_layer(n, false, 6000 + n as u64);
        let hw = run_two_layer(n, true, 6000 + n as u64);
        assert!(sw.worst_error < 2e-3, "software error {}", sw.worst_error);
        table.row(&[
            n.to_string(),
            sw.cycles.to_string(),
            hw.cycles.to_string(),
            format!("{:.1}x", sw.cycles as f64 / hw.cycles as f64),
            fmt(sw.energy),
            fmt(hw.energy),
            fmt(hw.worst_error),
        ]);
    }
    table.print();

    let hw = run_two_layer(16, true, 6016);
    println!(
        "\ncluster driver: {} instructions total — two doorbells, two `wfi`\n\
         sleeps, one ReLU loop; the PEs coordinate through their MMRs as in\n\
         the paper's Fig. 3 cluster.",
        hw.instructions
    );
}
