//! Full-system simulation (paper §5, Fig. 3): a RISC-V host runs the
//! same MVM workload twice — once in software with fixed-point
//! arithmetic, once offloaded to the memory-mapped photonic accelerator
//! through DMA + doorbell + interrupt — and the run reports show the
//! speedup and energy shift.
//!
//! Run with: `cargo run --release --example system_offload`

use neuropulsim::linalg::RMatrix;
use neuropulsim::sim::firmware::{accel_offload, software_mvm, DramLayout};
use neuropulsim::sim::system::{RunOutcome, System};

fn main() {
    let n = 8;
    let batch = 32;
    let layout = DramLayout::default();
    let w = RMatrix::from_fn(n, n, |i, j| 0.4 * ((i * 3 + j) as f64 * 0.31).sin());
    let inputs: Vec<Vec<f64>> = (0..batch)
        .map(|v| {
            (0..n)
                .map(|k| 0.3 * ((v + k) as f64 * 0.17).cos())
                .collect()
        })
        .collect();

    let prepare = |sys: &mut System| {
        sys.write_fixed_vector(layout.w_addr, w.as_slice());
        for (v, col) in inputs.iter().enumerate() {
            sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, col);
        }
    };

    // --- software baseline -------------------------------------------
    let mut sw = System::new();
    prepare(&mut sw);
    sw.load_firmware_source(&software_mvm(n, batch, layout));
    let sw_report = sw.run(1_000_000_000);
    assert!(matches!(sw_report.outcome, RunOutcome::Halted(_)));

    // --- photonic offload ---------------------------------------------
    let mut hw = System::new();
    hw.platform.pe_mut(0).load_matrix(&w);
    prepare(&mut hw);
    hw.load_firmware_source(&accel_offload(n, batch, layout));
    let hw_report = hw.run(1_000_000_000);
    assert!(matches!(hw_report.outcome, RunOutcome::Halted(_)));

    // --- results check --------------------------------------------------
    let mut worst = 0.0f64;
    for (v, col) in inputs.iter().enumerate() {
        let want = w.mul_vec(col);
        let sw_y = sw.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
        let hw_y = hw.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
        for i in 0..n {
            worst = worst
                .max((sw_y[i] - want[i]).abs())
                .max((hw_y[i] - want[i]).abs());
        }
    }
    println!("worst-case output error vs float reference: {worst:.2e}\n");

    println!("=== software MVM ({n}x{n}, batch {batch}) ===");
    println!(
        "  cycles: {}  instructions: {}  time: {:.2} us",
        sw_report.cycles,
        sw_report.instructions,
        sw_report.time_s * 1e6
    );
    println!("{}", sw_report.energy);

    println!("=== photonic offload ===");
    println!(
        "  cycles: {}  instructions: {}  time: {:.3} us",
        hw_report.cycles,
        hw_report.instructions,
        hw_report.time_s * 1e6
    );
    println!("{}", hw_report.energy);

    println!(
        "speedup: {:.1}x   energy ratio: {:.1}x",
        sw_report.cycles as f64 / hw_report.cycles as f64,
        sw_report.energy.total() / hw_report.energy.total()
    );
}
