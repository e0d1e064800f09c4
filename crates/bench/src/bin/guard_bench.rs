//! Guarded-vs-unguarded fault-campaign probe: runs the same stratified
//! fault grid as `fault_bench` twice — once over the plain GeMM-offload
//! firmware and once over the ABFT-guarded fault-tolerant driver
//! (`accel_offload_guarded`) — and emits one unified
//! `neuropulsim-bench/v1` report: the [`GuardComparison`] JSON
//! (detection coverage, recovery rate, cycle overhead, SDC rates, both
//! full campaign reports) rides in `payload` (bit-identical for any
//! `NEUROPULSIM_THREADS`, so CI's determinism check compares `payload`
//! only) and the two campaign wall times in `measurements`.
//!
//! Usage: `guard_bench [injections] [cadence] [seed]`
//! (defaults: 300 injections, cadence 64, seed 7).

use neuropulsim_bench::runner::Runner;
use neuropulsim_core::abft::fixed_checksum_tolerance;
use neuropulsim_linalg::RMatrix;
use neuropulsim_sim::campaign::{CampaignConfig, GuardComparison, Stratum};
use neuropulsim_sim::fault::{Campaign, FaultKind, FaultTarget};
use neuropulsim_sim::firmware::{accel_offload, accel_offload_guarded, DramLayout, GuardConfig};
use neuropulsim_sim::guard::{read_guard_record, write_guard_operands};
use neuropulsim_sim::system::{System, SPM_BASE};

const N: usize = 8;
const BATCH: usize = 64;

fn workload_operands() -> (RMatrix, Vec<Vec<f64>>) {
    let w = RMatrix::from_fn(N, N, |i, j| 0.4 * ((i as f64 - j as f64) * 0.31).sin());
    let x: Vec<Vec<f64>> = (0..BATCH)
        .map(|v| {
            (0..N)
                .map(|k| 0.2 * ((v * N + k) as f64 * 0.17).cos())
                .collect()
        })
        .collect();
    (w, x)
}

fn readout(sys: &System, layout: DramLayout) -> Vec<u32> {
    (0..N * BATCH)
        .map(|k| {
            sys.platform
                .dram
                .peek(layout.y_addr + 4 * k as u32)
                .unwrap_or(0)
        })
        .collect()
}

fn strata(layout: DramLayout) -> Vec<Stratum> {
    let words = (N * BATCH) as u32;
    vec![
        Stratum::new(
            "dram-inputs",
            (0..words)
                .map(|k| FaultTarget::Dram {
                    addr: layout.x_addr + 4 * k,
                })
                .collect(),
        ),
        Stratum::new(
            "dram-outputs",
            (0..words)
                .map(|k| FaultTarget::Dram {
                    addr: layout.y_addr + 4 * k,
                })
                .collect(),
        ),
        Stratum::new(
            "dram-unused",
            (0..words)
                .map(|k| FaultTarget::Dram {
                    addr: 0x003F_0000 + 4 * k,
                })
                .collect(),
        ),
        Stratum::new(
            "cpu-registers",
            (1..32)
                .map(|r| FaultTarget::Register { index: r })
                .collect(),
        ),
        Stratum::new(
            "spm-buffer",
            (0..2 * words)
                .map(|k| FaultTarget::Spm {
                    addr: SPM_BASE + 0x100 + 4 * k,
                })
                .collect(),
        ),
    ]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let injections: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let cadence: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let layout = DramLayout::default();
    let (w, x) = workload_operands();
    let strata = strata(layout);
    let cfg = CampaignConfig {
        cadence,
        injections,
        ..CampaignConfig::default()
    };

    // Unguarded baseline: the plain offload driver from fault_bench.
    let baseline_campaign = Campaign::new(
        {
            let w = w.clone();
            let x = x.clone();
            move || {
                let mut sys = System::new();
                sys.platform.pe_mut(0).load_matrix(&w);
                for (v, col) in x.iter().enumerate() {
                    sys.write_fixed_vector(layout.x_addr + (v * N * 4) as u32, col);
                }
                sys.load_firmware_source(&accel_offload(N, BATCH, layout));
                sys
            }
        },
        move |sys| readout(sys, layout),
        20_000,
    );
    let mut runner = Runner::new("guard_bench");
    let campaign_meta = [
        ("injections", format!("{injections}")),
        ("cadence", format!("{cadence}")),
        ("seed", format!("{seed}")),
    ];
    let mut baseline = None;
    runner.measure_with_meta("guard_campaign/baseline", 1, &campaign_meta, || {
        baseline = Some(baseline_campaign.run_stratified(
            "gemm-offload-n8-b64",
            seed,
            FaultKind::Transient,
            &strata,
            &cfg,
        ));
    });
    let baseline = baseline.expect("baseline campaign ran");

    // Guarded counterpart: ABFT checks, watchdog, retry/recalibration,
    // software fallback. The guard readout reclassifies halted runs.
    let guard_cfg = GuardConfig {
        tolerance: fixed_checksum_tolerance(N),
        ..GuardConfig::default()
    };
    let guarded_campaign = Campaign::new(
        {
            let w = w.clone();
            let x = x.clone();
            move || {
                let mut sys = System::new();
                sys.platform.pe_mut(0).load_matrix(&w);
                write_guard_operands(&mut sys, &w, &x, layout);
                sys.load_firmware_source(&accel_offload_guarded(N, BATCH, layout, &guard_cfg));
                sys
            }
        },
        move |sys| readout(sys, layout),
        // The guarded driver checksums every block and vector, so its
        // golden run is far longer; keep the same ~hang multiple.
        150_000,
    )
    .with_guard_readout(move |sys| read_guard_record(sys, layout));
    let mut guarded = None;
    runner.measure_with_meta("guard_campaign/guarded", 1, &campaign_meta, || {
        guarded = Some(guarded_campaign.run_stratified(
            "gemm-offload-guarded-n8-b64",
            seed,
            FaultKind::Transient,
            &strata,
            &cfg,
        ));
    });
    let guarded = guarded.expect("guarded campaign ran");

    let comparison = GuardComparison { baseline, guarded };
    runner.payload(comparison.to_json());
    print!("{}", runner.to_json());
}
