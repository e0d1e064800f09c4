//! Fault-campaign probe: a stratified, checkpointed, parallel
//! fault-injection campaign over the GeMM-offload firmware workload
//! (DMA in → photonic doorbell → `wfi` → DMA out), emitting one
//! unified `neuropulsim-bench/v1` report: the statistical campaign
//! report rides in `payload` (bit-identical for any
//! `NEUROPULSIM_THREADS`, so CI's determinism check compares `payload`
//! only) and the campaign wall time in `measurements`.
//!
//! Usage: `fault_bench [injections] [cadence] [seed]`
//! (defaults: 500 injections, cadence 512, seed 7).
//!
//! The campaign report includes per-stratum outcome tallies, Wilson 95%
//! intervals on the masked/SDC/crash/hang rates and the vulnerability,
//! and the cycles-simulated vs. cycles-saved accounting of checkpoint
//! reuse.

use neuropulsim_bench::runner::Runner;
use neuropulsim_linalg::RMatrix;
use neuropulsim_sim::campaign::{CampaignConfig, Stratum};
use neuropulsim_sim::fault::{Campaign, FaultKind, FaultTarget};
use neuropulsim_sim::firmware::{accel_offload, DramLayout};
use neuropulsim_sim::system::{System, SPM_BASE};

fn main() {
    let mut args = std::env::args().skip(1);
    let injections: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let cadence: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let n = 8;
    let batch = 64;
    let layout = DramLayout::default();
    let w = RMatrix::from_fn(n, n, |i, j| 0.4 * ((i as f64 - j as f64) * 0.31).sin());
    let x: Vec<Vec<f64>> = (0..batch)
        .map(|v| {
            (0..n)
                .map(|k| 0.2 * ((v * n + k) as f64 * 0.17).cos())
                .collect()
        })
        .collect();

    let campaign = Campaign::new(
        {
            let w = w.clone();
            let x = x.clone();
            move || {
                let mut sys = System::new();
                sys.platform.pe_mut(0).load_matrix(&w);
                for (v, col) in x.iter().enumerate() {
                    sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, col);
                }
                sys.load_firmware_source(&accel_offload(n, batch, layout));
                sys
            }
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
        // Hang threshold: ~35x the golden run, bounding the cost of
        // hang injections (which must burn the whole budget).
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
    ];

    let cfg = CampaignConfig {
        cadence,
        injections,
        ..CampaignConfig::default()
    };
    let mut runner = Runner::new("fault_bench");
    let mut report = None;
    runner.measure_with_meta(
        "fault_campaign/stratified",
        1,
        &[
            ("injections", format!("{injections}")),
            ("cadence", format!("{cadence}")),
            ("seed", format!("{seed}")),
        ],
        || {
            report = Some(campaign.run_stratified(
                "gemm-offload-n8-b64",
                seed,
                FaultKind::Transient,
                &strata,
                &cfg,
            ));
        },
    );
    runner.payload(report.expect("campaign ran").to_json());
    print!("{}", runner.to_json());
}
