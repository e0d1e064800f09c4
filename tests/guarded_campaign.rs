//! Acceptance test for the runtime fault-tolerance stack: over the same
//! stratified fault grid, the ABFT-guarded offload driver must (a)
//! produce a strictly lower silent-data-corruption rate than the plain
//! driver and (b) reclassify at least half of the baseline's SDC
//! population into detected outcomes (recovered or flagged), while
//! remaining bit-identical for any thread count.

use neuropulsim::core::abft::fixed_checksum_tolerance;
use neuropulsim::linalg::RMatrix;
use neuropulsim::sim::campaign::{CampaignConfig, GuardComparison, Stratum};
use neuropulsim::sim::fault::{Campaign, FaultKind, FaultTarget};
use neuropulsim::sim::firmware::{accel_offload, accel_offload_guarded, DramLayout, GuardConfig};
use neuropulsim::sim::guard::{read_guard_record, write_guard_operands};
use neuropulsim::sim::system::{System, SPM_BASE};

const N: usize = 8;
const BATCH: usize = 16;

fn operands() -> (RMatrix, Vec<Vec<f64>>) {
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
            "spm-buffer",
            (0..2 * words)
                .map(|k| FaultTarget::Spm {
                    addr: SPM_BASE + 0x100 + 4 * k,
                })
                .collect(),
        ),
    ]
}

fn baseline_campaign(layout: DramLayout) -> Campaign<'static> {
    let (w, x) = operands();
    Campaign::new(
        move || {
            let mut sys = System::new();
            sys.platform.pe_mut(0).load_matrix(&w);
            for (v, col) in x.iter().enumerate() {
                sys.write_fixed_vector(layout.x_addr + (v * N * 4) as u32, col);
            }
            sys.load_firmware_source(&accel_offload(N, BATCH, layout));
            sys
        },
        move |sys| readout(sys, layout),
        20_000,
    )
}

fn guarded_campaign(layout: DramLayout) -> Campaign<'static> {
    let (w, x) = operands();
    let cfg = GuardConfig {
        tolerance: fixed_checksum_tolerance(N),
        ..GuardConfig::default()
    };
    Campaign::new(
        move || {
            let mut sys = System::new();
            sys.platform.pe_mut(0).load_matrix(&w);
            write_guard_operands(&mut sys, &w, &x, layout);
            sys.load_firmware_source(&accel_offload_guarded(N, BATCH, layout, &cfg));
            sys
        },
        move |sys| readout(sys, layout),
        150_000,
    )
    .with_guard_readout(move |sys| read_guard_record(sys, layout))
}

#[test]
fn guard_cuts_silent_corruption_and_reclassifies_it_as_detected() {
    let layout = DramLayout::default();
    let strata = strata(layout);
    let cfg = CampaignConfig {
        cadence: 256,
        injections: 120,
        ..CampaignConfig::default()
    };
    let baseline = baseline_campaign(layout).run_stratified(
        "gemm-offload",
        7,
        FaultKind::Transient,
        &strata,
        &cfg,
    );
    let guarded = guarded_campaign(layout).run_stratified(
        "gemm-offload-guarded",
        7,
        FaultKind::Transient,
        &strata,
        &cfg,
    );
    let cmp = GuardComparison { baseline, guarded };

    let (sdc_base, sdc_guard) = cmp.sdc_rates();
    assert!(
        cmp.baseline.stats.sdc > 0,
        "fault grid must produce baseline SDCs: {:?}",
        cmp.baseline.stats
    );
    assert!(
        sdc_guard < sdc_base,
        "guard must strictly lower the SDC rate: {sdc_guard} vs {sdc_base}\n\
         baseline {:?}\nguarded {:?}",
        cmp.baseline.stats,
        cmp.guarded.stats
    );
    assert!(
        cmp.reclassified_ratio() >= 0.5,
        "at least half the baseline SDC population must surface as \
         detected outcomes, got {:.3}\nbaseline {:?}\nguarded {:?}",
        cmp.reclassified_ratio(),
        cmp.baseline.stats,
        cmp.guarded.stats
    );
    let (coverage, _) = cmp.detection_coverage();
    assert!(coverage > 0.0, "detection coverage must be positive");
    assert!(
        cmp.cycle_overhead() > 1.0,
        "the guard protocol costs cycles: {}",
        cmp.cycle_overhead()
    );
}

#[test]
fn guarded_campaign_is_thread_count_invariant() {
    let layout = DramLayout::default();
    let strata = strata(layout);
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let cfg = CampaignConfig {
            cadence: 512,
            threads,
            injections: 30,
            batch: 8,
            ..CampaignConfig::default()
        };
        reports.push(guarded_campaign(layout).run_stratified(
            "gemm-offload-guarded",
            11,
            FaultKind::Transient,
            &strata,
            &cfg,
        ));
    }
    let (a, b) = (&reports[0], &reports[1]);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.strata, b.strata);
    assert_eq!(a.cycles_simulated, b.cycles_simulated);
}
