//! Fuzz: `System::snapshot`/`restore` round-trips taken at random cut
//! points — including mid-decoded-block, mid-wfi-fast-forward, inside a
//! bulk window over a polled DMA transfer, and with multi-PE fabric jobs
//! in flight — must leave resumed runs bit-identical to uninterrupted
//! ones over seeded random workloads.

use neuropulsim_linalg::parallel::split_seed;
use neuropulsim_linalg::RMatrix;
use neuropulsim_sim::accel::PcmDriftModel;
use neuropulsim_sim::firmware::{
    accel_offload, cluster_offload, software_mvm, two_layer_offload, DramLayout,
};
use neuropulsim_sim::serve::{
    synthetic_load, InferenceServer, LoadSpec, PeFault, PeHealth, PeSpec, ServeConfig,
};
use neuropulsim_sim::system::{RunOutcome, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BUDGET: u64 = 10_000_000;

/// Which firmware the randomized workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Pure-software MVM: straight-line decoded-block execution.
    Software,
    /// Software MVM sized so its inner loops cross the trace
    /// compiler's hot threshold: cuts land mid-trace and mid-bulk-
    /// retire.
    SoftwareHot,
    /// Single-accelerator offload: sleeps in `wfi` during transfers.
    Offload,
    /// Work-queue GeMM sharded over a 3-PE fabric (primary + 2 extra
    /// PEs): cuts land while several devices hold in-flight jobs.
    Cluster,
    /// The cluster scheduler with wide tiles: each polled DMA copy runs
    /// for tens of cycles, so cuts land inside bulk windows that opened
    /// over a transfer in flight.
    ClusterWide,
    /// Two-layer MLP over PE 0 and PE 1, with the completion IRQ enabled
    /// on both and a `wfi` sleep on each: cuts land while an extra PE's
    /// interrupt is awaited or pending.
    TwoLayer,
}

/// Builds a randomized MVM workload: matrix order, batch count, weights
/// and inputs all derive from `seed`.
fn build_system(seed: u64, workload: Workload) -> (System, DramLayout, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = match workload {
        Workload::SoftwareHot => rng.gen_range(4usize..7),
        Workload::ClusterWide => rng.gen_range(6usize..9),
        _ => rng.gen_range(2usize..7),
    };
    let batch = match workload {
        Workload::Cluster => {
            let tile = rng.gen_range(1usize..3);
            tile * rng.gen_range(2usize..5) // several tiles to shard
        }
        Workload::ClusterWide => 8 * rng.gen_range(2usize..4),
        Workload::SoftwareHot => rng.gen_range(8usize..13),
        Workload::TwoLayer => 1,
        _ => rng.gen_range(1usize..3),
    };
    let layout = DramLayout::default();
    let mut sys = System::new();
    let w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    for v in 0..batch {
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, &x);
    }
    match workload {
        Workload::Software | Workload::SoftwareHot => {
            sys.write_fixed_vector(layout.w_addr, w.as_slice());
            sys.load_firmware_source(&software_mvm(n, batch, layout));
        }
        Workload::Offload => {
            sys.platform.pe_mut(0).load_matrix(&w);
            sys.load_firmware_source(&accel_offload(n, batch, layout));
        }
        Workload::Cluster | Workload::ClusterWide => {
            for _ in 0..2 {
                sys.platform.add_pe();
            }
            for k in 0..sys.platform.pe_count() {
                sys.platform.pe_mut(k).load_matrix(&w);
            }
            let widest = if workload == Workload::Cluster { 2 } else { 8 };
            let tile = (1..=batch)
                .rev()
                .find(|t| batch % t == 0 && *t <= widest)
                .unwrap_or(1);
            sys.load_firmware_source(&cluster_offload(n, batch, 3, tile, layout));
        }
        Workload::TwoLayer => {
            sys.platform.add_pe();
            sys.platform.pe_mut(0).load_matrix(&w);
            let w2 = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            sys.platform.pe_mut(1).load_matrix(&w2);
            sys.load_firmware_source(&two_layer_offload(n, layout));
        }
    }
    (sys, layout, n * batch)
}

fn signature(sys: &System, layout: DramLayout, words: usize) -> Vec<u32> {
    (0..words)
        .map(|k| {
            sys.platform
                .dram
                .peek(layout.y_addr + 4 * k as u32)
                .unwrap_or(0)
        })
        .collect()
}

/// Interesting machine states the random cuts landed in.
#[derive(Default)]
struct CutStats {
    /// Cuts inside a wfi sleep window.
    wfi: usize,
    /// Cuts taken while at least one accelerator held an in-flight job.
    busy: usize,
    /// Cuts taken after the trace compiler had taken over hot code.
    in_trace_tier: usize,
    /// Cuts whose budget boundary sliced a compiled trace mid-body
    /// (the trace executor recorded a budget side exit).
    mid_trace_body: usize,
    /// Cuts taken with the CPU in `wfi` on, or not yet past, an extra
    /// PE's completion interrupt: PE 1 busy or its line raised.
    extra_pe_irq: usize,
    /// Cuts taken while the CPU polled a DMA transfer in flight, after
    /// the bulk scheduler had moved transfer words at in-window
    /// accesses: the budget ended a bulk window mid-transfer.
    dma_window: usize,
}

/// Runs `seed`'s workload uninterrupted, then re-runs it with a
/// snapshot/restore cut at each of `cuts` random cycle counts,
/// checking both resume paths (`to_system` and in-place `restore`)
/// against the reference.
fn check_cuts(seed: u64, workload: Workload, cuts: usize) -> CutStats {
    let (mut reference, layout, words) = build_system(seed, workload);
    let ref_report = reference.run(BUDGET);
    assert!(
        matches!(ref_report.outcome, RunOutcome::Halted(_)),
        "seed {seed}: reference workload must halt"
    );
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0xc07));
    let mut stats = CutStats::default();
    for _ in 0..cuts {
        let cut = rng.gen_range(1..ref_report.cycles.max(2));
        let (mut sys, _, _) = build_system(seed, workload);
        if sys.run_cycles_bounded(cut, BUDGET).is_some() {
            continue; // workload finished before the cut
        }
        if sys.cpu.waiting_for_interrupt {
            stats.wfi += 1;
        }
        if sys.platform.pes().iter().any(|pe| pe.is_busy()) {
            stats.busy += 1;
        }
        if sys.platform.pes()[1..]
            .iter()
            .any(|pe| pe.irq_line() || (pe.is_busy() && sys.cpu.waiting_for_interrupt))
        {
            stats.extra_pe_irq += 1;
        }
        if sys.platform.dma.is_busy() && !sys.cpu.waiting_for_interrupt && sys.bulk_dma_ticks > 0 {
            stats.dma_window += 1;
        }
        let perf = sys.cpu.perf_counters();
        if perf.trace_hits > 0 {
            stats.in_trace_tier += 1;
        }
        if perf.trace_exit_budget > 0 {
            stats.mid_trace_body += 1;
        }
        let snap = sys.snapshot();

        // Path 1: rebuild a fresh system from the snapshot.
        let mut resumed = snap.to_system();
        assert_eq!(resumed.cpu, sys.cpu, "seed {seed} cut {cut}: rebuild");
        let report = resumed.run(BUDGET);
        assert_eq!(report.outcome, ref_report.outcome, "seed {seed} cut {cut}");
        assert_eq!(resumed.cpu, reference.cpu, "seed {seed} cut {cut}: cpu");
        assert_eq!(
            signature(&resumed, layout, words),
            signature(&reference, layout, words),
            "seed {seed} cut {cut}: readout"
        );
        assert_eq!(
            resumed.platform.dram.reads, reference.platform.dram.reads,
            "seed {seed} cut {cut}: dram access accounting"
        );

        // Path 2: keep running past the cut, then roll back in place.
        let _ = sys.run_cycles_bounded(cut / 2 + 1, BUDGET);
        sys.restore(&snap);
        assert_eq!(
            sys.cpu.cycles, snap.cycle,
            "seed {seed} cut {cut}: rollback"
        );
        let report = sys.run(BUDGET);
        assert_eq!(report.outcome, ref_report.outcome, "seed {seed} cut {cut}");
        assert_eq!(
            sys.cpu, reference.cpu,
            "seed {seed} cut {cut}: restored cpu"
        );
        assert_eq!(
            signature(&sys, layout, words),
            signature(&reference, layout, words),
            "seed {seed} cut {cut}: restored readout"
        );
    }
    stats
}

#[test]
fn snapshot_roundtrip_mid_block_over_random_programs() {
    // Software MVM runs entirely through the decoded-block
    // interpreter, so random cuts land mid-block.
    for i in 0..12u64 {
        check_cuts(split_seed(0x5eed_b10c, i), Workload::Software, 3);
    }
}

#[test]
fn snapshot_roundtrip_inside_a_fast_forwarded_wfi() {
    // The offload firmware sleeps in wfi while the DMA/accelerator
    // pipeline runs; with fast-forward on (the default), bounded runs
    // stop inside those windows. At least some cuts must land there
    // for this test to mean anything.
    let mut wfi_cuts = 0;
    for i in 0..12u64 {
        wfi_cuts += check_cuts(split_seed(0x5eed_0f1f, i), Workload::Offload, 4).wfi;
    }
    assert!(
        wfi_cuts > 0,
        "no cut point landed inside a wfi fast-forward window"
    );
}

#[test]
fn snapshot_roundtrip_mid_trace_and_mid_bulk_retire() {
    // Hot software MVMs run inside compiled traces retired in bulk, so
    // a random cycle cut is serviced by the trace executor's budget
    // side exit. The cuts must actually land there (the counters prove
    // it), and every such cut must resume bit-identically through both
    // restore paths.
    let mut stats = CutStats::default();
    for i in 0..10u64 {
        let s = check_cuts(split_seed(0x5eed_74ce, i), Workload::SoftwareHot, 4);
        stats.in_trace_tier += s.in_trace_tier;
        stats.mid_trace_body += s.mid_trace_body;
    }
    assert!(
        stats.in_trace_tier > 0,
        "no cut point landed after the trace tier took over"
    );
    assert!(
        stats.mid_trace_body > 0,
        "no cut boundary sliced a compiled trace mid-body"
    );
}

/// Builds a chaos-shaped serving run: a transient brick on PE 1 plus a
/// drift ramp on every PE, so the health machine passes through
/// ejection, recovery recalibration, probation and drift drains.
fn build_server(seed: u64) -> (InferenceServer, Vec<neuropulsim_sim::serve::Request>) {
    let models = vec![RMatrix::from_fn(8, 8, |i, j| {
        0.4 * ((i as f64 - j as f64) * 0.31).sin() + if i == j { 0.3 } else { 0.0 }
    })];
    let drift = PcmDriftModel {
        nu: 0.05,
        seconds_per_cycle: 2e-3,
        initial_age_s: 1e-3,
        ..PcmDriftModel::default()
    };
    let mut specs = vec![PeSpec::new(0); 3];
    for s in &mut specs {
        s.drift = Some(drift);
    }
    specs[1].fault = PeFault::HardFor {
        cycle: 100,
        until: 250,
    };
    let cfg = ServeConfig {
        watchdog: 64,
        canary_period: 100,
        drift_margin: 0.3,
        recovery_backoff: 32,
        ..ServeConfig::default()
    };
    let load = synthetic_load(
        &models,
        LoadSpec {
            requests: 300,
            mean_interarrival: 2,
            seed,
        },
    );
    (InferenceServer::new(models, &specs, cfg), load)
}

/// Health states the random serving cuts landed in.
#[derive(Default)]
struct ServeCutStats {
    /// Cuts with a PE draining/reprogramming (drift or recovery recal).
    recalibrating: usize,
    /// Cuts with a PE in half-open probation.
    probation: usize,
}

/// Steps `seed`'s serving run to a cut, snapshots via `Clone`, and
/// checks the resumed and the kept-running servers both finish
/// bit-identically to the uninterrupted reference.
fn check_serve_cuts(seed: u64, cuts: usize) -> ServeCutStats {
    let (mut reference, load) = build_server(seed);
    reference.begin(&load);
    let mut total_steps = 0u64;
    while reference.step() {
        total_steps += 1;
    }
    let ref_out = reference.finish();
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x5e4e));
    let mut stats = ServeCutStats::default();
    for _ in 0..cuts {
        let cut = rng.gen_range(1..total_steps.max(2));
        let (mut sys, _) = build_server(seed);
        sys.begin(&load);
        for _ in 0..cut {
            sys.step();
        }
        for slot in 0..3 {
            match sys.pe_health(slot) {
                PeHealth::Recalibrating | PeHealth::Recovering => stats.recalibrating += 1,
                PeHealth::Probation => stats.probation += 1,
                _ => {}
            }
        }
        // Path 1: a clone taken mid-run is a snapshot; it must resume
        // bit-identically even when the cut landed inside a
        // recalibration, recovery or probation window.
        let mut resumed = sys.clone();
        let out = resumed.finish();
        assert_eq!(out, ref_out, "seed {seed} cut {cut}: resumed outcome");
        assert_eq!(
            out.report.to_json(),
            ref_out.report.to_json(),
            "seed {seed} cut {cut}: resumed payload"
        );
        // Path 2: the original keeps stepping to the same end state.
        let out = sys.finish();
        assert_eq!(out, ref_out, "seed {seed} cut {cut}: stepped outcome");
    }
    stats
}

#[test]
fn serve_snapshot_roundtrip_mid_recalibration_and_probation() {
    // Random cuts through a chaos-shaped serving run must cover the
    // mid-recalibration and mid-probation windows for this test to
    // mean anything, and every cut must resume bit-identically.
    let mut stats = ServeCutStats::default();
    for i in 0..8u64 {
        let s = check_serve_cuts(split_seed(0x5eed_5e4e, i), 6);
        stats.recalibrating += s.recalibrating;
        stats.probation += s.probation;
    }
    assert!(
        stats.recalibrating > 0,
        "no cut point landed inside a recalibration window"
    );
    assert!(
        stats.probation > 0,
        "no cut point landed inside a probation window"
    );
}

#[test]
fn snapshot_roundtrip_with_in_flight_fabric_jobs() {
    // The cluster scheduler keeps up to 3 PEs busy at once; cuts must
    // land while fabric jobs are in flight so the snapshot carries
    // multi-device state (busy/done latches, deadlines, SPM windows,
    // the in-DRAM work-queue table) and restores it bit-exactly. Each
    // device owns its interrupt enable and line, so a two-layer cut
    // while the CPU sleeps on PE 1 (or has not yet acknowledged its
    // raised line) must still wake and resume bit-identically.
    let (mut busy_cuts, mut irq_cuts) = (0, 0);
    for i in 0..10u64 {
        busy_cuts += check_cuts(split_seed(0x5eed_fab5, i), Workload::Cluster, 4).busy;
        irq_cuts += check_cuts(split_seed(0x5eed_1a7e, i), Workload::TwoLayer, 6).extra_pe_irq;
    }
    assert!(
        busy_cuts > 0,
        "no cut point landed with a fabric job in flight"
    );
    assert!(
        irq_cuts > 0,
        "no cut landed on an awaited or pending PE 1 interrupt"
    );
}

#[test]
fn snapshot_roundtrip_inside_a_busy_dma_bulk_window() {
    // Wide cluster tiles make every polled DMA copy long enough that
    // random cuts end a bulk window mid-transfer: the snapshot carries
    // the engine's cursor with part of the copy applied in bulk, and
    // both resume paths must still finish bit-identically.
    let mut dma_cuts = 0;
    for i in 0..8u64 {
        dma_cuts += check_cuts(split_seed(0x5eed_d3a0, i), Workload::ClusterWide, 6).dma_window;
    }
    assert!(
        dma_cuts > 0,
        "no cut landed inside a bulk window over a DMA transfer"
    );
}
