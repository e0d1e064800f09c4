//! Acceptance test for the multi-accelerator serving fabric: the async
//! inference service must (a) scale sustained throughput at least 2x
//! from a 1-PE to a 4-PE fleet under the same saturating load, (b)
//! survive the permanent loss of one fleet member with zero dropped
//! requests and correct outputs throughout, and (c) produce bit-exact
//! results and statistics regardless of host thread count. Each PE is
//! one frozen chip: (d) recalibrating a drifted device restores exactly
//! the chip a fresh device is programmed with.

use neuropulsim::linalg::RMatrix;
use neuropulsim::sim::accel::{mmr, AccelDevice, PcmDriftModel};
use neuropulsim::sim::fixed::to_fixed;
use neuropulsim::sim::ram::Ram;
use neuropulsim::sim::serve::{
    synthetic_load, InferenceServer, LoadSpec, PeFault, PeSpec, ServeConfig, ServeOutcome,
};

const N: usize = 8;
const REQUESTS: usize = 1500;

fn model() -> RMatrix {
    RMatrix::from_fn(N, N, |i, j| {
        0.4 * ((i as f64 - j as f64) * 0.31).sin() + if i == j { 0.3 } else { 0.0 }
    })
}

fn fleet(pes: usize, fault: Option<(usize, PeFault)>) -> Vec<PeSpec> {
    (0..pes)
        .map(|i| {
            let mut spec = PeSpec::new(0);
            if let Some((slot, f)) = fault {
                if slot == i {
                    spec.fault = f;
                }
            }
            spec
        })
        .collect()
}

fn serve(specs: &[PeSpec]) -> ServeOutcome {
    let models = vec![model()];
    let load = synthetic_load(
        &models,
        LoadSpec {
            requests: REQUESTS,
            mean_interarrival: 1,
            seed: 42,
        },
    );
    let mut srv = InferenceServer::new(models, specs, ServeConfig::default());
    srv.run(&load)
}

#[test]
fn four_pes_at_least_double_sustained_throughput() {
    let one = serve(&fleet(1, None));
    let four = serve(&fleet(4, None));
    assert_eq!(one.report.completed, REQUESTS);
    assert_eq!(four.report.completed, REQUESTS);
    assert_eq!(one.report.dropped + four.report.dropped, 0);
    assert!(
        four.report.requests_per_sec >= 2.0 * one.report.requests_per_sec,
        "1 PE {:.0} req/s -> 4 PEs {:.0} req/s is under 2x",
        one.report.requests_per_sec,
        four.report.requests_per_sec
    );
    // Latency percentiles are reported and ordered sanely.
    assert!(four.report.p50_latency_cycles <= four.report.p99_latency_cycles);
    assert!(four.report.p99_latency_cycles <= four.report.max_latency_cycles);
    assert!(four.report.p50_latency_cycles > 0);
}

#[test]
fn losing_one_pe_mid_run_drops_nothing_and_stays_correct() {
    let out = serve(&fleet(
        4,
        Some((
            2,
            PeFault::HardAt {
                cycle: REQUESTS as u64 / 2,
            },
        )),
    ));
    assert_eq!(out.report.completed, REQUESTS, "full load must complete");
    assert_eq!(out.report.dropped, 0, "a dead PE must not lose requests");
    assert_eq!(out.report.pes_ejected, 1, "the dead PE leaves the fleet");
    assert!(
        out.report.jobs_failed > 0,
        "the fault was actually exercised"
    );

    // Every joined response is still numerically correct.
    let models = vec![model()];
    let load = synthetic_load(
        &models,
        LoadSpec {
            requests: REQUESTS,
            mean_interarrival: 1,
            seed: 42,
        },
    );
    for resp in &out.responses {
        let req = &load[resp.id as usize];
        assert_eq!(req.id, resp.id);
        let want = models[0].mul_vec(&req.x);
        for (a, b) in resp.y.iter().zip(&want) {
            assert!((a - b).abs() < 2e-3, "id {}: {a} vs {b}", resp.id);
        }
    }
}

#[test]
fn serving_results_are_independent_of_thread_count() {
    // The engine is a single-threaded discrete-event simulation: the
    // worker-pool width (NEUROPULSIM_THREADS) never enters it. Two
    // complete runs — including a mid-run device loss — must agree
    // bit-for-bit on responses, drops, and every statistic.
    let fault = Some((1, PeFault::HardAt { cycle: 600 }));
    let a = serve(&fleet(3, fault));
    let b = serve(&fleet(3, fault));
    assert_eq!(a, b, "serving outcome must be bit-deterministic");
}

/// Runs one single-vector job on `dev` at cycle `now` and returns the
/// raw Q16.16 output words.
fn run_job(dev: &mut AccelDevice, now: u64) -> Vec<u32> {
    let mut spm = Ram::new(0, 4096);
    for k in 0..N as u32 {
        let x = 0.25 * k as f64 - 0.8;
        spm.poke(0x100 + 4 * k, to_fixed(x) as u32).unwrap();
    }
    dev.mmr_store(mmr::IN_ADDR, 0x100, now, &mut spm);
    dev.mmr_store(mmr::OUT_ADDR, 0x200, now, &mut spm);
    dev.mmr_store(mmr::BATCH, 1, now, &mut spm);
    dev.mmr_store(mmr::CTRL, 1, now, &mut spm);
    assert_eq!(dev.error_bits(), 0, "job rejected");
    dev.tick(now + dev.job_cycles(1));
    dev.mmr_store(mmr::CTRL, 2, now, &mut spm);
    (0..N as u32)
        .map(|k| spm.peek(0x200 + 4 * k).unwrap())
        .collect()
}

#[test]
fn recalibration_restores_the_freshly_programmed_chip_bit_for_bit() {
    let mut fresh = AccelDevice::new(1e9);
    fresh.load_matrix(&model());
    let want = run_job(&mut fresh, 0);

    // Weights aged 30 years at boot, and a frozen clock: the drift seen
    // before recalibration is large, and none accrues after it.
    let mut dev = AccelDevice::new(1e9);
    dev.load_matrix(&model());
    dev.enable_drift(PcmDriftModel {
        nu: 0.05,
        seconds_per_cycle: 0.0,
        initial_age_s: 1e9,
        ..PcmDriftModel::default()
    });
    assert_ne!(run_job(&mut dev, 0), want, "drift must move the output");
    let mut spm = Ram::new(0, 0);
    dev.mmr_store(mmr::CTRL, 8, 100, &mut spm);
    dev.tick(100 + dev.recal_cycles);
    dev.mmr_store(mmr::CTRL, 2, 100, &mut spm);
    assert_eq!(dev.recal_count(), 1);
    assert_eq!(run_job(&mut dev, 1000), want);
}
