//! **Large-mesh scaling probe** — times the blocked/fused mesh
//! application kernels against the oracle per-block plan
//! (`oracle::decomp_ref::PerBlockPlan`) at n = 64 and n = 128
//! and runs the deterministic topology × size grid sweep plus the
//! calibration-under-drift campaign, emitting one unified
//! `neuropulsim-bench/v1` report (see `bench::runner`).
//!
//! Timings (`measurements[].norm`) are gated by
//! `scripts/check_perf.py` against the committed `BENCH_mesh.json`,
//! including a hard floor on the blocked-over-per-block apply speedup
//! at n = 128. Campaign results (grid fidelities, drift traces,
//! bit-identity flags) go in `payload`, which CI checks for
//! byte-identity across thread counts.
//!
//! Usage: `mesh_bench [quick]` — `quick` shrinks the campaign sizes for
//! smoke/determinism runs; the committed baseline is regenerated with
//! `cargo run --release --bin mesh_bench > BENCH_mesh.json`.

use neuropulsim_bench::runner::{positional_args, Runner};
use neuropulsim_core::analysis::{mesh_grid_sweep, GridPoint, Stats, GRID_SIZES};
use neuropulsim_core::calibrate::{drift_campaign_all, DriftCampaignConfig, DriftTrace};
use neuropulsim_core::clements::decompose;
use neuropulsim_core::layered::{LayeredMesh, ProgramOptions};
use neuropulsim_core::program::MeshScratch;
use neuropulsim_linalg::parallel::available_threads;
use neuropulsim_linalg::random::haar_unitary;
use neuropulsim_linalg::C64;
use neuropulsim_oracle::decomp_ref::PerBlockPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median repetitions per measurement.
const REPS: usize = 5;
/// Vectors per batched apply op.
const BATCH: usize = 32;
/// Master seed of every deterministic campaign in the payload.
const SEED: u64 = 42;

/// Iteration count inversely proportional to per-op work.
fn iters_for(macs_per_op: f64) -> usize {
    ((2e7 / macs_per_op.max(1.0)) as usize).clamp(8, 65_536)
}

/// Times `op` and returns the median nanoseconds of a *single* op.
fn report<F: FnMut()>(
    runner: &mut Runner,
    variant: &str,
    n: usize,
    macs_per_op: f64,
    mut op: F,
) -> f64 {
    let iters = iters_for(macs_per_op);
    for _ in 0..iters / 8 + 1 {
        op();
    }
    let id = format!("mesh_apply/{variant}/n{n}");
    let median_ns = runner.measure_with_meta(
        &id,
        REPS,
        &[
            ("iters", format!("{iters}")),
            ("macs_per_op", format!("{macs_per_op:.0}")),
        ],
        || {
            for _ in 0..iters {
                op();
            }
        },
    );
    median_ns / iters as f64
}

fn random_cvec(rng: &mut StdRng, n: usize) -> Vec<C64> {
    (0..n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Times the rectangular per-block baseline vs the blocked and batched
/// apply paths at size `n`, verifying bit-identity along the way.
/// Returns `(blocked_speedup, batch_per_vector_speedup, bit_identical)`.
fn bench_rect_apply(runner: &mut Runner, n: usize) -> (f64, f64, bool) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let program = decompose(&haar_unitary(&mut rng, n));
    let per_block = PerBlockPlan::new(&program);
    let compiled = program.compile();
    let x = random_cvec(&mut rng, n);
    let mut scratch = MeshScratch::new();
    // Each MZI block is a 2x2 complex update: 8 complex MACs = 32 real.
    let macs = (program.block_count() * 32) as f64;

    let mut buf = x.clone();
    let per_block_ns = report(runner, "per_block", n, macs, || {
        buf.copy_from_slice(&x);
        per_block.apply_in_place(&mut buf);
        std::hint::black_box(buf[0]);
    });
    buf.copy_from_slice(&x);
    per_block.apply_in_place(&mut buf);
    let reference = buf.clone();

    let mut blk = x.clone();
    let blocked_ns = report(runner, "blocked", n, macs, || {
        blk.copy_from_slice(&x);
        compiled.apply_in_place(&mut blk, &mut scratch);
        std::hint::black_box(blk[0]);
    });
    blk.copy_from_slice(&x);
    compiled.apply_in_place(&mut blk, &mut scratch);
    let mut bit_identical = bits_equal(&reference, &blk);

    let batch_src: Vec<C64> = (0..BATCH).flat_map(|_| x.iter().copied()).collect();
    let mut batch = batch_src.clone();
    let batch_ns = report(runner, "batch32", n, macs * BATCH as f64, || {
        batch.copy_from_slice(&batch_src);
        compiled.apply_batch(&mut batch, &mut scratch);
        std::hint::black_box(batch[0]);
    });
    batch.copy_from_slice(&batch_src);
    compiled.apply_batch(&mut batch, &mut scratch);
    for col in 0..BATCH {
        bit_identical &= bits_equal(&reference, &batch[col * n..(col + 1) * n]);
    }

    (
        per_block_ns / blocked_ns,
        per_block_ns / (batch_ns / BATCH as f64),
        bit_identical,
    )
}

/// Times the fused layered (Fldzhyan) apply, single and batched.
/// Returns whether batch columns match the single apply bit-for-bit.
fn bench_layered_apply(runner: &mut Runner, n: usize) -> bool {
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let mut mesh = LayeredMesh::universal(n);
    mesh.randomize_phases(&mut rng);
    let compiled = mesh.compile();
    let x = random_cvec(&mut rng, n);
    let mut scratch = MeshScratch::new();
    // Per layer: ~n/2 coupler cells (32 real MACs each) fused with the
    // phase column; output phasors are n complex multiplies.
    let macs = (compiled.layer_count() * (n / 2) * 32 + n * 4) as f64;

    let mut buf = x.clone();
    report(runner, "fused_layered", n, macs, || {
        buf.copy_from_slice(&x);
        compiled.apply_in_place(&mut buf, &mut scratch);
        std::hint::black_box(buf[0]);
    });
    buf.copy_from_slice(&x);
    compiled.apply_in_place(&mut buf, &mut scratch);
    let reference = buf.clone();

    let batch_src: Vec<C64> = (0..BATCH).flat_map(|_| x.iter().copied()).collect();
    let mut batch = batch_src.clone();
    report(runner, "layered_batch32", n, macs * BATCH as f64, || {
        batch.copy_from_slice(&batch_src);
        compiled.apply_batch(&mut batch, &mut scratch);
        std::hint::black_box(batch[0]);
    });
    batch.copy_from_slice(&batch_src);
    compiled.apply_batch(&mut batch, &mut scratch);
    (0..BATCH).all(|col| bits_equal(&reference, &batch[col * n..(col + 1) * n]))
}

fn bits_equal(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn stats_json(s: &Stats) -> String {
    format!(
        "{{\"mean\": {:e}, \"std\": {:e}, \"min\": {:e}, \"max\": {:e}, \"count\": {}}}",
        s.mean, s.std, s.min, s.max, s.count
    )
}

fn grid_json(points: &[GridPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"arch\": \"{}\", \"n\": {}, \"expressivity\": {}, \"imbalance\": {}}}",
                p.arch.name(),
                p.n,
                stats_json(&p.expressivity),
                stats_json(&p.imbalance)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn drift_json(traces: &[DriftTrace]) -> String {
    let rows: Vec<String> = traces
        .iter()
        .map(|t| {
            format!(
                "{{\"arch\": \"{}\", \"n\": {}, \"fresh_fidelity\": {:e}, \
                 \"stored_fidelity\": {:e}, \"floor\": {:e}, \"min_fidelity\": {:e}, \
                 \"worst_excursion\": {:e}, \"mean_fidelity\": {:e}, \
                 \"final_fidelity\": {:e}, \"recalibrations\": {}, \"steps\": {}}}",
                t.arch.name(),
                t.n,
                t.fresh_fidelity,
                t.stored_fidelity,
                t.floor,
                t.min_fidelity,
                t.worst_excursion,
                t.mean_fidelity,
                t.final_fidelity,
                t.recalibrations,
                t.steps
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn main() {
    let quick = positional_args().iter().any(|a| a == "quick");
    let mut runner = Runner::new("mesh_bench");
    let threads = available_threads();

    // ---- apply-kernel timings + bit-identity --------------------------
    let sizes: &[usize] = if quick { &[16] } else { &[64, 128] };
    let mut bit_identical = true;
    for &n in sizes {
        let (blocked, batch, bits) = bench_rect_apply(&mut runner, n);
        bit_identical &= bits;
        bit_identical &= bench_layered_apply(&mut runner, n);
        runner.derived(
            &format!("mesh_apply/blocked_speedup_n{n}"),
            format!("{blocked:.4}"),
        );
        runner.derived(
            &format!("mesh_apply/batch_speedup_n{n}"),
            format!("{batch:.4}"),
        );
        runner.derived(
            &format!("mesh_apply/best_blocked_speedup_n{n}"),
            format!("{:.4}", blocked.max(batch)),
        );
    }

    // ---- topology × size grid (deterministic, thread-invariant) -------
    let options = ProgramOptions {
        max_sweeps: 12,
        tol: 1e-10,
    };
    let grid_sizes: &[usize] = if quick { &[8, 16] } else { &GRID_SIZES };
    let grid_trials = 2;
    let grid = mesh_grid_sweep(grid_sizes, grid_trials, 0.05, options, SEED, threads);

    // ---- calibration-under-drift at scale -----------------------------
    let drift_n = if quick { 16 } else { 128 };
    let drift_cfg = DriftCampaignConfig {
        nu: 2e-3,
        polish: options,
        ..DriftCampaignConfig::default()
    };
    let drift = drift_campaign_all(drift_n, &drift_cfg, SEED, threads);

    let payload = format!(
        "{{\"bit_identical\": {}, \"grid_trials\": {}, \"grid\": {}, \"drift\": {}}}",
        bit_identical,
        grid_trials,
        grid_json(&grid),
        drift_json(&drift)
    );
    runner.payload(payload);
    print!("{}", runner.to_json());
}
