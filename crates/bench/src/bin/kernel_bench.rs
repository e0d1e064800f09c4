//! **Kernel throughput probe.** Times the hot simulator kernels (mesh
//! application, complex matmul, MVM multiply, the MVM drift step, the
//! lane-blocked batch product, a whole accelerator job, GeMM streaming)
//! and emits one unified `neuropulsim-bench/v1` report (see
//! `bench::runner`): median-of-N timings, machine-normalized `norm` per
//! measurement, MAC throughput in each measurement's `meta`.
//!
//! `macs_per_op` counts real multiply–accumulates (a complex MAC is
//! four real MACs). Iteration counts are fixed per case so runs are
//! comparable across commits; the committed `BENCH_kernels.json`
//! baseline is regenerated with
//! `cargo run --release --bin kernel_bench > BENCH_kernels.json`, and CI
//! fails on a >10% `norm` regression of any measurement.

use neuropulsim_bench::runner::Runner;
use neuropulsim_core::clements::decompose;
use neuropulsim_core::gemm::{GemmEngine, GemmMode};
use neuropulsim_core::mvm::{MvmCore, RealizedMvm};
use neuropulsim_core::program::MeshScratch;
use neuropulsim_linalg::random::haar_unitary;
use neuropulsim_linalg::{CMatrix, CVector, MatmulScratch, RMatrix};
use neuropulsim_sim::accel::{mmr, AccelDevice};
use neuropulsim_sim::fixed::{from_fixed, to_fixed, SCALE};
use neuropulsim_sim::ram::Ram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Median repetitions per measurement.
const REPS: usize = 5;

/// Times `op` as `{bench}/n{n}` (see [`report_id`]); returns the median
/// nanoseconds per op.
fn report<F: FnMut()>(runner: &mut Runner, bench: &str, n: usize, macs_per_op: f64, op: F) -> f64 {
    report_id(runner, &format!("{bench}/n{n}"), macs_per_op, op)
}

/// Times `op` under the unified runner: one measured rep = `iters`
/// calls (inversely proportional to per-op work), median of [`REPS`],
/// with per-op and throughput figures in `meta`. Returns the median
/// nanoseconds per op.
fn report_id<F: FnMut()>(runner: &mut Runner, id: &str, macs_per_op: f64, mut op: F) -> f64 {
    let iters = iters_for(macs_per_op);
    for _ in 0..iters / 8 + 1 {
        op();
    }
    let median_ns = runner.measure_with_meta(
        id,
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
    // Attach derived throughput after the fact: ns per single op and
    // MACs/s from the median rep.
    let ns_per_op = median_ns / iters as f64;
    let macs_per_s = macs_per_op / (ns_per_op * 1e-9);
    runner.derived(&format!("{id}:macs_per_s"), format!("{macs_per_s:.4e}"));
    ns_per_op
}

/// Picks an iteration count inversely proportional to the work per op,
/// clamped so every case finishes in well under a second.
fn iters_for(macs_per_op: f64) -> usize {
    ((2e7 / macs_per_op.max(1.0)) as usize).clamp(8, 65_536)
}

fn random_rmatrix(rows: usize, cols: usize, seed: u64) -> RMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    RMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn bench_mesh_apply(runner: &mut Runner, n: usize) {
    let mut rng = StdRng::seed_from_u64(3);
    let program = decompose(&haar_unitary(&mut rng, n));
    let x = CVector::from_reals(&vec![0.5; n]);
    // Each MZI block is a 2x2 complex update: 8 complex MACs = 32 real.
    let macs = (program.block_count() * 32) as f64;
    report(runner, "mesh_apply/rebuild", n, macs, || {
        std::hint::black_box(program.apply(&x));
    });
    let plan = program.compile();
    let mut buf = x.as_slice().to_vec();
    let mut scratch = MeshScratch::new();
    report(runner, "mesh_apply/compiled", n, macs, || {
        buf.copy_from_slice(x.as_slice());
        plan.apply_in_place(&mut buf, &mut scratch);
        std::hint::black_box(buf[0]);
    });
}

fn bench_mul_mat(runner: &mut Runner, n: usize) {
    let mut rng = StdRng::seed_from_u64(8);
    let a = haar_unitary(&mut rng, n);
    let b = haar_unitary(&mut rng, n);
    let macs = (4 * n * n * n) as f64;
    report(runner, "cmatrix_mul_mat/naive", n, macs, || {
        std::hint::black_box(a.mul_mat_naive(&b));
    });
    report(runner, "cmatrix_mul_mat/packed", n, macs, || {
        std::hint::black_box(a.mul_mat(&b));
    });
    let mut out = CMatrix::zeros(n, n);
    let mut scratch = MatmulScratch::new();
    report(runner, "cmatrix_mul_mat/packed_into", n, macs, || {
        a.mul_mat_into(&b, &mut out, &mut scratch);
        std::hint::black_box(out[(0, 0)]);
    });
}

fn bench_mvm_multiply(runner: &mut Runner, n: usize) {
    let core = MvmCore::new(&random_rmatrix(n, n, 2));
    let x = vec![0.3; n];
    let macs = (n * n) as f64;
    report(runner, "mvm_multiply/alloc", n, macs, || {
        std::hint::black_box(core.multiply(&x));
    });
    let mut y = vec![0.0; n];
    report(runner, "mvm_multiply/into", n, macs, || {
        core.multiply_into(&x, &mut y);
        std::hint::black_box(y[0]);
    });
}

/// One drift step of a realized chip, two ways: re-setting the
/// attenuator column re-composes `Re(U·diag(a)·V)·scale` (two real MACs
/// per complex term, the bench-local baseline), while the affine update
/// `drift_to` moves the chip to a drift offset with one multiply-add
/// per entry once its saturation mask is built. The speedup is an
/// in-process ratio, so host noise cancels.
fn bench_drift_step(runner: &mut Runner, n: usize) {
    let core = MvmCore::new(&random_rmatrix(n, n, 4));
    let mut chip = core.chip().clone();
    let aged: Vec<f64> = core.attenuation().iter().map(|a| 0.97 * a).collect();
    let compose_ns = report(
        runner,
        "mvm_set_attenuation",
        n,
        (2 * n * n * n) as f64,
        || {
            chip.set_attenuation(&aged);
            std::hint::black_box(&chip);
        },
    );
    let mut chip = core.chip().clone();
    let step_ns = report(runner, "mvm_drift_step", n, (n * n) as f64, || {
        chip.drift_to(0.01);
        std::hint::black_box(&chip);
    });
    runner.derived(
        &format!("mvm_drift/speedup_n{n}"),
        format!("{:.3}", compose_ns / step_ns),
    );
}

/// The lane-blocked kernel at the served MLP's `n`, as this crate's
/// baseline target compiles it: the whole lane-major batch in one
/// `mul_lanes_into`, against the per-vector `mul_vec_into` loop it
/// replaces (the bench-local baseline). The speedup is an in-process
/// ratio, so host noise cancels.
fn bench_mul_lanes(runner: &mut Runner, n: usize) {
    let w = random_rmatrix(n, n, 7);
    let [_, lanes_ns] = [8usize, 32].map(|lanes| {
        let xt = random_rmatrix(n, lanes, 9);
        let mut yt = vec![0.0; n * lanes];
        let id = format!("rmatrix_mul_lanes/n{n}_b{lanes}");
        report_id(runner, &id, (n * n * lanes) as f64, || {
            w.mul_lanes_into(xt.as_slice(), lanes, &mut yt);
            std::hint::black_box(&yt);
        })
    });
    let lanes = 32;
    let xs = random_rmatrix(lanes, n, 9);
    let mut y = vec![0.0; n];
    let id = format!("rmatrix_mul_vec_loop/n{n}_b{lanes}");
    let baseline_ns = report_id(runner, &id, (n * n * lanes) as f64, || {
        for v in 0..lanes {
            w.mul_vec_into(xs.row(v), &mut y);
            std::hint::black_box(&y);
        }
    });
    runner.derived(
        &format!("rmatrix_mul_lanes/speedup_n{n}_b{lanes}"),
        format!("{:.3}", baseline_ns / lanes_ns),
    );
}

/// The whole-window job body as the device ran it before the job was
/// compiled per host: dequantize lane-major, the kernel at the
/// baseline target, and a strided quantize through `f64::round`.
fn job_body_by_round(
    chip: &RealizedMvm,
    lanes: usize,
    words: &mut [u32],
    xt: &mut [f64],
    yt: &mut [f64],
) {
    let n = chip.modes();
    for (v, x) in words.chunks_exact(n).enumerate() {
        for (k, &word) in x.iter().enumerate() {
            xt[k * lanes + v] = from_fixed(word as i32);
        }
    }
    chip.multiply_lanes_into(xt, lanes, yt);
    for (v, y) in words.chunks_exact_mut(n).enumerate() {
        for (i, word) in y.iter_mut().enumerate() {
            let q = (yt[i * lanes + v] * SCALE).round();
            *word = if q.is_nan() {
                0
            } else if q >= i32::MAX as f64 {
                i32::MAX
            } else if q <= i32::MIN as f64 {
                i32::MIN
            } else {
                q as i32
            } as u32;
        }
    }
}

/// A device programmed with `w` and ready to run one `lanes`-vector job
/// on `inputs` through its MMR door: each call is a `CTRL` start (one
/// SPM read, dequantize, product, quantize, one SPM write) and the
/// completing `tick`.
fn device_job(w: &RMatrix, inputs: &[u32], lanes: usize) -> impl FnMut() {
    let m = w.rows() * lanes;
    let mut spm = Ram::new(0, 8 * m);
    spm.poke_words(0, &inputs[..m]);
    let mut dev = AccelDevice::new(1e9);
    dev.load_matrix(w);
    dev.mmr_store(mmr::OUT_ADDR, 4 * m as u32, 0, &mut spm);
    dev.mmr_store(mmr::BATCH, lanes as u32, 0, &mut spm);
    let done_at = dev.job_cycles(lanes as u32);
    move || {
        dev.mmr_store(mmr::CTRL, 1, 0, &mut spm);
        dev.tick(done_at);
        std::hint::black_box(&spm);
    }
}

/// [`device_job`]'s SPM read and write around [`job_body_by_round`]
/// (the bench-local baseline).
fn baseline_job(w: &RMatrix, inputs: &[u32], lanes: usize) -> impl FnMut() {
    let m = w.rows() * lanes;
    let mut spm = Ram::new(0, 8 * m);
    spm.poke_words(0, &inputs[..m]);
    let chip = MvmCore::new(w).chip().clone();
    let (mut words, mut xt, mut yt) = (vec![0; m], vec![0.0; m], vec![0.0; m]);
    move || {
        spm.read_words_into(0, &mut words);
        job_body_by_round(&chip, lanes, &mut words, &mut xt, &mut yt);
        spm.write_words(4 * m as u32, &words);
        std::hint::black_box(&spm);
    }
}

/// Pairs timed by [`paired_speedup`].
const PAIRS: usize = 15;

/// Median over [`PAIRS`] of `base`'s time over `op`'s, the two sides of
/// each pair timed back to back (`iters` calls each), so a host speed
/// phase that lands on a pair slows both of its sides.
fn paired_speedup(iters: usize, mut base: impl FnMut(), mut op: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| time(&mut base) / time(&mut op))
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

/// One accelerator job at the served MLP's `n` ([`device_job`]) at 8
/// and 32 lanes, and at 32 lanes the [`baseline_job`]. The speedup is
/// [`paired_speedup`] of the two, an in-process ratio.
fn bench_accel_job(runner: &mut Runner, n: usize) {
    let w = random_rmatrix(n, n, 7);
    let mut rng = StdRng::seed_from_u64(10);
    let inputs: Vec<u32> = (0..n * 32)
        .map(|_| to_fixed(rng.gen_range(-1.0..1.0)) as u32)
        .collect();
    for lanes in [8, 32] {
        let id = format!("accel_job/n{n}_b{lanes}");
        report_id(
            runner,
            &id,
            (n * n * lanes) as f64,
            device_job(&w, &inputs, lanes),
        );
    }
    let lanes = 32;
    let macs = (n * n * lanes) as f64;
    let id = format!("accel_job_baseline/n{n}_b{lanes}");
    report_id(runner, &id, macs, baseline_job(&w, &inputs, lanes));
    let speedup = paired_speedup(
        iters_for(macs) / 4,
        baseline_job(&w, &inputs, lanes),
        device_job(&w, &inputs, lanes),
    );
    runner.derived(
        &format!("accel_job/speedup_n{n}_b{lanes}"),
        format!("{speedup:.3}"),
    );
}

fn bench_gemm(runner: &mut Runner, n: usize) {
    let cols = 64;
    let x = random_rmatrix(n, cols, 6);
    let macs = (n * n * cols) as f64;
    for (variant, mode) in [
        ("tdm", GemmMode::Tdm),
        ("wdm8", GemmMode::Wdm { channels: 8 }),
    ] {
        let engine = GemmEngine::new(MvmCore::new(&random_rmatrix(n, n, 5)), mode);
        report(runner, &format!("gemm_matmul/{variant}"), n, macs, || {
            std::hint::black_box(engine.matmul(&x));
        });
    }
}

fn main() {
    let mut runner = Runner::new("kernel_bench");
    for n in [16usize, 64] {
        bench_mesh_apply(&mut runner, n);
        bench_mul_mat(&mut runner, n);
        bench_mvm_multiply(&mut runner, n);
        bench_gemm(&mut runner, n);
    }
    // The served MLP's n.
    bench_drift_step(&mut runner, 32);
    bench_mul_lanes(&mut runner, 32);
    bench_accel_job(&mut runner, 32);
    print!("{}", runner.to_json());
}
