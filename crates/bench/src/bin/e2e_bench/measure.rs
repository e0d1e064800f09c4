//! The measurement loop shared by every workload.
//!
//! One process runs one workload: `SETUPS` complete set-ups (the median
//! is `setup_s`), `WARMUP` discarded episodes (the first also provides
//! the reference outputs every check and simulated metric is read from),
//! then closed-loop episodes back to back until `--seconds` have passed.
//! Every episode starts from a pristine clone made outside the timed
//! region, so modelled caches start empty and every episode must
//! reproduce the reference digest exactly.
//!
//! Host throughput is read at the 10th percentile of episode wall time
//! ([`TYPICAL_PCT`]). On a shared virtual machine, interference from other
//! tenants comes in bursts that slow a varying share of a run's episodes;
//! over eight runs of `serve-drift` (about 40 episodes each) the quartiles
//! of the median episode time lay 32% of their median apart, those of the
//! 10th percentile 7%.
//!
//! With `--trace 1` odd episodes run under the span [`Recorder`] and even
//! ones untraced; the ratio of their typical times is the tracing
//! overhead.

use crate::metrics::{Clock, Sheet, END_TO_END, PER_LAYER};
use crate::model::Check;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{Off, Recorder, Span, Tracer};
use std::time::Instant;

const SETUPS: usize = 5;
const WARMUP: usize = 2;
const MIN_EPISODES: usize = 4;
/// Percentile of episode wall time that throughput is read at.
const TYPICAL_PCT: f64 = 10.0;

/// The typical episode time of `times` \[s\] (see [`TYPICAL_PCT`]).
fn typical(times: &[f64]) -> f64 {
    percentile(&sorted(times), TYPICAL_PCT)
}

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeClean,
    ServeDrift,
    FwCluster,
    FwSoftware,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeClean,
        Kind::ServeDrift,
        Kind::FwCluster,
        Kind::FwSoftware,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeClean => "serve-clean",
            Kind::ServeDrift => "serve-drift",
            Kind::FwCluster => "fw-cluster",
            Kind::FwSoftware => "fw-software",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What one workload must provide to be measured.
pub trait Workbench: Sized {
    /// The pristine state one episode consumes.
    type Fresh;
    /// Everything an episode produced.
    type Out;

    /// One complete set-up: data, training, and the simulated platform.
    fn setup<T: Tracer>(kind: Kind, seed: u64, quick: bool, tr: &mut T) -> Self;
    /// A pristine copy of the platform (made outside the timed region).
    fn fresh(&self) -> Self::Fresh;
    /// One episode.
    fn run<T: Tracer>(&self, fresh: Self::Fresh, tr: &mut T) -> Self::Out;
    /// Inferences attempted per episode.
    fn attempted(&self) -> usize;
    /// Inferences that failed (were dropped) in an episode.
    fn failed(&self, out: &Self::Out) -> usize;
    /// Hash over every deterministic simulated output of an episode.
    fn digest(&self, out: &Self::Out) -> u64;
    /// Output correctness checks of an episode.
    fn checks(&self, out: &Self::Out) -> Vec<Check>;
    /// Simulated end-to-end metrics and per-layer counters of an episode.
    fn sim_metrics(&self, out: &Self::Out, sheet: &mut Sheet);
}

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, one set-up, one warm-up: for the unit tests.
    pub quick: bool,
}

/// Everything a run reports.
pub struct Outcome {
    pub sheet: Sheet,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Chrome trace-event JSON of a traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The published names a result line carries in this mode.
    pub fn published(trace: bool) -> Vec<&'static str> {
        if trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|d| d.name).collect()
        }
    }
}

/// Sets up `W` and measures it.
pub fn measure<W: Workbench>(s: &Settings) -> Outcome {
    let mut rec = Recorder::new();
    let setups = if s.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench = None;
    for _ in 0..setups {
        // Drop the previous set-up first so only one is ever resident.
        drop(bench.take());
        let t0 = Instant::now();
        let b = if s.trace {
            rec.enter();
            let b = W::setup(s.kind, s.seed, s.quick, &mut rec);
            rec.exit(Span::Setup);
            b
        } else {
            W::setup(s.kind, s.seed, s.quick, &mut Off)
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench: W = bench.expect("at least one set-up");

    let warmup = if s.quick { 1 } else { WARMUP };
    let reference = bench.run(bench.fresh(), &mut Off);
    for _ in 1..warmup {
        bench.run(bench.fresh(), &mut Off);
    }
    let digest = bench.digest(&reference);
    let mut checks = bench.checks(&reference);

    let min_episodes = if s.quick { 2 } else { MIN_EPISODES };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut diverged) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let mut episode = 0u32;
    while (episode as usize) < min_episodes || start.elapsed().as_secs_f64() < s.seconds {
        let fresh = bench.fresh();
        let traced_episode = s.trace && episode % 2 == 1;
        let t0 = Instant::now();
        let out = if traced_episode {
            rec.set_episode(Some(episode));
            rec.enter();
            let out = bench.run(fresh, &mut rec);
            rec.exit(Span::Episode);
            out
        } else {
            bench.run(fresh, &mut Off)
        };
        let dt = t0.elapsed().as_secs_f64();
        if traced_episode {
            traced.push(dt);
        } else {
            untraced.push(dt);
        }
        attempted += bench.attempted() as u64;
        failed += bench.failed(&out) as u64;
        diverged += usize::from(bench.digest(&out) != digest);
        episode += 1;
    }
    checks.push(Check::new(
        "episodes_reproduce_reference",
        diverged == 0,
        format!("{diverged} of {episode} episodes diverged from the reference digest"),
    ));

    let mut sheet = Sheet::default();
    sheet.put("setup_s", median(&setup_s), Clock::Host, setups);
    let per_episode = bench.attempted() as f64;
    sheet.put(
        "host.inferences_per_s",
        per_episode / typical(&untraced),
        Clock::Host,
        untraced.len(),
    );
    sheet.put("host.peak_rss_mb", peak_rss_mb(), Clock::Host, 1);
    bench.sim_metrics(&reference, &mut sheet);
    sheet.put_noted(
        "sim.digest",
        digest as f64,
        Clock::Sim,
        1,
        format!("{digest:012x}"),
    );
    episode_metrics(&mut sheet, &untraced);
    if s.trace {
        trace_metrics(&mut sheet, &rec, &untraced, &traced, setups);
        // A per-layer metric the workload has no layer for reads 0.
        for name in sheet.missing(PER_LAYER.iter().map(|(n, _)| *n)) {
            sheet.put_noted(name, 0.0, Clock::Host, 0, "n/a".to_string());
        }
    }
    let missing = sheet.missing(END_TO_END.iter().map(|d| d.name));
    checks.push(Check::new(
        "every_end_to_end_metric_reported",
        missing.is_empty(),
        format!("missing {missing:?}"),
    ));
    let bad: Vec<&str> = sheet
        .all()
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    checks.push(Check::new(
        "every_metric_finite",
        bad.is_empty(),
        format!("non-finite {bad:?}"),
    ));
    Outcome {
        sheet,
        checks,
        attempted,
        failed,
        trace_json: s.trace.then(|| rec.chrome_json()),
    }
}

/// Episode wall-time distribution: median and the highest percentile
/// with ten samples beyond it.
fn episode_metrics(sheet: &mut Sheet, untraced: &[f64]) {
    let ms: Vec<f64> = sorted(untraced).iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    sheet.put("host.episodes", n as f64, Clock::Host, n);
    sheet.put("host.episode_ms_p50", percentile(&ms, 50.0), Clock::Host, n);
    let tail = tail_percentile(n).unwrap_or(50.0);
    sheet.put_noted(
        "host.episode_ms_tail",
        percentile(&ms, tail),
        Clock::Host,
        n,
        format!("p{tail}"),
    );
    sheet.put("host.episode_tail_pct", tail, Clock::Host, n);
}

/// Per-layer host time from the recorded spans, per traced episode (or
/// per set-up for set-up spans).
fn trace_metrics(
    sheet: &mut Sheet,
    rec: &Recorder,
    untraced: &[f64],
    traced: &[f64],
    setups: usize,
) {
    let n = traced.len();
    let episodes = n.max(1) as f64;
    let episode = rec.stats(Span::Episode);
    let ep_total = episode.total_ns.max(1) as f64;
    let self_s = |span: Span, per: f64| rec.stats(span).self_ns as f64 / 1e9 / per;
    let count = |span: Span| rec.stats(span).count as f64 / episodes;
    let us = |span: Span| -> Vec<f64> {
        let d: Vec<f64> = rec
            .durations(span)
            .iter()
            .map(|&d| d as f64 / 1e3)
            .collect();
        sorted(&d)
    };
    let dispatch = us(Span::StepDispatch);
    let other = us(Span::StepOther);
    let (k, tail) = (
        dispatch.len(),
        tail_percentile(dispatch.len()).unwrap_or(50.0),
    );
    let run_s = self_s(Span::SystemRun, episodes);
    let instret = sheet.get("riscv.instret").map_or(0.0, |m| m.value);
    let mips = if run_s > 0.0 {
        instret / run_s / 1e6
    } else {
        0.0
    };

    let mut host = |name, value, samples| sheet.put(name, value, Clock::Host, samples);
    host("trace.coverage", 1.0 - episode.self_ns as f64 / ep_total, n);
    host(
        "trace.overhead_frac",
        1.0 - typical(untraced) / typical(traced),
        n,
    );
    host("serve.step.dispatch.count", count(Span::StepDispatch), n);
    host("serve.step.dispatch.us_p50", percentile(&dispatch, 50.0), k);
    host("serve.step.dispatch.tail_pct", tail, k);
    host(
        "serve.step.dispatch.self_s",
        self_s(Span::StepDispatch, episodes),
        n,
    );
    let share = rec.stats(Span::StepDispatch).total_ns as f64 / ep_total;
    host("serve.step.dispatch.share", share, n);
    host("serve.step.recal.count", count(Span::StepRecal), n);
    host(
        "serve.step.recal.self_s",
        self_s(Span::StepRecal, episodes),
        n,
    );
    host("serve.step.other.count", count(Span::StepOther), n);
    host(
        "serve.step.other.us_p50",
        percentile(&other, 50.0),
        other.len(),
    );
    host(
        "serve.step.other.self_s",
        self_s(Span::StepOther, episodes),
        n,
    );
    host("riscv.mips", mips, n);
    for (name, span) in [
        ("serve.begin_s", Span::ServeBegin),
        ("serve.finish_s", Span::ServeFinish),
        ("bench.glue_s", Span::BenchGlue),
        ("bench.readback_s", Span::BenchReadback),
        ("system.run_s", Span::SystemRun),
    ] {
        host(name, self_s(span, episodes), n);
    }
    for (name, span) in [
        ("nn.synthetic_digits_s", Span::NnSyntheticDigits),
        ("nn.fit_s", Span::NnFit),
        ("serve.build_s", Span::ServeNew),
        ("accel.load_matrix_s", Span::AccelLoadMatrix),
        ("riscv.assemble_s", Span::RiscvAssemble),
        ("ram.stage_s", Span::RamStage),
    ] {
        host(name, self_s(span, setups as f64), setups);
    }
    sheet.put_noted(
        "serve.step.dispatch.us_tail",
        percentile(&dispatch, tail),
        Clock::Host,
        k,
        format!("p{tail}"),
    );
}

/// Peak resident set (`VmHWM`) of this process \[MB\], 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
