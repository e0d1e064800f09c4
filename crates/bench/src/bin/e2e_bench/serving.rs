//! `serve-clean` and `serve-drift`: the trained MLP served through two
//! `sim::serve` fabrics, one per layer.
//!
//! Stage 1 serves `W1 x`; the host adds the bias and applies ReLU, and
//! each result enters stage 2 (`W2 h`, zero-padded to 32x32) at the
//! cycle its stage-1 job joined. Requests arrive open-loop, spaced
//! uniformly at 0..=8 cycles, each carrying a uniformly drawn test image.
//! Gaps and images are dealt from shuffled decks (see [`model::deck`]):
//! every seed has the same arrival span and test-set mix, so simulated
//! cycles and accuracy differ between seeds only through the order of
//! the stream and the trained weights.

use crate::measure::{Kind, Workbench};
use crate::metrics::{Clock, Sheet};
use crate::model::{self, Check, Digest, Model, CLASSES, LOGIT_TOLERANCE};
use crate::stats::binned_percentile;
use crate::trace::{Span, Tracer};
use neuropulsim_nn::mlp::argmax;
use neuropulsim_sim::accel::PcmDriftModel;
use neuropulsim_sim::serve::{
    InferenceServer, PeSpec, Request, ServeConfig, ServeOutcome, ServeReport,
};

/// Requests per episode.
const REQUESTS: usize = 4000;
const QUICK_REQUESTS: usize = 1000;
/// Largest gap between two arrivals \[cycles\].
const MAX_GAP: u64 = 8;
/// PEs per stage.
pub const PES: usize = 2;
/// Allowed gap between served and digital accuracy on `serve-clean`.
const ACCURACY_SLACK: f64 = 0.01;

/// Aged PCM weights: every job re-realizes the meshes, and drift grows
/// fast enough that canaries and recalibrations fire within an episode.
fn drift_model() -> PcmDriftModel {
    PcmDriftModel {
        nu: 0.01,
        seconds_per_cycle: 1e-3,
        initial_age_s: 1.0,
        ..PcmDriftModel::default()
    }
}

/// The drift fabric runs a canary every 1000 idle cycles with no margin:
/// every canary misses, so each PE recalibrates once per canary period.
/// With a positive margin whether a canary trips depends on the trained
/// weights (at 0.001, stage 2 of seed 75 never recalibrated), which made
/// recalibration counts, energy and tail latency swing between seeds.
/// A job still fails its checksum now and then, and a few requests fail
/// it repeatedly before a re-realization serves them: with a cap of 8,
/// seeds 35 and 96 of 1..=160 dropped requests as poison. So a request
/// may fail 1000 times before it is dropped. `max_attempts` keeps its
/// default: a run that starts failing for good ends in dropped requests
/// and a failed check, not in a livelock.
fn serve_config(drift: bool) -> ServeConfig {
    if drift {
        ServeConfig {
            canary_period: 1000,
            drift_margin: 0.0,
            request_retry_cap: 1000,
            ..ServeConfig::default()
        }
    } else {
        ServeConfig::default()
    }
}

pub struct ServeBench {
    drift: bool,
    model: Model,
    /// Test-image index of request `id`.
    images: Vec<usize>,
    load: Vec<Request>,
    servers: [InferenceServer; 2],
    digital_accuracy: f64,
}

pub struct ServeOut {
    servers: [InferenceServer; 2],
    stages: [ServeOutcome; 2],
    /// Logits of every request that completed both stages, by id.
    logits: Vec<(u64, Vec<f64>)>,
}

impl Workbench for ServeBench {
    type Fresh = [InferenceServer; 2];
    type Out = ServeOut;

    fn setup<T: Tracer>(kind: Kind, seed: u64, quick: bool, tr: &mut T) -> Self {
        let drift = kind == Kind::ServeDrift;
        let (model, mut rng) = model::build(seed, model::samples_per_class(quick), tr);
        let requests = if quick { QUICK_REQUESTS } else { REQUESTS };
        let gaps = model::deck(requests, MAX_GAP as usize + 1, &mut rng);
        let images = model::deck(requests, model.test.len(), &mut rng);
        let mut arrival = 0;
        let load = images
            .iter()
            .zip(&gaps)
            .enumerate()
            .map(|(id, (&image, &gap))| {
                arrival += gap as u64;
                Request {
                    id: id as u64,
                    model: 0,
                    arrival,
                    x: model.test.samples[image].clone(),
                }
            })
            .collect();
        let spec = PeSpec {
            drift: drift.then(drift_model),
            ..PeSpec::new(0)
        };
        let servers = [&model.w1, &model.w2].map(|w| {
            tr.span(Span::ServeNew, || {
                InferenceServer::new(vec![w.clone()], &[spec; PES], serve_config(drift))
            })
        });
        let digital_accuracy = model.digital_accuracy(&images);
        ServeBench {
            drift,
            model,
            images,
            load,
            servers,
            digital_accuracy,
        }
    }

    fn fresh(&self) -> Self::Fresh {
        self.servers.clone()
    }

    fn run<T: Tracer>(&self, mut servers: Self::Fresh, tr: &mut T) -> Self::Out {
        let first = serve_stage(&mut servers[0], &self.load, tr);
        let hidden = tr.span(Span::BenchGlue, || stage_two_load(&first, &self.model.b1));
        let second = serve_stage(&mut servers[1], &hidden, tr);
        let logits = tr.span(Span::BenchGlue, || {
            second
                .responses
                .iter()
                .map(|r| {
                    let z = r.y[..CLASSES]
                        .iter()
                        .zip(&self.model.b2)
                        .map(|(y, b)| y + b);
                    (r.id, z.collect())
                })
                .collect()
        });
        ServeOut {
            servers,
            stages: [first, second],
            logits,
        }
    }

    fn attempted(&self) -> usize {
        self.load.len()
    }

    fn failed(&self, out: &Self::Out) -> usize {
        out.stages.iter().map(|s| s.dropped_ids.len()).sum()
    }

    fn digest(&self, out: &Self::Out) -> u64 {
        let mut d = Digest::default();
        for stage in &out.stages {
            for r in &stage.responses {
                d.word(r.id);
                d.word(r.completed);
                d.floats(&r.y);
            }
            stage.dropped_ids.iter().for_each(|&id| d.word(id));
        }
        d.finish()
    }

    fn checks(&self, out: &Self::Out) -> Vec<Check> {
        let [first, second] = &out.stages;
        let n = self.load.len();
        let accounted = |s: &ServeOutcome| s.responses.len() + s.dropped_ids.len();
        let unique = |s: &ServeOutcome| s.responses.windows(2).all(|p| p[0].id < p[1].id);
        let accuracy = self.accuracy(out);
        let mut checks = vec![
            self.model.split_check.clone(),
            Check::new(
                "serve.every_request_accounted",
                accounted(first) == n && accounted(second) == first.responses.len(),
                format!(
                    "stage 1 {} of {n}, stage 2 {} of {}",
                    accounted(first),
                    accounted(second),
                    first.responses.len()
                ),
            ),
            Check::new(
                "serve.ids_unique",
                unique(first) && unique(second),
                String::new(),
            ),
        ];
        let worst = out
            .logits
            .iter()
            .map(|(id, z)| model::max_abs_diff(z, &self.model.logits[self.images[*id as usize]]))
            .fold(0.0, f64::max);
        checks.push(Check::new(
            "serve.no_drops",
            self.failed(out) == 0,
            format!("{} dropped", self.failed(out)),
        ));
        let detail = format!("worst |served - Mlp::forward| = {worst:.2e}");
        if self.drift {
            let recals: Vec<u32> = out
                .servers
                .iter()
                .flat_map(|s| (0..PES).map(move |k| s.pe_device(k).recal_count()))
                .collect();
            checks.push(Check::new(
                "serve.recalibration_on_every_pe",
                recals.iter().all(|&r| r >= 1),
                format!("recalibrations per PE {recals:?}"),
            ));
            checks.push(Check::new(
                "serve.drift_visible_in_logits",
                worst > LOGIT_TOLERANCE,
                detail,
            ));
        } else {
            checks.push(Check::new(
                "serve.logits_match_mlp",
                worst <= LOGIT_TOLERANCE,
                detail,
            ));
            checks.push(Check::new(
                "serve.accuracy_matches_digital",
                (accuracy - self.digital_accuracy).abs() <= ACCURACY_SLACK,
                format!(
                    "served {accuracy:.4} vs digital {:.4}",
                    self.digital_accuracy
                ),
            ));
        }
        checks
    }

    fn sim_metrics(&self, out: &Self::Out, sheet: &mut Sheet) {
        let [first, second] = &out.stages;
        let completed = second.responses.len();
        let mut latencies: Vec<f64> = second
            .responses
            .iter()
            .map(|r| (r.completed - self.load[r.id as usize].arrival) as f64)
            .collect();
        latencies.sort_by(f64::total_cmp);
        let cycles = second.report.total_cycles as f64;
        let energy_j: f64 = out.stages.iter().map(|s| s.report.fleet_energy_j).sum();
        let per_inference = 1.0 / completed.max(1) as f64;
        let n = self.load.len();
        let (p50, p99) = (
            binned_percentile(&latencies, 50.0),
            binned_percentile(&latencies, 99.0),
        );
        sheet.put("sim.accuracy", self.accuracy(out), Clock::Sim, n);
        sheet.put("sim.latency_p50_cycles", p50, Clock::Sim, completed);
        sheet.put("sim.latency_p99_cycles", p99, Clock::Sim, completed);
        let mut sim = |name, value| sheet.put(name, value, Clock::Sim, 1);
        sim("sim.cycles_per_inference", cycles * per_inference);
        sim(
            "sim.energy_nj_per_inference",
            energy_j * 1e9 * per_inference,
        );
        sim("sim.inferences_per_episode", n as f64);
        sim("sim.episode_cycles", cycles);
        sim(
            "sim.footprint_mm2",
            (2 * PES) as f64 * model::core_footprint_mm2(),
        );

        let total = |f: fn(&ServeReport) -> u64| -> f64 {
            out.stages.iter().map(|s| f(&s.report) as f64).sum()
        };
        let dispatched = total(|r| r.jobs_dispatched);
        let failed = total(|r| r.jobs_failed);
        sim("serve.jobs_dispatched", dispatched);
        sim("serve.jobs_failed", failed);
        sim("serve.retries", total(|r| r.retries));
        sim("serve.canaries_run", total(|r| r.canaries_run));
        sim(
            "serve.job_success_ratio",
            (dispatched - failed) / dispatched.max(1.0),
        );
        sim(
            "serve.drops.unservable",
            total(|r| r.drops.unservable as u64),
        );
        sim("serve.drops.shed", total(|r| r.drops.shed as u64));
        sim("serve.drops.deadline", total(|r| r.drops.deadline as u64));
        sim("serve.drops.poison", total(|r| r.drops.poison as u64));
        sim(
            "serve.drops.attempt_cap",
            total(|r| r.drops.attempt_cap as u64),
        );
        sim("serve.failures.watchdog", total(|r| r.failures.watchdog));
        sim("serve.failures.checksum", total(|r| r.failures.checksum));
        sim(
            "serve.failures.hard_fault",
            total(|r| r.failures.hard_fault),
        );
        sim("serve.failures.rejected", total(|r| r.failures.rejected));
        let vectors: f64 = out
            .stages
            .iter()
            .map(|s| s.report.mean_batch_fill * s.report.jobs_dispatched as f64)
            .sum();
        sim("serve.mean_batch_fill", vectors / dispatched.max(1.0));
        sim(
            "serve.stage1.latency_p50_cycles",
            first.report.p50_latency_cycles as f64,
        );
        sim(
            "serve.stage2.latency_p50_cycles",
            second.report.p50_latency_cycles as f64,
        );

        let devices = || {
            out.servers
                .iter()
                .flat_map(|s| (0..PES).map(|k| s.pe_device(k)))
        };
        sim(
            "accel.recals",
            devices().map(|d| d.recal_count() as f64).sum(),
        );
        sim(
            "accel.vectors",
            devices().map(|d| d.vectors_processed as f64).sum(),
        );
        sim(
            "accel.jobs_completed",
            devices().map(|d| d.jobs_completed as f64).sum(),
        );
        sim("accel.energy_nj", energy_j * 1e9);
        sim("energy.photonic_accel_nj", energy_j * 1e9 * per_inference);
    }
}

impl ServeBench {
    /// Top-1 accuracy over every attempted request; a request that did
    /// not complete both stages counts as wrong.
    fn accuracy(&self, out: &ServeOut) -> f64 {
        let correct = out
            .logits
            .iter()
            .filter(|(id, z)| argmax(z) == self.model.test.labels[self.images[*id as usize]])
            .count();
        correct as f64 / self.load.len() as f64
    }
}

/// Serves `load` on `srv` to completion. Traced, each step is classified
/// by what it did to the PEs: streamed vectors (`dispatch`), started a
/// recalibration (`recal`), or neither (`other`).
fn serve_stage<T: Tracer>(srv: &mut InferenceServer, load: &[Request], tr: &mut T) -> ServeOutcome {
    tr.span(Span::ServeBegin, || srv.begin(load));
    if T::ON {
        let counters = |srv: &InferenceServer| {
            (0..PES).fold((0, 0), |(v, r), k| {
                let d = srv.pe_device(k);
                (v + d.vectors_processed, r + d.recal_count())
            })
        };
        loop {
            tr.enter();
            let (vectors, recals) = counters(srv);
            let more = srv.step();
            let (vectors_after, recals_after) = counters(srv);
            tr.exit(if recals_after != recals {
                Span::StepRecal
            } else if vectors_after != vectors {
                Span::StepDispatch
            } else {
                Span::StepOther
            });
            if !more {
                break;
            }
        }
    } else {
        while srv.step() {}
    }
    tr.span(Span::ServeFinish, || srv.finish())
}

/// Stage-2 requests: host bias and ReLU over each stage-1 result,
/// arriving when its stage-1 job joined.
fn stage_two_load(first: &ServeOutcome, bias: &[f64]) -> Vec<Request> {
    first
        .responses
        .iter()
        .map(|r| Request {
            id: r.id,
            model: 0,
            arrival: r.completed,
            x: r.y
                .iter()
                .zip(bias)
                .map(|(y, b)| (y + b).max(0.0))
                .collect(),
        })
        .collect()
}
