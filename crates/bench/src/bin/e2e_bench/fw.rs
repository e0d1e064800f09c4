//! `fw-cluster` and `fw-software`: the same MLP run by RV32 firmware on
//! the full system of the paper's Fig. 3, one `System` per layer.
//!
//! `fw-cluster` shards each layer's batch over two photonic PEs through
//! the DRAM work queue of `firmware::cluster_offload` (DMA, MMIO polling,
//! SPM streaming); `fw-software` computes the same products with Q16.16
//! `mul`/`mulh` on the core alone. Layer-2 inputs come from the digital
//! reference, so the two runs of an episode are independent.

use crate::measure::{Kind, Workbench};
use crate::metrics::{Clock, Sheet};
use crate::model::{self, Check, Digest, Model, CLASSES, DIM, LOGIT_TOLERANCE};
use crate::trace::{Span, Tracer};
use neuropulsim_nn::mlp::argmax;
use neuropulsim_sim::firmware::{cluster_offload, software_mvm, DramLayout};
use neuropulsim_sim::system::{RunOutcome, RunReport, System};
use rand::Rng;

/// Images per layer run.
const CLUSTER_BATCH: usize = 4096;
const SOFTWARE_BATCH: usize = 64;
const QUICK_CLUSTER_BATCH: usize = 256;
const QUICK_SOFTWARE_BATCH: usize = 8;
/// Photonic PEs sharing the cluster work queue, and vectors per tile.
const PES: usize = 2;
const TILE: usize = 32;
/// Cycle budget of one layer run (a run that hits it fails its check).
const MAX_CYCLES: u64 = 500_000_000;

pub struct FwBench {
    cluster: bool,
    model: Model,
    /// Test-image index of each batch column.
    images: Vec<usize>,
    systems: [System; 2],
}

pub struct FwOut {
    systems: [System; 2],
    reports: [RunReport; 2],
    /// Each layer's raw products, `batch x DIM`.
    y: [Vec<f64>; 2],
    /// `W2 h + b2` per image.
    logits: Vec<Vec<f64>>,
}

impl Workbench for FwBench {
    type Fresh = [System; 2];
    type Out = FwOut;

    fn setup<T: Tracer>(kind: Kind, seed: u64, quick: bool, tr: &mut T) -> Self {
        let cluster = kind == Kind::FwCluster;
        let (model, mut rng) = model::build(seed, model::samples_per_class(quick), tr);
        let batch = match (cluster, quick) {
            (true, false) => CLUSTER_BATCH,
            (true, true) => QUICK_CLUSTER_BATCH,
            (false, false) => SOFTWARE_BATCH,
            (false, true) => QUICK_SOFTWARE_BATCH,
        };
        let images: Vec<usize> = (0..batch)
            .map(|_| rng.gen_range(0..model.test.len()))
            .collect();
        let layout = DramLayout::default();
        let source = if cluster {
            cluster_offload(DIM, batch, PES, TILE, layout)
        } else {
            software_mvm(DIM, batch, layout)
        };
        let inputs = [&model.test.samples, &model.hidden];
        let systems = [0, 1].map(|layer| {
            let w = [&model.w1, &model.w2][layer];
            let mut sys = System::new();
            if cluster {
                for _ in 1..PES {
                    sys.platform.add_pe();
                }
                for k in 0..PES {
                    tr.span(Span::AccelLoadMatrix, || {
                        sys.platform.pe_mut(k).load_matrix(w)
                    });
                }
            } else {
                tr.span(Span::RamStage, || {
                    sys.write_fixed_vector(layout.w_addr, w.as_slice())
                });
            }
            tr.span(Span::RamStage, || {
                for (v, &image) in images.iter().enumerate() {
                    let addr = layout.x_addr + (v * DIM * 4) as u32;
                    sys.write_fixed_vector(addr, &inputs[layer][image]);
                }
            });
            tr.span(Span::RiscvAssemble, || sys.load_firmware_source(&source));
            sys
        });
        FwBench {
            cluster,
            model,
            images,
            systems,
        }
    }

    fn fresh(&self) -> Self::Fresh {
        self.systems.clone()
    }

    fn run<T: Tracer>(&self, mut systems: Self::Fresh, tr: &mut T) -> Self::Out {
        let words = self.images.len() * DIM;
        let y_addr = DramLayout::default().y_addr;
        let [a, b] = &mut systems;
        let r1 = tr.span(Span::SystemRun, || a.run(MAX_CYCLES));
        let y1 = tr.span(Span::BenchReadback, || a.read_fixed_vector(y_addr, words));
        let r2 = tr.span(Span::SystemRun, || b.run(MAX_CYCLES));
        let y2 = tr.span(Span::BenchReadback, || b.read_fixed_vector(y_addr, words));
        let logits = tr.span(Span::BenchGlue, || {
            y2.chunks(DIM)
                .map(|y| {
                    y[..CLASSES]
                        .iter()
                        .zip(&self.model.b2)
                        .map(|(y, b)| y + b)
                        .collect()
                })
                .collect()
        });
        FwOut {
            systems,
            reports: [r1, r2],
            y: [y1, y2],
            logits,
        }
    }

    fn attempted(&self) -> usize {
        self.images.len()
    }

    fn failed(&self, _out: &Self::Out) -> usize {
        0
    }

    fn digest(&self, out: &Self::Out) -> u64 {
        let mut d = Digest::default();
        for (y, r) in out.y.iter().zip(&out.reports) {
            d.floats(y);
            d.word(r.cycles);
            d.word(r.instructions);
        }
        d.finish()
    }

    fn checks(&self, out: &Self::Out) -> Vec<Check> {
        let halted = out
            .reports
            .iter()
            .all(|r| matches!(r.outcome, RunOutcome::Halted(_)));
        let worst = |got: &[Vec<f64>], want: &[Vec<f64>]| {
            self.images
                .iter()
                .zip(got)
                .map(|(&i, g)| model::max_abs_diff(g, &want[i]))
                .fold(0.0, f64::max)
        };
        let layer1: Vec<Vec<f64>> = out.y[0].chunks(DIM).map(<[f64]>::to_vec).collect();
        let worst1 = worst(&layer1, &self.model.pre1);
        let worst_logit = worst(&out.logits, &self.model.logits);
        vec![
            self.model.split_check.clone(),
            Check::new(
                "fw.runs_halt",
                halted,
                format!("{:?}", out.reports.each_ref().map(|r| r.outcome)),
            ),
            Check::new(
                "fw.layer1_matches_mlp",
                worst1 <= LOGIT_TOLERANCE,
                format!("worst |W1 x - reference| = {worst1:.2e}"),
            ),
            Check::new(
                "fw.logits_match_mlp",
                worst_logit <= LOGIT_TOLERANCE,
                format!("worst |logit - Mlp::forward| = {worst_logit:.2e}"),
            ),
        ]
    }

    fn sim_metrics(&self, out: &Self::Out, sheet: &mut Sheet) {
        let batch = self.images.len();
        let per_inference = 1.0 / batch as f64;
        let correct = self
            .images
            .iter()
            .zip(&out.logits)
            .filter(|(&i, z)| argmax(z) == self.model.test.labels[i])
            .count();
        // Every image of a batch is read back when its layer-2 run halts:
        // one latency, shared by the whole batch.
        let cycles: u64 = out.reports.iter().map(|r| r.cycles).sum();
        let energy = |label: &str| -> f64 {
            out.reports.iter().map(|r| r.energy.get(label)).sum::<f64>() * 1e9
        };
        let energy_nj: f64 = out.reports.iter().map(|r| r.energy.total()).sum::<f64>() * 1e9;
        let accuracy = correct as f64 * per_inference;
        sheet.put("sim.accuracy", accuracy, Clock::Sim, batch);
        sheet.put("sim.latency_p50_cycles", cycles as f64, Clock::Sim, batch);
        sheet.put("sim.latency_p99_cycles", cycles as f64, Clock::Sim, batch);
        let mut sim = |name, value| sheet.put(name, value, Clock::Sim, 1);
        sim("sim.cycles_per_inference", cycles as f64 * per_inference);
        sim("sim.energy_nj_per_inference", energy_nj * per_inference);
        sim("sim.inferences_per_episode", batch as f64);
        sim("sim.episode_cycles", cycles as f64);
        let cores = if self.cluster { 2 * PES } else { 0 };
        sim(
            "sim.footprint_mm2",
            cores as f64 * model::core_footprint_mm2(),
        );

        let sum = |f: fn(&System) -> u64| -> f64 { out.systems.iter().map(|s| f(s) as f64).sum() };
        let perf = |f: fn(&neuropulsim_riscv::block::PerfCounters) -> u64| -> f64 {
            out.systems
                .iter()
                .map(|s| f(&s.cpu.perf_counters()) as f64)
                .sum()
        };
        let hits = perf(|p| p.block_hits);
        let lookups = hits + perf(|p| p.block_misses);
        sim("riscv.instret", perf(|p| p.instret));
        sim("riscv.block_hit_rate", hits / lookups.max(1.0));
        sim("riscv.trace_hits", perf(|p| p.trace_hits));
        sim("riscv.traces_compiled", perf(|p| p.traces_compiled));
        sim("riscv.trace_exits.guard", perf(|p| p.trace_exit_guard));
        sim("riscv.trace_exits.end", perf(|p| p.trace_exit_end));
        sim("riscv.trace_exits.budget", perf(|p| p.trace_exit_budget));
        sim("riscv.trace_exits.mmio", perf(|p| p.trace_exit_mmio));
        sim(
            "riscv.trace_exits.invalidated",
            perf(|p| p.trace_exit_invalidated),
        );
        let ff = sum(|s| s.fast_forwarded_cycles);
        sim("system.cycles", cycles as f64);
        sim("system.fast_forwarded_cycles", ff);
        sim("system.ff_ratio", ff / (cycles as f64).max(1.0));
        sim("ram.dram_reads", sum(|s| s.platform.dram.reads));
        sim("ram.dram_writes", sum(|s| s.platform.dram.writes));
        sim("ram.spm_reads", sum(|s| s.platform.spm.reads));
        sim("ram.spm_writes", sum(|s| s.platform.spm.writes));
        let pes = |f: fn(&neuropulsim_sim::accel::AccelDevice) -> u64| -> f64 {
            out.systems
                .iter()
                .flat_map(|s| (0..s.platform.pe_count()).map(move |k| f(s.platform.pe(k)) as f64))
                .sum()
        };
        sim("accel.vectors", pes(|d| d.vectors_processed));
        sim("accel.jobs_completed", pes(|d| d.jobs_completed));
        sim("accel.energy_nj", energy("photonic-accel"));
        sim("energy.cpu_nj", energy("cpu") * per_inference);
        sim(
            "energy.photonic_accel_nj",
            energy("photonic-accel") * per_inference,
        );
        sim("energy.spm_nj", energy("spm") * per_inference);
        sim("energy.dram_nj", energy("dram") * per_inference);
    }
}
