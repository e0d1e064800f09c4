//! Metric names, units and bounds, and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` publishes;
//! a unit test keeps the two in step. A `--trace 0` run reports exactly
//! the end-to-end list and a `--trace 1` run exactly the per-layer list,
//! on every workload; a per-layer metric that does not apply to a
//! workload (a serve counter on a firmware workload) reads 0.

use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock or host memory: how fast the simulator runs.
    Host,
    /// Simulated time, energy or outputs of the modelled hardware.
    Sim,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// An end-to-end metric and its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen, over
    /// runs of different seeds: it covers host noise and, for a `sim.*`
    /// metric, the spread of the metric across seeds.
    pub bound: f64,
    /// For a `sim.*` metric, which repeats exactly for a seed: the share
    /// by which it may worsen between two runs of the same seed.
    pub per_seed: Option<f64>,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        per_seed: None,
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    per_seed: f64,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        per_seed: Some(per_seed),
    }
}

/// End-to-end metrics: what a user of the platform sees.
pub const END_TO_END: [Def; 8] = [
    host("setup_s", "s", "lower", 0.25),
    host("host.inferences_per_s", "1/s", "higher", 0.22),
    host("host.peak_rss_mb", "MB", "lower", 0.10),
    sim("sim.accuracy", "fraction", "higher", 0.01, 0.005),
    sim("sim.latency_p50_cycles", "cycles", "lower", 0.05, 0.01),
    sim("sim.latency_p99_cycles", "cycles", "lower", 0.15, 0.01),
    sim("sim.cycles_per_inference", "cycles", "lower", 0.01, 0.01),
    sim("sim.energy_nj_per_inference", "nJ", "lower", 0.06, 0.01),
];

/// Per-layer metrics with their units (no bounds).
pub const PER_LAYER: [(&str, &str); 74] = [
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("host.episodes", "count"),
    ("host.episode_ms_p50", "ms"),
    ("host.episode_ms_tail", "ms"),
    ("host.episode_tail_pct", "%"),
    ("serve.step.dispatch.count", "count"),
    ("serve.step.dispatch.us_p50", "us"),
    ("serve.step.dispatch.us_tail", "us"),
    ("serve.step.dispatch.tail_pct", "%"),
    ("serve.step.dispatch.self_s", "s"),
    ("serve.step.dispatch.share", "fraction"),
    ("serve.step.recal.count", "count"),
    ("serve.step.recal.self_s", "s"),
    ("serve.step.other.count", "count"),
    ("serve.step.other.us_p50", "us"),
    ("serve.step.other.self_s", "s"),
    ("serve.begin_s", "s"),
    ("serve.finish_s", "s"),
    ("bench.glue_s", "s"),
    ("bench.readback_s", "s"),
    ("serve.jobs_dispatched", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.retries", "count"),
    ("serve.canaries_run", "count"),
    ("serve.job_success_ratio", "fraction"),
    ("serve.drops.unservable", "count"),
    ("serve.drops.shed", "count"),
    ("serve.drops.deadline", "count"),
    ("serve.drops.poison", "count"),
    ("serve.drops.attempt_cap", "count"),
    ("serve.failures.watchdog", "count"),
    ("serve.failures.checksum", "count"),
    ("serve.failures.hard_fault", "count"),
    ("serve.failures.rejected", "count"),
    ("serve.mean_batch_fill", "vectors"),
    ("serve.stage1.latency_p50_cycles", "cycles"),
    ("serve.stage2.latency_p50_cycles", "cycles"),
    ("accel.recals", "count"),
    ("accel.vectors", "count"),
    ("accel.jobs_completed", "count"),
    ("accel.energy_nj", "nJ"),
    ("riscv.instret", "count"),
    ("riscv.block_hit_rate", "fraction"),
    ("riscv.trace_hits", "count"),
    ("riscv.traces_compiled", "count"),
    ("riscv.mips", "MIPS"),
    ("riscv.trace_exits.guard", "count"),
    ("riscv.trace_exits.end", "count"),
    ("riscv.trace_exits.budget", "count"),
    ("riscv.trace_exits.mmio", "count"),
    ("riscv.trace_exits.invalidated", "count"),
    ("system.run_s", "s"),
    ("system.cycles", "cycles"),
    ("system.fast_forwarded_cycles", "cycles"),
    ("system.ff_ratio", "fraction"),
    ("ram.dram_reads", "count"),
    ("ram.dram_writes", "count"),
    ("ram.spm_reads", "count"),
    ("ram.spm_writes", "count"),
    ("energy.cpu_nj", "nJ"),
    ("energy.photonic_accel_nj", "nJ"),
    ("energy.spm_nj", "nJ"),
    ("energy.dram_nj", "nJ"),
    ("nn.synthetic_digits_s", "s"),
    ("nn.fit_s", "s"),
    ("serve.build_s", "s"),
    ("accel.load_matrix_s", "s"),
    ("riscv.assemble_s", "s"),
    ("ram.stage_s", "s"),
    ("sim.footprint_mm2", "mm2"),
    ("sim.inferences_per_episode", "count"),
    ("sim.episode_cycles", "cycles"),
    ("sim.digest", "hash"),
];

/// The unit of a known metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Samples the value was derived from.
    pub samples: usize,
    /// Free-form qualifier (e.g. which percentile a tail is).
    pub note: String,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Sheet {
    metrics: Vec<Metric>,
}

impl Sheet {
    /// Records `name`; its unit comes from the published lists.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both lists or recorded twice: the
    /// lists are the benchmark's contract.
    pub fn put(&mut self, name: &'static str, value: f64, clock: Clock, samples: usize) {
        self.put_noted(name, value, clock, samples, String::new());
    }

    /// [`Sheet::put`] with a qualifier shown in the human-readable line.
    pub fn put_noted(
        &mut self,
        name: &'static str,
        value: f64,
        clock: Clock,
        samples: usize,
        note: String,
    ) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not published"));
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            clock,
            samples,
            note,
        });
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every recorded metric.
    pub fn all(&self) -> &[Metric] {
        &self.metrics
    }

    /// The published names this sheet lacks.
    pub fn missing<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
        names
            .into_iter()
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// One human-readable line per metric: name, value, unit, clock and
    /// sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<34} {:>18} {:<9} {:<4} n={}{}",
                m.name,
                format_value(m),
                m.unit,
                m.clock.name(),
                m.samples,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                },
            );
        }
        out
    }

    /// The result object: `metrics` holds exactly `names`.
    pub fn result_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        names: &[&str],
    ) -> String {
        let body: Vec<String> = names
            .iter()
            .filter_map(|n| self.get(n))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn format_value(m: &Metric) -> String {
    if m.unit == "hash" {
        format!("{:#014x}", m.value as u64)
    } else {
        format!("{}", m.value)
    }
}

/// A finite value with every digit (`Display` for `f64` round-trips);
/// non-finite values, which JSON cannot carry, read 0 and are caught by
/// the finiteness check.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The repository's `BENCHMARK.json`, two levels above this package.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("readable BENCHMARK.json");
        crate::json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn published_lists_match_benchmark_json() {
        let bench = benchmark_json();
        let e2e = bench
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(d.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(d.bound));
        }
        let layers = bench
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(unit));
        }
    }

    #[test]
    fn result_json_holds_exactly_the_named_metrics() {
        let mut sheet = Sheet::default();
        sheet.put("setup_s", 0.125, Clock::Host, 5);
        sheet.put("sim.accuracy", 0.96875, Clock::Sim, 1);
        let line = sheet.result_json(true, 10, 0, &["setup_s"]);
        let j = crate::json::parse(&line).expect("valid JSON");
        let metrics = j.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.125)
        );
        assert!(metrics.get("sim.accuracy").is_none());
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(10.0));
    }
}
