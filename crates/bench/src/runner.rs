//! The unified bench runner: one measurement methodology and one JSON
//! schema (`neuropulsim-bench/v1`) for every `*_bench` probe.
//!
//! Methodology:
//!
//! - **median-of-N** — each measurement repeats its op `reps` times and
//!   records the median and minimum wall time. The median is the
//!   headline statistic (robust to one-off scheduler hiccups); the
//!   minimum estimates the noise-free cost.
//! - **machine-normalized** — every report times a fixed scalar
//!   calibration workload first and publishes each measurement's
//!   `norm = median_ns / calib_ns`. Regression checks compare `norm`,
//!   which cancels host frequency differences to first order, so a
//!   committed baseline from one machine is comparable on another.
//! - **payload vs measurements** — deterministic campaign *results*
//!   (bit-identity flags, outcome tallies, speedup structure) go in
//!   `payload`; wall-clock *timings* go in `measurements`. CI
//!   determinism checks compare `payload` only, perf-regression checks
//!   compare `measurements[].norm` only.
//!
//! ```text
//! {"schema":"neuropulsim-bench/v1","bench":"...","calib_ns":...,
//!  "threads":N,"measurements":[{"id":...,"reps":...,"median_ns":...,
//!  "min_ns":...,"norm":...,"meta":{...}}],"derived":{...},"payload":{...}}
//! ```

use neuropulsim_sim::escape_json;
use std::time::Instant;

/// Iterations of the fixed calibration kernel.
const CALIB_ITERS: u64 = 4_000_000;
/// Repetitions of the calibration timing (median taken).
const CALIB_REPS: usize = 5;

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Stable identifier (`bench/variant/size`), the regression key.
    pub id: String,
    /// Repetitions the median was taken over.
    pub reps: usize,
    /// Median wall time of one op, nanoseconds.
    pub median_ns: f64,
    /// Minimum wall time of one op, nanoseconds.
    pub min_ns: f64,
    /// `median_ns / calib_ns` — the machine-normalized cost.
    pub norm: f64,
    /// Extra per-measurement fields: `(key, raw JSON value)` pairs,
    /// emitted verbatim inside `meta`.
    pub meta: Vec<(String, String)>,
}

/// Collects measurements and renders the unified report.
#[derive(Debug, Clone)]
pub struct Runner {
    bench: String,
    calib_ns: f64,
    threads: usize,
    profile: bool,
    measurements: Vec<Measurement>,
    derived: Vec<(String, String)>,
    payload: Option<String>,
}

/// True when the probe should run in flamegraph-friendly profile mode:
/// `--profile` anywhere on the command line, or `NEUROPULSIM_PROFILE=1`
/// in the environment. Profile mode skips every calibration loop — the
/// start-of-run one and the paired per-rep samples — so profiler samples
/// land in the workload under test instead of the synthetic calibration
/// kernel, and the report is stamped `"profile": true` so
/// `scripts/check_perf.py` refuses to gate on it.
pub fn profile_mode() -> bool {
    std::env::args().skip(1).any(|a| a == "--profile")
        || std::env::var("NEUROPULSIM_PROFILE").is_ok_and(|v| v == "1")
}

/// The command-line arguments with runner flags (`--profile`) removed —
/// what a probe should parse its positional arguments from.
pub fn positional_args() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| a != "--profile")
        .collect()
}

/// The fixed calibration workload: a SplitMix64-fed floating-point
/// recurrence no optimizer can fold away. Returns nanoseconds per run
/// (median of [`CALIB_REPS`]).
fn calibrate() -> f64 {
    let mut samples = Vec::with_capacity(CALIB_REPS);
    for _ in 0..CALIB_REPS {
        samples.push(calibrate_once());
    }
    median(&mut samples)
}

/// One timed run of the calibration loop (one [`calibrate`] sample).
fn calibrate_once() -> f64 {
    let t0 = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 1.0f64;
    for _ in 0..CALIB_ITERS {
        state = state
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(0x94D0_49BB_1331_11EB);
        acc += (state >> 40) as f64 * 1e-9;
        acc *= 0.999_999_9;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

impl Runner {
    /// Creates a runner for `bench`, timing the calibration workload —
    /// unless [`profile_mode`] is on, in which case calibration is
    /// skipped entirely (see [`Runner::with_mode`]).
    pub fn new(bench: &str) -> Self {
        Self::with_mode(bench, profile_mode())
    }

    /// [`Runner::new`] with an explicit mode. With `profile = true` no
    /// calibration loop ever runs (`calib_ns` is pinned to 1.0, so
    /// `norm` degenerates to raw nanoseconds) and the report carries
    /// `"profile": true`; such reports are for flamegraphs only and are
    /// rejected by the regression gate.
    pub fn with_mode(bench: &str, profile: bool) -> Self {
        Runner {
            bench: bench.to_string(),
            calib_ns: if profile { 1.0 } else { calibrate() },
            threads: neuropulsim_linalg::parallel::available_threads(),
            profile,
            measurements: Vec::new(),
            derived: Vec::new(),
            payload: None,
        }
    }

    /// Nanoseconds of the calibration workload on this host.
    pub fn calib_ns(&self) -> f64 {
        self.calib_ns
    }

    /// [`Runner::measure_with_meta`], but with a *drift-immune* `norm`:
    /// every repetition is paired with its own single-shot calibration
    /// sample taken immediately before it, and `norm` is the median of
    /// the per-rep `op_ns / calib_ns` ratios. Machine-speed drift across
    /// the run (frequency scaling, noisy neighbours) hits numerator and
    /// denominator alike and cancels, where a start-of-run calibration
    /// would mis-normalize every later repetition. Costs one extra
    /// calibration loop (~ms) per rep — use it for probes whose
    /// scenarios are long enough for the machine to drift mid-run.
    pub fn measure_ratio_with_meta<F: FnMut()>(
        &mut self,
        id: &str,
        reps: usize,
        meta: &[(&str, String)],
        mut op: F,
    ) -> f64 {
        assert!(reps >= 1, "need at least one repetition");
        let mut samples = Vec::with_capacity(reps);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            // In profile mode the paired calibration is skipped too:
            // flamegraph samples should land in `op`, not the kernel.
            let calib = if self.profile { 1.0 } else { calibrate_once() };
            let t0 = Instant::now();
            op();
            let ns = t0.elapsed().as_nanos() as f64;
            samples.push(ns);
            ratios.push(ns / calib);
        }
        let min_ns = samples.iter().copied().fold(f64::MAX, f64::min);
        let median_ns = median(&mut samples);
        // Each ratio divides by the time of one calibration loop — the
        // same quantity `calib_ns` estimates — so `norm` keeps the same
        // definition (op cost / calibration cost) as `measure`.
        let norm = median(&mut ratios);
        self.measurements.push(Measurement {
            id: id.to_string(),
            reps,
            median_ns,
            min_ns,
            norm,
            meta: meta
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        median_ns
    }

    /// Times `op` (already warmed up by the caller if needed): `reps`
    /// repetitions, median-of-N. Returns the median nanoseconds.
    pub fn measure<F: FnMut()>(&mut self, id: &str, reps: usize, op: F) -> f64 {
        self.measure_with_meta(id, reps, &[], op)
    }

    /// [`Runner::measure`] with extra `(key, raw JSON value)` pairs
    /// attached to the measurement.
    pub fn measure_with_meta<F: FnMut()>(
        &mut self,
        id: &str,
        reps: usize,
        meta: &[(&str, String)],
        mut op: F,
    ) -> f64 {
        assert!(reps >= 1, "need at least one repetition");
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            op();
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        let min_ns = samples.iter().copied().fold(f64::MAX, f64::min);
        let median_ns = median(&mut samples);
        self.measurements.push(Measurement {
            id: id.to_string(),
            reps,
            median_ns,
            min_ns,
            norm: median_ns / self.calib_ns,
            meta: meta
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        median_ns
    }

    /// Adds a top-level derived metric (`key`, raw JSON value).
    pub fn derived(&mut self, key: &str, raw_value: String) {
        self.derived.push((key.to_string(), raw_value));
    }

    /// Sets the deterministic payload — a complete raw JSON value
    /// (campaign report, identity flags); must not contain timings.
    pub fn payload(&mut self, raw_json: String) {
        self.payload = Some(raw_json);
    }

    /// Renders the `neuropulsim-bench/v1` report.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"neuropulsim-bench/v1\",\n");
        s.push_str(&format!("  \"bench\": \"{}\",\n", escape_json(&self.bench)));
        s.push_str(&format!("  \"calib_ns\": {:.0},\n", self.calib_ns));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        if self.profile {
            s.push_str("  \"profile\": true,\n");
        }
        s.push_str("  \"measurements\": [\n");
        for (k, m) in self.measurements.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"reps\": {}, \"median_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"norm\": {:.6}",
                escape_json(&m.id),
                m.reps,
                m.median_ns,
                m.min_ns,
                m.norm
            ));
            if !m.meta.is_empty() {
                s.push_str(", \"meta\": {");
                for (j, (key, value)) in m.meta.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!("\"{}\": {value}", escape_json(key)));
                }
                s.push('}');
            }
            s.push('}');
            if k + 1 < self.measurements.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");
        s.push_str("  \"derived\": {");
        for (j, (key, value)) in self.derived.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {value}", escape_json(key)));
        }
        s.push_str("},\n");
        match &self.payload {
            Some(p) => s.push_str(&format!("  \"payload\": {p}\n")),
            None => s.push_str("  \"payload\": null\n"),
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn report_shape_is_valid_schema() {
        let mut r = Runner::new("unit_test");
        assert!(r.calib_ns() > 0.0);
        let m = r.measure_with_meta("op/a/n1", 3, &[("items", "7".to_string())], || {
            std::hint::black_box(1 + 1);
        });
        assert!(m >= 0.0);
        r.derived("speedup", "2.5".to_string());
        r.payload("{\"ok\": true}".to_string());
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"neuropulsim-bench/v1\""));
        assert!(json.contains("\"id\": \"op/a/n1\""));
        assert!(json.contains("\"items\": 7"));
        assert!(json.contains("\"speedup\": 2.5"));
        assert!(json.contains("\"payload\": {\"ok\": true}"));
        // Every measurement is normalized against the calibration.
        assert!(json.contains("\"norm\": "));
    }

    #[test]
    fn profile_mode_skips_calibration_and_stamps_report() {
        let mut r = Runner::with_mode("profiled", true);
        assert_eq!(r.calib_ns(), 1.0, "no calibration loop in profile mode");
        r.measure_ratio_with_meta("op/p/n1", 2, &[], || {
            std::hint::black_box(1 + 1);
        });
        let json = r.to_json();
        assert!(json.contains("\"profile\": true"));
    }

    #[test]
    fn payload_defaults_to_null() {
        let mut r = Runner::new("empty");
        r.measure("noop", 1, || {});
        assert!(r.to_json().contains("\"payload\": null"));
    }

    #[test]
    fn report_json_escapes_caller_strings() {
        let mut r = Runner::with_mode("b\"x", true);
        r.measure_with_meta("op\\\"1", 1, &[("k\"", "1".to_string())], || {});
        r.derived("d\\", "2".to_string());
        let json = r.to_json();
        for escaped in [
            r#""bench": "b\"x","#,
            r#""id": "op\\\"1","#,
            r#""meta": {"k\"": 1}"#,
            r#""derived": {"d\\": 2}"#,
        ] {
            assert!(json.contains(escaped), "missing {escaped} in {json}");
        }
    }
}
