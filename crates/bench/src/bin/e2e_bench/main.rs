//! `e2e_bench`: one trained MLP served, drifted, offloaded and
//! interpreted, end to end, with host and simulated metrics kept apart
//! and host time split by layer. See `README.md` beside this file.
//!
//! ```text
//! e2e_bench --workload <serve-clean|serve-drift|fw-cluster|fw-software>
//!           [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! e2e_bench compare A.json... -- B.json...
//! ```
//!
//! A run prints one line per metric (value, unit, clock, sample count),
//! one line per correctness check, and last a JSON result object. It
//! exits 1 when a check fails and 2 on a usage error.

mod compare;
mod fw;
mod json;
mod measure;
mod metrics;
mod model;
mod serving;
mod stats;
mod trace;

use measure::{measure, Kind, Outcome, Settings};
use model::Check;
use std::process::exit;

const USAGE: &str = "usage: e2e_bench --workload <serve-clean|serve-drift|fw-cluster|fw-software> \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
                     e2e_bench compare A.json... -- B.json...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match compare::run(&args[1..]) {
            Ok(true) => exit(0),
            Ok(false) => exit(1),
            Err(e) => {
                eprintln!("e2e_bench compare: {e}");
                exit(2);
            }
        }
    }
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            exit(2);
        }
    };
    println!(
        "e2e_bench workload={} seed={} seconds={} trace={} quick={}",
        settings.kind.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        u8::from(settings.quick)
    );
    let mut outcome = run(&settings);
    if let Some(trace) = &outcome.trace_json {
        let path = format!("e2e_trace_{}.json", settings.kind.name());
        let written = std::fs::write(&path, trace);
        outcome.checks.push(Check::new(
            "trace_file_written",
            written.is_ok(),
            format!("{path}: {written:?}"),
        ));
    }
    print!("{}", outcome.sheet.table());
    for c in &outcome.checks {
        let verdict = if c.pass { "pass" } else { "FAIL" };
        println!("check {verdict} {} {}", c.name, c.detail);
    }
    let correct = outcome.correct();
    println!(
        "{}",
        outcome.sheet.result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            &Outcome::published(settings.trace)
        )
    );
    exit(if correct { 0 } else { 1 });
}

fn run(settings: &Settings) -> Outcome {
    match settings.kind {
        Kind::ServeClean | Kind::ServeDrift => measure::<serving::ServeBench>(settings),
        Kind::FwCluster | Kind::FwSoftware => measure::<fw::FwBench>(settings),
    }
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut kind = None;
    let mut settings = Settings {
        kind: Kind::ServeClean,
        seed: 11,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            settings.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => settings.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                settings.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    settings.kind = kind.ok_or("--workload is required")?;
    Ok(settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    fn quick(kind: Kind, seed: u64, trace: bool) -> Outcome {
        run(&Settings {
            kind,
            seed,
            seconds: 0.0,
            trace,
            quick: true,
        })
    }

    fn assert_passes(kind: Kind) {
        let out = quick(kind, 11, false);
        let failed: Vec<&Check> = out.checks.iter().filter(|c| !c.pass).collect();
        assert!(failed.is_empty(), "{}: {failed:?}", kind.name());
        assert_eq!(out.failed, 0, "{}: no request may fail", kind.name());
    }

    #[test]
    fn quick_serve_clean_passes_its_checks() {
        assert_passes(Kind::ServeClean);
    }

    #[test]
    fn quick_serve_drift_passes_its_checks() {
        assert_passes(Kind::ServeDrift);
    }

    #[test]
    fn quick_fw_cluster_passes_its_checks() {
        assert_passes(Kind::FwCluster);
    }

    #[test]
    fn quick_fw_software_passes_its_checks() {
        assert_passes(Kind::FwSoftware);
    }

    #[test]
    fn digest_repeats_for_a_seed_and_changes_with_it() {
        let digest = |kind, seed| {
            quick(kind, seed, false)
                .sheet
                .get("sim.digest")
                .unwrap()
                .value
        };
        for kind in [Kind::FwSoftware, Kind::ServeClean] {
            let a = digest(kind, 11);
            assert_eq!(a, digest(kind, 11), "{}", kind.name());
            assert_ne!(a, digest(kind, 12), "{}", kind.name());
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let out = quick(Kind::ServeClean, 11, true);
        assert!(out.correct());
        for (name, _) in PER_LAYER {
            assert!(out.sheet.get(name).is_some(), "{name} missing");
        }
        let coverage = out.sheet.get("trace.coverage").map(|m| m.value);
        assert!(
            coverage.is_some_and(|c| c > 0.9 && c <= 1.0),
            "{coverage:?}"
        );
        assert!(out
            .trace_json
            .is_some_and(|t| t.contains("serve.step.dispatch")));
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let s = parse_args(&args("--workload fw-cluster --seed 7 --trace 1")).unwrap();
        assert_eq!(
            (s.kind, s.seed, s.trace, s.seconds),
            (Kind::FwCluster, 7, true, 10.0)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload fw-cluster --trace 2",
            "--workload fw-cluster --seconds -1",
            "--workload fw-cluster --seed",
            "--workload fw-cluster --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
