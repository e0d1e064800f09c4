//! `e2e_bench compare A/*.json -- B/*.json`: per workload, the median and
//! quartiles of every end-to-end metric in each set of saved runs, and a
//! verdict per metric.
//!
//! A saved run is the stdout of one `e2e_bench` run; its first line names
//! the workload and the seed. Host metrics are judged on the two sets'
//! medians against the metric's bound (the bound `BENCHMARK.json`
//! publishes; a unit test keeps the two equal). A `sim.*` value repeats
//! exactly for a seed, so `sim.*` metrics are judged on runs of the same
//! seed in both sets, against the metric's tighter per-seed bound; with
//! no seed in common they fall back to the medians.

use crate::json::{self, Json};
use crate::measure::Kind;
use crate::metrics::{Def, END_TO_END};
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// One saved run.
struct Run {
    seed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Compares the two sets; `Ok(false)` when a metric regressed beyond
/// its bound or a run was incorrect.
pub fn run(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: e2e_bench compare A.json... -- B.json...")?;
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    if a_files.is_empty() || b_files.is_empty() {
        return Err("both sets need at least one file".into());
    }
    let mut sets: BTreeMap<&'static str, [Vec<Run>; 2]> = BTreeMap::new();
    for (side, files) in [a_files, b_files].into_iter().enumerate() {
        for file in files {
            let (workload, run) = load_run(file)?;
            sets.entry(workload).or_default()[side].push(run);
        }
    }
    let mut ok = true;
    for (workload, [a, b]) in &sets {
        println!("== {workload}: A {} runs, B {} runs", a.len(), b.len());
        for (label, runs) in [("A", a), ("B", b)] {
            let bad = runs.iter().filter(|r| !r.correct).count();
            if bad > 0 {
                println!("   INCORRECT: {bad} run(s) of set {label} failed their checks");
                ok = false;
            }
        }
        if a.is_empty() || b.is_empty() {
            println!("   (one set has no runs of this workload; nothing to compare)");
            continue;
        }
        println!(
            "   {:<28} {:<8} {:>36} {:>36} {:>8} {:>6}  verdict",
            "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
        );
        for m in &END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (qa, qb) = (quartiles(&values(a)), quartiles(&values(b)));
            let paired = m.per_seed.zip(per_seed_worse(m, a, b));
            let (worse, bound, verdict) = match paired {
                Some((bound, (worse, seeds, identical))) => {
                    let verdict = if worse > bound {
                        "REGRESSED".to_string()
                    } else if identical {
                        format!("identical on {seeds} seeds")
                    } else {
                        format!("within bound on {seeds} seeds")
                    };
                    (worse, bound, verdict)
                }
                _ => {
                    let worse = relative_worsening(m, qa[1], qb[1]);
                    (worse, m.bound, median_verdict(m.bound, worse, qa, qb))
                }
            };
            ok &= worse <= bound;
            let fmt = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "   {:<28} {:<8} {:>36} {:>36} {:>7.2}% {:>5.1}%  {verdict}",
                m.name,
                m.unit,
                fmt(qa),
                fmt(qb),
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// How much worse `b` is than `a` as a share of `a` (negative when
/// better; 0 when `a` is 0).
fn relative_worsening(m: &Def, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else if m.better == "lower" {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

/// The verdict on two sets' medians.
fn median_verdict(bound: f64, worse: f64, qa: [f64; 3], qb: [f64; 3]) -> String {
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    if worse > bound {
        "REGRESSED"
    } else if -worse > bound {
        "improved"
    } else if spread(qa).max(spread(qb)) > bound {
        "unresolved (spread > bound)"
    } else {
        "within bound"
    }
    .to_string()
}

/// The largest worsening of `m` between runs of the same seed, the number
/// of such pairs, and whether every pair was identical; `None` when the
/// sets share no seed.
fn per_seed_worse(m: &Def, a: &[Run], b: &[Run]) -> Option<(f64, usize, bool)> {
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|ra| {
            let rb = b.iter().find(|rb| rb.seed == ra.seed)?;
            Some((*ra.metrics.get(m.name)?, *rb.metrics.get(m.name)?))
        })
        .collect();
    let worst = pairs
        .iter()
        .map(|&(va, vb)| relative_worsening(m, va, vb))
        .reduce(f64::max)?;
    let identical = pairs.iter().all(|(va, vb)| va == vb);
    Some((worst, pairs.len(), identical))
}

/// Reads a saved run: the workload and seed from its header line, the
/// result from its last line.
fn load_run(path: &str) -> Result<(&'static str, Run), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let header: BTreeMap<&str, &str> = text
        .lines()
        .next()
        .filter(|l| l.starts_with("e2e_bench "))
        .ok_or(format!("{path}: no `e2e_bench workload=...` header line"))?
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .collect();
    let workload = header
        .get("workload")
        .and_then(|w| Kind::parse(w))
        .ok_or(format!("{path}: header names no known workload"))?
        .name();
    let seed = header
        .get("seed")
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{path}: header names no seed"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{path}: empty file"))?;
    let doc = json::parse(last).map_err(|e| format!("{path}: last line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::members)
        .ok_or(format!("{path}: no metrics object"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
    Ok((
        workload,
        Run {
            seed,
            correct,
            metrics,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, cycles: f64) -> Run {
        Run {
            seed,
            correct: true,
            metrics: [("sim.cycles_per_inference".to_string(), cycles)].into(),
        }
    }

    #[test]
    fn sim_metrics_are_judged_per_seed() {
        let m = END_TO_END
            .iter()
            .find(|d| d.name == "sim.cycles_per_inference")
            .unwrap();
        let a = [run(1, 100.0), run(2, 200.0)];
        // Seed 2's value stays, seed 1's rises 2%; seed 3 has no partner.
        let b = [run(2, 200.0), run(1, 102.0), run(3, 50.0)];
        let (worst, seeds, identical) = per_seed_worse(m, &a, &b).unwrap();
        assert!((worst - 0.02).abs() < 1e-12, "{worst}");
        assert_eq!((seeds, identical), (2, false));
        assert!(worst > m.per_seed.unwrap());
        assert_eq!(per_seed_worse(m, &a, &[run(3, 50.0)]), None);
        assert_eq!(per_seed_worse(m, &a, &a), Some((0.0, 2, true)));
    }
}
