//! The checkpointed, parallel, statistical fault-injection campaign
//! engine — the scale-up layer over [`crate::fault`].
//!
//! Three mechanisms, composable and individually testable:
//!
//! 1. **Checkpointed replay** ([`Campaign::golden_checkpointed`],
//!    [`Campaign::inject_from`]): the golden run records
//!    [`SystemSnapshot`]s at a configurable cadence; each injection
//!    resumes from the last checkpoint at or before `fault.cycle`
//!    instead of re-simulating the warm-up prefix. Because the simulator
//!    is deterministic and snapshots capture complete state (device RNG
//!    included), a resumed run is bit-identical to a from-zero replay —
//!    enforced by construction: both paths share one post-injection
//!    step (`Campaign::finish_with_fault`).
//! 2. **Deterministic parallelism** ([`Campaign::run_stratified`]):
//!    injections fan out over the scoped
//!    worker threads of [`neuropulsim_linalg::parallel`], split by fault
//!    index with per-index seeds from [`split_seed`], so campaign
//!    outcomes are a pure function of the seed — never of
//!    `NEUROPULSIM_THREADS`.
//! 3. **Statistics** ([`wilson_interval`], stratified sampling, early
//!    stop): faults are drawn round-robin over named [`Stratum`] groups
//!    of hardware structures, outcome rates carry Wilson 95% confidence
//!    intervals, and a campaign can stop early once the vulnerability
//!    interval is narrower than a target width.
//!
//! The result is a [`CampaignReport`] with per-stratum breakdowns and a
//! hand-rolled JSON serialization for downstream tooling (see
//! `fault_bench` in the bench crate).

use crate::checkpoint::SystemSnapshot;
use crate::escape_json;
use crate::fault::{
    Campaign, CampaignStats, Fault, FaultKind, FaultOutcome, FaultTarget, DEFAULT_PERMANENT_PERIOD,
};
use crate::system::RunOutcome;
use neuropulsim_linalg::parallel::{available_threads, par_map_indexed, split_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The golden (fault-free) execution with its checkpoint trail.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Result signature of the fault-free run (SDC reference).
    pub signature: Vec<u32>,
    /// Cycle count of the fault-free run.
    pub cycles: u64,
    /// Requested checkpoint cadence \[cycles\].
    pub cadence: u64,
    checkpoints: Vec<SystemSnapshot>,
}

impl GoldenRun {
    /// Number of checkpoints recorded (including the cycle-0 one).
    pub(crate) fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Approximate total heap footprint of the checkpoint trail \[bytes\].
    pub fn checkpoint_bytes(&self) -> usize {
        self.checkpoints.iter().map(|c| c.approx_bytes()).sum()
    }

    /// The last checkpoint at or before `cycle` (the cycle-0 snapshot
    /// guarantees one always exists).
    fn checkpoint_before(&self, cycle: u64) -> &SystemSnapshot {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.cycle <= cycle)
            .expect("cycle-0 checkpoint always present")
    }
}

/// One injection's classified outcome plus its replay accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Classified outcome.
    pub outcome: FaultOutcome,
    /// Cycles actually simulated for this injection.
    pub cycles_simulated: u64,
    /// Warm-up cycles skipped by resuming from a checkpoint.
    pub cycles_saved: u64,
}

/// Knobs of a checkpointed campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Checkpoint cadence along the golden run \[cycles\].
    pub cadence: u64,
    /// Worker threads; 0 = [`available_threads`] (honours
    /// `NEUROPULSIM_THREADS`). Outcomes never depend on this.
    pub threads: usize,
    /// Injection budget for statistical campaigns.
    pub injections: usize,
    /// Injections dispatched per parallel batch between early-stop
    /// checks.
    pub batch: usize,
    /// Stop early once the Wilson 95% interval on the vulnerability is
    /// narrower than this (`None` = always run the full budget).
    pub target_ci_width: Option<f64>,
    /// Minimum injections before early stop may trigger.
    pub min_injections: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cadence: 4096,
            threads: 0,
            injections: 500,
            batch: 64,
            target_ci_width: None,
            min_injections: 64,
        }
    }
}

/// A named group of hardware structures sampled together (per-structure
/// reporting and balanced coverage).
#[derive(Debug, Clone)]
pub struct Stratum {
    /// Human-readable name (appears in the JSON report).
    pub name: String,
    /// Fault targets in this stratum.
    pub targets: Vec<FaultTarget>,
}

impl Stratum {
    /// Convenience constructor.
    pub fn new(name: &str, targets: Vec<FaultTarget>) -> Self {
        Stratum {
            name: name.to_string(),
            targets,
        }
    }
}

/// Deterministically draws fault `index` of a stratified campaign:
/// strata are visited round-robin (`index % strata.len()`) and all
/// random choices come from an RNG seeded with
/// [`split_seed`]`(seed, index)`, so the fault list is a pure function
/// of `(seed, index)` — independent of thread count and batch size.
///
/// # Panics
///
/// Panics if `strata` is empty or any stratum has no targets.
pub fn stratified_fault(
    seed: u64,
    index: usize,
    kind: FaultKind,
    max_cycle: u64,
    strata: &[Stratum],
) -> (usize, Fault) {
    assert!(!strata.is_empty(), "need at least one stratum");
    let stratum = index % strata.len();
    let targets = &strata[stratum].targets;
    assert!(
        !targets.is_empty(),
        "stratum {:?} has no targets",
        strata[stratum].name
    );
    let mut rng = StdRng::seed_from_u64(split_seed(seed, index as u64));
    let fault = Fault {
        target: targets[rng.gen_range(0..targets.len())],
        bit: rng.gen_range(0..32),
        cycle: rng.gen_range(0..max_cycle.max(1)),
        kind,
        period: DEFAULT_PERMANENT_PERIOD,
    };
    (stratum, fault)
}

/// Wilson score 95%-style confidence interval for `k` successes out of
/// `n` trials at critical value `z` (use `z = 1.96` for 95%). Returns
/// `(0, 1)` when `n == 0`.
pub fn wilson_interval(k: usize, n: usize, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n_f = n as f64;
    let p = k as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let spread = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    (
        ((centre - spread) / denom).max(0.0),
        ((centre + spread) / denom).min(1.0),
    )
}

/// Critical value of the 95% interval.
pub const Z_95: f64 = 1.96;

/// Full results of a stratified, checkpointed campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Workload label (appears in the JSON report).
    pub workload: String,
    /// Fault persistence model injected.
    pub kind: FaultKind,
    /// Base seed of the deterministic fault stream.
    pub seed: u64,
    /// Injection budget requested.
    pub requested_injections: usize,
    /// Injections actually performed (`< requested` iff early-stopped).
    pub injections: usize,
    /// `true` if the confidence-interval early stop triggered.
    pub early_stopped: bool,
    /// Worker threads used (informational; results never depend on it).
    pub threads: usize,
    /// Checkpoint cadence \[cycles\].
    pub cadence: u64,
    /// Checkpoints recorded along the golden run.
    pub checkpoints: usize,
    /// Approximate resident size of the checkpoint trail \[bytes\].
    pub checkpoint_bytes: usize,
    /// Cycle count of the golden run.
    pub golden_cycles: u64,
    /// Total cycles simulated across all injections.
    pub cycles_simulated: u64,
    /// Total warm-up cycles skipped thanks to checkpoints.
    pub cycles_saved: u64,
    /// Aggregate outcome tallies.
    pub stats: CampaignStats,
    /// Per-stratum tallies, in stratum order.
    pub strata: Vec<(String, CampaignStats)>,
}

impl CampaignReport {
    /// Fraction of replay work skipped:
    /// `saved / (saved + simulated)`.
    pub fn savings_ratio(&self) -> f64 {
        let total = self.cycles_saved + self.cycles_simulated;
        if total == 0 {
            0.0
        } else {
            self.cycles_saved as f64 / total as f64
        }
    }

    /// Wilson 95% interval on the vulnerability (the fraction of
    /// injections with an architecturally visible failure — everything
    /// except masked and detected-recovered outcomes).
    pub fn vulnerability_ci(&self) -> (f64, f64) {
        let n = self.stats.total();
        wilson_interval(
            n - self.stats.masked - self.stats.detected_recovered,
            n,
            Z_95,
        )
    }

    /// Serializes the report as a JSON object (hand-rolled; the
    /// workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let n = self.stats.total();
        let rate = |k: usize| -> String {
            let (lo, hi) = wilson_interval(k, n, Z_95);
            let p = if n == 0 { 0.0 } else { k as f64 / n as f64 };
            format!("{{\"rate\": {p:.6}, \"ci95\": [{lo:.6}, {hi:.6}]}}")
        };
        let strata: Vec<String> = self
            .strata
            .iter()
            .map(|(name, s)| {
                format!(
                    "{{\"name\": \"{}\", \"injections\": {}, \"masked\": {}, \"sdc\": {}, \
                     \"crashes\": {}, \"hangs\": {}, \"detected_recovered\": {}, \
                     \"detected_uncorrected\": {}, \"vulnerability\": {:.6}}}",
                    escape_json(name),
                    s.total(),
                    s.masked,
                    s.sdc,
                    s.crashes,
                    s.hangs,
                    s.detected_recovered,
                    s.detected_uncorrected,
                    s.vulnerability()
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"fault_kind\": \"{kind}\",\n  \
             \"seed\": {seed},\n  \"requested_injections\": {req},\n  \
             \"injections\": {inj},\n  \"early_stopped\": {early},\n  \
             \"threads\": {threads},\n  \"checkpoint_cadence\": {cadence},\n  \
             \"checkpoints\": {cps},\n  \"checkpoint_bytes\": {cpb},\n  \
             \"golden_cycles\": {gc},\n  \"cycles_simulated\": {sim},\n  \
             \"cycles_saved\": {saved},\n  \"replay_savings\": {ratio:.6},\n  \
             \"outcomes\": {{\"masked\": {m}, \"sdc\": {s}, \"crashes\": {c}, \"hangs\": {h}, \
             \"detected_recovered\": {dr}, \"detected_uncorrected\": {du}}},\n  \
             \"rates\": {{\"masked\": {rm}, \"sdc\": {rs}, \"crash\": {rc}, \"hang\": {rh}, \
             \"detected_recovered\": {rdr}, \"detected_uncorrected\": {rdu}, \
             \"vulnerability\": {rv}}},\n  \"strata\": [{strata}]\n}}",
            workload = escape_json(&self.workload),
            kind = match self.kind {
                FaultKind::Transient => "transient",
                FaultKind::Permanent => "permanent",
            },
            seed = self.seed,
            req = self.requested_injections,
            inj = self.injections,
            early = self.early_stopped,
            threads = self.threads,
            cadence = self.cadence,
            cps = self.checkpoints,
            cpb = self.checkpoint_bytes,
            gc = self.golden_cycles,
            sim = self.cycles_simulated,
            saved = self.cycles_saved,
            ratio = self.savings_ratio(),
            m = self.stats.masked,
            s = self.stats.sdc,
            c = self.stats.crashes,
            h = self.stats.hangs,
            dr = self.stats.detected_recovered,
            du = self.stats.detected_uncorrected,
            rm = rate(self.stats.masked),
            rs = rate(self.stats.sdc),
            rc = rate(self.stats.crashes),
            rh = rate(self.stats.hangs),
            rdr = rate(self.stats.detected_recovered),
            rdu = rate(self.stats.detected_uncorrected),
            rv = rate(n - self.stats.masked - self.stats.detected_recovered),
            strata = strata.join(", "),
        )
    }
}

impl Campaign<'_> {
    /// Runs the golden execution, snapshotting the full system every
    /// `cadence` cycles (plus one snapshot at cycle 0), and returns the
    /// checkpoint trail together with the result signature.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt cleanly within the cycle
    /// budget — the workload must be correct before faults are injected.
    pub fn golden_checkpointed(&self, cadence: u64) -> GoldenRun {
        let cadence = cadence.max(1);
        let mut sys = (self.setup)();
        let mut checkpoints = vec![sys.snapshot()];
        let mut outcome = RunOutcome::TimedOut;
        while sys.cpu.cycles < self.max_cycles {
            let chunk = cadence.min(self.max_cycles - sys.cpu.cycles);
            match sys.run(chunk).outcome {
                RunOutcome::TimedOut => checkpoints.push(sys.snapshot()),
                other => {
                    outcome = other;
                    break;
                }
            }
        }
        assert!(
            matches!(outcome, RunOutcome::Halted(_)),
            "golden run must halt, got {outcome:?}"
        );
        if let Some(guard) = &self.guard {
            let rec = guard(&sys);
            assert!(
                !rec.detected(),
                "golden run must be guard-clean, got {rec:?}"
            );
        }
        GoldenRun {
            signature: (self.readout)(&sys),
            cycles: sys.cpu.cycles,
            cadence,
            checkpoints,
        }
    }

    /// Injects one fault, resuming from the last golden checkpoint at or
    /// before the injection cycle. Bit-identical in outcome to
    /// [`Campaign::inject`] from cycle 0: the simulator is deterministic,
    /// snapshots capture complete state, and both paths run the same
    /// post-injection step (`Campaign::finish_with_fault`) once the
    /// injection point is reached.
    pub fn inject_from(&self, golden: &GoldenRun, fault: Fault) -> Injection {
        let target = fault.cycle.min(self.max_cycles);
        let cp = golden.checkpoint_before(target);
        let mut sys = cp.to_system();
        let pre = target - cp.cycle;
        let outcome = match sys.run_cycles_bounded(pre, pre) {
            // Finished before the fault hit: it can only be masked.
            Some(outcome) => self.classify(&sys, outcome, &golden.signature),
            None => self.finish_with_fault(&mut sys, fault, &golden.signature),
        };
        Injection {
            outcome,
            cycles_simulated: sys.cpu.cycles - cp.cycle,
            cycles_saved: cp.cycle,
        }
    }

    /// Runs a statistical campaign: faults are drawn by
    /// [`stratified_fault`] over the golden run's live cycle window,
    /// dispatched in parallel batches, with an optional early stop once
    /// the Wilson interval on the vulnerability is narrower than
    /// `cfg.target_ci_width`. Deterministic for a given
    /// `(seed, cfg.injections, cfg.batch)` regardless of thread count.
    pub fn run_stratified(
        &self,
        workload: &str,
        seed: u64,
        kind: FaultKind,
        strata: &[Stratum],
        cfg: &CampaignConfig,
    ) -> CampaignReport {
        let golden = self.golden_checkpointed(cfg.cadence);
        let threads = if cfg.threads == 0 {
            available_threads()
        } else {
            cfg.threads
        };
        let mut stats = CampaignStats::default();
        let mut per_stratum = vec![CampaignStats::default(); strata.len()];
        let mut cycles_simulated = 0u64;
        let mut cycles_saved = 0u64;
        let mut done = 0usize;
        let mut early_stopped = false;
        while done < cfg.injections {
            let batch = cfg.batch.max(1).min(cfg.injections - done);
            let results = par_map_indexed(batch, threads, |i| {
                let (stratum, fault) =
                    stratified_fault(seed, done + i, kind, golden.cycles, strata);
                (stratum, self.inject_from(&golden, fault))
            });
            for (stratum, inj) in results {
                stats.record(inj.outcome);
                per_stratum[stratum].record(inj.outcome);
                cycles_simulated += inj.cycles_simulated;
                cycles_saved += inj.cycles_saved;
            }
            done += batch;
            if let Some(width) = cfg.target_ci_width {
                if done >= cfg.min_injections {
                    let benign = stats.masked + stats.detected_recovered;
                    let (lo, hi) = wilson_interval(stats.total() - benign, stats.total(), Z_95);
                    if hi - lo <= width {
                        early_stopped = true;
                        break;
                    }
                }
            }
        }
        CampaignReport {
            workload: workload.to_string(),
            kind,
            seed,
            requested_injections: cfg.injections,
            injections: done,
            early_stopped,
            threads,
            cadence: golden.cadence,
            checkpoints: golden.checkpoint_count(),
            checkpoint_bytes: golden.checkpoint_bytes(),
            golden_cycles: golden.cycles,
            cycles_simulated,
            cycles_saved,
            stats,
            strata: strata
                .iter()
                .zip(per_stratum)
                .map(|(s, st)| (s.name.clone(), st))
                .collect(),
        }
    }
}

/// Side-by-side results of an unguarded baseline campaign and its
/// ABFT-guarded counterpart over the same fault model — the measured
/// half of the runtime-fault-tolerance story (detection coverage,
/// recovery rate, and the cycle overhead paid for them).
#[derive(Debug, Clone)]
pub struct GuardComparison {
    /// The unguarded campaign report.
    pub baseline: CampaignReport,
    /// The guarded campaign report (same fault strata, guarded firmware).
    pub guarded: CampaignReport,
}

impl GuardComparison {
    /// Guarded detections (recovered + uncorrected) out of all
    /// would-be-silent corruptions (detections + surviving SDC), with a
    /// Wilson 95% interval. Returns rate 0 on an empty denominator.
    pub fn detection_coverage(&self) -> (f64, (f64, f64)) {
        let s = &self.guarded.stats;
        let detected = s.detected_recovered + s.detected_uncorrected;
        let denom = detected + s.sdc;
        let rate = if denom == 0 {
            0.0
        } else {
            detected as f64 / denom as f64
        };
        (rate, wilson_interval(detected, denom, Z_95))
    }

    /// Fraction of detected faults that were fully recovered, with a
    /// Wilson 95% interval. Returns rate 0 on an empty denominator.
    pub(crate) fn recovery_rate(&self) -> (f64, (f64, f64)) {
        let s = &self.guarded.stats;
        let detected = s.detected_recovered + s.detected_uncorrected;
        let rate = if detected == 0 {
            0.0
        } else {
            s.detected_recovered as f64 / detected as f64
        };
        (rate, wilson_interval(s.detected_recovered, detected, Z_95))
    }

    /// Fault-free cycle cost of the guard protocol: guarded golden
    /// cycles over baseline golden cycles.
    pub fn cycle_overhead(&self) -> f64 {
        if self.baseline.golden_cycles == 0 {
            0.0
        } else {
            self.guarded.golden_cycles as f64 / self.baseline.golden_cycles as f64
        }
    }

    /// Guarded detections relative to the baseline SDC count — how much
    /// of the silent-corruption population the guard reclassified into
    /// detected outcomes. Can exceed 1 (the guard also catches faults
    /// the baseline masked or hung on).
    pub fn reclassified_ratio(&self) -> f64 {
        let s = &self.guarded.stats;
        let detected = s.detected_recovered + s.detected_uncorrected;
        if self.baseline.stats.sdc == 0 {
            0.0
        } else {
            detected as f64 / self.baseline.stats.sdc as f64
        }
    }

    /// Silent-corruption rates `(baseline, guarded)`.
    pub fn sdc_rates(&self) -> (f64, f64) {
        let rate = |r: &CampaignReport| {
            let n = r.stats.total();
            if n == 0 {
                0.0
            } else {
                r.stats.sdc as f64 / n as f64
            }
        };
        (rate(&self.baseline), rate(&self.guarded))
    }

    /// Serializes the comparison as one JSON object embedding both full
    /// campaign reports (hand-rolled; no serialization dependency).
    pub fn to_json(&self) -> String {
        let (cov, (cov_lo, cov_hi)) = self.detection_coverage();
        let (rec, (rec_lo, rec_hi)) = self.recovery_rate();
        let (sdc_base, sdc_guard) = self.sdc_rates();
        format!(
            "{{\n  \"detection_coverage\": {{\"rate\": {cov:.6}, \
             \"ci95\": [{cov_lo:.6}, {cov_hi:.6}]}},\n  \
             \"recovery_rate\": {{\"rate\": {rec:.6}, \
             \"ci95\": [{rec_lo:.6}, {rec_hi:.6}]}},\n  \
             \"cycle_overhead\": {overhead:.6},\n  \
             \"reclassified_ratio\": {reclass:.6},\n  \
             \"sdc_rate_baseline\": {sdc_base:.6},\n  \
             \"sdc_rate_guarded\": {sdc_guard:.6},\n  \
             \"baseline\": {base},\n  \"guarded\": {guard}\n}}",
            overhead = self.cycle_overhead(),
            reclass = self.reclassified_ratio(),
            base = self.baseline.to_json(),
            guard = self.guarded.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::{software_mvm, DramLayout};
    use crate::system::System;
    use neuropulsim_linalg::RMatrix;

    fn workload() -> Campaign<'static> {
        let layout = DramLayout::default();
        let n = 3;
        Campaign::new(
            move || {
                let mut sys = System::new();
                let w = RMatrix::identity(n);
                let flat: Vec<f64> = w.as_slice().to_vec();
                sys.write_fixed_vector(layout.w_addr, &flat);
                sys.write_fixed_vector(layout.x_addr, &[1.0, 2.0, 3.0]);
                sys.load_firmware_source(&software_mvm(n, 1, layout));
                sys
            },
            move |sys| {
                (0..n)
                    .map(|k| {
                        sys.platform
                            .dram
                            .peek(layout.y_addr + 4 * k as u32)
                            .unwrap_or(0)
                    })
                    .collect()
            },
            1_000_000,
        )
    }

    fn strata() -> Vec<Stratum> {
        let layout = DramLayout::default();
        vec![
            Stratum::new(
                "dram-weights",
                (0..9)
                    .map(|k| FaultTarget::Dram {
                        addr: layout.w_addr + 4 * k,
                    })
                    .collect(),
            ),
            Stratum::new(
                "cpu-registers",
                (1..16)
                    .map(|r| FaultTarget::Register { index: r })
                    .collect(),
            ),
            Stratum::new("dram-unused", vec![FaultTarget::Dram { addr: 0x003F_0000 }]),
        ]
    }

    #[test]
    fn checkpointed_injection_matches_sequential_exactly() {
        let c = workload();
        let golden_seq = c.golden();
        let golden = c.golden_checkpointed(50);
        assert_eq!(golden.signature, golden_seq);
        assert!(golden.checkpoint_count() > 2, "cadence 50 must checkpoint");
        let layout = DramLayout::default();
        // A grid over structures, cycles and kinds, including edge cycles.
        let mut faults = Vec::new();
        for &cycle in &[0u64, 1, 37, 120, golden.cycles - 1, golden.cycles, 999_999] {
            for bit in [0u8, 17, 31] {
                faults.push(Fault::transient(
                    FaultTarget::Dram {
                        addr: layout.x_addr,
                    },
                    bit,
                    cycle,
                ));
                faults.push(Fault::transient(
                    FaultTarget::Register { index: 6 },
                    bit,
                    cycle,
                ));
                faults.push(Fault::permanent(
                    FaultTarget::Dram {
                        addr: layout.y_addr,
                    },
                    bit,
                    cycle,
                    16,
                ));
            }
        }
        for fault in faults {
            let seq = c.inject(fault, &golden_seq);
            let ckpt = c.inject_from(&golden, fault);
            assert_eq!(ckpt.outcome, seq, "fault {fault:?}");
        }
    }

    #[test]
    fn late_faults_save_warmup_cycles() {
        let c = workload();
        let golden = c.golden_checkpointed(50);
        let late = Fault::transient(
            FaultTarget::Dram {
                addr: DramLayout::default().y_addr,
            },
            3,
            golden.cycles - 2,
        );
        let inj = c.inject_from(&golden, late);
        assert!(
            inj.cycles_saved >= 50,
            "late fault must resume from a non-zero checkpoint, saved {}",
            inj.cycles_saved
        );
        // The saved prefix plus the simulated suffix reaches the target.
        assert!(inj.cycles_saved + inj.cycles_simulated >= golden.cycles - 2);
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let c = workload();
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let cfg = CampaignConfig {
                cadence: 64,
                threads,
                injections: 24,
                batch: 8,
                ..CampaignConfig::default()
            };
            reports.push(c.run_stratified("mvm", 7, FaultKind::Transient, &strata(), &cfg));
        }
        let (a, b) = (&reports[0], &reports[1]);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.strata, b.strata);
        assert_eq!(a.cycles_simulated, b.cycles_simulated);
        assert_eq!(a.cycles_saved, b.cycles_saved);
        assert_eq!(a.injections, b.injections);
    }

    #[test]
    fn explicit_fault_list_runner_matches_sequential_run() {
        let c = workload();
        let layout = DramLayout::default();
        let faults: Vec<Fault> = (0..10)
            .map(|k| {
                Fault::transient(
                    FaultTarget::Dram {
                        addr: layout.w_addr + 4 * (k % 9),
                    },
                    (3 * k % 32) as u8,
                    10 * k as u64,
                )
            })
            .collect();
        let (seq_outcomes, seq_stats) = c.run(&faults);
        let golden = c.golden_checkpointed(100);
        let injections = par_map_indexed(faults.len(), 3, |i| c.inject_from(&golden, faults[i]));
        let mut stats = CampaignStats::default();
        for inj in &injections {
            stats.record(inj.outcome);
        }
        assert_eq!(stats, seq_stats);
        let outcomes: Vec<FaultOutcome> = injections.iter().map(|i| i.outcome).collect();
        assert_eq!(outcomes, seq_outcomes);
    }

    #[test]
    fn early_stop_halts_when_interval_is_narrow() {
        let c = workload();
        // Faults into unused memory only: everything is masked, the
        // vulnerability interval collapses quickly.
        let dead = vec![Stratum::new(
            "dram-unused",
            vec![FaultTarget::Dram { addr: 0x003F_0000 }],
        )];
        let cfg = CampaignConfig {
            cadence: 128,
            threads: 2,
            injections: 400,
            batch: 16,
            target_ci_width: Some(0.25),
            min_injections: 16,
        };
        let report = c.run_stratified("mvm", 11, FaultKind::Transient, &dead, &cfg);
        assert!(report.early_stopped, "all-masked campaign must stop early");
        assert!(report.injections < cfg.injections);
        assert_eq!(report.stats.masked, report.stats.total());
        let (lo, hi) = report.vulnerability_ci();
        assert!(hi - lo <= 0.25, "stop condition must hold: [{lo}, {hi}]");
    }

    #[test]
    fn wilson_interval_sanity() {
        // Degenerate cases.
        assert_eq!(wilson_interval(0, 0, Z_95), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 50, Z_95);
        assert_eq!(lo, 0.0);
        assert!(hi < 0.12, "0/50 upper bound is small: {hi}");
        let (lo, hi) = wilson_interval(50, 50, Z_95);
        assert!(lo > 0.88);
        assert_eq!(hi, 1.0);
        // Contains the point estimate and narrows with n.
        let (lo_s, hi_s) = wilson_interval(10, 40, Z_95);
        let (lo_l, hi_l) = wilson_interval(100, 400, Z_95);
        assert!(lo_s < 0.25 && 0.25 < hi_s);
        assert!(lo_l < 0.25 && 0.25 < hi_l);
        assert!(hi_l - lo_l < hi_s - lo_s, "more samples, tighter interval");
    }

    #[test]
    fn report_json_is_well_formed() {
        let c = workload();
        let cfg = CampaignConfig {
            cadence: 128,
            threads: 1,
            injections: 9,
            batch: 4,
            ..CampaignConfig::default()
        };
        let report = c.run_stratified("mvm-n3", 5, FaultKind::Transient, &strata(), &cfg);
        let json = report.to_json();
        for key in [
            "\"workload\": \"mvm-n3\"",
            "\"fault_kind\": \"transient\"",
            "\"checkpoint_cadence\": 128",
            "\"cycles_saved\"",
            "\"replay_savings\"",
            "\"vulnerability\"",
            "\"detected_recovered\"",
            "\"detected_uncorrected\"",
            "\"strata\"",
            "\"dram-weights\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn report_totals_match_across_strata_and_categories() {
        // Satellite: aggregate totals must equal the sum over strata,
        // and each stratum total must equal the sum of its categories.
        let c = workload();
        let cfg = CampaignConfig {
            cadence: 128,
            threads: 2,
            injections: 21,
            batch: 8,
            ..CampaignConfig::default()
        };
        let report = c.run_stratified("mvm-n3", 13, FaultKind::Transient, &strata(), &cfg);
        let sum_of_strata: usize = report.strata.iter().map(|(_, s)| s.total()).sum();
        assert_eq!(report.stats.total(), sum_of_strata);
        assert_eq!(report.stats.total(), report.injections);
        for (name, s) in &report.strata {
            let by_category = s.masked
                + s.sdc
                + s.crashes
                + s.hangs
                + s.detected_recovered
                + s.detected_uncorrected;
            assert_eq!(s.total(), by_category, "stratum {name}");
        }
    }

    #[test]
    fn guard_comparison_arithmetic_and_json() {
        let c = workload();
        let cfg = CampaignConfig {
            cadence: 128,
            threads: 1,
            injections: 6,
            batch: 6,
            ..CampaignConfig::default()
        };
        let template = c.run_stratified("mvm-n3", 5, FaultKind::Transient, &strata(), &cfg);
        let mut baseline = template.clone();
        baseline.stats = CampaignStats {
            masked: 10,
            sdc: 8,
            crashes: 1,
            hangs: 1,
            ..CampaignStats::default()
        };
        baseline.golden_cycles = 1000;
        let mut guarded = template.clone();
        guarded.stats = CampaignStats {
            masked: 10,
            sdc: 2,
            crashes: 1,
            hangs: 1,
            detected_recovered: 4,
            detected_uncorrected: 2,
        };
        guarded.golden_cycles = 9000;
        let cmp = GuardComparison { baseline, guarded };
        let (cov, (lo, hi)) = cmp.detection_coverage();
        assert!((cov - 6.0 / 8.0).abs() < 1e-12);
        assert!(lo <= cov && cov <= hi);
        let (rec, _) = cmp.recovery_rate();
        assert!((rec - 4.0 / 6.0).abs() < 1e-12);
        assert!((cmp.cycle_overhead() - 9.0).abs() < 1e-12);
        assert!((cmp.reclassified_ratio() - 6.0 / 8.0).abs() < 1e-12);
        let (sb, sg) = cmp.sdc_rates();
        assert!(sb > sg, "guard must lower the SDC rate: {sb} vs {sg}");
        let json = cmp.to_json();
        for key in [
            "\"detection_coverage\"",
            "\"recovery_rate\"",
            "\"cycle_overhead\"",
            "\"reclassified_ratio\"",
            "\"sdc_rate_baseline\"",
            "\"baseline\"",
            "\"guarded\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn report_json_escapes_caller_names() {
        let report = CampaignReport {
            workload: "w\"q\\x".to_string(),
            kind: FaultKind::Transient,
            seed: 1,
            requested_injections: 0,
            injections: 0,
            early_stopped: false,
            threads: 1,
            cadence: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            golden_cycles: 0,
            cycles_simulated: 0,
            cycles_saved: 0,
            stats: CampaignStats::default(),
            strata: vec![("s\\\"t".to_string(), CampaignStats::default())],
        };
        let json = report.to_json();
        assert!(json.contains(r#""workload": "w\"q\\x","#), "{json}");
        assert!(json.contains(r#"{"name": "s\\\"t", "#), "{json}");
    }
}
