//! Chaos-campaign driver for the self-healing serving fabric: seeded
//! fault schedules (transient bricks, stalls, drift ramps, burst
//! overload) run against [`InferenceServer`], emitting an availability
//! report — goodput, time-to-readmission, SLO violations — per scenario
//! plus campaign-level acceptance flags.
//!
//! Every scenario is a fully deterministic discrete-event run, so the
//! campaign report is bit-identical at any host thread count: scenarios
//! fan out over [`neuropulsim_linalg::parallel::par_map_indexed`]
//! (order-preserving) and each run derives everything from its seed.
//! The same snapshot determinism the fault-injection campaigns rely on
//! (`sim::campaign`) applies here — a mid-run clone of a scenario's
//! server resumes bit-identically, which is what lets
//! `tests/snapshot_fuzz.rs` cut chaos-shaped runs inside recalibration
//! and probation windows.
//!
//! Scenario design notes:
//!
//! - PE 0 is kept fault-free in every fault scenario, so the acceptance
//!   bar "zero requests dropped while ≥1 PE is healthy" is checkable.
//! - Transient faults (`HardFor`/`StallFor`) clear early enough that
//!   recovery + probation complete inside the run: the campaign asserts
//!   every transiently-faulted PE is readmitted and serves jobs again.
//! - The drift ramp ages all PEs' PCM weights fast enough that canaries
//!   must trip mid-run; the acceptance flag checks recalibration landed
//!   *before* any production job failed its checksum.

use super::{
    synthetic_load, InferenceServer, LoadSpec, PeFault, PeHealth, PeSpec, Request, ServeConfig,
    ServeOutcome,
};
use crate::accel::PcmDriftModel;
use crate::escape_json;
use neuropulsim_linalg::parallel::par_map_indexed;
use neuropulsim_linalg::RMatrix;

/// What a scenario is probing — selects its acceptance checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Transient/persistent device faults: zero drops, full readmission.
    Fault,
    /// PCM drift ramp: canary recals before any checksum job failure.
    Drift,
    /// Burst overload: shedding with backoff, no hangs.
    Overload,
}

impl ScenarioKind {
    /// Stable lowercase name (report JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioKind::Fault => "fault",
            ScenarioKind::Drift => "drift",
            ScenarioKind::Overload => "overload",
        }
    }
}

/// One seeded chaos scenario: a fleet shape, a serve config and a load.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario name (report key).
    pub name: String,
    /// What the scenario probes.
    pub kind: ScenarioKind,
    /// Fleet specification (faults scheduled inside).
    pub specs: Vec<PeSpec>,
    /// Serving configuration.
    pub cfg: ServeConfig,
    /// The request load.
    pub load: Vec<Request>,
    /// Latency SLO \[cycles\] for the violation count.
    pub slo_cycles: u64,
    /// PE slots scheduled with *transient* faults (must be readmitted).
    pub transient_pes: Vec<usize>,
}

/// Sizing of the standard campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Requests per scenario.
    pub requests: usize,
    /// Campaign seed (loads and schedules derive from it).
    pub seed: u64,
    /// Fleet size per scenario.
    pub pes: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            requests: 1600,
            seed: 0xc4a05,
            pes: 4,
        }
    }
}

/// The shared chaos model (all scenarios serve the same matrix).
pub(crate) fn chaos_model() -> RMatrix {
    RMatrix::from_fn(8, 8, |i, j| {
        0.4 * ((i as f64 - j as f64) * 0.31).sin() + if i == j { 0.3 } else { 0.0 }
    })
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        watchdog: 64,
        recovery_backoff: 128,
        ..ServeConfig::default()
    }
}

fn fleet(pes: usize, faults: &[(usize, PeFault)]) -> Vec<PeSpec> {
    (0..pes)
        .map(|i| {
            let mut s = PeSpec::new(0);
            if let Some((_, f)) = faults.iter().find(|(k, _)| *k == i) {
                s.fault = *f;
            }
            s
        })
        .collect()
}

/// Builds the standard four-scenario campaign: transient bricks,
/// transient stalls, a drift ramp, and burst overload. All schedules
/// and loads derive deterministically from `spec.seed`.
pub fn standard_campaign(spec: CampaignSpec) -> Vec<ChaosScenario> {
    let models = vec![chaos_model()];
    let pes = spec.pes.max(2);
    // Arrivals span ~2 * requests cycles at mean_interarrival = 2, so
    // fault windows placed inside [span/8, span/2] always land in-run
    // and clear with enough run left for recovery + readmission.
    let span = 2 * spec.requests as u64;
    let steady = |salt: u64| {
        synthetic_load(
            &models,
            LoadSpec {
                requests: spec.requests,
                mean_interarrival: 2,
                seed: spec.seed.wrapping_add(salt),
            },
        )
    };

    // Transient bricks on two PEs (PE 0 stays fault-free).
    let brick = ChaosScenario {
        name: "brick".into(),
        kind: ScenarioKind::Fault,
        specs: fleet(
            pes,
            &[
                (
                    1,
                    PeFault::HardFor {
                        cycle: span / 8,
                        until: span / 4,
                    },
                ),
                (
                    2,
                    PeFault::HardFor {
                        cycle: span / 4,
                        until: span / 2,
                    },
                ),
            ],
        ),
        cfg: base_cfg(),
        load: steady(1),
        slo_cycles: 4096,
        transient_pes: vec![1, 2],
    };

    // Transient stalls: jobs die by watchdog until the window clears.
    let stall = ChaosScenario {
        name: "stall".into(),
        kind: ScenarioKind::Fault,
        specs: fleet(
            pes,
            &[
                (
                    1,
                    PeFault::StallFor {
                        cycle: span / 8,
                        until: span / 3,
                    },
                ),
                (
                    pes - 1,
                    PeFault::StallFor {
                        cycle: span / 5,
                        until: span / 2,
                    },
                ),
            ],
        ),
        cfg: base_cfg(),
        load: steady(2),
        slo_cycles: 4096,
        transient_pes: vec![1, pes - 1],
    };

    // Drift ramp: every PE's PCM weights age fast enough that the
    // canary (at half the job tolerance) must trip mid-run.
    let drift_model = PcmDriftModel {
        nu: 0.05,
        seconds_per_cycle: 2e-3,
        initial_age_s: 1e-3,
        ..PcmDriftModel::default()
    };
    let mut drift_specs = fleet(pes, &[]);
    for s in &mut drift_specs {
        s.drift = Some(drift_model);
    }
    let drift = ChaosScenario {
        name: "drift_ramp".into(),
        kind: ScenarioKind::Drift,
        specs: drift_specs,
        cfg: ServeConfig {
            canary_period: span / 16,
            drift_margin: 0.3,
            ..base_cfg()
        },
        load: steady(3),
        slo_cycles: 4096,
        transient_pes: vec![],
    };

    // Burst overload: everything arrives at once against a bounded
    // queue — admission must shed with backoff, never hang or OOM.
    let overload = ChaosScenario {
        name: "burst_overload".into(),
        kind: ScenarioKind::Overload,
        specs: fleet(pes.min(2), &[]),
        cfg: ServeConfig {
            queue_cap: 96,
            ..base_cfg()
        },
        load: synthetic_load(
            &models,
            LoadSpec {
                requests: spec.requests,
                mean_interarrival: 0,
                seed: spec.seed.wrapping_add(4),
            },
        ),
        slo_cycles: 4096,
        transient_pes: vec![],
    };

    vec![brick, stall, drift, overload]
}

/// Per-scenario availability report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario kind.
    pub kind: ScenarioKind,
    /// Full serving outcome.
    pub outcome: ServeOutcome,
    /// `completed / offered`.
    pub availability: f64,
    /// Goodput \[requests/s\] (completed over the run's span).
    pub goodput_rps: f64,
    /// Responses whose latency exceeded the scenario SLO.
    pub slo_violations: usize,
    /// Worst completed ejection→readmission episode \[cycles\], fleetwide.
    pub max_readmission_cycles: u64,
    /// Every scheduled transient PE ended the run readmitted, healthy
    /// and serving (vacuously true without transient faults).
    pub transients_readmitted: bool,
}

impl ScenarioReport {
    /// Renders the scenario report as a stable JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"kind\": \"{}\", \"availability\": {:.4}, \
             \"goodput_rps\": {:.3}, \"slo_violations\": {}, \
             \"max_readmission_cycles\": {}, \"transients_readmitted\": {}, \
             \"report\": {}}}",
            escape_json(&self.name),
            self.kind.as_str(),
            self.availability,
            self.goodput_rps,
            self.slo_violations,
            self.max_readmission_cycles,
            self.transients_readmitted,
            self.outcome.report.to_json(),
        )
    }
}

/// The campaign report: per-scenario availability plus the acceptance
/// flags CI gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-scenario reports, in campaign order.
    pub scenarios: Vec<ScenarioReport>,
    /// No fault/drift scenario dropped a request (PE 0 stays healthy
    /// throughout, so the fleet always had capacity).
    pub zero_drops_while_healthy: bool,
    /// Every transiently-faulted PE was readmitted and served again.
    pub all_transients_readmitted: bool,
    /// The drift scenario recalibrated via canaries with zero
    /// production checksum failures — recovery pre-empted failure.
    pub drift_recal_before_failure: bool,
    /// The overload scenario shed (bounded queue did its job) while
    /// still completing admitted work.
    pub overload_shed_and_served: bool,
}

impl CampaignReport {
    /// True when every acceptance flag holds.
    pub fn accepted(&self) -> bool {
        self.zero_drops_while_healthy
            && self.all_transients_readmitted
            && self.drift_recal_before_failure
            && self.overload_shed_and_served
    }

    /// Lowest availability across fault/drift scenarios.
    pub fn min_fault_availability(&self) -> f64 {
        self.scenarios
            .iter()
            .filter(|s| s.kind != ScenarioKind::Overload)
            .map(|s| s.availability)
            .fold(1.0, f64::min)
    }

    /// Renders the campaign report as a stable JSON object.
    pub fn to_json(&self) -> String {
        let scenarios: Vec<String> = self.scenarios.iter().map(ScenarioReport::to_json).collect();
        format!(
            "{{\"zero_drops_while_healthy\": {}, \"all_transients_readmitted\": {}, \
             \"drift_recal_before_failure\": {}, \"overload_shed_and_served\": {}, \
             \"accepted\": {}, \"min_fault_availability\": {:.4}, \
             \"scenarios\": [{}]}}",
            self.zero_drops_while_healthy,
            self.all_transients_readmitted,
            self.drift_recal_before_failure,
            self.overload_shed_and_served,
            self.accepted(),
            self.min_fault_availability(),
            scenarios.join(", "),
        )
    }
}

/// Runs one scenario to completion.
pub fn run_scenario(sc: &ChaosScenario) -> ScenarioReport {
    let models = vec![chaos_model()];
    let mut srv = InferenceServer::new(models, &sc.specs, sc.cfg);
    let outcome = srv.run(&sc.load);
    let offered = sc.load.len().max(1);
    let r = &outcome.report;
    let availability = r.completed as f64 / offered as f64;
    let goodput_rps = r.requests_per_sec;
    let slo_violations = outcome
        .responses
        .iter()
        .filter(|resp| resp.latency() > sc.slo_cycles)
        .count();
    let max_readmission_cycles = r
        .per_pe
        .iter()
        .map(|p| p.out_of_fleet_cycles)
        .max()
        .unwrap_or(0);
    let transients_readmitted = sc.transient_pes.iter().all(|&i| {
        let p = &r.per_pe[i];
        p.readmissions >= 1 && p.final_health == PeHealth::Healthy && p.jobs_since_readmission > 0
    });
    ScenarioReport {
        name: sc.name.clone(),
        kind: sc.kind,
        outcome,
        availability,
        goodput_rps,
        slo_violations,
        max_readmission_cycles,
        transients_readmitted,
    }
}

/// Runs a campaign with an explicit worker count (order-preserving, so
/// the report is bit-identical for any `threads`).
pub fn run_campaign_threads(scenarios: &[ChaosScenario], threads: usize) -> CampaignReport {
    let reports = par_map_indexed(scenarios.len(), threads, |i| run_scenario(&scenarios[i]));
    let zero_drops_while_healthy = reports
        .iter()
        .filter(|s| s.kind != ScenarioKind::Overload)
        .all(|s| s.outcome.report.dropped == 0);
    let all_transients_readmitted = reports.iter().all(|s| s.transients_readmitted);
    let drift_recal_before_failure = reports
        .iter()
        .filter(|s| s.kind == ScenarioKind::Drift)
        .all(|s| {
            let r = &s.outcome.report;
            let recals: u32 = r.per_pe.iter().map(|p| p.canary_recals).sum();
            recals > 0 && r.failures.checksum == 0
        });
    let overload_shed_and_served = reports
        .iter()
        .filter(|s| s.kind == ScenarioKind::Overload)
        .all(|s| {
            let r = &s.outcome.report;
            r.drops.shed > 0 && r.completed > 0 && r.dropped == r.drops.shed
        });
    CampaignReport {
        scenarios: reports,
        zero_drops_while_healthy,
        all_transients_readmitted,
        drift_recal_before_failure,
        overload_shed_and_served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            requests: 700,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn standard_campaign_meets_acceptance() {
        let report = run_campaign_threads(&standard_campaign(small_spec()), 2);
        assert!(
            report.zero_drops_while_healthy,
            "dropped under healthy capacity: {:?}",
            report
                .scenarios
                .iter()
                .map(|s| (s.name.clone(), s.outcome.report.dropped))
                .collect::<Vec<_>>()
        );
        assert!(
            report.all_transients_readmitted,
            "a transient PE was not readmitted"
        );
        assert!(
            report.drift_recal_before_failure,
            "drift canaries must pre-empt job failures"
        );
        assert!(report.overload_shed_and_served);
        assert!(report.accepted());
        assert!(report.min_fault_availability() >= 1.0);
    }

    #[test]
    fn campaign_report_is_thread_count_invariant() {
        let scenarios = standard_campaign(small_spec());
        let one = run_campaign_threads(&scenarios, 1);
        let four = run_campaign_threads(&scenarios, 4);
        assert_eq!(one, four, "campaign must not depend on worker count");
        assert_eq!(one.to_json(), four.to_json());
    }

    #[test]
    fn readmission_times_are_reported() {
        let report = run_campaign_threads(&standard_campaign(small_spec()), 1);
        let brick = &report.scenarios[0];
        assert!(
            brick.max_readmission_cycles > 0,
            "time-to-readmission must be visible in the report"
        );
    }

    #[test]
    fn scenario_json_escapes_the_name() {
        let mut sc = standard_campaign(CampaignSpec {
            requests: 40,
            ..CampaignSpec::default()
        })
        .remove(0);
        sc.name = "a\"b\\c".to_string();
        let json = run_scenario(&sc).to_json();
        assert!(json.starts_with(r#"{"name": "a\"b\\c", "#), "{json}");
    }
}
