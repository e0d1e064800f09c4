//! The multi-accelerator fabric and its async inference service — the
//! production serving story over the paper's Fig. 3 PE cluster.
//!
//! The paper's platform is not one accelerator but a *cluster* of
//! Compute Units behind a Communications Interface, and §4 names TDM and
//! dense-WDM batching as the route from MVM to GeMM-class throughput.
//! This module builds that story host-side:
//!
//! ```text
//!   requests ──► admission control ──► wavelength batcher ──► shard router
//!                                                                │
//!          response join ◄── readback + ABFT verify ◄── PE fleet ┘
//! ```
//!
//! - **Fleet** ([`PeSpec`]): N [`AccelDevice`] instances, heterogeneous
//!   in mesh size (each PE hosts one model's weight matrix), WDM channel
//!   count, setup latency and fault state, addressed exactly as the bus
//!   maps them (`ACCEL_BASE + PE_STRIDE * slot`) with per-PE operand
//!   windows carved out of the shared scratchpad.
//! - **Admission control**: a bounded request queue
//!   ([`ServeConfig::queue_cap`]) with per-model-class load shedding and
//!   exponential-backoff readmission of shed classes, plus optional
//!   deadline-aware drops ([`ServeConfig::deadline`]) — sustained
//!   overload degrades latency predictably instead of growing the queue
//!   without bound.
//! - **Batcher**: groups same-model requests into one job descriptor of
//!   up to `wdm_channels` vectors; a partial batch flushes after
//!   [`BATCH_WINDOW`] cycles so tail latency stays bounded
//!   under light load.
//! - **Router**: jobs go to the lowest-numbered idle in-fleet PE hosting
//!   the model; requests carry a failed-on affinity mask so a retried
//!   request avoids the PE that just corrupted it.
//! - **Join**: completed jobs are read back from the PE's SPM window and
//!   verified *per vector* against the model's ABFT column-checksum row
//!   (the same `c = 1ᵀW` identity the guarded firmware uses): good
//!   vectors join even when a sibling in the batch fails, so a poison
//!   payload can only ever take itself down.
//!
//! # Self-healing health lifecycle
//!
//! Unlike a one-way ejection fleet, every PE runs a health state machine
//! (see DESIGN.md §8) that closes the loop on the platform's dominant
//! *recoverable* failure modes — PCM retention drift, transient upsets
//! and stalls:
//!
//! ```text
//!   Healthy ⇄ Suspect ──► Ejected ──► Recovering ──► Probation ──► Healthy
//!      │                     ▲  │                        │
//!      ▼                     │  └──────► Dead ◄──────────┘
//!   Recalibrating ───────────┘    (sticky HW_FAULT / attempts exhausted)
//! ```
//!
//! - **Drift-aware health**: with [`ServeConfig::canary_period`] set,
//!   idle PEs periodically run a *canary MVM* — a known input whose ABFT
//!   checksum is precomputed — at a tightened tolerance
//!   ([`ServeConfig::drift_margin`] × the job tolerance). A canary miss
//!   means [`crate::accel::PcmDriftModel`] aging is approaching the job
//!   threshold: the PE drains gracefully and issues a CTRL recalibration
//!   *before* any production job can fail its checksum.
//! - **Recovery & readmission**: an ejected PE waits out an
//!   exponentially backed-off [`ServeConfig::recovery_backoff`], then
//!   runs a deterministic reset-and-recalibrate sequence (hard-fault
//!   reset, then one CTRL write that clears the error latch and
//!   recalibrates), followed by half-open *probation*: watchdog-armed
//!   canary jobs only, no production traffic. [`PROBATION_CANARIES`]
//!   consecutive passes readmit the PE; any failure re-ejects it. After
//!   [`RECOVERY_ATTEMPTS`] failed rounds the PE is `Dead` and never
//!   scheduled again. A *persistent* fault condition re-asserts itself
//!   against the reset (the sticky `HW_FAULT` latch comes straight
//!   back), so permanent bricks end up `Dead` while transient ones are
//!   readmitted.
//!
//! The engine is a deterministic discrete-event simulation: device time
//! advances by exact event jumps, every data structure iterates in fixed
//! order, and no wall-clock or thread identity enters the trajectory —
//! the same load yields a bit-identical [`ServeReport`] at any host
//! thread count. The run loop is resumable ([`InferenceServer::begin`] /
//! [`InferenceServer::step`] / [`InferenceServer::finish`]) and the
//! server is `Clone`, so a mid-run clone is a snapshot that resumes
//! bit-identically — the property `tests/snapshot_fuzz.rs` exercises
//! with cuts inside recalibration and probation windows.

pub mod chaos;

use crate::accel::{mmr, AccelDevice, PcmDriftModel};
use crate::fixed::{from_fixed, to_fixed};
use crate::ram::Ram;
use crate::system::{SPM_BASE, SPM_SIZE};
use neuropulsim_linalg::RMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Host clock the serving fabric is simulated at \[Hz\].
pub const SERVE_CPU_HZ: f64 = 1e9;

/// Scheduled fault injection for one fleet member. `*At` variants model
/// persistent conditions (the fault re-asserts itself against any reset,
/// so the PE ends up `Dead`); `*For` variants model transient windows
/// (the recovery sequence succeeds once the window has passed and the PE
/// is readmitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeFault {
    /// Healthy for the whole run.
    None,
    /// Permanently bricked from `cycle` on: the sticky
    /// [`crate::accel::errcode::HW_FAULT`] latch re-asserts after every
    /// reset attempt and an in-flight job aborts.
    HardAt {
        /// Cycle at which the device bricks.
        cycle: u64,
    },
    /// Transient brick: the fault condition holds in `cycle..until`;
    /// a reset-and-recalibrate attempted after `until` succeeds.
    HardFor {
        /// Cycle at which the device bricks.
        cycle: u64,
        /// First cycle at which the fault condition has cleared.
        until: u64,
    },
    /// Device stalls from `cycle` on: jobs never meet their deadline and
    /// die by watchdog abort (the slow device-loss case).
    StallAt {
        /// Cycle at which the device starts stalling.
        cycle: u64,
    },
    /// Transient stall: jobs time out in `cycle..until`, after which
    /// the device runs at its specified latency again.
    StallFor {
        /// Cycle at which the device starts stalling.
        cycle: u64,
        /// First cycle at which the stall has cleared.
        until: u64,
    },
}

/// Specification of one processing element in the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeSpec {
    /// Index into the model table this PE hosts (its programmed mesh —
    /// per-PE mesh size/topology is set by the model's matrix).
    pub model: usize,
    /// Dense-WDM channels: the job-descriptor batching cap and the
    /// per-symbol-slot vector parallelism.
    pub wdm_channels: u32,
    /// Fixed per-job setup latency \[cycles\].
    pub setup_cycles: u64,
    /// Scheduled fault, if any.
    pub fault: PeFault,
    /// PCM retention-drift model aging this PE's programmed weights
    /// (`None` = non-drifting weights).
    pub drift: Option<PcmDriftModel>,
}

impl PeSpec {
    /// A healthy 8-wavelength PE serving `model`.
    pub fn new(model: usize) -> Self {
        PeSpec {
            model,
            wdm_channels: 8,
            setup_cycles: 20,
            fault: PeFault::None,
            drift: None,
        }
    }
}

/// Consecutive job failures before a PE is ejected.
pub(crate) const RETRY_BUDGET: u32 = 3;

/// Attempts per request before it is dropped (safety valve against
/// pathological retry loops).
pub const MAX_ATTEMPTS: u32 = 32;

/// Per-element tolerance of the ABFT column-checksum row every joined
/// output is verified against \[Q16.16 units as f64\]; the job-level
/// tolerance is `n * CHECKSUM_TOLERANCE`.
pub(crate) const CHECKSUM_TOLERANCE: f64 = 0.02;

/// Max cycles a request waits for its batch to fill before a partial
/// batch is flushed.
pub const BATCH_WINDOW: u64 = 64;

/// Base backoff of a shed model class \[cycles\]; doubles per
/// consecutive shed event.
pub const SHED_BACKOFF: u64 = 128;

/// Recovery rounds (reset + recalibrate + probation) before an ejected
/// PE is declared dead.
pub const RECOVERY_ATTEMPTS: u32 = 4;

/// Consecutive canary passes required to leave probation.
pub const PROBATION_CANARIES: u32 = 2;

/// Tuning knobs of the serving front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Watchdog deadline armed on every job and canary \[cycles\]
    /// (0 disables — not recommended: a stalled device then holds its
    /// job forever).
    pub watchdog: u32,
    /// Checksum failures a single request may accumulate before it is
    /// dropped as poison (a bad payload, not bad hardware).
    pub request_retry_cap: u32,
    /// Admission-queue bound; at the cap, arriving requests of that
    /// model class are shed with exponential-backoff readmission from
    /// [`SHED_BACKOFF`] (0 = unbounded, shedding disabled).
    pub queue_cap: usize,
    /// Queued requests older than this are dropped instead of served
    /// (0 = no deadline).
    pub deadline: u64,
    /// Cycles between drift-canary MVMs on an idle in-fleet PE
    /// (0 = canaries disabled).
    pub canary_period: u64,
    /// Canary tolerance as a fraction of the job checksum tolerance:
    /// a canary "misses" (and schedules recalibration) while production
    /// jobs would still pass, which is what makes drift recovery
    /// pre-emptive.
    pub drift_margin: f64,
    /// Base wait before an ejected PE's first recovery attempt
    /// \[cycles\]; doubles per failed round.
    pub recovery_backoff: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            watchdog: 4096,
            request_retry_cap: 3,
            queue_cap: 0,
            deadline: 0,
            canary_period: 0,
            drift_margin: 0.5,
            recovery_backoff: 2048,
        }
    }
}

/// Lifecycle state of one fleet member (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeHealth {
    /// In-fleet, serving production jobs.
    Healthy,
    /// In-fleet with recent consecutive failures — still serving, one
    /// more failure streak from ejection.
    Suspect,
    /// Draining for a drift-triggered recalibration (canary missed):
    /// no new jobs; the CTRL recal is in flight or issues once idle.
    Recalibrating,
    /// Out-of-fleet, waiting out the recovery backoff.
    Ejected,
    /// Reset-and-recalibrate sequence in flight.
    Recovering,
    /// Half-open: serving watchdog-armed canary jobs only.
    Probation,
    /// Permanently out (sticky fault or recovery attempts exhausted).
    Dead,
}

impl PeHealth {
    /// Stable lowercase name (report JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            PeHealth::Healthy => "healthy",
            PeHealth::Suspect => "suspect",
            PeHealth::Recalibrating => "recalibrating",
            PeHealth::Ejected => "ejected",
            PeHealth::Recovering => "recovering",
            PeHealth::Probation => "probation",
            PeHealth::Dead => "dead",
        }
    }

    /// True for states that count as in-fleet (serving or about to
    /// resume serving without leaving the fleet).
    fn in_fleet(self) -> bool {
        matches!(
            self,
            PeHealth::Healthy | PeHealth::Suspect | PeHealth::Recalibrating
        )
    }
}

/// Why a request was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No live PE hosts the request's model.
    Unservable,
    /// Shed by admission control (queue at cap, or the model class is
    /// inside its shed-backoff window).
    Shed,
    /// Exceeded [`ServeConfig::deadline`] while queued.
    Deadline,
    /// Poison payload: failed its checksum on
    /// [`ServeConfig::request_retry_cap`] distinct attempts.
    Poison,
    /// Hit the [`MAX_ATTEMPTS`] safety valve.
    AttemptCap,
}

impl DropReason {
    /// Stable lowercase name (report JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Unservable => "unservable",
            DropReason::Shed => "shed",
            DropReason::Deadline => "deadline",
            DropReason::Poison => "poison",
            DropReason::AttemptCap => "attempt_cap",
        }
    }
}

/// Dropped-request tally by [`DropReason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropBreakdown {
    /// No live PE hosted the model.
    pub unservable: usize,
    /// Shed by admission control.
    pub shed: usize,
    /// Deadline exceeded while queued.
    pub deadline: usize,
    /// Poison payload (per-request checksum-retry cap).
    pub poison: usize,
    /// Per-request attempt safety valve.
    pub attempt_cap: usize,
}

impl DropBreakdown {
    fn record(&mut self, reason: DropReason) {
        match reason {
            DropReason::Unservable => self.unservable += 1,
            DropReason::Shed => self.shed += 1,
            DropReason::Deadline => self.deadline += 1,
            DropReason::Poison => self.poison += 1,
            DropReason::AttemptCap => self.attempt_cap += 1,
        }
    }

    /// Total drops across all reasons.
    pub fn total(&self) -> usize {
        self.unservable + self.shed + self.deadline + self.poison + self.attempt_cap
    }
}

/// Failed-job tally by failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureBreakdown {
    /// Watchdog-aborted jobs (stalls).
    pub watchdog: u64,
    /// Jobs with at least one vector failing the ABFT join checksum.
    pub checksum: u64,
    /// Jobs lost to the sticky `HW_FAULT` latch.
    pub hard_fault: u64,
    /// Jobs the device refused outright (busy/malformed/SPM range).
    pub rejected: u64,
}

impl FailureBreakdown {
    fn record_device(&mut self, bits: u32) {
        use crate::accel::errcode;
        if bits & errcode::WATCHDOG != 0 {
            self.watchdog += 1;
        } else if bits & errcode::HW_FAULT != 0 {
            self.hard_fault += 1;
        } else {
            self.rejected += 1;
        }
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned id, echoed on the response.
    pub id: u64,
    /// Model the request targets.
    pub model: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Input vector (length = the model's dimension).
    pub x: Vec<f64>,
}

/// One completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id.
    pub id: u64,
    /// The model served.
    pub model: usize,
    /// Arrival cycle of the request.
    pub arrival: u64,
    /// Completion cycle (join time).
    pub completed: u64,
    /// Times the request had to be re-dispatched after a failure.
    pub retries: u32,
    /// Output vector.
    pub y: Vec<f64>,
}

impl Response {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed - self.arrival
    }
}

/// Per-PE lifecycle counters for one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeLifecycle {
    /// Healthy→Ejected transitions.
    pub ejections: u32,
    /// Probation→Healthy readmissions.
    pub readmissions: u32,
    /// Drift-canary misses that scheduled a recalibration.
    pub canary_recals: u32,
    /// Total cycles spent out-of-fleet across completed
    /// ejection→readmission episodes (the time-to-readmission sum).
    pub out_of_fleet_cycles: u64,
    /// Clean jobs joined after the PE's most recent readmission.
    pub jobs_since_readmission: u64,
    /// Health state at the end of the run.
    pub final_health: PeHealth,
}

/// Aggregate statistics of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests completed.
    pub completed: usize,
    /// Requests dropped (all reasons; see [`ServeReport::drops`]).
    pub dropped: usize,
    /// Cycles from run start to the last join.
    pub total_cycles: u64,
    /// Median end-to-end latency \[cycles\].
    pub p50_latency_cycles: u64,
    /// 99th-percentile end-to-end latency \[cycles\].
    pub p99_latency_cycles: u64,
    /// Worst-case end-to-end latency \[cycles\].
    pub max_latency_cycles: u64,
    /// Sustained simulated throughput \[requests/s\] at [`SERVE_CPU_HZ`].
    pub requests_per_sec: f64,
    /// Jobs dispatched to devices (including failed attempts, excluding
    /// canaries).
    pub jobs_dispatched: u64,
    /// Jobs that failed (device error, watchdog, checksum mismatch).
    pub jobs_failed: u64,
    /// Request re-dispatches caused by failed jobs.
    pub retries: u64,
    /// PEs out-of-fleet (ejected, recovering, on probation or dead) at
    /// the end of the run.
    pub pes_ejected: usize,
    /// PEs permanently dead at the end of the run.
    pub pes_dead: usize,
    /// Clean jobs completed per PE (the shard-router balance picture).
    pub per_pe_jobs: Vec<u64>,
    /// Mean vectors per dispatched job (wavelength occupancy).
    pub mean_batch_fill: f64,
    /// Total fleet energy \[J\] (photonic + electro-optic + programming).
    pub fleet_energy_j: f64,
    /// Dropped-request breakdown by reason.
    pub drops: DropBreakdown,
    /// Failed-job breakdown by failure mode.
    pub failures: FailureBreakdown,
    /// Canary MVMs dispatched (drift probes + probation).
    pub canaries_run: u64,
    /// Per-PE health lifecycle counters.
    pub per_pe: Vec<PeLifecycle>,
}

impl ServeReport {
    /// Renders the report as a stable JSON object (bench payloads).
    pub fn to_json(&self) -> String {
        let per_pe_jobs: Vec<String> = self.per_pe_jobs.iter().map(|j| j.to_string()).collect();
        let per_pe: Vec<String> = self
            .per_pe
            .iter()
            .map(|p| {
                format!(
                    "{{\"ejections\": {}, \"readmissions\": {}, \"canary_recals\": {}, \
                     \"out_of_fleet_cycles\": {}, \"jobs_since_readmission\": {}, \
                     \"final_health\": \"{}\"}}",
                    p.ejections,
                    p.readmissions,
                    p.canary_recals,
                    p.out_of_fleet_cycles,
                    p.jobs_since_readmission,
                    p.final_health.as_str()
                )
            })
            .collect();
        format!(
            "{{\"completed\": {}, \"dropped\": {}, \"total_cycles\": {}, \
             \"p50_latency_cycles\": {}, \"p99_latency_cycles\": {}, \
             \"max_latency_cycles\": {}, \"requests_per_sec\": {:.3}, \
             \"jobs_dispatched\": {}, \"jobs_failed\": {}, \"retries\": {}, \
             \"pes_ejected\": {}, \"pes_dead\": {}, \"mean_batch_fill\": {:.3}, \
             \"canaries_run\": {}, \
             \"drops\": {{\"unservable\": {}, \"shed\": {}, \"deadline\": {}, \
             \"poison\": {}, \"attempt_cap\": {}}}, \
             \"failures\": {{\"watchdog\": {}, \"checksum\": {}, \
             \"hard_fault\": {}, \"rejected\": {}}}, \
             \"per_pe_jobs\": [{}], \"per_pe\": [{}]}}",
            self.completed,
            self.dropped,
            self.total_cycles,
            self.p50_latency_cycles,
            self.p99_latency_cycles,
            self.max_latency_cycles,
            self.requests_per_sec,
            self.jobs_dispatched,
            self.jobs_failed,
            self.retries,
            self.pes_ejected,
            self.pes_dead,
            self.mean_batch_fill,
            self.canaries_run,
            self.drops.unservable,
            self.drops.shed,
            self.drops.deadline,
            self.drops.poison,
            self.drops.attempt_cap,
            self.failures.watchdog,
            self.failures.checksum,
            self.failures.hard_fault,
            self.failures.rejected,
            per_pe_jobs.join(", "),
            per_pe.join(", "),
        )
    }
}

/// The result of [`InferenceServer::run`]: joined responses (sorted by
/// request id) plus the aggregate report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Completed responses, sorted by request id.
    pub responses: Vec<Response>,
    /// Ids of dropped requests, sorted.
    pub dropped_ids: Vec<u64>,
    /// Dropped requests with their reasons, sorted by id.
    pub drops: Vec<(u64, DropReason)>,
    /// Aggregate statistics.
    pub report: ServeReport,
}

/// A queued request with its retry bookkeeping.
#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    /// Dispatch attempts (any failure mode).
    attempts: u32,
    /// Checksum failures attributed to this request specifically.
    strikes: u32,
    /// Bitmask of PE slots whose join checksum this request failed on —
    /// the router avoids them on retry.
    failed_on: u64,
}

/// An in-flight job descriptor: the batched requests riding one set of
/// wavelength channels on one PE.
#[derive(Debug, Clone)]
struct Job {
    requests: Vec<Pending>,
    /// Per-request ABFT right-hand side `(1ᵀW)·x` over the quantized
    /// payload the device consumed, recorded at dispatch.
    rhs: Vec<f64>,
}

/// One fleet member and its bus identity.
#[derive(Debug, Clone)]
struct PeState {
    dev: AccelDevice,
    spec: PeSpec,
    spm_in: u32,
    spm_out: u32,
    health: PeHealth,
    consecutive_failures: u32,
    job: Option<Job>,
    /// A canary MVM is in flight (drift probe or probation).
    canary: bool,
    /// Drift canary missed: drain, then recalibrate once idle.
    wants_recal: bool,
    /// Next drift-canary due time.
    next_canary: u64,
    /// Canary passes still required to leave probation.
    probation_left: u32,
    /// When the next recovery attempt may start (while `Ejected`).
    recover_at: u64,
    /// Failed recovery rounds in the current ejection episode.
    recovery_round: u32,
    /// Cycle of the current episode's ejection.
    ejected_at: u64,
    jobs_completed: u64,
    /// Stall fault currently applied to the device.
    fault_applied: bool,
    // Lifecycle stats.
    ejections: u32,
    readmissions: u32,
    canary_recals: u32,
    out_of_fleet_cycles: u64,
    jobs_since_readmission: u64,
}

/// Resumable run-loop state: everything [`InferenceServer::step`] needs
/// between events. Owned by the server so a mid-run `Clone` of the
/// server is a complete snapshot.
#[derive(Debug, Clone)]
struct RunState {
    load: Vec<Request>,
    start: u64,
    next_arrival: usize,
    queue: VecDeque<Pending>,
    responses: Vec<Response>,
    drops: Vec<(u64, DropReason)>,
    drop_counts: DropBreakdown,
    failures: FailureBreakdown,
    jobs_dispatched: u64,
    jobs_failed: u64,
    retries: u64,
    vectors_dispatched: u64,
    canaries_run: u64,
    /// Per-model shed window end (admission control backoff).
    shed_until: Vec<u64>,
    /// Per-model consecutive shed rounds (backoff exponent).
    shed_round: Vec<u32>,
    finished: bool,
}

impl RunState {
    fn accounted(&self) -> usize {
        self.responses.len() + self.drops.len()
    }

    fn drop_req(&mut self, id: u64, reason: DropReason) {
        self.drops.push((id, reason));
        self.drop_counts.record(reason);
    }
}

/// The async serving front-end over a heterogeneous accelerator fleet.
#[derive(Debug, Clone)]
pub struct InferenceServer {
    cfg: ServeConfig,
    models: Vec<RMatrix>,
    /// Per-model ABFT plain-checksum row `c = 1ᵀ·W`.
    checksum_rows: Vec<Vec<f64>>,
    /// Per-model canary input (known, fixed-point exact).
    canary_xs: Vec<Vec<f64>>,
    /// Per-model expected canary checksum `Σ c_j·x_j`.
    canary_rhs: Vec<f64>,
    pes: Vec<PeState>,
    /// Per-model "some live PE can serve this" mask, refreshed on every
    /// fleet change. Lets admission reject unservable requests in O(1)
    /// instead of sweeping the whole queue each scheduler pass.
    servable: Vec<bool>,
    /// Set when a PE dies; the next scheduler pass refreshes `servable`
    /// and drains newly-orphaned queued requests.
    fleet_changed: bool,
    spm: Ram,
    /// Reused staging buffer: a job's quantized payloads, in SPM order.
    stage: Vec<u32>,
    now: u64,
    /// In-progress run (between [`InferenceServer::begin`] and
    /// [`InferenceServer::finish`]).
    state: Option<RunState>,
}

impl InferenceServer {
    /// Builds the fleet: one [`AccelDevice`] per spec, programmed with
    /// its model's weights, with a private operand window in the shared
    /// scratchpad.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty or has more than 64 PEs (routing
    /// affinity keeps one bit per PE slot in a `u64`), a spec names a
    /// missing model, a model matrix is not square, or the per-PE
    /// operand windows overflow the scratchpad.
    pub fn new(models: Vec<RMatrix>, specs: &[PeSpec], cfg: ServeConfig) -> Self {
        assert!(!specs.is_empty(), "serve: fleet must have at least one PE");
        assert!(
            specs.len() <= 64,
            "serve: fleet of {} PEs exceeds the 64-slot affinity mask",
            specs.len()
        );
        let checksum_rows: Vec<Vec<f64>> = models
            .iter()
            .map(|w| {
                let n = w.rows();
                assert_eq!(w.cols(), n, "serve: model matrix must be square");
                (0..n).map(|j| (0..n).map(|i| w[(i, j)]).sum()).collect()
            })
            .collect();
        // Known canary inputs, quantized exactly like request payloads
        // so the precomputed checksum matches what the device consumes.
        let canary_xs: Vec<Vec<f64>> = models
            .iter()
            .map(|w| {
                (0..w.rows())
                    .map(|j| 0.35 * (0.73 * j as f64 + 0.4).sin())
                    .collect()
            })
            .collect();
        let canary_rhs: Vec<f64> = checksum_rows
            .iter()
            .zip(&canary_xs)
            .map(|(c, x)| {
                c.iter()
                    .zip(x)
                    .map(|(&c, &x)| c * from_fixed(to_fixed(x)))
                    .sum()
            })
            .collect();
        let mut pes = Vec::with_capacity(specs.len());
        let mut cursor = SPM_BASE + 0x100;
        for (slot, spec) in specs.iter().enumerate() {
            let w = models
                .get(spec.model)
                .unwrap_or_else(|| panic!("serve: PE {slot} names missing model {}", spec.model));
            let n = w.rows();
            let mut dev = AccelDevice::new(SERVE_CPU_HZ);
            dev.load_matrix(w);
            dev.wdm_channels = spec.wdm_channels.max(1);
            dev.setup_cycles = spec.setup_cycles;
            if let Some(model) = spec.drift {
                dev.enable_drift(model);
            }
            let window = dev.wdm_channels * (n as u32) * 4;
            let (spm_in, spm_out) = (cursor, cursor + window);
            cursor += 2 * window;
            assert!(
                cursor <= SPM_BASE + SPM_SIZE as u32,
                "serve: PE operand windows overflow the scratchpad"
            );
            pes.push(PeState {
                dev,
                spec: *spec,
                spm_in,
                spm_out,
                health: PeHealth::Healthy,
                consecutive_failures: 0,
                job: None,
                canary: false,
                wants_recal: false,
                next_canary: if cfg.canary_period > 0 {
                    cfg.canary_period
                } else {
                    u64::MAX
                },
                probation_left: 0,
                recover_at: 0,
                recovery_round: 0,
                ejected_at: 0,
                jobs_completed: 0,
                fault_applied: false,
                ejections: 0,
                readmissions: 0,
                canary_recals: 0,
                out_of_fleet_cycles: 0,
                jobs_since_readmission: 0,
            });
        }
        let mut servable = vec![false; models.len()];
        for pe in &pes {
            servable[pe.spec.model] = true;
        }
        InferenceServer {
            cfg,
            models,
            checksum_rows,
            canary_xs,
            canary_rhs,
            pes,
            servable,
            fleet_changed: false,
            spm: Ram::new(SPM_BASE, SPM_SIZE),
            stage: Vec::new(),
            now: 0,
            state: None,
        }
    }

    /// Recomputes the per-model servability mask: a model is servable
    /// while any non-dead PE hosts it (ejected PEs count — their queued
    /// requests wait for readmission rather than dropping).
    fn refresh_servable(&mut self) {
        self.servable.iter_mut().for_each(|s| *s = false);
        for pe in &self.pes {
            if pe.health != PeHealth::Dead {
                self.servable[pe.spec.model] = true;
            }
        }
    }

    /// Bitmask of non-dead PE slots hosting `model` (the affinity-reset
    /// horizon for poisoned requests).
    fn live_mask(&self, model: usize) -> u64 {
        self.pes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.spec.model == model && p.health != PeHealth::Dead)
            .fold(0u64, |m, (i, _)| m | (1u64 << i))
    }

    /// Health state of PE `slot`.
    pub fn pe_health(&self, slot: usize) -> PeHealth {
        self.pes[slot].health
    }

    /// Shared access to PE `slot`'s device (inspection in tests/benches).
    pub fn pe_device(&self, slot: usize) -> &AccelDevice {
        &self.pes[slot].dev
    }

    /// Total fleet energy so far \[J\].
    pub(crate) fn fleet_energy(&self) -> f64 {
        self.pes.iter().map(|p| p.dev.energy()).sum()
    }

    /// Serves `load` to completion (every request joined or dropped) and
    /// returns the joined responses plus the aggregate report.
    pub fn run(&mut self, load: &[Request]) -> ServeOutcome {
        self.begin(load);
        self.finish()
    }

    /// Starts a resumable run over `load`. Drive it with
    /// [`InferenceServer::step`] (one event per call) and collect the
    /// outcome with [`InferenceServer::finish`]. A `Clone` taken between
    /// steps is a snapshot that resumes bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if a run is already in progress.
    pub fn begin(&mut self, load: &[Request]) {
        assert!(
            self.state.is_none(),
            "serve: begin() while a run is in progress"
        );
        let mut load: Vec<Request> = load.to_vec();
        load.sort_by_key(|r| (r.arrival, r.id));
        let models = self.models.len();
        self.state = Some(RunState {
            load,
            start: self.now,
            next_arrival: 0,
            queue: VecDeque::new(),
            responses: Vec::new(),
            drops: Vec::new(),
            drop_counts: DropBreakdown::default(),
            failures: FailureBreakdown::default(),
            jobs_dispatched: 0,
            jobs_failed: 0,
            retries: 0,
            vectors_dispatched: 0,
            canaries_run: 0,
            shed_until: vec![0; models],
            shed_round: vec![0; models],
            finished: false,
        });
    }

    /// Advances the run by one scheduler pass (one event). Returns
    /// `false` once the run has finished (or no run is in progress).
    pub fn step(&mut self) -> bool {
        let Some(mut st) = self.state.take() else {
            return false;
        };
        if !st.finished {
            self.step_inner(&mut st);
        }
        let more = !st.finished;
        self.state = Some(st);
        more
    }

    /// Runs the in-progress run to completion and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if [`InferenceServer::begin`] was never called.
    pub fn finish(&mut self) -> ServeOutcome {
        assert!(self.state.is_some(), "serve: finish() without begin()");
        while self.step() {}
        let st = self.state.take().expect("checked above");
        self.build_outcome(st)
    }

    /// One full scheduler pass: faults → admission → join → health
    /// actions → orphan drain → deadlines → route → advance.
    fn step_inner(&mut self, st: &mut RunState) {
        self.apply_faults();
        self.admit(st);
        self.join_done(st);
        self.health_actions(st);
        if self.fleet_changed {
            self.fleet_changed = false;
            self.refresh_servable();
            // Drain newly-orphaned requests and re-normalize affinity
            // masks against the shrunken live set. Gating the O(queue)
            // sweep on fleet changes keeps the steady-state pass
            // O(fleet) even with thousands queued.
            let servable = &self.servable;
            let drops = &mut st.drops;
            let counts = &mut st.drop_counts;
            st.queue.retain(|p| {
                if !servable[p.req.model] {
                    drops.push((p.req.id, DropReason::Unservable));
                    counts.record(DropReason::Unservable);
                }
                servable[p.req.model]
            });
            for m in 0..self.models.len() {
                let live = self.live_mask(m);
                for p in st.queue.iter_mut().filter(|p| p.req.model == m) {
                    if p.failed_on & live == live {
                        p.failed_on = 0;
                    }
                }
            }
        }
        if self.cfg.deadline > 0 {
            let deadline = self.cfg.deadline;
            let now = self.now;
            let drops = &mut st.drops;
            let counts = &mut st.drop_counts;
            st.queue.retain(|p| {
                let expired = now > p.req.arrival + deadline;
                if expired {
                    drops.push((p.req.id, DropReason::Deadline));
                    counts.record(DropReason::Deadline);
                }
                !expired
            });
        }
        self.route(st);
        if st.accounted() >= st.load.len() {
            st.finished = true;
            return;
        }
        self.advance(st);
    }

    /// Applies the scheduled fault condition of every PE at the current
    /// cycle. Persistent faults re-assert themselves (the recovery reset
    /// clears the latch; the condition bricks it again), transient ones
    /// hold only inside their window.
    fn apply_faults(&mut self) {
        let now = self.now;
        for pe in &mut self.pes {
            match pe.spec.fault {
                PeFault::None => {}
                PeFault::HardAt { cycle } => {
                    if now >= cycle && !pe.dev.is_hard_faulted() {
                        pe.dev.inject_hard_fault();
                    }
                }
                PeFault::HardFor { cycle, until } => {
                    if now >= cycle && now < until && !pe.dev.is_hard_faulted() {
                        pe.dev.inject_hard_fault();
                    }
                }
                PeFault::StallAt { cycle } => {
                    if now >= cycle && !pe.fault_applied {
                        pe.dev.setup_cycles = 1 << 40;
                        pe.fault_applied = true;
                    }
                }
                PeFault::StallFor { cycle, until } => {
                    if now >= cycle && now < until && !pe.fault_applied {
                        pe.dev.setup_cycles = 1 << 40;
                        pe.fault_applied = true;
                    }
                    if now >= until && pe.fault_applied {
                        pe.dev.setup_cycles = pe.spec.setup_cycles;
                        pe.fault_applied = false;
                    }
                }
            }
        }
    }

    /// Admission control: enqueue everything that has arrived, shedding
    /// at the queue cap (with per-model-class exponential backoff) and
    /// rejecting unservable models at the door.
    fn admit(&mut self, st: &mut RunState) {
        while st.next_arrival < st.load.len() && st.load[st.next_arrival].arrival <= self.now {
            let req = &st.load[st.next_arrival];
            st.next_arrival += 1;
            let m = req.model;
            if !self.servable[m] {
                st.drop_req(req.id, DropReason::Unservable);
                continue;
            }
            if self.cfg.queue_cap > 0 {
                if self.now < st.shed_until[m] {
                    st.drop_req(req.id, DropReason::Shed);
                    continue;
                }
                if st.queue.len() >= self.cfg.queue_cap {
                    // Shed this class and open its backoff window:
                    // doubles per consecutive shed event, so sustained
                    // overload converges to a predictable admit rate.
                    let round = st.shed_round[m].min(16);
                    st.shed_until[m] = self.now.saturating_add(SHED_BACKOFF << round);
                    st.shed_round[m] = st.shed_round[m].saturating_add(1);
                    st.drop_req(req.id, DropReason::Shed);
                    continue;
                }
                if st.queue.len() * 2 < self.cfg.queue_cap {
                    st.shed_round[m] = 0;
                }
            }
            st.queue.push_back(Pending {
                req: req.clone(),
                attempts: 0,
                strikes: 0,
                failed_on: 0,
            });
        }
    }

    /// Collects every device whose `done` latch is up: recal
    /// completions, canary joins, and production-job joins.
    fn join_done(&mut self, st: &mut RunState) {
        for i in 0..self.pes.len() {
            if !self.pes[i].dev.is_done() {
                continue;
            }
            match self.pes[i].health {
                PeHealth::Recovering => self.finish_recovery_recal(i),
                PeHealth::Recalibrating => self.finish_drift_recal(i),
                _ if self.pes[i].canary => self.finish_canary(i),
                _ if self.pes[i].job.is_some() => self.finish_job(i, st),
                _ => {
                    // Stray done (e.g. a job aborted after its PE left
                    // the serving states): ack defensively.
                    self.ctrl(i, 2);
                }
            }
        }
    }

    /// Drives the health state machine: recovery attempts on ejected
    /// PEs, drift recalibrations on drained PEs, canary dispatch for
    /// probation and drift probing.
    fn health_actions(&mut self, st: &mut RunState) {
        for i in 0..self.pes.len() {
            let pe = &self.pes[i];
            let idle = !pe.dev.is_busy() && pe.job.is_none() && !pe.canary;
            match pe.health {
                PeHealth::Ejected if self.now >= pe.recover_at => self.attempt_recovery(i),
                PeHealth::Healthy | PeHealth::Suspect if idle => {
                    if self.pes[i].wants_recal {
                        self.pes[i].health = PeHealth::Recalibrating;
                        if self.ctrl(i, 4 | 8) != 0 {
                            // Recal refused (e.g. the device bricked
                            // since the canary): treat as a failure.
                            self.pes[i].health = PeHealth::Healthy;
                            self.device_strike(i);
                        }
                    } else if self.cfg.canary_period > 0 && self.now >= self.pes[i].next_canary {
                        self.dispatch_canary(i, st);
                    }
                }
                PeHealth::Probation if idle => self.dispatch_canary(i, st),
                _ => {}
            }
        }
    }

    /// Routes queued work: fills idle in-fleet PEs in slot order.
    fn route(&mut self, st: &mut RunState) {
        // Least-loaded-first: a freshly readmitted PE has completed the
        // fewest jobs, so the router naturally rebalances traffic onto
        // it — which is what proves the readmission out. Slot index
        // breaks ties, keeping the order fully deterministic.
        let mut order: Vec<usize> = (0..self.pes.len()).collect();
        order.sort_by_key(|&i| (self.pes[i].jobs_completed, i));
        for i in order {
            let pe = &self.pes[i];
            if !matches!(pe.health, PeHealth::Healthy | PeHealth::Suspect)
                || pe.wants_recal
                || pe.canary
                || pe.job.is_some()
                || pe.dev.is_busy()
            {
                continue;
            }
            let arrivals_done = st.next_arrival >= st.load.len();
            let Some(job) = take_batch(
                &mut st.queue,
                pe.spec.model,
                i,
                pe.dev.wdm_channels as usize,
                self.now,
                arrivals_done,
            ) else {
                continue;
            };
            st.jobs_dispatched += 1;
            st.vectors_dispatched += job.requests.len() as u64;
            if let Err((job, bits)) = self.dispatch(i, job) {
                st.jobs_failed += 1;
                st.failures.record_device(bits);
                self.device_strike(i);
                self.requeue_device_failure(job, st);
            }
        }
    }

    /// Advances simulated time to the next event and ticks every device.
    fn advance(&mut self, st: &mut RunState) {
        let mut next: Option<u64> = None;
        let mut relax = |t: u64| next = Some(next.map_or(t, |cur: u64| cur.min(t)));
        if st.next_arrival < st.load.len() {
            relax(st.load[st.next_arrival].arrival);
        }
        for pe in &self.pes {
            if let Some(t) = pe.dev.next_event() {
                relax(t.max(self.now + 1));
            }
        }
        for (i, pe) in self.pes.iter().enumerate() {
            match pe.health {
                PeHealth::Ejected => relax(pe.recover_at.max(self.now + 1)),
                PeHealth::Healthy | PeHealth::Suspect
                    if !pe.dev.is_busy() && pe.job.is_none() && !pe.canary =>
                {
                    if self.cfg.canary_period > 0 && !pe.wants_recal {
                        relax(pe.next_canary.max(self.now + 1));
                    }
                    // Batch-window expiry on this PE's model class —
                    // mirrors `take_batch`'s eligibility exactly
                    // (model + affinity) so the wake-up is never for a
                    // batch that cannot form.
                    if let Some(oldest) = st
                        .queue
                        .iter()
                        .filter(|p| p.req.model == pe.spec.model && p.failed_on & (1u64 << i) == 0)
                        .map(|p| p.req.arrival)
                        .min()
                    {
                        relax((oldest + BATCH_WINDOW).max(self.now + 1));
                    }
                }
                _ => {}
            }
        }
        if self.cfg.deadline > 0 {
            for p in &st.queue {
                relax((p.req.arrival + self.cfg.deadline).max(self.now + 1));
            }
        }
        match next {
            Some(t) => {
                debug_assert!(t > self.now, "event loop must make progress");
                self.now = t;
                for pe in &mut self.pes {
                    pe.dev.tick(self.now);
                }
            }
            None => {
                // No event can ever fire again: everything still queued
                // is undeliverable (defensive — the orphan sweep should
                // already have drained it).
                let ids: Vec<u64> = st.queue.drain(..).map(|p| p.req.id).collect();
                for id in ids {
                    st.drop_req(id, DropReason::Unservable);
                }
                if st.accounted() >= st.load.len() {
                    st.finished = true;
                    return;
                }
                unreachable!("serve: no pending event yet requests unaccounted for");
            }
        }
    }

    /// Builds the final outcome from a finished run state.
    fn build_outcome(&self, mut st: RunState) -> ServeOutcome {
        st.responses.sort_by_key(|r| r.id);
        st.drops.sort_by_key(|&(id, _)| id);
        let dropped_ids: Vec<u64> = st.drops.iter().map(|&(id, _)| id).collect();
        let mut latencies: Vec<u64> = st.responses.iter().map(Response::latency).collect();
        latencies.sort_unstable();
        let pct = |p: usize| -> u64 {
            if latencies.is_empty() {
                0
            } else {
                latencies[(latencies.len() - 1) * p / 100]
            }
        };
        let total_cycles = self.now - st.start;
        let report = ServeReport {
            completed: st.responses.len(),
            dropped: st.drops.len(),
            total_cycles,
            p50_latency_cycles: pct(50),
            p99_latency_cycles: pct(99),
            max_latency_cycles: latencies.last().copied().unwrap_or(0),
            requests_per_sec: if total_cycles > 0 {
                st.responses.len() as f64 / (total_cycles as f64 / SERVE_CPU_HZ)
            } else {
                0.0
            },
            jobs_dispatched: st.jobs_dispatched,
            jobs_failed: st.jobs_failed,
            retries: st.retries,
            pes_ejected: self.pes.iter().filter(|p| !p.health.in_fleet()).count(),
            pes_dead: self
                .pes
                .iter()
                .filter(|p| p.health == PeHealth::Dead)
                .count(),
            per_pe_jobs: self.pes.iter().map(|p| p.jobs_completed).collect(),
            mean_batch_fill: if st.jobs_dispatched > 0 {
                st.vectors_dispatched as f64 / st.jobs_dispatched as f64
            } else {
                0.0
            },
            fleet_energy_j: self.fleet_energy(),
            drops: st.drop_counts,
            failures: st.failures,
            canaries_run: st.canaries_run,
            per_pe: self
                .pes
                .iter()
                .map(|p| PeLifecycle {
                    ejections: p.ejections,
                    readmissions: p.readmissions,
                    canary_recals: p.canary_recals,
                    out_of_fleet_cycles: p.out_of_fleet_cycles,
                    jobs_since_readmission: p.jobs_since_readmission,
                    final_health: p.health,
                })
                .collect(),
        };
        ServeOutcome {
            responses: st.responses,
            dropped_ids,
            drops: st.drops,
            report,
        }
    }

    // ---- device protocol -------------------------------------------------

    /// Writes `value` to PE `i`'s CTRL register (the MMR door the
    /// bus-mapped firmware rings too), then acknowledges the error latch
    /// and returns the bits it held. Doorbells clear the latch first
    /// (bit 2) and every refused start or recalibration latches a bit,
    /// so 0 means the device accepted the doorbell.
    fn ctrl(&mut self, i: usize, value: u32) -> u32 {
        let dev = &mut self.pes[i].dev;
        debug_assert!(
            value & 8 == 0 || !dev.is_busy(),
            "serve recalibrates idle PEs only"
        );
        dev.mmr_store(mmr::CTRL, value, self.now, &mut self.spm);
        let bits = dev.error_bits();
        if bits != 0 {
            dev.mmr_store(mmr::CTRL, 4, self.now, &mut self.spm);
        }
        bits
    }

    /// Rings PE `i`'s start doorbell on `batch` vectors staged in its SPM
    /// input window, watchdog armed; returns the refusal's error bits
    /// (0 = started).
    fn start(&mut self, i: usize, batch: u32) -> u32 {
        let pe = &mut self.pes[i];
        for (offset, value) in [
            (mmr::CTRL, 4), // clear stale error latch
            (mmr::IN_ADDR, pe.spm_in),
            (mmr::OUT_ADDR, pe.spm_out),
            (mmr::BATCH, batch),
            (mmr::WATCHDOG, self.cfg.watchdog),
        ] {
            pe.dev.mmr_store(offset, value, self.now, &mut self.spm);
        }
        self.ctrl(i, 1)
    }

    /// Stages a job's inputs into the PE's SPM window and rings the
    /// doorbell. Each payload is quantized once: the staged words feed
    /// both the device and the job's recorded ABFT right-hand sides.
    /// Returns the job back, with the error bits, on immediate rejection
    /// (bricked device, malformed job).
    fn dispatch(&mut self, i: usize, mut job: Job) -> Result<(), (Job, u32)> {
        let model = self.pes[i].spec.model;
        let n = self.models[model].rows();
        let checksum_row = &self.checksum_rows[model];
        self.stage.clear();
        job.rhs.clear();
        for p in &job.requests {
            debug_assert_eq!(p.req.x.len(), n, "request length matches its model");
            let start = self.stage.len();
            self.stage
                .extend(p.req.x.iter().map(|&v| to_fixed(v) as u32));
            job.rhs.push(
                checksum_row
                    .iter()
                    .zip(&self.stage[start..])
                    .map(|(&c, &q)| c * from_fixed(q as i32))
                    .sum(),
            );
        }
        self.spm.poke_words(self.pes[i].spm_in, &self.stage);
        match self.start(i, job.requests.len() as u32) {
            0 => {
                self.pes[i].job = Some(job);
                Ok(())
            }
            bits => Err((job, bits)),
        }
    }

    /// Dispatches a watchdog-armed canary MVM — the known input whose
    /// ABFT checksum is precomputed — on PE `i` (drift probe when
    /// in-fleet, half-open probe when on probation).
    fn dispatch_canary(&mut self, i: usize, st: &mut RunState) {
        let model = self.pes[i].spec.model;
        let n = self.models[model].rows();
        for j in 0..n {
            self.spm
                .poke(
                    self.pes[i].spm_in + j as u32 * 4,
                    to_fixed(self.canary_xs[model][j]) as u32,
                )
                .expect("PE window inside SPM");
        }
        if self.start(i, 1) == 0 {
            self.pes[i].canary = true;
            st.canaries_run += 1;
        } else {
            self.canary_failed(i);
        }
    }

    /// A failed canary counts against the recovery round on probation,
    /// and as a device strike otherwise.
    fn canary_failed(&mut self, i: usize) {
        if self.pes[i].health == PeHealth::Probation {
            self.recovery_round_failed(i);
        } else {
            self.device_strike(i);
        }
    }

    /// Joins a completed canary: device errors and checksum misses feed
    /// the health state machine, never the request path.
    fn finish_canary(&mut self, i: usize) {
        let model = self.pes[i].spec.model;
        let n = self.models[model].rows();
        self.pes[i].canary = false;
        if self.ctrl(i, 2) != 0 {
            self.canary_failed(i);
            return;
        }
        let lhs: f64 = (0..n)
            .map(|j| {
                from_fixed(
                    self.spm
                        .peek(self.pes[i].spm_out + j as u32 * 4)
                        .expect("PE window inside SPM") as i32,
                )
            })
            .sum();
        // Tightened tolerance: the canary must miss while production
        // jobs still pass, so recalibration pre-empts job failures.
        let threshold = self.cfg.drift_margin * CHECKSUM_TOLERANCE * n as f64;
        let pass = (lhs - self.canary_rhs[model]).abs() <= threshold;
        match self.pes[i].health {
            PeHealth::Probation => {
                if pass {
                    let pe = &mut self.pes[i];
                    pe.probation_left = pe.probation_left.saturating_sub(1);
                    if pe.probation_left == 0 {
                        self.readmit(i);
                    }
                } else {
                    self.recovery_round_failed(i);
                }
            }
            _ => {
                let pe = &mut self.pes[i];
                if pass {
                    pe.consecutive_failures = 0;
                    pe.health = PeHealth::Healthy;
                    pe.next_canary = self.now + self.cfg.canary_period.max(1);
                } else {
                    // Drift approaching the job threshold: drain and
                    // recalibrate before any production job can fail.
                    pe.wants_recal = true;
                    pe.canary_recals += 1;
                }
            }
        }
    }

    /// Joins a completed production job: acknowledges the device, checks
    /// the error latch, reads the outputs back and verifies them
    /// per vector. Good vectors join; bad vectors are re-queued with a
    /// strike against the request (poison attribution), and the PE is
    /// charged only when the *whole* job failed.
    fn finish_job(&mut self, i: usize, st: &mut RunState) {
        let model = self.pes[i].spec.model;
        let n = self.models[model].rows();
        let pe = &mut self.pes[i];
        let job = pe.job.take().expect("finish_job requires an in-flight job");
        let bits = self.ctrl(i, 2);
        if bits != 0 {
            st.jobs_failed += 1;
            st.failures.record_device(bits);
            self.device_strike(i);
            self.requeue_device_failure(job, st);
            return;
        }
        let mut bad: Vec<Pending> = Vec::new();
        let mut good = 0usize;
        debug_assert_eq!(
            job.rhs.len(),
            job.requests.len(),
            "dispatch records every rhs"
        );
        let out = self
            .spm
            .peek_words(self.pes[i].spm_out, job.requests.len() * n)
            .expect("PE window inside SPM");
        for ((p, rhs), words) in job
            .requests
            .into_iter()
            .zip(job.rhs)
            .zip(out.chunks_exact(n))
        {
            let y: Vec<f64> = words.iter().map(|&w| from_fixed(w as i32)).collect();
            // ABFT plain-checksum identity: Σ·(W x) = (1ᵀW)·x.
            let lhs: f64 = y.iter().sum();
            if (lhs - rhs).abs() <= CHECKSUM_TOLERANCE * n as f64 {
                good += 1;
                st.responses.push(Response {
                    id: p.req.id,
                    model,
                    arrival: p.req.arrival,
                    completed: self.now,
                    retries: p.attempts,
                    y,
                });
            } else {
                bad.push(p);
            }
        }
        if bad.is_empty() {
            let pe = &mut self.pes[i];
            pe.consecutive_failures = 0;
            if pe.health == PeHealth::Suspect {
                pe.health = PeHealth::Healthy;
            }
            pe.jobs_completed += 1;
            if pe.readmissions > 0 {
                pe.jobs_since_readmission += 1;
            }
            return;
        }
        st.jobs_failed += 1;
        st.failures.checksum += 1;
        if good == 0 {
            // Every vector in the batch was wrong: that points at the
            // device, not the payloads.
            self.device_strike(i);
        }
        let live = self.live_mask(model);
        let bit = 1u64 << i;
        for mut p in bad.into_iter().rev() {
            p.attempts += 1;
            p.strikes += 1;
            st.retries += 1;
            if p.strikes >= self.cfg.request_retry_cap.max(1) {
                // A payload that fails everywhere is poison: drop it
                // alone instead of burning the fleet's retry budgets.
                st.drop_req(p.req.id, DropReason::Poison);
            } else {
                p.failed_on |= bit;
                if p.failed_on & live == live {
                    p.failed_on = 0;
                }
                st.queue.push_front(p);
            }
        }
    }

    /// Re-queues every request of a device-level failure (watchdog,
    /// hard fault, reject) at the front — no strikes: the hardware, not
    /// the payload, is suspect.
    fn requeue_device_failure(&mut self, job: Job, st: &mut RunState) {
        for mut p in job.requests.into_iter().rev() {
            p.attempts += 1;
            st.retries += 1;
            if p.attempts >= MAX_ATTEMPTS {
                st.drop_req(p.req.id, DropReason::AttemptCap);
            } else {
                st.queue.push_front(p);
            }
        }
    }

    // ---- health state machine --------------------------------------------

    /// Charges one consecutive failure against PE `i`, ejecting it at
    /// the retry budget.
    fn device_strike(&mut self, i: usize) {
        let pe = &mut self.pes[i];
        pe.consecutive_failures += 1;
        if pe.consecutive_failures >= RETRY_BUDGET {
            self.eject(i);
        } else if pe.health == PeHealth::Healthy {
            pe.health = PeHealth::Suspect;
        }
    }

    /// Ejects PE `i` out-of-fleet, opening its recovery backoff.
    fn eject(&mut self, i: usize) {
        let pe = &mut self.pes[i];
        pe.ejections += 1;
        pe.ejected_at = self.now;
        pe.recovery_round = 0;
        pe.consecutive_failures = 0;
        pe.wants_recal = false;
        pe.health = PeHealth::Ejected;
        pe.recover_at = self.now.saturating_add(self.cfg.recovery_backoff.max(1));
    }

    /// Backoff before recovery round `round` \[cycles\].
    fn recovery_backoff_for(&self, round: u32) -> u64 {
        self.cfg
            .recovery_backoff
            .max(1)
            .saturating_mul(1u64 << round.min(16))
    }

    /// One failed recovery round: re-eject with doubled backoff, or
    /// declare the PE dead once the rounds are exhausted. Bounded by
    /// construction: at most [`RECOVERY_ATTEMPTS`] rounds per ejection
    /// episode.
    fn recovery_round_failed(&mut self, i: usize) {
        let round = self.pes[i].recovery_round + 1;
        let backoff = self.recovery_backoff_for(round);
        let pe = &mut self.pes[i];
        pe.recovery_round = round;
        if round >= RECOVERY_ATTEMPTS {
            pe.health = PeHealth::Dead;
            self.fleet_changed = true;
        } else {
            pe.health = PeHealth::Ejected;
            pe.recover_at = self.now.saturating_add(backoff);
        }
    }

    /// The deterministic reset-and-recalibrate sequence on an ejected
    /// PE: clear the sticky hard-fault state, then one `CTRL = 4|8`
    /// clears the error latch and recalibrates. A persistent fault condition
    /// re-asserts itself against the reset (see
    /// [`InferenceServer::apply_faults`]) and aborts the recal, failing
    /// the round.
    fn attempt_recovery(&mut self, i: usize) {
        self.pes[i].dev.clear_hard_fault();
        if self.ctrl(i, 4 | 8) == 0 {
            self.pes[i].health = PeHealth::Recovering;
        } else {
            self.recovery_round_failed(i);
        }
    }

    /// Completes the recovery recalibration: a clean finish enters
    /// half-open probation; an aborted one (the fault re-asserted)
    /// fails the round.
    fn finish_recovery_recal(&mut self, i: usize) {
        if self.ctrl(i, 2) != 0 {
            self.recovery_round_failed(i);
        } else {
            self.pes[i].health = PeHealth::Probation;
            self.pes[i].probation_left = PROBATION_CANARIES;
        }
    }

    /// Completes a drift-triggered recalibration: the PE re-enters the
    /// fleet with fresh weights and a fresh canary schedule.
    fn finish_drift_recal(&mut self, i: usize) {
        if self.ctrl(i, 2) != 0 {
            self.pes[i].health = PeHealth::Healthy;
            self.device_strike(i);
            return;
        }
        let pe = &mut self.pes[i];
        pe.health = PeHealth::Healthy;
        pe.consecutive_failures = 0;
        pe.wants_recal = false;
        pe.next_canary = self.now + self.cfg.canary_period.max(1);
    }

    /// Readmits PE `i` after a full probation pass: deterministic, and
    /// recorded as a completed ejection→readmission episode.
    fn readmit(&mut self, i: usize) {
        let pe = &mut self.pes[i];
        pe.health = PeHealth::Healthy;
        pe.readmissions += 1;
        pe.out_of_fleet_cycles += self.now - pe.ejected_at;
        pe.recovery_round = 0;
        pe.consecutive_failures = 0;
        pe.next_canary = if self.cfg.canary_period > 0 {
            self.now + self.cfg.canary_period
        } else {
            u64::MAX
        };
    }
}

/// Pulls the next batch for `model` out of the queue: up to `cap`
/// same-model requests in FIFO order, skipping requests whose affinity
/// mask excludes PE `slot` (they failed their checksum there). A batch
/// forms when it is full, when its oldest request has waited
/// [`BATCH_WINDOW`] cycles, or when no further arrivals can top it up.
fn take_batch(
    queue: &mut VecDeque<Pending>,
    model: usize,
    slot: usize,
    cap: usize,
    now: u64,
    arrivals_done: bool,
) -> Option<Job> {
    let bit = 1u64 << slot;
    let matching: Vec<usize> = queue
        .iter()
        .enumerate()
        .filter(|(_, p)| p.req.model == model && p.failed_on & bit == 0)
        .map(|(k, _)| k)
        .take(cap)
        .collect();
    if matching.is_empty() {
        return None;
    }
    let oldest = queue[matching[0]].req.arrival;
    let ready = matching.len() >= cap || oldest + BATCH_WINDOW <= now || arrivals_done;
    if !ready {
        return None;
    }
    let mut requests = Vec::with_capacity(matching.len());
    for &k in matching.iter().rev() {
        requests.push(queue.remove(k).expect("index valid"));
    }
    requests.reverse();
    Some(Job {
        requests,
        rhs: Vec::new(),
    })
}

/// Specification of a synthetic request load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Number of requests.
    pub requests: usize,
    /// Mean inter-arrival gap \[cycles\] (uniform in `0..=2*mean`).
    pub mean_interarrival: u64,
    /// RNG seed: the same seed always generates the same load.
    pub seed: u64,
}

/// Generates a deterministic synthetic load over `models`: arrival
/// times from a seeded uniform inter-arrival process, model choice
/// uniform, inputs uniform in `[-0.5, 0.5)`.
pub fn synthetic_load(models: &[RMatrix], spec: LoadSpec) -> Vec<Request> {
    assert!(
        !models.is_empty(),
        "synthetic load needs at least one model"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut t = 0u64;
    (0..spec.requests as u64)
        .map(|id| {
            t += rng.gen_range(0..=2 * spec.mean_interarrival);
            let model = rng.gen_range(0..models.len());
            let n = models[model].rows();
            Request {
                id,
                model,
                arrival: t,
                x: (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_model(n: usize) -> RMatrix {
        RMatrix::from_fn(n, n, |i, j| {
            0.4 * ((i as f64 - j as f64) * 0.31).sin() + if i == j { 0.3 } else { 0.0 }
        })
    }

    fn homogeneous_fleet(pes: usize, fault: &[(usize, PeFault)]) -> Vec<PeSpec> {
        (0..pes)
            .map(|i| {
                let mut s = PeSpec::new(0);
                if let Some((_, f)) = fault.iter().find(|(k, _)| *k == i) {
                    s.fault = *f;
                }
                s
            })
            .collect()
    }

    fn heavy_load(models: &[RMatrix], requests: usize) -> Vec<Request> {
        synthetic_load(
            models,
            LoadSpec {
                requests,
                mean_interarrival: 2,
                seed: 0x10ad,
            },
        )
    }

    #[test]
    #[should_panic(expected = "serve: fleet of 65 PEs exceeds the 64-slot affinity mask")]
    fn fleets_beyond_the_affinity_mask_are_rejected() {
        let models = vec![test_model(2)];
        let full = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(64, &[]),
            ServeConfig::default(),
        );
        assert_eq!(full.pes.len(), 64);
        let _ = InferenceServer::new(models, &homogeneous_fleet(65, &[]), ServeConfig::default());
    }

    #[test]
    fn responses_match_the_model() {
        let models = vec![test_model(6)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(2, &[]),
            ServeConfig::default(),
        );
        let load = heavy_load(&models, 40);
        let out = srv.run(&load);
        assert_eq!(out.report.completed, 40);
        assert_eq!(out.report.dropped, 0);
        for resp in &out.responses {
            let req = load.iter().find(|r| r.id == resp.id).unwrap();
            let want = models[0].mul_vec(&req.x);
            for (a, b) in resp.y.iter().zip(&want) {
                assert!((a - b).abs() < 2e-3, "id {}: {a} vs {b}", resp.id);
            }
        }
    }

    #[test]
    fn wavelength_batching_amortizes_setup() {
        let models = vec![test_model(8)];
        let cfg = ServeConfig::default();
        let run = |wdm: u32| {
            let mut spec = PeSpec::new(0);
            spec.wdm_channels = wdm;
            let mut srv = InferenceServer::new(models.clone(), &[spec], cfg);
            srv.run(&heavy_load(&models, 200)).report
        };
        let narrow = run(1);
        let wide = run(8);
        assert_eq!(narrow.completed, 200);
        assert_eq!(wide.completed, 200);
        assert!(
            wide.total_cycles * 3 < narrow.total_cycles,
            "8-wavelength batching must amortize per-job setup: {} vs {}",
            wide.total_cycles,
            narrow.total_cycles
        );
        assert!(wide.mean_batch_fill > 4.0, "{}", wide.mean_batch_fill);
    }

    #[test]
    fn fleet_scales_throughput() {
        let models = vec![test_model(8)];
        // A burst load (everything queued up front) keeps every fleet
        // size fully saturated, so the comparison measures service
        // capacity rather than the arrival rate.
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 600,
                mean_interarrival: 0,
                seed: 3,
            },
        );
        let run = |pes: usize| {
            let mut srv = InferenceServer::new(
                models.clone(),
                &homogeneous_fleet(pes, &[]),
                ServeConfig::default(),
            );
            srv.run(&load).report
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.dropped + four.dropped, 0);
        assert!(
            four.requests_per_sec >= 2.0 * one.requests_per_sec,
            "4 PEs must at least double sustained throughput: {} -> {}",
            one.requests_per_sec,
            four.requests_per_sec
        );
    }

    #[test]
    fn hard_faulted_pe_degrades_the_fleet_not_the_service() {
        let models = vec![test_model(8)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(4, &[(1, PeFault::HardAt { cycle: 200 })]),
            ServeConfig::default(),
        );
        let out = srv.run(&heavy_load(&models, 400));
        assert_eq!(out.report.dropped, 0, "no request may be lost");
        assert_eq!(out.report.completed, 400);
        assert_eq!(out.report.pes_ejected, 1, "the bricked PE left the fleet");
        assert_eq!(srv.pes.iter().filter(|p| p.health.in_fleet()).count(), 3);
        assert!(out.report.jobs_failed > 0, "the fault was actually hit");
        assert!(out.report.failures.hard_fault > 0, "classified as HW fault");
        assert!(
            out.responses.iter().any(|r| r.retries > 0),
            "failed jobs were retried on healthy PEs"
        );
    }

    #[test]
    fn stalled_pe_is_ejected_via_watchdog() {
        let models = vec![test_model(8)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(3, &[(2, PeFault::StallAt { cycle: 0 })]),
            ServeConfig {
                // Fail fast enough that the stalled PE burns through its
                // retry budget well before the load drains.
                watchdog: 64,
                ..ServeConfig::default()
            },
        );
        // Burst load: a deep queue guarantees the stalled PE keeps
        // receiving (and timing out on) jobs until it is ejected.
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 400,
                mean_interarrival: 0,
                seed: 0x10ad,
            },
        );
        let out = srv.run(&load);
        assert_eq!(out.report.dropped, 0);
        assert_eq!(out.report.completed, 400);
        assert_eq!(out.report.pes_ejected, 1);
        assert!(out.report.failures.watchdog > 0);
        assert_eq!(
            out.report.per_pe_jobs[2], 0,
            "the stalled PE joined nothing"
        );
    }

    #[test]
    fn whole_fleet_loss_drops_requests_without_hanging() {
        let models = vec![test_model(4)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(
                2,
                &[
                    (0, PeFault::HardAt { cycle: 0 }),
                    (1, PeFault::HardAt { cycle: 0 }),
                ],
            ),
            ServeConfig {
                // Fast recovery cadence so both PEs exhaust their
                // recovery rounds (persistent fault -> dead) quickly.
                recovery_backoff: 32,
                ..ServeConfig::default()
            },
        );
        let out = srv.run(&heavy_load(&models, 50));
        assert_eq!(out.report.completed, 0);
        assert_eq!(
            out.report.dropped, 50,
            "service failure is reported, not hung"
        );
        assert_eq!(out.report.pes_ejected, 2);
        assert_eq!(out.report.pes_dead, 2, "persistent bricks end up dead");
        assert_eq!(out.report.drops.unservable, 50);
    }

    #[test]
    fn heterogeneous_models_route_correctly() {
        let models = vec![test_model(4), test_model(8)];
        let specs = vec![PeSpec::new(0), PeSpec::new(1), PeSpec::new(1)];
        let mut srv = InferenceServer::new(models.clone(), &specs, ServeConfig::default());
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 120,
                mean_interarrival: 4,
                seed: 7,
            },
        );
        let out = srv.run(&load);
        assert_eq!(out.report.completed, 120);
        assert_eq!(out.report.dropped, 0);
        for resp in &out.responses {
            let req = load.iter().find(|r| r.id == resp.id).unwrap();
            assert_eq!(resp.model, req.model);
            let want = models[req.model].mul_vec(&req.x);
            for (a, b) in resp.y.iter().zip(&want) {
                assert!((a - b).abs() < 2e-3);
            }
        }
    }

    #[test]
    fn serving_is_deterministic_across_reruns() {
        let models = vec![test_model(8)];
        let mut reports = Vec::new();
        for _ in 0..2 {
            let mut srv = InferenceServer::new(
                models.clone(),
                &homogeneous_fleet(3, &[(0, PeFault::HardAt { cycle: 500 })]),
                ServeConfig::default(),
            );
            reports.push(srv.run(&heavy_load(&models, 300)));
        }
        assert_eq!(reports[0], reports[1], "serving must be bit-deterministic");
    }

    #[test]
    fn batch_window_bounds_tail_latency_under_light_load() {
        let models = vec![test_model(8)];
        let mut srv =
            InferenceServer::new(models.clone(), &[PeSpec::new(0)], ServeConfig::default());
        // One straggler request: nothing arrives after it to fill the
        // batch, so the window (not a peer) must flush it.
        let load = vec![
            Request {
                id: 0,
                model: 0,
                arrival: 0,
                x: vec![0.1; 8],
            },
            Request {
                id: 1,
                model: 0,
                arrival: 10_000,
                x: vec![0.2; 8],
            },
        ];
        let out = srv.run(&load);
        assert_eq!(out.report.completed, 2);
        // The straggler waits out the window, and no longer than window
        // plus job time.
        assert!(
            (BATCH_WINDOW..BATCH_WINDOW + 100).contains(&out.report.max_latency_cycles),
            "{}",
            out.report.max_latency_cycles
        );
    }

    // ---- self-healing -----------------------------------------------------

    #[test]
    fn transient_brick_is_recovered_and_readmitted() {
        let models = vec![test_model(8)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(
                2,
                &[(
                    1,
                    PeFault::HardFor {
                        cycle: 100,
                        until: 400,
                    },
                )],
            ),
            ServeConfig {
                recovery_backoff: 64,
                ..ServeConfig::default()
            },
        );
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 600,
                mean_interarrival: 3,
                seed: 0xbeef,
            },
        );
        let out = srv.run(&load);
        assert_eq!(out.report.dropped, 0, "no request may be lost");
        assert_eq!(out.report.completed, 600);
        let pe1 = &out.report.per_pe[1];
        assert!(pe1.ejections >= 1, "the transient brick ejected PE 1");
        assert!(pe1.readmissions >= 1, "PE 1 was readmitted: {pe1:?}");
        assert_eq!(pe1.final_health, PeHealth::Healthy);
        assert!(
            pe1.jobs_since_readmission > 0,
            "PE 1 served jobs again after readmission"
        );
        assert!(pe1.out_of_fleet_cycles > 0, "time-to-readmission recorded");
        assert_eq!(srv.pe_health(1), PeHealth::Healthy);
        assert_eq!(srv.pes.iter().filter(|p| p.health.in_fleet()).count(), 2);
    }

    #[test]
    fn transient_stall_is_recovered_and_readmitted() {
        let models = vec![test_model(8)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(
                2,
                &[(
                    0,
                    PeFault::StallFor {
                        cycle: 50,
                        until: 500,
                    },
                )],
            ),
            ServeConfig {
                watchdog: 64,
                recovery_backoff: 64,
                ..ServeConfig::default()
            },
        );
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 600,
                mean_interarrival: 3,
                seed: 0x57a1,
            },
        );
        let out = srv.run(&load);
        assert_eq!(out.report.dropped, 0);
        assert_eq!(out.report.completed, 600);
        let pe0 = &out.report.per_pe[0];
        assert!(pe0.ejections >= 1 && pe0.readmissions >= 1, "{pe0:?}");
        assert_eq!(pe0.final_health, PeHealth::Healthy);
        assert!(pe0.jobs_since_readmission > 0);
    }

    #[test]
    fn permanent_brick_exhausts_recovery_and_dies() {
        let models = vec![test_model(8)];
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(2, &[(1, PeFault::HardAt { cycle: 100 })]),
            ServeConfig {
                recovery_backoff: 16,
                ..ServeConfig::default()
            },
        );
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 800,
                mean_interarrival: 3,
                seed: 0xdead,
            },
        );
        let out = srv.run(&load);
        assert_eq!(out.report.dropped, 0);
        let pe1 = &out.report.per_pe[1];
        assert_eq!(
            pe1.final_health,
            PeHealth::Dead,
            "sticky HW_FAULT stays dead: {pe1:?}"
        );
        assert_eq!(pe1.readmissions, 0);
        assert_eq!(out.report.pes_dead, 1);
    }

    #[test]
    fn poison_request_is_dropped_alone_with_distinct_reason() {
        let models = vec![test_model(8)];
        let mut load = heavy_load(&models, 120);
        // One poison payload: saturates the fixed-point output range, so
        // its ABFT checksum fails on every PE it touches.
        load[60].x = vec![30000.0; 8];
        let poison_id = load[60].id;
        let mut srv = InferenceServer::new(
            models.clone(),
            &homogeneous_fleet(3, &[]),
            ServeConfig::default(),
        );
        let out = srv.run(&load);
        assert_eq!(out.report.completed, 119, "only the poison request drops");
        assert_eq!(out.report.dropped, 1);
        assert_eq!(out.report.drops.poison, 1);
        assert_eq!(out.drops, vec![(poison_id, DropReason::Poison)]);
        assert_eq!(
            out.report.pes_ejected, 0,
            "a bad payload must not eject healthy hardware"
        );
        assert_eq!(srv.pes.iter().filter(|p| p.health.in_fleet()).count(), 3);
    }

    #[test]
    fn drift_canary_recalibrates_before_any_job_fails() {
        let models = vec![test_model(8)];
        let drift = PcmDriftModel {
            nu: 0.05,
            seconds_per_cycle: 1e-3,
            initial_age_s: 1e-3,
            ..PcmDriftModel::default()
        };
        let mut specs = homogeneous_fleet(2, &[]);
        for s in &mut specs {
            s.drift = Some(drift);
        }
        let mut srv = InferenceServer::new(
            models.clone(),
            &specs,
            ServeConfig {
                canary_period: 400,
                ..ServeConfig::default()
            },
        );
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 2000,
                mean_interarrival: 4,
                seed: 0xd21f7,
            },
        );
        let out = srv.run(&load);
        assert_eq!(out.report.completed, 2000);
        assert_eq!(out.report.dropped, 0);
        let recals: u32 = out.report.per_pe.iter().map(|p| p.canary_recals).sum();
        assert!(recals > 0, "drift must trip at least one canary recal");
        assert_eq!(
            out.report.failures.checksum, 0,
            "canaries must recalibrate before any production job fails"
        );
        assert_eq!(out.report.pes_ejected, 0, "drift is handled in-fleet");
        assert!(srv.pe_device(0).recal_count() > 0);
    }

    #[test]
    fn overload_sheds_with_backoff_and_recovers() {
        let models = vec![test_model(8)];
        // Saturating burst: everything at once against one PE with a
        // tight queue — admission must shed rather than queue unboundedly.
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 2000,
                mean_interarrival: 0,
                seed: 5,
            },
        );
        let mut srv = InferenceServer::new(
            models.clone(),
            &[PeSpec::new(0)],
            ServeConfig {
                queue_cap: 64,
                ..ServeConfig::default()
            },
        );
        let out = srv.run(&load);
        assert!(out.report.drops.shed > 0, "overload must shed");
        assert_eq!(
            out.report.completed + out.report.dropped,
            2000,
            "every request is accounted for"
        );
        assert_eq!(
            out.report.dropped, out.report.drops.shed,
            "overload drops are shed drops, nothing else"
        );
        assert!(
            out.report.completed >= 64,
            "admitted work completes: {}",
            out.report.completed
        );
    }

    #[test]
    fn deadline_shedding_drops_stale_requests() {
        let models = vec![test_model(8)];
        let load = synthetic_load(
            &models,
            LoadSpec {
                requests: 400,
                mean_interarrival: 0,
                seed: 9,
            },
        );
        let mut srv = InferenceServer::new(
            models.clone(),
            &[PeSpec::new(0)],
            ServeConfig {
                deadline: 60,
                ..ServeConfig::default()
            },
        );
        let out = srv.run(&load);
        assert!(out.report.drops.deadline > 0, "stale requests dropped");
        assert_eq!(out.report.completed + out.report.dropped, 400);
        // Served requests respected the deadline at dispatch time; a
        // request picked up just inside it still finishes its job.
        let slack = 60 + srv.pe_device(0).job_cycles(8);
        assert!(
            out.report.max_latency_cycles <= slack,
            "{} > {slack}",
            out.report.max_latency_cycles
        );
    }

    #[test]
    fn stepping_matches_run_and_clones_resume_identically() {
        let models = vec![test_model(8)];
        let specs = homogeneous_fleet(
            3,
            &[(
                1,
                PeFault::HardFor {
                    cycle: 100,
                    until: 300,
                },
            )],
        );
        let cfg = ServeConfig {
            recovery_backoff: 64,
            canary_period: 200,
            ..ServeConfig::default()
        };
        let load = heavy_load(&models, 200);
        let mut whole = InferenceServer::new(models.clone(), &specs, cfg);
        let reference = whole.run(&load);

        let mut stepped = InferenceServer::new(models.clone(), &specs, cfg);
        stepped.begin(&load);
        let mut cloned: Option<InferenceServer> = None;
        let mut steps = 0u64;
        loop {
            if steps == 37 {
                cloned = Some(stepped.clone());
            }
            if !stepped.step() {
                break;
            }
            steps += 1;
        }
        assert_eq!(stepped.finish(), reference, "stepped == run");
        let mut resumed = cloned.expect("run had at least 37 steps");
        assert_eq!(
            resumed.finish(),
            reference,
            "a mid-run clone resumes bit-identically"
        );
    }
}
