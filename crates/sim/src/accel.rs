//! The memory-mapped photonic MVM accelerator — the "Compute Unit +
//! Communications Interface" of the paper's Fig. 3.
//!
//! The Compute Unit is one programmed chip — a noiseless [`RealizedMvm`]
//! frozen at [`AccelDevice::load_matrix`]; the Communications Interface
//! is a bank of memory-mapped registers (MMRs), scratchpad-resident operand
//! buffers, and an interrupt line, exactly the gem5-MARVEL device
//! template: "MMRs consist of configurable status, control, and data
//! registers ... the host can utilize the provided interrupt signals for
//! synchronization without the need for constant polling."
//!
//! On top of the PR 1/2 device, this model carries the runtime
//! fault-tolerance surface of the guarded offload protocol:
//!
//! - a sticky [`mmr::ERROR`] register ([`errcode`] bits: checksum-fail
//!   reported by firmware, watchdog timeout, busy-reject, SPM range,
//!   malformed job) mirrored as [`status::ERROR`] and routed to its own
//!   interrupt-enable bit;
//! - a [`mmr::WATCHDOG`] deadline that aborts an overdue job;
//! - a recalibration doorbell (CTRL bit 3) that re-programs the PCM
//!   attenuators to their nominal column, countering the drift model
//!   ([`PcmDriftModel`]) that ages the weights with simulated time.

use crate::fixed::{from_fixed, to_fixed};
use crate::ram::Ram;
use neuropulsim_core::mvm::{MvmCore, RealizedMvm};
use neuropulsim_linalg::RMatrix;
use neuropulsim_photonics::energy::TechnologyProfile;
use neuropulsim_photonics::pcm::{drift_offset, PcmCell, PcmMaterial};

/// MMR offsets (bytes from the device base).
pub mod mmr {
    /// Write 1 to start; 2 to clear `done`; 4 to clear `ERROR`; 8 to
    /// request a recalibration (re-program the attenuator weights).
    pub const CTRL: u32 = 0x00;
    /// Bit 0 = busy, bit 1 = done, bit 2 = error pending.
    pub const STATUS: u32 = 0x04;
    /// Matrix dimension `n` (read-only, set by the host API).
    pub const DIM: u32 = 0x08;
    /// SPM byte address of the input vectors.
    pub const IN_ADDR: u32 = 0x0C;
    /// SPM byte address for the output vectors.
    pub const OUT_ADDR: u32 = 0x10;
    /// Number of vectors to stream (a job with batch 0 is rejected).
    pub const BATCH: u32 = 0x14;
    /// Bit 0 enables the completion interrupt; bit 1 the error interrupt.
    pub const IRQ_ENABLE: u32 = 0x18;
    /// Cycles the last job took (read-only).
    pub const LAST_CYCLES: u32 = 0x1C;
    /// Sticky error bits (see [`super::errcode`]). Reads return the
    /// latch; writes OR bits in (firmware reports detections here);
    /// CTRL bit 2 clears.
    pub const ERROR: u32 = 0x20;
    /// Watchdog deadline in cycles from job start (0 disables). An
    /// in-flight job whose deadline passes is aborted with
    /// [`super::errcode::WATCHDOG`].
    pub const WATCHDOG: u32 = 0x24;
    /// Number of recalibrations performed (read-only).
    pub const RECAL_COUNT: u32 = 0x28;
    /// Size of the register bank.
    pub const SIZE: u32 = 0x30;
}

/// Status bits.
pub mod status {
    /// Device is processing a job.
    pub(crate) const BUSY: u32 = 1;
    /// A job finished and `done` has not been cleared.
    pub(crate) const DONE: u32 = 2;
    /// The `ERROR` register holds unacknowledged bits.
    pub const ERROR: u32 = 4;
}

/// Bits of the [`mmr::ERROR`] register.
pub mod errcode {
    /// ABFT checksum failure (reported by the guarded firmware).
    pub const CHECKSUM: u32 = 1;
    /// Job exceeded the programmed watchdog deadline and was aborted.
    pub const WATCHDOG: u32 = 2;
    /// A start or recalibration doorbell arrived while busy and was
    /// rejected (in-flight state untouched).
    pub const BUSY_REJECT: u32 = 4;
    /// An operand window fell outside the scratchpad.
    pub(crate) const SPM_RANGE: u32 = 8;
    /// Malformed job: no matrix programmed, zero dimension, or batch 0.
    pub const BAD_JOB: u32 = 16;
    /// Permanent hardware fault: the device was bricked (injected via
    /// [`super::AccelDevice::inject_hard_fault`]) and rejects every
    /// doorbell until repaired. This is the sticky-ERROR failure mode
    /// the fleet scheduler degrades around.
    pub const HW_FAULT: u32 = 32;
    /// Every defined bit (writes to `ERROR` are masked to these).
    pub const ALL: u32 = 0x3F;
}

/// Retention model for non-volatile PCM weights: amorphous-phase
/// structural relaxation drifts the programmed attenuator states with
/// simulated time (Chakraborty et al., arXiv:1808.01241), degrading MVM
/// accuracy until the host requests a recalibration.
///
/// The device maps each nominal attenuator setting `a` to a crystalline
/// fraction `1 - a`, which ages by the one drift law of
/// [`neuropulsim_photonics::pcm::drift_fraction`]: `f + nu · ln(1 + t/τ)`,
/// clamped to `[0, 1]`. Every cell of the column shares that offset, so
/// at each job start the chip moves to the weights' age by one affine
/// `n²` update ([`RealizedMvm::drift_to`]), not a re-compose; a
/// recalibration copies the as-programmed matrix back. The two meshes
/// around that column do not drift in this model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcmDriftModel {
    /// PCM material of the attenuator cells.
    pub material: PcmMaterial,
    /// Drift coefficient `nu` (fraction shift per ln-decade of seconds).
    pub nu: f64,
    /// Simulated wall-clock seconds per host cycle.
    pub seconds_per_cycle: f64,
    /// Quantization levels used when (re)programming the cells.
    pub levels: u32,
    /// Age of the programmed weights at simulation start \[s\] — models
    /// non-volatile weights programmed long before boot. Sanitized like
    /// the drift law's elapsed time: `+∞` reads as `f64::MAX` (fully
    /// aged), `NaN` or a negative age as 0 s.
    pub initial_age_s: f64,
}

impl Default for PcmDriftModel {
    fn default() -> Self {
        PcmDriftModel {
            material: PcmMaterial::Gsst,
            nu: 1e-3,
            seconds_per_cycle: 1e-9,
            levels: 32,
            initial_age_s: 0.0,
        }
    }
}

impl PcmDriftModel {
    /// Bridges this device-level drift model into a mesh
    /// calibration-under-drift campaign
    /// ([`neuropulsim_core::calibrate::drift_campaign_all`]): the PCM
    /// coefficients (`nu`, `levels`) carry over, the campaign adds the
    /// mesh-side parameters (fabrication imbalance, step cadence,
    /// recalibration threshold) from
    /// [`DriftCampaignConfig::default`](neuropulsim_core::calibrate::DriftCampaignConfig).
    pub fn campaign_config(
        &self,
        steps: usize,
        seconds_per_step: f64,
        retain_frac: f64,
    ) -> neuropulsim_core::calibrate::DriftCampaignConfig {
        neuropulsim_core::calibrate::DriftCampaignConfig {
            levels: self.levels.max(2),
            nu: self.nu,
            seconds_per_step,
            steps,
            retain_frac,
            ..Default::default()
        }
    }
}

/// A build of [`job_body`], picked per host by [`JobBuild::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobBuild {
    /// The body at the crate's baseline target (SSE2 on x86-64).
    Plain,
    /// The body compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl JobBuild {
    /// The widest build this host can run.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return JobBuild::Avx2;
        }
        JobBuild::Plain
    }
}

/// The three steps of a whole-window job on `lanes` vectors: dequantize
/// the SPM `words` lane-major into `xt`, multiply them into `yt` in one
/// lane-blocked product, and quantize `yt` back into `words` (walking
/// `yt` in row order, which reads it contiguously).
///
/// `#[inline(always)]` here and on the kernel beneath it puts one copy
/// of the whole job into each build of [`run_job`], so the AVX2 build
/// runs the kernel at AVX2 width instead of calling an out-of-line SSE2
/// copy, and quantizes without a call. No build enables FMA: Rust never
/// contracts a multiply and an add, so every build keeps the kernel's
/// `-0.0`-start, ascending-`k` sum and gives the same bits.
#[inline(always)]
fn job_body(chip: &RealizedMvm, lanes: usize, words: &mut [u32], xt: &mut [f64], yt: &mut [f64]) {
    let n = chip.modes();
    for (v, x) in words.chunks_exact(n).enumerate() {
        for (k, &word) in x.iter().enumerate() {
            xt[k * lanes + v] = from_fixed(word as i32);
        }
    }
    chip.multiply_lanes_into(xt, lanes, yt);
    for (i, y) in yt.chunks_exact(lanes).enumerate() {
        for (v, &val) in y.iter().enumerate() {
            words[v * n + i] = to_fixed(val) as u32;
        }
    }
}

/// [`job_body`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn job_avx2(
    chip: &RealizedMvm,
    lanes: usize,
    words: &mut [u32],
    xt: &mut [f64],
    yt: &mut [f64],
) {
    job_body(chip, lanes, words, xt, yt);
}

/// Runs one whole-window job ([`job_body`]) in the build
/// [`JobBuild::detect`] picks for this host.
fn run_job(chip: &RealizedMvm, lanes: usize, words: &mut [u32], xt: &mut [f64], yt: &mut [f64]) {
    match JobBuild::detect() {
        JobBuild::Plain => job_body(chip, lanes, words, xt, yt),
        // SAFETY: `detect` returns `Avx2` only after
        // `is_x86_feature_detected!("avx2")` found AVX2 on this host,
        // which is all `job_avx2` requires.
        #[cfg(target_arch = "x86_64")]
        JobBuild::Avx2 => unsafe { job_avx2(chip, lanes, words, xt, yt) },
    }
}

/// The accelerator device state.
#[derive(Debug, Clone)]
pub struct AccelDevice {
    /// The programmed chip; it keeps its nominal attenuator column, and
    /// drift and recalibration move only that column.
    chip: Option<RealizedMvm>,
    /// Reused staging buffers of the whole-window path: the batch's
    /// SPM words, then its inputs and outputs lane-major. No job reads
    /// what an earlier job left in them.
    stage_words: Vec<u32>,
    stage_lanes: Vec<f64>,
    // MMRs
    in_addr: u32,
    out_addr: u32,
    batch: u32,
    irq_mask: u32,
    busy: bool,
    done: bool,
    busy_until: u64,
    last_cycles: u32,
    // Fault-tolerance state.
    error: u32,
    watchdog: u32,
    job_deadline: u64,
    recal_in_flight: bool,
    recal_count: u32,
    /// Latency of a recalibration (PCM reprogramming) \[cycles\].
    pub recal_cycles: u64,
    drift: Option<PcmDriftModel>,
    programmed_at: u64,
    age_s: f64,
    programming_energy_j: f64,
    hard_fault: bool,
    // Timing parameters.
    /// Host clock frequency \[Hz\].
    pub cpu_hz: f64,
    /// Fixed start-up latency per job \[cycles\] (doorbell, DAC settle).
    pub setup_cycles: u64,
    /// Dense-WDM channel count: vectors streamed per symbol slot (§4's
    /// TDM/dense-WDM batching axis). `1` reproduces the single-channel
    /// seed timing exactly; `W` lets a batch of `W` vectors ride one
    /// symbol slot on `W` wavelengths, cutting streaming time `W`-fold
    /// at `W`-fold instantaneous laser power (net laser energy
    /// unchanged).
    pub wdm_channels: u32,
    /// Electro-optic technology profile (for the energy report).
    pub tech: TechnologyProfile,
    // Stats.
    /// Vectors processed in total.
    pub vectors_processed: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
}

impl AccelDevice {
    /// Creates an unconfigured device (host must load a matrix first).
    pub fn new(cpu_hz: f64) -> Self {
        AccelDevice {
            chip: None,
            stage_words: Vec::new(),
            stage_lanes: Vec::new(),
            in_addr: 0,
            out_addr: 0,
            batch: 1,
            irq_mask: 0,
            busy: false,
            done: false,
            busy_until: 0,
            last_cycles: 0,
            error: 0,
            watchdog: 0,
            job_deadline: 0,
            recal_in_flight: false,
            recal_count: 0,
            recal_cycles: 200,
            drift: None,
            programmed_at: 0,
            age_s: 0.0,
            programming_energy_j: 0.0,
            hard_fault: false,
            cpu_hz,
            setup_cycles: 20,
            wdm_channels: 1,
            tech: TechnologyProfile::default(),
            vectors_processed: 0,
            jobs_completed: 0,
        }
    }

    /// Loads (programs) a weight matrix into the photonic core. This is
    /// the host-driver step that burns PCM programming pulses / sets
    /// heaters; it happens out-of-band of the MMR interface. The device
    /// keeps the programmed core's own ideal chip ([`MvmCore::chip`]).
    ///
    /// # Panics
    ///
    /// Panics as [`MvmCore::new`] does: on a non-square or empty `w`, a
    /// non-finite weight, or a non-finite largest singular value.
    pub fn load_matrix(&mut self, w: &RMatrix) {
        let core = MvmCore::new(w);
        self.chip = Some(core.chip().clone());
    }

    /// The configured dimension, 0 if no matrix loaded.
    pub fn dim(&self) -> u32 {
        self.chip.as_ref().map_or(0, |chip| chip.modes() as u32)
    }

    /// `true` while a job is in flight.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// `true` when a completed job's results are ready.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The sticky error bits ([`errcode`]), 0 when clean.
    pub fn error_bits(&self) -> u32 {
        self.error
    }

    /// Number of recalibrations performed so far.
    pub fn recal_count(&self) -> u32 {
        self.recal_count
    }

    /// `true` when the error interrupt line is asserted (error-IRQ
    /// enabled and unacknowledged error bits pending).
    pub fn error_irq_line(&self) -> bool {
        self.irq_mask & 2 != 0 && self.error != 0
    }

    /// `true` while the device's interrupt line is asserted: an
    /// unacknowledged completion with the completion IRQ enabled, or the
    /// error line ([`AccelDevice::error_irq_line`]).
    pub fn irq_line(&self) -> bool {
        (self.irq_mask & 1 != 0 && self.done) || self.error_irq_line()
    }

    /// Bricks the device: every subsequent start or recalibration
    /// doorbell is rejected with the sticky [`errcode::HW_FAULT`] latch.
    /// An in-flight job is aborted (`done` rises so polling hosts do not
    /// deadlock, exactly like a watchdog abort). This is the permanent
    /// device-loss failure mode the fleet scheduler must survive.
    pub fn inject_hard_fault(&mut self) {
        self.hard_fault = true;
        self.error |= errcode::HW_FAULT;
        if self.busy {
            self.busy = false;
            self.done = true;
            self.job_deadline = 0;
            self.recal_in_flight = false;
        }
    }

    /// Repairs an injected hard fault (the error latch stays until the
    /// host acknowledges it through CTRL bit 2).
    pub fn clear_hard_fault(&mut self) {
        self.hard_fault = false;
    }

    /// `true` while a permanent hardware fault is injected.
    pub fn is_hard_faulted(&self) -> bool {
        self.hard_fault
    }

    /// Enables the PCM retention model: subsequent jobs see attenuator
    /// states aged by `nu·ln(1 + t/τ)` since the weights were last
    /// programmed, until a recalibration (CTRL bit 3) re-programs them.
    /// The model's `initial_age_s` is sanitized as [`drift_offset`]
    /// sanitizes elapsed time: infinitely old weights (`+∞`) age as
    /// `f64::MAX` seconds, so they are fully drifted, not fresh; `NaN`
    /// and negative ages read as 0 s.
    pub fn enable_drift(&mut self, model: PcmDriftModel) {
        self.age_s = if model.initial_age_s.is_nan() {
            0.0
        } else {
            model.initial_age_s.clamp(0.0, f64::MAX)
        };
        self.drift = Some(model);
    }

    /// The active drift model, if any.
    pub fn drift_model(&self) -> Option<&PcmDriftModel> {
        self.drift.as_ref()
    }

    /// Handles an MMR read at byte offset `offset`.
    pub fn mmr_load(&mut self, offset: u32) -> u32 {
        match offset & !3 {
            mmr::CTRL => 0,
            mmr::STATUS => {
                (if self.busy { status::BUSY } else { 0 })
                    | (if self.done { status::DONE } else { 0 })
                    | (if self.error != 0 { status::ERROR } else { 0 })
            }
            mmr::DIM => self.dim(),
            mmr::IN_ADDR => self.in_addr,
            mmr::OUT_ADDR => self.out_addr,
            mmr::BATCH => self.batch,
            mmr::IRQ_ENABLE => self.irq_mask,
            mmr::LAST_CYCLES => self.last_cycles,
            mmr::ERROR => self.error,
            mmr::WATCHDOG => self.watchdog,
            mmr::RECAL_COUNT => self.recal_count,
            _ => 0,
        }
    }

    /// Handles an MMR write at time `now`; a CTRL write rings the
    /// device's own doorbells. Bit 1 clears `done`, then bit 2 clears
    /// `ERROR`. A start (bit 0) or recalibration (bit 3) doorbell while
    /// [`AccelDevice::is_busy`] is *rejected*: the in-flight job is
    /// untouched and [`errcode::BUSY_REJECT`] latches instead. Otherwise
    /// bit 0 starts a job on the operands in `spm`, then bit 3
    /// recalibrates. A failed doorbell latches its [`errcode`] bit.
    pub fn mmr_store(&mut self, offset: u32, value: u32, now: u64, spm: &mut Ram) {
        match offset & !3 {
            mmr::CTRL => {
                if value & 2 != 0 {
                    self.done = false;
                }
                if value & 4 != 0 {
                    self.error = 0;
                }
                if value & (1 | 8) != 0 && self.busy {
                    self.error |= errcode::BUSY_REJECT;
                    return;
                }
                if value & 1 != 0 {
                    self.start(now, spm);
                }
                if value & 8 != 0 {
                    self.recalibrate(now);
                }
            }
            mmr::IN_ADDR => self.in_addr = value,
            mmr::OUT_ADDR => self.out_addr = value,
            mmr::BATCH => self.batch = value,
            mmr::IRQ_ENABLE => self.irq_mask = value & 3,
            // Firmware reports detections by OR-ing bits in; the latch
            // is cleared through CTRL bit 2 only.
            mmr::ERROR => self.error |= value & errcode::ALL,
            mmr::WATCHDOG => self.watchdog = value,
            _ => {}
        }
    }

    /// Job latency in host cycles for `batch` vectors: fixed setup plus
    /// streaming at the electro-optic symbol rate. The optical core
    /// retires [`AccelDevice::wdm_channels`] full `n`-element vectors per
    /// symbol slot (one per wavelength) — this is the photonic
    /// throughput advantage in cycle form, with dense-WDM batching as
    /// the second axis.
    pub fn job_cycles(&self, batch: u32) -> u64 {
        let slots = (batch as f64 / self.wdm_channels.max(1) as f64).ceil();
        let streaming = (slots * self.cpu_hz / self.tech.symbol_rate).ceil() as u64;
        self.setup_cycles + streaming.max(1)
    }

    /// The drift offset of the programmed attenuators at time `now`
    /// ([`drift_offset`] of the weights' age), `None` without a drift
    /// model.
    fn drift_offset_at(&self, now: u64) -> Option<f64> {
        let model = self.drift.as_ref()?;
        let elapsed =
            self.age_s + now.saturating_sub(self.programmed_at) as f64 * model.seconds_per_cycle;
        Some(drift_offset(elapsed, model.nu))
    }

    /// Starts a job on an idle device at time `now` (CTRL bit 0):
    /// consumes inputs from SPM, computes, and schedules completion.
    /// Returns `false` — with the matching [`errcode`] bit latched — when
    /// the device is bricked, the job is malformed (no matrix, zero dim,
    /// batch 0), or an operand window falls outside the SPM (the device
    /// sets `done` with garbage in real hardware; here we fail fast and
    /// flag it).
    fn start(&mut self, now: u64, spm: &mut Ram) -> bool {
        debug_assert!(!self.busy, "the CTRL door rejects a busy start");
        if self.hard_fault {
            self.error |= errcode::HW_FAULT;
            return false;
        }
        let batch = self.batch;
        let offset = self.drift_offset_at(now);
        let Some(chip) = self.chip.as_mut().filter(|_| batch > 0) else {
            self.error |= errcode::BAD_JOB;
            return false;
        };
        if let Some(offset) = offset {
            chip.drift_to(offset);
        }
        let n = chip.modes();
        let lanes = batch as usize;
        // Both windows are sized with checked arithmetic before any
        // buffer is: a garbage BATCH falls through to the per-word path,
        // which faults at the SPM edge instead of allocating for it.
        let windows = n.checked_mul(lanes).and_then(|m| {
            Some((
                spm.word_span(self.in_addr, m)?,
                spm.word_span(self.out_addr, m)?,
            ))
        });
        match windows {
            Some((src, dst)) if src.end <= dst.start || dst.end <= src.start => {
                // Whole-window path: one counted read of the batch, one
                // lane-blocked job (the batch rides one dense-WDM pass),
                // one counted write.
                let m = src.len();
                let words = &mut self.stage_words;
                words.resize(m, 0);
                spm.read_words_into(self.in_addr, words);
                self.stage_lanes.resize(2 * m, 0.0);
                let (xt, yt) = self.stage_lanes.split_at_mut(m);
                run_job(chip, lanes, words, xt, yt);
                spm.write_words(self.out_addr, words);
                self.vectors_processed += u64::from(batch);
            }
            _ => {
                // Per-word path for windows that leave the SPM or
                // overlap: vector by vector, word by word, so a fault
                // charges exactly the partial accesses the streaming
                // engine issued before it, and an output that lands on
                // a later input is read back as that input.
                let mut in_addr = self.in_addr;
                let mut out_addr = self.out_addr;
                let mut x = vec![0.0f64; n];
                let mut y = vec![0.0f64; n];
                for _ in 0..batch {
                    for v in x.iter_mut() {
                        let Ok(word) = spm.load(in_addr) else {
                            self.error |= errcode::SPM_RANGE;
                            return false;
                        };
                        *v = from_fixed(word as i32);
                        in_addr += 4;
                    }
                    chip.multiply_into(&x, &mut y);
                    for &val in &y {
                        if spm.store(out_addr, to_fixed(val) as u32).is_err() {
                            self.error |= errcode::SPM_RANGE;
                            return false;
                        }
                        out_addr += 4;
                    }
                    self.vectors_processed += 1;
                }
            }
        }
        let cycles = self.job_cycles(batch);
        self.busy = true;
        self.done = false;
        self.busy_until = now + cycles;
        self.job_deadline = if self.watchdog > 0 {
            now + self.watchdog as u64
        } else {
            0
        };
        self.last_cycles = cycles as u32;
        true
    }

    /// Re-programs the PCM attenuators to their nominal states — the
    /// drift-recovery path behind CTRL bit 3.
    /// Charges the programming pulses to the energy ledger, resets the
    /// weight age, and occupies the device for
    /// [`AccelDevice::recal_cycles`] (completion raises `done` like a
    /// job). Rejected with [`errcode::BUSY_REJECT`] while busy and
    /// [`errcode::BAD_JOB`] when no matrix is programmed.
    fn recalibrate(&mut self, now: u64) {
        if self.hard_fault {
            self.error |= errcode::HW_FAULT;
            return;
        }
        if self.busy {
            self.error |= errcode::BUSY_REJECT;
            return;
        }
        let Some(chip) = self.chip.as_mut() else {
            self.error |= errcode::BAD_JOB;
            return;
        };
        let mut pulses_energy = 0.0;
        if let Some(model) = &self.drift {
            let levels = model.levels.max(2);
            for &a in chip.attenuation() {
                // Iterative write: melt-quench erase, then SET pulses up
                // to the quantized target level.
                let mut cell = PcmCell::new(model.material);
                cell.reset();
                let level = (((1.0 - a) * (levels - 1) as f64).round() as u32).min(levels - 1);
                cell.program_level(level, levels);
                pulses_energy += cell.programming_energy();
            }
        }
        chip.recalibrate();
        self.programming_energy_j += pulses_energy;
        self.programmed_at = now;
        self.age_s = 0.0;
        self.recal_count = self.recal_count.wrapping_add(1);
        self.busy = true;
        self.done = false;
        self.recal_in_flight = true;
        self.job_deadline = 0;
        let cycles = self.recal_cycles.max(1);
        self.busy_until = now + cycles;
        self.last_cycles = cycles as u32;
    }

    /// Advances device time. Returns `true` when an interrupt fires on
    /// this call (completion, or a watchdog abort with the error IRQ
    /// enabled).
    pub fn tick(&mut self, now: u64) -> bool {
        if self.busy && self.job_deadline != 0 && now >= self.job_deadline && now < self.busy_until
        {
            // Watchdog abort: the job is cut short with the error latched;
            // `done` still rises so a polling host cannot deadlock.
            self.busy = false;
            self.done = true;
            self.job_deadline = 0;
            self.error |= errcode::WATCHDOG;
            return self.irq_line();
        }
        if self.busy && now >= self.busy_until {
            self.busy = false;
            self.done = true;
            self.job_deadline = 0;
            if self.recal_in_flight {
                self.recal_in_flight = false;
            } else {
                self.jobs_completed += 1;
            }
            return self.irq_mask & 1 != 0;
        }
        false
    }

    /// The next absolute cycle at which [`AccelDevice::tick`] can change
    /// state: the watchdog deadline when it would cut the job short,
    /// otherwise the completion time. `None` while idle — every tick is
    /// then a no-op, which is what lets the system fast-forward across
    /// quiet windows without losing cycle accuracy.
    pub(crate) fn next_event(&self) -> Option<u64> {
        if !self.busy {
            return None;
        }
        Some(
            if self.job_deadline != 0 && self.job_deadline < self.busy_until {
                self.job_deadline
            } else {
                self.busy_until
            },
        )
    }

    /// Optical + electro-optic energy consumed so far \[J\], from the
    /// technology profile: per-vector modulator/receiver/DAC work plus
    /// laser power over the streaming time, plus any PCM reprogramming
    /// pulses burned by recalibrations.
    pub fn energy(&self) -> f64 {
        let n = self.dim() as usize;
        let vectors = self.vectors_processed as f64;
        let io = vectors
            * n as f64
            * (self.tech.modulator_energy_per_symbol
                + self.tech.receiver_energy_per_sample
                + self.tech.dac_energy_per_sample);
        // WDM cuts streaming time W-fold but burns W comb lines at once,
        // so net laser energy per vector is channel-count-invariant.
        let channels = self.wdm_channels.max(1) as f64;
        let streaming_time = vectors / (self.tech.symbol_rate * channels);
        io + self.tech.laser_power(n) * channels * streaming_time + self.programming_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device_with_identity(n: usize) -> AccelDevice {
        let mut d = AccelDevice::new(1e9);
        d.load_matrix(&RMatrix::identity(n));
        d
    }

    #[test]
    fn mmr_roundtrip() {
        let mut d = device_with_identity(4);
        let mut spm = Ram::new(0, 4096);
        d.mmr_store(mmr::IN_ADDR, 0x100, 0, &mut spm);
        d.mmr_store(mmr::OUT_ADDR, 0x200, 0, &mut spm);
        d.mmr_store(mmr::BATCH, 3, 0, &mut spm);
        d.mmr_store(mmr::IRQ_ENABLE, 1, 0, &mut spm);
        assert_eq!(d.mmr_load(mmr::IN_ADDR), 0x100);
        assert_eq!(d.mmr_load(mmr::OUT_ADDR), 0x200);
        assert_eq!(d.mmr_load(mmr::BATCH), 3);
        assert_eq!(d.mmr_load(mmr::IRQ_ENABLE), 1);
        assert_eq!(d.mmr_load(mmr::DIM), 4);
    }

    #[test]
    fn start_requires_ctrl_write() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 4096);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        assert!(!d.is_busy());
        d.mmr_store(mmr::CTRL, 1, 0, &mut spm);
        assert!(d.is_busy(), "CTRL=1 starts the job");
        assert_eq!(d.error_bits(), 0);
    }

    /// The order inside the one door: the start doorbell runs before the
    /// recalibration one, so `CTRL = 1|8` on an idle device starts the
    /// job and the recal then bounces off the busy device; on a bricked
    /// device a recal doorbell latches `HW_FAULT` (the serve recovery
    /// path's failure signal).
    #[test]
    fn ctrl_doorbells_start_before_recalibrating() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 4096);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        d.mmr_store(mmr::CTRL, 1 | 8, 0, &mut spm);
        assert!(d.is_busy());
        assert!(
            !d.recal_in_flight,
            "the job, not the recal, holds the device"
        );
        assert_eq!(d.vectors_processed, 1);
        assert_eq!(d.recal_count(), 0);
        assert_eq!(d.error_bits(), errcode::BUSY_REJECT);

        let mut bricked = device_with_identity(2);
        bricked.inject_hard_fault();
        bricked.mmr_store(mmr::CTRL, 4 | 8, 0, &mut spm);
        assert_eq!(bricked.error_bits(), errcode::HW_FAULT);
        assert_eq!(bricked.recal_count(), 0);
        assert!(!bricked.is_busy());
    }

    #[test]
    fn identity_job_copies_vector() {
        let mut d = device_with_identity(3);
        let mut spm = Ram::new(0, 4096);
        // Input vector [1.5, -2.0, 0.25] at 0x100.
        let inputs = [1.5, -2.0, 0.25];
        for (k, &x) in inputs.iter().enumerate() {
            spm.poke(0x100 + 4 * k as u32, to_fixed(x) as u32).unwrap();
        }
        d.mmr_store(mmr::IN_ADDR, 0x100, 0, &mut spm);
        d.mmr_store(mmr::OUT_ADDR, 0x200, 0, &mut spm);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        assert!(d.start(0, &mut spm));
        assert!(d.is_busy());
        for (k, &x) in inputs.iter().enumerate() {
            let got = from_fixed(spm.peek(0x200 + 4 * k as u32).unwrap() as i32);
            assert!((got - x).abs() < 1e-3, "element {k}: {got} vs {x}");
        }
    }

    #[test]
    fn completion_and_interrupt() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 1024);
        d.mmr_store(mmr::IRQ_ENABLE, 1, 0, &mut spm);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        assert!(d.start(0, &mut spm));
        let cycles = d.job_cycles(1);
        assert!(!d.tick(cycles - 1), "not done yet");
        assert!(d.tick(cycles), "irq fires at completion");
        assert!(d.is_done());
        assert!(!d.is_busy());
        assert_eq!(d.mmr_load(mmr::STATUS), status::DONE);
        // Clearing done via CTRL bit 1.
        d.mmr_store(mmr::CTRL, 2, 0, &mut spm);
        assert!(!d.is_done());
    }

    #[test]
    fn job_cycles_scale_sublinearly_with_small_batches() {
        let d = device_with_identity(8);
        // 1 GHz host, 10 GS/s optics: 10 vectors per host cycle.
        assert_eq!(d.job_cycles(1), d.setup_cycles + 1);
        assert_eq!(d.job_cycles(100), d.setup_cycles + 10);
    }

    #[test]
    fn wdm_channels_cut_streaming_time_not_laser_energy() {
        let mut d = device_with_identity(8);
        let single = d.job_cycles(4000);
        d.wdm_channels = 8;
        let wdm = d.job_cycles(4000);
        assert!(
            wdm < single,
            "8 wavelengths must shorten the job: {single} -> {wdm}"
        );
        assert_eq!(wdm - d.setup_cycles, (single - d.setup_cycles).div_ceil(8));

        // Energy per vector is channel-count-invariant: W comb lines for
        // 1/W of the time.
        let mut a = device_with_identity(8);
        let mut b = device_with_identity(8);
        b.wdm_channels = 8;
        let mut spm = Ram::new(0, 65536);
        for d in [&mut a, &mut b] {
            d.mmr_store(mmr::BATCH, 64, 0, &mut spm);
            assert!(d.start(0, &mut spm));
        }
        assert!((a.energy() - b.energy()).abs() < 1e-18 * a.energy().abs().max(1.0));
    }

    #[test]
    fn hard_fault_bricks_the_device_until_cleared() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 1024);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        d.inject_hard_fault();
        assert!(d.is_hard_faulted());
        assert!(!d.start(0, &mut spm), "bricked device rejects the job");
        assert_eq!(d.error_bits() & errcode::HW_FAULT, errcode::HW_FAULT);
        d.mmr_store(mmr::CTRL, 8, 10, &mut spm);
        assert_eq!(d.recal_count(), 0, "recal is rejected too");
        assert!(!d.is_busy());
        // Repair + acknowledge: the device serves jobs again.
        d.clear_hard_fault();
        d.mmr_store(mmr::CTRL, 4, 0, &mut spm);
        assert_eq!(d.error_bits(), 0);
        assert!(d.start(0, &mut spm));
    }

    #[test]
    fn hard_fault_mid_job_aborts_like_a_watchdog() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 1024);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        assert!(d.start(0, &mut spm));
        assert!(d.is_busy());
        d.inject_hard_fault();
        assert!(!d.is_busy(), "in-flight job is cut short");
        assert!(d.is_done(), "done rises so a polling host survives");
        assert_ne!(d.error_bits() & errcode::HW_FAULT, 0);
    }

    #[test]
    fn start_fails_without_matrix() {
        let mut d = AccelDevice::new(1e9);
        let mut spm = Ram::new(0, 64);
        assert!(!d.start(0, &mut spm));
    }

    #[test]
    fn start_fails_on_bad_addresses() {
        let mut d = device_with_identity(4);
        let mut spm = Ram::new(0, 16); // too small
        d.mmr_store(mmr::IN_ADDR, 0, 0, &mut spm);
        d.mmr_store(mmr::OUT_ADDR, 0x4000, 0, &mut spm);
        assert!(!d.start(0, &mut spm));
    }

    #[test]
    fn energy_grows_with_work() {
        let mut d = device_with_identity(4);
        let mut spm = Ram::new(0, 4096);
        d.mmr_store(mmr::BATCH, 10, 0, &mut spm);
        let e0 = d.energy();
        assert!(d.start(0, &mut spm));
        assert!(d.energy() > e0);
        assert_eq!(d.vectors_processed, 10);
    }

    #[test]
    fn double_start_is_rejected_without_touching_the_job() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 1024);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        d.mmr_store(mmr::CTRL, 1, 0, &mut spm);
        assert!(d.is_busy());
        let before = d.mmr_load(mmr::LAST_CYCLES);
        // Second doorbell while busy: rejected, error latched, job intact.
        d.mmr_store(mmr::CTRL, 1, 0, &mut spm);
        assert_eq!(d.error_bits(), errcode::BUSY_REJECT);
        assert_ne!(d.mmr_load(mmr::STATUS) & status::ERROR, 0);
        assert_eq!(d.mmr_load(mmr::LAST_CYCLES), before);
        assert!(d.is_busy());
        // The in-flight job still completes normally.
        assert_eq!(d.vectors_processed, 1);
        d.tick(d.job_cycles(1));
        assert!(d.is_done());
        // CTRL bit 2 acknowledges the error.
        d.mmr_store(mmr::CTRL, 4, 0, &mut spm);
        assert_eq!(d.error_bits(), 0);
        assert_eq!(d.mmr_load(mmr::STATUS) & status::ERROR, 0);
    }

    #[test]
    fn batch_zero_and_dim_zero_jobs_are_rejected() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 1024);
        d.mmr_store(mmr::BATCH, 0, 0, &mut spm);
        assert!(!d.start(0, &mut spm));
        assert_eq!(d.error_bits(), errcode::BAD_JOB);
        assert!(!d.is_busy());

        // No matrix programmed: dim() == 0.
        let mut bare = AccelDevice::new(1e9);
        assert_eq!(bare.dim(), 0);
        assert!(!bare.start(0, &mut spm));
        assert_eq!(bare.error_bits(), errcode::BAD_JOB);
    }

    #[test]
    fn spm_range_failure_latches_error_bit() {
        let mut d = device_with_identity(4);
        let mut spm = Ram::new(0, 16); // too small for a 4-vector
        d.mmr_store(mmr::IN_ADDR, 0, 0, &mut spm);
        d.mmr_store(mmr::OUT_ADDR, 0x4000, 0, &mut spm);
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        assert!(!d.start(0, &mut spm));
        assert_eq!(d.error_bits(), errcode::SPM_RANGE);
        assert_ne!(d.mmr_load(mmr::STATUS) & status::ERROR, 0);
    }

    /// The per-vector streaming semantics every job must reproduce:
    /// vector by vector, `n` counted word loads, one multiply, `n`
    /// counted word stores, faulting at the first word outside the SPM.
    fn per_vector_reference(d: &mut AccelDevice, spm: &mut Ram) -> bool {
        let chip = d.chip.as_ref().expect("matrix loaded");
        let n = chip.modes();
        let (mut src, mut dst) = (d.in_addr, d.out_addr);
        let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
        for _ in 0..d.batch {
            for v in x.iter_mut() {
                let Ok(word) = spm.load(src) else {
                    d.error |= errcode::SPM_RANGE;
                    return false;
                };
                *v = from_fixed(word as i32);
                src += 4;
            }
            chip.multiply_into(&x, &mut y);
            for &val in &y {
                if spm.store(dst, to_fixed(val) as u32).is_err() {
                    d.error |= errcode::SPM_RANGE;
                    return false;
                }
                dst += 4;
            }
            d.vectors_processed += 1;
        }
        true
    }

    /// Disjoint, aliased, half-overlapping, SPM-leaving and garbage-batch
    /// windows all leave the same SPM contents, access counters, vector
    /// count and error bits as the per-vector reference loop.
    #[test]
    fn job_windows_match_the_per_vector_reference() {
        let n = 8usize;
        let w = RMatrix::from_fn(n, n, |i, j| ((3 * i + 5 * j) % 7) as f64 / 7.0 - 0.4);
        let mut spm = Ram::new(0x1000, 4096);
        for k in 0..1024u32 {
            spm.poke(0x1000 + 4 * k, to_fixed((k as f64 * 0.37).sin()) as u32)
                .unwrap();
        }
        let word = 4 * n as u32;
        let cases = [
            ("disjoint", 0x1000, 0x1800, 11),
            ("aliased", 0x1100, 0x1100, 9),
            ("half-overlap", 0x1100, 0x1100 + word, 9),
            ("leaves SPM", 0x1000, 0x2000 - 5 * word / 2, 4),
            ("garbage batch", 0x1000, 0x1800, u32::MAX),
        ];
        for (name, in_addr, out_addr, batch) in cases {
            let mut dev = AccelDevice::new(1e9);
            dev.load_matrix(&w);
            dev.mmr_store(mmr::IN_ADDR, in_addr, 0, &mut spm);
            dev.mmr_store(mmr::OUT_ADDR, out_addr, 0, &mut spm);
            dev.mmr_store(mmr::BATCH, batch, 0, &mut spm);
            let mut reference = dev.clone();
            let (mut got_spm, mut want_spm) = (spm.clone(), spm.clone());
            let started = dev.start(0, &mut got_spm);
            let want = per_vector_reference(&mut reference, &mut want_spm);
            assert_eq!(started, want, "{name}: start result");
            assert!(
                got_spm == want_spm,
                "{name}: SPM contents or counters differ"
            );
            assert_eq!(
                dev.vectors_processed, reference.vectors_processed,
                "{name}: vectors processed"
            );
            assert_eq!(dev.error_bits(), reference.error, "{name}: error bits");
            assert!(
                dev.stage_words.capacity() <= spm.size() / 4,
                "{name}: staging sized by the SPM, not by BATCH"
            );
        }
    }

    /// The plain build of [`job_body`] and the build [`run_job`]
    /// dispatches to (AVX2 on an AVX2 host) give the same output words,
    /// and both match the per-word path, at lane counts around the
    /// kernel's 8-lane block: random words, `i32::MIN`/`i32::MAX` words,
    /// and a matrix whose outputs saturate or land on ±½-LSB ties.
    #[test]
    fn job_builds_match_each_other_and_the_per_word_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // On a host without AVX2 both sides below run the plain build.
        let build = JobBuild::detect();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            build == JobBuild::Avx2,
            std::arch::is_x86_feature_detected!("avx2"),
            "dispatcher chose the {build:?} build"
        );
        let mut rng = StdRng::seed_from_u64(33);
        let random = RMatrix::from_fn(12, 12, |_, _| rng.gen_range(-1.0..1.0));
        // The realized 1x1 chip carries 1.5 exactly, so an odd input word
        // puts its output on a ±½-LSB tie, and one past 2^31/1.5 in
        // magnitude saturates.
        let ties = RMatrix::from_rows(1, 1, &[1.5]);
        let (mut tied, mut saturated) = (0, 0);
        for w in [random, ties] {
            let mut base = AccelDevice::new(1e9);
            base.load_matrix(&w);
            let chip = base.chip.clone().expect("matrix loaded");
            let n = chip.modes();
            for lanes in [1usize, 7, 8, 9, 32, 33] {
                let m = n * lanes;
                let words: Vec<u32> = (0..m)
                    .map(|k| match k % 4 {
                        0 => rng.gen::<u32>(),
                        1 => [i32::MIN, i32::MAX][k / 4 % 2] as u32,
                        _ => rng.gen_range(-(1i32 << 18)..1 << 18) as u32 | 1,
                    })
                    .collect();
                let (mut xt, mut yt) = (vec![0.0; m], vec![0.0; m]);
                let mut plain = words.clone();
                job_body(&chip, lanes, &mut plain, &mut xt, &mut yt);
                let mut dispatched = words.clone();
                run_job(&chip, lanes, &mut dispatched, &mut xt, &mut yt);
                assert_eq!(plain, dispatched, "n={n} lanes={lanes}: {build:?} build");
                if n == 1 {
                    tied += yt
                        .iter()
                        .filter(|y| (*y * crate::fixed::SCALE).fract().abs() == 0.5)
                        .count();
                }
                saturated += plain
                    .iter()
                    .filter(|&&w| w == i32::MAX as u32 || w == i32::MIN as u32)
                    .count();
                // Aliased windows take the per-word path.
                let mut dev = base.clone();
                let mut spm = Ram::new(0, 4 * m);
                spm.poke_words(0, &words);
                dev.mmr_store(mmr::BATCH, lanes as u32, 0, &mut spm);
                assert!(dev.start(0, &mut spm));
                assert_eq!(spm.peek_words(0, m).unwrap(), plain, "n={n} lanes={lanes}");
            }
        }
        assert!(tied > 20, "only {tied} outputs landed on ±½-LSB ties");
        assert!(saturated > 20, "only {saturated} outputs saturated");
    }

    #[test]
    fn watchdog_aborts_overdue_job() {
        let mut d = device_with_identity(4);
        let mut spm = Ram::new(0, 4096);
        d.setup_cycles = 1000; // job takes >> watchdog
        d.mmr_store(mmr::WATCHDOG, 5, 0, &mut spm);
        d.mmr_store(mmr::IRQ_ENABLE, 2, 0, &mut spm); // error IRQ only
        d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
        assert!(d.start(0, &mut spm));
        assert!(!d.tick(4), "before the deadline");
        assert!(d.tick(5), "watchdog abort raises the error IRQ");
        assert!(d.is_done(), "done still rises so polling hosts survive");
        assert!(!d.is_busy());
        assert_eq!(d.error_bits() & errcode::WATCHDOG, errcode::WATCHDOG);
        assert!(d.error_irq_line());
        assert_eq!(d.mmr_load(mmr::WATCHDOG), 5);
    }

    #[test]
    fn error_register_writes_accumulate_and_clear() {
        let mut d = device_with_identity(2);
        let mut spm = Ram::new(0, 4096);
        d.mmr_store(mmr::ERROR, errcode::CHECKSUM, 0, &mut spm);
        d.mmr_store(mmr::ERROR, errcode::WATCHDOG | 0xFFFF_FF00, 0, &mut spm);
        assert_eq!(
            d.mmr_load(mmr::ERROR),
            errcode::CHECKSUM | errcode::WATCHDOG,
            "writes OR in, masked to defined bits"
        );
        assert!(!d.error_irq_line(), "error IRQ masked by default");
        d.mmr_store(mmr::IRQ_ENABLE, 2, 0, &mut spm);
        assert!(d.error_irq_line());
        d.mmr_store(mmr::CTRL, 4, 0, &mut spm);
        assert_eq!(d.mmr_load(mmr::ERROR), 0);
        assert!(!d.error_irq_line());
    }

    /// The chip a drift model should leave after `elapsed_s` seconds:
    /// every cell aged through `drift_fraction`, then re-composed.
    fn direct_drift(fresh: &RealizedMvm, elapsed_s: f64, nu: f64) -> RMatrix {
        use neuropulsim_photonics::pcm::drift_fraction;
        let aged: Vec<f64> = fresh
            .attenuation()
            .iter()
            .map(|&a| 1.0 - drift_fraction((1.0 - a).clamp(0.0, 1.0), elapsed_s, nu))
            .collect();
        let mut direct = fresh.clone();
        direct.set_attenuation(&aged);
        direct.effective_matrix()
    }

    #[test]
    fn hostile_drift_models_keep_jobs_exact_and_the_chip_finite() {
        let w = RMatrix::from_fn(6, 6, |i, j| ((7 * i + 3 * j) as f64).sin());
        let fresh = MvmCore::new(&w).chip().clone();
        let bits = |m: &RMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let all = |a: f64| {
            let mut c = fresh.clone();
            c.set_attenuation(&[a; 6]);
            c.effective_matrix()
        };
        let (dark, open) = (all(0.0), all(1.0));
        let spc = 1e-3;
        for nu in [0.0, -0.01, 0.01, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for initial_age_s in [
                0.0,
                -5.0,
                f64::NAN,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::MAX,
            ] {
                let case = format!("nu {nu}, initial age {initial_age_s}");
                let mut d = AccelDevice::new(1e9);
                d.load_matrix(&w);
                d.enable_drift(PcmDriftModel {
                    nu,
                    seconds_per_cycle: spc,
                    initial_age_s,
                    ..PcmDriftModel::default()
                });
                let mut spm = Ram::new(0, 4096);
                d.mmr_store(mmr::IN_ADDR, 0x100, 0, &mut spm);
                d.mmr_store(mmr::OUT_ADDR, 0x800, 0, &mut spm);
                d.mmr_store(mmr::BATCH, 4, 0, &mut spm);
                // The drift law's rule for elapsed time: an infinite age
                // saturates like the largest finite one, and NaN or a
                // negative age reads as freshly programmed.
                let mut age = match initial_age_s {
                    a if a.is_nan() || a < 0.0 => 0.0,
                    f64::INFINITY => f64::MAX,
                    a => a,
                };
                let mut programmed_at = 0u64;
                for (i, now) in [0u64, 1, 1_000, 1_000_000, 1_000_000_000_000]
                    .into_iter()
                    .enumerate()
                {
                    if i == 3 {
                        // Recalibrate mid-run: the chip is as loaded, bit
                        // for bit, and the weights age from here.
                        d.mmr_store(mmr::CTRL, 8, now - 500, &mut spm);
                        d.tick(now - 500 + d.recal_cycles);
                        d.mmr_store(mmr::CTRL, 2, 0, &mut spm);
                        let chip = d.chip.as_ref().unwrap().effective_matrix();
                        assert_eq!(bits(&chip), bits(&fresh.effective_matrix()), "{case}");
                        (age, programmed_at) = (0.0, now - 500);
                    }
                    assert!(d.start(now, &mut spm), "{case}, job at {now}");
                    d.tick(now + d.job_cycles(4));
                    d.mmr_store(mmr::CTRL, 2, 0, &mut spm);
                    let chip = d.chip.as_ref().unwrap().effective_matrix();
                    assert!(
                        chip.as_slice().iter().all(|x| x.is_finite()),
                        "{case}, {now}"
                    );
                    let elapsed = age + (now - programmed_at) as f64 * spc;
                    let want = direct_drift(&fresh, elapsed, nu);
                    assert!(chip.approx_eq(&want, 1e-8), "{case}, job at {now}");
                    // Every cell saturated: dark when the fractions grow,
                    // open (amplitude 1) when they shrink.
                    let offset = drift_offset(elapsed, nu);
                    if offset >= 1.0 {
                        assert!(chip.approx_eq(&dark, 1e-8), "{case}, {now}: all dark");
                    } else if offset <= -1.0 {
                        assert!(chip.approx_eq(&open, 1e-8), "{case}, {now}: all open");
                    }
                }
            }
        }
    }

    #[test]
    fn drift_perturbs_results_and_recalibration_restores_them() {
        // Weights programmed ~30 simulated years before boot (the
        // non-volatile worst case), then a 1 ns/cycle clock: stale until
        // recalibration resets the age, after which re-drift over a few
        // hundred cycles is negligible.
        let drift = PcmDriftModel {
            nu: 0.05,
            seconds_per_cycle: 1e-9,
            initial_age_s: 1e9,
            ..PcmDriftModel::default()
        };
        let run_job = |d: &mut AccelDevice, now: u64| -> Vec<f64> {
            let mut spm = Ram::new(0, 4096);
            for k in 0..4u32 {
                spm.poke(0x100 + 4 * k, to_fixed(1.0) as u32).unwrap();
            }
            d.mmr_store(mmr::IN_ADDR, 0x100, 0, &mut spm);
            d.mmr_store(mmr::OUT_ADDR, 0x200, 0, &mut spm);
            d.mmr_store(mmr::BATCH, 1, 0, &mut spm);
            assert!(d.start(now, &mut spm));
            d.tick(now + d.job_cycles(1));
            d.mmr_store(mmr::CTRL, 2, 0, &mut spm);
            (0..4u32)
                .map(|k| from_fixed(spm.peek(0x200 + 4 * k).unwrap() as i32))
                .collect()
        };

        let mut d = device_with_identity(4);
        let fresh = run_job(&mut d, 0);
        for v in &fresh {
            assert!((v - 1.0).abs() < 1e-3, "fresh weights are accurate: {v}");
        }
        // Turn retention loss on: the aged identity has sagged visibly.
        d.enable_drift(drift);
        let stale = run_job(&mut d, 100_000);
        assert!(
            stale.iter().any(|v| (v - 1.0).abs() > 0.05),
            "drift must degrade the job: {stale:?}"
        );
        // Recalibrate: reprogram the attenuators, busy for recal_cycles.
        let e0 = d.energy();
        let mut spm = Ram::new(0, 4096);
        d.mmr_store(mmr::CTRL, 8, 100_100, &mut spm);
        assert!(d.recal_in_flight, "recal is not a job start");
        assert_eq!(d.vectors_processed, 2);
        d.tick(100_100 + d.recal_cycles);
        assert!(d.is_done());
        d.mmr_store(mmr::CTRL, 2, 0, &mut spm);
        assert_eq!(d.recal_count(), 1);
        assert_eq!(d.mmr_load(mmr::RECAL_COUNT), 1);
        assert!(d.energy() > e0, "recal burns PCM programming pulses");
        // Accuracy is restored right after reprogramming.
        let recovered = run_job(&mut d, 100_400);
        for v in &recovered {
            assert!((v - 1.0).abs() < 1e-2, "recalibrated weights: {v}");
        }
    }
}
