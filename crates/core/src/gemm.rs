//! Generalized matrix–matrix multiplication (GeMM) on the MVM core, via
//! time-division multiplexing (TDM) or dense wavelength-division
//! multiplexing (DWDM) — the paper's §4: "processing those either via
//! time-division multiplexing or through encoding into multiple dense
//! wavelength division multiplexed channels that can be processed in
//! parallel in a single multiport interferometer without incurring
//! additional resource costs".

use crate::abft::{AbftReport, AbftWeights, ColumnCheck};
use crate::mvm::{MvmCore, MvmNoiseConfig};
use neuropulsim_linalg::RMatrix;
use neuropulsim_photonics::energy::{EnergyLedger, TechnologyProfile};
use rand::Rng;

/// How input-matrix columns are streamed through the interferometer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmMode {
    /// One column per symbol slot, sequentially.
    Tdm,
    /// `channels` columns in parallel on distinct wavelengths, with
    /// optional inter-channel crosstalk.
    Wdm {
        /// Number of DWDM channels.
        channels: usize,
    },
}

impl GemmMode {
    /// The parallelism factor of this mode.
    pub fn parallelism(&self) -> usize {
        match self {
            GemmMode::Tdm => 1,
            GemmMode::Wdm { channels } => (*channels).max(1),
        }
    }
}

/// Latency/energy estimate of one GeMM execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmSchedule {
    /// Number of symbol slots needed.
    pub symbol_slots: usize,
    /// Wall-clock time \[s\].
    pub time_s: f64,
    /// Multiply–accumulate operations performed.
    pub macs: u64,
    /// Throughput \[MAC/s\].
    pub macs_per_second: f64,
    /// Energy breakdown.
    pub energy: EnergyLedger,
    /// Energy per MAC \[J\].
    pub energy_per_mac: f64,
}

/// Reusable buffers for column streaming: the input column and the raw
/// outputs of the symbol group in flight (`[channel][row]`, flattened).
#[derive(Debug, Clone)]
struct GemmScratch {
    col: Vec<f64>,
    results: Vec<f64>,
}

impl GemmScratch {
    fn new(n: usize, par: usize) -> Self {
        GemmScratch {
            col: vec![0.0; n],
            results: vec![0.0; par * n],
        }
    }

    /// Output row `r` of in-group channel `gi` after adjacent-channel
    /// crosstalk mixing across the `width` live channels.
    fn mixed(&self, gi: usize, r: usize, width: usize, crosstalk: f64) -> f64 {
        let n = self.col.len();
        let mut v = self.results[gi * n + r];
        if crosstalk > 0.0 {
            if gi > 0 {
                v += crosstalk * self.results[(gi - 1) * n + r];
            }
            if gi + 1 < width {
                v += crosstalk * self.results[(gi + 1) * n + r];
            }
        }
        v
    }
}

/// A GeMM engine wrapping an [`MvmCore`].
#[derive(Debug, Clone)]
pub struct GemmEngine {
    core: MvmCore,
    mode: GemmMode,
    /// Field-amplitude crosstalk between adjacent WDM channels (0 = none).
    crosstalk: f64,
    /// Fractional phase-scaling step per WDM channel offset from the
    /// design wavelength (chromatic dispersion; 0 = achromatic mesh).
    dispersion: f64,
}

impl GemmEngine {
    /// Creates an engine streaming in the given mode with no crosstalk.
    pub fn new(core: MvmCore, mode: GemmMode) -> Self {
        GemmEngine {
            core,
            mode,
            crosstalk: 0.0,
            dispersion: 0.0,
        }
    }

    /// Sets the adjacent-channel crosstalk amplitude (WDM only),
    /// builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `crosstalk` is not in `[0, 1)`.
    pub fn with_crosstalk(mut self, crosstalk: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&crosstalk),
            "crosstalk must be in [0, 1)"
        );
        self.crosstalk = crosstalk;
        self
    }

    /// Sets the per-channel fractional phase-scaling step (chromatic
    /// dispersion), builder-style. A 100 GHz DWDM grid at 1550 nm has a
    /// fractional wavelength step of ~5.2e-4; a phase built from a path
    /// difference scales by the same fraction.
    ///
    /// # Panics
    ///
    /// Panics if `per_channel_step` is not finite.
    pub fn with_dispersion(mut self, per_channel_step: f64) -> Self {
        assert!(
            per_channel_step.is_finite(),
            "dispersion step must be finite"
        );
        self.dispersion = per_channel_step;
        self
    }

    /// The wrapped MVM core.
    pub fn core(&self) -> &MvmCore {
        &self.core
    }

    /// The streaming mode.
    pub fn mode(&self) -> GemmMode {
        self.mode
    }

    /// Computes `W * X` where `W` is the programmed matrix and `X` has one
    /// input vector per column, through the ideal optical path. In WDM
    /// mode, adjacent in-flight channels leak `crosstalk` of their
    /// amplitude into each other.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != core.modes()`.
    pub fn matmul(&self, x: &RMatrix) -> RMatrix {
        assert_eq!(x.rows(), self.core.modes(), "matmul: dimension mismatch");
        let n = self.core.modes();
        let cols = x.cols();
        let par = self.mode.parallelism();
        let channel_matrices = self.channel_matrices();
        let mut out = RMatrix::zeros(n, cols);
        let mut scratch = GemmScratch::new(n, par);
        let mut group_start = 0;
        while group_start < cols {
            let group_end = (group_start + par).min(cols);
            self.run_group(x, group_start, group_end, &channel_matrices, &mut scratch);
            for (gi, c) in (group_start..group_end).enumerate() {
                for r in 0..n {
                    out[(r, c)] = scratch.mixed(gi, r, group_end - group_start, self.crosstalk);
                }
            }
            group_start = group_end;
        }
        out
    }

    /// Per-channel effective matrices under dispersion (channel offsets
    /// centered on the design wavelength); `None` when achromatic.
    fn channel_matrices(&self) -> Option<Vec<RMatrix>> {
        let par = self.mode.parallelism();
        if self.dispersion != 0.0 && par > 1 {
            Some(
                (0..par)
                    .map(|ch| {
                        let offset = ch as f64 - (par as f64 - 1.0) / 2.0;
                        self.core.dispersed_matrix(1.0 + self.dispersion * offset)
                    })
                    .collect(),
            )
        } else {
            None
        }
    }

    /// Streams the columns of one symbol group through the core, leaving
    /// the raw per-channel outputs in `scratch`. Columns of a group fly
    /// simultaneously; crosstalk mixing happens afterwards on the
    /// *outputs* (detector-plane mixing of demultiplexed channels) via
    /// [`GemmScratch::mixed`].
    fn run_group(
        &self,
        x: &RMatrix,
        group_start: usize,
        group_end: usize,
        channel_matrices: &Option<Vec<RMatrix>>,
        scratch: &mut GemmScratch,
    ) {
        let n = self.core.modes();
        for (gi, c) in (group_start..group_end).enumerate() {
            for r in 0..n {
                scratch.col[r] = x[(r, c)];
            }
            let y = &mut scratch.results[gi * n..(gi + 1) * n];
            match channel_matrices {
                Some(mats) => mats[gi].mul_vec_into(&scratch.col, y),
                None => self.core.multiply_into(&scratch.col, y),
            }
        }
    }

    /// Same as [`GemmEngine::matmul`] but through one sampled noisy
    /// hardware instance.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != core.modes()`.
    pub fn matmul_noisy<R: Rng + ?Sized>(
        &self,
        x: &RMatrix,
        config: &MvmNoiseConfig,
        rng: &mut R,
    ) -> RMatrix {
        assert_eq!(x.rows(), self.core.modes(), "matmul: dimension mismatch");
        let n = self.core.modes();
        let instance = self.core.realize(config, rng);
        let cols = x.cols();
        let mut out = RMatrix::zeros(n, cols);
        let mut col = vec![0.0; n];
        let mut y = vec![0.0; n];
        for c in 0..cols {
            for r in 0..n {
                col[r] = x[(r, c)];
            }
            instance.multiply_noisy_into(&col, &mut y, rng);
            for r in 0..n {
                out[(r, c)] = y[r];
            }
        }
        out
    }

    /// The ABFT checksum rows of the programmed matrix, for guarding
    /// offloads of this engine (see [`crate::abft`]).
    pub(crate) fn abft_weights(&self) -> AbftWeights {
        AbftWeights::new(self.core.target())
    }

    /// [`GemmEngine::matmul_noisy`] with per-column ABFT verification and
    /// single-element repair: every output column is checked against the
    /// checksum rows of the *target* matrix within `tolerance`,
    /// correctable columns are repaired in place, and the verdict tally
    /// is returned alongside the (possibly repaired) output.
    ///
    /// With an ideal noise config the report is all-clean; as noise grows
    /// past what `tolerance` absorbs, columns migrate to
    /// corrected/corrupt — the same clean/correctable/corrupt taxonomy
    /// the guarded firmware applies on-device.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != core.modes()`.
    pub fn matmul_noisy_checked<R: Rng + ?Sized>(
        &self,
        x: &RMatrix,
        config: &MvmNoiseConfig,
        rng: &mut R,
        tolerance: f64,
    ) -> (RMatrix, AbftReport) {
        let weights = self.abft_weights();
        let mut out = self.matmul_noisy(x, config, rng);
        let n = self.core.modes();
        let mut report = AbftReport::default();
        let mut col = vec![0.0; n];
        let mut y = vec![0.0; n];
        for c in 0..x.cols() {
            for r in 0..n {
                col[r] = x[(r, c)];
                y[r] = out[(r, c)];
            }
            match weights.check(&col, &y, tolerance) {
                ColumnCheck::Clean => report.clean += 1,
                verdict @ ColumnCheck::Correctable { .. } => {
                    weights.correct(&mut y, &verdict);
                    for r in 0..n {
                        out[(r, c)] = y[r];
                    }
                    report.corrected += 1;
                }
                ColumnCheck::Corrupt => report.corrupt += 1,
            }
        }
        (out, report)
    }

    /// Estimates the latency and energy of multiplying an `n x cols` input
    /// under the given technology profile.
    ///
    /// WDM parallelism divides the slot count but multiplies the per-slot
    /// laser and modulator counts — the mesh itself is shared for free,
    /// which is exactly the resource argument the paper makes.
    pub fn schedule(&self, cols: usize, tech: &TechnologyProfile) -> GemmSchedule {
        let n = self.core.modes();
        let par = self.mode.parallelism();
        let symbol_slots = cols.div_ceil(par);
        let time_s = symbol_slots as f64 / tech.symbol_rate;
        let macs = (n as u64) * (n as u64) * cols as u64;

        let mut energy = EnergyLedger::new();
        // Laser supplies `n` carriers per active wavelength channel.
        energy.add("laser", tech.laser_power(n * par) * time_s);
        // One modulator symbol per input element actually streamed.
        energy.add(
            "modulators",
            tech.modulator_energy_per_symbol * (n * cols) as f64,
        );
        // One receiver sample per output element.
        energy.add(
            "receivers",
            tech.receiver_energy_per_sample * (n * cols) as f64,
        );
        // DAC work to drive the modulators.
        energy.add("dac", tech.dac_energy_per_sample * (n * cols) as f64);

        let total = energy.total();
        GemmSchedule {
            symbol_slots,
            time_s,
            macs,
            macs_per_second: macs as f64 / time_s.max(f64::MIN_POSITIVE),
            energy_per_mac: total / macs.max(1) as f64,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropulsim_linalg::metrics::mse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> RMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        RMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn tdm_matmul_matches_digital() {
        let w = random_matrix(4, 4, 1);
        let x = random_matrix(4, 7, 2);
        let engine = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm);
        let got = engine.matmul(&x);
        let want = w.mul_mat(&x);
        assert!(mse(got.as_slice(), want.as_slice()) < 1e-16);
    }

    #[test]
    fn wdm_without_crosstalk_matches_tdm() {
        let w = random_matrix(4, 4, 3);
        let x = random_matrix(4, 6, 4);
        let tdm = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).matmul(&x);
        let wdm = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 4 }).matmul(&x);
        assert!(mse(tdm.as_slice(), wdm.as_slice()) < 1e-18);
    }

    #[test]
    fn crosstalk_perturbs_wdm_results() {
        let w = random_matrix(4, 4, 5);
        let x = random_matrix(4, 8, 6);
        let clean = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 4 }).matmul(&x);
        let dirty = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 4 })
            .with_crosstalk(0.05)
            .matmul(&x);
        let err = mse(clean.as_slice(), dirty.as_slice());
        assert!(err > 0.0, "crosstalk must perturb");
        assert!(err < 0.5, "but moderately");
    }

    #[test]
    fn wdm_parallelism_cuts_latency() {
        let w = random_matrix(8, 8, 7);
        let tech = TechnologyProfile::default();
        let tdm = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).schedule(64, &tech);
        let wdm =
            GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 8 }).schedule(64, &tech);
        assert_eq!(tdm.symbol_slots, 64);
        assert_eq!(wdm.symbol_slots, 8);
        assert!((tdm.time_s / wdm.time_s - 8.0).abs() < 1e-9);
        assert!(wdm.macs_per_second > tdm.macs_per_second);
        assert_eq!(tdm.macs, wdm.macs);
    }

    #[test]
    fn wdm_does_not_increase_modulator_energy_per_mac() {
        // Same number of symbols encoded either way.
        let w = random_matrix(8, 8, 8);
        let tech = TechnologyProfile::default();
        let tdm = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).schedule(32, &tech);
        let wdm =
            GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 4 }).schedule(32, &tech);
        assert!((tdm.energy.get("modulators") - wdm.energy.get("modulators")).abs() < 1e-18);
        // Laser energy is the same too: more channels for less time.
        assert!((tdm.energy.get("laser") - wdm.energy.get("laser")).abs() < 1e-15);
    }

    #[test]
    fn schedule_macs_accounting() {
        let w = random_matrix(4, 4, 9);
        let tech = TechnologyProfile::default();
        let s = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).schedule(10, &tech);
        assert_eq!(s.macs, 4 * 4 * 10);
        assert!(s.energy_per_mac > 0.0);
        assert!(s.energy.total() > 0.0);
    }

    #[test]
    fn noisy_matmul_stays_close_for_small_noise() {
        let w = random_matrix(4, 4, 10);
        let x = random_matrix(4, 5, 11);
        let engine = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm);
        let config = MvmNoiseConfig {
            readout_sigma: 1e-4,
            ..MvmNoiseConfig::ideal()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let noisy = engine.matmul_noisy(&x, &config, &mut rng);
        let clean = engine.matmul(&x);
        assert!(mse(noisy.as_slice(), clean.as_slice()) < 1e-4);
    }

    #[test]
    fn dispersion_perturbs_off_center_channels() {
        let w = random_matrix(4, 4, 20);
        let x = random_matrix(4, 8, 21);
        let reference = w.mul_mat(&x);
        let clean = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 8 }).matmul(&x);
        assert!(mse(clean.as_slice(), reference.as_slice()) < 1e-18);
        let dispersed = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 8 })
            .with_dispersion(5e-3)
            .matmul(&x);
        let err = mse(dispersed.as_slice(), reference.as_slice());
        assert!(err > 1e-10, "dispersion must perturb, err {err}");
        // Stronger dispersion, larger error.
        let worse = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 8 })
            .with_dispersion(2e-2)
            .matmul(&x);
        assert!(mse(worse.as_slice(), reference.as_slice()) > err);
    }

    #[test]
    fn dispersion_leaves_tdm_untouched() {
        let w = random_matrix(4, 4, 22);
        let x = random_matrix(4, 5, 23);
        let a = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).matmul(&x);
        let b = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm)
            .with_dispersion(1e-2)
            .matmul(&x);
        assert!(mse(a.as_slice(), b.as_slice()) < 1e-30);
    }

    #[test]
    fn checked_matmul_is_clean_when_ideal_and_repairs_single_errors() {
        let w = random_matrix(6, 6, 40);
        let x = random_matrix(6, 9, 41);
        let engine = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm);
        let config = MvmNoiseConfig::ideal();
        let mut rng = StdRng::seed_from_u64(42);
        let (out, report) = engine.matmul_noisy_checked(&x, &config, &mut rng, 1e-6);
        assert_eq!(report.clean, 9);
        assert!(report.all_clean());
        assert!(mse(out.as_slice(), w.mul_mat(&x).as_slice()) < 1e-18);

        // A single-element corruption is found and repaired offline too.
        let weights = engine.abft_weights();
        let col: Vec<f64> = (0..6).map(|r| x[(r, 3)]).collect();
        let mut y = w.mul_vec(&col);
        y[4] += 0.9;
        let verdict = weights.check(&col, &y, 1e-6);
        assert!(matches!(
            verdict,
            crate::abft::ColumnCheck::Correctable { row: 4, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "crosstalk")]
    fn rejects_bad_crosstalk() {
        let w = random_matrix(2, 2, 13);
        let _ = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).with_crosstalk(1.0);
    }

    #[test]
    #[should_panic(expected = "dispersion step must be finite")]
    fn rejects_non_finite_dispersion() {
        let w = random_matrix(2, 2, 13);
        let _ = GemmEngine::new(MvmCore::new(&w), GemmMode::Tdm).with_dispersion(f64::NAN);
    }
}
