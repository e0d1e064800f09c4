//! Phase-change material (PCM) models: optical constants, crystalline-
//! fraction dynamics, multilevel programming and drift.
//!
//! The paper's §3 proposes non-volatile phase shifters built from PCM
//! patches (GSST, GeSe, GST) over the waveguide, programmed by heater
//! pulses. A patch's state is its *crystalline fraction* `x in [0, 1]`;
//! the effective complex permittivity interpolates between the amorphous
//! and crystalline phases through Lorentz–Lorenz (Clausius–Mossotti)
//! mixing. The real-index contrast `dn` gives a programmable phase, the
//! imaginary contrast `dk` gives state-dependent absorption, and the
//! figure of merit `FOM = dn/dk` (larger is better) is the quantity the
//! paper optimizes material choice for.

use neuropulsim_linalg::C64;

/// Phase-change materials discussed in the paper (§3) with literature
/// complex refractive indices around 1550 nm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcmMaterial {
    /// Ge2Sb2Te5 — large index contrast but lossy in the crystalline phase.
    Gst225,
    /// Ge-Sb-Se-Te ("GSST") — contrast comparable to GST at far lower loss.
    Gsst,
    /// GeSe — modest contrast, nearly lossless in both phases.
    GeSe,
}

impl PcmMaterial {
    /// Complex refractive index `n + i k` of the amorphous phase at 1550 nm.
    pub(crate) fn amorphous_index(&self) -> C64 {
        match self {
            PcmMaterial::Gst225 => C64::new(3.94, 0.045),
            PcmMaterial::Gsst => C64::new(3.47, 0.0002),
            PcmMaterial::GeSe => C64::new(2.44, 0.0005),
        }
    }

    /// Complex refractive index `n + i k` of the crystalline phase at 1550 nm.
    pub(crate) fn crystalline_index(&self) -> C64 {
        match self {
            PcmMaterial::Gst225 => C64::new(6.11, 0.83),
            PcmMaterial::Gsst => C64::new(4.86, 0.18),
            PcmMaterial::GeSe => C64::new(2.97, 0.0035),
        }
    }

    /// Real index contrast `dn = n_c - n_a`.
    pub fn delta_n(&self) -> f64 {
        self.crystalline_index().re - self.amorphous_index().re
    }

    /// Extinction contrast `dk = k_c - k_a`.
    pub fn delta_k(&self) -> f64 {
        self.crystalline_index().im - self.amorphous_index().im
    }

    /// Figure of merit `FOM = dn / dk` (paper §3). Higher means more phase
    /// per unit of added absorption.
    pub fn figure_of_merit(&self) -> f64 {
        self.delta_n() / self.delta_k()
    }

    /// Effective complex refractive index at crystalline fraction
    /// `x in [0, 1]` via Lorentz–Lorenz mixing of the permittivities.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn effective_index(&self, x: f64) -> C64 {
        assert!(
            (0.0..=1.0).contains(&x),
            "crystalline fraction must be in [0, 1], got {x}"
        );
        let eps_a = square(self.amorphous_index());
        let eps_c = square(self.crystalline_index());
        let ll = |eps: C64| (eps - C64::ONE) / (eps + C64::real(2.0));
        let mixed = ll(eps_c) * x + ll(eps_a) * (1.0 - x);
        // Invert the Lorentz-Lorenz relation: eps = (1 + 2 L) / (1 - L).
        let eps = (C64::ONE + mixed * 2.0) / (C64::ONE - mixed);
        eps.sqrt()
    }
}

fn square(z: C64) -> C64 {
    z * z
}

/// The normalized power-transmission grid of an amplitude-mode PCM cell
/// with `levels` states: entry `l` is the cell's power transmission at
/// level `l` divided by its amorphous (fully transparent) transmission.
/// The patch is sized for ~10% power transmission at full crystallization
/// (a usable attenuator dynamic range), matching the sizing used for SNN
/// synapses. Monotone decreasing from 1.0.
///
/// # Panics
///
/// Panics if `levels < 2`.
pub fn transmission_levels(material: PcmMaterial, levels: u32) -> Vec<f64> {
    assert!(levels >= 2, "need at least 2 levels");
    let gamma = 0.3;
    let lambda = crate::units::TELECOM_WAVELENGTH;
    let k_c = material.effective_index(1.0).im.max(1e-6);
    let target_field_t: f64 = 0.316;
    let patch_length = -target_field_t.ln() * lambda / (std::f64::consts::TAU * gamma * k_c);
    let transmission = |x: f64| -> f64 {
        let k = material.effective_index(x).im;
        (-2.0 * std::f64::consts::TAU / lambda * gamma * k * patch_length).exp()
    };
    let t0 = transmission(0.0);
    let mut grid: Vec<f64> = (0..levels)
        .map(|l| transmission(l as f64 / (levels - 1) as f64) / t0)
        .collect();
    // The physics gives a strictly decreasing grid; enforce it exactly so
    // downstream level search / dedup can rely on strict order even where
    // adjacent levels of a fine grid would collide at f64 precision.
    for l in 1..grid.len() {
        if grid[l] >= grid[l - 1] {
            grid[l] = grid[l - 1] * (1.0 - 1e-15);
        }
    }
    grid
}

/// Programming-energy and timing parameters of a PCM cell.
///
/// Values follow the ballpark of integrated GST/GSST demonstrations cited
/// by the paper (Feldmann 2019/2021, Zhou 2023): nanosecond-scale pulses,
/// sub-nanojoule partial crystallization, and a full RESET melt-quench
/// pulse costing more than a SET step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcmProgramming {
    /// Energy of one partial-crystallization (SET) pulse \[J\].
    pub set_pulse_energy: f64,
    /// Energy of a melt-quench amorphization (RESET) pulse \[J\].
    pub reset_pulse_energy: f64,
    /// Duration of a SET pulse \[s\].
    pub set_pulse_duration: f64,
    /// Duration of a RESET pulse \[s\].
    pub reset_pulse_duration: f64,
    /// Crystalline-fraction increment produced by one SET pulse.
    pub set_step: f64,
}

impl Default for PcmProgramming {
    fn default() -> Self {
        PcmProgramming {
            set_pulse_energy: 0.4e-9,
            reset_pulse_energy: 1.2e-9,
            set_pulse_duration: 10e-9,
            reset_pulse_duration: 25e-9,
            set_step: 1.0 / 32.0,
        }
    }
}

/// A programmable PCM cell: crystalline fraction plus accumulated
/// programming-cost bookkeeping.
///
/// The *accumulation* behaviour the paper highlights for spiking synapses —
/// each pulse nudges the fraction by a partial step until saturation — is
/// modelled by [`PcmCell::apply_set_pulse`].
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::pcm::{PcmCell, PcmMaterial};
///
/// let mut cell = PcmCell::new(PcmMaterial::Gsst);
/// assert_eq!(cell.crystalline_fraction(), 0.0);
/// for _ in 0..8 {
///     cell.apply_set_pulse();
/// }
/// assert!(cell.crystalline_fraction() > 0.2);
/// cell.reset();
/// assert_eq!(cell.crystalline_fraction(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmCell {
    material: PcmMaterial,
    programming: PcmProgramming,
    fraction: f64,
    programming_energy: f64,
    pulse_count: u64,
}

impl PcmCell {
    /// Creates a fully amorphous cell with default programming parameters.
    pub fn new(material: PcmMaterial) -> Self {
        PcmCell::with_programming(material, PcmProgramming::default())
    }

    /// Creates a cell with explicit programming parameters.
    pub fn with_programming(material: PcmMaterial, programming: PcmProgramming) -> Self {
        PcmCell {
            material,
            programming,
            fraction: 0.0,
            programming_energy: 0.0,
            pulse_count: 0,
        }
    }

    /// The cell's material.
    pub fn material(&self) -> PcmMaterial {
        self.material
    }

    /// Current crystalline fraction in `[0, 1]`.
    pub fn crystalline_fraction(&self) -> f64 {
        self.fraction
    }

    /// Total programming energy spent so far \[J\].
    pub fn programming_energy(&self) -> f64 {
        self.programming_energy
    }

    /// Total number of programming pulses applied.
    pub fn pulse_count(&self) -> u64 {
        self.pulse_count
    }

    /// Applies one partial-crystallization pulse (accumulative SET).
    /// The fraction saturates at 1.
    pub fn apply_set_pulse(&mut self) {
        self.fraction = (self.fraction + self.programming.set_step).min(1.0);
        self.programming_energy += self.programming.set_pulse_energy;
        self.pulse_count += 1;
    }

    /// Melt-quench amorphization: returns the cell to `x = 0`.
    pub fn reset(&mut self) {
        self.fraction = 0.0;
        self.programming_energy += self.programming.reset_pulse_energy;
        self.pulse_count += 1;
    }

    /// Programs the cell to the level `level` out of `levels` equally
    /// spaced states (`level = levels - 1` is fully crystalline), charging
    /// the energy of the pulses actually needed from the current state.
    ///
    /// Moving *down* requires a RESET followed by SET pulses (melt-quench
    /// erases, then re-crystallize), matching iterative-program practice.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `level >= levels`.
    pub fn program_level(&mut self, level: u32, levels: u32) {
        assert!(levels >= 2, "need at least 2 levels");
        assert!(level < levels, "level {level} out of range for {levels}");
        let target = level as f64 / (levels - 1) as f64;
        if target < self.fraction - 1e-12 {
            self.reset();
        }
        while self.fraction + 1e-12 < target {
            self.apply_set_pulse();
            if self.fraction >= 1.0 {
                break;
            }
        }
        // Snap exactly onto the quantized state (the iterative write loop
        // with feedback converges to it in practice).
        self.fraction = target;
    }

    /// Total time spent programming so far \[s\] (pulse durations summed;
    /// an upper bound since RESET and SET pulses never overlap).
    pub fn programming_time(&self) -> f64 {
        // Approximate: attribute SET duration to every pulse except resets;
        // we only track the count, so use the mean of the two durations.
        let mean =
            0.5 * (self.programming.set_pulse_duration + self.programming.reset_pulse_duration);
        self.pulse_count as f64 * mean
    }

    /// Effective complex index of the patch at its current state.
    pub fn effective_index(&self) -> C64 {
        self.material.effective_index(self.fraction)
    }

    /// Sets the crystalline fraction directly, without charging any
    /// programming energy — the hook for device models that mirror an
    /// externally-tracked state into a cell (e.g. the accelerator's
    /// drift model seeding cells from attenuator settings). The value is
    /// clamped to `[0, 1]`; `NaN` maps to the amorphous state (the same
    /// policy the fixed-point DAC path applies to `NaN` samples).
    pub fn set_state(&mut self, fraction: f64) {
        self.fraction = if fraction.is_nan() {
            0.0
        } else {
            fraction.clamp(0.0, 1.0)
        };
    }

    /// Applies resistance/index *drift* through [`drift_fraction`]. A
    /// small effect for GSST but a real accuracy hazard for multi-level
    /// storage; exposed so experiments can toggle it (E3 ablation).
    pub fn apply_drift(&mut self, elapsed_s: f64, nu: f64) {
        self.fraction = drift_fraction(self.fraction, elapsed_s, nu);
    }
}

/// The PCM drift law: amorphous-phase structural relaxation shifts a
/// crystalline `fraction` toward crystalline by `nu * ln(1 + t / tau)`
/// after `elapsed_s` seconds (`tau` = 1 s). Every drifting PCM model —
/// [`PcmCell::apply_drift`], the accelerator's attenuators, the mesh
/// drift campaign — ages through this one function.
///
/// Total function for arbitrary inputs: negative elapsed time is
/// treated as zero (no un-drifting), `+inf` saturates, and a `NaN`
/// shift (e.g. `nu = NaN`) returns `fraction` untouched — a fraction in
/// `[0, 1]` stays there for every `(elapsed_s, nu)`.
pub fn drift_fraction(fraction: f64, elapsed_s: f64, nu: f64) -> f64 {
    let next = fraction + drift_offset(elapsed_s, nu);
    if next.is_nan() {
        fraction
    } else {
        next.clamp(0.0, 1.0)
    }
}

/// The unclamped fraction shift `nu * ln(1 + t / tau)` of the drift law
/// after `elapsed_s` seconds: [`drift_fraction`] adds it to a fraction
/// and clamps. The shift is the same for every cell of one `nu`, so a
/// column of cells ages by one number (the affine chip update,
/// `neuropulsim_core::mvm::RealizedMvm::drift_to`).
///
/// Negative or `NaN` elapsed time reads as zero and `+inf` as
/// `f64::MAX`, so `ln(1 + t)` is always finite (at most ~709.8); the
/// shift is non-finite only through `nu` (`NaN`, `±inf`, or `inf · 0`).
pub fn drift_offset(elapsed_s: f64, nu: f64) -> f64 {
    let tau = 1.0; // normalization time: 1 s
    let t = if elapsed_s.is_finite() {
        (elapsed_s / tau).max(0.0)
    } else if elapsed_s > 0.0 {
        f64::MAX
    } else {
        0.0
    };
    nu * (1.0 + t).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_ordered() {
        for m in [PcmMaterial::Gst225, PcmMaterial::Gsst, PcmMaterial::GeSe] {
            assert!(m.delta_n() > 0.0, "{m:?} should have positive dn");
            assert!(m.delta_k() > 0.0, "{m:?} should have positive dk");
        }
    }

    #[test]
    fn fom_ranks_low_loss_materials_higher() {
        // GeSe and GSST are the paper's low-loss picks; GST is lossy.
        assert!(PcmMaterial::GeSe.figure_of_merit() > PcmMaterial::Gst225.figure_of_merit());
        assert!(PcmMaterial::Gsst.figure_of_merit() > PcmMaterial::Gst225.figure_of_merit());
    }

    #[test]
    fn effective_index_interpolates_endpoints() {
        for m in [PcmMaterial::Gst225, PcmMaterial::Gsst, PcmMaterial::GeSe] {
            let a = m.effective_index(0.0);
            let c = m.effective_index(1.0);
            assert!(a.approx_eq(m.amorphous_index(), 1e-9));
            assert!(c.approx_eq(m.crystalline_index(), 1e-9));
            // Monotone real part along the mixing curve.
            let mut prev = a.re;
            for i in 1..=10 {
                let n = m.effective_index(i as f64 / 10.0).re;
                assert!(n >= prev - 1e-12);
                prev = n;
            }
        }
    }

    #[test]
    #[should_panic(expected = "crystalline fraction")]
    fn effective_index_rejects_bad_fraction() {
        let _ = PcmMaterial::Gsst.effective_index(1.5);
    }

    #[test]
    fn set_pulses_accumulate_and_saturate() {
        let mut cell = PcmCell::new(PcmMaterial::Gsst);
        for _ in 0..100 {
            cell.apply_set_pulse();
        }
        assert_eq!(cell.crystalline_fraction(), 1.0);
        assert_eq!(cell.pulse_count(), 100);
        assert!(cell.programming_energy() > 0.0);
    }

    #[test]
    fn program_level_hits_exact_quantized_states() {
        let mut cell = PcmCell::new(PcmMaterial::Gsst);
        cell.program_level(3, 8);
        assert!((cell.crystalline_fraction() - 3.0 / 7.0).abs() < 1e-12);
        cell.program_level(7, 8);
        assert_eq!(cell.crystalline_fraction(), 1.0);
        // Going down forces a reset (extra energy).
        let e_before = cell.programming_energy();
        cell.program_level(1, 8);
        assert!((cell.crystalline_fraction() - 1.0 / 7.0).abs() < 1e-12);
        assert!(cell.programming_energy() > e_before + 1.0e-9);
    }

    #[test]
    fn downward_reprogram_costs_reset() {
        let mut a = PcmCell::new(PcmMaterial::Gsst);
        a.program_level(4, 8);
        let up_energy = a.programming_energy();
        let mut b = PcmCell::new(PcmMaterial::Gsst);
        b.program_level(7, 8);
        b.program_level(4, 8);
        assert!(b.programming_energy() > up_energy);
    }

    #[test]
    fn drift_moves_fraction_logarithmically() {
        let mut cell = PcmCell::new(PcmMaterial::Gsst);
        cell.program_level(4, 8);
        let x0 = cell.crystalline_fraction();
        cell.apply_drift(10.0, 1e-3);
        let d1 = cell.crystalline_fraction() - x0;
        assert!(d1 > 0.0 && d1 < 0.01);
        let mut cell2 = PcmCell::new(PcmMaterial::Gsst);
        cell2.program_level(4, 8);
        cell2.apply_drift(1000.0, 1e-3);
        let d2 = cell2.crystalline_fraction() - x0;
        assert!(d2 > d1, "drift should grow with time");
    }

    #[test]
    fn zero_static_energy_between_pulses() {
        let mut cell = PcmCell::new(PcmMaterial::GeSe);
        cell.program_level(2, 4);
        let e = cell.programming_energy();
        // Nothing else charged: non-volatility means holding costs nothing.
        assert_eq!(cell.programming_energy(), e);
    }

    #[test]
    fn programming_time_positive() {
        let mut cell = PcmCell::new(PcmMaterial::Gsst);
        cell.program_level(5, 8);
        assert!(cell.programming_time() > 0.0);
    }

    // Wavelength sanity: constant exported and sensible.
    #[test]
    fn telecom_wavelength_is_1550nm() {
        assert_eq!(crate::units::TELECOM_WAVELENGTH, 1550e-9);
    }

    #[test]
    fn drift_is_total_for_extreme_inputs() {
        let mut cell = PcmCell::new(PcmMaterial::Gsst);
        cell.program_level(4, 8);
        let x0 = cell.crystalline_fraction();
        // Negative elapsed time never un-drifts (ln of a negative argument
        // used to produce NaN here).
        cell.apply_drift(-5.0, 1e-3);
        assert_eq!(cell.crystalline_fraction(), x0);
        // NaN inputs leave the state untouched.
        cell.apply_drift(f64::NAN, 1e-3);
        cell.apply_drift(10.0, f64::NAN);
        assert_eq!(cell.crystalline_fraction(), x0);
        // +inf saturates at the crystalline ceiling.
        cell.apply_drift(f64::INFINITY, 1e-3);
        assert_eq!(cell.crystalline_fraction(), 1.0);
        // A huge negative nu floors at fully amorphous.
        cell.apply_drift(1e9, -1e9);
        assert_eq!(cell.crystalline_fraction(), 0.0);
    }

    #[test]
    fn set_state_clamps_and_maps_nan_to_amorphous() {
        let mut cell = PcmCell::new(PcmMaterial::GeSe);
        cell.set_state(0.7);
        assert_eq!(cell.crystalline_fraction(), 0.7);
        assert_eq!(cell.pulse_count(), 0, "set_state charges nothing");
        assert_eq!(cell.programming_energy(), 0.0);
        cell.set_state(2.5);
        assert_eq!(cell.crystalline_fraction(), 1.0);
        cell.set_state(-1.0);
        assert_eq!(cell.crystalline_fraction(), 0.0);
        cell.set_state(f64::NAN);
        assert_eq!(cell.crystalline_fraction(), 0.0);
    }

    #[test]
    fn transmission_levels_are_monotone_unit_range() {
        for material in [PcmMaterial::Gst225, PcmMaterial::Gsst, PcmMaterial::GeSe] {
            let grid = transmission_levels(material, 16);
            assert_eq!(grid.len(), 16);
            assert!((grid[0] - 1.0).abs() < 1e-12, "level 0 is transparent");
            for w in grid.windows(2) {
                assert!(w[1] < w[0], "grid must fall monotonically");
            }
            assert!(grid[15] > 0.0 && grid[15] < 0.25, "floor {}", grid[15]);
        }
    }
}
