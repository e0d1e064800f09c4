//! Optical phase shifters: volatile thermo-optic heaters (the SOI status
//! quo) and the paper's non-volatile multilevel PCM shifters.
//!
//! The contrast the paper draws (§3) is energetic: a thermo-optic shifter
//! burns continuous electrical power to *hold* a phase, while a PCM shifter
//! holds its phase for free and only pays per *reprogram*. Both are modelled
//! behind the [`PhaseShifter`] trait so meshes can be instantiated with
//! either technology and compared (experiment E4).

use crate::pcm::{PcmCell, PcmMaterial, PcmProgramming};
use crate::units::TELECOM_WAVELENGTH;
use neuropulsim_linalg::C64;
use std::f64::consts::TAU;

/// Common interface of programmable phase-shifter technologies.
///
/// A shifter realizes a requested phase (possibly quantized), attenuates
/// the field by a technology-dependent factor, and has a static hold power
/// and a cumulative programming-energy ledger.
pub trait PhaseShifter {
    /// Requests the phase `phase` \[rad\]. The realized phase may differ
    /// (quantization, saturation); read it back with [`PhaseShifter::phase`].
    fn set_phase(&mut self, phase: f64);

    /// The currently realized phase \[rad\], in `[0, 2*pi)`.
    fn phase(&self) -> f64;

    /// Field (amplitude) transmission factor in `(0, 1]`.
    fn field_transmission(&self) -> f64;

    /// Static electrical power needed to *hold* the current phase \[W\].
    fn hold_power(&self) -> f64;

    /// Cumulative energy spent programming this shifter \[J\].
    fn programming_energy(&self) -> f64;

    /// Time needed for the most recent reprogram \[s\].
    fn programming_time(&self) -> f64;

    /// The complex field multiplier `t * exp(i*phi)` applied to light
    /// passing through the shifter.
    fn transfer(&self) -> C64 {
        C64::from_polar(self.field_transmission(), self.phase())
    }
}

/// Wraps a phase onto `[0, 2*pi)`.
pub fn wrap_phase(phase: f64) -> f64 {
    let p = phase % TAU;
    if p < 0.0 {
        p + TAU
    } else {
        p
    }
}

/// An idealized, lossless, continuous phase shifter (for pure-math meshes
/// and as the "no imperfections" reference in robustness sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IdealPhaseShifter {
    phase: f64,
}

impl IdealPhaseShifter {
    /// Creates an ideal shifter at zero phase.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PhaseShifter for IdealPhaseShifter {
    fn set_phase(&mut self, phase: f64) {
        self.phase = wrap_phase(phase);
    }
    fn phase(&self) -> f64 {
        self.phase
    }
    fn field_transmission(&self) -> f64 {
        1.0
    }
    fn hold_power(&self) -> f64 {
        0.0
    }
    fn programming_energy(&self) -> f64 {
        0.0
    }
    fn programming_time(&self) -> f64 {
        0.0
    }
}

/// A volatile thermo-optic phase shifter (resistive heater above the
/// waveguide).
///
/// Phase is linear in heater power: `phi = pi * P / P_pi`. Holding any
/// non-zero phase therefore costs continuous power — the inefficiency the
/// paper's PCM devices remove.
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::phase::{PhaseShifter, ThermoOpticShifter};
///
/// let mut ps = ThermoOpticShifter::default();
/// ps.set_phase(std::f64::consts::PI);
/// assert!((ps.hold_power() - 0.020).abs() < 1e-9); // P_pi = 20 mW
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermoOpticShifter {
    phase: f64,
    /// Power for a pi phase shift \[W\]. Typical SOI heaters: ~20 mW.
    p_pi: f64,
    /// Thermal response time \[s\]. Typical: ~10 us.
    response_time: f64,
    /// Field transmission of the heater section (small insertion loss).
    transmission: f64,
    programming_energy: f64,
}

impl ThermoOpticShifter {
    /// Creates a shifter with the given `P_pi` \[W\] and response time \[s\].
    pub fn new(p_pi: f64, response_time: f64) -> Self {
        ThermoOpticShifter {
            phase: 0.0,
            p_pi,
            response_time,
            transmission: 0.997, // ~0.026 dB insertion loss
            programming_energy: 0.0,
        }
    }
}

impl Default for ThermoOpticShifter {
    /// Typical SOI thermo-optic heater: `P_pi = 20 mW`, 10 us response.
    fn default() -> Self {
        ThermoOpticShifter::new(20e-3, 10e-6)
    }
}

impl PhaseShifter for ThermoOpticShifter {
    fn set_phase(&mut self, phase: f64) {
        self.phase = wrap_phase(phase);
        // Transient settle energy: hold power during one response time.
        self.programming_energy += self.hold_power() * self.response_time;
    }
    fn phase(&self) -> f64 {
        self.phase
    }
    fn field_transmission(&self) -> f64 {
        self.transmission
    }
    fn hold_power(&self) -> f64 {
        self.phase / std::f64::consts::PI * self.p_pi
    }
    fn programming_energy(&self) -> f64 {
        self.programming_energy
    }
    fn programming_time(&self) -> f64 {
        self.response_time
    }
}

/// A non-volatile multilevel PCM phase shifter: a PCM patch of length
/// `patch_length` over the waveguide, with mode confinement factor `gamma`
/// in the patch.
///
/// The realized phase is quantized onto the cell's `levels` states; the
/// patch absorbs more as it crystallizes (the `dk` penalty captured by the
/// material's figure of merit).
#[derive(Debug, Clone, PartialEq)]
pub struct PcmPhaseShifter {
    cell: PcmCell,
    levels: u32,
    /// Patch length \[m\].
    patch_length: f64,
    /// Modal confinement factor of light in the PCM patch.
    gamma: f64,
    wavelength: f64,
    level: u32,
}

impl PcmPhaseShifter {
    /// Creates a shifter whose patch length is sized to give a full
    /// `2*pi` phase range at complete crystallization.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn new(material: PcmMaterial, levels: u32) -> Self {
        PcmPhaseShifter::with_params(material, levels, 0.1, PcmProgramming::default())
    }

    /// Creates a shifter with explicit confinement factor and programming
    /// parameters. The patch length is sized for a `2*pi` full range.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `gamma <= 0`.
    pub(crate) fn with_params(
        material: PcmMaterial,
        levels: u32,
        gamma: f64,
        programming: PcmProgramming,
    ) -> Self {
        assert!(levels >= 2, "a PCM shifter needs at least 2 levels");
        assert!(gamma > 0.0, "confinement factor must be positive");
        let wavelength = TELECOM_WAVELENGTH;
        let dn = material.effective_index(1.0).re - material.effective_index(0.0).re;
        // phi_max = (2 pi / lambda) * gamma * dn * L = 2 pi  =>  L = lambda / (gamma dn)
        let patch_length = wavelength / (gamma * dn);
        PcmPhaseShifter {
            cell: PcmCell::with_programming(material, programming),
            levels,
            patch_length,
            gamma,
            wavelength,
            level: 0,
        }
    }

    /// The number of programmable levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The currently programmed level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The patch length \[m\].
    pub fn patch_length(&self) -> f64 {
        self.patch_length
    }

    /// Borrows the underlying PCM cell.
    pub fn cell(&self) -> &PcmCell {
        &self.cell
    }

    /// Phase produced by crystalline fraction `x`.
    fn phase_of_fraction(&self, x: f64) -> f64 {
        let n0 = self.cell.material().effective_index(0.0).re;
        let n = self.cell.material().effective_index(x).re;
        TAU / self.wavelength * self.gamma * (n - n0) * self.patch_length
    }

    /// Crystalline fraction of level `l`.
    fn fraction_of_level(&self, l: u32) -> f64 {
        l as f64 / (self.levels - 1) as f64
    }

    /// Applies state drift over `elapsed_s` seconds with drift coefficient
    /// `nu` (see [`PcmCell::apply_drift`]).
    pub fn apply_drift(&mut self, elapsed_s: f64, nu: f64) {
        self.cell.apply_drift(elapsed_s, nu);
    }
}

impl PhaseShifter for PcmPhaseShifter {
    /// Programs the level whose phase is closest to the request. The
    /// realized phase is the quantized one.
    fn set_phase(&mut self, phase: f64) {
        let target = wrap_phase(phase);
        let mut best = 0u32;
        let mut best_err = f64::INFINITY;
        for l in 0..self.levels {
            let p = self.phase_of_fraction(self.fraction_of_level(l));
            // Circular distance.
            let mut d = (p - target).abs() % TAU;
            if d > std::f64::consts::PI {
                d = TAU - d;
            }
            if d < best_err {
                best_err = d;
                best = l;
            }
        }
        self.level = best;
        self.cell.program_level(best, self.levels);
    }

    fn phase(&self) -> f64 {
        wrap_phase(self.phase_of_fraction(self.cell.crystalline_fraction()))
    }

    /// Absorption of the patch grows with crystallinity: `exp(-2*pi*k_eff*
    /// gamma*L / lambda)` field transmission.
    fn field_transmission(&self) -> f64 {
        let k = self
            .cell
            .material()
            .effective_index(self.cell.crystalline_fraction())
            .im;
        (-TAU / self.wavelength * self.gamma * k * self.patch_length).exp()
    }

    /// Non-volatile: zero hold power. This is the headline advantage.
    fn hold_power(&self) -> f64 {
        0.0
    }

    fn programming_energy(&self) -> f64 {
        self.cell.programming_energy()
    }

    fn programming_time(&self) -> f64 {
        self.cell.programming_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The phase realized at each programmable level \[rad\].
    fn level_phases(ps: &PcmPhaseShifter) -> Vec<f64> {
        (0..ps.levels)
            .map(|l| ps.phase_of_fraction(ps.fraction_of_level(l)))
            .collect()
    }

    #[test]
    fn wrap_phase_range() {
        assert!((wrap_phase(-PI) - PI).abs() < 1e-12);
        assert!(wrap_phase(TAU) < 1e-12);
        assert!((wrap_phase(3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(wrap_phase(1.0), 1.0);
    }

    #[test]
    fn ideal_shifter_is_free_and_exact() {
        let mut ps = IdealPhaseShifter::new();
        ps.set_phase(1.234);
        assert_eq!(ps.phase(), 1.234);
        assert_eq!(ps.hold_power(), 0.0);
        assert_eq!(ps.field_transmission(), 1.0);
        let t = ps.transfer();
        assert!((t.abs() - 1.0).abs() < 1e-12);
        assert!((t.arg() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn thermo_optic_power_scales_with_phase() {
        let mut ps = ThermoOpticShifter::default();
        ps.set_phase(PI / 2.0);
        let p_half = ps.hold_power();
        ps.set_phase(PI);
        assert!((ps.hold_power() - 2.0 * p_half).abs() < 1e-12);
        assert!(ps.programming_energy() > 0.0);
    }

    #[test]
    fn thermo_optic_zero_phase_zero_power() {
        let ps = ThermoOpticShifter::default();
        assert_eq!(ps.hold_power(), 0.0);
    }

    #[test]
    fn pcm_shifter_full_range_is_2pi() {
        let ps = PcmPhaseShifter::new(PcmMaterial::Gsst, 16);
        let phases = level_phases(&ps);
        assert!(phases[0].abs() < 1e-12);
        assert!((phases[15] - TAU).abs() < 1e-9);
    }

    #[test]
    fn pcm_quantizes_to_nearest_level() {
        let mut ps = PcmPhaseShifter::new(PcmMaterial::Gsst, 8);
        ps.set_phase(PI);
        let realized = ps.phase();
        // Error bounded by half the worst-case level spacing.
        let phases = level_phases(&ps);
        let max_gap = phases
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f64, f64::max);
        let mut err = (realized - PI).abs() % TAU;
        if err > PI {
            err = TAU - err;
        }
        assert!(err <= max_gap / 2.0 + 1e-9, "err={err}, gap={max_gap}");
    }

    #[test]
    fn pcm_quantization_error_shrinks_with_levels() {
        let mut coarse = PcmPhaseShifter::new(PcmMaterial::Gsst, 4);
        let mut fine = PcmPhaseShifter::new(PcmMaterial::Gsst, 64);
        let target = 2.0;
        coarse.set_phase(target);
        fine.set_phase(target);
        let e_coarse = (coarse.phase() - target).abs();
        let e_fine = (fine.phase() - target).abs();
        assert!(e_fine < e_coarse);
    }

    #[test]
    fn pcm_zero_hold_power_nonzero_program_energy() {
        let mut ps = PcmPhaseShifter::new(PcmMaterial::Gsst, 8);
        ps.set_phase(PI);
        assert_eq!(ps.hold_power(), 0.0);
        assert!(ps.programming_energy() > 0.0);
    }

    #[test]
    fn pcm_loss_grows_with_crystallinity() {
        let mut ps = PcmPhaseShifter::new(PcmMaterial::Gsst, 8);
        let t_amorphous = ps.field_transmission();
        ps.set_phase(TAU * 0.99); // near fully crystalline
        let t_crystalline = ps.field_transmission();
        assert!(t_crystalline < t_amorphous);
        assert!(t_crystalline > 0.0);
    }

    #[test]
    fn gese_lower_loss_than_gst() {
        let mut gese = PcmPhaseShifter::new(PcmMaterial::GeSe, 8);
        let mut gst = PcmPhaseShifter::new(PcmMaterial::Gst225, 8);
        gese.set_phase(PI);
        gst.set_phase(PI);
        assert!(gese.field_transmission() > gst.field_transmission());
    }

    #[test]
    fn patch_length_is_micron_scale() {
        let ps = PcmPhaseShifter::new(PcmMaterial::Gsst, 8);
        let l = ps.patch_length();
        assert!(
            l > 1e-6 && l < 100e-6,
            "patch length {l} m not micron-scale"
        );
    }

    #[test]
    fn transfer_combines_phase_and_loss() {
        let mut ps = PcmPhaseShifter::new(PcmMaterial::Gsst, 32);
        ps.set_phase(1.0);
        let t = ps.transfer();
        assert!((t.abs() - ps.field_transmission()).abs() < 1e-12);
        assert!((t.arg() - ps.phase()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2 levels")]
    fn pcm_rejects_single_level() {
        let _ = PcmPhaseShifter::new(PcmMaterial::Gsst, 1);
    }
}
