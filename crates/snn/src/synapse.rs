//! Non-volatile photonic synapses: PCM patches on waveguides whose
//! transmission is the synaptic weight (Feldmann et al., *Nature* 2019 —
//! the work the paper's §3 builds its SNN vision on).
//!
//! Crystallizing the patch *absorbs* more light, so SET pulses
//! **depress** the weight and (partial) amorphization **potentiates** it.
//! The accumulation behaviour of partial SET pulses gives the graded,
//! multilevel weight updates STDP needs.

use neuropulsim_photonics::pcm::{PcmCell, PcmMaterial, PcmProgramming};
use neuropulsim_photonics::units::TELECOM_WAVELENGTH;
use std::f64::consts::TAU;

/// A PCM synapse: weight = normalized optical transmission of the patch.
///
/// # Examples
///
/// ```
/// use neuropulsim_snn::synapse::PcmSynapse;
///
/// let mut s = PcmSynapse::new();
/// assert!((s.weight() - 1.0).abs() < 1e-12); // amorphous = transparent
/// s.depress();
/// assert!(s.weight() < 1.0);
/// s.potentiate();
/// // Potentiation re-amorphizes toward full transmission.
/// assert!(s.weight() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmSynapse {
    cell: PcmCell,
    levels: u32,
    level: u32,
    gamma: f64,
    patch_length: f64,
}

impl PcmSynapse {
    /// Creates a fully potentiated (amorphous) GST synapse with 16 levels.
    pub fn new() -> Self {
        PcmSynapse::with_config(PcmMaterial::Gst225, 16)
    }

    /// Creates a synapse with the given material and level count.
    ///
    /// The patch is sized so the fully crystalline state transmits ~10% —
    /// a usable weight dynamic range.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn with_config(material: PcmMaterial, levels: u32) -> Self {
        assert!(levels >= 2, "synapse needs at least 2 levels");
        let gamma = 0.3; // strong overlap: patch sits on the waveguide core
                         // Absorption at full crystallization: field t = exp(-2 pi k g L / lambda).
                         // Pick L so that power transmission at x=1 is ~0.1 (field ~0.316).
        let k_c = material.effective_index(1.0).im.max(1e-6);
        let target_field_t: f64 = 0.316;
        let patch_length = -target_field_t.ln() * TELECOM_WAVELENGTH / (TAU * gamma * k_c);
        PcmSynapse {
            cell: PcmCell::with_programming(material, PcmProgramming::default()),
            levels,
            level: 0,
            gamma,
            patch_length,
        }
    }

    /// The synaptic weight: patch *power* transmission normalized to the
    /// amorphous state, in `(0, 1]`.
    pub fn weight(&self) -> f64 {
        let x = self.cell.crystalline_fraction();
        self.transmission(x) / self.transmission(0.0)
    }

    fn transmission(&self, x: f64) -> f64 {
        let k = self.cell.material().effective_index(x).im;
        // Power transmission: exp(-2 * alpha_field * L).
        (-2.0 * TAU / TELECOM_WAVELENGTH * self.gamma * k * self.patch_length).exp()
    }

    /// The current discrete level (0 = amorphous = strongest weight).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of programmable levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Depresses the weight by one level (one SET pulse accumulates
    /// crystallization). Saturates at the weakest level.
    pub fn depress(&mut self) {
        if self.level + 1 < self.levels {
            self.level += 1;
            self.cell.program_level(self.level, self.levels);
        }
    }

    /// Potentiates the weight by one level (partial melt-quench
    /// re-amorphization). Saturates at the strongest level.
    pub fn potentiate(&mut self) {
        if self.level > 0 {
            self.level -= 1;
            self.cell.program_level(self.level, self.levels);
        }
    }

    /// Total programming energy spent on this synapse so far \[J\].
    pub fn programming_energy(&self) -> f64 {
        self.cell.programming_energy()
    }

    /// Applies PCM retention drift to the patch: amorphous-phase
    /// relaxation shifts the crystalline fraction (and hence the weight)
    /// by `nu * ln(1 + t)` until the next programming pulse snaps the
    /// cell back onto its quantized level. Delegates to
    /// [`PcmCell::apply_drift`], the same model the accelerator's
    /// attenuator drift uses.
    pub fn apply_drift(&mut self, elapsed_s: f64, nu: f64) {
        self.cell.apply_drift(elapsed_s, nu);
    }

    /// Static hold power — zero, the non-volatility selling point.
    pub fn hold_power(&self) -> f64 {
        0.0
    }
}

impl Default for PcmSynapse {
    fn default() -> Self {
        PcmSynapse::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_starts_at_one_and_is_monotone_in_level() {
        let mut s = PcmSynapse::new();
        assert!((s.weight() - 1.0).abs() < 1e-12);
        let mut prev = s.weight();
        for _ in 0..(s.levels() - 1) {
            s.depress();
            let w = s.weight();
            assert!(w < prev, "weight must fall with each SET pulse");
            prev = w;
        }
    }

    #[test]
    fn weight_dynamic_range_is_usable() {
        let mut s = PcmSynapse::new();
        for _ in 0..s.levels() {
            s.depress();
        }
        let w_min = s.weight();
        assert!(w_min < 0.25, "fully depressed weight {w_min} too strong");
        assert!(
            w_min > 0.001,
            "fully depressed weight {w_min} unusably dark"
        );
    }

    #[test]
    fn depress_saturates() {
        let mut s = PcmSynapse::with_config(PcmMaterial::Gst225, 4);
        for _ in 0..10 {
            s.depress();
        }
        assert_eq!(s.level(), 3);
    }

    #[test]
    fn potentiate_saturates() {
        let mut s = PcmSynapse::new();
        s.potentiate();
        assert_eq!(s.level(), 0);
    }

    #[test]
    fn potentiation_costs_reset_energy() {
        let mut s = PcmSynapse::new();
        s.depress();
        s.depress();
        let e = s.programming_energy();
        s.potentiate();
        assert!(s.programming_energy() > e, "amorphization is not free");
        assert_eq!(s.hold_power(), 0.0);
    }
}
