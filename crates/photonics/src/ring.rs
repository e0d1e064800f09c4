//! Microring resonators — the platform's wavelength-selective elements,
//! used as the DWDM multiplexers/demultiplexers that give the paper's §4
//! wavelength-parallel GeMM its channels.
//!
//! Standard coupled-mode transfer functions of an add–drop ring:
//!
//! ```text
//!   through(phi) = (t2 - t1 a e^{i phi}) / (1 - t1 t2 a e^{i phi})
//!   drop(phi)    = -sqrt(k1 k2 a) e^{i phi/2} / (1 - t1 t2 a e^{i phi})
//! ```
//!
//! with `phi = 2 pi n_g L / lambda` the round-trip phase, `a` the
//! round-trip amplitude transmission and `t = sqrt(1 - k)` the coupler
//! through-amplitudes. The drop-port isolation at the neighbouring DWDM
//! channel is what sets the inter-channel crosstalk used by
//! `neuropulsim-core`'s GeMM engine.

use crate::units::{SPEED_OF_LIGHT, TELECOM_WAVELENGTH};
use neuropulsim_linalg::C64;
use std::f64::consts::TAU;

/// An add–drop microring resonator.
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::ring::AddDropRing;
///
/// let ring = AddDropRing::default();
/// let on = ring.drop_power(ring.resonance_wavelength());
/// let off = ring.drop_power(ring.resonance_wavelength() + 2e-9);
/// assert!(on > 0.8, "on-resonance drop should be strong");
/// assert!(off < 0.1, "off-resonance drop should be weak");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddDropRing {
    /// Ring circumference \[m\].
    pub circumference: f64,
    /// Group index of the ring waveguide.
    pub group_index: f64,
    /// Power coupling of the input (through) coupler.
    pub kappa_in: f64,
    /// Power coupling of the drop coupler.
    pub kappa_drop: f64,
    /// Round-trip amplitude transmission (propagation loss), in `(0, 1]`.
    pub round_trip_transmission: f64,
    /// Static phase offset from thermal tuning \[rad\].
    pub tuning_phase: f64,
}

impl AddDropRing {
    /// Creates a symmetric add–drop ring.
    ///
    /// # Panics
    ///
    /// Panics on non-physical parameters.
    pub fn new(circumference: f64, kappa: f64, round_trip_transmission: f64) -> Self {
        assert!(circumference > 0.0, "circumference must be positive");
        assert!((0.0..1.0).contains(&kappa) && kappa > 0.0, "kappa in (0,1)");
        assert!(
            round_trip_transmission > 0.0 && round_trip_transmission <= 1.0,
            "round-trip transmission in (0, 1]"
        );
        AddDropRing {
            circumference,
            group_index: 4.2, // SOI strip waveguide group index
            kappa_in: kappa,
            kappa_drop: kappa,
            round_trip_transmission,
            tuning_phase: 0.0,
        }
    }

    /// Round-trip phase at vacuum wavelength `lambda` \[rad\].
    pub(crate) fn round_trip_phase(&self, lambda: f64) -> f64 {
        TAU * self.group_index * self.circumference / lambda + self.tuning_phase
    }

    /// Complex through-port field transmission at `lambda`.
    pub fn through(&self, lambda: f64) -> C64 {
        let t1 = (1.0 - self.kappa_in).sqrt();
        let t2 = (1.0 - self.kappa_drop).sqrt();
        let a = self.round_trip_transmission;
        let e = C64::cis(self.round_trip_phase(lambda));
        let numer = C64::real(t2) * e * a - C64::real(t1).conj();
        let denom = (C64::real(t1 * t2) * e * a) - C64::ONE;
        numer / denom
    }

    /// Complex drop-port field transmission at `lambda`.
    pub fn drop(&self, lambda: f64) -> C64 {
        let t1 = (1.0 - self.kappa_in).sqrt();
        let t2 = (1.0 - self.kappa_drop).sqrt();
        let a = self.round_trip_transmission;
        let half = C64::cis(self.round_trip_phase(lambda) / 2.0) * a.sqrt();
        let numer = half * (self.kappa_in * self.kappa_drop).sqrt();
        let denom = C64::ONE - (C64::real(t1 * t2) * C64::cis(self.round_trip_phase(lambda)) * a);
        numer / denom
    }

    /// Drop-port power transmission at `lambda`.
    pub fn drop_power(&self, lambda: f64) -> f64 {
        self.drop(lambda).abs2()
    }

    /// The resonance wavelength nearest 1550 nm.
    pub fn resonance_wavelength(&self) -> f64 {
        // phi(lambda) = 2 pi m  =>  lambda = n_g L / m.
        let opl = self.group_index * self.circumference;
        let m = (opl / TELECOM_WAVELENGTH).round();
        // Account for tuning: phi = 2pi opl / lambda + tuning = 2 pi m.
        opl * TAU / (TAU * m - self.tuning_phase)
    }

    /// Free spectral range near 1550 nm \[m\].
    pub fn fsr(&self) -> f64 {
        TELECOM_WAVELENGTH * TELECOM_WAVELENGTH / (self.group_index * self.circumference)
    }

    /// Full width at half maximum of the drop resonance \[m\],
    /// from the loaded finesse.
    pub fn fwhm(&self) -> f64 {
        let t1 = (1.0 - self.kappa_in).sqrt();
        let t2 = (1.0 - self.kappa_drop).sqrt();
        let a = self.round_trip_transmission;
        let x = t1 * t2 * a;
        let finesse = std::f64::consts::PI * x.sqrt() / (1.0 - x);
        self.fsr() / finesse
    }

    /// Loaded quality factor.
    pub fn q_factor(&self) -> f64 {
        self.resonance_wavelength() / self.fwhm()
    }

    /// Crosstalk of a DWDM demux built from such rings: the drop-port
    /// power leaking from a neighbour channel `channel_spacing_hz` away,
    /// relative to the on-resonance drop. This is the physical origin of
    /// the `crosstalk` parameter in the GeMM engine.
    pub fn channel_crosstalk(&self, channel_spacing_hz: f64) -> f64 {
        let res = self.resonance_wavelength();
        // Convert frequency offset to wavelength offset near 1550 nm.
        let dlambda = channel_spacing_hz * res * res / SPEED_OF_LIGHT;
        let neighbour = self.drop_power(res + dlambda);
        let on = self.drop_power(res);
        neighbour / on.max(f64::MIN_POSITIVE)
    }
}

impl Default for AddDropRing {
    /// A 10-um-radius SOI ring with 5% couplers and low loss: FSR ~ 9 nm,
    /// loaded Q ~ 2e4 — a typical DWDM demux element.
    fn default() -> Self {
        AddDropRing::new(TAU * 10e-6, 0.05, 0.995)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonance_drops_through_dips() {
        let ring = AddDropRing::default();
        let res = ring.resonance_wavelength();
        assert!(ring.drop_power(res) > 0.8, "drop {}", ring.drop_power(res));
        assert!(
            ring.through(res).abs2() < 0.1,
            "through {}",
            ring.through(res).abs2()
        );
        // Between resonances everything passes through.
        let off = res + ring.fsr() / 2.0;
        assert!(ring.through(off).abs2() > 0.9);
        assert!(ring.drop_power(off) < 0.02);
    }

    #[test]
    fn energy_conservation_within_loss() {
        let ring = AddDropRing::default();
        let res = ring.resonance_wavelength();
        for k in -10..=10 {
            let lambda = res + k as f64 * 0.2e-9;
            let total = ring.through(lambda).abs2() + ring.drop_power(lambda);
            assert!(total <= 1.0 + 1e-9, "gain at {lambda}: {total}");
            assert!(total > 0.5, "too lossy at {lambda}: {total}");
        }
    }

    #[test]
    fn lossless_symmetric_ring_conserves_power_exactly() {
        let ring = AddDropRing::new(TAU * 10e-6, 0.05, 1.0);
        let res = ring.resonance_wavelength();
        for k in -5..=5 {
            let lambda = res + k as f64 * 0.3e-9;
            let total = ring.through(lambda).abs2() + ring.drop_power(lambda);
            assert!((total - 1.0).abs() < 1e-9, "total {total} at {lambda}");
        }
    }

    #[test]
    fn fsr_matches_textbook_formula() {
        let ring = AddDropRing::default();
        // FSR = lambda^2 / (n_g L): radius 10 um, n_g 4.2 -> ~9.1 nm.
        let fsr = ring.fsr();
        assert!(fsr > 7e-9 && fsr < 12e-9, "FSR {fsr}");
        // Adjacent resonances really are FSR apart (to first order).
        let res = ring.resonance_wavelength();
        let next = res - fsr;
        assert!(
            ring.drop_power(next) > 0.5,
            "next resonance at {next}: {}",
            ring.drop_power(next)
        );
    }

    #[test]
    fn q_factor_is_reasonable() {
        let ring = AddDropRing::default();
        let q = ring.q_factor();
        assert!(q > 1e3 && q < 1e6, "Q {q}");
        // Weaker coupling -> higher Q.
        let weak = AddDropRing::new(TAU * 10e-6, 0.01, 0.995);
        assert!(weak.q_factor() > q);
    }

    #[test]
    fn thermal_tuning_moves_resonance() {
        let mut ring = AddDropRing::default();
        let res0 = ring.resonance_wavelength();
        ring.tuning_phase = 0.5;
        let res1 = ring.resonance_wavelength();
        assert!(
            res1 > res0,
            "positive tuning phase red-shifts: {res0} -> {res1}"
        );
        // The drop peak follows the tuned resonance.
        assert!(ring.drop_power(res1) > 0.8);
    }

    #[test]
    fn crosstalk_falls_with_channel_spacing() {
        let ring = AddDropRing::default();
        let x50 = ring.channel_crosstalk(50e9);
        let x100 = ring.channel_crosstalk(100e9);
        let x200 = ring.channel_crosstalk(200e9);
        assert!(x100 < x50, "{x100} !< {x50}");
        assert!(x200 < x100);
        assert!(x100 < 0.05, "100 GHz crosstalk should be small: {x100}");
        assert!(x100 > 0.0);
    }

    #[test]
    #[should_panic(expected = "kappa")]
    fn rejects_bad_coupling() {
        let _ = AddDropRing::new(1e-5, 1.5, 0.99);
    }
}
