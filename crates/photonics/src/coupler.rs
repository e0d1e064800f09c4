//! Directional couplers — the 2×2 passive splitters inside every MZI.
//!
//! A coupler with field cross-coupling angle `kappa` has the (lossless,
//! unitary) transfer matrix
//!
//! ```text
//!   [ cos(kappa)    i sin(kappa) ]
//!   [ i sin(kappa)  cos(kappa)   ]
//! ```
//!
//! An ideal 50:50 splitter has `kappa = pi/4`. Fabrication variation shows
//! up as a deviation `delta` of the coupling angle, which is the dominant
//! static imperfection limiting mesh fidelity (the motivation for the
//! error-tolerant Fldzhyan architecture in the paper's §4).

use neuropulsim_linalg::{CMatrix, C64};
use std::f64::consts::FRAC_PI_4;

/// A 2×2 directional coupler.
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::coupler::Coupler;
///
/// let ideal = Coupler::ideal_50_50();
/// assert!((ideal.cross_power() - 0.5).abs() < 1e-12);
/// assert!(ideal.transfer_matrix().is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coupler {
    /// Field coupling angle in radians; `pi/4` is a 50:50 splitter.
    kappa: f64,
}

impl Coupler {
    /// Creates a coupler with the given field coupling angle \[rad\].
    pub fn new(kappa: f64) -> Self {
        Coupler { kappa }
    }

    /// The ideal 50:50 splitter (`kappa = pi/4`).
    pub fn ideal_50_50() -> Self {
        Coupler { kappa: FRAC_PI_4 }
    }

    /// A 50:50 splitter with a splitting-angle error `delta` \[rad\],
    /// modelling fabrication variation: `kappa = pi/4 + delta`.
    pub fn with_imbalance(delta: f64) -> Self {
        Coupler {
            kappa: FRAC_PI_4 + delta,
        }
    }

    /// The field coupling angle \[rad\].
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Fraction of optical power crossing to the opposite port.
    pub fn cross_power(&self) -> f64 {
        self.kappa.sin().powi(2)
    }

    /// Fraction of optical power staying in the same port.
    pub fn bar_power(&self) -> f64 {
        self.kappa.cos().powi(2)
    }

    /// The 2×2 unitary transfer matrix.
    pub fn transfer_matrix(&self) -> CMatrix {
        let (a, b, c, d) = self.elements();
        CMatrix::from_rows(2, 2, &[a, b, c, d])
    }

    /// The four matrix elements `(a, b, c, d)` row-major, for in-place
    /// application via [`CMatrix::apply_left_2x2`].
    pub fn elements(&self) -> (C64, C64, C64, C64) {
        let c = C64::real(self.kappa.cos());
        let s = C64::new(0.0, self.kappa.sin());
        (c, s, s, c)
    }
}

impl Default for Coupler {
    fn default() -> Self {
        Coupler::ideal_50_50()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropulsim_linalg::CVector;

    #[test]
    fn ideal_splits_evenly() {
        let c = Coupler::ideal_50_50();
        let out = c
            .transfer_matrix()
            .mul_vec(&CVector::from_reals(&[1.0, 0.0]));
        let p = out.powers();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitary_for_any_angle() {
        for k in [-0.3, 0.0, 0.5, FRAC_PI_4, 1.2] {
            assert!(Coupler::new(k).transfer_matrix().is_unitary(1e-12));
        }
    }

    #[test]
    fn power_conservation() {
        let c = Coupler::with_imbalance(0.07);
        assert!((c.cross_power() + c.bar_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_shifts_splitting() {
        let c = Coupler::with_imbalance(0.05);
        assert!(c.cross_power() > 0.5);
        let c2 = Coupler::with_imbalance(-0.05);
        assert!(c2.cross_power() < 0.5);
    }
}
