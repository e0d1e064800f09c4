//! The Mach–Zehnder interferometer (MZI): the unit cell of every mesh in
//! the paper's Fig. 2.
//!
//! An MZI is two directional couplers around an internal phase shifter
//! `theta`, preceded by an external phase shifter `phi`:
//!
//! ```text
//!   in0 ──[phi]──╮          ╭──[theta]──╮          ╭── out0
//!                │ coupler1 │           │ coupler2 │
//!   in1 ─────────╯          ╰───────────╯          ╰── out1
//! ```
//!
//! With ideal 50:50 couplers the transfer matrix is the standard Clements
//! form `i e^{i theta/2} [[e^{i phi} sin(theta/2), cos(theta/2)],
//! [e^{i phi} cos(theta/2), -sin(theta/2)]]`, an SU(2) element up to phase.
//! Coupler imbalance and arm loss are first-class parameters so meshes can
//! be evaluated under realistic imperfections (experiments E1–E2).

use crate::coupler::Coupler;
use neuropulsim_linalg::{CMatrix, C64};

/// A 2×2 Mach–Zehnder interferometer with programmable internal (`theta`)
/// and external (`phi`) phases.
///
/// # Examples
///
/// ```
/// use neuropulsim_photonics::mzi::Mzi;
/// use std::f64::consts::PI;
///
/// // theta = PI puts the MZI in the full-reflection ("bar") state...
/// let bar = Mzi::new(PI, 0.0);
/// assert!((bar.cross_power() - 0.0).abs() < 1e-12);
/// // ...and theta = 0 in the full-transmission ("cross") state.
/// let cross = Mzi::new(0.0, 0.0);
/// assert!((cross.cross_power() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mzi {
    /// Internal phase (between the couplers) \[rad\].
    pub theta: f64,
    /// External phase (before the first coupler, on the top port) \[rad\].
    pub phi: f64,
    /// First (input-side) coupler.
    pub coupler_1: Coupler,
    /// Second (output-side) coupler.
    pub coupler_2: Coupler,
    /// Field transmission of each arm (captures waveguide + shifter loss).
    pub arm_transmission: f64,
}

impl Mzi {
    /// Creates an ideal MZI (perfect couplers, lossless arms).
    pub fn new(theta: f64, phi: f64) -> Self {
        Mzi {
            theta,
            phi,
            coupler_1: Coupler::ideal_50_50(),
            coupler_2: Coupler::ideal_50_50(),
            arm_transmission: 1.0,
        }
    }

    /// Creates an MZI with explicit (possibly imperfect) couplers.
    pub fn with_couplers(theta: f64, phi: f64, coupler_1: Coupler, coupler_2: Coupler) -> Self {
        Mzi {
            theta,
            phi,
            coupler_1,
            coupler_2,
            arm_transmission: 1.0,
        }
    }

    /// Sets the per-arm field transmission (1.0 = lossless), returning `self`
    /// builder-style.
    pub fn with_arm_transmission(mut self, transmission: f64) -> Self {
        assert!(
            transmission > 0.0 && transmission <= 1.0,
            "arm transmission must be in (0, 1]"
        );
        self.arm_transmission = transmission;
        self
    }

    /// The four elements `(a, b, c, d)` of the 2×2 transfer matrix,
    /// composed as `coupler2 * P(theta) * coupler1 * P(phi)` with uniform
    /// arm loss.
    pub fn elements(&self) -> (C64, C64, C64, C64) {
        let (a1, b1, c1, d1) = self.coupler_1.elements();
        let (a2, b2, c2, d2) = self.coupler_2.elements();
        let e_phi = C64::cis(self.phi);
        let e_theta = C64::cis(self.theta);

        // M1 = coupler1 * diag(e^{i phi}, 1)
        let m1 = (a1 * e_phi, b1, c1 * e_phi, d1);
        // M2 = coupler2 * diag(e^{i theta}, 1)
        let m2 = (a2 * e_theta, b2, c2 * e_theta, d2);
        // T = M2 * M1
        let t = self.arm_transmission;
        (
            (m2.0 * m1.0 + m2.1 * m1.2) * t,
            (m2.0 * m1.1 + m2.1 * m1.3) * t,
            (m2.2 * m1.0 + m2.3 * m1.2) * t,
            (m2.2 * m1.1 + m2.3 * m1.3) * t,
        )
    }

    /// The full 2×2 transfer matrix.
    pub fn transfer_matrix(&self) -> CMatrix {
        let (a, b, c, d) = self.elements();
        CMatrix::from_rows(2, 2, &[a, b, c, d])
    }

    /// Power transferred from input 0 to output 1 ("cross" transmission).
    pub fn cross_power(&self) -> f64 {
        self.elements().2.abs2()
    }

    /// Power transferred from input 0 to output 0 ("bar" transmission).
    pub fn bar_power(&self) -> f64 {
        self.elements().0.abs2()
    }
}

impl Default for Mzi {
    fn default() -> Self {
        Mzi::new(0.0, 0.0)
    }
}

/// A compacted 2×2 cell in the style of Bell & Walmsley (*APL Photonics*
/// 6, 070804, 2021): the same unitary as a full [`Mzi`], realized in a
/// shorter physical cell (single-section symmetric drive), so depth and
/// loss shrink while the programming model is unchanged.
///
/// `elements()` evaluates the Clements closed form
/// `i e^{iθ/2} [[e^{iφ} sin(θ/2), cos(θ/2)], [e^{iφ} cos(θ/2), -sin(θ/2)]]`
/// directly — mathematically identical to the ideal [`Mzi`]'s
/// coupler-composition, so a compacted mesh realizes the *same matrix*
/// as its rectangular source program (verified to 1e-12 in
/// `tests/mesh_zoo_props.rs`). Footprint/energy differences are modeled
/// in `neuropulsim-core`'s footprint report, not here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactCell {
    /// Internal phase \[rad\].
    pub theta: f64,
    /// External phase on the top input arm \[rad\].
    pub phi: f64,
}

impl CompactCell {
    /// Creates a compact cell.
    pub fn new(theta: f64, phi: f64) -> Self {
        CompactCell { theta, phi }
    }

    /// The four elements `(a, b, c, d)` of the 2×2 transfer matrix.
    pub fn elements(&self) -> (C64, C64, C64, C64) {
        let half = self.theta / 2.0;
        let g = C64::I * C64::cis(half);
        let s = C64::real(half.sin());
        let c = C64::real(half.cos());
        let e = C64::cis(self.phi);
        (g * e * s, g * c, g * e * c, -(g * s))
    }

    /// The full 2×2 transfer matrix.
    pub fn transfer_matrix(&self) -> CMatrix {
        let (a, b, c, d) = self.elements();
        CMatrix::from_rows(2, 2, &[a, b, c, d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn ideal_mzi_is_unitary() {
        for theta in [0.0, 0.7, FRAC_PI_2, PI, 2.3] {
            for phi in [0.0, 1.0, PI] {
                assert!(Mzi::new(theta, phi).transfer_matrix().is_unitary(1e-12));
            }
        }
    }

    #[test]
    fn matches_clements_closed_form() {
        let theta = 1.1;
        let phi = 0.6;
        let m = Mzi::new(theta, phi).transfer_matrix();
        let g = C64::I * C64::cis(theta / 2.0);
        let s = (theta / 2.0).sin();
        let c = (theta / 2.0).cos();
        let e = C64::cis(phi);
        let expect = CMatrix::from_rows(
            2,
            2,
            &[
                g * e * C64::real(s),
                g * C64::real(c),
                g * e * C64::real(c),
                g * C64::real(-s),
            ],
        );
        assert!(m.approx_eq(&expect, 1e-12), "got\n{m}\nexpected\n{expect}");
    }

    #[test]
    fn power_split_follows_sin_squared() {
        for theta in [0.0, 0.5, 1.0, 2.0, PI] {
            let mzi = Mzi::new(theta, 0.3);
            assert!((mzi.bar_power() - (theta / 2.0).sin().powi(2)).abs() < 1e-12);
            assert!((mzi.cross_power() - (theta / 2.0).cos().powi(2)).abs() < 1e-12);
            assert!((mzi.bar_power() + mzi.cross_power() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lossy_arms_scale_power_quadratically() {
        let mzi = Mzi::new(1.0, 0.0).with_arm_transmission(0.9);
        let m = mzi.transfer_matrix();
        let total_out: f64 = m.col(0).total_power();
        assert!((total_out - 0.81).abs() < 1e-12);
    }

    #[test]
    fn imbalanced_couplers_limit_extinction() {
        // With imperfect couplers the bar state cannot be fully dark.
        let c = Coupler::with_imbalance(0.08);
        let mzi = Mzi::with_couplers(0.0, 0.0, c, c);
        assert!(mzi.bar_power() > 1e-4, "imbalance should leak power");
        // Still unitary (couplers are lossless).
        assert!(mzi.transfer_matrix().is_unitary(1e-12));
    }

    #[test]
    #[should_panic(expected = "arm transmission")]
    fn rejects_nonphysical_transmission() {
        let _ = Mzi::new(0.0, 0.0).with_arm_transmission(1.2);
    }

    #[test]
    fn default_is_cross_state() {
        let m = Mzi::default();
        assert!((m.cross_power() - 1.0).abs() < 1e-12);
        assert_eq!(m.arm_transmission, 1.0);
        assert_eq!(m.coupler_1, Coupler::ideal_50_50());
        assert_eq!(m.coupler_2, Coupler::ideal_50_50());
    }

    #[test]
    fn compact_cell_matches_ideal_mzi() {
        for theta in [0.0, 0.4, FRAC_PI_2, 2.2, PI] {
            for phi in [0.0, -1.3, 0.9, PI] {
                let compact = CompactCell::new(theta, phi).transfer_matrix();
                let full = Mzi::new(theta, phi).transfer_matrix();
                assert!(
                    compact.approx_eq(&full, 1e-12),
                    "theta={theta} phi={phi}:\n{compact}\nvs\n{full}"
                );
                assert!(compact.is_unitary(1e-12));
            }
        }
    }
}
