//! The photonic matrix–vector-multiplication (MVM) core: the paper's §4
//! "in-memory optical computing" engine.
//!
//! An arbitrary real weight matrix `M` is factored as `M = U Σ V†` (SVD)
//! and realized as:
//!
//! ```text
//!   input x → [modulators] → [mesh V†] → [attenuators Σ/σ_max]
//!           → [mesh U] → [homodyne detectors] → y = M x
//! ```
//!
//! The two meshes are programmed Clements-style (or any architecture); the
//! diagonal is a column of amplitude attenuators (realizable as MZIs in
//! bar-configuration or PCM absorbers). Weights live *in* the mesh —
//! reading them costs nothing per inference, which is the in-memory
//! computing claim the paper builds on.
//! The realized chip is therefore one real matrix `Re(U·diag(a)·V)·σ_max`
//! ([`RealizedMvm`]): [`MvmCore::new`] realizes the ideal chip once, and
//! every ideal multiply (GeMM and the accelerator device too) reads it.

use crate::clements::decompose;
use crate::error::HardwareModel;
use crate::program::MeshProgram;
use neuropulsim_linalg::decomp::svd;
use neuropulsim_linalg::soa::real_udv_into;
use neuropulsim_linalg::{CMatrix, RMatrix, SplitMatrix};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Noise/imperfection configuration for a physical MVM execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvmNoiseConfig {
    /// Hardware imperfections of both meshes.
    pub hardware: HardwareModel,
    /// Additive Gaussian noise RMS on each homodyne readout, relative to
    /// a unit-amplitude field.
    pub readout_sigma: f64,
    /// Relative RMS error of each diagonal attenuator setting.
    pub attenuator_sigma: f64,
}

impl MvmNoiseConfig {
    /// A noiseless, ideal configuration.
    pub fn ideal() -> Self {
        MvmNoiseConfig {
            hardware: HardwareModel::ideal(),
            readout_sigma: 0.0,
            attenuator_sigma: 0.0,
        }
    }
}

impl Default for MvmNoiseConfig {
    fn default() -> Self {
        MvmNoiseConfig::ideal()
    }
}

/// A programmed photonic MVM core holding one `n x n` real matrix.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::mvm::MvmCore;
/// use neuropulsim_linalg::RMatrix;
///
/// let m = RMatrix::from_rows(2, 2, &[1.0, -0.5, 0.25, 2.0]);
/// let core = MvmCore::new(&m);
/// let y = core.multiply(&[1.0, 1.0]);
/// assert!((y[0] - 0.5).abs() < 1e-9);
/// assert!((y[1] - 2.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MvmCore {
    n: usize,
    target: RMatrix,
    u_program: MeshProgram,
    v_program: MeshProgram,
    /// Attenuator amplitudes in `[0, 1]` (singular values / sigma_max).
    attenuation: Vec<f64>,
    /// Overall scale `sigma_max` restoring physical magnitudes.
    scale: f64,
    /// The ideal realized chip, composed once at programming time: the
    /// weights live in the phase-shifter state, so every ideal multiply
    /// reads this one dense matrix.
    chip: RealizedMvm,
}

impl MvmCore {
    /// Programs a core for the given square real matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square or is empty, if any entry of `m` is
    /// not finite ("MVM core needs finite weights"), or if its largest
    /// singular value overflows to infinity ("MVM core needs a finite
    /// sigma_max", e.g. entries near `1e300`).
    pub fn new(m: &RMatrix) -> Self {
        assert_eq!(m.rows(), m.cols(), "MVM core needs a square matrix");
        assert!(m.rows() > 0, "MVM core needs a non-empty matrix");
        assert!(
            m.as_slice().iter().all(|w| w.is_finite()),
            "MVM core needs finite weights"
        );
        let n = m.rows();
        let complex = m.to_complex();
        let d = svd(&complex);
        let sigma_max = d.sigma.first().copied().unwrap_or(0.0);
        assert!(sigma_max.is_finite(), "MVM core needs a finite sigma_max");
        let (attenuation, scale) = if sigma_max > 0.0 {
            (d.sigma.iter().map(|s| s / sigma_max).collect(), sigma_max)
        } else {
            (vec![0.0; n], 0.0)
        };
        let mut core = MvmCore {
            n,
            target: m.clone(),
            u_program: decompose(&d.u),
            v_program: decompose(&d.v.adjoint()),
            attenuation,
            scale,
            chip: RealizedMvm::default(),
        };
        // An ideal realization's draws are all scaled by zero, so a
        // throwaway generator yields the same chip as any other.
        core.chip = core.realize(&MvmNoiseConfig::ideal(), &mut StdRng::seed_from_u64(0));
        core
    }

    /// The matrix dimension `n`.
    pub fn modes(&self) -> usize {
        self.n
    }

    /// The target matrix this core was programmed for.
    pub fn target(&self) -> &RMatrix {
        &self.target
    }

    /// The output scale factor (`sigma_max` of the target).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The normalized attenuator settings in `[0, 1]`.
    pub fn attenuation(&self) -> &[f64] {
        &self.attenuation
    }

    /// The mesh program of the left (U) unitary.
    pub fn u_program(&self) -> &MeshProgram {
        &self.u_program
    }

    /// The mesh program of the right (V†) unitary.
    pub fn v_program(&self) -> &MeshProgram {
        &self.v_program
    }

    /// Total number of MZI blocks across both meshes.
    pub fn block_count(&self) -> usize {
        self.u_program.block_count() + self.v_program.block_count()
    }

    /// The ideal realized chip every ideal multiply reads — the same
    /// chip [`MvmCore::realize`] yields under [`MvmNoiseConfig::ideal`].
    pub fn chip(&self) -> &RealizedMvm {
        &self.chip
    }

    /// Ideal optical multiply: returns `M * x` as read out from the
    /// ideal realized chip.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != modes()`.
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.multiply_into(x, &mut y);
        y
    }

    /// Ideal optical multiply into a caller-owned output: one real
    /// matrix-vector product against the ideal chip's effective matrix
    /// (see [`RealizedMvm::multiply_into`]), no allocation.
    /// Column-streaming callers (GeMM) reuse `y` across every call.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is not `modes()` long.
    pub fn multiply_into(&self, x: &[f64], y: &mut [f64]) {
        self.chip.multiply_into(x, y);
    }

    /// Physical optical multiply with sampled hardware imperfections and
    /// readout noise. Each call re-samples the static imperfections (i.e.
    /// models one fabricated instance); reuse [`MvmCore::realize`] to fix
    /// an instance across many multiplies.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != modes()`.
    pub fn multiply_noisy<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        config: &MvmNoiseConfig,
        rng: &mut R,
    ) -> Vec<f64> {
        self.realize(config, rng).multiply_noisy(x, rng)
    }

    /// Realizes one physical instance of the core under the given noise
    /// configuration (static imperfections frozen in).
    pub fn realize<R: Rng + ?Sized>(&self, config: &MvmNoiseConfig, rng: &mut R) -> RealizedMvm {
        let u = config.hardware.realize(&self.u_program, rng);
        let v = config.hardware.realize(&self.v_program, rng);
        let attenuation: Vec<f64> = self
            .attenuation
            .iter()
            .map(|&a| {
                let noisy =
                    a * (1.0 + config.attenuator_sigma * neuropulsim_linalg::random::gaussian(rng));
                noisy.clamp(0.0, 1.0)
            })
            .collect();
        RealizedMvm::new(u, v, attenuation, self.scale, config.readout_sigma)
    }

    /// The effective real matrix seen by a carrier whose wavelength
    /// detuning scales every mesh phase by `factor` (1.0 = the design
    /// wavelength). First-order chromatic-dispersion model for DWDM
    /// operation.
    pub fn dispersed_matrix(&self, factor: f64) -> RMatrix {
        let u = self.u_program.with_scaled_phases(factor).transfer_matrix();
        let v = self.v_program.with_scaled_phases(factor).transfer_matrix();
        let mut m = RMatrix::zeros(self.n, self.n);
        real_udv_into(
            &SplitMatrix::from_matrix(&u),
            &self.attenuation,
            &SplitMatrix::from_matrix(&v),
            self.scale,
            &mut m,
        );
        m
    }

    /// The effective matrix realized by one sampled physical instance.
    pub fn realized_matrix<R: Rng + ?Sized>(
        &self,
        config: &MvmNoiseConfig,
        rng: &mut R,
    ) -> RMatrix {
        self.realize(config, rng).effective_matrix()
    }
}

/// One physical instance of an MVM core: frozen imperfect meshes plus
/// per-shot readout noise.
///
/// The instance's static hardware is fully summarized by one real
/// matrix — the input is real, so `y = Re(U·diag(a)·V)·x·scale + noise`.
/// That matrix is computed here at realization time; every multiply and
/// every [`RealizedMvm::effective_matrix`] call reads the cached copy
/// instead of re-composing the U/Σ/V chain. The realized meshes stay
/// frozen in split-complex form, packed once:
/// [`RealizedMvm::set_attenuation`] re-programs the attenuator column
/// and re-composes against them in place — the real half of the
/// product only, so half the flops and no allocation.
/// [`RealizedMvm::drift_to`] ages that column as PCM cells by one
/// affine `n²` update, and [`RealizedMvm::recalibrate`] copies the
/// as-programmed matrix back. The default is an empty zero-mode chip.
#[derive(Debug, Clone, Default)]
pub struct RealizedMvm {
    u: SplitMatrix,
    v: SplitMatrix,
    /// The programmed attenuator column.
    attenuation: Vec<f64>,
    scale: f64,
    readout_sigma: f64,
    /// Cached `Re(U · diag(a) · V) · scale` for the current attenuation.
    effective: RMatrix,
    /// The affine drift state; empty until the first drifted
    /// [`RealizedMvm::drift_to`] after programming.
    drift: AffineDrift,
}

/// Where a drifting PCM attenuator sits: clamped dark (amplitude 0,
/// fully crystalline), moving with the drift offset, or clamped open
/// (amplitude 1, fully amorphous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Saturation {
    Low,
    Free,
    High,
}

/// The drifted chip as an affine function of the shared drift offset
/// `δ = ν·ln(1 + t)`: with `R_k = Re(u_k v_kᵀ)·scale` and each cell's
/// stored crystalline fraction `f_k = 1 − a_k`, the chip at `δ` is
/// `base − δ·slope`, where `base = Σ_free (1 − f_k)·R_k + Σ_high R_k`
/// and `slope = Σ_free R_k`. Both are rebuilt from the mask alone
/// whenever it changes — drift is monotone between recalibrations, so
/// at most `n` times per epoch — and never accumulated, so the chip
/// depends on no history.
#[derive(Debug, Clone, Default)]
struct AffineDrift {
    /// Saturation of each cell that `base` and `slope` were built for.
    mask: Vec<Saturation>,
    /// The chip at the programmed column, as composed when it was set.
    programmed: RMatrix,
    base: RMatrix,
    slope: RMatrix,
}

/// The crystalline fraction a PCM attenuator of amplitude `a` stores —
/// `PcmCell::set_state`'s policy: clamp, NaN → amorphous.
fn stored_fraction(a: f64) -> f64 {
    if a.is_nan() {
        0.0
    } else {
        (1.0 - a).clamp(0.0, 1.0)
    }
}

impl RealizedMvm {
    fn new(u: CMatrix, v: CMatrix, attenuation: Vec<f64>, scale: f64, readout_sigma: f64) -> Self {
        let n = attenuation.len();
        let mut chip = RealizedMvm {
            u: SplitMatrix::from_matrix(&u),
            v: SplitMatrix::from_matrix(&v),
            attenuation,
            scale,
            readout_sigma,
            effective: RMatrix::zeros(n, n),
            drift: AffineDrift::default(),
        };
        chip.recompose();
        chip
    }

    fn recompose(&mut self) {
        real_udv_into(
            &self.u,
            &self.attenuation,
            &self.v,
            self.scale,
            &mut self.effective,
        );
    }

    /// Number of optical modes (the core dimension).
    pub fn modes(&self) -> usize {
        self.attenuation.len()
    }

    /// The programmed attenuator column (amplitudes in `[0, 1]`).
    pub fn attenuation(&self) -> &[f64] {
        &self.attenuation
    }

    /// Re-programs the attenuator column between the frozen meshes and
    /// re-composes the cached effective matrix in place — half the
    /// flops of a complex product, no allocation, no mesh realization.
    /// The new column is what later drift ages from.
    ///
    /// Entries are clamped to `[0, 1]`. A NaN entry reads as a fully
    /// amorphous PCM cell, amplitude 1.0 — the policy of
    /// `PcmCell::set_state` — so one bad setting cannot poison the chip.
    ///
    /// # Panics
    ///
    /// Panics if `attenuation.len()` does not match the core dimension.
    pub fn set_attenuation(&mut self, attenuation: &[f64]) {
        assert_eq!(
            attenuation.len(),
            self.attenuation.len(),
            "set_attenuation: attenuator count mismatch"
        );
        for (dst, &a) in self.attenuation.iter_mut().zip(attenuation) {
            *dst = if a.is_nan() { 1.0 } else { a.clamp(0.0, 1.0) };
        }
        self.recompose();
        self.drift.mask.clear();
    }

    /// Ages the programmed attenuators as PCM cells by the drift offset
    /// `offset` (`photonics::pcm::drift_offset`): each cell's stored
    /// crystalline fraction `f = 1 − a` moves to `clamp(f + offset, 0,
    /// 1)`, so its amplitude reads `1 − f − offset` until it saturates
    /// at 0 or 1 — exactly `photonics::pcm::drift_fraction`'s law.
    ///
    /// One O(n) saturation check, then one `n²` update of the cached
    /// matrix from the affine state; a changed saturation mask first
    /// rebuilds that state with two composes. A zero or NaN offset moves
    /// no cell and leaves the as-programmed matrix; an infinite one
    /// saturates every cell. The result is finite for every `offset`.
    pub fn drift_to(&mut self, offset: f64) {
        if offset == 0.0 || offset.is_nan() {
            self.recalibrate();
            return;
        }
        let d = &mut self.drift;
        let mut changed = d.mask.is_empty();
        if changed {
            // An empty mask means the chip is still as programmed.
            d.programmed.clone_from(&self.effective);
            d.mask.resize(self.attenuation.len(), Saturation::Free);
        }
        let mut free = false;
        for (s, &a) in d.mask.iter_mut().zip(&self.attenuation) {
            let next = stored_fraction(a) + offset;
            let now = if next >= 1.0 {
                Saturation::Low
            } else if next <= 0.0 {
                Saturation::High
            } else {
                Saturation::Free
            };
            free |= now == Saturation::Free;
            changed |= *s != now;
            *s = now;
        }
        if changed {
            self.rebuild_drift();
        }
        let d = &self.drift;
        let out = self.effective.as_mut_slice();
        if free {
            // A free cell bounds |offset| < 1, so nothing overflows.
            let terms = d.base.as_slice().iter().zip(d.slope.as_slice());
            for (e, (&b, &s)) in out.iter_mut().zip(terms) {
                *e = b - offset * s;
            }
        } else {
            // Every cell saturated: `slope` is zero, and `offset` may be
            // infinite (`∞·0 = NaN`), so the chip is `base` alone.
            out.copy_from_slice(d.base.as_slice());
        }
    }

    /// Rebuilds `base` and `slope` for the current mask.
    fn rebuild_drift(&mut self) {
        let n = self.attenuation.len();
        let d = &mut self.drift;
        if d.base.rows() != n {
            d.base = RMatrix::zeros(n, n);
            d.slope = RMatrix::zeros(n, n);
        }
        let mut column: Vec<f64> = d
            .mask
            .iter()
            .zip(&self.attenuation)
            .map(|(s, &a)| match s {
                Saturation::Low => 0.0,
                Saturation::Free => 1.0 - stored_fraction(a),
                Saturation::High => 1.0,
            })
            .collect();
        real_udv_into(&self.u, &column, &self.v, self.scale, &mut d.base);
        for (c, s) in column.iter_mut().zip(&d.mask) {
            *c = if *s == Saturation::Free { 1.0 } else { 0.0 };
        }
        real_udv_into(&self.u, &column, &self.v, self.scale, &mut d.slope);
    }

    /// Returns a drifted chip to its programmed column: the as-programmed
    /// matrix is copied back, bit-identical to the one
    /// [`RealizedMvm::set_attenuation`] or the realization composed. A
    /// chip that never drifted is already there.
    pub fn recalibrate(&mut self) {
        if !self.drift.mask.is_empty() {
            self.effective
                .as_mut_slice()
                .copy_from_slice(self.drift.programmed.as_slice());
        }
    }

    /// Multiplies through the frozen imperfect hardware, adding fresh
    /// readout noise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the core dimension.
    pub fn multiply_noisy<R: Rng + ?Sized>(&self, x: &[f64], rng: &mut R) -> Vec<f64> {
        let mut y = vec![0.0; self.attenuation.len()];
        self.multiply_noisy_into(x, &mut y, rng);
        y
    }

    /// Zero-allocation form of [`RealizedMvm::multiply_noisy`]: one real
    /// matrix-vector product against the cached effective matrix plus
    /// per-detector readout noise, written into `y`. A zero readout
    /// sigma adds exactly nothing, so the sampler is skipped outright —
    /// noiseless detectors cost no RNG draws.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` does not match the core dimension.
    pub fn multiply_noisy_into<R: Rng + ?Sized>(&self, x: &[f64], y: &mut [f64], rng: &mut R) {
        self.multiply_into(x, y);
        if self.readout_sigma != 0.0 {
            for yi in y.iter_mut() {
                *yi += self.readout_sigma * neuropulsim_linalg::random::gaussian(rng) * self.scale;
            }
        }
    }

    /// Noiseless multiply against the cached effective matrix into `y` —
    /// what a chip with ideal detectors reads out.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` does not match the core dimension.
    pub fn multiply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.attenuation.len(), "dimension mismatch");
        self.effective.mul_vec_into(x, y);
    }

    /// Noiseless multiply of a whole lane-major batch — one dense-WDM
    /// pass: `xt[k·lanes + v]` is element `k` of input `v`, output `v`
    /// lands in `yt[i·lanes + v]`. Each lane is bit-identical to
    /// [`RealizedMvm::multiply_into`] (see [`RMatrix::mul_lanes_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `xt.len()` or `yt.len()` is not the core dimension
    /// times `lanes`.
    #[inline(always)]
    pub fn multiply_lanes_into(&self, xt: &[f64], lanes: usize, yt: &mut [f64]) {
        self.effective.mul_lanes_into(xt, lanes, yt);
    }

    /// The effective real matrix implemented by this instance (real part
    /// of `U * diag(a) * V` times scale), cached whenever the attenuation
    /// is set.
    pub fn effective_matrix(&self) -> RMatrix {
        self.effective.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropulsim_linalg::metrics::mse;
    use neuropulsim_photonics::pcm::{drift_fraction, drift_offset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(n: usize, seed: u64) -> RMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        RMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn ideal_multiply_matches_digital() {
        for n in [2, 4, 8] {
            let m = random_matrix(n, n as u64);
            let core = MvmCore::new(&m);
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..5 {
                let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let want = m.mul_vec(&x);
                let got = core.multiply(&x);
                assert!(mse(&want, &got) < 1e-16, "n={n}");
            }
        }
    }

    #[test]
    fn handles_negative_and_asymmetric_matrices() {
        let m = RMatrix::from_rows(3, 3, &[-2.0, 0.5, 0.0, 1.0, -1.0, 3.0, 0.0, 0.0, 0.1]);
        let core = MvmCore::new(&m);
        let y = core.multiply(&[1.0, -1.0, 0.5]);
        let want = m.mul_vec(&[1.0, -1.0, 0.5]);
        assert!(mse(&want, &y) < 1e-16);
    }

    #[test]
    fn zero_matrix_multiplies_to_zero() {
        let m = RMatrix::zeros(3, 3);
        let core = MvmCore::new(&m);
        let y = core.multiply(&[1.0, 2.0, 3.0]);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
        assert_eq!(core.scale(), 0.0);
    }

    #[test]
    fn attenuators_are_physical() {
        let m = random_matrix(6, 3);
        let core = MvmCore::new(&m);
        for &a in core.attenuation() {
            assert!((0.0..=1.0 + 1e-12).contains(&a), "attenuation {a}");
        }
        assert!((core.attenuation()[0] - 1.0).abs() < 1e-9, "largest = 1");
    }

    #[test]
    fn block_count_is_two_meshes() {
        let core = MvmCore::new(&random_matrix(6, 5));
        assert_eq!(core.block_count(), 2 * (6 * 5 / 2));
    }

    #[test]
    fn noisy_multiply_approaches_ideal_as_noise_vanishes() {
        let m = random_matrix(4, 7);
        let core = MvmCore::new(&m);
        let x = [0.3, -0.4, 0.9, 0.1];
        let mut rng = StdRng::seed_from_u64(5);
        let got = core.multiply_noisy(&x, &MvmNoiseConfig::ideal(), &mut rng);
        let want = core.multiply(&x);
        assert!(mse(&want, &got) < 1e-16);
    }

    #[test]
    fn readout_noise_perturbs_output() {
        let m = random_matrix(4, 9);
        let core = MvmCore::new(&m);
        let x = [1.0, 0.0, 0.0, 0.0];
        let config = MvmNoiseConfig {
            readout_sigma: 0.01,
            ..MvmNoiseConfig::ideal()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let a = core.multiply_noisy(&x, &config, &mut rng);
        let b = core.multiply_noisy(&x, &config, &mut rng);
        assert!(mse(&a, &b) > 0.0, "independent shots must differ");
        // But error stays bounded: noise scaled by core scale.
        let want = core.multiply(&x);
        assert!(mse(&want, &a).sqrt() < 0.1 * core.scale().max(1.0));
    }

    #[test]
    fn dispersed_matrix_at_design_wavelength_is_target() {
        let m = random_matrix(4, 21);
        let core = MvmCore::new(&m);
        assert!(core.dispersed_matrix(1.0).approx_eq(&m, 1e-9));
        let detuned = core.dispersed_matrix(0.999);
        assert!(!detuned.approx_eq(&m, 1e-6), "detuning must perturb");
        // Error grows with detuning.
        let e1 = (&core.dispersed_matrix(0.999) - &m).frobenius_norm();
        let e2 = (&core.dispersed_matrix(0.995) - &m).frobenius_norm();
        assert!(e2 > e1);
    }

    #[test]
    fn effective_matrix_of_ideal_instance_is_target() {
        let m = random_matrix(5, 11);
        let core = MvmCore::new(&m);
        let mut rng = StdRng::seed_from_u64(2);
        let eff = core.realized_matrix(&MvmNoiseConfig::ideal(), &mut rng);
        assert!(eff.approx_eq(&m, 1e-9));
    }

    #[test]
    fn frozen_instance_is_deterministic_without_readout_noise() {
        let m = random_matrix(4, 13);
        let core = MvmCore::new(&m);
        let config = MvmNoiseConfig {
            hardware: HardwareModel {
                phase_noise_sigma: 0.05,
                ..HardwareModel::ideal()
            },
            ..MvmNoiseConfig::ideal()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let inst = core.realize(&config, &mut rng);
        let x = [0.5, 0.5, -0.5, 0.25];
        let a = inst.multiply_noisy(&x, &mut rng);
        let b = inst.multiply_noisy(&x, &mut rng);
        assert!(mse(&a, &b) < 1e-18, "same instance, no readout noise");
    }

    #[test]
    fn nan_attenuation_keeps_the_chip_finite() {
        let core = MvmCore::new(&random_matrix(6, 17));
        let mut rng = StdRng::seed_from_u64(4);
        let mut chip = core.realize(&MvmNoiseConfig::ideal(), &mut rng);
        let mut drifted = core.attenuation().to_vec();
        drifted[2] = f64::NAN;
        chip.set_attenuation(&drifted);
        let eff = chip.effective_matrix();
        assert!(
            eff.as_slice().iter().all(|x| x.is_finite()),
            "NaN poisoned the chip"
        );
        // NaN reads as a fully amorphous cell: amplitude 1.0.
        drifted[2] = 1.0;
        let mut want = core.realize(&MvmNoiseConfig::ideal(), &mut rng);
        want.set_attenuation(&drifted);
        assert_eq!(eff, want.effective_matrix());
    }

    /// The drifted chip composed directly: every cell aged through
    /// `drift_fraction`, then the whole column re-set and re-composed.
    fn direct_drift(chip: &RealizedMvm, elapsed_s: f64, nu: f64) -> RMatrix {
        let aged: Vec<f64> = chip
            .attenuation()
            .iter()
            .map(|&a| 1.0 - drift_fraction(stored_fraction(a), elapsed_s, nu))
            .collect();
        let mut direct = chip.clone();
        direct.set_attenuation(&aged);
        direct.effective_matrix()
    }

    /// 48 ages from 0 to ~6e11 s: at ν = ±0.05 the offset passes ±1.3, so
    /// every cell has saturated by the last.
    fn drift_ages() -> impl Iterator<Item = f64> {
        (0..48).map(|i| {
            if i == 0 {
                0.0
            } else {
                10f64.powf(i as f64 / 4.0)
            }
        })
    }

    #[test]
    fn affine_drift_matches_the_direct_compose_at_every_age() {
        let core = MvmCore::new(&random_matrix(8, 23));
        for nu in [0.05, -0.05, 0.0, 1e-3] {
            let mut chip = core.chip().clone();
            let mut saturated = 0;
            for t in drift_ages() {
                let offset = drift_offset(t, nu);
                chip.drift_to(offset);
                let want = direct_drift(core.chip(), t, nu);
                let got = chip.effective_matrix();
                assert!(
                    got.approx_eq(&want, 1e-8),
                    "nu {nu}, age {t}: affine chip left the direct compose"
                );
                saturated = chip
                    .attenuation()
                    .iter()
                    .filter(|&&a| !(0.0..1.0).contains(&(stored_fraction(a) + offset)))
                    .count();
            }
            if nu.abs() >= 0.05 {
                assert_eq!(saturated, 8, "nu {nu}: the ages must saturate every cell");
            }
        }
    }

    #[test]
    fn affine_drift_depends_on_no_history() {
        let core = MvmCore::new(&random_matrix(6, 29));
        let ages: Vec<f64> = drift_ages().collect();
        let mut walked = core.chip().clone();
        // Forward, then backward (a snapshot restore goes back in time).
        for &t in ages.iter().chain(ages.iter().rev()) {
            walked.drift_to(drift_offset(t, 0.05));
            let mut fresh = core.chip().clone();
            fresh.drift_to(drift_offset(t, 0.05));
            let bits = |m: &RMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&walked.effective_matrix()),
                bits(&fresh.effective_matrix()),
                "age {t}: the walked chip remembers its path"
            );
        }
    }

    #[test]
    fn recalibrating_a_drifted_chip_restores_the_programmed_bits() {
        let core = MvmCore::new(&random_matrix(8, 31));
        let bits = |m: &RMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let programmed = bits(&core.chip().effective_matrix());
        let mut chip = core.chip().clone();
        for t in drift_ages() {
            chip.drift_to(drift_offset(t, 0.05));
        }
        assert_ne!(bits(&chip.effective_matrix()), programmed);
        chip.recalibrate();
        assert_eq!(bits(&chip.effective_matrix()), programmed);
        // A zero or NaN offset moves no cell: the chip is as programmed.
        for offset in [0.0, f64::NAN] {
            chip.drift_to(0.5);
            chip.drift_to(offset);
            assert_eq!(bits(&chip.effective_matrix()), programmed);
        }
        // Re-programming the column moves what drift ages from.
        let mut halved = core.chip().clone();
        let half: Vec<f64> = core.attenuation().iter().map(|a| 0.5 * a).collect();
        halved.set_attenuation(&half);
        let want = bits(&halved.effective_matrix());
        halved.drift_to(0.25);
        assert!(halved
            .effective_matrix()
            .approx_eq(&direct_drift(&halved, 3.0, 0.25 / 4f64.ln()), 1e-8));
        halved.recalibrate();
        assert_eq!(bits(&halved.effective_matrix()), want);
    }

    #[test]
    fn hostile_drift_offsets_keep_the_chip_finite() {
        let core = MvmCore::new(&random_matrix(5, 37));
        let mut chip = core.chip().clone();
        let a = core.chip().attenuation().to_vec();
        let column = |f: &dyn Fn(f64) -> f64| {
            let mut c = core.chip().clone();
            c.set_attenuation(&a.iter().map(|&x| f(x)).collect::<Vec<_>>());
            c.effective_matrix()
        };
        // Every cell saturated: dark for a positive offset, open for a
        // negative one, and never `∞·0 = NaN`.
        let dark = column(&|_| 0.0);
        let open = column(&|_| 1.0);
        for (offset, want) in [
            (f64::INFINITY, &dark),
            (1.0, &dark),
            (1e300, &dark),
            (f64::NEG_INFINITY, &open),
            (-1.0, &open),
            (-f64::MAX, &open),
        ] {
            chip.drift_to(offset);
            let got = chip.effective_matrix();
            assert!(
                got.as_slice().iter().all(|x| x.is_finite()),
                "offset {offset}"
            );
            assert!(got.approx_eq(want, 1e-8), "offset {offset}");
        }
        for offset in [f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 0.999, -0.999] {
            chip.drift_to(offset);
            let want = column(&|x| 1.0 - (stored_fraction(x) + offset).clamp(0.0, 1.0));
            assert!(
                chip.effective_matrix().approx_eq(&want, 1e-8),
                "offset {offset}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let _ = MvmCore::new(&RMatrix::zeros(2, 3));
    }

    fn with_entry(value: f64) -> RMatrix {
        let mut m = random_matrix(3, 19);
        m[(1, 2)] = value;
        m
    }

    #[test]
    #[should_panic(expected = "MVM core needs finite weights")]
    fn rejects_nan_weight() {
        let _ = MvmCore::new(&with_entry(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "MVM core needs finite weights")]
    fn rejects_infinite_weight() {
        let _ = MvmCore::new(&with_entry(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "MVM core needs a finite sigma_max")]
    fn rejects_weights_whose_sigma_max_overflows() {
        let _ = MvmCore::new(&with_entry(1e300));
    }
}
