//! The incoherent PCM crossbar ("photonic dot-product engine") — the
//! alternative in-memory MVM architecture of Zhou et al., *Nat. Commun.*
//! 2023, cited by the paper's introduction alongside the interferometric
//! approach.
//!
//! Instead of encoding weights in interference (MZI meshes), each weight
//! is the *transmission* of one PCM cell in an `N x N` crossbar: light on
//! input row `i` passes cell `(i, j)` and accumulates incoherently
//! (power-summed) on output column `j`. Transmissions are non-negative,
//! so signed weights use the standard differential trick: two cells per
//! weight, `w = w_plus - w_minus`, read by balanced detectors.
//!
//! Trade-offs vs the mesh (quantified in experiment E13):
//!
//! - programming is *local* (one cell per weight — no SVD/decomposition),
//! - imperfections stay local too (no error propagation through depth),
//! - but it needs `2 N^2` PCM cells vs `2 N` shifters per mesh column,
//!   splits input power `1/N`, and cannot exploit coherent phase.

use neuropulsim_linalg::RMatrix;
use neuropulsim_photonics::pcm::transmission_levels;
use neuropulsim_photonics::pcm::PcmMaterial;
use rand::Rng;

/// Noise model of a crossbar execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarNoise {
    /// Relative RMS error of each programmed cell transmission.
    pub programming_sigma: f64,
    /// Additive Gaussian noise RMS per balanced-detector readout,
    /// relative to a unit full-scale output.
    pub readout_sigma: f64,
}

impl CrossbarNoise {
    /// Noiseless configuration.
    pub fn ideal() -> Self {
        CrossbarNoise {
            programming_sigma: 0.0,
            readout_sigma: 0.0,
        }
    }
}

impl Default for CrossbarNoise {
    fn default() -> Self {
        CrossbarNoise::ideal()
    }
}

/// A programmed differential PCM crossbar for one real matrix.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::crossbar::CrossbarCore;
/// use neuropulsim_linalg::RMatrix;
/// use neuropulsim_photonics::pcm::PcmMaterial;
///
/// let w = RMatrix::from_rows(2, 2, &[1.0, -0.5, 0.25, 2.0]);
/// let core = CrossbarCore::new(&w, PcmMaterial::Gst225, 64);
/// let y = core.multiply(&[1.0, 1.0]);
/// assert!((y[0] - 0.5).abs() < 0.1);
/// assert!((y[1] - 2.25).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarCore {
    n: usize,
    /// Quantized positive-rail transmissions in `[0, 1]`.
    plus: RMatrix,
    /// Quantized negative-rail transmissions in `[0, 1]`.
    minus: RMatrix,
    /// Scale mapping unit transmission back to physical weight magnitude.
    scale: f64,
    levels: u32,
    material: PcmMaterial,
}

impl CrossbarCore {
    /// Programs a crossbar for the square matrix `w` using PCM cells of
    /// the given material quantized to `levels` transmission states.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not square or `levels < 2`.
    pub fn new(w: &RMatrix, material: PcmMaterial, levels: u32) -> Self {
        assert_eq!(w.rows(), w.cols(), "crossbar needs a square matrix");
        assert!(levels >= 2, "need at least 2 transmission levels");
        let n = w.rows();
        let weight_grid = transmission_levels(material, levels);
        // The crystalline-state transmission floor: the grid's darkest
        // value. Differential pairs bias both rails by this floor so a
        // zero weight is exactly representable (both rails at the floor).
        let t_min = *weight_grid.last().expect("nonempty grid");
        let usable = (1.0 - t_min).max(f64::MIN_POSITIVE);
        let scale = w.max_abs().max(f64::MIN_POSITIVE) / usable;
        let quantize = |target: f64| -> f64 {
            // Nearest representable transmission in the material's grid.
            let mut best = weight_grid[0];
            for &g in &weight_grid {
                if (g - target).abs() < (best - target).abs() {
                    best = g;
                }
            }
            best
        };
        // Signed weight -> rail pair: the carrying rail holds
        // floor + |w|/scale, the idle rail sits at the floor.
        let plus = RMatrix::from_fn(n, n, |i, j| {
            let target = w[(i, j)] / scale;
            quantize(t_min + target.max(0.0))
        });
        let minus = RMatrix::from_fn(n, n, |i, j| {
            let target = w[(i, j)] / scale;
            quantize(t_min + (-target).max(0.0))
        });
        CrossbarCore {
            n,
            plus,
            minus,
            scale,
            levels,
            material,
        }
    }

    /// The matrix dimension.
    pub fn modes(&self) -> usize {
        self.n
    }

    /// Number of PCM cells (two rails).
    pub fn cell_count(&self) -> usize {
        2 * self.n * self.n
    }

    /// Transmission levels per cell.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The cell material.
    pub fn material(&self) -> PcmMaterial {
        self.material
    }

    /// The effective matrix implemented by the quantized rails.
    pub fn effective_matrix(&self) -> RMatrix {
        RMatrix::from_fn(self.n, self.n, |i, j| {
            (self.plus[(i, j)] - self.minus[(i, j)]) * self.scale
        })
    }

    /// Ideal (noiseless) incoherent multiply. Inputs may be signed: the
    /// sign rides on the time-multiplexed input polarity as in the cited
    /// engine; only the weights are transmission-limited.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != modes()`.
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "multiply: dimension mismatch");
        (0..self.n)
            .map(|i| {
                let mut acc = 0.0;
                for (j, &xj) in x.iter().enumerate() {
                    acc += (self.plus[(i, j)] - self.minus[(i, j)]) * xj;
                }
                acc * self.scale
            })
            .collect()
    }

    /// Multiply through one sampled noisy instance: per-cell programming
    /// error plus per-output readout noise. Because cells are independent,
    /// errors do not propagate — the locality advantage over deep meshes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != modes()`.
    pub fn multiply_noisy<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        noise: &CrossbarNoise,
        rng: &mut R,
    ) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "multiply: dimension mismatch");
        (0..self.n)
            .map(|i| {
                let mut acc = 0.0;
                for (j, &xj) in x.iter().enumerate() {
                    let p = self.plus[(i, j)]
                        * (1.0
                            + noise.programming_sigma * neuropulsim_linalg::random::gaussian(rng));
                    let m = self.minus[(i, j)]
                        * (1.0
                            + noise.programming_sigma * neuropulsim_linalg::random::gaussian(rng));
                    acc += (p.clamp(0.0, 1.0) - m.clamp(0.0, 1.0)) * xj;
                }
                (acc + noise.readout_sigma * neuropulsim_linalg::random::gaussian(rng)) * self.scale
            })
            .collect()
    }

    /// Relative error of the quantized weights vs the target.
    pub fn quantization_error(&self, target: &RMatrix) -> f64 {
        let eff = self.effective_matrix();
        (&eff - target).frobenius_norm() / target.frobenius_norm().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropulsim_linalg::metrics::mse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(n: usize, seed: u64) -> RMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        RMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn fine_quantization_approximates_the_matrix() {
        let w = random_matrix(6, 1);
        let core = CrossbarCore::new(&w, PcmMaterial::Gst225, 256);
        assert!(
            core.quantization_error(&w) < 0.05,
            "err {}",
            core.quantization_error(&w)
        );
        let x = [0.3, -0.5, 0.8, 0.1, -0.9, 0.4];
        let got = core.multiply(&x);
        let want = w.mul_vec(&x);
        assert!(mse(&got, &want) < 1e-3);
    }

    #[test]
    fn error_falls_with_levels() {
        let w = random_matrix(6, 2);
        let e4 = CrossbarCore::new(&w, PcmMaterial::Gst225, 4).quantization_error(&w);
        let e16 = CrossbarCore::new(&w, PcmMaterial::Gst225, 16).quantization_error(&w);
        let e64 = CrossbarCore::new(&w, PcmMaterial::Gst225, 64).quantization_error(&w);
        assert!(e16 < e4, "{e16} !< {e4}");
        assert!(e64 < e16, "{e64} !< {e16}");
    }

    #[test]
    fn signed_weights_via_differential_rails() {
        let w = RMatrix::from_rows(2, 2, &[-1.0, 0.5, 0.0, -0.25]);
        let core = CrossbarCore::new(&w, PcmMaterial::Gst225, 128);
        let eff = core.effective_matrix();
        assert!(eff[(0, 0)] < -0.9);
        assert!(eff[(1, 1)] < 0.0);
        assert!((eff[(1, 0)]).abs() < 0.05);
    }

    #[test]
    fn cell_count_is_2n_squared() {
        let core = CrossbarCore::new(&random_matrix(5, 3), PcmMaterial::Gst225, 16);
        assert_eq!(core.cell_count(), 50);
        assert_eq!(core.modes(), 5);
    }

    #[test]
    fn noise_is_local_not_amplified() {
        // With per-cell noise sigma, the output error of a crossbar stays
        // ~sigma-scale; nothing compounds through depth.
        let w = random_matrix(8, 5);
        let core = CrossbarCore::new(&w, PcmMaterial::Gst225, 256);
        let x = vec![0.5; 8];
        let want = core.multiply(&x);
        let noise = CrossbarNoise {
            programming_sigma: 0.01,
            readout_sigma: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 50;
        let mut worst: f64 = 0.0;
        for _ in 0..trials {
            let got = core.multiply_noisy(&x, &noise, &mut rng);
            for (a, b) in got.iter().zip(&want) {
                worst = worst.max((a - b).abs());
            }
        }
        // Error bounded by ~ sigma * sum|x| * scale with slack.
        assert!(worst < 0.15, "worst error {worst}");
        assert!(worst > 0.0);
    }

    #[test]
    fn ideal_noise_matches_clean() {
        let w = random_matrix(4, 9);
        let core = CrossbarCore::new(&w, PcmMaterial::Gst225, 64);
        let x = [0.1, 0.2, 0.3, 0.4];
        let mut rng = StdRng::seed_from_u64(1);
        let a = core.multiply(&x);
        let b = core.multiply_noisy(&x, &CrossbarNoise::ideal(), &mut rng);
        assert!(mse(&a, &b) < 1e-24);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let _ = CrossbarCore::new(&RMatrix::zeros(2, 3), PcmMaterial::Gst225, 8);
    }
}
