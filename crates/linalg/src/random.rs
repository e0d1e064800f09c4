//! Random matrix generators: Haar-distributed unitaries and Gaussian
//! ensembles, used to benchmark mesh expressivity on "typical" targets.

use crate::decomp::{qr, Qr};
use crate::{CMatrix, CVector, C64};
use rand::Rng;

/// Draws a standard complex Gaussian (Ginibre) matrix: independent entries
/// with `N(0, 1/2)` real and imaginary parts.
pub(crate) fn ginibre<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CMatrix {
    CMatrix::from_fn(n, n, |_, _| C64::new(gaussian(rng), gaussian(rng)))
}

/// Draws a Haar-distributed random unitary of dimension `n`.
///
/// Uses the QR-of-Ginibre construction with the phase correction
/// `Q <- Q * diag(r_jj / |r_jj|)` that makes the distribution exactly Haar
/// (Mezzadri, 2007).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let u = neuropulsim_linalg::random::haar_unitary(&mut rng, 8);
/// assert!(u.is_unitary(1e-10));
/// ```
pub fn haar_unitary<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CMatrix {
    let g = ginibre(rng, n);
    let Qr { q, r } = qr(&g);
    let mut u = q;
    for j in 0..n {
        let d = r[(j, j)];
        let mag = d.abs();
        let phase = if mag > 0.0 { d * (1.0 / mag) } else { C64::ONE };
        for i in 0..n {
            u[(i, j)] *= phase;
        }
    }
    u
}

/// Draws a random complex unit vector of dimension `n`, uniform on the
/// sphere (Gaussian direction, normalized).
pub fn random_state<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CVector {
    loop {
        let v: CVector = (0..n)
            .map(|_| C64::new(gaussian(rng), gaussian(rng)))
            .collect();
        if let Some(u) = v.normalized() {
            return u;
        }
    }
}

/// Samples a standard normal via Box–Muller.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn haar_unitaries_are_unitary() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2, 4, 8, 16] {
            let u = haar_unitary(&mut rng, n);
            assert!(u.is_unitary(1e-9), "not unitary at n={n}");
        }
    }

    #[test]
    fn haar_trace_statistics() {
        // For Haar unitaries E[|Tr U|^2] = 1 regardless of dimension.
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 300;
        let mean: f64 = (0..trials)
            .map(|_| haar_unitary(&mut rng, 6).trace().abs2())
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean - 1.0).abs() < 0.25,
            "E[|Tr U|^2] = {mean}, expected about 1"
        );
    }

    #[test]
    fn random_state_is_normalized() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1, 2, 9] {
            let v = random_state(&mut rng, n);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }
}
