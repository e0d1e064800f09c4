//! The Reck triangular decomposition (Reck et al., *PRL* 73, 58, 1994) —
//! the original universal multiport interferometer and the baseline the
//! Clements rectangle improves upon (half the depth, balanced paths).
//!
//! Nulling uses only right-multiplications by inverse MZIs, sweeping each
//! row from the left starting with the bottom row, so no diagonal
//! commutation step is needed: `U = D * T_q * ... * T_1` directly.

use crate::program::{MeshProgram, MziBlock};
use neuropulsim_linalg::CMatrix;
use neuropulsim_photonics::phase::wrap_phase;

/// Decomposes a unitary into a Reck-triangle [`MeshProgram`].
///
/// The returned program has `N(N-1)/2` blocks like Clements but optical
/// depth `2N - 3`, and strongly unbalanced path lengths (port 0 crosses
/// one cell, port N-1 crosses up to `2N - 3`).
///
/// # Panics
///
/// Panics if `u` is not square, is empty, or is not unitary to `1e-6`.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::reck::decompose;
/// use neuropulsim_linalg::{metrics, random};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let u = random::haar_unitary(&mut rng, 5);
/// let program = decompose(&u);
/// assert_eq!(program.block_count(), 10);
/// assert!(metrics::unitary_infidelity(&u, &program.transfer_matrix()) < 1e-10);
/// ```
pub fn decompose(u: &CMatrix) -> MeshProgram {
    assert!(u.is_square(), "decompose: matrix must be square");
    let n = u.rows();
    assert!(n > 0, "decompose: empty matrix");
    assert!(
        u.is_unitary(1e-6),
        "decompose: matrix must be unitary (||U†U - I|| <= 1e-6)"
    );
    if n == 1 {
        return MeshProgram::new(1, Vec::new(), vec![u[(0, 0)].arg()]);
    }

    let mut work = u.clone();
    let mut blocks: Vec<MziBlock> = Vec::new();

    // Null rows bottom-up; within a row, columns left to right. Each null
    // of work[row][j] right-multiplies an inverse MZI on modes (j, j+1).
    for row in (1..n).rev() {
        for j in 0..row {
            let (theta, phi) = solve_right_null(&work, row, j);
            apply_right_inverse(&mut work, j, theta, phi);
            blocks.push(MziBlock::new(j, theta, phi));
        }
    }

    let output_phases: Vec<f64> = (0..n).map(|k| wrap_phase(work[(k, k)].arg())).collect();
    MeshProgram::new(n, blocks, output_phases)
}

/// Finds `(theta, phi)` so that `(U * T(m, theta, phi)^{-1})[r, m] = 0`
/// (same condition as the Clements right-null).
fn solve_right_null(u: &CMatrix, r: usize, m: usize) -> (f64, f64) {
    let a = u[(r, m)];
    let b = u[(r, m + 1)];
    if b.abs() < 1e-300 {
        if a.abs() < 1e-300 {
            return (0.0, 0.0);
        }
        return (0.0, 0.0);
    }
    if a.abs() < 1e-300 {
        return (std::f64::consts::PI, 0.0);
    }
    let half_theta = (b.abs() / a.abs()).atan();
    let phi = wrap_phase(a.arg() - (-b).arg());
    (2.0 * half_theta, phi)
}

fn apply_right_inverse(u: &mut CMatrix, m: usize, theta: f64, phi: f64) {
    let (a, b, c, d) = MziBlock::new(m, theta, phi).elements();
    u.apply_right_2x2(m, m + 1, a.conj(), c.conj(), b.conj(), d.conj());
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropulsim_linalg::metrics::unitary_infidelity;
    use neuropulsim_linalg::random::haar_unitary;
    use neuropulsim_linalg::C64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_haar_unitaries() {
        let mut rng = StdRng::seed_from_u64(29);
        for n in [2, 3, 4, 6, 8, 12] {
            let u = haar_unitary(&mut rng, n);
            let program = decompose(&u);
            let err = unitary_infidelity(&u, &program.transfer_matrix());
            assert!(err < 1e-10, "n={n}: infidelity {err}");
            assert!(
                program.transfer_matrix().approx_eq(&u, 1e-8),
                "entrywise n={n}"
            );
        }
    }

    #[test]
    fn block_count_matches_clements() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [3, 5, 8] {
            let u = haar_unitary(&mut rng, n);
            assert_eq!(decompose(&u).block_count(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn depth_is_2n_minus_3() {
        let mut rng = StdRng::seed_from_u64(37);
        for n in [3usize, 5, 8, 10] {
            let u = haar_unitary(&mut rng, n);
            let d = decompose(&u).depth();
            assert_eq!(d, 2 * n - 3, "n={n}: depth {d}");
        }
    }

    #[test]
    fn deeper_than_clements() {
        let mut rng = StdRng::seed_from_u64(41);
        let u = haar_unitary(&mut rng, 8);
        let reck_depth = decompose(&u).depth();
        let clements_depth = crate::clements::decompose(&u).depth();
        assert!(
            reck_depth > clements_depth,
            "reck {reck_depth} vs clements {clements_depth}"
        );
    }

    #[test]
    fn decomposes_identity_and_diagonal() {
        let id = CMatrix::identity(4);
        assert!(decompose(&id).transfer_matrix().approx_eq(&id, 1e-10));
        let d = CMatrix::diagonal(&[C64::cis(0.4), C64::cis(2.0), C64::cis(-1.0)]);
        assert!(decompose(&d).transfer_matrix().approx_eq(&d, 1e-10));
    }

    #[test]
    #[should_panic(expected = "unitary")]
    fn rejects_non_unitary() {
        let m = CMatrix::from_reals(2, 2, &[2.0, 0.0, 0.0, 1.0]);
        let _ = decompose(&m);
    }
}
