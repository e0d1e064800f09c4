//! Matrix decompositions: QR (modified Gram–Schmidt) and SVD (one-sided
//! Jacobi), both over complex matrices.
//!
//! The SVD is the workhorse for mapping *arbitrary* weight matrices onto
//! photonic interferometer meshes: `M = U * Sigma * V^dagger` with unitary
//! `U`, `V` realizable as MZI meshes and `Sigma` as a column of attenuators.

use crate::{CMatrix, C64};

/// The result of a QR factorization `A = Q * R` with unitary `Q` and
/// upper-triangular `R`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Unitary factor.
    pub q: CMatrix,
    /// Upper-triangular factor.
    pub r: CMatrix,
}

/// Computes a QR factorization of a square matrix by modified Gram–Schmidt
/// with reorthogonalization (numerically adequate for the mesh sizes used
/// here, N <= 256).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn qr(a: &CMatrix) -> Qr {
    assert!(a.is_square(), "qr: matrix must be square");
    let n = a.rows();
    let mut q = a.clone();
    let mut r = CMatrix::zeros(n, n);

    for j in 0..n {
        // Two passes of Gram-Schmidt for stability.
        for _pass in 0..2 {
            for i in 0..j {
                // proj = q_i^dagger * q_j
                let mut proj = C64::ZERO;
                for k in 0..n {
                    proj += q[(k, i)].conj() * q[(k, j)];
                }
                r[(i, j)] += proj;
                for k in 0..n {
                    let qk = q[(k, i)];
                    q[(k, j)] -= proj * qk;
                }
            }
        }
        let mut norm2 = 0.0;
        for k in 0..n {
            norm2 += q[(k, j)].abs2();
        }
        let norm = norm2.sqrt();
        r[(j, j)] = C64::real(norm);
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for k in 0..n {
                q[(k, j)] = q[(k, j)] * inv;
            }
        } else {
            // Rank-deficient column: substitute a basis vector orthogonal to
            // the span built so far (found by trying each and re-orthogonalizing).
            'basis: for b in 0..n {
                for k in 0..n {
                    q[(k, j)] = if k == b { C64::ONE } else { C64::ZERO };
                }
                for i in 0..j {
                    let mut proj = C64::ZERO;
                    for k in 0..n {
                        proj += q[(k, i)].conj() * q[(k, j)];
                    }
                    for k in 0..n {
                        let qk = q[(k, i)];
                        q[(k, j)] -= proj * qk;
                    }
                }
                let mut nn = 0.0;
                for k in 0..n {
                    nn += q[(k, j)].abs2();
                }
                if nn.sqrt() > 1e-6 {
                    let inv = 1.0 / nn.sqrt();
                    for k in 0..n {
                        q[(k, j)] = q[(k, j)] * inv;
                    }
                    break 'basis;
                }
            }
        }
    }
    Qr { q, r }
}

/// The result of a singular value decomposition `A = U * Sigma * V^dagger`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (unitary, `m x m` for square input).
    pub u: CMatrix,
    /// Singular values, sorted descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors (unitary); `A = U diag(sigma) V^dagger`.
    pub v: CMatrix,
    /// Jacobi sweeps run, the last one finding every pair of live
    /// columns orthogonal; `None` when [`SVD_MAX_SWEEPS`] ran out first.
    pub sweeps: Option<usize>,
}

/// The sweep cap of [`svd`].
pub const SVD_MAX_SWEEPS: usize = 60;

impl Svd {
    /// Reconstructs `U * diag(sigma) * V^dagger`.
    pub fn reconstruct(&self) -> CMatrix {
        let s = CMatrix::diagonal_real(&self.sigma);
        self.u.mul_mat(&s).mul_mat(&self.v.adjoint())
    }
}

/// Computes the SVD of a square complex matrix via one-sided Jacobi
/// rotations. Converges quadratically; suitable for the N <= 256 matrices
/// used by the photonic cores.
///
/// A column whose squared norm is at most `(ε·‖A‖_F)²` is zero up to
/// rounding: it takes no further rotations, and convergence is judged
/// on the columns above that floor. Rank-deficient and zero-padded
/// matrices therefore converge as fast as full-rank ones.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn svd(a: &CMatrix) -> Svd {
    assert!(a.is_square(), "svd: matrix must be square");
    let n = a.rows();
    let mut b = a.clone(); // columns converge to U * Sigma
    let mut v = CMatrix::identity(n);
    let tol = 1e-14;
    let floor = (f64::EPSILON * a.frobenius_norm()).powi(2);
    let mut sweeps = None;

    for sweep in 1..=SVD_MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // alpha = ||b_p||^2, beta = ||b_q||^2, gamma = b_p^dagger b_q
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = C64::ZERO;
                for k in 0..n {
                    let bp = b[(k, p)];
                    let bq = b[(k, q)];
                    alpha += bp.abs2();
                    beta += bq.abs2();
                    gamma += bp.conj() * bq;
                }
                let g = gamma.abs();
                if alpha <= floor || beta <= floor || g <= tol * (alpha * beta).sqrt() {
                    continue;
                }
                off = off.max(g / (alpha * beta).sqrt().max(f64::MIN_POSITIVE));
                let theta = gamma.arg();
                let tau = (beta - alpha) / (2.0 * g);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let e_pos = C64::cis(theta); // e^{i theta}
                let e_neg = e_pos.conj();
                // Column rotation J = [[c, s e^{i th}], [-s e^{-i th}, c]]
                // applied on the right: new_p = c b_p - s e^{-i th} b_q,
                //                        new_q = s e^{i th} b_p + c b_q.
                for k in 0..n {
                    let bp = b[(k, p)];
                    let bq = b[(k, q)];
                    b[(k, p)] = bp * c - (e_neg * bq) * s;
                    b[(k, q)] = (e_pos * bp) * s + bq * c;
                }
                for k in 0..n {
                    let vp = v[(k, p)];
                    let vq = v[(k, q)];
                    v[(k, p)] = vp * c - (e_neg * vq) * s;
                    v[(k, q)] = (e_pos * vp) * s + vq * c;
                }
            }
        }
        if off < tol {
            sweeps = Some(sweep);
            break;
        }
    }

    // Extract singular values and normalize columns into U.
    let mut sigma: Vec<f64> = Vec::with_capacity(n);
    let mut u = CMatrix::zeros(n, n);
    for j in 0..n {
        let mut norm2 = 0.0;
        for k in 0..n {
            norm2 += b[(k, j)].abs2();
        }
        let s = norm2.sqrt();
        sigma.push(s);
        if s > 1e-300 {
            for k in 0..n {
                u[(k, j)] = b[(k, j)] * (1.0 / s);
            }
        }
    }
    // Complete any zero columns of U to a unitary basis.
    complete_orthonormal(&mut u, &sigma);

    // Sort descending by singular value, permuting U and V consistently.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).expect("finite sigma"));
    let mut su = CMatrix::zeros(n, n);
    let mut sv = CMatrix::zeros(n, n);
    let mut ss = vec![0.0; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        ss[new_j] = sigma[old_j];
        for k in 0..n {
            su[(k, new_j)] = u[(k, old_j)];
            sv[(k, new_j)] = v[(k, old_j)];
        }
    }

    Svd {
        u: su,
        sigma: ss,
        v: sv,
        sweeps,
    }
}

/// Replaces (near-)zero columns of `u` with vectors orthonormal to the rest,
/// so that `u` is unitary even for rank-deficient inputs.
fn complete_orthonormal(u: &mut CMatrix, sigma: &[f64]) {
    let n = u.rows();
    let scale = sigma.iter().cloned().fold(0.0, f64::max).max(1.0);
    for j in 0..n {
        if sigma[j] > 1e-12 * scale {
            continue;
        }
        'candidates: for b in 0..n {
            let mut cand = vec![C64::ZERO; n];
            cand[b] = C64::ONE;
            // Orthogonalize against all valid columns (two passes).
            for _ in 0..2 {
                for i in 0..n {
                    if i == j || (sigma[i] <= 1e-12 * scale && i > j) {
                        continue;
                    }
                    let mut proj = C64::ZERO;
                    for k in 0..n {
                        proj += u[(k, i)].conj() * cand[k];
                    }
                    for (k, c) in cand.iter_mut().enumerate() {
                        *c -= proj * u[(k, i)];
                    }
                }
            }
            let norm: f64 = cand.iter().map(|z| z.abs2()).sum::<f64>().sqrt();
            if norm > 1e-6 {
                for (k, c) in cand.iter().enumerate() {
                    u[(k, j)] = *c * (1.0 / norm);
                }
                break 'candidates;
            }
        }
    }
}

/// Solves the linear system `A x = b` for square `A` by Gaussian elimination
/// with partial pivoting. Returns `None` if `A` is (numerically) singular.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn solve(a: &CMatrix, b: &[C64]) -> Option<Vec<C64>> {
    assert!(a.is_square(), "solve: matrix must be square");
    assert_eq!(a.rows(), b.len(), "solve: rhs length mismatch");
    let n = a.rows();
    let mut m = a.clone();
    let mut x: Vec<C64> = b.to_vec();

    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        let mut best = m[(col, col)].abs();
        for r in (col + 1)..n {
            let mag = m[(r, col)].abs();
            if mag > best {
                best = mag;
                piv = r;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if piv != col {
            m.swap_rows(piv, col);
            x.swap(piv, col);
        }
        let inv = m[(col, col)].recip();
        for r in (col + 1)..n {
            let factor = m[(r, col)] * inv;
            if factor == C64::ZERO {
                continue;
            }
            for c in col..n {
                let v = m[(col, c)];
                m[(r, c)] -= factor * v;
            }
            let xv = x[col];
            x[r] -= factor * xv;
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in (col + 1)..n {
            acc -= m[(col, c)] * x[c];
        }
        x[col] = acc * m[(col, col)].recip();
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CVector;

    fn test_matrix(n: usize, seed: u64) -> CMatrix {
        // Deterministic pseudo-random entries (xorshift), no rand dependency here.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(n, n, |_, _| C64::new(next(), next()))
    }

    #[test]
    fn qr_reconstructs_and_q_unitary() {
        for n in [2, 3, 5, 8] {
            let a = test_matrix(n, 42 + n as u64);
            let Qr { q, r } = qr(&a);
            assert!(q.is_unitary(1e-10), "Q not unitary at n={n}");
            assert!(q.mul_mat(&r).approx_eq(&a, 1e-9), "QR != A at n={n}");
            // R upper triangular.
            for i in 0..n {
                for j in 0..i {
                    assert!(r[(i, j)].abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn svd_reconstructs_random_matrices() {
        for n in [2, 3, 4, 8, 12] {
            let a = test_matrix(n, 7 + n as u64);
            let d = svd(&a);
            assert!(d.u.is_unitary(1e-9), "U not unitary at n={n}");
            assert!(d.v.is_unitary(1e-9), "V not unitary at n={n}");
            assert!(d.reconstruct().approx_eq(&a, 1e-8), "USV^H != A at n={n}");
            assert!(d.sweeps.is_some(), "no convergence at n={n}");
            // Sorted descending.
            for w in d.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn svd_of_diagonal_is_exact() {
        let a = CMatrix::diagonal_real(&[3.0, 1.0, 2.0]);
        let d = svd(&a);
        assert!((d.sigma[0] - 3.0).abs() < 1e-12);
        assert!((d.sigma[1] - 2.0).abs() < 1e-12);
        assert!((d.sigma[2] - 1.0).abs() < 1e-12);
        assert!(d.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn svd_handles_rank_deficiency() {
        // Rank-1 matrix.
        let a = CMatrix::from_reals(3, 3, &[1., 2., 3., 2., 4., 6., 3., 6., 9.]);
        let d = svd(&a);
        assert!(d.sigma[1] < 1e-8 && d.sigma[2] < 1e-8);
        assert!(d.u.is_unitary(1e-8));
        assert!(d.v.is_unitary(1e-8));
        assert!(d.reconstruct().approx_eq(&a, 1e-8));
    }

    /// Rank-`r` test inputs of order `n`: `X·Yᴴ` with `n×r` factors, and
    /// the zero-padded form (rows `r..n` zero) that a padded layer hands
    /// to `MvmCore`.
    fn rank_deficient(n: usize, r: usize, seed: u64) -> [CMatrix; 2] {
        let x = test_matrix(n.max(1), seed);
        let y = test_matrix(n.max(1), seed + 1);
        let low = CMatrix::from_fn(n, n, |i, j| {
            (0..r).fold(C64::ZERO, |acc, k| acc + x[(i, k)] * y[(j, k)].conj())
        });
        let padded = CMatrix::from_fn(n, n, |i, j| if i < r { x[(i, j)] } else { C64::ZERO });
        [low, padded]
    }

    #[test]
    fn svd_converges_on_rank_deficient_matrices() {
        for n in [1, 2, 8, 32, 64] {
            for r in [0, 1, n / 4, n - 1] {
                for (form, a) in rank_deficient(n, r.min(n), 3 * n as u64 + r as u64)
                    .iter()
                    .enumerate()
                {
                    let d = svd(a);
                    let case = format!("n={n} rank={r} form={form}");
                    // 1–12 sweeps measured; the padded n=32, rank-8 form
                    // ran to the cap before columns below the floor
                    // stopped rotating.
                    let sweeps = d.sweeps.unwrap_or_else(|| panic!("{case}: no convergence"));
                    assert!(sweeps <= 15, "{case}: {sweeps} sweeps");
                    assert!(d.u.is_unitary(1e-8), "{case}: U not unitary");
                    assert!(d.v.is_unitary(1e-8), "{case}: V not unitary");
                    let scale = a.frobenius_norm().max(1.0);
                    assert!(
                        d.reconstruct().approx_eq(a, 1e-8 * scale),
                        "{case}: USVᴴ ≠ A"
                    );
                    assert!(
                        d.sigma[r.min(n)..].iter().all(|&s| s <= 1e-8 * scale),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = test_matrix(6, 99);
        let x_true: Vec<C64> = (0..6).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let b = a.mul_vec(&CVector::from_slice(&x_true));
        let x = solve(&a, b.as_slice()).expect("nonsingular");
        for (got, want) in x.iter().zip(&x_true) {
            assert!(got.approx_eq(*want, 1e-8));
        }
    }

    #[test]
    fn solve_detects_singular() {
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(solve(&a, &[C64::ONE, C64::ONE]).is_none());
    }
}
