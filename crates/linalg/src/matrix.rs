//! Dense complex matrices — the transfer-matrix workhorse of the stack.

use crate::{CVector, C64};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// `CMatrix` models the transfer matrix of a passive photonic circuit:
/// output field amplitudes are `b = T * a` for input amplitudes `a`. A
/// lossless circuit has a unitary `T`.
///
/// # Examples
///
/// ```
/// use neuropulsim_linalg::{C64, CMatrix, CVector};
///
/// let id = CMatrix::identity(3);
/// let v = CVector::from_reals(&[1.0, 2.0, 3.0]);
/// assert_eq!(id.mul_vec(&v), v);
/// assert!(id.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates an all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_rows: expected {} entries, got {}",
            rows * cols,
            data.len()
        );
        CMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix from row-major real values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_reals(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_reals: size mismatch");
        CMatrix {
            rows,
            cols,
            data: data.iter().map(|&x| C64::real(x)).collect(),
        }
    }

    /// Creates a diagonal matrix from the given complex diagonal.
    pub fn diagonal(diag: &[C64]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a diagonal matrix from real values.
    pub fn diagonal_real(diag: &[f64]) -> Self {
        let d: Vec<C64> = diag.iter().map(|&x| C64::real(x)).collect();
        CMatrix::diagonal(&d)
    }

    /// Builds a matrix entry-by-entry from a closure `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> C64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutably borrows the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[C64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> CVector {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Conjugate transpose (Hermitian adjoint) `T^dagger`.
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &CVector) -> CVector {
        let mut out = CVector::zeros(self.rows);
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix-vector product written into a caller-owned output.
    ///
    /// The zero-allocation form of [`CMatrix::mul_vec`]: steady-state
    /// callers (GeMM column streaming, noisy MVM sampling) reuse `out`
    /// across calls. `out` may not alias `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &CVector, out: &mut CVector) {
        assert_eq!(v.len(), self.cols, "mul_vec_into: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec_into: bad output length");
        let x = v.as_slice();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            // Four independent real accumulators vectorize; a single
            // complex accumulator does not.
            let mut rr = 0.0;
            let mut ii = 0.0;
            let mut ri = 0.0;
            let mut ir = 0.0;
            for (a, b) in row.iter().zip(x) {
                rr += a.re * b.re;
                ii += a.im * b.im;
                ri += a.re * b.im;
                ir += a.im * b.re;
            }
            *o = C64::new(rr - ii, ri + ir);
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// Dispatches to the packed split-complex kernel in [`crate::soa`]
    /// once the inner dimension is large enough to amortize packing;
    /// tiny products use the direct triple loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn mul_mat(&self, rhs: &CMatrix) -> CMatrix {
        if self.cols >= 8 {
            crate::soa::mul_mat(self, rhs)
        } else {
            self.mul_mat_naive(rhs)
        }
    }

    /// Matrix product into a caller-owned output with reusable scratch.
    ///
    /// The zero-allocation form of [`CMatrix::mul_mat`]; see
    /// [`crate::soa::mul_mat_into`].
    pub fn mul_mat_into(
        &self,
        rhs: &CMatrix,
        out: &mut CMatrix,
        scratch: &mut crate::soa::MatmulScratch,
    ) {
        crate::soa::mul_mat_into(self, rhs, out, scratch);
    }

    /// Reference triple-loop matrix product.
    ///
    /// Kept as the oracle the fast kernels are property-tested against,
    /// and used directly for small inner dimensions where packing would
    /// cost more than it saves.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn mul_mat_naive(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "mul_mat: dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == C64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scaled(&self, s: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs2()).sum::<f64>().sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Checks unitarity: `||T^dagger T - I||_F <= tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let g = self.adjoint().mul_mat(self);
        let id = CMatrix::identity(self.rows);
        (&g - &id).frobenius_norm() <= tol
    }

    /// Entrywise approximate equality within `tol` (max-abs difference).
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && (self - other).max_abs() <= tol
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "swap_rows out of range");
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Left-multiplies `self` in place by a 2x2 block acting on rows `(p, q)`:
    /// `self <- B(p,q) * self`. This is the O(n) primitive for applying an
    /// MZI layer without forming the full two-level matrix.
    ///
    /// # Panics
    ///
    /// Panics if `p == q` or either index is out of range.
    pub fn apply_left_2x2(&mut self, p: usize, q: usize, a: C64, b: C64, c: C64, d: C64) {
        assert!(p != q && p < self.rows && q < self.rows, "bad indices");
        for j in 0..self.cols {
            let xp = self[(p, j)];
            let xq = self[(q, j)];
            self[(p, j)] = a * xp + b * xq;
            self[(q, j)] = c * xp + d * xq;
        }
    }

    /// Right-multiplies `self` in place by a 2x2 block acting on columns
    /// `(p, q)`: `self <- self * B(p,q)`.
    ///
    /// # Panics
    ///
    /// Panics if `p == q` or either index is out of range.
    pub fn apply_right_2x2(&mut self, p: usize, q: usize, a: C64, b: C64, c: C64, d: C64) {
        assert!(p != q && p < self.cols && q < self.cols, "bad indices");
        for i in 0..self.rows {
            let xp = self[(i, p)];
            let xq = self[(i, q)];
            self[(i, p)] = xp * a + xq * c;
            self[(i, q)] = xp * b + xq * d;
        }
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.mul_mat(rhs)
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CMatrix {
        CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn identity_acts_trivially() {
        let a = sample();
        let id = CMatrix::identity(2);
        assert!(id.mul_mat(&a).approx_eq(&a, 1e-15));
        assert!(a.mul_mat(&id).approx_eq(&a, 1e-15));
    }

    #[test]
    fn mul_vec_matches_mul_mat() {
        let a = sample();
        let v = CVector::from_reals(&[5.0, 6.0]);
        let got = a.mul_vec(&v);
        assert_eq!(got.reals(), vec![17.0, 39.0]);
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = sample();
        let b = CMatrix::from_reals(2, 2, &[0.0, 1.0, -1.0, 0.0]);
        let lhs = a.mul_mat(&b).adjoint();
        let rhs = b.adjoint().mul_mat(&a.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_and_norms() {
        let a = sample();
        assert_eq!(a.trace(), C64::real(5.0));
        assert!((a.frobenius_norm() - 30f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn unitarity_check() {
        // A 2x2 rotation is unitary.
        let th = 0.37f64;
        let r = CMatrix::from_reals(2, 2, &[th.cos(), -th.sin(), th.sin(), th.cos()]);
        assert!(r.is_unitary(1e-12));
        assert!(!sample().is_unitary(1e-6));
    }

    #[test]
    fn in_place_2x2_matches_explicit() {
        let a = C64::new(0.6, 0.0);
        let b = C64::new(0.0, 0.8);
        let c = C64::new(0.0, 0.8);
        let d = C64::new(0.6, 0.0);
        let base = CMatrix::from_reals(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        // The block embedded in the identity on rows/cols 0 and 2.
        let mut block = CMatrix::identity(3);
        block[(0, 0)] = a;
        block[(0, 2)] = b;
        block[(2, 0)] = c;
        block[(2, 2)] = d;

        let mut left = base.clone();
        left.apply_left_2x2(0, 2, a, b, c, d);
        assert!(left.approx_eq(&block.mul_mat(&base), 1e-12));

        let mut right = base.clone();
        right.apply_right_2x2(0, 2, a, b, c, d);
        assert!(right.approx_eq(&base.mul_mat(&block), 1e-12));
    }

    #[test]
    fn swap_rows_in_place() {
        let mut a = sample();
        a.swap_rows(0, 1);
        assert_eq!(a.row(0)[0], C64::real(3.0));
    }

    #[test]
    fn diagonal_builders() {
        let d = CMatrix::diagonal_real(&[1.0, 2.0]);
        assert_eq!(d[(0, 0)], C64::real(1.0));
        assert_eq!(d[(0, 1)], C64::ZERO);
        assert_eq!(d[(1, 1)], C64::real(2.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_shape_panics() {
        let a = sample();
        let _ = a.mul_vec(&CVector::zeros(3));
    }

    #[test]
    fn row_col_accessors() {
        let a = sample();
        assert_eq!(a.row(1), &[C64::real(3.0), C64::real(4.0)]);
        assert_eq!(a.col(1).reals(), vec![2.0, 4.0]);
    }
}
