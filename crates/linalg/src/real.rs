//! Dense real matrices, used by the digital-baseline neural-network code
//! (`neuropulsim-nn`) and for intensity-domain results.

use crate::CMatrix;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Lanes per accumulator block of [`RMatrix::mul_lanes_into`].
const LANE_BLOCK: usize = 8;

/// A dense, row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use neuropulsim_linalg::RMatrix;
///
/// let a = RMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
/// let b = RMatrix::identity(2);
/// assert_eq!(a.mul_mat(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMatrix {
    /// Creates an all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = RMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: size mismatch");
        RMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a matrix entry-by-entry from a closure `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = RMatrix::zeros(rows, cols);
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

    /// Borrows the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix-vector product written into a caller-owned output.
    ///
    /// Zero-allocation form of [`RMatrix::mul_vec`] for hot loops
    /// (crossbar sampling, dot-product SNN drive).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "mul_vec_into: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec_into: bad output length");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// Batched product `Y = self · X` over a lane-major batch of `lanes`
    /// vectors: `xt[k·lanes + v]` is element `k` of input `v`, and output
    /// `v` lands in `yt[i·lanes + v]`.
    ///
    /// Every output is bit-identical to [`RMatrix::mul_vec_into`] on its
    /// lane: it starts from `-0.0` (the `f64: Sum` identity) and adds
    /// `self[(i, k)] · x[k]` in ascending `k`. Full blocks of eight lanes
    /// keep fixed-size accumulators, so the adds vectorize across the
    /// batch; the lanes left over run the plain per-lane dot product, so
    /// a one-lane call costs one `mul_vec_into`.
    ///
    /// # Panics
    ///
    /// Panics if `xt.len() != cols · lanes` or `yt.len() != rows · lanes`.
    #[inline(always)]
    pub fn mul_lanes_into(&self, xt: &[f64], lanes: usize, yt: &mut [f64]) {
        assert_eq!(
            xt.len(),
            self.cols * lanes,
            "mul_lanes_into: bad input length"
        );
        assert_eq!(
            yt.len(),
            self.rows * lanes,
            "mul_lanes_into: bad output length"
        );
        if lanes == 0 {
            return;
        }
        let full = lanes - lanes % LANE_BLOCK;
        for (i, y) in yt.chunks_exact_mut(lanes).enumerate() {
            let w = self.row(i);
            for c in (0..full).step_by(LANE_BLOCK) {
                let mut acc = [-0.0f64; LANE_BLOCK];
                for (&wk, x) in w.iter().zip(xt.chunks_exact(lanes)) {
                    for (a, &xv) in acc.iter_mut().zip(&x[c..c + LANE_BLOCK]) {
                        *a += wk * xv;
                    }
                }
                y[c..c + LANE_BLOCK].copy_from_slice(&acc);
            }
            for (v, out) in y.iter_mut().enumerate().skip(full) {
                *out = w
                    .iter()
                    .zip(xt[v..].iter().step_by(lanes))
                    .map(|(a, b)| a * b)
                    .sum();
            }
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn mul_mat(&self, rhs: &RMatrix) -> RMatrix {
        assert_eq!(self.cols, rhs.rows, "mul_mat: dimension mismatch");
        let mut out = RMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> RMatrix {
        RMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Scales all entries by `s`.
    pub fn scaled(&self, s: f64) -> RMatrix {
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> RMatrix {
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Lifts to a complex matrix with zero imaginary parts.
    pub fn to_complex(&self) -> CMatrix {
        CMatrix::from_reals(self.rows, self.cols, &self.data)
    }

    /// Entrywise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &RMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for RMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for RMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &RMatrix {
    type Output = RMatrix;
    fn add(self, rhs: &RMatrix) -> RMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape");
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &RMatrix {
    type Output = RMatrix;
    fn sub(self, rhs: &RMatrix) -> RMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape");
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &RMatrix {
    type Output = RMatrix;
    fn mul(self, rhs: &RMatrix) -> RMatrix {
        self.mul_mat(rhs)
    }
}

impl fmt::Display for RMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            writeln!(f, "{:?}", self.row(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_mul() {
        let a = RMatrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let id = RMatrix::identity(2);
        assert_eq!(id.mul_mat(&a), a);
        let v = a.mul_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(v, vec![-2.0, -2.0]);
    }

    /// The lane-blocked batch product must reproduce `mul_vec_into` bit
    /// for bit on every lane: full blocks, leftover lanes, and the
    /// signed-zero and non-finite cases where summation order and start
    /// value show.
    #[test]
    fn mul_lanes_matches_mul_vec_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Rust leaves the sign and payload of an arithmetic NaN
        // unspecified (codegen may commute operands), so every NaN
        // compares as one class; all other results compare by bits.
        let bits = |v: f64| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        };
        let mut rng = StdRng::seed_from_u64(19);
        for n in [1usize, 2, 3, 7, 8, 9, 32, 33] {
            for lanes in [1usize, 2, 7, 8, 9, 32, 33] {
                let mut w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                let mut xs: Vec<Vec<f64>> = (0..lanes)
                    .map(|_| (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect())
                    .collect();
                // Row 0 is all zero and lane 0 all negative: each term is
                // -0.0, so only a -0.0 start keeps the sign.
                w.as_mut_slice()[..n].fill(0.0);
                xs[0].iter_mut().for_each(|x| *x = -x.abs() - 1.0);
                if n > 1 && lanes > 1 {
                    w[(n - 1, 0)] = f64::INFINITY;
                    xs[lanes - 1][n - 1] = f64::NAN;
                    xs[1][0] = f64::NEG_INFINITY;
                }
                let xt: Vec<f64> = (0..n).flat_map(|k| xs.iter().map(move |x| x[k])).collect();
                let mut yt = vec![0.0; n * lanes];
                w.mul_lanes_into(&xt, lanes, &mut yt);
                let mut y = vec![0.0; n];
                for (v, x) in xs.iter().enumerate() {
                    w.mul_vec_into(x, &mut y);
                    for (i, want) in y.iter().enumerate() {
                        assert_eq!(
                            bits(yt[i * lanes + v]),
                            bits(*want),
                            "n={n} lanes={lanes} row={i} lane={v}: {} vs {want}",
                            yt[i * lanes + v]
                        );
                    }
                }
                assert_eq!(yt[0].to_bits(), (-0.0f64).to_bits(), "n={n} lanes={lanes}");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = RMatrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn elementwise_and_norms() {
        let a = RMatrix::from_rows(1, 3, &[3.0, 0.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[6.0, 0.0, 8.0]);
        assert_eq!(a.scaled(0.5).as_slice(), &[1.5, 0.0, 2.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = RMatrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        let b = RMatrix::from_rows(2, 2, &[4., 3., 2., 1.]);
        let s = &a + &b;
        assert!((&s - &b).approx_eq(&a, 1e-15));
    }

    #[test]
    fn complex_lift() {
        let a = RMatrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        let c = a.to_complex();
        assert_eq!(c[(1, 0)].re, 3.0);
        assert_eq!(c[(1, 0)].im, 0.0);
    }
}
