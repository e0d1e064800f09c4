//! Split-complex (structure-of-arrays) kernels.
//!
//! The row-major `Vec<C64>` layout of [`CMatrix`] interleaves real and
//! imaginary parts, which blocks autovectorization of the hot product
//! loops. This module provides [`SplitMatrix`] / [`SplitVector`] — the
//! same data held as two contiguous `f64` planes — plus packed matrix
//! kernels built on them:
//!
//! - the product runs in i-k-j (SAXPY) order: each scalar of the left
//!   operand scales a full right-hand row into two unit-stride real
//!   accumulator rows, so there are no horizontal reductions and LLVM
//!   turns the inner loop into SIMD;
//! - all kernels have `*_into` forms writing into caller-owned buffers,
//!   so steady-state callers (mesh programming loops, GeMM column
//!   streaming) allocate nothing per call;
//! - [`real_udv_into`] takes operands packed once up front and computes
//!   only the real half of `U·diag(a)·V`, the matrix a realized MVM chip
//!   reads out, so its drift step packs and allocates nothing.
//!
//! The packing cost is O(n²) against the O(n³) product, so the kernels
//! win from roughly n ≥ 8 and are never significantly worse below that.

use crate::{CMatrix, RMatrix, C64};

/// A complex matrix stored as two row-major real planes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitMatrix {
    rows: usize,
    cols: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitMatrix {
    /// An all-zeros split matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SplitMatrix {
            rows,
            cols,
            re: vec![0.0; rows * cols],
            im: vec![0.0; rows * cols],
        }
    }

    /// Packs `m` into split form, reusing this buffer's storage.
    pub(crate) fn pack(&mut self, m: &CMatrix) {
        self.rows = m.rows();
        self.cols = m.cols();
        let n = self.rows * self.cols;
        self.re.resize(n, 0.0);
        self.im.resize(n, 0.0);
        for (i, z) in m.as_slice().iter().enumerate() {
            self.re[i] = z.re;
            self.im[i] = z.im;
        }
    }

    /// Builds a split copy of `m`.
    pub fn from_matrix(m: &CMatrix) -> Self {
        let mut s = SplitMatrix::zeros(0, 0);
        s.pack(m);
        s
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The real plane, row-major.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary plane, row-major.
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    fn row(&self, i: usize) -> (&[f64], &[f64]) {
        let s = i * self.cols;
        (&self.re[s..s + self.cols], &self.im[s..s + self.cols])
    }
}

/// A complex vector stored as two contiguous real planes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitVector {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitVector {
    /// An all-zeros split vector.
    pub fn zeros(n: usize) -> Self {
        SplitVector {
            re: vec![0.0; n],
            im: vec![0.0; n],
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// The real plane.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary plane.
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Packs an interleaved slice, reusing this buffer's storage.
    pub fn pack_slice(&mut self, v: &[C64]) {
        self.re.resize(v.len(), 0.0);
        self.im.resize(v.len(), 0.0);
        for (i, z) in v.iter().enumerate() {
            self.re[i] = z.re;
            self.im[i] = z.im;
        }
    }

    /// Unpacks the lanes back into an interleaved slice.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != len()`.
    pub fn unpack_into(&self, dst: &mut [C64]) {
        assert_eq!(dst.len(), self.len(), "unpack_into: length mismatch");
        for (i, z) in dst.iter_mut().enumerate() {
            *z = C64::new(self.re[i], self.im[i]);
        }
    }

    /// Mutable access to both lanes at once.
    pub fn lanes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }
}

/// One column of independent 2×2 cells over split re/im lanes, the unit
/// of the blocked mesh-application kernel (DESIGN.md §11).
///
/// Each cell `k` applies the matrix `[[a_k, b_k], [c_k, d_k]]` to the
/// adjacent mode pair `(modes[k], modes[k] + 1)`. Cells within a column
/// act on **disjoint** mode pairs, so they can run in any order (and be
/// batched across many input vectors) without changing a single
/// floating-point operation. The arithmetic is written in exactly the
/// grouping `(a*xp) + (b*xq)` that scalar `C64` math produces, so the
/// blocked path is bit-identical to a per-cell complex-multiply loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellColumn {
    modes: Vec<u32>,
    /// `Some(start)` when `modes == [start, start+2, start+4, …]` — the
    /// regular layout of rectangular (Clements-style) layers, which lets
    /// the single-vector kernel walk the lanes with a fixed stride.
    uniform_start: Option<u32>,
    ar: Vec<f64>,
    ai: Vec<f64>,
    br: Vec<f64>,
    bi: Vec<f64>,
    cr: Vec<f64>,
    ci: Vec<f64>,
    dr: Vec<f64>,
    di: Vec<f64>,
}

impl CellColumn {
    /// An empty column.
    pub fn new() -> Self {
        CellColumn::default()
    }

    /// Appends a cell on modes `(mode, mode + 1)`.
    ///
    /// Call [`CellColumn::finish`] after the last push; until then the
    /// uniform-layout fast path stays disabled.
    pub fn push(&mut self, mode: u32, a: C64, b: C64, c: C64, d: C64) {
        self.modes.push(mode);
        self.ar.push(a.re);
        self.ai.push(a.im);
        self.br.push(b.re);
        self.bi.push(b.im);
        self.cr.push(c.re);
        self.ci.push(c.im);
        self.dr.push(d.re);
        self.di.push(d.im);
        self.uniform_start = None;
    }

    /// Detects the uniform stride-2 layout. Idempotent.
    pub fn finish(&mut self) {
        let first = match self.modes.first() {
            Some(&m) => m,
            None => return,
        };
        let uniform = self
            .modes
            .iter()
            .enumerate()
            .all(|(k, &m)| m == first + 2 * k as u32);
        self.uniform_start = uniform.then_some(first);
    }

    /// Number of cells in the column.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Top-mode indices, one per cell.
    pub fn modes(&self) -> &[u32] {
        &self.modes
    }

    /// Applies every cell to one vector held as split lanes.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if a cell's modes exceed the lanes.
    pub fn apply(&self, re: &mut [f64], im: &mut [f64]) {
        if let Some(start) = self.uniform_start {
            let s = start as usize;
            let end = s + 2 * self.len();
            let (re, im) = (&mut re[s..end], &mut im[s..end]);
            for k in 0..self.len() {
                let (p, q) = (2 * k, 2 * k + 1);
                self.apply_cell(k, re, im, p, q);
            }
        } else {
            for (k, &m) in self.modes.iter().enumerate() {
                let p = m as usize;
                self.apply_cell(k, re, im, p, p + 1);
            }
        }
    }

    #[inline(always)]
    fn apply_cell(&self, k: usize, re: &mut [f64], im: &mut [f64], p: usize, q: usize) {
        let (xpr, xpi) = (re[p], im[p]);
        let (xqr, xqi) = (re[q], im[q]);
        // Exactly `a*xp + b*xq` / `c*xp + d*xq` in C64 arithmetic.
        re[p] = (self.ar[k] * xpr - self.ai[k] * xpi) + (self.br[k] * xqr - self.bi[k] * xqi);
        im[p] = (self.ar[k] * xpi + self.ai[k] * xpr) + (self.br[k] * xqi + self.bi[k] * xqr);
        re[q] = (self.cr[k] * xpr - self.ci[k] * xpi) + (self.dr[k] * xqr - self.di[k] * xqi);
        im[q] = (self.cr[k] * xpi + self.ci[k] * xpr) + (self.dr[k] * xqi + self.di[k] * xqr);
    }

    /// Applies every cell to a batch of `width` vectors held as
    /// mode-major split lanes: lane index `mode * width + column`.
    ///
    /// Each cell's coefficients are loaded once and streamed across the
    /// whole batch with unit stride, which is what lifts the kernel from
    /// memory-bound to compute-bound at large `n` (the coefficient
    /// stream of an n=128 mesh is ~0.5 MB per application; the batch
    /// amortizes it over `width` vectors).
    ///
    /// # Panics
    ///
    /// Panics (via slicing) if the lanes are shorter than
    /// `(max mode + 2) * width`.
    pub fn apply_batch(&self, re: &mut [f64], im: &mut [f64], width: usize) {
        for (k, &m) in self.modes.iter().enumerate() {
            let p = m as usize * width;
            let (ar, ai) = (self.ar[k], self.ai[k]);
            let (br, bi) = (self.br[k], self.bi[k]);
            let (cr, ci) = (self.cr[k], self.ci[k]);
            let (dr, di) = (self.dr[k], self.di[k]);
            let (rp, rq) = re[p..p + 2 * width].split_at_mut(width);
            let (ip, iq) = im[p..p + 2 * width].split_at_mut(width);
            for j in 0..width {
                let (xpr, xpi) = (rp[j], ip[j]);
                let (xqr, xqi) = (rq[j], iq[j]);
                rp[j] = (ar * xpr - ai * xpi) + (br * xqr - bi * xqi);
                ip[j] = (ar * xpi + ai * xpr) + (br * xqi + bi * xqr);
                rq[j] = (cr * xpr - ci * xpi) + (dr * xqr - di * xqi);
                iq[j] = (cr * xpi + ci * xpr) + (dr * xqi + di * xqr);
            }
        }
    }
}

/// Multiplies each lane element by the matching phasor: `v[i] *= p[i]`
/// in `C64` arithmetic, bit for bit.
///
/// # Panics
///
/// Panics if the lane and phasor lengths disagree.
pub fn apply_phasors(re: &mut [f64], im: &mut [f64], pr: &[f64], pi: &[f64]) {
    assert_eq!(re.len(), pr.len(), "apply_phasors: length mismatch");
    assert_eq!(im.len(), pi.len(), "apply_phasors: length mismatch");
    for i in 0..re.len() {
        let (vr, vi) = (re[i], im[i]);
        re[i] = vr * pr[i] - vi * pi[i];
        im[i] = vr * pi[i] + vi * pr[i];
    }
}

/// Batch form of [`apply_phasors`] over mode-major lanes: phasor `i`
/// multiplies lane elements `i * width .. (i + 1) * width`.
///
/// # Panics
///
/// Panics if the lanes are not exactly `phasors * width` long.
pub fn apply_phasors_batch(re: &mut [f64], im: &mut [f64], pr: &[f64], pi: &[f64], width: usize) {
    assert_eq!(re.len(), pr.len() * width, "apply_phasors_batch: bad lanes");
    assert_eq!(im.len(), pi.len() * width, "apply_phasors_batch: bad lanes");
    for i in 0..pr.len() {
        let (phr, phi) = (pr[i], pi[i]);
        let s = i * width;
        let (rr, ii) = (&mut re[s..s + width], &mut im[s..s + width]);
        for j in 0..width {
            let (vr, vi) = (rr[j], ii[j]);
            rr[j] = vr * phr - vi * phi;
            ii[j] = vr * phi + vi * phr;
        }
    }
}

/// Packs `width` consecutive length-`n` interleaved vectors
/// (`src[j*n..(j+1)*n]` is vector `j`) into mode-major split lanes
/// (`lane[i*width + j]` is mode `i` of vector `j`), resizing the lane
/// buffers as needed.
///
/// # Panics
///
/// Panics if `src.len() != n * width`.
pub fn pack_columns(src: &[C64], n: usize, width: usize, re: &mut Vec<f64>, im: &mut Vec<f64>) {
    assert_eq!(src.len(), n * width, "pack_columns: bad source length");
    re.resize(n * width, 0.0);
    im.resize(n * width, 0.0);
    for j in 0..width {
        let v = &src[j * n..(j + 1) * n];
        for (i, z) in v.iter().enumerate() {
            re[i * width + j] = z.re;
            im[i * width + j] = z.im;
        }
    }
}

/// Inverse of [`pack_columns`].
///
/// # Panics
///
/// Panics if the lanes or destination do not hold `n * width` elements.
pub fn unpack_columns(re: &[f64], im: &[f64], n: usize, width: usize, dst: &mut [C64]) {
    assert_eq!(dst.len(), n * width, "unpack_columns: bad destination");
    assert_eq!(re.len(), n * width, "unpack_columns: bad lanes");
    assert_eq!(im.len(), n * width, "unpack_columns: bad lanes");
    for j in 0..width {
        let v = &mut dst[j * n..(j + 1) * n];
        for (i, z) in v.iter_mut().enumerate() {
            *z = C64::new(re[i * width + j], im[i * width + j]);
        }
    }
}

/// Reusable scratch for [`mul_mat_into`] / [`CMatrix::mul_mat_into`].
///
/// Holds the packed split-form operands between calls so repeated
/// products of the same shapes never reallocate.
#[derive(Debug, Clone, Default)]
pub struct MatmulScratch {
    lhs: Option<SplitMatrix>,
    rhs: Option<SplitMatrix>,
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
}

impl MatmulScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MatmulScratch::default()
    }
}

/// Packed split-complex matrix product: `out = a * b`.
///
/// Packs both operands into `scratch` and runs the product in i-k-j
/// order: each scalar `a[i,k]` scales row `k` of `b` into two real
/// accumulator rows (`re`, `im`). Every inner-loop stream is unit
/// stride with no horizontal reduction, so the loop vectorizes; zero
/// left-hand entries (common in banded mesh factors) skip their whole
/// row pass.
///
/// # Panics
///
/// Panics on inner-dimension mismatch or if `out` has the wrong shape.
pub fn mul_mat_into(a: &CMatrix, b: &CMatrix, out: &mut CMatrix, scratch: &mut MatmulScratch) {
    assert_eq!(a.cols(), b.rows(), "mul_mat_into: dimension mismatch");
    assert_eq!(out.rows(), a.rows(), "mul_mat_into: bad output rows");
    assert_eq!(out.cols(), b.cols(), "mul_mat_into: bad output cols");
    let lhs = scratch.lhs.get_or_insert_with(|| SplitMatrix::zeros(0, 0));
    lhs.pack(a);
    let rhs = scratch.rhs.get_or_insert_with(|| SplitMatrix::zeros(0, 0));
    rhs.pack(b);

    let cols = b.cols();
    scratch.acc_re.resize(cols, 0.0);
    scratch.acc_im.resize(cols, 0.0);
    let acc_re = &mut scratch.acc_re[..cols];
    let acc_im = &mut scratch.acc_im[..cols];

    let dst = out.as_mut_slice();
    for i in 0..a.rows() {
        let (ar, ai) = lhs.row(i);
        acc_re.fill(0.0);
        acc_im.fill(0.0);
        for k in 0..ar.len() {
            let (are, aim) = (ar[k], ai[k]);
            if are == 0.0 && aim == 0.0 {
                continue;
            }
            let (br, bi) = rhs.row(k);
            let (br, bi) = (&br[..cols], &bi[..cols]);
            for j in 0..cols {
                acc_re[j] += are * br[j] - aim * bi[j];
                acc_im[j] += are * bi[j] + aim * br[j];
            }
        }
        for (j, d) in dst[i * cols..(i + 1) * cols].iter_mut().enumerate() {
            *d = C64::new(acc_re[j], acc_im[j]);
        }
    }
}

/// `out = Re(U · diag(a) · V) · scale` over frozen split operands — the
/// one real matrix a U/Σ/V chain implements for real inputs.
///
/// Computes only the real half of the product, in place: each output
/// row is its own accumulator, so nothing is packed or allocated. The
/// loop runs in i-k-j order like [`mul_mat_into`], and every term is
/// evaluated as `(u_re·a)·v_re − (u_im·a)·v_im` with the same skip when
/// both scaled entries are zero, `scale` applied last. That is exactly
/// the real-part arithmetic of [`CMatrix::mul_mat`] on `U · diag(a)`
/// and `V` (packed and naive alike), so the result is bit-identical to
/// `Re(mul_mat(U·diag(a), V)) · scale` at every size.
///
/// # Panics
///
/// Panics if `u` is not `rows × a.len()`, `v` is not `a.len() × cols`,
/// or `out` is not `rows × cols`.
pub fn real_udv_into(u: &SplitMatrix, a: &[f64], v: &SplitMatrix, scale: f64, out: &mut RMatrix) {
    assert_eq!(u.cols(), a.len(), "real_udv_into: bad diagonal length");
    assert_eq!(v.rows(), a.len(), "real_udv_into: dimension mismatch");
    assert_eq!(out.rows(), u.rows(), "real_udv_into: bad output rows");
    assert_eq!(out.cols(), v.cols(), "real_udv_into: bad output cols");
    let cols = v.cols();
    let dst = out.as_mut_slice();
    for i in 0..u.rows() {
        let (ur, ui) = u.row(i);
        let acc = &mut dst[i * cols..(i + 1) * cols];
        acc.fill(0.0);
        for (k, &ak) in a.iter().enumerate() {
            let (are, aim) = (ur[k] * ak, ui[k] * ak);
            if are == 0.0 && aim == 0.0 {
                continue;
            }
            let (vr, vi) = v.row(k);
            for ((o, &br), &bi) in acc.iter_mut().zip(vr).zip(vi) {
                *o += are * br - aim * bi;
            }
        }
        for o in acc.iter_mut() {
            *o *= scale;
        }
    }
}

/// Allocating convenience wrapper over [`mul_mat_into`].
pub fn mul_mat(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(a.rows(), b.cols());
    let mut scratch = MatmulScratch::new();
    mul_mat_into(a, b, &mut out, &mut scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, salt: f64) -> CMatrix {
        CMatrix::from_fn(rows, cols, |i, j| {
            C64::new(
                (i as f64 - 0.3 * j as f64).sin() + salt,
                (j as f64 * 0.7 + i as f64).cos() - salt,
            )
        })
    }

    #[test]
    fn pack_preserves_entries() {
        let m = sample(3, 5, 0.25);
        let s = SplitMatrix::from_matrix(&m);
        assert_eq!((s.rows(), s.cols()), (3, 5));
        for (i, z) in m.as_slice().iter().enumerate() {
            assert_eq!((s.re()[i], s.im()[i]), (z.re, z.im));
        }
    }

    #[test]
    fn packed_product_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 5, 5), (8, 2, 7)] {
            let a = sample(m, k, 0.1);
            let b = sample(k, n, -0.4);
            let fast = mul_mat(&a, &b);
            let slow = a.mul_mat_naive(&b);
            assert!(fast.approx_eq(&slow, 1e-12), "mismatch at {m}x{k}x{n}");
        }
    }

    fn demo_column(modes: &[u32], salt: f64) -> CellColumn {
        let mut col = CellColumn::new();
        for (k, &m) in modes.iter().enumerate() {
            let t = salt + 0.37 * k as f64;
            col.push(
                m,
                C64::new(t.cos(), t.sin()),
                C64::new(-t.sin(), t.cos()),
                C64::new(t.sin(), 0.5 * t.cos()),
                C64::new(0.5 * t.cos(), -t.sin()),
            );
        }
        col.finish();
        col
    }

    fn scalar_reference(col: &CellColumn, v: &mut [C64]) {
        for (k, &m) in col.modes().iter().enumerate() {
            let p = m as usize;
            let a = C64::new(col.ar[k], col.ai[k]);
            let b = C64::new(col.br[k], col.bi[k]);
            let c = C64::new(col.cr[k], col.ci[k]);
            let d = C64::new(col.dr[k], col.di[k]);
            let (xp, xq) = (v[p], v[p + 1]);
            v[p] = a * xp + b * xq;
            v[p + 1] = c * xp + d * xq;
        }
    }

    #[test]
    fn cell_column_matches_scalar_complex_math_bitwise() {
        for modes in [&[0u32, 2, 4][..], &[1, 4][..], &[0][..]] {
            let col = demo_column(modes, 0.21);
            let v: Vec<C64> = (0..6)
                .map(|i| C64::new((i as f64).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut want = v.clone();
            scalar_reference(&col, &mut want);
            let mut lanes = SplitVector::zeros(0);
            lanes.pack_slice(&v);
            let (re, im) = lanes.lanes_mut();
            col.apply(re, im);
            let mut got = v.clone();
            lanes.unpack_into(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.re.to_bits(), w.re.to_bits(), "re bits differ");
                assert_eq!(g.im.to_bits(), w.im.to_bits(), "im bits differ");
            }
        }
    }

    #[test]
    fn batch_apply_matches_single_vector_apply_bitwise() {
        let col = demo_column(&[0, 2], 0.9);
        let n = 4;
        let width = 3;
        let src: Vec<C64> = (0..n * width)
            .map(|i| C64::new((i as f64 * 0.71).sin(), (i as f64 * 0.29).cos()))
            .collect();
        // Batch path.
        let (mut bre, mut bim) = (Vec::new(), Vec::new());
        pack_columns(&src, n, width, &mut bre, &mut bim);
        col.apply_batch(&mut bre, &mut bim, width);
        let mut got = src.clone();
        unpack_columns(&bre, &bim, n, width, &mut got);
        // Per-vector path.
        let mut want = src.clone();
        for j in 0..width {
            let mut lanes = SplitVector::zeros(0);
            lanes.pack_slice(&src[j * n..(j + 1) * n]);
            let (re, im) = lanes.lanes_mut();
            col.apply(re, im);
            lanes.unpack_into(&mut want[j * n..(j + 1) * n]);
        }
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.re.to_bits(), w.re.to_bits());
            assert_eq!(g.im.to_bits(), w.im.to_bits());
        }
    }

    #[test]
    fn phasor_kernels_match_scalar_multiply_bitwise() {
        let v: Vec<C64> = (0..5)
            .map(|i| C64::new((i as f64).cos(), -(i as f64)))
            .collect();
        let ph: Vec<C64> = (0..5).map(|i| C64::cis(0.3 * i as f64 - 0.7)).collect();
        let mut want = v.clone();
        for (x, p) in want.iter_mut().zip(&ph) {
            *x *= *p;
        }
        let (pr, pi): (Vec<f64>, Vec<f64>) = ph.iter().map(|p| (p.re, p.im)).unzip();
        let mut lanes = SplitVector::zeros(0);
        lanes.pack_slice(&v);
        let (re, im) = lanes.lanes_mut();
        apply_phasors(re, im, &pr, &pi);
        let mut got = v.clone();
        lanes.unpack_into(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.re.to_bits(), w.re.to_bits());
            assert_eq!(g.im.to_bits(), w.im.to_bits());
        }
        // Batch form, width 2.
        let src: Vec<C64> = v.iter().chain(v.iter()).copied().collect();
        let (mut bre, mut bim) = (Vec::new(), Vec::new());
        pack_columns(&src, 5, 2, &mut bre, &mut bim);
        apply_phasors_batch(&mut bre, &mut bim, &pr, &pi, 2);
        let mut gotb = src.clone();
        unpack_columns(&bre, &bim, 5, 2, &mut gotb);
        for j in 0..2 {
            for (g, w) in gotb[j * 5..(j + 1) * 5].iter().zip(&want) {
                assert_eq!(g.re.to_bits(), w.re.to_bits());
                assert_eq!(g.im.to_bits(), w.im.to_bits());
            }
        }
    }

    #[test]
    fn uniform_layout_detection() {
        let mut col = demo_column(&[1, 3, 5], 0.0);
        assert_eq!(col.uniform_start, Some(1));
        col.push(4, C64::ONE, C64::ZERO, C64::ZERO, C64::ONE);
        col.finish();
        assert_eq!(col.uniform_start, None);
        assert_eq!(col.len(), 4);
    }

    #[test]
    fn real_udv_matches_real_part_of_mul_mat_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5ca1e);
        for n in [1usize, 2, 3, 7, 8, 9, 16, 32, 33] {
            let entry =
                |rng: &mut StdRng| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            // Purely real and purely imaginary entries in U pin the
            // skip to "both scaled parts are zero".
            let u = CMatrix::from_fn(n, n, |i, k| match (i + 2 * k) % 5 {
                0 => C64::new(0.0, rng.gen_range(-1.0..1.0)),
                1 => C64::new(rng.gen_range(-1.0..1.0), -0.0),
                _ => entry(&mut rng),
            });
            let a: Vec<f64> = (0..n)
                .map(|k| match k % 4 {
                    1 => 0.0,
                    2 => -0.0,
                    _ => rng.gen_range(0.0..1.0),
                })
                .collect();
            // A fully attenuated mode blocks its V row, so a non-finite
            // entry there must never reach the output.
            let v = CMatrix::from_fn(n, n, |k, j| {
                if a[k] == 0.0 && j == 0 {
                    C64::new(f64::INFINITY, f64::NAN)
                } else {
                    entry(&mut rng)
                }
            });
            let scale = rng.gen_range(0.5..3.0);
            let ua = CMatrix::from_fn(n, n, |i, k| u[(i, k)].scale(a[k]));
            let want = ua.mul_mat(&v);
            let mut got = RMatrix::from_fn(n, n, |_, _| f64::NAN);
            real_udv_into(
                &SplitMatrix::from_matrix(&u),
                &a,
                &SplitMatrix::from_matrix(&v),
                scale,
                &mut got,
            );
            for i in 0..n {
                for j in 0..n {
                    let w = want[(i, j)].re * scale;
                    assert_eq!(got.row(i)[j].to_bits(), w.to_bits(), "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let mut scratch = MatmulScratch::new();
        for n in [2usize, 6, 3] {
            let a = sample(n, n, 0.0);
            let b = sample(n, n, 1.0);
            let mut out = CMatrix::zeros(n, n);
            mul_mat_into(&a, &b, &mut out, &mut scratch);
            assert!(out.approx_eq(&a.mul_mat_naive(&b), 1e-12));
        }
    }
}
