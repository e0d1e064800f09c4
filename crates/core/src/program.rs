//! Mesh programs: an ordered list of programmable 2×2 MZI blocks plus an
//! output phase screen — the "software" loaded onto an interferometer mesh.

use neuropulsim_linalg::soa::{self, CellColumn, SplitVector};
use neuropulsim_linalg::{CMatrix, CVector, C64};
use neuropulsim_photonics::mzi::{CompactCell, Mzi};

/// One programmable MZI acting on adjacent modes `(mode, mode + 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MziBlock {
    /// Top mode index; the block couples `mode` and `mode + 1`.
    pub mode: usize,
    /// Internal phase \[rad\] (sets the splitting ratio).
    pub theta: f64,
    /// External phase \[rad\] (on the top input arm).
    pub phi: f64,
}

impl MziBlock {
    /// Creates a block.
    pub fn new(mode: usize, theta: f64, phi: f64) -> Self {
        MziBlock { mode, theta, phi }
    }

    /// The ideal 2×2 transfer-matrix elements of this block.
    pub fn elements(&self) -> (C64, C64, C64, C64) {
        Mzi::new(self.theta, self.phi).elements()
    }

    /// The 2×2 elements when the block is realized as a compacted
    /// (Bell–Walmsley) cell — the same matrix evaluated through the
    /// closed form instead of the coupler composition.
    pub fn compact_elements(&self) -> (C64, C64, C64, C64) {
        CompactCell::new(self.theta, self.phi).elements()
    }
}

/// A fully programmed rectangular mesh: blocks applied in order (first
/// block acts on the input first), then a final column of output phase
/// shifters.
///
/// The ideal transfer matrix is
/// `U = diag(e^{i * output_phases}) * B_k * ... * B_2 * B_1`.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::program::{MeshProgram, MziBlock};
///
/// // A single cross-state MZI on a 2-mode mesh swaps the inputs
/// // (up to phase).
/// let program = MeshProgram::new(2, vec![MziBlock::new(0, 0.0, 0.0)], vec![0.0; 2]);
/// let u = program.transfer_matrix();
/// assert!(u.is_unitary(1e-12));
/// assert!(u[(0, 0)].abs() < 1e-12);
/// assert!((u[(0, 1)].abs() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeshProgram {
    n: usize,
    blocks: Vec<MziBlock>,
    output_phases: Vec<f64>,
}

impl MeshProgram {
    /// Creates a program over `n` modes.
    ///
    /// # Panics
    ///
    /// Panics if any block's modes fall outside the mesh, or if
    /// `output_phases.len() != n`.
    pub fn new(n: usize, blocks: Vec<MziBlock>, output_phases: Vec<f64>) -> Self {
        assert_eq!(output_phases.len(), n, "need one output phase per mode");
        for b in &blocks {
            assert!(
                b.mode + 1 < n,
                "block on modes ({}, {}) exceeds mesh of {} modes",
                b.mode,
                b.mode + 1,
                n
            );
        }
        MeshProgram {
            n,
            blocks,
            output_phases,
        }
    }

    /// The identity program (no blocks, zero phases).
    pub fn identity(n: usize) -> Self {
        MeshProgram {
            n,
            blocks: Vec::new(),
            output_phases: vec![0.0; n],
        }
    }

    /// Number of optical modes.
    pub fn modes(&self) -> usize {
        self.n
    }

    /// The MZI blocks in application order.
    pub fn blocks(&self) -> &[MziBlock] {
        &self.blocks
    }

    /// Mutable access to the blocks (used by error-injection experiments).
    pub fn blocks_mut(&mut self) -> &mut [MziBlock] {
        &mut self.blocks
    }

    /// The output phase screen \[rad\].
    pub fn output_phases(&self) -> &[f64] {
        &self.output_phases
    }

    /// Mutable access to the output phase screen.
    pub fn output_phases_mut(&mut self) -> &mut [f64] {
        &mut self.output_phases
    }

    /// Number of MZI blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of mesh layers (columns) when blocks are packed greedily:
    /// two blocks share a layer iff their mode pairs don't overlap and
    /// order allows it. This is the optical depth of the circuit.
    pub fn depth(&self) -> usize {
        // Greedy ASAP scheduling: layer[b] = 1 + max(layer of conflicting
        // earlier block).
        let mut mode_free_at = vec![0usize; self.n];
        let mut depth = 0;
        for b in &self.blocks {
            let layer = mode_free_at[b.mode].max(mode_free_at[b.mode + 1]);
            mode_free_at[b.mode] = layer + 1;
            mode_free_at[b.mode + 1] = layer + 1;
            depth = depth.max(layer + 1);
        }
        depth
    }

    /// Returns a copy with every programmed phase multiplied by `factor`
    /// — the first-order effect of operating the mesh at a wavelength
    /// detuned from the design wavelength (phase ∝ 1/λ), used by the WDM
    /// dispersion model.
    pub fn with_scaled_phases(&self, factor: f64) -> MeshProgram {
        let blocks = self
            .blocks
            .iter()
            .map(|b| MziBlock::new(b.mode, b.theta * factor, b.phi * factor))
            .collect();
        let output_phases = self.output_phases.iter().map(|p| p * factor).collect();
        MeshProgram {
            n: self.n,
            blocks,
            output_phases,
        }
    }

    /// The ideal (lossless, perfect-coupler) transfer matrix.
    pub fn transfer_matrix(&self) -> CMatrix {
        let mut u = CMatrix::identity(self.n);
        for b in &self.blocks {
            let (a, bb, c, d) = b.elements();
            u.apply_left_2x2(b.mode, b.mode + 1, a, bb, c, d);
        }
        for (i, &p) in self.output_phases.iter().enumerate() {
            let phase = C64::cis(p);
            for j in 0..self.n {
                u[(i, j)] *= phase;
            }
        }
        u
    }

    /// Applies the ideal mesh to an input field vector (O(blocks) instead
    /// of building the full matrix).
    ///
    /// Recomputes each block's trigonometry per call; hot loops that
    /// apply the same program many times should [`MeshProgram::compile`]
    /// once and use [`CompiledMesh::apply_in_place`] instead — same bits.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != modes()`.
    pub fn apply(&self, input: &CVector) -> CVector {
        assert_eq!(input.len(), self.n, "apply: dimension mismatch");
        let mut v = input.clone();
        for b in &self.blocks {
            let (a, bb, c, d) = b.elements();
            let (p, q) = (b.mode, b.mode + 1);
            let xp = v[p];
            let xq = v[q];
            v[p] = a * xp + bb * xq;
            v[q] = c * xp + d * xq;
        }
        for (i, &ph) in self.output_phases.iter().enumerate() {
            v[i] *= C64::cis(ph);
        }
        v
    }

    /// The ideal transfer matrix when realized with compacted
    /// (Bell–Walmsley) cells. Mathematically identical to
    /// [`MeshProgram::transfer_matrix`]; numerically a different
    /// evaluation path (closed form per cell).
    pub fn transfer_matrix_compact(&self) -> CMatrix {
        let mut u = CMatrix::identity(self.n);
        for b in &self.blocks {
            let (a, bb, c, d) = b.compact_elements();
            u.apply_left_2x2(b.mode, b.mode + 1, a, bb, c, d);
        }
        for (i, &p) in self.output_phases.iter().enumerate() {
            let phase = C64::cis(p);
            for j in 0..self.n {
                u[(i, j)] *= phase;
            }
        }
        u
    }

    /// Compiles the program into an execution plan with all per-block
    /// trigonometry evaluated up front.
    pub fn compile(&self) -> CompiledMesh {
        CompiledMesh::build(self, MziBlock::elements)
    }

    /// Compiles the program as realized with compacted (Bell–Walmsley)
    /// cells. Same plan structure and apply paths as
    /// [`MeshProgram::compile`], with each block's elements evaluated
    /// through [`MziBlock::compact_elements`].
    pub fn compile_compact(&self) -> CompiledMesh {
        CompiledMesh::build(self, MziBlock::compact_elements)
    }
}

/// An execution plan for a mesh: every cell's 2×2 elements and every
/// output phasor evaluated once at compile time, packed into independent
/// cell layers in split re/im (SoA) form, leaving the per-application
/// work as pure real multiply-adds on lane buffers. Every mesh
/// architecture compiles to this one form: [`MeshProgram::compile`] and
/// [`MeshProgram::compile_compact`] (Clements, Reck, Bell–Walmsley) and
/// [`crate::layered::LayeredMesh::compile`] (Fldzhyan).
///
/// Applying a compiled mesh costs O(blocks) with **zero** steady-state
/// allocations and **zero** trigonometric calls — [`MeshProgram::apply`]
/// pays a clone plus `sin`/`cos`/`cis` per block per call, yet yields
/// the same bits (DESIGN.md §11). The plan is a snapshot: recompile
/// after mutating the program's phases.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::program::{MeshProgram, MeshScratch, MziBlock};
///
/// let program = MeshProgram::new(2, vec![MziBlock::new(0, 0.3, 1.2)], vec![0.0; 2]);
/// let plan = program.compile();
/// let x = neuropulsim_linalg::CVector::from_reals(&[1.0, 0.5]);
/// let mut buf = x.as_slice().to_vec();
/// plan.apply_in_place(&mut buf, &mut MeshScratch::new());
/// assert_eq!(buf, program.apply(&x).as_slice());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMesh {
    n: usize,
    /// The blocks packed into independent layers (greedy ASAP, as
    /// [`MeshProgram::depth`]).
    layers: Vec<CellColumn>,
    out_re: Vec<f64>,
    out_im: Vec<f64>,
}

impl CompiledMesh {
    fn build(program: &MeshProgram, elements: fn(&MziBlock) -> (C64, C64, C64, C64)) -> Self {
        // Pack blocks into layers with the same greedy ASAP schedule as
        // `MeshProgram::depth`. A block lands in a later layer than every
        // earlier block it shares a mode with, so executing layer by
        // layer preserves each mode's per-block operation order — and
        // blocks inside one layer touch disjoint mode pairs, so sorting
        // them by mode changes no floating-point result.
        let mut mode_free_at = vec![0usize; program.n];
        let mut per_layer: Vec<Vec<&MziBlock>> = Vec::new();
        for blk in &program.blocks {
            let layer = mode_free_at[blk.mode].max(mode_free_at[blk.mode + 1]);
            mode_free_at[blk.mode] = layer + 1;
            mode_free_at[blk.mode + 1] = layer + 1;
            if per_layer.len() <= layer {
                per_layer.resize_with(layer + 1, Vec::new);
            }
            per_layer[layer].push(blk);
        }
        let layers = per_layer
            .into_iter()
            .map(|mut cells| {
                cells.sort_by_key(|blk| blk.mode);
                let mut col = CellColumn::new();
                for blk in cells {
                    let (a, b, c, d) = elements(blk);
                    col.push(blk.mode as u32, a, b, c, d);
                }
                col.finish();
                col
            })
            .collect();
        let output: Vec<C64> = program.output_phases.iter().map(|&p| C64::cis(p)).collect();
        CompiledMesh::from_columns(layers, &output)
    }

    /// A plan from finished cell columns, applied in order, followed by
    /// one output phasor per mode. The mode count is `output.len()`.
    pub(crate) fn from_columns(layers: Vec<CellColumn>, output: &[C64]) -> Self {
        let (out_re, out_im) = output.iter().map(|e| (e.re, e.im)).unzip();
        CompiledMesh {
            n: output.len(),
            layers,
            out_re,
            out_im,
        }
    }

    /// Number of optical modes.
    pub fn modes(&self) -> usize {
        self.n
    }

    /// Number of independent cell layers in the plan (the optical depth
    /// of the compiled circuit).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Applies the mesh to a field vector in place.
    ///
    /// For a compiled [`MeshProgram`] this is bit-identical to
    /// [`MeshProgram::apply`]: the layer schedule only reorders blocks
    /// that touch disjoint modes, and the lane arithmetic reproduces
    /// scalar `C64` operations exactly (see DESIGN.md §11).
    /// The layout — split re/im lanes with no interleaving and no
    /// store-to-load dependence between cells of a layer — lets the
    /// compiler vectorize and the core overlap independent cells.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != modes()`.
    pub fn apply_in_place(&self, v: &mut [C64], scratch: &mut MeshScratch) {
        assert_eq!(v.len(), self.n, "apply_in_place: dimension mismatch");
        scratch.lanes.pack_slice(v);
        let (re, im) = scratch.lanes.lanes_mut();
        for layer in &self.layers {
            layer.apply(re, im);
        }
        soa::apply_phasors(re, im, &self.out_re, &self.out_im);
        scratch.lanes.unpack_into(v);
    }

    /// Applies the mesh to a batch of vectors stored consecutively
    /// (`batch[j*n..(j+1)*n]` is vector `j`), each bit-identical to a
    /// single-vector [`CompiledMesh::apply_in_place`] on that column.
    ///
    /// This is the cache-blocked form: each layer's coefficients are
    /// read once per batch instead of once per vector, so at n=128 the
    /// ~0.5 MB coefficient stream is amortized over the whole batch and
    /// the kernel runs compute-bound.
    ///
    /// # Panics
    ///
    /// Panics if `batch.len()` is not a non-zero multiple of `modes()`.
    pub fn apply_batch(&self, batch: &mut [C64], scratch: &mut MeshScratch) {
        assert!(
            !batch.is_empty() && batch.len().is_multiple_of(self.n),
            "apply_batch: batch must hold a whole number of vectors"
        );
        let width = batch.len() / self.n;
        soa::pack_columns(
            batch,
            self.n,
            width,
            &mut scratch.batch_re,
            &mut scratch.batch_im,
        );
        for layer in &self.layers {
            layer.apply_batch(&mut scratch.batch_re, &mut scratch.batch_im, width);
        }
        soa::apply_phasors_batch(
            &mut scratch.batch_re,
            &mut scratch.batch_im,
            &self.out_re,
            &self.out_im,
            width,
        );
        soa::unpack_columns(&scratch.batch_re, &scratch.batch_im, self.n, width, batch);
    }
}

/// Reusable lane buffers for the blocked apply paths; steady-state
/// callers allocate nothing per application.
#[derive(Debug, Clone, Default)]
pub struct MeshScratch {
    pub(crate) lanes: SplitVector,
    pub(crate) batch_re: Vec<f64>,
    pub(crate) batch_im: Vec<f64>,
}

impl MeshScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MeshScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_program_is_identity() {
        let p = MeshProgram::identity(4);
        assert!(p.transfer_matrix().approx_eq(&CMatrix::identity(4), 1e-12));
        assert_eq!(p.depth(), 0);
        assert_eq!(p.block_count(), 0);
    }

    #[test]
    fn apply_matches_transfer_matrix() {
        let p = MeshProgram::new(
            3,
            vec![
                MziBlock::new(0, 1.1, 0.3),
                MziBlock::new(1, 2.0, 0.7),
                MziBlock::new(0, 0.4, 1.9),
            ],
            vec![0.1, 0.2, 0.3],
        );
        let u = p.transfer_matrix();
        let x = CVector::from_reals(&[0.3, -0.5, 0.8]);
        let via_matrix = u.mul_vec(&x);
        let via_apply = p.apply(&x);
        assert!(via_matrix.distance(&via_apply) < 1e-12);
    }

    #[test]
    fn compiled_mesh_matches_apply_and_matrix() {
        let p = MeshProgram::new(
            4,
            vec![
                MziBlock::new(0, 1.1, 0.3),
                MziBlock::new(2, 2.0, 0.7),
                MziBlock::new(1, 0.4, 1.9),
            ],
            vec![0.1, 0.2, 0.3, 0.4],
        );
        let plan = p.compile();
        assert_eq!(plan.modes(), 4);
        assert_eq!(plan.layer_count(), 2);
        let x = CVector::from_reals(&[0.3, -0.5, 0.8, 0.1]);
        let mut buf = x.as_slice().to_vec();
        plan.apply_in_place(&mut buf, &mut MeshScratch::new());
        let via_matrix = p.transfer_matrix().mul_vec(&x);
        for (b, m) in buf.iter().zip(via_matrix.as_slice()) {
            assert!(b.approx_eq(*m, 1e-12));
        }
    }

    #[test]
    fn programs_are_unitary() {
        let p = MeshProgram::new(
            4,
            vec![
                MziBlock::new(0, 0.5, 0.1),
                MziBlock::new(2, 1.5, 2.1),
                MziBlock::new(1, PI, 0.0),
            ],
            vec![0.0, 0.5, 1.0, 1.5],
        );
        assert!(p.transfer_matrix().is_unitary(1e-12));
    }

    #[test]
    fn depth_packs_parallel_blocks() {
        // Blocks on (0,1) and (2,3) fit in one layer; a following (1,2)
        // block needs a second layer.
        let p = MeshProgram::new(
            4,
            vec![
                MziBlock::new(0, 0.1, 0.0),
                MziBlock::new(2, 0.2, 0.0),
                MziBlock::new(1, 0.3, 0.0),
            ],
            vec![0.0; 4],
        );
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn scaled_phases_identity_at_factor_one() {
        let p = MeshProgram::new(
            3,
            vec![MziBlock::new(0, 1.1, 0.3), MziBlock::new(1, 2.0, 0.7)],
            vec![0.1, 0.2, 0.3],
        );
        assert_eq!(p.with_scaled_phases(1.0), p);
        let q = p.with_scaled_phases(0.99);
        assert!(q.transfer_matrix().is_unitary(1e-12));
        assert!(!q.transfer_matrix().approx_eq(&p.transfer_matrix(), 1e-6));
    }

    #[test]
    fn output_phase_screen_applied_last() {
        let p = MeshProgram::new(2, vec![], vec![PI, 0.0]);
        let u = p.transfer_matrix();
        assert!(u[(0, 0)].approx_eq(C64::real(-1.0), 1e-12));
        assert!(u[(1, 1)].approx_eq(C64::ONE, 1e-12));
    }

    fn demo_vector(n: usize, salt: f64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                C64::new(
                    (i as f64 * 0.61 + salt).sin(),
                    (i as f64 * 0.37 - salt).cos(),
                )
            })
            .collect()
    }

    fn demo_program(n: usize, salt: f64) -> MeshProgram {
        // A Clements-like brick pattern: alternating even/odd columns.
        let mut blocks = Vec::new();
        for layer in 0..n {
            let start = layer % 2;
            let mut m = start;
            while m + 1 < n {
                let t = salt + 0.13 * (layer * n + m) as f64;
                blocks.push(MziBlock::new(m, t.sin().abs() * PI, t.cos() * PI));
                m += 2;
            }
        }
        let phases = (0..n).map(|i| (salt + i as f64).sin() * PI).collect();
        MeshProgram::new(n, blocks, phases)
    }

    fn assert_bits_eq(got: &[C64], want: &[C64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.re.to_bits(), w.re.to_bits(), "re bits differ: {what}");
            assert_eq!(g.im.to_bits(), w.im.to_bits(), "im bits differ: {what}");
        }
    }

    #[test]
    fn compiled_apply_is_bit_identical_to_program_apply() {
        let mut scratch = MeshScratch::new();
        for n in [1usize, 2, 3, 5, 8, 16, 33, 64, 128] {
            let program = demo_program(n, 0.42);
            let plan = program.compile();
            assert!(plan.layer_count() <= n + 1);
            let x = demo_vector(n, 1.7);
            let want = program.apply(&CVector::from_slice(&x));
            let mut got = x;
            plan.apply_in_place(&mut got, &mut scratch);
            assert_bits_eq(&got, want.as_slice(), &format!("n={n}"));
        }
    }

    #[test]
    fn batch_is_bit_identical_per_column() {
        let n = 6;
        let plan = demo_program(n, -0.8).compile();
        let width = 5;
        let mut batch: Vec<C64> = (0..width).flat_map(|j| demo_vector(n, j as f64)).collect();
        let mut scratch = MeshScratch::new();
        let want: Vec<C64> = batch
            .chunks(n)
            .flat_map(|col| {
                let mut v = col.to_vec();
                plan.apply_in_place(&mut v, &mut scratch);
                v
            })
            .collect();
        plan.apply_batch(&mut batch, &mut scratch);
        assert_bits_eq(&batch, &want, "batch");
    }

    #[test]
    fn scratch_reuse_across_sizes_is_safe() {
        let mut scratch = MeshScratch::new();
        for n in [8usize, 3, 12] {
            let program = demo_program(n, 0.1);
            let plan = program.compile();
            let mut a = demo_vector(n, 0.2);
            let want = program.apply(&CVector::from_slice(&a));
            plan.apply_in_place(&mut a, &mut scratch);
            assert_eq!(a, want.as_slice());
            let mut batch: Vec<C64> = (0..3).flat_map(|j| demo_vector(n, j as f64)).collect();
            let want: Vec<C64> = batch
                .chunks(n)
                .flat_map(|col| program.apply(&CVector::from_slice(col)).as_slice().to_vec())
                .collect();
            plan.apply_batch(&mut batch, &mut scratch);
            assert_eq!(batch, want);
        }
    }

    #[test]
    #[should_panic(expected = "whole number of vectors")]
    fn batch_rejects_ragged_input() {
        let plan = demo_program(4, 0.0).compile();
        let mut batch = demo_vector(6, 0.0);
        plan.apply_batch(&mut batch, &mut MeshScratch::new());
    }

    #[test]
    #[should_panic(expected = "exceeds mesh")]
    fn rejects_out_of_range_block() {
        let _ = MeshProgram::new(2, vec![MziBlock::new(1, 0.0, 0.0)], vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "one output phase per mode")]
    fn rejects_wrong_phase_count() {
        let _ = MeshProgram::new(3, vec![], vec![0.0; 2]);
    }
}
