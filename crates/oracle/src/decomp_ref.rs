//! Textbook mesh reconstruction: every MZI block becomes a full dense
//! two-level matrix built from the closed-form Clements cell, and the
//! program's transfer matrix is the naive product of those matrices.
//! No `CompiledMesh` plans, no in-place two-level updates — except in
//! [`PerBlockPlan`], the block-by-block apply the blocked kernel must
//! reproduce bit for bit.

use crate::linalg_ref::{mul_mat_ref, mul_vec_ref};
use neuropulsim_core::layered::LayeredMesh;
use neuropulsim_core::program::{MeshProgram, MziBlock};
use neuropulsim_linalg::{CMatrix, CVector, C64};

/// A mesh program precompiled block by block: the arithmetic of
/// `MeshProgram::apply` without its per-call trigonometry, on
/// interleaved `C64` values. It is the bit-identity reference for the
/// blocked `CompiledMesh` apply and the `per_block` bench baseline.
#[derive(Debug, Clone)]
pub struct PerBlockPlan {
    stages: Vec<(usize, (C64, C64, C64, C64))>,
    phasors: Vec<C64>,
}

impl PerBlockPlan {
    /// Plans the plain mesh ([`MziBlock::elements`]).
    pub fn new(program: &MeshProgram) -> Self {
        Self::build(program, MziBlock::elements)
    }

    /// Plans the compacted mesh ([`MziBlock::compact_elements`]).
    pub fn compact(program: &MeshProgram) -> Self {
        Self::build(program, MziBlock::compact_elements)
    }

    fn build(program: &MeshProgram, elements: fn(&MziBlock) -> (C64, C64, C64, C64)) -> Self {
        let stages = program.blocks().iter().map(|b| (b.mode, elements(b)));
        let phasors = program.output_phases().iter().map(|&p| C64::cis(p));
        PerBlockPlan {
            stages: stages.collect(),
            phasors: phasors.collect(),
        }
    }

    /// Applies the mesh to `v` in place, block by block in program order.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not have one entry per mode.
    pub fn apply_in_place(&self, v: &mut [C64]) {
        assert_eq!(v.len(), self.phasors.len(), "dimension mismatch");
        for &(m, (a, b, c, d)) in &self.stages {
            let (xp, xq) = (v[m], v[m + 1]);
            v[m] = a * xp + b * xq;
            v[m + 1] = c * xp + d * xq;
        }
        for (x, &ph) in v.iter_mut().zip(&self.phasors) {
            *x *= ph;
        }
    }
}

/// Closed-form 2×2 transfer matrix of an ideal Clements MZI cell with
/// internal phase `theta` and input phase `phi`, row-major
/// `(a, b, c, d)`:
///
/// `i·e^{iθ/2} · [[e^{iφ}·sin(θ/2), cos(θ/2)], [e^{iφ}·cos(θ/2), −sin(θ/2)]]`
pub fn mzi_elements_ref(theta: f64, phi: f64) -> (C64, C64, C64, C64) {
    let g = C64::I * C64::cis(theta / 2.0);
    let s = (theta / 2.0).sin();
    let c = (theta / 2.0).cos();
    let e = C64::cis(phi);
    (g * e * s, g * c, g * e * c, -(g * s))
}

/// Dense n×n embedding of a 2×2 block acting on adjacent modes
/// `(m, m+1)`: the identity with four entries replaced.
pub fn two_level_ref(n: usize, m: usize, block: (C64, C64, C64, C64)) -> CMatrix {
    let mut u = CMatrix::identity(n);
    u[(m, m)] = block.0;
    u[(m, m + 1)] = block.1;
    u[(m + 1, m)] = block.2;
    u[(m + 1, m + 1)] = block.3;
    u
}

/// Reference transfer matrix of a mesh program: naive dense products of
/// full two-level matrices, in block order, then the diagonal output
/// phase screen applied row by row.
pub fn transfer_matrix_ref(program: &MeshProgram) -> CMatrix {
    let n = program.modes();
    let mut u = CMatrix::identity(n);
    for block in program.blocks() {
        let cell = two_level_ref(n, block.mode, mzi_elements_ref(block.theta, block.phi));
        u = mul_mat_ref(&cell, &u);
    }
    let mut out = u;
    for (i, &ph) in program.output_phases().iter().enumerate() {
        let phase = C64::cis(ph);
        for j in 0..n {
            out[(i, j)] *= phase;
        }
    }
    out
}

/// Reference application of a mesh program to an input vector: build
/// the full reference transfer matrix, then one naive mat–vec.
///
/// # Panics
///
/// Panics if `x` does not have one entry per mode.
pub fn apply_ref(program: &MeshProgram, x: &CVector) -> CVector {
    mul_vec_ref(&transfer_matrix_ref(program), x)
}

/// Reference 2×2 elements of a compacted (Bell–Walmsley) cell, built by
/// *numeric composition* of ideal 50:50 coupler matrices —
/// `C · diag(e^{iθ}, 1) · C · diag(e^{iφ}, 1)` with
/// `C = (1/√2)·[[1, i], [i, 1]]` — deliberately the opposite evaluation
/// strategy from the fast path's closed form, so the two derivations
/// are independent.
pub fn compact_elements_ref(theta: f64, phi: f64) -> (C64, C64, C64, C64) {
    let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
    let (ca, cb, cc, cd) = (h, h * C64::I, h * C64::I, h);
    let e_phi = C64::cis(phi);
    let e_theta = C64::cis(theta);
    // M1 = C * diag(e^{iφ}, 1); M2 = C * diag(e^{iθ}, 1); T = M2 * M1.
    let m1 = (ca * e_phi, cb, cc * e_phi, cd);
    let m2 = (ca * e_theta, cb, cc * e_theta, cd);
    (
        m2.0 * m1.0 + m2.1 * m1.2,
        m2.0 * m1.1 + m2.1 * m1.3,
        m2.2 * m1.0 + m2.3 * m1.2,
        m2.2 * m1.1 + m2.3 * m1.3,
    )
}

/// Reference transfer matrix of a mesh program realized with compacted
/// cells: naive dense products of two-level embeddings of
/// [`compact_elements_ref`], then the output phase screen.
pub fn compact_transfer_matrix_ref(program: &MeshProgram) -> CMatrix {
    let n = program.modes();
    let mut u = CMatrix::identity(n);
    for block in program.blocks() {
        let cell = two_level_ref(n, block.mode, compact_elements_ref(block.theta, block.phi));
        u = mul_mat_ref(&cell, &u);
    }
    let mut out = u;
    for (i, &ph) in program.output_phases().iter().enumerate() {
        let phase = C64::cis(ph);
        for j in 0..n {
            out[(i, j)] *= phase;
        }
    }
    out
}

/// Dense diagonal phase-column matrix `diag(e^{i·phases})`.
fn phase_column_ref(phases: &[f64]) -> CMatrix {
    let mut u = CMatrix::identity(phases.len());
    for (i, &p) in phases.iter().enumerate() {
        u[(i, i)] = C64::cis(p);
    }
    u
}

/// Reference transfer matrix of a layered (Fldzhyan) mesh: every phase
/// column and every individual coupler becomes a full dense matrix and
/// the result is their naive product, input to output. Coupler `p` of
/// layer `l` acts on modes `(l % 2 + 2p, l % 2 + 2p + 1)` with the
/// lossless directional-coupler cell
/// `[[cos κ, i·sin κ], [i·sin κ, cos κ]]`, honoring any per-coupler
/// imbalance recorded in the mesh.
pub fn layered_transfer_matrix_ref(mesh: &LayeredMesh) -> CMatrix {
    let n = mesh.modes();
    let mut u = CMatrix::identity(n);
    for (l, (phases, kappas)) in mesh
        .phase_layers()
        .iter()
        .zip(mesh.coupler_kappas())
        .enumerate()
    {
        u = mul_mat_ref(&phase_column_ref(phases), &u);
        let offset = l % 2;
        for (p, &kappa) in kappas.iter().enumerate() {
            let c = C64::real(kappa.cos());
            let s = C64::new(0.0, kappa.sin());
            let cell = two_level_ref(n, offset + 2 * p, (c, s, s, c));
            u = mul_mat_ref(&cell, &u);
        }
    }
    mul_mat_ref(&phase_column_ref(mesh.output_phases()), &u)
}
