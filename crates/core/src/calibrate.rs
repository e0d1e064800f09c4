//! Post-fabrication calibration of rectangular meshes: given a mesh whose
//! couplers came out imbalanced (and have been *characterized*), re-solve
//! the phase program numerically to recover fidelity.
//!
//! This is the practical counterpoint to the Fldzhyan architecture's
//! built-in error tolerance (E2): a Clements mesh is only fragile when
//! programmed *obliviously* by the analytic decomposition; with device
//! characterization and phase re-optimization it recovers almost all of
//! the lost fidelity. The trade is operational (a calibration step per
//! chip) rather than architectural (extra depth).
//!
//! The optimizer exploits the same structure as the layered-mesh
//! programmer: every matrix entry is *affine* in each `e^{i*phase}`, so
//! the target overlap `t(p) = a + b e^{ip}` is fixed exactly by three
//! probe evaluations and maximized in closed form per phase.

use crate::architecture::MeshArchitecture;
use crate::layered::{LayeredMesh, ProgramOptions};
use crate::program::MeshProgram;
use crate::{clements, reck};
use neuropulsim_linalg::{metrics, parallel, CMatrix, C64};
use neuropulsim_photonics::coupler::Coupler;
use neuropulsim_photonics::mzi::Mzi;
use neuropulsim_photonics::pcm::drift_fraction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// One fabricated MZI: fixed (characterized) couplers, adjustable phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricatedBlock {
    /// Top mode index.
    pub mode: usize,
    /// Input-side coupler as fabricated.
    pub coupler_1: Coupler,
    /// Output-side coupler as fabricated.
    pub coupler_2: Coupler,
    /// Internal phase (programmable).
    pub theta: f64,
    /// External phase (programmable).
    pub phi: f64,
}

/// A fabricated rectangular mesh: the couplers are frozen by the process,
/// the phases remain programmable.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricatedMesh {
    n: usize,
    blocks: Vec<FabricatedBlock>,
    output_phases: Vec<f64>,
}

impl FabricatedMesh {
    /// "Fabricates" a mesh from a program: copies the layout and phases,
    /// sampling each coupler with Gaussian splitting error `coupler_sigma`.
    pub fn fabricate<R: Rng + ?Sized>(
        program: &MeshProgram,
        coupler_sigma: f64,
        rng: &mut R,
    ) -> Self {
        let blocks = program
            .blocks()
            .iter()
            .map(|b| FabricatedBlock {
                mode: b.mode,
                coupler_1: Coupler::with_imbalance(
                    coupler_sigma * neuropulsim_linalg::random::gaussian(rng),
                ),
                coupler_2: Coupler::with_imbalance(
                    coupler_sigma * neuropulsim_linalg::random::gaussian(rng),
                ),
                theta: b.theta,
                phi: b.phi,
            })
            .collect();
        FabricatedMesh {
            n: program.modes(),
            blocks,
            output_phases: program.output_phases().to_vec(),
        }
    }

    /// Number of modes.
    pub fn modes(&self) -> usize {
        self.n
    }

    /// The fabricated blocks.
    pub fn blocks(&self) -> &[FabricatedBlock] {
        &self.blocks
    }

    /// The realized transfer matrix with the current phases.
    pub fn transfer_matrix(&self) -> CMatrix {
        let mut u = CMatrix::identity(self.n);
        for b in &self.blocks {
            let mzi = Mzi::with_couplers(b.theta, b.phi, b.coupler_1, b.coupler_2);
            let (a, bb, c, d) = mzi.elements();
            u.apply_left_2x2(b.mode, b.mode + 1, a, bb, c, d);
        }
        for (i, &p) in self.output_phases.iter().enumerate() {
            let e = C64::cis(p);
            for j in 0..self.n {
                u[(i, j)] *= e;
            }
        }
        u
    }

    /// Current fidelity against a target.
    pub fn fidelity(&self, target: &CMatrix) -> f64 {
        metrics::unitary_fidelity(target, &self.transfer_matrix())
    }

    /// Overlap `Tr(target^dagger * U)` with the current phases.
    fn overlap(&self, target_adj: &CMatrix) -> C64 {
        target_adj.mul_mat(&self.transfer_matrix()).trace()
    }

    /// Recalibrates all phases against `target` by cyclic exact
    /// single-phase maximization. Returns the final fidelity.
    ///
    /// Every phase enters each matrix entry affinely through `e^{ip}`, so
    /// three probes at `p in {0, pi/2, pi}` determine
    /// `t(p) = a + b e^{ip}` exactly; the maximizing phase is
    /// `arg(a) - arg(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not `n x n`.
    pub fn calibrate(&mut self, target: &CMatrix, max_sweeps: usize) -> f64 {
        assert_eq!(
            (target.rows(), target.cols()),
            (self.n, self.n),
            "calibrate: target size mismatch"
        );
        let target_adj = target.adjoint();
        let mut last = self.fidelity(target);
        for _sweep in 0..max_sweeps {
            for k in 0..self.blocks.len() {
                let theta = self.best_phase(&target_adj, |mesh, p| {
                    mesh.blocks[k].theta = p;
                });
                self.blocks[k].theta = theta;
                let phi = self.best_phase(&target_adj, |mesh, p| {
                    mesh.blocks[k].phi = p;
                });
                self.blocks[k].phi = phi;
            }
            for i in 0..self.n {
                let p = self.best_phase(&target_adj, |mesh, p| {
                    mesh.output_phases[i] = p;
                });
                self.output_phases[i] = p;
            }
            let fidelity = self.fidelity(target);
            if (fidelity - last).abs() < 1e-12 {
                return fidelity;
            }
            last = fidelity;
        }
        last
    }

    /// Probes one phase at three settings and returns the maximizer.
    ///
    /// Note: `theta` is *not* purely affine through `e^{i theta}` in the
    /// physical MZI because of the global `i e^{i theta/2}` factor — but
    /// that factor multiplies both rows identically and the affine
    /// structure holds for the matrix entries as written (the composition
    /// `C2 * diag(e^{i theta}, 1) * C1 * diag(e^{i phi}, 1)` is affine in
    /// both phasors), so the 3-point fit is exact.
    fn best_phase<F>(&mut self, target_adj: &CMatrix, setter: F) -> f64
    where
        F: Fn(&mut Self, f64),
    {
        let probe = |mesh: &mut Self, p: f64, setter: &F| -> C64 {
            setter(mesh, p);
            mesh.overlap(target_adj)
        };
        let t0 = probe(self, 0.0, &setter);
        let t1 = probe(self, std::f64::consts::FRAC_PI_2, &setter);
        let t2 = probe(self, std::f64::consts::PI, &setter);
        // t(p) = a + b e^{ip}: a = (t0 + t2)/2, b = (t0 - t2)/2.
        let a = (t0 + t2) * 0.5;
        let b = (t0 - t2) * 0.5;
        // Consistency of the affine model (t1 should equal a + i b).
        debug_assert!(
            (t1 - (a + C64::I * b)).abs() <= 1e-6 * (1.0 + t1.abs()),
            "phase response is not affine"
        );
        let best = if a.abs() < 1e-300 {
            0.0
        } else {
            neuropulsim_photonics::phase::wrap_phase(a.arg() - b.arg())
        };
        setter(self, best);
        best
    }
}

// ------------------------------------------------- calibration under drift

/// Configuration of a calibration-under-drift campaign: every
/// programmed phase is held by a multi-level PCM cell whose crystalline
/// fraction ages by `nu * ln(1 + t)` through [`drift_fraction`], and a
/// recalibration loop re-programs the stored levels whenever the
/// realized fidelity falls below `retain_frac` of the freshly-stored
/// fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftCampaignConfig {
    /// Static Gaussian coupler imbalance at fabrication \[rad\].
    pub coupler_sigma: f64,
    /// PCM storage levels per phase (iterative programming resolution).
    pub levels: u32,
    /// Mean drift coefficient (fraction shift per `ln(1 + t/1s)`).
    pub nu: f64,
    /// Relative per-cell dispersion of the drift coefficient (each cell
    /// draws `nu * (1 + nu_sigma * gaussian)`, floored at 0). Without
    /// dispersion a full phase column drifts uniformly, which is a pure
    /// global phase on the layered mesh — dispersion is what makes
    /// drift observable on every architecture.
    pub nu_sigma: f64,
    /// Simulated seconds between fidelity checks.
    pub seconds_per_step: f64,
    /// Number of drift steps.
    pub steps: usize,
    /// Recalibration trigger: re-program when fidelity falls below
    /// `retain_frac * stored_fidelity`.
    pub retain_frac: f64,
    /// Sweep budget for the Fldzhyan error-aware (re)programming polish.
    pub polish: ProgramOptions,
}

impl Default for DriftCampaignConfig {
    fn default() -> Self {
        DriftCampaignConfig {
            coupler_sigma: 0.05,
            levels: 4096,
            nu: 1e-3,
            nu_sigma: 0.3,
            seconds_per_step: 5.0,
            steps: 48,
            retain_frac: 0.98,
            polish: ProgramOptions {
                max_sweeps: 12,
                tol: 1e-10,
            },
        }
    }
}

/// Outcome of one architecture's drift campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftTrace {
    /// The architecture.
    pub arch: MeshArchitecture,
    /// Modes.
    pub n: usize,
    /// Fidelity right after programming (couplers imbalanced, phases
    /// exact) — the architecture's error-tolerance signature.
    pub fresh_fidelity: f64,
    /// Fidelity after quantizing every phase into a PCM level.
    pub stored_fidelity: f64,
    /// The recalibration trigger threshold actually used.
    pub floor: f64,
    /// Lowest *post-recalibration* fidelity over the campaign; held
    /// above `floor` by the recalibration loop.
    pub min_fidelity: f64,
    /// Lowest fidelity observed *before* a recalibration fired — how
    /// deep the drift excursions got.
    pub worst_excursion: f64,
    /// Mean of the per-step (post-recalibration) fidelities.
    pub mean_fidelity: f64,
    /// Fidelity at the last step.
    pub final_fidelity: f64,
    /// Number of recalibrations the loop needed.
    pub recalibrations: usize,
    /// Steps simulated.
    pub steps: usize,
}

/// The unified phase store a drift campaign ages: either a fabricated
/// rectangular mesh or a layered mesh, with phases exposed as one flat
/// vector in a fixed order.
enum DriftRealization {
    Rect(FabricatedMesh),
    Layered(LayeredMesh),
}

impl DriftRealization {
    fn phases(&self) -> Vec<f64> {
        match self {
            DriftRealization::Rect(mesh) => {
                let mut out = Vec::with_capacity(2 * mesh.blocks.len() + mesh.n);
                for b in &mesh.blocks {
                    out.push(b.theta);
                    out.push(b.phi);
                }
                out.extend_from_slice(&mesh.output_phases);
                out
            }
            DriftRealization::Layered(mesh) => {
                let mut out = Vec::new();
                for layer in mesh.phase_layers() {
                    out.extend_from_slice(layer);
                }
                out.extend_from_slice(mesh.output_phases());
                out
            }
        }
    }

    fn set_phases(&mut self, phases: &[f64]) {
        match self {
            DriftRealization::Rect(mesh) => {
                let mut it = phases.iter();
                for b in &mut mesh.blocks {
                    b.theta = *it.next().unwrap();
                    b.phi = *it.next().unwrap();
                }
                for p in &mut mesh.output_phases {
                    *p = *it.next().unwrap();
                }
                assert!(it.next().is_none(), "phase count mismatch");
            }
            DriftRealization::Layered(mesh) => {
                let mut it = phases.iter();
                for layer in mesh.phase_layers_mut() {
                    for p in layer.iter_mut() {
                        *p = *it.next().unwrap();
                    }
                }
                for p in mesh.output_phases_mut() {
                    *p = *it.next().unwrap();
                }
                assert!(it.next().is_none(), "phase count mismatch");
            }
        }
    }

    fn fidelity(&self, target: &CMatrix) -> f64 {
        match self {
            DriftRealization::Rect(mesh) => mesh.fidelity(target),
            DriftRealization::Layered(mesh) => {
                metrics::unitary_fidelity(target, &mesh.transfer_matrix())
            }
        }
    }
}

/// Quantizes a phase into the nearest of `levels` PCM fractions of the
/// full turn, returning the stored fraction in `[0, 1]`.
fn quantize_phase(phase: f64, levels: u32) -> f64 {
    let f = phase.rem_euclid(TAU) / TAU;
    let steps = (levels - 1) as f64;
    (f * steps).round() / steps
}

/// The campaign's shared target: a Haar-like unitary that is *exactly*
/// representable by an ideal-coupler layered mesh, so every
/// architecture competes on the same footing (the analytic
/// decompositions handle any unitary, and Fldzhyan's optimizer is not
/// penalized for a capped sweep budget). Deterministic in `(n, seed)`.
pub(crate) fn layered_target(n: usize, seed: u64) -> (LayeredMesh, CMatrix) {
    let mut rng = StdRng::seed_from_u64(parallel::split_seed(seed, 0));
    let mut generator = LayeredMesh::universal(n);
    generator.randomize_phases(&mut rng);
    let target = generator.transfer_matrix();
    (generator, target)
}

/// Runs one architecture's calibration-under-drift campaign at size `n`.
///
/// The mesh is programmed once (analytically for the rectangular
/// architectures, error-aware warm-started polish for Fldzhyan — its
/// phases start at the target's generating values and re-optimize
/// against the *fabricated* couplers), phases are quantized into PCM
/// levels, and the campaign then alternates drift steps with
/// threshold-triggered re-programming of the stored levels.
///
/// Deterministic in `(arch, n, cfg, seed)`; the target depends only on
/// `(n, seed)`, so all four architectures of one campaign age against
/// the same unitary.
pub(crate) fn drift_campaign(
    arch: MeshArchitecture,
    n: usize,
    cfg: &DriftCampaignConfig,
    seed: u64,
) -> DriftTrace {
    let (generator, target) = layered_target(n, seed);
    let arch_index = MeshArchitecture::ALL
        .iter()
        .position(|a| *a == arch)
        .unwrap() as u64;
    let mut rng = StdRng::seed_from_u64(parallel::split_seed(seed, 1 + arch_index));

    let mut realization = match arch {
        MeshArchitecture::Clements | MeshArchitecture::ClementsCompact => {
            let program = clements::decompose(&target);
            DriftRealization::Rect(FabricatedMesh::fabricate(
                &program,
                cfg.coupler_sigma,
                &mut rng,
            ))
        }
        MeshArchitecture::Reck => {
            let program = reck::decompose(&target);
            DriftRealization::Rect(FabricatedMesh::fabricate(
                &program,
                cfg.coupler_sigma,
                &mut rng,
            ))
        }
        MeshArchitecture::Fldzhyan => {
            let mut mesh = generator;
            mesh.perturb_couplers(&mut rng, cfg.coupler_sigma);
            mesh.program_unitary(&target, cfg.polish);
            DriftRealization::Layered(mesh)
        }
    };

    let fresh_fidelity = realization.fidelity(&target);
    let stored: Vec<f64> = realization
        .phases()
        .iter()
        .map(|&p| quantize_phase(p, cfg.levels))
        .collect();
    let stored_phases: Vec<f64> = stored.iter().map(|&f| f * TAU).collect();
    // Per-cell drift coefficients: fabrication-frozen dispersion.
    let nus: Vec<f64> = stored
        .iter()
        .map(|_| {
            (cfg.nu * (1.0 + cfg.nu_sigma * neuropulsim_linalg::random::gaussian(&mut rng)))
                .max(0.0)
        })
        .collect();
    realization.set_phases(&stored_phases);
    let stored_fidelity = realization.fidelity(&target);
    let floor = cfg.retain_frac * stored_fidelity;

    let mut age = 0.0f64;
    let mut recalibrations = 0usize;
    let mut min_fidelity = f64::INFINITY;
    let mut worst_excursion = f64::INFINITY;
    let mut sum = 0.0f64;
    let mut final_fidelity = stored_fidelity;
    for _ in 0..cfg.steps {
        age += cfg.seconds_per_step;
        let drifted: Vec<f64> = stored
            .iter()
            .zip(&nus)
            .map(|(&f, &nu)| drift_fraction(f, age, nu) * TAU)
            .collect();
        realization.set_phases(&drifted);
        let mut fidelity = realization.fidelity(&target);
        worst_excursion = worst_excursion.min(fidelity);
        if fidelity < floor {
            // Recalibrate: re-program every PCM cell back onto its
            // stored level, which also resets the relaxation clock.
            realization.set_phases(&stored_phases);
            age = 0.0;
            recalibrations += 1;
            fidelity = stored_fidelity;
        }
        min_fidelity = min_fidelity.min(fidelity);
        sum += fidelity;
        final_fidelity = fidelity;
    }
    DriftTrace {
        arch,
        n,
        fresh_fidelity,
        stored_fidelity,
        floor,
        min_fidelity,
        worst_excursion,
        mean_fidelity: if cfg.steps > 0 {
            sum / cfg.steps as f64
        } else {
            stored_fidelity
        },
        final_fidelity,
        recalibrations,
        steps: cfg.steps,
    }
}

/// Runs the campaign for all four architectures against one shared
/// target, fanned out over up to `threads` workers; deterministic in
/// `(n, cfg, seed)` and independent of the thread count.
pub fn drift_campaign_all(
    n: usize,
    cfg: &DriftCampaignConfig,
    seed: u64,
    threads: usize,
) -> Vec<DriftTrace> {
    parallel::par_map_indexed(MeshArchitecture::ALL.len(), threads, |i| {
        drift_campaign(MeshArchitecture::ALL[i], n, cfg, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clements::decompose;
    use neuropulsim_linalg::random::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, sigma: f64, seed: u64) -> (CMatrix, FabricatedMesh) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = haar_unitary(&mut rng, n);
        let program = decompose(&target);
        let mesh = FabricatedMesh::fabricate(&program, sigma, &mut rng);
        (target, mesh)
    }

    #[test]
    fn perfect_fabrication_needs_no_calibration() {
        let (target, mesh) = setup(6, 0.0, 1);
        assert!(mesh.fidelity(&target) > 1.0 - 1e-10);
    }

    #[test]
    fn calibration_recovers_imbalanced_mesh() {
        // Seed chosen so the fabricated imbalance is recoverable by a
        // coordinate sweep under the vendored xoshiro-based StdRng stream
        // (which differs from upstream rand's ChaCha stream).
        let (target, mut mesh) = setup(6, 0.08, 2);
        let before = mesh.fidelity(&target);
        assert!(before < 0.98, "imbalance should hurt first: {before}");
        let after = mesh.calibrate(&target, 60);
        assert!(
            after > 0.999,
            "calibration should recover fidelity: {before} -> {after}"
        );
        assert!(after > before);
    }

    #[test]
    fn calibration_is_monotone_across_sweeps() {
        let (target, mut mesh) = setup(5, 0.1, 5);
        let f1 = mesh.calibrate(&target, 1);
        let f5 = mesh.calibrate(&target, 5);
        assert!(f5 >= f1 - 1e-12, "{f5} !>= {f1}");
    }

    #[test]
    fn calibrated_matches_fldzhyan_robustness() {
        // The headline: an oblivious Clements mesh loses to the
        // error-aware layered mesh under imbalance, but a *calibrated*
        // Clements mesh gets the robustness back.
        let sigma = 0.1;
        let (target, mut mesh) = setup(6, sigma, 7);
        let oblivious = mesh.fidelity(&target);
        let calibrated = mesh.calibrate(&target, 60);
        assert!(calibrated - oblivious > 0.02, "{oblivious} -> {calibrated}");
        assert!(calibrated > 0.995, "calibrated {calibrated}");
    }

    #[test]
    fn calibration_to_wrong_size_panics() {
        let (_, mut mesh) = setup(4, 0.05, 9);
        let other = CMatrix::identity(5);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mesh.calibrate(&other, 1)));
        assert!(result.is_err());
    }

    #[test]
    fn transfer_is_unitary_for_lossless_fabrication() {
        let (_, mesh) = setup(6, 0.1, 11);
        assert!(mesh.transfer_matrix().is_unitary(1e-10));
    }

    #[test]
    fn quantization_rounds_to_nearest_level() {
        assert_eq!(quantize_phase(0.0, 2), 0.0);
        assert_eq!(quantize_phase(TAU * 0.74, 101), 0.74);
        // Wrapping: a negative phase lands on the equivalent fraction.
        assert!((quantize_phase(-TAU * 0.25, 4096) - 0.75).abs() < 1e-3);
    }

    #[test]
    fn drift_campaign_recalibrates_and_holds_the_floor() {
        let cfg = DriftCampaignConfig {
            steps: 24,
            seconds_per_step: 30.0,
            nu: 3e-3,
            polish: ProgramOptions {
                max_sweeps: 20,
                tol: 1e-10,
            },
            ..DriftCampaignConfig::default()
        };
        let traces = drift_campaign_all(6, &cfg, 21, 2);
        assert_eq!(traces.len(), MeshArchitecture::ALL.len());
        for t in &traces {
            assert!(
                t.min_fidelity >= t.floor - 1e-12,
                "{}: min {} below floor {}",
                t.arch,
                t.min_fidelity,
                t.floor
            );
            assert!(
                t.worst_excursion < t.stored_fidelity - 1e-4,
                "{}: drift should be visible ({} vs {})",
                t.arch,
                t.worst_excursion,
                t.stored_fidelity
            );
            // 4096-level storage quantizes phases to ~1e-3 rad; the
            // fidelity moves only marginally (either direction — the
            // programmed point need not be a perfect optimum).
            assert!(
                (t.stored_fidelity - t.fresh_fidelity).abs() < 1e-3,
                "{}: stored {} vs fresh {}",
                t.arch,
                t.stored_fidelity,
                t.fresh_fidelity
            );
            assert_eq!(t.steps, 24);
        }
        // The error-oblivious analytic meshes lean on the recalibration
        // loop; the error-aware layered mesh both starts higher and
        // needs fewer recalibrations — its tolerance pays off.
        let by_arch = |a: MeshArchitecture| traces.iter().find(|t| t.arch == a).unwrap();
        let clements = by_arch(MeshArchitecture::Clements);
        let fldzhyan = by_arch(MeshArchitecture::Fldzhyan);
        assert!(clements.recalibrations >= 1, "clements never recalibrated");
        assert!(
            fldzhyan.fresh_fidelity > clements.fresh_fidelity,
            "error-aware programming should beat oblivious decomposition under imbalance"
        );
        assert!(fldzhyan.recalibrations <= clements.recalibrations);
        // Determinism across thread counts.
        assert_eq!(traces, drift_campaign_all(6, &cfg, 21, 1));
    }
}
