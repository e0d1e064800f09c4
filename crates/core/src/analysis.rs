//! Experiment-level sweep helpers: expressivity (E1) and robustness (E2)
//! trials, and basic summary statistics for result tables.

use crate::architecture::MeshArchitecture;
use crate::layered::ProgramOptions;
use neuropulsim_linalg::random::haar_unitary;
use neuropulsim_linalg::{metrics, parallel, RMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary statistics of a sample of scalar results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Number of samples.
    pub count: usize,
}

impl Stats {
    /// Computes statistics over the given samples. Returns the default
    /// (all zeros) for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Stats::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Stats {
            mean,
            std: var.sqrt(),
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            count: samples.len(),
        }
    }
}

/// One expressivity trial: draws a Haar-random target, programs a mesh of
/// the given architecture, and returns the achieved fidelity.
pub(crate) fn expressivity_trial<R: Rng + ?Sized>(
    arch: MeshArchitecture,
    n: usize,
    rng: &mut R,
) -> f64 {
    let target = haar_unitary(rng, n);
    let mesh = arch.program(&target, rng);
    mesh.fidelity(&target)
}

/// Expressivity over `trials` random targets.
pub fn expressivity_sweep<R: Rng + ?Sized>(
    arch: MeshArchitecture,
    n: usize,
    trials: usize,
    rng: &mut R,
) -> Stats {
    let samples: Vec<f64> = (0..trials)
        .map(|_| expressivity_trial(arch, n, rng))
        .collect();
    Stats::from_samples(&samples)
}

/// One robustness trial under *post-programming phase noise*: program the
/// mesh ideally, perturb every phase by Gaussian noise of std
/// `sigma_phase`, and return the realized fidelity.
pub fn phase_noise_trial<R: Rng + ?Sized>(
    arch: MeshArchitecture,
    n: usize,
    sigma_phase: f64,
    rng: &mut R,
) -> f64 {
    let target = haar_unitary(rng, n);
    let mesh = arch.program(&target, rng);
    let realized = mesh.realize_with_phase_noise(sigma_phase, rng);
    metrics::unitary_fidelity(&target, &realized)
}

/// One robustness trial under *static coupler imbalance*: couplers carry
/// Gaussian splitting errors of std `sigma_coupler`, and each architecture
/// programs the mesh through its natural flow (analytic for Clements,
/// error-aware optimization for Fldzhyan).
pub fn coupler_imbalance_trial<R: Rng + ?Sized>(
    arch: MeshArchitecture,
    n: usize,
    sigma_coupler: f64,
    rng: &mut R,
) -> f64 {
    let target = haar_unitary(rng, n);
    let realized = arch.program_with_imbalance(&target, sigma_coupler, rng);
    metrics::unitary_fidelity(&target, &realized)
}

/// Robustness statistics over `trials`.
pub fn robustness_sweep<R: Rng + ?Sized>(
    arch: MeshArchitecture,
    n: usize,
    sigma_phase: f64,
    sigma_coupler: f64,
    trials: usize,
    rng: &mut R,
) -> Stats {
    let samples: Vec<f64> = (0..trials)
        .map(|_| {
            if sigma_coupler > 0.0 {
                coupler_imbalance_trial(arch, n, sigma_coupler, rng)
            } else {
                phase_noise_trial(arch, n, sigma_phase, rng)
            }
        })
        .collect();
    Stats::from_samples(&samples)
}

/// Coverage of *non-unitary* targets: relative error of realizing a random
/// real matrix through the SVD construction (two meshes + attenuators).
/// Exercises the full expressivity claim — any matrix, not just unitaries.
pub fn nonunitary_coverage_trial<R: Rng + ?Sized>(n: usize, rng: &mut R) -> f64 {
    let m = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    let core = crate::mvm::MvmCore::new(&m);
    let mut rng2 = rand::rngs::mock::StepRng::new(0, 1);
    let realized = core.realized_matrix(&crate::mvm::MvmNoiseConfig::ideal(), &mut rng2);
    let diff = (&realized - &m).frobenius_norm();
    diff / m.frobenius_norm().max(f64::MIN_POSITIVE)
}

/// The canonical size axis of the topology × size grid, up to the
/// large-mesh regime the blocked kernels target.
pub const GRID_SIZES: [usize; 5] = [8, 16, 32, 64, 128];

/// One cell of the topology × size grid: fidelity statistics for a
/// single `(architecture, n)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// The mesh architecture.
    pub arch: MeshArchitecture,
    /// Number of optical modes.
    pub n: usize,
    /// Fidelity on Haar-random targets with ideal hardware (E1). For
    /// Fldzhyan this is honest about the sweep budget in `options` —
    /// large meshes under a capped budget report the fidelity actually
    /// reached, not the asymptotic one.
    pub expressivity: Stats,
    /// Fidelity under static coupler imbalance, each architecture
    /// programming through its natural flow (E2).
    pub imbalance: Stats,
}

/// Full topology × size sweep: every architecture in
/// [`MeshArchitecture::ALL`] crossed with every size in `sizes`,
/// `trials` expressivity and `trials` imbalance-robustness trials per
/// cell.
///
/// Every trial seeds its own RNG from
/// [`parallel::split_seed`]`(seed, task_index)`, so the returned grid
/// is a pure function of `(sizes, trials, sigma_coupler, options,
/// seed)` and bit-identical for every thread count.
pub fn mesh_grid_sweep(
    sizes: &[usize],
    trials: usize,
    sigma_coupler: f64,
    options: ProgramOptions,
    seed: u64,
    threads: usize,
) -> Vec<GridPoint> {
    let cells: Vec<(MeshArchitecture, usize)> = MeshArchitecture::ALL
        .into_iter()
        .flat_map(|arch| sizes.iter().map(move |&n| (arch, n)))
        .collect();
    // Task layout per cell: `trials` expressivity draws, then `trials`
    // imbalance draws; one flat index space so work balances across
    // threads regardless of how lopsided the per-cell costs are.
    let per_cell = 2 * trials;
    let samples = parallel::par_map_indexed(cells.len() * per_cell, threads, |idx| {
        let (arch, n) = cells[idx / per_cell];
        let rest = idx % per_cell;
        let mut rng = StdRng::seed_from_u64(parallel::split_seed(seed, idx as u64));
        let target = haar_unitary(&mut rng, n);
        if rest < trials {
            let mesh = arch.program_with(&target, &mut rng, options);
            mesh.fidelity(&target)
        } else {
            let realized =
                arch.program_with_imbalance_opts(&target, sigma_coupler, &mut rng, options);
            metrics::unitary_fidelity(&target, &realized)
        }
    });
    cells
        .iter()
        .enumerate()
        .map(|(c, &(arch, n))| {
            let base = c * per_cell;
            GridPoint {
                arch,
                n,
                expressivity: Stats::from_samples(&samples[base..base + trials]),
                imbalance: Stats::from_samples(&samples[base + trials..base + per_cell]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_basics() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 3);
        assert_eq!(Stats::from_samples(&[]).count, 0);
    }

    #[test]
    fn clements_expressivity_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = expressivity_sweep(MeshArchitecture::Clements, 6, 5, &mut rng);
        assert!(s.mean > 1.0 - 1e-9);
        assert!(s.min > 1.0 - 1e-8);
    }

    #[test]
    fn phase_noise_trials_degrade_gracefully() {
        let mut rng = StdRng::seed_from_u64(3);
        let f_small = phase_noise_trial(MeshArchitecture::Clements, 6, 0.01, &mut rng);
        let f_large = phase_noise_trial(MeshArchitecture::Clements, 6, 0.5, &mut rng);
        assert!(f_small > 0.99);
        assert!(f_large < f_small);
    }

    #[test]
    fn coupler_trial_returns_valid_fidelity() {
        let mut rng = StdRng::seed_from_u64(5);
        let f = coupler_imbalance_trial(MeshArchitecture::Clements, 4, 0.05, &mut rng);
        assert!((0.0..=1.0 + 1e-9).contains(&f));
    }

    #[test]
    fn robustness_sweep_dispatches_both_modes() {
        let mut rng = StdRng::seed_from_u64(7);
        let phase = robustness_sweep(MeshArchitecture::Clements, 4, 0.05, 0.0, 3, &mut rng);
        let coupler = robustness_sweep(MeshArchitecture::Clements, 4, 0.0, 0.05, 3, &mut rng);
        assert_eq!(phase.count, 3);
        assert_eq!(coupler.count, 3);
    }

    #[test]
    fn grid_sweep_covers_every_cell_and_is_thread_invariant() {
        let options = ProgramOptions {
            max_sweeps: 6,
            tol: 1e-9,
        };
        let g1 = mesh_grid_sweep(&[2, 4], 2, 0.05, options, 17, 1);
        assert_eq!(g1.len(), MeshArchitecture::ALL.len() * 2);
        for p in &g1 {
            assert_eq!(p.expressivity.count, 2, "{} n={}", p.arch, p.n);
            assert_eq!(p.imbalance.count, 2);
            assert!(p.expressivity.min > 0.0 && p.expressivity.max <= 1.0 + 1e-9);
        }
        // Analytic architectures are exact on small Haar targets.
        for p in g1.iter().filter(|p| p.arch == MeshArchitecture::Clements) {
            assert!(
                p.expressivity.min > 1.0 - 1e-8,
                "n={}: {:?}",
                p.n,
                p.expressivity
            );
        }
        let g4 = mesh_grid_sweep(&[2, 4], 2, 0.05, options, 17, 4);
        assert_eq!(g1, g4, "grid must be thread-count invariant");
    }

    #[test]
    fn nonunitary_targets_are_covered() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [3, 5] {
            let err = nonunitary_coverage_trial(n, &mut rng);
            assert!(err < 1e-8, "n={n}: relative error {err}");
        }
    }
}
