//! Property tests for the fast-path kernel layer: the packed
//! split-complex matmul against the naive reference across sizes 1–64,
//! compiled mesh application against the rebuild path, the cached
//! realized-instance matrix, including its re-composition when the
//! attenuator column is re-set between the frozen meshes, and the ideal
//! `MvmCore` multiply, which reads its realized chip.

use neuropulsim::core::clements::decompose;
use neuropulsim::core::mvm::{MvmCore, MvmNoiseConfig};
use neuropulsim::core::program::MeshScratch;
use neuropulsim::linalg::{random, CMatrix, CVector, MatmulScratch, RMatrix, C64};
use neuropulsim::oracle::decomp_ref::transfer_matrix_ref;
use neuropulsim::oracle::harness::Domain;
use neuropulsim::oracle::linalg_ref::mul_mat_ref;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_cmatrix(rng: &mut StdRng, rows: usize, cols: usize) -> CMatrix {
    CMatrix::from_fn(rows, cols, |_, _| {
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    })
}

fn random_rmatrix(rng: &mut StdRng, rows: usize, cols: usize) -> RMatrix {
    RMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

proptest! {
    #[test]
    fn packed_mul_mat_matches_naive_reference(
        seed in 0u64..10_000,
        m in 1usize..65,
        k in 1usize..65,
        n in 1usize..65,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_cmatrix(&mut rng, m, k);
        let b = random_cmatrix(&mut rng, k, n);
        let want = a.mul_mat_naive(&b);
        prop_assert!(a.mul_mat(&b).approx_eq(&want, 1e-10), "mul_mat at {m}x{k}x{n}");
        let mut out = CMatrix::zeros(m, n);
        let mut scratch = MatmulScratch::new();
        a.mul_mat_into(&b, &mut out, &mut scratch);
        prop_assert!(out.approx_eq(&want, 1e-10), "mul_mat_into at {m}x{k}x{n}");
    }

    #[test]
    fn mul_vec_into_matches_mul_vec(seed in 0u64..10_000, n in 1usize..65) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_cmatrix(&mut rng, n, n);
        let x = random::random_state(&mut rng, n);
        let want = a.mul_vec(&x);
        let mut got = CVector::zeros(n);
        a.mul_vec_into(&x, &mut got);
        for i in 0..n {
            prop_assert!(got[i].approx_eq(want[i], 1e-10));
        }
    }

    #[test]
    fn compiled_mesh_agrees_with_rebuild_apply(seed in 0u64..1000, n in 2usize..17) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = decompose(&random::haar_unitary(&mut rng, n));
        let x = random::random_state(&mut rng, n);
        let want = program.apply(&x);
        let mut got = x.as_slice().to_vec();
        program.compile().apply_in_place(&mut got, &mut MeshScratch::new());
        for i in 0..n {
            prop_assert_eq!(got[i].re.to_bits(), want[i].re.to_bits());
            prop_assert_eq!(got[i].im.to_bits(), want[i].im.to_bits());
        }
    }

    #[test]
    fn realized_instance_matches_cached_effective_matrix(seed in 0u64..1000, n in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_rmatrix(&mut rng, n, n);
        let core = MvmCore::new(&w);
        let instance = core.realize(&MvmNoiseConfig::ideal(), &mut rng);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // With zero readout noise the instance must multiply exactly by
        // the matrix it reports, which is cached at realize time.
        let got = instance.multiply_noisy(&x, &mut rng);
        let want = instance.effective_matrix().mul_vec(&x);
        for i in 0..n {
            prop_assert!((got[i] - want[i]).abs() < 1e-12);
        }
        // The core's ideal multiply reads that same chip, whatever
        // generator state the ideal realization drew from.
        for (c, r) in core.multiply(&x).iter().zip(&got) {
            prop_assert_eq!(c.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn set_attenuation_recomposes_the_frozen_meshes(seed in 0u64..1000, n in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let core = MvmCore::new(&random_rmatrix(&mut rng, n, n));
        let mut instance = core.realize(&MvmNoiseConfig::ideal(), &mut rng);
        let fresh = instance.effective_matrix();
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        instance.set_attenuation(&a);
        // Oracle: Re(U · diag(a) · V) · scale from dense reference meshes.
        let diag = CMatrix::from_fn(n, n, |i, j| C64::real(if i == j { a[i] } else { 0.0 }));
        let u = transfer_matrix_ref(core.u_program());
        let v = transfer_matrix_ref(core.v_program());
        let m = mul_mat_ref(&mul_mat_ref(&u, &diag), &v);
        let got = instance.effective_matrix();
        let tol = Domain::Mesh.tolerance();
        for i in 0..n {
            for j in 0..n {
                let want = m[(i, j)].re * core.scale();
                prop_assert!((got[(i, j)] - want).abs() <= tol, "({i},{j}) at n={n}");
            }
        }
        // Re-setting the nominal column restores the realized chip exactly.
        instance.set_attenuation(core.attenuation());
        let restored = instance.effective_matrix();
        for (x, y) in restored.as_slice().iter().zip(fresh.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The ideal multiply against a product composed from the dense oracle
/// meshes: `Re(U · diag(a) · V) · scale · x`. The oracle costs one dense
/// n³ product per MZI block, so n = 64 (about 10⁹ complex MACs) runs
/// only in optimized builds (`cargo test --release`).
#[test]
fn mvm_multiply_matches_the_oracle_chip() {
    let tol = Domain::Mesh.tolerance();
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[1, 2, 3, 16]
    } else {
        &[1, 2, 3, 16, 64]
    };
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let core = MvmCore::new(&random_rmatrix(&mut rng, n, n));
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = core.attenuation();
        let diag = CMatrix::from_fn(n, n, |i, j| C64::real(if i == j { a[i] } else { 0.0 }));
        let u = transfer_matrix_ref(core.u_program());
        let v = transfer_matrix_ref(core.v_program());
        let m = mul_mat_ref(&mul_mat_ref(&u, &diag), &v);
        let got = core.multiply(&x);
        for (i, g) in got.iter().enumerate() {
            let want: f64 = (0..n).map(|j| m[(i, j)].re * core.scale() * x[j]).sum();
            assert!((g - want).abs() <= tol, "row {i} at n={n}: {g} vs {want}");
        }
    }
}
