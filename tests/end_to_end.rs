//! Cross-crate integration tests: the flows a downstream user of
//! `neuropulsim` would actually run, spanning linalg → photonics → core →
//! nn → sim.

use neuropulsim::core::architecture::MeshArchitecture;
use neuropulsim::core::calibrate::FabricatedMesh;
use neuropulsim::core::clements::decompose;
use neuropulsim::core::error::{HardwareModel, ShifterTech};
use neuropulsim::core::gemm::{GemmEngine, GemmMode};
use neuropulsim::core::inference::{LayerSpec, PhotonicNetwork};
use neuropulsim::core::mvm::{MvmCore, MvmNoiseConfig};
use neuropulsim::linalg::{metrics, random, RMatrix};
use neuropulsim::nn::dataset::{synthetic_digits, DigitsConfig};
use neuropulsim::nn::mlp::Mlp;
use neuropulsim::photonics::pcm::PcmMaterial;
use neuropulsim::sim::fault::{Campaign, Fault, FaultOutcome, FaultTarget};
use neuropulsim::sim::firmware::{accel_offload, software_mvm, DramLayout};
use neuropulsim::sim::system::{RunOutcome, System};
use neuropulsim::snn::sparse::{EventNet, NetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn haar_to_mesh_to_hardware_pipeline() {
    // Draw a unitary, decompose it, realize it on imperfect hardware, and
    // confirm the fidelity ordering ideal > mild errors > severe errors.
    let mut rng = StdRng::seed_from_u64(1);
    let u = random::haar_unitary(&mut rng, 8);
    let program = decompose(&u);

    let ideal = HardwareModel::ideal().realize(&program, &mut rng);
    let mild = HardwareModel {
        phase_noise_sigma: 0.02,
        coupler_imbalance_sigma: 0.02,
        ..HardwareModel::ideal()
    }
    .realize(&program, &mut rng);
    let severe = HardwareModel {
        phase_noise_sigma: 0.2,
        coupler_imbalance_sigma: 0.1,
        ..HardwareModel::ideal()
    }
    .realize(&program, &mut rng);

    let f_ideal = metrics::unitary_fidelity(&u, &ideal);
    let f_mild = metrics::unitary_fidelity(&u, &mild);
    let f_severe = metrics::unitary_fidelity(&u, &severe);
    assert!(f_ideal > 1.0 - 1e-9);
    assert!(
        f_mild < f_ideal && f_mild > f_severe,
        "{f_ideal} {f_mild} {f_severe}"
    );
}

#[test]
fn trained_mlp_runs_on_photonic_cores() {
    // Train digitally, then push every layer through an SVD photonic core
    // with a low-loss PCM and verify accuracy survives.
    let mut rng = StdRng::seed_from_u64(2);
    let data = synthetic_digits(&mut rng, DigitsConfig::default());
    let (train, test) = data.split(0.8);
    let mut mlp = Mlp::new(&mut rng, &[16, 16, 4]);
    mlp.fit(&train, 25, 0.05);
    let digital = mlp.accuracy(&test);
    assert!(digital > 0.9, "digital accuracy {digital}");

    let config = MvmNoiseConfig {
        hardware: HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
            material: PcmMaterial::GeSe,
            levels: 64,
        }),
        readout_sigma: 1e-4,
        attenuator_sigma: 0.0,
    };
    let cores: Vec<(neuropulsim::core::mvm::RealizedMvm, usize)> = mlp
        .layers()
        .iter()
        .map(|l| {
            let n = l.weights.rows().max(l.weights.cols());
            let padded = RMatrix::from_fn(n, n, |i, j| {
                if i < l.weights.rows() && j < l.weights.cols() {
                    l.weights[(i, j)]
                } else {
                    0.0
                }
            });
            let core = MvmCore::new(&padded);
            (core.realize(&config, &mut rng), l.weights.rows())
        })
        .collect();
    let mut shot_rng = StdRng::seed_from_u64(3);
    let mut call = 0usize;
    let photonic = mlp.accuracy_with(&test, |_w, x| {
        let (inst, rows) = &cores[call % cores.len()];
        call += 1;
        let mut padded = vec![0.0; 16];
        padded[..x.len()].copy_from_slice(x);
        inst.multiply_noisy(&padded, &mut shot_rng)[..*rows].to_vec()
    });
    assert!(
        photonic > digital - 0.1,
        "photonic accuracy {photonic} dropped too far from {digital}"
    );
}

#[test]
fn gemm_engine_agrees_with_mlp_layer() {
    // The GeMM engine batched over a layer's inputs must agree with the
    // layer-by-layer MVM.
    let mut rng = StdRng::seed_from_u64(4);
    let w = RMatrix::from_fn(8, 8, |_, _| rng.gen_range(-1.0..1.0));
    let x = RMatrix::from_fn(8, 5, |_, _| rng.gen_range(-1.0..1.0));
    let engine = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 4 });
    let y = engine.matmul(&x);
    let want = w.mul_mat(&x);
    assert!(
        metrics::mse(y.as_slice(), want.as_slice()) < 1e-18,
        "GeMM mismatch"
    );
}

#[test]
fn full_system_offload_matches_digital_reference() {
    let n = 8;
    let batch = 4;
    let layout = DramLayout::default();
    let mut rng = StdRng::seed_from_u64(5);
    let w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
    let xs: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect())
        .collect();

    let mut sys = System::new();
    sys.platform.pe_mut(0).load_matrix(&w);
    for (v, x) in xs.iter().enumerate() {
        sys.write_fixed_vector(layout.x_addr + (v * n * 4) as u32, x);
    }
    sys.load_firmware_source(&accel_offload(n, batch, layout));
    let report = sys.run(50_000_000);
    assert!(matches!(report.outcome, RunOutcome::Halted(_)));

    for (v, x) in xs.iter().enumerate() {
        let want = w.mul_vec(x);
        let got = sys.read_fixed_vector(layout.y_addr + (v * n * 4) as u32, n);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-3, "offload result mismatch: {a} vs {b}");
        }
    }
    // Energy ledger covers all subsystems.
    assert!(report.energy.get("cpu") > 0.0);
    assert!(report.energy.get("photonic-accel") > 0.0);
    assert!(report.energy.get("spm") > 0.0);
}

#[test]
fn software_and_offload_paths_agree() {
    let n = 4;
    let layout = DramLayout::default();
    let mut rng = StdRng::seed_from_u64(6);
    let w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();

    let run = |offload: bool| -> Vec<f64> {
        let mut sys = System::new();
        if offload {
            sys.platform.pe_mut(0).load_matrix(&w);
        }
        sys.write_fixed_vector(layout.w_addr, w.as_slice());
        sys.write_fixed_vector(layout.x_addr, &x);
        let fw = if offload {
            accel_offload(n, 1, layout)
        } else {
            software_mvm(n, 1, layout)
        };
        sys.load_firmware_source(&fw);
        let report = sys.run(50_000_000);
        assert!(matches!(report.outcome, RunOutcome::Halted(_)));
        sys.read_fixed_vector(layout.y_addr, n)
    };
    let sw = run(false);
    let hw = run(true);
    for (a, b) in sw.iter().zip(&hw) {
        assert!((a - b).abs() < 2e-3, "paths disagree: {a} vs {b}");
    }
}

#[test]
fn fault_campaign_on_offload_workload() {
    // Faults in the accelerator's SPM operand buffer corrupt offloaded
    // results; the campaign must classify them as SDC, not crash.
    let n = 4;
    let layout = DramLayout::default();
    let campaign = Campaign::new(
        move || {
            let mut sys = System::new();
            let w = RMatrix::identity(n);
            sys.platform.pe_mut(0).load_matrix(&w);
            sys.write_fixed_vector(layout.x_addr, &[0.5, 0.25, -0.5, 0.125]);
            sys.load_firmware_source(&accel_offload(n, 1, layout));
            sys
        },
        move |sys| {
            (0..n)
                .map(|k| {
                    sys.platform
                        .dram
                        .peek(layout.y_addr + 4 * k as u32)
                        .unwrap_or(0)
                })
                .collect()
        },
        10_000_000,
    );
    let golden = campaign.golden();
    // Corrupt the input vector in DRAM before the DMA picks it up.
    let outcome = campaign.inject(
        Fault::transient(
            FaultTarget::Dram {
                addr: layout.x_addr,
            },
            17,
            1,
        ),
        &golden,
    );
    assert_eq!(outcome, FaultOutcome::SilentDataCorruption);
    // A fault in untouched DRAM is masked.
    let outcome = campaign.inject(
        Fault::transient(FaultTarget::Dram { addr: 0x0030_8000 }, 3, 1),
        &golden,
    );
    assert_eq!(outcome, FaultOutcome::Masked);
}

#[test]
fn architectures_program_the_same_target() {
    let mut rng = StdRng::seed_from_u64(7);
    let target = random::haar_unitary(&mut rng, 4);
    let mut fidelities = Vec::new();
    for arch in MeshArchitecture::ALL {
        let mesh = arch.program(&target, &mut rng);
        fidelities.push(mesh.fidelity(&target));
    }
    for (arch, f) in MeshArchitecture::ALL.iter().zip(&fidelities) {
        assert!(*f > 0.99, "{arch}: fidelity {f}");
    }
}

#[test]
fn snn_and_mvm_share_the_pcm_substrate() {
    // The same PCM cell model drives both the MVM weights and the SNN
    // synapses; sanity-check they see consistent non-volatility.
    let mut spec = NetSpec::random(8, 6, 1, 16, true);
    spec.edges = (0..4).flat_map(|i| [(i, 4), (i, 5)]).collect();
    spec.init_levels = vec![4, 7];
    spec.wta_group = Some(4..6);
    spec.absence_depression = true;
    let mut net = EventNet::new(&spec);
    let kick = 2.0 * spec.threshold / spec.dt;
    net.tick(&[(0, kick), (1, kick), (2, kick), (3, kick)]);
    assert_eq!(net.tick(&[]), &[4], "the stronger synapses win the race");
    assert!(net.synapses().programming_energy() > 0.0);

    let core = MvmCore::new(&RMatrix::identity(4));
    let y = core.multiply(&[1.0, 0.0, 0.0, 0.0]);
    assert!((y[0] - 1.0).abs() < 1e-9);
}

#[test]
fn calibration_workflow_recovers_a_fabricated_chip() {
    // Design -> fabricate (imbalanced) -> characterize -> recalibrate.
    let mut rng = StdRng::seed_from_u64(21);
    let target = random::haar_unitary(&mut rng, 6);
    let program = decompose(&target);
    let mut chip = FabricatedMesh::fabricate(&program, 0.08, &mut rng);
    let as_built = chip.fidelity(&target);
    let calibrated = chip.calibrate(&target, 60);
    assert!(as_built < 0.99, "imbalance should show: {as_built}");
    assert!(
        calibrated > 0.995,
        "calibration should recover: {calibrated}"
    );
}

#[test]
fn ring_demux_isolation_feeds_gemm_crosstalk() {
    // Device physics -> system parameter -> workload error, end to end.
    use neuropulsim::photonics::ring::AddDropRing;
    let ring = AddDropRing::default();
    let xt_100 = ring.channel_crosstalk(100e9);
    let xt_200 = ring.channel_crosstalk(200e9);
    assert!(xt_200 < xt_100);

    let mut rng = StdRng::seed_from_u64(22);
    let w = RMatrix::from_fn(6, 6, |_, _| rng.gen_range(-1.0..1.0));
    let x = RMatrix::from_fn(6, 8, |_, _| rng.gen_range(-1.0..1.0));
    let reference = w.mul_mat(&x);
    let err = |power_xt: f64| -> f64 {
        let engine = GemmEngine::new(MvmCore::new(&w), GemmMode::Wdm { channels: 8 })
            .with_crosstalk(power_xt.sqrt().min(0.99));
        let got = engine.matmul(&x);
        (&got - &reference).frobenius_norm() / reference.frobenius_norm()
    };
    assert!(
        err(xt_200) < err(xt_100),
        "wider channel spacing must reduce workload error"
    );
}

#[test]
fn photonic_network_module_runs_a_trained_mlp() {
    let mut rng = StdRng::seed_from_u64(23);
    let data = synthetic_digits(&mut rng, DigitsConfig::default());
    let (train, test) = data.split(0.8);
    let mut mlp = Mlp::new(&mut rng, &[16, 16, 4]);
    mlp.fit(&train, 25, 0.05);
    let digital = mlp.accuracy(&test);

    let specs: Vec<LayerSpec> = mlp
        .layers()
        .iter()
        .map(|l| LayerSpec::new(l.weights.clone(), l.bias.clone(), l.relu))
        .collect();
    let net = PhotonicNetwork::compile(&specs, &MvmNoiseConfig::ideal(), &mut rng);
    assert_eq!(net.depth(), 2);
    assert_eq!(net.input_dim(), 16);
    let photonic = net.accuracy(&test.samples, &test.labels, &mut rng);
    assert!(
        (photonic - digital).abs() < 1e-9,
        "ideal photonic compile must match digital: {photonic} vs {digital}"
    );

    // Under phase noise, coupler imbalance and readout noise the network
    // must equal the digital forward pass over the same cores realized in
    // layer order from the same seed, bit for bit.
    let noisy = MvmNoiseConfig {
        hardware: HardwareModel {
            phase_noise_sigma: 0.02,
            coupler_imbalance_sigma: 0.02,
            ..HardwareModel::ideal()
        },
        readout_sigma: 1e-3,
        ..MvmNoiseConfig::ideal()
    };
    let net = PhotonicNetwork::compile(&specs, &noisy, &mut StdRng::seed_from_u64(31));
    let mut inst_rng = StdRng::seed_from_u64(31);
    let instances: Vec<_> = mlp
        .layers()
        .iter()
        .map(|l| {
            let (rows, cols) = (l.weights.rows(), l.weights.cols());
            let pad = rows.max(cols);
            let padded = RMatrix::from_fn(pad, pad, |i, j| {
                if i < rows && j < cols {
                    l.weights[(i, j)]
                } else {
                    0.0
                }
            });
            (
                MvmCore::new(&padded).realize(&noisy, &mut inst_rng),
                pad,
                rows,
            )
        })
        .collect();
    let mut net_shots = StdRng::seed_from_u64(37);
    let mut ref_shots = StdRng::seed_from_u64(37);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for x in &test.samples {
        let got = net.infer(x, &mut net_shots);
        let mut layer = 0;
        let want = mlp.forward_with(x, |_w, v| {
            let (instance, pad, rows) = &instances[layer];
            layer += 1;
            let mut padded = vec![0.0; *pad];
            padded[..v.len()].copy_from_slice(v);
            let mut y = instance.multiply_noisy(&padded, &mut ref_shots);
            y.truncate(*rows);
            y
        });
        assert_eq!(bits(&got), bits(&want), "noisy photonic network diverged");
    }
}

#[test]
fn memory_hierarchy_widen_offload_gap() {
    use neuropulsim::sim::cache::DirectMappedCache;
    let n = 8;
    let layout = DramLayout::default();
    let mut rng = StdRng::seed_from_u64(24);
    let w = RMatrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let run_sw = |latency: u64, cache: bool| -> u64 {
        let mut sys = System::new();
        sys.platform.dram_latency = latency;
        if cache {
            sys.platform.l1_cache = Some(DirectMappedCache::new(128, 8, latency));
        }
        sys.write_fixed_vector(layout.w_addr, w.as_slice());
        sys.write_fixed_vector(layout.x_addr, &x);
        sys.load_firmware_source(&software_mvm(n, 1, layout));
        let report = sys.run(100_000_000);
        assert!(matches!(report.outcome, RunOutcome::Halted(_)));
        report.cycles
    };
    let flat = run_sw(0, false);
    let dram = run_sw(20, false);
    let cached = run_sw(20, true);
    assert!(dram > flat);
    assert!(cached > flat && cached < dram);
}
