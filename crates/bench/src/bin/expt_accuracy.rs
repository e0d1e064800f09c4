//! **E10 — End-to-end photonic inference accuracy** (paper §4: the MVM
//! engine underpinning "a majority of current deep learning models").
//!
//! A digitally trained MLP is re-run with every matrix–vector product
//! executed by photonic MVM cores under increasing levels of hardware
//! realism; accuracy is compared against the float baseline.

use neuropulsim_bench::{experiment_rng, fmt, Table};
use neuropulsim_core::error::{HardwareModel, ShifterTech};
use neuropulsim_core::inference::{LayerSpec, PhotonicNetwork};
use neuropulsim_core::mvm::MvmNoiseConfig;
use neuropulsim_nn::dataset::{synthetic_digits, Dataset, DigitsConfig};
use neuropulsim_nn::mlp::Mlp;
use neuropulsim_photonics::converter::Converter;
use neuropulsim_photonics::pcm::PcmMaterial;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn photonic_accuracy(mlp: &Mlp, test: &Dataset, config: &MvmNoiseConfig, seed: u64) -> f64 {
    let specs: Vec<LayerSpec> = mlp
        .layers()
        .iter()
        .map(|l| LayerSpec::new(l.weights.clone(), l.bias.clone(), l.relu))
        .collect();
    let net = PhotonicNetwork::compile(&specs, config, &mut StdRng::seed_from_u64(seed));
    net.accuracy(
        &test.samples,
        &test.labels,
        &mut StdRng::seed_from_u64(seed ^ 0xABCD),
    )
}

fn main() {
    let mut rng = experiment_rng(4000);
    let data = synthetic_digits(&mut rng, DigitsConfig::default());
    let (train, test) = data.split(0.8);
    let mut mlp = Mlp::new(&mut rng, &[16, 16, 4]);
    mlp.fit(&train, 30, 0.05);
    let baseline = mlp.accuracy(&test);
    println!("digital float baseline accuracy: {}\n", fmt(baseline));

    println!("## E10a — Accuracy under increasing hardware realism\n");
    let mut table = Table::new(&["configuration", "accuracy", "delta vs float"]);
    let configs: Vec<(&str, MvmNoiseConfig)> = vec![
        ("ideal photonic", MvmNoiseConfig::ideal()),
        (
            "readout noise 1e-3",
            MvmNoiseConfig {
                readout_sigma: 1e-3,
                ..MvmNoiseConfig::ideal()
            },
        ),
        (
            "+ phase noise 0.01",
            MvmNoiseConfig {
                hardware: HardwareModel {
                    phase_noise_sigma: 0.01,
                    ..HardwareModel::ideal()
                },
                readout_sigma: 1e-3,
                ..MvmNoiseConfig::ideal()
            },
        ),
        (
            "+ GeSe PCM 32 levels + couplers 0.01",
            MvmNoiseConfig {
                hardware: HardwareModel {
                    phase_noise_sigma: 0.01,
                    coupler_imbalance_sigma: 0.01,
                    mzi_arm_transmission: 0.995,
                    thermal_crosstalk: 0.0,
                    shifter_tech: ShifterTech::Pcm {
                        material: PcmMaterial::GeSe,
                        levels: 32,
                    },
                },
                readout_sigma: 1e-3,
                attenuator_sigma: 0.005,
            },
        ),
    ];
    for (name, config) in &configs {
        let acc = photonic_accuracy(&mlp, &test, config, 4100);
        table.row(&[name.to_string(), fmt(acc), fmt(acc - baseline)]);
    }
    table.print();

    println!("\n## E10b — Accuracy vs PCM level count (GeSe, otherwise ideal)\n");
    let mut table = Table::new(&["levels", "accuracy"]);
    for &levels in &[4u32, 8, 16, 32, 64] {
        let config = MvmNoiseConfig {
            hardware: HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
                material: PcmMaterial::GeSe,
                levels,
            }),
            ..MvmNoiseConfig::ideal()
        };
        let acc = photonic_accuracy(&mlp, &test, &config, 4200);
        table.row(&[levels.to_string(), fmt(acc)]);
    }
    table.print();

    println!("\n## E10c — Accuracy vs PCM material at 32 levels\n");
    let mut table = Table::new(&["material", "FOM", "accuracy"]);
    for material in [PcmMaterial::GeSe, PcmMaterial::Gsst, PcmMaterial::Gst225] {
        let config = MvmNoiseConfig {
            hardware: HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
                material,
                levels: 32,
            }),
            ..MvmNoiseConfig::ideal()
        };
        let acc = photonic_accuracy(&mlp, &test, &config, 4300);
        table.row(&[
            format!("{material:?}"),
            fmt(material.figure_of_merit()),
            fmt(acc),
        ]);
    }
    table.print();
    println!("\n(Only the highest-FOM material keeps the classifier intact —");
    println!("the paper's motivation for low-loss PCMs like GeSe/GSST over GST.)");

    println!("\n## E10d — Quantization-aware training ablation (ternary weights)\n");
    let mut table = Table::new(&["strategy", "accuracy"]);
    // Post-hoc: the float network projected once onto the coarse grid.
    let mut post_hoc = mlp.clone();
    post_hoc.project_weights(3, 1.0);
    table.row(&[
        "float training + post-hoc projection".into(),
        fmt(post_hoc.accuracy(&test)),
    ]);
    // QAT: retrain with per-epoch projection.
    let mut rng2 = experiment_rng(4000);
    let data2 = synthetic_digits(&mut rng2, DigitsConfig::default());
    let (train2, test2) = data2.split(0.8);
    let mut qat = Mlp::new(&mut rng2, &[16, 16, 4]);
    qat.fit_quantized(&train2, 30, 0.05, 3, 1.0);
    table.row(&[
        "quantization-aware training".into(),
        fmt(qat.accuracy(&test2)),
    ]);
    table.print();
    println!("\n(QAT recovers most of the accuracy a coarse weight grid costs —");
    println!("the software-side mitigation for low PCM level counts.)");

    println!("\n## E10e — Accuracy vs converter resolution (DAC in, ADC out)\n");
    println!("(Analog compute is bracketed by data converters; their bit depth");
    println!("is a first-order precision limit and a major I/O energy knob.)\n");
    let mut table = Table::new(&["bits", "accuracy"]);
    for &bits in &[2u32, 3, 4, 6, 8] {
        let dac = Converter::new(bits, 1.0);
        let adc = Converter::new(bits, 8.0); // outputs can exceed unit scale
                                             // Evaluate on the full dataset: the precision sweep measures
                                             // arithmetic fidelity, not generalization, and the larger sample
                                             // smooths the estimate.
        let acc = mlp.accuracy_with(&data, |w, x| {
            let mut xq = x.to_vec();
            dac.quantize_slice(&mut xq);
            let mut y = w.mul_vec(&xq);
            adc.quantize_slice(&mut y);
            y
        });
        table.row(&[bits.to_string(), fmt(acc)]);
    }
    table.print();
}
