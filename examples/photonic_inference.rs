//! End-to-end photonic neural-network inference: train a small MLP
//! digitally on the synthetic-digit dataset, then run the *same* trained
//! network with every matrix–vector product executed by a noisy,
//! PCM-quantized photonic MVM core, and compare accuracies.
//!
//! Run with: `cargo run --release --example photonic_inference`

use neuropulsim::core::error::{HardwareModel, ShifterTech};
use neuropulsim::core::inference::{LayerSpec, PhotonicNetwork};
use neuropulsim::core::mvm::MvmNoiseConfig;
use neuropulsim::nn::dataset::{synthetic_digits, DigitsConfig};
use neuropulsim::nn::mlp::Mlp;
use neuropulsim::photonics::pcm::PcmMaterial;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let data = synthetic_digits(&mut rng, DigitsConfig::default());
    let (train, test) = data.split(0.8);

    // --- digital training -------------------------------------------
    let mut mlp = Mlp::new(&mut rng, &[16, 16, 4]);
    let losses = mlp.fit(&train, 30, 0.05);
    println!(
        "trained 16-16-4 MLP: loss {:.3} -> {:.3}",
        losses[0],
        losses.last().expect("nonempty")
    );
    let digital_accuracy = mlp.accuracy(&test);
    println!("digital test accuracy: {:.1}%", 100.0 * digital_accuracy);

    // --- photonic inference ------------------------------------------
    // One padded square core per layer; bias and ReLU stay electronic.
    let specs: Vec<LayerSpec> = mlp
        .layers()
        .iter()
        .map(|l| LayerSpec::new(l.weights.clone(), l.bias.clone(), l.relu))
        .collect();

    for (label, config) in [
        ("ideal optics", MvmNoiseConfig::ideal()),
        (
            "GeSe PCM 32-level + noise",
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
        (
            "GeSe PCM 8-level",
            MvmNoiseConfig {
                hardware: HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
                    material: PcmMaterial::GeSe,
                    levels: 8,
                }),
                readout_sigma: 0.0,
                attenuator_sigma: 0.0,
            },
        ),
        (
            "GSST PCM 32-level (lossy crystalline state)",
            MvmNoiseConfig {
                hardware: HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
                    material: PcmMaterial::Gsst,
                    levels: 32,
                }),
                readout_sigma: 0.0,
                attenuator_sigma: 0.0,
            },
        ),
    ] {
        // Freeze one hardware instance per layer, in layer order, for the
        // whole test set.
        let net = PhotonicNetwork::compile(&specs, &config, &mut StdRng::seed_from_u64(99));
        let accuracy = net.accuracy(&test.samples, &test.labels, &mut StdRng::seed_from_u64(123));
        println!("photonic accuracy [{label}]: {:.1}%", 100.0 * accuracy);
    }
}
