//! The one model every workload serves: a 32-32-8 MLP trained on the
//! synthetic digit set, plus the digital reference outputs the
//! workloads are checked against.

use crate::trace::{Span, Tracer};
use neuropulsim_core::architecture::MeshArchitecture;
use neuropulsim_core::error::ShifterTech;
use neuropulsim_core::footprint::mvm_core_footprint;
use neuropulsim_linalg::RMatrix;
use neuropulsim_nn::dataset::{synthetic_digits, Dataset, DigitsConfig};
use neuropulsim_nn::mlp::{argmax, Mlp};
use neuropulsim_photonics::energy::ComponentAreas;
use neuropulsim_photonics::pcm::PcmMaterial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input and hidden width; every mesh is `DIM x DIM`.
pub const DIM: usize = 32;
/// Output classes.
pub const CLASSES: usize = 8;
/// Largest allowed distance of a simulated logit from the digital one.
pub const LOGIT_TOLERANCE: f64 = 2e-3;

const SAMPLES_PER_CLASS: usize = 200;
const NOISE: f64 = 0.35;
const TRAIN_FRACTION: f64 = 0.8;
const EPOCHS: usize = 20;
const LEARNING_RATE: f64 = 0.03;

/// A named pass/fail outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, pass: bool, detail: String) -> Self {
        Check {
            name: name.to_string(),
            pass,
            detail,
        }
    }
}

/// The trained network's layers, its test set and the digital reference.
pub struct Model {
    pub test: Dataset,
    /// Layer 1 (`DIM x DIM`) and its bias.
    pub w1: RMatrix,
    pub b1: Vec<f64>,
    /// Layer 2 zero-padded from `CLASSES x DIM` to `DIM x DIM`, and the
    /// unpadded bias.
    pub w2: RMatrix,
    pub b2: Vec<f64>,
    /// `W1 x` (no bias) per test image.
    pub pre1: Vec<Vec<f64>>,
    /// Layer-2 input `relu(W1 x + b1)` per test image.
    pub hidden: Vec<Vec<f64>>,
    /// `Mlp::forward` per test image.
    pub logits: Vec<Vec<f64>>,
    /// Every class appears in both the train and the test split.
    pub split_check: Check,
}

impl Model {
    /// Digital top-1 accuracy over a stream of test-image indices.
    pub fn digital_accuracy(&self, images: &[usize]) -> f64 {
        let correct = images
            .iter()
            .filter(|&&i| argmax(&self.logits[i]) == self.test.labels[i])
            .count();
        correct as f64 / images.len().max(1) as f64
    }
}

/// Generates the data, trains the MLP and derives the references. The
/// returned generator continues the seeded stream for the workload's
/// request or image draws.
pub fn build<T: Tracer>(seed: u64, samples_per_class: usize, tr: &mut T) -> (Model, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = DigitsConfig {
        dim: DIM,
        classes: CLASSES,
        samples_per_class,
        noise: NOISE,
    };
    let data = tr.span(Span::NnSyntheticDigits, || {
        synthetic_digits(&mut rng, config)
    });
    let (train, test) = data.split(TRAIN_FRACTION);
    let mut mlp = Mlp::new(&mut rng, &[DIM, DIM, CLASSES]);
    tr.span(Span::NnFit, || mlp.fit(&train, EPOCHS, LEARNING_RATE));
    (derive(mlp, &train, test), rng)
}

/// Samples per class of the full-size data set.
pub fn samples_per_class(quick: bool) -> usize {
    if quick {
        50
    } else {
        SAMPLES_PER_CLASS
    }
}

fn derive(mlp: Mlp, train: &Dataset, test: Dataset) -> Model {
    let layers = mlp.layers();
    let w1 = layers[0].weights.clone();
    let b1 = layers[0].bias.clone();
    let l2 = &layers[1].weights;
    let w2 = RMatrix::from_fn(DIM, DIM, |i, j| if i < CLASSES { l2[(i, j)] } else { 0.0 });
    let b2 = layers[1].bias.clone();
    let pre1: Vec<Vec<f64>> = test.samples.iter().map(|x| w1.mul_vec(x)).collect();
    let hidden = pre1
        .iter()
        .map(|p| p.iter().zip(&b1).map(|(v, b)| (v + b).max(0.0)).collect())
        .collect();
    let logits = test.samples.iter().map(|x| mlp.forward(x)).collect();
    let present = |d: &Dataset| {
        let mut seen = vec![false; CLASSES];
        d.labels.iter().for_each(|&l| seen[l] = true);
        seen
    };
    let (in_train, in_test) = (present(train), present(&test));
    let split_check = Check::new(
        "data.every_class_in_both_splits",
        in_train.iter().chain(&in_test).all(|&s| s),
        format!("train {in_train:?}, test {in_test:?}"),
    );
    Model {
        test,
        w1,
        b1,
        w2,
        b2,
        pre1,
        hidden,
        logits,
        split_check,
    }
}

/// Area of one `DIM x DIM` MVM core \[mm²\]: two Clements meshes of PCM
/// phase shifters plus modulators, detectors and the attenuator column.
pub fn core_footprint_mm2() -> f64 {
    let tech = ShifterTech::Pcm {
        material: PcmMaterial::Gsst,
        levels: 32,
    };
    mvm_core_footprint(
        MeshArchitecture::Clements,
        DIM,
        tech,
        &ComponentAreas::default(),
    )
    .area_mm2()
}

/// `len` draws from `0..values` in seeded order, each value used equally
/// often (to within one): a shuffled deck rather than independent draws,
/// so totals over the draws are the same on every seed.
pub fn deck(len: usize, values: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut deck: Vec<usize> = (0..len).map(|i| i % values).collect();
    for i in (1..len).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    deck
}

/// Largest absolute difference between two equally long slices.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// 64-bit FNV-1a, fed one word at a time: the digest of every
/// deterministic simulated output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, values: &[f64]) {
        values.iter().for_each(|v| self.word(v.to_bits()));
    }

    /// The digest folded to 48 bits, so it survives a trip through an
    /// `f64` JSON number exactly.
    pub fn finish(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & ((1 << 48) - 1)
    }
}
