//! Photonic neural-network inference: compile a stack of dense layers
//! onto photonic MVM cores (one per layer, padded square, imperfections
//! frozen per hardware instance) and run the optical forward pass with
//! electronic bias/activation between layers — the deployment flow for
//! the paper's §4 accelerator.

use crate::mvm::{MvmCore, MvmNoiseConfig, RealizedMvm};
use neuropulsim_linalg::RMatrix;
use rand::Rng;

/// One dense layer to compile: weights, bias, activation flag.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Weight matrix (`outputs x inputs`).
    pub weights: RMatrix,
    /// Bias vector (`outputs` long).
    pub bias: Vec<f64>,
    /// Apply ReLU after the affine map.
    pub relu: bool,
}

impl LayerSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.rows()`.
    pub fn new(weights: RMatrix, bias: Vec<f64>, relu: bool) -> Self {
        assert_eq!(bias.len(), weights.rows(), "bias length must match rows");
        LayerSpec {
            weights,
            bias,
            relu,
        }
    }
}

struct CompiledLayer {
    instance: RealizedMvm,
    pad: usize,
    rows: usize,
    bias: Vec<f64>,
    relu: bool,
}

/// A network compiled onto photonic hardware: every layer's weights live
/// in a frozen [`RealizedMvm`] instance (one fabricated + programmed
/// core), biases and ReLU stay electronic.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::inference::{LayerSpec, PhotonicNetwork};
/// use neuropulsim_core::mvm::MvmNoiseConfig;
/// use neuropulsim_linalg::RMatrix;
/// use rand::SeedableRng;
///
/// let spec = LayerSpec::new(RMatrix::identity(3), vec![0.0; 3], false);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = PhotonicNetwork::compile(&[spec], &MvmNoiseConfig::ideal(), &mut rng);
/// let y = net.infer(&[1.0, -2.0, 0.5], &mut rng);
/// assert!((y[1] + 2.0).abs() < 1e-9);
/// ```
pub struct PhotonicNetwork {
    layers: Vec<CompiledLayer>,
    input_dim: usize,
}

impl PhotonicNetwork {
    /// Compiles layer specs onto photonic cores under the given noise
    /// configuration. Static imperfections are sampled once from `rng`
    /// and frozen (one physical chip); per-shot readout noise is drawn at
    /// inference time.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or consecutive layer shapes mismatch.
    pub fn compile<R: Rng + ?Sized>(
        specs: &[LayerSpec],
        config: &MvmNoiseConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!specs.is_empty(), "network needs at least one layer");
        for pair in specs.windows(2) {
            assert_eq!(
                pair[1].weights.cols(),
                pair[0].weights.rows(),
                "layer shapes must chain"
            );
        }
        let layers = specs
            .iter()
            .map(|spec| {
                let rows = spec.weights.rows();
                let cols = spec.weights.cols();
                let pad = rows.max(cols);
                let padded = RMatrix::from_fn(pad, pad, |i, j| {
                    if i < rows && j < cols {
                        spec.weights[(i, j)]
                    } else {
                        0.0
                    }
                });
                let core = MvmCore::new(&padded);
                CompiledLayer {
                    instance: core.realize(config, rng),
                    pad,
                    rows,
                    bias: spec.bias.clone(),
                    relu: spec.relu,
                }
            })
            .collect();
        PhotonicNetwork {
            layers,
            input_dim: specs[0].weights.cols(),
        }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimension (columns of the first layer).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Runs the optical forward pass; `rng` supplies per-shot readout
    /// noise.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the first layer's input width.
    pub fn infer<R: Rng + ?Sized>(&self, x: &[f64], rng: &mut R) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim, "infer: input size mismatch");
        let mut v = x.to_vec();
        for layer in &self.layers {
            let mut padded = vec![0.0; layer.pad];
            assert!(
                v.len() <= layer.pad,
                "activation width {} exceeds core size {}",
                v.len(),
                layer.pad
            );
            padded[..v.len()].copy_from_slice(&v);
            let mut y = layer.instance.multiply_noisy(&padded, rng);
            y.truncate(layer.rows);
            for (yi, bi) in y.iter_mut().zip(&layer.bias) {
                *yi += bi;
                if layer.relu && *yi < 0.0 {
                    *yi = 0.0;
                }
            }
            v = y;
        }
        v
    }

    /// Argmax classification through the optical path.
    pub fn classify<R: Rng + ?Sized>(&self, x: &[f64], rng: &mut R) -> usize {
        let out = self.infer(x, rng);
        let mut best = 0;
        let mut best_value = f64::NEG_INFINITY;
        for (i, &v) in out.iter().enumerate() {
            if v > best_value {
                best = i;
                best_value = v;
            }
        }
        best
    }

    /// Fraction of `samples` that [`PhotonicNetwork::classify`] assigns
    /// their `labels`, classifying in sample order with `rng` (0 for an
    /// empty set).
    ///
    /// # Panics
    ///
    /// Panics if `samples` and `labels` differ in length.
    pub fn accuracy<R: Rng + ?Sized>(
        &self,
        samples: &[Vec<f64>],
        labels: &[usize],
        rng: &mut R,
    ) -> f64 {
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .zip(labels)
            .filter(|(x, &label)| self.classify(x, rng) == label)
            .count();
        correct as f64 / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn single_identity_layer_is_transparent() {
        let spec = LayerSpec::new(RMatrix::identity(4), vec![0.0; 4], false);
        let mut r = rng();
        let net = PhotonicNetwork::compile(&[spec], &MvmNoiseConfig::ideal(), &mut r);
        let y = net.infer(&[0.1, -0.2, 0.3, -0.4], &mut r);
        for (a, b) in y.iter().zip(&[0.1, -0.2, 0.3, -0.4]) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn bias_and_relu_are_applied_electronically() {
        let spec = LayerSpec::new(RMatrix::identity(2), vec![-0.5, 0.25], true);
        let mut r = rng();
        let net = PhotonicNetwork::compile(&[spec], &MvmNoiseConfig::ideal(), &mut r);
        let y = net.infer(&[0.25, 0.25], &mut r);
        assert_eq!(y[0], 0.0, "negative pre-activation must clip");
        assert!((y[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rectangular_layers_chain_via_padding() {
        // 3 -> 5 -> 2 network with known weights.
        let w1 = RMatrix::from_fn(5, 3, |i, j| ((i + j) as f64) * 0.1);
        let w2 = RMatrix::from_fn(
            2,
            5,
            |i, j| if i == 0 { 0.1 } else { -0.05 } * (j as f64 + 1.0),
        );
        let specs = vec![
            LayerSpec::new(w1.clone(), vec![0.0; 5], true),
            LayerSpec::new(w2.clone(), vec![0.0; 2], false),
        ];
        let mut r = rng();
        let net = PhotonicNetwork::compile(&specs, &MvmNoiseConfig::ideal(), &mut r);
        let x = [0.2, -0.4, 0.6];
        let mid: Vec<f64> = w1.mul_vec(&x).iter().map(|&v| v.max(0.0)).collect();
        let want = w2.mul_vec(&mid);
        let got = net.infer(&x, &mut r);
        assert_eq!(got.len(), 2);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn classify_picks_largest_logit() {
        let w = RMatrix::from_rows(3, 2, &[0.0, 1.0, 1.0, 0.0, 0.5, 0.5]);
        let spec = LayerSpec::new(w, vec![0.0; 3], false);
        let mut r = rng();
        let net = PhotonicNetwork::compile(&[spec], &MvmNoiseConfig::ideal(), &mut r);
        assert_eq!(net.classify(&[1.0, 0.0], &mut r), 1);
        assert_eq!(net.classify(&[0.0, 1.0], &mut r), 0);
        // Labels 1, 0, 0: the third sample is misclassified.
        let samples = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        assert_eq!(net.accuracy(&samples, &[1, 0, 0], &mut r), 2.0 / 3.0);
        assert_eq!(net.accuracy(&[], &[], &mut r), 0.0);
    }

    #[test]
    #[should_panic(expected = "must chain")]
    fn mismatched_layers_rejected() {
        let specs = vec![
            LayerSpec::new(RMatrix::identity(3), vec![0.0; 3], true),
            LayerSpec::new(RMatrix::identity(4), vec![0.0; 4], false),
        ];
        let mut r = rng();
        let _ = PhotonicNetwork::compile(&specs, &MvmNoiseConfig::ideal(), &mut r);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn bad_bias_rejected() {
        let _ = LayerSpec::new(RMatrix::identity(3), vec![0.0; 2], false);
    }
}
