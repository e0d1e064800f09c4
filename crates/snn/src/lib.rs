//! # neuropulsim-snn
//!
//! Photonic spiking neural networks for the paper's §3: excitable
//! Q-switched laser neurons, non-volatile PCM synapses with accumulation
//! behaviour, spike-timing-dependent plasticity and winner-take-all
//! unsupervised learning.
//!
//! - [`neuron`]: the leaky-integrate-and-fire update calibrated against
//!   the Yamada excitable laser, and the [`neuron::NeuronArray`]
//!   population;
//! - [`synapse`]: PCM synapses whose optical transmission is the weight;
//! - [`stdp`]: the pairwise exponential STDP window, quantized to PCM
//!   programming pulses;
//! - [`encoding`]: spike trains and the latency code;
//! - [`network`]: a feedforward WTA layer that learns spike patterns
//!   unsupervised (experiment E6);
//! - [`sparse`]: the event-driven engine — CSR synapses, fire-queue
//!   propagation and lazy leak, scaling to millions of neurons.
//!
//! # Examples
//!
//! ```
//! use neuropulsim_snn::encoding::latency_encode;
//! use neuropulsim_snn::network::SpikingLayer;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut layer = SpikingLayer::new(4, 2, &mut rng);
//! let stimulus = latency_encode(&[1.0, 1.0, 1.0, 1.0], 20.0);
//! let response = layer.present(&stimulus, 30.0, 0.5, false);
//! assert_eq!(response.outputs.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod encoding;
pub mod network;
pub mod neuron;
pub mod sparse;
pub mod stdp;
pub mod synapse;
