//! # neuropulsim-snn
//!
//! Photonic spiking neural networks for the paper's §3: excitable
//! Q-switched laser neurons, non-volatile PCM synapses with accumulation
//! behaviour, spike-timing-dependent plasticity and winner-take-all
//! unsupervised learning.
//!
//! - [`neuron`]: [`neuron::lif_update`], the leaky-integrate-and-fire
//!   update calibrated against the Yamada excitable laser;
//! - [`synapse`]: PCM synapses whose optical transmission is the weight;
//! - [`stdp`]: the pairwise exponential STDP window, quantized to PCM
//!   programming pulses;
//! - [`sparse`]: the one spiking engine — CSR synapses, fire-queue
//!   propagation and lazy leak, scaling to millions of neurons, with an
//!   optional winner-take-all group, depression of silent inputs,
//!   per-neuron threshold offsets and trial resets (experiment E6).
//!
//! # Examples
//!
//! Two inputs drive a two-neuron winner-take-all group: both outputs
//! cross threshold in the same tick, and only one of them fires.
//!
//! ```
//! use neuropulsim_snn::sparse::{EventNet, NetSpec};
//!
//! let mut spec = NetSpec::random(0, 4, 2, 16, false);
//! spec.edges = vec![(0, 2), (0, 3), (1, 2), (1, 3)];
//! spec.init_levels = vec![0];
//! spec.wta_group = Some(2..4);
//! let mut net = EventNet::new(&spec);
//! let kick = 2.0 * spec.threshold / spec.dt;
//! assert_eq!(net.tick(&[(0, kick), (1, kick)]), &[0, 1]);
//! assert_eq!(net.tick(&[]).len(), 1);
//! net.reset();
//! assert!(net.fire_ledger().iter().all(|&t| t < 0));
//! ```

#![warn(missing_docs)]

pub mod neuron;
pub mod sparse;
pub mod stdp;
pub mod synapse;
