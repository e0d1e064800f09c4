//! # neuropulsim
//!
//! A full-system simulation stack for **neuromorphic accelerators on
//! augmented silicon photonics platforms**, reproducing the system
//! described in the DAC'24 invited NEUROPULS overview paper:
//!
//! - device physics of the augmented SOI platform (PCM phase shifters,
//!   excitable lasers, microrings, data converters) — [`photonics`];
//! - programmable MZI-mesh matrix–vector-multiplication cores with
//!   Clements / compact / Fldzhyan architectures, error models, GeMM via
//!   TDM/WDM, and SWaP/energy analysis — [`core`];
//! - photonic spiking neural networks with PCM synapses and STDP —
//!   [`snn`];
//! - a gem5-style full-system simulator: RV32IM host CPU ([`riscv`]),
//!   DRAM/SPM, DMA, the memory-mapped photonic accelerator, interrupts
//!   and fault injection — [`sim`];
//! - the digital MLP reference and synthetic datasets — [`nn`];
//! - the complex linear algebra underneath — [`linalg`].
//!
//! # Quickstart
//!
//! Program a photonic core with a weight matrix and multiply. The
//! weights live in the meshes' phase-shifter state, so the programmed
//! chip is one realized matrix, and every ideal multiply reads it:
//!
//! ```
//! use neuropulsim::core::mvm::MvmCore;
//! use neuropulsim::linalg::RMatrix;
//!
//! let w = RMatrix::from_rows(2, 2, &[0.5, -1.0, 2.0, 0.25]);
//! let core = MvmCore::new(&w);
//! assert!(core.chip().effective_matrix().approx_eq(&w, 1e-9));
//! let y = core.multiply(&[1.0, 1.0]);
//! assert!((y[0] + 0.5).abs() < 1e-9);
//! assert!((y[1] - 2.25).abs() < 1e-9);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios: photonic MLP
//! inference, STDP learning, full-system offload, and robustness sweeps.

#![warn(missing_docs)]

pub use neuropulsim_core as core;
pub use neuropulsim_linalg as linalg;
pub use neuropulsim_nn as nn;
pub use neuropulsim_oracle as oracle;
pub use neuropulsim_photonics as photonics;
pub use neuropulsim_riscv as riscv;
pub use neuropulsim_sim as sim;
pub use neuropulsim_snn as snn;
