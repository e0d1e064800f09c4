//! # neuropulsim-photonics
//!
//! Device-level models of the augmented silicon-photonics platform from
//! the DAC'24 NEUROPULS overview paper: the CMOS-compatible SOI building
//! blocks (§2), and the PCM / III-V augmentations (§3) that add
//! non-volatile optical memory and excitable spiking sources.
//!
//! Components:
//!
//! - [`coupler`]: 2×2 directional couplers with fabrication imbalance;
//! - [`phase`]: phase shifters behind one [`phase::PhaseShifter`] trait —
//!   volatile thermo-optic heaters vs non-volatile multilevel PCM;
//! - [`pcm`]: phase-change material optics (GST/GSST/GeSe), Lorentz–Lorenz
//!   index mixing, accumulative SET pulses, drift;
//! - [`mzi`]: the Mach–Zehnder interferometer unit cell (paper Fig. 2a);
//! - [`laser`]: Yamada-model excitable Q-switched laser neurons;
//! - [`energy`]: technology constants and the energy/area ledgers used by
//!   the system-level benchmarks;
//! - [`units`]: physical constants and dB helpers.
//!
//! # Examples
//!
//! Build a PCM-programmed MZI and inspect its transfer matrix:
//!
//! ```
//! use neuropulsim_photonics::mzi::Mzi;
//! use neuropulsim_photonics::pcm::PcmMaterial;
//! use neuropulsim_photonics::phase::{PcmPhaseShifter, PhaseShifter};
//!
//! let mut shifter = PcmPhaseShifter::new(PcmMaterial::Gsst, 16);
//! shifter.set_phase(std::f64::consts::PI / 3.0);
//! let mzi = Mzi::new(shifter.phase(), 0.0)
//!     .with_arm_transmission(shifter.field_transmission());
//! assert!(mzi.transfer_matrix().frobenius_norm() > 0.0);
//! assert_eq!(shifter.hold_power(), 0.0); // non-volatile!
//! ```

#![warn(missing_docs)]

pub mod converter;
pub mod coupler;
pub mod energy;
pub mod laser;
pub mod mzi;
pub mod pcm;
pub mod phase;
pub mod ring;
pub mod units;
