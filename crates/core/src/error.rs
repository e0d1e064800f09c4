//! Hardware realization of mesh programs under imperfections: phase noise,
//! coupler imbalance, loss, and phase-shifter technology effects
//! (thermo-optic vs multilevel PCM quantization).
//!
//! A [`MeshProgram`] — the mesh "software" — meets
//! imperfect silicon through this module. It backs the
//! robustness experiments (E2), the PCM-level study (E3) and the energy
//! comparison (E4).

use crate::program::MeshProgram;
use neuropulsim_linalg::{CMatrix, C64};
use neuropulsim_photonics::coupler::Coupler;
use neuropulsim_photonics::mzi::Mzi;
use neuropulsim_photonics::pcm::PcmMaterial;
use neuropulsim_photonics::phase::{PcmPhaseShifter, PhaseShifter, ThermoOpticShifter};
use rand::Rng;

/// The phase-shifter technology implementing a mesh's programmable phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShifterTech {
    /// Idealized continuous, lossless shifter.
    Ideal,
    /// Volatile thermo-optic heater (continuous phase, static hold power).
    ThermoOptic,
    /// Non-volatile PCM shifter quantized to `levels` states.
    Pcm {
        /// PCM material of the patch.
        material: PcmMaterial,
        /// Number of programmable levels.
        levels: u32,
    },
}

impl ShifterTech {
    /// Quantizes/realizes a requested phase, returning
    /// `(realized_phase, field_transmission)` of the shifter.
    pub(crate) fn realize_phase(&self, phase: f64) -> (f64, f64) {
        match self {
            ShifterTech::Ideal => (neuropulsim_photonics::phase::wrap_phase(phase), 1.0),
            ShifterTech::ThermoOptic => {
                let mut s = ThermoOpticShifter::default();
                s.set_phase(phase);
                (s.phase(), s.field_transmission())
            }
            ShifterTech::Pcm { material, levels } => {
                let mut s = PcmPhaseShifter::new(*material, *levels);
                s.set_phase(phase);
                (s.phase(), s.field_transmission())
            }
        }
    }
}

/// Static imperfection model applied when loading a program onto hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareModel {
    /// Gaussian phase error per shifter \[rad\] (calibration residue,
    /// thermal crosstalk).
    pub phase_noise_sigma: f64,
    /// Gaussian coupling-angle error per coupler \[rad\] (fabrication).
    pub coupler_imbalance_sigma: f64,
    /// Deterministic field transmission per MZI passage (waveguide +
    /// bend loss within the cell).
    pub mzi_arm_transmission: f64,
    /// Thermal crosstalk coefficient: the fraction of each *neighboring*
    /// heater's phase that leaks into a shifter (thermo-optic only —
    /// PCM shifters have no standing heat and are immune). 0 disables.
    pub thermal_crosstalk: f64,
    /// The phase-shifter technology.
    pub shifter_tech: ShifterTech,
}

impl HardwareModel {
    /// A perfect, lossless mesh.
    pub fn ideal() -> Self {
        HardwareModel {
            phase_noise_sigma: 0.0,
            coupler_imbalance_sigma: 0.0,
            mzi_arm_transmission: 1.0,
            thermal_crosstalk: 0.0,
            shifter_tech: ShifterTech::Ideal,
        }
    }

    /// Returns this model with a different shifter technology.
    pub fn with_shifter_tech(mut self, tech: ShifterTech) -> Self {
        self.shifter_tech = tech;
        self
    }

    /// Computes per-block thermal contamination: each block's phases pick
    /// up `thermal_crosstalk` times the total heater phase of spatially
    /// neighboring blocks (same column, |mode difference| <= 2, or same
    /// modes in adjacent columns). Only heaters (thermo-optic) leak.
    fn thermal_contamination(&self, program: &MeshProgram) -> Vec<f64> {
        let blocks = program.blocks();
        if self.thermal_crosstalk == 0.0 || !matches!(self.shifter_tech, ShifterTech::ThermoOptic) {
            return vec![0.0; blocks.len()];
        }
        // ASAP layering mirrors MeshProgram::depth().
        let n = program.modes();
        let mut mode_free_at = vec![0usize; n];
        let mut coords = Vec::with_capacity(blocks.len());
        for b in blocks {
            let layer = mode_free_at[b.mode].max(mode_free_at[b.mode + 1]);
            mode_free_at[b.mode] = layer + 1;
            mode_free_at[b.mode + 1] = layer + 1;
            coords.push((layer, b.mode));
        }
        let heat: Vec<f64> = blocks
            .iter()
            .map(|b| {
                neuropulsim_photonics::phase::wrap_phase(b.theta)
                    + neuropulsim_photonics::phase::wrap_phase(b.phi)
            })
            .collect();
        blocks
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (li, mi) = coords[i];
                let mut leak = 0.0;
                for (j, &(lj, mj)) in coords.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let same_layer_neighbor = lj == li && mj.abs_diff(mi) <= 2;
                    let adjacent_layer_same_modes = lj.abs_diff(li) == 1 && mj.abs_diff(mi) <= 1;
                    if same_layer_neighbor || adjacent_layer_same_modes {
                        leak += heat[j];
                    }
                }
                self.thermal_crosstalk * leak
            })
            .collect()
    }

    /// Realizes a program as a transfer matrix, sampling the random
    /// imperfections from `rng`.
    pub fn realize<R: Rng + ?Sized>(&self, program: &MeshProgram, rng: &mut R) -> CMatrix {
        let n = program.modes();
        let contamination = self.thermal_contamination(program);
        let mut u = CMatrix::identity(n);
        for (block, leak) in program.blocks().iter().zip(&contamination) {
            let (theta, t_theta) = self.noisy_phase(block.theta + leak, rng);
            let (phi, t_phi) = self.noisy_phase(block.phi + leak, rng);
            let c1 = self.noisy_coupler(rng);
            let c2 = self.noisy_coupler(rng);
            // Shifter transmissions enter once each; the geometric mean
            // spreads them over both arms (equivalent scalar factor).
            let arm_t = self.mzi_arm_transmission * (t_theta * t_phi).sqrt();
            let mzi = Mzi::with_couplers(theta, phi, c1, c2).with_arm_transmission(arm_t);
            let (a, b, c, d) = mzi.elements();
            u.apply_left_2x2(block.mode, block.mode + 1, a, b, c, d);
        }
        for (i, &p) in program.output_phases().iter().enumerate() {
            let (phase, t) = self.noisy_phase(p, rng);
            let factor = C64::from_polar(t, phase);
            for j in 0..n {
                u[(i, j)] *= factor;
            }
        }
        u
    }

    fn noisy_phase<R: Rng + ?Sized>(&self, phase: f64, rng: &mut R) -> (f64, f64) {
        let (realized, transmission) = self.shifter_tech.realize_phase(phase);
        let noise = if self.phase_noise_sigma > 0.0 {
            self.phase_noise_sigma * neuropulsim_linalg::random::gaussian(rng)
        } else {
            0.0
        };
        (realized + noise, transmission)
    }

    fn noisy_coupler<R: Rng + ?Sized>(&self, rng: &mut R) -> Coupler {
        if self.coupler_imbalance_sigma > 0.0 {
            Coupler::with_imbalance(
                self.coupler_imbalance_sigma * neuropulsim_linalg::random::gaussian(rng),
            )
        } else {
            Coupler::ideal_50_50()
        }
    }
}

impl Default for HardwareModel {
    fn default() -> Self {
        HardwareModel::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clements::decompose;
    use neuropulsim_linalg::metrics::unitary_fidelity;
    use neuropulsim_linalg::random::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_program(n: usize, seed: u64) -> (CMatrix, MeshProgram) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(&mut rng, n);
        let p = decompose(&u);
        (u, p)
    }

    #[test]
    fn ideal_model_reproduces_program_exactly() {
        let (u, p) = sample_program(6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let realized = HardwareModel::ideal().realize(&p, &mut rng);
        assert!(unitary_fidelity(&u, &realized) > 1.0 - 1e-10);
    }

    #[test]
    fn phase_noise_reduces_fidelity_monotonically_in_expectation() {
        let (u, p) = sample_program(8, 3);
        let trials = 20;
        let mean_fid = |sigma: f64| {
            let model = HardwareModel {
                phase_noise_sigma: sigma,
                ..HardwareModel::ideal()
            };
            let mut rng = StdRng::seed_from_u64(42);
            (0..trials)
                .map(|_| unitary_fidelity(&u, &model.realize(&p, &mut rng)))
                .sum::<f64>()
                / trials as f64
        };
        let f0 = mean_fid(0.0);
        let f1 = mean_fid(0.05);
        let f2 = mean_fid(0.2);
        assert!(f0 > f1 && f1 > f2, "fidelities {f0} {f1} {f2}");
    }

    #[test]
    fn coupler_imbalance_reduces_fidelity() {
        let (u, p) = sample_program(8, 5);
        let model = HardwareModel {
            coupler_imbalance_sigma: 0.1,
            ..HardwareModel::ideal()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let f = unitary_fidelity(&u, &model.realize(&p, &mut rng));
        assert!(f < 0.999, "imbalance should hurt, got {f}");
        assert!(f > 0.3, "but not destroy, got {f}");
    }

    #[test]
    fn loss_breaks_unitarity_but_preserves_shape() {
        let (u, p) = sample_program(6, 9);
        let model = HardwareModel {
            mzi_arm_transmission: 0.97,
            ..HardwareModel::ideal()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let realized = model.realize(&p, &mut rng);
        assert!(!realized.is_unitary(1e-6));
        // Fidelity metric normalizes away uniform loss; shape preserved.
        assert!(unitary_fidelity(&u, &realized) > 0.999);
    }

    #[test]
    fn pcm_quantization_fidelity_improves_with_levels() {
        // Use the low-loss GeSe material so quantization (not state-
        // dependent absorption) dominates the error.
        let (u, p) = sample_program(6, 13);
        let fid_at = |levels: u32| {
            let model = HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
                material: PcmMaterial::GeSe,
                levels,
            });
            let mut rng = StdRng::seed_from_u64(1);
            unitary_fidelity(&u, &model.realize(&p, &mut rng))
        };
        let f4 = fid_at(4);
        let f16 = fid_at(16);
        let f128 = fid_at(128);
        assert!(f16 > f4, "f16={f16} f4={f4}");
        assert!(f128 > f16, "f128={f128} f16={f16}");
        assert!(f128 > 0.98, "f128={f128}");
    }

    #[test]
    fn lossy_gst_caps_fidelity_despite_fine_levels() {
        // GST's crystalline absorption produces state-dependent loss that
        // no amount of quantization resolution can remove.
        let (u, p) = sample_program(6, 13);
        let fid = |material, levels| {
            let model =
                HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm { material, levels });
            let mut rng = StdRng::seed_from_u64(1);
            unitary_fidelity(&u, &model.realize(&p, &mut rng))
        };
        let gst = fid(PcmMaterial::Gst225, 256);
        let gese = fid(PcmMaterial::GeSe, 256);
        assert!(
            gese > gst,
            "low-loss material must win: gese={gese} gst={gst}"
        );
        assert!(gst < 0.9, "GST loss should cap fidelity, got {gst}");
    }

    #[test]
    fn thermal_crosstalk_degrades_thermo_but_not_pcm() {
        let (u, p) = sample_program(8, 27);
        let mut rng = StdRng::seed_from_u64(1);
        let thermo = HardwareModel {
            thermal_crosstalk: 0.02,
            ..HardwareModel::ideal().with_shifter_tech(ShifterTech::ThermoOptic)
        };
        let f_thermo = unitary_fidelity(&u, &thermo.realize(&p, &mut rng));
        let pcm = HardwareModel {
            thermal_crosstalk: 0.02,
            ..HardwareModel::ideal().with_shifter_tech(ShifterTech::Pcm {
                material: PcmMaterial::GeSe,
                levels: 4096,
            })
        };
        let f_pcm = unitary_fidelity(&u, &pcm.realize(&p, &mut rng));
        assert!(f_thermo < 0.99, "heaters must suffer crosstalk: {f_thermo}");
        assert!(
            f_pcm > f_thermo,
            "PCM (no heaters) must be immune: pcm {f_pcm} vs thermo {f_thermo}"
        );
    }

    #[test]
    fn thermal_crosstalk_grows_with_coefficient() {
        let (u, p) = sample_program(8, 28);
        let fid = |c: f64| {
            let model = HardwareModel {
                thermal_crosstalk: c,
                ..HardwareModel::ideal().with_shifter_tech(ShifterTech::ThermoOptic)
            };
            let mut rng = StdRng::seed_from_u64(1);
            unitary_fidelity(&u, &model.realize(&p, &mut rng))
        };
        let f0 = fid(0.0);
        let f1 = fid(0.01);
        let f2 = fid(0.05);
        assert!(f0 > f1 && f1 > f2, "{f0} {f1} {f2}");
    }
}
