//! Photonic physically unclonable functions (PUFs) — the "hardware
//! security primitives" the paper's simulation platform is built to
//! co-evaluate with the accelerator (§5: "detailed system-level
//! evaluation ... with a specific emphasis on the security properties of
//! the computing platform"; the NEUROPULS acronym itself is
//! "NEUROmorphic ... *secure* accelerators").
//!
//! The construction uses the same MZI-mesh fabric as the accelerator: an
//! *uncalibrated* mesh whose random fabrication variation (coupler
//! imbalance + static phase offsets) is the secret. A challenge selects a
//! binary phase pattern on the input ports; the response is the
//! thresholded detector-power pattern. Cloning requires reproducing the
//! per-device variation, which fabrication cannot do.
//!
//! Standard PUF quality metrics are provided: uniformity, uniqueness
//! (inter-device distance), reliability (intra-device distance under
//! readout noise) and the avalanche effect.

use crate::clements::decompose;
use crate::error::HardwareModel;
use crate::program::MeshProgram;
use neuropulsim_linalg::{CMatrix, CVector, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Fabrication-variation magnitudes defining a PUF population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PufVariation {
    /// Coupler splitting-angle sigma \[rad\].
    pub coupler_sigma: f64,
    /// Static phase-offset sigma \[rad\].
    pub phase_sigma: f64,
}

impl Default for PufVariation {
    /// Typical un-trimmed SOI variation: strong enough to decorrelate
    /// devices, weak enough to keep the mesh transmissive.
    fn default() -> Self {
        PufVariation {
            coupler_sigma: 0.05,
            phase_sigma: 1.0,
        }
    }
}

/// One physical PUF instance: a frozen random interferometer.
///
/// # Examples
///
/// ```
/// use neuropulsim_core::puf::PhotonicPuf;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let puf = PhotonicPuf::new(&mut rng, 8, Default::default());
/// let challenge = vec![true, false, true, true, false, false, true, false];
/// let r1 = puf.respond(&challenge);
/// let r2 = puf.respond(&challenge);
/// assert_eq!(r1, r2, "noiseless responses are deterministic");
/// ```
#[derive(Debug, Clone)]
pub struct PhotonicPuf {
    transfer: CMatrix,
    n: usize,
}

impl PhotonicPuf {
    /// Fabricates one instance of an `n`-mode PUF with the given
    /// variation (sampled from `rng` — the "process lottery").
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, n: usize, variation: PufVariation) -> Self {
        PhotonicPuf::with_design(rng, n, variation, 0x9E37_79B9)
    }

    /// Fabricates an instance of a *specific* (public) nominal design,
    /// identified by `design_seed`. All devices of a product share the
    /// design; only the fabrication variation sampled from `rng`
    /// distinguishes them — the PUF threat model.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub(crate) fn with_design<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        variation: PufVariation,
        design_seed: u64,
    ) -> Self {
        assert!(n >= 2, "PUF mesh needs at least 2 modes");
        // The nominal design: a fixed port-mixing mesh, public knowledge.
        let mut design_rng = StdRng::seed_from_u64(design_seed ^ (n as u64).wrapping_mul(0xD129));
        let target = neuropulsim_linalg::random::haar_unitary(&mut design_rng, n);
        let program: MeshProgram = decompose(&target);
        // The secret: this die's process variation.
        let model = HardwareModel {
            coupler_imbalance_sigma: variation.coupler_sigma,
            phase_noise_sigma: variation.phase_sigma,
            ..HardwareModel::ideal()
        };
        PhotonicPuf {
            transfer: model.realize(&program, rng),
            n,
        }
    }

    /// Evaluates the PUF: challenge bits become a binary phase pattern
    /// (`0 -> 0`, `1 -> pi`) on equal-amplitude inputs; the response is
    /// each output port's power thresholded at the median.
    ///
    /// # Panics
    ///
    /// Panics if `challenge.len()` is not the mode count.
    pub fn respond(&self, challenge: &[bool]) -> Vec<bool> {
        self.respond_with_noise_internal(challenge, None, &mut NoRng)
    }

    /// Evaluates with multiplicative Gaussian readout noise of relative
    /// sigma `sigma` on each detector power (one measurement shot).
    ///
    /// # Panics
    ///
    /// Panics if `challenge.len()` is not the mode count.
    pub fn respond_noisy<R: Rng + ?Sized>(
        &self,
        challenge: &[bool],
        sigma: f64,
        rng: &mut R,
    ) -> Vec<bool> {
        self.respond_with_noise_internal(challenge, Some(sigma), rng)
    }

    fn respond_with_noise_internal<R: Rng + ?Sized>(
        &self,
        challenge: &[bool],
        sigma: Option<f64>,
        rng: &mut R,
    ) -> Vec<bool> {
        assert_eq!(
            challenge.len(),
            self.n,
            "challenge must have {} bits",
            self.n
        );
        let amplitude = 1.0 / (self.n as f64).sqrt();
        let input: CVector = challenge
            .iter()
            .map(|&b| C64::from_polar(amplitude, if b { PI } else { 0.0 }))
            .collect();
        let out = self.transfer.mul_vec(&input);
        let mut powers = out.powers();
        if let Some(s) = sigma {
            for p in powers.iter_mut() {
                *p *= 1.0 + s * neuropulsim_linalg::random::gaussian(rng);
            }
        }
        // Median threshold: balanced responses by construction.
        let mut sorted = powers.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite powers"));
        let median = 0.5 * (sorted[(self.n - 1) / 2] + sorted[self.n / 2]);
        powers.iter().map(|&p| p > median).collect()
    }
}

// A zero-sized stand-in so the noiseless path shares the generic body.
struct NoRng;
impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("noiseless path never samples")
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("noiseless path never samples")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("noiseless path never samples")
    }
    fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), rand::Error> {
        unreachable!("noiseless path never samples")
    }
}

/// Hamming distance between two responses.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn hamming(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming: length mismatch");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// PUF population statistics over a challenge set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PufQuality {
    /// Mean fraction of `1` bits per response (ideal 0.5).
    pub uniformity: f64,
    /// Mean normalized inter-device Hamming distance (ideal 0.5).
    pub uniqueness: f64,
    /// Mean normalized intra-device Hamming distance across noisy
    /// re-measurements (ideal 0).
    pub reliability_distance: f64,
    /// Mean normalized response change for a 1-bit challenge flip
    /// (ideal 0.5).
    pub avalanche: f64,
}

/// Evaluates the standard quality metrics over `devices` instances,
/// `challenges` random challenges, and `remeasurements` noisy readouts
/// with relative readout noise `readout_sigma`.
pub fn evaluate_population<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    devices: usize,
    challenges: usize,
    remeasurements: usize,
    readout_sigma: f64,
    variation: PufVariation,
) -> PufQuality {
    let pufs: Vec<PhotonicPuf> = (0..devices)
        .map(|_| PhotonicPuf::new(rng, n, variation))
        .collect();
    let challenge_set: Vec<Vec<bool>> = (0..challenges)
        .map(|_| (0..n).map(|_| rng.gen_bool(0.5)).collect())
        .collect();

    let mut ones = 0usize;
    let mut bits = 0usize;
    let mut inter = 0.0;
    let mut inter_count = 0usize;
    let mut intra = 0.0;
    let mut intra_count = 0usize;
    let mut avalanche = 0.0;
    let mut avalanche_count = 0usize;

    for c in &challenge_set {
        let responses: Vec<Vec<bool>> = pufs.iter().map(|p| p.respond(c)).collect();
        for r in &responses {
            ones += r.iter().filter(|&&b| b).count();
            bits += r.len();
        }
        for i in 0..responses.len() {
            for j in (i + 1)..responses.len() {
                inter += hamming(&responses[i], &responses[j]) as f64 / n as f64;
                inter_count += 1;
            }
        }
        for (p, reference) in pufs.iter().zip(&responses) {
            for _ in 0..remeasurements {
                let noisy = p.respond_noisy(c, readout_sigma, rng);
                intra += hamming(reference, &noisy) as f64 / n as f64;
                intra_count += 1;
            }
        }
        // Avalanche: flip one random challenge bit.
        let mut flipped = c.clone();
        let bit = rng.gen_range(0..n);
        flipped[bit] = !flipped[bit];
        for (p, reference) in pufs.iter().zip(&responses) {
            let r2 = p.respond(&flipped);
            avalanche += hamming(reference, &r2) as f64 / n as f64;
            avalanche_count += 1;
        }
    }

    PufQuality {
        uniformity: ones as f64 / bits.max(1) as f64,
        uniqueness: inter / inter_count.max(1) as f64,
        reliability_distance: intra / intra_count.max(1) as f64,
        avalanche: avalanche / avalanche_count.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn responses_are_deterministic_and_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = PhotonicPuf::new(&mut rng, 8, Default::default());
        let c: Vec<bool> = (0..8).map(|k| k % 3 == 0).collect();
        let r1 = puf.respond(&c);
        let r2 = puf.respond(&c);
        assert_eq!(r1, r2);
        // Median threshold: exactly half (for even n) above threshold.
        let ones = r1.iter().filter(|&&b| b).count();
        assert_eq!(ones, 4, "median threshold balances the response");
    }

    #[test]
    fn different_devices_give_different_responses() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = PhotonicPuf::new(&mut rng, 8, Default::default());
        let b = PhotonicPuf::new(&mut rng, 8, Default::default());
        let mut distinct = 0;
        for k in 0..16u32 {
            let c: Vec<bool> = (0..8).map(|i| (k >> (i % 4)) & 1 == 1).collect();
            if a.respond(&c) != b.respond(&c) {
                distinct += 1;
            }
        }
        assert!(
            distinct > 8,
            "devices should disagree often, got {distinct}/16"
        );
    }

    #[test]
    fn different_challenges_give_different_responses() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = PhotonicPuf::new(&mut rng, 8, Default::default());
        let base: Vec<bool> = vec![false; 8];
        let base_r = puf.respond(&base);
        let mut changed = 0;
        for bit in 0..8 {
            let mut c = base.clone();
            c[bit] = true;
            if puf.respond(&c) != base_r {
                changed += 1;
            }
        }
        assert!(changed >= 6, "avalanche too weak: {changed}/8");
    }

    #[test]
    fn small_readout_noise_rarely_flips_bits() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = PhotonicPuf::new(&mut rng, 8, Default::default());
        let c: Vec<bool> = (0..8).map(|k| k % 2 == 0).collect();
        let reference = puf.respond(&c);
        let mut total_flips = 0;
        for _ in 0..50 {
            let noisy = puf.respond_noisy(&c, 0.01, &mut rng);
            total_flips += hamming(&reference, &noisy);
        }
        // Under 1% readout noise, bit flips only happen near the median.
        assert!(
            total_flips < 50,
            "too unreliable: {total_flips} flips in 400 bits"
        );
    }

    #[test]
    fn hamming_basics() {
        assert_eq!(hamming(&[true, false], &[true, true]), 1);
        assert_eq!(hamming(&[], &[]), 0);
    }

    #[test]
    fn population_metrics_are_in_ideal_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = evaluate_population(&mut rng, 8, 6, 8, 3, 0.01, Default::default());
        assert!(
            (q.uniformity - 0.5).abs() < 0.05,
            "uniformity {}",
            q.uniformity
        );
        assert!(
            (q.uniqueness - 0.5).abs() < 0.15,
            "uniqueness {}",
            q.uniqueness
        );
        assert!(
            q.reliability_distance < 0.1,
            "reliability {}",
            q.reliability_distance
        );
        assert!(q.avalanche > 0.2, "avalanche {}", q.avalanche);
    }

    #[test]
    fn zero_variation_devices_are_clones() {
        // With no fabrication variation every device realizes the public
        // nominal design exactly — responses are identical (no entropy).
        let novar = PufVariation {
            coupler_sigma: 0.0,
            phase_sigma: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let a = PhotonicPuf::new(&mut rng, 8, novar);
        let b = PhotonicPuf::new(&mut rng, 8, novar);
        for k in 0..8u32 {
            let c: Vec<bool> = (0..8).map(|i| (k >> (i % 4)) & 1 == 1).collect();
            assert_eq!(a.respond(&c), b.respond(&c), "clones must agree");
        }
    }

    #[test]
    fn uniqueness_comes_from_variation_not_design() {
        let mut rng = StdRng::seed_from_u64(12);
        let weak = evaluate_population(
            &mut rng,
            8,
            4,
            8,
            1,
            0.0,
            PufVariation {
                coupler_sigma: 0.001,
                phase_sigma: 0.005,
            },
        );
        let mut rng = StdRng::seed_from_u64(12);
        let strong = evaluate_population(&mut rng, 8, 4, 8, 1, 0.0, Default::default());
        assert!(
            weak.uniqueness < strong.uniqueness,
            "weak {} !< strong {}",
            weak.uniqueness,
            strong.uniqueness
        );
        assert!(
            weak.uniqueness < 0.3,
            "near-identical dies: {}",
            weak.uniqueness
        );
    }

    #[test]
    fn reliability_degrades_with_noise() {
        let mut rng = StdRng::seed_from_u64(6);
        let quiet = evaluate_population(&mut rng, 8, 3, 6, 3, 0.005, Default::default());
        let mut rng = StdRng::seed_from_u64(6);
        let loud = evaluate_population(&mut rng, 8, 3, 6, 3, 0.3, Default::default());
        assert!(loud.reliability_distance > quiet.reliability_distance);
    }

    #[test]
    #[should_panic(expected = "challenge must have")]
    fn rejects_wrong_challenge_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let puf = PhotonicPuf::new(&mut rng, 4, Default::default());
        let _ = puf.respond(&[true; 5]);
    }
}
