//! A feedforward photonic spiking layer with PCM synapses, STDP learning
//! and winner-take-all competition — the substrate for the paper's §3
//! "viability of photonic spiking neural networks and bio-inspired
//! learning rules" experiment (E6).

use crate::encoding::SpikeTrain;
use crate::neuron::NeuronArray;
use crate::stdp::StdpRule;
use crate::synapse::PcmSynapse;
use neuropulsim_photonics::pcm::PcmMaterial;
use rand::Rng;

/// A fully connected spiking layer: `inputs` channels onto `neurons`
/// excitable neurons, each input–neuron pair bridged by a [`PcmSynapse`].
///
/// Learning follows STDP with winner-take-all lateral inhibition and a
/// simple homeostatic threshold adaptation, the standard recipe for
/// unsupervised pattern specialization.
///
/// Internally the layer is laid out structure-of-arrays for the timestep
/// hot loop: neuron state lives in a [`NeuronArray`], synapses in one
/// flat row-major vector, and — crucially — the synaptic weights are
/// **cached** in a flat `f64` plane. A [`PcmSynapse::weight`] read walks
/// the material model (complex effective index + `exp`), far too costly
/// to repeat per neuron per impulse per timestep; the cache is refreshed
/// only when a synapse is actually reprogrammed.
#[derive(Debug, Clone)]
pub struct SpikingLayer {
    inputs: usize,
    neurons: NeuronArray,
    /// Flat row-major synapses: `synapses[j * inputs + i]` bridges input
    /// `i` to neuron `j`.
    synapses: Vec<PcmSynapse>,
    /// Cached `PcmSynapse::weight()` per synapse, same indexing.
    weight_cache: Vec<f64>,
    /// Homeostatic threshold offsets per neuron.
    threshold_offset: Vec<f64>,
    /// Base firing threshold (before homeostatic offsets). Should sit
    /// below the expected drive of a matching pattern (sum of its active
    /// weights) but above spurious single-input drive.
    pub base_threshold: f64,
    /// The plasticity rule.
    pub rule: StdpRule,
    /// Enable winner-take-all lateral inhibition.
    pub inhibition: bool,
    /// Threshold boost added to a neuron each time it wins.
    pub homeostasis_boost: f64,
}

/// Result of presenting one stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct Presentation {
    /// Output spike trains per neuron.
    pub outputs: Vec<SpikeTrain>,
    /// Index of the first neuron to spike, if any.
    pub winner: Option<usize>,
}

impl SpikingLayer {
    /// Creates a layer with random mid-range initial weights.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0` or `neurons == 0`.
    pub fn new<R: Rng + ?Sized>(inputs: usize, neurons: usize, rng: &mut R) -> Self {
        assert!(inputs > 0 && neurons > 0, "layer must be non-empty");
        let synapses: Vec<PcmSynapse> = (0..neurons * inputs)
            .map(|_| {
                let mut s = PcmSynapse::with_config(PcmMaterial::Gst225, 16);
                s.set_weight(rng.gen_range(0.4..0.8));
                s
            })
            .collect();
        let weight_cache = synapses.iter().map(PcmSynapse::weight).collect();
        SpikingLayer {
            inputs,
            neurons: NeuronArray::uniform(neurons, 8.0, 1.2, 1e9),
            synapses,
            weight_cache,
            threshold_offset: vec![0.0; neurons],
            base_threshold: 1.2,
            rule: StdpRule::default(),
            inhibition: true,
            homeostasis_boost: 0.12,
        }
    }

    /// Number of input channels.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of neurons.
    pub fn neurons(&self) -> usize {
        self.neurons.len()
    }

    /// The weight matrix as a borrowed flat row-major view
    /// (`[neuron * inputs + input]`) — no per-call allocation.
    pub fn weights(&self) -> &[f64] {
        &self.weight_cache
    }

    /// The incoming weight row of neuron `j` (one entry per input).
    pub fn weight_row(&self, j: usize) -> &[f64] {
        &self.weight_cache[j * self.inputs..(j + 1) * self.inputs]
    }

    /// Total PCM programming energy spent on learning so far \[J\].
    pub fn learning_energy(&self) -> f64 {
        self.synapses.iter().map(|s| s.programming_energy()).sum()
    }

    /// Presents one stimulus (a spike train per input channel) for
    /// `duration` time units at resolution `dt`. Neuron state is reset
    /// before the presentation (trial-based protocol). If `learn` is set,
    /// STDP updates are applied when a neuron wins.
    ///
    /// Each input spike delivers an impulse equal to the synaptic weight
    /// to every (non-inhibited) downstream neuron. With winner-take-all
    /// inhibition, the first neuron to fire suppresses the others for the
    /// rest of the trial.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus.len() != inputs`.
    pub fn present(
        &mut self,
        stimulus: &[SpikeTrain],
        duration: f64,
        dt: f64,
        learn: bool,
    ) -> Presentation {
        assert_eq!(stimulus.len(), self.inputs, "stimulus size mismatch");
        self.neurons.reset_all();
        let n_neurons = self.neurons.len();
        let steps = (duration / dt).ceil() as usize;
        let mut outputs = vec![SpikeTrain::new(); n_neurons];
        let mut winner: Option<usize> = None;
        // Per-trial buffers, allocated once; the per-step loop is
        // allocation-free apart from recording output spikes.
        let mut last_pre: Vec<Option<f64>> = vec![None; self.inputs];
        let mut spike_cursor = vec![0usize; self.inputs];
        let mut inhibited = vec![false; n_neurons];
        let mut impulses: Vec<usize> = Vec::with_capacity(self.inputs);
        let mut drives = vec![0.0; n_neurons];
        let mut fired_this_step: Vec<(usize, f64)> = Vec::with_capacity(n_neurons);

        for step in 0..steps {
            let t = step as f64 * dt;
            // Which inputs spike in [t, t + dt)?
            impulses.clear();
            for (i, train) in stimulus.iter().enumerate() {
                let times = train.times();
                while spike_cursor[i] < times.len() && times[spike_cursor[i]] < t + dt {
                    impulses.push(i);
                    last_pre[i] = Some(times[spike_cursor[i]]);
                    spike_cursor[i] += 1;
                }
            }
            self.compute_drives(&impulses, &inhibited, &mut drives);
            // Step every active neuron, collecting simultaneous firers so
            // the winner of a same-step race is the neuron with the
            // largest drive margin — not the lowest index (a tie-break
            // that would otherwise let neuron 0 hog every pattern).
            fired_this_step.clear();
            for j in 0..n_neurons {
                if inhibited[j] {
                    continue;
                }
                let effective_threshold = self.base_threshold + self.threshold_offset[j];
                self.neurons.set_threshold(j, effective_threshold);
                if self.neurons.step(j, drives[j] / dt, dt) {
                    fired_this_step.push((j, drives[j] - effective_threshold));
                }
            }
            if !fired_this_step.is_empty() {
                let step_winner: Vec<usize> = if self.inhibition {
                    // Largest margin wins the race; the rest are quenched
                    // by the lateral inhibition before their pulse forms.
                    let &(j, _) = fired_this_step
                        .iter()
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite margin"))
                        .expect("nonempty");
                    vec![j]
                } else {
                    fired_this_step.iter().map(|&(j, _)| j).collect()
                };
                for &j in &step_winner {
                    outputs[j].push(t);
                    if winner.is_none() {
                        winner = Some(j);
                    }
                    if learn {
                        self.apply_stdp(j, &last_pre, t);
                        self.threshold_offset[j] += self.homeostasis_boost;
                    }
                }
                if self.inhibition {
                    let j_win = step_winner[0];
                    for (k, flag) in inhibited.iter_mut().enumerate() {
                        if k != j_win {
                            *flag = true;
                        }
                    }
                }
            }
        }
        // Slow homeostatic decay for everyone (keeps thresholds bounded).
        for off in &mut self.threshold_offset {
            *off = (*off - 0.01).max(0.0);
        }
        Presentation { outputs, winner }
    }

    /// Impulse drive per neuron: the sum of cached weights of this step's
    /// spiking inputs.
    fn compute_drives(&self, impulses: &[usize], inhibited: &[bool], drives: &mut [f64]) {
        for (j, d) in drives.iter_mut().enumerate() {
            if inhibited[j] {
                *d = 0.0;
                continue;
            }
            let row = self.weight_row(j);
            let mut acc = 0.0;
            for &i in impulses {
                acc += row[i];
            }
            *d = acc;
        }
    }

    /// STDP on a post spike by neuron `j` at `t_post`: potentiate
    /// synapses whose input fired before (within the window), depress
    /// synapses whose input has not fired this trial (presynaptic-absence
    /// depression — the variant that gives fast pattern selectivity on
    /// WTA layers). Refreshes the weight cache for the touched row.
    fn apply_stdp(&mut self, j: usize, last_pre: &[Option<f64>], t_post: f64) {
        let row = &mut self.synapses[j * self.inputs..(j + 1) * self.inputs];
        let cache_row = &mut self.weight_cache[j * self.inputs..(j + 1) * self.inputs];
        for (i, (syn, w)) in row.iter_mut().zip(cache_row.iter_mut()).enumerate() {
            match last_pre[i] {
                Some(t_pre) => self.rule.apply(syn, t_post - t_pre + 1e-9),
                None => syn.depress(),
            }
            *w = syn.weight();
        }
    }

    /// Trains on labelled patterns for `epochs` passes and returns the
    /// winner map: for each pattern index, the neuron that responds.
    ///
    /// Patterns are presented latency-encoded over a 20-unit window.
    pub fn train_patterns(&mut self, patterns: &[Vec<f64>], epochs: usize) -> Vec<Option<usize>> {
        let t_window = 20.0;
        for _ in 0..epochs {
            for p in patterns {
                let stimulus = crate::encoding::latency_encode(p, t_window);
                let _ = self.present(&stimulus, t_window * 1.5, 0.5, true);
            }
        }
        // Evaluate with homeostatic offsets cleared so responsiveness
        // reflects the learned weights alone.
        for off in &mut self.threshold_offset {
            *off = 0.0;
        }
        patterns
            .iter()
            .map(|p| {
                let stimulus = crate::encoding::latency_encode(p, t_window);
                self.present(&stimulus, t_window * 1.5, 0.5, false).winner
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::latency_encode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn orthogonal_patterns() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        ]
    }

    #[test]
    fn layer_construction() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = SpikingLayer::new(9, 3, &mut rng);
        assert_eq!(layer.inputs(), 9);
        assert_eq!(layer.neurons(), 3);
        let w = layer.weights();
        assert_eq!(w.len(), 3 * 9);
        assert_eq!(layer.weight_row(0).len(), 9);
        for &wi in w {
            assert!((0.0..=1.0).contains(&wi));
        }
    }

    #[test]
    fn weight_cache_tracks_programmed_synapses() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut layer = SpikingLayer::new(9, 3, &mut rng);
        let before = layer.weights().to_vec();
        let _ = layer.train_patterns(&orthogonal_patterns(), 2);
        let after = layer.weights().to_vec();
        assert_ne!(before, after, "learning must move some weights");
        // The cache must agree with the ground-truth synapse model.
        for (e, &w) in after.iter().enumerate() {
            let truth = layer.synapses[e].weight();
            assert_eq!(w, truth, "cache stale at flat index {e}");
        }
    }

    #[test]
    fn strong_stimulus_elicits_a_winner() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = SpikingLayer::new(9, 3, &mut rng);
        let stim = latency_encode(&[1.0; 9], 20.0);
        let p = layer.present(&stim, 30.0, 0.5, false);
        assert!(
            p.winner.is_some(),
            "nine coincident-ish inputs should fire someone"
        );
    }

    #[test]
    fn empty_stimulus_elicits_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = SpikingLayer::new(4, 2, &mut rng);
        let stim = vec![SpikeTrain::new(); 4];
        let p = layer.present(&stim, 30.0, 0.5, false);
        assert!(p.winner.is_none());
        assert!(p.outputs.iter().all(SpikeTrain::is_empty));
    }

    #[test]
    fn wta_inhibition_limits_simultaneous_winners() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = SpikingLayer::new(9, 3, &mut rng);
        layer.inhibition = true;
        let stim = latency_encode(&[1.0; 9], 20.0);
        let p = layer.present(&stim, 30.0, 0.5, false);
        let firing_neurons = p.outputs.iter().filter(|t| !t.is_empty()).count();
        assert!(
            firing_neurons <= 1,
            "WTA should allow at most one responder"
        );
    }

    #[test]
    fn stdp_learning_specializes_neurons() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = SpikingLayer::new(9, 3, &mut rng);
        let patterns = orthogonal_patterns();
        let winners = layer.train_patterns(&patterns, 12);
        // Every pattern gets a responder...
        assert!(
            winners.iter().all(Option::is_some),
            "all patterns should elicit a winner, got {winners:?}"
        );
        // ...and responders are distinct (each neuron specialized).
        let mut seen = std::collections::HashSet::new();
        for w in winners.iter().flatten() {
            seen.insert(*w);
        }
        assert_eq!(
            seen.len(),
            patterns.len(),
            "each pattern should claim its own neuron, winners {winners:?}"
        );
    }

    #[test]
    fn learning_shapes_weights_toward_patterns() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = SpikingLayer::new(9, 3, &mut rng);
        let patterns = orthogonal_patterns();
        let winners = layer.train_patterns(&patterns, 12);
        for (p_idx, winner) in winners.iter().enumerate() {
            let j = winner.expect("winner exists");
            let row = layer.weight_row(j);
            let on: f64 = patterns[p_idx]
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0.0)
                .map(|(i, _)| row[i])
                .sum::<f64>()
                / 3.0;
            let off: f64 = patterns[p_idx]
                .iter()
                .enumerate()
                .filter(|(_, &v)| v == 0.0)
                .map(|(i, _)| row[i])
                .sum::<f64>()
                / 6.0;
            assert!(
                on > off,
                "pattern {p_idx}: winner {j} on-weights {on} !> off-weights {off}"
            );
        }
    }

    #[test]
    fn learning_consumes_pcm_energy() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = SpikingLayer::new(9, 3, &mut rng);
        let e0 = layer.learning_energy();
        let _ = layer.train_patterns(&orthogonal_patterns(), 3);
        assert!(layer.learning_energy() > e0);
    }

    #[test]
    #[should_panic(expected = "stimulus size mismatch")]
    fn present_rejects_wrong_arity() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut layer = SpikingLayer::new(4, 2, &mut rng);
        let stim = vec![SpikeTrain::new(); 3];
        let _ = layer.present(&stim, 10.0, 0.5, false);
    }
}
