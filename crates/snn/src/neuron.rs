//! The leaky-integrate-and-fire neuron: the behavioural stand-in for
//! the excitable Q-switched laser in network-scale simulation.
//!
//! The ground-truth device model is the Yamada laser in
//! [`neuropulsim_photonics::laser`]; its threshold, single-spike and
//! refractory behaviour are tested there. The LIF form here keeps those
//! three behaviours at a fraction of the cost, with parameters
//! calibrated against the laser's default operating point (see the
//! `lif_matches_laser_threshold_qualitatively` test). [`lif_update`] is
//! the one update rule; [`NeuronArray`] holds a population of neurons
//! for the dense layer and the sparse engine steps its own state with
//! the same function.

/// The one true LIF update: advances a single neuron's `(v,
/// refractory_left)` state by one step of length `dt` under drive
/// `input`, returning `true` on a spike.
///
/// Both engines in this crate — [`NeuronArray::step`] and the
/// event-driven sparse engine in [`crate::sparse`] — funnel through this
/// function, so their floating-point behaviour is identical *by
/// construction*: same expressions, same rounding, same spike
/// decisions. The conformance suite (`oracle::snn_ref`) checks the
/// result bit-for-bit against an independently written reference.
#[inline(always)]
pub fn lif_update(
    v: &mut f64,
    refractory_left: &mut f64,
    tau: f64,
    threshold: f64,
    refractory: f64,
    input: f64,
    dt: f64,
) -> bool {
    if *refractory_left > 0.0 {
        *refractory_left -= dt;
        *v = 0.0;
        return false;
    }
    *v += (input - *v / tau) * dt;
    if *v >= threshold {
        *v = 0.0;
        *refractory_left = refractory;
        true
    } else {
        false
    }
}

/// A population of LIF neurons in structure-of-arrays layout: one
/// contiguous plane per state variable.
///
/// Every neuron shares one leak time constant and one refractory
/// period; the threshold is per neuron because homeostasis in
/// [`crate::network::SpikingLayer`] moves each one separately.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuronArray {
    v: Vec<f64>,
    threshold: Vec<f64>,
    refractory_left: Vec<f64>,
    tau: f64,
    refractory: f64,
}

impl NeuronArray {
    /// Creates `count` neurons at rest, all with the given parameters.
    pub fn uniform(count: usize, tau: f64, threshold: f64, refractory: f64) -> Self {
        NeuronArray {
            v: vec![0.0; count],
            threshold: vec![threshold; count],
            refractory_left: vec![0.0; count],
            tau,
            refractory,
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Membrane potential of neuron `j`.
    pub fn potential(&self, j: usize) -> f64 {
        self.v[j]
    }

    /// Sets the firing threshold of neuron `j`.
    pub fn set_threshold(&mut self, j: usize, threshold: f64) {
        self.threshold[j] = threshold;
    }

    /// Advances neuron `j` one step of length `dt` under drive `input`
    /// with [`lif_update`]; returns `true` if it fires.
    pub fn step(&mut self, j: usize, input: f64, dt: f64) -> bool {
        lif_update(
            &mut self.v[j],
            &mut self.refractory_left[j],
            self.tau,
            self.threshold[j],
            self.refractory,
            input,
            dt,
        )
    }

    /// Resets every neuron's potential and refractory state.
    pub fn reset_all(&mut self) {
        self.v.fill(0.0);
        self.refractory_left.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lif_integrates_and_fires() {
        let mut n = NeuronArray::uniform(1, 10.0, 1.0, 5.0);
        let fired = (0..200).filter(|_| n.step(0, 0.5, 0.1)).count();
        assert!(fired > 0, "constant drive above threshold must fire");
    }

    #[test]
    fn lif_subthreshold_never_fires() {
        let mut n = NeuronArray::uniform(1, 10.0, 1.0, 5.0);
        // Steady state of v is input * tau = 0.05 * 10 = 0.5 < threshold.
        for _ in 0..2000 {
            assert!(!n.step(0, 0.05, 0.1));
        }
        assert!(n.potential(0) < 1.0);
    }

    #[test]
    fn lif_refractory_blocks_firing() {
        let mut n = NeuronArray::uniform(1, 10.0, 0.5, 10.0);
        // Drive hard until first spike.
        let t_first = (0..1000).find(|_| n.step(0, 2.0, 0.1)).expect("must fire");
        // Next spike cannot come within the refractory window (100 steps).
        let mut gap = 0;
        for _ in 0..1000 {
            gap += 1;
            if n.step(0, 2.0, 0.1) {
                break;
            }
        }
        assert!(
            gap >= 100,
            "spike gap {gap} steps < refractory (first at {t_first})"
        );
    }

    #[test]
    fn lif_reset_clears_state() {
        let mut n = NeuronArray::uniform(1, 10.0, 0.5, 50.0);
        // 5.0 * 0.1 reaches the threshold in one step.
        assert!(n.step(0, 5.0, 0.1));
        assert!(!n.step(0, 5.0, 0.1), "refractory after the spike");
        n.reset_all();
        assert_eq!(n.potential(0), 0.0);
        assert!(n.step(0, 5.0, 0.1), "reset leaves the refractory window");
    }

    #[test]
    fn thresholds_are_per_neuron() {
        let mut array = NeuronArray::uniform(3, 8.0, 1.1, 3.0);
        array.set_threshold(1, 50.0);
        let mut fired = [0usize; 3];
        for k in 0..400 {
            let input = 0.8 + 0.6 * ((k % 17) as f64 - 8.0) / 8.0;
            for (j, count) in fired.iter_mut().enumerate().take(2) {
                *count += usize::from(array.step(j, input, 0.1));
            }
        }
        assert!(fired[0] > 0, "neuron 0 crosses its threshold");
        assert_eq!(fired[1], 0, "neuron 1's raised threshold holds");
        // Neuron 2 was never stepped and stays at rest.
        assert_eq!(array.potential(2), 0.0);
        array.reset_all();
        assert_eq!(array.potential(0), 0.0);
        assert_eq!(array.len(), 3);
    }

    #[test]
    fn lif_matches_laser_threshold_qualitatively() {
        // Parameters calibrated to the default Yamada operating point:
        // threshold near the laser's excitability threshold (~0.5 gain-
        // kick units) and a refractory period of ~50 normalized units
        // (the gain-recovery timescale 1/gamma). They must separate the
        // same weak/strong inputs as the Yamada neuron (applied as
        // one-step impulses).
        let impulse = |w: f64| {
            let mut n = NeuronArray::uniform(1, 10.0, 0.5, 50.0);
            // Impulse: deliver w over one short step, then coast.
            let mut fired = n.step(0, w / 0.1, 0.1);
            for _ in 0..100 {
                fired |= n.step(0, 0.0, 0.1);
            }
            fired
        };
        assert!(!impulse(0.1));
        assert!(impulse(1.0));
    }
}
