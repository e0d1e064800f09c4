//! The leaky-integrate-and-fire neuron: the behavioural stand-in for
//! the excitable Q-switched laser in network-scale simulation.
//!
//! The ground-truth device model is the Yamada laser in
//! [`neuropulsim_photonics::laser`]; its threshold, single-spike and
//! refractory behaviour are tested there. The LIF form here keeps those
//! three behaviours at a fraction of the cost, with parameters
//! calibrated against the laser's default operating point (see the
//! `lif_matches_laser_threshold_qualitatively` test). [`lif_update`] is
//! the one update rule: the event-driven engine in [`crate::sparse`]
//! steps its state vectors with it.

/// The one true LIF update: advances a single neuron's `(v,
/// refractory_left)` state by one step of length `dt` under drive
/// `input`, returning `true` on a spike.
///
/// The event-driven engine in [`crate::sparse`] and `snn_bench`'s dense
/// baseline both funnel through this function, so their floating-point
/// behaviour is identical *by construction*: same expressions, same
/// rounding, same spike decisions. The conformance suite
/// (`oracle::snn_ref`) checks the result bit-for-bit against an
/// independently written reference.
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
    *v = integrate(*v, input, tau, dt);
    if *v >= threshold {
        *v = 0.0;
        *refractory_left = refractory;
        true
    } else {
        false
    }
}

/// One forward-Euler step of `dv/dt = input − v/τ` from potential `v`:
/// the potential [`lif_update`] compares with the threshold.
#[inline(always)]
pub(crate) fn integrate(v: f64, input: f64, tau: f64, dt: f64) -> f64 {
    v + (input - v / tau) * dt
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One neuron's `(v, refractory_left)` state with its parameters.
    struct Lif {
        v: f64,
        refr_left: f64,
        tau: f64,
        threshold: f64,
        refractory: f64,
    }

    impl Lif {
        fn new(tau: f64, threshold: f64, refractory: f64) -> Self {
            Lif {
                v: 0.0,
                refr_left: 0.0,
                tau,
                threshold,
                refractory,
            }
        }

        fn step(&mut self, input: f64, dt: f64) -> bool {
            let (tau, threshold, refractory) = (self.tau, self.threshold, self.refractory);
            lif_update(
                &mut self.v,
                &mut self.refr_left,
                tau,
                threshold,
                refractory,
                input,
                dt,
            )
        }
    }

    #[test]
    fn lif_integrates_and_fires() {
        let mut n = Lif::new(10.0, 1.0, 5.0);
        let fired = (0..200).filter(|_| n.step(0.5, 0.1)).count();
        assert!(fired > 0, "constant drive above threshold must fire");
    }

    #[test]
    fn lif_subthreshold_never_fires() {
        let mut n = Lif::new(10.0, 1.0, 5.0);
        // Steady state of v is input * tau = 0.05 * 10 = 0.5 < threshold.
        for _ in 0..2000 {
            assert!(!n.step(0.05, 0.1));
        }
        assert!(n.v < 1.0);
    }

    #[test]
    fn lif_refractory_blocks_firing() {
        let mut n = Lif::new(10.0, 0.5, 10.0);
        // Drive hard until first spike.
        let t_first = (0..1000).find(|_| n.step(2.0, 0.1)).expect("must fire");
        // Next spike cannot come within the refractory window (100 steps).
        let mut gap = 0;
        for _ in 0..1000 {
            gap += 1;
            if n.step(2.0, 0.1) {
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
        let mut n = Lif::new(10.0, 0.5, 50.0);
        // 5.0 * 0.1 reaches the threshold in one step.
        assert!(n.step(5.0, 0.1));
        assert!(!n.step(5.0, 0.1), "refractory after the spike");
        (n.v, n.refr_left) = (0.0, 0.0);
        assert!(n.step(5.0, 0.1), "reset leaves the refractory window");
    }

    #[test]
    fn thresholds_are_per_neuron() {
        let mut low = Lif::new(8.0, 1.1, 3.0);
        let mut high = Lif::new(8.0, 50.0, 3.0);
        let mut fired = [0usize; 2];
        for k in 0..400 {
            let input = 0.8 + 0.6 * ((k % 17) as f64 - 8.0) / 8.0;
            fired[0] += usize::from(low.step(input, 0.1));
            fired[1] += usize::from(high.step(input, 0.1));
        }
        assert!(fired[0] > 0, "the low threshold is crossed");
        assert_eq!(fired[1], 0, "the raised threshold holds");
    }

    #[test]
    fn integrate_is_the_step_lif_update_takes() {
        let (mut v, mut refr_left) = (0.3, 0.0);
        let expected = integrate(0.3, 0.7, 8.0, 0.5);
        assert!(!lif_update(&mut v, &mut refr_left, 8.0, 2.0, 1.0, 0.7, 0.5));
        assert_eq!(v.to_bits(), expected.to_bits());
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
            let mut n = Lif::new(10.0, 0.5, 50.0);
            // Impulse: deliver w over one short step, then coast.
            let mut fired = n.step(w / 0.1, 0.1);
            for _ in 0..100 {
                fired |= n.step(0.0, 0.1);
            }
            fired
        };
        assert!(!impulse(0.1));
        assert!(impulse(1.0));
    }
}
