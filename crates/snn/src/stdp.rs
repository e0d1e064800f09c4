//! Spike-timing-dependent plasticity (STDP) — the bio-inspired learning
//! rule the paper's §3 proposes to implement with PCM accumulation.
//!
//! The canonical pairwise exponential window:
//!
//! ```text
//!   dw(dt) = +A_plus  * exp(-dt / tau_plus)    if dt > 0 (pre before post)
//!   dw(dt) = -A_minus * exp(+dt / tau_minus)   if dt < 0 (post before pre)
//! ```
//!
//! where `dt = t_post - t_pre`. On PCM hardware the continuous `dw` is
//! realized as a discrete number of SET/partial-RESET pulses, which
//! [`StdpRule::steps`] computes for a synapse with a given level count.

/// Parameters of the pairwise exponential STDP window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdpRule {
    /// Potentiation amplitude (weight units) at `dt -> 0+`.
    pub a_plus: f64,
    /// Depression amplitude (weight units) at `dt -> 0-`.
    pub a_minus: f64,
    /// Potentiation decay constant (time units).
    pub tau_plus: f64,
    /// Depression decay constant (time units).
    pub tau_minus: f64,
}

impl StdpRule {
    /// A commonly used asymmetric window: slightly stronger depression,
    /// equal time constants.
    pub fn new(a_plus: f64, a_minus: f64, tau_plus: f64, tau_minus: f64) -> Self {
        StdpRule {
            a_plus,
            a_minus,
            tau_plus,
            tau_minus,
        }
    }

    /// The continuous weight change for a pre→post delay
    /// `dt = t_post - t_pre`.
    pub fn delta_w(&self, dt: f64) -> f64 {
        if dt == 0.0 {
            0.0
        } else if dt > 0.0 {
            self.a_plus * (-dt / self.tau_plus).exp()
        } else {
            -self.a_minus * (dt / self.tau_minus).exp()
        }
    }

    /// The number of discrete plasticity steps (positive = potentiate)
    /// that realizes `delta_w(dt)` on a synapse with `levels` levels and
    /// unit weight range.
    pub fn steps(&self, dt: f64, levels: u32) -> i32 {
        let dw = self.delta_w(dt);
        let step_size = 1.0 / (levels.max(2) - 1) as f64;
        (dw / step_size).round() as i32
    }
}

impl Default for StdpRule {
    /// `A+ = 0.2, A- = 0.22, tau+ = tau- = 20` time units — a window that
    /// moves a 16-level synapse by up to ~3 levels per causal pair.
    fn default() -> Self {
        StdpRule::new(0.2, 0.22, 20.0, 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_signs() {
        let r = StdpRule::default();
        assert!(r.delta_w(5.0) > 0.0, "causal pair potentiates");
        assert!(r.delta_w(-5.0) < 0.0, "anti-causal pair depresses");
        assert_eq!(r.delta_w(0.0), 0.0);
    }

    #[test]
    fn window_decays_with_delay() {
        let r = StdpRule::default();
        assert!(r.delta_w(1.0) > r.delta_w(10.0));
        assert!(r.delta_w(10.0) > r.delta_w(100.0));
        assert!(r.delta_w(-1.0) < r.delta_w(-10.0));
    }

    #[test]
    fn window_peak_amplitudes() {
        let r = StdpRule::new(0.3, 0.4, 10.0, 10.0);
        assert!((r.delta_w(1e-9) - 0.3).abs() < 1e-6);
        assert!((r.delta_w(-1e-9) + 0.4).abs() < 1e-6);
    }

    #[test]
    fn steps_quantize_the_window() {
        let r = StdpRule::default();
        // Near-coincident causal pair on a 16-level synapse:
        // 0.2 / (1/15) = 3 steps.
        assert_eq!(r.steps(0.1, 16), 3);
        // Long delay: no change.
        assert_eq!(r.steps(200.0, 16), 0);
        // Anti-causal: negative steps.
        assert!(r.steps(-0.1, 16) < 0);
    }
}
