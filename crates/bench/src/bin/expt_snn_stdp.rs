//! **E6 — Spiking sources and STDP** (paper §3: Q-switched excitable
//! lasers + "bio-inspired learning rules such as spike-timing dependent
//! plasticity (STDP) will be investigated").

use neuropulsim_bench::{experiment_rng, fmt, Table};
use neuropulsim_photonics::laser::{YamadaLaser, YamadaParams};
use neuropulsim_photonics::pcm::PcmMaterial;
use neuropulsim_snn::sparse::{EventNet, NetSpec, PcmWeightTable};
use neuropulsim_snn::stdp::StdpRule;
use neuropulsim_snn::synapse::PcmSynapse;
use rand::Rng;

/// Timestep of the E6c layer.
const DT: f64 = 0.5;
/// Ticks per trial (a 30-unit presentation).
const TRIAL_TICKS: usize = 60;
/// `EventNet` integrates drive as a rate, so a membrane that sums
/// weights per step (firing at 1.2) reads `DT` times lower here: the
/// threshold, the homeostatic boost per win and its decay per trial
/// all carry a factor `DT`.
const THRESHOLD: f64 = 1.2 * DT;
const BOOST: f64 = 0.12 * DT;
const DECAY: f64 = 0.01 * DT;

/// A fully connected `inputs → outputs` STDP layer on [`EventNet`]:
/// neurons `0..inputs` are the input channels (fired by injection),
/// `inputs..inputs + outputs` one winner-take-all group with absence
/// depression, and each output carries a homeostatic threshold offset.
#[derive(Clone)]
struct WtaLayer {
    net: EventNet,
    inputs: usize,
    offsets: Vec<f64>,
}

impl WtaLayer {
    /// Random mid-range initial weights: each synapse is programmed to
    /// the PCM level nearest a uniform draw in `[0.4, 0.8)`.
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        let table = PcmWeightTable::new(PcmMaterial::Gst225, 16);
        let nearest = |w: f64| {
            let d = |l: usize| (table.weights()[l] - w).abs();
            (0..table.weights().len()).fold(0, |b, l| if d(l) < d(b) { l } else { b }) as u8
        };
        // Drawn output-major; edges are stored input-major.
        let drawn: Vec<u8> = (0..inputs * outputs)
            .map(|_| nearest(rng.gen_range(0.4..0.8)))
            .collect();
        let n = (inputs + outputs) as u32;
        let spec = NetSpec {
            neurons: inputs + outputs,
            tau: 8.0,
            threshold: THRESHOLD,
            refractory: 1e9,
            dt: DT,
            material: table.material(),
            levels: table.levels(),
            rule: StdpRule::default(),
            plastic: true,
            edges: (0..inputs as u32)
                .flat_map(|i| (inputs as u32..n).map(move |j| (i, j)))
                .collect(),
            init_levels: (0..inputs * outputs)
                .map(|e| drawn[(e % outputs) * inputs + e / outputs])
                .collect(),
            wta_group: Some(inputs as u32..n),
            absence_depression: true,
        };
        WtaLayer {
            net: EventNet::new(&spec),
            inputs,
            offsets: vec![0.0; outputs],
        }
    }

    /// Presents one binary pattern for one trial (every active input
    /// fires at tick 0) with STDP on, and returns the output that wins,
    /// if any. Homeostasis: the winner's offset rises by [`BOOST`], then
    /// every offset decays by [`DECAY`].
    fn present(&mut self, pattern: &[f64]) -> Option<usize> {
        assert_eq!(pattern.len(), self.inputs, "pattern size mismatch");
        self.net.reset();
        for (k, &off) in self.offsets.iter().enumerate() {
            self.net.set_threshold_offset(self.inputs + k, off);
        }
        let kick = 2.0 * THRESHOLD / DT;
        let stimulus: Vec<(u32, f64)> = (0..self.inputs as u32)
            .filter(|&i| pattern[i as usize] > 0.0)
            .map(|i| (i, kick))
            .collect();
        let mut winner = None;
        for t in 0..TRIAL_TICKS {
            let fired = self.net.tick(if t == 0 { &stimulus } else { &[] });
            if let Some(&j) = fired.iter().find(|&&j| j as usize >= self.inputs) {
                winner = Some(j as usize - self.inputs);
            }
        }
        if let Some(w) = winner {
            self.offsets[w] += BOOST;
        }
        for off in &mut self.offsets {
            *off = (*off - DECAY).max(0.0);
        }
        winner
    }

    /// Trains on `patterns` for `epochs` passes, then returns the output
    /// that wins each pattern. Evaluation clears the offsets, so it
    /// reflects the learned weights alone, and runs each pattern on a
    /// copy of the layer, so its STDP is discarded.
    fn train(&mut self, patterns: &[Vec<f64>], epochs: usize) -> Vec<Option<usize>> {
        for _ in 0..epochs {
            for p in patterns {
                self.present(p);
            }
        }
        self.offsets.fill(0.0);
        patterns.iter().map(|p| self.clone().present(p)).collect()
    }

    /// PCM programming energy spent on learning \[J\].
    fn learning_energy(&self) -> f64 {
        self.net.synapses().programming_energy()
    }
}

/// Three disjoint 3-of-9 input patterns.
fn orthogonal_patterns() -> Vec<Vec<f64>> {
    vec![
        vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    ]
}

fn main() {
    println!("## E6a — Excitable-laser characterization (Yamada model)\n");
    let mut laser = YamadaLaser::new(YamadaParams::default());
    let threshold = laser.excitability_threshold(2.0, 0.02);
    let params = *laser.params();
    let mut table = Table::new(&["quantity", "value"]);
    table.row(&["static margin A-B-1".into(), fmt(params.threshold_margin())]);
    table.row(&["dynamic threshold [gain units]".into(), fmt(threshold)]);
    // Spike latency vs kick strength.
    for kick in [1.05, 1.5, 2.0] {
        let mut l = YamadaLaser::new(YamadaParams::default());
        l.settle();
        let t0 = l.time();
        l.perturb_gain(kick * threshold);
        let _ = l.run(600.0);
        let latency = l.spike_times().first().map(|t| t - t0).unwrap_or(f64::NAN);
        table.row(&[
            format!("spike latency at {kick:.2}x threshold [ns]"),
            fmt(latency * params.time_unit * 1e9),
        ]);
    }
    table.print();

    println!("\n## E6b — STDP window realized in PCM pulses (16 levels)\n");
    let rule = StdpRule::default();
    let mut table = Table::new(&["dt [units]", "dw (continuous)", "PCM pulses"]);
    for &dt in &[-50.0, -20.0, -5.0, -1.0, 1.0, 5.0, 20.0, 50.0] {
        table.row(&[
            fmt(dt),
            fmt(rule.delta_w(dt)),
            rule.steps(dt, 16).to_string(),
        ]);
    }
    table.print();

    println!("\n## E6c — Unsupervised spike-pattern learning (9 inputs, 3 classes)\n");
    let patterns = orthogonal_patterns();
    let mut table = Table::new(&[
        "seed",
        "epochs",
        "patterns with responder",
        "distinct neurons",
        "learning energy [nJ]",
    ]);
    for seed in [7u64, 11, 13, 17] {
        let mut rng = experiment_rng(seed);
        let mut layer = WtaLayer::new(9, 3, &mut rng);
        let winners = layer.train(&patterns, 12);
        let responders = winners.iter().filter(|w| w.is_some()).count();
        let distinct: std::collections::HashSet<_> = winners.iter().flatten().collect();
        table.row(&[
            seed.to_string(),
            "12".into(),
            format!("{responders}/3"),
            distinct.len().to_string(),
            fmt(layer.learning_energy() * 1e9),
        ]);
    }
    table.print();

    println!("\n## E6d — Synapse accumulation: weight vs SET pulse count\n");
    let mut synapse = PcmSynapse::new();
    let mut table = Table::new(&["pulses", "weight"]);
    table.row(&["0".into(), fmt(synapse.weight())]);
    for k in 1..=15 {
        synapse.depress();
        if k % 3 == 0 {
            table.row(&[k.to_string(), fmt(synapse.weight())]);
        }
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdp_learning_specializes_neurons() {
        let patterns = orthogonal_patterns();
        for seed in [7, 11, 13, 17] {
            let mut layer = WtaLayer::new(9, 3, &mut experiment_rng(seed));
            let winners = layer.train(&patterns, 12);
            let distinct: std::collections::HashSet<_> = winners.iter().flatten().collect();
            assert!(
                winners.iter().all(Option::is_some),
                "seed {seed}: {winners:?}"
            );
            assert_eq!(distinct.len(), 3, "seed {seed}: {winners:?}");
            assert!(layer.learning_energy() > 0.0, "learning programs the PCM");
        }
    }

    #[test]
    fn learning_shapes_weights_toward_patterns() {
        let patterns = orthogonal_patterns();
        let mut layer = WtaLayer::new(9, 3, &mut experiment_rng(9));
        let winners = layer.train(&patterns, 12);
        let syn = layer.net.synapses();
        for (p, winner) in patterns.iter().zip(&winners) {
            let j = 9 + winner.expect("every pattern has a responder") as u32;
            // Input i's only edge into output j.
            let w = |i: usize| {
                let (targets, weights) = syn.row(i as u32);
                weights[targets.iter().position(|&t| t == j).expect("edge")]
            };
            let mean = |on: bool| {
                let ws: Vec<f64> = (0..9).filter(|&i| (p[i] > 0.0) == on).map(w).collect();
                ws.iter().sum::<f64>() / ws.len() as f64
            };
            assert!(mean(true) > mean(false), "output {j}: {winners:?}");
        }
    }

    #[test]
    #[should_panic(expected = "pattern size mismatch")]
    fn present_rejects_wrong_arity() {
        WtaLayer::new(4, 2, &mut experiment_rng(13)).present(&[1.0; 3]);
    }
}
