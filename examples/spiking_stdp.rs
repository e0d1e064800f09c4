//! Photonic spiking neural network demo (paper §3): excitable-laser
//! dynamics, the STDP window, and unsupervised spike-pattern learning on
//! a winner-take-all layer with PCM synapses.
//!
//! Run with: `cargo run --release --example spiking_stdp`

use neuropulsim::photonics::laser::{YamadaLaser, YamadaParams};
use neuropulsim::snn::sparse::{EventNet, NetSpec};
use neuropulsim::snn::stdp::StdpRule;
use neuropulsim::snn::synapse::PcmSynapse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // --- 1. Excitable laser: threshold and refractoriness ------------
    println!("=== Yamada excitable laser ===");
    let mut laser = YamadaLaser::new(YamadaParams::default());
    let threshold = laser.excitability_threshold(2.0, 0.02);
    println!("excitability threshold (gain-kick units): {threshold:.3}");
    laser.settle();
    laser.perturb_gain(1.2 * threshold);
    let trace = laser.run(400.0);
    let peak = trace.iter().cloned().fold(0.0f64, f64::max);
    let params = *laser.params();
    println!(
        "suprathreshold kick: {} spike(s), peak intensity {peak:.2}, \
         spike width < 1 ns ({} ps/unit)",
        laser.spike_count(),
        params.time_unit * 1e12
    );

    // --- 2. The STDP window, quantized to PCM pulses ------------------
    println!("\n=== STDP window on a 16-level PCM synapse ===");
    let rule = StdpRule::default();
    println!("{:>8} {:>10} {:>8}", "dt", "dw", "pulses");
    for dt in [-20.0, -5.0, -1.0, 1.0, 5.0, 20.0] {
        println!(
            "{dt:>8.1} {:>10.4} {:>8}",
            rule.delta_w(dt),
            rule.steps(dt, 16)
        );
    }
    let mut synapse = PcmSynapse::new();
    for _ in 0..8 {
        synapse.depress();
    }
    let w0 = synapse.weight();
    for _ in 0..rule.steps(1.0, synapse.levels()) {
        synapse.potentiate();
    }
    println!(
        "causal pair moved weight {w0:.3} -> {:.3} using {:.2} nJ so far",
        synapse.weight(),
        synapse.programming_energy() * 1e9
    );

    // --- 3. Unsupervised pattern learning -----------------------------
    // Inputs 0..9 fire by injection; outputs 9..12 form one
    // winner-take-all group whose synapses depress when their input stays
    // silent. The engine integrates drive as a rate, so the threshold,
    // the homeostatic boost per win and its decay per trial scale by dt.
    println!("\n=== winner-take-all STDP learning (3 patterns, 3 neurons) ===");
    let dt = 0.5;
    let mut rng = StdRng::seed_from_u64(7);
    let mut spec = NetSpec::random(0, 12, 1, 16, true);
    spec.threshold = 1.2 * dt;
    spec.refractory = 1e9;
    spec.edges = (0..9).flat_map(|i| (9..12).map(move |j| (i, j))).collect();
    spec.init_levels = (0..27).map(|_| rng.gen_range(3..9)).collect();
    spec.wta_group = Some(9..12);
    spec.absence_depression = true;
    let mut net = EventNet::new(&spec);
    let mut offsets = [0.0f64; 3];
    let patterns = [[0, 1, 2], [3, 4, 5], [6, 7, 8]];
    let present = |net: &mut EventNet, offsets: &mut [f64; 3], pattern: &[u32; 3]| {
        net.reset();
        for (k, &off) in offsets.iter().enumerate() {
            net.set_threshold_offset(9 + k, off);
        }
        let kick: Vec<(u32, f64)> = pattern
            .iter()
            .map(|&i| (i, 2.0 * spec.threshold / dt))
            .collect();
        let mut winner = None;
        for t in 0..60 {
            if let Some(&j) = net
                .tick(if t == 0 { &kick } else { &[] })
                .iter()
                .find(|&&j| j >= 9)
            {
                winner = Some(j as usize - 9);
                offsets[j as usize - 9] += 0.12 * dt;
            }
        }
        for off in offsets.iter_mut() {
            *off = (*off - 0.01 * dt).max(0.0);
        }
        winner
    };
    for _ in 0..12 {
        for p in &patterns {
            present(&mut net, &mut offsets, p);
        }
    }
    // Evaluate on copies with the offsets cleared: the learned weights
    // alone pick the responder, and the copies' STDP is discarded.
    for (p, pattern) in patterns.iter().enumerate() {
        match present(&mut net.clone(), &mut [0.0; 3], pattern) {
            Some(j) => println!("pattern {p} -> neuron {j}"),
            None => println!("pattern {p} -> (no responder)"),
        }
    }
    println!("learned weights [neuron][input]:");
    let syn = net.synapses();
    for j in 0..3 {
        let row: Vec<String> = (0..9).map(|i| format!("{:.2}", syn.row(i).1[j])).collect();
        println!("  n{j}: [{}]", row.join(", "));
    }
    println!(
        "total PCM learning energy: {:.2} nJ (held for free afterwards)",
        syn.programming_energy() * 1e9
    );
}
