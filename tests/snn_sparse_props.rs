//! Property-based tests of the event-driven sparse SNN engine: over
//! random sparse networks, injection schedules, and plasticity modes,
//! the fire-queue engine must be **bit-identical** to the eager
//! reference engine `oracle::snn_ref::RefSparseNet` (spikes,
//! potentials, fire ledger, synapse levels, cached weights), and its
//! results must not depend on the worker thread count.

use neuropulsim::linalg::parallel::split_seed;
use neuropulsim::oracle::snn_ref::{RefSparseNet, RefStdp};
use neuropulsim::snn::sparse::{EventNet, NetSpec, SERIAL_TICK_WORK};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic injection schedule: `per_tick` superthreshold kicks
/// per tick, plus occasional subthreshold nudges that leave neurons
/// parked at small potentials (the lazy-leak stress case).
fn schedule(spec: &NetSpec, ticks: usize, per_tick: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
    let kick = 1.4 * spec.threshold / spec.dt;
    (0..ticks)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, t as u64));
            (0..per_tick)
                .map(|_| {
                    let target = rng.gen_range(0..spec.neurons as u32);
                    let drive = if rng.gen_bool(0.25) { 0.3 * kick } else { kick };
                    (target, drive)
                })
                .collect()
        })
        .collect()
}

fn random_spec(seed: u64, neurons: usize, fanout: usize, plastic: bool) -> NetSpec {
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 99));
    let mut spec = NetSpec::random(seed, neurons, fanout, 8 + (seed % 17) as u32, plastic);
    spec.tau = rng.gen_range(3.0..16.0);
    spec.threshold = rng.gen_range(0.4..1.4);
    spec.refractory = rng.gen_range(0.0..4.0);
    spec.dt = rng.gen_range(0.1..0.8);
    spec
}

/// The eager reference built from the same spec, reading its per-level
/// weights from the engine's table.
fn reference(spec: &NetSpec, level_weights: &[f64]) -> RefSparseNet {
    RefSparseNet::new(
        spec.neurons,
        spec.tau,
        spec.threshold,
        spec.refractory,
        spec.dt,
        RefStdp {
            a_plus: spec.rule.a_plus,
            a_minus: spec.rule.a_minus,
            tau_plus: spec.rule.tau_plus,
            tau_minus: spec.rule.tau_minus,
        },
        spec.plastic,
        level_weights,
        &spec.edges,
        &spec.init_levels,
        spec.wta_group.as_ref().map(|g| (g.start, g.end)),
        spec.absence_depression,
    )
}

proptest! {
    /// The event-driven engine and the eager dense-stepping reference
    /// (every neuron steps and every edge is scanned every tick) agree
    /// bit for bit — spikes, potentials, ledger, and (when plastic)
    /// every synapse level and cached weight — over random sparse
    /// inputs.
    #[test]
    fn event_and_dense_engines_are_bit_identical(
        seed in 0u64..2_000_000,
        neurons in 2usize..40,
        ticks in 1usize..50,
        plastic_bit in 0u8..2,
    ) {
        let plastic = plastic_bit == 1;
        let fanout = 1 + (seed as usize) % (neurons - 1).min(7);
        let spec = random_spec(seed, neurons, fanout, plastic);
        let sched = schedule(&spec, ticks, 1 + neurons / 8, split_seed(seed, 7));

        let mut ev = EventNet::new(&spec);
        let level_weights = ev.synapses().table().weights().to_vec();
        let mut rf = reference(&spec, &level_weights);
        for (t, inj) in sched.iter().enumerate() {
            let fe = ev.tick(inj).to_vec();
            let fr = rf.tick(inj);
            assert_eq!(fe, fr, "fire queues diverged at tick {t} (seed {seed})");
        }
        ev.flush();
        for (j, ref_v) in rf.potentials().iter().enumerate() {
            prop_assert_eq!(
                ev.potentials()[j].to_bits(),
                ref_v.to_bits(),
                "potential bits diverged at neuron {} (seed {})", j, seed
            );
        }
        prop_assert_eq!(ev.fire_ledger(), rf.fire_ledger(), "fire ledgers (seed {})", seed);
        if plastic {
            prop_assert_eq!(
                ev.synapses().levels_flat(),
                rf.levels(),
                "synapse levels (seed {})", seed
            );
            // The reference keeps levels only; a reprogrammed edge's
            // cached weight is its level's entry in the table.
            let ew = ev.synapses().weights_flat();
            for (e, (w, &level)) in ew.iter().zip(rf.levels()).enumerate() {
                prop_assert_eq!(
                    w.to_bits(), level_weights[level as usize].to_bits(),
                    "cached weight bits diverged at edge {} (seed {})", e, seed
                );
            }
        }
    }

    /// The event engine's results are invariant under the worker thread
    /// count: 2- and 8-thread runs reproduce the serial run bitwise, on
    /// light schedules (serial ticks) and heavy ones (partitioned ticks).
    #[test]
    fn sparse_engine_is_thread_count_invariant(
        seed in 0u64..2_000_000,
        neurons in 2usize..60,
        ticks in 1usize..40,
        heavy_bit in 0u8..2,
    ) {
        let fanout = 1 + (seed as usize) % (neurons - 1).min(9);
        let spec = random_spec(seed, neurons, fanout, seed % 3 == 0);
        // A heavy schedule injects the serial cutoff's worth every tick,
        // so every tick takes the partitioned path.
        let per_tick = if heavy_bit == 1 { SERIAL_TICK_WORK } else { 1 + neurons / 6 };
        let sched = schedule(&spec, ticks, per_tick, split_seed(seed, 13));

        let mut serial = EventNet::new(&spec);
        serial.threads = 1;
        let mut spikes = Vec::new();
        for inj in &sched {
            spikes.push(serial.tick(inj).to_vec());
        }
        serial.flush();

        for threads in [2usize, 8] {
            let mut par = EventNet::new(&spec);
            par.threads = threads;
            for (t, inj) in sched.iter().enumerate() {
                prop_assert_eq!(
                    par.tick(inj),
                    &spikes[t][..],
                    "fire queue depends on thread count {} at tick {} (seed {})",
                    threads, t, seed
                );
            }
            par.flush();
            for j in 0..neurons {
                prop_assert_eq!(
                    par.potentials()[j].to_bits(),
                    serial.potentials()[j].to_bits(),
                    "potential bits depend on thread count {} (neuron {}, seed {})",
                    threads, j, seed
                );
            }
            prop_assert_eq!(
                par.synapses().levels_flat(),
                serial.synapses().levels_flat(),
                "synapse levels depend on thread count {} (seed {})", threads, seed
            );
        }
    }
}
