//! **Event-driven SNN probe** — the headline benchmark of the sparse
//! engine (`snn::sparse::EventNet`). Three campaigns in one unified
//! `neuropulsim-bench/v1` report:
//!
//! 1. **matched sizes** — the event engine vs a dense `O(N²)` sweep
//!    ([`DenseSweep`]) on identical specs and injection schedules
//!    (bit-identity is re-checked first), yielding the
//!    `speedup_vs_dense/*` derived entries;
//! 2. **million-neuron scale** — ≥1M neurons at sparse activity,
//!    yielding `ticks_per_s` at the headline activity;
//! 3. **activity ladder** — the same million-neuron network driven at
//!    0.5% / 2% / 5% firing, whose per-tick costs show the engine
//!    scales with the firing count, not with `N * M`
//!    (`scaling_tick_cost_ratio` ≈ the event ratio, far from the dense
//!    engine's flat 1.0). That ratio is paired in process: 5% and 0.5%
//!    tick blocks alternate on two networks of their own.
//!
//! The committed `BENCH_snn.json` baseline is regenerated with
//! `cargo run --release --bin snn_bench > BENCH_snn.json`; CI fails on
//! a >10% `norm` regression and re-asserts the speedup/scaling floors.
//!
//! Usage: `snn_bench [--quick]` (`--quick` drops the million-neuron
//! campaigns to 262144 neurons for smoke runs).

use neuropulsim_bench::runner::Runner;
use neuropulsim_linalg::parallel::{available_threads, split_seed};
use neuropulsim_snn::neuron::lif_update;
use neuropulsim_snn::sparse::{EventNet, NetSpec, PcmWeightTable, SynapseArray};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Median repetitions per measurement.
const REPS: usize = 5;
/// Ticks per measured repetition.
const TICKS: usize = 10;
/// Synaptic fan-out per neuron.
const FANOUT: usize = 16;
/// Firing threshold — high enough that propagated drive alone rarely
/// fires, so the injection schedule controls the activity level.
const THRESHOLD: f64 = 4.0;

fn spec(neurons: usize) -> NetSpec {
    let mut spec = NetSpec::random(17, neurons, FANOUT, 16, false);
    spec.threshold = THRESHOLD;
    spec
}

/// Pre-generated injection schedule: each tick kicks `k` pseudo-random
/// neurons hard enough to fire immediately.
fn schedule(spec: &NetSpec, ticks: usize, k: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
    let kick = 1.5 * spec.threshold / spec.dt;
    (0..ticks)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, t as u64));
            (0..k)
                .map(|_| (rng.gen_range(0..spec.neurons as u32), kick))
                .collect()
        })
        .collect()
}

/// The matched dense baseline: every tick walks the whole source-major
/// `N x N` weight matrix, then steps every neuron with the same
/// [`lif_update`] the event engine uses — `O(N²)` work whatever the
/// activity. Each target's drive accumulates in ascending source order
/// (adding `+0.0` for absent or silent edges is exact), as in the event
/// engine, so the two agree bit for bit. The weights are frozen, so it
/// runs non-plastic specs only.
struct DenseSweep {
    tau: f64,
    threshold: f64,
    refractory: f64,
    dt: f64,
    /// Source-major dense weights: `w[src * n + tgt]`.
    w: Vec<f64>,
    /// 1.0 where the neuron fired last tick, else 0.0.
    fired_mask: Vec<f64>,
    v: Vec<f64>,
    refr_left: Vec<f64>,
    drive: Vec<f64>,
    fired: Vec<u32>,
}

impl DenseSweep {
    fn new(spec: &NetSpec) -> Self {
        assert!(!spec.plastic, "the dense sweep has no plasticity");
        let n = spec.neurons;
        let table = PcmWeightTable::new(spec.material, spec.levels);
        let syn = SynapseArray::new(n, &spec.edges, &spec.init_levels, table);
        let mut w = vec![0.0; n * n];
        for s in 0..n as u32 {
            let (tgts, ws) = syn.row(s);
            for (&t, &wt) in tgts.iter().zip(ws) {
                w[s as usize * n + t as usize] = wt;
            }
        }
        DenseSweep {
            tau: spec.tau,
            threshold: spec.threshold,
            refractory: spec.refractory,
            dt: spec.dt,
            w,
            fired_mask: vec![0.0; n],
            v: vec![0.0; n],
            refr_left: vec![0.0; n],
            drive: vec![0.0; n],
            fired: Vec::new(),
        }
    }

    /// Advances one tick; returns the fired neurons, ascending.
    fn tick(&mut self, injections: &[(u32, f64)]) -> &[u32] {
        let n = self.v.len();
        self.drive.fill(0.0);
        for s in 0..n {
            let f = self.fired_mask[s];
            let row = &self.w[s * n..(s + 1) * n];
            for (d, &w) in self.drive.iter_mut().zip(row) {
                *d += w * f;
            }
        }
        for &(j, amount) in injections {
            self.drive[j as usize] += amount;
        }
        let mut fired = Vec::new();
        for j in 0..n {
            if lif_update(
                &mut self.v[j],
                &mut self.refr_left[j],
                self.tau,
                self.threshold,
                self.refractory,
                self.drive[j],
                self.dt,
            ) {
                fired.push(j as u32);
            }
        }
        for &j in &self.fired {
            self.fired_mask[j as usize] = 0.0;
        }
        for &j in &fired {
            self.fired_mask[j as usize] = 1.0;
        }
        self.fired = fired;
        &self.fired
    }
}

/// Re-checks event/dense bit-identity on a matched workload before any
/// timing. Returns total spikes (identical across engines by then).
fn check_identity(n: usize, k: usize) -> u64 {
    let spec = spec(n);
    let schedule = schedule(&spec, 30, k, 23);
    let mut ev = EventNet::new(&spec);
    ev.threads = available_threads();
    let mut dn = DenseSweep::new(&spec);
    let mut spikes = 0u64;
    for inj in &schedule {
        let fe = ev.tick(inj).to_vec();
        let fd = dn.tick(inj).to_vec();
        assert_eq!(fe, fd, "event vs dense fire queue diverged at n={n}");
        spikes += fe.len() as u64;
    }
    ev.flush();
    for j in 0..n {
        assert_eq!(
            ev.potentials()[j].to_bits(),
            dn.v[j].to_bits(),
            "event vs dense potential bits diverged at n={n} neuron {j}"
        );
    }
    spikes
}

/// Back-to-back pairs behind [`paired_tick_cost_ratio`].
const PAIRS: usize = 15;

/// Median over [`PAIRS`] of the time of [`TICKS`] ticks at 5% activity
/// over the time of [`TICKS`] ticks at 0.5%, the two blocks run back to
/// back. Each activity drives its own [`EventNet`], so each keeps its
/// own state, and a host speed phase moves both sides of a pair alike.
fn paired_tick_cost_ratio(sp: &NetSpec, threads: usize) -> f64 {
    let mut sides: Vec<_> = [50usize, 5]
        .into_iter()
        .map(|permille| {
            let sched = schedule(sp, TICKS * (REPS + 1), sp.neurons * permille / 1000, 41);
            let mut net = EventNet::new(sp);
            net.threads = threads;
            (net, sched, 0usize)
        })
        .collect();
    let block = |(net, sched, cursor): &mut (EventNet, Vec<Vec<(u32, f64)>>, usize)| {
        let t0 = Instant::now();
        for _ in 0..TICKS {
            net.tick(&sched[*cursor % sched.len()]);
            *cursor += 1;
        }
        t0.elapsed().as_secs_f64()
    };
    for side in sides.iter_mut() {
        block(side);
    }
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let act5 = block(&mut sides[0]);
            act5 / block(&mut sides[1])
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let big_n: usize = if quick { 1 << 18 } else { 1 << 20 };
    let mut runner = Runner::new("snn_bench");
    let threads = available_threads();

    // ---- 1. matched sizes: event vs dense, identical workloads ------
    let matched_sizes = [1024usize, 4096];
    let mut matched_payload = Vec::new();
    for &n in &matched_sizes {
        let k = (n / 50).max(1); // ~2% injected activity
        let spikes = check_identity(n, k);
        matched_payload.push(format!(
            "{{\"n\": {n}, \"injected_per_tick\": {k}, \"spikes_30_ticks\": {spikes}}}"
        ));

        let sp = spec(n);
        let sched = schedule(&sp, TICKS * (REPS + 1), k, 31);
        let mut ev = EventNet::new(&sp);
        ev.threads = threads;
        let mut dn = DenseSweep::new(&sp);
        let mut ec = 0usize;
        for _ in 0..TICKS {
            ev.tick(&sched[ec % sched.len()]);
            ec += 1;
        }
        let ev_ns = runner.measure_with_meta(
            &format!("snn_tick/event/n{n}"),
            REPS,
            &[("ticks", format!("{TICKS}")), ("injected", format!("{k}"))],
            || {
                for _ in 0..TICKS {
                    ev.tick(&sched[ec % sched.len()]);
                    ec += 1;
                }
            },
        );
        let mut dc = 0usize;
        for _ in 0..TICKS {
            dn.tick(&sched[dc % sched.len()]);
            dc += 1;
        }
        let dn_ns = runner.measure_with_meta(
            &format!("snn_tick/dense/n{n}"),
            REPS,
            &[("ticks", format!("{TICKS}")), ("injected", format!("{k}"))],
            || {
                for _ in 0..TICKS {
                    dn.tick(&sched[dc % sched.len()]);
                    dc += 1;
                }
            },
        );
        runner.derived(
            &format!("speedup_vs_dense/n{n}"),
            format!("{:.2}", dn_ns / ev_ns),
        );
    }

    // ---- 2 + 3. million-neuron scale and the activity ladder --------
    let sp = spec(big_n);
    let mut net = EventNet::new(&sp);
    net.threads = threads;
    let mut ladder_payload = Vec::new();
    for (label, permille) in [("act0p5", 5usize), ("act2", 20), ("act5", 50)] {
        let k = big_n * permille / 1000;
        let sched = schedule(&sp, TICKS * (REPS + 1), k, 41);
        let mut cursor = 0usize;
        for _ in 0..TICKS {
            net.tick(&sched[cursor % sched.len()]);
            cursor += 1;
        }
        let s0 = net.total_stats();
        let t0 = net.tick_count();
        let median_ns = runner.measure_with_meta(
            &format!("snn_tick/event/n{big_n}_{label}"),
            REPS,
            &[("ticks", format!("{TICKS}")), ("injected", format!("{k}"))],
            || {
                for _ in 0..TICKS {
                    net.tick(&sched[cursor % sched.len()]);
                    cursor += 1;
                }
            },
        );
        let s1 = net.total_stats();
        let ticks_run = (net.tick_count() - t0) as f64;
        let fired_per_tick = (s1.fired - s0.fired) as f64 / ticks_run;
        let events_per_tick = (s1.events_delivered - s0.events_delivered) as f64 / ticks_run;
        let ns_per_tick = median_ns / TICKS as f64;
        runner.derived(
            &format!("ticks_per_s/n{big_n}_{label}"),
            format!("{:.1}", 1e9 / ns_per_tick),
        );
        runner.derived(
            &format!("ns_per_event/n{big_n}_{label}"),
            format!("{:.1}", ns_per_tick / events_per_tick.max(1.0)),
        );
        ladder_payload.push(format!(
            "{{\"label\": \"{label}\", \"injected_per_tick\": {k}, \
             \"fired_per_tick\": {fired_per_tick:.0}, \
             \"events_per_tick\": {events_per_tick:.0}, \
             \"activity_pct\": {:.2}}}",
            100.0 * fired_per_tick / big_n as f64
        ));
    }
    drop(net);
    // Event-driven evidence: tick cost at 5% vs 0.5% activity. A dense
    // O(N*M) sweep would sit at 1.0; event-driven tracks the ~10x event
    // ratio.
    runner.derived(
        "scaling_tick_cost_ratio",
        format!("{:.2}", paired_tick_cost_ratio(&sp, threads)),
    );

    runner.payload(format!(
        "{{\"neurons\": {big_n}, \"fanout\": {FANOUT}, \"quick\": {quick}, \
         \"matched_bit_identical\": true, \"matched\": [{}], \"ladder\": [{}]}}",
        matched_payload.join(", "),
        ladder_payload.join(", ")
    ));
    print!("{}", runner.to_json());
}
