//! Event-driven sparse SNN engine: fire-queue propagation over CSR
//! synapses, scaling to millions of neurons.
//!
//! The per-tick pipeline (modeled on burst-engine NPU designs):
//!
//! 1. **propagate** — walk only the outgoing CSR rows of the neurons
//!    that fired last tick, accumulating drive into a *fire-candidate
//!    list* (the touched targets, plus externally injected neurons);
//! 2. **update** — step only the candidates: each one first *lazily
//!    catches up* the leak/refractory ticks it slept through, then
//!    integrates this tick's drive; the ones that cross threshold form
//!    the tick's *fire queue* (sorted by index — the canonical order);
//! 3. **plasticity** — pairwise STDP on the touched synapses only,
//!    driven by the *fire ledger* (last-fire times): potentiation over
//!    each firing neuron's incoming edges, depression over its outgoing
//!    edges, quantized to PCM programming pulses;
//! 4. **ledger** — record the queue's fire times and swap it in as the
//!    next tick's propagation source.
//!
//! Quiet neurons cost **zero** work per tick. A neuron that slept `k`
//! ticks replays exactly `k` zero-input [`lif_update`] steps when next
//! touched, so the engine is *bit-identical* to an eager dense stepper
//! — and the replay loop exits early once the state reaches the exact
//! fixed point (`v == +0.0`, not refractory), which every spiked neuron
//! reaches after its refractory window.
//!
//! Determinism: results are a pure function of the spec and input
//! schedule, never of [`EventNet::threads`]. Workers own contiguous
//! target ranges, every worker walks the fire queue in the same sorted
//! order, and each target's drive therefore accumulates in ascending
//! source order regardless of the partition — the order an eager
//! stepper scanning a sorted edge list uses.
//!
//! The eager reference is `oracle::snn_ref::RefSparseNet`, held bit for
//! bit against this engine by the `snn_sparse` conformance domain and
//! `tests/snn_sparse_props.rs`; `snn_bench` times the engine against
//! its own dense `O(N²)` sweep.

use crate::neuron::{integrate, lif_update};
use crate::stdp::StdpRule;
use crate::synapse::PcmSynapse;
use neuropulsim_linalg::parallel::split_seed;
use neuropulsim_photonics::pcm::PcmMaterial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Shared PCM weight model for a whole synapse population: one weight
/// per quantized level plus per-transition programming costs, all
/// derived from the ground-truth [`PcmSynapse`] material model.
///
/// A [`SynapseArray`] stores one byte of level per edge and reads
/// weights out of this table, so a million-synapse population pays the
/// complex-index evaluation only `levels` times, not per edge.
#[derive(Debug, Clone, PartialEq)]
pub struct PcmWeightTable {
    material: PcmMaterial,
    levels: u32,
    weights: Vec<f64>,
    /// Energy \[J\] of a one-level depression (`l -> l + 1`).
    depress_energy: Vec<f64>,
    /// Energy \[J\] of a one-level potentiation (`l -> l - 1`, indexed
    /// by the *starting* level; entry 0 is unused).
    potentiate_energy: Vec<f64>,
}

impl PcmWeightTable {
    /// Builds the table by walking a probe [`PcmSynapse`] through every
    /// level, so weights and per-step programming costs match the cell
    /// model exactly.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is outside `[2, 256]` (edge levels are stored
    /// as `u8`).
    pub fn new(material: PcmMaterial, levels: u32) -> Self {
        assert!(
            (2..=256).contains(&levels),
            "levels {levels} outside [2, 256]"
        );
        let mut probe = PcmSynapse::with_config(material, levels);
        let mut weights = Vec::with_capacity(levels as usize);
        weights.push(probe.weight());
        let depress_energy = (1..levels)
            .map(|_| {
                let e0 = probe.programming_energy();
                probe.depress();
                weights.push(probe.weight());
                probe.programming_energy() - e0
            })
            .collect();
        let mut potentiate_energy = vec![0.0; levels as usize];
        for l in (1..levels as usize).rev() {
            let e0 = probe.programming_energy();
            probe.potentiate();
            potentiate_energy[l] = probe.programming_energy() - e0;
        }
        PcmWeightTable {
            material,
            levels,
            weights,
            depress_energy,
            potentiate_energy,
        }
    }

    /// The material the table was built for.
    pub fn material(&self) -> PcmMaterial {
        self.material
    }

    /// Number of programmable levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Weight of a level (0 = amorphous = strongest).
    pub fn weight(&self, level: u8) -> f64 {
        self.weights[level as usize]
    }

    /// The whole per-level weight grid.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-level weights after `elapsed_s` seconds of retention drift
    /// with coefficient `nu` — each level's cell drifts off its
    /// quantized state exactly as [`PcmSynapse::apply_drift`] would.
    pub(crate) fn drifted_weights(&self, elapsed_s: f64, nu: f64) -> Vec<f64> {
        (0..self.levels)
            .map(|l| {
                let mut s = PcmSynapse::with_config(self.material, self.levels);
                for _ in 0..l {
                    s.depress();
                }
                s.apply_drift(elapsed_s, nu);
                s.weight()
            })
            .collect()
    }
}

/// Flat CSR synapse storage indexed by source neuron, with a CSC
/// mirror for the potentiation walk, level-quantized PCM weights and
/// programming-cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SynapseArray {
    neurons: usize,
    /// CSR row offsets by source: edges of source `s` live at
    /// `offsets[s]..offsets[s + 1]`.
    offsets: Vec<u32>,
    /// Target neuron per edge, ascending within each row.
    targets: Vec<u32>,
    /// Quantized PCM level per edge (0 = strongest weight).
    levels: Vec<u8>,
    /// Cached weight per edge (`table.weight(level)`, or a drifted
    /// value until the edge is next reprogrammed).
    weights: Vec<f64>,
    /// CSC column offsets by target.
    in_offsets: Vec<u32>,
    /// Source neuron per incoming edge, ascending within each column.
    in_sources: Vec<u32>,
    /// CSR edge index of each incoming edge.
    in_edges: Vec<u32>,
    table: PcmWeightTable,
    programming_energy: f64,
}

impl SynapseArray {
    /// Builds the array from an edge list. Self-loops and duplicate
    /// edges are dropped; `init_levels` assigns the starting level per
    /// *surviving* edge in `(source, target)`-sorted order (shorter
    /// slices repeat cyclically, an empty slice means level 0).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn new(
        neurons: usize,
        edges: &[(u32, u32)],
        init_levels: &[u8],
        table: PcmWeightTable,
    ) -> Self {
        let mut sorted: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(s, t)| s != t)
            .inspect(|&(s, t)| {
                assert!(
                    (s as usize) < neurons && (t as usize) < neurons,
                    "edge ({s}, {t}) out of range for {neurons} neurons"
                );
            })
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let count = sorted.len();
        let max_level = (table.levels() - 1) as u8;

        let mut offsets = vec![0u32; neurons + 1];
        let mut targets = Vec::with_capacity(count);
        let mut levels = Vec::with_capacity(count);
        let mut weights = Vec::with_capacity(count);
        for (e, &(s, t)) in sorted.iter().enumerate() {
            offsets[s as usize + 1] += 1;
            targets.push(t);
            let level = if init_levels.is_empty() {
                0
            } else {
                init_levels[e % init_levels.len()].min(max_level)
            };
            levels.push(level);
            weights.push(table.weight(level));
        }
        for s in 0..neurons {
            offsets[s + 1] += offsets[s];
        }

        // CSC mirror: counting sort by target keeps sources ascending
        // within each column because the edge scan is source-ordered.
        let mut in_offsets = vec![0u32; neurons + 1];
        for &t in &targets {
            in_offsets[t as usize + 1] += 1;
        }
        for t in 0..neurons {
            in_offsets[t + 1] += in_offsets[t];
        }
        let mut cursor: Vec<u32> = in_offsets[..neurons].to_vec();
        let mut in_sources = vec![0u32; count];
        let mut in_edges = vec![0u32; count];
        for (e, &(s, t)) in sorted.iter().enumerate() {
            let slot = cursor[t as usize] as usize;
            in_sources[slot] = s;
            in_edges[slot] = e as u32;
            cursor[t as usize] += 1;
        }

        SynapseArray {
            neurons,
            offsets,
            targets,
            levels,
            weights,
            in_offsets,
            in_sources,
            in_edges,
            table,
            programming_energy: 0.0,
        }
    }

    /// Number of neurons the array spans.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Outgoing row of `source`: `(targets, weights)`, targets
    /// ascending.
    pub fn row(&self, source: u32) -> (&[u32], &[f64]) {
        let a = self.offsets[source as usize] as usize;
        let b = self.offsets[source as usize + 1] as usize;
        (&self.targets[a..b], &self.weights[a..b])
    }

    /// Incoming column of `target`: `(sources, edge indices)`, sources
    /// ascending.
    pub fn incoming(&self, target: u32) -> (&[u32], &[u32]) {
        let a = self.in_offsets[target as usize] as usize;
        let b = self.in_offsets[target as usize + 1] as usize;
        (&self.in_sources[a..b], &self.in_edges[a..b])
    }

    /// Current weight of edge `e`.
    pub fn weight(&self, e: u32) -> f64 {
        self.weights[e as usize]
    }

    /// Current level of edge `e`.
    pub fn level(&self, e: u32) -> u8 {
        self.levels[e as usize]
    }

    /// All cached edge weights, CSR order.
    pub fn weights_flat(&self) -> &[f64] {
        &self.weights
    }

    /// All edge levels, CSR order.
    pub fn levels_flat(&self) -> &[u8] {
        &self.levels
    }

    /// The shared weight table.
    pub fn table(&self) -> &PcmWeightTable {
        &self.table
    }

    /// Total programming energy spent on plasticity so far \[J\].
    pub fn programming_energy(&self) -> f64 {
        self.programming_energy
    }

    /// Applies `steps` signed plasticity steps to edge `e` (positive
    /// potentiates, as [`PcmSynapse::potentiate`] does once per step;
    /// negative depresses), walking one level at a time so saturation
    /// and per-step programming costs match the cell model exactly.
    /// Reprogramming snaps a drifted weight back onto the quantized
    /// grid.
    pub(crate) fn apply_steps(&mut self, e: u32, steps: i32) {
        if steps == 0 {
            return;
        }
        let e = e as usize;
        let mut level = self.levels[e];
        let max_level = (self.table.levels - 1) as u8;
        for _ in 0..steps.unsigned_abs() {
            if steps > 0 {
                if level == 0 {
                    break;
                }
                level -= 1;
                self.programming_energy += self.table.potentiate_energy[level as usize + 1];
            } else {
                if level == max_level {
                    break;
                }
                self.programming_energy += self.table.depress_energy[level as usize];
                level += 1;
            }
        }
        self.levels[e] = level;
        self.weights[e] = self.table.weights[level as usize];
    }

    /// Applies retention drift to every synapse at once: each edge's
    /// cached weight moves to its level's drifted value (the per-level
    /// cells age identically) until the edge is next reprogrammed.
    pub fn apply_drift(&mut self, elapsed_s: f64, nu: f64) {
        let drifted = self.table.drifted_weights(elapsed_s, nu);
        for (w, &l) in self.weights.iter_mut().zip(&self.levels) {
            *w = drifted[l as usize];
        }
    }
}

/// A complete, engine-independent network description: the engine and
/// the oracle reference built from the same spec start bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Neuron count.
    pub neurons: usize,
    /// Membrane time constant (must exceed `dt` so the leak is a
    /// contraction and quiet neurons can never fire).
    pub tau: f64,
    /// Firing threshold (must be positive).
    pub threshold: f64,
    /// Refractory period, in time units.
    pub refractory: f64,
    /// Timestep length.
    pub dt: f64,
    /// PCM material of the synapses.
    pub material: PcmMaterial,
    /// Programmable levels per synapse.
    pub levels: u32,
    /// STDP window.
    pub rule: StdpRule,
    /// Enable plasticity.
    pub plastic: bool,
    /// Directed edges `(source, target)`.
    pub edges: Vec<(u32, u32)>,
    /// Initial level per edge (see [`SynapseArray::new`]).
    pub init_levels: Vec<u8>,
    /// The winner-take-all group, if any: when members cross threshold
    /// in one tick, only the largest margin `v − threshold` fires, and
    /// every other member stays refractory until [`EventNet::reset`].
    pub wta_group: Option<Range<u32>>,
    /// With plasticity, a firing neuron also depresses by one level
    /// each incoming synapse whose source has not fired since the last
    /// reset.
    pub absence_depression: bool,
}

impl NetSpec {
    /// A random sparse network: every neuron gets `fanout` outgoing
    /// synapses to distinct other neurons, with random initial levels.
    /// Edge generation derives per-source RNGs via
    /// [`split_seed`], so the graph is a pure function of `(seed,
    /// neurons, fanout, levels)`.
    ///
    /// # Panics
    ///
    /// Panics if `neurons < 2` or `fanout >= neurons`.
    pub fn random(seed: u64, neurons: usize, fanout: usize, levels: u32, plastic: bool) -> Self {
        assert!(neurons >= 2, "need at least 2 neurons");
        assert!(fanout < neurons, "fanout {fanout} >= neurons {neurons}");
        let mut edges = Vec::with_capacity(neurons * fanout);
        let mut init_levels = Vec::with_capacity(neurons * fanout);
        for src in 0..neurons {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, src as u64));
            let mut seen = std::collections::HashSet::with_capacity(fanout);
            while seen.len() < fanout {
                let tgt = rng.gen_range(0..neurons as u32);
                if tgt as usize != src && seen.insert(tgt) {
                    edges.push((src as u32, tgt));
                    init_levels.push(rng.gen_range(0..levels) as u8);
                }
            }
        }
        NetSpec {
            neurons,
            tau: 8.0,
            threshold: 1.0,
            refractory: 2.0,
            dt: 0.5,
            material: PcmMaterial::Gst225,
            levels,
            rule: StdpRule::default(),
            plastic,
            edges,
            init_levels,
            wta_group: None,
            absence_depression: false,
        }
    }

    fn validate(&self) {
        assert!(self.neurons >= 1, "empty network");
        assert!(self.neurons <= u32::MAX as usize, "neuron index overflow");
        assert!(self.dt > 0.0, "dt must be positive");
        assert!(
            self.tau > self.dt,
            "tau {} must exceed dt {} (leak must contract)",
            self.tau,
            self.dt
        );
        assert!(self.threshold > 0.0, "threshold must be positive");
        assert!(self.refractory >= 0.0, "refractory must be non-negative");
        if let Some(g) = &self.wta_group {
            assert!(
                g.start <= g.end && g.end as usize <= self.neurons,
                "WTA group {g:?} outside {} neurons",
                self.neurons
            );
        }
    }
}

/// Pairwise STDP over the touched synapses of one tick's fire queue.
///
/// Canonical order (what the oracle reference also implements): first a
/// *potentiation phase* — for each firing neuron in queue order, every
/// incoming edge whose source has fired pairs `(t - t_pre)`, and with
/// `absence_depression` every other incoming edge loses one level —
/// then a *depression phase* — for each firing neuron, every outgoing
/// edge whose target has fired pairs `(t_post - t)`. The fire ledger is
/// updated only after both phases, so same-tick spikes pair against
/// strictly earlier partners.
fn stdp_tick(
    syn: &mut SynapseArray,
    fired: &[u32],
    last_fire: &[i64],
    t: u32,
    dt: f64,
    rule: &StdpRule,
    absence_depression: bool,
) {
    let levels = syn.table().levels();
    for &n in fired {
        let (sources, edges) = syn.incoming(n);
        // Split borrows: collect the (edge, steps) pairs before the
        // mutable apply; columns are short (fan-in) so this stays cheap.
        let pending: Vec<(u32, i32)> = sources
            .iter()
            .zip(edges)
            .filter_map(|(&i, &e)| {
                let tp = last_fire[i as usize];
                if tp >= 0 {
                    let delta = (t as f64 - tp as f64) * dt;
                    Some((e, rule.steps(delta, levels)))
                } else {
                    absence_depression.then_some((e, -1))
                }
            })
            .collect();
        for (e, steps) in pending {
            syn.apply_steps(e, steps);
        }
    }
    for &n in fired {
        let (a, b) = (
            syn.offsets[n as usize] as usize,
            syn.offsets[n as usize + 1] as usize,
        );
        for e in a..b {
            let j = syn.targets[e];
            let tp = last_fire[j as usize];
            if tp >= 0 {
                let delta = (tp as f64 - t as f64) * dt;
                let steps = rule.steps(delta, levels);
                syn.apply_steps(e as u32, steps);
            }
        }
    }
}

/// Per-tick activity counters of the event-driven engine — the
/// evidence that cost scales with firing, not with `N * M`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Synaptic events delivered (fire-queue rows walked, edge by
    /// edge).
    pub events_delivered: u64,
    /// Candidate neurons stepped.
    pub candidates: u64,
    /// Lazy catch-up steps replayed.
    pub catch_up_steps: u64,
    /// Neurons that fired.
    pub fired: u64,
}

impl TickStats {
    fn add(&mut self, other: TickStats) {
        self.events_delivered += other.events_delivered;
        self.candidates += other.candidates;
        self.catch_up_steps += other.catch_up_steps;
        self.fired += other.fired;
    }
}

/// The event-driven engine. See the module docs for the pipeline; the
/// public contract is:
///
/// - [`EventNet::tick`] costs `O(fired * fanout + candidates)`, never
///   `O(neurons)`;
/// - results are bit-identical to an eager dense stepper and
///   thread-count invariant;
/// - [`EventNet::flush`] settles every neuron to the current tick so
///   whole-state comparisons are meaningful.
#[derive(Debug, Clone)]
pub struct EventNet {
    tau: f64,
    threshold: f64,
    refractory: f64,
    dt: f64,
    rule: StdpRule,
    plastic: bool,
    wta_group: Option<Range<u32>>,
    absence_depression: bool,
    /// Worker count for propagation + candidate update (1 = serial). A
    /// tick with less than [`SERIAL_TICK_WORK`] runs serially whatever
    /// the count. Any value yields bit-identical results.
    pub threads: usize,
    syn: SynapseArray,
    v: Vec<f64>,
    refr_left: Vec<f64>,
    /// Per-neuron threshold offsets; empty until the first
    /// [`EventNet::set_threshold_offset`].
    threshold_offset: Vec<f64>,
    /// Ticks already applied to each neuron's state (lazy-leak clock).
    updated_through: Vec<u32>,
    drive: Vec<f64>,
    /// `stamp[j] == tick + 1` marks `drive[j]` as valid this tick.
    stamp: Vec<u32>,
    /// Fire ledger: last fire tick per neuron (-1 = never).
    last_fire: Vec<i64>,
    fired_prev: Vec<u32>,
    tick: u32,
    stats: TickStats,
    totals: TickStats,
}

/// Work per tick — synapses of the fired rows plus injections — below
/// which [`EventNet::tick`] runs serially: spawning and joining scoped
/// workers costs tens of microseconds, more than a tick this small.
pub const SERIAL_TICK_WORK: usize = 4096;

/// One worker's mutable view of the neuron state, split at contiguous
/// index-range boundaries so scoped threads can own disjoint targets.
struct RangeView<'a> {
    lo: usize,
    hi: usize,
    v: &'a mut [f64],
    refr_left: &'a mut [f64],
    updated_through: &'a mut [u32],
    drive: &'a mut [f64],
    stamp: &'a mut [u32],
    /// Threshold offsets of the range (empty when the net has none).
    offsets: &'a [f64],
}

/// A WTA group member that fired this tick, with its margin
/// `v − threshold` at the crossing.
type Contender = (u32, f64);

/// Propagate + update for one target range. Returns the sorted fired
/// list for the range, its `wta` group members among them, and its
/// activity counters.
#[allow(clippy::too_many_arguments)]
fn tick_range(
    view: &mut RangeView<'_>,
    syn: &SynapseArray,
    fired_prev: &[u32],
    injections: &[(u32, f64)],
    t: u32,
    tau: f64,
    threshold: f64,
    refractory: f64,
    dt: f64,
    wta: Option<&Range<u32>>,
) -> (Vec<u32>, Vec<Contender>, TickStats) {
    let (lo, hi) = (view.lo, view.hi);
    let mut stats = TickStats::default();
    let mut touched: Vec<u32> = Vec::new();
    // 1. Propagation: walk each fired row's sub-range inside [lo, hi).
    //    Queue order is ascending, so each target's drive accumulates
    //    in ascending-source order for ANY partition.
    for &src in fired_prev {
        let (tgts, ws) = syn.row(src);
        let a = tgts.partition_point(|&x| (x as usize) < lo);
        let b = a + tgts[a..].partition_point(|&x| (x as usize) < hi);
        for k in a..b {
            let jl = tgts[k] as usize - lo;
            if view.stamp[jl] != t + 1 {
                view.stamp[jl] = t + 1;
                view.drive[jl] = 0.0;
                touched.push(tgts[k]);
            }
            view.drive[jl] += ws[k];
            stats.events_delivered += 1;
        }
    }
    // 2. External injections, in schedule order.
    for &(j, amount) in injections {
        let j = j as usize;
        if j < lo || j >= hi {
            continue;
        }
        let jl = j - lo;
        if view.stamp[jl] != t + 1 {
            view.stamp[jl] = t + 1;
            view.drive[jl] = 0.0;
            touched.push(j as u32);
        }
        view.drive[jl] += amount;
    }
    // 3. Candidate update: lazy catch-up, then the driven step.
    touched.sort_unstable();
    let mut fired = Vec::new();
    let mut contenders = Vec::new();
    for &ju in &touched {
        let jl = ju as usize - lo;
        let threshold = match view.offsets {
            [] => threshold,
            offsets => threshold + offsets[jl],
        };
        let mut k = view.updated_through[jl];
        while k < t {
            // Exact fixed point: +0.0 and out of refractory means every
            // remaining zero-input step is the identity.
            if view.v[jl].to_bits() == 0 && view.refr_left[jl] <= 0.0 {
                break;
            }
            lif_update(
                &mut view.v[jl],
                &mut view.refr_left[jl],
                tau,
                threshold,
                refractory,
                0.0,
                dt,
            );
            stats.catch_up_steps += 1;
            k += 1;
        }
        let v0 = view.v[jl];
        let f = lif_update(
            &mut view.v[jl],
            &mut view.refr_left[jl],
            tau,
            threshold,
            refractory,
            view.drive[jl],
            dt,
        );
        view.updated_through[jl] = t + 1;
        stats.candidates += 1;
        if f {
            fired.push(ju);
            if wta.is_some_and(|g| g.contains(&ju)) {
                contenders.push((ju, integrate(v0, view.drive[jl], tau, dt) - threshold));
            }
        }
    }
    stats.fired = fired.len() as u64;
    (fired, contenders, stats)
}

impl EventNet {
    /// Builds the engine from a spec.
    pub fn new(spec: &NetSpec) -> Self {
        spec.validate();
        let table = PcmWeightTable::new(spec.material, spec.levels);
        let syn = SynapseArray::new(spec.neurons, &spec.edges, &spec.init_levels, table);
        let n = spec.neurons;
        EventNet {
            tau: spec.tau,
            threshold: spec.threshold,
            refractory: spec.refractory,
            dt: spec.dt,
            rule: spec.rule,
            plastic: spec.plastic,
            wta_group: spec.wta_group.clone(),
            absence_depression: spec.absence_depression,
            threads: 1,
            syn,
            v: vec![0.0; n],
            refr_left: vec![0.0; n],
            threshold_offset: Vec::new(),
            updated_through: vec![0; n],
            drive: vec![0.0; n],
            stamp: vec![0; n],
            last_fire: vec![-1; n],
            fired_prev: Vec::new(),
            tick: 0,
            stats: TickStats::default(),
            totals: TickStats::default(),
        }
    }

    /// Neuron count.
    pub fn neurons(&self) -> usize {
        self.v.len()
    }

    /// Current tick.
    pub fn tick_count(&self) -> u32 {
        self.tick
    }

    /// The synapse array.
    pub fn synapses(&self) -> &SynapseArray {
        &self.syn
    }

    /// Counters accumulated since construction.
    pub fn total_stats(&self) -> TickStats {
        self.totals
    }

    /// Fire ledger: last fire tick per neuron (-1 = never fired).
    pub fn fire_ledger(&self) -> &[i64] {
        &self.last_fire
    }

    /// Membrane potential of neuron `j` *as of the last tick it was
    /// touched* — call [`EventNet::flush`] first for a settled view.
    pub fn potential(&self, j: usize) -> f64 {
        self.v[j]
    }

    /// All membrane potentials (see [`EventNet::potential`]).
    pub fn potentials(&self) -> &[f64] {
        &self.v
    }

    /// Advances one tick: propagates last tick's fire queue through the
    /// CSR rows, integrates external `injections` (pairs of neuron
    /// index and drive), steps the candidates, settles the WTA group
    /// and applies STDP. Returns the neurons that fired this tick,
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics if an injection targets a neuron outside the network.
    pub fn tick(&mut self, injections: &[(u32, f64)]) -> &[u32] {
        let t = self.tick;
        let n = self.v.len();
        assert!(
            injections.iter().all(|&(j, _)| (j as usize) < n),
            "injection outside the {n}-neuron network"
        );
        let workers = self.tick_workers(injections);
        let wta = self.wta_group.as_ref();
        let mut fired: Vec<u32>;
        let mut contenders: Vec<Contender>;
        let mut stats = TickStats::default();
        if workers <= 1 {
            let mut view = RangeView {
                lo: 0,
                hi: n,
                v: &mut self.v,
                refr_left: &mut self.refr_left,
                updated_through: &mut self.updated_through,
                drive: &mut self.drive,
                stamp: &mut self.stamp,
                offsets: &self.threshold_offset,
            };
            let (f, c, s) = tick_range(
                &mut view,
                &self.syn,
                &self.fired_prev,
                injections,
                t,
                self.tau,
                self.threshold,
                self.refractory,
                self.dt,
                wta,
            );
            fired = f;
            contenders = c;
            stats.add(s);
        } else {
            // Contiguous ranges of `n / workers` neurons; the first
            // `n % workers` ranges take one extra, so the split depends
            // only on `n` and `workers`.
            let base = n / workers;
            let rem = n % workers;
            let mut views: Vec<RangeView<'_>> = Vec::with_capacity(workers);
            {
                let mut v_rest: &mut [f64] = &mut self.v;
                let mut r_rest: &mut [f64] = &mut self.refr_left;
                let mut u_rest: &mut [u32] = &mut self.updated_through;
                let mut d_rest: &mut [f64] = &mut self.drive;
                let mut s_rest: &mut [u32] = &mut self.stamp;
                let mut o_rest: &[f64] = &self.threshold_offset;
                let mut start = 0usize;
                for w in 0..workers {
                    let count = base + usize::from(w < rem);
                    let (v_c, v_t) = v_rest.split_at_mut(count);
                    let (r_c, r_t) = r_rest.split_at_mut(count);
                    let (u_c, u_t) = u_rest.split_at_mut(count);
                    let (d_c, d_t) = d_rest.split_at_mut(count);
                    let (s_c, s_t) = s_rest.split_at_mut(count);
                    let (o_c, o_t) = o_rest.split_at(count.min(o_rest.len()));
                    v_rest = v_t;
                    r_rest = r_t;
                    u_rest = u_t;
                    d_rest = d_t;
                    s_rest = s_t;
                    o_rest = o_t;
                    views.push(RangeView {
                        lo: start,
                        hi: start + count,
                        v: v_c,
                        refr_left: r_c,
                        updated_through: u_c,
                        drive: d_c,
                        stamp: s_c,
                        offsets: o_c,
                    });
                    start += count;
                }
            }
            let syn = &self.syn;
            let fired_prev = &self.fired_prev;
            let (tau, threshold, refractory, dt) =
                (self.tau, self.threshold, self.refractory, self.dt);
            let mut parts: Vec<(Vec<u32>, Vec<Contender>, TickStats)> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for mut view in views {
                    handles.push(scope.spawn(move || {
                        tick_range(
                            &mut view, syn, fired_prev, injections, t, tau, threshold, refractory,
                            dt, wta,
                        )
                    }));
                }
                for h in handles {
                    parts.push(h.join().expect("sparse tick worker panicked"));
                }
            });
            // Ranges are ascending and each part is sorted, so plain
            // concatenation yields the canonical ascending fire queue.
            fired = Vec::new();
            contenders = Vec::new();
            for (f, c, s) in parts {
                fired.extend(f);
                contenders.extend(c);
                stats.add(s);
            }
        }
        if !contenders.is_empty() {
            self.settle_wta(&mut fired, &contenders, t);
        }
        // 4. Plasticity on the touched synapses, then the ledger.
        if self.plastic && !fired.is_empty() {
            stdp_tick(
                &mut self.syn,
                &fired,
                &self.last_fire,
                t,
                self.dt,
                &self.rule,
                self.absence_depression,
            );
        }
        for &j in &fired {
            self.last_fire[j as usize] = t as i64;
        }
        self.stats = stats;
        self.totals.add(stats);
        self.fired_prev = fired;
        self.tick = t + 1;
        &self.fired_prev
    }

    /// Winner-take-all over the group members that crossed threshold in
    /// tick `t` (`contenders`, ascending): the largest margin keeps its
    /// spike (the lowest index on a tie), and every other member leaves
    /// the fire queue and is held at rest, refractory, until the next
    /// [`EventNet::reset`].
    fn settle_wta(&mut self, fired: &mut Vec<u32>, contenders: &[Contender], t: u32) {
        let group = self
            .wta_group
            .clone()
            .expect("contenders come from the group");
        let mut winner = contenders[0];
        for &c in &contenders[1..] {
            if c.1 > winner.1 {
                winner = c;
            }
        }
        fired.retain(|&j| j == winner.0 || !group.contains(&j));
        for k in group.filter(|&k| k != winner.0) {
            let k = k as usize;
            self.v[k] = 0.0;
            self.refr_left[k] = f64::INFINITY;
            self.updated_through[k] = t + 1;
        }
    }

    /// Starts a new trial: every potential, refractory window and
    /// fire-ledger entry returns to rest, and last tick's spikes no
    /// longer propagate. Synapse levels, threshold offsets and the tick
    /// count carry over.
    pub fn reset(&mut self) {
        self.v.fill(0.0);
        self.refr_left.fill(0.0);
        self.last_fire.fill(-1);
        self.fired_prev.clear();
    }

    /// Sets neuron `j`'s threshold offset: from the next tick it fires
    /// at `threshold + offset`. The offsets survive [`EventNet::reset`]
    /// and cost nothing until the first call.
    ///
    /// # Panics
    ///
    /// Panics unless neuron `j` is at rest (`v == 0`, as after a reset)
    /// — a lower threshold under a charged membrane would fire a neuron
    /// the engine does not step — and unless `threshold + offset` is
    /// positive.
    pub fn set_threshold_offset(&mut self, j: usize, offset: f64) {
        assert!(self.v[j] == 0.0, "neuron {j} must be at rest");
        assert!(
            self.threshold + offset > 0.0,
            "threshold + offset {offset} must be positive"
        );
        if self.threshold_offset.is_empty() {
            self.threshold_offset = vec![0.0; self.v.len()];
        }
        self.threshold_offset[j] = offset;
    }

    /// Workers the next [`EventNet::tick`] with `injections` runs on:
    /// 1 below [`SERIAL_TICK_WORK`], else `threads` (at most one per
    /// neuron). More than one means the tick takes the partitioned path.
    pub fn tick_workers(&self, injections: &[(u32, f64)]) -> usize {
        if self.tick_work(injections) < SERIAL_TICK_WORK {
            1
        } else {
            self.threads.max(1).min(self.v.len())
        }
    }

    /// The next tick's work: synapses of the fired rows plus
    /// `injections`, counted up to [`SERIAL_TICK_WORK`].
    fn tick_work(&self, injections: &[(u32, f64)]) -> usize {
        let mut work = injections.len();
        for &src in &self.fired_prev {
            if work >= SERIAL_TICK_WORK {
                break;
            }
            work += self.syn.row(src).0.len();
        }
        work
    }

    /// Replays every neuron's outstanding leak/refractory ticks so the
    /// whole state vector reflects the current tick (used before
    /// whole-state comparisons; quiet production runs never need it).
    pub fn flush(&mut self) {
        let t = self.tick;
        for j in 0..self.v.len() {
            let threshold = self.threshold + self.threshold_offset.get(j).unwrap_or(&0.0);
            let mut k = self.updated_through[j];
            while k < t {
                if self.v[j].to_bits() == 0 && self.refr_left[j] <= 0.0 {
                    break;
                }
                lif_update(
                    &mut self.v[j],
                    &mut self.refr_left[j],
                    self.tau,
                    threshold,
                    self.refractory,
                    0.0,
                    self.dt,
                );
                k += 1;
            }
            self.updated_through[j] = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(plastic: bool) -> NetSpec {
        let mut spec = NetSpec::random(11, 24, 4, 16, plastic);
        spec.threshold = 0.9;
        spec
    }

    /// A deterministic injection schedule that reliably elicits spikes.
    fn schedule(spec: &NetSpec, ticks: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let kick = spec.threshold / spec.dt * 1.3;
        (0..ticks)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(split_seed(seed, t as u64));
                (0..3)
                    .map(|_| (rng.gen_range(0..spec.neurons as u32), kick))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn weight_table_matches_synapse_model() {
        let table = PcmWeightTable::new(PcmMaterial::Gst225, 16);
        let mut s = PcmSynapse::with_config(PcmMaterial::Gst225, 16);
        for l in 0..16u8 {
            assert_eq!(table.weight(l), s.weight(), "level {l}");
            s.depress();
        }
    }

    #[test]
    fn synapse_array_energy_matches_synapse_sequence() {
        let table = PcmWeightTable::new(PcmMaterial::Gst225, 16);
        let edges = [(0u32, 1u32)];
        let mut arr = SynapseArray::new(2, &edges, &[5], table);
        let mut s = PcmSynapse::with_config(PcmMaterial::Gst225, 16);
        let apply = |s: &mut PcmSynapse, steps: i32| {
            for _ in 0..steps.unsigned_abs() {
                if steps > 0 {
                    s.potentiate();
                } else {
                    s.depress();
                }
            }
        };
        apply(&mut s, -5);
        let e0 = s.programming_energy();
        for steps in [-3, 2, -20, 40, 1] {
            arr.apply_steps(0, steps);
            apply(&mut s, steps);
            assert_eq!(arr.level(0), s.level() as u8, "steps {steps}");
            assert_eq!(arr.weight(0), s.weight(), "steps {steps}");
        }
        // Energy is summed from precomputed per-transition deltas, so it
        // can differ from the cell's running total in the last ulp.
        let expected = s.programming_energy() - e0;
        assert!(
            (arr.programming_energy() - expected).abs() <= 1e-12 * expected,
            "energy {} vs {expected}",
            arr.programming_energy()
        );
    }

    #[test]
    fn csr_and_csc_are_consistent() {
        let spec = tiny_spec(false);
        let table = PcmWeightTable::new(spec.material, spec.levels);
        let arr = SynapseArray::new(spec.neurons, &spec.edges, &spec.init_levels, table);
        assert_eq!(arr.targets.len(), spec.neurons * 4);
        let mut seen = 0usize;
        for t in 0..spec.neurons as u32 {
            let (sources, edges) = arr.incoming(t);
            assert!(sources.windows(2).all(|w| w[0] < w[1]), "sources sorted");
            for (&s, &e) in sources.iter().zip(edges) {
                let (tgts, _) = arr.row(s);
                assert!(tgts.contains(&t), "edge {e} missing from row {s}");
                seen += 1;
            }
        }
        assert_eq!(seen, arr.targets.len());
    }

    #[test]
    fn ticks_on_both_sides_of_the_serial_cutoff_are_thread_count_invariant() {
        // 4096 neurons of fanout 16: a tick after 3 kicks is far below
        // the cutoff, one after ~600 fires far above it.
        let mut spec = NetSpec::random(5, 4096, 16, 16, true);
        spec.threshold = 0.9;
        let kick = spec.threshold / spec.dt * 1.3;
        let schedule: Vec<Vec<(u32, f64)>> = (0..40u64)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(split_seed(13, t));
                let k = if t % 8 < 4 { 3 } else { 600 };
                (0..k).map(|_| (rng.gen_range(0..4096), kick)).collect()
            })
            .collect();
        let run = |threads: usize| {
            let mut net = EventNet::new(&spec);
            net.threads = threads;
            let (mut raster, mut sides) = (Vec::new(), [0usize; 2]);
            for inj in &schedule {
                sides[usize::from(net.tick_work(inj) >= SERIAL_TICK_WORK)] += 1;
                raster.push(net.tick(inj).to_vec());
            }
            net.flush();
            let bits: Vec<u64> = net.potentials().iter().map(|v| v.to_bits()).collect();
            (raster, bits, sides)
        };
        let reference = run(1);
        let [serial, parallel] = reference.2;
        assert!(
            serial >= 10 && parallel >= 10,
            "ticks per side: {:?}",
            reference.2
        );
        assert_eq!(run(4), reference, "threads = 4");
    }

    #[test]
    fn sparse_tick_is_thread_count_invariant() {
        let spec = tiny_spec(true);
        let schedule = schedule(&spec, 50, 9);
        let run = |threads: usize| {
            let mut net = EventNet::new(&spec);
            net.threads = threads;
            let mut raster = Vec::new();
            for inj in &schedule {
                raster.push(net.tick(inj).to_vec());
            }
            net.flush();
            let bits: Vec<u64> = net.potentials().iter().map(|v| v.to_bits()).collect();
            (raster, bits, net.synapses().levels_flat().to_vec())
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn quiet_neurons_cost_nothing() {
        let spec = tiny_spec(false);
        let mut net = EventNet::new(&spec);
        for _ in 0..10 {
            net.tick(&[]);
        }
        let s = net.total_stats();
        assert_eq!(s.events_delivered, 0);
        assert_eq!(s.candidates, 0);
        assert_eq!(s.catch_up_steps, 0);
    }

    #[test]
    fn plasticity_moves_weights_and_charges_energy() {
        let spec = tiny_spec(true);
        let schedule = schedule(&spec, 80, 5);
        let mut net = EventNet::new(&spec);
        let before = net.synapses().levels_flat().to_vec();
        for inj in &schedule {
            net.tick(inj);
        }
        assert_ne!(net.synapses().levels_flat(), &before[..], "no learning");
        assert!(net.synapses().programming_energy() > 0.0);
    }

    #[test]
    fn drift_moves_cached_weights_until_reprogrammed() {
        let spec = tiny_spec(false);
        let mut net = EventNet::new(&spec);
        // Find an edge at a mid level so drift has room to move it.
        let e = (0..net.syn.targets.len() as u32)
            .find(|&e| {
                let l = net.synapses().level(e);
                l > 0 && l < 15
            })
            .expect("mid-level edge");
        let clean = net.synapses().weight(e);
        net.syn.apply_drift(1e4, 0.02);
        let drifted = net.synapses().weight(e);
        assert_ne!(clean, drifted, "drift must move a mid-level weight");
        // Reprogramming snaps back onto the quantized grid.
        net.syn.apply_steps(e, -1);
        let l = net.synapses().level(e);
        assert_eq!(net.synapses().weight(e), net.synapses().table().weight(l));
    }

    /// Inputs `0..inputs` fully connected to outputs `inputs..inputs +
    /// outputs` at level 0, outputs forming the WTA group.
    fn wta_spec(inputs: u32, outputs: u32) -> NetSpec {
        let n = inputs + outputs;
        let mut spec = NetSpec::random(1, n as usize, 1, 16, false);
        spec.edges = (0..inputs)
            .flat_map(|i| (inputs..n).map(move |j| (i, j)))
            .collect();
        spec.init_levels = vec![0];
        // One level-0 input (weight 1.0) lifts an output to 0.5.
        spec.threshold = 0.4;
        spec.refractory = 1e9;
        spec.wta_group = Some(inputs..n);
        spec
    }

    #[test]
    fn wta_group_lets_one_member_fire_per_trial() {
        let spec = wta_spec(3, 4);
        let kick = 2.0 * spec.threshold / spec.dt;
        let all_inputs = [(0, kick), (1, kick), (2, kick)];
        let mut net = EventNet::new(&spec);
        // Output 5 has the lowest threshold, so the largest margin.
        net.set_threshold_offset(5, -0.2);
        assert_eq!(net.tick(&all_inputs), &[0, 1, 2]);
        assert_eq!(net.tick(&[]), &[5], "every output crossed; one fires");
        // The losers stay refractory for the rest of the trial.
        for _ in 0..5 {
            assert!(net.tick(&[(3, kick), (4, kick), (6, kick)]).is_empty());
        }
        net.flush();
        assert!(net.potentials()[3..].iter().all(|&v| v == 0.0));
        // A new trial: the same race, the same winner.
        net.reset();
        assert!(net.fire_ledger().iter().all(|&t| t == -1));
        assert_eq!(net.tick(&all_inputs), &[0, 1, 2]);
        assert_eq!(net.tick(&[]), &[5]);
    }

    #[test]
    fn wta_ties_go_to_the_lowest_index_and_empty_input_fires_nothing() {
        let spec = wta_spec(2, 3);
        let kick = 2.0 * spec.threshold / spec.dt;
        let mut net = EventNet::new(&spec);
        for _ in 0..5 {
            assert!(net.tick(&[]).is_empty(), "no stimulus, no spike");
        }
        net.tick(&[(0, kick), (1, kick)]);
        assert_eq!(net.tick(&[]), &[2]);
        // Without the group every output fires.
        let mut free = spec.clone();
        free.wta_group = None;
        let mut net = EventNet::new(&free);
        net.tick(&[(0, kick), (1, kick)]);
        assert_eq!(net.tick(&[]), &[2, 3, 4]);
    }

    #[test]
    fn threshold_offsets_are_per_neuron_and_survive_reset() {
        let spec = wta_spec(1, 2);
        let mut free = spec.clone();
        free.wta_group = None;
        let mut net = EventNet::new(&free);
        net.set_threshold_offset(2, 10.0);
        let kick = 2.0 * spec.threshold / spec.dt;
        net.tick(&[(0, kick)]);
        assert_eq!(net.tick(&[]), &[1], "output 2's raised threshold holds");
        net.reset();
        net.tick(&[(0, kick)]);
        assert_eq!(net.tick(&[]), &[1]);
        net.reset();
        net.set_threshold_offset(2, 0.0);
        net.tick(&[(0, kick)]);
        assert_eq!(net.tick(&[]), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "must be at rest")]
    fn threshold_offsets_move_only_at_rest() {
        let spec = wta_spec(1, 1);
        let mut net = EventNet::new(&spec);
        net.tick(&[(1, 0.1)]);
        net.set_threshold_offset(1, -0.5);
    }

    #[test]
    fn absence_depression_weakens_silent_inputs_only() {
        let mut spec = wta_spec(4, 1);
        spec.plastic = true;
        spec.init_levels = vec![5];
        let kick = 2.0 * spec.threshold / spec.dt;
        let run = |absence: bool| {
            let mut spec = spec.clone();
            spec.absence_depression = absence;
            let mut net = EventNet::new(&spec);
            net.tick(&[(0, kick), (1, kick)]);
            assert_eq!(net.tick(&[]), &[4]);
            net.synapses().levels_flat().to_vec()
        };
        // Inputs 0 and 1 fired a tick before output 4: both potentiate.
        assert_eq!(run(false), [2, 2, 5, 5]);
        assert_eq!(run(true), [2, 2, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "injection outside the 5-neuron network")]
    fn tick_rejects_injections_outside_the_network() {
        EventNet::new(&wta_spec(2, 3)).tick(&[(5, 1.0)]);
    }

    #[test]
    fn random_spec_is_deterministic() {
        let a = NetSpec::random(5, 40, 6, 16, true);
        let b = NetSpec::random(5, 40, 6, 16, true);
        assert_eq!(a, b);
        let c = NetSpec::random(6, 40, 6, 16, true);
        assert_ne!(a.edges, c.edges);
    }
}
