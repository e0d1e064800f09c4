//! Scalar leaky integrate-and-fire and STDP references: one neuron at
//! a time, the forward-Euler update written straight from the membrane
//! equation `dv/dt = input − v/τ`.

/// Reference LIF neuron state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefLif {
    /// Membrane time constant τ.
    pub tau: f64,
    /// Firing threshold.
    pub threshold: f64,
    /// Refractory period after a spike, in the same units as `dt`.
    pub refractory: f64,
    /// Membrane potential.
    pub potential: f64,
    /// Remaining refractory time; the neuron is clamped to rest while
    /// this is positive.
    pub refractory_left: f64,
}

impl RefLif {
    /// A resting neuron with the given parameters.
    pub fn new(tau: f64, threshold: f64, refractory: f64) -> Self {
        RefLif {
            tau,
            threshold,
            refractory,
            potential: 0.0,
            refractory_left: 0.0,
        }
    }

    /// Forward-Euler step of the membrane equation; returns `true` on a
    /// spike. During refractory time the potential is clamped to rest
    /// and the input is ignored.
    pub fn step(&mut self, input: f64, dt: f64) -> bool {
        if self.refractory_left > 0.0 {
            self.refractory_left -= dt;
            self.potential = 0.0;
            return false;
        }
        self.potential += (input - self.potential / self.tau) * dt;
        if self.potential >= self.threshold {
            self.potential = 0.0;
            self.refractory_left = self.refractory;
            true
        } else {
            false
        }
    }
}

/// Reference pair-based STDP weight update, written from the textbook
/// exponential window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefStdp {
    /// Potentiation amplitude.
    pub a_plus: f64,
    /// Depression amplitude.
    pub a_minus: f64,
    /// Potentiation time constant.
    pub tau_plus: f64,
    /// Depression time constant.
    pub tau_minus: f64,
}

impl RefStdp {
    /// Weight change for a pre→post spike-timing difference
    /// `dt = t_post − t_pre`: potentiation `A₊·e^{−dt/τ₊}` for causal
    /// pairs, depression `−A₋·e^{dt/τ₋}` for anti-causal pairs, zero
    /// at exact coincidence.
    pub fn delta_w(&self, dt: f64) -> f64 {
        if dt == 0.0 {
            0.0
        } else if dt > 0.0 {
            self.a_plus * (-dt / self.tau_plus).exp()
        } else {
            -self.a_minus * (dt / self.tau_minus).exp()
        }
    }

    /// The weight change quantized onto a PCM conductance grid with
    /// `levels` levels spanning [0, 1]: the number of programming steps
    /// (positive = SET steps), rounded to nearest.
    pub fn steps(&self, dt: f64, levels: usize) -> i32 {
        let dw = self.delta_w(dt);
        let step_size = 1.0 / ((levels.max(2) - 1) as f64);
        (dw / step_size).round() as i32
    }
}

/// Scalar reference for the event-driven sparse SNN engine
/// (`snn::sparse::EventNet`): an eager, edge-list simulator written
/// straight from the tick-pipeline contract, with no CSR storage, no
/// fire queue and no lazy leak — every neuron steps every tick, every
/// edge is scanned every tick.
///
/// The per-level weight grid is an *input* (its derivation from the PCM
/// material model is covered by the `pcm` conformance domain), so this
/// reference is independent of the engine's synapse bookkeeping: it
/// re-derives drive accumulation, spike decisions, the winner-take-all
/// race, the STDP phase order and level saturation from scratch.
#[derive(Debug, Clone)]
pub struct RefSparseNet {
    dt: f64,
    /// Base firing threshold; each neuron fires at this plus its offset.
    threshold: f64,
    rule: RefStdp,
    plastic: bool,
    /// Winner-take-all group `[start, end)`, if any.
    wta_group: Option<(u32, u32)>,
    /// Depress, on each post spike, the incoming edges whose source has
    /// not fired since the last reset.
    absence_depression: bool,
    /// Weight of each quantized level (0 = strongest).
    level_weights: Vec<f64>,
    /// Deduplicated edges, sorted by `(source, target)`, no self-loops.
    edges: Vec<(u32, u32)>,
    /// Current level per edge, same order as `edges`.
    levels: Vec<u8>,
    neurons: Vec<RefLif>,
    /// Last fire tick per neuron (−1 = never fired).
    last_fire: Vec<i64>,
    fired_prev: Vec<bool>,
    tick: i64,
}

impl RefSparseNet {
    /// Builds the reference simulator. `edges` may contain duplicates
    /// and self-loops (both dropped, mirroring the engine's builder);
    /// `init_levels` assigns starting levels per surviving edge in
    /// sorted order, repeating cyclically (empty means level 0).
    /// `wta_group` is the half-open index range `[start, end)` of the
    /// winner-take-all group.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        neurons: usize,
        tau: f64,
        threshold: f64,
        refractory: f64,
        dt: f64,
        rule: RefStdp,
        plastic: bool,
        level_weights: &[f64],
        edges: &[(u32, u32)],
        init_levels: &[u8],
        wta_group: Option<(u32, u32)>,
        absence_depression: bool,
    ) -> Self {
        let mut sorted: Vec<(u32, u32)> = edges.iter().copied().filter(|&(s, t)| s != t).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let max_level = (level_weights.len() - 1) as u8;
        let levels: Vec<u8> = (0..sorted.len())
            .map(|e| {
                if init_levels.is_empty() {
                    0
                } else {
                    init_levels[e % init_levels.len()].min(max_level)
                }
            })
            .collect();
        RefSparseNet {
            dt,
            threshold,
            rule,
            plastic,
            wta_group,
            absence_depression,
            level_weights: level_weights.to_vec(),
            edges: sorted,
            levels,
            neurons: (0..neurons)
                .map(|_| RefLif::new(tau, threshold, refractory))
                .collect(),
            last_fire: vec![-1; neurons],
            fired_prev: vec![false; neurons],
            tick: 0,
        }
    }

    /// Membrane potentials, always settled (every neuron steps every
    /// tick).
    pub fn potentials(&self) -> Vec<f64> {
        self.neurons.iter().map(|n| n.potential).collect()
    }

    /// Last fire tick per neuron (−1 = never fired).
    pub fn fire_ledger(&self) -> &[i64] {
        &self.last_fire
    }

    /// Current level per edge, in `(source, target)`-sorted order.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Neuron `j` fires from now on at the base threshold plus
    /// `offset`.
    pub fn set_threshold_offset(&mut self, j: usize, offset: f64) {
        self.neurons[j].threshold = self.threshold + offset;
    }

    /// A new trial: every neuron back at rest and out of refractory, the
    /// fire ledger cleared, and nothing left to propagate. Levels and
    /// thresholds stay.
    pub fn reset(&mut self) {
        for n in &mut self.neurons {
            n.potential = 0.0;
            n.refractory_left = 0.0;
        }
        self.last_fire.fill(-1);
        self.fired_prev.fill(false);
    }

    fn apply_ref_steps(&mut self, e: usize, steps: i32) {
        let max_level = (self.level_weights.len() - 1) as i32;
        let next = (self.levels[e] as i32 - steps).clamp(0, max_level);
        self.levels[e] = next as u8;
    }

    /// Advances one tick and returns the fired neurons, ascending.
    ///
    /// Drive accumulates per target in ascending-source order (the edge
    /// list is sorted), injections apply afterwards in schedule order,
    /// every neuron then takes one forward-Euler step. Of the group
    /// members that spiked, only the one whose stepped potential
    /// exceeds its threshold by the most (the lowest index on a tie)
    /// keeps its spike; every other member is clamped to rest with an
    /// endless refractory period. STDP then runs
    /// potentiation-phase-then-depression-phase before the ledger
    /// records this tick's spikes.
    pub fn tick(&mut self, injections: &[(u32, f64)]) -> Vec<u32> {
        let n = self.neurons.len();
        let t = self.tick;
        let mut drive = vec![0.0f64; n];
        for (e, &(s, tgt)) in self.edges.iter().enumerate() {
            if self.fired_prev[s as usize] {
                drive[tgt as usize] += self.level_weights[self.levels[e] as usize];
            }
        }
        for &(j, amount) in injections {
            drive[j as usize] += amount;
        }
        let mut fired = Vec::new();
        let group = self.wta_group;
        let in_group = |j: u32| group.is_some_and(|(a, b)| a <= j && j < b);
        let mut best: Option<(u32, f64)> = None;
        for (j, neuron) in self.neurons.iter_mut().enumerate() {
            let stepped = neuron.potential + (drive[j] - neuron.potential / neuron.tau) * self.dt;
            let margin = stepped - neuron.threshold;
            if neuron.step(drive[j], self.dt) {
                fired.push(j as u32);
                if in_group(j as u32) && best.is_none_or(|(_, m)| margin > m) {
                    best = Some((j as u32, margin));
                }
            }
        }
        if let Some((winner, _)) = best {
            let (a, b) = group.expect("a winner implies a group");
            fired.retain(|&j| j == winner || !in_group(j));
            for k in (a..b).filter(|&k| k != winner) {
                let neuron = &mut self.neurons[k as usize];
                neuron.potential = 0.0;
                neuron.refractory_left = f64::INFINITY;
            }
        }
        if self.plastic && !fired.is_empty() {
            let level_count = self.level_weights.len();
            // Potentiation phase: incoming edges of each firing neuron,
            // ascending source (the sorted edge list scans that way).
            for &m in &fired {
                for e in 0..self.edges.len() {
                    let (i, tgt) = self.edges[e];
                    if tgt != m {
                        continue;
                    }
                    let tp = self.last_fire[i as usize];
                    if tp >= 0 {
                        let delta = (t - tp) as f64 * self.dt;
                        let steps = self.rule.steps(delta, level_count);
                        self.apply_ref_steps(e, steps);
                    } else if self.absence_depression {
                        self.apply_ref_steps(e, -1);
                    }
                }
            }
            // Depression phase: outgoing edges of each firing neuron.
            for &m in &fired {
                for e in 0..self.edges.len() {
                    let (src, j) = self.edges[e];
                    if src != m {
                        continue;
                    }
                    let tp = self.last_fire[j as usize];
                    if tp >= 0 {
                        let delta = (tp - t) as f64 * self.dt;
                        let steps = self.rule.steps(delta, level_count);
                        self.apply_ref_steps(e, steps);
                    }
                }
            }
        }
        self.fired_prev.fill(false);
        for &j in &fired {
            self.last_fire[j as usize] = t;
            self.fired_prev[j as usize] = true;
        }
        self.tick = t + 1;
        fired
    }
}
