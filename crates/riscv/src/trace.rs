//! Trace (superblock) compiler: the bulk interpreter's only cached
//! code.
//!
//! Code without a trace runs by decoding each word from memory at `pc`,
//! one run at a time up to the next control transfer (see
//! [`crate::cpu::Cpu::run_cached_span`]). Hot code is compiled into
//! traces that run pre-decoded across taken branches:
//!
//! 1. **Hot-edge profiling.** The bulk interpreter counts entries per
//!    `pc` (a span's start, the target of a decoded run's control
//!    transfer, a trace's exit) and records, per branch pc, how often
//!    each direction retired. When an entry crosses [`HOT_THRESHOLD`],
//!    the engine compiles a *trace* starting there.
//! 2. **Superblock stitching.** Compilation walks the *predicted* path:
//!    straight-line code is appended, unconditional jumps are followed,
//!    and conditional branches are resolved by the recorded edge profile
//!    (falling back to backward-taken/forward-not-taken static
//!    prediction), so the trace runs *across* taken branches. The walk
//!    stops at indirect jumps, system ops, unpeekable or undecodable
//!    words, a revisited pc (inner loop closed), or [`MAX_TRACE_OPS`].
//! 3. **Guarded side exits.** Every op in the trace carries the pc the
//!    compiler predicted would follow it and, for a control op, the
//!    predicted direction. Branches execute through the same
//!    register-only semantic core as [`crate::cpu::Cpu::step`] — so a
//!    mispredicted branch still *retires* exactly as the seed
//!    interpreter would — and the executor then leaves the trace (a
//!    [`SideExit::Guard`]) and the bulk loop continues from the
//!    already-correct state. Guards can therefore never produce wrong
//!    architectural state, only shorter traces.
//! 4. **Pre-costed ops.** Along the predicted path every op costs a
//!    static number of cycles under the [`CycleModel`] the trace was
//!    compiled with, so each op records its cost and the cycles from the
//!    pass's entry to its issue ([`TraceOp::prefix`]). The executor
//!    keeps `pc`, `cycles` and `instret` implicit during a pass and
//!    writes them back only where they become observable (see
//!    [`crate::cpu::Cpu`]'s trace executor); the engine drops every
//!    trace when the core's model changes.
//! 5. **Bit-identical accounting.** Each retired instruction is charged
//!    one fetch, in bulk, per contiguous code segment of the trace (see
//!    [`CompiledTrace::segments`]), and loads/stores whose effective
//!    address reaches the MMIO floor are gated through the same
//!    [`crate::bus::Bus::mmio_prologue`] /
//!    [`crate::bus::Bus::mmio_epilogue`] protocol as decoded runs.
//!
//! Self-modifying code is handled by explicit invalidation: the engine
//! keeps the byte range its traces cover as a watch window, and a store
//! into it (or a reported external write overlapping it) drops every
//! trace and the profile behind them. The engine's
//! [`TraceEngine::generation`] counter lets an executing trace detect
//! that it was invalidated *by one of its own ops* and side-exit before
//! dispatching a stale decode. Decoded runs need no such care: they read
//! each word from memory just before it executes.

use crate::bus::Bus;
use crate::cpu::CycleModel;
use crate::isa::{decode, Instruction};
use std::collections::HashMap;
use std::sync::Arc;

/// Bulk entries at the same pc before a trace is compiled there.
pub const HOT_THRESHOLD: u32 = 8;

/// Hard cap on instructions per compiled trace.
pub const MAX_TRACE_OPS: usize = 192;

/// Default number of direct-mapped trace slots.
pub(crate) const DEFAULT_TRACE_SLOTS: usize = 128;

/// Why the executor left a compiled trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideExit {
    /// A guard failed: a branch retired opposite to the profile's
    /// prediction. Architectural state is already correct; only the
    /// trace's view of "what comes next" was wrong.
    Guard = 0,
    /// The trace ran to its end (last op retired, no loop-back).
    End = 1,
    /// The cycle budget (or the caller's bulk horizon) was reached.
    Budget = 2,
    /// A load/store reached device space and the bus declined to run it
    /// inside the bulk window, or it retired and ended the window.
    Mmio = 3,
    /// An op of the trace invalidated the cache (self-modifying store).
    Invalidated = 4,
}

/// Number of [`SideExit`] variants (length of the exit counter array).
pub(crate) const SIDE_EXIT_KINDS: usize = 5;

/// One instruction of a compiled trace: the pre-decoded op, its pc, the
/// path the compiler predicts it takes, and its pre-computed cost along
/// that path.
#[derive(Debug, Clone, Copy)]
pub struct TraceOp {
    /// The pre-decoded instruction.
    pub inst: Instruction,
    /// Address of this instruction.
    pub pc: u32,
    /// The pc the trace expects after this op retires.
    pub expected_next: u32,
    /// Predicted direction: `true` for `jal` and predicted-taken
    /// branches, `false` for everything else. A register-only op that
    /// retires the other way left the prediction (a guard).
    pub taken: bool,
    /// Cycles this op costs along the predicted path.
    pub cost: u64,
    /// Cycles from the pass's entry to this op's issue (the prefix sum
    /// of the costs before it).
    pub prefix: u64,
    /// `Some((rs1, offset))` for loads/stores: the effective-address
    /// operands, pre-extracted at compile time.
    pub mem: Option<(u8, i32)>,
    /// The op is a store (the only kind that can invalidate the trace).
    pub store: bool,
}

/// A compiled superblock: the predicted hot path starting at
/// [`CompiledTrace::start`], possibly spanning several basic blocks.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    /// Address of the first instruction.
    pub start: u32,
    /// The instructions on the predicted path, in execution order.
    pub ops: Vec<TraceOp>,
    /// Maximal runs of address-contiguous ops, in execution order, as
    /// `(first pc, op count)`. Fetch charging walks these so bulk
    /// accounting stays per-region exact even when the trace jumps
    /// between code regions.
    pub segments: Vec<(u32, u32)>,
    /// The last op's predicted successor is [`CompiledTrace::start`]:
    /// the executor may loop in place without re-dispatching.
    pub loops: bool,
    /// Worst-case cycles from a pass's entry to the issue of its last
    /// op, counting either direction of every conditional branch: a
    /// pass entered at `cycles` with `cycles + worst_to_last <
    /// budget_end` reaches no op at or past the budget.
    pub worst_to_last: u64,
}

/// Compiles the predicted hot path starting at `start`, costing each op
/// under `model`. Returns `None` when the path is too short to beat
/// decoding from memory.
pub fn compile<B: Bus + ?Sized>(
    bus: &B,
    start: u32,
    edges: &HashMap<u32, [u32; 2]>,
    model: &CycleModel,
) -> Option<CompiledTrace> {
    use Instruction::*;
    let mut ops: Vec<TraceOp> = Vec::new();
    let mut pc = start;
    let mut loops = false;
    let mut prefix = 0u64;
    let mut worst = 0u64;
    let mut worst_to_last = 0u64;
    while ops.len() < MAX_TRACE_OPS {
        if pc == start && !ops.is_empty() {
            loops = true;
            break;
        }
        if ops.iter().any(|op| op.pc == pc) {
            break; // closed an inner loop not anchored at `start`
        }
        let Some(word) = bus.peek_word(pc) else { break };
        let Ok(inst) = decode(word) else { break };
        let (expected_next, taken, branch) = match inst {
            // Indirect and system ops end the trace: decoded runs and
            // the precise path own them (jalr targets are
            // data-dependent; ecall / ebreak halt; wfi sleeps).
            Jalr { .. } | Ecall | Ebreak | Wfi => break,
            Jal { offset, .. } => (pc.wrapping_add(offset as u32), true, false),
            Beq { offset, .. }
            | Bne { offset, .. }
            | Blt { offset, .. }
            | Bge { offset, .. }
            | Bltu { offset, .. }
            | Bgeu { offset, .. } => {
                let [not_taken, taken] = edges.get(&pc).copied().unwrap_or([0, 0]);
                // Majority vote from the edge profile; cold or tied
                // edges use static backward-taken prediction.
                let predict_taken = if taken == not_taken {
                    offset < 0
                } else {
                    taken > not_taken
                };
                if predict_taken {
                    (pc.wrapping_add(offset as u32), true, true)
                } else {
                    (pc.wrapping_add(4), false, true)
                }
            }
            _ => (pc.wrapping_add(4), false, false),
        };
        let (mem, store) = match inst {
            Lb { rs1, offset, .. }
            | Lh { rs1, offset, .. }
            | Lw { rs1, offset, .. }
            | Lbu { rs1, offset, .. }
            | Lhu { rs1, offset, .. } => (Some((rs1, offset)), false),
            Sb { rs1, offset, .. } | Sh { rs1, offset, .. } | Sw { rs1, offset, .. } => {
                (Some((rs1, offset)), true)
            }
            _ => (None, false),
        };
        let cost = model.cost(inst, taken);
        ops.push(TraceOp {
            inst,
            pc,
            expected_next,
            taken,
            cost,
            prefix,
            mem,
            store,
        });
        worst_to_last = worst;
        prefix += cost;
        // A branch whose target is its own fall-through stays on the
        // path either way, so the bound counts a branch's dearer side.
        worst += if branch {
            model.cost(inst, true).max(model.cost(inst, false))
        } else {
            cost
        };
        pc = expected_next;
    }
    // A one-op trace adds nothing over decoding that op from memory;
    // require at least two ops so the loop-back / stitch machinery has
    // something to win.
    if ops.len() < 2 {
        return None;
    }
    let mut segments: Vec<(u32, u32)> = Vec::new();
    for op in &ops {
        match segments.last_mut() {
            Some((seg_lo, n)) if seg_lo.wrapping_add(4 * *n) == op.pc => *n += 1,
            _ => segments.push((op.pc, 1)),
        }
    }
    Some(CompiledTrace {
        start,
        ops,
        segments,
        loops,
        worst_to_last,
    })
}

/// The trace engine: edge profile, entry heat, a direct-mapped cache of
/// compiled traces with the watch window that keeps them coherent, and
/// the counters behind the `trace_*` perf surface.
///
/// Entirely microarchitectural: cloned with the CPU, excluded from
/// architectural equality, dropped wholesale on invalidation.
#[derive(Debug, Clone)]
pub struct TraceEngine {
    slots: Vec<Option<Arc<CompiledTrace>>>,
    mask: usize,
    /// Bulk entries per pc (cleared on invalidation).
    heat: HashMap<u32, u32>,
    /// Per-branch-pc retire counts: `[not_taken, taken]`.
    edges: HashMap<u32, [u32; 2]>,
    // Byte range `[code_lo, code_hi)` covering every compiled trace — the
    // watch window for store and external-write invalidation (empty when
    // lo == hi). Eviction leaves it over-approximate, which is always
    // safe.
    code_lo: u32,
    code_hi: u32,
    /// Bumped on every invalidation; an executing trace compares it
    /// against its entry value to catch self-invalidation.
    pub generation: u64,
    /// Trace dispatches (entries plus in-place loop-backs).
    pub hits: u64,
    /// Bulk entries served by a compiled trace.
    pub traced_entries: u64,
    /// Bulk entries run by decoding from memory (counted by the bulk
    /// interpreter as each run ends).
    pub decoded_entries: u64,
    /// Exit counts indexed by [`SideExit`].
    pub exits: [u64; SIDE_EXIT_KINDS],
    /// Traces compiled over the run (recompiles after invalidation
    /// included).
    pub compiled: u64,
    /// Direct-mapped evictions that replaced a *different* trace.
    pub conflict_evictions: u64,
    /// The timing model every cached trace was costed under.
    model: CycleModel,
}

impl TraceEngine {
    /// Creates an engine with `slots` direct-mapped trace slots (rounded
    /// up to a power of two, minimum 1).
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1).next_power_of_two();
        TraceEngine {
            slots: vec![None; slots],
            mask: slots - 1,
            heat: HashMap::new(),
            edges: HashMap::new(),
            code_lo: 0,
            code_hi: 0,
            generation: 0,
            hits: 0,
            traced_entries: 0,
            decoded_entries: 0,
            exits: [0; SIDE_EXIT_KINDS],
            compiled: 0,
            conflict_evictions: 0,
            model: CycleModel::default(),
        }
    }

    /// Keeps the cached traces costed under `model`: when the core's
    /// timing model differs from the one they were compiled with, every
    /// trace (and the profile behind them) is dropped.
    #[inline]
    pub fn sync_model(&mut self, model: &CycleModel) {
        if self.model != *model {
            self.invalidate();
            self.model = *model;
        }
    }

    /// The bulk interpreter's entry at `pc`: the cached trace starting
    /// there or, when this entry crosses [`HOT_THRESHOLD`], one compiled
    /// now under the model of the last [`TraceEngine::sync_model`].
    /// `None` leaves the entry to decoding from memory.
    #[inline]
    pub fn enter<B: Bus + ?Sized>(&mut self, bus: &B, pc: u32) -> Option<Arc<CompiledTrace>> {
        let trace = if let Some(trace) = self.lookup(pc) {
            Arc::clone(trace)
        } else {
            if !self.note_entry(pc) {
                return None;
            }
            let trace = compile(bus, pc, &self.edges, &self.model)?;
            self.insert(trace)
        };
        self.hits += 1;
        self.traced_entries += 1;
        Some(trace)
    }

    /// The compiled trace starting at `pc`, if cached.
    #[inline]
    pub fn lookup(&self, pc: u32) -> Option<&Arc<CompiledTrace>> {
        let slot = ((pc >> 2) as usize) & self.mask;
        match &self.slots[slot] {
            Some(t) if t.start == pc => Some(t),
            _ => None,
        }
    }

    /// Counts a bulk entry at `pc`; `true` exactly when this entry
    /// crosses [`HOT_THRESHOLD`] (compile now). Subsequent entries keep
    /// counting but never re-trigger — a failed compile is not retried
    /// until invalidation clears the heat table.
    #[inline]
    pub(crate) fn note_entry(&mut self, pc: u32) -> bool {
        let h = self.heat.entry(pc).or_insert(0);
        *h = h.saturating_add(1);
        *h == HOT_THRESHOLD
    }

    /// Records a conditional-branch retirement at `pc`.
    #[inline]
    pub fn record_edge(&mut self, pc: u32, taken: bool) {
        let e = self.edges.entry(pc).or_insert([0, 0]);
        let c = &mut e[taken as usize];
        *c = c.saturating_add(1);
    }

    /// Read access to the edge profile (for [`compile`]).
    pub fn edges(&self) -> &HashMap<u32, [u32; 2]> {
        &self.edges
    }

    /// Installs a compiled trace, evicting any previous tenant of its
    /// slot, widens the watch window over its code, and returns a handle
    /// for immediate execution.
    pub fn insert(&mut self, trace: CompiledTrace) -> Arc<CompiledTrace> {
        self.compiled += 1;
        for &(lo, n) in &trace.segments {
            let hi = lo.saturating_add(4 * n);
            if self.code_lo == self.code_hi {
                (self.code_lo, self.code_hi) = (lo, hi);
            } else {
                self.code_lo = self.code_lo.min(lo);
                self.code_hi = self.code_hi.max(hi);
            }
        }
        let slot = ((trace.start >> 2) as usize) & self.mask;
        if let Some(old) = &self.slots[slot] {
            if old.start != trace.start {
                self.conflict_evictions += 1;
            }
        }
        let arc = Arc::new(trace);
        self.slots[slot] = Some(Arc::clone(&arc));
        arc
    }

    /// `true` when a write to byte `addr` could land inside compiled
    /// code.
    #[inline]
    pub fn watches(&self, addr: u32) -> bool {
        addr.wrapping_sub(self.code_lo) < self.code_hi.wrapping_sub(self.code_lo)
    }

    /// `true` when the byte range `[lo, hi)` could overlap compiled code.
    #[inline]
    pub fn overlaps(&self, lo: u32, hi: u32) -> bool {
        self.code_lo != self.code_hi && lo < self.code_hi && hi > self.code_lo
    }

    /// Drops every compiled trace and all profile state, empties the
    /// watch window, and bumps the generation so an executing trace
    /// notices. Cheap when nothing has been profiled or compiled since
    /// the last invalidation (hosts call this on every run entry).
    pub fn invalidate(&mut self) {
        if self.heat.is_empty() && self.edges.is_empty() && self.code_lo == self.code_hi {
            return;
        }
        for slot in &mut self.slots {
            *slot = None;
        }
        self.heat.clear();
        self.edges.clear();
        self.code_lo = 0;
        self.code_hi = 0;
        self.generation += 1;
    }

    /// Count of `exit` side exits so far.
    pub fn exit_count(&self, exit: SideExit) -> u64 {
        self.exits[exit as usize]
    }

    /// Total side exits of any kind.
    pub fn total_exits(&self) -> u64 {
        self.exits.iter().sum()
    }
}

impl Default for TraceEngine {
    fn default() -> Self {
        TraceEngine::new(DEFAULT_TRACE_SLOTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FlatMemory;
    use crate::isa::encode;
    use Instruction::*;

    fn mem_with(words: &[Instruction]) -> FlatMemory {
        let mut mem = FlatMemory::new(4096);
        let code: Vec<u32> = words.iter().map(|&i| encode(i)).collect();
        mem.load_words(0, &code);
        mem
    }

    #[test]
    fn compile_stitches_across_taken_branch() {
        // 0: addi x1,x0,1 ; 4: bne x1,x0,+8 (taken) ; 12: addi x2,x0,2 ; 16: ecall
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 1,
            },
            Bne {
                rs1: 1,
                rs2: 0,
                offset: 8,
            },
            Addi {
                rd: 9,
                rs1: 0,
                imm: 9,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 2,
            },
            Ecall,
        ]);
        let mut edges = HashMap::new();
        edges.insert(4u32, [0u32, 10u32]); // strongly taken
        let t = compile(&mem, 0, &edges, &CycleModel::default()).expect("compiles");
        // addi, bne, addi — stops at ecall; skipped the not-taken slot.
        assert_eq!(t.ops.len(), 3);
        assert_eq!(t.ops[1].expected_next, 12);
        assert_eq!(t.segments, vec![(0, 2), (12, 1)]);
        assert!(!t.loops);
    }

    #[test]
    fn compile_detects_loop_back_to_start() {
        // 0: addi x1,x1,1 ; 4: bne x1,x2,-4 → loops to 0
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            Bne {
                rs1: 1,
                rs2: 2,
                offset: -4,
            },
        ]);
        let t = compile(&mem, 0, &HashMap::new(), &CycleModel::default()).expect("compiles");
        assert!(t.loops, "backward branch closes the loop");
        assert_eq!(t.ops.len(), 2);
        assert_eq!(t.segments, vec![(0, 2)]);
    }

    #[test]
    fn compile_pre_costs_the_predicted_path() {
        // 0: addi ; 4: beq +8 (forward: predicted not taken) ; 8: lw ;
        // 12: bne -12 (backward: predicted taken, closes the loop)
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            Beq {
                rs1: 0,
                rs2: 5,
                offset: 8,
            },
            Lw {
                rd: 2,
                rs1: 0,
                offset: 256,
            },
            Bne {
                rs1: 1,
                rs2: 3,
                offset: -12,
            },
        ]);
        let t = compile(&mem, 0, &HashMap::new(), &CycleModel::default()).unwrap();
        assert!(t.loops);
        let costs: Vec<u64> = t.ops.iter().map(|op| op.cost).collect();
        let prefix: Vec<u64> = t.ops.iter().map(|op| op.prefix).collect();
        let taken: Vec<bool> = t.ops.iter().map(|op| op.taken).collect();
        assert_eq!(
            costs,
            [1, 1, 2, 3],
            "alu, not-taken branch, load, taken branch"
        );
        assert_eq!(prefix, [0, 1, 2, 4]);
        assert_eq!(taken, [false, false, false, true]);
        assert_eq!(t.ops[2].mem, Some((0, 256)));
        assert!(!t.ops[2].store);
        // Either direction of the beq may stay on the path's budget:
        // it counts at its dearer (taken) side.
        assert_eq!(t.worst_to_last, 1 + 3 + 2);
    }

    #[test]
    fn a_changed_cycle_model_drops_the_traces() {
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            Bne {
                rs1: 1,
                rs2: 2,
                offset: -4,
            },
        ]);
        let model = CycleModel::default();
        let mut eng = TraceEngine::new(4);
        eng.note_entry(0);
        eng.insert(compile(&mem, 0, &HashMap::new(), &model).unwrap());
        eng.sync_model(&model);
        assert!(eng.lookup(0).is_some(), "same model keeps the trace");
        let gen = eng.generation;
        eng.sync_model(&CycleModel { div: 40, ..model });
        assert!(eng.lookup(0).is_none(), "a new model drops it");
        assert_eq!(eng.generation, gen + 1);
    }

    #[test]
    fn compile_rejects_trivial_and_respects_cap() {
        let mem = mem_with(&[Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        }]);
        assert!(
            compile(&mem, 0, &HashMap::new(), &CycleModel::default()).is_none(),
            "jalr-only"
        );
        let long: Vec<Instruction> = (0..(MAX_TRACE_OPS + 8))
            .map(|k| Addi {
                rd: 1,
                rs1: 0,
                imm: (k % 7) as i32,
            })
            .collect();
        let mem = mem_with(&long);
        let t = compile(&mem, 0, &HashMap::new(), &CycleModel::default()).unwrap();
        assert_eq!(t.ops.len(), MAX_TRACE_OPS);
    }

    #[test]
    fn engine_heat_edges_and_invalidation() {
        let mut eng = TraceEngine::new(4);
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(!eng.note_entry(0x100));
        }
        assert!(eng.note_entry(0x100), "crossing the threshold triggers");
        assert!(!eng.note_entry(0x100), "only once");
        eng.record_edge(0x104, true);
        eng.record_edge(0x104, true);
        eng.record_edge(0x104, false);
        assert_eq!(eng.edges()[&0x104], [1, 2]);
        let gen = eng.generation;
        eng.invalidate();
        assert_eq!(eng.generation, gen + 1);
        assert!(eng.edges().is_empty());
        assert!(!eng.note_entry(0x100), "heat restarts from zero");
        eng.invalidate();
        eng.invalidate();
        assert_eq!(
            eng.generation,
            gen + 2,
            "empty invalidations are free (first clears the re-heated entry)"
        );
    }

    #[test]
    fn watch_window_tracks_compiled_traces() {
        // 0: addi ; 4: bne +8 (taken) ; 12: addi ; 16: ecall — two
        // segments, [0, 8) and [12, 16).
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 1,
            },
            Bne {
                rs1: 1,
                rs2: 0,
                offset: 8,
            },
            Addi {
                rd: 9,
                rs1: 0,
                imm: 9,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 2,
            },
            Ecall,
        ]);
        let mut edges = HashMap::new();
        edges.insert(4u32, [0u32, 10u32]);
        let mut eng = TraceEngine::new(4);
        assert!(!eng.watches(0), "an empty engine watches nothing");
        assert!(!eng.overlaps(0, u32::MAX));
        eng.insert(compile(&mem, 0, &edges, &CycleModel::default()).unwrap());
        assert!(eng.watches(0) && eng.watches(15));
        assert!(!eng.watches(16));
        assert!(eng.overlaps(12, 20));
        assert!(!eng.overlaps(16, 20));
        let gen = eng.generation;
        eng.invalidate();
        assert_eq!(
            eng.generation,
            gen + 1,
            "compiled code alone makes it count"
        );
        assert!(!eng.watches(0));
        assert!(eng.lookup(0).is_none());
    }

    #[test]
    fn entering_a_hot_pc_compiles_once_then_serves_from_the_cache() {
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            Bne {
                rs1: 1,
                rs2: 2,
                offset: -4,
            },
        ]);
        let mut eng = TraceEngine::new(4);
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(eng.enter(&mem, 0).is_none(), "cold entries decode");
        }
        assert!(eng.enter(&mem, 0).is_some(), "the hot entry compiles");
        assert!(eng.enter(&mem, 0).is_some(), "later entries hit");
        assert_eq!((eng.compiled, eng.traced_entries, eng.hits), (1, 2, 2));
        assert!(eng.watches(4));
    }

    #[test]
    fn engine_insert_lookup_and_conflicts() {
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            Bne {
                rs1: 1,
                rs2: 2,
                offset: -4,
            },
        ]);
        let t = compile(&mem, 0, &HashMap::new(), &CycleModel::default()).unwrap();
        let mut eng = TraceEngine::new(4);
        eng.note_entry(0); // non-empty profile so invalidate() is not a no-op
        eng.insert(t.clone());
        assert_eq!(eng.lookup(0).unwrap().start, 0);
        assert!(eng.lookup(4).is_none());
        // Same slot, different start: conflict eviction.
        let colliding = CompiledTrace {
            start: 4 * 4, // slots=4 → (pc>>2)&3 collides with 0
            ..t.clone()
        };
        eng.insert(colliding);
        assert_eq!(eng.conflict_evictions, 1);
        assert!(eng.lookup(0).is_none(), "evicted");
        eng.invalidate();
        assert!(eng.lookup(16).is_none());
    }
}
