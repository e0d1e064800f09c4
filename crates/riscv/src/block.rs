//! Decoded-block interpreter support: a direct-mapped cache of
//! pre-decoded straight-line instruction blocks.
//!
//! Fetch-time decode is the dominant cost of the seed interpreter —
//! every [`crate::cpu::Cpu::step`] re-fetches and re-decodes the word at
//! `pc`. The block cache amortizes that work the way gem5's atomic fast
//! path does: code is decoded once per *block* (a run of instructions
//! ending at the first control transfer or system op) and dispatched
//! from the pre-decoded form afterwards.
//!
//! Coherence rests on *explicit invalidation*: the cache tracks the
//! address range its blocks cover, CPU stores into that range drop the
//! cache before the next instruction, and external writers (DMA, host
//! pokes) are reported via [`crate::cpu::Cpu::note_external_writes`].
//! Blocks are built from side-effect-free
//! [`crate::bus::Bus::peek_word`] reads, so pre-decoding ahead of
//! execution never perturbs the accounting. The precise path
//! ([`crate::cpu::Cpu::step`]) never consults the cache.

use crate::bus::Bus;
use crate::isa::{decode, Instruction};

/// Hard cap on instructions per decoded block.
pub const MAX_BLOCK_LEN: usize = 64;

/// Default number of direct-mapped block slots.
pub const DEFAULT_SLOTS: usize = 512;

/// A straight-line run of pre-decoded instructions starting at
/// [`DecodedBlock::start`]. The last op is the block terminator: a
/// branch, jump, `ecall`/`ebreak`, or `wfi` — or simply the
/// [`MAX_BLOCK_LEN`]-th instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBlock {
    /// Address of the first instruction.
    pub start: u32,
    /// The pre-decoded instructions, in address order.
    pub ops: Vec<Instruction>,
}

/// `true` for instructions that end a straight-line block: anything that
/// can redirect `pc`, halt, or put the core to sleep.
pub fn is_block_terminator(inst: &Instruction) -> bool {
    use Instruction::*;
    matches!(
        inst,
        Jal { .. }
            | Jalr { .. }
            | Beq { .. }
            | Bne { .. }
            | Blt { .. }
            | Bge { .. }
            | Bltu { .. }
            | Bgeu { .. }
            | Ecall
            | Ebreak
            | Wfi
    )
}

impl DecodedBlock {
    /// Pre-decodes the straight-line block starting at `start` using
    /// side-effect-free peeks. Returns `None` when the first word is
    /// unpeekable (device space) or does not decode — the interpreter
    /// falls back to the plain fetch-and-decode path there, reproducing
    /// the seed trap behavior exactly.
    pub fn build<B: Bus + ?Sized>(bus: &B, start: u32) -> Option<DecodedBlock> {
        // One up-front allocation: blocks are rebuilt on every cache
        // miss, and growth reallocations dominate the build cost.
        let mut ops = Vec::with_capacity(MAX_BLOCK_LEN);
        let mut pc = start;
        while ops.len() < MAX_BLOCK_LEN {
            let Some(word) = bus.peek_word(pc) else { break };
            let Ok(inst) = decode(word) else { break };
            ops.push(inst);
            if is_block_terminator(&inst) {
                break;
            }
            pc = pc.wrapping_add(4);
        }
        if ops.is_empty() {
            None
        } else {
            Some(DecodedBlock { start, ops })
        }
    }
}

/// A direct-mapped cache of [`DecodedBlock`]s keyed by block start
/// address, with hit/miss counters for the perf-counter surface.
#[derive(Debug, Clone)]
pub struct BlockCache {
    slots: Vec<Option<DecodedBlock>>,
    mask: usize,
    enabled: bool,
    // Byte range `[code_lo, code_hi)` covering every cached block — the
    // watch window for store-based invalidation (empty when lo == hi).
    // Eviction leaves it over-approximate, which is always safe.
    code_lo: u32,
    code_hi: u32,
    /// Block entries served from the cache.
    pub hits: u64,
    /// Block entries that had to decode a fresh block.
    pub misses: u64,
    /// Direct-mapped inserts that evicted a *different* block (same
    /// slot, different start address) — the thrash signal that sizes
    /// [`DEFAULT_SLOTS`].
    pub conflict_evictions: u64,
}

impl BlockCache {
    /// Creates a cache with `slots` direct-mapped entries (rounded up to
    /// a power of two, minimum 1).
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1).next_power_of_two();
        BlockCache {
            slots: vec![None; slots],
            mask: slots - 1,
            enabled: true,
            code_lo: 0,
            code_hi: 0,
            hits: 0,
            misses: 0,
            conflict_evictions: 0,
        }
    }

    /// Whether cached dispatch is enabled (on by default). When disabled
    /// the interpreter takes the plain fetch-and-decode path for every
    /// instruction — useful for A/B bit-identity checks and benchmarks.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables cached dispatch; disabling also drops all
    /// cached blocks.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.invalidate_all();
        }
    }

    /// The direct-mapped slot index for a block starting at `pc`.
    #[inline]
    pub fn slot_of(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// The block stored in `slot`, if any.
    #[inline]
    pub fn block(&self, slot: usize) -> Option<&DecodedBlock> {
        self.slots[slot].as_ref()
    }

    /// Installs `block` in its slot, evicting any previous tenant, and
    /// widens the watched code range to cover it.
    pub fn insert(&mut self, block: DecodedBlock) -> usize {
        let end = block.start.saturating_add(4 * block.ops.len() as u32);
        self.widen_watch(block.start, end);
        let slot = self.slot_of(block.start);
        if let Some(old) = &self.slots[slot] {
            if old.start != block.start {
                self.conflict_evictions += 1;
            }
        }
        self.slots[slot] = Some(block);
        slot
    }

    /// Widens the watched code range to cover `[lo, hi)`. The trace
    /// engine calls this for every compiled-trace segment so stores into
    /// traced code invalidate through the same watch window as blocks.
    pub fn widen_watch(&mut self, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        if self.code_lo == self.code_hi {
            self.code_lo = lo;
            self.code_hi = hi;
        } else {
            self.code_lo = self.code_lo.min(lo);
            self.code_hi = self.code_hi.max(hi);
        }
    }

    /// `true` when a write to byte `addr` could land inside cached code.
    #[inline]
    pub fn watches(&self, addr: u32) -> bool {
        addr.wrapping_sub(self.code_lo) < self.code_hi.wrapping_sub(self.code_lo)
    }

    /// `true` when the byte range `[lo, hi)` could overlap cached code.
    #[inline]
    pub fn overlaps(&self, lo: u32, hi: u32) -> bool {
        self.code_lo != self.code_hi && lo < self.code_hi && hi > self.code_lo
    }

    /// Drops every cached block (used on checkpoint restore and bulk
    /// code rewrites). Counters are preserved — they describe the run,
    /// not the cache contents. Free when nothing was inserted since the
    /// last invalidation (the watch range doubles as an occupancy flag —
    /// hosts call this on every run entry).
    pub fn invalidate_all(&mut self) {
        if self.code_lo == self.code_hi {
            return;
        }
        for slot in &mut self.slots {
            *slot = None;
        }
        self.code_lo = 0;
        self.code_hi = 0;
    }

    /// Hit rate over block entries so far (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new(DEFAULT_SLOTS)
    }
}

/// A point-in-time copy of the CPU hardware counters, including the
/// decoded-block cache and trace-engine statistics — the
/// `mcycle`/`minstret`-style surface firmware experiments use to
/// self-report cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfCounters {
    /// Cycle counter (`mcycle`).
    pub cycles: u64,
    /// Retired instructions (`minstret`).
    pub instret: u64,
    /// Decoded-block cache hits (block entries served pre-decoded).
    pub block_hits: u64,
    /// Decoded-block cache misses (blocks decoded on entry).
    pub block_misses: u64,
    /// Direct-mapped block evictions that replaced a different block.
    pub block_conflict_evictions: u64,
    /// Trace dispatches (entries plus in-place loop iterations).
    pub trace_hits: u64,
    /// Traces compiled (recompiles after invalidation included).
    pub traces_compiled: u64,
    /// Direct-mapped trace evictions that replaced a different trace.
    pub trace_conflict_evictions: u64,
    /// Trace side exits: a branch retired against the prediction.
    pub trace_exit_guard: u64,
    /// Trace side exits: the trace ran to its end without looping.
    pub trace_exit_end: u64,
    /// Trace side exits: cycle budget / bulk horizon reached.
    pub trace_exit_budget: u64,
    /// Trace side exits: an MMIO access bailed or closed the window.
    pub trace_exit_mmio: u64,
    /// Trace side exits: an op invalidated the compiled code under it.
    pub trace_exit_invalidated: u64,
}

impl PerfCounters {
    /// Block-cache hit rate (0 when no blocks were entered).
    pub fn block_hit_rate(&self) -> f64 {
        let total = self.block_hits + self.block_misses;
        if total == 0 {
            0.0
        } else {
            self.block_hits as f64 / total as f64
        }
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
    fn block_ends_at_branch() {
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 1,
            },
            Add {
                rd: 2,
                rs1: 1,
                rs2: 1,
            },
            Beq {
                rs1: 1,
                rs2: 2,
                offset: 8,
            },
            Addi {
                rd: 3,
                rs1: 0,
                imm: 9,
            },
        ]);
        let block = DecodedBlock::build(&mem, 0).expect("block builds");
        assert_eq!(block.ops.len(), 3, "terminates at the branch, inclusive");
        assert!(is_block_terminator(&block.ops[2]));
    }

    #[test]
    fn block_ends_at_system_ops() {
        for term in [Ecall, Ebreak, Wfi, Jal { rd: 0, offset: 8 }] {
            let mem = mem_with(&[
                Addi {
                    rd: 1,
                    rs1: 0,
                    imm: 1,
                },
                term,
                Addi {
                    rd: 2,
                    rs1: 0,
                    imm: 2,
                },
            ]);
            let block = DecodedBlock::build(&mem, 0).unwrap();
            assert_eq!(block.ops.len(), 2, "{term:?} must terminate the block");
        }
    }

    #[test]
    fn block_stops_before_undecodable_word() {
        let mut mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 1,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 2,
            },
        ]);
        mem.load_words(8, &[0xFFFF_FFFF]);
        let block = DecodedBlock::build(&mem, 0).unwrap();
        assert_eq!(block.ops.len(), 2, "garbage word is not pre-decoded");
        assert!(
            DecodedBlock::build(&mem, 8).is_none(),
            "block starting on garbage falls back to the plain path"
        );
    }

    #[test]
    fn block_length_is_capped() {
        let long: Vec<Instruction> = (0..(MAX_BLOCK_LEN + 8))
            .map(|k| Addi {
                rd: 1,
                rs1: 0,
                imm: (k % 7) as i32,
            })
            .collect();
        let mem = mem_with(&long);
        let block = DecodedBlock::build(&mem, 0).unwrap();
        assert_eq!(block.ops.len(), MAX_BLOCK_LEN);
    }

    #[test]
    fn cache_inserts_evicts_and_counts() {
        let mem = mem_with(&[Ecall]);
        let mut cache = BlockCache::new(4);
        assert_eq!(cache.hit_rate(), 0.0);
        let block = DecodedBlock::build(&mem, 0).unwrap();
        let slot = cache.insert(block.clone());
        assert_eq!(cache.block(slot).unwrap().start, 0);
        // Same slot, different start address evicts (direct-mapped).
        let colliding = DecodedBlock {
            start: 4 * (cache.mask as u32 + 1),
            ops: block.ops,
        };
        assert_eq!(cache.slot_of(colliding.start), slot, "collision by design");
        cache.insert(colliding);
        assert_ne!(cache.block(slot).unwrap().start, 0, "evicted");
        assert_eq!(cache.conflict_evictions, 1);
        cache.invalidate_all();
        assert!(cache.block(slot).is_none());
    }

    #[test]
    fn watch_range_tracks_inserted_blocks() {
        let mem = mem_with(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 1,
            },
            Ecall,
        ]);
        let mut cache = BlockCache::new(8);
        assert!(!cache.watches(0), "empty cache watches nothing");
        let block = DecodedBlock::build(&mem, 0).unwrap();
        let bytes = 4 * block.ops.len() as u32;
        cache.insert(block);
        assert!(cache.watches(0) && cache.watches(bytes - 1));
        assert!(!cache.watches(bytes));
        assert!(cache.overlaps(0, 4));
        assert!(!cache.overlaps(bytes, bytes + 4));
        cache.invalidate_all();
        assert!(!cache.watches(0));
        assert!(!cache.overlaps(0, u32::MAX));
    }

    #[test]
    fn disabling_drops_blocks() {
        let mem = mem_with(&[Ecall]);
        let mut cache = BlockCache::default();
        let block = DecodedBlock::build(&mem, 0).unwrap();
        let slot = cache.insert(block);
        cache.set_enabled(false);
        assert!(!cache.is_enabled());
        assert!(cache.block(slot).is_none());
    }

    #[test]
    fn perf_counters_hit_rate() {
        let p = PerfCounters {
            cycles: 10,
            instret: 8,
            block_hits: 3,
            block_misses: 1,
            ..PerfCounters::default()
        };
        assert_eq!(p.block_hit_rate(), 0.75);
        assert_eq!(PerfCounters::default().block_hit_rate(), 0.0);
    }
}
