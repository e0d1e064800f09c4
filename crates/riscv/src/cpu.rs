//! The RV32IM interpreter core with a simple cycle-accounting model —
//! the host processor of the gem5-style full-system simulation (paper §5).

use crate::block::PerfCounters;
use crate::bus::{Bus, BusFault};
use crate::isa::{decode, Instruction};
use crate::trace::{CompiledTrace, SideExit, TraceEngine};
use std::fmt;
use std::sync::Arc;

/// CSR addresses implemented by the core.
pub mod csr {
    /// Cycle counter (read-only).
    pub const MCYCLE: u16 = 0xB00;
    /// Retired-instruction counter (read-only).
    pub const MINSTRET: u16 = 0xB02;
    /// Scratch register.
    pub const MSCRATCH: u16 = 0x340;
    /// Bulk entries served by a compiled trace (read-only,
    /// `mhpmcounter3` slot).
    pub const TRACED_ENTRIES: u16 = 0xB03;
    /// Bulk entries run by decoding from memory, counted as each run
    /// ends (read-only, `mhpmcounter4` slot).
    pub const DECODED_ENTRIES: u16 = 0xB04;
    /// Trace dispatches (read-only, `mhpmcounter5` slot).
    pub const TRACE_HITS: u16 = 0xB05;
    /// Trace side exits of any kind (read-only, `mhpmcounter6` slot).
    pub const TRACE_EXITS: u16 = 0xB06;
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// An `ecall` was executed (the firmware's "done" convention).
    Ecall,
    /// An `ebreak` was executed.
    Ebreak,
    /// The cycle budget ran out.
    CycleLimit,
}

/// The result of a bounded run, with exact cycle accounting.
///
/// `cycles_consumed` reports the cycles actually spent, which can exceed
/// the requested budget when the final instruction completes past the
/// limit — the seed `run` reported the cap in that
/// case, losing the overshoot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunExit {
    /// Why execution stopped.
    pub halt: Halt,
    /// Cycles actually consumed by this run (may exceed the budget).
    pub cycles_consumed: u64,
}

/// A trap: the program did something the machine cannot continue from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Instruction fetch or decode failed.
    IllegalInstruction {
        /// Program counter of the offending instruction.
        pc: u32,
        /// The raw word, if the fetch itself succeeded.
        word: Option<u32>,
    },
    /// A data access faulted.
    MemoryFault {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The bus fault.
        fault: BusFault,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction at {pc:#010x} ({word:?})")
            }
            Trap::MemoryFault { pc, fault } => write!(f, "{fault} at pc {pc:#010x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Per-class instruction latencies \[cycles\] — the timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    /// ALU / branch-not-taken.
    pub alu: u64,
    /// Taken branch / jump (pipeline refill).
    pub branch_taken: u64,
    /// Load from memory.
    pub load: u64,
    /// Store to memory.
    pub store: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
}

impl CycleModel {
    /// Cycles `inst` takes to retire; `taken` says a jump or branch
    /// redirected the pc. The one latency table: the interpreter charges
    /// it per op and the trace compiler pre-costs predicted paths with it.
    #[inline(always)]
    pub fn cost(&self, inst: Instruction, taken: bool) -> u64 {
        use Instruction::*;
        match inst {
            Lb { .. } | Lh { .. } | Lw { .. } | Lbu { .. } | Lhu { .. } => self.load,
            Sb { .. } | Sh { .. } | Sw { .. } => self.store,
            Mul { .. } | Mulh { .. } | Mulhsu { .. } | Mulhu { .. } => self.mul,
            Div { .. } | Divu { .. } | Rem { .. } | Remu { .. } => self.div,
            _ if taken => self.branch_taken,
            _ => self.alu,
        }
    }
}

impl Default for CycleModel {
    /// A small in-order core: 1-cycle ALU, 3-cycle taken branches,
    /// 2/1-cycle load/store (hits), 3-cycle multiply, 20-cycle divide.
    fn default() -> Self {
        CycleModel {
            alu: 1,
            branch_taken: 3,
            load: 2,
            store: 1,
            mul: 3,
            div: 20,
        }
    }
}

/// A point-in-time copy of the complete architectural and timing state
/// of a [`Cpu`], for checkpoint/restore (fault-injection campaigns
/// resume from the last checkpoint instead of replaying the warm-up
/// prefix).
///
/// A restored core is indistinguishable from the original: registers,
/// `pc`, CSRs, the `wfi` sleep flag and both hardware counters all
/// round-trip, so a resumed run continues the exact same trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSnapshot {
    regs: [u32; 32],
    pc: u32,
    cycles: u64,
    instret: u64,
    cycle_model: CycleModel,
    mscratch: u32,
    waiting_for_interrupt: bool,
}

impl CpuSnapshot {
    /// Cycle counter value at the time the snapshot was taken.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// How a compiled-trace dispatch ended, from the bulk loop's point of
/// view: keep going in the bulk loop, or hand off to the caller.
enum TraceOutcome {
    /// The trace exited with `pc` somewhere dispatchable — re-enter the
    /// bulk loop (trace lookup, then decoding from memory).
    Continue,
    /// The bulk window must end (budget, or an MMIO access the bus
    /// declined / closed the window on): return to the caller.
    Leave,
}

/// The RV32IM processor state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers; `x0` is hardwired to zero.
    regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Cycle counter.
    pub cycles: u64,
    /// Retired instruction counter.
    pub instret: u64,
    /// Timing model.
    pub cycle_model: CycleModel,
    mscratch: u32,
    /// Set while the core sleeps in `wfi`.
    pub waiting_for_interrupt: bool,
    /// Bulk dispatch switch: on, [`Cpu::run_cached_span`] runs traces
    /// and decodes cold code from memory; off, the core is the seed
    /// interpreter.
    bulk_dispatch: bool,
    /// Trace engine: hot-path superblocks stitched across taken
    /// branches (microarchitectural — excluded from equality).
    traces: TraceEngine,
}

/// Equality covers architectural and timing state only: the trace engine
/// and the bulk-dispatch switch are microarchitectural, and two cores
/// that differ only there are observably identical.
impl PartialEq for Cpu {
    fn eq(&self, other: &Self) -> bool {
        self.regs == other.regs
            && self.pc == other.pc
            && self.cycles == other.cycles
            && self.instret == other.instret
            && self.cycle_model == other.cycle_model
            && self.mscratch == other.mscratch
            && self.waiting_for_interrupt == other.waiting_for_interrupt
    }
}

impl Cpu {
    /// Creates a CPU with zeroed registers at `pc = reset_vector`.
    pub fn new(reset_vector: u32) -> Self {
        Cpu {
            regs: [0; 32],
            pc: reset_vector,
            cycles: 0,
            instret: 0,
            cycle_model: CycleModel::default(),
            mscratch: 0,
            waiting_for_interrupt: false,
            bulk_dispatch: true,
            traces: TraceEngine::default(),
        }
    }

    /// Reads register `r` (x0 reads as 0; `r` is taken mod 32, as in
    /// the 5-bit encoding).
    #[inline(always)]
    pub fn reg(&self, r: u8) -> u32 {
        // `set_reg` never writes slot 0, so x0 reads as 0 unchecked.
        self.regs[r as usize & 31]
    }

    /// Writes register `r` (writes to x0 are discarded).
    #[inline(always)]
    pub fn set_reg(&mut self, r: u8, value: u32) {
        if r != 0 {
            self.regs[r as usize & 31] = value;
        }
    }

    /// Delivers an interrupt: wakes the core if it is in `wfi`.
    pub fn interrupt(&mut self) {
        self.waiting_for_interrupt = false;
    }

    /// Captures the complete architectural + timing state.
    pub fn snapshot(&self) -> CpuSnapshot {
        CpuSnapshot {
            regs: self.regs,
            pc: self.pc,
            cycles: self.cycles,
            instret: self.instret,
            cycle_model: self.cycle_model,
            mscratch: self.mscratch,
            waiting_for_interrupt: self.waiting_for_interrupt,
        }
    }

    /// Restores the state captured by [`Cpu::snapshot`]. Compiled traces
    /// are dropped: memory has typically been rewound with the
    /// architectural state.
    pub fn restore(&mut self, snapshot: &CpuSnapshot) {
        self.regs = snapshot.regs;
        self.pc = snapshot.pc;
        self.cycles = snapshot.cycles;
        self.instret = snapshot.instret;
        self.cycle_model = snapshot.cycle_model;
        self.mscratch = snapshot.mscratch;
        self.waiting_for_interrupt = snapshot.waiting_for_interrupt;
        self.invalidate_traces();
    }

    /// Drops every compiled trace and the profile behind them. Called on
    /// restore, on stores into traced code, and by hosts before resuming
    /// a CPU whose memory they rewrote behind its back. Traces
    /// re-profile and recompile within a few bulk entries, so hosts may
    /// call this liberally.
    pub fn invalidate_traces(&mut self) {
        self.traces.invalidate();
    }

    /// Tells the interpreter that an agent other than this CPU — a DMA
    /// engine, an accelerator, host-side pokes — may have written the
    /// byte range `[lo, hi)`. Traces are dropped when it overlaps their
    /// code, so the next bulk entry reads memory afresh. The range may be
    /// over-approximated freely.
    pub fn note_external_writes(&mut self, lo: u32, hi: u32) {
        if self.traces.overlaps(lo, hi) {
            self.traces.invalidate();
        }
    }

    /// Post-store hook: a write into traced code drops the traces so the
    /// very next instruction is read from memory.
    #[inline]
    fn note_store(&mut self, addr: u32) {
        if self.traces.watches(addr) {
            self.traces.invalidate();
        }
    }

    /// Enables or disables bulk dispatch (on by default): compiled
    /// traces, and cold code decoded from memory, retiring in bulk in
    /// [`Cpu::run_cached_span`]. Disabling reproduces the seed
    /// fetch-and-decode interpreter exactly, which is how tests and
    /// benchmarks A/B the two paths.
    pub fn set_bulk_dispatch_enabled(&mut self, enabled: bool) {
        self.bulk_dispatch = enabled;
        // An A/B run starts from a cold microarchitectural state either
        // way.
        self.traces.invalidate();
    }

    /// Whether bulk dispatch is enabled.
    pub fn bulk_dispatch_enabled(&self) -> bool {
        self.bulk_dispatch
    }

    /// Read access to the trace engine (profile and exit statistics).
    pub fn trace_engine(&self) -> &TraceEngine {
        &self.traces
    }

    /// Snapshot of the hardware counters (`mcycle`/`minstret` plus the
    /// bulk-entry and trace-engine statistics) for self-reported cost.
    pub fn perf_counters(&self) -> PerfCounters {
        PerfCounters {
            cycles: self.cycles,
            instret: self.instret,
            block_hits: self.traces.traced_entries,
            block_misses: self.traces.decoded_entries,
            trace_hits: self.traces.hits,
            traces_compiled: self.traces.compiled,
            trace_conflict_evictions: self.traces.conflict_evictions,
            trace_exit_guard: self.traces.exit_count(SideExit::Guard),
            trace_exit_end: self.traces.exit_count(SideExit::End),
            trace_exit_budget: self.traces.exit_count(SideExit::Budget),
            trace_exit_mmio: self.traces.exit_count(SideExit::Mmio),
            trace_exit_invalidated: self.traces.exit_count(SideExit::Invalidated),
        }
    }

    fn read_csr(&self, addr: u16) -> u32 {
        match addr {
            csr::MCYCLE => self.cycles as u32,
            csr::MINSTRET => self.instret as u32,
            csr::MSCRATCH => self.mscratch,
            csr::TRACED_ENTRIES => self.traces.traced_entries as u32,
            csr::DECODED_ENTRIES => self.traces.decoded_entries as u32,
            csr::TRACE_HITS => self.traces.hits as u32,
            csr::TRACE_EXITS => self.traces.total_exits() as u32,
            _ => 0,
        }
    }

    fn write_csr(&mut self, addr: u16, value: u32) {
        if addr == csr::MSCRATCH {
            self.mscratch = value;
        }
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(Some(halt))` when the program signalled completion
    /// (`ecall`/`ebreak`), `Ok(None)` to continue.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on illegal instructions or memory faults.
    pub fn step<B: Bus + ?Sized>(&mut self, bus: &mut B) -> Result<Option<Halt>, Trap> {
        if self.waiting_for_interrupt {
            // Sleeping: time passes, nothing retires.
            self.cycles += 1;
            return Ok(None);
        }
        let pc = self.pc;
        let word = bus
            .fetch_word(pc)
            .map_err(|fault| Trap::MemoryFault { pc, fault })?;
        let inst = decode(word).map_err(|_| Trap::IllegalInstruction {
            pc,
            word: Some(word),
        })?;
        self.execute(bus, inst, pc)
    }

    /// Executes one already-decoded instruction at `pc`, updating `pc`,
    /// the counters and architectural state exactly as [`Cpu::step`]
    /// does after its fetch+decode.
    fn execute<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        inst: Instruction,
        pc: u32,
    ) -> Result<Option<Halt>, Trap> {
        use Instruction::*;
        let (next_pc, taken) = match self.exec_reg(inst, pc) {
            Some(retired) => retired,
            None => {
                let fall = pc.wrapping_add(4);
                match inst {
                    Jalr { rd, rs1, offset } => {
                        let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                        self.set_reg(rd, fall);
                        (target, true)
                    }
                    Lb { rs1, offset, .. }
                    | Lh { rs1, offset, .. }
                    | Lw { rs1, offset, .. }
                    | Lbu { rs1, offset, .. }
                    | Lhu { rs1, offset, .. }
                    | Sb { rs1, offset, .. }
                    | Sh { rs1, offset, .. }
                    | Sw { rs1, offset, .. } => {
                        let addr = self.reg(rs1).wrapping_add(offset as u32);
                        self.access(bus, inst, addr)
                            .map_err(|fault| Trap::MemoryFault { pc, fault })?;
                        (fall, false)
                    }
                    Ecall | Ebreak => {
                        self.pc = fall;
                        self.cycles += self.cycle_model.cost(inst, false);
                        self.instret += 1;
                        return Ok(Some(if inst == Ecall {
                            Halt::Ecall
                        } else {
                            Halt::Ebreak
                        }));
                    }
                    Wfi => {
                        self.waiting_for_interrupt = true;
                        (fall, false)
                    }
                    Csrrw { rd, rs1, csr } => {
                        let old = self.read_csr(csr);
                        self.write_csr(csr, self.reg(rs1));
                        self.set_reg(rd, old);
                        (fall, false)
                    }
                    Csrrs { rd, rs1, csr } => {
                        let old = self.read_csr(csr);
                        if rs1 != 0 {
                            self.write_csr(csr, old | self.reg(rs1));
                        }
                        self.set_reg(rd, old);
                        (fall, false)
                    }
                    Csrrc { rd, rs1, csr } => {
                        let old = self.read_csr(csr);
                        if rs1 != 0 {
                            self.write_csr(csr, old & !self.reg(rs1));
                        }
                        self.set_reg(rd, old);
                        (fall, false)
                    }
                    _ => unreachable!("register-only ops retire in exec_reg"),
                }
            }
        };
        self.pc = next_pc;
        self.cycles += self.cycle_model.cost(inst, taken);
        self.instret += 1;
        Ok(None)
    }

    /// The register-only ops — ALU, M extension, `lui`/`auipc`, `fence`,
    /// the conditional branches and `jal` — as the one definition both
    /// [`Cpu::execute`] and the trace executor run: writes `rd` and
    /// nothing else, and returns `(next pc, taken)`. `None` for every
    /// other op (memory, `jalr`, CSR and system ops), with no effect.
    #[inline(always)]
    fn exec_reg(&mut self, inst: Instruction, pc: u32) -> Option<(u32, bool)> {
        use Instruction::*;
        let fall = pc.wrapping_add(4);
        let branch = |cond: bool, offset: i32| {
            if cond {
                (pc.wrapping_add(offset as u32), true)
            } else {
                (fall, false)
            }
        };
        match inst {
            Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u32)),
            Jal { rd, offset } => {
                self.set_reg(rd, fall);
                return Some((pc.wrapping_add(offset as u32), true));
            }
            Beq { rs1, rs2, offset } => {
                return Some(branch(self.reg(rs1) == self.reg(rs2), offset))
            }
            Bne { rs1, rs2, offset } => {
                return Some(branch(self.reg(rs1) != self.reg(rs2), offset))
            }
            Blt { rs1, rs2, offset } => {
                return Some(branch(
                    (self.reg(rs1) as i32) < (self.reg(rs2) as i32),
                    offset,
                ))
            }
            Bge { rs1, rs2, offset } => {
                return Some(branch(
                    (self.reg(rs1) as i32) >= (self.reg(rs2) as i32),
                    offset,
                ))
            }
            Bltu { rs1, rs2, offset } => {
                return Some(branch(self.reg(rs1) < self.reg(rs2), offset))
            }
            Bgeu { rs1, rs2, offset } => {
                return Some(branch(self.reg(rs1) >= self.reg(rs2), offset))
            }
            Addi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1).wrapping_add(imm as u32)),
            Slti { rd, rs1, imm } => self.set_reg(rd, ((self.reg(rs1) as i32) < imm) as u32),
            Sltiu { rd, rs1, imm } => self.set_reg(rd, (self.reg(rs1) < imm as u32) as u32),
            Xori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) ^ imm as u32),
            Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | imm as u32),
            Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & imm as u32),
            Slli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) << shamt),
            Srli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) >> shamt),
            Srai { rd, rs1, shamt } => self.set_reg(rd, ((self.reg(rs1) as i32) >> shamt) as u32),
            Add { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2))),
            Sub { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2))),
            Sll { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) << (self.reg(rs2) & 0x1f)),
            Slt { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < (self.reg(rs2) as i32)) as u32)
            }
            Sltu { rd, rs1, rs2 } => self.set_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u32),
            Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Srl { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 0x1f)),
            Sra { rd, rs1, rs2 } => self.set_reg(
                rd,
                ((self.reg(rs1) as i32) >> (self.reg(rs2) & 0x1f)) as u32,
            ),
            Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Mul { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2))),
            Mulh { rd, rs1, rs2 } => {
                let p = (self.reg(rs1) as i32 as i64) * (self.reg(rs2) as i32 as i64);
                self.set_reg(rd, (p >> 32) as u32);
            }
            Mulhsu { rd, rs1, rs2 } => {
                let p = (self.reg(rs1) as i32 as i64) * (self.reg(rs2) as u64 as i64);
                self.set_reg(rd, (p >> 32) as u32);
            }
            Mulhu { rd, rs1, rs2 } => {
                let p = (self.reg(rs1) as u64) * (self.reg(rs2) as u64);
                self.set_reg(rd, (p >> 32) as u32);
            }
            Div { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let q = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    i32::MIN
                } else {
                    a / b
                };
                self.set_reg(rd, q as u32);
            }
            Divu { rd, rs1, rs2 } => {
                let b = self.reg(rs2);
                let q = self.reg(rs1).checked_div(b).unwrap_or(u32::MAX);
                self.set_reg(rd, q);
            }
            Rem { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let r = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a % b
                };
                self.set_reg(rd, r as u32);
            }
            Remu { rd, rs1, rs2 } => {
                let b = self.reg(rs2);
                let r = if b == 0 {
                    self.reg(rs1)
                } else {
                    self.reg(rs1) % b
                };
                self.set_reg(rd, r);
            }
            Fence => {}
            _ => return None,
        }
        Some((fall, false))
    }

    /// The data access of load/store `inst` at effective address `addr`:
    /// a load writes `rd`, a store writes memory and then runs the
    /// store-into-code hook. Shared by [`Cpu::execute`] and the trace
    /// executor's RAM path.
    #[inline(always)]
    fn access<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        inst: Instruction,
        addr: u32,
    ) -> Result<(), BusFault> {
        use Instruction::*;
        match inst {
            Lb { rd, .. } => self.set_reg(rd, bus.load_byte(addr)? as i8 as i32 as u32),
            Lh { rd, .. } => self.set_reg(rd, bus.load_half(addr)? as i16 as i32 as u32),
            Lw { rd, .. } => self.set_reg(rd, bus.load_word_fast(addr)?),
            Lbu { rd, .. } => self.set_reg(rd, bus.load_byte(addr)? as u32),
            Lhu { rd, .. } => self.set_reg(rd, bus.load_half(addr)? as u32),
            Sb { rs2, .. } => {
                bus.store_byte(addr, self.reg(rs2) as u8)?;
                self.note_store(addr);
            }
            Sh { rs2, .. } => {
                bus.store_half(addr, self.reg(rs2) as u16)?;
                self.note_store(addr);
            }
            Sw { rs2, .. } => {
                bus.store_word_fast(addr, self.reg(rs2))?;
                self.note_store(addr);
            }
            _ => unreachable!("access on a non-memory op"),
        }
        Ok(())
    }

    /// Retires instructions in bulk until the cycle budget is met, the
    /// program halts, traps, or sleeps, or the path needs the precise
    /// per-instruction interpreter. Each entry at `pc` runs the compiled
    /// trace starting there (compiling one when the entry makes `pc`
    /// hot); code without a trace is decoded from memory, one run at a
    /// time up to the next control transfer. Those runs are the trace
    /// engine's profile source: every entry counts towards
    /// [`crate::trace::HOT_THRESHOLD`] and every conditional branch
    /// records its direction.
    ///
    /// The caller must guarantee a *quiet window*: nothing outside this
    /// CPU changes state the span can observe, except what
    /// [`Bus::mmio_prologue`] applies before an access (no interrupt can
    /// rise, no compiled code goes stale), and `bus.charge_fetches`
    /// accepts the code region. A bus whose devices move memory words
    /// while the span runs passes `mmio_floor = 0`, so every load and
    /// store meets the prologue and sees memory as of its own cycle.
    ///
    /// Within the window the observables match the seed interpreter
    /// exactly: each retired (or trapped) instruction is charged one
    /// fetch in bulk, stores into traced code invalidate the traces
    /// before the next instruction, and loads/stores whose
    /// effective address reaches `mmio_floor` are gated through
    /// [`Bus::mmio_prologue`] / [`Bus::mmio_epilogue`]: the bus either
    /// executes them in place with its devices synced (leaving the
    /// window when the access starts device work or raises an
    /// interrupt), or declines, in which
    /// case the access is left **unexecuted** for the caller to run
    /// through [`Cpu::step`] under the full per-cycle protocol. A word
    /// [`Bus::peek_word`] cannot read or that does not decode is left
    /// to [`Cpu::step`] as well, which reproduces the seed trap.
    /// Returning with no cycles consumed means exactly that: the caller
    /// must make progress via the precise path.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] exactly as [`Cpu::step`] would.
    pub fn run_cached_span<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        budget_end: u64,
        mmio_floor: u32,
    ) -> Result<Option<Halt>, Trap> {
        use Instruction::*;
        if !self.bulk_dispatch {
            return Ok(None);
        }
        // Traces are pre-costed: a changed timing model drops them.
        self.traces.sync_model(&self.cycle_model);
        while self.cycles < budget_end && !self.waiting_for_interrupt {
            if let Some(trace) = self.traces.enter(&*bus, self.pc) {
                match self.run_trace(bus, &trace, budget_end, mmio_floor)? {
                    TraceOutcome::Continue => continue,
                    TraceOutcome::Leave => return Ok(None),
                }
            }
            let run_pc = self.pc;
            let mut executed = 0u32;
            let mut leave = false;
            while self.cycles < budget_end {
                let pc = self.pc;
                let Some(inst) = bus.peek_word(pc).and_then(|word| decode(word).ok()) else {
                    break;
                };
                // Memory ops that might leave plain RAM are checked
                // against the effective address before any side effect:
                // the bus may run them in place, with its devices synced
                // up to the access cycle, or decline them to the precise
                // path.
                let touches_mmio = match inst {
                    Lb { rs1, offset, .. }
                    | Lh { rs1, offset, .. }
                    | Lw { rs1, offset, .. }
                    | Lbu { rs1, offset, .. }
                    | Lhu { rs1, offset, .. }
                    | Sb { rs1, offset, .. }
                    | Sh { rs1, offset, .. }
                    | Sw { rs1, offset, .. } => {
                        self.reg(rs1).wrapping_add(offset as u32) >= mmio_floor
                    }
                    _ => false,
                };
                if touches_mmio && !self.mmio_prologue(bus, inst) {
                    leave = true;
                    break;
                }
                match self.execute(bus, inst, pc) {
                    Ok(None) => executed += 1,
                    Ok(Some(halt)) => {
                        self.end_decoded_run(bus, run_pc, executed + 1);
                        return Ok(Some(halt));
                    }
                    Err(trap) => {
                        // The trapped instruction was fetched before it
                        // trapped, exactly as in the seed.
                        self.end_decoded_run(bus, run_pc, executed + 1);
                        return Err(trap);
                    }
                }
                match inst {
                    Beq { .. }
                    | Bne { .. }
                    | Blt { .. }
                    | Bge { .. }
                    | Bltu { .. }
                    | Bgeu { .. } => {
                        self.traces.record_edge(pc, self.pc != pc.wrapping_add(4));
                        break;
                    }
                    Jal { .. } | Jalr { .. } | Wfi => break,
                    // A device access that started work or raised an
                    // interrupt ends the quiet window: hand off with the
                    // access already retired.
                    _ if touches_mmio && !bus.mmio_epilogue() => {
                        leave = true;
                        break;
                    }
                    _ => {}
                }
            }
            if executed > 0 {
                self.end_decoded_run(bus, run_pc, executed);
            }
            if leave || executed == 0 {
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// Closes a decoded run of `executed` instructions from `pc`: charges
    /// their fetches in bulk and counts the entry.
    fn end_decoded_run<B: Bus + ?Sized>(&mut self, bus: &mut B, pc: u32, executed: u32) {
        charge(bus, pc, executed);
        self.traces.decoded_entries += 1;
    }

    /// Executes one compiled trace (looping in place while it keeps
    /// predicting correctly) under the same quiet-window contract as
    /// [`Cpu::run_cached_span`].
    ///
    /// Ops are pre-costed, so within a pass the exact `pc`, `cycles` and
    /// `instret` before op `k` are implicit: its pc, `base + prefix[k]`
    /// and `k` past the pass's entry count. Register-only ops and RAM
    /// accesses write registers and memory only; exact state is written
    /// back where it becomes observable:
    ///
    /// 1. at the end of a pass (once per pass);
    /// 2. where an op leaves the prediction (a guard), or a store
    ///    invalidated the trace;
    /// 3. before a CSR op or a device-space access, which then run
    ///    through [`Cpu::execute`] with the MMIO prologue/epilogue gating
    ///    of decoded runs, and at a faulting RAM access (the trap keeps
    ///    its pc and counters);
    /// 4. at the budget. A pass whose last op issues before `budget_end`
    ///    even in the worst case skips the per-op budget test.
    ///
    /// Fetches are charged in bulk per contiguous code segment.
    // Kept out of line, so the executor does not share registers with
    // the decode loop of `run_cached_span`: inlined next to the former
    // block dispatcher there, it made `fw-software` about 10% slower.
    #[inline(never)]
    fn run_trace<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        trace: &Arc<CompiledTrace>,
        budget_end: u64,
        mmio_floor: u32,
    ) -> Result<TraceOutcome, Trap> {
        debug_assert_eq!(self.pc, trace.start, "trace dispatched off its entry");
        let entry_generation = self.traces.generation;
        // Charges `executed` fetches against the trace's contiguous
        // code segments, in execution order.
        fn charge_trace<B: Bus + ?Sized>(bus: &mut B, trace: &CompiledTrace, mut executed: u32) {
            for &(seg_pc, seg_len) in &trace.segments {
                if executed == 0 {
                    break;
                }
                let count = executed.min(seg_len);
                charge(bus, seg_pc, count);
                executed -= count;
            }
        }
        loop {
            // Cycles and retirements at the pass's entry: op `k` issues
            // at `base + ops[k].prefix` with `instret0 + k` retired.
            let mut base = self.cycles;
            let instret0 = self.instret;
            let fits = base.saturating_add(trace.worst_to_last) < budget_end;
            for (k, op) in trace.ops.iter().enumerate() {
                let issue = base.wrapping_add(op.prefix);
                let retired = k as u32;
                if !fits && issue >= budget_end {
                    self.pc = op.pc;
                    self.cycles = issue;
                    self.instret = instret0 + k as u64;
                    self.traces.exits[SideExit::Budget as usize] += 1;
                    charge_trace(bus, trace, retired);
                    return Ok(TraceOutcome::Leave);
                }
                if let Some((next, taken)) = self.exec_reg(op.inst, op.pc) {
                    if taken != op.taken {
                        self.pc = next;
                        self.cycles = issue + self.cycle_model.cost(op.inst, taken);
                        self.instret = instret0 + k as u64 + 1;
                        // Guard: the branch retired — precisely —
                        // somewhere the compiler did not predict.
                        if next != op.expected_next {
                            self.traces.exits[SideExit::Guard as usize] += 1;
                            charge_trace(bus, trace, retired + 1);
                            return Ok(TraceOutcome::Continue);
                        }
                        // A branch to its own fall-through: on the path,
                        // at the other direction's cost.
                        base = self.cycles.wrapping_sub(op.prefix + op.cost);
                    }
                    continue;
                }
                let device = match op.mem {
                    Some((rs1, offset)) => {
                        let addr = self.reg(rs1).wrapping_add(offset as u32);
                        if addr >= mmio_floor {
                            true
                        } else {
                            if let Err(fault) = self.access(bus, op.inst, addr) {
                                self.pc = op.pc;
                                self.cycles = issue;
                                self.instret = instret0 + k as u64;
                                // The trapped instruction was fetched
                                // before it trapped, exactly as in the
                                // seed.
                                charge_trace(bus, trace, retired + 1);
                                return Err(Trap::MemoryFault { pc: op.pc, fault });
                            }
                            // A store of this very trace may have
                            // rewritten its own code: the invalidation
                            // bumped the generation, so stop before
                            // dispatching a stale decode.
                            if op.store && self.traces.generation != entry_generation {
                                self.pc = op.expected_next;
                                self.cycles = issue + op.cost;
                                self.instret = instret0 + k as u64 + 1;
                                self.traces.exits[SideExit::Invalidated as usize] += 1;
                                charge_trace(bus, trace, retired + 1);
                                return Ok(TraceOutcome::Continue);
                            }
                            continue;
                        }
                    }
                    None => false,
                };
                // A CSR op or a device-space access: exact state first,
                // then the precise semantic core.
                self.pc = op.pc;
                self.cycles = issue;
                self.instret = instret0 + k as u64;
                if device && !self.mmio_prologue(bus, op.inst) {
                    self.traces.exits[SideExit::Mmio as usize] += 1;
                    charge_trace(bus, trace, retired);
                    return Ok(TraceOutcome::Leave);
                }
                match self.execute(bus, op.inst, op.pc) {
                    Ok(halt) => debug_assert!(halt.is_none(), "trace ops never halt"),
                    Err(trap) => {
                        charge_trace(bus, trace, retired + 1);
                        return Err(trap);
                    }
                }
                debug_assert_eq!(self.pc, op.expected_next);
                debug_assert_eq!(self.cycles, issue + op.cost);
                if op.store && self.traces.generation != entry_generation {
                    self.traces.exits[SideExit::Invalidated as usize] += 1;
                    charge_trace(bus, trace, retired + 1);
                    return Ok(TraceOutcome::Continue);
                }
                if device && !bus.mmio_epilogue() {
                    self.traces.exits[SideExit::Mmio as usize] += 1;
                    charge_trace(bus, trace, retired + 1);
                    return Ok(TraceOutcome::Leave);
                }
            }
            // The whole pass retired on its predicted path.
            let last = trace.ops[trace.ops.len() - 1];
            self.pc = last.expected_next;
            self.cycles = base.wrapping_add(last.prefix + last.cost);
            self.instret = instret0 + trace.ops.len() as u64;
            charge_trace(bus, trace, trace.ops.len() as u32);
            if trace.loops && self.cycles < budget_end {
                // The tail predicted back to the entry and was right:
                // iterate in place without a re-dispatch.
                self.traces.hits += 1;
                continue;
            }
            self.traces.exits[SideExit::End as usize] += 1;
            return Ok(TraceOutcome::Continue);
        }
    }

    /// [`Bus::mmio_prologue`] for memory op `inst`, about to issue at
    /// the current cycle. The effective address is recomputed here from
    /// the base register (nothing has retired since the caller's floor
    /// test), so the hot dispatch loops carry a flag, not the address.
    /// Marked cold: pure-compute code never reaches it, and without the
    /// hint `fw-software` read 6–7% slower (best of 16 one-second
    /// `e2e_bench` runs, 2-core x86-64 host).
    #[cold]
    #[inline(never)]
    fn mmio_prologue<B: Bus + ?Sized>(&self, bus: &mut B, inst: Instruction) -> bool {
        use Instruction::*;
        let addr = match inst {
            Lb { rs1, offset, .. }
            | Lh { rs1, offset, .. }
            | Lw { rs1, offset, .. }
            | Lbu { rs1, offset, .. }
            | Lhu { rs1, offset, .. }
            | Sb { rs1, offset, .. }
            | Sh { rs1, offset, .. }
            | Sw { rs1, offset, .. } => self.reg(rs1).wrapping_add(offset as u32),
            _ => unreachable!("mmio_prologue on a non-memory op"),
        };
        bus.mmio_prologue(addr, self.cycles)
    }

    /// Runs until the program halts or `max_cycles` elapse, reporting
    /// the cycles actually consumed (which can exceed the budget when
    /// the final instruction completes past the limit).
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised.
    pub fn run_counted<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        max_cycles: u64,
    ) -> Result<RunExit, Trap> {
        let start = self.cycles;
        let limit = start.saturating_add(max_cycles);
        let mut halt = Halt::CycleLimit;
        // With no devices on the bus every window is quiet, so the bulk
        // span runs whenever the bus supports it (`charge_fetches`
        // probe); the precise path picks up whatever it leaves behind.
        let bulk = self.bulk_dispatch;
        while self.cycles < limit {
            if bulk && !self.waiting_for_interrupt && bus.charge_fetches(self.pc, 0) {
                let before = self.cycles;
                if let Some(h) = self.run_cached_span(bus, limit, u32::MAX)? {
                    halt = h;
                    break;
                }
                if self.cycles != before {
                    continue;
                }
            }
            if let Some(h) = self.step(bus)? {
                halt = h;
                break;
            }
        }
        Ok(RunExit {
            halt,
            cycles_consumed: self.cycles - start,
        })
    }

    /// Runs until the program halts or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised.
    pub fn run<B: Bus + ?Sized>(&mut self, bus: &mut B, max_cycles: u64) -> Result<Halt, Trap> {
        Ok(self.run_counted(bus, max_cycles)?.halt)
    }
}

/// Charges `count` bulk fetches of the code from `pc` on; the quiet
/// window guarantees the bus accepts them.
#[inline(always)]
fn charge<B: Bus + ?Sized>(bus: &mut B, pc: u32, count: u32) {
    let charged = bus.charge_fetches(pc, count);
    debug_assert!(charged, "quiet window requires bulk-chargeable fetches");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FlatMemory;
    use crate::isa::{encode, Instruction::*};
    use crate::trace::HOT_THRESHOLD;

    fn run_program(words: &[Instruction]) -> (Cpu, FlatMemory) {
        let mut mem = FlatMemory::new(4096);
        let code: Vec<u32> = words.iter().map(|&i| encode(i)).collect();
        mem.load_words(0, &code);
        let mut cpu = Cpu::new(0);
        let halt = cpu.run(&mut mem, 100_000).expect("no trap");
        assert_eq!(halt, Halt::Ecall, "programs should end with ecall");
        (cpu, mem)
    }

    #[test]
    fn arithmetic_basics() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 40,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 2,
            },
            Add {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            Sub {
                rd: 4,
                rs1: 1,
                rs2: 2,
            },
            Mul {
                rd: 5,
                rs1: 1,
                rs2: 2,
            },
            Div {
                rd: 6,
                rs1: 1,
                rs2: 2,
            },
            Rem {
                rd: 7,
                rs1: 1,
                rs2: 2,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(3), 42);
        assert_eq!(cpu.reg(4), 38);
        assert_eq!(cpu.reg(5), 80);
        assert_eq!(cpu.reg(6), 20);
        assert_eq!(cpu.reg(7), 0);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 0,
                rs1: 0,
                imm: 99,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn memory_load_store() {
        let (cpu, mut mem) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0x123,
            },
            Sw {
                rs1: 0,
                rs2: 1,
                offset: 256,
            },
            Lw {
                rd: 2,
                rs1: 0,
                offset: 256,
            },
            Lb {
                rd: 3,
                rs1: 0,
                offset: 256,
            },
            Lhu {
                rd: 4,
                rs1: 0,
                offset: 256,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(2), 0x123);
        assert_eq!(cpu.reg(3), 0x23);
        assert_eq!(cpu.reg(4), 0x123);
        assert_eq!(mem.load_word(256).unwrap(), 0x123);
    }

    #[test]
    fn sign_extension_on_loads() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: -1,
            }, // 0xFFFFFFFF
            Sw {
                rs1: 0,
                rs2: 1,
                offset: 128,
            },
            Lb {
                rd: 2,
                rs1: 0,
                offset: 128,
            },
            Lbu {
                rd: 3,
                rs1: 0,
                offset: 128,
            },
            Lh {
                rd: 4,
                rs1: 0,
                offset: 128,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(2), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(3), 0xFF);
        assert_eq!(cpu.reg(4), 0xFFFF_FFFF);
    }

    #[test]
    fn branch_loop_sums() {
        // sum 1..=10 via a loop.
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0,
            }, // sum
            Addi {
                rd: 2,
                rs1: 0,
                imm: 1,
            }, // i
            Addi {
                rd: 3,
                rs1: 0,
                imm: 10,
            }, // limit
            // loop: sum += i; i++; if i <= limit goto loop
            Add {
                rd: 1,
                rs1: 1,
                rs2: 2,
            },
            Addi {
                rd: 2,
                rs1: 2,
                imm: 1,
            },
            Bge {
                rs1: 3,
                rs2: 2,
                offset: -8,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(1), 55);
    }

    #[test]
    fn jal_and_jalr_link() {
        let (cpu, _) = run_program(&[
            Jal { rd: 1, offset: 8 }, // skip next instruction
            Addi {
                rd: 2,
                rs1: 0,
                imm: 99,
            }, // skipped
            Addi {
                rd: 3,
                rs1: 0,
                imm: 7,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(2), 0, "jal must skip");
        assert_eq!(cpu.reg(3), 7);
        assert_eq!(cpu.reg(1), 4, "link register holds return address");
    }

    #[test]
    fn shifts_and_logic() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: -8,
            },
            Srai {
                rd: 2,
                rs1: 1,
                shamt: 1,
            },
            Srli {
                rd: 3,
                rs1: 1,
                shamt: 28,
            },
            Slli {
                rd: 4,
                rs1: 1,
                shamt: 1,
            },
            Andi {
                rd: 5,
                rs1: 1,
                imm: 0xf,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(2) as i32, -4);
        assert_eq!(cpu.reg(3), 0xF);
        assert_eq!(cpu.reg(4) as i32, -16);
        assert_eq!(cpu.reg(5), 8);
    }

    #[test]
    fn division_edge_cases() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 7,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 0,
            },
            Div {
                rd: 3,
                rs1: 1,
                rs2: 2,
            }, // div by zero -> -1
            Remu {
                rd: 4,
                rs1: 1,
                rs2: 2,
            }, // rem by zero -> dividend
            Lui {
                rd: 5,
                imm: i32::MIN,
            }, // 0x80000000
            Addi {
                rd: 6,
                rs1: 0,
                imm: -1,
            },
            Div {
                rd: 7,
                rs1: 5,
                rs2: 6,
            }, // overflow -> i32::MIN
            Rem {
                rd: 8,
                rs1: 5,
                rs2: 6,
            }, // overflow -> 0
            Ecall,
        ]);
        assert_eq!(cpu.reg(3) as i32, -1);
        assert_eq!(cpu.reg(4), 7);
        assert_eq!(cpu.reg(7), 0x8000_0000);
        assert_eq!(cpu.reg(8), 0);
    }

    #[test]
    fn cycle_accounting() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 1,
            }, // 1 cycle
            Mul {
                rd: 2,
                rs1: 1,
                rs2: 1,
            }, // 3 cycles
            Lw {
                rd: 3,
                rs1: 0,
                offset: 64,
            }, // 2 cycles
            Ecall, // 1 cycle
        ]);
        assert_eq!(cpu.cycles, 1 + 3 + 2 + 1);
        assert_eq!(cpu.instret, 4);
    }

    #[test]
    fn csr_counters_readable() {
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 5,
            },
            Csrrs {
                rd: 2,
                rs1: 0,
                csr: csr::MCYCLE,
            },
            Csrrs {
                rd: 3,
                rs1: 0,
                csr: csr::MINSTRET,
            },
            Ecall,
        ]);
        assert_eq!(cpu.reg(2), 1, "one cycle retired before the read");
        assert_eq!(cpu.reg(3), 2, "addi + csrrs retired before the read");
    }

    #[test]
    fn wfi_sleeps_until_interrupt() {
        let mut mem = FlatMemory::new(256);
        mem.load_words(
            0,
            &[
                encode(Wfi),
                encode(Addi {
                    rd: 1,
                    rs1: 0,
                    imm: 9,
                }),
                encode(Ecall),
            ],
        );
        let mut cpu = Cpu::new(0);
        // Without an interrupt the core never retires past the wfi.
        let halt = cpu.run(&mut mem, 50).expect("no trap");
        assert_eq!(halt, Halt::CycleLimit);
        assert_eq!(cpu.reg(1), 0);
        // Deliver the interrupt: execution resumes.
        cpu.interrupt();
        let halt = cpu.run(&mut mem, 50).expect("no trap");
        assert_eq!(halt, Halt::Ecall);
        assert_eq!(cpu.reg(1), 9);
    }

    #[test]
    fn snapshot_restore_resumes_identical_trajectory() {
        // Run k steps, snapshot, keep running to the end; then restore a
        // second core from the snapshot and run it to the end too. Both
        // must halt in exactly the same state.
        let mut mem = FlatMemory::new(4096);
        let code: Vec<u32> = [
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 37,
            },
            // loop: x1 += x2; x2 -= 1; bnez x2 loop
            Add {
                rd: 1,
                rs1: 1,
                rs2: 2,
            },
            Addi {
                rd: 2,
                rs1: 2,
                imm: -1,
            },
            Bne {
                rs1: 2,
                rs2: 0,
                offset: -8,
            },
            Ecall,
        ]
        .iter()
        .map(|&i| encode(i))
        .collect();
        mem.load_words(0, &code);
        let mut cpu = Cpu::new(0);
        for _ in 0..25 {
            assert_eq!(cpu.step(&mut mem).expect("no trap"), None);
        }
        let snap = cpu.snapshot();
        assert_eq!(snap.cycles(), cpu.cycles);
        let halt = cpu.run(&mut mem, 100_000).expect("no trap");
        assert_eq!(halt, Halt::Ecall);

        let mut resumed = Cpu::new(0);
        resumed.restore(&snap);
        let halt = resumed.run(&mut mem, 100_000).expect("no trap");
        assert_eq!(halt, Halt::Ecall);
        assert_eq!(resumed, cpu, "restored core must converge to same state");
        assert_eq!(resumed.reg(1), (1..=37).sum::<u32>());
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = FlatMemory::new(64);
        mem.load_words(0, &[0xFFFF_FFFF]);
        let mut cpu = Cpu::new(0);
        match cpu.step(&mut mem) {
            Err(Trap::IllegalInstruction { pc: 0, .. }) => {}
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn memory_fault_traps() {
        let mut mem = FlatMemory::new(64);
        mem.load_words(
            0,
            &[encode(Lw {
                rd: 1,
                rs1: 0,
                offset: 2044,
            })],
        );
        let mut cpu = Cpu::new(0);
        match cpu.step(&mut mem) {
            Err(Trap::MemoryFault { .. }) => {}
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn run_counted_reports_overshoot_past_budget() {
        // addi (1 cycle) then div (20 cycles): a 5-cycle budget is
        // crossed mid-divide, so 21 cycles are actually consumed.
        let mut mem = FlatMemory::new(256);
        mem.load_words(
            0,
            &[
                encode(Addi {
                    rd: 1,
                    rs1: 0,
                    imm: 7,
                }),
                encode(Div {
                    rd: 2,
                    rs1: 1,
                    rs2: 1,
                }),
                encode(Ecall),
            ],
        );
        let mut cpu = Cpu::new(0);
        let exit = cpu.run_counted(&mut mem, 5).expect("no trap");
        assert_eq!(exit.halt, Halt::CycleLimit);
        assert_eq!(exit.cycles_consumed, 21, "overshoot must be reported");
        assert!(exit.cycles_consumed > 5, "not clamped to the cap");
        assert_eq!(cpu.cycles, 21);
    }

    fn lcg(state: &mut u64) -> u32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as u32
    }

    /// Deterministic random straight-line-plus-forward-branch program:
    /// always terminates, never leaves a 4 KiB memory.
    fn random_program(seed: u64, len: usize) -> Vec<Instruction> {
        let mut s = seed;
        let mut prog = Vec::with_capacity(len + 1);
        for k in 0..len {
            let rd = (1 + lcg(&mut s) % 15) as u8;
            let rs1 = (lcg(&mut s) % 16) as u8;
            let rs2 = (lcg(&mut s) % 16) as u8;
            let inst = match lcg(&mut s) % 10 {
                0 => Addi {
                    rd,
                    rs1,
                    imm: (lcg(&mut s) % 4096) as i32 - 2048,
                },
                1 => Add { rd, rs1, rs2 },
                2 => Sub { rd, rs1, rs2 },
                3 => Xor { rd, rs1, rs2 },
                4 => Mul { rd, rs1, rs2 },
                5 => Slli {
                    rd,
                    rs1,
                    shamt: (lcg(&mut s) % 32) as u8,
                },
                6 => Sltu { rd, rs1, rs2 },
                // Data traffic in the 1 KiB..2 KiB window, clear of code.
                7 => Sw {
                    rs1: 0,
                    rs2,
                    offset: (1024 + (lcg(&mut s) % 255) * 4) as i32,
                },
                8 => Lw {
                    rd,
                    rs1: 0,
                    offset: (1024 + (lcg(&mut s) % 255) * 4) as i32,
                },
                // Forward-only branch (skips one instruction): always
                // terminates, still exercises block boundaries.
                _ if k + 2 < len => {
                    if lcg(&mut s).is_multiple_of(2) {
                        Beq {
                            rs1,
                            rs2,
                            offset: 8,
                        }
                    } else {
                        Bne {
                            rs1,
                            rs2,
                            offset: 8,
                        }
                    }
                }
                _ => Addi { rd, rs1, imm: 1 },
            };
            prog.push(inst);
        }
        prog.push(Ecall);
        prog
    }

    #[test]
    fn cached_dispatch_matches_plain_interpreter_on_random_programs() {
        for seed in 0..20u64 {
            let prog = random_program(seed * 7 + 1, 200);
            let code: Vec<u32> = prog.iter().map(|&i| encode(i)).collect();
            let mut mem_fast = FlatMemory::new(4096);
            mem_fast.load_words(0, &code);
            let mut mem_slow = mem_fast.clone();

            let mut fast = Cpu::new(0);
            let mut slow = Cpu::new(0);
            slow.set_bulk_dispatch_enabled(false);

            let rf = fast.run(&mut mem_fast, 100_000);
            let rs = slow.run(&mut mem_slow, 100_000);
            assert_eq!(rf, rs, "seed {seed}: same halt/trap");
            assert_eq!(fast, slow, "seed {seed}: same architectural state");
            assert_eq!(fast.cycles, slow.cycles, "seed {seed}: same cycles");
            assert_eq!(fast.instret, slow.instret, "seed {seed}: same instret");
            assert_eq!(mem_fast, mem_slow, "seed {seed}: same memory");
        }
    }

    /// A counted loop whose trace holds a RAM load and store, a mul and
    /// a div, a data-dependent branch (predicted taken, falls through
    /// every fourth pass), an `mcycle` read and a `jal`.
    fn hot_kernel() -> Vec<u32> {
        let csr = |rd| Csrrs {
            rd,
            rs1: 0,
            csr: csr::MCYCLE,
        };
        [
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0x200,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 24,
            },
            // loop (pc 8):
            Lw {
                rd: 4,
                rs1: 1,
                offset: 0,
            },
            Add {
                rd: 4,
                rs1: 4,
                rs2: 2,
            },
            Sw {
                rs1: 1,
                rs2: 4,
                offset: 0,
            },
            Mul {
                rd: 5,
                rs1: 4,
                rs2: 2,
            },
            Andi {
                rd: 6,
                rs1: 2,
                imm: 3,
            },
            Bne {
                rs1: 6,
                rs2: 0,
                offset: 8,
            },
            Addi {
                rd: 3,
                rs1: 3,
                imm: 7,
            },
            Div {
                rd: 7,
                rs1: 5,
                rs2: 2,
            },
            Add {
                rd: 3,
                rs1: 3,
                rs2: 7,
            },
            csr(8),
            Add {
                rd: 3,
                rs1: 3,
                rs2: 8,
            },
            Addi {
                rd: 1,
                rs1: 1,
                imm: 4,
            },
            Jal { rd: 9, offset: 4 },
            Addi {
                rd: 2,
                rs1: 2,
                imm: -1,
            },
            Bne {
                rs1: 2,
                rs2: 0,
                offset: -56,
            },
            Ecall,
        ]
        .iter()
        .map(|&i| encode(i))
        .collect()
    }

    /// Runs `code` on a fresh core for `budget` cycles, then (when
    /// `then` is given) swaps in that timing model and runs to the end.
    fn budgeted_run(
        code: &[u32],
        cached: bool,
        budget: u64,
        then: Option<CycleModel>,
    ) -> (Vec<Result<RunExit, Trap>>, Cpu, FlatMemory, u64) {
        let mut mem = FlatMemory::new(4096);
        mem.load_words(0, code);
        let mut cpu = Cpu::new(0);
        cpu.set_bulk_dispatch_enabled(cached);
        let mut exits = vec![cpu.run_counted(&mut mem, budget)];
        let compiled = cpu.trace_engine().compiled;
        if let Some(model) = then {
            cpu.cycle_model = model;
            exits.push(cpu.run_counted(&mut mem, 1_000_000));
        }
        (exits, cpu, mem, compiled)
    }

    #[test]
    fn trace_passes_match_the_seed_at_every_budget_and_after_a_model_change() {
        let code = hot_kernel();
        let (_, full, _, _) = budgeted_run(&code, false, 1_000_000, None);
        let total = full.cycles;
        assert_eq!(full.pc, 4 * (code.len() as u32), "kernel ran to its ecall");
        let slow_model = CycleModel {
            alu: 2,
            branch_taken: 5,
            load: 4,
            store: 3,
            mul: 7,
            div: 11,
        };
        let mut switched_with_traces = 0;
        for budget in 1..=total {
            for then in [None, Some(slow_model)] {
                let (fast_exits, fast, fast_mem, compiled) =
                    budgeted_run(&code, true, budget, then);
                let (seed_exits, seed, seed_mem, _) = budgeted_run(&code, false, budget, then);
                let what = format!("budget {budget}, model change {}", then.is_some());
                assert_eq!(fast_exits, seed_exits, "{what}: halt");
                assert_eq!(fast, seed, "{what}: state and counters");
                assert_eq!(fast_mem, seed_mem, "{what}: memory");
                if then.is_some() && compiled > 0 && budget < total {
                    switched_with_traces += 1;
                }
            }
        }
        assert!(
            switched_with_traces > 100,
            "the model change must land after traces compiled ({switched_with_traces})"
        );
    }

    #[test]
    fn self_modifying_code_is_seen_by_cached_dispatch() {
        // The program overwrites an instruction later in its own
        // straight-line run; the bulk path must execute the new word on
        // the very instruction the plain interpreter would.
        let patched = encode(Addi {
            rd: 5,
            rs1: 0,
            imm: 77,
        });
        let lo = {
            let lo = (patched & 0xFFF) as i32;
            if lo >= 2048 {
                lo - 4096
            } else {
                lo
            }
        };
        let hi = (patched as i32).wrapping_sub(lo);
        let prog = [
            Lui { rd: 1, imm: hi },
            Addi {
                rd: 1,
                rs1: 1,
                imm: lo,
            },
            Sw {
                rs1: 0,
                rs2: 1,
                offset: 24, // overwrites word index 6 below
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 1,
            },
            Addi {
                rd: 3,
                rs1: 0,
                imm: 2,
            },
            Addi {
                rd: 4,
                rs1: 0,
                imm: 3,
            },
            Addi {
                rd: 5,
                rs1: 0,
                imm: 0,
            }, // becomes addi x5, x0, 77
            Ecall,
        ];
        let code: Vec<u32> = prog.iter().map(|&i| encode(i)).collect();

        let mut mem_fast = FlatMemory::new(4096);
        mem_fast.load_words(0, &code);
        let mut mem_slow = mem_fast.clone();
        let mut fast = Cpu::new(0);
        let mut slow = Cpu::new(0);
        slow.set_bulk_dispatch_enabled(false);

        assert_eq!(fast.run(&mut mem_fast, 10_000).unwrap(), Halt::Ecall);
        assert_eq!(slow.run(&mut mem_slow, 10_000).unwrap(), Halt::Ecall);
        assert_eq!(fast.reg(5), 77, "patched instruction must execute");
        assert_eq!(fast, slow);
        assert_eq!(mem_fast, mem_slow);
    }

    #[test]
    fn store_rewriting_code_inside_a_compiled_trace() {
        // A hot loop whose body *is* a compiled trace stores, on one
        // specific iteration, a new instruction word over the loop's own
        // nop — from inside the trace. The executor must side-exit on
        // its own invalidation, re-execute the freshly patched word
        // exactly as the seed interpreter does (bit-identical state),
        // and recompile a trace containing the patched op.
        let patched = encode(Addi {
            rd: 5,
            rs1: 0,
            imm: 77,
        });
        let lo = {
            let lo = (patched & 0xFFF) as i32;
            if lo >= 2048 {
                lo - 4096
            } else {
                lo
            }
        };
        let hi = (patched as i32).wrapping_sub(lo);
        // x6 = scratch(1024) for every iteration except x1 == 20, where
        // a branch-free select (xor/sltiu/mul) redirects it at the nop
        // at pc 52 — so the store executes on the trace's hot path.
        let prog = [
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 30,
            },
            Lui { rd: 3, imm: hi },
            Addi {
                rd: 3,
                rs1: 3,
                imm: lo,
            },
            Addi {
                rd: 4,
                rs1: 0,
                imm: 20,
            },
            Addi {
                rd: 10,
                rs1: 0,
                imm: 1024,
            },
            Addi {
                rd: 9,
                rs1: 0,
                imm: 52 - 1024,
            },
            // loop @ pc 28
            Addi {
                rd: 1,
                rs1: 1,
                imm: 1,
            },
            Xor {
                rd: 7,
                rs1: 1,
                rs2: 4,
            },
            Sltiu {
                rd: 7,
                rs1: 7,
                imm: 1,
            },
            Mul {
                rd: 8,
                rs1: 7,
                rs2: 9,
            },
            Add {
                rd: 6,
                rs1: 10,
                rs2: 8,
            },
            Sw {
                rs1: 6,
                rs2: 3,
                offset: 0,
            },
            Addi {
                rd: 0,
                rs1: 0,
                imm: 0,
            }, // pc 52: becomes addi x5, x0, 77
            Bne {
                rs1: 1,
                rs2: 2,
                offset: -28,
            },
            Ecall,
        ];
        let code: Vec<u32> = prog.iter().map(|&i| encode(i)).collect();
        let mut mem_fast = FlatMemory::new(4096);
        mem_fast.load_words(0, &code);
        let mut mem_slow = mem_fast.clone();
        let mut fast = Cpu::new(0);
        let mut slow = Cpu::new(0);
        slow.set_bulk_dispatch_enabled(false);
        assert_eq!(fast.run(&mut mem_fast, 100_000).unwrap(), Halt::Ecall);
        assert_eq!(slow.run(&mut mem_slow, 100_000).unwrap(), Halt::Ecall);
        assert_eq!(fast.reg(5), 77, "patched instruction must execute");
        assert_eq!(fast, slow, "SMC inside a trace must stay bit-identical");
        assert_eq!(mem_fast, mem_slow);
        let perf = fast.perf_counters();
        assert!(
            perf.trace_exit_invalidated >= 1,
            "the rewriting store must be caught mid-trace: {perf:?}"
        );
        assert!(
            perf.traces_compiled >= 2,
            "patched loop must recompile: {perf:?}"
        );
    }

    #[test]
    fn bulk_entry_counters_and_perf_csrs() {
        // A loop entered cold: its first entries decode from memory, the
        // entry that makes it hot compiles a trace, which then iterates
        // in place. Both entry kinds are visible through the CSRs.
        let (cpu, _) = run_program(&[
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 20,
            },
            Add {
                rd: 1,
                rs1: 1,
                rs2: 2,
            },
            Addi {
                rd: 2,
                rs1: 2,
                imm: -1,
            },
            Bne {
                rs1: 2,
                rs2: 0,
                offset: -8,
            },
            Csrrs {
                rd: 20,
                rs1: 0,
                csr: csr::TRACED_ENTRIES,
            },
            Csrrs {
                rd: 21,
                rs1: 0,
                csr: csr::DECODED_ENTRIES,
            },
            Ecall,
        ]);
        let perf = cpu.perf_counters();
        assert_eq!(perf.cycles, cpu.cycles);
        assert_eq!(perf.instret, cpu.instret);
        // Decoded: the run from pc 0, the loop's cold entries, and the
        // run after the loop exits.
        let cold = HOT_THRESHOLD as u64 - 1;
        assert_eq!(perf.block_misses, 1 + cold + 1, "{perf:?}");
        assert_eq!(perf.block_hits, 1, "one trace entry: {perf:?}");
        assert!(
            perf.traces_compiled == 1 && perf.trace_hits > HOT_THRESHOLD as u64,
            "hot loop compiles a trace and iterates in it: {perf:?}"
        );
        assert!(
            perf.trace_exit_guard >= 1,
            "loop exit retires against the prediction: {perf:?}"
        );
        assert_eq!(cpu.reg(20) as u64, perf.block_hits, "traced-entry CSR");
        // A decoded run counts when it ends: the run reading the CSR is
        // still open.
        assert_eq!(
            cpu.reg(21) as u64,
            perf.block_misses - 1,
            "decoded-entry CSR"
        );
    }

    #[test]
    fn disabled_bulk_dispatch_runs_pure_seed_path() {
        let mut mem = FlatMemory::new(1024);
        mem.load_words(
            0,
            &[
                encode(Addi {
                    rd: 1,
                    rs1: 0,
                    imm: 4,
                }),
                encode(Ecall),
            ],
        );
        let mut cpu = Cpu::new(0);
        cpu.set_bulk_dispatch_enabled(false);
        assert!(!cpu.bulk_dispatch_enabled());
        assert_eq!(cpu.run(&mut mem, 1000).unwrap(), Halt::Ecall);
        let perf = cpu.perf_counters();
        assert_eq!(perf.block_hits, 0);
        assert_eq!(perf.block_misses, 0);
    }

    #[test]
    fn undecodable_word_traps_exactly_as_the_seed() {
        // A decoded run stops before the garbage word and hands it to
        // the precise path, which raises the seed trap with the seed
        // counters.
        let mut flat = FlatMemory::new(1024);
        let ok = |imm| encode(Addi { rd: 1, rs1: 1, imm });
        flat.load_words(0, &[ok(1), ok(2), 0xFFFF_FFFF]);
        let run = |bulk: bool| {
            let mut mem = flat.clone();
            let mut cpu = Cpu::new(0);
            cpu.set_bulk_dispatch_enabled(bulk);
            (cpu.run(&mut mem, 1000), cpu)
        };
        let (fast_exit, fast) = run(true);
        let (seed_exit, seed) = run(false);
        assert_eq!(
            fast_exit,
            Err(Trap::IllegalInstruction {
                pc: 8,
                word: Some(0xFFFF_FFFF)
            })
        );
        assert_eq!(fast_exit, seed_exit);
        assert_eq!(fast, seed);
        assert_eq!(fast.perf_counters().block_misses, 1, "one decoded run");
    }

    /// Flat memory whose fetches cannot be charged in bulk, so every
    /// instruction must take the precise path.
    #[derive(PartialEq, Debug)]
    struct PreciseOnly(FlatMemory);

    impl Bus for PreciseOnly {
        fn load_word(&mut self, addr: u32) -> Result<u32, BusFault> {
            self.0.load_word(addr)
        }
        fn store_word(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
            self.0.store_word(addr, value)
        }
        fn peek_word(&self, addr: u32) -> Option<u32> {
            self.0.peek_word(addr)
        }
    }

    #[test]
    fn precise_path_never_enters_bulk_dispatch() {
        // sum 1..=10 in a loop, with bulk dispatch enabled but the bus
        // unable to charge fetches in bulk: the precise path neither
        // enters traces nor counts decoded runs, and retires exactly
        // what the seed core retires.
        let words: Vec<u32> = [
            Addi {
                rd: 1,
                rs1: 0,
                imm: 0,
            },
            Addi {
                rd: 2,
                rs1: 0,
                imm: 10,
            },
            Add {
                rd: 1,
                rs1: 1,
                rs2: 2,
            },
            Addi {
                rd: 2,
                rs1: 2,
                imm: -1,
            },
            Bne {
                rs1: 2,
                rs2: 0,
                offset: -8,
            },
            Ecall,
        ]
        .iter()
        .map(|&i| encode(i))
        .collect();
        let mut flat = FlatMemory::new(1024);
        flat.load_words(0, &words);
        let run = |bulk: bool| {
            let mut mem = PreciseOnly(flat.clone());
            let mut cpu = Cpu::new(0);
            cpu.set_bulk_dispatch_enabled(bulk);
            assert_eq!(cpu.run(&mut mem, 10_000).unwrap(), Halt::Ecall);
            (cpu, mem)
        };
        let (cached, cached_mem) = run(true);
        let (plain, plain_mem) = run(false);
        assert!(cached.bulk_dispatch_enabled());
        assert_eq!(cached.reg(1), 55);
        let perf = cached.perf_counters();
        assert_eq!((perf.block_hits, perf.block_misses), (0, 0), "{perf:?}");
        assert_eq!(cached, plain);
        assert_eq!(cached_mem, plain_mem);
    }
}
