//! The full-system platform of the paper's Fig. 3: a RISC-V host CPU, a
//! DRAM main memory, a scratchpad, a DMA engine and the memory-mapped
//! photonic accelerator, glued by a bus and level-triggered interrupt
//! lines.
//!
//! Memory map:
//!
//! | region      | base          | size    |
//! |-------------|---------------|---------|
//! | DRAM        | `0x0000_0000` | 4 MiB   |
//! | SPM         | `0x1000_0000` | 256 KiB |
//! | Accel MMRs  | `0x4000_0000` | 0x30    |
//! | DMA MMRs    | `0x4100_0000` | 0x18    |

use crate::accel::AccelDevice;
use crate::cache::DirectMappedCache;
use crate::dma::{DmaDevice, DmaSchedule};
use crate::fixed::{from_fixed, to_fixed};
use crate::ram::Ram;
use neuropulsim_photonics::energy::EnergyLedger;
use neuropulsim_riscv::bus::{Bus, BusFault};
use neuropulsim_riscv::cpu::{Cpu, Halt, Trap};
use neuropulsim_riscv::isa::Instruction;

/// DRAM base address.
pub const DRAM_BASE: u32 = 0x0000_0000;
/// DRAM size in bytes.
pub const DRAM_SIZE: usize = 4 * 1024 * 1024;
/// Scratchpad base address.
pub const SPM_BASE: u32 = 0x1000_0000;
/// Scratchpad size in bytes.
pub const SPM_SIZE: usize = 256 * 1024;
/// Accelerator MMR base address (PE 0).
pub const ACCEL_BASE: u32 = 0x4000_0000;
/// Address stride between processing elements in a cluster.
pub const PE_STRIDE: u32 = 0x1000;
/// DMA MMR base address.
pub const DMA_BASE: u32 = 0x4100_0000;

/// Per-event energy constants of the digital side \[J\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitalEnergy {
    /// CPU energy per retired instruction.
    pub cpu_per_instruction: f64,
    /// DRAM energy per word access.
    pub dram_per_access: f64,
    /// SPM energy per word access.
    pub spm_per_access: f64,
}

impl Default for DigitalEnergy {
    /// 10 pJ/instruction in-order core, 200 pJ/word DRAM, 10 pJ/word SPM.
    fn default() -> Self {
        DigitalEnergy {
            cpu_per_instruction: 10e-12,
            dram_per_access: 200e-12,
            spm_per_access: 10e-12,
        }
    }
}

/// Everything on the bus except the CPU.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Main memory.
    pub dram: Ram,
    /// Scratchpad memory.
    pub spm: Ram,
    /// The photonic MVM accelerators (paper Fig. 3, right side): PE
    /// `slot` is mapped at `ACCEL_BASE + PE_STRIDE * slot`, and slot 0
    /// always exists.
    pub(crate) pes: Vec<AccelDevice>,
    /// The DMA engine.
    pub dma: DmaDevice,
    /// Current cycle (synced from the CPU by [`System`]).
    pub now: u64,
    /// DRAM access latency \[cycles\] charged when no cache absorbs it
    /// (0 = the idealized flat-memory model).
    pub dram_latency: u64,
    /// Optional unified L1 cache over DRAM traffic (timing-only).
    pub l1_cache: Option<DirectMappedCache>,
    // pub(crate) so the checkpoint module can capture/restore them.
    pub(crate) stall_cycles: u64,
    /// Exclusive end of the current bulk-retire window: the earliest
    /// pending PE event, the in-flight transfer's completion or the
    /// budget, whichever comes first, when [`System::run`] entered bulk
    /// dispatch. In-span accesses at `cycles < bulk_until` see no PE
    /// change state and no transfer complete. Transient scheduler
    /// scratch — set before every span, never snapshotted.
    pub(crate) bulk_until: u64,
    /// Whether the current bulk window opened over an in-flight DMA
    /// transfer (which then stays in flight for the whole window).
    /// Scheduler scratch like `bulk_until`.
    pub(crate) bulk_dma: bool,
}

impl Platform {
    /// Creates the platform with a CPU clock of `cpu_hz`.
    pub fn new(cpu_hz: f64) -> Self {
        Platform {
            dram: Ram::new(DRAM_BASE, DRAM_SIZE),
            spm: Ram::new(SPM_BASE, SPM_SIZE),
            pes: vec![AccelDevice::new(cpu_hz)],
            dma: DmaDevice::default(),
            now: 0,
            dram_latency: 0,
            l1_cache: None,
            stall_cycles: 0,
            bulk_until: 0,
            bulk_dma: false,
        }
    }

    /// Adds another processing element to the cluster, returning its MMR
    /// base address (`ACCEL_BASE + PE_STRIDE * slot`).
    pub fn add_pe(&mut self) -> u32 {
        let cpu_hz = self.pes[0].cpu_hz;
        self.pes.push(AccelDevice::new(cpu_hz));
        ACCEL_BASE + PE_STRIDE * (self.pes.len() - 1) as u32
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Every processing element, in slot order.
    pub fn pes(&self) -> &[AccelDevice] {
        &self.pes
    }

    /// Shared reference to PE `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= pe_count()`.
    pub fn pe(&self, slot: usize) -> &AccelDevice {
        &self.pes[slot]
    }

    /// Mutable reference to PE `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= pe_count()`.
    pub fn pe_mut(&mut self, slot: usize) -> &mut AccelDevice {
        &mut self.pes[slot]
    }

    /// Advances all devices one cycle. Returns `true` if any interrupt
    /// line is raised on this cycle.
    pub fn tick(&mut self) -> bool {
        self.now += 1;
        let mut raised = false;
        for pe in &mut self.pes {
            raised |= pe.tick(self.now);
        }
        raised |= self.dma.tick(&mut self.dram, &mut self.spm);
        raised
    }

    /// Level-triggered interrupt line: the OR of every device's own
    /// line, high while any enabled device has an unacknowledged
    /// completion or error. This is what makes the start-then-`wfi`
    /// firmware pattern race-free.
    pub fn irq_level(&self) -> bool {
        self.dma.irq_line() || self.pes.iter().any(AccelDevice::irq_line)
    }

    /// Charges the memory-hierarchy cost of one CPU access to DRAM.
    fn charge_dram(&mut self, addr: u32) {
        if self.dram_latency == 0 {
            return;
        }
        match &mut self.l1_cache {
            Some(cache) => {
                // Cache with its own miss penalty tied to the DRAM latency.
                if cache.access(addr) > 0 {
                    self.stall_cycles += self.dram_latency;
                }
            }
            None => self.stall_cycles += self.dram_latency,
        }
    }

    /// Takes and clears the accumulated stall cycles (consumed by
    /// [`System::run`] after each instruction).
    pub fn take_stalls(&mut self) -> u64 {
        std::mem::take(&mut self.stall_cycles)
    }

    /// `true` when no device has work in flight — every platform tick
    /// would be a no-op.
    pub(crate) fn quiet(&self) -> bool {
        !self.dma.is_busy() && self.pes.iter().all(|pe| !pe.is_busy())
    }

    /// Earliest pending PE event, clamped to the next tick (`now + 1`):
    /// a zero-setup job can carry `busy_until == now`, but its
    /// completion is still observed on the following tick. Ticks
    /// *strictly before* the returned cycle are provably no-ops for
    /// every PE. `None` when all PEs are idle. (The DMA engine is not
    /// included: its ticks move memory words, so the schedulers bound
    /// it separately with [`DmaDevice::schedule`] and apply its ticks
    /// with [`DmaDevice::advance_bulk`].)
    pub(crate) fn earliest_pe_event(&self) -> Option<u64> {
        self.pes
            .iter()
            .filter_map(AccelDevice::next_event)
            .map(|t| t.max(self.now + 1))
            .min()
    }

    /// The cycle of the DMA engine's next state change other than a
    /// word move: `u64::MAX` while idle, the completion tick of a
    /// [`DmaSchedule::CompletesIn`] transfer, and `None` for a transfer
    /// that may stall, whose every tick must run. Ticks strictly before
    /// it move words and nothing else, so a scheduler may apply them
    /// with one [`DmaDevice::advance_bulk`]. Only a busy engine is
    /// classified.
    pub(crate) fn dma_event(&self) -> Option<u64> {
        if !self.dma.is_busy() {
            return Some(u64::MAX);
        }
        match self.dma.schedule(&self.dram, &self.spm) {
            DmaSchedule::CompletesIn(n) => Some(self.now + n),
            _ => None,
        }
    }

    /// Resolves an address to a PE slot and register offset.
    fn pe_slot(&self, addr: u32) -> Option<(usize, u32)> {
        if addr < ACCEL_BASE {
            return None;
        }
        let rel = addr - ACCEL_BASE;
        let slot = (rel / PE_STRIDE) as usize;
        if slot < self.pe_count() {
            Some((slot, rel % PE_STRIDE))
        } else {
            None
        }
    }
}

impl Bus for Platform {
    fn load_word(&mut self, addr: u32) -> Result<u32, BusFault> {
        let a = addr & !3;
        if self.dram.contains(a) {
            self.charge_dram(a);
            return self.dram.load(a).map_err(|_| BusFault {
                addr,
                is_store: false,
            });
        }
        if self.spm.contains(a) {
            return self.spm.load(a).map_err(|_| BusFault {
                addr,
                is_store: false,
            });
        }
        if (DMA_BASE..DMA_BASE + crate::dma::mmr::SIZE).contains(&a) {
            return Ok(self.dma.mmr_load(a - DMA_BASE));
        }
        if let Some((slot, offset)) = self.pe_slot(a) {
            return Ok(self.pes[slot].mmr_load(offset));
        }
        Err(BusFault {
            addr,
            is_store: false,
        })
    }

    fn store_word(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        let a = addr & !3;
        if self.dram.contains(a) {
            self.charge_dram(a);
            return self.dram.store(a, value).map_err(|_| BusFault {
                addr,
                is_store: true,
            });
        }
        if self.spm.contains(a) {
            return self.spm.store(a, value).map_err(|_| BusFault {
                addr,
                is_store: true,
            });
        }
        if (ACCEL_BASE..DMA_BASE).contains(&a) {
            if let Some((slot, offset)) = self.pe_slot(a) {
                self.pes[slot].mmr_store(offset, value, self.now, &mut self.spm);
                return Ok(());
            }
            return Err(BusFault {
                addr,
                is_store: true,
            });
        }
        if (DMA_BASE..DMA_BASE + crate::dma::mmr::SIZE).contains(&a) {
            let _ = self.dma.mmr_store(a - DMA_BASE, value);
            return Ok(());
        }
        Err(BusFault {
            addr,
            is_store: true,
        })
    }

    fn fetch_word(&mut self, addr: u32) -> Result<u32, BusFault> {
        self.load_word_fast(addr)
    }

    fn peek_word(&self, addr: u32) -> Option<u32> {
        // Side-effect-free: no access counters, no latency charge, no L1
        // state change. MMIO space is uncacheable (`None`), and so are
        // the words an in-flight transfer has yet to write: a bulk
        // window applies DMA ticks only at data accesses, so code there
        // must run through the precise path's real fetches.
        let a = addr & !3;
        if self
            .dma
            .active_write_range()
            .is_some_and(|(lo, hi)| (lo..hi).contains(&a))
        {
            return None;
        }
        self.dram.peek_fast(a).or_else(|| self.spm.peek_fast(a))
    }

    fn load_word_fast(&mut self, addr: u32) -> Result<u32, BusFault> {
        let a = addr & !3;
        if self.dram_latency == 0 {
            // Flat-memory model: charge_dram is a no-op, one bounds check.
            if let Some(w) = self.dram.load_fast(a) {
                return Ok(w);
            }
        } else if self.dram.contains(a) {
            self.charge_dram(a);
            return Ok(self.dram.load_fast(a).expect("contains checked"));
        }
        if let Some(w) = self.spm.load_fast(a) {
            return Ok(w);
        }
        // MMIO and faulting addresses take the full dispatch path.
        self.load_word(addr)
    }

    fn store_word_fast(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        let a = addr & !3;
        if self.dram_latency == 0 {
            if self.dram.store_fast(a, value).is_some() {
                return Ok(());
            }
        } else if self.dram.contains(a) {
            self.charge_dram(a);
            self.dram.store_fast(a, value).expect("contains checked");
            return Ok(());
        }
        if self.spm.store_fast(a, value).is_some() {
            return Ok(());
        }
        self.store_word(addr, value)
    }

    fn charge_fetches(&mut self, start: u32, count: u32) -> bool {
        // Only the flat-latency model is bulk-chargeable: a fetch there
        // is one counted RAM read and nothing else. With DRAM latency
        // (and L1 modelling) every fetch has per-access state, so the
        // interpreter must issue real fetches.
        if self.dram_latency != 0 {
            return false;
        }
        let last = start.wrapping_add(4 * count.saturating_sub(1));
        if self.dram.contains(start) && self.dram.contains(last) {
            self.dram.reads += count as u64;
            true
        } else if self.spm.contains(start) && self.spm.contains(last) {
            self.spm.reads += count as u64;
            true
        } else {
            false
        }
    }

    fn mmio_prologue(&mut self, addr: u32, cycles: u64) -> bool {
        // Bulk windows run between event horizons, not only under full
        // quiescence: a PE may hold an in-flight job whose event lies at
        // or beyond `bulk_until`, and the DMA engine may hold a transfer
        // that completes no earlier. Every PE tick before the horizon is
        // a no-op, so PE time jumps; the DMA's ticks move words, so they
        // are applied here in one bulk advance, just before the access
        // that could observe them. That is exactly what the per-cycle
        // loop had moved by this cycle, counters included.
        debug_assert!(self.now <= cycles, "device clock ahead of the CPU");
        if cycles >= self.bulk_until {
            return false;
        }
        if self.dma.is_busy() {
            // Of the DMA registers only STATUS runs in place (it cannot
            // change before the horizon); the rest take the precise
            // path, where a write may redirect, stall or cut the copy.
            let a = addr & !3;
            if (DMA_BASE..DMA_BASE + crate::dma::mmr::SIZE).contains(&a)
                && a != DMA_BASE + crate::dma::mmr::STATUS
            {
                return false;
            }
            let fired = self
                .dma
                .advance_bulk(cycles - self.now, &mut self.dram, &mut self.spm);
            debug_assert!(!fired, "transfer completed inside its bulk window");
        }
        self.now = cycles;
        true
    }

    fn mmio_epilogue(&mut self) -> bool {
        // Stay in bulk unless this access started a DMA transfer, raised
        // an interrupt or started device work whose event lands inside
        // the current window (a doorbell). A transfer already in flight
        // when the window opened stays in flight past its end, so it
        // does not end the window.
        if self.dma.is_busy() != self.bulk_dma || self.irq_level() {
            return false;
        }
        self.earliest_pe_event()
            .is_none_or(|event| event >= self.bulk_until)
    }
}

/// Why a [`System`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The firmware finished (`ecall`/`ebreak`).
    Halted(Halt),
    /// The cycle budget was exhausted (possible hang).
    TimedOut,
    /// The CPU trapped (crash).
    Trapped(Trap),
}

/// Statistics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Total cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Wall-clock time at the CPU clock \[s\].
    pub time_s: f64,
    /// Energy breakdown \[J\].
    pub energy: EnergyLedger,
}

/// The complete system: CPU + platform.
#[derive(Debug, Clone)]
pub struct System {
    /// The RISC-V host.
    pub cpu: Cpu,
    /// Everything else on the bus.
    pub platform: Platform,
    /// CPU clock \[Hz\].
    pub cpu_hz: f64,
    /// Digital energy constants.
    pub digital_energy: DigitalEnergy,
    /// Sleep cycles crossed in bulk by the `wfi` fast-forward (stats,
    /// accumulated across runs). The fast-forward runs exactly when the
    /// CPU's bulk dispatch is enabled; with it disabled, [`System::run`]
    /// is the seed stepping loop.
    pub fast_forwarded_cycles: u64,
    /// DMA ticks applied in bulk while the CPU ran (stats, accumulated
    /// across runs): the word moves of a stall-free transfer, applied
    /// before each access of a bulk window that opened over it and
    /// whenever device time catches up to the CPU. Ticks the `wfi`
    /// fast-forward applies count in `fast_forwarded_cycles` instead.
    /// Zero with bulk dispatch disabled.
    pub bulk_dma_ticks: u64,
}

impl System {
    /// Creates a 1 GHz system.
    pub fn new() -> Self {
        System::with_clock(1e9)
    }

    /// Creates a system with the given CPU clock.
    pub fn with_clock(cpu_hz: f64) -> Self {
        System {
            cpu: Cpu::new(DRAM_BASE),
            platform: Platform::new(cpu_hz),
            cpu_hz,
            digital_energy: DigitalEnergy::default(),
            fast_forwarded_cycles: 0,
            bulk_dma_ticks: 0,
        }
    }

    /// Loads firmware words at the reset vector.
    pub fn load_firmware(&mut self, words: &[u32]) {
        self.platform.dram.poke_words(DRAM_BASE, words);
    }

    /// Assembles and loads firmware source.
    ///
    /// # Panics
    ///
    /// Panics on assembly errors (firmware is workspace-internal code).
    pub fn load_firmware_source(&mut self, source: &str) {
        let words = neuropulsim_riscv::asm::assemble(source).expect("firmware must assemble");
        self.load_firmware(&words);
    }

    /// Writes a float vector into DRAM as Q16.16 at `addr`.
    pub fn write_fixed_vector(&mut self, addr: u32, values: &[f64]) {
        for (k, &v) in values.iter().enumerate() {
            self.platform
                .dram
                .poke(addr + 4 * k as u32, to_fixed(v) as u32)
                .expect("vector in DRAM range");
        }
    }

    /// Reads `len` Q16.16 values from DRAM at `addr`.
    pub fn read_fixed_vector(&self, addr: u32, len: usize) -> Vec<f64> {
        (0..len)
            .map(|k| {
                from_fixed(
                    self.platform
                        .dram
                        .peek(addr + 4 * k as u32)
                        .expect("in range") as i32,
                )
            })
            .collect()
    }

    /// Runs until halt, trap or `max_cycles`. Devices advance in lockstep
    /// with CPU cycles; the level-triggered IRQ line wakes `wfi`.
    ///
    /// With the CPU's bulk dispatch enabled (the default), two
    /// accelerations keep this loop fast without changing a single
    /// observable. Between device events, compiled traces and code
    /// decoded from memory retire in bulk ([`Cpu::run_cached_span`]); the
    /// window's horizon is the earliest PE event, the completion of a
    /// DMA transfer in flight, or the budget. And `wfi` sleeps are
    /// crossed in one jump (`sleep_advance`). A polled transfer's words
    /// move in bulk before each in-window access, so the access sees
    /// memory exactly as the seed loop would. Everything else — MMIO
    /// accesses the bus declines in bulk, a DMA transfer that may stall,
    /// the DRAM-latency model — takes the precise path ([`Cpu::step`]).
    /// With bulk dispatch disabled this is the seed loop.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        // The host may have rewritten memory since the last run (fault
        // injections, firmware pokes): drop compiled traces so the bulk
        // path re-reads the code.
        self.cpu.invalidate_traces();
        let start_cycles = self.cpu.cycles;
        let budget_end = start_cycles.saturating_add(max_cycles);
        let spm_end = SPM_BASE + self.platform.spm.size() as u32;
        let outcome = loop {
            if self.cpu.cycles - start_cycles >= max_cycles {
                break RunOutcome::TimedOut;
            }
            if self.platform.irq_level() {
                self.cpu.interrupt();
            }
            if self.cpu.bulk_dispatch_enabled()
                && self.cpu.waiting_for_interrupt
                && self.platform.now == self.cpu.cycles
            {
                self.sleep_advance(budget_end);
                continue;
            }
            // Bulk retire between event horizons: every PE tick strictly
            // before the earliest pending event is a no-op, and a DMA
            // transfer that cannot stall (`CompletesIn`) moves only
            // words until it completes. So instructions (and compiled
            // traces) retire back to back up to the first of
            // those events — full quiescence is just the case with no
            // horizon at all. This lets an MMIO polling loop spin in
            // bulk while a PE crunches a job or a DMA copy runs. A
            // transfer that may stall keeps the per-cycle protocol, as
            // does the DRAM-latency model (each instruction settles its
            // own timing). The DMA is classified only while busy, so an
            // idle engine costs one flag test.
            if self.cpu.bulk_dispatch_enabled()
                && !self.cpu.waiting_for_interrupt
                && self.platform.dram_latency == 0
                && self.platform.now == self.cpu.cycles
            {
                if let Some(dma_event) = self.platform.dma_event() {
                    let horizon = self
                        .platform
                        .earliest_pe_event()
                        .map_or(budget_end, |event| event.min(budget_end))
                        .min(dma_event);
                    let dma_writes = self.platform.dma.active_write_range();
                    self.platform.bulk_until = horizon;
                    self.platform.bulk_dma = dma_writes.is_some();
                    // With a transfer in flight every load and store
                    // meets the prologue (floor 0), which moves the
                    // transfer's words up to the access cycle; traced
                    // code the transfer will overwrite goes now, and
                    // `peek_word` keeps it from being decoded again.
                    let mmio_floor = match dma_writes {
                        Some((lo, hi)) => {
                            self.cpu.note_external_writes(lo, hi);
                            0
                        }
                        None => ACCEL_BASE,
                    };
                    let before = self.cpu.cycles;
                    let now_before = self.platform.now;
                    let span = self
                        .cpu
                        .run_cached_span(&mut self.platform, horizon, mmio_floor);
                    if dma_writes.is_some() {
                        self.bulk_dma_ticks += self.platform.now - now_before;
                    }
                    match span {
                        Ok(Some(halt)) => {
                            // The seed loop leaves device time at the
                            // halting instruction's issue cycle.
                            let inst = match halt {
                                Halt::Ebreak => Instruction::Ebreak,
                                _ => Instruction::Ecall,
                            };
                            let issue = self.cpu.cycles - self.cpu.cycle_model.cost(inst, false);
                            self.bulk_dma_ticks += self.catch_up_devices(issue);
                            break RunOutcome::Halted(halt);
                        }
                        Ok(None) => {}
                        Err(trap) => {
                            // A trapping instruction consumes no cycles:
                            // the seed loop leaves device time at its
                            // issue cycle, which is `cpu.cycles` here.
                            self.bulk_dma_ticks += self.catch_up_devices(self.cpu.cycles);
                            break RunOutcome::Trapped(trap);
                        }
                    }
                    if self.cpu.cycles != before {
                        // An in-span device doorbell may have deposited
                        // results into the scratchpad (it ends the span,
                        // so this single check covers it); traced SPM
                        // code must go before the next dispatch.
                        self.cpu.note_external_writes(SPM_BASE, spm_end);
                        // Skipped PE ticks were no-ops, so device time
                        // jumps; a transfer in flight moves its words in
                        // bulk; only an eventful tail (an in-span
                        // doorbell, the DMA completion) ticks per cycle
                        // exactly as the seed loop did.
                        self.bulk_dma_ticks += self.catch_up_devices(self.cpu.cycles);
                        continue;
                    }
                }
                // No progress (MMIO access or undecodable entry next), or
                // a transfer that may stall: fall through to the precise
                // per-instruction path.
            }
            match self.cpu.step(&mut self.platform) {
                Ok(Some(halt)) => {
                    self.cpu.cycles += self.platform.take_stalls();
                    break RunOutcome::Halted(halt);
                }
                Ok(None) => {
                    self.cpu.cycles += self.platform.take_stalls();
                }
                Err(trap) => break RunOutcome::Trapped(trap),
            }
            // An MMIO store may have made an accelerator deposit results
            // into the scratchpad just now; if traced code lies in SPM,
            // drop it.
            self.cpu.note_external_writes(SPM_BASE, spm_end);
            self.bulk_dma_ticks += self.catch_up_devices(self.cpu.cycles);
        };
        self.report(outcome, start_cycles)
    }

    /// `true` when no device has work in flight — every platform tick
    /// would be a no-op.
    fn devices_quiet(&self) -> bool {
        self.platform.quiet()
    }

    /// Brings device time up to `target`, bit-identical to ticking every
    /// cycle. When every device is idle the skipped ticks are no-ops, so
    /// device time jumps in one assignment. Otherwise ticks strictly
    /// before the earliest PE event change no PE, and ticks before a
    /// `CompletesIn` transfer's completion only move its words: those
    /// run as one jump plus one [`DmaDevice::advance_bulk`], and only
    /// the eventful tail ticks cycle by cycle, so a completion and its
    /// interrupt land on their seed cycle. A transfer that may stall, or
    /// any transfer with bulk dispatch disabled, ticks every cycle.
    /// Returns the DMA ticks applied in bulk.
    fn catch_up_devices(&mut self, target: u64) -> u64 {
        let now = self.platform.now;
        if now >= target {
            return 0;
        }
        if self.devices_quiet() {
            self.platform.now = target;
            return 0;
        }
        let mut bulk_ticks = 0;
        // A busy DMA engine writes memory as it ticks; if its target
        // range holds traced code the traces must go. (The range
        // is fixed for the whole transfer, so capturing it once covers
        // every tick below.)
        let dma_writes = self.platform.dma.active_write_range();
        // With bulk dispatch disabled a busy engine ticks every cycle:
        // that seed loop is the reference the bulk advance is held to.
        let dma_event = if dma_writes.is_none() || self.cpu.bulk_dispatch_enabled() {
            self.platform.dma_event()
        } else {
            None
        };
        if let Some(dma_event) = dma_event {
            let event = self.platform.earliest_pe_event().unwrap_or(u64::MAX);
            let jump = (event.min(dma_event) - 1).min(target);
            if jump > now {
                if dma_writes.is_some() {
                    let p = &mut self.platform;
                    let fired = p.dma.advance_bulk(jump - now, &mut p.dram, &mut p.spm);
                    debug_assert!(!fired, "transfer completed before its schedule");
                    bulk_ticks = jump - now;
                }
                self.platform.now = jump;
            }
        }
        while self.platform.now < target {
            if self.platform.tick() {
                self.cpu.interrupt();
            }
        }
        if let Some((lo, hi)) = dma_writes {
            self.cpu.note_external_writes(lo, hi);
        }
        bulk_ticks
    }

    /// Advances a sleeping CPU across a quiet window without stepping it
    /// one cycle at a time. Bit-identical to the seed loop: CPU cycles
    /// and device time stay in lockstep, only ticks that change no PE
    /// and complete no transfer run in bulk, and the first eventful tick
    /// runs for real so interrupts fire on their exact seed cycle. A
    /// transfer that may stall sleeps one seed-identical cycle.
    ///
    /// Requires `platform.now == cpu.cycles` (checked by the caller).
    fn sleep_advance(&mut self, budget_end: u64) {
        let now = self.platform.now;
        let target = match self.platform.dma_event() {
            Some(dma_event) => {
                let target = self
                    .platform
                    .earliest_pe_event()
                    .map_or(dma_event, |event| event.min(dma_event))
                    .min(budget_end);
                self.fast_forwarded_cycles += target - now;
                target
            }
            None => now + 1,
        };
        self.cpu.cycles = target;
        self.catch_up_devices(target);
    }

    fn report(&self, outcome: RunOutcome, start_cycles: u64) -> RunReport {
        let cycles = self.cpu.cycles - start_cycles;
        let mut energy = EnergyLedger::new();
        let de = &self.digital_energy;
        energy.add("cpu", self.cpu.instret as f64 * de.cpu_per_instruction);
        energy.add(
            "dram",
            (self.platform.dram.reads + self.platform.dram.writes) as f64 * de.dram_per_access,
        );
        energy.add(
            "spm",
            (self.platform.spm.reads + self.platform.spm.writes) as f64 * de.spm_per_access,
        );
        let accel_energy = self.platform.pes.iter().map(AccelDevice::energy).sum();
        energy.add("photonic-accel", accel_energy);
        RunReport {
            outcome,
            cycles,
            instructions: self.cpu.instret,
            time_s: cycles as f64 / self.cpu_hz,
            energy,
        }
    }
}

impl Default for System {
    fn default() -> Self {
        System::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropulsim_linalg::RMatrix;

    #[test]
    fn plain_program_runs() {
        let mut sys = System::new();
        sys.load_firmware_source("li a0, 7\nli a1, 6\nmul a0, a0, a1\necall");
        let report = sys.run(1000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        assert_eq!(sys.cpu.reg(10), 42);
        assert!(report.energy.get("cpu") > 0.0);
        assert!(report.time_s > 0.0);
    }

    #[test]
    fn cpu_reaches_spm_and_mmrs() {
        let mut sys = System::new();
        sys.platform.pe_mut(0).load_matrix(&RMatrix::identity(4));
        sys.load_firmware_source(
            "
            li t0, 0x10000000     # SPM
            li t1, 123
            sw t1, 16(t0)
            lw a0, 16(t0)
            li t0, 0x40000000     # accel MMRs
            lw a1, 8(t0)          # DIM
            ecall
            ",
        );
        let report = sys.run(1000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        assert_eq!(sys.cpu.reg(10), 123);
        assert_eq!(sys.cpu.reg(11), 4);
        assert!(report.energy.get("spm") > 0.0);
    }

    #[test]
    fn unmapped_access_traps() {
        let mut sys = System::new();
        sys.load_firmware_source("li t0, 0x70000000\nlw a0, (t0)\necall");
        let report = sys.run(1000);
        assert!(matches!(report.outcome, RunOutcome::Trapped(_)));
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let mut sys = System::new();
        sys.load_firmware_source("spin: j spin");
        let report = sys.run(500);
        assert_eq!(report.outcome, RunOutcome::TimedOut);
    }

    #[test]
    fn dma_transfer_with_wfi() {
        let mut sys = System::new();
        sys.write_fixed_vector(0x1000, &[1.0, 2.0, 3.0, 4.0]);
        sys.load_firmware_source(
            "
            li t0, 0x41000000     # DMA
            li t1, 0x1000
            sw t1, 8(t0)          # SRC
            li t1, 0x10000100
            sw t1, 12(t0)         # DST
            li t1, 16
            sw t1, 16(t0)         # LEN
            li t1, 1
            sw t1, 20(t0)         # IRQ_ENABLE
            sw t1, 0(t0)          # start
            wfi
            li t1, 2
            sw t1, 0(t0)          # ack
            ecall
            ",
        );
        let report = sys.run(10_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let v = sys.platform.spm.peek(0x1000_0100).unwrap();
        assert_eq!(from_fixed(v as i32), 1.0);
        assert_eq!(sys.platform.dma.bytes_moved, 16);
    }

    #[test]
    fn accel_offload_end_to_end() {
        let mut sys = System::new();
        let w = RMatrix::from_rows(2, 2, &[2.0, 0.0, 0.0, 3.0]);
        sys.platform.pe_mut(0).load_matrix(&w);
        // Input [1.5, -1.0] directly in SPM at 0x100.
        sys.platform
            .spm
            .poke(SPM_BASE + 0x100, to_fixed(1.5) as u32)
            .unwrap();
        sys.platform
            .spm
            .poke(SPM_BASE + 0x104, to_fixed(-1.0) as u32)
            .unwrap();
        sys.load_firmware_source(
            "
            li t0, 0x40000000
            li t1, 0x10000100
            sw t1, 12(t0)         # IN_ADDR
            li t1, 0x10000200
            sw t1, 16(t0)         # OUT_ADDR
            li t1, 1
            sw t1, 20(t0)         # BATCH
            sw t1, 24(t0)         # IRQ_ENABLE
            sw t1, 0(t0)          # start
            wfi
            li t1, 2
            sw t1, 0(t0)          # ack/clear done
            lw a0, 28(t0)         # LAST_CYCLES
            ecall
            ",
        );
        let report = sys.run(100_000);
        assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
        let y0 = from_fixed(sys.platform.spm.peek(SPM_BASE + 0x200).unwrap() as i32);
        let y1 = from_fixed(sys.platform.spm.peek(SPM_BASE + 0x204).unwrap() as i32);
        assert!((y0 - 3.0).abs() < 1e-3, "y0 = {y0}");
        assert!((y1 + 3.0).abs() < 1e-3, "y1 = {y1}");
        assert!(sys.cpu.reg(10) > 0, "LAST_CYCLES visible to host");
        assert!(report.energy.get("photonic-accel") > 0.0);
    }

    #[test]
    fn dram_latency_slows_execution_and_cache_recovers() {
        let firmware = "
            li   t0, 0x1000
            li   t1, 200
        loop:
            lw   t2, (t0)
            addi t2, t2, 1
            sw   t2, (t0)
            addi t1, t1, -1
            bnez t1, loop
            ecall
        ";
        let run = |latency: u64, cache: bool| -> u64 {
            let mut sys = System::new();
            sys.platform.dram_latency = latency;
            if cache {
                sys.platform.l1_cache = Some(crate::cache::DirectMappedCache::new(256, 8, latency));
            }
            sys.load_firmware_source(firmware);
            let report = sys.run(10_000_000);
            assert_eq!(report.outcome, RunOutcome::Halted(Halt::Ecall));
            report.cycles
        };
        let flat = run(0, false);
        let slow = run(20, false);
        let cached = run(20, true);
        assert!(slow > 2 * flat, "uncached DRAM must hurt: {flat} -> {slow}");
        assert!(
            cached < slow / 2,
            "cache must recover most of it: {slow} -> {cached}"
        );
        assert!(cached >= flat, "cache cannot beat flat memory");
    }

    /// Builds a system in fast (bulk dispatch, which also turns on the
    /// `wfi` fast-forward) or seed-identical slow mode, runs `firmware`,
    /// and returns the report and final system for observability
    /// comparison.
    fn run_mode(
        fast: bool,
        setup: impl Fn(&mut System),
        firmware: &str,
        max_cycles: u64,
    ) -> (RunReport, System) {
        let mut sys = System::new();
        sys.cpu.set_bulk_dispatch_enabled(fast);
        setup(&mut sys);
        sys.load_firmware_source(firmware);
        let report = sys.run(max_cycles);
        (report, sys)
    }

    #[test]
    fn accel_offload_is_bit_identical_with_fast_paths() {
        let setup = |sys: &mut System| {
            sys.platform
                .pe_mut(0)
                .load_matrix(&RMatrix::from_rows(2, 2, &[2.0, 0.0, 0.0, 3.0]));
            sys.platform
                .spm
                .poke(SPM_BASE + 0x100, to_fixed(1.5) as u32)
                .unwrap();
            sys.platform
                .spm
                .poke(SPM_BASE + 0x104, to_fixed(-1.0) as u32)
                .unwrap();
        };
        let firmware = "
            li t0, 0x40000000
            li t1, 0x10000100
            sw t1, 12(t0)
            li t1, 0x10000200
            sw t1, 16(t0)
            li t1, 1
            sw t1, 20(t0)
            sw t1, 24(t0)
            sw t1, 0(t0)
            wfi
            li t1, 2
            sw t1, 0(t0)
            ecall
            ";
        let (fast_report, fast_sys) = run_mode(true, setup, firmware, 100_000);
        let (slow_report, slow_sys) = run_mode(false, setup, firmware, 100_000);
        assert_eq!(fast_report, slow_report, "reports must be bit-identical");
        assert_eq!(fast_sys.cpu, slow_sys.cpu);
        assert_eq!(fast_sys.platform.dram.reads, slow_sys.platform.dram.reads);
        assert_eq!(fast_sys.platform.spm.reads, slow_sys.platform.spm.reads);
        assert_eq!(fast_sys.platform.spm.writes, slow_sys.platform.spm.writes);
        assert!(
            fast_sys.fast_forwarded_cycles > 0,
            "wfi wait over the accelerator job must fast-forward"
        );
        assert_eq!(slow_sys.fast_forwarded_cycles, 0);
    }

    #[test]
    fn dma_wfi_is_bit_identical_with_fast_paths() {
        let setup = |sys: &mut System| sys.write_fixed_vector(0x1000, &[1.0, 2.0, 3.0, 4.0]);
        let firmware = "
            li t0, 0x41000000
            li t1, 0x1000
            sw t1, 8(t0)
            li t1, 0x10000100
            sw t1, 12(t0)
            li t1, 16
            sw t1, 16(t0)
            li t1, 1
            sw t1, 20(t0)
            sw t1, 0(t0)
            wfi
            li t1, 2
            sw t1, 0(t0)
            ecall
            ";
        let (fast_report, fast_sys) = run_mode(true, setup, firmware, 10_000);
        let (slow_report, slow_sys) = run_mode(false, setup, firmware, 10_000);
        assert_eq!(fast_report, slow_report);
        assert_eq!(fast_sys.cpu, slow_sys.cpu);
        assert_eq!(fast_sys.platform.dma.bytes_moved, 16);
        assert_eq!(
            fast_sys.platform.dram.reads, slow_sys.platform.dram.reads,
            "DMA word moves stay individually counted under fast-forward"
        );
        assert_eq!(fast_sys.platform.spm.writes, slow_sys.platform.spm.writes);
    }

    #[test]
    fn wfi_timeout_fast_forwards_to_budget_boundary() {
        let (fast_report, fast_sys) = run_mode(true, |_| {}, "wfi\necall", 5000);
        let (slow_report, slow_sys) = run_mode(false, |_| {}, "wfi\necall", 5000);
        assert_eq!(fast_report.outcome, RunOutcome::TimedOut);
        assert_eq!(fast_report, slow_report);
        assert_eq!(fast_sys.cpu.cycles, slow_sys.cpu.cycles);
        assert_eq!(fast_sys.platform.now, slow_sys.platform.now);
        assert!(
            fast_sys.fast_forwarded_cycles >= 4000,
            "an eventless sleep jumps straight to the budget: {}",
            fast_sys.fast_forwarded_cycles
        );
    }

    #[test]
    fn irq_race_is_level_triggered() {
        // Device completes before the CPU reaches wfi: the level-triggered
        // line must still wake it (no lost-wakeup hang), on any slot of a
        // 3-PE platform. With the completion IRQ masked, nothing may.
        let cases = [
            (0, 1, RunOutcome::Halted(Halt::Ecall)),
            (2, 1, RunOutcome::Halted(Halt::Ecall)),
            (2, 0, RunOutcome::TimedOut),
        ];
        for (slot, irq_enable, want) in cases {
            let mut sys = System::new();
            sys.platform.add_pe();
            sys.platform.add_pe();
            sys.platform.pe_mut(slot).load_matrix(&RMatrix::identity(2));
            sys.platform.pe_mut(slot).setup_cycles = 0; // completes almost instantly
            sys.load_firmware_source(&format!(
                "
                li t0, {base}
                li t1, 0x10000000
                sw t1, 12(t0)
                li t1, 0x10000100
                sw t1, 16(t0)
                li t1, 1
                sw t1, 20(t0)
                li t2, {irq_enable}
                sw t2, 24(t0)
                sw t1, 0(t0)
                nop
                nop
                nop
                nop
                wfi
                ecall
                ",
                base = ACCEL_BASE + PE_STRIDE * slot as u32,
            ));
            let report = sys.run(100_000);
            assert_eq!(report.outcome, want, "slot {slot}, IRQ_ENABLE {irq_enable}");
        }
    }
}
