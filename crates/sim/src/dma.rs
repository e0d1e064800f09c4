//! The DMA engine: "the gem5-based infrastructure includes Direct Memory
//! Access (DMA) devices ... that can be seamlessly integrated into
//! accelerator designs" (paper §5). Moves blocks between DRAM and SPM at
//! a fixed bandwidth so the host does not copy word-by-word.

use crate::ram::Ram;

/// How the engine will behave over the coming cycles — the contract both
/// schedulers of [`crate::system::System::run`] rely on: the `wfi`
/// fast-forward of a sleeping CPU, and the bulk-retire windows of a
/// running one, which poll a transfer in flight up to its completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DmaSchedule {
    /// No transfer in flight: every tick is a no-op.
    Idle,
    /// The transfer cannot stall: it completes (raising the interrupt if
    /// enabled) on exactly the `n`-th tick from now, and each tick only
    /// moves words between the two memories.
    CompletesIn(u64),
    /// The transfer touches addresses outside both memories and may
    /// stall with observable partial side effects (a stalled source read
    /// is re-counted every tick): it must be ticked cycle by cycle.
    Opaque,
}

/// MMR offsets (bytes from the device base).
pub mod mmr {
    /// Write 1 to start; write 2 to clear `done`.
    pub const CTRL: u32 = 0x00;
    /// Bit 0 = busy, bit 1 = done.
    pub const STATUS: u32 = 0x04;
    /// Source byte address (DRAM or SPM).
    pub const SRC: u32 = 0x08;
    /// Destination byte address (DRAM or SPM).
    pub const DST: u32 = 0x0C;
    /// Transfer length in bytes (word multiple).
    pub const LEN: u32 = 0x10;
    /// Bit 0 enables the completion interrupt.
    pub const IRQ_ENABLE: u32 = 0x14;
    /// Size of the register bank.
    pub const SIZE: u32 = 0x18;
}

/// The DMA device.
#[derive(Debug, Clone, PartialEq)]
pub struct DmaDevice {
    src: u32,
    dst: u32,
    len: u32,
    irq_enable: bool,
    busy: bool,
    done: bool,
    // In-flight transfer cursor.
    moved: u32,
    /// Words moved per cycle while busy.
    pub words_per_cycle: u32,
    /// Total bytes moved (stats).
    pub bytes_moved: u64,
}

impl DmaDevice {
    /// Creates an idle DMA engine with the given bandwidth.
    pub fn new(words_per_cycle: u32) -> Self {
        DmaDevice {
            src: 0,
            dst: 0,
            len: 0,
            irq_enable: false,
            busy: false,
            done: false,
            moved: 0,
            words_per_cycle: words_per_cycle.max(1),
            bytes_moved: 0,
        }
    }

    /// `true` while a transfer is in flight.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// `true` when a transfer completed and was not yet acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// `true` while the completion interrupt line is asserted: enabled,
    /// with a completion not yet acknowledged.
    pub fn irq_line(&self) -> bool {
        self.irq_enable && self.done
    }

    /// Handles an MMR read.
    pub fn mmr_load(&self, offset: u32) -> u32 {
        match offset & !3 {
            mmr::STATUS => (self.busy as u32) | ((self.done as u32) << 1),
            mmr::SRC => self.src,
            mmr::DST => self.dst,
            mmr::LEN => self.len,
            mmr::IRQ_ENABLE => self.irq_enable as u32,
            _ => 0,
        }
    }

    /// Handles an MMR write. Returns `true` if a transfer was started.
    pub fn mmr_store(&mut self, offset: u32, value: u32) -> bool {
        match offset & !3 {
            mmr::CTRL => {
                if value & 2 != 0 {
                    self.done = false;
                }
                if value & 1 != 0 && !self.busy && self.len > 0 {
                    self.busy = true;
                    self.done = false;
                    self.moved = 0;
                    return true;
                }
                false
            }
            mmr::SRC => {
                self.src = value & !3;
                false
            }
            mmr::DST => {
                self.dst = value & !3;
                false
            }
            mmr::LEN => {
                self.len = value & !3;
                false
            }
            mmr::IRQ_ENABLE => {
                self.irq_enable = value & 1 != 0;
                false
            }
            _ => false,
        }
    }

    /// Classifies the in-flight transfer for the schedulers.
    /// Conservative: anything not provably stall-free is [`DmaSchedule::Opaque`].
    pub(crate) fn schedule(&self, mem_a: &Ram, mem_b: &Ram) -> DmaSchedule {
        if !self.busy {
            return DmaSchedule::Idle;
        }
        if self.moved >= self.len {
            // LEN was rewritten mid-transfer to no more than the bytes
            // already moved: the next tick completes without a word.
            return DmaSchedule::CompletesIn(1);
        }
        // The remaining source and destination word ranges must each sit
        // entirely inside one memory; [`DmaDevice::tick`] then never
        // stalls and completion timing is pure arithmetic. A range that
        // would wrap the address space fits in neither.
        let words = ((self.len - self.moved) / 4) as usize;
        let in_one = |base: u32| {
            base.checked_add(self.moved).is_some_and(|first| {
                mem_a.word_span(first, words).is_some() || mem_b.word_span(first, words).is_some()
            })
        };
        if !in_one(self.src) || !in_one(self.dst) {
            return DmaSchedule::Opaque;
        }
        DmaSchedule::CompletesIn((words as u64).div_ceil(self.words_per_cycle as u64).max(1))
    }

    /// Moves up to `words_per_cycle` words this cycle between the two
    /// memories. Returns `true` when the completion interrupt fires.
    ///
    /// Addresses that fall in neither memory stall the transfer silently
    /// (hardware would raise a bus error; the fault-injection campaign
    /// observes this as a hang).
    pub fn tick(&mut self, mem_a: &mut Ram, mem_b: &mut Ram) -> bool {
        if !self.busy {
            return false;
        }
        for _ in 0..self.words_per_cycle {
            if self.moved >= self.len {
                break;
            }
            if !self.move_word(mem_a, mem_b) {
                return false;
            }
        }
        self.finish_if_done()
    }

    /// Moves the next word: one counted load from whichever memory holds
    /// the source, one counted store to whichever holds the destination.
    /// Returns `false` on a stall (either address in neither memory),
    /// with a source word that was read still counted as read.
    fn move_word(&mut self, mem_a: &mut Ram, mem_b: &mut Ram) -> bool {
        let s = self.src.wrapping_add(self.moved);
        let d = self.dst.wrapping_add(self.moved);
        let Ok(word) = mem_a.load(s).or_else(|_| mem_b.load(s)) else {
            return false;
        };
        if mem_a
            .store(d, word)
            .or_else(|_| mem_b.store(d, word))
            .is_err()
        {
            return false;
        }
        self.moved += 4;
        self.bytes_moved += 4;
        true
    }

    /// Completes the transfer once every byte has moved. Returns `true`
    /// when the completion interrupt fires.
    fn finish_if_done(&mut self) -> bool {
        if self.moved >= self.len {
            self.busy = false;
            self.done = true;
            return self.irq_enable;
        }
        false
    }

    /// Advances the transfer by `ticks` cycles, with accounting identical
    /// to calling [`DmaDevice::tick`] that many times (each word is one
    /// counted load and one counted store). Returns `true` when the
    /// completion interrupt fires within the span. The span's words move
    /// in one bulk copy when its source and destination ranges each sit
    /// inside one memory, as for every [`DmaSchedule::CompletesIn`]
    /// transfer; otherwise the span may stall, and its `ticks` ticks run
    /// one by one.
    pub(crate) fn advance_bulk(&mut self, ticks: u64, mem_a: &mut Ram, mem_b: &mut Ram) -> bool {
        if !self.busy || ticks == 0 {
            return false;
        }
        let remaining = (self.len.saturating_sub(self.moved) / 4) as u64;
        let budget = ticks.saturating_mul(self.words_per_cycle as u64);
        let count = remaining.min(budget) as usize;
        if count > 0 && !self.copy_words(count, mem_a, mem_b) {
            return (0..ticks).any(|_| self.tick(mem_a, mem_b));
        }
        self.finish_if_done()
    }

    /// Moves the next `count > 0` words in one bulk copy when the source
    /// range and the destination range each sit inside one memory, with
    /// the exact accounting of `count` per-word moves. Returns `false`,
    /// with nothing moved, otherwise.
    fn copy_words(&mut self, count: usize, mem_a: &mut Ram, mem_b: &mut Ram) -> bool {
        let s = self.src.wrapping_add(self.moved);
        let d = self.dst.wrapping_add(self.moved);
        let (from, to) = if mem_a.word_span(s, count).is_some() {
            (mem_a, mem_b)
        } else if mem_b.word_span(s, count).is_some() {
            (mem_b, mem_a)
        } else {
            return false;
        };
        let copied = if from.word_span(d, count).is_some() {
            from.copy_words_within(s, d, count)
        } else {
            from.copy_words_to(s, to, d, count)
        };
        if copied.is_err() {
            return false;
        }
        self.moved += 4 * count as u32;
        self.bytes_moved += 4 * count as u64;
        true
    }

    /// The byte range the in-flight transfer writes, for code-cache
    /// invalidation. `None` when idle.
    pub(crate) fn active_write_range(&self) -> Option<(u32, u32)> {
        self.busy
            .then(|| (self.dst, self.dst.saturating_add(self.len)))
    }
}

impl Default for DmaDevice {
    /// A 2-word-per-cycle (8 B/cycle) engine.
    fn default() -> Self {
        DmaDevice::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memories() -> (Ram, Ram) {
        (Ram::new(0x0000_0000, 4096), Ram::new(0x1000_0000, 4096))
    }

    /// An engine with `words_per_cycle` started on `len` bytes from
    /// `src` to `dst`, interrupt enabled, over a 64-word DRAM and a
    /// 16-word SPM whose words are all distinct.
    fn started(words_per_cycle: u32, src: u32, dst: u32, len: u32) -> (DmaDevice, Ram, Ram) {
        let (mut dram, mut spm) = (Ram::new(0, 256), Ram::new(0x1000_0000, 64));
        for k in 0..64u32 {
            dram.poke(k * 4, k + 1).unwrap();
        }
        for k in 0..16u32 {
            spm.poke(0x1000_0000 + k * 4, 0x8000 + k).unwrap();
        }
        let mut dma = DmaDevice::new(words_per_cycle);
        dma.mmr_store(mmr::SRC, src);
        dma.mmr_store(mmr::DST, dst);
        dma.mmr_store(mmr::LEN, len);
        dma.mmr_store(mmr::IRQ_ENABLE, 1);
        assert!(dma.mmr_store(mmr::CTRL, 1));
        (dma, dram, spm)
    }

    #[test]
    fn advance_bulk_equals_that_many_ticks() {
        for wpc in 1..=3 {
            // DRAM to SPM.
            let to_spm = started(wpc, 0x40, 0x1000_0010, 40);
            // Overlapping DRAM to DRAM, destination one word ahead: each
            // word moved feeds the next read.
            let forward = started(wpc, 0x80, 0x84, 32);
            // The destination runs off the SPM end after four words.
            let off_end = started(wpc, 0x0, 0x1000_0030, 40);
            // LEN rewritten below the bytes already moved.
            let mut shrunk = started(wpc, 0x0, 0x1000_0000, 40);
            for _ in 0..2 {
                let (dma, dram, spm) = &mut shrunk;
                assert!(!dma.tick(dram, spm));
            }
            shrunk.0.mmr_store(mmr::LEN, 4);
            let cases = [
                (
                    "to_spm",
                    to_spm,
                    DmaSchedule::CompletesIn((10u64).div_ceil(wpc as u64)),
                ),
                (
                    "forward",
                    forward,
                    DmaSchedule::CompletesIn((8u64).div_ceil(wpc as u64)),
                ),
                ("off_end", off_end, DmaSchedule::Opaque),
                ("shrunk", shrunk, DmaSchedule::CompletesIn(1)),
            ];
            for (name, start, schedule) in cases {
                assert_eq!(start.0.schedule(&start.1, &start.2), schedule, "{name}");
                for k in 0..=12 {
                    let (mut dma, mut dram, mut spm) = start.clone();
                    let bulk_fired = dma.advance_bulk(k, &mut dram, &mut spm);
                    let (mut ref_dma, mut ref_dram, mut ref_spm) = start.clone();
                    let mut fired = false;
                    for _ in 0..k {
                        fired |= ref_dma.tick(&mut ref_dram, &mut ref_spm);
                    }
                    let at = format!("{name}, {wpc} words/cycle, {k} ticks");
                    assert_eq!(bulk_fired, fired, "{at}: interrupt");
                    assert_eq!(dma, ref_dma, "{at}: engine");
                    assert_eq!(dram, ref_dram, "{at}: DRAM");
                    assert_eq!(spm, ref_spm, "{at}: SPM");
                }
            }
        }
        // The forward copy propagated its first word, and the stalled
        // transfer re-read its source on every tick after the stall.
        let (mut dma, mut dram, mut spm) = started(2, 0x80, 0x84, 32);
        assert!(dma.advance_bulk(4, &mut dram, &mut spm));
        assert_eq!(dram.peek_words(0x80, 9).unwrap(), &[0x21; 9]);
        let (mut dma, mut dram, mut spm) = started(2, 0x0, 0x1000_0030, 40);
        assert!(!dma.advance_bulk(6, &mut dram, &mut spm));
        assert!(dma.is_busy());
        assert_eq!((dma.bytes_moved, dram.reads, spm.writes), (16, 4 + 4, 4));
    }

    #[test]
    fn transfers_block_dram_to_spm() {
        let (mut dram, mut spm) = memories();
        for k in 0..8u32 {
            dram.poke(k * 4, k + 100).unwrap();
        }
        let mut dma = DmaDevice::new(2);
        dma.mmr_store(mmr::SRC, 0);
        dma.mmr_store(mmr::DST, 0x1000_0100);
        dma.mmr_store(mmr::LEN, 32);
        dma.mmr_store(mmr::IRQ_ENABLE, 1);
        assert!(dma.mmr_store(mmr::CTRL, 1));
        // 8 words at 2 words/cycle = 4 ticks; irq on the last.
        let mut fired = false;
        for _ in 0..4 {
            fired = dma.tick(&mut dram, &mut spm);
        }
        assert!(fired);
        assert!(dma.is_done());
        for k in 0..8u32 {
            assert_eq!(spm.peek(0x1000_0100 + k * 4).unwrap(), k + 100);
        }
        assert_eq!(dma.bytes_moved, 32);
    }

    #[test]
    fn bandwidth_sets_duration() {
        let (mut dram, mut spm) = memories();
        let mut fast = DmaDevice::new(8);
        fast.mmr_store(mmr::SRC, 0);
        fast.mmr_store(mmr::DST, 0x1000_0000);
        fast.mmr_store(mmr::LEN, 64);
        fast.mmr_store(mmr::CTRL, 1);
        let mut ticks = 0;
        while fast.is_busy() {
            let _ = fast.tick(&mut dram, &mut spm);
            ticks += 1;
        }
        assert_eq!(ticks, 2, "16 words at 8/cycle");
    }

    #[test]
    fn spm_to_dram_direction() {
        let (mut dram, mut spm) = memories();
        spm.poke(0x1000_0000, 0x42).unwrap();
        let mut dma = DmaDevice::default();
        dma.mmr_store(mmr::SRC, 0x1000_0000);
        dma.mmr_store(mmr::DST, 0x80);
        dma.mmr_store(mmr::LEN, 4);
        dma.mmr_store(mmr::CTRL, 1);
        let _ = dma.tick(&mut dram, &mut spm);
        assert_eq!(dram.peek(0x80).unwrap(), 0x42);
    }

    #[test]
    fn zero_length_never_starts() {
        let mut dma = DmaDevice::default();
        dma.mmr_store(mmr::LEN, 0);
        assert!(!dma.mmr_store(mmr::CTRL, 1));
        assert!(!dma.is_busy());
    }

    #[test]
    fn bad_address_stalls() {
        let (mut dram, mut spm) = memories();
        let mut dma = DmaDevice::default();
        dma.mmr_store(mmr::SRC, 0x9000_0000);
        dma.mmr_store(mmr::DST, 0);
        dma.mmr_store(mmr::LEN, 4);
        dma.mmr_store(mmr::CTRL, 1);
        for _ in 0..10 {
            assert!(!dma.tick(&mut dram, &mut spm));
        }
        assert!(dma.is_busy(), "stalled, not completed");
    }

    #[test]
    fn status_and_ack() {
        let (mut dram, mut spm) = memories();
        let mut dma = DmaDevice::default();
        dma.mmr_store(mmr::SRC, 0);
        dma.mmr_store(mmr::DST, 0x1000_0000);
        dma.mmr_store(mmr::LEN, 8);
        dma.mmr_store(mmr::CTRL, 1);
        assert_eq!(dma.mmr_load(mmr::STATUS), 1);
        let _ = dma.tick(&mut dram, &mut spm);
        assert_eq!(dma.mmr_load(mmr::STATUS), 2);
        dma.mmr_store(mmr::CTRL, 2);
        assert_eq!(dma.mmr_load(mmr::STATUS), 0);
    }
}
