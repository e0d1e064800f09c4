//! Memory devices: DRAM and scratchpad memory (SPM) with access
//! accounting for the energy model.
//!
//! The paper's §5 notes that scratchpads and register banks "occupy the
//! largest part of the area of many accelerators"; SPM accesses are also
//! a first-class energy line item here.

use std::fmt;
use std::ops::Range;

/// A word-addressable RAM with base address and access counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Ram {
    base: u32,
    data: Vec<u32>,
    /// Number of word reads served.
    pub reads: u64,
    /// Number of word writes served.
    pub writes: u64,
}

/// Error for out-of-range RAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamFault {
    /// The absolute faulting address.
    pub addr: u32,
}

impl fmt::Display for RamFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RAM access out of range at {:#010x}", self.addr)
    }
}

impl std::error::Error for RamFault {}

impl Ram {
    /// Creates a zeroed RAM of `size_bytes` at `base` (size rounded up to
    /// a word).
    ///
    /// # Panics
    ///
    /// Panics if the RAM would run past the end of the 32-bit address
    /// space.
    pub fn new(base: u32, size_bytes: usize) -> Self {
        assert!(
            base as u64 + size_bytes.div_ceil(4) as u64 * 4 <= 1 << 32,
            "RAM wraps past the end of the address space"
        );
        Ram {
            base,
            data: vec![0; size_bytes.div_ceil(4)],
            reads: 0,
            writes: 0,
        }
    }

    /// Base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.data.len() * 4
    }

    /// `true` if `addr` falls inside this RAM.
    pub fn contains(&self, addr: u32) -> bool {
        self.index(addr).is_ok()
    }

    /// The word index of `addr`: one bounds check on the wrapping offset
    /// from the base, so an address below the base wraps far past the
    /// end and faults like one above it.
    #[inline]
    fn index(&self, addr: u32) -> Result<usize, RamFault> {
        let i = (addr.wrapping_sub(self.base) / 4) as usize;
        if i < self.data.len() {
            Ok(i)
        } else {
            Err(RamFault { addr })
        }
    }

    /// Loads the word containing absolute address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] when out of range.
    #[inline]
    pub fn load(&mut self, addr: u32) -> Result<u32, RamFault> {
        let i = self.index(addr)?;
        self.reads += 1;
        Ok(self.data[i])
    }

    /// Stores a word at absolute address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] when out of range.
    #[inline]
    pub fn store(&mut self, addr: u32, value: u32) -> Result<(), RamFault> {
        let i = self.index(addr)?;
        self.writes += 1;
        self.data[i] = value;
        Ok(())
    }

    /// Reads without counting (host-side debug access and code decode).
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] when out of range.
    #[inline]
    pub fn peek(&self, addr: u32) -> Result<u32, RamFault> {
        Ok(self.data[self.index(addr)?])
    }

    /// Writes without counting (host-side program loading).
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] when out of range.
    pub fn poke(&mut self, addr: u32, value: u32) -> Result<(), RamFault> {
        let i = self.index(addr)?;
        self.data[i] = value;
        Ok(())
    }

    /// Writes a slice of words starting at `addr` without counting
    /// (host-side program loading and operand staging): one bounds check,
    /// then one slice copy. An empty slice writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if any word of the range lies outside the RAM. The check
    /// runs before the copy, so a panicking call writes no word at all.
    pub fn poke_words(&mut self, addr: u32, words: &[u32]) {
        if words.is_empty() {
            return;
        }
        let first = self
            .span_index(addr, words.len())
            .expect("poke_words in range");
        self.data[first..first + words.len()].copy_from_slice(words);
    }

    /// Borrows `count` words starting at `addr` without counting
    /// (host-side readback of an operand window).
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] when any word of the range lies outside the
    /// RAM.
    pub fn peek_words(&self, addr: u32, count: usize) -> Result<&[u32], RamFault> {
        let first = self.span_index(addr, count)?;
        Ok(&self.data[first..first + count])
    }

    /// The word-index range of `count` words starting at `addr`, or
    /// `None` when any of them lies outside the RAM. The arithmetic is
    /// checked, so a hostile `count` yields `None`, never an overflow.
    pub fn word_span(&self, addr: u32, count: usize) -> Option<Range<usize>> {
        let first = self.span_index(addr, count).ok()?;
        Some(first..first + count)
    }

    /// Resolves `addr` to a word index and checks that `count` words fit
    /// from there to the end of the RAM.
    fn span_index(&self, addr: u32, count: usize) -> Result<usize, RamFault> {
        let first = self.index(addr)?;
        if first
            .checked_add(count)
            .is_none_or(|end| end > self.data.len())
        {
            return Err(RamFault {
                addr: addr.wrapping_add((count as u32).wrapping_sub(1).wrapping_mul(4)),
            });
        }
        Ok(first)
    }

    /// Counted bulk copy of `count` words from absolute `src` to absolute
    /// `dst` within this RAM — observably identical to `count`
    /// front-to-back [`Ram::load`]/[`Ram::store`] pairs, including
    /// forward propagation through overlapping ranges and the access
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] without copying anything when either word
    /// range leaves the RAM.
    pub fn copy_words_within(&mut self, src: u32, dst: u32, count: usize) -> Result<(), RamFault> {
        if count == 0 {
            return Ok(());
        }
        let si = self.span_index(src, count)?;
        let di = self.span_index(dst, count)?;
        if si >= di {
            // No forward propagation possible: memmove semantics match
            // the word-by-word loop exactly.
            self.data.copy_within(si..si + count, di);
        } else {
            // Destination overlaps ahead of the source: copy front to
            // back so earlier writes feed later reads, as per-word
            // load/store pairs would.
            for k in 0..count {
                self.data[di + k] = self.data[si + k];
            }
        }
        self.reads += count as u64;
        self.writes += count as u64;
        Ok(())
    }

    /// Counted bulk read of `out.len()` words starting at `src` —
    /// observably identical to that many front-to-back [`Ram::load`]
    /// calls. Returns `false` (reading and counting nothing) when the
    /// range leaves the RAM; the caller then falls back to per-word
    /// loads, which charge partial accounting exactly as hardware would.
    pub fn read_words_into(&mut self, src: u32, out: &mut [u32]) -> bool {
        let Ok(si) = self.span_index(src, out.len()) else {
            return false;
        };
        out.copy_from_slice(&self.data[si..si + out.len()]);
        self.reads += out.len() as u64;
        true
    }

    /// Counted bulk write of `words` starting at `dst` — observably
    /// identical to that many front-to-back [`Ram::store`] calls.
    /// Returns `false` (writing and counting nothing) when the range
    /// leaves the RAM.
    pub fn write_words(&mut self, dst: u32, words: &[u32]) -> bool {
        let Ok(di) = self.span_index(dst, words.len()) else {
            return false;
        };
        self.data[di..di + words.len()].copy_from_slice(words);
        self.writes += words.len() as u64;
        true
    }

    /// Counted bulk copy of `count` words from `src` in this RAM to
    /// `dst_addr` in `dst` — observably identical to `count`
    /// [`Ram::load`]/[`Ram::store`] pairs across the two memories.
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] without copying anything when either word
    /// range leaves its RAM.
    pub fn copy_words_to(
        &mut self,
        src: u32,
        dst: &mut Ram,
        dst_addr: u32,
        count: usize,
    ) -> Result<(), RamFault> {
        if count == 0 {
            return Ok(());
        }
        let si = self.span_index(src, count)?;
        let di = dst.span_index(dst_addr, count)?;
        dst.data[di..di + count].copy_from_slice(&self.data[si..si + count]);
        self.reads += count as u64;
        dst.writes += count as u64;
        Ok(())
    }

    /// Flips bit `bit` of the word at `addr` (fault injection).
    ///
    /// # Errors
    ///
    /// Returns [`RamFault`] when out of range.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> Result<(), RamFault> {
        let i = self.index(addr)?;
        self.data[i] ^= 1 << (bit & 31);
        Ok(())
    }

    /// Captures a compact point-in-time image (see [`RamSnapshot`]).
    pub fn snapshot(&self) -> RamSnapshot {
        RamSnapshot {
            base: self.base,
            words: self.data.len(),
            nonzero: self
                .data
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(|(i, &w)| (i as u32, w))
                .collect(),
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Restores the image captured by [`Ram::snapshot`], including the
    /// access counters (so energy reports of a resumed run match an
    /// uninterrupted one).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot geometry (base, size) does not match this
    /// RAM — snapshots only restore onto the memory they were taken from.
    pub fn restore(&mut self, snapshot: &RamSnapshot) {
        assert_eq!(self.base, snapshot.base, "snapshot base mismatch");
        assert_eq!(self.data.len(), snapshot.words, "snapshot size mismatch");
        self.data.fill(0);
        for &(i, w) in &snapshot.nonzero {
            self.data[i as usize] = w;
        }
        self.reads = snapshot.reads;
        self.writes = snapshot.writes;
    }
}

/// A compact point-in-time image of a [`Ram`] storing only the nonzero
/// words. Workload footprints (firmware + operands) are tiny compared to
/// the 4 MiB DRAM, so a campaign can keep tens of checkpoints resident
/// for megabytes instead of gigabytes; a fully dense RAM degrades to
/// 2 words per word, never worse.
#[derive(Debug, Clone, PartialEq)]
pub struct RamSnapshot {
    base: u32,
    words: usize,
    nonzero: Vec<(u32, u32)>,
    reads: u64,
    writes: u64,
}

impl RamSnapshot {
    /// Approximate heap footprint of this snapshot \[bytes\].
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nonzero.len() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let mut r = Ram::new(0x1000, 64);
        r.store(0x1008, 0xCAFEBABE).unwrap();
        assert_eq!(r.load(0x1008).unwrap(), 0xCAFEBABE);
        assert_eq!(r.reads, 1);
        assert_eq!(r.writes, 1);
    }

    #[test]
    fn bounds_checking() {
        let mut r = Ram::new(0x1000, 16);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x100F));
        assert!(!r.contains(0x1010));
        assert!(!r.contains(0xFFF));
        assert!(r.load(0x1010).is_err());
        assert!(r.store(0x0, 1).is_err());
    }

    #[test]
    fn one_bounds_check_guards_every_word_access() {
        let (base, size) = (0x1000_0000u32, 64u32);
        let mut r = Ram::new(base, size as usize);
        // The last byte is inside: it addresses the last word.
        let last = base + size - 1;
        assert!(r.contains(last));
        r.poke(last, 5).unwrap();
        assert_eq!(r.peek(base + size - 4).unwrap(), 5);
        r.store(last, 6).unwrap();
        assert_eq!(r.load(last).unwrap(), 6);
        r.flip_bit(last, 0).unwrap();
        assert_eq!(r.peek(last).unwrap(), 7);
        assert_eq!((r.reads, r.writes), (1, 1));
        // Below the base (the wrapping offset is huge), one past the end
        // and the top of the address space all fault, uncounted and
        // without touching memory.
        let before = r.clone();
        for addr in [base - 4, base + size, u32::MAX] {
            assert!(!r.contains(addr), "{addr:#x}");
            assert_eq!(r.load(addr), Err(RamFault { addr }));
            assert_eq!(r.store(addr, 1), Err(RamFault { addr }));
            assert_eq!(r.peek(addr), Err(RamFault { addr }));
            assert_eq!(r.poke(addr, 1), Err(RamFault { addr }));
            assert_eq!(r.flip_bit(addr, 3), Err(RamFault { addr }));
        }
        assert_eq!(r, before);
    }

    #[test]
    #[should_panic(expected = "RAM wraps past the end of the address space")]
    fn a_ram_may_not_wrap_the_address_space() {
        let _ = Ram::new(0xFFFF_FFF0, 32);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut r = Ram::new(0, 32);
        r.poke(4, 7).unwrap();
        assert_eq!(r.peek(4).unwrap(), 7);
        assert_eq!(r.reads, 0);
        assert_eq!(r.writes, 0);
    }

    #[test]
    fn poke_words_sequences() {
        let mut r = Ram::new(0x100, 32);
        r.poke_words(0x104, &[1, 2, 3]);
        assert_eq!(r.peek(0x108).unwrap(), 2);
    }

    #[test]
    fn slice_helpers_do_not_count() {
        let mut r = Ram::new(0x100, 32);
        r.poke_words(0x104, &[1, 2, 3]);
        assert_eq!(r.peek_words(0x104, 3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.peek_words(0x100, 8).unwrap().len(), 8);
        assert_eq!(r.peek_words(0x110, 5).unwrap_err().addr, 0x120);
        assert!(r.peek_words(0x100, usize::MAX).is_err(), "checked span");
        assert_eq!(r.word_span(0x104, 3), Some(1..4));
        assert_eq!(r.word_span(0x104, 8), None);
        assert_eq!((r.reads, r.writes), (0, 0));
    }

    #[test]
    fn out_of_range_poke_words_writes_nothing() {
        let mut r = Ram::new(0x100, 16);
        let before = r.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.poke_words(0x108, &[7, 8, 9]);
        }));
        assert!(result.is_err(), "a range past the end panics");
        assert_eq!(r, before, "no prefix is written before the panic");
    }

    #[test]
    fn bit_flip() {
        let mut r = Ram::new(0, 16);
        r.poke(0, 0b1000).unwrap();
        r.flip_bit(0, 3).unwrap();
        assert_eq!(r.peek(0).unwrap(), 0);
        r.flip_bit(0, 31).unwrap();
        assert_eq!(r.peek(0).unwrap(), 0x8000_0000);
    }

    #[test]
    fn snapshot_is_sparse_and_restores_counters() {
        let mut r = Ram::new(0x1000, 1 << 20); // 1 MiB, mostly zero
        r.store(0x1004, 7).unwrap();
        r.store(0x1100, 0xDEAD).unwrap();
        r.load(0x1004).unwrap();
        let snap = r.snapshot();
        assert_eq!(snap.nonzero.len(), 2);
        assert!(snap.approx_bytes() < 256, "sparse image must stay small");
        // Diverge, then restore.
        r.store(0x1004, 99).unwrap();
        r.store(0x2000, 1).unwrap();
        r.restore(&snap);
        assert_eq!(r.peek(0x1004).unwrap(), 7);
        assert_eq!(r.peek(0x1100).unwrap(), 0xDEAD);
        assert_eq!(r.peek(0x2000).unwrap(), 0);
        assert_eq!(r.reads, 1);
        assert_eq!(r.writes, 2);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn snapshot_rejects_foreign_geometry() {
        let small = Ram::new(0, 16);
        let mut big = Ram::new(0, 64);
        big.restore(&small.snapshot());
    }

    #[test]
    fn fault_display() {
        let mut r = Ram::new(0, 4);
        let e = r.load(100).unwrap_err();
        assert!(e.to_string().contains("0x00000064"));
    }
}
