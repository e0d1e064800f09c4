//! The memory bus abstraction between the CPU and the system: the sim
//! crate implements [`Bus`] over its memory map (DRAM, scratchpads,
//! memory-mapped accelerator registers).

use std::fmt;

/// Access fault raised by a bus device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusFault {
    /// The faulting address.
    pub addr: u32,
    /// Whether the access was a store.
    pub is_store: bool,
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bus fault on {} at {:#010x}",
            if self.is_store { "store" } else { "load" },
            self.addr
        )
    }
}

impl std::error::Error for BusFault {}

/// A 32-bit little-endian memory bus.
///
/// Only word-width primitives are required; byte and halfword accessors
/// have default implementations that read-modify-write the containing
/// word, which is correct for memories and acceptable for the register
/// devices in this workspace.
pub trait Bus {
    /// Loads the aligned 32-bit word containing `addr` (low 2 bits
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped addresses.
    fn load_word(&mut self, addr: u32) -> Result<u32, BusFault>;

    /// Stores an aligned 32-bit word (low 2 bits of `addr` ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped or read-only addresses.
    fn store_word(&mut self, addr: u32, value: u32) -> Result<(), BusFault>;

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// Propagates the word access fault.
    fn load_byte(&mut self, addr: u32) -> Result<u8, BusFault> {
        let w = self.load_word_fast(addr & !3)?;
        Ok((w >> ((addr & 3) * 8)) as u8)
    }

    /// Loads one little-endian halfword.
    ///
    /// # Errors
    ///
    /// Propagates the word access fault.
    fn load_half(&mut self, addr: u32) -> Result<u16, BusFault> {
        let w = self.load_word_fast(addr & !3)?;
        Ok((w >> ((addr & 2) * 8)) as u16)
    }

    /// Stores one byte (read-modify-write).
    ///
    /// # Errors
    ///
    /// Propagates the word access fault.
    fn store_byte(&mut self, addr: u32, value: u8) -> Result<(), BusFault> {
        let aligned = addr & !3;
        let shift = (addr & 3) * 8;
        let w = self.load_word_fast(aligned)?;
        let w = (w & !(0xffu32 << shift)) | ((value as u32) << shift);
        self.store_word_fast(aligned, w)
    }

    /// Stores one halfword (read-modify-write).
    ///
    /// # Errors
    ///
    /// Propagates the word access fault.
    fn store_half(&mut self, addr: u32, value: u16) -> Result<(), BusFault> {
        let aligned = addr & !3;
        let shift = (addr & 2) * 8;
        let w = self.load_word_fast(aligned)?;
        let w = (w & !(0xffffu32 << shift)) | ((value as u32) << shift);
        self.store_word_fast(aligned, w)
    }

    /// Instruction fetch: must be observably identical to [`Bus::load_word`]
    /// (same value, same faults, same access accounting). Implementations
    /// backed by plain RAM may override it with a leaner single-bounds-check
    /// path; the precise interpreter ([`crate::cpu::Cpu::step`]) issues
    /// all its fetches through this hook.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped addresses.
    fn fetch_word(&mut self, addr: u32) -> Result<u32, BusFault> {
        self.load_word(addr)
    }

    /// Side-effect-free read of the aligned word containing `addr`, used by
    /// the bulk interpreter and the trace compiler to decode code without
    /// charging access counters or latency (the bulk path charges
    /// fetches through [`Bus::charge_fetches`]). Returning `None` marks
    /// the address as not bulk-decodable (e.g. device registers); the
    /// interpreter then falls back to plain fetch-and-decode there.
    fn peek_word(&self, addr: u32) -> Option<u32> {
        let _ = addr;
        None
    }

    /// Fused data-load fast path: observably identical to
    /// [`Bus::load_word`], overridable to bypass full bus dispatch when the
    /// address window is plain RAM.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped addresses.
    fn load_word_fast(&mut self, addr: u32) -> Result<u32, BusFault> {
        self.load_word(addr)
    }

    /// Fused data-store fast path: observably identical to
    /// [`Bus::store_word`], overridable to bypass full bus dispatch when the
    /// address window is plain RAM.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped or read-only addresses.
    fn store_word_fast(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        self.store_word(addr, value)
    }

    /// Bulk-charges the accounting side effects of `count` instruction
    /// fetches covering `[start, start + 4*count)` without reading the
    /// words, or reports that it cannot. Returning `true` promises that
    /// *exactly* the accounting of that many [`Bus::fetch_word`] calls
    /// was applied (e.g. read counters) and nothing else; implementations
    /// whose fetches have per-access state (stall charging, cache
    /// modelling) must return `false`, and the caller then performs real
    /// fetches. `count == 0` acts as a side-effect-free probe for
    /// whether the region is bulk-chargeable.
    fn charge_fetches(&mut self, start: u32, count: u32) -> bool {
        let _ = (start, count);
        false
    }

    /// Called by the bulk interpreter immediately before it executes a
    /// load/store whose effective address `addr` reaches the caller's
    /// `mmio_floor`, with the CPU's current cycle count. Returning `true`
    /// promises the access may run in place: the bus first brings its
    /// devices to `cycles`, applying exactly the device ticks the
    /// per-cycle loop would have run by then (none change state inside a
    /// quiet window; an in-flight transfer moves its words). Returning
    /// `false` sends the access to the caller's precise per-instruction
    /// path instead, with nothing changed.
    fn mmio_prologue(&mut self, addr: u32, cycles: u64) -> bool {
        let _ = (addr, cycles);
        false
    }

    /// Called right after an in-place device access permitted by
    /// [`Bus::mmio_prologue`]. Returns `true` while the quiet window
    /// still holds — no device has work in flight and no interrupt is
    /// pending — so bulk execution may continue; `false` hands control
    /// back to the caller's full per-cycle protocol.
    fn mmio_epilogue(&mut self) -> bool {
        false
    }
}

/// A flat little-endian RAM starting at address 0 — enough to run
/// standalone CPU tests without the full system simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMemory {
    data: Vec<u8>,
}

impl FlatMemory {
    /// Creates a zeroed memory of `size` bytes (rounded up to a word).
    pub fn new(size: usize) -> Self {
        FlatMemory {
            data: vec![0; (size + 3) & !3],
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies `bytes` into memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn load_program(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr as usize;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Copies instruction words into memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (k, w) in words.iter().enumerate() {
            let bytes = w.to_le_bytes();
            self.load_program(addr + (k as u32) * 4, &bytes);
        }
    }
}

impl Bus for FlatMemory {
    fn load_word(&mut self, addr: u32) -> Result<u32, BusFault> {
        let a = (addr & !3) as usize;
        if a + 4 > self.data.len() {
            return Err(BusFault {
                addr,
                is_store: false,
            });
        }
        Ok(u32::from_le_bytes([
            self.data[a],
            self.data[a + 1],
            self.data[a + 2],
            self.data[a + 3],
        ]))
    }

    fn store_word(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        let a = (addr & !3) as usize;
        if a + 4 > self.data.len() {
            return Err(BusFault {
                addr,
                is_store: true,
            });
        }
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn peek_word(&self, addr: u32) -> Option<u32> {
        let a = (addr & !3) as usize;
        let bytes = self.data.get(a..a + 4)?;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn charge_fetches(&mut self, _start: u32, _count: u32) -> bool {
        // Fetches from flat memory carry no accounting at all.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut m = FlatMemory::new(64);
        m.store_word(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.load_word(8).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn little_endian_bytes() {
        let mut m = FlatMemory::new(16);
        m.store_word(0, 0x0403_0201).unwrap();
        assert_eq!(m.load_byte(0).unwrap(), 0x01);
        assert_eq!(m.load_byte(3).unwrap(), 0x04);
        assert_eq!(m.load_half(2).unwrap(), 0x0403);
    }

    #[test]
    fn sub_word_stores_preserve_neighbors() {
        let mut m = FlatMemory::new(16);
        m.store_word(0, 0xAABB_CCDD).unwrap();
        m.store_byte(1, 0x11).unwrap();
        assert_eq!(m.load_word(0).unwrap(), 0xAABB_11DD);
        m.store_half(2, 0x2233).unwrap();
        assert_eq!(m.load_word(0).unwrap(), 0x2233_11DD);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = FlatMemory::new(8);
        assert!(m.load_word(8).is_err());
        let f = m.store_word(100, 1).unwrap_err();
        assert!(f.is_store);
        assert!(f.to_string().contains("store"));
    }

    #[test]
    fn load_words_places_program() {
        let mut m = FlatMemory::new(32);
        m.load_words(4, &[0x11111111, 0x22222222]);
        assert_eq!(m.load_word(4).unwrap(), 0x11111111);
        assert_eq!(m.load_word(8).unwrap(), 0x22222222);
    }
}
