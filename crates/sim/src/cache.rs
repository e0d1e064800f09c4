//! A timing-model cache for the host CPU's DRAM traffic — the
//! microarchitectural detail that makes the software baseline of E7
//! honest (gem5 models this; a fixed 2-cycle load would flatter neither
//! side fairly once DRAM latency is nonzero).
//!
//! The cache is *timing-only*: data always comes from the backing RAM
//! (so DMA traffic can never go stale); the cache just decides how many
//! stall cycles an access costs. Direct-mapped, write-allocate.

/// A direct-mapped, timing-only cache.
///
/// # Examples
///
/// ```
/// use neuropulsim_sim::cache::DirectMappedCache;
///
/// let mut cache = DirectMappedCache::new(64, 8, 20);
/// assert_eq!(cache.access(0x1000), 20); // cold miss
/// assert_eq!(cache.access(0x1004), 0);  // same line: hit
/// assert_eq!(cache.hits, 1);
/// assert_eq!(cache.misses, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DirectMappedCache {
    line_words: usize,
    tags: Vec<Option<u32>>,
    /// Stall cycles charged on a miss.
    pub miss_penalty: u64,
    /// Hit counter.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
}

impl DirectMappedCache {
    /// Creates a cache with `lines` lines of `line_words` 32-bit words
    /// each, charging `miss_penalty` stall cycles per miss.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `line_words` is zero or not a power of two.
    pub fn new(lines: usize, line_words: usize, miss_penalty: u64) -> Self {
        assert!(
            lines.is_power_of_two() && lines > 0,
            "lines must be a power of two"
        );
        assert!(
            line_words.is_power_of_two() && line_words > 0,
            "line words must be a power of two"
        );
        DirectMappedCache {
            line_words,
            tags: vec![None; lines],
            miss_penalty,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.tags.len() * self.line_words * 4
    }

    /// Simulates one word access at byte address `addr`; returns the
    /// stall cycles (0 on hit, `miss_penalty` on miss) and updates the
    /// replacement state.
    pub fn access(&mut self, addr: u32) -> u64 {
        let word = addr / 4;
        let line_addr = word as usize / self.line_words;
        let index = line_addr & (self.tags.len() - 1);
        let tag = (line_addr / self.tags.len()) as u32;
        if self.tags[index] == Some(tag) {
            self.hits += 1;
            0
        } else {
            self.tags[index] = Some(tag);
            self.misses += 1;
            self.miss_penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_locality_hits_within_a_line() {
        let mut c = DirectMappedCache::new(16, 8, 10);
        assert_eq!(c.access(0), 10);
        for k in 1..8u32 {
            assert_eq!(c.access(k * 4), 0, "word {k} shares the line");
        }
        assert_eq!(c.access(8 * 4), 10, "next line misses");
        assert_eq!(c.hits, 7);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn conflicting_lines_evict() {
        // 2 lines of 1 word: addresses 0 and 8 map to index 0.
        let mut c = DirectMappedCache::new(2, 1, 5);
        assert_eq!(c.access(0), 5);
        assert_eq!(c.access(8), 5, "conflict miss");
        assert_eq!(c.access(0), 5, "evicted, misses again");
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn temporal_locality_hits() {
        let mut c = DirectMappedCache::new(64, 8, 20);
        let _ = c.access(0x100);
        for _ in 0..100 {
            assert_eq!(c.access(0x100), 0);
        }
        assert_eq!((c.hits, c.misses), (100, 1));
    }

    #[test]
    fn capacity_accounting() {
        let c = DirectMappedCache::new(64, 8, 1);
        assert_eq!(c.capacity(), 64 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = DirectMappedCache::new(3, 4, 1);
    }
}
