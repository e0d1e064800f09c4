//! The CPU's hardware performance counters.
//!
//! The bulk interpreter ([`crate::cpu::Cpu::run_cached_span`]) serves
//! each entry at a `pc` in one of two ways: through the compiled trace
//! starting there ([`crate::trace`]), or by decoding from memory up to
//! the next control transfer. [`PerfCounters::block_hits`] and
//! [`PerfCounters::block_misses`] count those two kinds of entry; the
//! names date from a decoded-block cache the trace tier replaced.

/// A point-in-time copy of the CPU hardware counters, including the
/// bulk-entry and trace-engine statistics — the `mcycle`/`minstret`-style
/// surface firmware experiments use to self-report cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfCounters {
    /// Cycle counter (`mcycle`).
    pub cycles: u64,
    /// Retired instructions (`minstret`).
    pub instret: u64,
    /// Bulk entries served by a compiled trace (CSR `0xB03`).
    pub block_hits: u64,
    /// Bulk entries run by decoding from memory, counted as each run
    /// ends (CSR `0xB04`).
    pub block_misses: u64,
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
    /// Share of bulk entries a compiled trace served (0 when the bulk
    /// interpreter was never entered).
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
