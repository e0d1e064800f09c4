//! Deterministic scoped-thread parallelism helpers.
//!
//! The workspace's fan-outs (fault and drift campaigns, chaos scenarios,
//! conformance cases, the mesh grid sweep) go through this module, which
//! enforces one invariant: **results are a pure function of the
//! inputs and the seed — never of the thread count**. Two rules make
//! that hold:
//!
//! 1. work is split by *item index*, and anything random derives its RNG
//!    from [`split_seed`]`(seed, index)` — per item, not per chunk — so a
//!    1-thread and an N-thread run draw identical streams;
//! 2. [`par_map_indexed`] returns results in item order regardless of
//!    which thread computed them.
//!
//! Threads come from [`std::thread::scope`], so borrowed captures work
//! without `'static` bounds and there is no pool to shut down. The
//! default width is [`available_threads`], overridable with the
//! `NEUROPULSIM_THREADS` environment variable (useful both to pin CI and
//! to verify the determinism invariant by sweeping widths).

use std::num::NonZeroUsize;

/// Worker count used when a caller does not pin one explicitly.
///
/// `NEUROPULSIM_THREADS` (if set and positive) wins; otherwise the OS
/// reported parallelism; otherwise 1.
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("NEUROPULSIM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives an independent per-item seed from a base seed and item index.
///
/// SplitMix64-style finalization over `seed` and `index` mixed with
/// distinct odd constants; cheap, stateless, and collision-resistant
/// enough that per-trial RNGs seeded from consecutive indices are
/// statistically independent.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps `f` over `0..len` on up to `threads` scoped workers, returning
/// results in index order.
///
/// Work is split into contiguous index ranges, one per worker; each
/// worker fills its own ordered buffer and the buffers are concatenated,
/// so output order (and, with [`split_seed`]-derived RNGs, output
/// *values*) never depend on `threads`. With `threads <= 1` or a short
/// input the map runs inline with no thread spawn.
pub fn par_map_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(len.max(1));
    if workers <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    // Contiguous ranges; the first `rem` workers take one extra item.
    let base = len / workers;
    let rem = len % workers;
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let count = base + usize::from(w < rem);
            let range = start..start + count;
            start += count;
            let f = &f;
            handles.push(scope.spawn(move || range.map(f).collect::<Vec<T>>()));
        }
        for h in handles {
            parts.push(h.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn split_seed_is_deterministic_and_spreads() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        assert_ne!(split_seed(7, 3), split_seed(7, 4));
        assert_ne!(split_seed(7, 3), split_seed(8, 3));
        // Consecutive indices should not produce near-identical seeds.
        let a = split_seed(0, 0);
        let b = split_seed(0, 1);
        assert!((a ^ b).count_ones() > 8);
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 3, 7, 64] {
            let out = par_map_indexed(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn seeded_map_is_thread_count_invariant() {
        let draw = |i: usize| {
            let mut rng = StdRng::seed_from_u64(split_seed(42, i as u64));
            rng.gen_range(0.0..1.0f64)
        };
        let reference = par_map_indexed(40, 1, draw);
        for threads in [2, 3, 5, 16] {
            assert_eq!(par_map_indexed(40, threads, draw), reference);
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i), vec![0]);
    }
}
