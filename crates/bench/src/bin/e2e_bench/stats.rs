//! Order statistics shared by the runner, the tracer and `compare`.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// basis points so that e.g. p99.9 of 10 000 is exactly rank 9990.
fn rank(p: f64, n: usize) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Percentile `p` of an ascending slice of whole numbers (cycle counts),
/// with each sample spread evenly over its one-wide bin: the
/// grouped-data percentile. Unlike the nearest rank it does not jump by
/// a whole cycle when a few samples cross a bin edge (0 when empty).
pub fn binned_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let v = percentile(sorted, p);
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    let target = p / 100.0 * sorted.len() as f64;
    v - 0.5 + (target - below as f64) / at as f64
}

/// Median (nearest rank) of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, or `None` when even the median lacks that support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(p, n) >= TAIL_SUPPORT)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed by `compare` are the ones a Python reader recomputes.
/// A single value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n - 1);
                // Negative when the clamp moved `j` up (two samples).
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn binned_percentile_interpolates_within_the_cycle() {
        // Ranks 1..=4 read 10, ranks 5..=10 read 11: the median (rank 5)
        // lies a sixth of the way into the bin of 11, [10.5, 11.5).
        let v = [10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 11.0, 11.0, 11.0, 11.0];
        assert!((binned_percentile(&v, 50.0) - (10.5 + 1.0 / 6.0)).abs() < 1e-12);
        assert_eq!(binned_percentile(&[7.0; 4], 50.0), 7.0);
        assert_eq!(binned_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), [0.25, 2.5, 4.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
