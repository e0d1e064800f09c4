//! Spike encodings: turning analog feature vectors into spike trains for
//! the photonic SNN (sub-ns optical pulses in hardware).

/// A spike train on one channel: sorted spike times.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpikeTrain {
    times: Vec<f64>,
}

impl SpikeTrain {
    /// Creates an empty train.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a train from (unsorted) times.
    pub(crate) fn from_times(mut times: Vec<f64>) -> Self {
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite spike times"));
        SpikeTrain { times }
    }

    /// The sorted spike times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of spikes.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the train has no spikes.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Appends a spike (must be at or after the last spike).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded spike.
    pub fn push(&mut self, t: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "spike times must be non-decreasing");
        }
        self.times.push(t);
    }
}

impl FromIterator<f64> for SpikeTrain {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        SpikeTrain::from_times(iter.into_iter().collect())
    }
}

/// Latency (time-to-first-spike) coding: larger values spike *earlier*.
///
/// A value `x in [0, 1]` maps to one spike at `t = t_max * (1 - x)`;
/// `x = 0` produces no spike.
///
/// # Panics
///
/// Panics if any value is outside `[0, 1]` or `t_max <= 0`.
///
/// # Examples
///
/// ```
/// use neuropulsim_snn::encoding::latency_encode;
///
/// let trains = latency_encode(&[1.0, 0.5, 0.0], 10.0);
/// assert_eq!(trains[0].times(), &[0.0]);
/// assert_eq!(trains[1].times(), &[5.0]);
/// assert!(trains[2].is_empty());
/// ```
pub fn latency_encode(values: &[f64], t_max: f64) -> Vec<SpikeTrain> {
    assert!(t_max > 0.0, "t_max must be positive");
    values
        .iter()
        .map(|&x| {
            assert!((0.0..=1.0).contains(&x), "values must be in [0, 1]");
            if x > 0.0 {
                SpikeTrain::from_times(vec![t_max * (1.0 - x)])
            } else {
                SpikeTrain::new()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_basics() {
        let mut t = SpikeTrain::new();
        assert!(t.is_empty());
        t.push(1.0);
        t.push(2.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.times(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_out_of_order() {
        let mut t = SpikeTrain::from_times(vec![2.0]);
        t.push(1.0);
    }

    #[test]
    fn from_times_sorts() {
        let t = SpikeTrain::from_times(vec![3.0, 1.0, 2.0]);
        assert_eq!(t.times(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn latency_orders_by_value() {
        let trains = latency_encode(&[0.9, 0.3, 0.6], 10.0);
        let t0 = trains[0].times()[0];
        let t1 = trains[1].times()[0];
        let t2 = trains[2].times()[0];
        assert!(t0 < t2 && t2 < t1, "bigger value fires earlier");
    }

    #[test]
    fn collect_from_iterator() {
        let t: SpikeTrain = [2.0, 1.0].into_iter().collect();
        assert_eq!(t.times(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn latency_rejects_out_of_range() {
        let _ = latency_encode(&[1.5], 10.0);
    }
}
