//! Scalar aggregation across topology ensembles.
//!
//! Table 1 reports "minimum, maximum, and average factors of throughput
//! increase" over the ten random topologies of each size; [`MinMaxAvg`]
//! is exactly that accumulator.

/// Running minimum / maximum / mean of a sequence of samples.
///
/// Non-finite samples (NaN, ±∞) are *rejected and counted* rather than
/// mixed in: a single NaN would otherwise poison `sum`, `min` and `max`
/// for the rest of the accumulator's life (NaN propagates through both
/// `+` and `f64::min`/`max` once it is the accumulated value).
#[derive(Clone, Debug, PartialEq)]
pub struct MinMaxAvg {
    /// Number of finite samples accumulated.
    pub count: usize,
    /// Smallest sample (`NaN` if empty).
    pub min: f64,
    /// Largest sample (`NaN` if empty).
    pub max: f64,
    /// Number of non-finite samples rejected.
    pub(crate) non_finite: usize,
    sum: f64,
}

impl MinMaxAvg {
    /// Empty accumulator.
    pub fn new() -> MinMaxAvg {
        MinMaxAvg {
            count: 0,
            min: f64::NAN,
            max: f64::NAN,
            non_finite: 0,
            sum: 0.0,
        }
    }

    /// Build from an iterator of samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> MinMaxAvg {
        samples.into_iter().collect()
    }

    /// Add a sample. Non-finite samples are skipped and counted in
    /// `non_finite` (and still panic in debug
    /// builds, where they indicate a caller bug worth catching early).
    pub fn push(&mut self, sample: f64) {
        debug_assert!(sample.is_finite(), "non-finite sample {sample}");
        if !sample.is_finite() {
            self.non_finite += 1;
            return;
        }
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.sum += sample;
        self.count += 1;
    }

    /// The mean (`NaN` if empty).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for MinMaxAvg {
    fn default() -> Self {
        MinMaxAvg::new()
    }
}

impl FromIterator<f64> for MinMaxAvg {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> MinMaxAvg {
        let mut acc = MinMaxAvg::new();
        for s in iter {
            acc.push(s);
        }
        acc
    }
}

impl std::fmt::Display for MinMaxAvg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}/{:.2}/{:.2}", self.min, self.max, self.avg())
    }
}

/// A `(time, value)` timeseries with scalar summaries — the aggregation
/// side of the simulator's telemetry samples (per-VL occupancy over
/// simulated time, stall rates, and so on).
///
/// Points are expected in nondecreasing time order (how a sampling probe
/// naturally produces them); [`push`](Timeseries::push) debug-asserts
/// that, and the summaries are order-independent anyway.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeseries {
    points: Vec<(u64, f64)>,
}

impl Timeseries {
    /// Empty series.
    pub fn new() -> Timeseries {
        Timeseries::default()
    }

    /// Append a point at time `at_ns`.
    pub fn push(&mut self, at_ns: u64, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at_ns),
            "timeseries points must be pushed in nondecreasing time order"
        );
        self.points.push((at_ns, value));
    }

    /// The recorded `(time_ns, value)` points, in push order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Smallest value (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::min)
    }

    /// Largest value (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::max)
    }

    /// Mean value (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        (!self.points.is_empty())
            .then(|| self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// The `(time_ns, value)` of the largest value, earliest such point
    /// on ties (`None` if empty) — "when did the escape queues spike".
    pub fn peak(&self) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for &(t, v) in &self.points {
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((t, v));
            }
        }
        best
    }
}

impl FromIterator<(u64, f64)> for Timeseries {
    fn from_iter<T: IntoIterator<Item = (u64, f64)>>(iter: T) -> Timeseries {
        let mut s = Timeseries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn min_max_avg_basics() {
        let acc = MinMaxAvg::from_samples([3.0, 1.0, 2.0]);
        assert_eq!((acc.min, acc.max, acc.avg()), (1.0, 3.0, 2.0));
        assert_eq!(acc.count, 3);
        assert_eq!(acc.to_string(), "1.00/3.00/2.00");
    }

    #[test]
    fn empty_accumulator_is_nan() {
        let acc = MinMaxAvg::new();
        assert!(acc.avg().is_nan());
        assert!(acc.min.is_nan());
        assert_eq!(acc.count, 0);
    }

    #[test]
    fn single_sample() {
        let acc = MinMaxAvg::from_samples([5.0]);
        assert_eq!((acc.min, acc.max, acc.avg()), (5.0, 5.0, 5.0));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_finite_samples_are_skipped_and_counted() {
        // Release-only: in debug builds push() debug_asserts instead.
        let mut acc = MinMaxAvg::new();
        acc.push(1.0);
        acc.push(f64::NAN);
        acc.push(f64::INFINITY);
        acc.push(3.0);
        assert_eq!((acc.min, acc.max, acc.avg()), (1.0, 3.0, 2.0));
        assert_eq!(acc.count, 2);
        assert_eq!(acc.non_finite, 2);

        // All-non-finite input leaves the accumulator empty, not poisoned.
        let acc = MinMaxAvg::from_samples([f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(acc.count, 0);
        assert_eq!(acc.non_finite, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite sample")]
    fn non_finite_samples_panic_in_debug() {
        MinMaxAvg::new().push(f64::NAN);
    }

    #[test]
    fn timeseries_summaries() {
        let ts: Timeseries = [(0, 2.0), (1_000, 5.0), (2_000, 5.0), (3_000, 1.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.min(), Some(1.0));
        assert_eq!(ts.max(), Some(5.0));
        assert_eq!(ts.mean(), Some(13.0 / 4.0));
        // Earliest point wins the tie at the maximum.
        assert_eq!(ts.peak(), Some((1_000, 5.0)));

        let empty = Timeseries::new();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.peak(), None);
    }

    proptest! {
        #[test]
        fn prop_minmaxavg_bounds(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let acc = MinMaxAvg::from_samples(samples.iter().copied());
            let avg = acc.avg();
            prop_assert!(acc.min <= avg + 1e-9 && avg <= acc.max + 1e-9);
            prop_assert_eq!(acc.count, samples.len());
        }
    }
}
