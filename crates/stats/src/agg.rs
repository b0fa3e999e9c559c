//! Scalar aggregation across topology ensembles.
//!
//! Table 1 reports "minimum, maximum, and average factors of throughput
//! increase" over the ten random topologies of each size; [`MinMaxAvg`]
//! is exactly that accumulator. [`Welford`] adds a numerically stable
//! variance for the extended reports.

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
    pub non_finite: usize,
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
    /// [`non_finite`](MinMaxAvg::non_finite) (and still panic in debug
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

    /// The paper's `(min, max, avg)` triple, or `None` when no finite
    /// sample was accumulated (instead of a silent NaN triple).
    pub fn triple(&self) -> Option<(f64, f64, f64)> {
        (self.count > 0).then(|| (self.min, self.max, self.avg()))
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
///
/// ## Bounded memory
///
/// A series built with [`bounded`](Timeseries::bounded) never retains
/// more than `max_points` points: it keeps every `stride`-th pushed
/// point, and whenever the retained set fills up it drops every other
/// retained point and doubles the stride. The policy is a pure
/// function of the *push sequence* — no clocks, no randomness — so two
/// identical push sequences always retain identical points regardless
/// of wall-clock timing (push-order determinism, which the telemetry
/// determinism suites rely on).
#[derive(Clone, Debug, PartialEq)]
pub struct Timeseries {
    points: Vec<(u64, f64)>,
    /// Retained-point cap (0 = unbounded, the default).
    max_points: usize,
    /// Current keep-every-nth stride (starts at 1, doubles on overflow).
    stride: u64,
    /// Total points ever pushed (retained or not).
    pushed: u64,
}

impl Timeseries {
    /// Empty, unbounded series.
    pub fn new() -> Timeseries {
        Timeseries::default()
    }

    /// Empty series that retains at most `max_points` points via
    /// stride-doubling decimation (`0` means unbounded; nonzero caps
    /// are clamped to at least 2 so decimation can make progress).
    pub fn bounded(max_points: usize) -> Timeseries {
        let max_points = if max_points == 0 {
            0
        } else {
            max_points.max(2)
        };
        Timeseries {
            max_points,
            ..Timeseries::default()
        }
    }

    /// Append a point at time `at_ns`. On a bounded series the point
    /// is retained only if it lands on the current decimation stride.
    pub fn push(&mut self, at_ns: u64, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at_ns),
            "timeseries points must be pushed in nondecreasing time order"
        );
        let keep = self.max_points == 0 || self.pushed.is_multiple_of(self.stride);
        self.pushed += 1;
        if !keep {
            return;
        }
        self.points.push((at_ns, value));
        if self.max_points != 0 && self.points.len() >= self.max_points {
            // Halve the retained set (keep the even-indexed survivors,
            // which are exactly the points at the doubled stride) and
            // coarsen future admission to match.
            let mut i = 0usize;
            self.points.retain(|_| {
                let kept = i.is_multiple_of(2);
                i += 1;
                kept
            });
            self.stride *= 2;
        }
    }

    /// Total number of points ever pushed, including ones decimation
    /// dropped.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The retained-point cap (0 = unbounded).
    pub fn max_points(&self) -> usize {
        self.max_points
    }

    /// The recorded `(time_ns, value)` points, in push order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
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

impl Default for Timeseries {
    fn default() -> Timeseries {
        Timeseries {
            points: Vec::new(),
            max_points: 0,
            stride: 1,
            pushed: 0,
        }
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

/// Welford's online mean/variance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Welford {
    /// Number of finite samples accumulated.
    pub count: usize,
    /// Number of non-finite samples rejected.
    pub non_finite: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Add a sample. Non-finite samples are skipped and counted in
    /// [`non_finite`](Welford::non_finite), mirroring
    /// [`MinMaxAvg::push`] — one NaN would otherwise corrupt `mean` and
    /// `m2` permanently.
    pub fn push(&mut self, sample: f64) {
        debug_assert!(sample.is_finite(), "non-finite sample {sample}");
        if !sample.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (sample - self.mean);
    }

    /// The mean (`NaN` if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (`NaN` with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn min_max_avg_basics() {
        let acc = MinMaxAvg::from_samples([3.0, 1.0, 2.0]);
        assert_eq!(acc.triple(), Some((1.0, 3.0, 2.0)));
        assert_eq!(acc.count, 3);
        assert_eq!(acc.to_string(), "1.00/3.00/2.00");
    }

    #[test]
    fn empty_accumulator_is_nan() {
        let acc = MinMaxAvg::new();
        assert!(acc.avg().is_nan());
        assert!(acc.min.is_nan());
        assert_eq!(acc.triple(), None);
    }

    #[test]
    fn single_sample() {
        let acc = MinMaxAvg::from_samples([5.0]);
        assert_eq!(acc.triple(), Some((5.0, 5.0, 5.0)));
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
        assert_eq!(acc.triple(), Some((1.0, 3.0, 2.0)));
        assert_eq!(acc.count, 2);
        assert_eq!(acc.non_finite, 2);

        let mut w = Welford::new();
        w.push(2.0);
        w.push(f64::NAN);
        w.push(4.0);
        assert_eq!(w.count, 2);
        assert_eq!(w.non_finite, 1);
        assert!((w.mean() - 3.0).abs() < 1e-12);

        // All-non-finite input leaves the accumulator empty, not poisoned.
        let acc = MinMaxAvg::from_samples([f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(acc.triple(), None);
        assert_eq!(acc.non_finite, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite sample")]
    fn non_finite_samples_panic_in_debug() {
        MinMaxAvg::new().push(f64::NAN);
    }

    #[test]
    fn welford_matches_direct_formulas() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((w.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_degenerate_counts() {
        let mut w = Welford::new();
        assert!(w.mean().is_nan());
        w.push(1.0);
        assert_eq!(w.mean(), 1.0);
        assert!(w.variance().is_nan());
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
        assert!(empty.is_empty());
        assert_eq!(empty.min(), None);
        assert_eq!(empty.peak(), None);
    }

    #[test]
    fn bounded_timeseries_keeps_memory_bounded_at_1m_points() {
        // Regression: an unbounded probe on a long run used to grow a
        // point per sample forever. One million pushes must stay under
        // the cap while preserving summaries of the retained subset.
        const N: u64 = 1_000_000;
        const CAP: usize = 1_024;
        let mut ts = Timeseries::bounded(CAP);
        for i in 0..N {
            ts.push(i * 10, (i % 97) as f64);
        }
        assert!(ts.len() <= CAP, "retained {} > cap {CAP}", ts.len());
        assert!(ts.len() >= CAP / 4, "over-decimated to {}", ts.len());
        assert_eq!(ts.pushed(), N);
        // The very first point always survives stride-doubling.
        assert_eq!(ts.points()[0], (0, 0.0));
        // Retained points stay in nondecreasing time order.
        assert!(ts.points().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn bounded_timeseries_decimation_is_push_order_deterministic() {
        let build = || {
            let mut ts = Timeseries::bounded(8);
            for i in 0..1_000u64 {
                ts.push(i, (i * 3 % 11) as f64);
            }
            ts
        };
        assert_eq!(build(), build());
        // Unbounded series are untouched by the policy.
        let mut ub = Timeseries::new();
        for i in 0..100u64 {
            ub.push(i, i as f64);
        }
        assert_eq!(ub.len(), 100);
        assert_eq!(ub.pushed(), 100);
        assert_eq!(ub.max_points(), 0);
    }

    #[test]
    fn bounded_timeseries_small_caps_are_clamped() {
        let mut ts = Timeseries::bounded(1);
        assert_eq!(ts.max_points(), 2);
        for i in 0..64u64 {
            ts.push(i, i as f64);
        }
        assert!(ts.len() <= 2);
        assert_eq!(ts.pushed(), 64);
    }

    proptest! {
        #[test]
        fn prop_bounded_timeseries_never_exceeds_cap(
            cap in 2usize..64,
            n in 0u64..5_000,
        ) {
            let mut ts = Timeseries::bounded(cap);
            for i in 0..n {
                ts.push(i, i as f64);
            }
            prop_assert!(ts.len() <= cap);
            prop_assert_eq!(ts.pushed(), n);
            prop_assert!(ts.points().windows(2).all(|w| w[0].0 <= w[1].0));
        }

        #[test]
        fn prop_minmaxavg_bounds(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let acc = MinMaxAvg::from_samples(samples.iter().copied());
            let avg = acc.avg();
            prop_assert!(acc.min <= avg + 1e-9 && avg <= acc.max + 1e-9);
            prop_assert_eq!(acc.count, samples.len());
        }

        #[test]
        fn prop_welford_mean_matches_sum(samples in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let mut w = Welford::new();
            for &s in &samples { w.push(s); }
            let direct = samples.iter().sum::<f64>() / samples.len() as f64;
            prop_assert!((w.mean() - direct).abs() < 1e-9);
        }
    }
}
