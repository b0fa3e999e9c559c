//! Mergeable log-linear histograms with bounded relative error.
//!
//! [`LogHistogram`] is the HDR-histogram idea specialized to the
//! simulator's `u64`-nanosecond latency domain: values below `2^p`
//! (the *precision* `p`, in bits) are counted exactly in unit-wide
//! buckets; above that, each power-of-two octave is split into `2^p`
//! equal sub-buckets. Recording is a few shifts and one increment,
//! never allocates, and the quantile read-out over-estimates by less
//! than a factor of `2^-p`.
//!
//! Histograms with equal precision **merge associatively and
//! commutatively** (bucket-wise `u64` sums), which is what lets the
//! simulator's shards accumulate latency locally and fold their
//! histograms in any order — the same contract `StatsCollector::absorb`
//! relies on for its scalar counters.
//!
//! The JSON rendering ([`LogHistogram::to_json`]) is sparse — only
//! non-empty buckets are rendered — so a full distribution travels in
//! `results/*.json` artifacts at a few hundred bytes.

use iba_core::Json;

/// Default precision: 5 sub-bucket bits, i.e. quantiles over-estimate
/// by less than 2⁻⁵ ≈ 3.2 %.
pub const DEFAULT_PRECISION: u32 = 5;

/// Largest supported precision (8 bits → 0.4 % error, ~14 600 buckets).
pub const MAX_PRECISION: u32 = 8;

/// A mergeable log-linear histogram over `u64` values (nanoseconds, in
/// this repository) with bounded relative quantile error. See the
/// module docs for the bucket layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    precision: u32,
    buckets: Vec<u64>,
    count: u64,
    /// Saturating sum of every recorded value (for the mean and the
    /// JSON rendering).
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram at [`DEFAULT_PRECISION`].
    pub fn new() -> LogHistogram {
        LogHistogram::with_precision(DEFAULT_PRECISION)
    }

    /// An empty histogram with `precision` sub-bucket bits (clamped to
    /// `0..=`[`MAX_PRECISION`]). Relative quantile error is below
    /// `2^-precision`.
    pub fn with_precision(precision: u32) -> LogHistogram {
        let p = precision.min(MAX_PRECISION);
        LogHistogram {
            precision: p,
            buckets: vec![0; Self::num_buckets(p)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Buckets a precision-`p` histogram carries: `2^p` exact unit
    /// buckets plus `2^p` sub-buckets for each of the `64 - p` octaves.
    fn num_buckets(p: u32) -> usize {
        (65 - p as usize) << p
    }

    #[inline]
    fn index(&self, v: u64) -> usize {
        let p = self.precision;
        if v < (1u64 << p) {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= p
        let sub = ((v >> (exp - p)) ^ (1u64 << p)) as usize;
        (((exp - p + 1) as usize) << p) | sub
    }

    /// Inclusive `[lower, upper]` value range of bucket `idx`.
    fn bucket_bounds(&self, idx: usize) -> (u64, u64) {
        let p = self.precision;
        if idx < (1usize << p) {
            return (idx as u64, idx as u64);
        }
        let block = (idx >> p) as u32; // >= 1
        let exp = block + p - 1;
        let sub = (idx & ((1 << p) - 1)) as u64;
        let width = 1u64 << (exp - p);
        let lo = ((1u64 << p) + sub) << (exp - p);
        (lo, lo.saturating_add(width - 1))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.index(value);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `q`-quantile (`0 < q <= 1`): the upper bound of the
    /// bucket holding the quantile rank, so the estimate `e` of a true
    /// sample `v` satisfies `v <= e < v * (1 + 2^-precision)` (exact
    /// below `2^precision`). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the exact maximum.
                return Some(self.bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge `other` into `self` (bucket-wise saturating sum).
    /// Associative and commutative; both histograms must share a
    /// precision (merging across precisions is a caller bug).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.precision, other.precision,
            "LogHistogram::merge across precisions"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact JSON rendering: precision, count, sum, exact extrema and
    /// the sparse `[[bucket_index, count], ...]` list.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("p", Json::from(self.precision)),
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
        ]);
        if self.count > 0 {
            o.push("min", Json::from(self.min));
            o.push("max", Json::from(self.max));
        }
        o.push(
            "buckets",
            Json::arr(
                self.buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| Json::arr([Json::from(i), Json::from(c)])),
            ),
        );
        o
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::with_precision(5);
        for v in [0u64, 1, 2, 17, 31] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        // Rank 1 of 5 at q=0.2 → the smallest sample, exactly.
        assert_eq!(h.quantile(0.2), Some(0));
        assert_eq!(h.quantile(1.0), Some(31));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.sum, 51);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LogHistogram::with_precision(5);
        h.record(1_000_003);
        let q = h.quantile(1.0).unwrap();
        assert!(q >= 1_000_003);
        assert!((q - 1_000_003) as f64 <= 1_000_003.0 / 32.0);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = LogHistogram::new();
        h.record(1_000);
        h.record(1_000_000);
        assert_eq!(h.quantile(1.0), Some(1_000_000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LogHistogram::with_precision(8);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
        assert_eq!(h.sum, u64::MAX); // saturated, not wrapped
    }

    #[test]
    fn precision_zero_is_one_bucket_per_octave() {
        // What the telemetry layer records arbitration waits into: 65
        // buckets, zero in its own, `[2^e, 2^(e+1) - 1]` above it.
        let mut h = LogHistogram::with_precision(0);
        for v in [0u64, 1, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let buckets: Vec<_> = (h.buckets.iter().enumerate())
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (h.bucket_bounds(i), c))
            .collect();
        assert_eq!(
            buckets,
            vec![
                ((0, 0), 1),
                ((1, 1), 1),
                ((2, 3), 1),
                ((512, 1023), 1),
                ((1 << 63, u64::MAX), 1)
            ]
        );
        assert_eq!(h.quantile(0.8), Some(1023));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn merge_requires_same_precision() {
        let mut a = LogHistogram::with_precision(4);
        let b = LogHistogram::with_precision(4);
        a.merge(&b); // fine
        let c = LogHistogram::with_precision(5);
        let r = std::panic::catch_unwind(move || {
            let mut a = a;
            a.merge(&c);
        });
        assert!(r.is_err());
    }

    #[test]
    fn json_is_sparse() {
        let mut h = LogHistogram::with_precision(2);
        assert_eq!(
            h.to_json().to_string_compact(),
            r#"{"p":2,"count":0,"sum":0,"buckets":[]}"#
        );
        for v in [1u64, 1, 300] {
            h.record(v);
        }
        // 300 = 0b1_0010_1100: octave 8, sub-bucket 0b00 → index 28.
        assert_eq!(
            h.to_json().to_string_compact(),
            r#"{"p":2,"count":3,"sum":302,"min":1,"max":300,"buckets":[[1,2],[28,1]]}"#
        );
    }

    #[test]
    fn bucket_bounds_are_contiguous() {
        for p in [0u32, 3, 5, 8] {
            let h = LogHistogram::with_precision(p);
            let mut expected_lo = 0u64;
            for i in 0..LogHistogram::num_buckets(p) {
                let (lo, hi) = h.bucket_bounds(i);
                assert_eq!(lo, expected_lo, "p={p} bucket {i}");
                assert!(hi >= lo);
                if hi == u64::MAX {
                    break;
                }
                expected_lo = hi + 1;
            }
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    proptest! {
        #[test]
        fn prop_index_roundtrips_into_bucket(v in 0u64..=u64::MAX, p in 0u32..=8) {
            let h = LogHistogram::with_precision(p);
            let idx = h.index(v);
            let (lo, hi) = h.bucket_bounds(idx);
            prop_assert!(lo <= v && v <= hi, "v={v} p={p} idx={idx} [{lo},{hi}]");
        }

        #[test]
        fn prop_quantile_within_documented_error(
            samples in proptest::collection::vec(0u64..1_000_000_000_000, 1..200),
            qs in proptest::collection::vec(1u64..=1000, 1..8),
            p in 0u32..=8,
        ) {
            let mut h = LogHistogram::with_precision(p);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &s in &samples { h.record(s); }
            for &qm in &qs {
                let q = qm as f64 / 1000.0;
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q).unwrap();
                prop_assert!(est >= exact, "q={q}: est {est} < exact {exact}");
                prop_assert!(
                    (est - exact) as f64 <= exact as f64 / (1u64 << p) as f64 + 1e-9,
                    "q={q}: est {est} vs exact {exact} breaks the 2^-{p} bound"
                );
            }
        }

        #[test]
        fn prop_merge_is_associative_and_commutative(
            xs in proptest::collection::vec(0u64..1_000_000_000, 0..50),
            ys in proptest::collection::vec(0u64..1_000_000_000, 0..50),
            zs in proptest::collection::vec(0u64..1_000_000_000, 0..50),
        ) {
            let build = |vals: &[u64]| {
                let mut h = LogHistogram::new();
                for &v in vals { h.record(v); }
                h
            };
            let (a, b, c) = (build(&xs), build(&ys), build(&zs));
            // (a + b) + c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a + (b + c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // a + b == b + a
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
        }
    }
}
