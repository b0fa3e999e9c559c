//! Reproducible random-number streams.
//!
//! Every random decision in the workspace — topology wiring, traffic
//! destinations, inter-arrival times, adaptive-marking coin flips — comes
//! from a [`StreamRng`] derived from a single experiment seed. Substreams
//! are derived with a SplitMix64 finalizer over `(seed, label)`, which
//! gives statistically independent streams without any coordination, so
//! e.g. changing the number of hosts does not perturb the topology stream.
//!
//! Only the sanctioned `rand` crate is used; the exponential distribution
//! needed for Poisson injection is implemented here by inverse transform.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 finalizer — the standard 64-bit avalanche mix.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Well-known substream labels, so call sites cannot collide by accident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Topology generation.
    Topology,
    /// Routing-table option balancing.
    Routing,
    /// Traffic destination selection.
    Traffic,
    /// Packet inter-arrival times.
    Arrival,
    /// Adaptive/deterministic per-packet marking.
    Marking,
    /// Switch-internal tie-breaking.
    Arbiter,
    /// Free-form label for tests and tools.
    Custom(u64),
}

impl StreamKind {
    fn label(self) -> u64 {
        match self {
            StreamKind::Topology => 1,
            StreamKind::Routing => 2,
            StreamKind::Traffic => 3,
            StreamKind::Arrival => 4,
            StreamKind::Marking => 5,
            StreamKind::Arbiter => 6,
            StreamKind::Custom(v) => 0x1000_0000_0000_0000 ^ v,
        }
    }
}

/// A seeded random stream.
///
/// Wraps `SmallRng` (fast, non-cryptographic — appropriate for
/// simulation) and adds the derivations and distributions the workspace
/// needs.
#[derive(Clone, Debug)]
pub struct StreamRng {
    rng: SmallRng,
    seed: u64,
}

impl StreamRng {
    /// Root stream for an experiment seed.
    pub fn from_seed(seed: u64) -> StreamRng {
        StreamRng {
            rng: SmallRng::seed_from_u64(splitmix64(seed)),
            seed,
        }
    }

    /// Derive the substream for `kind`. Independent of any draws made on
    /// `self` — derivation only reads the original seed.
    pub fn derive(&self, kind: StreamKind) -> StreamRng {
        self.derive_indexed(kind, 0)
    }

    /// Derive the `index`-th substream for `kind` (e.g. one arrival stream
    /// per host).
    pub fn derive_indexed(&self, kind: StreamKind, index: u64) -> StreamRng {
        let mixed = splitmix64(
            self.seed
                ^ splitmix64(kind.label())
                ^ splitmix64(index.wrapping_mul(0xA24B_AED4_963E_E407)),
        );
        StreamRng {
            rng: SmallRng::seed_from_u64(mixed),
            seed: mixed,
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub(crate) fn unit(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed value with the given mean, by inverse
    /// transform. Used for Poisson inter-arrival times.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - unit() is in (0, 1], so ln() is finite and non-positive.
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Choose one element uniformly; `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.below(slice.len());
            Some(&slice[i])
        }
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StreamRng::from_seed(42);
        let mut b = StreamRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StreamRng::from_seed(1);
        let mut b = StreamRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derivation_is_independent_of_draws() {
        let root = StreamRng::from_seed(7);
        let d1 = root.derive(StreamKind::Traffic);
        let mut consumed = StreamRng::from_seed(7);
        let _ = consumed.next_u64();
        let d2 = consumed.derive(StreamKind::Traffic);
        let (mut d1, mut d2) = (d1, d2);
        for _ in 0..10 {
            assert_eq!(d1.next_u64(), d2.next_u64());
        }
    }

    #[test]
    fn substreams_differ_by_kind_and_index() {
        let root = StreamRng::from_seed(7);
        let mut a = root.derive(StreamKind::Traffic);
        let mut b = root.derive(StreamKind::Arrival);
        let mut c = root.derive_indexed(StreamKind::Arrival, 1);
        let va = a.next_u64();
        assert_ne!(va, b.next_u64());
        assert_ne!(va, c.next_u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut r = StreamRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = StreamRng::from_seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = StreamRng::from_seed(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        // 4σ band around the binomial mean 2500 (σ ≈ 43).
        assert!((2300..2700).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = StreamRng::from_seed(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exponential(100.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 3.0, "mean = {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = StreamRng::from_seed(5);
        for _ in 0..10_000 {
            assert!(r.exponential(1.0) >= 0.0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StreamRng::from_seed(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn choose_handles_empty_and_uniformity() {
        let mut r = StreamRng::from_seed(13);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let opts = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[*r.choose(&opts).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((1700..2300).contains(&c), "counts = {counts:?}");
        }
    }
}
