//! Reproducible random-number streams.
//!
//! Every random decision in the workspace — topology wiring, traffic
//! destinations, inter-arrival times, adaptive-marking coin flips — comes
//! from a [`StreamRng`] derived from a single experiment seed. Substreams
//! are derived with a SplitMix64 finalizer over `(seed, label)`, which
//! gives statistically independent streams without any coordination, so
//! e.g. changing the number of hosts does not perturb the topology stream.
//!
//! The generator is written out here rather than taken from a crate:
//! xoshiro256++ seeded by SplitMix64, Lemire's unbiased multiply-shift
//! for integer ranges and the 53-bit mantissa construction for `[0, 1)`.
//! The exponential distribution needed for Poisson injection is drawn by
//! inverse transform. Every simulated result and golden digest rests on
//! these exact streams.

/// The SplitMix64 increment (2⁶⁴ / φ).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer — the standard 64-bit avalanche mix.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
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

/// A seeded random stream: xoshiro256++ (fast, non-cryptographic —
/// appropriate for simulation) plus the derivations and distributions
/// the workspace needs.
#[derive(Clone, Debug)]
pub struct StreamRng {
    /// The xoshiro256++ state.
    s: [u64; 4],
    seed: u64,
}

impl StreamRng {
    /// The stream whose state is four consecutive SplitMix64 outputs
    /// from `state`. SplitMix64 is a bijection of distinct inputs, so at
    /// most one word is zero and the state is never the all-zero fixed
    /// point.
    fn seeded(state: u64, seed: u64) -> StreamRng {
        let s = [0u64, 1, 2, 3].map(|i| splitmix64(state.wrapping_add(i.wrapping_mul(GOLDEN))));
        StreamRng { s, seed }
    }

    /// Root stream for an experiment seed.
    pub fn from_seed(seed: u64) -> StreamRng {
        StreamRng::seeded(splitmix64(seed), seed)
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
        StreamRng::seeded(mixed, mixed)
    }

    /// The next 64 bits of xoshiro256++.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`, unbiased by Lemire's multiply-shift
    /// rejection. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to draw");
        let n = n as u64;
        let mut m = self.next_u64() as u128 * n as u128;
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = self.next_u64() as u128 * n as u128;
            }
        }
        (m >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// What a stream family shows of its generator: the first draw of
    /// the root, of every `StreamKind` and of an indexed substream; a
    /// fold of the root's next 64 draws; then `below` at 1, 3, 255 and
    /// 2³³ + 1, `unit` and `exponential` as bits.
    fn observe(seed: u64) -> Vec<u64> {
        let root = StreamRng::from_seed(seed);
        let mut streams = vec![root.clone()];
        for kind in [
            StreamKind::Topology,
            StreamKind::Routing,
            StreamKind::Traffic,
            StreamKind::Arrival,
            StreamKind::Marking,
            StreamKind::Arbiter,
            StreamKind::Custom(0x4D49_5845),
        ] {
            streams.push(root.derive(kind));
        }
        streams.push(root.derive_indexed(StreamKind::Arrival, 7));
        let mut out: Vec<u64> = streams.iter_mut().map(|s| s.next_u64()).collect();
        let mut r = root.clone();
        out.push((0..64).fold(0u64, |h, _| h.rotate_left(5) ^ r.next_u64()));
        for n in [1usize, 3, 255, (1 << 33) + 1] {
            out.push(r.below(n) as u64);
        }
        out.push(r.unit().to_bits());
        out.push(r.exponential(100.0).to_bits());
        out
    }

    /// The streams every golden digest rests on, pinned value by value:
    /// a changed rotation, seeding step or range method fails here
    /// before it fails a golden.
    #[test]
    fn streams_are_pinned() {
        let pinned: [(u64, [u64; 16]); 3] = [
            (
                0,
                [
                    0x84f09bf307c1073a,
                    0xe36e2e5a9a835e79,
                    0xbec85473abcbb05d,
                    0xc90e041e88ed900a,
                    0xcfefec6bd9d139da,
                    0x5c181f9997706284,
                    0x8acdd3dc81e7775b,
                    0x5e328969b183021d,
                    0x2e279676d60d7cdc,
                    0xcd172b5981ba4af1,
                    0,
                    2,
                    0x45,
                    0x1c8d77e98,
                    0x3fea094c6e342c56,
                    0x405a8d0a444e64ce,
                ],
            ),
            (
                1,
                [
                    0x704560ced7cc0501,
                    0x6c838e34555dc48b,
                    0x250ed418de76375e,
                    0xa9a2713504fea9c3,
                    0xa1e5573760c1bdad,
                    0x4591c3cf04ef3cdf,
                    0x7b6ac3084286b324,
                    0x74f123f70da56064,
                    0x8c471173d86ef525,
                    0xbc48ae52a6b06df7,
                    0,
                    0,
                    0x32,
                    0x991f62f0,
                    0x3fe084b64aed3e5d,
                    0x405f82f418292646,
                ],
            ),
            (
                u64::MAX,
                [
                    0x1beed10d2847f8eb,
                    0xcc40a3a3c1255524,
                    0xf7ef8db09fae95bb,
                    0xcbdc5ccd2ab85a83,
                    0xa6a9360fdd10695f,
                    0x71a43d4b8f1605bd,
                    0x892d5c9728ae948d,
                    0xf2461d0cacd758ec,
                    0x2ee18d0d85ec339e,
                    0xa696fff42cebb3cc,
                    0,
                    0,
                    1,
                    0x1ee9e5245,
                    0x3fea1eadefbc49c7,
                    0x4068c16536be6757,
                ],
            ),
        ];
        for (seed, want) in pinned {
            assert_eq!(observe(seed), want, "seed {seed:#x}");
        }
    }

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
