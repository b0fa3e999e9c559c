//! Destination distributions.
//!
//! A [`TrafficPattern`] is a pure description; `DestinationSampler`
//! binds it to a host population and a random stream. Patterns never
//! return the source itself as destination — self-addressed packets make
//! no sense for the paper's metrics — so deterministic permutations remap
//! their fixed points to the bit-complement of the source.

use iba_core::HostId;
use iba_engine::rng::{StreamKind, StreamRng};

/// A destination distribution over hosts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Uniform over all hosts except the source.
    Uniform,
    /// Bit-reversal permutation of the host index (the paper's second
    /// pattern; creates stable local congestion areas).
    BitReversal,
    /// A fraction of traffic goes to one randomly selected host, the rest
    /// is uniform (the paper uses 5, 10 and 20 %).
    HotSpot {
        /// Fraction of packets addressed to the hot-spot host, in `[0,1]`.
        fraction: f64,
    },
    /// Matrix-transpose permutation (swap high and low index halves).
    Transpose,
    /// Bit-complement permutation.
    Complement,
    /// A fixed random permutation of the hosts (fixed-point free).
    Permutation,
}

impl TrafficPattern {
    /// The paper's hot-spot configurations.
    pub fn hotspot_percent(percent: u32) -> TrafficPattern {
        TrafficPattern::HotSpot {
            fraction: percent as f64 / 100.0,
        }
    }

    /// Short machine-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            TrafficPattern::Uniform => "uniform".into(),
            TrafficPattern::BitReversal => "bit-reversal".into(),
            TrafficPattern::HotSpot { fraction } => {
                format!("hotspot-{:.0}%", fraction * 100.0)
            }
            TrafficPattern::Transpose => "transpose".into(),
            TrafficPattern::Complement => "complement".into(),
            TrafficPattern::Permutation => "permutation".into(),
        }
    }

    /// Inverse of [`Self::name`], also accepting `bitrev` and the
    /// `%`-less `hotspot-N`.
    pub fn from_name(name: &str) -> Option<TrafficPattern> {
        match name {
            "uniform" => Some(TrafficPattern::Uniform),
            "bit-reversal" | "bitrev" => Some(TrafficPattern::BitReversal),
            "transpose" => Some(TrafficPattern::Transpose),
            "complement" => Some(TrafficPattern::Complement),
            "permutation" => Some(TrafficPattern::Permutation),
            _ => name
                .strip_prefix("hotspot-")
                .and_then(|p| p.trim_end_matches('%').parse().ok())
                .map(TrafficPattern::hotspot_percent),
        }
    }
}

fn index_bits(num_hosts: usize) -> u32 {
    debug_assert!(num_hosts >= 2);
    usize::BITS - (num_hosts - 1).leading_zeros()
}

fn reverse_bits(v: usize, bits: u32) -> usize {
    (v.reverse_bits()) >> (usize::BITS - bits)
}

fn complement(v: usize, bits: u32) -> usize {
    !v & ((1usize << bits) - 1)
}

fn transpose(v: usize, bits: u32) -> usize {
    let half = bits / 2;
    let low_mask = (1usize << half) - 1;
    let low = v & low_mask;
    let high = v >> half;
    (low << (bits - half)) | high
}

/// A [`TrafficPattern`] bound to a host population and a random stream.
///
/// Deterministic permutations (bit-reversal, transpose, complement) are
/// applied to the *switch* part of the host index when `group_size > 1`:
/// hosts are numbered consecutively per switch (`group_size` per switch),
/// and host `g·s + j` sends to host `g·perm(s) + j`. This is the
/// congestion-bearing interpretation of the paper's bit-reversal pattern
/// ("creates some local congestion areas"): all `g` hosts of a switch
/// address the same remote switch, so the deterministic path between the
/// pair concentrates `g` flows. With `group_size = 1` the permutations
/// act on the raw host index (which spreads demand almost perfectly and
/// exercises no congestion).
#[derive(Clone, Debug)]
pub(crate) struct DestinationSampler {
    pattern: TrafficPattern,
    num_hosts: usize,
    /// Hosts per switch for group-wise permutations (≥ 1).
    group: usize,
    /// Bits of the permuted index (switch index when `group > 1`).
    bits: u32,
    /// The selected hot-spot host (hot-spot pattern only).
    hotspot: Option<HostId>,
    /// Precomputed permutation (permutation pattern only).
    perm: Option<Vec<u16>>,
    rng: StreamRng,
}

impl DestinationSampler {
    /// Bind `pattern` with `group_size` hosts per switch: deterministic
    /// permutations act on the switch index, preserving the within-switch
    /// offset. Random choices (hot-spot host, permutation) come from the
    /// `Traffic` substream of `seed_rng`, so they are shared by all hosts
    /// of one simulation.
    pub(crate) fn with_groups(
        pattern: TrafficPattern,
        num_hosts: usize,
        group_size: usize,
        seed_rng: &StreamRng,
    ) -> Self {
        assert!(num_hosts >= 2, "need at least two hosts");
        // Group-wise permutation requires a uniform division into groups
        // of at least 2; fall back to raw-index permutations otherwise.
        let group = if group_size >= 1
            && num_hosts.is_multiple_of(group_size)
            && num_hosts / group_size >= 2
        {
            group_size
        } else {
            1
        };
        let mut rng = seed_rng.derive(StreamKind::Traffic);
        let hotspot = match pattern {
            TrafficPattern::HotSpot { .. } => Some(HostId(rng.below(num_hosts) as u16)),
            _ => None,
        };
        let perm = match pattern {
            TrafficPattern::Permutation => {
                let units = (num_hosts / group) as u16;
                let mut p: Vec<u16> = (0..units).collect();
                rng.shuffle(&mut p);
                // Break fixed points by swapping with a neighbor.
                for i in 0..p.len() {
                    if p[i] as usize == i {
                        let j = (i + 1) % p.len();
                        p.swap(i, j);
                    }
                }
                Some(p)
            }
            _ => None,
        };
        DestinationSampler {
            pattern,
            num_hosts,
            group,
            bits: index_bits(num_hosts / group),
            hotspot,
            perm,
            rng,
        }
    }

    /// Replace the draw stream, keeping the pattern-level choices
    /// (hot-spot host, permutation). Used to give each host an
    /// independent stream while all hosts share the same hot spot.
    pub(crate) fn with_draw_stream(mut self, rng: StreamRng) -> Self {
        self.rng = rng;
        self
    }

    fn uniform_excluding(&mut self, src: HostId) -> HostId {
        // Draw from n−1 candidates and skip over the source.
        let r = self.rng.below(self.num_hosts - 1);
        let dst = if r >= src.index() { r + 1 } else { r };
        HostId(dst as u16)
    }

    /// Apply a permutation of the (possibly switch-level) index to `src`,
    /// remapping fixed points and out-of-range results.
    fn apply_perm(&self, src: HostId, perm: impl Fn(usize, u32) -> usize) -> HostId {
        let (unit, offset) = (src.index() / self.group, src.index() % self.group);
        let units = self.num_hosts / self.group;
        let mut dst = perm(unit, self.bits);
        if dst >= units || dst == unit {
            // Out-of-range (non-power-of-two populations) or fixed point:
            // fall back to the bit-complement, which never equals the
            // source unit before the fold, and step off it if the modulo
            // folds back.
            dst = complement(unit, self.bits) % units;
            if dst == unit {
                dst = (dst + 1) % units;
            }
        }
        HostId((dst * self.group + offset) as u16)
    }

    /// Draw the destination for a packet generated by `src`.
    pub(crate) fn sample(&mut self, src: HostId) -> HostId {
        match self.pattern {
            TrafficPattern::Uniform => self.uniform_excluding(src),
            TrafficPattern::BitReversal => self.apply_perm(src, reverse_bits),
            TrafficPattern::HotSpot { fraction } => {
                let hs = self.hotspot.expect("hotspot chosen at construction");
                if src != hs && self.rng.chance(fraction) {
                    hs
                } else {
                    self.uniform_excluding(src)
                }
            }
            TrafficPattern::Transpose => self.apply_perm(src, transpose),
            TrafficPattern::Complement => self.apply_perm(src, complement),
            TrafficPattern::Permutation => {
                let perm = self.perm.clone().expect("permutation precomputed");
                self.apply_perm(src, move |unit, _| perm[unit] as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sampler(pattern: TrafficPattern, hosts: usize, seed: u64) -> DestinationSampler {
        DestinationSampler::with_groups(pattern, hosts, 1, &StreamRng::from_seed(seed))
    }

    #[test]
    fn uniform_never_self_and_covers_all() {
        let mut s = sampler(TrafficPattern::Uniform, 8, 1);
        let mut seen = [0usize; 8];
        for _ in 0..8000 {
            let d = s.sample(HostId(3));
            assert_ne!(d, HostId(3));
            seen[d.index()] += 1;
        }
        assert_eq!(seen[3], 0);
        for (i, &c) in seen.iter().enumerate() {
            if i != 3 {
                assert!(c > 800, "host {i} undersampled: {c}");
            }
        }
    }

    #[test]
    fn bit_reversal_is_the_expected_permutation() {
        let mut s = sampler(TrafficPattern::BitReversal, 16, 2);
        // 16 hosts → 4 bits: 0b0001 → 0b1000.
        assert_eq!(s.sample(HostId(1)), HostId(8));
        assert_eq!(s.sample(HostId(3)), HostId(12));
        // Palindrome 0b0110 → itself → remapped to complement 0b1001.
        assert_eq!(s.sample(HostId(6)), HostId(9));
    }

    #[test]
    fn bit_reversal_is_deterministic() {
        let mut a = sampler(TrafficPattern::BitReversal, 256, 3);
        let mut b = sampler(TrafficPattern::BitReversal, 256, 99);
        for h in 0..256u16 {
            // Pattern is a fixed permutation: independent of the seed.
            assert_eq!(a.sample(HostId(h)), b.sample(HostId(h)));
        }
    }

    #[test]
    fn hotspot_receives_the_configured_fraction() {
        let mut s = sampler(TrafficPattern::hotspot_percent(20), 32, 4);
        let hs = s.hotspot.unwrap();
        let mut to_hs = 0;
        let n = 20_000;
        for i in 0..n {
            let src = HostId((i % 32) as u16);
            if src == hs {
                continue;
            }
            if s.sample(src) == hs {
                to_hs += 1;
            }
        }
        // ~20 % plus the uniform share (1/31) of the remaining 80 %.
        let expected = 0.20 + 0.80 / 31.0;
        let got = to_hs as f64 / (n as f64 * 31.0 / 32.0);
        assert!(
            (got - expected).abs() < 0.02,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn hotspot_host_does_not_send_to_itself() {
        let mut s = sampler(TrafficPattern::hotspot_percent(50), 8, 5);
        let hs = s.hotspot.unwrap();
        for _ in 0..1000 {
            assert_ne!(s.sample(hs), hs);
        }
    }

    #[test]
    fn complement_and_transpose_are_fixed_permutations() {
        let mut s = sampler(TrafficPattern::Complement, 16, 6);
        assert_eq!(s.sample(HostId(0)), HostId(15));
        assert_eq!(s.sample(HostId(5)), HostId(10));
        let mut t = sampler(TrafficPattern::Transpose, 16, 6);
        // 4 bits, halves of 2: 0b0111 → 0b1101.
        assert_eq!(t.sample(HostId(0b0111)), HostId(0b1101));
    }

    #[test]
    fn permutation_is_fixed_point_free_and_seed_dependent() {
        let mut a = sampler(TrafficPattern::Permutation, 64, 7);
        let mut b = sampler(TrafficPattern::Permutation, 64, 8);
        let mut differs = false;
        for h in 0..64u16 {
            let da = a.sample(HostId(h));
            assert_ne!(da, HostId(h));
            // Permutation is stable across draws.
            assert_eq!(a.sample(HostId(h)), da);
            if b.sample(HostId(h)) != da {
                differs = true;
            }
        }
        assert!(differs);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TrafficPattern::Uniform.name(), "uniform");
        assert_eq!(TrafficPattern::hotspot_percent(10).name(), "hotspot-10%");
        assert_eq!(TrafficPattern::BitReversal.name(), "bit-reversal");
    }

    #[test]
    fn from_name_inverts_name() {
        let hotspots = (0..=100).map(TrafficPattern::hotspot_percent);
        for p in [
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            TrafficPattern::Transpose,
            TrafficPattern::Complement,
            TrafficPattern::Permutation,
        ]
        .into_iter()
        .chain(hotspots)
        {
            assert_eq!(
                TrafficPattern::from_name(&p.name()),
                Some(p),
                "{}",
                p.name()
            );
        }
        assert_eq!(
            TrafficPattern::from_name("hotspot-10"),
            Some(TrafficPattern::hotspot_percent(10))
        );
        assert_eq!(
            TrafficPattern::from_name("bitrev"),
            Some(TrafficPattern::BitReversal)
        );
        assert_eq!(TrafficPattern::from_name("hotspot-x"), None);
        assert_eq!(TrafficPattern::from_name("zipf"), None);
    }

    proptest! {
        /// No pattern ever samples the source itself, for any population
        /// size (including non-powers of two) and any source.
        #[test]
        fn prop_never_self(hosts in 2usize..300, src_frac in 0.0f64..1.0, pat in 0usize..6, seed in any::<u64>()) {
            let pattern = [
                TrafficPattern::Uniform,
                TrafficPattern::BitReversal,
                TrafficPattern::hotspot_percent(10),
                TrafficPattern::Transpose,
                TrafficPattern::Complement,
                TrafficPattern::Permutation,
            ][pat];
            let src = HostId(((src_frac * hosts as f64) as usize).min(hosts - 1) as u16);
            let mut s = sampler(pattern, hosts, seed);
            for _ in 0..20 {
                let d = s.sample(src);
                prop_assert!(d.index() < hosts);
                prop_assert_ne!(d, src);
            }
        }
    }
}
