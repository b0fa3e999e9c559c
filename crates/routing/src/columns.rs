//! Destination-major column stores.
//!
//! Every per-destination layer — the escape engines' next hops, the
//! up\*/down\* distance relaxations, the minimal option sets — is one
//! flat array indexed `[t · n + s]`: the column of destination switch
//! `t` is contiguous, so a sweep over a block of destinations fills one
//! contiguous chunk of every store in place, and a clone is one copy
//! per layer instead of one per cell. Blocks are independent, so a
//! build shares them out over [`iba_core::par`].

use iba_core::{PortIndex, SwitchId};

/// The least `(switch, destination)` cells one pool item covers: an
/// item must outweigh the thread wake-up it may cost (≈ 0.2 ms on the
/// reference host, against ≈ 0.2 ms of word-parallel sweep per layer
/// for *all* the columns of 128 switches), so a fabric of up to 128
/// switches is a single item and its build starts no thread. A layer
/// sweep's item is whole 64-destination words ([`words_per_item`]).
/// DESIGN.md §5 has the measurements, and the 64- and 16-switch
/// regressions of a split by count.
const ITEM_CELLS: usize = 16_384;

/// Columns (or, for the table compiler, switch rows) of `cells` cells
/// each that make up one pool item.
pub(crate) fn per_item(cells: usize) -> usize {
    ITEM_CELLS.div_ceil(cells.max(1))
}

/// Destinations one word of a layer sweep carries: bit `j` of a
/// switch's word stands for the `j`-th destination of its block.
pub(crate) const WORD: usize = u64::BITS as usize;

/// Words of destinations — blocks of [`WORD`] columns — that make up
/// one pool item of a layer sweep: [`per_item`]'s columns rounded up to
/// whole words, so 128 switches are still one item, 256 are four.
pub(crate) fn words_per_item(n: usize) -> usize {
    per_item(n).div_ceil(WORD)
}

/// The set bits of `word`, ascending.
#[inline]
pub(crate) fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// "No next hop" (the diagonal); no port of a ≤ 255-port switch.
pub(crate) const NO_HOP: u8 = 0xFF;

/// One deterministic next-hop port per `(switch, destination switch)`,
/// the store all three escape engines answer `next_hop` from.
#[derive(Clone, Debug)]
pub(crate) struct HopColumns {
    n: usize,
    ports: Vec<u8>,
}

impl HopColumns {
    pub(crate) fn new(n: usize) -> HopColumns {
        HopColumns {
            n,
            ports: vec![NO_HOP; n * n],
        }
    }

    /// The port `s` forwards on towards `t`; `None` on the diagonal.
    #[inline]
    pub(crate) fn get(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
        let port = self.ports[t.index() * self.n + s.index()];
        (port != NO_HOP).then_some(PortIndex(port))
    }

    pub(crate) fn set(&mut self, s: SwitchId, t: SwitchId, port: PortIndex) {
        self.ports[t.index() * self.n + s.index()] = port.0;
    }

    /// The columns in blocks of `columns`, destination 0 first, for a
    /// sweep to write in place.
    pub(crate) fn columns_mut(&mut self, columns: usize) -> std::slice::ChunksMut<'_, u8> {
        self.ports.chunks_mut(columns * self.n)
    }
}

/// The shapes the flat builds are held to their nested-`Vec`
/// references on: every [`iba_topology::TopologySpec`] variant, with a
/// full mesh whose link ports pass bit 63 of an option mask.
#[cfg(test)]
pub(crate) fn reference_specs() -> [iba_topology::TopologySpec; 9] {
    use iba_topology::TopologySpec::*;
    let hosts_per_switch = 2;
    [
        Irregular {
            switches: 16,
            inter_switch_links: 4,
            hosts_per_switch,
        },
        Irregular {
            switches: 33,
            inter_switch_links: 6,
            hosts_per_switch,
        },
        Ring {
            switches: 7,
            hosts_per_switch,
        },
        Chain {
            switches: 5,
            hosts_per_switch,
        },
        Mesh2D {
            rows: 3,
            cols: 5,
            hosts_per_switch,
        },
        Torus2D {
            rows: 4,
            cols: 5,
            hosts_per_switch,
        },
        Hypercube {
            dim: 4,
            hosts_per_switch,
        },
        FullMesh {
            switches: 66,
            hosts_per_switch: 1,
        },
        Dragonfly {
            groups: 5,
            switches_per_group: 4,
            global_links_per_switch: 1,
            hosts_per_switch,
        },
    ]
}

/// The fabrics the word-parallel layer sweeps are held to their
/// per-destination oracles on: every reference shape, then paper
/// fabrics whose sizes straddle a word (63–65) and an item (127–129,
/// 256).
#[cfg(test)]
pub(crate) fn sweep_cases(seed: u64) -> Vec<iba_topology::Topology> {
    let paper = |n| iba_topology::IrregularConfig::paper(n, seed).generate();
    (reference_specs()
        .map(|spec| spec.generate(seed))
        .into_iter())
    .chain([63, 64, 65, 127, 128, 129, 256].map(paper))
    .collect::<Result<_, _>>()
    .expect("every case generates")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk rule of every routing build: a fabric of up to 128
    /// switches is one item — no thread — and beyond that an item stays
    /// at 16 384 cells whatever the host's core count.
    #[test]
    fn an_item_is_at_least_sixteen_thousand_cells() {
        let items = |n: usize| n.div_ceil(per_item(n));
        assert_eq!(
            [8, 16, 64, 128].map(items),
            [1; 4],
            "small fabrics start no thread"
        );
        assert_eq!(items(129), 2);
        assert_eq!(items(256), 4);
        assert_eq!(items(300), 6);
        assert_eq!(300 % per_item(300), 25, "with a short last item");
        assert_eq!(items(1024), 64);
        for n in [1usize, 7, 128, 300, 1024, 65_535] {
            assert!(per_item(n) * n >= ITEM_CELLS, "{n} switches");
        }
    }

    /// A layer sweep's item is whole words: still one item up to 128
    /// switches, then one word each from 256 switches on.
    #[test]
    fn a_sweep_item_is_whole_words() {
        let items = |n: usize| n.div_ceil(WORD).div_ceil(words_per_item(n));
        assert_eq!([8, 16, 64, 65, 128].map(items), [1; 5]);
        assert_eq!([129, 256, 300, 1024].map(items), [2, 4, 5, 16]);
        assert_eq!(ones(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(ones(1 << 63).collect::<Vec<_>>(), [63]);
    }

    #[test]
    fn hop_columns_are_destination_major() {
        let mut hops = HopColumns::new(3);
        hops.set(SwitchId(2), SwitchId(1), PortIndex(7));
        assert_eq!(hops.get(SwitchId(2), SwitchId(1)), Some(PortIndex(7)));
        assert_eq!(hops.get(SwitchId(1), SwitchId(2)), None);
        let columns: Vec<&mut [u8]> = hops.columns_mut(1).collect();
        assert_eq!(columns[1], [NO_HOP, NO_HOP, 7]);
    }
}
