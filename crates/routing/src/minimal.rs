//! Minimal-path routing options.
//!
//! The adaptive options of the FA algorithm (§3) are *minimal*: at each
//! switch, any output port that lies on a shortest path to the
//! destination's switch is a valid adaptive choice. This module computes,
//! for every `(switch, destination switch)` pair, the full set of such
//! ports — the raw material both for the forwarding tables (`fa`) and for
//! the Table 2 analysis (`analysis`).

use crate::columns::{ones, words_per_item, WORD};
use iba_core::{par_chunks_mut, IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// A set of ports of one switch, as a bit per port index — what a
/// minimal-option cell *is*: iteration is ascending by port, membership
/// is a shift.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PortMask(u128);

const MASK_PORTS: usize = u128::BITS as usize;
const _: () = assert!(iba_core::MAX_PORTS <= MASK_PORTS);

impl PortMask {
    /// Number of ports in the set.
    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `port` is in the set.
    pub(crate) fn contains(self, port: PortIndex) -> bool {
        port.index() < MASK_PORTS && self.0 >> port.0 & 1 == 1
    }

    /// The ports, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = PortIndex> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let port = rest.trailing_zeros() as u8;
                rest &= rest - 1;
                PortIndex(port)
            })
        })
    }
}

/// All minimal next-hop ports for every (switch, destination-switch)
/// pair, in two destination-major stores (`crate::columns`).
#[derive(Clone, Debug)]
pub struct MinimalRouting {
    n: usize,
    /// `dist[t · n + s]`: unconstrained shortest distance.
    dist: Vec<u32>,
    /// `options[t · n + s]`: ports of `s` on shortest paths to `t`.
    /// Empty for `s == t`.
    options: Vec<u128>,
    /// The switch of minimum eccentricity, the lowest id among equals.
    center: SwitchId,
}

impl MinimalRouting {
    /// Compute minimal options for `topo`.
    pub fn build(topo: &Topology) -> Result<MinimalRouting, IbaError> {
        let n = topo.num_switches();
        let ports = topo.ports_per_switch() as usize;
        if ports > MASK_PORTS {
            return Err(IbaError::InvalidConfig(format!(
                "switch radix {ports} exceeds the {MASK_PORTS} ports an option mask holds"
            )));
        }
        Self::sweep(n, |s| topo.switch_neighbors(s))
    }

    /// Sweep the switch graph `links` lists every switch's
    /// `(port, peer, peer's port)` links of: every block of [`WORD`]
    /// destinations, then the center from the eccentricities the
    /// sweeps meet. Refused when some switch cannot reach another.
    fn sweep<L>(n: usize, links: impl Fn(SwitchId) -> L + Sync) -> Result<MinimalRouting, IbaError>
    where
        L: Iterator<Item = (PortIndex, SwitchId, PortIndex)>,
    {
        let mut minimal = MinimalRouting {
            n,
            // Zeroed pages cost nothing; the sweeps write every cell.
            dist: vec![0; n * n],
            options: vec![0; n * n],
            center: SwitchId(0),
        };
        let mut blocks: Vec<_> = (minimal.dist.chunks_mut(WORD * n))
            .zip(minimal.options.chunks_mut(WORD * n))
            .enumerate()
            .collect();
        let items = par_chunks_mut(&mut blocks, words_per_item(n), |blocks| {
            let mut sweep = Sweep::new(n);
            let mut blocks = blocks.iter_mut();
            let swept =
                blocks.all(|(b, (dist, options))| sweep.run(&links, *b * WORD, dist, options));
            swept.then_some(sweep.eccentricity)
        });
        let Some(items) = items.into_iter().collect::<Option<Vec<_>>>() else {
            return Err(IbaError::RoutingFailed("topology disconnected".into()));
        };
        let eccentricity = |s: &usize| items.iter().map(|ecc| ecc[*s]).max();
        // Of equal minima `min_by_key` returns the first.
        minimal.center = SwitchId((0..n).min_by_key(eccentricity).unwrap_or(0) as u16);
        Ok(minimal)
    }

    /// Shortest distance between two switches, in hops.
    #[inline]
    pub(crate) fn distance(&self, s: SwitchId, t: SwitchId) -> u32 {
        self.dist[t.index() * self.n + s.index()]
    }

    /// Minimal next-hop ports of `s` towards `t`. Empty iff `s == t`.
    #[inline]
    pub(crate) fn options(&self, s: SwitchId, t: SwitchId) -> PortMask {
        PortMask(self.options[t.index() * self.n + s.index()])
    }

    /// The switch of minimum eccentricity, the lowest id among equals:
    /// the up\*/down\* root rule ([`crate::UpDownRouting::build`]),
    /// met while sweeping — the graph is undirected, so a switch's
    /// eccentricity is the last level at which its reached set grew.
    pub(crate) fn center(&self) -> SwitchId {
        self.center
    }
}

/// A word-parallel breadth-first sweep over the switch graph: each
/// switch holds, as one word, the destinations of a block it has
/// reached, and level `d` is one pass over the links. Reused across
/// the blocks of one pool item.
struct Sweep {
    reached: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Per switch, its distance to the farthest destination of the
    /// blocks swept so far.
    eccentricity: Vec<u32>,
}

impl Sweep {
    fn new(n: usize) -> Sweep {
        Sweep {
            reached: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            eccentricity: vec![0; n],
        }
    }

    /// Fill the columns of destinations `first..` — `dist.len() / n`
    /// of them, at most a word — in both stores. The frontier of level
    /// `d` at `s` is what its neighbors' level-`d − 1` frontiers bring
    /// that `s` has not reached, and what one link brings is exactly
    /// the destinations that link's port is a minimal option towards.
    /// `false` when some switch does not reach every destination.
    fn run<L>(
        &mut self,
        links: &impl Fn(SwitchId) -> L,
        first: usize,
        dist: &mut [u32],
        options: &mut [u128],
    ) -> bool
    where
        L: Iterator<Item = (PortIndex, SwitchId, PortIndex)>,
    {
        let n = self.reached.len();
        let columns = dist.len() / n;
        self.frontier.fill(0);
        for j in 0..columns {
            self.frontier[first + j] = 1 << j;
            dist[j * n + first + j] = 0;
        }
        self.reached.copy_from_slice(&self.frontier);
        for d in 1.. {
            let mut grew = false;
            for (s, next) in self.next.iter_mut().enumerate() {
                let unreached = !self.reached[s];
                let mut row = 0;
                for (port, peer, _) in links(SwitchId(s as u16)) {
                    let brought = self.frontier[peer.index()] & unreached;
                    row |= brought;
                    for j in ones(brought) {
                        options[j * n + s] |= 1 << port.0;
                    }
                }
                *next = row;
                if row != 0 {
                    grew = true;
                    self.reached[s] |= row;
                    self.eccentricity[s] = self.eccentricity[s].max(d);
                    for j in ones(row) {
                        dist[j * n + s] = d;
                    }
                }
            }
            if !grew {
                break;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        let all = u64::MAX >> (WORD - columns);
        self.reached.iter().all(|&reached| reached == all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::{reference_specs, sweep_cases};
    use crate::updown::UpDownRouting;
    use iba_topology::{regular, IrregularConfig};
    use proptest::prelude::*;

    /// Unreachable marker of the oracle's BFS.
    const INF: u32 = u32::MAX;

    impl MinimalRouting {
        /// The per-destination build the word-parallel sweep replaced,
        /// kept as its oracle: one BFS per destination column, then the
        /// center scanned off all n² distances.
        fn oracle(topo: &Topology) -> MinimalRouting {
            let n = topo.num_switches();
            let (mut dist, mut options) = (vec![0; n * n], vec![0; n * n]);
            let mut queue = Vec::with_capacity(n);
            let columns = dist.chunks_mut(n).zip(options.chunks_mut(n));
            for (t, (dist, options)) in columns.enumerate() {
                assert!(fill_column(topo, t, dist, options, &mut queue));
            }
            let eccentricity = |t: &usize| dist[t * n..][..n].iter().max().copied();
            let center = SwitchId((0..n).min_by_key(eccentricity).unwrap_or(0) as u16);
            MinimalRouting {
                n,
                dist,
                options,
                center,
            }
        }
    }

    /// One BFS from destination `t` over the (undirected) switch graph
    /// fills both of its columns: a neighbor `peer` one hop farther than
    /// `cur` has its port back to `cur` on a shortest path. `false` when
    /// the BFS does not reach every switch.
    fn fill_column(
        topo: &Topology,
        t: usize,
        dist: &mut [u32],
        options: &mut [u128],
        queue: &mut Vec<SwitchId>,
    ) -> bool {
        dist.fill(INF);
        options.fill(0);
        dist[t] = 0;
        queue.clear();
        queue.push(SwitchId(t as u16));
        let mut head = 0;
        while let Some(&cur) = queue.get(head) {
            head += 1;
            let farther = dist[cur.index()] + 1;
            for (_, peer, back) in topo.switch_neighbors(cur) {
                let d = &mut dist[peer.index()];
                if *d == INF {
                    *d = farther;
                    queue.push(peer);
                }
                if *d == farther {
                    options[peer.index()] |= 1 << back.0;
                }
            }
        }
        queue.len() == dist.len()
    }

    fn assert_equals_its_oracle(topo: &Topology) {
        let (swept, oracle) = (
            MinimalRouting::build(topo).unwrap(),
            MinimalRouting::oracle(topo),
        );
        let n = topo.num_switches();
        assert!(swept.dist == oracle.dist, "{n} switches: distances");
        assert!(swept.options == oracle.options, "{n} switches: options");
        assert_eq!(swept.center, oracle.center, "{n} switches: center");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// The word-parallel sweep against the per-destination BFS on
        /// every reference shape and on sizes either side of a word and
        /// of a pool item.
        #[test]
        fn prop_the_sweep_equals_the_per_destination_oracle(seed in any::<u64>()) {
            sweep_cases(seed).iter().for_each(assert_equals_its_oracle);
        }
    }

    /// Sixteen items of one word each, shared over the pool.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "1 024 switches: release only")]
    fn the_sweep_equals_the_oracle_at_1024_switches() {
        for seed in [100, 101] {
            assert_equals_its_oracle(&IrregularConfig::paper(1024, seed).generate().unwrap());
        }
    }

    #[test]
    fn a_disconnected_graph_is_refused() {
        // A ring of 6 with the links across 2–3 and 5–0 hidden: two
        // components of three.
        let topo = regular::ring(6, 1).unwrap();
        let cut = |s: SwitchId, peer: SwitchId| {
            matches!((s.0.min(peer.0), s.0.max(peer.0)), (2, 3) | (0, 5))
        };
        let links = |s| {
            topo.switch_neighbors(s)
                .filter(move |&(_, peer, _)| !cut(s, peer))
        };
        assert!(matches!(
            MinimalRouting::sweep(6, links),
            Err(IbaError::RoutingFailed(m)) if m == "topology disconnected"
        ));
    }

    /// The nested-`Vec` build the flat one replaced, kept as its oracle:
    /// `(dist[s][t], options[t][s])`, options in neighbor (port) order.
    #[allow(clippy::type_complexity)]
    fn reference_build(topo: &Topology) -> (Vec<Vec<u32>>, Vec<Vec<Vec<PortIndex>>>) {
        let n = topo.num_switches();
        let dist = topo.switch_distances();
        let mut options = vec![vec![Vec::new(); n]; n];
        for s in topo.switch_ids() {
            for (port, peer, _) in topo.switch_neighbors(s) {
                for t in 0..n {
                    if s.index() != t && dist[peer.index()][t] + 1 == dist[s.index()][t] {
                        options[t][s.index()].push(port);
                    }
                }
            }
        }
        (dist, options)
    }

    #[test]
    fn ring_has_two_options_only_across() {
        // On an even ring, opposite switches have two minimal directions;
        // all other pairs have one.
        let topo = regular::ring(6, 1).unwrap();
        let mr = MinimalRouting::build(&topo).unwrap();
        assert_eq!(mr.options(SwitchId(0), SwitchId(3)).len(), 2);
        assert_eq!(mr.options(SwitchId(0), SwitchId(1)).len(), 1);
        assert_eq!(mr.options(SwitchId(0), SwitchId(2)).len(), 1);
        assert_eq!(mr.options(SwitchId(0), SwitchId(0)).len(), 0);
    }

    #[test]
    fn hypercube_option_count_is_hamming_distance() {
        // In a hypercube every differing dimension is a minimal first hop.
        let topo = regular::hypercube(4, 1).unwrap();
        let mr = MinimalRouting::build(&topo).unwrap();
        for s in 0..16u16 {
            for t in 0..16u16 {
                let hamming = (s ^ t).count_ones() as usize;
                assert_eq!(
                    mr.options(SwitchId(s), SwitchId(t)).len(),
                    hamming,
                    "sw{s} → sw{t}"
                );
            }
        }
    }

    #[test]
    fn options_point_strictly_closer() {
        let topo = IrregularConfig::paper(32, 11).generate().unwrap();
        let mr = MinimalRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                for port in mr.options(s, t).iter() {
                    let peer = topo.endpoint(s, port).unwrap().node.as_switch().unwrap();
                    assert_eq!(mr.distance(peer, t) + 1, mr.distance(s, t));
                }
            }
        }
    }

    #[test]
    fn every_remote_pair_has_at_least_one_option() {
        let topo = IrregularConfig::paper(16, 2).generate().unwrap();
        let mr = MinimalRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s != t {
                    assert!(mr.options(s, t).len() >= 1);
                }
            }
        }
    }

    #[test]
    fn option_count_bounded_by_degree() {
        let topo = IrregularConfig::paper(16, 3).generate().unwrap();
        let mr = MinimalRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                assert!(mr.options(s, t).len() <= topo.switch_degree(s));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Higher connectivity gives at least as many multi-option pairs,
        /// in ensemble average (the driver of the paper's §5.2.2).
        #[test]
        fn prop_options_valid_on_any_seed(seed in any::<u64>()) {
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            let mr = MinimalRouting::build(&topo).unwrap();
            for s in topo.switch_ids() {
                for t in topo.switch_ids() {
                    if s == t {
                        prop_assert!(mr.options(s, t).len() == 0);
                    } else {
                        prop_assert!(mr.options(s, t).len() != 0);
                        // Sorted, distinct ports.
                        let opts: Vec<PortIndex> = mr.options(s, t).iter().collect();
                        prop_assert!(opts.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The flat build — one BFS per destination filling both cells —
        /// against the nested all-pairs one it replaced, and the root
        /// rule read off its distances against `select_root`'s own BFS.
        #[test]
        fn prop_flat_build_equals_the_nested_reference(seed in any::<u64>()) {
            for spec in reference_specs() {
                let topo = spec.generate(seed).unwrap();
                let mr = MinimalRouting::build(&topo).unwrap();
                let (dist, options) = reference_build(&topo);
                for s in topo.switch_ids() {
                    for t in topo.switch_ids() {
                        prop_assert_eq!(mr.distance(s, t), dist[s.index()][t.index()]);
                        let flat: Vec<PortIndex> = mr.options(s, t).iter().collect();
                        prop_assert_eq!(&flat, &options[t.index()][s.index()]);
                        prop_assert_eq!(mr.options(s, t).len(), flat.len());
                        prop_assert!(flat.iter().all(|&p| mr.options(s, t).contains(p)));
                    }
                }
                prop_assert_eq!(mr.center(), UpDownRouting::select_root(&topo).unwrap());
            }
        }
    }

    #[test]
    fn a_mask_holds_every_port_a_route_may_name() {
        // 66 switches in a full mesh: link ports 0..=64, so the options
        // towards the highest neighbors sit above bit 63.
        let topo = regular::complete(66, 1).unwrap();
        let mr = MinimalRouting::build(&topo).unwrap();
        let direct = topo.port_towards(SwitchId(0), SwitchId(65)).unwrap();
        assert_eq!(direct, PortIndex(64));
        let options = mr.options(SwitchId(0), SwitchId(65));
        assert_eq!(options.iter().collect::<Vec<_>>(), [direct]);
        assert!(options.contains(direct) && !options.contains(PortIndex(0)));
        assert!(!options.contains(PortIndex(200)), "past the mask is absent");
        assert!(PortMask::default().len() == 0);
    }

    #[test]
    fn a_radix_past_the_mask_is_refused() {
        let mut b = iba_topology::TopologyBuilder::new(2, 129);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        let topo = b.build().unwrap();
        assert!(matches!(
            MinimalRouting::build(&topo),
            Err(IbaError::InvalidConfig(m)) if m.contains("129")
        ));
    }
}
