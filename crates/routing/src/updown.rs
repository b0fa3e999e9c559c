//! Up\*/down\* routing.
//!
//! Up\*/down\* (Autonet; the paper's reference \[20\]) is the classic
//! deadlock-free routing algorithm for irregular networks and the escape
//! layer of the paper's FA algorithm:
//!
//! 1. Build a BFS spanning tree from a root switch. Orient every link:
//!    the "up" end is the end closer to the root (tie broken by lower
//!    switch id). Orientation is acyclic because an up move strictly
//!    decreases the key `(BFS level, switch id)`.
//! 2. A path is *legal* iff it consists of zero or more up moves followed
//!    by zero or more down moves — equivalently, it never takes a
//!    down→up turn. Legal paths cannot close a cycle of buffer
//!    dependencies, hence deadlock freedom.
//!
//! Switches route by destination only (IBA forwarding tables know
//! nothing about a packet's history), so the per-hop choice must make
//! globally legal paths. We use the standard consistent rule:
//!
//! * if the destination is reachable through down moves alone, take the
//!   first hop of a shortest all-down path ("go down when you can");
//! * otherwise take the up move that minimizes the remaining legal
//!   distance.
//!
//! Down-only reachability is *absorbing* along such routes (the next
//! switch of a down move is itself down-only reachable), so a route never
//! attempts an up move after its first down move — legality holds across
//! hops even though each switch decides independently. This matches the
//! well-known behaviour the paper leans on in §5.2.1: up\*/down\* paths
//! may be non-minimal and concentrate traffic near the root.

use crate::columns::{ones, words_per_item, HopColumns, WORD};
use crate::engine::EscapeEngine;
use crate::minimal::MinimalRouting;
use iba_core::{par_chunks_mut, IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// Unreachable marker in the distance columns.
const INF: u32 = u32::MAX;

/// The up\*/down\* routing function for one topology. The three
/// per-destination stores are destination-major (`crate::columns`).
#[derive(Clone, Debug)]
pub struct UpDownRouting {
    root: SwitchId,
    /// BFS level of every switch (root = 0).
    level: Vec<u32>,
    /// `down_dist[t · n + s]`: length of the shortest all-down path
    /// s→t, or `INF`.
    down_dist: Vec<u32>,
    /// `legal_dist[t · n + s]`: length of the shortest legal (up\* then
    /// down\*) path s→t.
    legal_dist: Vec<u32>,
    /// The output port switch `s` uses towards switch `t`.
    next_hop: HopColumns,
}

/// The switch graph as the up\*/down\* sweeps walk it: per switch,
/// the links that leave it upwards (towards the root), then those that
/// leave it downwards, as `(local port, peer)`, each part sorted by
/// `(peer, port)` — the next-hop tie-break, so the first link that
/// brings a destination is the one to take. Built once per build from
/// the levels, so no inner loop looks a level up, skips a host port or
/// tests a link it will not take.
struct Oriented {
    links: Vec<(PortIndex, SwitchId)>,
    /// Switch `s` owns `links[first[s]..first[s + 1]]`, its down links
    /// from `first_down[s]` on.
    first: Vec<u32>,
    first_down: Vec<u32>,
}

impl Oriented {
    fn new(topo: &Topology, rt: &UpDownRouting) -> Oriented {
        let n = topo.num_switches();
        let mut adj = Oriented {
            links: Vec::with_capacity(2 * topo.num_switch_links()),
            first: Vec::with_capacity(n + 1),
            first_down: Vec::with_capacity(n),
        };
        for s in topo.switch_ids() {
            for up in [true, false] {
                let first = if up {
                    &mut adj.first
                } else {
                    &mut adj.first_down
                };
                let start = adj.links.len();
                first.push(start as u32);
                adj.links.extend(
                    (topo.switch_neighbors(s))
                        .filter(|&(_, peer, _)| rt.is_up_move(s, peer) == up)
                        .map(|(port, peer, _)| (port, peer)),
                );
                adj.links[start..].sort_unstable_by_key(|&(port, peer)| (peer, port));
            }
        }
        adj.first.push(adj.links.len() as u32);
        adj
    }

    /// Links of `s` whose far end is above it.
    fn above(&self, s: usize) -> &[(PortIndex, SwitchId)] {
        &self.links[self.first[s] as usize..self.first_down[s] as usize]
    }

    /// Links of `s` whose far end is below it.
    fn below(&self, s: usize) -> &[(PortIndex, SwitchId)] {
        &self.links[self.first_down[s] as usize..self.first[s + 1] as usize]
    }
}

impl UpDownRouting {
    /// Build up\*/down\* for `topo`, selecting the root automatically.
    ///
    /// **Root selection is pinned** (cross-engine comparisons and the
    /// re-sweep's root-pinned equality frame both depend on it being
    /// deterministic): the root is the switch of **minimum
    /// eccentricity**, and among equally central switches the **lowest
    /// switch id wins**. On vertex-transitive [`TopologySpec`] shapes
    /// (rings, tori, hypercubes, full meshes) every switch is equally
    /// central, so the root is always `SwitchId(0)`. The rule is a pure
    /// function of the topology — no RNG, no iteration-order
    /// sensitivity — and is locked by `roots_are_deterministic_across_
    /// topology_specs` in `crates/routing/tests/engine_zoo_contract.rs`.
    ///
    /// [`TopologySpec`]: iba_topology::TopologySpec
    pub fn build(topo: &Topology) -> Result<UpDownRouting, IbaError> {
        Self::build_with_root(topo, MinimalRouting::build(topo)?.center())
    }

    /// Build with an explicit root (exposed for tests and ablations).
    pub fn build_with_root(topo: &Topology, root: SwitchId) -> Result<UpDownRouting, IbaError> {
        let n = topo.num_switches();
        if root.index() >= n {
            return Err(IbaError::RoutingFailed(format!("root {root} out of range")));
        }
        let level = topo.distances_from(root);
        if level.contains(&INF) {
            return Err(IbaError::RoutingFailed("topology disconnected".into()));
        }

        let mut rt = UpDownRouting {
            root,
            level,
            // Zeroed pages cost nothing; `fill` writes every cell.
            down_dist: vec![0; n * n],
            legal_dist: vec![0; n * n],
            next_hop: HopColumns::new(n),
        };
        rt.fill(&Oriented::new(topo, &rt))?;
        Ok(rt)
    }

    /// Sweep every block of [`WORD`] destinations over `adj`: both
    /// distance layers and the next hops.
    fn fill(&mut self, adj: &Oriented) -> Result<(), IbaError> {
        let n = self.level.len();
        let mut blocks: Vec<_> = (self.down_dist.chunks_mut(WORD * n))
            .zip(self.legal_dist.chunks_mut(WORD * n))
            .zip(self.next_hop.columns_mut(WORD))
            .enumerate()
            .collect();
        par_chunks_mut(&mut blocks, words_per_item(n), |blocks| {
            let mut sweep = Sweep::new(n);
            (blocks.iter_mut()).try_for_each(|(b, ((down, legal), hops))| {
                sweep.run(adj, *b * WORD, down, legal, hops)
            })
        })
        .into_iter()
        .collect()
    }

    /// The selected root switch.
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// BFS level of a switch (root = 0).
    pub fn level_of(&self, s: SwitchId) -> u32 {
        self.level[s.index()]
    }

    /// Whether traversing the link `from → to` is an **up** move
    /// (towards the root). The up end of a link is the end with the
    /// lexicographically smaller `(level, id)`.
    pub(crate) fn is_up_move(&self, from: SwitchId, to: SwitchId) -> bool {
        (self.level[to.index()], to.0) < (self.level[from.index()], from.0)
    }

    /// Whether traversing the link `from → to` is a **down** move.
    pub(crate) fn is_down_move(&self, from: SwitchId, to: SwitchId) -> bool {
        !self.is_up_move(from, to)
    }

    /// The output port `s` uses towards switch `t`; `None` when `s == t`.
    #[inline]
    pub fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
        self.next_hop.get(s, t)
    }

    /// The column of destination `t` in a distance store.
    fn column<'a>(&self, store: &'a [u32], t: SwitchId) -> &'a [u32] {
        let n = self.level.len();
        &store[t.index() * n..(t.index() + 1) * n]
    }

    /// *All* consistent next-hop choices of `s` towards `t`, best first:
    /// every down neighbor that still reaches `t` downward when one
    /// exists, otherwise every up neighbor with a finite legal distance.
    /// Any per-switch mixture of these choices yields a legal (turn-free)
    /// and terminating path — down moves strictly increase the tree key
    /// and down-only reachability is absorbing — so a source-selected
    /// multipath scheme can spread packets over them without risking
    /// deadlock. Used by `FaRouting::build_source_multipath`.
    pub(crate) fn next_hop_variants(
        &self,
        topo: &Topology,
        s: SwitchId,
        t: SwitchId,
    ) -> Vec<PortIndex> {
        if s == t {
            return Vec::new();
        }
        let down = self.column(&self.down_dist, t);
        let go_down = down[s.index()] != INF;
        let dist = if go_down {
            down
        } else {
            self.column(&self.legal_dist, t)
        };
        let mut cands: Vec<(u32, u16, PortIndex)> = (topo.switch_neighbors(s))
            .filter(|&(_, peer, _)| self.is_down_move(s, peer) == go_down)
            .filter(|&(_, peer, _)| dist[peer.index()] != INF)
            .map(|(port, peer, _)| (dist[peer.index()], peer.0, port))
            .collect();
        cands.sort();
        cands.into_iter().map(|(_, _, p)| p).collect()
    }
}

/// The word-parallel up\*/down\* sweep of one block of destinations:
/// each switch holds, as one word, the destinations of the block at a
/// given distance. Reused across the blocks of one pool item.
///
/// The recurrences are those of the 2-state layered graph — in state
/// `CanUp` a packet may still take up moves, in `DownOnly` only down
/// moves:
///   `down[s]  = 1 + min over down-neighbors m of down[m]`
///   `legal[s] = min(down[s], 1 + min over up-neighbors u of legal[u])`
/// so the set at level `d` is what level `d − 1` of the right neighbors
/// brings that `s` has not reached yet.
struct Sweep {
    /// `D_0, D_1, …`: `n` words per level, bit `j` of `s`'s word set
    /// when `down[t_j][s]` is that level.
    down_levels: Vec<u64>,
    /// Everything `s` reaches all-down; the union of its `D_d`.
    down_reached: Vec<u64>,
    legal_reached: Vec<u64>,
    /// `L_{d−1}` and `L_d`, the legal-distance frontiers.
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl Sweep {
    fn new(n: usize) -> Sweep {
        Sweep {
            down_levels: Vec::new(),
            down_reached: vec![0; n],
            legal_reached: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }

    /// Fill the columns of destinations `first..` — `down.len() / n` of
    /// them, at most a word — in the three stores.
    fn run(
        &mut self,
        adj: &Oriented,
        first: usize,
        down: &mut [u32],
        legal: &mut [u32],
        hops: &mut [u8],
    ) -> Result<(), IbaError> {
        let n = self.frontier.len();
        let columns = down.len() / n;
        down.fill(INF);
        self.frontier.fill(0);
        for j in 0..columns {
            self.frontier[first + j] = 1 << j;
            down[j * n + first + j] = 0;
            legal[j * n + first + j] = 0;
        }
        // Pass 1, all-down distances. Go down when you can: the hop is
        // the first down link (by peer, then port) whose peer is one
        // level nearer.
        self.down_levels.clear();
        self.down_levels.extend_from_slice(&self.frontier);
        self.down_reached.copy_from_slice(&self.frontier);
        for d in 1.. {
            let nearer = self.down_levels.len() - n;
            self.down_levels.resize(nearer + 2 * n, 0);
            let (older, level) = self.down_levels.split_at_mut(nearer + n);
            let nearer = &older[nearer..];
            let mut grew = false;
            for (s, word) in level.iter_mut().enumerate() {
                let mut row = 0;
                for &(port, peer) in adj.below(s) {
                    let brought = nearer[peer.index()] & !self.down_reached[s] & !row;
                    row |= brought;
                    for j in ones(brought) {
                        down[j * n + s] = d;
                        hops[j * n + s] = port.0;
                    }
                }
                self.down_reached[s] |= row;
                *word = row;
                grew |= row != 0;
            }
            if !grew {
                self.down_levels.truncate(self.down_levels.len() - n);
                break;
            }
        }
        // Pass 2, legal distances. An up hop only where the final
        // all-down set lacks the destination, even when an up path is
        // shorter: the first up link whose peer is one level nearer.
        let depth = self.down_levels.len() / n;
        self.legal_reached.copy_from_slice(&self.frontier);
        for d in 1.. {
            let all_down = self.down_levels.get(d as usize * n..(d as usize + 1) * n);
            let mut grew = false;
            for (s, word) in self.next.iter_mut().enumerate() {
                let reached = self.legal_reached[s];
                let mut row = all_down.map_or(0, |all_down| all_down[s]) & !reached;
                for &(port, peer) in adj.above(s) {
                    let brought = self.frontier[peer.index()] & !reached & !row;
                    row |= brought;
                    for j in ones(brought & !self.down_reached[s]) {
                        hops[j * n + s] = port.0;
                    }
                }
                for j in ones(row) {
                    legal[j * n + s] = d;
                }
                self.legal_reached[s] |= row;
                *word = row;
                grew |= row != 0;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            // A legal distance past the last all-down level is one up
            // hop more than another switch's, so the levels run on
            // without a gap from there.
            if !grew && d as usize + 1 >= depth {
                break;
            }
        }
        let all = u64::MAX >> (WORD - columns);
        let Some(s) = self.legal_reached.iter().position(|&r| r != all) else {
            return Ok(());
        };
        let t = first + (!self.legal_reached[s] & all).trailing_zeros() as usize;
        let (s, t) = (SwitchId(s as u16), SwitchId(t as u16));
        Err(IbaError::RoutingFailed(format!(
            "no legal next hop from {s} to {t}"
        )))
    }
}

impl EscapeEngine for UpDownRouting {
    const NAME: &'static str = "updown";

    fn build(topo: &Topology) -> Result<Self, IbaError> {
        UpDownRouting::build(topo)
    }

    fn build_with_root(topo: &Topology, root: SwitchId) -> Result<Self, IbaError> {
        UpDownRouting::build_with_root(topo, root)
    }

    fn root(&self) -> SwitchId {
        self.root
    }

    fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
        UpDownRouting::next_hop(self, s, t)
    }

    fn next_hop_variants(&self, topo: &Topology, s: SwitchId, t: SwitchId) -> Vec<PortIndex> {
        UpDownRouting::next_hop_variants(self, topo, s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::{reference_specs, sweep_cases, NO_HOP};
    use iba_topology::{regular, IrregularConfig};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    impl UpDownRouting {
        /// The per-destination build the word-parallel sweep replaced,
        /// kept as its oracle: one backward BFS per destination column.
        fn oracle(topo: &Topology, root: SwitchId) -> Result<UpDownRouting, IbaError> {
            let n = topo.num_switches();
            let mut rt = UpDownRouting {
                root,
                level: topo.distances_from(root),
                down_dist: vec![0; n * n],
                legal_dist: vec![0; n * n],
                next_hop: HopColumns::new(n),
            };
            let adj = Oriented::new(topo, &rt);
            let mut queue = Vec::with_capacity(2 * n);
            let columns = (rt.down_dist.chunks_mut(n))
                .zip(rt.legal_dist.chunks_mut(n))
                .zip(rt.next_hop.columns_mut(1));
            for (t, ((down, legal), hops)) in columns.enumerate() {
                fill_column(&adj, t, down, legal, hops, &mut queue)?;
            }
            Ok(rt)
        }

        /// The root election `MinimalRouting::center` replaced, kept as its
        /// oracle — minimum eccentricity (lowest id wins ties): switches
        /// are scanned in ascending id order and only a *strictly* smaller
        /// eccentricity displaces the incumbent, so the tie-break needs no
        /// secondary comparison.
        pub(crate) fn select_root(topo: &Topology) -> Result<SwitchId, IbaError> {
            let dist = topo.switch_distances();
            let mut best: Option<(u32, SwitchId)> = None;
            for s in topo.switch_ids() {
                let ecc = dist[s.index()]
                    .iter()
                    .copied()
                    .max()
                    .ok_or_else(|| IbaError::RoutingFailed("empty topology".into()))?;
                if ecc == INF {
                    return Err(IbaError::RoutingFailed("topology disconnected".into()));
                }
                if best.is_none_or(|(be, _)| ecc < be) {
                    best = Some((ecc, s));
                }
            }
            Ok(best.expect("at least one switch").1)
        }
    }

    /// Fill destination `t`'s column of the three stores: a backward
    /// BFS from `t` over the 2-state layered graph, producing for every
    /// source `s` the shortest all-down distance and the shortest legal
    /// distance of paths `s → t`, then the deterministic next hop of
    /// every `s`.
    ///
    /// Forward semantics of the layers: in state `CanUp` a packet may
    /// still take up moves (or switch to going down); in state
    /// `DownOnly` it may only take down moves. A forward edge
    /// `s →(up) n` connects `(s, CanUp) → (n, CanUp)`; a forward edge
    /// `s →(down) m` connects both `(s, CanUp)` and `(s, DownOnly)` to
    /// `(m, DownOnly)`. We BFS the reversed edges from
    /// `{(t, CanUp), (t, DownOnly)}`; every edge costs 1 so FIFO order
    /// yields shortest distances.
    fn fill_column(
        adj: &Oriented,
        t: usize,
        down: &mut [u32],
        legal: &mut [u32],
        hops: &mut [u8],
        queue: &mut Vec<(SwitchId, bool)>,
    ) -> Result<(), IbaError> {
        down.fill(INF);
        legal.fill(INF);
        down[t] = 0;
        legal[t] = 0;
        // Queue of (switch, is_down_only_state).
        queue.clear();
        queue.extend([(SwitchId(t as u16), false), (SwitchId(t as u16), true)]);
        let mut head = 0;
        while let Some(&(cur, down_only)) = queue.get(head) {
            head += 1;
            if down_only {
                let d = down[cur.index()];
                // Forward edges peer →(down) cur leave a switch above
                // `cur`, from either layer.
                for &(_, peer) in adj.above(cur.index()) {
                    if down[peer.index()] == INF {
                        down[peer.index()] = d + 1;
                        queue.push((peer, true));
                    }
                    if legal[peer.index()] == INF {
                        legal[peer.index()] = d + 1;
                        queue.push((peer, false));
                    }
                }
            } else {
                let d = legal[cur.index()];
                // Forward edge peer →(up) cur, from a switch below `cur`.
                for &(_, peer) in adj.below(cur.index()) {
                    if legal[peer.index()] == INF {
                        legal[peer.index()] = d + 1;
                        queue.push((peer, false));
                    }
                }
            }
        }
        for s in 0..down.len() {
            // Go down when the destination is reachable that way — the
            // down neighbor on a shortest all-down path — else up, to
            // the up neighbor minimizing the remaining legal distance.
            let (dist, links) = if down[s] != INF {
                (&*down, adj.below(s))
            } else {
                (&*legal, adj.above(s))
            };
            hops[s] = if s == t {
                NO_HOP
            } else {
                (links.iter())
                    .filter(|&&(_, peer)| dist[peer.index()] != INF)
                    .map(|&(port, peer)| (dist[peer.index()], peer.0, port))
                    .min()
                    .map(|(_, _, port)| port.0)
                    .ok_or_else(|| {
                        let (s, t) = (SwitchId(s as u16), SwitchId(t as u16));
                        IbaError::RoutingFailed(format!("no legal next hop from {s} to {t}"))
                    })?
            };
        }
        Ok(())
    }

    /// The sweep's three stores, its levels and its root against the
    /// per-destination oracle rooted at `root`.
    fn assert_equals_its_oracle(topo: &Topology, rt: &UpDownRouting, root: SwitchId) {
        let oracle = UpDownRouting::oracle(topo, root).unwrap();
        let n = topo.num_switches();
        assert_eq!(rt.root, oracle.root, "{n} switches: root");
        assert_eq!(rt.level, oracle.level, "{n} switches: levels");
        assert!(
            rt.down_dist == oracle.down_dist,
            "{n} switches, root {root}: down"
        );
        assert!(
            rt.legal_dist == oracle.legal_dist,
            "{n} switches, root {root}: legal"
        );
        for (s, t) in topo
            .switch_ids()
            .flat_map(|s| topo.switch_ids().map(move |t| (s, t)))
        {
            assert_eq!(
                rt.next_hop(s, t),
                oracle.next_hop(s, t),
                "{s} → {t}, root {root}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// The word-parallel sweep against the per-destination BFS, at
        /// the elected root (the oracle's own election), on every
        /// reference shape and on sizes either side of a word and of a
        /// pool item; and at every pinned root of a 16-switch fabric.
        #[test]
        fn prop_the_sweep_equals_the_per_destination_oracle(seed in any::<u64>()) {
            for topo in sweep_cases(seed) {
                let rt = UpDownRouting::build(&topo).unwrap();
                assert_equals_its_oracle(&topo, &rt, UpDownRouting::select_root(&topo).unwrap());
            }
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            for root in topo.switch_ids() {
                let rt = UpDownRouting::build_with_root(&topo, root).unwrap();
                assert_equals_its_oracle(&topo, &rt, root);
            }
        }
    }

    /// Sixteen items of one word each, shared over the pool.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "1 024 switches: release only")]
    fn the_sweep_equals_the_oracle_at_1024_switches() {
        for seed in [100, 101] {
            let topo = IrregularConfig::paper(1024, seed).generate().unwrap();
            let rt = UpDownRouting::build(&topo).unwrap();
            assert_equals_its_oracle(&topo, &rt, UpDownRouting::select_root(&topo).unwrap());
        }
    }

    #[test]
    fn a_sweep_that_cannot_reach_a_destination_names_the_pair() {
        // Levels from a connected ring, then the links between 2 and 3
        // and between 5 and 0 dropped from the oriented graph: the
        // first switch missing a destination is 0, and its first is 3.
        let topo = regular::ring(6, 1).unwrap();
        let rt = UpDownRouting::build_with_root(&topo, SwitchId(0)).unwrap();
        let adj = Oriented::new(&topo, &rt);
        let cut = |s: usize, peer: SwitchId| {
            matches!((s.min(peer.index()), s.max(peer.index())), (2, 3) | (0, 5))
        };
        let mut split = Oriented {
            links: Vec::new(),
            first: Vec::new(),
            first_down: Vec::new(),
        };
        for s in 0..6 {
            for (first, links) in [
                (&mut split.first, adj.above(s)),
                (&mut split.first_down, adj.below(s)),
            ] {
                first.push(split.links.len() as u32);
                split
                    .links
                    .extend(links.iter().filter(|&&(_, peer)| !cut(s, peer)));
            }
        }
        split.first.push(split.links.len() as u32);
        let mut store = (vec![0; 36], vec![0; 36], vec![NO_HOP; 36]);
        let swept = Sweep::new(6).run(&split, 0, &mut store.0, &mut store.1, &mut store.2);
        assert!(
            matches!(swept, Err(IbaError::RoutingFailed(m)) if m == "no legal next hop from sw0 to sw3")
        );
    }

    /// The nested-`Vec` build the flat one replaced, kept as its oracle:
    /// a `VecDeque` BFS over `switch_neighbors` that derives every
    /// link's orientation from two level look-ups, then the argmin over
    /// all neighbors. `(down[t][s], legal[t][s], next_hop[t][s])`.
    #[allow(clippy::type_complexity)]
    fn reference_build(
        topo: &Topology,
        rt: &UpDownRouting,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<Option<PortIndex>>>) {
        let n = topo.num_switches();
        let (mut down_dist, mut legal_dist, mut next_hop) = (vec![], vec![], vec![]);
        for t in topo.switch_ids() {
            let mut legal = vec![INF; n];
            let mut down = vec![INF; n];
            legal[t.index()] = 0;
            down[t.index()] = 0;
            let mut queue = VecDeque::from([(t, false), (t, true)]);
            while let Some((cur, down_only)) = queue.pop_front() {
                for (_, peer, _) in topo.switch_neighbors(cur) {
                    if down_only && rt.is_down_move(peer, cur) {
                        let d = down[cur.index()];
                        if down[peer.index()] == INF {
                            down[peer.index()] = d + 1;
                            queue.push_back((peer, true));
                        }
                        if legal[peer.index()] == INF {
                            legal[peer.index()] = d + 1;
                            queue.push_back((peer, false));
                        }
                    }
                    if !down_only && rt.is_up_move(peer, cur) && legal[peer.index()] == INF {
                        legal[peer.index()] = legal[cur.index()] + 1;
                        queue.push_back((peer, false));
                    }
                }
            }
            let hops = topo.switch_ids().map(|s| {
                let go_down = down[s.index()] != INF;
                let dist = if go_down { &down } else { &legal };
                (topo.switch_neighbors(s))
                    .filter(|&(_, peer, _)| rt.is_down_move(s, peer) == go_down)
                    .filter(|&(_, peer, _)| s != t && dist[peer.index()] != INF)
                    .map(|(port, peer, _)| (dist[peer.index()], peer.0, port))
                    .min()
                    .map(|(_, _, port)| port)
            });
            next_hop.push(hops.collect());
            down_dist.push(down);
            legal_dist.push(legal);
        }
        (down_dist, legal_dist, next_hop)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The flat build over the oriented adjacency against the
        /// nested one, rooted wherever the seed says.
        #[test]
        fn prop_flat_build_equals_the_nested_reference(seed in any::<u64>()) {
            for spec in reference_specs() {
                let topo = spec.generate(seed).unwrap();
                let root = SwitchId((seed >> 32) as u16 % topo.num_switches() as u16);
                let rt = UpDownRouting::build_with_root(&topo, root).unwrap();
                prop_assert_eq!(&rt.level, &topo.distances_from(root));
                let (down, legal, hops) = reference_build(&topo, &rt);
                prop_assert_eq!(&rt.down_dist, &down.concat());
                prop_assert_eq!(&rt.legal_dist, &legal.concat());
                for s in topo.switch_ids() {
                    for t in topo.switch_ids() {
                        prop_assert_eq!(rt.next_hop(s, t), hops[t.index()][s.index()]);
                    }
                }
            }
        }
    }

    #[test]
    fn the_oriented_adjacency_splits_every_switch_by_direction() {
        let topo = IrregularConfig::paper(32, 4).generate().unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        let adj = Oriented::new(&topo, &rt);
        for s in topo.switch_ids() {
            let (above, below) = (adj.above(s.index()), adj.below(s.index()));
            assert!(above.iter().all(|&(_, peer)| rt.is_up_move(s, peer)));
            assert!(below.iter().all(|&(_, peer)| rt.is_down_move(s, peer)));
            let mut all: Vec<_> = above.iter().chain(below).copied().collect();
            all.sort();
            let links: Vec<_> = topo
                .switch_neighbors(s)
                .map(|(p, peer, _)| (p, peer))
                .collect();
            assert_eq!(all, links);
        }
    }

    /// Assert that the deterministic route s→t is a legal up*/down* path.
    fn assert_legal_path(rt: &UpDownRouting, topo: &Topology, s: SwitchId, t: SwitchId) {
        let path = rt.path(topo, s, t).unwrap();
        let mut went_down = false;
        for w in path.windows(2) {
            let up = rt.is_up_move(w[0], w[1]);
            if up {
                assert!(
                    !went_down,
                    "down→up turn on route {s}→{t}: {path:?} (root {})",
                    rt.root()
                );
            } else {
                went_down = true;
            }
        }
    }

    #[test]
    fn root_has_level_zero_and_min_eccentricity() {
        let topo = regular::chain(5, 1).unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        // Center of a 5-chain.
        assert_eq!(rt.root(), SwitchId(2));
        assert_eq!(rt.level_of(SwitchId(2)), 0);
        assert_eq!(rt.level_of(SwitchId(0)), 2);
    }

    #[test]
    fn up_moves_decrease_level_key() {
        let topo = IrregularConfig::paper(16, 5).generate().unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for (_, peer, _) in topo.switch_neighbors(s) {
                // Exactly one direction of every link is up.
                assert_ne!(rt.is_up_move(s, peer), rt.is_up_move(peer, s));
                if rt.is_up_move(s, peer) {
                    assert!(
                        (rt.level_of(peer), peer.0) < (rt.level_of(s), s.0),
                        "up move must decrease (level, id)"
                    );
                }
            }
        }
    }

    #[test]
    fn all_pairs_reachable_on_ring() {
        let topo = regular::ring(8, 1).unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s != t {
                    assert!(rt.next_hop(s, t).is_some());
                    assert_legal_path(&rt, &topo, s, t);
                }
            }
        }
    }

    #[test]
    fn routes_terminate_and_are_legal_on_irregular_networks() {
        for seed in 0..5 {
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            let rt = UpDownRouting::build(&topo).unwrap();
            for s in topo.switch_ids() {
                for t in topo.switch_ids() {
                    if s != t {
                        assert_legal_path(&rt, &topo, s, t);
                    }
                }
            }
        }
    }

    #[test]
    fn legal_distance_bounds_actual_path() {
        let topo = IrregularConfig::paper(32, 9).generate().unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        let dist = topo.switch_distances();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    continue;
                }
                let path = rt.path(&topo, s, t).unwrap();
                let hops = (path.len() - 1) as u32;
                // Never shorter than the unconstrained shortest path, and
                // at least as long as the legal lower bound.
                assert!(hops >= dist[s.index()][t.index()]);
                assert!(hops >= rt.column(&rt.legal_dist, t)[s.index()]);
            }
        }
    }

    #[test]
    fn updown_paths_can_be_nonminimal() {
        // The paper relies on up*/down* using non-minimal paths in large
        // irregular networks. Check the phenomenon exists in an ensemble.
        let mut nonminimal = 0;
        for seed in 0..5 {
            let topo = IrregularConfig::paper(32, seed).generate().unwrap();
            let rt = UpDownRouting::build(&topo).unwrap();
            let dist = topo.switch_distances();
            for s in topo.switch_ids() {
                for t in topo.switch_ids() {
                    if s != t {
                        let hops = (rt.path(&topo, s, t).unwrap().len() - 1) as u32;
                        if hops > dist[s.index()][t.index()] {
                            nonminimal += 1;
                        }
                    }
                }
            }
        }
        assert!(nonminimal > 0, "expected some non-minimal up*/down* routes");
    }

    #[test]
    fn explicit_root_is_respected() {
        let topo = regular::ring(6, 1).unwrap();
        let rt = UpDownRouting::build_with_root(&topo, SwitchId(3)).unwrap();
        assert_eq!(rt.root(), SwitchId(3));
        assert_eq!(rt.level_of(SwitchId(3)), 0);
        assert!(UpDownRouting::build_with_root(&topo, SwitchId(99)).is_err());
    }

    #[test]
    fn down_distance_is_inf_when_no_down_path() {
        // On a chain rooted at the center, leaf→leaf has no all-down path.
        let topo = regular::chain(5, 1).unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        let s = SwitchId(0);
        let t = SwitchId(4);
        // The route must go up towards the root first.
        let path = rt.path(&topo, s, t).unwrap();
        assert_eq!(
            path,
            vec![
                SwitchId(0),
                SwitchId(1),
                SwitchId(2),
                SwitchId(3),
                SwitchId(4)
            ]
        );
        assert_legal_path(&rt, &topo, s, t);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Property: on any random irregular topology, every deterministic
        /// route terminates and never takes a down→up turn.
        #[test]
        fn prop_routes_are_legal(seed in any::<u64>(), n_idx in 0usize..3) {
            let n = [8usize, 16, 32][n_idx];
            let topo = IrregularConfig::paper(n, seed).generate().unwrap();
            let rt = UpDownRouting::build(&topo).unwrap();
            for s in topo.switch_ids() {
                for t in topo.switch_ids() {
                    if s != t {
                        assert_legal_path(&rt, &topo, s, t);
                    }
                }
            }
        }
    }
}
