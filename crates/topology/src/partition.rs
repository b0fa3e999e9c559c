//! Fabric partitioning for the sharded parallel simulation engine.
//!
//! A [`Partition`] assigns every switch (and, transitively, every host —
//! a host always lives with its attached switch) to exactly one of `N`
//! shards. The parallel engine in `iba-sim` gives each shard a private
//! event queue and asks the partition who owns an entity, so a true
//! partition of the switches is load-bearing for simulation
//! correctness, not just for balance.
//!
//! [`Partition::contiguous`] is the default construction: deterministic
//! BFS region growing from the lowest unassigned switch id, producing
//! `N` shards balanced within one switch and connected whenever the
//! remaining unassigned subgraph allows it. Determinism matters — the
//! partition feeds the parallel engine's event-ordering keys, and two
//! runs with the same topology and shard count must partition
//! identically on any machine.

use crate::graph::Topology;
use iba_core::{HostId, IbaError, SwitchId};
use std::collections::VecDeque;

/// An assignment of every switch and host to exactly one shard.
#[derive(Clone, Debug)]
pub struct Partition {
    switch_shard: Vec<u16>,
    host_shard: Vec<u16>,
}

impl Partition {
    /// Partition `topo` into `num_shards` shards by deterministic BFS
    /// region growing: shard `k` seeds at the lowest unassigned switch
    /// id and absorbs unassigned switches in BFS order (neighbors in
    /// port order) until it reaches its balanced share,
    /// `ceil(unassigned / shards_left)`. If a region runs out of
    /// reachable unassigned switches early it re-seeds at the lowest
    /// unassigned id, so exactly `num_shards` shards always emerge,
    /// sizes balanced within one.
    pub fn contiguous(topo: &Topology, num_shards: usize) -> Result<Partition, IbaError> {
        let n = topo.num_switches();
        if num_shards == 0 {
            return Err(IbaError::InvalidTopology(
                "partition needs at least one shard".into(),
            ));
        }
        if num_shards > n {
            return Err(IbaError::InvalidTopology(format!(
                "cannot partition {n} switches into {num_shards} shards"
            )));
        }
        const UNASSIGNED: u16 = u16::MAX;
        let mut shard = vec![UNASSIGNED; n];
        let mut unassigned = n;
        for k in 0..num_shards {
            let shards_left = num_shards - k;
            let target = unassigned.div_ceil(shards_left);
            let mut taken = 0usize;
            let mut frontier = VecDeque::new();
            while taken < target {
                let Some(next) = frontier.pop_front() else {
                    // Seed (or re-seed after exhausting a component) at
                    // the lowest unassigned switch id.
                    let seed = shard
                        .iter()
                        .position(|&s| s == UNASSIGNED)
                        .expect("taken < target implies an unassigned switch");
                    frontier.push_back(SwitchId(seed as u16));
                    continue;
                };
                if shard[next.index()] != UNASSIGNED {
                    continue;
                }
                shard[next.index()] = k as u16;
                taken += 1;
                unassigned -= 1;
                for (_, peer, _) in topo.switch_neighbors(next) {
                    if shard[peer.index()] == UNASSIGNED {
                        frontier.push_back(peer);
                    }
                }
            }
        }
        debug_assert_eq!(unassigned, 0);
        let host_shard = topo
            .host_ids()
            .map(|h| shard[topo.host_switch(h).index()])
            .collect();
        Ok(Partition {
            switch_shard: shard,
            host_shard,
        })
    }

    /// The shard owning `switch`.
    #[inline]
    pub fn shard_of_switch(&self, switch: SwitchId) -> usize {
        self.switch_shard[switch.index()] as usize
    }

    /// The shard owning `host` (always its attached switch's shard).
    #[inline]
    pub fn shard_of_host(&self, host: HostId) -> usize {
        self.host_shard[host.index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::irregular::IrregularConfig;
    use proptest::prelude::*;

    /// Check that `p` partitions `topo` into `num_shards` non-empty
    /// shards with every host beside its switch, and return the switch
    /// count per shard.
    fn shard_sizes(p: &Partition, topo: &Topology, num_shards: usize) -> Vec<usize> {
        assert_eq!(p.switch_shard.len(), topo.num_switches());
        assert_eq!(p.host_shard.len(), topo.num_hosts());
        let mut sizes = vec![0usize; num_shards];
        for &s in &p.switch_shard {
            sizes[s as usize] += 1;
        }
        assert!(sizes.iter().all(|&n| n > 0), "empty shard: {sizes:?}");
        for h in topo.host_ids() {
            assert_eq!(p.shard_of_host(h), p.shard_of_switch(topo.host_switch(h)));
        }
        sizes
    }

    /// Inter-switch links whose ends lie in different shards.
    fn boundary_links(p: &Partition, topo: &Topology) -> usize {
        topo.switch_ids()
            .flat_map(|s| topo.switch_neighbors(s).map(move |(_, peer, _)| (s, peer)))
            .filter(|&(s, peer)| s < peer && p.shard_of_switch(s) != p.shard_of_switch(peer))
            .count()
    }

    fn line_topo(n: usize) -> Topology {
        let mut b = TopologyBuilder::new(n, 6);
        for i in 0..n - 1 {
            b.connect(SwitchId(i as u16), SwitchId(i as u16 + 1))
                .unwrap();
        }
        b.attach_hosts_everywhere(2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn one_shard_owns_everything() {
        let t = line_topo(5);
        let p = Partition::contiguous(&t, 1).unwrap();
        assert_eq!(shard_sizes(&p, &t, 1), vec![5]);
        assert_eq!(boundary_links(&p, &t), 0);
        assert!(t.host_ids().all(|h| p.shard_of_host(h) == 0));
    }

    #[test]
    fn line_splits_into_contiguous_runs() {
        let t = line_topo(8);
        let p = Partition::contiguous(&t, 4).unwrap();
        assert_eq!(shard_sizes(&p, &t, 4), vec![2, 2, 2, 2]);
        // A 4-way split of a line has exactly 3 boundary links.
        assert_eq!(boundary_links(&p, &t), 3);
        // BFS from lowest ids keeps runs contiguous on a line.
        for i in 0..8u16 {
            assert_eq!(p.shard_of_switch(SwitchId(i)), (i / 2) as usize);
        }
    }

    #[test]
    fn hosts_follow_their_switch() {
        let t = line_topo(4);
        let p = Partition::contiguous(&t, 2).unwrap();
        for h in t.host_ids() {
            assert_eq!(p.shard_of_host(h), p.shard_of_switch(t.host_switch(h)));
        }
    }

    #[test]
    fn rejects_degenerate_shard_counts() {
        let t = line_topo(3);
        assert!(Partition::contiguous(&t, 0).is_err());
        assert!(Partition::contiguous(&t, 4).is_err());
    }

    #[test]
    fn partition_is_deterministic() {
        let t = IrregularConfig::paper(16, 3).generate().unwrap();
        let a = Partition::contiguous(&t, 4).unwrap();
        let b = Partition::contiguous(&t, 4).unwrap();
        assert_eq!(a.switch_shard, b.switch_shard);
    }

    proptest! {
        /// Over random irregular topologies and shard counts, the
        /// contiguous partition is a true partition: every switch in
        /// exactly one in-range shard, every shard non-empty, sizes
        /// balanced within one, hosts co-located.
        #[test]
        fn prop_contiguous_is_a_true_partition(
            switches in 6usize..40,
            seed in 0u64..50,
            shard_sel in 1usize..8,
        ) {
            let topo = IrregularConfig::paper(switches, seed)
                .generate()
                .unwrap();
            let shards = shard_sel.min(switches);
            let p = Partition::contiguous(&topo, shards).unwrap();
            let sizes = shard_sizes(&p, &topo, shards);
            prop_assert_eq!(sizes.iter().sum::<usize>(), switches);
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(max - min <= 1, "unbalanced shards: {:?}", sizes);
        }
    }
}
