//! Random irregular topologies, per the paper's restrictions (§5.1).
//!
//! "We will analyze irregular networks of 8, 16, 32, and 64 switches
//! randomly generated following some restrictions. First, we will assume
//! that every switch in the network has the same number of ports (we used
//! 8 or 10) and the same number of nodes connected to every switch (4 in
//! our simulations). And second, neighboring switches will be
//! interconnected by just one link."
//!
//! The generator builds a random `k`-regular switch graph (k = ports −
//! hosts, i.e. 4 or 6) with the *configuration model*: each switch
//! contributes `k` stubs, the stub list is shuffled and paired. Self-loops
//! and duplicate links are then removed by deterministic random edge
//! swaps, and disconnected components are merged the same way (a swap
//! between an edge of each component preserves all degrees while joining
//! them). The result is always a connected, simple, `k`-regular switch
//! graph — matching the paper's constraints exactly — and is a pure
//! function of the seed.

use crate::graph::{Topology, TopologyBuilder};
use iba_core::{IbaError, SwitchId};
use iba_engine::rng::{StreamKind, StreamRng};

/// Configuration of the random irregular generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrregularConfig {
    /// Number of switches (the paper uses 8, 16, 32, 64).
    pub switches: usize,
    /// Inter-switch links per switch (the paper uses 4 or 6).
    pub inter_switch_links: usize,
    /// Hosts attached to every switch (the paper uses 4).
    pub hosts_per_switch: usize,
    /// Seed; each of the paper's "ten different topologies" per size is
    /// one seed value.
    pub seed: u64,
}

impl IrregularConfig {
    /// The paper's base configuration: `switches` switches, 4 inter-switch
    /// links, 4 hosts per switch (8-port switches).
    pub fn paper(switches: usize, seed: u64) -> IrregularConfig {
        IrregularConfig {
            switches,
            inter_switch_links: 4,
            hosts_per_switch: 4,
            seed,
        }
    }

    /// The paper's high-connectivity configuration: 6 inter-switch links
    /// (10-port switches).
    pub fn paper_connected(switches: usize, seed: u64) -> IrregularConfig {
        IrregularConfig {
            inter_switch_links: 6,
            ..IrregularConfig::paper(switches, seed)
        }
    }

    /// Total ports every switch needs.
    pub(crate) fn ports_per_switch(&self) -> usize {
        self.inter_switch_links + self.hosts_per_switch
    }

    /// Sanity-check the parameters.
    pub(crate) fn validate(&self) -> Result<(), IbaError> {
        if self.switches < 2 {
            return Err(IbaError::InvalidConfig("need at least 2 switches".into()));
        }
        if self.inter_switch_links == 0 {
            return Err(IbaError::InvalidConfig(
                "need at least 1 inter-switch link per switch".into(),
            ));
        }
        if self.inter_switch_links >= self.switches {
            return Err(IbaError::InvalidConfig(format!(
                "{} links per switch impossible with {} switches (single-link constraint)",
                self.inter_switch_links, self.switches
            )));
        }
        if !(self.switches * self.inter_switch_links).is_multiple_of(2) {
            return Err(IbaError::InvalidConfig(
                "switches × links must be even for a regular graph".into(),
            ));
        }
        if self.ports_per_switch() > u8::MAX as usize {
            return Err(IbaError::InvalidConfig("too many ports per switch".into()));
        }
        Ok(())
    }

    /// Generate the topology for this configuration.
    pub fn generate(&self) -> Result<Topology, IbaError> {
        self.validate()?;
        let mut rng = StreamRng::from_seed(self.seed).derive(StreamKind::Topology);
        // Edge list of the k-regular multigraph from the configuration
        // model; repaired in place.
        let mut edges = pair_stubs(self.switches, self.inter_switch_links, &mut rng);
        repair_simple(&mut edges, self.switches, &mut rng)?;
        repair_connectivity(&mut edges, self.switches, &mut rng)?;

        let mut builder = TopologyBuilder::new(self.switches, self.ports_per_switch());
        for &(a, b) in &edges {
            builder.connect(SwitchId(a as u16), SwitchId(b as u16))?;
        }
        builder.attach_hosts_everywhere(self.hosts_per_switch)?;
        builder.build()
    }
}

/// Shuffle `n × k` stubs and pair them sequentially.
fn pair_stubs(n: usize, k: usize, rng: &mut StreamRng) -> Vec<(usize, usize)> {
    let mut stubs: Vec<usize> = (0..n).flat_map(|s| std::iter::repeat_n(s, k)).collect();
    rng.shuffle(&mut stubs);
    stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

fn is_dup(edges: &[(usize, usize)], i: usize) -> bool {
    let (a, b) = edges[i];
    a == b
        || edges
            .iter()
            .enumerate()
            .any(|(j, &(c, d))| j != i && ((a, b) == (c, d) || (a, b) == (d, c)))
}

/// Remove self-loops and duplicate edges by random 2-swaps, preserving all
/// degrees. Bounded; fails (extremely unlikely for feasible configs) with
/// `GenerationFailed`.
fn repair_simple(
    edges: &mut [(usize, usize)],
    n: usize,
    rng: &mut StreamRng,
) -> Result<(), IbaError> {
    let max_iters = 200 * edges.len().max(1) * n.max(1);
    let mut iters = 0;
    loop {
        let Some(bad) = (0..edges.len()).find(|&i| is_dup(edges, i)) else {
            return Ok(());
        };
        iters += 1;
        if iters > max_iters {
            return Err(IbaError::GenerationFailed(format!(
                "could not make the graph simple after {max_iters} swaps"
            )));
        }
        // Swap the bad edge with a random other edge: (a,b),(c,d) →
        // (a,c),(b,d). Degrees are preserved unconditionally; whether the
        // result is simple is re-checked next iteration.
        let other = rng.below(edges.len());
        if other == bad {
            continue;
        }
        let (a, b) = edges[bad];
        let (c, d) = edges[other];
        edges[bad] = (a, c);
        edges[other] = (b, d);
    }
}

/// Union-find over switch ids.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let root = self.find(self.0[x]);
            self.0[x] = root;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

fn component_count(edges: &[(usize, usize)], n: usize) -> usize {
    let mut dsu = Dsu::new(n);
    for &(a, b) in edges {
        dsu.union(a, b);
    }
    (0..n).filter(|&i| dsu.find(i) == i).count()
}

/// Join disconnected components by swapping one edge of each, preserving
/// degrees and simplicity (re-repaired after each swap).
fn repair_connectivity(
    edges: &mut [(usize, usize)],
    n: usize,
    rng: &mut StreamRng,
) -> Result<(), IbaError> {
    let max_rounds = 50 * n.max(1);
    for _ in 0..max_rounds {
        let mut dsu = Dsu::new(n);
        for &(a, b) in edges.iter() {
            dsu.union(a, b);
        }
        let root0 = dsu.find(0);
        let Some(outside) = (0..n).find(|&i| dsu.find(i) != root0) else {
            return Ok(());
        };
        let comp_out = dsu.find(outside);
        // Pick one edge inside component 0 and one inside the other
        // component, then cross them.
        let inside_edges: Vec<usize> = (0..edges.len())
            .filter(|&i| dsu.find(edges[i].0) == root0)
            .collect();
        let outside_edges: Vec<usize> = (0..edges.len())
            .filter(|&i| dsu.find(edges[i].0) == comp_out)
            .collect();
        let (Some(&ei), Some(&eo)) = (rng.choose(&inside_edges), rng.choose(&outside_edges)) else {
            return Err(IbaError::GenerationFailed(
                "component without edges cannot be joined (k = 0?)".into(),
            ));
        };
        let (a, b) = edges[ei];
        let (c, d) = edges[eo];
        edges[ei] = (a, c);
        edges[eo] = (b, d);
        repair_simple(edges, n, rng)?;
        // Loop re-checks connectivity; each successful round strictly
        // reduces the component count unless a later simple-repair swap
        // disturbed it, hence the generous round bound.
        let _ = component_count(edges, n);
    }
    Err(IbaError::GenerationFailed(
        "could not connect the graph within the swap budget".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_sizes_generate_and_validate() {
        for &n in &[8usize, 16, 32, 64] {
            let t = IrregularConfig::paper(n, 0xA5).generate().unwrap();
            assert_eq!(t.num_switches(), n);
            assert_eq!(t.num_hosts(), 4 * n);
            assert_eq!(t.ports_per_switch(), 8);
            for s in t.switch_ids() {
                assert_eq!(t.switch_degree(s), 4, "switch {s} not 4-regular");
                assert_eq!(t.attached_hosts(s).count(), 4);
            }
            t.validate().unwrap();
        }
    }

    #[test]
    fn high_connectivity_variant() {
        let t = IrregularConfig::paper_connected(16, 7).generate().unwrap();
        assert_eq!(t.ports_per_switch(), 10);
        for s in t.switch_ids() {
            assert_eq!(t.switch_degree(s), 6);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = IrregularConfig::paper(16, 42).generate().unwrap();
        let b = IrregularConfig::paper(16, 42).generate().unwrap();
        for s in a.switch_ids() {
            let na: Vec<_> = a.switch_neighbors(s).collect();
            let nb: Vec<_> = b.switch_neighbors(s).collect();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = IrregularConfig::paper(16, 1).generate().unwrap();
        let b = IrregularConfig::paper(16, 2).generate().unwrap();
        let same = a.switch_ids().all(|s| {
            let na: Vec<_> = a.switch_neighbors(s).map(|(_, p, _)| p).collect();
            let nb: Vec<_> = b.switch_neighbors(s).map(|(_, p, _)| p).collect();
            na == nb
        });
        assert!(!same, "two seeds produced identical wiring");
    }

    #[test]
    fn dense_small_network_works() {
        // 8 switches, 6 links each: 24 edges among 28 possible pairs —
        // stress for the simple-graph repair.
        for seed in 0..10 {
            let t = IrregularConfig::paper_connected(8, seed)
                .generate()
                .unwrap();
            for s in t.switch_ids() {
                assert_eq!(t.switch_degree(s), 6);
            }
        }
    }

    #[test]
    fn rejects_infeasible_configs() {
        assert!(IrregularConfig {
            switches: 4,
            inter_switch_links: 4, // ≥ switches: impossible simple graph
            hosts_per_switch: 4,
            seed: 0
        }
        .generate()
        .is_err());
        assert!(IrregularConfig {
            switches: 1,
            inter_switch_links: 1,
            hosts_per_switch: 4,
            seed: 0
        }
        .generate()
        .is_err());
        assert!(IrregularConfig {
            switches: 3,
            inter_switch_links: 1, // odd stub count
            hosts_per_switch: 1,
            seed: 0
        }
        .generate()
        .is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Any seed yields a valid, connected, k-regular topology.
        #[test]
        fn prop_generator_respects_constraints(seed in any::<u64>(), size_idx in 0usize..3, k_idx in 0usize..2) {
            let n = [8usize, 16, 32][size_idx];
            let k = [4usize, 6][k_idx];
            let cfg = IrregularConfig { switches: n, inter_switch_links: k, hosts_per_switch: 4, seed };
            let t = cfg.generate().unwrap();
            prop_assert!(t.is_connected());
            for s in t.switch_ids() {
                prop_assert_eq!(t.switch_degree(s), k);
            }
            prop_assert_eq!(t.num_switch_links(), n * k / 2);
        }
    }
}
