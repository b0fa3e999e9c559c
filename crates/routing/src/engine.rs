//! The pluggable escape-layer contract.
//!
//! The paper's fully adaptive mechanism (§3) is deliberately agnostic to
//! the deterministic sub-function it escapes into: any routing function
//! that (a) gives every switch a terminating deterministic next hop to
//! every destination switch and (b) induces an acyclic channel-dependency
//! graph can serve as the escape layer under the same LMC
//! virtual-addressing scheme. [`EscapeEngine`] captures exactly that
//! contract, so [`crate::fa::FaRouting`] — and everything above it: the
//! subnet manager's programmer, the simulator — is generic over the
//! escape layer.
//!
//! Three engines ship with the workspace:
//!
//! | engine | topology | escape discipline |
//! |---|---|---|
//! | [`crate::updown::UpDownRouting`] | any connected | up\* then down\* over a BFS spanning tree |
//! | [`crate::outflank::OutflankRouting`] | 2-D torus | dateline-free dimension-order (never crosses a wraparound link) |
//! | [`crate::fullmesh::FullMeshRouting`] | complete graph | direct one-hop delivery, no virtual channels needed |
//!
//! Every engine — built-in or external — is held to the same certifier:
//! [`crate::analysis::check_escape_routes`] walks the materialized
//! escape chains and Kahn-peels the channel-dependency graph. An engine
//! whose next hops fail that check is not a valid escape layer, however
//! plausible its construction argument; [`certify_engine`] packages the
//! call for engine authors.

use crate::analysis::check_escape_routes;
use iba_core::{IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// A deadlock-free deterministic escape layer.
///
/// The contract, in the order the stack relies on it:
///
/// 1. **Construction** — [`build`](Self::build) compiles the engine for
///    a topology; [`build_with_root`](Self::build_with_root) pins the
///    engine's *frame anchor* (the up\*/down\* spanning-tree root;
///    engines without a meaningful root accept any valid switch id and
///    may ignore it). Rebuilding with the same anchor must be
///    deterministic — byte-identical next hops — which is what makes
///    cross-sweep and cross-engine comparisons well-defined.
/// 2. **Routing** — [`next_hop`](Self::next_hop) is a pure function of
///    `(source switch, destination switch)`: IBA forwarding tables know
///    nothing about a packet's history, so the per-hop choices must
///    compose into terminating, deadlock-free paths *globally*.
/// 3. **Certification** — the materialized next hops must pass
///    [`check_escape_routes`]: every escape chain terminates at the
///    right host and the channel-dependency graph over directed links
///    is acyclic. [`FaRouting`](crate::fa::FaRouting) does not re-prove
///    an engine's paper argument; it checks the artifact.
///
/// Engines are value types the routing tables embed and the simulator
/// shares across threads, hence the `Clone + Send + Sync` supertraits.
pub trait EscapeEngine: Clone + Send + Sync + std::fmt::Debug + Sized + 'static {
    /// Short stable identifier (`"updown"`, `"outflank"`, `"fullmesh"`)
    /// used in experiment reports and engine matrices.
    const NAME: &'static str;

    /// Compile the engine for `topo`, choosing the frame anchor
    /// automatically.
    fn build(topo: &Topology) -> Result<Self, IbaError>;

    /// Compile with an explicit frame anchor. Engines for which the
    /// anchor is meaningless (e.g. dimension-order on a torus) validate
    /// the id and otherwise ignore it.
    fn build_with_root(topo: &Topology, root: SwitchId) -> Result<Self, IbaError>;

    /// The engine's frame anchor — re-building with
    /// [`build_with_root`](Self::build_with_root) at this switch must
    /// reproduce the engine exactly.
    fn root(&self) -> SwitchId;

    /// The output port `s` uses towards switch `t`; `None` when `s == t`
    /// (local delivery is the table builder's job, not the engine's).
    fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex>;

    /// *All* deterministic next-hop choices of `s` towards `t` such that
    /// any per-switch mixture of them still yields terminating,
    /// deadlock-free paths — the raw material of source-selected
    /// multipath. The default is the singleton chosen hop (always a
    /// safe mixture); engines with a real variant structure (up\*/down\*
    /// has one) override this.
    fn next_hop_variants(&self, topo: &Topology, s: SwitchId, t: SwitchId) -> Vec<PortIndex> {
        let _ = topo;
        if s == t {
            return Vec::new();
        }
        self.next_hop(s, t).into_iter().collect()
    }

    /// The full switch path `s → t` following the deterministic rule.
    /// Errors if the walk does not terminate within `2 × n + 2` hops
    /// (which would indicate a broken engine).
    fn path(&self, topo: &Topology, s: SwitchId, t: SwitchId) -> Result<Vec<SwitchId>, IbaError> {
        let mut path = vec![s];
        let mut cur = s;
        let bound = 2 * topo.num_switches() + 2;
        while cur != t {
            if path.len() > bound {
                return Err(IbaError::RoutingFailed(format!(
                    "path {s}→{t} did not terminate"
                )));
            }
            let port = self
                .next_hop(cur, t)
                .ok_or_else(|| IbaError::RoutingFailed("missing next hop".into()))?;
            let ep = topo
                .endpoint(cur, port)
                .ok_or_else(|| IbaError::RoutingFailed("next hop port unwired".into()))?;
            cur = ep
                .node
                .as_switch()
                .ok_or_else(|| IbaError::RoutingFailed("next hop is a host".into()))?;
            path.push(cur);
        }
        Ok(path)
    }
}

/// Certify `engine` against `topo`: every escape chain must terminate at
/// its destination host and the induced channel-dependency graph must be
/// acyclic. This is the gate every engine — shipped or external — must
/// pass before its tables are trusted; `FaRouting` materializes exactly
/// these next hops into the offset-0 (escape) rows.
pub fn certify_engine<E: EscapeEngine>(topo: &Topology, engine: &E) -> Result<(), IbaError> {
    check_escape_routes(topo, |s, h| {
        let (hsw, hp) = topo.host_attachment(h);
        if hsw == s {
            Some(hp)
        } else {
            engine.next_hop(s, hsw)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updown::UpDownRouting;
    use iba_topology::IrregularConfig;

    #[test]
    fn default_variants_are_the_singleton_hop() {
        let topo = IrregularConfig::paper(8, 1).generate().unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        // A probe type that only implements the required methods.
        #[derive(Clone, Debug)]
        struct Probe(UpDownRouting);
        impl EscapeEngine for Probe {
            const NAME: &'static str = "probe";
            fn build(topo: &Topology) -> Result<Self, IbaError> {
                UpDownRouting::build(topo).map(Probe)
            }
            fn build_with_root(topo: &Topology, root: SwitchId) -> Result<Self, IbaError> {
                UpDownRouting::build_with_root(topo, root).map(Probe)
            }
            fn root(&self) -> SwitchId {
                self.0.root()
            }
            fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
                self.0.next_hop(s, t)
            }
        }
        let probe = Probe(rt.clone());
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    assert!(probe.next_hop_variants(&topo, s, t).is_empty());
                } else {
                    assert_eq!(
                        probe.next_hop_variants(&topo, s, t),
                        vec![rt.next_hop(s, t).unwrap()]
                    );
                }
            }
        }
        certify_engine(&topo, &probe).unwrap();
    }
}
