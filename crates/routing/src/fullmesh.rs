//! Direct (single-hop) escape routing for fully connected switch
//! graphs — the VC-free full-mesh discipline of the recent HOTI-line
//! work on flattened all-to-all fabrics.
//!
//! On a complete switch graph every destination is one hop away, so the
//! escape layer can simply take the direct link. Each escape chain is
//! then at most `switch link → host link`, and a channel-dependency
//! edge always points from an inter-switch link to a *terminal* host
//! link — the dependency graph is trivially acyclic with **no virtual
//! channels at all**. Up\*/down\* on the same graph also degenerates to
//! single-hop routes (a lone link move is a legal up or down move), so
//! the two engines agree on every path; what the direct engine removes
//! is the spanning tree, root election and level bookkeeping
//! altogether. The engine-zoo run doubles as a calibration point: the
//! two must measure identically on a full mesh.
//!
//! The adaptive layer is unchanged FA: minimal options on a complete
//! graph are just the direct link, so FA-over-full-mesh degenerates to
//! direct routing with the escape/adaptive split only affecting VL
//! queue accounting — the interesting adaptivity on these fabrics would
//! come from non-minimal (UGAL-style) selection, which is out of scope
//! for the escape contract.

use crate::columns::HopColumns;
use crate::engine::EscapeEngine;
use iba_core::{IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// Direct one-hop escape routing on a complete switch graph.
#[derive(Clone, Debug)]
pub struct FullMeshRouting {
    /// The direct link port of `s` towards `t`.
    port: HopColumns,
}

impl FullMeshRouting {
    /// Compile the engine; errors unless the switch graph is complete.
    pub(crate) fn build(topo: &Topology) -> Result<FullMeshRouting, IbaError> {
        let n = topo.num_switches();
        if n < 2 {
            return Err(IbaError::InvalidTopology(
                "full-mesh escape needs at least 2 switches".into(),
            ));
        }
        let mut port = HopColumns::new(n);
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    continue;
                }
                let p = topo.port_towards(s, t).ok_or_else(|| {
                    IbaError::InvalidTopology(format!(
                        "full-mesh escape requires a complete switch graph (no {s}↔{t} link)"
                    ))
                })?;
                port.set(s, t, p);
            }
        }
        Ok(FullMeshRouting { port })
    }
}

impl EscapeEngine for FullMeshRouting {
    const NAME: &'static str = "fullmesh";

    fn build(topo: &Topology) -> Result<Self, IbaError> {
        FullMeshRouting::build(topo)
    }

    fn build_with_root(topo: &Topology, root: SwitchId) -> Result<Self, IbaError> {
        // Direct routing has no root; validate the id anyway.
        if root.index() >= topo.num_switches() {
            return Err(IbaError::InvalidConfig(format!(
                "root {root} out of range for {} switches",
                topo.num_switches()
            )));
        }
        FullMeshRouting::build(topo)
    }

    fn root(&self) -> SwitchId {
        SwitchId(0)
    }

    fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
        self.port.get(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::certify_engine;
    use crate::updown::UpDownRouting;
    use iba_topology::{regular, IrregularConfig};

    #[test]
    fn every_route_is_a_single_hop() {
        let topo = regular::complete(8, 2).unwrap();
        let rt = FullMeshRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    assert!(rt.next_hop(s, t).is_none());
                } else {
                    assert_eq!(rt.path(&topo, s, t).unwrap().len(), 2);
                }
            }
        }
        certify_engine(&topo, &rt).unwrap();
    }

    #[test]
    fn agrees_with_updown_paths_on_a_complete_graph() {
        // Calibration contract of the engine zoo: on a full mesh both
        // engines take the direct link for every pair (a lone up or
        // down move is a legal up*/down* path), so any measured
        // difference between them would be a harness bug.
        let topo = regular::complete(6, 1).unwrap();
        let direct = FullMeshRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    continue;
                }
                assert_eq!(direct.path(&topo, s, t).unwrap().len() - 1, 1);
                assert_eq!(
                    direct.next_hop(s, t),
                    updown.next_hop(s, t),
                    "{s}→{t}: engines disagree on a complete graph"
                );
            }
        }
    }

    #[test]
    fn incomplete_graphs_are_rejected() {
        for topo in [
            regular::ring(5, 1).unwrap(),
            regular::torus2d(3, 3, 1).unwrap(),
            IrregularConfig::paper(8, 3).generate().unwrap(),
        ] {
            assert!(FullMeshRouting::build(&topo).is_err());
        }
    }

    #[test]
    fn root_is_ignored_but_validated() {
        let topo = regular::complete(4, 1).unwrap();
        assert!(<FullMeshRouting as EscapeEngine>::build_with_root(&topo, SwitchId(3)).is_ok());
        assert!(<FullMeshRouting as EscapeEngine>::build_with_root(&topo, SwitchId(4)).is_err());
    }
}
