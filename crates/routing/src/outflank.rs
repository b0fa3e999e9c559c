//! OutFlank-style escape routing for 2-D tori (after arXiv:1310.7453,
//! "OFAR"-family routing on tori): a deterministic, VC-free escape
//! layer that never crosses a wrap-around ("dateline") link.
//!
//! The classic problem with torus escape layers is that rings deadlock:
//! dimension-order over the *wrap-around* links creates a credit cycle
//! per ring, conventionally broken with an extra virtual channel per
//! dateline crossing. IBA switches give us no routing-relevant VCs to
//! spare (the paper's FA mechanism already spends the VL split on
//! adaptive-vs-escape separation), so this engine takes the other exit:
//! the escape layer simply *never uses the wrap-around links*. Routing
//! X-first-then-Y over the mesh sub-graph is plain dimension-order
//! routing on a mesh, whose channel-dependency graph is acyclic by the
//! standard turn argument — certified here by construction *and* by
//! [`certify_engine`](crate::engine::certify_engine) like every other
//! engine.
//!
//! The adaptive (minimal) layer above is free to cross datelines: FA's
//! deadlock argument only needs the escape layer to be acyclic and
//! always available. That is exactly the OutFlank trade — escape paths
//! are longer (up to `rows + cols − 2` hops instead of the torus
//! diameter), but they are rarely taken under load, while minimal
//! adaptive options exploit the full torus bisection.
//!
//! The engine infers the `rows × cols` geometry from the wiring (ids
//! are row-major, as produced by `iba_topology::regular::torus2d`) and
//! rejects anything that is not a 2-D torus with `rows, cols ≥ 3`.

use crate::columns::HopColumns;
use crate::engine::EscapeEngine;
use iba_core::{IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// Dateline-free dimension-order escape routing on a 2-D torus.
#[derive(Clone, Debug)]
pub struct OutflankRouting {
    rows: usize,
    cols: usize,
    /// Output port of `s` towards destination `t`.
    next_hop: HopColumns,
}

impl OutflankRouting {
    /// Compile the engine, inferring the torus geometry from the wiring.
    pub(crate) fn build(topo: &Topology) -> Result<OutflankRouting, IbaError> {
        let (rows, cols) = infer_geometry(topo).ok_or_else(|| {
            IbaError::InvalidTopology(
                "outflank escape requires a row-major 2-D torus (rows, cols >= 3)".into(),
            )
        })?;
        let n = rows * cols;
        let mut next_hop = HopColumns::new(n);
        for t in 0..n {
            let (tr, tc) = (t / cols, t % cols);
            for s in 0..n {
                if s == t {
                    continue;
                }
                let (r, c) = (s / cols, s % cols);
                // X first, then Y — always through the mesh sub-graph
                // (no index ever wraps), so no dateline is crossed.
                let neighbor = if c != tc {
                    r * cols + if tc > c { c + 1 } else { c - 1 }
                } else {
                    (if tr > r { r + 1 } else { r - 1 }) * cols + c
                };
                let port = topo
                    .port_towards(SwitchId(s as u16), SwitchId(neighbor as u16))
                    .ok_or_else(|| {
                        IbaError::InvalidTopology(format!(
                            "torus wiring lacks the {s}→{neighbor} mesh link"
                        ))
                    })?;
                next_hop.set(SwitchId(s as u16), SwitchId(t as u16), port);
            }
        }
        Ok(OutflankRouting {
            rows,
            cols,
            next_hop,
        })
    }

    /// The inferred geometry `(rows, cols)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// Smallest-rows-first factorization of the switch count whose row-major
/// torus wiring matches `topo` exactly. Non-square tori admit only one
/// valid factorization (the neighbor relation differs); square tori are
/// symmetric and the scan order keeps the choice deterministic.
fn infer_geometry(topo: &Topology) -> Option<(usize, usize)> {
    let n = topo.num_switches();
    (3..=n / 3)
        .filter(|&rows| n.is_multiple_of(rows) && n / rows >= 3)
        .map(|rows| (rows, n / rows))
        .find(|&(rows, cols)| wiring_matches(topo, rows, cols))
}

fn wiring_matches(topo: &Topology, rows: usize, cols: usize) -> bool {
    // A torus has exactly 2 links per switch-pair-free dimension step;
    // extra or missing links disqualify the shape outright.
    if topo.num_switch_links() != 2 * rows * cols {
        return false;
    }
    for r in 0..rows {
        for c in 0..cols {
            let s = SwitchId((r * cols + c) as u16);
            let right = SwitchId((r * cols + (c + 1) % cols) as u16);
            let down = SwitchId(((r + 1) % rows * cols + c) as u16);
            if topo.port_towards(s, right).is_none() || topo.port_towards(s, down).is_none() {
                return false;
            }
        }
    }
    true
}

impl EscapeEngine for OutflankRouting {
    const NAME: &'static str = "outflank";

    fn build(topo: &Topology) -> Result<Self, IbaError> {
        OutflankRouting::build(topo)
    }

    fn build_with_root(topo: &Topology, root: SwitchId) -> Result<Self, IbaError> {
        // Dimension-order routing has no root; validate the id so a
        // stale anchor from another topology is still caught.
        if root.index() >= topo.num_switches() {
            return Err(IbaError::InvalidConfig(format!(
                "root {root} out of range for {} switches",
                topo.num_switches()
            )));
        }
        OutflankRouting::build(topo)
    }

    fn root(&self) -> SwitchId {
        SwitchId(0)
    }

    fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
        self.next_hop.get(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::certify_engine;
    use iba_topology::{regular, IrregularConfig};

    #[test]
    fn escape_paths_are_dateline_free_dimension_order() {
        let topo = regular::torus2d(4, 5, 1).unwrap();
        let rt = OutflankRouting::build(&topo).unwrap();
        assert_eq!(rt.geometry(), (4, 5));
        let (rows, cols) = rt.geometry();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    assert!(rt.next_hop(s, t).is_none());
                    continue;
                }
                let path = rt.path(&topo, s, t).unwrap();
                // Mesh-restricted DOR length: coordinate deltas without
                // wrap-around.
                let (r, c) = (s.index() / cols, s.index() % cols);
                let (tr, tc) = (t.index() / cols, t.index() % cols);
                let expect = r.abs_diff(tr) + c.abs_diff(tc);
                assert_eq!(path.len() - 1, expect, "{s}→{t} not mesh-DOR");
                // No hop ever crosses a dateline (index wrap in either
                // dimension).
                for w in path.windows(2) {
                    let (ar, ac) = (w[0].index() / cols, w[0].index() % cols);
                    let (br, bc) = (w[1].index() / cols, w[1].index() % cols);
                    assert!(
                        ar.abs_diff(br) + ac.abs_diff(bc) == 1,
                        "{s}→{t} crossed a dateline at {}→{}",
                        w[0],
                        w[1]
                    );
                }
                let _ = rows;
            }
        }
    }

    #[test]
    fn certified_acyclic_on_square_and_rectangular_tori() {
        for (rows, cols) in [(3, 3), (4, 4), (3, 5), (8, 8)] {
            let topo = regular::torus2d(rows, cols, 2).unwrap();
            let rt = OutflankRouting::build(&topo).unwrap();
            certify_engine(&topo, &rt).unwrap();
        }
    }

    #[test]
    fn rectangular_geometry_is_inferred_correctly() {
        // 12 switches factor as 3×4 and 4×3; only the wired one matches.
        let topo = regular::torus2d(3, 4, 1).unwrap();
        assert_eq!(OutflankRouting::build(&topo).unwrap().geometry(), (3, 4));
        let topo = regular::torus2d(4, 3, 1).unwrap();
        assert_eq!(OutflankRouting::build(&topo).unwrap().geometry(), (4, 3));
    }

    #[test]
    fn non_torus_topologies_are_rejected() {
        for topo in [
            IrregularConfig::paper(16, 1).generate().unwrap(),
            regular::mesh2d(4, 4, 1).unwrap(),
            regular::ring(9, 1).unwrap(),
            regular::hypercube(4, 1).unwrap(),
        ] {
            assert!(
                OutflankRouting::build(&topo).is_err(),
                "accepted a non-torus with {} switches",
                topo.num_switches()
            );
        }
    }

    #[test]
    fn root_is_ignored_but_validated() {
        let topo = regular::torus2d(3, 3, 1).unwrap();
        let a = <OutflankRouting as EscapeEngine>::build_with_root(&topo, SwitchId(5)).unwrap();
        let b = OutflankRouting::build(&topo).unwrap();
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                assert_eq!(a.next_hop(s, t), b.next_hop(s, t));
            }
        }
        assert!(<OutflankRouting as EscapeEngine>::build_with_root(&topo, SwitchId(99)).is_err());
    }
}
