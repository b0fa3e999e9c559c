//! Unified topology specification.
//!
//! The experiment harness, the routing-engine zoo and the test suite all
//! need to name a fabric shape *as data* — sweep over it, print it in a
//! report ([`TopologySpec::name`]) — instead of calling one of the
//! per-shape generator functions directly. [`TopologySpec`] is that
//! name: one enum variant per generator, with
//! [`TopologySpec::generate`] dispatching to the existing generators in
//! [`crate::irregular`] and [`crate::regular`], which remain the single
//! source of wiring truth — the spec layer adds no wiring of its own
//! except the [`TopologySpec::Dragonfly`] generator, which lives here.
//!
//! The `seed` parameter only influences the [`TopologySpec::Irregular`]
//! variant (the paper's random ensembles); the regular shapes are fully
//! determined by their parameters and ignore it, so a `(spec, seed)`
//! pair is always a complete, reproducible fabric description.

use crate::graph::{Topology, TopologyBuilder};
use crate::irregular::IrregularConfig;
use crate::regular;
use iba_core::{IbaError, SwitchId};

/// A complete description of a fabric shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// The paper's random irregular fabric (§5.1): fixed switch degree,
    /// single links between neighbors, seeded.
    Irregular {
        /// Number of switches.
        switches: usize,
        /// Inter-switch links per switch (the paper uses 4 or 6).
        inter_switch_links: usize,
        /// Hosts attached to every switch (the paper uses 4).
        hosts_per_switch: usize,
    },
    /// A bidirectional ring.
    Ring {
        /// Number of switches (≥ 3).
        switches: usize,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
    /// A linear chain.
    Chain {
        /// Number of switches (≥ 2).
        switches: usize,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
    /// A `rows × cols` 2-D mesh.
    Mesh2D {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
    /// A `rows × cols` 2-D torus (`rows, cols ≥ 3`).
    Torus2D {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
    /// A hypercube of `2^dim` switches.
    Hypercube {
        /// Dimension (1..=10).
        dim: u32,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
    /// A fully connected switch graph.
    FullMesh {
        /// Number of switches (≥ 2).
        switches: usize,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
    /// A canonical one-level dragonfly: `groups` groups of
    /// `switches_per_group` switches, complete graph inside each group,
    /// exactly one global link between every pair of groups, spread
    /// round-robin over each group's `global_links_per_switch ×
    /// switches_per_group` global ports.
    Dragonfly {
        /// Number of groups (≥ 2).
        groups: usize,
        /// Switches per group (intra-group complete graph).
        switches_per_group: usize,
        /// Global-link ports per switch.
        global_links_per_switch: usize,
        /// Hosts attached to every switch.
        hosts_per_switch: usize,
    },
}

impl TopologySpec {
    /// Generate the fabric. `seed` only affects [`Self::Irregular`].
    pub fn generate(&self, seed: u64) -> Result<Topology, IbaError> {
        match *self {
            TopologySpec::Irregular {
                switches,
                inter_switch_links,
                hosts_per_switch,
            } => IrregularConfig {
                switches,
                inter_switch_links,
                hosts_per_switch,
                seed,
            }
            .generate(),
            TopologySpec::Ring {
                switches,
                hosts_per_switch,
            } => regular::ring(switches, hosts_per_switch),
            TopologySpec::Chain {
                switches,
                hosts_per_switch,
            } => regular::chain(switches, hosts_per_switch),
            TopologySpec::Mesh2D {
                rows,
                cols,
                hosts_per_switch,
            } => regular::mesh2d(rows, cols, hosts_per_switch),
            TopologySpec::Torus2D {
                rows,
                cols,
                hosts_per_switch,
            } => regular::torus2d(rows, cols, hosts_per_switch),
            TopologySpec::Hypercube {
                dim,
                hosts_per_switch,
            } => regular::hypercube(dim, hosts_per_switch),
            TopologySpec::FullMesh {
                switches,
                hosts_per_switch,
            } => regular::complete(switches, hosts_per_switch),
            TopologySpec::Dragonfly {
                groups,
                switches_per_group,
                global_links_per_switch,
                hosts_per_switch,
            } => dragonfly(
                groups,
                switches_per_group,
                global_links_per_switch,
                hosts_per_switch,
            ),
        }
    }

    /// Compact stable name for reports and result files, e.g.
    /// `irregular16x4`, `torus8x8`, `fullmesh64`, `dragonfly9x3`.
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::Irregular {
                switches,
                inter_switch_links,
                ..
            } => format!("irregular{switches}x{inter_switch_links}"),
            TopologySpec::Ring { switches, .. } => format!("ring{switches}"),
            TopologySpec::Chain { switches, .. } => format!("chain{switches}"),
            TopologySpec::Mesh2D { rows, cols, .. } => format!("mesh{rows}x{cols}"),
            TopologySpec::Torus2D { rows, cols, .. } => format!("torus{rows}x{cols}"),
            TopologySpec::Hypercube { dim, .. } => format!("hypercube{dim}"),
            TopologySpec::FullMesh { switches, .. } => format!("fullmesh{switches}"),
            TopologySpec::Dragonfly {
                groups,
                switches_per_group,
                ..
            } => format!("dragonfly{groups}x{switches_per_group}"),
        }
    }
}

/// The canonical one-level dragonfly. Group `x`'s global slot for peer
/// group `y` is `y` when `y < x`, else `y − 1`; slot `k` lands on switch
/// `k / h` of the group (`h` = global links per switch). Requires
/// `groups − 1 ≤ switches_per_group × h` so every group can reach every
/// other; surplus global ports stay unwired (real installations leave
/// expansion ports open too, and the builder tolerates unused ports).
fn dragonfly(
    groups: usize,
    a: usize,
    h: usize,
    hosts_per_switch: usize,
) -> Result<Topology, IbaError> {
    if groups < 2 || a < 1 || h < 1 {
        return Err(IbaError::InvalidConfig(
            "dragonfly needs groups >= 2, switches_per_group >= 1, global links >= 1".into(),
        ));
    }
    if groups - 1 > a * h {
        return Err(IbaError::InvalidConfig(format!(
            "dragonfly with {groups} groups needs {} global ports per group, has {}",
            groups - 1,
            a * h
        )));
    }
    let ports = (a - 1) + h + hosts_per_switch;
    let n = groups * a;
    let id = |g: usize, s: usize| SwitchId((g * a + s) as u16);
    let mut b = TopologyBuilder::new(n, ports);
    // Intra-group complete graphs.
    for g in 0..groups {
        for i in 0..a {
            for j in (i + 1)..a {
                b.connect(id(g, i), id(g, j))?;
            }
        }
    }
    // One global link per group pair.
    for gi in 0..groups {
        for gj in (gi + 1)..groups {
            let slot_i = gj - 1; // gj > gi, so peer index shifts down by one
            let slot_j = gi; // gi < gj, so peer index is used as-is
            b.connect(id(gi, slot_i / h), id(gj, slot_j / h))?;
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_generate_the_same_fabrics_as_the_direct_generators() {
        let spec = TopologySpec::Torus2D {
            rows: 4,
            cols: 4,
            hosts_per_switch: 2,
        };
        let a = spec.generate(0).unwrap();
        let b = regular::torus2d(4, 4, 2).unwrap();
        assert_eq!(a.num_switches(), b.num_switches());
        for s in a.switch_ids() {
            let na: Vec<_> = a.switch_neighbors(s).collect();
            let nb: Vec<_> = b.switch_neighbors(s).collect();
            assert_eq!(na, nb, "wiring differs at {s}");
        }
    }

    #[test]
    fn irregular_spec_respects_the_seed() {
        let spec = TopologySpec::Irregular {
            switches: 16,
            inter_switch_links: 4,
            hosts_per_switch: 4,
        };
        let a = spec.generate(1).unwrap();
        let b = spec.generate(1).unwrap();
        let c = spec.generate(2).unwrap();
        let wires = |t: &Topology| {
            t.switch_ids()
                .flat_map(|s| t.switch_neighbors(s).map(move |(p, n, pp)| (s, p, n, pp)))
                .collect::<Vec<_>>()
        };
        assert_eq!(wires(&a), wires(&b));
        assert_ne!(wires(&a), wires(&c));
    }

    #[test]
    fn names_are_stable() {
        let cases: &[(TopologySpec, &str)] = &[
            (
                TopologySpec::Irregular {
                    switches: 16,
                    inter_switch_links: 4,
                    hosts_per_switch: 4,
                },
                "irregular16x4",
            ),
            (
                TopologySpec::Torus2D {
                    rows: 8,
                    cols: 8,
                    hosts_per_switch: 4,
                },
                "torus8x8",
            ),
            (
                TopologySpec::FullMesh {
                    switches: 64,
                    hosts_per_switch: 4,
                },
                "fullmesh64",
            ),
            (
                TopologySpec::Dragonfly {
                    groups: 9,
                    switches_per_group: 3,
                    global_links_per_switch: 3,
                    hosts_per_switch: 4,
                },
                "dragonfly9x3",
            ),
        ];
        for (spec, name) in cases {
            assert_eq!(spec.name(), *name);
            spec.generate(7).unwrap();
        }
    }

    #[test]
    fn dragonfly_structure() {
        // 6 groups × 4 switches, 2 global ports per switch.
        let spec = TopologySpec::Dragonfly {
            groups: 6,
            switches_per_group: 4,
            global_links_per_switch: 2,
            hosts_per_switch: 2,
        };
        let t = spec.generate(0).unwrap();
        assert_eq!(t.num_switches(), 24);
        // links: 6 groups × C(4,2) intra + C(6,2) global.
        assert_eq!(t.num_switch_links(), 6 * 6 + 15);
        assert!(t.is_connected());
        // Intra-group completeness.
        for g in 0..6 {
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    assert!(t
                        .port_towards(SwitchId((g * 4 + i) as u16), SwitchId((g * 4 + j) as u16))
                        .is_some());
                }
            }
        }
        // Diameter ≤ 3: local → global → local.
        let d = t.switch_distances();
        let diam = d.iter().flatten().max().copied().unwrap();
        assert!(diam <= 3, "dragonfly diameter {diam}");
    }

    /// One spec per generator shape whose switches need `ports` ports.
    fn shapes_with_ports(ports: usize) -> [TopologySpec; 8] {
        [
            TopologySpec::Irregular {
                switches: 8,
                inter_switch_links: 4,
                hosts_per_switch: ports - 4,
            },
            TopologySpec::Ring {
                switches: 3,
                hosts_per_switch: ports - 2,
            },
            TopologySpec::Chain {
                switches: 2,
                hosts_per_switch: ports - 2,
            },
            TopologySpec::Mesh2D {
                rows: 2,
                cols: 2,
                hosts_per_switch: ports - 4,
            },
            TopologySpec::Torus2D {
                rows: 3,
                cols: 3,
                hosts_per_switch: ports - 4,
            },
            TopologySpec::Hypercube {
                dim: 2,
                hosts_per_switch: ports - 2,
            },
            TopologySpec::FullMesh {
                switches: 2,
                hosts_per_switch: ports - 1,
            },
            TopologySpec::Dragonfly {
                groups: 2,
                switches_per_group: 1,
                global_links_per_switch: 1,
                hosts_per_switch: ports - 1,
            },
        ]
    }

    #[test]
    fn every_shape_refuses_more_ports_than_a_port_number_holds() {
        for spec in shapes_with_ports(256) {
            let err = spec.generate(1).unwrap_err().to_string();
            assert!(
                err.contains("too many ports per switch"),
                "{}: {err}",
                spec.name()
            );
        }
        for spec in shapes_with_ports(255) {
            let topo = spec.generate(1).unwrap();
            assert_eq!(topo.ports_per_switch(), 255, "{}", spec.name());
        }
    }

    #[test]
    fn dragonfly_rejects_undersized_global_port_budget() {
        // 9 groups need 8 global ports per group; 2×3 = 6 is too few.
        let spec = TopologySpec::Dragonfly {
            groups: 9,
            switches_per_group: 2,
            global_links_per_switch: 3,
            hosts_per_switch: 1,
        };
        assert!(spec.generate(0).is_err());
        assert!(TopologySpec::Dragonfly {
            groups: 1,
            switches_per_group: 4,
            global_links_per_switch: 1,
            hosts_per_switch: 1,
        }
        .generate(0)
        .is_err());
    }
}
