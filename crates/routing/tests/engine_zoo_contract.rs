//! The engine-zoo contract: every [`EscapeEngine`] in the tree, on
//! every topology shape it claims, must produce escape chains the
//! channel-dependency certifier accepts — at the engine level
//! (`certify_engine`) and through the full LMC-interleaved FA tables
//! (`FaRouting::certify_escape` over the materialized escape offset).
//! Plus the determinism pin for the up\*/down\* root selection that
//! `UpDownRouting::build` documents.

use iba_core::{Lid, PortIndex, SwitchId};
use iba_routing::{
    certify_engine, EscapeEngine, FaRouting, FullMeshRouting, OutflankRouting, RoutingConfig,
    UpDownRouting,
};
use iba_topology::{Topology, TopologySpec};
use proptest::prelude::*;

/// Certify the escape offset of fully built FA tables: the exact
/// next-hop function the simulator's in-run certification uses.
fn certify_fa_tables<E: EscapeEngine>(topo: &Topology, fa: &FaRouting<E>) {
    fa.certify_escape(topo, false)
        .unwrap_or_else(|e| panic!("{} escape tables not certifiable: {e}", E::NAME));
}

/// The shapes every engine must handle (up\*/down\* claims all of them).
fn universal_specs() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Irregular {
            switches: 8,
            inter_switch_links: 3,
            hosts_per_switch: 2,
        },
        TopologySpec::Irregular {
            switches: 16,
            inter_switch_links: 4,
            hosts_per_switch: 4,
        },
        TopologySpec::Ring {
            switches: 6,
            hosts_per_switch: 1,
        },
        TopologySpec::Chain {
            switches: 5,
            hosts_per_switch: 1,
        },
        TopologySpec::Mesh2D {
            rows: 3,
            cols: 4,
            hosts_per_switch: 1,
        },
        TopologySpec::Torus2D {
            rows: 4,
            cols: 4,
            hosts_per_switch: 2,
        },
        TopologySpec::Hypercube {
            dim: 3,
            hosts_per_switch: 1,
        },
        TopologySpec::FullMesh {
            switches: 6,
            hosts_per_switch: 2,
        },
        TopologySpec::Dragonfly {
            groups: 5,
            switches_per_group: 4,
            global_links_per_switch: 1,
            hosts_per_switch: 2,
        },
    ]
}

#[test]
fn roots_are_deterministic_across_topology_specs() {
    // The documented rule: minimum eccentricity, lowest id among ties.
    // Two independent generations of the same spec must elect the same
    // root, and that root must satisfy the rule computed from scratch.
    for spec in universal_specs() {
        let a = spec.generate(7).unwrap();
        let b = spec.generate(7).unwrap();
        let ra = UpDownRouting::build(&a).unwrap().root();
        let rb = UpDownRouting::build(&b).unwrap().root();
        assert_eq!(ra, rb, "{}: root not reproducible", spec.name());

        let dist = a.switch_distances();
        let ecc = |s: usize| *dist[s].iter().max().unwrap();
        let best = (0..a.num_switches()).map(ecc).min().unwrap();
        assert_eq!(
            ecc(ra.index()),
            best,
            "{}: root is not minimum-eccentricity",
            spec.name()
        );
        let lowest_tied = (0..a.num_switches()).find(|&s| ecc(s) == best).unwrap();
        assert_eq!(
            ra,
            SwitchId(lowest_tied as u16),
            "{}: tie not broken towards the lowest id",
            spec.name()
        );
    }
}

#[test]
fn updown_certifies_on_every_spec() {
    for spec in universal_specs() {
        let topo = spec.generate(11).unwrap();
        let rt = UpDownRouting::build(&topo).unwrap();
        certify_engine(&topo, &rt).unwrap_or_else(|e| panic!("updown on {}: {e}", spec.name()));
    }
}

#[test]
fn outflank_certifies_at_scale() {
    // 64-switch torus: the headline zoo size, plus a rectangular one.
    for (rows, cols) in [(8, 8), (4, 6)] {
        let topo = TopologySpec::Torus2D {
            rows,
            cols,
            hosts_per_switch: 2,
        }
        .generate(0)
        .unwrap();
        let rt = OutflankRouting::build(&topo).unwrap();
        assert_eq!(rt.geometry(), (rows, cols));
        certify_engine(&topo, &rt).unwrap();
        let fa =
            FaRouting::<OutflankRouting>::build_with_engine(&topo, RoutingConfig::two_options())
                .unwrap();
        certify_fa_tables(&topo, &fa);
    }
}

#[test]
fn fullmesh_certifies_at_scale() {
    // K64 with 4 hosts per switch: 67 used ports per switch.
    let topo = TopologySpec::FullMesh {
        switches: 64,
        hosts_per_switch: 4,
    }
    .generate(0)
    .unwrap();
    let rt = FullMeshRouting::build(&topo).unwrap();
    certify_engine(&topo, &rt).unwrap();
    let fa = FaRouting::<FullMeshRouting>::build_with_engine(&topo, RoutingConfig::two_options())
        .unwrap();
    certify_fa_tables(&topo, &fa);
}

/// One table access decoded from the public table alone — the uncached
/// statement of what `route` must return: the interleaved group
/// read at an adaptive-capable switch, the exact linear entry at a plain
/// one, `None` where the escape entry is unprogrammed.
fn decode_from_table<E: EscapeEngine>(
    fa: &FaRouting<E>,
    s: SwitchId,
    dlid: Lid,
) -> Option<(PortIndex, Vec<PortIndex>)> {
    if fa.switch_adaptive(s) {
        let access = fa.table(s).lookup(dlid);
        access.escape.map(|escape| (escape, access.adaptive))
    } else {
        fa.table(s).get(dlid).map(|escape| (escape, Vec::new()))
    }
}

/// The route cache is the table: every switch, every DLID of the table
/// and a stretch past its end.
fn assert_cache_is_the_table<E: EscapeEngine>(topo: &Topology, fa: &FaRouting<E>, what: &str) {
    let mut programmed = 0usize;
    let mut distinct = std::collections::HashSet::new();
    for s in topo.switch_ids() {
        for raw in 0..fa.lid_map().table_len() as u32 + 70 {
            let Ok(raw) = u16::try_from(raw) else { break };
            let cached = fa
                .route(s, Lid(raw))
                .map(|r| (r.escape, r.adaptive.to_vec()));
            match decode_from_table(fa, s, Lid(raw)) {
                Some(decoded) => {
                    assert_eq!(
                        cached.as_ref().ok(),
                        Some(&decoded),
                        "{what}: {s} lid {raw}"
                    );
                    programmed += 1;
                    distinct.insert(decoded);
                }
                None => assert!(
                    matches!(cached, Err(iba_core::IbaError::UnknownLid(l)) if l == raw),
                    "{what}: {s} lid {raw} is unprogrammed but cached as {cached:?}"
                ),
            }
        }
    }
    let (entries, shared) = fa.route_cache_sharing();
    assert_eq!(entries, programmed, "{what}: programmed entries");
    assert!(
        (1..=distinct.len()).contains(&shared),
        "{what}: {shared} pool slots in use for {} distinct decodes",
        distinct.len()
    );
}

fn cache_is_the_table_on_every_build<E: EscapeEngine>(spec: TopologySpec) {
    let topo = spec.generate(3).unwrap();
    let mixed: Vec<bool> = (0..topo.num_switches()).map(|i| i % 3 != 1).collect();
    for options in [1u16, 2, 4] {
        let cfg = RoutingConfig::with_options(options);
        let what = |build: &str| format!("{} over {} x{options} {build}", E::NAME, spec.name());
        let plain = FaRouting::<E>::build_with_engine(&topo, cfg).unwrap();
        assert_cache_is_the_table(&topo, &plain, &what("plain"));
        let fa = FaRouting::<E>::build_mixed_with_engine(&topo, cfg, &mixed).unwrap();
        assert_cache_is_the_table(&topo, &fa, &what("mixed"));
        let fa = FaRouting::<E>::build_apm_with_engine(&topo, cfg).unwrap();
        assert_cache_is_the_table(&topo, &fa, &what("apm"));
        let fa = FaRouting::<E>::build_source_multipath_with_engine(&topo, cfg).unwrap();
        assert_cache_is_the_table(&topo, &fa, &what("multipath"));

        // After a link failure, on the routing a re-sweep installs, on
        // the first link whose loss leaves a shape the engine still
        // accepts.
        let rebuilt = topo.switch_ids().find_map(|a| {
            (topo.switch_neighbors(a).filter(|&(_, b, _)| a.0 < b.0)).find_map(|(_, b, _)| {
                let degraded = topo.without_links(|s, _, peer| (s, peer) == (a, b)).ok()?;
                let rebuilt = plain.resweep(&degraded).ok()?;
                Some((degraded, rebuilt, format!("rebuilt {a}-{b}")))
            })
        });
        if let Some((degraded, rebuilt, link)) = &rebuilt {
            assert_cache_is_the_table(degraded, rebuilt, &what(link));
        }
        if E::NAME == UpDownRouting::NAME {
            assert!(rebuilt.is_some(), "{}", what("a removable link"));
        }
    }
}

#[test]
fn route_cache_is_the_table_for_every_engine_and_build() {
    cache_is_the_table_on_every_build::<UpDownRouting>(TopologySpec::Irregular {
        switches: 16,
        inter_switch_links: 4,
        hosts_per_switch: 3,
    });
    cache_is_the_table_on_every_build::<OutflankRouting>(TopologySpec::Torus2D {
        rows: 3,
        cols: 4,
        hosts_per_switch: 2,
    });
    cache_is_the_table_on_every_build::<FullMeshRouting>(TopologySpec::FullMesh {
        switches: 7,
        hosts_per_switch: 2,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FA-over-up*/down* tables certify on random irregular fabrics for
    /// every LMC the table supports (1, 2 and 4 routing options).
    #[test]
    fn fa_over_updown_certifies(
        switches in 6usize..20,
        degree in 2usize..5,
        hosts in 1usize..4,
        options_log2 in 0u32..3,
        seed in 0u64..200,
    ) {
        // A degree-regular graph needs an even switches × degree product.
        let degree = if switches % 2 == 1 && degree % 2 == 1 {
            degree + 1
        } else {
            degree
        };
        let spec = TopologySpec::Irregular {
            switches,
            inter_switch_links: degree,
            hosts_per_switch: hosts,
        };
        let topo = spec.generate(seed).unwrap();
        let cfg = RoutingConfig::with_options(1 << options_log2);
        let fa = FaRouting::build(&topo, cfg).unwrap();
        certify_fa_tables(&topo, &fa);
    }

    /// FA-over-OutFlank tables certify on tori of every aspect ratio
    /// and LMC.
    #[test]
    fn fa_over_outflank_certifies(
        rows in 3usize..7,
        cols in 3usize..7,
        hosts in 1usize..3,
        options_log2 in 0u32..3,
    ) {
        let spec = TopologySpec::Torus2D { rows, cols, hosts_per_switch: hosts };
        let topo = spec.generate(0).unwrap();
        let cfg = RoutingConfig::with_options(1 << options_log2);
        let fa = FaRouting::<OutflankRouting>::build_with_engine(&topo, cfg).unwrap();
        certify_fa_tables(&topo, &fa);
    }

    /// FA-over-full-mesh tables certify on complete graphs of every
    /// size and LMC.
    #[test]
    fn fa_over_fullmesh_certifies(
        switches in 2usize..16,
        hosts in 1usize..4,
        options_log2 in 0u32..3,
    ) {
        let spec = TopologySpec::FullMesh { switches, hosts_per_switch: hosts };
        let topo = spec.generate(0).unwrap();
        let cfg = RoutingConfig::with_options(1 << options_log2);
        let fa = FaRouting::<FullMeshRouting>::build_with_engine(&topo, cfg).unwrap();
        certify_fa_tables(&topo, &fa);
    }
}
