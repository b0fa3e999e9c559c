//! Golden pin: FA-over-up\*/down\* forwarding tables are byte-identical
//! to the pre-`EscapeEngine`-refactor output.
//!
//! The digests below were captured from the tree *before* the escape
//! layer was extracted behind the `EscapeEngine` trait. Any refactor of
//! `FaRouting`, `UpDownRouting` or the LID interleaving that changes a
//! single programmed entry on these fixed topologies fails this test —
//! the trait boundary must be a pure reshuffle, not a behaviour change.

use iba_core::SwitchId;
use iba_routing::{FaRouting, RoutingConfig};
use iba_topology::{Topology, TopologySpec};

/// FNV-1a over every switch's linear table view, in switch order.
/// Unprogrammed entries hash as 0xFF, programmed ones as `port + 1`, so
/// hole patterns are pinned too.
fn lft_digest(topo: &Topology, fa: &FaRouting) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for s in topo.switch_ids() {
        for entry in fa.table(s).linear_view() {
            match entry {
                Some(p) => eat(p.0.wrapping_add(1)),
                None => eat(0xFF),
            }
        }
    }
    h
}

/// (switches, topology seed, table options, root override, expected digest)
const GOLDEN: &[(usize, u64, u16, Option<u16>, u64)] = &[
    (8, 3, 2, None, 0x991e5859010c0484),
    (16, 42, 2, None, 0xb0ac371bf2337c6b),
    (16, 42, 4, None, 0xb9f5cbc013756e6e),
    (32, 7, 2, None, 0x406d20f7d4c38da4),
    (32, 7, 4, Some(5), 0x3972eb6435317fa0),
    (64, 11, 2, None, 0xbf92ece6983756c4),
    // 256 switches are four pool items of the table compiler.
    (128, 5, 2, None, 0x452abbd3630b50ab),
    (256, 9, 2, None, 0x6b689f9f5f10aab9),
];

#[test]
fn fa_over_updown_lfts_match_pre_refactor_bytes() {
    let mut failures = Vec::new();
    for &(n, seed, options, root, expected) in GOLDEN {
        let topo = TopologySpec::Irregular {
            switches: n,
            inter_switch_links: 4,
            hosts_per_switch: 4,
        }
        .generate(seed)
        .unwrap();
        let config = RoutingConfig {
            table_options: options,
            seed: 0,
            root: root.map(SwitchId),
        };
        let fa = FaRouting::build(&topo, config).unwrap();
        let got = lft_digest(&topo, &fa);
        if got != expected {
            failures.push(format!(
                "    ({n}, {seed}, {options}, {root:?}, {got:#018x}),"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "LFT digests diverged from the pre-refactor pin; actual values:\n{}",
        failures.join("\n")
    );
}

/// The other three builders, pinned at 32 switches: APM's two path
/// sets, a mixed fabric's plain switches and source-selected multipath.
#[test]
fn apm_mixed_and_multipath_lfts_match_pinned_bytes() {
    let topo = TopologySpec::Irregular {
        switches: 32,
        inter_switch_links: 4,
        hosts_per_switch: 4,
    }
    .generate(7)
    .unwrap();
    let config = RoutingConfig::two_options();
    let caps: Vec<bool> = (0..32).map(|s| s % 3 != 1).collect();
    let builds = [
        (
            "apm",
            FaRouting::build_with_apm(&topo, config),
            0x60ff072b477639ad,
        ),
        (
            "mixed",
            FaRouting::build_mixed(&topo, config, &caps),
            0x32da89b215c4e39f,
        ),
        (
            "multipath",
            FaRouting::build_source_multipath(&topo, RoutingConfig::with_options(4)),
            0x8b78d4510f5a2aff,
        ),
    ];
    let mut failures = Vec::new();
    for (name, fa, expected) in builds {
        let got = lft_digest(&topo, &fa.unwrap());
        if got != expected {
            failures.push(format!("    (\"{name}\", ..., {got:#018x}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "builder LFT digests diverged; actual values:\n{}",
        failures.join("\n")
    );
}

/// The regular shapes are pinned too (the `TopologySpec` consolidation
/// must not perturb generator wiring order).
#[test]
fn regular_shape_lfts_match_pre_refactor_bytes() {
    let cases: &[(TopologySpec, u64)] = &[
        (
            TopologySpec::Ring {
                switches: 8,
                hosts_per_switch: 2,
            },
            0x7507ec3e6df5613c,
        ),
        (
            TopologySpec::Torus2D {
                rows: 4,
                cols: 4,
                hosts_per_switch: 2,
            },
            0xc8b9473f5a05edb3,
        ),
        (
            TopologySpec::Hypercube {
                dim: 3,
                hosts_per_switch: 2,
            },
            0xd6ccab3a4eeacbe0,
        ),
        (
            TopologySpec::FullMesh {
                switches: 6,
                hosts_per_switch: 2,
            },
            0x1130c1989397c839,
        ),
    ];
    let mut failures = Vec::new();
    for (spec, expected) in cases {
        let name = spec.name();
        let topo: Topology = spec.generate(0).unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let got = lft_digest(&topo, &fa);
        if got != *expected {
            failures.push(format!("    (\"{name}\", ..., {got:#018x}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "regular-shape LFT digests diverged; actual values:\n{}",
        failures.join("\n")
    );
}
