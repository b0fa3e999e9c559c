//! Golden end-to-end test for SM fault recovery.
//!
//! A switch–switch link fails; the subnet manager re-sweeps the fabric
//! **purely over directed-route SMPs** — it never peeks at the physical
//! topology — and the reprogrammed forwarding tables must (a) describe a
//! connected fabric that simply lacks the dead link, (b) never forward
//! over the dead ports, and (c) keep the escape layer deadlock-free, as
//! certified by the channel-dependency check in `iba_routing::analysis`.

use iba_core::{PortIndex, SwitchId};
use iba_routing::{check_escape_routes, FaRouting, RoutingConfig};
use iba_sm::sm::BringUp;
use iba_sm::{ManagedFabric, Programmer, SubnetManager};
use iba_topology::{IrregularConfig, Topology, TopologyBuilder};
use std::collections::HashMap;

/// First switch–switch link whose removal keeps the fabric connected,
/// as `(a, port-on-a, b, port-on-b)`.
fn removable_link(topo: &Topology) -> (SwitchId, PortIndex, SwitchId, PortIndex) {
    for a in topo.switch_ids() {
        for (pa, b, pb) in topo.switch_neighbors(a) {
            if b.0 <= a.0 {
                continue;
            }
            if degraded(topo, a, b).is_ok() {
                return (a, pa, b, pb);
            }
        }
    }
    panic!("topology has no removable link");
}

/// Rebuild `topo` without the `a`–`b` link; errors when that would
/// disconnect the fabric.
fn degraded(topo: &Topology, a: SwitchId, b: SwitchId) -> Result<Topology, iba_core::IbaError> {
    let mut bld = TopologyBuilder::new(topo.num_switches(), topo.ports_per_switch().into());
    for s in topo.switch_ids() {
        for (p, peer, pp) in topo.switch_neighbors(s) {
            if peer.0 > s.0 && !(s == a && peer == b) {
                bld.connect_ports(s, p, peer, pp)?;
            }
        }
    }
    for h in topo.host_ids() {
        let (sw, port) = topo.host_attachment(h);
        bld.attach_host_at(sw, port)?;
    }
    bld.build()
}

/// Assert the re-swept, SMP-programmed tables route every pair without
/// the dead link and pass the escape deadlock check. All assertions read
/// the *agents'* LFTs (what the SMPs actually wrote), correlated to the
/// discovered topology by GUID.
fn assert_tables_sound(
    physical: &Topology,
    fabric: &ManagedFabric,
    up: &BringUp,
    dead: &[(SwitchId, PortIndex)],
) {
    // Discovered switch id -> physical agent, correlated by GUID.
    let mut agent_of = HashMap::new();
    for s in up.topology.switch_ids() {
        let guid = up.discovered.switches[s.index()].guid;
        let phys = physical
            .switch_ids()
            .find(|&p| fabric.agent(p).guid == guid)
            .expect("discovered GUID must belong to a physical agent");
        agent_of.insert(s, phys);
    }

    // (b) no LFT entry on the dead link's endpoints uses the dead port.
    for &(phys, port) in dead {
        let view = fabric.agent(phys).lft.linear_view();
        assert!(
            !view.contains(&Some(port)),
            "agent {phys} still forwards over dead {port}"
        );
    }

    // (c) every escape chain terminates and the dependency graph is
    // acyclic — read back from the programmed LFTs, not the SM's own
    // route computation.
    check_escape_routes(&up.topology, |s, h| {
        let dlid = up.routing.dlid(h, false).ok()?;
        fabric.agent(agent_of[&s]).lft.get(dlid)
    })
    .unwrap();
}

#[test]
fn resweep_after_link_failure_reprograms_sound_tables() {
    let physical = iba_topology::IrregularConfig::paper(16, 4)
        .generate()
        .unwrap();
    let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
    let sm = SubnetManager::new(RoutingConfig::two_options());

    let up1 = sm.initialize(&mut fabric).unwrap();
    assert!(up1.report.verified);
    let links_before = up1.discovered.link_count();

    // Kill a connectivity-preserving link, then re-sweep over SMPs only.
    let (a, pa, b, pb) = removable_link(&physical);
    fabric.fail_link(a, b).unwrap();
    let smps_before = fabric.smps_sent;
    let up2 = sm.initialize(&mut fabric).unwrap();
    assert!(up2.report.verified);
    assert!(fabric.smps_sent > smps_before, "re-sweep must use SMPs");

    // (a) same fabric minus exactly the dead link, still connected.
    assert_eq!(up2.topology.num_switches(), physical.num_switches());
    assert_eq!(up2.topology.num_hosts(), physical.num_hosts());
    assert_eq!(up2.discovered.link_count(), links_before - 1);
    assert!(up2.topology.is_connected());

    assert_tables_sound(&physical, &fabric, &up2, &[(a, pa), (b, pb)]);

    // Repair: restoring the link and sweeping again finds it back.
    fabric.restore_link(a, b).unwrap();
    let up3 = sm.initialize(&mut fabric).unwrap();
    assert_eq!(up3.discovered.link_count(), links_before);
    assert_tables_sound(&physical, &fabric, &up3, &[]);
}

#[test]
fn resweep_of_partitioning_failure_programs_reachable_half() {
    // chain(4): killing the middle link splits the fabric. The SM's
    // directed-route sweep can only reach its own partition, so the
    // re-sweep brings up a *smaller* but still sound subnet — it must
    // not invent routes across the dead link.
    let physical = iba_topology::TopologySpec::Chain {
        switches: 4,
        hosts_per_switch: 1,
    }
    .generate(0)
    .unwrap();
    let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
    let sm = SubnetManager::new(RoutingConfig::two_options());
    let up1 = sm.initialize(&mut fabric).unwrap();
    assert_eq!(up1.topology.num_switches(), 4);

    fabric.fail_link(SwitchId(1), SwitchId(2)).unwrap();
    let up2 = sm.initialize(&mut fabric).unwrap();
    assert_eq!(up2.topology.num_switches(), 2);
    assert_eq!(up2.topology.num_hosts(), 2);
    assert!(up2.report.verified);
    assert_tables_sound(&physical, &fabric, &up2, &[]);
}

/// Every switch–switch link whose removal keeps the fabric connected,
/// as `(a, port-on-a, b, port-on-b)`.
fn removable_links(topo: &Topology) -> Vec<(SwitchId, PortIndex, SwitchId, PortIndex)> {
    let mut links = Vec::new();
    for a in topo.switch_ids() {
        for (pa, b, pb) in topo.switch_neighbors(a) {
            if b.0 > a.0 && degraded(topo, a, b).is_ok() {
                links.push((a, pa, b, pb));
            }
        }
    }
    links
}

/// Fail the link between the *discovered* switches `a` and `b` on the
/// physical fabric (correlated by GUID) and re-sweep incrementally.
fn fail_and_resweep(
    sm: &SubnetManager,
    physical: &Topology,
    fabric: &mut ManagedFabric,
    programmer: &mut Programmer,
    up: &BringUp,
    (a, b): (SwitchId, SwitchId),
) -> Result<BringUp, iba_core::IbaError> {
    let physical_of = |s: SwitchId| {
        let guid = up.discovered.switches[s.index()].guid;
        (physical
            .switch_ids()
            .find(|&p| fabric.agent(p).guid == guid))
        .unwrap()
    };
    let (pa, pb) = (physical_of(a), physical_of(b));
    fabric.fail_link(pa, pb).unwrap();
    sm.resweep_after_link_failure(fabric, up, a, b, programmer)
        .map(|r| r.bringup)
}

/// What a re-sweep computes is a from-scratch build of the degraded
/// fabric with the previous escape root pinned — on every removable
/// link, those that touch the root or shift a BFS level included.
#[test]
fn resweep_is_the_root_pinned_rebuild_on_every_removable_link() {
    let sm = SubnetManager::new(RoutingConfig::with_options(4));
    let (mut root_links, mut level_shifts) = (0, 0);
    for seed in [1u64, 7, 42] {
        let physical = IrregularConfig::paper(16, seed).generate().unwrap();
        // Discovery numbers the switches the same way every time.
        let listed = sm
            .initialize(&mut ManagedFabric::new(&physical, 4).unwrap())
            .unwrap();
        for (a, _, b, _) in removable_links(&listed.topology) {
            let mut fabric = ManagedFabric::new(&physical, 4).unwrap();
            let mut programmer = Programmer::new();
            let up = sm.initialize_with(&mut fabric, &mut programmer).unwrap();
            let root = up.routing.escape().root();
            let r = fail_and_resweep(&sm, &physical, &mut fabric, &mut programmer, &up, (a, b))
                .unwrap();
            assert!(r.report.verified);
            assert!(r.topology.switch_neighbors(a).all(|(_, peer, _)| peer != b));
            assert_eq!(r.routing.escape().root(), root, "seed {seed}, link {a}-{b}");
            let pinned = RoutingConfig {
                root: Some(root),
                ..*up.routing.config()
            };
            let full = FaRouting::build(&r.topology, pinned).unwrap();
            assert!(
                r.routing.tables_equal(&full),
                "seed {seed}, link {a}-{b}: re-sweep diverged from the pinned rebuild"
            );
            root_links += usize::from(a == root || b == root);
            let levels = |topo: &Topology| topo.distances_from(root);
            level_shifts += usize::from(levels(&r.topology) != levels(&up.topology));
        }
    }
    assert!(
        root_links > 0 && level_shifts > 0,
        "the hard links were covered"
    );
}

/// A re-sweep rebuilds the *kind* of tables it found: APM tables keep
/// their alternate path set, source-selected multipath stays multipath,
/// a mixed capability vector survives.
#[test]
fn resweep_keeps_the_kind_of_tables() {
    let physical = IrregularConfig::paper(16, 8).generate().unwrap();
    let sm = SubnetManager::new(RoutingConfig::two_options());
    let mixed: Vec<bool> = (0..16).map(|s| s % 3 != 1).collect();
    let cfg = RoutingConfig::two_options();
    let build = |kind: &str, topo: &Topology, cfg: RoutingConfig| {
        match kind {
            "apm" => FaRouting::build_with_apm(topo, cfg),
            "multipath" => FaRouting::build_source_multipath(topo, cfg),
            _ => FaRouting::build_mixed(topo, cfg, &mixed),
        }
        .unwrap()
    };
    for kind in ["apm", "multipath", "mixed"] {
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let mut programmer = Programmer::new();
        let mut up = sm.initialize_with(&mut fabric, &mut programmer).unwrap();
        // Install tables of the kind under test over the plain ones.
        up.routing = build(kind, &up.topology, cfg);
        up.report = programmer
            .program(&mut fabric, &up.discovered, &up.routing)
            .unwrap();
        let (a, _, b, _) = removable_link(&up.topology);
        let r =
            fail_and_resweep(&sm, &physical, &mut fabric, &mut programmer, &up, (a, b)).unwrap();
        assert!(r.report.verified, "{kind}");
        let pinned = RoutingConfig {
            root: Some(up.routing.escape().root()),
            ..cfg
        };
        let same_kind = build(kind, &r.topology, pinned);
        assert!(r.routing.tables_equal(&same_kind), "{kind}");
        assert_eq!(r.routing.has_apm(), kind == "apm");
        let multipath = (kind == "multipath").then_some(cfg.table_options);
        assert_eq!(r.routing.source_multipath(), multipath);
        for s in r.topology.switch_ids() {
            let capable = up.routing.switch_adaptive(s);
            assert_eq!(r.routing.switch_adaptive(s), capable, "{kind}: {s}");
        }
        if kind == "apm" {
            // The alternate path set is there to migrate to.
            let alt_root = r.routing.apm_alt_root().expect("an alternate orientation");
            r.routing.certify_escape(&r.topology, true).unwrap();
            for h in r.topology.host_ids() {
                let alt = r.routing.apm_dlid(h, false).unwrap();
                r.routing.route(alt_root, alt).unwrap();
            }
        }
    }
}
