//! PR acceptance: on a ≥64-switch fabric with a single failed link, the
//! incremental SM re-sweep must produce forwarding tables **byte-
//! identical** to a from-scratch rebuild of the degraded fabric while
//! uploading **strictly fewer** LFT blocks — and the recovered escape
//! layer must still certify deadlock-free.

use iba_far::prelude::*;

/// First switch–switch link whose removal keeps the fabric connected
/// (BFS connectivity check per candidate).
fn removable_link(topo: &Topology) -> (SwitchId, SwitchId) {
    let n = topo.num_switches();
    for a in topo.switch_ids() {
        for (_, b, _) in topo.switch_neighbors(a) {
            if a.0 >= b.0 {
                continue;
            }
            let mut seen = vec![false; n];
            let mut stack = vec![SwitchId(0)];
            seen[0] = true;
            while let Some(s) = stack.pop() {
                for (_, peer, _) in topo.switch_neighbors(s) {
                    let dead = (s == a && peer == b) || (s == b && peer == a);
                    if !dead && !seen[peer.index()] {
                        seen[peer.index()] = true;
                        stack.push(peer);
                    }
                }
            }
            if seen.iter().all(|&v| v) {
                return (a, b);
            }
        }
    }
    panic!("no removable link");
}

/// Physical switch carrying `guid`.
fn physical_of(topo: &Topology, fabric: &ManagedFabric, guid: u64) -> SwitchId {
    topo.switch_ids()
        .find(|&s| fabric.agent(s).guid == guid)
        .unwrap()
}

#[test]
fn incremental_resweep_is_byte_identical_and_uploads_strictly_less() {
    let physical = IrregularConfig::paper(64, 8).generate().unwrap();
    let sm = SubnetManager::new(RoutingConfig::two_options());

    // Bring the fabric up through a stateful programmer, then fail one
    // removable link and recover incrementally.
    let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
    let mut programmer = Programmer::new();
    let up = sm.initialize_with(&mut fabric, &mut programmer).unwrap();
    assert!(up.report.verified);

    let (a, b) = removable_link(&up.topology);
    let pa = physical_of(&physical, &fabric, up.discovered.switches[a.index()].guid);
    let pb = physical_of(&physical, &fabric, up.discovered.switches[b.index()].guid);
    fabric.fail_link(pa, pb).unwrap();
    let resweep = sm
        .resweep_after_link_failure(&mut fabric, &up, a, b, &mut programmer)
        .unwrap();
    assert!(resweep.bringup.report.verified);

    // Strictly fewer blocks travelled than the tables contain.
    let report = &resweep.bringup.report;
    assert!(
        report.blocks_written < report.blocks_total,
        "diff programming uploaded {}/{} blocks — no saving",
        report.blocks_written,
        report.blocks_total
    );

    // From-scratch baseline in the same comparison frame: the previous
    // discovery's LID assignment and the previous up*/down* root (an
    // unpinned rebuild may elect a different root and produce
    // legitimately different, incomparable tables).
    // The graph is rebuilt here without the link; the directed routes
    // the twin is programmed along are the SM's.
    let degraded = &resweep.bringup.discovered;
    let degraded_topo = up
        .topology
        .without_links(|s, _, peer| (s, peer) == (a, b) || (s, peer) == (b, a))
        .unwrap();
    let pinned = RoutingConfig {
        root: Some(up.routing.escape().root()),
        ..RoutingConfig::two_options()
    };
    let full_routing = FaRouting::build(&degraded_topo, pinned).unwrap();

    let mut twin = ManagedFabric::new(&physical, 2).unwrap();
    twin.fail_link(pa, pb).unwrap();
    let full_report = Programmer::new()
        .program(&mut twin, degraded, &full_routing)
        .unwrap();
    assert!(full_report.verified);
    assert_eq!(full_report.blocks_written, full_report.blocks_total);
    assert_eq!(report.blocks_total, full_report.blocks_total);

    // Byte-identical forwarding state on every switch.
    for s in physical.switch_ids() {
        let (x, y) = (&fabric.agent(s).lft, &twin.agent(s).lft);
        assert_eq!(x.len(), y.len());
        for lid in 0..x.len() {
            assert_eq!(
                x.get(Lid(lid as u16)),
                y.get(Lid(lid as u16)),
                "switch {s:?}, lid {lid}: incremental and full tables diverge"
            );
        }
    }

    // The recovered escape layer is still certifiably deadlock-free.
    let routing = &resweep.bringup.routing;
    check_escape_routes(&resweep.bringup.topology, |s, h| {
        let dlid = routing.dlid(h, false).ok()?;
        routing.route(s, dlid).ok().map(|r| r.escape)
    })
    .unwrap();
}
