//! End-to-end: subnet-manager bring-up (discovery through SMPs, route
//! computation, block-wise table upload) feeding a live simulation — the
//! complete §4.1 deployment story as one test.

use iba_far::prelude::*;

#[test]
fn sm_bringup_then_traffic() {
    let physical = IrregularConfig::paper(16, 99).generate().unwrap();
    let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
    let sm = SubnetManager::new(RoutingConfig::two_options());
    let up = sm.initialize(&mut fabric).unwrap();

    // Bring-up sanity.
    assert!(up.report.verified);
    assert_eq!(up.topology.num_switches(), 16);
    assert_eq!(up.topology.num_hosts(), 64);
    assert_eq!(up.discovered.link_count(), physical.num_switch_links());
    assert!(up.report.sl2vl_rows_written > 0);
    // Discovery is frugal: a few SMPs per port plus per-switch overhead.
    let ports_total = 16 * physical.ports_per_switch() as u64;
    assert!(
        up.discovered.smps_used <= 3 * ports_total + 64,
        "discovery used {} SMPs for {} ports",
        up.discovered.smps_used,
        ports_total
    );

    // The SM-computed fabric carries traffic with the usual guarantees.
    let spec = WorkloadSpec::uniform32(0.05).with_adaptive_fraction(0.5);
    let mut net = Network::builder(&up.topology, &up.routing)
        .workload(spec)
        .config(SimConfig::test(7))
        .build()
        .unwrap();
    let (r, drained) = net.run_until_drained(SimTime::from_us(40), SimTime::from_ms(60));
    assert!(drained, "{r:?}");
    assert_eq!(r.order_violations, 0);
    assert!(net.is_quiescent());
}

#[test]
fn sm_bringup_supports_four_option_tables() {
    let physical = IrregularConfig::paper_connected(8, 7).generate().unwrap();
    let mut fabric = ManagedFabric::new(&physical, 4).unwrap();
    let up = SubnetManager::new(RoutingConfig::with_options(4))
        .initialize(&mut fabric)
        .unwrap();
    assert!(up.report.verified);
    // LMC 2: four addresses per destination.
    assert_eq!(up.routing.lid_map().lmc().addresses_per_port(), 4);
    let r = {
        let mut net = Network::builder(&up.topology, &up.routing)
            .workload(WorkloadSpec::uniform32(0.02))
            .config(SimConfig::test(3))
            .build()
            .unwrap();
        net.run()
    };
    assert!(r.delivered > 0);
    assert!(r.adaptive_forwards > 0);
}

#[test]
fn apm_plan_coexists_with_sm_assignment() {
    let physical = IrregularConfig::paper(8, 17).generate().unwrap();
    let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
    let up = SubnetManager::new(RoutingConfig::two_options())
        .initialize(&mut fabric)
        .unwrap();
    // The §4.1 split on the topology the SM rebuilt: the LMC doubles and
    // the upper half of every host's range addresses an alternate path
    // set, rooted at the switch farthest from the primary root.
    let apm = FaRouting::build_with_apm(&up.topology, *up.routing.config()).unwrap();
    let lids = apm.lid_map();
    let half = lids.lmc().addresses_per_port() / 2;
    for h in up.topology.host_ids() {
        assert_eq!(lids.host_of(apm.dlid(h, false).unwrap()).unwrap(), h);
        let alt = apm.apm_dlid(h, false).unwrap();
        assert_eq!(lids.host_of(alt).unwrap(), h);
        assert!(lids.offset_of(alt).unwrap() >= half);
    }
    let (primary, alt_root) = (apm.escape().root(), apm.apm_alt_root().unwrap());
    assert_eq!(primary, up.routing.escape().root());
    assert_ne!(alt_root, primary);
    let dist = up.topology.distances_from(primary);
    assert_eq!(dist[alt_root.index()], *dist.iter().max().unwrap());
    apm.certify_escape(&up.topology, true).unwrap();
}
