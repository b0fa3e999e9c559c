//! The hot-entry FIB cache and the single-shard guard on SmResweep.
//!
//! The cache is purely observational: entries are `Arc`-shared decodes
//! of the live forwarding tables, so a cached run must be bit-identical
//! to an uncached one in everything except the hit/miss counters. The
//! flush-on-table-swap discipline is exercised through a full SmResweep
//! recovery, where serving a stale decode would route packets into the
//! dead link and strand the drain.

use iba_core::{SimTime, SwitchId};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecoveryPolicy, RunResult, SimConfig};
use iba_topology::{IrregularConfig, Topology, TopologyBuilder};
use iba_workloads::{FaultSchedule, WorkloadSpec};

/// First switch–switch link whose removal keeps the fabric connected.
fn removable_link(topo: &Topology) -> (SwitchId, SwitchId) {
    for a in topo.switch_ids() {
        for (_, b, _) in topo.switch_neighbors(a) {
            if b.0 > a.0 && still_connected_without(topo, a, b) {
                return (a, b);
            }
        }
    }
    panic!("topology has no removable link");
}

fn still_connected_without(topo: &Topology, a: SwitchId, b: SwitchId) -> bool {
    let mut bld = TopologyBuilder::new(topo.num_switches(), topo.ports_per_switch());
    for s in topo.switch_ids() {
        for (p, peer, pp) in topo.switch_neighbors(s) {
            if peer.0 > s.0 && !(s == a && peer == b) {
                bld.connect_ports(s, p, peer, pp).unwrap();
            }
        }
    }
    for h in topo.host_ids() {
        let (sw, port) = topo.host_attachment(h);
        bld.attach_host_at(sw, port).unwrap();
    }
    bld.build().is_ok()
}

/// Strip the cache telemetry so a cached result can be compared
/// field-for-field against an uncached baseline.
fn without_fib_counters(mut r: RunResult) -> RunResult {
    r.fib_hits = 0;
    r.fib_misses = 0;
    r
}

#[test]
fn fib_cache_is_observationally_transparent() {
    let topo = IrregularConfig::paper(16, 9).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let run = |ways: Option<usize>| {
        let mut b = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.02))
            .config(SimConfig::test(9));
        if let Some(w) = ways {
            b = b.fib_cache(w);
        }
        b.build().unwrap().run()
    };
    let plain = run(None);
    let cached = run(Some(8));

    assert_eq!(plain.fib_hits, 0, "disabled cache must count nothing");
    assert_eq!(plain.fib_misses, 0);
    assert!(cached.fib_misses > 0, "every cold slot starts with a miss");
    assert!(
        cached.fib_hits > 0,
        "uniform traffic revisits destinations; a hot-entry cache must hit"
    );
    assert_eq!(
        without_fib_counters(cached),
        plain,
        "the cache may only observe, never change results"
    );
}

#[test]
fn fib_cache_flushes_across_sm_resweep() {
    let topo = IrregularConfig::paper(32, 3).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (a, b) = removable_link(&topo);
    let schedule = FaultSchedule::single(SimTime::from_us(25), a, b).unwrap();
    let cfg = SimConfig::test(3);
    let horizon = cfg.horizon();
    let run = |ways: Option<usize>| {
        let mut bld = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.02))
            .config(cfg)
            .faults(&schedule, RecoveryPolicy::SmResweep, 2_000);
        if let Some(w) = ways {
            bld = bld.fib_cache(w);
        }
        let mut net = bld.build().unwrap();
        assert_eq!(net.fib_cache_enabled(), ways.is_some());
        net.run_until_drained(horizon, horizon.plus_ns(200_000))
    };
    let (plain, plain_drained) = run(None);
    let (cached, cached_drained) = run(Some(4));

    assert!(plain_drained && cached_drained);
    assert!(cached.fib_hits > 0 && cached.fib_misses > 0);
    // A stale decode surviving the table swap would steer packets into
    // the dead link; identical results prove the flush happened.
    assert_eq!(without_fib_counters(cached), plain);
}

#[test]
fn sm_resweep_guard_keys_on_the_shard_count() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let a = topo.switch_ids().next().unwrap();
    let (_, b, _) = topo.switch_neighbors(a).next().unwrap();
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b).unwrap();

    // More than one shard: rejected.
    let built = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(5))
        .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
        .shards(2)
        .build();
    assert!(built.is_err(), "builder must reject SmResweep on shards(2)");

    // One shard: accepted.
    let one_shard_built = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(5))
        .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
        .shards(1)
        .build();
    assert!(one_shard_built.is_ok());
}
