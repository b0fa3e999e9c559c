//! Link-fault injection and recovery, end to end.
//!
//! The acceptance scenario: on the 32-switch reference topology, a
//! single switch–switch link dies mid-window. Under
//! [`RecoveryPolicy::SmResweep`] the simulated SM rebuilds up\*/down\*
//! around the dead link and reprograms the tables after a deterministic
//! sweep latency; afterwards **nothing** may be dropped, the network
//! must fully drain, and the delivered ratio over the whole window must
//! stay ≥ 0.99. Faults are ordinary scheduled events, so runs stay
//! bit-identical across both event-queue backends.

mod common;

use iba_core::{FlightEvent, HostId, NodeRef, ServiceLevel, SimTime, SwitchId};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, QueueBackend, RecoveryPolicy, RunResult, SimConfig};
use iba_topology::{IrregularConfig, Topology, TopologyBuilder};
use iba_workloads::{
    FaultEvent, FaultKind, FaultSchedule, ScriptedPacket, TrafficScript, WorkloadSpec,
};

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
    let mut bld = TopologyBuilder::new(topo.num_switches(), topo.ports_per_switch().into());
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

#[test]
fn single_fault_mid_window_recovers_under_sm_resweep() {
    for seed in [3u64, 11] {
        let topo = IrregularConfig::paper(32, seed).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let (a, b) = removable_link(&topo);
        // Mid-window: warmup 10 µs + 40 µs window; fault at 25 µs, sweep
        // installed 2 µs later, leaving half the window post-recovery.
        let schedule = FaultSchedule::single(SimTime::from_us(25), a, b).unwrap();
        let cfg = SimConfig::test(seed);
        let horizon = cfg.horizon();
        let spec = WorkloadSpec::uniform32(0.02);
        let mut net = Network::builder(&topo, &fa)
            .workload(spec)
            .config(cfg)
            .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
            .build()
            .unwrap();
        let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(200_000));

        assert_eq!(result.faults_injected, 1, "seed {seed}");
        assert_eq!(result.resweeps, 1, "seed {seed}");
        assert_eq!(result.resweeps_failed, 0, "seed {seed}");
        assert!(net.recovery_installed(), "seed {seed}");
        // Zero drops after the new tables are live; anything lost was in
        // transit on the dying link.
        assert_eq!(result.drops_after_recovery, 0, "seed {seed}");
        assert!(drained, "seed {seed}: network failed to drain");
        assert!(
            result.delivered_ratio >= 0.99,
            "seed {seed}: delivered ratio {}",
            result.delivered_ratio
        );
        let rec = result.recovery_time_ns.expect("recovery must complete");
        assert!(
            (2_000..200_000).contains(&rec),
            "seed {seed}: recovery took {rec} ns"
        );
        assert_eq!(result.order_violations, 0, "seed {seed}");
    }
}

#[test]
fn table_swap_inside_the_routing_delay_forwards_on_the_new_tables() {
    // A triangle, one deterministic packet from switch 0 to a host on
    // switch 1. Its first hop dies while it is on the host link; the
    // re-sweep installs new tables 50 ns after its header reached switch
    // 0 — inside the 100 ns routing delay. The route resolved at arrival
    // points into the dead link; the pipeline must hand arbitration the
    // tables live at `ready_at`, so the packet leaves on time, the other
    // way round.
    let mut b = TopologyBuilder::new(3, 4);
    for (x, y) in [(0, 1), (0, 2), (2, 1)] {
        b.connect(SwitchId(x), SwitchId(y)).unwrap();
    }
    for s in 0..3 {
        b.attach_host(SwitchId(s)).unwrap();
    }
    let topo = b.build().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (src, dst) = (HostId(0), HostId(1));
    let first_hop = fa
        .route(SwitchId(0), fa.dlid(dst, false).unwrap())
        .unwrap()
        .escape;
    let NodeRef::Switch(next) = topo.endpoint(SwitchId(0), first_hop).unwrap().node else {
        panic!("host 1 is not on switch 0");
    };

    let cfg = SimConfig::test(1);
    let (prop, delay) = (cfg.phys.propagation_ns, cfg.phys.routing_delay_ns);
    let sent = 1_000;
    let arrives = sent + prop;
    let script = TrafficScript::new(vec![ScriptedPacket {
        at: SimTime::from_ns(sent),
        src,
        dst,
        size_bytes: 32,
        adaptive: false,
        sl: ServiceLevel(0),
        path_set: Default::default(),
    }])
    .unwrap();
    let schedule =
        FaultSchedule::single(SimTime::from_ns(arrives - 50), SwitchId(0), next).unwrap();
    let mut net = Network::builder(&topo, &fa)
        .script(&script)
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::SmResweep, 100)
        .recorder(common::CAPTURE)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(cfg.horizon(), cfg.horizon().plus_ns(100_000));
    assert_eq!((result.resweeps, result.delivered), (1, 1), "{result:?}");
    assert!(drained && net.is_quiescent());

    let dump = net.flight_dump().unwrap();
    let forwards: Vec<_> = (dump.events.iter())
        .filter_map(|e| match e.ev {
            FlightEvent::RouteDecision { out_port, .. } => Some((e.at_ns, e.sw?, out_port)),
            _ => None,
        })
        .collect();
    let (at, sw, out_port) = forwards[0];
    assert_eq!((at, sw), (arrives + delay, SwitchId(0)), "{forwards:?}");
    assert_ne!(out_port, first_hop, "forwarded into the dead link");
    assert_eq!(
        forwards.len(),
        3,
        "one switch more than the direct path: {forwards:?}"
    );
}

#[test]
fn no_recovery_policy_leaves_packets_stranded() {
    let topo = IrregularConfig::paper(32, 3).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (a, b) = removable_link(&topo);
    let schedule = FaultSchedule::single(SimTime::from_us(25), a, b).unwrap();
    let cfg = SimConfig::test(3);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::None, 0)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(200_000));

    assert_eq!(result.faults_injected, 1);
    assert_eq!(result.resweeps, 0);
    assert!(result.recovery_time_ns.is_none());
    // Packets whose escape crosses the dead link wait forever.
    assert!(!drained, "a permanent unrepaired fault must strand traffic");
}

#[test]
fn transient_fault_heals_on_link_up_even_without_recovery() {
    // Down at 20 µs, back up at 30 µs: credits resync at link-up, the
    // masked ports return, and the untouched primary tables are valid
    // again — the network drains without any SM involvement.
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (a, b) = removable_link(&topo);
    let schedule = FaultSchedule::new(vec![
        FaultEvent {
            at: SimTime::from_us(20),
            kind: FaultKind::LinkDown,
            a,
            b,
        },
        FaultEvent {
            at: SimTime::from_us(30),
            kind: FaultKind::LinkUp,
            a,
            b,
        },
    ])
    .unwrap();
    let cfg = SimConfig::test(5);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::None, 0)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(200_000));

    assert_eq!(result.faults_injected, 1);
    assert_eq!(net.active_faults(), 0);
    assert!(drained, "traffic must flow again after the link returns");
    assert_eq!(result.order_violations, 0);
}

#[test]
fn apm_migration_keeps_traffic_moving_during_repair() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build_with_apm(&topo, RoutingConfig::two_options()).unwrap();
    let (a, b) = removable_link(&topo);
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b).unwrap();
    let cfg = SimConfig::test(5);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::ApmMigrate, 0)
        .build()
        .unwrap();
    let (result, _) = net.run_until_drained(horizon, horizon.plus_ns(200_000));

    assert_eq!(result.faults_injected, 1);
    assert!(result.delivered > 0);
    assert_eq!(result.order_violations, 0);
}

#[test]
fn apm_migrate_requires_apm_tables() {
    let topo = IrregularConfig::paper(8, 1).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (a, b) = removable_link(&topo);
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b).unwrap();
    let err = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(SimConfig::test(1))
        .faults(&schedule, RecoveryPolicy::ApmMigrate, 0)
        .build();
    assert!(err.is_err());
}

#[test]
fn fault_runs_are_bit_identical_across_backends() {
    let run = |backend: QueueBackend| -> RunResult {
        let topo = IrregularConfig::paper(16, 7).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let (a, b) = removable_link(&topo);
        let schedule = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_us(18),
                kind: FaultKind::LinkDown,
                a,
                b,
            },
            FaultEvent {
                at: SimTime::from_us(34),
                kind: FaultKind::LinkUp,
                a,
                b,
            },
        ])
        .unwrap();
        let mut cfg = SimConfig::test(13);
        cfg.queue_backend = backend;
        let mut net = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.08))
            .config(cfg)
            .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
            .build()
            .unwrap();
        net.run()
    };
    let heap = run(QueueBackend::BinaryHeap);
    let cal = run(QueueBackend::Calendar);
    assert_eq!(heap, cal, "fault handling diverged between queue backends");
    assert_eq!(heap.events, cal.events);
}
