//! Flight-recorder acceptance: the recorder is a pure observer (bit
//! identity with and without it, and across event-queue backends), the
//! stall watchdog flags an artificially wedged fabric within a bounded
//! sim-time window, and clean saturated runs produce zero false
//! suspected-wedge verdicts.

use iba_core::{FlightEvent, SimTime, StallClass};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    perfetto_trace, FlightDump, Network, QueueBackend, RecorderOpts, RecoveryPolicy, RunResult,
    SimConfig, TriggerCause, WatchdogOpts,
};
use iba_topology::IrregularConfig;
use iba_workloads::{FaultSchedule, WorkloadSpec};

fn recorded_run(
    backend: QueueBackend,
    seed: u64,
    rate: f64,
    opts: Option<RecorderOpts>,
) -> (RunResult, Option<FlightDump>) {
    let topo = IrregularConfig::paper(8, seed).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut cfg = SimConfig::test(seed);
    cfg.queue_backend = backend;
    let mut b = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(rate).with_adaptive_fraction(0.5))
        .config(cfg);
    if let Some(opts) = opts {
        b = b.recorder(opts);
    }
    let mut net = b.build().unwrap();
    let result = net.run();
    (result, net.flight_dump())
}

#[test]
fn a_packet_inside_its_routing_delay_is_never_stall_eligible() {
    // A watchdog far more impatient than the routing pipeline (40 ns
    // against 100 ns, checked every 7 ns): whatever it reports, it must
    // not report a head packet whose route is resolved but not yet
    // visible — that is a fresh arrival, not a stall.
    let opts = RecorderOpts {
        capacity_per_switch: 1 << 16,
        trigger_on_drop: false,
        latency_threshold_ns: None,
        watchdog: Some(WatchdogOpts {
            check_every_ns: 7,
            stall_after_ns: 40,
        }),
    };
    let (_, dump) = recorded_run(QueueBackend::BinaryHeap, 11, 0.25, Some(opts));
    let dump = dump.unwrap();
    assert_eq!(dump.overwritten_events, 0);
    let routing_delay = SimConfig::test(11).phys.routing_delay_ns;
    let mut stalls = 0;
    for (i, e) in dump.events.iter().enumerate() {
        let FlightEvent::Stall {
            port, vl, packet, ..
        } = e.ev
        else {
            continue;
        };
        stalls += 1;
        let arrived_ns = dump.events[..i]
            .iter()
            .rev()
            .find(|a| {
                a.sw == e.sw
                    && matches!(a.ev, FlightEvent::Arrived { packet: p, port: q, vl: v }
                        if (p, q, v) == (packet, port, vl))
            })
            .expect("a stalled packet arrived first")
            .at_ns;
        assert!(
            e.at_ns > arrived_ns + routing_delay,
            "{packet:?} arrived at {arrived_ns} and was called stalled at {}",
            e.at_ns
        );
    }
    assert!(stalls > 0, "the impatient watchdog must have fired");
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    // The recorder observes; it must not touch the RNG or any control
    // flow. With the watchdog off a recorded run and a bare run are
    // bit-identical; with it on, the only permitted difference is the
    // processed-event counter (the watchdog's own checks ride the
    // queue).
    for rate in [0.02, 0.25] {
        let (bare, _) = recorded_run(QueueBackend::BinaryHeap, 11, rate, None);
        let (passive, dump) = recorded_run(
            QueueBackend::BinaryHeap,
            11,
            rate,
            Some(RecorderOpts {
                watchdog: None,
                ..RecorderOpts::default()
            }),
        );
        assert_eq!(bare, passive, "rate {rate}: recorder changed the run");
        assert!(!dump.unwrap().events.is_empty(), "rate {rate}");

        let (mut watched, _) = recorded_run(
            QueueBackend::BinaryHeap,
            11,
            rate,
            Some(RecorderOpts::default()),
        );
        assert!(watched.events > bare.events, "rate {rate}");
        watched.events = bare.events;
        assert_eq!(bare, watched, "rate {rate}: watchdog changed the run");
    }
}

#[test]
fn recorded_runs_bit_identical_across_backends() {
    let opts = RecorderOpts::default();
    let (heap_res, heap_dump) = recorded_run(QueueBackend::BinaryHeap, 42, 0.08, Some(opts));
    let (cal_res, cal_dump) = recorded_run(QueueBackend::Calendar, 42, 0.08, Some(opts));
    assert_eq!(heap_res, cal_res, "results diverged across backends");
    let (heap_dump, cal_dump) = (heap_dump.unwrap(), cal_dump.unwrap());
    assert!(!heap_dump.events.is_empty());
    assert_eq!(heap_dump, cal_dump, "flight dumps diverged across backends");
    // Including the serialized artifacts, byte for byte.
    assert_eq!(heap_dump.to_jsonl(), cal_dump.to_jsonl());
}

#[test]
fn dump_survives_jsonl_round_trip_from_a_real_run() {
    let (_, dump) = recorded_run(
        QueueBackend::BinaryHeap,
        7,
        0.08,
        Some(RecorderOpts::default()),
    );
    let dump = dump.unwrap();
    let back = FlightDump::from_jsonl(&dump.to_jsonl()).expect("parse back");
    assert_eq!(back, dump);
}

#[test]
fn clean_saturated_run_has_zero_false_wedge_verdicts() {
    // Heavy load, no faults: stalls may occur and must classify as
    // escape-draining at worst. A suspected wedge here is a false
    // positive and would freeze the recorder. The drop trigger is off —
    // saturation drops are real events, not watchdog mistakes.
    for seed in [3u64, 11, 42] {
        let (_, dump) = recorded_run(
            QueueBackend::BinaryHeap,
            seed,
            0.3,
            Some(RecorderOpts {
                trigger_on_drop: false,
                ..RecorderOpts::default()
            }),
        );
        let dump = dump.unwrap();
        assert!(
            dump.triggers.is_empty(),
            "seed {seed}: unexpected triggers {:?}",
            dump.triggers
        );
        assert!(!dump.frozen, "seed {seed}");
        for e in &dump.events {
            if let iba_core::FlightEvent::Stall { class, .. } = &e.ev {
                assert_eq!(
                    *class,
                    StallClass::EscapeDraining,
                    "seed {seed}: false suspected-wedge verdict at {} ns",
                    e.at_ns
                );
            }
        }
    }
}

#[test]
fn watchdog_flags_a_wedged_fabric_within_a_bounded_window() {
    // A link dies mid-window with no recovery policy: packets whose
    // escape crosses the dead link are stranded forever (the existing
    // fault tests pin this down). The watchdog must turn that into a
    // suspected-wedge verdict within fault + stall_after + one check
    // period of simulated time — and freeze the recorder on it.
    let topo = IrregularConfig::paper(32, 3).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (a, b) = {
        // First switch–switch link; the 32-switch paper fabric keeps all
        // traffic flowing without it only via recovery, which is off.
        let mut link = None;
        'outer: for s in topo.switch_ids() {
            for (_, peer, _) in topo.switch_neighbors(s) {
                if peer.0 > s.0 {
                    link = Some((s, peer));
                    break 'outer;
                }
            }
        }
        link.unwrap()
    };
    let fault_at = SimTime::from_us(20);
    let schedule = FaultSchedule::single(fault_at, a, b).unwrap();
    let wd = WatchdogOpts {
        check_every_ns: 2_000,
        stall_after_ns: 10_000,
    };
    let cfg = SimConfig::test(3);
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::None, 0)
        .recorder(RecorderOpts {
            // Wedge detection must not depend on the drop trigger firing
            // first (packets in flight on the dying link also drop).
            trigger_on_drop: false,
            watchdog: Some(wd),
            ..RecorderOpts::default()
        })
        .build()
        .unwrap();
    net.run();
    let dump = net.flight_dump().unwrap();

    let wedge = dump
        .triggers
        .iter()
        .find(|t| t.cause == TriggerCause::SuspectedWedge)
        .expect("stranded fabric must raise a suspected-wedge trigger");
    assert!(dump.frozen, "a suspected wedge must freeze the recorder");
    let bound = fault_at
        .plus_ns(wd.stall_after_ns)
        .plus_ns(2 * wd.check_every_ns);
    assert!(
        wedge.at_ns >= fault_at.as_ns() && wedge.at_ns <= bound.as_ns(),
        "wedge flagged at {} ns, outside ({}, {}]",
        wedge.at_ns,
        fault_at.as_ns(),
        bound.as_ns()
    );
    // The frozen rings contain the stall verdict itself.
    assert!(
        dump.events.iter().any(|e| matches!(
            &e.ev,
            iba_core::FlightEvent::Stall {
                class: StallClass::SuspectedWedge,
                ..
            }
        )),
        "dump must contain the suspected-wedge stall event"
    );
    // And the dump exports as a loadable trace-event document.
    let doc = perfetto_trace(&dump);
    let evs = doc
        .get("traceEvents")
        .and_then(iba_core::Json::as_arr)
        .unwrap();
    assert!(!evs.is_empty());
}

#[test]
fn credit_withholding_wedge_is_also_flagged() {
    // The second wedge flavour: nothing dead, but an output port whose
    // sender-side credits are withheld (never granted, never returned).
    // Deterministic traffic to one destination behind that port stalls
    // with a dead-quiet escape path — a suspected wedge.
    let topo = IrregularConfig::paper(8, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let wd = WatchdogOpts {
        check_every_ns: 2_000,
        stall_after_ns: 10_000,
    };
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.05))
        .config(SimConfig::test(5))
        .recorder(RecorderOpts {
            trigger_on_drop: false,
            watchdog: Some(wd),
            ..RecorderOpts::default()
        })
        .build()
        .unwrap();
    // Block every switch–switch output of every switch: no inter-switch
    // packet can ever be forwarded, and no credits ever move.
    for s in topo.switch_ids() {
        for p in 0..topo.ports_per_switch() {
            net.debug_block_output(s, iba_core::PortIndex(p));
        }
    }
    net.run();
    let dump = net.flight_dump().unwrap();
    assert!(
        dump.triggers
            .iter()
            .any(|t| t.cause == TriggerCause::SuspectedWedge),
        "withheld credits must raise a suspected-wedge trigger; triggers: {:?}",
        dump.triggers
    );
}
