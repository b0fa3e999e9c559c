//! The one-machine determinism contract, end to end:
//!
//! * a run is the same run on 1, 2 and 4 shards — full `RunResult` and
//!   per-decision forwarding digest — because the conservative window
//!   protocol, canonical event keys, per-switch RNG streams and
//!   source-local packet ids make queue order independent of the
//!   partition;
//! * neither the worker-thread count nor the event-queue backend is
//!   observable from inside the simulation;
//! * that holds below saturation, deep in saturation, under a fault
//!   mix with APM migration and packet corruption, where the chaos
//!   invariants (drain, quiescence, credit conservation) must survive
//!   too, and under SM re-sweeps, which every shard installs at the same
//!   instant;
//! * a journey capture — a flight recorder that arms no trigger — dumps
//!   the same events on every shape, also when its rings wrap, while a
//!   recorder that arms a trigger, which still needs the whole fabric in
//!   one shard, is rejected at build time instead of silently
//!   misbehaving.
//!
//! The decision stream itself is pinned once, in `golden_decisions.rs`.

mod common;

use iba_core::SimTime;
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, QueueBackend, RecorderOpts, RecoveryPolicy, RunResult, SimConfig};
use iba_topology::{IrregularConfig, Topology, TopologySpec};
use iba_workloads::{FaultEvent, FaultSchedule, WorkloadSpec};

/// One (shards, threads, backend) point of the execution-shape space.
type Shape = (usize, usize, QueueBackend);

/// The shapes every scenario must agree on: the first is the reference
/// (one shard, one thread, heap); together they cover shard counts
/// 1/2/4, threads 1/2 and both backends.
const SHAPES: [Shape; 6] = [
    (1, 1, QueueBackend::BinaryHeap),
    (1, 1, QueueBackend::Calendar),
    (2, 1, QueueBackend::BinaryHeap),
    (2, 2, QueueBackend::Calendar),
    (4, 2, QueueBackend::BinaryHeap),
    (4, 1, QueueBackend::Calendar),
];

/// Run `scenario` on every shape and require the first shape's outcome
/// from all of them.
fn assert_shape_invariant<T: PartialEq + std::fmt::Debug>(scenario: impl Fn(Shape) -> T) {
    let reference = scenario(SHAPES[0]);
    for shape in &SHAPES[1..] {
        assert_eq!(
            reference,
            scenario(*shape),
            "(shards, threads, backend) = {shape:?} leaked into the results"
        );
    }
}

/// A captured fault-free run: the result and the decision digest.
fn run_captured(
    topo: &Topology,
    routing: &FaRouting,
    load: f64,
    seed: u64,
    (shards, threads, backend): Shape,
) -> (RunResult, (u64, u64)) {
    let mut cfg = SimConfig::test(seed);
    cfg.queue_backend = backend;
    let mut net = Network::builder(topo, routing)
        .workload(WorkloadSpec::uniform32(load))
        .config(cfg)
        .recorder(common::CAPTURE)
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    let result = net.run();
    let dump = net.flight_dump().expect("the capture is armed");
    (result, common::decision_digest(&dump))
}

#[test]
fn parallel_golden_scenario_is_shape_invariant() {
    let topo = IrregularConfig::paper(8, 42).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    assert_shape_invariant(|shape| run_captured(&topo, &routing, 0.02, 7, shape));
}

#[test]
fn parallel_saturated_fabric_is_shape_invariant() {
    // Deep saturation on 64 switches: full buffers, escape queues in
    // use, every credit counter contended — where a tie-break that
    // depended on the partition would show first.
    let topo = IrregularConfig::paper(64, 1).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let (reference, _) = run_captured(&topo, &routing, 0.05, 1, SHAPES[0]);
    assert!(
        reference.delivered * 2 < reference.generated,
        "the point must be saturated: {} of {} delivered",
        reference.delivered,
        reference.generated
    );
    assert!(reference.escape_forwards > 0);
    assert_shape_invariant(|shape| run_captured(&topo, &routing, 0.05, 1, shape));
}

#[test]
fn parallel_wide_switches_are_shape_invariant() {
    // The 64-switch full mesh of the engine zoo: 63 switch links and two
    // hosts make 65 ports per switch, so the hosts inject through input
    // ports 63 and 64 — one of them past the first machine word of the
    // occupied-input set. A pass that lost track of such an input would
    // leave its packets behind, hence the drain check.
    let topo = TopologySpec::FullMesh {
        switches: 64,
        hosts_per_switch: 2,
    }
    .generate(1)
    .unwrap();
    assert_eq!(topo.ports_per_switch(), 65);
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    assert_shape_invariant(|(shards, threads, backend)| {
        let mut cfg = SimConfig::test(4);
        cfg.queue_backend = backend;
        let horizon = cfg.horizon();
        let mut net = Network::builder(&topo, &routing)
            .workload(WorkloadSpec::uniform32(0.05))
            .config(cfg)
            .shards(shards)
            .threads(threads)
            .build()
            .unwrap();
        let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));
        assert!(drained && net.is_quiescent(), "shards={shards}: {result:?}");
        assert_eq!(result.delivered, result.generated, "shards={shards}");
        assert!(result.delivered > 10_000, "shards={shards}: {result:?}");
        result
    });
}

/// An APM-migration chaos mix with CRC corruption: a flapping link
/// whose windows all close, so the fabric must end whole and drain to
/// full quiescence.
fn run_chaos((shards, threads, backend): Shape) -> RunResult {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build_with_apm(&topo, RoutingConfig::two_options()).unwrap();
    let a = topo.switch_ids().next().unwrap();
    let (_, b, _) = topo.switch_neighbors(a).next().unwrap();
    let schedule = FaultSchedule::flapping(SimTime::from_us(15), a, b, 2_000, 3_000, 3).unwrap();
    let mut cfg = SimConfig::test(5);
    cfg.queue_backend = backend;
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::ApmMigrate, 0)
        .corruption(0.01)
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));

    assert_eq!(result.faults_injected, 3, "three down flanks");
    assert!(result.drops_corrupted > 0, "corruption must bite");
    assert_eq!(result.escape_certifications, 1, "APM set certified once");
    assert_eq!(net.active_faults(), 0);
    assert!(drained, "shards={shards}: network failed to drain");
    assert_eq!(net.residual_packets(), 0, "shards={shards}");
    assert!(net.is_quiescent(), "shards={shards}");
    let audit = net.credit_audit();
    assert!(audit.is_empty(), "shards={shards}: credit leak: {audit:?}");
    assert_eq!(result.duplicate_deliveries, 0, "shards={shards}");
    assert_eq!(
        result.generated - result.source_drops,
        result.delivered + result.drops_in_transit,
        "shards={shards}: conservation: injected = delivered + dropped at drain"
    );
    result
}

#[test]
fn parallel_chaos_drains_conserves_and_is_shape_invariant() {
    assert_shape_invariant(run_chaos);
}

/// A captured `SmResweep` run under `schedule` that must drain, every
/// credit of a live link back: the result and the decision digest.
fn run_resweep(
    topo: &Topology,
    routing: &FaRouting,
    schedule: &FaultSchedule,
    (shards, threads, backend): Shape,
) -> (RunResult, (u64, u64)) {
    let mut cfg = SimConfig::test(5);
    cfg.queue_backend = backend;
    let horizon = cfg.horizon();
    let mut net = Network::builder(topo, routing)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(schedule, RecoveryPolicy::SmResweep, 2_000)
        .recorder(common::CAPTURE)
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));
    assert!(result.resweeps >= 1, "shards={shards}: {result:?}");
    assert!(drained, "shards={shards}: {result:?}");
    assert_eq!(net.residual_packets(), 0, "shards={shards}");
    assert!(net.credit_audit().is_empty(), "shards={shards}");
    let dump = net.flight_dump().expect("the capture is armed");
    (result, common::decision_digest(&dump))
}

/// Every shard executes every fault, so every shard schedules the same
/// `ResweepDone`, ranked first at its instant, derives the same
/// degraded fabric from the global port masks and installs the same
/// tables: an `SmResweep` run is the same run on every shape — for a
/// link that stays down, a flapping link and a switch down / up.
#[test]
fn parallel_sm_resweep_is_shape_invariant() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let a = topo.switch_ids().next().unwrap();
    let (_, b, _) = topo.switch_neighbors(a).next().unwrap();
    let victim = topo.switch_ids().nth(3).unwrap();
    let at = SimTime::from_us;
    let schedules = [
        FaultSchedule::single(at(20), a, b),
        FaultSchedule::flapping(at(15), a, b, 2_000, 3_000, 3),
        FaultSchedule::new(vec![
            FaultEvent::switch_down(at(20), victim),
            FaultEvent::switch_up(at(30), victim),
        ]),
    ];
    for schedule in schedules.map(Result::unwrap) {
        assert_shape_invariant(|shape| run_resweep(&topo, &routing, &schedule, shape));
    }
}

/// Deterministic traffic driven in pieces: two `advance` steps, a
/// `run` to the horizon (first statistics fold) and a drain past it
/// (second fold over the same shard collectors).
fn run_deterministic_in_pieces(
    spec: WorkloadSpec,
    (shards, threads, backend): Shape,
) -> (RunResult, RunResult) {
    let topo = IrregularConfig::paper(16, 3).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut cfg = SimConfig::test(3);
    cfg.queue_backend = backend;
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &routing)
        .workload(spec)
        .config(cfg)
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    net.advance(5_000);
    net.advance(5_000);
    let at_horizon = net.run();
    let (drained, whole) = net.run_until_drained(horizon, horizon.plus_ns(400_000));
    assert!(whole, "shards={shards}: network failed to drain");
    assert!(drained.delivered > at_horizon.delivered, "shards={shards}");
    for r in [&at_horizon, &drained] {
        assert_eq!(r.order_violations, 0, "shards={shards}");
        assert_eq!(r.duplicate_deliveries, 0, "shards={shards}");
    }
    (at_horizon, drained)
}

/// Each shard keeps the order watermarks of the flows it delivers and
/// nobody merges them: the in-order check must hold, and every fold
/// must read the same, whatever the partition — also with several
/// service levels, where the tracker grows plane by plane.
#[test]
fn parallel_order_check_survives_repeated_folds() {
    let det = WorkloadSpec::uniform32(0.02).with_adaptive_fraction(0.0);
    assert_shape_invariant(|shape| run_deterministic_in_pieces(det, shape));
    assert_shape_invariant(|shape| run_deterministic_in_pieces(det.with_service_levels(4), shape));
}

/// ROADMAP's differential point: the load where the former serial and
/// sharded machines disagreed threefold (63,037 against 189,854
/// packets delivered, seed 1). It sits on a saturation cliff, so any
/// partition-dependent tie-break shows here as a different regime, not
/// a different digit.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; the release CI job runs it"
)]
fn parallel_differential_point_256_switches() {
    for seed in [1, 2] {
        let topo = IrregularConfig::paper(256, seed).generate().unwrap();
        let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let run = |shards: usize| {
            Network::builder(&topo, &routing)
                .workload(WorkloadSpec::uniform32(0.02))
                .config(SimConfig::paper(seed))
                .shards(shards)
                .threads(shards)
                .build()
                .unwrap()
                .run()
        };
        assert_eq!(run(1), run(2), "seed {seed}: shards 1 and 2 disagree");
    }
}

#[test]
fn parallel_telemetry_samples_cover_the_whole_fabric() {
    let topo = IrregularConfig::paper(16, 9).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let cfg = SimConfig::test(9);
    let num_vls = cfg.data_vls as usize;
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .telemetry(iba_sim::TelemetryOpts::every_ns(2_000))
        .shards(4)
        .threads(2)
        .build()
        .unwrap();
    let result = net.run();
    assert!(result.delivered > 0);
    let mem = net.telemetry_sink().expect("telemetry armed");
    let report = mem.report();
    assert_eq!(report.switches.len(), topo.num_switches());
    assert!(!mem.samples().is_empty());
    for sample in mem.samples() {
        // The merge splices per-shard slices back into full fabric-wide
        // samples, in (switch, vl) order.
        assert_eq!(sample.occupancy.len(), topo.num_switches() * num_vls);
        assert!(sample
            .occupancy
            .windows(2)
            .all(|w| (w[0].sw.0, w[0].vl.0) < (w[1].sw.0, w[1].vl.0)));
    }
    // The per-switch forwarding counters survive the merge: their sum
    // covers at least the measured forwards (telemetry also counts the
    // warmup the stats window excludes).
    let telemetry_forwards: u64 = report
        .switches
        .iter()
        .map(|s| s.adaptive_forwards + s.escape_forwards)
        .sum();
    assert!(telemetry_forwards >= result.adaptive_forwards + result.escape_forwards);
}

/// A bounded capture on a saturated fabric: every switch's ring wraps,
/// and what survives of it — and so the whole JSONL dump, numbering
/// included — must not depend on the partition, the worker threads or
/// the queue backend.
#[test]
fn parallel_wrapped_capture_is_shape_invariant() {
    let topo = IrregularConfig::paper(16, 9).generate().unwrap();
    let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let ring = RecorderOpts {
        capacity_per_switch: 64,
        ..common::CAPTURE
    };
    let dump = |(shards, threads, backend): Shape| {
        let mut cfg = SimConfig::test(9);
        cfg.queue_backend = backend;
        let mut net = Network::builder(&topo, &routing)
            .workload(WorkloadSpec::uniform32(0.05))
            .config(cfg)
            .recorder(ring)
            .shards(shards)
            .threads(threads)
            .build()
            .unwrap();
        net.run();
        net.flight_dump().expect("the capture is armed")
    };
    let reference = dump(SHAPES[0]);
    assert_eq!(reference.events.len(), 16 * 64, "every ring is full");
    assert!(reference.overwritten_events > reference.events.len() as u64);
    assert_shape_invariant(|shape| dump(shape).to_jsonl());
}

/// A recorder that arms a trigger still needs one shard — a trigger
/// must freeze every ring at the same event — whichever trigger it is.
#[test]
fn parallel_rejects_a_triggered_recorder() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let build = |recorder: RecorderOpts| {
        Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.02))
            .config(SimConfig::test(5))
            .recorder(recorder)
            .shards(2)
            .build()
            .map(|_| ())
    };
    assert_eq!(build(common::CAPTURE), Ok(()));
    for triggered in [
        RecorderOpts::default(),
        RecorderOpts {
            trigger_on_drop: true,
            ..common::CAPTURE
        },
        RecorderOpts {
            latency_threshold_ns: Some(10_000),
            ..common::CAPTURE
        },
        RecorderOpts {
            watchdog: RecorderOpts::default().watchdog,
            ..common::CAPTURE
        },
    ] {
        let err = build(triggered).expect_err("a triggered recorder needs one shard");
        assert!(
            err.to_string()
                .contains("a trigger freezes every ring at the same event"),
            "{triggered:?}: {err}"
        );
    }
}
