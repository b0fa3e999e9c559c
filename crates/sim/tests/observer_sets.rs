//! Armed equals bare, for every set of observers.
//!
//! Whatever listens behind the probe seam — telemetry, the flight
//! recorder, engine metrics, in any of their 8 combinations — the
//! simulation is the one a bare run performs: the same `RunResult` (but
//! for the handlers the sampling ticks add to `events`), and what the
//! listeners themselves report does not depend on who else is
//! listening, on the shard count or on the queue backend. A recorder
//! that arms a trigger runs on one shard only; the journey capture,
//! which arms none, runs on every shape, and its journeys are every
//! packet's (hence the decision and step digests `golden_decisions.rs`
//! pins on the capture-only run).

mod common;

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    FlightDump, Network, QueueBackend, RecorderOpts, RunResult, SimConfig, TelemetryOpts,
    TelemetryReport, TELEMETRY_SCHEMA_VERSION,
};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::WorkloadSpec;

const TELEMETRY: u8 = 1;
const RECORDER: u8 = 2;
const METRICS: u8 = 4;

struct Observed {
    result: RunResult,
    telemetry: Option<TelemetryReport>,
    flight: Option<FlightDump>,
}

struct Scenario {
    topo: Topology,
    routing: FaRouting,
    load: f64,
    seed: u64,
    recorder: RecorderOpts,
}

impl Scenario {
    fn new(
        switches: usize,
        topo_seed: u64,
        load: f64,
        seed: u64,
        recorder: RecorderOpts,
    ) -> Scenario {
        let topo = IrregularConfig::paper(switches, topo_seed)
            .generate()
            .unwrap();
        let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        Scenario {
            topo,
            routing,
            load,
            seed,
            recorder,
        }
    }

    fn run(&self, set: u8, shards: usize, backend: QueueBackend) -> Observed {
        let mut cfg = SimConfig::test(self.seed);
        cfg.queue_backend = backend;
        let mut b = Network::builder(&self.topo, &self.routing)
            .workload(WorkloadSpec::uniform32(self.load))
            .config(cfg)
            .shards(shards)
            .threads(shards.min(2));
        if set & TELEMETRY != 0 {
            b = b.telemetry(TelemetryOpts::every_ns(1_000));
        }
        if set & RECORDER != 0 {
            b = b.recorder(self.recorder);
        }
        if set & METRICS != 0 {
            b = b.metrics();
        }
        let mut net = b.build().unwrap();
        let result = net.run();
        Observed {
            result,
            telemetry: net.telemetry_sink().map(|m| m.report().clone()),
            flight: net.flight_dump(),
        }
    }

    /// Every observer set on every execution shape the builder allows
    /// it on, each held to the bare run and to the first run that armed
    /// the same listener.
    fn assert_armed_equals_bare(&self, shapes: &[(usize, QueueBackend)]) {
        let triggered = self.recorder.arms_trigger();
        let bare = self.run(0, 1, QueueBackend::BinaryHeap).result;
        let mut telemetry = None;
        let mut flight = None;
        for set in 0..8u8 {
            for &(shards, backend) in shapes {
                if set & RECORDER != 0 && triggered && shards > 1 {
                    continue; // a trigger needs one shard
                }
                let at = format!("set {set:#05b} shards {shards} {backend:?}");
                let mut o = self.run(set, shards, backend);
                let ticks = set & TELEMETRY != 0 || set & RECORDER != 0 && triggered;
                assert_eq!(o.result.events > bare.events, ticks, "{at}");
                o.result.events = bare.events;
                assert_eq!(o.result, bare, "{at}: the listeners changed the run");
                if let Some(t) = o.telemetry {
                    assert_eq!(t.schema_version, TELEMETRY_SCHEMA_VERSION);
                    assert_eq!(
                        t.total_forwards(),
                        (bare.adaptive_forwards, bare.escape_forwards),
                        "{at}"
                    );
                    assert!(
                        *telemetry.get_or_insert_with(|| t.clone()) == t,
                        "{at}: telemetry"
                    );
                }
                assert_eq!(o.flight.is_some(), set & RECORDER != 0, "{at}");
                if let Some(f) = o.flight {
                    if !triggered {
                        let journeys = common::journeys(&f);
                        assert_eq!(journeys.len() as u64, bare.generated, "{at}: journeys");
                    }
                    assert!(
                        *flight.get_or_insert_with(|| f.clone()) == f,
                        "{at}: flight dump"
                    );
                }
            }
        }
        assert!(telemetry.is_some() && flight.is_some());
    }
}

const SHARDS_BY_BACKEND: [(usize, QueueBackend); 6] = [
    (1, QueueBackend::BinaryHeap),
    (1, QueueBackend::Calendar),
    (2, QueueBackend::BinaryHeap),
    (2, QueueBackend::Calendar),
    (4, QueueBackend::BinaryHeap),
    (4, QueueBackend::Calendar),
];

#[test]
fn every_observer_set_leaves_the_golden_scenario_alone() {
    // The scenario of `golden_decisions.rs`, with its journey capture.
    Scenario::new(8, 42, 0.02, 7, common::CAPTURE).assert_armed_equals_bare(&SHARDS_BY_BACKEND);
}

#[test]
fn every_observer_set_leaves_a_saturated_fabric_alone() {
    // The saturated point of `parallel_engine.rs`: full buffers, escape
    // queues in use, stalls on every switch. Its recorder keeps the
    // default rings and arms the watchdog: saturation drops are real,
    // so the drop trigger is off; the watchdog freezes the rings at
    // 45 µs with five suspected wedges that are none (the frozen dump is
    // held equal like any other).
    let watched = RecorderOpts {
        trigger_on_drop: false,
        ..RecorderOpts::default()
    };
    let s = Scenario::new(64, 1, 0.05, 1, watched);
    let stalled = s.run(TELEMETRY, 1, QueueBackend::BinaryHeap);
    let report = stalled.telemetry.unwrap();
    assert!(stalled.result.delivered * 2 < stalled.result.generated);
    assert!(report.total_stalls(iba_core::OptionVerdict::NoAdaptiveCredit) > 0);
    assert!(report.total_stalls(iba_core::OptionVerdict::NoEscapeCredit) > 0);
    s.assert_armed_equals_bare(&SHARDS_BY_BACKEND);
}
