//! Armed equals bare, for every set of observers.
//!
//! Whatever listens behind the probe seam — journeys, telemetry, the
//! flight recorder with its watchdog, engine metrics, in any of their 16
//! combinations — the simulation is the one a bare run performs: the
//! same `RunResult` (but for the handlers the sampling ticks add to
//! `events`), the same journeys step for step (hence the decision and
//! step digests `golden_decisions.rs` pins on the trace-only run), and
//! what the listeners themselves report does not depend on who else is
//! listening, on the shard count or on the queue backend.

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    FlightDump, Network, PacketTrace, QueueBackend, RecorderOpts, RunResult, SimConfig,
    TelemetryOpts, TelemetryReport, TraceOpts, TELEMETRY_SCHEMA_VERSION,
};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::WorkloadSpec;
use std::collections::BTreeMap;

const TRACE: u8 = 1;
const TELEMETRY: u8 = 2;
const RECORDER: u8 = 4;
const METRICS: u8 = 8;

struct Observed {
    result: RunResult,
    journeys: Option<BTreeMap<u64, PacketTrace>>,
    telemetry: Option<TelemetryReport>,
    flight: Option<FlightDump>,
}

struct Scenario {
    topo: Topology,
    routing: FaRouting,
    load: f64,
    seed: u64,
}

impl Scenario {
    fn new(switches: usize, topo_seed: u64, load: f64, seed: u64) -> Scenario {
        let topo = IrregularConfig::paper(switches, topo_seed)
            .generate()
            .unwrap();
        let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        Scenario {
            topo,
            routing,
            load,
            seed,
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
        if set & TRACE != 0 {
            b = b.trace(TraceOpts::all(1_000_000));
        }
        if set & TELEMETRY != 0 {
            b = b.telemetry(TelemetryOpts::every_ns(1_000));
        }
        if set & RECORDER != 0 {
            // Saturation drops are real; they should not freeze the
            // rings at the first one. (On the saturated point the
            // watchdog does, at 45 µs, with five suspected wedges that
            // are none — it did before the seam too; the frozen dump is
            // held equal like any other.)
            b = b.recorder(RecorderOpts {
                trigger_on_drop: false,
                ..RecorderOpts::default()
            });
        }
        if set & METRICS != 0 {
            b = b.metrics();
        }
        let mut net = b.build().unwrap();
        let result = net.run();
        Observed {
            result,
            journeys: net
                .tracer()
                .map(|t| t.traces().iter().map(|(id, j)| (id.0, j.clone())).collect()),
            telemetry: net.telemetry_sink().map(|m| m.report().clone()),
            flight: net.flight_dump(),
        }
    }

    /// Every observer set on every execution shape the builder allows
    /// it on, each held to the bare run and to the first run that armed
    /// the same listener.
    fn assert_armed_equals_bare(&self, shapes: &[(usize, QueueBackend)]) {
        let bare = self.run(0, 1, QueueBackend::BinaryHeap).result;
        let mut journeys = None;
        let mut telemetry = None;
        let mut flight = None;
        for set in 0..16u8 {
            for &(shards, backend) in shapes {
                if set & RECORDER != 0 && shards > 1 {
                    continue; // the recorder needs one shard
                }
                let at = format!("set {set:#06b} shards {shards} {backend:?}");
                let mut o = self.run(set, shards, backend);
                let ticks = set & (TELEMETRY | RECORDER) != 0;
                assert_eq!(o.result.events > bare.events, ticks, "{at}");
                o.result.events = bare.events;
                assert_eq!(o.result, bare, "{at}: the listeners changed the run");
                assert_eq!(o.journeys.is_some(), set & TRACE != 0, "{at}");
                if let Some(j) = o.journeys {
                    assert_eq!(j.len() as u64, bare.generated, "{at}");
                    assert!(
                        *journeys.get_or_insert_with(|| j.clone()) == j,
                        "{at}: journeys"
                    );
                }
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
                if let Some(f) = o.flight {
                    assert!(
                        *flight.get_or_insert_with(|| f.clone()) == f,
                        "{at}: flight dump"
                    );
                }
            }
        }
        assert!(journeys.is_some() && telemetry.is_some() && flight.is_some());
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
    // The scenario of `golden_decisions.rs`.
    Scenario::new(8, 42, 0.02, 7).assert_armed_equals_bare(&SHARDS_BY_BACKEND);
}

#[test]
fn every_observer_set_leaves_a_saturated_fabric_alone() {
    // The saturated point of `parallel_engine.rs`: full buffers, escape
    // queues in use, stalls on every switch.
    let s = Scenario::new(64, 1, 0.05, 1);
    let stalled = s.run(TELEMETRY, 1, QueueBackend::BinaryHeap);
    let report = stalled.telemetry.unwrap();
    assert!(stalled.result.delivered * 2 < stalled.result.generated);
    assert!(report.total_stalls(iba_sim::StallCause::NoAdaptiveCredit) > 0);
    assert!(report.total_stalls(iba_sim::StallCause::NoEscapeCredit) > 0);
    s.assert_armed_equals_bare(&SHARDS_BY_BACKEND);
}
