//! Observers follow every drive.
//!
//! `RunResult` is documented as repeatable — `advance`, `run` and
//! `run_until_drained` may be chained on one `Network` and each returns
//! the totals so far. The merged tracer and the merged telemetry must
//! move with it: after *each* drive they describe the same packets and
//! the same forwards the `RunResult` of that drive counts, on every
//! shard count.

use iba_core::SimTime;
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RunResult, SimConfig, TelemetryOpts, TraceOpts};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// The tracer samples every packet, so its completed journeys are the
/// delivered packets; telemetry counts every grant, so its forwards are
/// the run's forwards.
fn assert_observers_match(net: &Network, result: &RunResult, when: &str) {
    let traces = net.tracer().expect("tracing armed").traces();
    let completed = traces.values().filter(|t| t.completed()).count() as u64;
    assert_eq!(completed, result.delivered, "{when}: completed journeys");
    assert_eq!(traces.len() as u64, result.generated, "{when}: journeys");

    let report = net.telemetry_sink().expect("telemetry armed").report();
    let (adaptive, escape) = report.total_forwards();
    assert_eq!(
        (adaptive, escape),
        (result.adaptive_forwards, result.escape_forwards),
        "{when}: telemetry forwards"
    );
}

#[test]
fn tracer_and_telemetry_follow_every_drive() {
    let topo = IrregularConfig::paper(8, 1).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let cfg = SimConfig::test(1);
    for shards in [1, 2, 4] {
        let mut net = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.01))
            .config(cfg)
            .trace(TraceOpts::all(1 << 20))
            .telemetry(TelemetryOpts::every_ns(5_000))
            .shards(shards)
            .build()
            .unwrap();
        assert!(net.advance(1_000) > 0);
        assert!(net.advance(1_000) > 0);

        let at_horizon = net.run();
        assert!(at_horizon.delivered > 0);
        assert_observers_match(&net, &at_horizon, &format!("shards {shards}, run"));

        let (drained, fully) = net.run_until_drained(
            cfg.horizon(),
            cfg.horizon().plus_ns(SimTime::from_us(500).as_ns()),
        );
        assert!(fully, "shards {shards}: the fabric drains");
        assert!(
            drained.delivered > at_horizon.delivered,
            "shards {shards}: the drain delivers what the horizon cut off"
        );
        assert_eq!(drained.delivered, drained.generated);
        assert_observers_match(&net, &drained, &format!("shards {shards}, drain"));
        // Every journey of a drained fabric ends in its delivery.
        let tracer = net.tracer().unwrap();
        assert!(tracer.traces().values().all(|t| t.completed()));
    }
}
