//! Observers follow every drive.
//!
//! `RunResult` is documented as repeatable — `advance`, `run` and
//! `run_until_drained` may be chained on one `Network` and each returns
//! the totals so far. The journey capture's dump and the merged
//! telemetry must move with it: after *each* drive they describe the
//! same packets and the same forwards the `RunResult` of that drive
//! counts, on every shard count.

mod common;

use iba_core::{FlightEvent, SimTime};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RunResult, SimConfig, TelemetryOpts};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// The capture keeps every packet's events, so its completed journeys
/// are the delivered packets; telemetry counts every grant, so its
/// forwards are the run's forwards. Returns the journeys not completed.
fn assert_observers_match(net: &Network, result: &RunResult, when: &str) -> u64 {
    let dump = net.flight_dump().expect("the capture is armed");
    let journeys = common::journeys(&dump);
    let completed = (journeys.values())
        .filter(|j| {
            j.iter()
                .any(|e| matches!(e.ev, FlightEvent::Delivered { .. }))
        })
        .count() as u64;
    assert_eq!(completed, result.delivered, "{when}: completed journeys");
    assert_eq!(journeys.len() as u64, result.generated, "{when}: journeys");

    let report = net.telemetry_sink().expect("telemetry armed").report();
    let (adaptive, escape) = report.total_forwards();
    assert_eq!(
        (adaptive, escape),
        (result.adaptive_forwards, result.escape_forwards),
        "{when}: telemetry forwards"
    );
    journeys.len() as u64 - completed
}

#[test]
fn capture_and_telemetry_follow_every_drive() {
    let topo = IrregularConfig::paper(8, 1).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let cfg = SimConfig::test(1);
    for shards in [1, 2, 4] {
        let mut net = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.01))
            .config(cfg)
            .recorder(common::CAPTURE)
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
        let open = assert_observers_match(&net, &drained, &format!("shards {shards}, drain"));
        assert_eq!(
            open, 0,
            "every journey of a drained fabric ends in its delivery"
        );
    }
}
