//! Telemetry determinism and invariants.
//!
//! The probe layer rides the ordinary event queue, so an instrumented
//! run must produce bit-identical samples and reports across both
//! `DesQueue` backends; and under correct credit flow control no single
//! VL buffer's occupancy can ever exceed its capacity `C_max`.

use iba_core::{OptionVerdict, SimTime};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    Network, QueueBackend, SimConfig, TelemetryOpts, TelemetryReport, TelemetrySample,
    TELEMETRY_SCHEMA_VERSION,
};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;
use proptest::prelude::*;

/// Run the 8-switch paper topology saturated enough to exercise escape
/// queues and stalls, returning every sample plus the flushed report.
fn instrumented_run(
    backend: QueueBackend,
    seed: u64,
    rate: f64,
    sample_every_ns: u64,
) -> (Vec<TelemetrySample>, TelemetryReport, SimConfig) {
    let topo = IrregularConfig::paper(8, seed).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut cfg = SimConfig::test(seed);
    cfg.queue_backend = backend;
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(rate).with_adaptive_fraction(1.0))
        .config(cfg)
        .telemetry(TelemetryOpts::every_ns(sample_every_ns))
        .build()
        .unwrap();
    net.run();
    let mem = net.telemetry_sink().expect("telemetry armed");
    (mem.samples().to_vec(), mem.report().clone(), cfg)
}

#[test]
fn timeseries_identical_across_backends() {
    let (heap_samples, heap_report, _) =
        instrumented_run(QueueBackend::BinaryHeap, 42, 0.08, 1_000);
    let (cal_samples, cal_report, _) = instrumented_run(QueueBackend::Calendar, 42, 0.08, 1_000);

    assert!(!heap_samples.is_empty(), "cadence produced no samples");
    assert_eq!(heap_samples.len(), cal_samples.len());
    assert_eq!(heap_samples, cal_samples, "occupancy timeseries diverged");
    assert_eq!(heap_report, cal_report, "telemetry reports diverged");
    assert_eq!(heap_report.schema_version, TELEMETRY_SCHEMA_VERSION);

    // The saturated run actually exercised the instrumented paths.
    let (adaptive, escape) = heap_report.total_forwards();
    assert!(adaptive > 0, "no adaptive forwards recorded");
    assert!(escape > 0, "no escape forwards recorded");
    assert!(
        heap_report.total_stalls(OptionVerdict::NoAdaptiveCredit) > 0,
        "a saturated run should record adaptive-credit stalls"
    );
    assert!(
        heap_report.arb_wait_quantile(0.5).is_some(),
        "arbitration-wait histogram is empty"
    );
}

#[test]
fn samples_land_on_the_cadence_and_report_counts_them() {
    let (samples, report, cfg) = instrumented_run(QueueBackend::BinaryHeap, 7, 0.02, 5_000);
    assert_eq!(report.sample_every_ns, 5_000);
    assert_eq!(report.samples_taken, samples.len() as u64);
    assert_eq!(report.samples_dropped, 0);
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.at, SimTime::from_ns((i as u64 + 1) * 5_000));
    }
    // The final sample lands at or before the horizon.
    assert!(samples.last().unwrap().at <= cfg.horizon());
}

#[test]
fn sample_cap_drops_excess_samples_but_keeps_counters() {
    let topo = IrregularConfig::paper(8, 3).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.05))
        .config(SimConfig::test(3))
        .telemetry(TelemetryOpts {
            sample_every_ns: 1_000,
            max_samples: 4,
        })
        .build()
        .unwrap();
    net.run();
    let mem = net.telemetry_sink().unwrap();
    assert_eq!(mem.samples().len(), 4);
    let report = mem.report();
    assert_eq!(report.samples_taken, 4);
    assert!(report.samples_dropped > 0);
    let (adaptive, _) = report.total_forwards();
    assert!(adaptive > 0, "counters accumulate past the sample cap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Flow-control invariant, observed through the probe: no single VL
    /// buffer ever holds more credits than its capacity `C_max`, at any
    /// sample instant, any load, any seed.
    #[test]
    fn occupancy_never_exceeds_capacity(
        seed in 0u64..500,
        rate in 0.005f64..0.15,
    ) {
        let (samples, _, cfg) = instrumented_run(QueueBackend::BinaryHeap, seed, rate, 2_000);
        let cap = cfg.vl_buffer_credits;
        for s in &samples {
            for o in &s.occupancy {
                prop_assert!(
                    o.peak <= cap,
                    "buffer over capacity at {:?}: {:?} > {:?}", s.at, o.peak, cap
                );
                // Aggregates are consistent: regions sum to the total.
                prop_assert_eq!(o.total(), o.adaptive + o.escape);
            }
        }
    }
}
