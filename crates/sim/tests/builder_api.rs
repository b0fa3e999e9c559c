//! `NetworkBuilder` API behavior.

use iba_core::{Json, SimTime};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecorderOpts, SimConfig, TelemetryOpts, TELEMETRY_SCHEMA_VERSION};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::{ScriptedPacket, TrafficScript, WorkloadSpec};

fn fixture() -> (Topology, FaRouting) {
    let topo = IrregularConfig::paper(8, 1).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    (topo, fa)
}

#[test]
fn builder_requires_a_config() {
    let (topo, fa) = fixture();
    let err = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.01))
        .build();
    let msg = err.err().expect("config is required").to_string();
    assert!(msg.contains("SimConfig"));
}

#[test]
fn builder_requires_exactly_one_traffic_source() {
    let (topo, fa) = fixture();
    let none = Network::builder(&topo, &fa)
        .config(SimConfig::test(1))
        .build();
    let msg = none
        .err()
        .expect("a traffic source is required")
        .to_string();
    assert!(msg.contains("traffic source"));

    let script = TrafficScript::new(vec![ScriptedPacket {
        at: SimTime::from_ns(100),
        src: iba_core::HostId(0),
        dst: iba_core::HostId(1),
        size_bytes: 32,
        sl: iba_core::ServiceLevel(0),
        adaptive: false,
        path_set: iba_workloads::PathSet::Primary,
    }])
    .unwrap();
    let both = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.01))
        .script(&script)
        .config(SimConfig::test(1))
        .build();
    let msg = both
        .err()
        .expect("two traffic sources must be rejected")
        .to_string();
    assert!(msg.contains("mutually exclusive"));

    let scripted = Network::builder(&topo, &fa)
        .script(&script)
        .config(SimConfig::test(1))
        .build();
    assert!(scripted.is_ok());
}

#[test]
fn builder_wires_every_option_and_telemetry_renders_as_json_lines() {
    let (topo, fa) = fixture();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.01))
        .config(SimConfig::test(2))
        .recorder(RecorderOpts {
            trigger_on_drop: false,
            watchdog: None,
            ..RecorderOpts::default()
        })
        .telemetry(TelemetryOpts::every_ns(2_000))
        .build()
        .unwrap();
    let r = net.run();
    assert!(r.delivered > 0);
    assert!(!net.flight_dump().unwrap().events.is_empty());
    // A JSON-lines stream is the memory sink rendered line by line:
    // one self-describing object per sample, then the versioned report.
    let mem = net.telemetry_sink().unwrap();
    let mut lines: Vec<String> = mem
        .samples()
        .iter()
        .map(|s| s.to_json().to_string_compact())
        .collect();
    lines.push(mem.report().to_json().to_string_compact());
    assert!(lines.len() > 2);
    let (report, samples) = lines.split_last().unwrap();
    for line in samples {
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("sample"));
        assert!(j.get("at_ns").and_then(Json::as_u64).is_some());
    }
    let j = Json::parse(report).unwrap();
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("report"));
    assert_eq!(
        j.get("schema_version").and_then(Json::as_u64),
        Some(u64::from(TELEMETRY_SCHEMA_VERSION))
    );
    assert_eq!(
        j.get("samples_taken").and_then(Json::as_u64),
        Some(samples.len() as u64)
    );
}

#[test]
fn repeated_builds_are_bit_identical() {
    let (topo, fa) = fixture();
    let spec = WorkloadSpec::uniform32(0.02);

    let run = || {
        Network::builder(&topo, &fa)
            .workload(spec)
            .config(SimConfig::test(9))
            .build()
            .unwrap()
            .run()
    };
    assert_eq!(run(), run(), "same inputs must produce identical results");
}

#[test]
fn builder_rejects_an_invalid_config() {
    let (topo, fa) = fixture();
    let build = |cfg: SimConfig| {
        Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.01))
            .config(cfg)
            .build()
    };
    assert!(build(SimConfig {
        data_vls: 2,
        vl_buffer_credits: iba_core::Credits(8),
        ..SimConfig::test(7)
    })
    .is_ok());
    for bad in [
        SimConfig {
            data_vls: 0,
            ..SimConfig::test(7)
        },
        SimConfig {
            measure_window: SimTime::ZERO,
            ..SimConfig::test(7)
        },
        SimConfig {
            vl_buffer_credits: iba_core::Credits(0),
            ..SimConfig::test(7)
        },
    ] {
        assert!(build(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn telemetry_disabled_runs_are_unaffected() {
    let (topo, fa) = fixture();
    let spec = WorkloadSpec::uniform32(0.05);
    let run = |telemetry: bool| {
        let b = Network::builder(&topo, &fa)
            .workload(spec)
            .config(SimConfig::test(11));
        let b = if telemetry {
            b.telemetry(TelemetryOpts::every_ns(1_000))
        } else {
            b
        };
        b.build().unwrap().run()
    };
    let plain = run(false);
    let instrumented = run(true);
    // Sampling rides the queue but must not perturb the simulation:
    // packet-level outcomes are identical (event counts differ by the
    // sample events themselves).
    assert_eq!(plain.delivered, instrumented.delivered);
    assert_eq!(plain.avg_latency_ns, instrumented.avg_latency_ns);
    assert_eq!(plain.escape_forwards, instrumented.escape_forwards);
    assert!(instrumented.events > plain.events);
}
