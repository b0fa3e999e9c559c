//! End-to-end simulator throughput benchmark: `BENCH_sim.json`.
//!
//! Two sweeps:
//!
//! * **instrumentation sweep** — the canonical perf workload (a
//!   32-switch irregular paper network under uniform traffic, one
//!   shard) a few times per event-queue backend, in four
//!   instrumentation modes: everything off (the default, and the number
//!   the performance work in this repository is measured by), the
//!   telemetry probes armed at the default 1 µs cadence, the flight
//!   recorder armed with default rings + watchdog, and the fault
//!   machinery armed with an empty schedule plus a zero-probability
//!   corruption hook (bounding each hook family's overhead separately —
//!   the armed-but-empty fault row must match the bare row), and the
//!   metrics plane armed (engine profiling + post-run registry fill).
//!   These rows carry `"shards": 1` and are the single-shard
//!   regression baseline; the everything-off row (`"metrics": "disabled"`) is the
//!   one perf work is gated on.
//!
//! * **scaling sweep** — fabric sizes 32/64/128/256 crossed with shard
//!   counts 1/2/4/8 (threads = shards, capped at
//!   the host's available parallelism), bare instrumentation,
//!   binary-heap backend. `"threads"` records the cap actually applied:
//!   on a single-core host the rows measure the conservative window
//!   protocol's overhead, not its speedup.
//!
//! Reports events/second (median over runs) as machine-readable JSON;
//! see DESIGN.md ("Performance") for how to read it.
//!
//! Usage: `cargo run --release -p iba-bench --bin bench_sim [out.json]`

use iba_bench::BenchFixture;
use iba_core::Json;
use iba_sim::{QueueBackend, RecorderOpts, SimConfig, TelemetryOpts};
use iba_workloads::WorkloadSpec;
use std::time::Instant;

const SWITCHES: usize = 32;
const TOPOLOGY_SEED: u64 = 1;
const RUNS: usize = 5;
/// Fabric sizes of the shard-scaling sweep (the first doubles as the
/// single-shard baseline size above).
const SCALE_SWITCHES: [usize; 4] = [32, 64, 128, 256];
const SCALE_SHARDS: [usize; 4] = [1, 2, 4, 8];
const SCALE_RUNS: usize = 3;
/// Moderate uniform load (bytes/ns/host): busy but below saturation, so
/// the run exercises arbitration and flow control rather than queueing
/// pathology.
const INJECTION_RATE: f64 = 0.02;

struct Sample {
    events: u64,
    delivered: u64,
    wall_s: f64,
}

/// One (telemetry, recorder) instrumentation combination of the sweep.
#[derive(Clone, Copy)]
enum Mode {
    Bare,
    Telemetry,
    Recorder,
    FaultsArmed,
    Metrics,
}

impl Mode {
    fn telemetry(self) -> &'static str {
        match self {
            Mode::Telemetry => "enabled",
            _ => "disabled",
        }
    }

    fn recorder(self) -> &'static str {
        match self {
            Mode::Recorder => "enabled",
            _ => "disabled",
        }
    }

    fn faults(self) -> &'static str {
        match self {
            Mode::FaultsArmed => "armed-empty",
            _ => "disabled",
        }
    }

    fn metrics(self) -> &'static str {
        match self {
            Mode::Metrics => "enabled",
            _ => "disabled",
        }
    }
}

fn run_once(fixture: &BenchFixture, backend: QueueBackend, seed: u64, mode: Mode) -> Sample {
    let mut cfg = SimConfig::paper(seed);
    cfg.queue_backend = backend;
    let spec = WorkloadSpec::uniform32(INJECTION_RATE);
    let t0 = Instant::now();
    let result = match mode {
        Mode::Bare => fixture.simulate(spec, cfg),
        Mode::Telemetry => fixture.simulate_instrumented(spec, cfg, TelemetryOpts::default()),
        Mode::Recorder => fixture.simulate_recorded(spec, cfg, RecorderOpts::default()),
        Mode::FaultsArmed => fixture.simulate_fault_armed(spec, cfg),
        Mode::Metrics => fixture.simulate_metered(spec, cfg),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Sample {
        events: result.events,
        delivered: result.delivered,
        wall_s,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let fixture = BenchFixture::paper(SWITCHES, TOPOLOGY_SEED);

    let mut results = Vec::new();
    for (backend, which) in [
        ("binary_heap", QueueBackend::BinaryHeap),
        ("calendar", QueueBackend::Calendar),
    ] {
        for mode in [
            Mode::Bare,
            Mode::Telemetry,
            Mode::Recorder,
            Mode::FaultsArmed,
            Mode::Metrics,
        ] {
            let mut rates = Vec::with_capacity(RUNS);
            let mut last = None;
            for run in 0..RUNS {
                let s = run_once(&fixture, which, 100 + run as u64, mode);
                eprintln!(
                    "{backend} (telemetry {}, recorder {}, faults {}, metrics {}) run {run}: {} events in {:.3}s = {:.0} events/s",
                    mode.telemetry(),
                    mode.recorder(),
                    mode.faults(),
                    mode.metrics(),
                    s.events,
                    s.wall_s,
                    s.events as f64 / s.wall_s
                );
                rates.push(s.events as f64 / s.wall_s);
                last = Some(s);
            }
            let last = last.expect("RUNS > 0");
            let eps = median(&mut rates);
            results.push(Json::obj([
                ("backend", Json::from(backend)),
                ("telemetry", Json::from(mode.telemetry())),
                ("recorder", Json::from(mode.recorder())),
                ("faults", Json::from(mode.faults())),
                ("metrics", Json::from(mode.metrics())),
                ("shards", Json::from(1u64)),
                ("events_per_sec", Json::from(eps.round())),
                ("events_last_run", Json::from(last.events)),
                ("delivered_last_run", Json::from(last.delivered)),
                ("wall_s_last_run", Json::from(last.wall_s)),
            ]));
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scaling = Vec::new();
    for switches in SCALE_SWITCHES {
        let fixture = BenchFixture::paper(switches, TOPOLOGY_SEED);
        for shards in SCALE_SHARDS {
            let threads = shards.min(cores);
            let mut rates = Vec::with_capacity(SCALE_RUNS);
            let mut last = None;
            for run in 0..SCALE_RUNS {
                let mut cfg = SimConfig::paper(100 + run as u64);
                cfg.queue_backend = QueueBackend::BinaryHeap;
                let spec = WorkloadSpec::uniform32(INJECTION_RATE);
                let t0 = Instant::now();
                let result = fixture.simulate_sharded(spec, cfg, shards, threads);
                let wall_s = t0.elapsed().as_secs_f64();
                eprintln!(
                    "{switches} switches, {shards} shards, {threads} threads, run {run}: \
                     {} events in {:.3}s = {:.0} events/s",
                    result.events,
                    wall_s,
                    result.events as f64 / wall_s
                );
                rates.push(result.events as f64 / wall_s);
                last = Some(Sample {
                    events: result.events,
                    delivered: result.delivered,
                    wall_s,
                });
            }
            let last = last.expect("SCALE_RUNS > 0");
            let eps = median(&mut rates);
            scaling.push(Json::obj([
                ("switches", Json::from(switches)),
                ("shards", Json::from(shards)),
                ("threads", Json::from(threads)),
                ("backend", Json::from("binary_heap")),
                ("metrics", Json::from("disabled")),
                ("events_per_sec", Json::from(eps.round())),
                ("events_last_run", Json::from(last.events)),
                ("delivered_last_run", Json::from(last.delivered)),
                ("wall_s_last_run", Json::from(last.wall_s)),
            ]));
        }
    }

    let json = Json::obj([
        ("benchmark", Json::from("sim_events_per_sec")),
        ("switches", Json::from(SWITCHES)),
        ("topology_seed", Json::from(TOPOLOGY_SEED)),
        ("injection_rate_bytes_per_ns", Json::from(INJECTION_RATE)),
        ("runs_per_backend", Json::from(RUNS)),
        ("available_parallelism", Json::from(cores)),
        ("results", Json::Arr(results)),
        ("shard_scaling", Json::Arr(scaling)),
    ])
    .to_string_pretty();
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
