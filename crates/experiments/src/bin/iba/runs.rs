//! Single runs and studies around them: ad-hoc exploration, the
//! link-utilization heatmap, fault recovery, telemetry, the engine
//! profile and the flight recorder.

use crate::FIDELITY;
use iba_campaign::write_atomic;
use iba_core::OptionVerdict;
use iba_experiments::cli::{Args, Command, Flag};
use iba_experiments::flightrec::{perfetto_text, run_recorded, validate_perfetto, FlightRunSpec};
use iba_experiments::metrics::{self, MetricsConfig};
use iba_experiments::{faults, run_point, telemetry, tracequery, Fidelity};
use iba_routing::{FaRouting, OptionDistribution, PathLengthStats, RoutingConfig};
use iba_sim::{Network, RecorderOpts, RecoveryPolicy, SimConfig, WatchdogOpts};
use iba_stats::timeseries_table;
use iba_topology::{IrregularConfig, TopologyMetrics};
use iba_workloads::{InjectionProcess, TrafficPattern, WorkloadSpec};

pub const EXPLORE: Command = Command {
    name: "explore",
    about: "one simulation with topology, routing and result summaries",
    positional: &[],
    flags: &[&[
        Flag::value("switches", "N", "fabric size [16]"),
        Flag::value("links", "N", "inter-switch links per switch [4]"),
        Flag::value("hosts", "N", "hosts per switch [4]"),
        Flag::value("topo-seed", "N", "topology seed [100]"),
        Flag::value("options", "N", "routing options [2]"),
        Flag::value("pattern", "NAME", "e.g. bitrev, hotspot-10 [uniform]"),
        Flag::value("packet", "BYTES", "packet size [32]"),
        Flag::value("adaptive", "F", "adaptive-traffic fraction [1.0]"),
        Flag::value("rate", "B/NS", "injection rate per host, bytes/ns [0.01]"),
        Flag::value("sls", "N", "service levels [1]"),
        Flag::value("seed", "N", "simulation seed [1]"),
    ]],
    run: explore,
};

fn explore(args: &Args) -> Result<(), String> {
    let topo_cfg = IrregularConfig {
        switches: args.get_or("switches", 16usize)?,
        inter_switch_links: args.get_or("links", 4usize)?,
        hosts_per_switch: args.get_or("hosts", 4usize)?,
        seed: args.get_or("topo-seed", 100u64)?,
    };
    let topo = topo_cfg.generate().map_err(|e| e.to_string())?;
    println!("topology: {}", TopologyMetrics::compute(&topo));

    let options = args.get_or("options", 2u16)?;
    let routing =
        FaRouting::build(&topo, RoutingConfig::with_options(options)).map_err(|e| e.to_string())?;
    let plens = PathLengthStats::compute(&topo, routing.minimal(), routing.escape())
        .map_err(|e| e.to_string())?;
    println!(
        "routing: {options} options, root {}, avg minimal {:.2} hops, avg up*/down* {:.2} hops \
         ({:.0}% of pairs non-minimal)",
        routing.escape().root(),
        plens.avg_minimal,
        plens.avg_updown,
        plens.nonminimal_fraction * 100.0
    );
    let dist = OptionDistribution::compute(&topo, routing.minimal(), routing.escape(), 4, false)
        .map_err(|e| e.to_string())?;
    println!(
        "options per (switch, destination): {:?} % for 1..4 options",
        dist.percent
            .iter()
            .map(|p| (p * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    let pattern = args.get("pattern").unwrap_or("uniform");
    let spec = WorkloadSpec {
        pattern: TrafficPattern::from_name(pattern)
            .ok_or_else(|| format!("unknown pattern {pattern:?}"))?,
        packet_bytes: args.get_or("packet", 32u32)?,
        adaptive_fraction: args.get_or("adaptive", 1.0f64)?,
        injection_rate: args.get_or("rate", 0.01f64)?,
        process: InjectionProcess::Poisson,
        service_levels: args.get_or("sls", 1u8)?,
    };
    let cfg = SimConfig::paper(args.get_or("seed", 1u64)?);
    let r = run_point(&topo, &routing, spec, cfg).map_err(|e| e.to_string())?;
    println!(
        "\nrun: {} generated, {} delivered, avg latency {:.0} ns (max {}), \
         accepted {:.5} B/ns/switch",
        r.generated,
        r.delivered,
        r.avg_latency_ns,
        r.max_latency_ns,
        r.accepted_bytes_per_ns_per_switch
    );
    println!(
        "     {:.2} avg hops, {:.1}% escape forwards, {} order violations, {} events",
        r.avg_hops,
        r.escape_fraction() * 100.0,
        r.order_violations,
        r.events
    );
    Ok(())
}

pub const HEATMAP: Command = Command {
    name: "heatmap",
    about: "link utilization per switch, deterministic vs fully adaptive (§5.2.1)",
    positional: &[],
    flags: &[&[
        Flag::value("switches", "N", "fabric size [32]"),
        Flag::value("topo-seed", "N", "topology seed [100]"),
        Flag::value("rate", "B/NS", "offered load per host, bytes/ns [0.02]"),
        Flag::value("seed", "N", "simulation seed [1]"),
    ]],
    run: heatmap,
};

/// The utilization scale, one character per 10 %.
const SHADES: &[u8; 10] = b".-=+*xX#%@";

/// One row per switch (sorted by up*/down* tree level, root on top),
/// one column per inter-switch port.
fn heatmap(args: &Args) -> Result<(), String> {
    let topo = IrregularConfig::paper(
        args.get_or("switches", 32usize)?,
        args.get_or("topo-seed", 100u64)?,
    )
    .generate()
    .map_err(|e| e.to_string())?;
    let routing =
        FaRouting::build(&topo, RoutingConfig::two_options()).map_err(|e| e.to_string())?;
    let rate = args.get_or("rate", 0.02f64)?;
    let seed = args.get_or("seed", 1u64)?;

    let utilization = |fraction: f64| -> Result<Vec<Vec<f64>>, String> {
        let spec = WorkloadSpec::uniform32(rate).with_adaptive_fraction(fraction);
        let mut net = Network::builder(&topo, &routing)
            .workload(spec)
            .config(SimConfig::paper(seed))
            .build()
            .map_err(|e| e.to_string())?;
        let _ = net.run();
        Ok(net.port_utilization())
    };
    let det = utilization(0.0)?;
    let ada = utilization(1.0)?;

    let mut order: Vec<_> = topo.switch_ids().collect();
    order.sort_by_key(|&s| (routing.escape().level_of(s), s.0));

    println!("link utilization per switch (rows: up*/down* tree level; cols: inter-switch ports)");
    println!(
        "scale: . <10%  - <20%  = <30%  + <40%  * <50%  x <60%  X <70%  # <80%  % <90%  @ >=90%\n"
    );
    println!(
        "{:<18}{:<16}{:<16}",
        "switch (level)", "deterministic", "fully adaptive"
    );
    for s in order {
        let ports: Vec<usize> = topo
            .switch_neighbors(s)
            .map(|(p, _, _)| p.index())
            .collect();
        let row = |util: &Vec<Vec<f64>>| -> String {
            ports
                .iter()
                .map(|&p| SHADES[((util[s.index()][p] * 10.0) as usize).min(9)] as char)
                .collect()
        };
        let marker = if s == routing.escape().root() {
            " <- root"
        } else {
            ""
        };
        println!(
            "{:<18}{:<16}{:<16}{}",
            format!("{s} (L{})", routing.escape().level_of(s)),
            row(&det),
            row(&ada),
            marker
        );
    }

    let mean = |util: &Vec<Vec<f64>>| -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in topo.switch_ids() {
            for (p, _, _) in topo.switch_neighbors(s) {
                sum += util[s.index()][p.index()];
                n += 1;
            }
        }
        sum / n as f64
    };
    let peak = |util: &Vec<Vec<f64>>| -> f64 {
        topo.switch_ids()
            .flat_map(|s| {
                topo.switch_neighbors(s)
                    .map(move |(p, _, _)| util[s.index()][p.index()])
                    .collect::<Vec<_>>()
            })
            .fold(0.0, f64::max)
    };
    println!(
        "\ndeterministic: mean {:.1}% / peak {:.1}%   adaptive: mean {:.1}% / peak {:.1}%",
        mean(&det) * 100.0,
        peak(&det) * 100.0,
        mean(&ada) * 100.0,
        peak(&ada) * 100.0
    );
    println!(
        "Up*/down* concentrates load on the links near the root (top rows); fully\n\
         adaptive routing flattens the distribution — the §5.2.1 mechanism behind\n\
         the throughput gains."
    );
    Ok(())
}

pub const FAULTS: Command = Command {
    name: "faults",
    about: "link-fault recovery sweep: fault count × recovery policy (DESIGN.md §8)",
    positional: &[],
    flags: &[&[
        Flag::value("switches", "N", "fabric size [32]"),
        Flag::value("faults", "a,b", "fault counts [1,2,3]"),
        Flag::value("policies", "a,b", "none|apm-migrate|sm-resweep [all three]"),
        Flag::value("seeds", "N", "seeds per cell [5]"),
        Flag::value("seed", "N", "first seed [200]"),
        Flag::value("rate", "B/NS", "injection rate per host, bytes/ns [0.02]"),
        Flag::value("resweep-latency-ns", "N", "fault to new tables, ns [50000]"),
        Flag::value("out", "PATH", "results document [results/faults.json]"),
    ]],
    run: fault_sweep,
};

fn fault_sweep(args: &Args) -> Result<(), String> {
    let size = args.get_or("switches", 32usize)?;
    let fault_counts = args.get_list_or("faults", &[1usize, 2, 3])?;
    let seeds = args.get_or("seeds", 5u64)?;
    let base_seed = args.get_or("seed", 200u64)?;
    let rate = args.get_or("rate", 0.02f64)?;
    let resweep_latency_ns = args.get_or("resweep-latency-ns", 50_000u64)?;
    let out = args.get("out").unwrap_or("results/faults.json");
    let policies: Vec<RecoveryPolicy> = match args.get("policies") {
        None => vec![
            RecoveryPolicy::None,
            RecoveryPolicy::ApmMigrate,
            RecoveryPolicy::SmResweep,
        ],
        Some(list) => list
            .split(',')
            .map(|s| {
                faults::parse_policy(s.trim())
                    .ok_or_else(|| format!("unknown policy {s:?} (none|apm-migrate|sm-resweep)"))
            })
            .collect::<Result<_, _>>()?,
    };

    eprintln!(
        "faults: {size} switches, faults {fault_counts:?}, {} policies, {seeds} seeds",
        policies.len()
    );
    let cells = faults::sweep(
        size,
        &fault_counts,
        &policies,
        seeds,
        base_seed,
        rate,
        resweep_latency_ns,
    )
    .map_err(|e| e.to_string())?;

    println!("policy        faults  ratio(min/avg)      drops(transit/post)  recovered  avg rec µs  avg SMPs");
    for c in &cells {
        let rec_us = (c.recovery_ns.count > 0).then(|| format!("{:.1}", c.recovery_ns.avg() / 1e3));
        let smps = (c.resweep_smps.count > 0).then(|| format!("{:.0}", c.resweep_smps.avg()));
        println!(
            "{:<13} {:>6}  {:>7.4}/{:<9.4}  {:>9}/{:<9}  {:>5}/{:<3}  {:>10}  {:>8}",
            faults::policy_name(c.policy),
            c.faults,
            c.delivered_ratio.min,
            c.delivered_ratio.avg(),
            c.drops_in_transit,
            c.drops_after_recovery,
            c.recovered,
            c.seeds,
            rec_us.as_deref().unwrap_or("-"),
            smps.as_deref().unwrap_or("-"),
        );
    }

    let json = faults::to_json(size, seeds, rate, resweep_latency_ns, &cells);
    write_atomic(out, json).map_err(|e| e.to_string())?;
    eprintln!("faults: wrote {out}");
    Ok(())
}

pub const TELEMETRY: Command = Command {
    name: "telemetry",
    about: "telemetry load sweep: occupancy, stalls and escape usage vs load",
    positional: &[],
    flags: &[&[
        Flag::value("switches", "N", "fabric size [8]"),
        Flag::value("seed", "N", "seed [42]"),
        Flag::value("grid", "a,b", "offered loads [0.05,0.1,0.2,0.3,0.5,0.8]"),
        Flag::value("sample-every-ns", "N", "sampling period [1000]"),
        Flag::value("out", "PATH", "results document [results/telemetry.json]"),
    ]],
    run: telemetry_sweep,
};

fn telemetry_sweep(args: &Args) -> Result<(), String> {
    let size = args.get_or("switches", 8usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let grid = args.get_list_or("grid", &[0.05f64, 0.1, 0.2, 0.3, 0.5, 0.8])?;
    let sample_every_ns = args.get_or("sample-every-ns", 1_000u64)?;
    let out = args.get("out").unwrap_or("results/telemetry.json");

    eprintln!(
        "telemetry: {size} switches, seed {seed}, {} load points",
        grid.len()
    );
    let points =
        telemetry::run_sweep(size, seed, &grid, sample_every_ns).map_err(|e| e.to_string())?;

    println!(
        "offered  accepted  avg lat ns  escape%  adaptive-stalls  escape-stalls  p99 arb wait ns"
    );
    for p in &points {
        println!(
            "{:>7.3}  {:>8.4}  {:>10.0}  {:>6.2}  {:>15}  {:>13}  {:>15}",
            p.offered,
            p.result.accepted_bytes_per_ns_per_switch,
            p.result.avg_latency_ns,
            p.result.escape_fraction() * 100.0,
            p.report.total_stalls(OptionVerdict::NoAdaptiveCredit),
            p.report.total_stalls(OptionVerdict::NoEscapeCredit),
            p.report
                .arb_wait_quantile(0.99)
                .map_or_else(|| "-".into(), |q| q.to_string()),
        );
    }

    println!("\nfabric-total escape-region occupancy (credits) over simulated time:");
    let named: Vec<(String, _)> = points
        .iter()
        .map(|p| (format!("escape @ {:.3}", p.offered), &p.escape_occupancy))
        .collect();
    let rows: Vec<(&str, _)> = named.iter().map(|(n, ts)| (n.as_str(), *ts)).collect();
    println!("{}", timeseries_table(&rows));

    let json = telemetry::to_json(size, seed, sample_every_ns, &points);
    write_atomic(out, json).map_err(|e| e.to_string())?;
    eprintln!("telemetry: wrote {out}");
    Ok(())
}

pub const METRICS: Command = Command {
    name: "metrics",
    about: "shard-scaling profile: one profiled run per shard count",
    positional: &[],
    flags: &[&[
        FIDELITY,
        Flag::value("switches", "N", "fabric size [32]"),
        Flag::value("load", "B/NS", "offered load per host, bytes/ns [0.01]"),
        Flag::value("adaptive", "F", "adaptive-traffic fraction [1.0]"),
        Flag::value("shards", "a,b", "shard counts to profile [1,2,4]"),
        Flag::value("seed", "N", "seed [100]"),
        Flag::value("out", "PATH", "experiment document [results/metrics.json]"),
    ]],
    run: metrics_profile,
};

/// Fails unless every shard count returns the same `RunResult` and it
/// delivered something.
fn metrics_profile(args: &Args) -> Result<(), String> {
    let fidelity = args.get_or("fidelity", Fidelity::Quick)?;
    let mut cfg = MetricsConfig::paper(fidelity, args.get_or("seed", 100u64)?);
    cfg.switches = args.get_or("switches", cfg.switches)?;
    cfg.load = args.get_or("load", cfg.load)?;
    cfg.adaptive_fraction = args.get_or("adaptive", cfg.adaptive_fraction)?;
    cfg.shards = args.get_list_or("shards", &cfg.shards)?;
    let out = args.get("out").unwrap_or("results/metrics.json");

    eprintln!(
        "metrics: {:?} fidelity, {} switches, shards {:?}, load {}",
        fidelity, cfg.switches, cfg.shards, cfg.load
    );
    let points = metrics::run(&cfg).map_err(|e| e.to_string())?;

    println!("shards  windows  barrier_wait  p50/p99 latency ns");
    for p in &points {
        println!(
            "{:>6}  {:>7}  {:>11.1}%  {} / {}",
            p.shards,
            p.profile.windows,
            p.profile.barrier_wait_share() * 100.0,
            p.result.p50_latency_ns.unwrap_or(0),
            p.result.p99_latency_ns.unwrap_or(0),
        );
    }
    write_atomic(out, metrics::to_json(&cfg, &points)).map_err(|e| e.to_string())?;
    eprintln!("metrics: wrote {out}");
    metrics::verify(&points)
}

pub const FLIGHTREC: Command = Command {
    name: "flightrec",
    about: "a run with the flight recorder armed: JSONL dump plus a Perfetto trace",
    positional: &[],
    flags: &[&[
        Flag::value("switches", "N", "fabric size [16]"),
        Flag::value("seed", "N", "seed [3]"),
        Flag::value("rate", "B/NS", "injection rate per host, bytes/ns [0.02]"),
        Flag::value("fault-at-us", "N", "kill a link then, 0 = no fault [20]"),
        Flag::value("capacity", "N", "recorder ring entries per switch [1024]"),
        Flag::value("check-every-ns", "N", "watchdog period [2000]"),
        Flag::value("stall-after-ns", "N", "no-progress time to a stall [10000]"),
        Flag::value("out-dir", "DIR", "artifact directory [results/flight]"),
    ]],
    run: flightrec,
};

/// The defaults reproduce the wedge scenario: one link dies mid-window
/// with no recovery, the stall watchdog flags the stranded buffers as a
/// suspected wedge, and the recorder freezes around the evidence.
fn flightrec(args: &Args) -> Result<(), String> {
    let defaults = FlightRunSpec::default();
    let fault_at_us = args.get_or("fault-at-us", 20u64)?;
    let spec = FlightRunSpec {
        size: args.get_or("switches", defaults.size)?,
        seed: args.get_or("seed", defaults.seed)?,
        rate: args.get_or("rate", defaults.rate)?,
        fault_at_us: (fault_at_us > 0).then_some(fault_at_us),
        recorder: RecorderOpts {
            capacity_per_switch: args.get_or("capacity", 1024usize)?,
            watchdog: Some(WatchdogOpts {
                check_every_ns: args.get_or("check-every-ns", 2_000u64)?,
                stall_after_ns: args.get_or("stall-after-ns", 10_000u64)?,
            }),
            ..defaults.recorder
        },
    };
    let out_dir = args.get("out-dir").unwrap_or("results/flight");

    eprintln!(
        "flightrec: {} switches, seed {}, rate {}, fault {}",
        spec.size,
        spec.seed,
        spec.rate,
        spec.fault_at_us.map_or_else(
            || "none".to_string(),
            |us| format!("at {us}us (no recovery)")
        ),
    );
    let (result, dump) = run_recorded(&spec, |net| net.flight_dump()).map_err(|e| e.to_string())?;

    print!("{}", tracequery::describe(&dump));
    println!(
        "run: {} generated, {} delivered, {} in-transit drops",
        result.generated, result.delivered, result.drops_in_transit
    );
    if let Some(packet) = dump.triggers.first().and_then(|t| t.packet) {
        println!("what the rings hold of {packet}, the first trigger's packet:");
        for e in dump.events_for_packet(packet) {
            println!("{e}");
        }
    }

    let jsonl_path = format!("{out_dir}/flight.jsonl");
    write_atomic(&jsonl_path, dump.to_jsonl()).map_err(|e| e.to_string())?;
    let perfetto = perfetto_text(&dump);
    let n = validate_perfetto(&perfetto)?;
    let perfetto_path = format!("{out_dir}/flight.perfetto.json");
    write_atomic(&perfetto_path, perfetto).map_err(|e| e.to_string())?;
    eprintln!(
        "flightrec: wrote {jsonl_path} ({} events)",
        dump.events.len()
    );
    eprintln!("flightrec: wrote {perfetto_path} ({n} trace events, validated)");
    Ok(())
}
