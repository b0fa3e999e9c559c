//! Queries over written artifacts: flight-recorder dumps and metrics
//! snapshot streams.

use iba_core::{Json, PacketId};
use iba_experiments::cli::{Args, Command, Flag};
use iba_experiments::tracequery::{causal_chain, describe, slice, stall_summary, Filter};
use iba_sim::FlightDump;
use iba_stats::{MetricValue, MetricsRegistry};

pub const TRACE: Command = Command {
    name: "trace",
    about: "query a flight-recorder dump: summary, event slice, causal chain, stall causes",
    positional: &[(
        "<summary|slice|chain|stalls>",
        "header and census | matching events | one packet's chain | top stall causes",
    )],
    flags: &[&[
        Flag::value("in", "PATH", "the dump (flight.jsonl), required"),
        Flag::value("packet", "N", "slice: this packet; chain: required"),
        Flag::value("switch", "N", "slice: only events of this switch"),
        Flag::value("port", "N", "slice: only this port"),
        Flag::value("vl", "N", "slice: only this VL"),
        Flag::value("from-ns", "N", "slice: only events at or after this time"),
        Flag::value("to-ns", "N", "slice: only events before this time"),
        Flag::value("limit", "N", "slice: print at most N events [all]"),
    ]],
    run: trace,
};

fn trace(args: &Args) -> Result<(), String> {
    let command = args
        .positional
        .first()
        .ok_or("missing <summary|slice|chain|stalls>")?;
    let path = args.get("in").ok_or("missing --in <flight.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let dump = FlightDump::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;

    match command.as_str() {
        "summary" => print!("{}", describe(&dump)),
        "slice" => {
            let filter = Filter {
                packet: args.opt("packet")?,
                switch: args.opt("switch")?,
                port: args.opt("port")?,
                vl: args.opt("vl")?,
                from_ns: args.opt("from-ns")?,
                to_ns: args.opt("to-ns")?,
            };
            let events = slice(&dump, &filter);
            let limit = args.get_or("limit", usize::MAX)?;
            for e in events.iter().take(limit) {
                println!("{e}");
            }
            if events.len() > limit {
                println!("... {} more (raise --limit)", events.len() - limit);
            }
            eprintln!("{} of {} events matched", events.len(), dump.events.len());
        }
        "chain" => {
            let packet: u64 = args.opt("packet")?.ok_or("chain needs --packet N")?;
            let chain = causal_chain(&dump, PacketId(packet));
            if chain.is_empty() {
                return Err(format!("no events for pkt#{packet} in {path}"));
            }
            for e in &chain {
                println!("{e}");
            }
        }
        "stalls" => {
            let s = stall_summary(&dump);
            println!(
                "{} blocked events, {} watchdog verdicts",
                s.blocked_events, s.stall_events
            );
            println!("top rejection reasons:");
            for (name, n) in &s.rejections {
                println!("  {n:>8} {name}");
            }
            println!("watchdog classes:");
            for (name, n) in &s.classes {
                println!("  {n:>8} {name}");
            }
            if !s.drops.is_empty() {
                println!("drops:");
                for (name, n) in &s.drops {
                    println!("  {n:>8} {name}");
                }
            }
        }
        other => {
            return Err(format!(
                "unknown query {other:?} (summary|slice|chain|stalls)"
            ))
        }
    }
    Ok(())
}

pub const METRICS_REPORT: Command = Command {
    name: "metrics-report",
    about: "query metrics snapshots: one snapshot, top counters, a histogram SLO gate",
    positional: &[(
        "<summary|top|slo>",
        "every series of a snapshot | counters by value | quantile vs ceiling",
    )],
    flags: &[&[
        Flag::value("in", "PATH", "snapshot stream (metrics.jsonl), required"),
        Flag::value("at", "N", "summary: the snapshot labeled at_ns=N [last]"),
        Flag::value("k", "N", "top: how many counters [10]"),
        Flag::value("prefix", "NAME", "top: only series starting with this"),
        Flag::value("metric", "NAME", "slo: the histogram to gate, required"),
        Flag::value("q", "Q", "slo: the quantile [0.99]"),
        Flag::value("max-ns", "N", "slo: the ceiling, required; a breach fails"),
    ]],
    run: metrics_report,
};

/// Every `(at_ns, registry)` snapshot in the JSONL stream, in file
/// order. Non-snapshot lines are an error, not silently skipped.
fn load(path: &str) -> Result<Vec<(u64, MetricsRegistry)>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut snaps = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("{path}:{}: not JSON: {e:?}", i + 1))?;
        let snap = MetricsRegistry::from_snapshot_json(&j)
            .ok_or_else(|| format!("{path}:{}: not a metrics snapshot", i + 1))?;
        snaps.push(snap);
    }
    if snaps.is_empty() {
        return Err(format!("{path}: no snapshots"));
    }
    Ok(snaps)
}

/// The snapshot labeled `at`, or the last one when `at` is `None`.
fn pick(
    snaps: Vec<(u64, MetricsRegistry)>,
    at: Option<u64>,
) -> Result<(u64, MetricsRegistry), String> {
    let mut snaps = snaps.into_iter();
    match at {
        None => snaps.next_back().ok_or_else(|| "no snapshots".into()),
        Some(want) => snaps
            .find(|(t, _)| *t == want)
            .ok_or_else(|| format!("no snapshot labeled at_ns={want}")),
    }
}

fn render_labels(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn metrics_report(args: &Args) -> Result<(), String> {
    let cmd = args.positional.first().ok_or("missing <summary|top|slo>")?;
    let input = args.get("in").ok_or("--in <file.jsonl> is required")?;
    let snaps = load(input)?;

    match cmd.as_str() {
        "summary" => {
            let (t, reg) = pick(snaps, args.opt("at")?)?;
            println!("snapshot at_ns={t}: {} series", reg.len());
            for (name, labels, value) in reg.iter() {
                let rendered = match value {
                    MetricValue::Counter(c) => format!("{c}"),
                    MetricValue::Gauge(g) => format!("{g}"),
                    MetricValue::Histogram(h) => format!(
                        "count {}  p50 {}  p99 {}  max {}",
                        h.count(),
                        h.quantile(0.5).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                        h.max().unwrap_or(0),
                    ),
                };
                println!(
                    "  {:<9} {}{} = {rendered}",
                    value.kind(),
                    name,
                    render_labels(labels)
                );
            }
        }
        "top" => {
            let k: usize = args.get_or("k", 10)?;
            let prefix = args.get("prefix").unwrap_or("");
            let (t, reg) = pick(snaps, None)?;
            let mut counters: Vec<(u64, String)> = reg
                .iter()
                .filter(|(name, _, _)| name.starts_with(prefix))
                .filter_map(|(name, labels, v)| match v {
                    MetricValue::Counter(c) => {
                        Some((*c, format!("{name}{}", render_labels(labels))))
                    }
                    _ => None,
                })
                .collect();
            counters.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            println!("top {k} counters at_ns={t}:");
            for (value, series) in counters.into_iter().take(k) {
                println!("  {value:>16}  {series}");
            }
        }
        "slo" => {
            let metric = args.get("metric").ok_or("--metric is required")?;
            let q = args.get_or("q", 0.99f64)?;
            let max_ns: u64 = args.opt("max-ns")?.ok_or("--max-ns is required")?;
            let (t, reg) = pick(snaps, None)?;
            let mut checked = 0usize;
            let mut violations = Vec::new();
            for (name, labels, value) in reg.iter() {
                if name != metric {
                    continue;
                }
                let MetricValue::Histogram(h) = value else {
                    return Err(format!("{metric} is not a histogram"));
                };
                checked += 1;
                if let Some(v) = h.quantile(q) {
                    let series = format!("{name}{}", render_labels(labels));
                    if v > max_ns {
                        violations.push(format!("{series}: p{q} = {v} ns > {max_ns} ns"));
                    } else {
                        println!("ok  {series}: p{q} = {v} ns <= {max_ns} ns");
                    }
                }
            }
            if checked == 0 {
                return Err(format!("no histogram named {metric} in snapshot at_ns={t}"));
            }
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("SLO VIOLATION  {v}");
                }
                return Err(format!("{} SLO violation(s)", violations.len()));
            }
        }
        other => return Err(format!("unknown query {other:?} (summary|top|slo)")),
    }
    Ok(())
}
