//! Queries over written artifacts: flight-recorder dumps.

use iba_core::PacketId;
use iba_experiments::cli::{Args, Command, Flag};
use iba_experiments::tracequery::{describe, slice, stall_summary, Filter};
use iba_sim::FlightDump;

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
            let chain = dump.events_for_packet(PacketId(packet));
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
