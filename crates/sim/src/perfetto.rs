//! Chrome trace-event / Perfetto export of flight-recorder dumps.
//!
//! [`perfetto_trace`] converts a [`FlightDump`] into the JSON object
//! format consumed by `chrome://tracing` and [ui.perfetto.dev]: a
//! top-level `{"traceEvents": [...]}` array of events with `ph` phase
//! codes. The mapping:
//!
//! * **pid** = switch id; one extra pseudo-process (pid = number of
//!   switches) collects injections, deliveries and triggers without a
//!   switch. `"M"` metadata events name them `sw0`, `sw1`, …, `hosts`.
//! * **tid** = input port × VLs + VL, so every (port, VL) buffer is its
//!   own timeline row, named `p2/VL0` etc. Host events use the host id
//!   as tid.
//! * A packet's residency in a buffer — `Arrived` to `TailLeft` — is a
//!   `"X"` complete event (a span). A packet that never left (wedged,
//!   dropped, or still buffered at freeze) gets a span stretched to the
//!   last timestamp in the dump, which makes stuck packets leap out of
//!   the timeline.
//! * Route decisions, blocks, stalls, drops, faults and triggers are
//!   `"i"` instants carrying their full payload (candidate options,
//!   verdicts, wait times) in `args`.
//! * Credit returns are `"C"` counter events, one counter per
//!   (port, VL), so downstream credit starvation is visible as a flat
//!   line.
//!
//! Timestamps are microseconds (the trace-event unit); simulated
//! nanoseconds divide by 1000 exactly into the format's fractional
//! microseconds.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use crate::recorder::FlightDump;
use iba_core::{FlightEvent, Json, PortIndex, SwitchId, VirtualLane};
use std::collections::HashMap;

/// Microseconds with fractional nanoseconds, the trace-event unit.
fn us(at_ns: u64) -> f64 {
    at_ns as f64 / 1000.0
}

fn tid(port: PortIndex, vl: VirtualLane, vls: usize) -> u64 {
    port.index() as u64 * vls as u64 + vl.index() as u64
}

fn meta(pid: u64, tid: Option<u64>, what: &str, name: String) -> Json {
    let mut o = Json::obj([
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("name", Json::from(what)),
        ("args", Json::obj([("name", name)])),
    ]);
    if let Some(t) = tid {
        o.push("tid", t);
    }
    o
}

fn instant(name: String, at_ns: u64, pid: u64, tid: u64, scope: &str, args: Json) -> Json {
    Json::obj([
        ("ph", Json::from("i")),
        ("name", Json::from(name)),
        ("ts", Json::from(us(at_ns))),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("s", Json::from(scope)),
        ("args", args),
    ])
}

fn options_args(options: &iba_core::OptionOutcomes) -> Json {
    options
        .iter()
        .map(|o| {
            Json::from(format!(
                "p{}{}: {}",
                o.port.index(),
                if o.escape { " (escape)" } else { "" },
                o.verdict.name()
            ))
        })
        .collect()
}

/// Render `dump` as a complete Chrome trace-event JSON document.
pub fn perfetto_trace(dump: &FlightDump) -> Json {
    let hosts_pid = dump.switches as u64;
    let last_ns = dump.events.iter().map(|e| e.at_ns).max().unwrap_or(0);
    let mut events: Vec<Json> = Vec::new();

    // Process / thread naming metadata.
    let mut switches_seen: Vec<bool> = vec![false; dump.switches];
    let mut tids_seen: HashMap<(u64, u64), String> = HashMap::new();
    let mut host_events = false;
    for e in &dump.events {
        host_events |= matches!(
            e.ev,
            FlightEvent::Injected { .. } | FlightEvent::Delivered { .. }
        );
        if let Some(s) = e.sw {
            if let Some(flag) = switches_seen.get_mut(s.index()) {
                *flag = true;
            }
            if let (Some(p), Some(v)) = (e.ev.port(), e.ev.vl()) {
                tids_seen
                    .entry((u64::from(s.0), tid(p, v, dump.vls)))
                    .or_insert_with(|| format!("p{}/VL{}", p.index(), v.index()));
            }
        }
    }
    for (i, seen) in switches_seen.iter().enumerate() {
        if *seen {
            events.push(meta(i as u64, None, "process_name", format!("sw{i}")));
        }
    }
    if host_events || !dump.triggers.is_empty() {
        events.push(meta(hosts_pid, None, "process_name", "hosts".to_string()));
    }
    let mut named: Vec<_> = tids_seen.into_iter().collect();
    named.sort();
    for ((pid, t), name) in named {
        events.push(meta(pid, Some(t), "thread_name", name));
    }

    // Buffer-residency spans: Arrived opens, TailLeft closes.
    let mut open: HashMap<(u16, u64), (u64, PortIndex, VirtualLane)> = HashMap::new();
    let span = |sw: SwitchId,
                packet: u64,
                start_ns: u64,
                end_ns: u64,
                port: PortIndex,
                vl: VirtualLane,
                stuck: bool| {
        Json::obj([
            ("ph", Json::from("X")),
            (
                "name",
                Json::from(if stuck {
                    format!("pkt#{packet} (stuck)")
                } else {
                    format!("pkt#{packet}")
                }),
            ),
            ("ts", Json::from(us(start_ns))),
            ("dur", Json::from(us(end_ns.saturating_sub(start_ns)))),
            ("pid", Json::from(u64::from(sw.0))),
            ("tid", Json::from(tid(port, vl, dump.vls))),
            ("args", Json::obj([("packet", Json::from(packet))])),
        ])
    };

    for e in &dump.events {
        match (&e.ev, e.sw) {
            (FlightEvent::Arrived { packet, port, vl }, Some(sw)) => {
                open.insert((sw.0, packet.0), (e.at_ns, *port, *vl));
            }
            (FlightEvent::TailLeft { packet, .. }, Some(sw)) => {
                if let Some((start, port, vl)) = open.remove(&(sw.0, packet.0)) {
                    events.push(span(sw, packet.0, start, e.at_ns, port, vl, false));
                }
            }
            (
                FlightEvent::RouteDecision {
                    packet,
                    in_port,
                    vl,
                    out_port,
                    via_escape,
                    waited_ns,
                    options,
                    ..
                },
                Some(sw),
            ) => {
                events.push(instant(
                    format!(
                        "route pkt#{} -> p{}{}",
                        packet.0,
                        out_port.index(),
                        if *via_escape { " (escape)" } else { "" }
                    ),
                    e.at_ns,
                    u64::from(sw.0),
                    tid(*in_port, *vl, dump.vls),
                    "t",
                    Json::obj([
                        ("waited_ns", Json::from(*waited_ns)),
                        ("options", options_args(options)),
                    ]),
                ));
            }
            (
                FlightEvent::Blocked {
                    packet,
                    in_port,
                    vl,
                    options,
                },
                Some(sw),
            ) => {
                events.push(instant(
                    format!("blocked pkt#{}", packet.0),
                    e.at_ns,
                    u64::from(sw.0),
                    tid(*in_port, *vl, dump.vls),
                    "t",
                    Json::obj([("options", options_args(options))]),
                ));
            }
            (FlightEvent::CreditReturned { port, vl, credits }, Some(sw)) => {
                events.push(Json::obj([
                    ("ph", Json::from("C")),
                    (
                        "name",
                        Json::from(format!("credits p{}/VL{}", port.index(), vl.index())),
                    ),
                    ("ts", Json::from(us(e.at_ns))),
                    ("pid", Json::from(u64::from(sw.0))),
                    ("tid", Json::from(tid(*port, *vl, dump.vls))),
                    ("args", Json::obj([("credits", Json::from(*credits))])),
                ]));
            }
            (FlightEvent::Dropped { packet, cause }, sw) => {
                let pid = sw.map_or(hosts_pid, |s| u64::from(s.0));
                events.push(instant(
                    format!("DROP {} pkt#{}", cause.name(), packet.0),
                    e.at_ns,
                    pid,
                    0,
                    "p",
                    Json::obj([("cause", Json::from(cause.name()))]),
                ));
            }
            (
                FlightEvent::Stall {
                    port,
                    vl,
                    packet,
                    waited_ns,
                    class,
                },
                Some(sw),
            ) => {
                events.push(instant(
                    format!("STALL {} pkt#{}", class.name(), packet.0),
                    e.at_ns,
                    u64::from(sw.0),
                    tid(*port, *vl, dump.vls),
                    "t",
                    Json::obj([("waited_ns", Json::from(*waited_ns))]),
                ));
            }
            (FlightEvent::LinkDown { port }, Some(sw)) => {
                events.push(instant(
                    format!("LINK DOWN p{}", port.index()),
                    e.at_ns,
                    u64::from(sw.0),
                    0,
                    "p",
                    Json::object(),
                ));
            }
            (FlightEvent::LinkUp { port }, Some(sw)) => {
                events.push(instant(
                    format!("LINK UP p{}", port.index()),
                    e.at_ns,
                    u64::from(sw.0),
                    0,
                    "p",
                    Json::object(),
                ));
            }
            (FlightEvent::Injected { packet, host }, _) => {
                events.push(instant(
                    format!("inject pkt#{}", packet.0),
                    e.at_ns,
                    hosts_pid,
                    u64::from(host.0),
                    "t",
                    Json::object(),
                ));
            }
            (
                FlightEvent::Delivered {
                    packet,
                    host,
                    latency_ns,
                },
                _,
            ) => {
                events.push(instant(
                    format!("deliver pkt#{}", packet.0),
                    e.at_ns,
                    hosts_pid,
                    u64::from(host.0),
                    "t",
                    Json::obj([("latency_ns", Json::from(*latency_ns))]),
                ));
            }
            _ => {}
        }
    }

    // Packets still resident when the dump froze: stretch their spans to
    // the end of the dump so wedged buffers are visually obvious.
    let mut stuck: Vec<_> = open.into_iter().collect();
    stuck.sort();
    for ((sw, packet), (start, port, vl)) in stuck {
        events.push(span(SwitchId(sw), packet, start, last_ns, port, vl, true));
    }

    // Triggers, as global instants.
    for t in &dump.triggers {
        let pid = t.sw.map_or(hosts_pid, |s| u64::from(s.0));
        let mut args = Json::object();
        if let Some(p) = t.packet {
            args.push("packet", p.0);
        }
        events.push(instant(
            format!("TRIGGER {}", t.cause.name()),
            t.at_ns,
            pid,
            0,
            "g",
            args,
        ));
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        (
            "otherData",
            Json::obj([
                ("flight_schema_version", Json::from(dump.schema_version)),
                ("frozen", Json::from(dump.frozen)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, RecorderOpts, TriggerCause};
    use iba_core::{DropCause, HostId, PacketId, SimTime};

    fn sample_dump() -> FlightDump {
        let mut rec = FlightRecorder::new(RecorderOpts::default(), 2, 4, 2);
        rec.record(
            SwitchId(0),
            SimTime::from_ns(100),
            FlightEvent::Injected {
                packet: PacketId(1),
                host: HostId(0),
            },
        );
        rec.record(
            SwitchId(0),
            SimTime::from_ns(500),
            FlightEvent::Arrived {
                packet: PacketId(1),
                port: PortIndex(2),
                vl: VirtualLane(1),
            },
        );
        rec.record(
            SwitchId(0),
            SimTime::from_ns(900),
            FlightEvent::TailLeft {
                packet: PacketId(1),
                port: PortIndex(2),
                vl: VirtualLane(1),
            },
        );
        rec.record(
            SwitchId(1),
            SimTime::from_ns(1_000),
            FlightEvent::Arrived {
                packet: PacketId(2),
                port: PortIndex(0),
                vl: VirtualLane(0),
            },
        );
        rec.record(
            SwitchId(1),
            SimTime::from_ns(2_000),
            FlightEvent::Dropped {
                packet: PacketId(2),
                cause: DropCause::LinkDown,
            },
        );
        rec.trigger(
            SimTime::from_ns(2_000),
            TriggerCause::Drop,
            Some(SwitchId(1)),
            Some(PacketId(2)),
        );
        rec.dump()
    }

    #[test]
    fn trace_has_required_shape() {
        let doc = perfetto_trace(&sample_dump());
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!evs.is_empty());
        for e in evs {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            assert!(["M", "X", "i", "C"].contains(&ph), "unexpected phase {ph}");
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("name").and_then(Json::as_str).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(Json::as_f64).is_some());
            }
        }
        // And the document survives a text round trip.
        let reparsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(
            reparsed
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap()
                .len(),
            evs.len()
        );
    }

    #[test]
    fn matched_residency_becomes_a_span_and_unmatched_is_stuck() {
        let doc = perfetto_trace(&sample_dump());
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let spans: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let names: Vec<&str> = spans
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert!(names.contains(&"pkt#1"));
        assert!(names.contains(&"pkt#2 (stuck)"), "names: {names:?}");
        // pkt#1's span: 0.5 µs to 0.9 µs on sw0, tid = 2*2+1.
        let p1 = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("pkt#1"))
            .unwrap();
        assert_eq!(p1.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(p1.get("dur").and_then(Json::as_f64), Some(0.4));
        assert_eq!(p1.get("pid").and_then(Json::as_u64), Some(0));
        assert_eq!(p1.get("tid").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn trigger_and_drop_become_instants() {
        let doc = perfetto_trace(&sample_dump());
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("DROP link_down")));
        assert!(names.contains(&"TRIGGER drop"));
        let labels: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(labels.contains(&"sw0") && labels.contains(&"hosts"));
    }
}
