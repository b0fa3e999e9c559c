//! Offline queries over flight-recorder dumps (`iba trace`).
//!
//! A [`iba_sim::FlightDump`] is a flat, seq-ordered list of stamped
//! events. This module slices it by packet / switch / port / VL / time
//! window, reconstructs a packet's causal chain across switches, and
//! aggregates the top stall causes — everything the CLI prints, testable
//! without a terminal.

use iba_core::{FlightEvent, PacketId, StampedEvent};
use iba_sim::FlightDump;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Event predicate assembled from CLI flags; `None` fields match
/// everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct Filter {
    /// Only events concerning this packet id.
    pub packet: Option<u64>,
    /// Only events logged by this switch (a host's events are logged
    /// by the host's switch).
    pub switch: Option<u16>,
    /// Only events concerning this port (for routing decisions, the
    /// *output* port).
    pub port: Option<u8>,
    /// Only events concerning this VL.
    pub vl: Option<u8>,
    /// Only events at or after this time, nanoseconds.
    pub from_ns: Option<u64>,
    /// Only events strictly before this time, nanoseconds.
    pub to_ns: Option<u64>,
}

impl Filter {
    /// Whether `e` satisfies every set field.
    pub(crate) fn matches(&self, e: &StampedEvent) -> bool {
        if let Some(p) = self.packet {
            if e.ev.packet() != Some(PacketId(p)) {
                return false;
            }
        }
        if let Some(s) = self.switch {
            if e.sw.map(|sw| sw.0) != Some(s) {
                return false;
            }
        }
        if let Some(p) = self.port {
            if e.ev.port().map(|x| x.0) != Some(p) {
                return false;
            }
        }
        if let Some(v) = self.vl {
            if e.ev.vl().map(|x| x.0) != Some(v) {
                return false;
            }
        }
        if self.from_ns.is_some_and(|t| e.at_ns < t) {
            return false;
        }
        if self.to_ns.is_some_and(|t| e.at_ns >= t) {
            return false;
        }
        true
    }
}

/// Events satisfying `filter`, in recording (seq) order.
pub fn slice<'a>(dump: &'a FlightDump, filter: &Filter) -> Vec<&'a StampedEvent> {
    dump.events.iter().filter(|e| filter.matches(e)).collect()
}

/// A packet's causal chain: every event that mentions it, across all
/// switches, in recording order — injection, per-hop arrival, blocks,
/// the routing decision that resolved each block, tail departure, and
/// the final delivery or drop.
pub fn causal_chain(dump: &FlightDump, packet: PacketId) -> Vec<&StampedEvent> {
    slice(
        dump,
        &Filter {
            packet: Some(packet.0),
            ..Filter::default()
        },
    )
}

/// Aggregated "why wasn't this packet moving" view of a dump.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallSummary {
    /// Deduplicated blocked events seen.
    pub blocked_events: u64,
    /// Watchdog stall verdicts seen.
    pub stall_events: u64,
    /// Candidate-rejection verdicts inside blocked events, by name,
    /// most frequent first.
    pub rejections: Vec<(String, u64)>,
    /// Watchdog stall classes, by name, most frequent first.
    pub classes: Vec<(String, u64)>,
    /// Drop causes, by name, most frequent first.
    pub drops: Vec<(String, u64)>,
}

fn sorted_desc(counts: BTreeMap<&str, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(k, n)| (k.to_string(), n))
        .collect();
    // Descending by count; the BTreeMap already fixed the name order for
    // ties, keeping the summary deterministic.
    v.sort_by_key(|e| std::cmp::Reverse(e.1));
    v
}

/// Count the top stall causes: every candidate rejection inside the
/// (deduplicated) blocked events, every watchdog verdict, every drop.
pub fn stall_summary(dump: &FlightDump) -> StallSummary {
    let mut rejections: BTreeMap<&str, u64> = BTreeMap::new();
    let mut classes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut drops: BTreeMap<&str, u64> = BTreeMap::new();
    let mut summary = StallSummary::default();
    for e in &dump.events {
        match &e.ev {
            FlightEvent::Blocked { options, .. } => {
                summary.blocked_events += 1;
                for o in options.iter() {
                    *rejections.entry(o.verdict.name()).or_default() += 1;
                }
            }
            FlightEvent::Stall { class, .. } => {
                summary.stall_events += 1;
                *classes.entry(class.name()).or_default() += 1;
            }
            FlightEvent::Dropped { cause, .. } => {
                *drops.entry(cause.name()).or_default() += 1;
            }
            _ => {}
        }
    }
    summary.rejections = sorted_desc(rejections);
    summary.classes = sorted_desc(classes);
    summary.drops = sorted_desc(drops);
    summary
}

/// Headline description of a dump: dimensions, freeze state, triggers,
/// and a per-kind event census.
pub fn describe(dump: &FlightDump) -> String {
    let mut out = String::new();
    let span = match (dump.events.first(), dump.events.last()) {
        (Some(a), Some(b)) => format!("{}..{} ns", a.at_ns, b.at_ns),
        _ => "empty".to_string(),
    };
    let _ = writeln!(
        out,
        "flight dump v{}: {} switches x {} ports x {} VLs, {} events ({span}), {} overwritten, {}",
        dump.schema_version,
        dump.switches,
        dump.ports,
        dump.vls,
        dump.events.len(),
        dump.overwritten_events,
        if dump.frozen { "FROZEN" } else { "live" },
    );
    for t in &dump.triggers {
        let _ = writeln!(
            out,
            "  trigger @ {}ns: {}{}{}",
            t.at_ns,
            t.cause.name(),
            t.sw.map_or_else(String::new, |s| format!(" at {s}")),
            t.packet.map_or_else(String::new, |p| format!(" ({p})")),
        );
    }
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &dump.events {
        *kinds.entry(e.ev.kind()).or_default() += 1;
    }
    for (kind, n) in kinds {
        let _ = writeln!(out, "  {n:>8} {kind}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{
        DropCause, HostId, OptionOutcome, OptionOutcomes, OptionVerdict, PortIndex, StallClass,
        SwitchId, VirtualLane,
    };

    fn outcome(port: u8, escape: bool, verdict: OptionVerdict) -> OptionOutcome {
        OptionOutcome {
            port: PortIndex(port),
            escape,
            verdict,
        }
    }

    fn sample_dump() -> FlightDump {
        let mut options = OptionOutcomes::default();
        options.push(outcome(2, false, OptionVerdict::NoAdaptiveCredit));
        options.push(outcome(0, true, OptionVerdict::NoEscapeCredit));
        let stamp = |seq, at_ns, sw: Option<u16>, ev| StampedEvent {
            seq,
            at_ns,
            sw: sw.map(SwitchId),
            ev,
        };
        FlightDump {
            schema_version: 1,
            switches: 2,
            ports: 4,
            vls: 2,
            frozen: false,
            overwritten_events: 0,
            triggers: Vec::new(),
            events: vec![
                stamp(
                    0,
                    100,
                    None,
                    FlightEvent::Injected {
                        packet: PacketId(7),
                        host: HostId(0),
                    },
                ),
                stamp(
                    1,
                    200,
                    Some(0),
                    FlightEvent::Arrived {
                        packet: PacketId(7),
                        port: PortIndex(1),
                        vl: VirtualLane(0),
                    },
                ),
                stamp(
                    2,
                    300,
                    Some(0),
                    FlightEvent::Blocked {
                        packet: PacketId(7),
                        in_port: PortIndex(1),
                        vl: VirtualLane(0),
                        options: options.clone(),
                    },
                ),
                stamp(
                    3,
                    400,
                    Some(0),
                    FlightEvent::Stall {
                        port: PortIndex(1),
                        vl: VirtualLane(0),
                        packet: PacketId(7),
                        waited_ns: 30_000,
                        class: StallClass::EscapeDraining,
                    },
                ),
                stamp(
                    4,
                    500,
                    Some(1),
                    FlightEvent::Arrived {
                        packet: PacketId(9),
                        port: PortIndex(3),
                        vl: VirtualLane(1),
                    },
                ),
                stamp(
                    5,
                    600,
                    None,
                    FlightEvent::Dropped {
                        packet: PacketId(9),
                        cause: DropCause::LinkDown,
                    },
                ),
            ],
        }
    }

    #[test]
    fn filters_compose() {
        let dump = sample_dump();
        let all = slice(&dump, &Filter::default());
        assert_eq!(all.len(), 6);
        let sw0 = slice(
            &dump,
            &Filter {
                switch: Some(0),
                ..Filter::default()
            },
        );
        assert_eq!(sw0.len(), 3);
        let windowed = slice(
            &dump,
            &Filter {
                from_ns: Some(200),
                to_ns: Some(500),
                ..Filter::default()
            },
        );
        assert_eq!(windowed.len(), 3, "window is [from, to)");
        let narrow = slice(
            &dump,
            &Filter {
                switch: Some(0),
                port: Some(1),
                vl: Some(0),
                ..Filter::default()
            },
        );
        assert_eq!(narrow.len(), 3);
        assert!(slice(
            &dump,
            &Filter {
                switch: Some(99),
                ..Filter::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn causal_chain_spans_hosts_and_switches() {
        let dump = sample_dump();
        let chain = causal_chain(&dump, PacketId(7));
        assert_eq!(chain.len(), 4);
        assert!(chain.windows(2).all(|w| w[0].seq < w[1].seq));
        let chain9 = causal_chain(&dump, PacketId(9));
        assert_eq!(chain9.len(), 2);
        assert!(matches!(chain9[1].ev, FlightEvent::Dropped { .. }));
    }

    #[test]
    fn stall_summary_counts_causes() {
        let s = stall_summary(&sample_dump());
        assert_eq!(s.blocked_events, 1);
        assert_eq!(s.stall_events, 1);
        assert_eq!(s.rejections.len(), 2);
        assert!(s
            .rejections
            .iter()
            .any(|(n, c)| n == "no_adaptive_credit" && *c == 1));
        assert_eq!(s.classes, vec![("escape_draining".to_string(), 1)]);
        assert_eq!(s.drops, vec![("link_down".to_string(), 1)]);
    }

    #[test]
    fn rendering_mentions_the_load_bearing_facts() {
        let dump = sample_dump();
        let lines: Vec<String> = dump.events.iter().map(ToString::to_string).collect();
        assert!(lines[0].contains("pkt#7 injected by h0"));
        assert!(lines[2].contains("no_escape_credit"));
        assert!(lines[2].contains("p0 (escape)"));
        assert!(lines[3].contains("STALL escape_draining"));
        assert!(lines[5].contains("DROPPED: link_down"));
        let head = describe(&dump);
        assert!(head.contains("2 switches x 4 ports x 2 VLs"));
        assert!(head.contains("6 events"));
        assert!(head.contains("live"));
    }
}
