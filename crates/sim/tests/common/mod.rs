//! What the determinism suites fold over a journey capture: a flight
//! recorder whose rings never fill and which arms no trigger, so it runs
//! on any shard count and its dump holds every event of every packet.
#![allow(dead_code)] // each suite uses its own share

use iba_core::{FlightEvent, PacketId, StampedEvent};
use iba_sim::{FlightDump, RecorderOpts};
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Keep every event: no ring wraps, no trigger freezes, no watchdog
/// ticks.
pub const CAPTURE: RecorderOpts = RecorderOpts {
    capacity_per_switch: usize::MAX,
    trigger_on_drop: false,
    latency_threshold_ns: None,
    watchdog: None,
};

/// Every packet's journey, packets in id order, each journey in
/// sequence order.
pub fn journeys(dump: &FlightDump) -> BTreeMap<PacketId, Vec<&StampedEvent>> {
    let mut by_packet: BTreeMap<PacketId, Vec<&StampedEvent>> = BTreeMap::new();
    for e in &dump.events {
        if let Some(id) = e.ev.packet() {
            by_packet.entry(id).or_default().push(e);
        }
    }
    by_packet
}

/// The decision digest and the number of decisions folded: packet id,
/// time, switch, output port, option class and read point of every
/// routing decision, packets in id order.
pub fn decision_digest(dump: &FlightDump) -> (u64, u64) {
    let mut digest = FNV_OFFSET;
    let mut forwards = 0;
    for (id, journey) in journeys(dump) {
        for e in journey {
            if let FlightEvent::RouteDecision {
                out_port,
                via_escape,
                from_escape_head,
                ..
            } = e.ev
            {
                forwards += 1;
                for x in [
                    id.0,
                    e.at_ns,
                    switch(e),
                    out_port.0 as u64,
                    via_escape as u64,
                    from_escape_head as u64,
                ] {
                    digest = fnv(digest, x);
                }
            }
        }
    }
    (digest, forwards)
}

/// The id-free step digest: one fold per packet over its tagged,
/// timestamped steps — generation, injection, every arrival with port
/// and VL, every decision, a drop, delivery — the per-packet values
/// sorted and folded.
pub fn step_digest(dump: &FlightDump) -> u64 {
    let mut per_packet: Vec<u64> = journeys(dump)
        .into_values()
        .map(|journey| {
            let mut d = FNV_OFFSET;
            for e in journey {
                let sw = switch(e);
                let fields = match e.ev {
                    FlightEvent::Generated { host, .. } => [0, host.0 as u64, 0, 0, 0],
                    FlightEvent::Injected { .. } => [1, 0, 0, 0, 0],
                    FlightEvent::Arrived { port, vl, .. } => [2, sw, port.0 as u64, vl.0 as u64, 0],
                    FlightEvent::RouteDecision {
                        out_port,
                        via_escape,
                        from_escape_head,
                        ..
                    } => [
                        3,
                        sw,
                        out_port.0 as u64,
                        via_escape as u64,
                        from_escape_head as u64,
                    ],
                    FlightEvent::Dropped { .. } => [4, sw, 0, 0, 0],
                    FlightEvent::Delivered { host, .. } => [5, host.0 as u64, 0, 0, 0],
                    _ => continue,
                };
                d = fnv(d, e.at_ns);
                for f in fields {
                    d = fnv(d, f);
                }
            }
            d
        })
        .collect();
    per_packet.sort_unstable();
    per_packet.into_iter().fold(FNV_OFFSET, fnv)
}

fn switch(e: &StampedEvent) -> u64 {
    e.sw.expect("the simulator stamps every event with a switch")
        .0 as u64
}
