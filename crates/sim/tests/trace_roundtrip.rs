//! Event rendering: the one line `iba trace`, `iba flightrec` and the
//! examples print for a stamped event (`Display for StampedEvent`) is
//! pinned for every event kind, so downstream tooling can rely on it —
//! and a journey read back from its JSONL dump renders the same.

use iba_core::{
    DropCause, FlightEvent, HostId, OptionOutcome, OptionOutcomes, OptionVerdict, PacketId,
    PortIndex, StallClass, StampedEvent, SwitchId, VirtualLane,
};
use iba_sim::FlightDump;

/// One event of every kind, as the recorder stamps them.
fn every_kind() -> Vec<StampedEvent> {
    let p = PacketId(7);
    let (port, vl) = (PortIndex(4), VirtualLane(0));
    let options: OptionOutcomes = [
        (2, false, OptionVerdict::NoAdaptiveCredit),
        (0, true, OptionVerdict::Selected),
    ]
    .into_iter()
    .map(|(port, escape, verdict)| OptionOutcome {
        port: PortIndex(port),
        escape,
        verdict,
    })
    .collect();
    let events = [
        FlightEvent::Generated {
            packet: p,
            host: HostId(0),
        },
        FlightEvent::Injected {
            packet: p,
            host: HostId(0),
        },
        FlightEvent::Arrived {
            packet: p,
            port,
            vl,
        },
        FlightEvent::Blocked {
            packet: p,
            in_port: port,
            vl,
            options: options.clone(),
        },
        FlightEvent::RouteDecision {
            packet: p,
            in_port: port,
            vl,
            out_port: PortIndex(0),
            via_escape: true,
            from_escape_head: true,
            waited_ns: 120,
            options,
        },
        FlightEvent::TailLeft {
            packet: p,
            port,
            vl,
        },
        FlightEvent::CreditReturned {
            port: PortIndex(0),
            vl,
            credits: 2,
        },
        FlightEvent::Delivered {
            packet: p,
            host: HostId(5),
            latency_ns: 1_850,
        },
        FlightEvent::Dropped {
            packet: PacketId(9),
            cause: DropCause::SourceQueueFull,
        },
        FlightEvent::LinkDown { port: PortIndex(6) },
        FlightEvent::LinkUp { port: PortIndex(6) },
        FlightEvent::SwitchDown { sw: SwitchId(3) },
        FlightEvent::SwitchUp { sw: SwitchId(3) },
        FlightEvent::Stall {
            port,
            vl,
            packet: PacketId(9),
            waited_ns: 30_000,
            class: StallClass::SuspectedWedge,
        },
        FlightEvent::SmpRetransmit {
            tid: 4242,
            attempt: 3,
            hops: 5,
        },
    ];
    let last = events.len() - 1;
    (events.into_iter().enumerate())
        .map(|(i, ev)| StampedEvent {
            seq: i as u64,
            at_ns: 100 * (i as u64 + 1),
            // The subnet manager's events name no switch.
            sw: (i != last).then_some(SwitchId(1)),
            ev,
        })
        .collect()
}

const GOLDEN: &str = "       100ns  #0         sw1  pkt#7 generated at h0
       200ns  #1         sw1  pkt#7 injected by h0
       300ns  #2         sw1  pkt#7 arrived on p4/VL0
       400ns  #3         sw1  pkt#7 blocked at p4/VL0  [p2: no_adaptive_credit, p0 (escape): selected]
       500ns  #4         sw1  pkt#7 routed p4/VL0 -> p0 via ESCAPE (escape head) after 120ns  [p2: no_adaptive_credit, p0 (escape): selected]
       600ns  #5         sw1  pkt#7 tail left, freed p4/VL0
       700ns  #6         sw1  2 credits back on p0/VL0
       800ns  #7         sw1  pkt#7 delivered to h5 after 1850ns
       900ns  #8         sw1  pkt#9 DROPPED: source_queue_full
      1000ns  #9         sw1  link DOWN on p6
      1100ns  #10        sw1  link UP on p6
      1200ns  #11        sw1  switch sw3 DOWN
      1300ns  #12        sw1  switch sw3 UP
      1400ns  #13        sw1  STALL suspected_wedge on p4/VL0: pkt#9 stuck 30000ns
      1500ns  #14          -  SMP tid 4242 retransmit #3 (5 hops)
";

#[test]
fn every_event_kind_renders_as_pinned() {
    let rendered: String = every_kind().iter().map(|e| format!("{e}\n")).collect();
    assert_eq!(rendered, GOLDEN);
    let kinds: Vec<&str> = every_kind().iter().map(|e| e.ev.kind()).collect();
    assert_eq!(kinds.len(), 15, "one line per kind: {kinds:?}");
}

#[test]
fn a_journey_read_back_from_jsonl_renders_the_same() {
    let dump = FlightDump {
        schema_version: iba_core::FLIGHT_SCHEMA_VERSION,
        switches: 4,
        ports: 8,
        vls: 1,
        frozen: false,
        overwritten_events: 0,
        triggers: Vec::new(),
        events: every_kind(),
    };
    let back = FlightDump::from_jsonl(&dump.to_jsonl()).unwrap();
    let render = |d: &FlightDump| -> Vec<String> {
        let journey = d.events_for_packet(PacketId(7));
        journey.iter().map(ToString::to_string).collect()
    };
    assert_eq!(render(&back), render(&dump));
    assert_eq!(render(&dump).len(), 7, "generation to delivery");
}
