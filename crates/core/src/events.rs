//! Structured flight-recorder event vocabulary.
//!
//! The flight recorder in `iba-sim` logs one [`FlightEvent`] per
//! interesting state change — a routing decision with the *full*
//! candidate-option set and why each was rejected, credit returns,
//! blocks, drops, faults, stall-watchdog verdicts. The vocabulary lives
//! in `iba-core` (next to [`crate::json`]) so offline tools like
//! `iba trace` can parse dumps without linking the simulator.
//!
//! Events are small values sized for a hot path: a [`FlightEvent`]'s
//! candidate set keeps eight outcomes inline ([`OptionOutcomes`]), so only
//! a set larger than any configured routing table allocates. Serialization goes
//! through [`crate::json::Json`]:
//! [`FlightEvent::to_json`] and `FlightEvent::from_json` are exact
//! inverses, which the dump round-trip tests pin down.

use crate::ids::{HostId, PortIndex, SwitchId};
use crate::inline_vec::MAX_PORTS;
use crate::json::Json;
use crate::packet::PacketId;
use crate::vl::VirtualLane;

/// Version stamp written into every flight-recorder dump header.
///
/// Bump on any change to the event vocabulary or dump framing so
/// `iba trace` can refuse files it does not understand.
///
/// Version history:
/// - 1: initial vocabulary (PR 4).
/// - 2: chaos campaign — `switch_down`/`switch_up` drop causes and
///   fabric events, `corrupted` drop cause, `smp_retransmit` events.
/// - 3: one capture — `generated` events; host-side events (generation,
///   injection, delivery, source drops) are stamped with the host's
///   switch instead of none; events are numbered in the canonical
///   `(time, switch, ring order)` order, the same at every shard count.
pub const FLIGHT_SCHEMA_VERSION: u32 = 3;

/// Why a packet was lost.
///
/// Mirrors the cause split of the run statistics (`source_drops` vs
/// `drops_in_transit`) so journeys, aggregates and the flight recorder
/// agree on why a packet died.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Generated against a full source injection queue; never entered
    /// the fabric.
    SourceQueueFull,
    /// Lost in transit: the link went down while the packet was on the
    /// wire.
    LinkDown,
    /// Lost in transit: the receiving switch died while the packet was
    /// on the wire (every port of a dead switch drops atomically).
    SwitchDown,
    /// Lost in transit: the packet arrived, but its CRC check failed —
    /// a transient bit error on an otherwise healthy link.
    Corrupted,
}

impl DropCause {
    /// All causes, in serialization order.
    pub(crate) const ALL: [DropCause; 4] = [
        DropCause::SourceQueueFull,
        DropCause::LinkDown,
        DropCause::SwitchDown,
        DropCause::Corrupted,
    ];

    /// Stable lower-snake name used in JSON and report tables.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::SourceQueueFull => "source_queue_full",
            DropCause::LinkDown => "link_down",
            DropCause::SwitchDown => "switch_down",
            DropCause::Corrupted => "corrupted",
        }
    }

    /// Inverse of [`DropCause::name`].
    pub(crate) fn from_name(name: &str) -> Option<DropCause> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// The fate of one candidate output port during a routing/arbitration
/// pass (§4.3: the output is selected at arbitration time, against
/// *current* credit state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptionVerdict {
    /// Feasible and chosen.
    Selected,
    /// Feasible, but the selection policy preferred another option.
    LostArbitration,
    /// The output port is already streaming another packet.
    LinkBusy,
    /// The output port's link is down (fault masking).
    DeadPort,
    /// Not enough credits in the downstream *adaptive* queue share.
    NoAdaptiveCredit,
    /// Not enough credits in the downstream *escape* queue share.
    NoEscapeCredit,
    /// The read point sits at the escape head and the configuration
    /// forbids adaptive options from there.
    AdaptiveRestricted,
}

impl OptionVerdict {
    /// All verdicts, in serialization order.
    pub(crate) const ALL: [OptionVerdict; 7] = [
        OptionVerdict::Selected,
        OptionVerdict::LostArbitration,
        OptionVerdict::LinkBusy,
        OptionVerdict::DeadPort,
        OptionVerdict::NoAdaptiveCredit,
        OptionVerdict::NoEscapeCredit,
        OptionVerdict::AdaptiveRestricted,
    ];

    /// Stable lower-snake name used in JSON and report tables.
    pub fn name(self) -> &'static str {
        match self {
            OptionVerdict::Selected => "selected",
            OptionVerdict::LostArbitration => "lost_arbitration",
            OptionVerdict::LinkBusy => "link_busy",
            OptionVerdict::DeadPort => "dead_port",
            OptionVerdict::NoAdaptiveCredit => "no_adaptive_credit",
            OptionVerdict::NoEscapeCredit => "no_escape_credit",
            OptionVerdict::AdaptiveRestricted => "adaptive_restricted",
        }
    }

    /// Inverse of [`OptionVerdict::name`].
    pub(crate) fn from_name(name: &str) -> Option<OptionVerdict> {
        Self::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// One candidate output port and what happened to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OptionOutcome {
    /// The candidate output port.
    pub port: PortIndex,
    /// `true` when this candidate is the escape (up*/down*) option.
    pub escape: bool,
    /// Its fate.
    pub verdict: OptionVerdict,
}

/// The full candidate set of one routing pass, a slice through `Deref`:
/// one outcome per forwarding-table address, and no configuration has
/// more than eight (the paper: two, "up to four"). Eight sit inline; a
/// larger set (at most one per switch port) moves to the heap whole.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OptionOutcomes(Outcomes);

/// Inline slots past the length keep their first value: derived `Eq`/`Hash` see the set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Outcomes {
    Inline(u8, [OptionOutcome; 8]),
    Spilled(Vec<OptionOutcome>),
}

impl OptionOutcomes {
    /// Append an outcome; the ninth moves the set to the heap.
    pub fn push(&mut self, outcome: OptionOutcome) {
        match &mut self.0 {
            Outcomes::Inline(len @ 0..=7, buf) => {
                buf[usize::from(*len)] = outcome;
                *len += 1;
            }
            Outcomes::Inline(_, buf) => self.0 = Outcomes::Spilled([&buf[..], &[outcome]].concat()),
            Outcomes::Spilled(v) => v.push(outcome),
        }
    }
}

impl Default for OptionOutcomes {
    /// An empty set.
    fn default() -> OptionOutcomes {
        let unused = OptionOutcome {
            port: PortIndex(0),
            escape: false,
            verdict: OptionVerdict::Selected,
        };
        OptionOutcomes(Outcomes::Inline(0, [unused; 8]))
    }
}

impl std::ops::Deref for OptionOutcomes {
    type Target = [OptionOutcome];
    fn deref(&self) -> &[OptionOutcome] {
        match &self.0 {
            Outcomes::Inline(len, buf) => &buf[..usize::from(*len)],
            Outcomes::Spilled(v) => v,
        }
    }
}

impl FromIterator<OptionOutcome> for OptionOutcomes {
    fn from_iter<I: IntoIterator<Item = OptionOutcome>>(iter: I) -> OptionOutcomes {
        let mut out = OptionOutcomes::default();
        iter.into_iter().for_each(|o| out.push(o));
        out
    }
}

/// The stall watchdog's classification of a no-progress interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallClass {
    /// No forward progress, but the escape path shows recent or imminent
    /// activity — the deadlock-freedom invariant says this resolves.
    EscapeDraining,
    /// No forward progress and the escape path itself shows none — the
    /// invariant looks violated (dead escape link, withheld credits, or
    /// a genuine routing-table cycle).
    SuspectedWedge,
}

impl StallClass {
    /// Stable lower-snake name used in JSON and report tables.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::EscapeDraining => "escape_draining",
            StallClass::SuspectedWedge => "suspected_wedge",
        }
    }

    /// Inverse of [`StallClass::name`].
    pub(crate) fn from_name(name: &str) -> Option<StallClass> {
        [StallClass::EscapeDraining, StallClass::SuspectedWedge]
            .into_iter()
            .find(|c| c.name() == name)
    }
}

/// One structured flight-recorder event.
///
/// The timestamp and owning switch are *not* part of the event — the
/// recorder's ring entries carry them — so the event itself stays a
/// small payload: 56 bytes on 64-bit targets (asserted ≤ 64 below); only
/// a candidate set of more than eight outcomes owns heap memory.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEvent {
    /// A host generated a packet into its source queue (a full finite
    /// queue drops it right after, `SourceQueueFull`).
    Generated {
        /// The packet.
        packet: PacketId,
        /// The generating host.
        host: HostId,
    },
    /// A packet left its source host's injection queue onto the first
    /// link.
    Injected {
        /// The packet.
        packet: PacketId,
        /// The injecting host.
        host: HostId,
    },
    /// A packet's header arrived at a switch input port and was
    /// buffered.
    Arrived {
        /// The packet.
        packet: PacketId,
        /// Input port it arrived on.
        port: PortIndex,
        /// VL it was buffered into.
        vl: VirtualLane,
    },
    /// Arbitration routed a packet to an output: the decision, with the
    /// full candidate set and each candidate's fate.
    RouteDecision {
        /// The packet.
        packet: PacketId,
        /// Input port the packet is leaving.
        in_port: PortIndex,
        /// Its VL.
        vl: VirtualLane,
        /// The selected output port.
        out_port: PortIndex,
        /// `true` when the selected option is the escape path.
        via_escape: bool,
        /// `true` when the read point was parked at the escape head.
        from_escape_head: bool,
        /// Nanoseconds the packet waited buffered before winning
        /// arbitration.
        waited_ns: u64,
        /// Every candidate considered, with its verdict.
        options: OptionOutcomes,
    },
    /// An arbitration pass looked at a packet and could not forward it;
    /// logged once per distinct *reason set* (deduplicated), not per
    /// pass.
    Blocked {
        /// The packet at the read point.
        packet: PacketId,
        /// Its input port.
        in_port: PortIndex,
        /// Its VL.
        vl: VirtualLane,
        /// Every candidate considered, with its rejection verdict.
        options: OptionOutcomes,
    },
    /// A forwarded packet's tail left the switch (transmission done;
    /// the *input* buffer slot it occupied is freed).
    TailLeft {
        /// The packet.
        packet: PacketId,
        /// The input port whose buffer slot was freed.
        port: PortIndex,
        /// The VL of that slot.
        vl: VirtualLane,
    },
    /// Flow-control credits came back from the downstream neighbour.
    CreditReturned {
        /// Output port the credits belong to.
        port: PortIndex,
        /// VL the credits belong to.
        vl: VirtualLane,
        /// How many 64-byte credits.
        credits: u32,
    },
    /// A packet died.
    Dropped {
        /// The packet.
        packet: PacketId,
        /// Why.
        cause: DropCause,
    },
    /// A packet reached its destination host.
    Delivered {
        /// The packet.
        packet: PacketId,
        /// The destination host.
        host: HostId,
        /// End-to-end latency (generation to delivery), nanoseconds.
        latency_ns: u64,
    },
    /// A link fault took a port down.
    LinkDown {
        /// The local port whose link died.
        port: PortIndex,
    },
    /// A link fault was repaired.
    LinkUp {
        /// The local port whose link recovered.
        port: PortIndex,
    },
    /// A whole switch died: every attached port went down atomically.
    SwitchDown {
        /// The dead switch.
        sw: SwitchId,
    },
    /// A dead switch came back.
    SwitchUp {
        /// The recovered switch.
        sw: SwitchId,
    },
    /// The subnet manager retransmitted an SMP after a VL15 timeout
    /// (control-plane loss, not a data-path event; `sw` in the stamp is
    /// `None`).
    SmpRetransmit {
        /// Transaction id of the retried SMP.
        tid: u64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
        /// Directed-route length of the SMP, in switch hops.
        hops: u8,
    },
    /// The stall watchdog classified a no-progress interval on one
    /// (port, VL).
    Stall {
        /// Input port of the stalled buffer.
        port: PortIndex,
        /// Its VL.
        vl: VirtualLane,
        /// The packet at the read point (the one that cannot move).
        packet: PacketId,
        /// How long the buffer has made no progress, nanoseconds.
        waited_ns: u64,
        /// The watchdog's verdict.
        class: StallClass,
    },
}

// An armed run copies every hop's events into rings: size one by its decision.
const _: () = assert!(std::mem::size_of::<FlightEvent>() <= 64);

fn outcomes_to_json(options: &OptionOutcomes) -> Json {
    options
        .iter()
        .map(|o| {
            Json::obj([
                ("port", Json::from(u64::from(o.port.0))),
                ("escape", Json::from(o.escape)),
                ("verdict", Json::from(o.verdict.name())),
            ])
        })
        .collect()
}

fn outcomes_from_json(v: &Json) -> Option<OptionOutcomes> {
    let arr = v.as_arr()?;
    if arr.len() > MAX_PORTS {
        return None;
    }
    let mut out = OptionOutcomes::default();
    for o in arr {
        out.push(OptionOutcome {
            port: PortIndex(u8::try_from(o.get("port")?.as_u64()?).ok()?),
            escape: o.get("escape")?.as_bool()?,
            verdict: OptionVerdict::from_name(o.get("verdict")?.as_str()?)?,
        });
    }
    Some(out)
}

impl FlightEvent {
    /// The event's stable kind tag (the `"ev"` member of its JSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::Generated { .. } => "generated",
            FlightEvent::Injected { .. } => "injected",
            FlightEvent::Arrived { .. } => "arrived",
            FlightEvent::RouteDecision { .. } => "route_decision",
            FlightEvent::Blocked { .. } => "blocked",
            FlightEvent::TailLeft { .. } => "tail_left",
            FlightEvent::CreditReturned { .. } => "credit_returned",
            FlightEvent::Dropped { .. } => "dropped",
            FlightEvent::Delivered { .. } => "delivered",
            FlightEvent::LinkDown { .. } => "link_down",
            FlightEvent::LinkUp { .. } => "link_up",
            FlightEvent::SwitchDown { .. } => "switch_down",
            FlightEvent::SwitchUp { .. } => "switch_up",
            FlightEvent::SmpRetransmit { .. } => "smp_retransmit",
            FlightEvent::Stall { .. } => "stall",
        }
    }

    /// The packet this event concerns, when it concerns exactly one.
    pub fn packet(&self) -> Option<PacketId> {
        match self {
            FlightEvent::Generated { packet, .. }
            | FlightEvent::Injected { packet, .. }
            | FlightEvent::Arrived { packet, .. }
            | FlightEvent::RouteDecision { packet, .. }
            | FlightEvent::Blocked { packet, .. }
            | FlightEvent::TailLeft { packet, .. }
            | FlightEvent::Dropped { packet, .. }
            | FlightEvent::Delivered { packet, .. }
            | FlightEvent::Stall { packet, .. } => Some(*packet),
            FlightEvent::CreditReturned { .. }
            | FlightEvent::LinkDown { .. }
            | FlightEvent::LinkUp { .. }
            | FlightEvent::SwitchDown { .. }
            | FlightEvent::SwitchUp { .. }
            | FlightEvent::SmpRetransmit { .. } => None,
        }
    }

    /// The port this event concerns, when it concerns exactly one
    /// (for `RouteDecision` this is the *output* port).
    pub fn port(&self) -> Option<PortIndex> {
        match self {
            FlightEvent::Arrived { port, .. }
            | FlightEvent::TailLeft { port, .. }
            | FlightEvent::CreditReturned { port, .. }
            | FlightEvent::LinkDown { port }
            | FlightEvent::LinkUp { port }
            | FlightEvent::Stall { port, .. } => Some(*port),
            FlightEvent::RouteDecision { out_port, .. } => Some(*out_port),
            FlightEvent::Blocked { in_port, .. } => Some(*in_port),
            FlightEvent::Generated { .. }
            | FlightEvent::Injected { .. }
            | FlightEvent::Dropped { .. }
            | FlightEvent::Delivered { .. }
            | FlightEvent::SwitchDown { .. }
            | FlightEvent::SwitchUp { .. }
            | FlightEvent::SmpRetransmit { .. } => None,
        }
    }

    /// The VL this event concerns, when it concerns exactly one.
    pub fn vl(&self) -> Option<VirtualLane> {
        match self {
            FlightEvent::Arrived { vl, .. }
            | FlightEvent::RouteDecision { vl, .. }
            | FlightEvent::Blocked { vl, .. }
            | FlightEvent::TailLeft { vl, .. }
            | FlightEvent::CreditReturned { vl, .. }
            | FlightEvent::Stall { vl, .. } => Some(*vl),
            _ => None,
        }
    }

    /// The event as a JSON object, tagged by `"ev"`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.push("ev", self.kind());
        match self {
            FlightEvent::Generated { packet, host } | FlightEvent::Injected { packet, host } => {
                o.push("packet", packet.0).push("host", u64::from(host.0));
            }
            FlightEvent::Arrived { packet, port, vl } => {
                o.push("packet", packet.0)
                    .push("port", u64::from(port.0))
                    .push("vl", u64::from(vl.0));
            }
            FlightEvent::RouteDecision {
                packet,
                in_port,
                vl,
                out_port,
                via_escape,
                from_escape_head,
                waited_ns,
                options,
            } => {
                o.push("packet", packet.0)
                    .push("in_port", u64::from(in_port.0))
                    .push("vl", u64::from(vl.0))
                    .push("out_port", u64::from(out_port.0))
                    .push("via_escape", *via_escape)
                    .push("from_escape_head", *from_escape_head)
                    .push("waited_ns", *waited_ns)
                    .push("options", outcomes_to_json(options));
            }
            FlightEvent::Blocked {
                packet,
                in_port,
                vl,
                options,
            } => {
                o.push("packet", packet.0)
                    .push("in_port", u64::from(in_port.0))
                    .push("vl", u64::from(vl.0))
                    .push("options", outcomes_to_json(options));
            }
            FlightEvent::TailLeft { packet, port, vl } => {
                o.push("packet", packet.0)
                    .push("port", u64::from(port.0))
                    .push("vl", u64::from(vl.0));
            }
            FlightEvent::CreditReturned { port, vl, credits } => {
                o.push("port", u64::from(port.0))
                    .push("vl", u64::from(vl.0))
                    .push("credits", u64::from(*credits));
            }
            FlightEvent::Dropped { packet, cause } => {
                o.push("packet", packet.0).push("cause", cause.name());
            }
            FlightEvent::Delivered {
                packet,
                host,
                latency_ns,
            } => {
                o.push("packet", packet.0)
                    .push("host", u64::from(host.0))
                    .push("latency_ns", *latency_ns);
            }
            FlightEvent::LinkDown { port } => {
                o.push("port", u64::from(port.0));
            }
            FlightEvent::LinkUp { port } => {
                o.push("port", u64::from(port.0));
            }
            // The member is "switch", not "sw": stamped events flatten the
            // payload into the same object as the stamp, whose logging-switch
            // member already owns the "sw" key.
            FlightEvent::SwitchDown { sw } => {
                o.push("switch", u64::from(sw.0));
            }
            FlightEvent::SwitchUp { sw } => {
                o.push("switch", u64::from(sw.0));
            }
            FlightEvent::SmpRetransmit { tid, attempt, hops } => {
                o.push("tid", *tid)
                    .push("attempt", u64::from(*attempt))
                    .push("hops", u64::from(*hops));
            }
            FlightEvent::Stall {
                port,
                vl,
                packet,
                waited_ns,
                class,
            } => {
                o.push("port", u64::from(port.0))
                    .push("vl", u64::from(vl.0))
                    .push("packet", packet.0)
                    .push("waited_ns", *waited_ns)
                    .push("class", class.name());
            }
        }
        o
    }

    /// Inverse of [`FlightEvent::to_json`]; `None` on any shape or
    /// vocabulary mismatch.
    pub(crate) fn from_json(v: &Json) -> Option<FlightEvent> {
        let packet = || v.get("packet").and_then(Json::as_u64).map(PacketId);
        let host = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .and_then(|h| u16::try_from(h).ok())
                .map(HostId)
        };
        let port = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .and_then(|p| u8::try_from(p).ok())
                .map(PortIndex)
        };
        let vl = || {
            v.get("vl")
                .and_then(Json::as_u64)
                .and_then(|x| u8::try_from(x).ok())
                .map(VirtualLane)
        };
        Some(match v.get("ev")?.as_str()? {
            "generated" => FlightEvent::Generated {
                packet: packet()?,
                host: host("host")?,
            },
            "injected" => FlightEvent::Injected {
                packet: packet()?,
                host: host("host")?,
            },
            "arrived" => FlightEvent::Arrived {
                packet: packet()?,
                port: port("port")?,
                vl: vl()?,
            },
            "route_decision" => FlightEvent::RouteDecision {
                packet: packet()?,
                in_port: port("in_port")?,
                vl: vl()?,
                out_port: port("out_port")?,
                via_escape: v.get("via_escape")?.as_bool()?,
                from_escape_head: v.get("from_escape_head")?.as_bool()?,
                waited_ns: v.get("waited_ns")?.as_u64()?,
                options: outcomes_from_json(v.get("options")?)?,
            },
            "blocked" => FlightEvent::Blocked {
                packet: packet()?,
                in_port: port("in_port")?,
                vl: vl()?,
                options: outcomes_from_json(v.get("options")?)?,
            },
            "tail_left" => FlightEvent::TailLeft {
                packet: packet()?,
                port: port("port")?,
                vl: vl()?,
            },
            "credit_returned" => FlightEvent::CreditReturned {
                port: port("port")?,
                vl: vl()?,
                credits: u32::try_from(v.get("credits")?.as_u64()?).ok()?,
            },
            "dropped" => FlightEvent::Dropped {
                packet: packet()?,
                cause: DropCause::from_name(v.get("cause")?.as_str()?)?,
            },
            "delivered" => FlightEvent::Delivered {
                packet: packet()?,
                host: host("host")?,
                latency_ns: v.get("latency_ns")?.as_u64()?,
            },
            "link_down" => FlightEvent::LinkDown {
                port: port("port")?,
            },
            "link_up" => FlightEvent::LinkUp {
                port: port("port")?,
            },
            "switch_down" => FlightEvent::SwitchDown {
                sw: SwitchId(u16::try_from(v.get("switch")?.as_u64()?).ok()?),
            },
            "switch_up" => FlightEvent::SwitchUp {
                sw: SwitchId(u16::try_from(v.get("switch")?.as_u64()?).ok()?),
            },
            "smp_retransmit" => FlightEvent::SmpRetransmit {
                tid: v.get("tid")?.as_u64()?,
                attempt: u32::try_from(v.get("attempt")?.as_u64()?).ok()?,
                hops: u8::try_from(v.get("hops")?.as_u64()?).ok()?,
            },
            "stall" => FlightEvent::Stall {
                port: port("port")?,
                vl: vl()?,
                packet: packet()?,
                waited_ns: v.get("waited_ns")?.as_u64()?,
                class: StallClass::from_name(v.get("class")?.as_str()?)?,
            },
            _ => return None,
        })
    }
}

/// A recorded event as it sits in a dump: global sequence number,
/// timestamp, the switch that logged it (`None` for host-side events)
/// and the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedEvent {
    /// Global total-order sequence number (recording order).
    pub seq: u64,
    /// Simulation time of the event, nanoseconds.
    pub at_ns: u64,
    /// The logging switch; `None` for host-side events
    /// (inject/deliver/source drops).
    pub sw: Option<SwitchId>,
    /// The payload.
    pub ev: FlightEvent,
}

impl StampedEvent {
    /// The stamped event as a flat JSON object (payload members are
    /// inlined after the stamp members).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.push("seq", self.seq)
            .push("at_ns", self.at_ns)
            .push("sw", self.sw.map(|s| u64::from(s.0)));
        if let Json::Obj(members) = self.ev.to_json() {
            if let Json::Obj(out) = &mut o {
                out.extend(members);
            }
        }
        o
    }

    /// Inverse of [`StampedEvent::to_json`].
    pub fn from_json(v: &Json) -> Option<StampedEvent> {
        let sw = match v.get("sw")? {
            Json::Null => None,
            s => Some(SwitchId(u16::try_from(s.as_u64()?).ok()?)),
        };
        Some(StampedEvent {
            seq: v.get("seq")?.as_u64()?,
            at_ns: v.get("at_ns")?.as_u64()?,
            sw,
            ev: FlightEvent::from_json(v)?,
        })
    }
}

/// The candidate set of a decision or a block, `p2: no_adaptive_credit,
/// p0 (escape): selected`.
struct OptionsText<'a>(&'a OptionOutcomes);

impl std::fmt::Display for OptionsText<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, o) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let escape = if o.escape { " (escape)" } else { "" };
            write!(f, "{sep}{}{escape}: {}", o.port, o.verdict.name())?;
        }
        Ok(())
    }
}

/// One human-readable line per event, aligned for terminal reading —
/// what `iba trace`, `iba flightrec` and the examples print.
impl std::fmt::Display for StampedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let origin = self.sw.map_or_else(|| "-".to_string(), |s| s.to_string());
        write!(f, "{:>10}ns  #{:<6} {origin:>6}  ", self.at_ns, self.seq)?;
        match &self.ev {
            FlightEvent::Generated { packet, host } => write!(f, "{packet} generated at {host}"),
            FlightEvent::Injected { packet, host } => write!(f, "{packet} injected by {host}"),
            FlightEvent::Arrived { packet, port, vl } => {
                write!(f, "{packet} arrived on {port}/{vl}")
            }
            FlightEvent::RouteDecision {
                packet,
                in_port,
                vl,
                out_port,
                via_escape,
                from_escape_head,
                waited_ns,
                options,
            } => write!(
                f,
                "{packet} routed {in_port}/{vl} -> {out_port}{}{} after {waited_ns}ns  [{}]",
                if *via_escape { " via ESCAPE" } else { "" },
                if *from_escape_head {
                    " (escape head)"
                } else {
                    ""
                },
                OptionsText(options)
            ),
            FlightEvent::Blocked {
                packet,
                in_port,
                vl,
                options,
            } => write!(
                f,
                "{packet} blocked at {in_port}/{vl}  [{}]",
                OptionsText(options)
            ),
            FlightEvent::TailLeft { packet, port, vl } => {
                write!(f, "{packet} tail left, freed {port}/{vl}")
            }
            FlightEvent::CreditReturned { port, vl, credits } => {
                write!(f, "{credits} credits back on {port}/{vl}")
            }
            FlightEvent::Dropped { packet, cause } => {
                write!(f, "{packet} DROPPED: {}", cause.name())
            }
            FlightEvent::Delivered {
                packet,
                host,
                latency_ns,
            } => write!(f, "{packet} delivered to {host} after {latency_ns}ns"),
            FlightEvent::LinkDown { port } => write!(f, "link DOWN on {port}"),
            FlightEvent::LinkUp { port } => write!(f, "link UP on {port}"),
            FlightEvent::SwitchDown { sw } => write!(f, "switch {sw} DOWN"),
            FlightEvent::SwitchUp { sw } => write!(f, "switch {sw} UP"),
            FlightEvent::SmpRetransmit { tid, attempt, hops } => {
                write!(f, "SMP tid {tid} retransmit #{attempt} ({hops} hops)")
            }
            FlightEvent::Stall {
                port,
                vl,
                packet,
                waited_ns,
                class,
            } => write!(
                f,
                "STALL {} on {port}/{vl}: {packet} stuck {waited_ns}ns",
                class.name()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<FlightEvent> {
        let mut options = OptionOutcomes::default();
        options.push(OptionOutcome {
            port: PortIndex(2),
            escape: false,
            verdict: OptionVerdict::NoAdaptiveCredit,
        });
        options.push(OptionOutcome {
            port: PortIndex(0),
            escape: true,
            verdict: OptionVerdict::Selected,
        });
        vec![
            FlightEvent::Generated {
                packet: PacketId(7),
                host: HostId(3),
            },
            FlightEvent::Injected {
                packet: PacketId(7),
                host: HostId(3),
            },
            FlightEvent::Arrived {
                packet: PacketId(7),
                port: PortIndex(1),
                vl: VirtualLane(0),
            },
            FlightEvent::RouteDecision {
                packet: PacketId(7),
                in_port: PortIndex(1),
                vl: VirtualLane(0),
                out_port: PortIndex(0),
                via_escape: true,
                from_escape_head: false,
                waited_ns: 120,
                options: options.clone(),
            },
            FlightEvent::Blocked {
                packet: PacketId(9),
                in_port: PortIndex(4),
                vl: VirtualLane(1),
                options,
            },
            FlightEvent::TailLeft {
                packet: PacketId(7),
                port: PortIndex(1),
                vl: VirtualLane(0),
            },
            FlightEvent::CreditReturned {
                port: PortIndex(0),
                vl: VirtualLane(0),
                credits: 4,
            },
            FlightEvent::Dropped {
                packet: PacketId(9),
                cause: DropCause::LinkDown,
            },
            FlightEvent::Delivered {
                packet: PacketId(7),
                host: HostId(5),
                latency_ns: 1850,
            },
            FlightEvent::LinkDown { port: PortIndex(6) },
            FlightEvent::LinkUp { port: PortIndex(6) },
            FlightEvent::SwitchDown { sw: SwitchId(11) },
            FlightEvent::SwitchUp { sw: SwitchId(11) },
            FlightEvent::SmpRetransmit {
                tid: 4242,
                attempt: 3,
                hops: 5,
            },
            FlightEvent::Dropped {
                packet: PacketId(10),
                cause: DropCause::SwitchDown,
            },
            FlightEvent::Dropped {
                packet: PacketId(11),
                cause: DropCause::Corrupted,
            },
            FlightEvent::Stall {
                port: PortIndex(4),
                vl: VirtualLane(1),
                packet: PacketId(9),
                waited_ns: 30_000,
                class: StallClass::SuspectedWedge,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for ev in sample_events() {
            let j = ev.to_json();
            let back = FlightEvent::from_json(&j).expect("parse back");
            assert_eq!(back, ev, "round trip failed for {j}");
            // And through *text*, which is what dumps actually store.
            let reparsed = Json::parse(&j.to_string_compact()).unwrap();
            assert_eq!(FlightEvent::from_json(&reparsed).unwrap(), ev);
        }
    }

    #[test]
    fn stamped_event_round_trips() {
        for (i, ev) in sample_events().into_iter().enumerate() {
            let stamped = StampedEvent {
                seq: i as u64,
                at_ns: 1_000 + i as u64,
                sw: if i % 3 == 0 { None } else { Some(SwitchId(12)) },
                ev,
            };
            let j = stamped.to_json();
            assert_eq!(StampedEvent::from_json(&j).unwrap(), stamped);
        }
    }

    #[test]
    fn a_candidate_set_spills_past_eight_and_loses_nothing() {
        use std::hash::{BuildHasher, RandomState};
        let all: Vec<OptionOutcome> = (0..MAX_PORTS)
            .map(|p| OptionOutcome {
                port: PortIndex(p as u8),
                escape: p == 0,
                verdict: OptionVerdict::ALL[p % OptionVerdict::ALL.len()],
            })
            .collect();
        let hasher = RandomState::new();
        for len in [0, 1, 8, 9, MAX_PORTS] {
            let options: OptionOutcomes = all[..len].iter().copied().collect();
            assert_eq!(options[..], all[..len], "len {len}");
            let copy = options.clone();
            assert_eq!(copy, options);
            assert_eq!(hasher.hash_one(&copy), hasher.hash_one(&options));
            let fewer: OptionOutcomes = all[..len.saturating_sub(1)].iter().copied().collect();
            assert_eq!(fewer == options, len == 0);
            let stamped = StampedEvent {
                seq: 3,
                at_ns: 40,
                sw: Some(SwitchId(2)),
                ev: FlightEvent::RouteDecision {
                    packet: PacketId(7),
                    in_port: PortIndex(1),
                    vl: VirtualLane(0),
                    out_port: PortIndex(0),
                    via_escape: true,
                    from_escape_head: false,
                    waited_ns: 120,
                    options,
                },
            };
            let text = stamped.to_json().to_string_compact();
            let back = StampedEvent::from_json(&Json::parse(&text).unwrap());
            assert_eq!(back.as_ref(), Some(&stamped), "len {len}");
        }
    }

    #[test]
    fn name_tables_are_bijective() {
        for c in DropCause::ALL {
            assert_eq!(DropCause::from_name(c.name()), Some(c));
        }
        for v in OptionVerdict::ALL {
            assert_eq!(OptionVerdict::from_name(v.name()), Some(v));
        }
        for s in [StallClass::EscapeDraining, StallClass::SuspectedWedge] {
            assert_eq!(StallClass::from_name(s.name()), Some(s));
        }
        assert_eq!(DropCause::from_name("bogus"), None);
        assert_eq!(OptionVerdict::from_name("bogus"), None);
        assert_eq!(StallClass::from_name("bogus"), None);
    }

    #[test]
    fn malformed_events_are_rejected() {
        for bad in [
            r#"{"ev":"nope"}"#,
            r#"{"ev":"arrived","packet":1,"port":999,"vl":0}"#,
            r#"{"ev":"dropped","packet":1,"cause":"gremlins"}"#,
            r#"{"ev":"switch_down","switch":70000}"#,
            r#"{"ev":"smp_retransmit","tid":1}"#,
            r#"{"packet":1}"#,
        ] {
            let j = Json::parse(bad).unwrap();
            assert!(FlightEvent::from_json(&j).is_none(), "accepted {bad}");
        }
    }
}
