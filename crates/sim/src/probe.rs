//! The probe seam. The switch model says what happened — a
//! [`FlightEvent`], the switch it happened at (a host-side event names
//! the host's switch) and the instant — and names no listener; what each
//! listener makes of it is decided here: telemetry's forward and stall
//! tallies, and for the [`FlightRecorder`] the ring, the drop and
//! latency triggers, the `Blocked` dedup and the watchdog's progress and
//! credit-return clocks. One fact no event has a field for travels
//! beside it: an arrival found its buffer empty (`into_empty`).

use crate::recorder::{FlightRecorder, TriggerCause};
use crate::telemetry::TelemetryState;
use iba_core::{FlightEvent, SimTime, SwitchId};

/// The listeners of one shard.
pub(crate) struct Observers {
    pub(crate) telemetry: Option<TelemetryState>,
    pub(crate) recorder: Option<FlightRecorder>,
}

/// Tell `observers` what happened at `sw`; a bare run tests the pointer
/// and builds nothing.
#[inline]
pub(crate) fn emit(
    observers: &mut Option<Box<Observers>>,
    at: SimTime,
    sw: SwitchId,
    ev: impl FnOnce() -> FlightEvent,
) {
    if let Some(o) = observers {
        o.event(at, sw, ev(), false);
    }
}

/// Whether a look should keep its per-option verdicts: telemetry tallies
/// its stall causes off them, a live recorder logs them.
pub(crate) fn wants_verdicts(observers: &Option<Box<Observers>>) -> bool {
    observers
        .as_deref()
        .is_some_and(|o| o.telemetry.is_some() || o.recorder.as_ref().is_some_and(|r| !r.frozen()))
}

impl Observers {
    /// One transition of the model. `into_empty` goes with `Arrived`:
    /// the buffer held nothing, so the packet's wait starts now.
    pub(crate) fn event(&mut self, at: SimTime, sw: SwitchId, ev: FlightEvent, into_empty: bool) {
        if let Some(t) = self.telemetry.as_mut() {
            match &ev {
                FlightEvent::RouteDecision {
                    via_escape,
                    waited_ns,
                    options,
                    ..
                } => {
                    t.note_forward(sw, *via_escape, *waited_ns);
                    // Beside an adaptive grant the escape entry is the
                    // fate the option would have had: seen, not stalled
                    // on (beside an escape grant it is `Selected`).
                    t.note_verdicts(sw, options.iter().filter(|o| !o.escape));
                }
                FlightEvent::Blocked { options, .. } => t.note_verdicts(sw, options.iter()),
                _ => {}
            }
        }
        if let Some(r) = self.recorder.as_mut() {
            log(r, at, sw, ev, into_empty);
        }
    }
}

/// The recorder's share of an event: the watchdog's clocks, `sw`'s ring
/// and the trigger it may fire.
fn log(r: &mut FlightRecorder, at: SimTime, sw: SwitchId, ev: FlightEvent, into_empty: bool) {
    let mut trigger = None;
    match ev {
        // Forward progress of a buffer: a packet landed in it empty, won
        // arbitration out of it, or freed its slot.
        FlightEvent::Arrived { port, vl, .. } if into_empty => {
            r.note_progress(sw, port.index(), vl.index(), at)
        }
        FlightEvent::RouteDecision {
            in_port: port, vl, ..
        }
        | FlightEvent::TailLeft { port, vl, .. } => {
            r.note_progress(sw, port.index(), vl.index(), at)
        }
        FlightEvent::CreditReturned { port, .. } => r.note_credit_return(sw, port, at),
        FlightEvent::Dropped { packet, .. } if r.opts().trigger_on_drop => {
            trigger = Some((TriggerCause::Drop, packet))
        }
        FlightEvent::Delivered {
            packet, latency_ns, ..
        } if (r.opts().latency_threshold_ns).is_some_and(|t| latency_ns >= t) => {
            trigger = Some((TriggerCause::LatencyThreshold, packet))
        }
        FlightEvent::Blocked {
            packet,
            in_port,
            vl,
            ref options,
        } if !r.blocked_anew(sw, in_port.index(), vl.index(), packet, options) => return,
        _ => {}
    }
    r.record(sw, at, ev);
    if let Some((cause, packet)) = trigger.filter(|_| !r.frozen()) {
        r.trigger(at, cause, Some(sw), Some(packet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderOpts;
    use crate::telemetry::{MemorySink, PortStalls, SwitchTelemetry, TelemetryOpts};
    use iba_core::{
        DropCause, OptionOutcome, OptionOutcomes, OptionVerdict, PacketId, PortIndex, VirtualLane,
    };

    const SW: SwitchId = SwitchId(1);

    fn listeners() -> Observers {
        Observers {
            telemetry: Some(TelemetryState::new(TelemetryOpts::default(), 2, 4)),
            recorder: Some(FlightRecorder::new(RecorderOpts::default(), 2, 4, 1)),
        }
    }

    fn options(list: &[(u8, bool, OptionVerdict)]) -> OptionOutcomes {
        let outcome = |&(port, escape, verdict)| OptionOutcome {
            port: PortIndex(port),
            escape,
            verdict,
        };
        list.iter().map(outcome).collect()
    }

    #[test]
    fn the_escape_fate_beside_an_adaptive_grant_is_seen_not_tallied() {
        use OptionVerdict::*;
        let mut o = listeners();
        let granted = FlightEvent::RouteDecision {
            packet: PacketId(7),
            in_port: PortIndex(0),
            vl: VirtualLane(0),
            out_port: PortIndex(2),
            via_escape: false,
            from_escape_head: false,
            waited_ns: 40,
            options: options(&[
                (1, false, NoAdaptiveCredit),
                (2, false, Selected),
                (3, true, NoEscapeCredit),
            ]),
        };
        o.event(SimTime::from_ns(10), SW, granted, false);
        let at_sw = |o: &Observers| -> SwitchTelemetry {
            let merged = MemorySink::merge(&[o.telemetry.as_ref().unwrap()]);
            merged.report.switches[SW.index()].clone()
        };
        let stalls = |o: &Observers| at_sw(o).stalls;
        assert_eq!(stalls(&o)[1].of(NoAdaptiveCredit), 1);
        assert_eq!(
            stalls(&o)[3],
            PortStalls::default(),
            "observed, not suffered"
        );
        let refused = FlightEvent::Blocked {
            packet: PacketId(8),
            in_port: PortIndex(0),
            vl: VirtualLane(0),
            options: options(&[
                (1, false, DeadPort),
                (2, false, LinkBusy),
                (3, true, NoEscapeCredit),
            ]),
        };
        o.event(SimTime::from_ns(20), SW, refused, false);
        let s = stalls(&o);
        assert_eq!((s[1].of(DeadPort), s[3].of(NoEscapeCredit)), (1, 1));
        assert_eq!(s[2], PortStalls::default());
        let report = at_sw(&o);
        assert_eq!((report.adaptive_forwards, report.escape_forwards), (1, 0));
    }

    #[test]
    fn a_drop_freezes_the_rings_after_it_is_logged() {
        let lost = |cause| FlightEvent::Dropped {
            packet: PacketId(9),
            cause,
        };
        for cause in [DropCause::LinkDown, DropCause::SourceQueueFull] {
            let mut o = listeners();
            o.event(SimTime::from_ns(5), SW, lost(cause), false);
            o.event(SimTime::from_ns(6), SW, lost(cause), false);
            let dump = o.recorder.as_ref().unwrap().dump();
            assert!(dump.frozen);
            assert_eq!(dump.events.len(), 1, "the drop itself, nothing after it");
            // A source drop is logged at the host's switch, like a
            // drop in transit.
            assert_eq!(dump.events[0].sw, Some(SW));
            let t = dump.triggers[0];
            assert_eq!(dump.triggers.len(), 1);
            assert_eq!((t.at_ns, t.cause, t.sw), (5, TriggerCause::Drop, Some(SW)));
            assert_eq!(t.packet, Some(PacketId(9)));
        }
    }
}
