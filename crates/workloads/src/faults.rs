//! Link, switch and flap fault schedules.
//!
//! The paper evaluates a fault-free steady state, but its whole premise —
//! independently deadlock-free escape and APM-alternate path sets — only
//! pays off when the fabric *breaks*. A [`FaultSchedule`] carries timed
//! events, built with the constructors below; the simulator replays it
//! (`NetworkBuilder::faults`), dropping in-transit packets, masking dead
//! ports out of the routing options, and optionally triggering an SM
//! re-sweep or APM migration. Beyond the clean `LinkDown`/`LinkUp`
//! pairs, the schedule models whole-switch death (`SwitchDown` takes
//! every attached port with it atomically) and bounded link flapping
//! ([`FaultSchedule::flapping_events`]).
//!
//! Construction validates window structure: every up must close a
//! matching down, no resource may go down twice without recovering in
//! between, and a link window may not overlap a switch window on either
//! of its endpoints (the switch death already owns that link).

use iba_core::{IbaError, SimTime, SwitchId};
use std::collections::BTreeMap;

/// What happens to the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The link goes dead: in-buffer packets routed over it are flushed,
    /// packets on the wire are lost, and the port stops being a feasible
    /// routing option.
    LinkDown,
    /// The link comes back: ports are unmasked and credits restored.
    LinkUp,
    /// The switch `a` dies: every attached port (links *and* host
    /// ports) goes down atomically; `b` is ignored and canonicalized to
    /// `a`.
    SwitchDown,
    /// The switch `a` comes back: all its ports are unmasked and
    /// credits resynchronized.
    SwitchUp,
}

impl FaultKind {
    fn is_down(self) -> bool {
        matches!(self, FaultKind::LinkDown | FaultKind::SwitchDown)
    }

    fn is_switch(self) -> bool {
        matches!(self, FaultKind::SwitchDown | FaultKind::SwitchUp)
    }
}

/// One timed fault event: a link event on the switch–switch link
/// `a`–`b`, or a switch event on `a` (with `b == a`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the event takes effect.
    pub at: SimTime,
    /// Down or up, link or switch.
    pub kind: FaultKind,
    /// One endpoint switch (or *the* switch, for switch events).
    pub a: SwitchId,
    /// The other endpoint switch; equal to `a` for switch events.
    pub b: SwitchId,
}

impl FaultEvent {
    /// A link-death event.
    pub fn link_down(at: SimTime, a: SwitchId, b: SwitchId) -> FaultEvent {
        FaultEvent {
            at,
            kind: FaultKind::LinkDown,
            a,
            b,
        }
    }

    /// A link-recovery event.
    pub fn link_up(at: SimTime, a: SwitchId, b: SwitchId) -> FaultEvent {
        FaultEvent {
            at,
            kind: FaultKind::LinkUp,
            a,
            b,
        }
    }

    /// A switch-death event.
    pub fn switch_down(at: SimTime, s: SwitchId) -> FaultEvent {
        FaultEvent {
            at,
            kind: FaultKind::SwitchDown,
            a: s,
            b: s,
        }
    }

    /// A switch-recovery event.
    pub fn switch_up(at: SimTime, s: SwitchId) -> FaultEvent {
        FaultEvent {
            at,
            kind: FaultKind::SwitchUp,
            a: s,
            b: s,
        }
    }
}

/// The resource a fault window occupies (link keys are unordered).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Resource {
    Link(SwitchId, SwitchId),
    Switch(SwitchId),
}

impl Resource {
    fn of(e: &FaultEvent) -> Resource {
        if e.kind.is_switch() {
            Resource::Switch(e.a)
        } else if e.a.0 <= e.b.0 {
            Resource::Link(e.a, e.b)
        } else {
            Resource::Link(e.b, e.a)
        }
    }

    fn describe(self) -> String {
        match self {
            Resource::Link(a, b) => format!("link {a}–{b}"),
            Resource::Switch(s) => format!("switch {s}"),
        }
    }
}

/// A time-ordered list of fault events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Build from a list of events (sorted by time internally; the
    /// relative order of same-instant entries is preserved). Switch
    /// events get `b` canonicalized to `a`. Rejects malformed windows:
    /// an up without a preceding down, a resource going down twice
    /// without recovering (overlapping/duplicate windows), and a link
    /// window overlapping a switch window on either endpoint.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<FaultSchedule, IbaError> {
        for (i, e) in events.iter_mut().enumerate() {
            if e.kind.is_switch() {
                e.b = e.a; // canonical form: switch faults name one switch
            } else if e.a == e.b {
                return Err(IbaError::InvalidConfig(format!(
                    "fault entry {i}: link endpoints are the same switch ({})",
                    e.a
                )));
            }
        }
        events.sort_by_key(|e| e.at);
        Self::validate_windows(&events)?;
        Ok(FaultSchedule { events })
    }

    /// Window-structure validation over time-sorted events.
    fn validate_windows(events: &[FaultEvent]) -> Result<(), IbaError> {
        let mut open: BTreeMap<Resource, u64> = BTreeMap::new();
        // Closed and never-closed `[down, up)` windows per resource.
        let mut windows: Vec<(Resource, u64, u64)> = Vec::new();
        for e in events {
            let r = Resource::of(e);
            let t = e.at.as_ns();
            if e.kind.is_down() {
                if open.contains_key(&r) {
                    return Err(IbaError::InvalidConfig(format!(
                        "overlapping fault windows: {} goes down again at {t} ns \
                         while still down",
                        r.describe()
                    )));
                }
                open.insert(r, t);
            } else {
                let Some(start) = open.remove(&r) else {
                    return Err(IbaError::InvalidConfig(format!(
                        "{} comes up at {t} ns without a preceding down event",
                        r.describe()
                    )));
                };
                windows.push((r, start, t));
            }
        }
        for (r, start) in open {
            windows.push((r, start, u64::MAX)); // permanent fault
        }
        // A link window must not overlap a switch window on either of
        // its endpoints: the switch death already owns the link, and the
        // simulator could not attribute the shared down/up transitions.
        for (i, &(ra, a0, a1)) in windows.iter().enumerate() {
            for &(rb, b0, b1) in &windows[i + 1..] {
                let touches = match (ra, rb) {
                    (Resource::Link(x, y), Resource::Switch(s))
                    | (Resource::Switch(s), Resource::Link(x, y)) => s == x || s == y,
                    _ => false,
                };
                if touches && a0 < b1 && b0 < a1 {
                    return Err(IbaError::InvalidConfig(format!(
                        "overlapping fault windows: {} and {} share an endpoint \
                         and their down intervals intersect",
                        ra.describe(),
                        rb.describe()
                    )));
                }
            }
        }
        Ok(())
    }

    /// A single permanent link failure at `at`.
    pub fn single(at: SimTime, a: SwitchId, b: SwitchId) -> Result<FaultSchedule, IbaError> {
        FaultSchedule::new(vec![FaultEvent::link_down(at, a, b)])
    }

    /// Expand a bounded link flap — `cycles` down/up oscillations on the
    /// link `a`–`b` starting at `start`, each cycle `down_ns` dead then
    /// `up_ns` healthy — into plain events for composition into a
    /// larger schedule.
    pub fn flapping_events(
        start: SimTime,
        a: SwitchId,
        b: SwitchId,
        down_ns: u64,
        up_ns: u64,
        cycles: usize,
    ) -> Vec<FaultEvent> {
        let mut out = Vec::with_capacity(cycles * 2);
        let mut t = start.as_ns();
        for _ in 0..cycles {
            out.push(FaultEvent::link_down(SimTime::from_ns(t), a, b));
            out.push(FaultEvent::link_up(SimTime::from_ns(t + down_ns), a, b));
            t += down_ns + up_ns;
        }
        out
    }

    /// A schedule that is exactly one bounded flap
    /// ([`Self::flapping_events`]).
    pub fn flapping(
        start: SimTime,
        a: SwitchId,
        b: SwitchId,
        down_ns: u64,
        up_ns: u64,
        cycles: usize,
    ) -> Result<FaultSchedule, IbaError> {
        FaultSchedule::new(Self::flapping_events(start, a, b, down_ns, up_ns, cycles))
    }

    /// The events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(at: u64, kind: FaultKind, a: u16, b: u16) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_ns(at),
            kind,
            a: SwitchId(a),
            b: SwitchId(b),
        }
    }

    #[test]
    fn new_sorts_and_validates() {
        let s = FaultSchedule::new(vec![
            ev(300, FaultKind::LinkUp, 0, 1),
            ev(100, FaultKind::LinkDown, 0, 1),
        ])
        .unwrap();
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_ns()).collect();
        assert_eq!(times, vec![100, 300]);
        assert!(FaultSchedule::new(vec![ev(1, FaultKind::LinkDown, 2, 2)]).is_err());
    }

    #[test]
    fn single_helper() {
        let s = FaultSchedule::single(SimTime::from_us(50), SwitchId(2), SwitchId(5)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.events()[0].kind, FaultKind::LinkDown);
        assert!(FaultSchedule::single(SimTime::ZERO, SwitchId(1), SwitchId(1)).is_err());
    }

    #[test]
    fn switch_events_canonicalize_and_pair() {
        let s = FaultSchedule::new(vec![ev(10, FaultKind::SwitchDown, 3, 9)]).unwrap();
        assert_eq!(s.events()[0].b, SwitchId(3), "b canonicalized to a");
        let paired = FaultSchedule::new(vec![
            FaultEvent::switch_up(SimTime::from_ns(9), SwitchId(2)),
            FaultEvent::switch_down(SimTime::from_ns(5), SwitchId(2)),
        ])
        .unwrap();
        assert_eq!(paired.events()[0].kind, FaultKind::SwitchDown);
        assert_eq!(paired.events()[1].kind, FaultKind::SwitchUp);
        assert!(paired.events().iter().all(|e| e.a == e.b));
    }

    #[test]
    fn flapping_expands_to_bounded_oscillation() {
        let s = FaultSchedule::flapping(
            SimTime::from_us(10),
            SwitchId(0),
            SwitchId(1),
            2_000,
            3_000,
            3,
        )
        .unwrap();
        assert_eq!(s.len(), 6);
        let kinds: Vec<FaultKind> = s.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::LinkDown,
                FaultKind::LinkUp,
                FaultKind::LinkDown,
                FaultKind::LinkUp,
                FaultKind::LinkDown,
                FaultKind::LinkUp,
            ]
        );
        assert_eq!(s.events()[0].at.as_ns(), 10_000);
        assert_eq!(s.events()[5].at.as_ns(), 10_000 + 2 * 5_000 + 2_000);
    }

    #[test]
    fn up_before_down_is_rejected_with_clear_error() {
        let err = FaultSchedule::new(vec![ev(100, FaultKind::LinkUp, 0, 1)]).unwrap_err();
        assert!(
            err.to_string().contains("without a preceding down"),
            "{err}"
        );
        let err = FaultSchedule::new(vec![ev(100, FaultKind::SwitchUp, 2, 2)]).unwrap_err();
        assert!(
            err.to_string().contains("without a preceding down"),
            "{err}"
        );
        // An up on a *different* link does not close the window.
        let err = FaultSchedule::new(vec![
            ev(100, FaultKind::LinkDown, 0, 1),
            ev(200, FaultKind::LinkUp, 0, 2),
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("without a preceding down"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_and_overlapping_windows_are_rejected() {
        // Same link down twice with no recovery (link keys are unordered).
        let err = FaultSchedule::new(vec![
            ev(100, FaultKind::LinkDown, 0, 1),
            ev(200, FaultKind::LinkDown, 1, 0),
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("overlapping fault windows"),
            "{err}"
        );
        // Same switch down twice.
        let err = FaultSchedule::new(vec![
            ev(100, FaultKind::SwitchDown, 4, 4),
            ev(150, FaultKind::SwitchDown, 4, 4),
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("overlapping fault windows"),
            "{err}"
        );
        // A link window overlapping a switch window on an endpoint.
        let err = FaultSchedule::new(vec![
            ev(100, FaultKind::SwitchDown, 1, 1),
            ev(150, FaultKind::LinkDown, 0, 1),
            ev(300, FaultKind::SwitchUp, 1, 1),
            ev(400, FaultKind::LinkUp, 0, 1),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("share an endpoint"), "{err}");
        // Disjoint-in-time windows on the same resources are fine.
        FaultSchedule::new(vec![
            ev(100, FaultKind::SwitchDown, 1, 1),
            ev(200, FaultKind::SwitchUp, 1, 1),
            ev(300, FaultKind::LinkDown, 0, 1),
            ev(400, FaultKind::LinkUp, 0, 1),
        ])
        .unwrap();
        // Switch windows on *different* switches may overlap.
        FaultSchedule::new(vec![
            ev(100, FaultKind::SwitchDown, 1, 1),
            ev(150, FaultKind::SwitchDown, 2, 2),
            ev(300, FaultKind::SwitchUp, 1, 1),
            ev(350, FaultKind::SwitchUp, 2, 2),
        ])
        .unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_up_before_down_rejected(
            t in 0u64..1_000_000,
            a in 0u16..64,
            b in 0u16..64,
            switch_kind in any::<bool>(),
        ) {
            prop_assume!(a != b);
            let e = if switch_kind {
                FaultEvent::switch_up(SimTime::from_ns(t), SwitchId(a))
            } else {
                FaultEvent::link_up(SimTime::from_ns(t), SwitchId(a), SwitchId(b))
            };
            let err = FaultSchedule::new(vec![e]).unwrap_err();
            prop_assert!(err.to_string().contains("without a preceding down"));
        }

        #[test]
        fn prop_double_down_rejected(
            t1 in 0u64..1_000,
            dt in 0u64..1_000,
            a in 0u16..64,
            b in 0u16..64,
        ) {
            prop_assume!(a != b);
            // The second down may name the link from either direction.
            let err = FaultSchedule::new(vec![
                FaultEvent::link_down(SimTime::from_ns(t1), SwitchId(a), SwitchId(b)),
                FaultEvent::link_down(SimTime::from_ns(t1 + dt), SwitchId(b), SwitchId(a)),
            ])
            .unwrap_err();
            prop_assert!(err.to_string().contains("overlapping fault windows"));
        }

        #[test]
        fn prop_link_window_inside_switch_window_rejected(
            start in 0u64..1_000,
            len in 2u64..1_000,
            s in 0u16..32,
            peer in 0u16..32,
        ) {
            prop_assume!(s != peer);
            let err = FaultSchedule::new(vec![
                FaultEvent::switch_down(SimTime::from_ns(start), SwitchId(s)),
                FaultEvent::link_down(
                    SimTime::from_ns(start + 1),
                    SwitchId(s),
                    SwitchId(peer),
                ),
                FaultEvent::link_up(
                    SimTime::from_ns(start + len),
                    SwitchId(s),
                    SwitchId(peer),
                ),
                FaultEvent::switch_up(SimTime::from_ns(start + len + 1), SwitchId(s)),
            ])
            .unwrap_err();
            prop_assert!(err.to_string().contains("share an endpoint"));
        }
    }
}
