//! The fabric flight recorder.
//!
//! A [`FlightRecorder`] keeps a bounded ring of structured
//! [`FlightEvent`]s per switch, cheap enough to leave on: recording is
//! a couple of array writes, events are fixed-size values
//! ([`iba_core::events`]), and the rings overwrite their oldest entries
//! once full. The payoff is a debuggable fabric — when a run wedges or
//! a packet stalls, the last few thousand decisions around the anomaly
//! are right there, with the full candidate-option set of every routing
//! decision and why each candidate was rejected.
//!
//! It is also the one journey capture: with rings that never fill
//! (`capacity_per_switch: usize::MAX`), [`FlightDump::events_for_packet`]
//! is every step of a packet, from its generation to its delivery.
//!
//! **Triggers** freeze the recorder on anomaly — a packet drop, an
//! end-to-end latency above a configured threshold, or the stall
//! watchdog's `SuspectedWedge` verdict — so the window *around* the
//! anomaly survives instead of being overwritten by post-mortem
//! traffic. A recorder that arms none of them runs on any shard count;
//! one that arms a trigger needs one shard, since the trigger must
//! freeze every ring at the same event. The rings are exported as a
//! versioned JSON-lines [`FlightDump`] or a Perfetto timeline
//! ([`crate::perfetto`]).
//!
//! **The stall watchdog** makes the paper's deadlock-freedom invariant
//! observable. It rides the ordinary event queue (like the telemetry
//! probe, so instrumented runs stay bit-identical across `DesQueue`
//! backends) and periodically checks every (switch, input port, VL)
//! buffer for forward progress. A buffer that has held packets for
//! longer than `stall_after_ns` is *stalled*; the watchdog then looks
//! at the stalled head packet's escape path and distinguishes:
//!
//! * [`StallClass::EscapeDraining`] — the escape port is alive and
//!   shows activity (streaming right now, credits available, or a
//!   credit return within the stall window). The invariant says this
//!   resolves; the event is informational.
//! * [`StallClass::SuspectedWedge`] — the escape path itself shows no
//!   sign of life (dead link, or no credits and none returned for a
//!   whole stall window). This should be impossible in a healthy
//!   fabric, so it fires a trigger and freezes the recorder.
//!
//! Clean saturated runs produce no false positives because every
//! forward and every buffer drain refreshes the progress clock.

use iba_core::{
    FlightEvent, Json, OptionOutcomes, PacketId, PortIndex, SimTime, StallClass, StampedEvent,
    SwitchId, FLIGHT_SCHEMA_VERSION,
};

/// Stall-watchdog configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogOpts {
    /// Cadence of the forward-progress check, nanoseconds.
    pub check_every_ns: u64,
    /// A buffer is *stalled* once it has made no forward progress for
    /// this long, nanoseconds. Must comfortably exceed the routing
    /// pipeline delay and one serialization time; the default (25 µs)
    /// is thousands of times both.
    pub stall_after_ns: u64,
}

impl Default for WatchdogOpts {
    fn default() -> WatchdogOpts {
        WatchdogOpts {
            check_every_ns: 5_000,
            stall_after_ns: 25_000,
        }
    }
}

/// Flight-recorder configuration, as accepted by
/// `NetworkBuilder::recorder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderOpts {
    /// Ring capacity per switch, in events; the events of a switch's
    /// hosts (generation, injection, delivery, source drops) share it.
    pub capacity_per_switch: usize,
    /// Freeze the recorder when a packet is dropped.
    pub trigger_on_drop: bool,
    /// Freeze the recorder when a delivered packet's end-to-end latency
    /// reaches this many nanoseconds.
    pub latency_threshold_ns: Option<u64>,
    /// Arm the stall watchdog (`None` disables it — no check events are
    /// scheduled).
    pub watchdog: Option<WatchdogOpts>,
}

impl Default for RecorderOpts {
    /// 1024 events per switch, drop trigger on, no latency trigger,
    /// watchdog on with default thresholds.
    fn default() -> RecorderOpts {
        RecorderOpts {
            capacity_per_switch: 1024,
            trigger_on_drop: true,
            latency_threshold_ns: None,
            watchdog: Some(WatchdogOpts::default()),
        }
    }
}

impl RecorderOpts {
    /// Whether any trigger is armed — the drop trigger, a latency
    /// threshold or the watchdog. A recorder that arms none never
    /// freezes, so it runs on any shard count.
    pub fn arms_trigger(&self) -> bool {
        self.trigger_on_drop || self.latency_threshold_ns.is_some() || self.watchdog.is_some()
    }
}

/// What froze the recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerCause {
    /// A packet died.
    Drop,
    /// A delivered packet's latency reached the configured threshold.
    LatencyThreshold,
    /// The stall watchdog suspects the deadlock-freedom invariant is
    /// violated.
    SuspectedWedge,
}

impl TriggerCause {
    /// Stable lower-snake name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            TriggerCause::Drop => "drop",
            TriggerCause::LatencyThreshold => "latency_threshold",
            TriggerCause::SuspectedWedge => "suspected_wedge",
        }
    }

    /// Inverse of [`TriggerCause::name`].
    pub(crate) fn from_name(name: &str) -> Option<TriggerCause> {
        [
            TriggerCause::Drop,
            TriggerCause::LatencyThreshold,
            TriggerCause::SuspectedWedge,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// One fired trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// When it fired, nanoseconds.
    pub at_ns: u64,
    /// Why.
    pub cause: TriggerCause,
    /// The switch involved, if any.
    pub sw: Option<SwitchId>,
    /// The packet involved, if any.
    pub packet: Option<PacketId>,
}

/// A bounded overwrite-oldest event ring. It grows up to its capacity
/// instead of reserving it, so a keep-everything capture
/// (`capacity_per_switch: usize::MAX`) costs what it holds.
struct Ring {
    buf: Vec<(u64, FlightEvent)>, // (at_ns, event)
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    /// Events overwritten (lost) so far.
    overwritten: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            overwritten: 0,
        }
    }

    fn push(&mut self, at_ns: u64, ev: FlightEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push((at_ns, ev));
        } else {
            self.buf[self.head] = (at_ns, ev);
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.overwritten += 1;
        }
    }

    /// Entries oldest-first.
    fn iter(&self) -> impl Iterator<Item = &(u64, FlightEvent)> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// The per-run flight recorder: one of the listeners behind the
/// simulator's probe seam (a run without it pays nothing for it);
/// drained into a [`FlightDump`] after the run.
///
/// Every event goes to the ring of the switch it happened at — a
/// host-side event (generation, injection, delivery, a source drop) to
/// the ring of the host's switch — and each switch's events happen in
/// the shard that owns it. So a switch's ring holds the same events at
/// every shard count, and the network's dump takes it from the owning
/// shard's recorder.
pub struct FlightRecorder {
    opts: RecorderOpts,
    rings: Vec<Ring>,
    frozen: bool,
    triggers: Vec<Trigger>,
    /// Per (switch, input port, VL): last time the buffer made forward
    /// progress (forwarded a packet, drained empty, or went from empty
    /// to occupied — the head packet's wait clock starts there).
    last_progress: Vec<SimTime>,
    /// Per (switch, output port): last credit return seen.
    last_credit_return: Vec<Option<SimTime>>,
    /// Per (switch, input port, VL): dedup signature of the last
    /// `Blocked` event logged, so repeated identical arbitration
    /// failures log once per *reason change*, not once per pass.
    blocked_sig: Vec<u64>,
    /// Per (switch, input port, VL): the last stall class logged for the
    /// current stall episode (`None` between episodes).
    stall_logged: Vec<Option<StallClass>>,
    nports: usize,
    nvls: usize,
}

impl FlightRecorder {
    /// A recorder for a fabric of `switches` switches with `ports` ports
    /// and `vls` data VLs each.
    pub(crate) fn new(
        opts: RecorderOpts,
        switches: usize,
        ports: usize,
        vls: usize,
    ) -> FlightRecorder {
        FlightRecorder {
            opts,
            rings: (0..switches)
                .map(|_| Ring::new(opts.capacity_per_switch))
                .collect(),
            frozen: false,
            triggers: Vec::new(),
            last_progress: vec![SimTime::ZERO; switches * ports * vls],
            last_credit_return: vec![None; switches * ports],
            blocked_sig: vec![0; switches * ports * vls],
            stall_logged: vec![None; switches * ports * vls],
            nports: ports,
            nvls: vls,
        }
    }

    /// The configuration the recorder was armed with.
    pub(crate) fn opts(&self) -> &RecorderOpts {
        &self.opts
    }

    /// Whether a trigger has frozen the recorder.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Triggers fired so far (recording freezes at the first).
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    #[inline]
    fn pv(&self, sw: SwitchId, port: usize, vl: usize) -> usize {
        (sw.index() * self.nports + port) * self.nvls + vl
    }

    /// Log one event against `sw`'s ring. No-op once frozen.
    pub(crate) fn record(&mut self, sw: SwitchId, at: SimTime, ev: FlightEvent) {
        if !self.frozen {
            self.rings[sw.index()].push(at.as_ns(), ev);
        }
    }

    /// Fire a trigger: log it and freeze the rings so the window around
    /// the anomaly survives. Later triggers are still listed (bounded)
    /// but record nothing further.
    pub(crate) fn trigger(
        &mut self,
        at: SimTime,
        cause: TriggerCause,
        sw: Option<SwitchId>,
        packet: Option<PacketId>,
    ) {
        if self.triggers.len() < 64 {
            self.triggers.push(Trigger {
                at_ns: at.as_ns(),
                cause,
                sw,
                packet,
            });
        }
        self.frozen = true;
    }

    /// Note forward progress on (switch, input port, VL): a packet was
    /// forwarded out of the buffer, the buffer drained empty, or a
    /// packet arrived into an empty buffer (starting a new wait clock).
    #[inline]
    pub(crate) fn note_progress(&mut self, sw: SwitchId, port: usize, vl: usize, now: SimTime) {
        let i = self.pv(sw, port, vl);
        self.last_progress[i] = now;
        self.blocked_sig[i] = 0;
        self.stall_logged[i] = None;
    }

    /// Note a credit return arriving at (switch, output port).
    #[inline]
    pub(crate) fn note_credit_return(&mut self, sw: SwitchId, port: PortIndex, now: SimTime) {
        self.last_credit_return[sw.index() * self.nports + port.index()] = Some(now);
    }

    /// Nanoseconds the (switch, input port, VL) buffer has gone without
    /// forward progress.
    #[inline]
    pub(crate) fn stalled_for(&self, sw: SwitchId, port: usize, vl: usize, now: SimTime) -> u64 {
        now.since(self.last_progress[self.pv(sw, port, vl)])
    }

    /// Last credit return seen at (switch, output port), if any.
    #[inline]
    pub(crate) fn last_credit_return_at(&self, sw: SwitchId, port: PortIndex) -> Option<SimTime> {
        self.last_credit_return[sw.index() * self.nports + port.index()]
    }

    /// Whether a `Blocked` event for this buffer says something new: not
    /// the packet and verdict multiset of the last one asked about.
    /// Marks it said.
    pub(crate) fn blocked_anew(
        &mut self,
        sw: SwitchId,
        in_port: usize,
        vl: usize,
        packet: PacketId,
        options: &OptionOutcomes,
    ) -> bool {
        // Cheap order-independent signature of (packet, outcomes).
        let mut sig = PacketId(packet.0).stable_hash() | 1;
        for o in options.iter() {
            sig = sig
                .wrapping_add(PacketId(((o.port.0 as u64) << 8) | o.verdict as u64).stable_hash());
        }
        let i = self.pv(sw, in_port, vl);
        std::mem::replace(&mut self.blocked_sig[i], sig) != sig
    }

    /// Whether a `Stall` event with `class` should be logged for this
    /// buffer now (once per class per stall episode), and mark it
    /// logged.
    pub(crate) fn should_log_stall(
        &mut self,
        sw: SwitchId,
        port: usize,
        vl: usize,
        class: StallClass,
    ) -> bool {
        let i = self.pv(sw, port, vl);
        if self.stall_logged[i] == Some(class) {
            return false;
        }
        self.stall_logged[i] = Some(class);
        true
    }

    /// The dump of a capture split across shards: switch `s`'s ring is
    /// taken from `recorders[owner(s)]`, the triggers from every
    /// recorder (only a lone shard may arm one). Events come out in the
    /// canonical order — by time, then by switch, then in ring order —
    /// and are numbered in it, so the dump is the same at every shard
    /// count and on either queue backend.
    pub(crate) fn merge(
        recorders: &[&FlightRecorder],
        owner: impl Fn(SwitchId) -> usize,
    ) -> FlightDump {
        let any = recorders[0];
        let ring_of = |s: usize| &recorders[owner(SwitchId(s as u16))].rings[s];
        let held = (0..any.rings.len()).map(|s| ring_of(s).buf.len()).sum();
        let mut events = Vec::with_capacity(held);
        let mut overwritten_events = 0;
        for s in 0..any.rings.len() {
            let sw = SwitchId(s as u16);
            let ring = ring_of(s);
            overwritten_events += ring.overwritten;
            events.extend(ring.iter().map(|(at_ns, ev)| StampedEvent {
                seq: 0,
                at_ns: *at_ns,
                sw: Some(sw),
                ev: ev.clone(),
            }));
        }
        // Stable: within one instant, switch order, then ring order.
        events.sort_by_key(|e| e.at_ns);
        for (seq, e) in events.iter_mut().enumerate() {
            e.seq = seq as u64;
        }
        FlightDump {
            schema_version: FLIGHT_SCHEMA_VERSION,
            switches: any.rings.len(),
            ports: any.nports,
            vls: any.nvls,
            frozen: recorders.iter().any(|r| r.frozen),
            overwritten_events,
            triggers: recorders.iter().flat_map(|r| r.triggers.clone()).collect(),
            events,
        }
    }
}

/// A complete, self-describing flight-recorder export.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDump {
    /// [`FLIGHT_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Fabric shape: number of switches…
    pub switches: usize,
    /// …ports per switch…
    pub ports: usize,
    /// …and data VLs per port.
    pub vls: usize,
    /// Whether a trigger froze the recorder before the run ended.
    pub frozen: bool,
    /// Ring-overwritten (lost) events across all rings.
    pub overwritten_events: u64,
    /// Every fired trigger.
    pub triggers: Vec<Trigger>,
    /// Surviving events, in sequence (canonical) order.
    pub events: Vec<StampedEvent>,
}

impl FlightDump {
    /// Serialize as JSON lines: one `header` line, one `trigger` line
    /// per trigger, one `event` line per event. Every line is a
    /// self-describing object with a `"kind"` member, so consumers can
    /// skip kinds they don't know.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Json::obj([
            ("kind", Json::from("header")),
            ("flight_schema_version", Json::from(self.schema_version)),
            ("switches", Json::from(self.switches)),
            ("ports", Json::from(self.ports)),
            ("vls", Json::from(self.vls)),
            ("frozen", Json::from(self.frozen)),
            ("overwritten_events", Json::from(self.overwritten_events)),
        ]);
        out.push_str(&header.to_string_compact());
        out.push('\n');
        for t in &self.triggers {
            let line = Json::obj([
                ("kind", Json::from("trigger")),
                ("at_ns", Json::from(t.at_ns)),
                ("cause", Json::from(t.cause.name())),
                ("sw", Json::from(t.sw.map(|s| u64::from(s.0)))),
                ("packet", Json::from(t.packet.map(|p| p.0))),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for e in &self.events {
            let mut line = Json::obj([("kind", "event")]);
            if let (Json::Obj(out_members), Json::Obj(ev_members)) = (&mut line, e.to_json()) {
                out_members.extend(ev_members);
            }
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Inverse of [`FlightDump::to_jsonl`]. Fails with a line-numbered
    /// message on malformed input or an unknown schema version; unknown
    /// line kinds are skipped (forward compatibility).
    pub fn from_jsonl(text: &str) -> Result<FlightDump, String> {
        let mut dump: Option<FlightDump> = None;
        for (ln, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing \"kind\"", ln + 1))?;
            match kind {
                "header" => {
                    let version = v
                        .get("flight_schema_version")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("line {}: header without version", ln + 1))?;
                    if version != u64::from(FLIGHT_SCHEMA_VERSION) {
                        return Err(format!(
                            "unsupported flight schema version {version} (this tool reads \
                             {FLIGHT_SCHEMA_VERSION})"
                        ));
                    }
                    let field = |k: &str| {
                        v.get(k)
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("line {}: header missing \"{k}\"", ln + 1))
                    };
                    dump = Some(FlightDump {
                        schema_version: version as u32,
                        switches: field("switches")? as usize,
                        ports: field("ports")? as usize,
                        vls: field("vls")? as usize,
                        frozen: v
                            .get("frozen")
                            .and_then(Json::as_bool)
                            .ok_or_else(|| format!("line {}: header missing \"frozen\"", ln + 1))?,
                        overwritten_events: field("overwritten_events")?,
                        triggers: Vec::new(),
                        events: Vec::new(),
                    });
                }
                "trigger" => {
                    let d = dump
                        .as_mut()
                        .ok_or_else(|| format!("line {}: trigger before header", ln + 1))?;
                    let cause = v
                        .get("cause")
                        .and_then(Json::as_str)
                        .and_then(TriggerCause::from_name)
                        .ok_or_else(|| format!("line {}: bad trigger cause", ln + 1))?;
                    d.triggers.push(Trigger {
                        at_ns: v
                            .get("at_ns")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| format!("line {}: trigger missing at_ns", ln + 1))?,
                        cause,
                        sw: match v.get("sw") {
                            Some(Json::Null) | None => None,
                            Some(s) => {
                                Some(SwitchId(
                                    u16::try_from(s.as_u64().ok_or_else(|| {
                                        format!("line {}: bad trigger sw", ln + 1)
                                    })?)
                                    .map_err(|_| format!("line {}: bad trigger sw", ln + 1))?,
                                ))
                            }
                        },
                        packet: match v.get("packet") {
                            Some(Json::Null) | None => None,
                            Some(p) => {
                                Some(PacketId(p.as_u64().ok_or_else(|| {
                                    format!("line {}: bad trigger packet", ln + 1)
                                })?))
                            }
                        },
                    });
                }
                "event" => {
                    let d = dump
                        .as_mut()
                        .ok_or_else(|| format!("line {}: event before header", ln + 1))?;
                    d.events.push(
                        StampedEvent::from_json(&v)
                            .ok_or_else(|| format!("line {}: malformed event", ln + 1))?,
                    );
                }
                _ => {} // unknown kinds are skipped
            }
        }
        dump.ok_or_else(|| "no header line found".into())
    }

    /// Packet `id`'s journey: every surviving event that names it, in
    /// sequence order.
    pub fn events_for_packet(&self, id: PacketId) -> Vec<&StampedEvent> {
        self.events
            .iter()
            .filter(|e| e.ev.packet() == Some(id))
            .collect()
    }
}

/// The watchdog's stall classification, factored out for unit testing.
///
/// Inputs describe the stalled head packet's *escape* path: the paper's
/// invariant is that escape queues always drain, so a stall is benign
/// exactly when the escape path still shows signs of life.
pub(crate) fn classify_stall(
    escape_link_up: bool,
    escape_streaming: bool,
    escape_credits_ok: bool,
    ns_since_escape_credit_return: Option<u64>,
    stall_after_ns: u64,
) -> StallClass {
    if !escape_link_up {
        // The escape path is severed: nothing guarantees draining.
        return StallClass::SuspectedWedge;
    }
    if escape_streaming || escape_credits_ok {
        // The escape output is moving bytes right now, or could accept
        // the packet at the next arbitration pass.
        return StallClass::EscapeDraining;
    }
    match ns_since_escape_credit_return {
        // Credits trickled back recently: the downstream escape buffer
        // is draining, just slower than the offered load.
        Some(ns) if ns < stall_after_ns => StallClass::EscapeDraining,
        // No credits, none returned for a whole stall window, link idle:
        // the escape path shows no sign of life.
        _ => StallClass::SuspectedWedge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{DropCause, HostId, VirtualLane};

    impl FlightRecorder {
        /// The rings as an exportable dump, in the canonical order of
        /// `FlightRecorder::merge`.
        pub(crate) fn dump(&self) -> FlightDump {
            FlightRecorder::merge(&[self], |_| 0)
        }
    }

    fn ev(n: u64) -> FlightEvent {
        FlightEvent::TailLeft {
            packet: PacketId(n),
            port: PortIndex(0),
            vl: VirtualLane(0),
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut rec = FlightRecorder::new(
            RecorderOpts {
                capacity_per_switch: 4,
                ..RecorderOpts::default()
            },
            1,
            2,
            1,
        );
        for i in 0..10 {
            rec.record(SwitchId(0), SimTime::from_ns(i), ev(i));
        }
        let dump = rec.dump();
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.overwritten_events, 6);
        // Oldest-first, and the oldest surviving entry is the one of
        // 6 ns; the survivors are numbered from 0.
        let stamps: Vec<(u64, u64)> = dump.events.iter().map(|e| (e.seq, e.at_ns)).collect();
        assert_eq!(stamps, [(0, 6), (1, 7), (2, 8), (3, 9)]);
    }

    #[test]
    fn trigger_freezes_recording() {
        let mut rec = FlightRecorder::new(RecorderOpts::default(), 1, 2, 1);
        rec.record(SwitchId(0), SimTime::from_ns(1), ev(1));
        rec.trigger(
            SimTime::from_ns(2),
            TriggerCause::Drop,
            Some(SwitchId(0)),
            Some(PacketId(1)),
        );
        rec.record(SwitchId(0), SimTime::from_ns(3), ev(2));
        let dump = rec.dump();
        assert!(dump.frozen);
        assert_eq!(dump.events.len(), 1, "post-trigger events must not record");
        assert_eq!(dump.triggers.len(), 1);
        assert_eq!(dump.triggers[0].cause, TriggerCause::Drop);
    }

    #[test]
    fn blocked_events_dedup_by_reason_set() {
        let mut rec = FlightRecorder::new(RecorderOpts::default(), 1, 2, 1);
        let refused = |verdict| -> OptionOutcomes {
            let port = PortIndex(1);
            std::iter::once(iba_core::OptionOutcome {
                port,
                escape: true,
                verdict,
            })
            .collect()
        };
        let mut opts = refused(iba_core::OptionVerdict::NoEscapeCredit);
        let mut said = 0;
        for _ in 0..5 {
            said += u32::from(rec.blocked_anew(SwitchId(0), 0, 0, PacketId(7), &opts));
        }
        assert_eq!(said, 1, "identical blocks dedup");
        // A different reason set logs again.
        opts = refused(iba_core::OptionVerdict::LinkBusy);
        assert!(rec.blocked_anew(SwitchId(0), 0, 0, PacketId(7), &opts));
        // Progress resets the dedup signature: the same reason logs anew.
        opts = refused(iba_core::OptionVerdict::NoEscapeCredit);
        assert!(rec.blocked_anew(SwitchId(0), 0, 0, PacketId(7), &opts));
        assert!(!rec.blocked_anew(SwitchId(0), 0, 0, PacketId(7), &opts));
        rec.note_progress(SwitchId(0), 0, 0, SimTime::from_ns(12));
        assert!(rec.blocked_anew(SwitchId(0), 0, 0, PacketId(7), &opts));
    }

    #[test]
    fn stall_classifier_matrix() {
        use StallClass::*;
        // Dead escape link: always a suspected wedge.
        assert_eq!(
            classify_stall(false, false, true, None, 1000),
            SuspectedWedge
        );
        // Streaming or credit-feasible escape: draining.
        assert_eq!(
            classify_stall(true, true, false, None, 1000),
            EscapeDraining
        );
        assert_eq!(
            classify_stall(true, false, true, None, 1000),
            EscapeDraining
        );
        // Idle, no credits, but a recent return: draining.
        assert_eq!(
            classify_stall(true, false, false, Some(999), 1000),
            EscapeDraining
        );
        // Idle, no credits, return too old or never seen: wedge.
        assert_eq!(
            classify_stall(true, false, false, Some(1000), 1000),
            SuspectedWedge
        );
        assert_eq!(
            classify_stall(true, false, false, None, 1000),
            SuspectedWedge
        );
    }

    #[test]
    fn stall_logging_is_once_per_class_per_episode() {
        let mut rec = FlightRecorder::new(RecorderOpts::default(), 1, 2, 1);
        assert!(rec.should_log_stall(SwitchId(0), 0, 0, StallClass::EscapeDraining));
        assert!(!rec.should_log_stall(SwitchId(0), 0, 0, StallClass::EscapeDraining));
        // Escalation to a new class logs again.
        assert!(rec.should_log_stall(SwitchId(0), 0, 0, StallClass::SuspectedWedge));
        assert!(!rec.should_log_stall(SwitchId(0), 0, 0, StallClass::SuspectedWedge));
        // Progress ends the episode.
        rec.note_progress(SwitchId(0), 0, 0, SimTime::from_ns(5));
        assert!(rec.should_log_stall(SwitchId(0), 0, 0, StallClass::SuspectedWedge));
    }

    #[test]
    fn dump_round_trips_through_jsonl() {
        let mut rec = FlightRecorder::new(RecorderOpts::default(), 2, 3, 2);
        rec.record(
            SwitchId(0),
            SimTime::from_ns(5),
            FlightEvent::Injected {
                packet: PacketId(1),
                host: HostId(0),
            },
        );
        rec.record(
            SwitchId(1),
            SimTime::from_ns(9),
            FlightEvent::Arrived {
                packet: PacketId(1),
                port: PortIndex(2),
                vl: VirtualLane(0),
            },
        );
        rec.record(
            SwitchId(1),
            SimTime::from_ns(40),
            FlightEvent::Dropped {
                packet: PacketId(1),
                cause: DropCause::LinkDown,
            },
        );
        rec.trigger(
            SimTime::from_ns(40),
            TriggerCause::Drop,
            Some(SwitchId(1)),
            Some(PacketId(1)),
        );
        let dump = rec.dump();
        let text = dump.to_jsonl();
        let back = FlightDump::from_jsonl(&text).expect("parse back");
        assert_eq!(back, dump);
        assert_eq!(back.events_for_packet(PacketId(1)).len(), 3);
    }

    #[test]
    fn jsonl_reader_rejects_garbage_and_wrong_versions() {
        assert!(FlightDump::from_jsonl("").is_err());
        assert!(FlightDump::from_jsonl("{\"kind\":\"event\"}").is_err());
        assert!(FlightDump::from_jsonl("not json").is_err());
        let wrong = r#"{"kind":"header","flight_schema_version":999,"switches":1,"ports":1,"vls":1,"frozen":false,"overwritten_events":0}"#;
        let err = FlightDump::from_jsonl(wrong).unwrap_err();
        assert!(err.contains("version"), "got: {err}");
    }
}
