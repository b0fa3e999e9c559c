//! The telemetry probe layer.
//!
//! [`crate::RunResult`] reports end-of-run aggregates; the paper's core
//! claims, though, live in *where packets wait* — how full the adaptive
//! and escape regions of each VL buffer are over time, how often an
//! output is skipped for lack of adaptive (`C_A`) or total credits, and
//! how long granted packets sat between routing-pipeline completion and
//! their crossbar grant. This module records exactly that transient
//! behavior:
//!
//! * **occupancy timeseries** — on a configurable simulated-time cadence
//!   ([`TelemetryOpts::sample_every_ns`]) the simulator snapshots every
//!   switch's per-VL buffer occupancy, split at the §4.4 adaptive/escape
//!   boundary and aggregated over input ports ([`VlOccupancy`]);
//! * **credit-stall counters** — each time a look of arbitration
//!   rejects a route option, the rejection is tallied per (switch,
//!   output port) under its cause ([`StallCause`]): adaptive share below
//!   the packet size, escape (total) credits below the packet size, or
//!   a dead port;
//! * **forwarding counters** — adaptive- vs escape-option grants per
//!   switch (the per-switch refinement of
//!   [`crate::RunResult::escape_fraction`]);
//! * **arbitration-wait histograms** — per switch, the simulated
//!   nanoseconds from a packet becoming arbitration-eligible
//!   (`ready_at`) to its crossbar grant, in power-of-two buckets.
//!
//! Each shard accumulates the switches it owns; at the end of every
//! drive the coordinator merges the shard states into one
//! [`MemorySink`] ([`crate::Network::telemetry_sink`]), whose samples
//! and report render as versioned JSON ([`TELEMETRY_SCHEMA_VERSION`])
//! through [`TelemetrySample::to_json`] / [`TelemetryReport::to_json`].
//! Sampling rides the ordinary event queue, so an instrumented run is
//! bit-identical across event-queue backends; with telemetry disabled
//! the simulator tallies nothing (one pointer test per transition, shared
//! with every other listener) and schedules no extra events.

use crate::buffer::VlBuffer;
use iba_core::{Credits, Json, OptionOutcome, OptionVerdict, SimTime, SwitchId, VirtualLane};
use iba_stats::LogHistogram;

/// Version stamp of the telemetry schema. Bump on any change to the
/// JSON layout emitted by [`TelemetrySample::to_json`] /
/// [`TelemetryReport::to_json`]. 1 → 2: `arb_wait_ns` renders as a
/// [`LogHistogram::to_json`] object (precision 0) instead of a list of
/// `[upper_bound, count]` pairs. 2 → 3, layout unchanged: stall tallies
/// stop scaling with the number of unrelated wake-ups a switch happened
/// to receive — a parked head is looked at again, and tallied again,
/// only once something its last look read has changed.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 3;

/// Telemetry configuration: what cadence to sample occupancy at and how
/// many samples to keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryOpts {
    /// Simulated-time distance between occupancy samples, in
    /// nanoseconds (clamped to ≥ 1 at use).
    pub sample_every_ns: u64,
    /// Occupancy samples delivered to the sink before further samples
    /// are dropped (counted in [`TelemetryReport::samples_dropped`]) —
    /// bounds memory and artifact size on long runs. Counters and
    /// histograms keep accumulating regardless.
    pub max_samples: usize,
}

impl TelemetryOpts {
    /// Sample every `sample_every_ns` simulated nanoseconds, with the
    /// default sample cap.
    pub fn every_ns(sample_every_ns: u64) -> TelemetryOpts {
        TelemetryOpts {
            sample_every_ns,
            ..TelemetryOpts::default()
        }
    }
}

impl Default for TelemetryOpts {
    /// 1 µs cadence (300 samples over the paper's 300 µs horizon),
    /// capped at 65 536 samples.
    fn default() -> TelemetryOpts {
        TelemetryOpts {
            sample_every_ns: 1_000,
            max_samples: 1 << 16,
        }
    }
}

/// Why arbitration skipped an output option for a routed, ready packet.
///
/// Link-busy skips are deliberately *not* a stall cause: a streaming
/// output is the link doing useful work, not starvation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// An adaptive option's free adaptive share (`C_A = max(0, C −
    /// C_max/2)`) was below the packet size.
    NoAdaptiveCredit,
    /// The escape option's total free credits were below the packet
    /// size.
    NoEscapeCredit,
    /// The option's port is masked out by a link fault.
    DeadPort,
}

impl StallCause {
    /// The cause behind an option's verdict, if the verdict is a stall.
    pub(crate) fn of(verdict: OptionVerdict) -> Option<StallCause> {
        match verdict {
            OptionVerdict::NoAdaptiveCredit => Some(StallCause::NoAdaptiveCredit),
            OptionVerdict::NoEscapeCredit => Some(StallCause::NoEscapeCredit),
            OptionVerdict::DeadPort => Some(StallCause::DeadPort),
            _ => None,
        }
    }

    /// Schema field name.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::NoAdaptiveCredit => "no_adaptive_credit",
            StallCause::NoEscapeCredit => "no_escape_credit",
            StallCause::DeadPort => "dead_port",
        }
    }
}

/// One switch's occupancy of one virtual lane at a sample instant,
/// aggregated over the switch's input ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VlOccupancy {
    /// The switch.
    pub sw: SwitchId,
    /// The virtual lane.
    pub vl: VirtualLane,
    /// Credits occupied in the adaptive region (first half), summed
    /// over the switch's input-port buffers of this VL.
    pub adaptive: Credits,
    /// Credits occupied in the escape region (second half), summed over
    /// the same buffers.
    pub escape: Credits,
    /// Largest single-buffer occupancy among those buffers — never
    /// exceeds `C_max` under correct flow control.
    pub peak: Credits,
}

impl VlOccupancy {
    /// Total occupied credits (adaptive + escape regions).
    pub fn total(&self) -> Credits {
        self.adaptive + self.escape
    }
}

/// One occupancy snapshot: every (switch, VL) at a sample instant.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// Simulated time of the snapshot.
    pub at: SimTime,
    /// One entry per (switch, VL), switches ascending, VLs ascending
    /// within a switch.
    pub occupancy: Vec<VlOccupancy>,
}

impl TelemetrySample {
    /// The JSON-lines rendering of this sample: time plus one
    /// `[sw, vl, adaptive, escape, peak]` tuple per entry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from("sample")),
            ("at_ns", Json::from(self.at.as_ns())),
            (
                "occupancy",
                Json::arr(self.occupancy.iter().map(|o| {
                    Json::arr([
                        Json::from(o.sw.0 as u64),
                        Json::from(o.vl.0 as u64),
                        Json::from(o.adaptive.count()),
                        Json::from(o.escape.count()),
                        Json::from(o.peak.count()),
                    ])
                })),
            ),
        ])
    }

    /// Summed adaptive-region occupancy across every (switch, VL).
    pub fn total_adaptive(&self) -> u64 {
        self.occupancy
            .iter()
            .map(|o| o.adaptive.count() as u64)
            .sum()
    }

    /// Summed escape-region occupancy across every (switch, VL).
    pub fn total_escape(&self) -> u64 {
        self.occupancy.iter().map(|o| o.escape.count() as u64).sum()
    }
}

/// Cause-tagged stall counters for one (switch, output port).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PortStalls {
    /// Adaptive options skipped for lack of adaptive-share credits.
    pub(crate) no_adaptive_credit: u64,
    /// Escape options skipped for lack of total credits.
    pub(crate) no_escape_credit: u64,
    /// Options skipped because the port's link is down.
    pub(crate) dead_port: u64,
}

impl PortStalls {
    #[inline]
    fn count(&mut self, cause: StallCause) {
        match cause {
            StallCause::NoAdaptiveCredit => self.no_adaptive_credit += 1,
            StallCause::NoEscapeCredit => self.no_escape_credit += 1,
            StallCause::DeadPort => self.dead_port += 1,
        }
    }

    /// Tally of one cause.
    pub(crate) fn by_cause(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::NoAdaptiveCredit => self.no_adaptive_credit,
            StallCause::NoEscapeCredit => self.no_escape_credit,
            StallCause::DeadPort => self.dead_port,
        }
    }
}

/// One switch's accumulated telemetry over a whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchTelemetry {
    /// The switch.
    pub sw: SwitchId,
    /// Crossbar grants through adaptive (minimal) options.
    pub adaptive_forwards: u64,
    /// Crossbar grants through the escape option.
    pub escape_forwards: u64,
    /// Stall counters per output port.
    pub(crate) stalls: Vec<PortStalls>,
    /// Ready-to-grant wait in simulated nanoseconds, over every grant
    /// this switch made, in octave buckets (precision 0).
    pub(crate) arb_wait_ns: LogHistogram,
}

impl SwitchTelemetry {
    pub(crate) fn new(sw: SwitchId, ports: usize) -> SwitchTelemetry {
        SwitchTelemetry {
            sw,
            adaptive_forwards: 0,
            escape_forwards: 0,
            stalls: vec![PortStalls::default(); ports],
            arb_wait_ns: LogHistogram::with_precision(0),
        }
    }

    /// Stalls of `cause` summed over this switch's ports.
    pub(crate) fn stalls_by_cause(&self, cause: StallCause) -> u64 {
        self.stalls.iter().map(|p| p.by_cause(cause)).sum()
    }

    /// Fold another accumulation of the *same* switch into this one —
    /// how the observer merge combines shard-local telemetry. Counters
    /// sum, per-port stalls sum positionally, histograms merge.
    pub(crate) fn absorb(&mut self, other: &SwitchTelemetry) {
        debug_assert_eq!(self.sw, other.sw);
        self.adaptive_forwards += other.adaptive_forwards;
        self.escape_forwards += other.escape_forwards;
        for (mine, theirs) in self.stalls.iter_mut().zip(other.stalls.iter()) {
            mine.no_adaptive_credit += theirs.no_adaptive_credit;
            mine.no_escape_credit += theirs.no_escape_credit;
            mine.dead_port += theirs.dead_port;
        }
        self.arb_wait_ns.merge(&other.arb_wait_ns);
    }
}

/// The end-of-run telemetry report: accumulated counters and
/// histograms, plus sampling bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The cadence the run sampled at, in nanoseconds.
    pub sample_every_ns: u64,
    /// Occupancy samples delivered to the sink.
    pub samples_taken: u64,
    /// Samples dropped after [`TelemetryOpts::max_samples`].
    pub samples_dropped: u64,
    /// Per-switch accumulations, switches ascending.
    pub switches: Vec<SwitchTelemetry>,
}

impl TelemetryReport {
    /// Stalls of `cause` summed over the whole fabric.
    pub fn total_stalls(&self, cause: StallCause) -> u64 {
        self.switches.iter().map(|s| s.stalls_by_cause(cause)).sum()
    }

    /// Fabric-wide arbitration-wait quantile (merged over switches).
    pub fn arb_wait_quantile(&self, q: f64) -> Option<u64> {
        let mut merged = LogHistogram::with_precision(0);
        for s in &self.switches {
            merged.merge(&s.arb_wait_ns);
        }
        merged.quantile(q)
    }

    /// Fabric-wide adaptive and escape grant totals.
    pub fn total_forwards(&self) -> (u64, u64) {
        self.switches.iter().fold((0, 0), |(a, e), s| {
            (a + s.adaptive_forwards, e + s.escape_forwards)
        })
    }

    /// The JSON rendering of the report (one line of a JSON-lines
    /// stream; also embeddable in larger result documents).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from("report")),
            ("schema_version", Json::from(self.schema_version)),
            ("sample_every_ns", Json::from(self.sample_every_ns)),
            ("samples_taken", Json::from(self.samples_taken)),
            ("samples_dropped", Json::from(self.samples_dropped)),
            (
                "switches",
                Json::arr(self.switches.iter().map(|s| {
                    Json::obj([
                        ("sw", Json::from(s.sw.0 as u64)),
                        ("adaptive_forwards", Json::from(s.adaptive_forwards)),
                        ("escape_forwards", Json::from(s.escape_forwards)),
                        (
                            "stalls",
                            Json::arr(s.stalls.iter().map(|p| {
                                Json::obj([
                                    ("no_adaptive_credit", Json::from(p.no_adaptive_credit)),
                                    ("no_escape_credit", Json::from(p.no_escape_credit)),
                                    ("dead_port", Json::from(p.dead_port)),
                                ])
                            })),
                        ),
                        ("arb_wait_ns", s.arb_wait_ns.to_json()),
                    ])
                })),
            ),
        ])
    }
}

/// A run's merged telemetry, kept in memory: every occupancy sample in
/// order plus the accumulated report, rebuilt from the shards at the
/// end of every drive.
#[derive(Debug)]
pub struct MemorySink {
    pub(crate) samples: Vec<TelemetrySample>,
    pub(crate) report: TelemetryReport,
}

impl MemorySink {
    /// Every sample taken, in order.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// The accumulated report as of the end of the last drive.
    pub fn report(&self) -> &TelemetryReport {
        &self.report
    }

    /// The observer merge of the shards' telemetry (one state per shard,
    /// at least one): splice the per-shard occupancy slices into
    /// fabric-wide samples in `(switch, VL)` order, and absorb the
    /// per-shard switch accumulations into one report. Everything is
    /// rebuilt from the shard states, which only ever grow, so the merge
    /// can follow every drive.
    pub(crate) fn merge(states: &[&TelemetryState]) -> MemorySink {
        let first = states[0];
        // Ticks are replicated, so sample `k` is the same instant in
        // every shard; a shard the event budget stopped inside its
        // window may be a tick short of the others.
        let n_samples = states.iter().map(|st| st.samples.len()).max();
        let samples: Vec<TelemetrySample> = (0..n_samples.unwrap_or(0))
            .map(|k| {
                let mut slices = states.iter().filter_map(|st| st.samples.get(k)).peekable();
                let at = slices.peek().expect("some shard took sample k").at;
                let mut occupancy: Vec<_> =
                    slices.flat_map(|s| s.occupancy.iter().copied()).collect();
                occupancy.sort_by_key(|o| (o.sw.0, o.vl.0));
                TelemetrySample { at, occupancy }
            })
            .collect();
        let switches = (first.switches.iter().enumerate())
            .map(|(s, any)| {
                let mut sw = SwitchTelemetry::new(any.sw, any.stalls.len());
                for st in states {
                    sw.absorb(&st.switches[s]);
                }
                sw
            })
            .collect();
        let report = TelemetryReport {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            sample_every_ns: first.cadence_ns(),
            samples_taken: samples.len() as u64,
            samples_dropped: first.samples_dropped,
            switches,
        };
        MemorySink { samples, report }
    }
}

/// The live telemetry state a shard carries when instrumented:
/// accumulation arrays pre-sized at construction so the hot-path tallies
/// are array indexing plus an increment, never an allocation.
pub(crate) struct TelemetryState {
    opts: TelemetryOpts,
    /// Snapshots of the switches this shard owns; the observer merge
    /// splices every shard's slices back together.
    samples: Vec<TelemetrySample>,
    samples_dropped: u64,
    switches: Vec<SwitchTelemetry>,
}

impl TelemetryState {
    pub(crate) fn new(opts: TelemetryOpts, num_switches: usize, ports: usize) -> TelemetryState {
        TelemetryState {
            opts,
            samples: Vec::new(),
            samples_dropped: 0,
            switches: (0..num_switches)
                .map(|s| SwitchTelemetry::new(SwitchId(s as u16), ports))
                .collect(),
        }
    }

    /// Sampling cadence in nanoseconds (≥ 1).
    #[inline]
    pub(crate) fn cadence_ns(&self) -> u64 {
        self.opts.sample_every_ns.max(1)
    }

    /// Tally the stalls among the option verdicts of one look at `sw`.
    pub(crate) fn note_verdicts<'o>(
        &mut self,
        sw: SwitchId,
        options: impl Iterator<Item = &'o OptionOutcome>,
    ) {
        for o in options {
            if let Some(cause) = StallCause::of(o.verdict) {
                self.switches[sw.index()].stalls[o.port.index()].count(cause);
            }
        }
    }

    #[inline]
    pub(crate) fn note_forward(&mut self, sw: SwitchId, via_escape: bool, wait_ns: u64) {
        let s = &mut self.switches[sw.index()];
        if via_escape {
            s.escape_forwards += 1;
        } else {
            s.adaptive_forwards += 1;
        }
        s.arb_wait_ns.record(wait_ns);
    }

    /// Keep one occupancy snapshot taken at `at`, or count it dropped
    /// past the cap (without looking at a buffer). `lanes` yields, for
    /// each switch the shard owns and each VL, that lane's buffer in
    /// every input port; the coordinator splices the shards' samples
    /// back together in switch order.
    pub(crate) fn record_sample<'b, B: Iterator<Item = &'b VlBuffer>>(
        &mut self,
        at: SimTime,
        lanes: impl Iterator<Item = (SwitchId, VirtualLane, B)>,
    ) {
        if self.samples.len() >= self.opts.max_samples {
            self.samples_dropped += 1;
            return;
        }
        let over_ports = |(sw, vl, buffers): (SwitchId, VirtualLane, B)| {
            let (mut adaptive, mut escape, mut peak) =
                (Credits::ZERO, Credits::ZERO, Credits::ZERO);
            for buf in buffers {
                let (a, e) = buf.region_occupancy();
                adaptive += a;
                escape += e;
                peak = peak.max(buf.occupied());
            }
            VlOccupancy {
                sw,
                vl,
                adaptive,
                escape,
                peak,
            }
        };
        let occupancy = lanes.map(over_ports).collect();
        self.samples.push(TelemetrySample { at, occupancy });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupancy(sw: u16, adaptive: u32, escape: u32) -> VlOccupancy {
        VlOccupancy {
            sw: SwitchId(sw),
            vl: VirtualLane(0),
            adaptive: Credits(adaptive),
            escape: Credits(escape),
            peak: Credits(adaptive + escape),
        }
    }

    #[test]
    fn sample_json_is_one_self_describing_object() {
        let s = TelemetrySample {
            at: SimTime::from_ns(500),
            occupancy: vec![occupancy(0, 3, 1)],
        };
        assert_eq!(
            s.to_json().to_string_compact(),
            r#"{"kind":"sample","at_ns":500,"occupancy":[[0,0,3,1,4]]}"#
        );
        assert_eq!(s.total_adaptive(), 3);
        assert_eq!(s.total_escape(), 1);
    }

    #[test]
    fn report_aggregates_over_switches() {
        let mut a = SwitchTelemetry::new(SwitchId(0), 2);
        a.adaptive_forwards = 10;
        a.escape_forwards = 2;
        a.stalls[0].no_adaptive_credit = 5;
        a.stalls[1].dead_port = 1;
        a.arb_wait_ns.record(100);
        let mut b = SwitchTelemetry::new(SwitchId(1), 2);
        b.escape_forwards = 3;
        b.stalls[0].no_escape_credit = 7;
        b.arb_wait_ns.record(1000);
        let report = TelemetryReport {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            sample_every_ns: 1000,
            samples_taken: 4,
            samples_dropped: 0,
            switches: vec![a, b],
        };
        assert_eq!(report.total_stalls(StallCause::NoAdaptiveCredit), 5);
        assert_eq!(report.total_stalls(StallCause::NoEscapeCredit), 7);
        assert_eq!(report.total_stalls(StallCause::DeadPort), 1);
        assert_eq!(report.total_forwards(), (10, 5));
        // Octave bucket [512, 1023], clamped to the exact maximum.
        assert_eq!(report.arb_wait_quantile(1.0), Some(1000));
        assert_eq!(report.arb_wait_quantile(0.5), Some(127));
        let json = report.to_json().to_string_compact();
        assert!(json.contains(r#""schema_version":3"#));
        assert!(json.contains(r#""no_escape_credit":7"#));
        assert!(json.contains(
            r#""arb_wait_ns":{"p":0,"count":1,"sum":1000,"min":1000,"max":1000,"buckets":[[10,1]]}"#
        ));
    }

    #[test]
    fn state_drops_samples_past_the_cap() {
        let buf = VlBuffer::new(Credits(8));
        let opts = TelemetryOpts {
            sample_every_ns: 10,
            max_samples: 2,
        };
        let mut st = TelemetryState::new(opts, 1, 1);
        for i in 0..4u64 {
            let lane = (SwitchId(0), VirtualLane(0), std::iter::once(&buf));
            st.record_sample(SimTime::from_ns(i * 10), std::iter::once(lane));
        }
        assert_eq!(st.samples.len(), 2);
        assert_eq!(st.samples_dropped, 2);
    }

    #[test]
    fn stall_cause_names_cover_all() {
        for c in [
            StallCause::NoAdaptiveCredit,
            StallCause::NoEscapeCredit,
            StallCause::DeadPort,
        ] {
            assert!(!c.name().is_empty());
        }
    }
}
