//! Per-packet journey tracing.
//!
//! A [`Tracer`] records the life of selected packets — generation,
//! injection, every switch hop with the read point and option class
//! used, and delivery — so tests and tools can inspect *how* a packet
//! crossed the fabric (did it detour through escape queues? how long did
//! it sit in each buffer?). Tracing is sampled (1-in-`n` packets) to
//! stay cheap, and capped so saturated runs cannot blow up memory.
//!
//! Sampling selects by [`PacketId::stable_hash`], not by raw id: ids are
//! assigned in generation order, so `id % n` would stripe the sample
//! across sources and streams (with per-source round-robin generation,
//! "every 64th id" can mean "only packets from one host"). The hash
//! decorrelates selection from generation order while staying fully
//! deterministic.

use iba_core::{DropCause, HostId, PacketId, PortIndex, SimTime, SwitchId, VirtualLane};
use std::collections::HashMap;

/// One step of a packet's journey.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceStep {
    /// Generated at the source host.
    Generated {
        /// Source host.
        host: HostId,
    },
    /// Left the source queue onto the injection link.
    Injected,
    /// Header reached a switch input buffer.
    ArrivedAt {
        /// The switch.
        sw: SwitchId,
        /// Input port.
        port: PortIndex,
        /// Virtual lane.
        vl: VirtualLane,
    },
    /// Forwarded through the crossbar.
    Forwarded {
        /// The switch.
        sw: SwitchId,
        /// Selected output port.
        out_port: PortIndex,
        /// Whether the escape option was used (vs an adaptive option).
        via_escape: bool,
        /// Whether the packet was read from the escape read point.
        from_escape_head: bool,
    },
    /// Tail delivered at the destination host.
    Delivered {
        /// Destination host.
        host: HostId,
    },
    /// Lost in transit: the link went down while the packet was on the
    /// wire towards this switch.
    Dropped {
        /// The switch whose (now dead) input port the packet was
        /// heading for.
        sw: SwitchId,
        /// Why the packet died (same vocabulary as the run statistics
        /// and the flight recorder).
        cause: DropCause,
    },
}

/// A recorded journey.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PacketTrace {
    /// Timestamped steps, in order.
    pub steps: Vec<(SimTime, TraceStep)>,
}

impl PacketTrace {
    /// Number of switch hops recorded.
    pub fn hops(&self) -> usize {
        self.steps
            .iter()
            .filter(|(_, s)| matches!(s, TraceStep::Forwarded { .. }))
            .count()
    }

    /// Number of escape-option forwards.
    pub fn escape_hops(&self) -> usize {
        self.steps
            .iter()
            .filter(|(_, s)| {
                matches!(
                    s,
                    TraceStep::Forwarded {
                        via_escape: true,
                        ..
                    }
                )
            })
            .count()
    }

    /// Whether the journey completed (ends with a delivery).
    pub fn completed(&self) -> bool {
        matches!(self.steps.last(), Some((_, TraceStep::Delivered { .. })))
    }

    /// End-to-end latency, if completed.
    pub fn latency_ns(&self) -> Option<u64> {
        match (self.steps.first(), self.steps.last()) {
            (
                Some((start, TraceStep::Generated { .. })),
                Some((end, TraceStep::Delivered { .. })),
            ) => Some(end.since(*start)),
            _ => None,
        }
    }

    /// One-line-per-step human rendering.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (at, step) in &self.steps {
            let line = match step {
                TraceStep::Generated { host } => format!("{at:>12}  generated at {host}"),
                TraceStep::Injected => format!("{at:>12}  injected"),
                TraceStep::ArrivedAt { sw, port, vl } => {
                    format!("{at:>12}  header at {sw} {port} {vl}")
                }
                TraceStep::Forwarded {
                    sw,
                    out_port,
                    via_escape,
                    from_escape_head,
                } => format!(
                    "{at:>12}  {sw} → {out_port} via {}{}",
                    if *via_escape {
                        "ESCAPE option"
                    } else {
                        "adaptive option"
                    },
                    if *from_escape_head {
                        " (escape read point)"
                    } else {
                        ""
                    },
                ),
                TraceStep::Delivered { host } => format!("{at:>12}  delivered at {host}"),
                TraceStep::Dropped { sw, cause } => match cause {
                    DropCause::LinkDown => {
                        format!("{at:>12}  DROPPED on the dead link into {sw}")
                    }
                    DropCause::SwitchDown => {
                        format!("{at:>12}  DROPPED at dead switch {sw}")
                    }
                    DropCause::Corrupted => {
                        format!("{at:>12}  DROPPED at {sw}: CRC failure")
                    }
                    DropCause::SourceQueueFull => {
                        format!("{at:>12}  DROPPED before {sw}: source queue full")
                    }
                },
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Journey-tracing configuration, as accepted by
/// `NetworkBuilder::trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOpts {
    /// Trace every `sample_every`-th packet, by packet id (clamped to
    /// ≥ 1 at use).
    pub sample_every: u64,
    /// Keep at most this many journeys (saturated runs cannot blow up
    /// memory).
    pub max_packets: usize,
}

impl TraceOpts {
    /// Trace every packet, up to `max_packets` journeys.
    pub fn all(max_packets: usize) -> TraceOpts {
        TraceOpts {
            sample_every: 1,
            max_packets,
        }
    }

    /// Trace every `sample_every`-th packet, up to `max_packets`
    /// journeys.
    pub fn sampled(sample_every: u64, max_packets: usize) -> TraceOpts {
        TraceOpts {
            sample_every,
            max_packets,
        }
    }
}

impl Default for TraceOpts {
    /// Every 64th packet, at most 4096 journeys.
    fn default() -> TraceOpts {
        TraceOpts {
            sample_every: 64,
            max_packets: 4096,
        }
    }
}

/// The sampling trace recorder.
#[derive(Debug)]
pub struct Tracer {
    sample_every: u64,
    max_packets: usize,
    traces: HashMap<PacketId, PacketTrace>,
}

impl Tracer {
    /// A recorder honouring `opts`.
    pub fn with_opts(opts: TraceOpts) -> Tracer {
        Tracer {
            sample_every: opts.sample_every.max(1),
            max_packets: opts.max_packets,
            traces: HashMap::new(),
        }
    }

    /// Trace every `sample_every`-th packet (by id), keeping at most
    /// `max_packets` journeys.
    pub fn sampled(sample_every: u64, max_packets: usize) -> Tracer {
        Tracer::with_opts(TraceOpts::sampled(sample_every, max_packets))
    }

    /// Whether `id` is (or would be) traced.
    ///
    /// Selection hashes the id first ([`PacketId::stable_hash`]) so the
    /// 1-in-`n` sample is spread across sources and streams instead of
    /// striding raw generation order; `sample_every == 1` still means
    /// "every packet". The cap admits the first `max_packets` distinct
    /// sampled packets and keeps recording those afterwards.
    pub fn wants(&self, id: PacketId) -> bool {
        id.stable_hash().is_multiple_of(self.sample_every)
            && (self.traces.contains_key(&id) || self.traces.len() < self.max_packets)
    }

    /// Record a step for `id` (no-op unless sampled).
    pub fn record(&mut self, id: PacketId, at: SimTime, step: TraceStep) {
        if self.wants(id) {
            self.traces.entry(id).or_default().steps.push((at, step));
        }
    }

    /// Install a fully assembled journey, bypassing sampling and the
    /// cap — the observer merge unions shard-local tracers with this
    /// (each shard already applied the sampling rule, and the union of
    /// shard admissions may exceed a single tracer's cap mid-merge).
    pub(crate) fn insert(&mut self, id: PacketId, trace: PacketTrace) {
        self.traces.insert(id, trace);
    }

    /// All recorded journeys.
    pub fn traces(&self) -> &HashMap<PacketId, PacketTrace> {
        &self.traces
    }

    /// A specific journey.
    pub fn trace(&self, id: PacketId) -> Option<&PacketTrace> {
        self.traces.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn sampling_and_cap() {
        let mut tr = Tracer::sampled(10, 2);
        // Selection is by hashed id; derive sampled/unsampled ids with
        // the same rule the tracer applies.
        let sampled: Vec<PacketId> = (0..1000)
            .map(PacketId)
            .filter(|id| id.stable_hash().is_multiple_of(10))
            .collect();
        let skipped = (0..1000)
            .map(PacketId)
            .find(|id| !id.stable_hash().is_multiple_of(10))
            .unwrap();
        assert!(sampled.len() >= 3, "expected ~100 sampled ids in 1000");
        assert!(tr.wants(sampled[0]));
        assert!(!tr.wants(skipped));
        tr.record(sampled[0], t(1), TraceStep::Injected);
        tr.record(sampled[1], t(2), TraceStep::Injected);
        // Cap reached: a third distinct packet is not admitted...
        assert!(!tr.wants(sampled[2]));
        tr.record(sampled[2], t(3), TraceStep::Injected);
        assert_eq!(tr.traces().len(), 2);
        // ...but already-admitted packets keep recording.
        tr.record(sampled[0], t(4), TraceStep::Delivered { host: HostId(1) });
        assert_eq!(tr.trace(sampled[0]).unwrap().steps.len(), 2);
    }

    #[test]
    fn sampling_is_not_striped_by_source() {
        // With k sources generating round-robin, packets from source s
        // have ids ≡ s (mod k). Raw `id % n` sampling with n a multiple
        // of k would trace only source 0's packets; hash selection must
        // reach every source stripe.
        let tr = Tracer::sampled(8, usize::MAX);
        let mut sources_hit = [false; 8];
        let mut picked = 0usize;
        for id in 0..4000u64 {
            if tr.wants(PacketId(id)) {
                sources_hit[(id % 8) as usize] = true;
                picked += 1;
            }
        }
        assert!(
            sources_hit.iter().all(|&h| h),
            "hash sampling should reach every source stripe: {sources_hit:?}"
        );
        // Density stays roughly 1-in-8 (loose 3x bounds).
        assert!((166..1500).contains(&picked), "picked {picked} of 4000");
    }

    #[test]
    fn journey_metrics() {
        let mut trace = PacketTrace::default();
        trace
            .steps
            .push((t(100), TraceStep::Generated { host: HostId(0) }));
        trace.steps.push((t(150), TraceStep::Injected));
        trace.steps.push((
            t(250),
            TraceStep::ArrivedAt {
                sw: SwitchId(1),
                port: PortIndex(4),
                vl: VirtualLane(0),
            },
        ));
        trace.steps.push((
            t(350),
            TraceStep::Forwarded {
                sw: SwitchId(1),
                out_port: PortIndex(2),
                via_escape: true,
                from_escape_head: false,
            },
        ));
        trace
            .steps
            .push((t(800), TraceStep::Delivered { host: HostId(5) }));
        assert!(trace.completed());
        assert_eq!(trace.hops(), 1);
        assert_eq!(trace.escape_hops(), 1);
        assert_eq!(trace.latency_ns(), Some(700));
        let text = trace.describe();
        assert!(text.contains("ESCAPE option"));
        assert!(text.contains("delivered at h5"));
    }

    #[test]
    fn incomplete_journey_has_no_latency() {
        let mut trace = PacketTrace::default();
        trace
            .steps
            .push((t(1), TraceStep::Generated { host: HostId(0) }));
        assert!(!trace.completed());
        assert_eq!(trace.latency_ns(), None);
    }
}
