//! Simulation configuration.

use crate::buffer::EscapeOrderPolicy;
use iba_core::{Credits, IbaError, PhysParams, SimTime};
use iba_engine::QueueBackend;

/// How the switch picks among feasible routing options at arbitration
/// time (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Prefer the adaptive option whose downstream adaptive queue has the
    /// most free credits ("selecting the output port with more buffer
    /// space"); fall back to the escape option. The paper's evaluated
    /// configuration.
    CreditWeighted,
    /// Pick a pseudo-random feasible adaptive option (the "static
    /// selection" alternative of §4.3); fall back to escape.
    RandomAdaptive,
    /// Pick the lowest-numbered feasible adaptive option; fall back to
    /// escape. Cheapest hardware, worst balance — ablation baseline.
    FirstFeasible,
}

/// How the fabric reacts to link faults injected through an
/// [`iba_workloads::FaultSchedule`] (see DESIGN.md §8).
///
/// Under every policy a dead port is masked out of the feasible-option
/// sets at arbitration time, so no packet is *granted* onto a dead link;
/// the policies differ in what, if anything, repairs reachability for
/// destinations whose programmed routes crossed the dead link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// No reaction beyond the local masking. Packets whose every
    /// programmed option crosses a dead link stay buffered until the
    /// link returns (or the run ends).
    None,
    /// Automatic Path Migration: while any link is down, sources address
    /// the APM alternate path set (the second up\*/down\* orientation) so
    /// *new* traffic avoids the primary tree without SM involvement.
    /// Requires tables built with `FaRouting::build_with_apm`.
    ApmMigrate,
    /// Subnet-manager re-sweep: a configurable latency after each fault
    /// event, the SM installs routing rebuilt on the degraded topology
    /// (re-discovery plus LFT reprogramming, modelled as one
    /// deterministic delay) and already-buffered packets are re-routed
    /// against the new tables.
    SmResweep,
}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Physical-layer timing.
    pub phys: PhysParams,
    /// Number of data virtual lanes in use (the paper's evaluation keeps
    /// the adaptive/escape machinery inside a single VL).
    pub data_vls: u8,
    /// Capacity of each VL input buffer, in 64-byte credits (`C_max`).
    /// Each logical half must hold at least one MTU packet (§4.4).
    pub vl_buffer_credits: Credits,
    /// Routing-option selection policy.
    pub selection: SelectionPolicy,
    /// In-order guard flavour for the escape read point.
    pub escape_order: EscapeOrderPolicy,
    /// Whether a packet read from the escape head may still use adaptive
    /// options (the options are in its header either way). Disabling
    /// forces escape-head reads onto the escape path — ablation knob.
    pub adaptive_from_escape_head: bool,
    /// Warm-up period: packets generated before this time do not enter
    /// the latency statistics.
    pub warmup: SimTime,
    /// Measurement window length after warm-up. Accepted traffic is the
    /// bytes delivered inside the window divided by its length.
    pub measure_window: SimTime,
    /// Source-queue capacity per host: `None` models the paper's
    /// open-loop unbounded queues; `Some(n)` models a finite CA send
    /// queue — packets generated against a full queue are *dropped* and
    /// counted in [`crate::RunResult::source_drops`].
    pub host_queue_capacity: Option<usize>,
    /// Which priority-queue implementation drives the event loop. The
    /// result of a run is bit-identical across backends (both honour the
    /// `(time, insertion order)` contract); only wall-clock speed
    /// differs.
    pub queue_backend: QueueBackend,
    /// Hard event-count ceiling (guards runaway configurations).
    pub max_events: u64,
    /// Experiment seed (drives topology-independent randomness: arrival
    /// processes, destinations, marking, arbitration tie-breaks).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's configuration (§5.1) with a 1 KiB VL buffer
    /// (16 credits — each logical half holds one 256 B MTU packet with
    /// headroom; the paper does not state the size, see DESIGN.md).
    pub fn paper(seed: u64) -> SimConfig {
        SimConfig {
            phys: PhysParams::paper_1x(),
            data_vls: 1,
            vl_buffer_credits: Credits(16),
            selection: SelectionPolicy::CreditWeighted,
            escape_order: EscapeOrderPolicy::DeterministicFifo,
            adaptive_from_escape_head: true,
            host_queue_capacity: None,
            warmup: SimTime::from_us(60),
            measure_window: SimTime::from_us(240),
            queue_backend: QueueBackend::BinaryHeap,
            max_events: 400_000_000,
            seed,
        }
    }

    /// A small/fast configuration for unit and integration tests.
    pub fn test(seed: u64) -> SimConfig {
        SimConfig {
            warmup: SimTime::from_us(10),
            measure_window: SimTime::from_us(40),
            max_events: 20_000_000,
            ..SimConfig::paper(seed)
        }
    }

    /// End of the measurement window (the simulation horizon).
    pub fn horizon(&self) -> SimTime {
        self.warmup.plus_ns(self.measure_window.as_ns())
    }

    /// Validate the configuration against `max_packet_bytes` (the
    /// largest packet the workload will inject): physical timing, VL count, a non-empty
    /// measurement window, and a packet that fits the escape half and
    /// the MTU.
    pub(crate) fn validate(&self, max_packet_bytes: u32) -> Result<(), IbaError> {
        self.phys.validate()?;
        if self.data_vls == 0 || self.data_vls > 15 {
            return Err(IbaError::InvalidConfig(format!(
                "data VL count {} outside 1..=15",
                self.data_vls
            )));
        }
        if self.measure_window == SimTime::ZERO {
            return Err(IbaError::InvalidConfig("empty measurement window".into()));
        }
        // The escape queue owns the *floor* half of an odd capacity
        // (§4.4's `C_max/2` is integer division), so the packet
        // bound must be checked against that smaller half — an odd
        // capacity whose rounded-down escape half cannot hold one packet
        // would deadlock the escape drain.
        let escape_half = Credits(self.vl_buffer_credits.count() / 2);
        let pkt = Credits::for_bytes(max_packet_bytes);
        if pkt > escape_half {
            return Err(IbaError::InvalidConfig(format!(
                "each logical queue (escape half {escape_half}) must hold an entire \
                 packet ({pkt}); increase vl_buffer_credits or reduce the MTU (§4.4)"
            )));
        }
        if max_packet_bytes > self.phys.mtu_bytes {
            return Err(IbaError::InvalidConfig(format!(
                "packet size {} exceeds MTU {}",
                max_packet_bytes, self.phys.mtu_bytes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_for_paper_packet_sizes() {
        let c = SimConfig::paper(0);
        c.validate(32).unwrap();
        c.validate(256).unwrap();
    }

    #[test]
    fn rejects_packet_larger_than_half_buffer() {
        let mut c = SimConfig::paper(0);
        c.vl_buffer_credits = Credits(6); // half = 3 credits = 192 B
        assert!(c.validate(256).is_err());
        assert!(c.validate(192).is_ok());
    }

    #[test]
    fn odd_capacity_is_validated_against_the_escape_half() {
        // C_max = 7: the escape half is floor(7/2) = 3 credits = 192 B,
        // even though the adaptive half (4 credits) could hold 256 B.
        let mut c = SimConfig::paper(0);
        c.vl_buffer_credits = Credits(7);
        assert!(c.validate(256).is_err());
        assert!(c.validate(192).is_ok());
        // C_max = 9: escape half 4 credits = 256 B — one MTU fits exactly.
        c.vl_buffer_credits = Credits(9);
        assert!(c.validate(256).is_ok());
    }

    #[test]
    fn rejects_packet_larger_than_mtu() {
        let mut c = SimConfig::paper(0);
        c.vl_buffer_credits = Credits(64);
        assert!(c.validate(300).is_err()); // MTU is 256
        c.phys.mtu_bytes = 4096;
        assert!(c.validate(300).is_ok());
    }

    #[test]
    fn rejects_bad_vl_counts_and_empty_window() {
        let mut c = SimConfig::paper(0);
        c.data_vls = 0;
        assert!(c.validate(32).is_err());
        let mut c = SimConfig::paper(0);
        c.data_vls = 16;
        assert!(c.validate(32).is_err());
        let mut c = SimConfig::paper(0);
        c.measure_window = SimTime::ZERO;
        assert!(c.validate(32).is_err());
    }

    #[test]
    fn horizon_is_warmup_plus_window() {
        let c = SimConfig::paper(0);
        assert_eq!(c.horizon(), SimTime::from_us(300));
    }
}
