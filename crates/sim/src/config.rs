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

    /// A validating builder, starting from [`SimConfig::paper`]`(seed)`.
    /// Settings are checked at [`SimConfigBuilder::build`] time, so an
    /// inconsistent configuration fails where it is written rather than
    /// deep inside network construction.
    pub fn builder(seed: u64) -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::paper(seed),
        }
    }

    /// End of the measurement window (the simulation horizon).
    pub fn horizon(&self) -> SimTime {
        self.warmup.plus_ns(self.measure_window.as_ns())
    }

    /// Validate the workload-independent invariants: physical timing,
    /// VL count, non-empty measurement window. The packet-size
    /// cross-checks need the workload and live in [`Self::validate`].
    pub fn validate_self(&self) -> Result<(), IbaError> {
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
        Ok(())
    }

    /// Validate the configuration against `mtu` (the largest packet the
    /// workload will inject).
    pub fn validate(&self, max_packet_bytes: u32) -> Result<(), IbaError> {
        self.validate_self()?;
        // The escape queue owns the *floor* half of an odd capacity
        // (`Credits::escape_share` uses integer division), so the packet
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

/// A validating [`SimConfig`] builder (see [`SimConfig::builder`]).
///
/// Starts from the paper's configuration and overrides field by field;
/// [`Self::build`] runs [`SimConfig::validate_self`] so configuration
/// mistakes surface at construction. The workload-dependent checks
/// (packet vs escape half, MTU) still run when the network is
/// assembled, where the packet size is known.
#[derive(Clone, Copy, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Physical-layer timing.
    pub fn phys(mut self, phys: PhysParams) -> Self {
        self.cfg.phys = phys;
        self
    }

    /// Number of data virtual lanes (1..=15).
    pub fn data_vls(mut self, n: u8) -> Self {
        self.cfg.data_vls = n;
        self
    }

    /// Per-VL buffer capacity in credits (`C_max`).
    pub fn vl_buffer_credits(mut self, c: Credits) -> Self {
        self.cfg.vl_buffer_credits = c;
        self
    }

    /// Output-selection policy (§4.3).
    pub fn selection(mut self, p: SelectionPolicy) -> Self {
        self.cfg.selection = p;
        self
    }

    /// Escape read-point in-order guard flavour.
    pub fn escape_order(mut self, p: EscapeOrderPolicy) -> Self {
        self.cfg.escape_order = p;
        self
    }

    /// Whether escape-head reads may still use adaptive options.
    pub fn adaptive_from_escape_head(mut self, yes: bool) -> Self {
        self.cfg.adaptive_from_escape_head = yes;
        self
    }

    /// Warm-up period before measurement.
    pub fn warmup(mut self, t: SimTime) -> Self {
        self.cfg.warmup = t;
        self
    }

    /// Measurement-window length after warm-up.
    pub fn measure_window(mut self, t: SimTime) -> Self {
        self.cfg.measure_window = t;
        self
    }

    /// Source-queue capacity per host (`None` = unbounded open loop).
    pub fn host_queue_capacity(mut self, cap: Option<usize>) -> Self {
        self.cfg.host_queue_capacity = cap;
        self
    }

    /// Event-queue backend.
    pub fn queue_backend(mut self, b: QueueBackend) -> Self {
        self.cfg.queue_backend = b;
        self
    }

    /// Hard event-count ceiling.
    pub fn max_events(mut self, n: u64) -> Self {
        self.cfg.max_events = n;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SimConfig, IbaError> {
        self.cfg.validate_self()?;
        Ok(self.cfg)
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

    #[test]
    fn builder_starts_from_paper_and_overrides() {
        let c = SimConfig::builder(7)
            .data_vls(2)
            .vl_buffer_credits(Credits(32))
            .selection(SelectionPolicy::FirstFeasible)
            .max_events(1_000)
            .build()
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.data_vls, 2);
        assert_eq!(c.vl_buffer_credits, Credits(32));
        assert_eq!(c.selection, SelectionPolicy::FirstFeasible);
        assert_eq!(c.max_events, 1_000);
        // Untouched fields keep the paper values.
        assert_eq!(c.warmup, SimConfig::paper(7).warmup);
    }

    #[test]
    fn builder_rejects_invalid_configs_at_build_time() {
        assert!(SimConfig::builder(0).data_vls(0).build().is_err());
        assert!(SimConfig::builder(0).data_vls(16).build().is_err());
        assert!(SimConfig::builder(0)
            .measure_window(SimTime::ZERO)
            .build()
            .is_err());
        assert!(SimConfig::builder(0).build().is_ok());
    }
}
