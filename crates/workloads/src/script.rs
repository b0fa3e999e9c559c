//! Scripted (trace-driven) traffic.
//!
//! Besides the paper's synthetic distributions, real studies replay
//! application traces: an explicit list of `(time, source, destination,
//! size, adaptive?)` injections. [`TrafficScript`] holds such a trace,
//! and the simulator replays it exactly (`NetworkBuilder::script`),
//! which is how MPI communication patterns (the paper's §2 motivation:
//! "MPI-based parallel applications ... able to initiate many concurrent
//! non-blocking message transmissions") can be driven through the
//! fabric.

use iba_core::{HostId, IbaError, ServiceLevel, SimTime};

/// Which path set a scripted packet addresses (§4.1 APM coexistence).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PathSet {
    /// The ordinary FA group (lower LID half).
    #[default]
    Primary,
    /// The Automatic-Path-Migration alternate group (upper LID half);
    /// requires tables built with `FaRouting::build_with_apm`.
    Alternate,
}

/// One scripted packet injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedPacket {
    /// Generation time at the source host.
    pub at: SimTime,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Total size in bytes.
    pub size_bytes: u32,
    /// Whether the source marks the packet adaptive.
    pub adaptive: bool,
    /// Service level.
    pub sl: ServiceLevel,
    /// Primary or APM-alternate path set.
    pub path_set: PathSet,
}

/// An explicit injection trace, ordered by time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficScript {
    packets: Vec<ScriptedPacket>,
}

impl TrafficScript {
    /// Build from a list of injections (sorted by time internally; the
    /// relative order of same-instant entries is preserved).
    pub fn new(mut packets: Vec<ScriptedPacket>) -> Result<TrafficScript, IbaError> {
        for (i, p) in packets.iter().enumerate() {
            if p.src == p.dst {
                return Err(IbaError::InvalidConfig(format!(
                    "script entry {i}: source equals destination ({})",
                    p.src
                )));
            }
            if p.size_bytes == 0 {
                return Err(IbaError::InvalidConfig(format!(
                    "script entry {i}: zero-size packet"
                )));
            }
        }
        packets.sort_by_key(|p| p.at);
        Ok(TrafficScript { packets })
    }

    /// The injections, time-ordered.
    pub fn packets(&self) -> &[ScriptedPacket] {
        &self.packets
    }

    /// Number of injections.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Largest packet size (the value the buffer validation needs).
    pub fn max_packet_bytes(&self) -> u32 {
        self.packets.iter().map(|p| p.size_bytes).max().unwrap_or(0)
    }

    /// Whether any entry requests adaptive routing.
    pub fn uses_adaptive(&self) -> bool {
        self.packets.iter().any(|p| p.adaptive)
    }

    /// Whether any entry addresses the APM alternate path set.
    pub fn uses_alternate(&self) -> bool {
        self.packets
            .iter()
            .any(|p| p.path_set == PathSet::Alternate)
    }

    /// The service levels used by each path set (primary, alternate) —
    /// the simulator checks these map to disjoint VLs when both sets are
    /// present (the two escape orientations must not share lanes).
    pub fn sls_by_path_set(&self) -> (Vec<ServiceLevel>, Vec<ServiceLevel>) {
        let mut primary = Vec::new();
        let mut alternate = Vec::new();
        for p in &self.packets {
            let list = match p.path_set {
                PathSet::Primary => &mut primary,
                PathSet::Alternate => &mut alternate,
            };
            if !list.contains(&p.sl) {
                list.push(p.sl);
            }
        }
        (primary, alternate)
    }

    /// Largest host id referenced (for population validation).
    pub fn max_host(&self) -> Option<HostId> {
        self.packets.iter().flat_map(|p| [p.src, p.dst]).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(at: u64, src: u16, dst: u16) -> ScriptedPacket {
        ScriptedPacket {
            at: SimTime::from_ns(at),
            src: HostId(src),
            dst: HostId(dst),
            size_bytes: 32,
            adaptive: true,
            sl: ServiceLevel(0),
            path_set: PathSet::Primary,
        }
    }

    #[test]
    fn new_sorts_and_validates() {
        let s = TrafficScript::new(vec![pkt(300, 0, 1), pkt(100, 1, 2), pkt(200, 2, 0)]).unwrap();
        let times: Vec<u64> = s.packets().iter().map(|p| p.at.as_ns()).collect();
        assert_eq!(times, vec![100, 200, 300]);
        assert_eq!(s.max_host(), Some(HostId(2)));
        assert!(s.uses_adaptive());
        assert_eq!(s.max_packet_bytes(), 32);
        assert!(TrafficScript::new(vec![pkt(1, 3, 3)]).is_err());
        let mut zero = pkt(1, 0, 1);
        zero.size_bytes = 0;
        assert!(TrafficScript::new(vec![zero]).is_err());
    }

    #[test]
    fn empty_script() {
        let s = TrafficScript::new(vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.max_host(), None);
        assert_eq!(s.max_packet_bytes(), 0);
        assert!(!s.uses_adaptive());
    }
}
