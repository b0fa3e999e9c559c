//! Packets.
//!
//! The simulator works at packet granularity (virtual cut-through forwards
//! a packet as one unit once its header has been routed and the downstream
//! buffer can hold the *whole* packet). A [`Packet`] carries exactly the
//! header fields the paper's mechanism reads — the DLID (whose low bit
//! selects deterministic vs adaptive routing), the SL, and the size — plus
//! bookkeeping used for statistics.

use crate::ids::HostId;
use crate::lid::Lid;
use crate::time::SimTime;
use crate::vl::ServiceLevel;
use crate::Credits;
use std::fmt;

/// Globally unique packet identifier (injection order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl PacketId {
    /// A cheap deterministic hash of the id (splitmix64 finalizer).
    ///
    /// Ids are assigned in generation order, so their raw value is
    /// correlated with source and stream; anything sampling "every Nth
    /// packet" off the raw id inherits that stripe pattern. Mixing
    /// through this first decorrelates selection from generation order
    /// while staying reproducible across runs, platforms and event-queue
    /// backends.
    #[inline]
    pub fn stable_hash(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// How the source asked the fabric to route this packet (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingMode {
    /// Only the escape/up\*/down\* option is returned at each switch;
    /// in-order delivery is guaranteed.
    Deterministic,
    /// All routing options are returned at each switch; the packet may be
    /// delivered out of order.
    Adaptive,
}

/// A packet in flight.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Unique id, assigned at generation.
    pub id: PacketId,
    /// Generating host.
    pub src: HostId,
    /// Destination host (the physical port the DLID's range belongs to).
    pub dst: HostId,
    /// Destination LID actually written in the header; its low bit encodes
    /// the routing mode.
    pub dlid: Lid,
    /// Service level.
    pub sl: ServiceLevel,
    /// Total size in bytes (headers included; the paper's 32 B and 256 B
    /// figures are total packet sizes).
    pub size_bytes: u32,
    /// Time the packet was generated at the source host (latency is
    /// measured from here, per the paper's footnote 4).
    pub generated_at: SimTime,
    /// Per-source FIFO sequence number, used to check in-order delivery of
    /// deterministic traffic.
    pub seq: u64,
    /// Number of switch hops taken so far (updated by the simulator).
    pub hops: u32,
    /// Number of times the packet used an escape queue (statistics).
    pub escape_uses: u32,
}

impl Packet {
    /// The routing mode the DLID encodes.
    #[inline]
    pub fn mode(&self) -> RoutingMode {
        if self.dlid.requests_adaptive() {
            RoutingMode::Adaptive
        } else {
            RoutingMode::Deterministic
        }
    }

    /// Buffer space the packet occupies, in whole credits.
    #[inline]
    pub fn credits(&self) -> Credits {
        Credits::for_bytes(self.size_bytes)
    }
}

impl fmt::Debug for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lid::LidMap;

    fn mk(dlid: Lid, size: u32) -> Packet {
        Packet {
            id: PacketId(0),
            src: HostId(0),
            dst: HostId(1),
            dlid,
            sl: ServiceLevel(0),
            size_bytes: size,
            generated_at: SimTime::ZERO,
            seq: 0,
            hops: 0,
            escape_uses: 0,
        }
    }

    #[test]
    fn mode_follows_dlid_lsb() {
        let map = LidMap::for_options(4, 2).unwrap();
        let det = mk(map.dlid(HostId(1), false).unwrap(), 32);
        let ada = mk(map.dlid(HostId(1), true).unwrap(), 32);
        assert_eq!(det.mode(), RoutingMode::Deterministic);
        assert_eq!(ada.mode(), RoutingMode::Adaptive);
    }

    #[test]
    fn stable_hash_is_deterministic_and_decorrelated() {
        // Fixed values: the hash is part of the reproducibility contract
        // (trace sampling must pick the same packets forever).
        assert_eq!(PacketId(0).stable_hash(), PacketId(0).stable_hash());
        assert_ne!(PacketId(0).stable_hash(), PacketId(1).stable_hash());
        // Consecutive ids must not stay consecutive mod small divisors:
        // count how many of 1000 sequential ids land on residue 0 mod 8.
        // Raw ids would give exactly 125; the hash should stay near that
        // but, crucially, ids striped by source (every 8th) should not
        // all collapse onto one residue.
        let striped_hits = (0..1000)
            .map(|i| PacketId(i * 8))
            .filter(|id| id.stable_hash() % 8 == 0)
            .count();
        assert!(
            (60..200).contains(&striped_hits),
            "striped ids should spread across residues, got {striped_hits}/1000"
        );
    }

    #[test]
    fn credit_footprint() {
        let map = LidMap::for_options(4, 2).unwrap();
        let lid = map.dlid(HostId(1), false).unwrap();
        assert_eq!(mk(lid, 32).credits(), Credits(1));
        assert_eq!(mk(lid, 256).credits(), Credits(4));
        assert_eq!(mk(lid, 257).credits(), Credits(5));
    }
}
