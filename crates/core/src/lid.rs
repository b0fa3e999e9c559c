//! IBA local identifiers (LIDs) and the LMC virtual-addressing scheme.
//!
//! This module implements the addressing trick at the heart of the paper
//! (§4.1–4.2). IBA lets the subnet manager assign each channel-adapter port
//! a *range* of `2^LMC` consecutive LIDs rather than a single one: the port
//! masks the `LMC` least-significant bits when checking whether a packet is
//! addressed to it, while switches do *not* mask them and therefore treat
//! every address in the range as a distinct destination with its own
//! forwarding-table entry.
//!
//! The paper repurposes that range to store *routing options*:
//!
//! * address `d` (offset 0) holds the **deterministic / escape** option
//!   (the up\*/down\* next hop);
//! * addresses `d+1 .. d+x-1` hold up to `x-1` **adaptive** (minimal)
//!   options.
//!
//! A source enables adaptive routing for one packet simply by writing
//! `d+1` instead of `d` into the packet's DLID: switches inspect only the
//! least-significant bit of the DLID to decide whether to return one option
//! or all of them (§4.2).
//!
//! [`LidMap`] owns the assignment of aligned LID ranges to hosts and the
//! conversions between `Lid` and `(HostId, offset)`.

use crate::error::IbaError;
use crate::ids::HostId;
use std::fmt;

/// A 16-bit IBA local identifier.
///
/// LID 0 is reserved in IBA (and never assigned by [`LidMap`]); 0xFFFF is
/// the permissive LID. This reproduction only uses unicast LIDs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lid(pub u16);

/// LID Mask Control: the number of low bits of the LID a CA port ignores.
///
/// A port with LMC `m` owns `2^m` consecutive, `2^m`-aligned LIDs. IBA
/// caps the LMC at 7 (128 addresses per port).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lmc(u8);

impl Lid {
    /// The raw 16-bit value.
    #[inline]
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Whether the least-significant bit is set — the single bit a switch
    /// inspects to decide between deterministic and adaptive routing
    /// (§4.2). Offset 0 (LSB clear, given aligned ranges with LMC ≥ 1)
    /// requests deterministic routing; any other offset requests adaptive
    /// routing.
    #[inline]
    pub fn requests_adaptive(self) -> bool {
        self.0 & 1 == 1
    }
}

impl fmt::Debug for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lid{}", self.0)
    }
}

impl fmt::Display for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lid{}", self.0)
    }
}

impl Lmc {
    /// Maximum LMC value allowed by the IBA specification.
    pub(crate) const MAX: u8 = 7;

    /// Create an LMC, validating the IBA bound.
    pub(crate) fn new(bits: u8) -> Result<Self, IbaError> {
        if bits > Self::MAX {
            Err(IbaError::InvalidLmc(bits))
        } else {
            Ok(Lmc(bits))
        }
    }

    /// The number of masked low bits.
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Number of consecutive addresses each destination port owns
    /// (`2^LMC`). This equals the number of routing options the paper's
    /// mechanism can store per destination.
    #[inline]
    pub fn addresses_per_port(self) -> u16 {
        1 << self.0
    }

    /// Smallest LMC able to hold `options` routing options per port.
    ///
    /// `options` counts table addresses: 1 escape + (options − 1) adaptive.
    pub(crate) fn for_options(options: u16) -> Result<Self, IbaError> {
        if options == 0 || options > 128 {
            return Err(IbaError::InvalidOptionCount(options));
        }
        let bits = (options as u32).next_power_of_two().trailing_zeros() as u8;
        Lmc::new(bits)
    }
}

/// Assignment of aligned LID ranges to every host of a subnet.
///
/// Host `i` owns the range `[(i + 1) << lmc, ((i + 2) << lmc) - 1]`: ranges
/// are `2^lmc`-aligned (so the interleaved forwarding table can select a
/// module with the low DLID bits) and LID 0 stays reserved.
#[derive(Clone, Debug)]
pub struct LidMap {
    lmc: Lmc,
    num_hosts: u16,
}

impl LidMap {
    /// Build the map for `num_hosts` hosts with the given LMC.
    ///
    /// Fails if the address space would overflow 16 bits.
    pub(crate) fn new(num_hosts: u16, lmc: Lmc) -> Result<Self, IbaError> {
        let span = (num_hosts as u32 + 1)
            .checked_shl(lmc.bits() as u32)
            .ok_or(IbaError::LidSpaceExhausted)?;
        if span > u16::MAX as u32 {
            return Err(IbaError::LidSpaceExhausted);
        }
        Ok(LidMap { lmc, num_hosts })
    }

    /// Convenience constructor sized for `options` routing options per
    /// destination.
    pub fn for_options(num_hosts: u16, options: u16) -> Result<Self, IbaError> {
        LidMap::new(num_hosts, Lmc::for_options(options)?)
    }

    /// The LMC in force.
    #[inline]
    pub fn lmc(&self) -> Lmc {
        self.lmc
    }

    /// Number of hosts covered.
    #[inline]
    pub fn num_hosts(&self) -> u16 {
        self.num_hosts
    }

    /// First LID of `host`'s range: the *deterministic* address `d`.
    #[inline]
    pub fn base_lid(&self, host: HostId) -> Lid {
        Lid((host.0 + 1) << self.lmc.bits())
    }

    /// LID for routing-option address `d + offset` of `host`.
    ///
    /// Offset 0 is the deterministic/escape address; offsets ≥ 1 are
    /// adaptive addresses.
    pub fn lid_for(&self, host: HostId, offset: u16) -> Result<Lid, IbaError> {
        if offset >= self.lmc.addresses_per_port() {
            return Err(IbaError::OffsetOutOfRange {
                offset,
                max: self.lmc.addresses_per_port(),
            });
        }
        Ok(Lid(self.base_lid(host).0 + offset))
    }

    /// The canonical DLID a source writes into a packet header for `host`:
    /// `d` when requesting deterministic routing, `d + 1` when requesting
    /// adaptive routing (§4.2 — "regardless of the number of provided
    /// routing options").
    pub fn dlid(&self, host: HostId, adaptive: bool) -> Result<Lid, IbaError> {
        if adaptive && self.lmc.bits() == 0 {
            return Err(IbaError::AdaptiveNeedsLmc);
        }
        self.lid_for(host, adaptive as u16)
    }

    /// Decode a LID into the host that owns it, applying the port-side
    /// mask: a CA port accepts every address in its range.
    pub fn host_of(&self, lid: Lid) -> Result<HostId, IbaError> {
        let group = lid.0 >> self.lmc.bits();
        if group == 0 || group > self.num_hosts {
            return Err(IbaError::UnknownLid(lid.0));
        }
        Ok(HostId(group - 1))
    }

    /// The offset of a LID within its owner's range (0 = deterministic
    /// address).
    pub fn offset_of(&self, lid: Lid) -> Result<u16, IbaError> {
        self.host_of(lid)?;
        Ok(lid.0 & (self.lmc.addresses_per_port() - 1))
    }

    /// Total number of forwarding-table entries needed to cover every
    /// assigned LID (i.e. one past the last assigned LID).
    #[inline]
    pub fn table_len(&self) -> usize {
        ((self.num_hosts as usize + 2) << self.lmc.bits() as usize).min(u16::MAX as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lmc_bounds() {
        assert!(Lmc::new(0).is_ok());
        assert!(Lmc::new(7).is_ok());
        assert!(Lmc::new(8).is_err());
    }

    #[test]
    fn lmc_for_options_rounds_up_to_power_of_two() {
        assert_eq!(Lmc::for_options(1).unwrap().bits(), 0);
        assert_eq!(Lmc::for_options(2).unwrap().bits(), 1);
        assert_eq!(Lmc::for_options(3).unwrap().bits(), 2);
        assert_eq!(Lmc::for_options(4).unwrap().bits(), 2);
        assert_eq!(Lmc::for_options(5).unwrap().bits(), 3);
        assert_eq!(Lmc::for_options(128).unwrap().bits(), 7);
        assert!(Lmc::for_options(0).is_err());
        assert!(Lmc::for_options(129).is_err());
    }

    #[test]
    fn base_lids_are_aligned_and_nonzero() {
        let map = LidMap::for_options(32, 4).unwrap();
        for h in (0..map.num_hosts).map(HostId) {
            let base = map.base_lid(h);
            assert_ne!(base.0, 0);
            assert_eq!(base.0 % map.lmc().addresses_per_port(), 0);
        }
    }

    #[test]
    fn deterministic_address_has_lsb_clear_adaptive_set() {
        let map = LidMap::for_options(8, 2).unwrap();
        for h in (0..map.num_hosts).map(HostId) {
            let det = map.dlid(h, false).unwrap();
            let ada = map.dlid(h, true).unwrap();
            assert!(!det.requests_adaptive());
            assert!(ada.requests_adaptive());
            assert_eq!(ada.0, det.0 + 1);
        }
    }

    #[test]
    fn adaptive_requires_nonzero_lmc() {
        let map = LidMap::for_options(8, 1).unwrap();
        assert!(map.dlid(HostId(0), true).is_err());
        assert!(map.dlid(HostId(0), false).is_ok());
    }

    #[test]
    fn ranges_do_not_overlap() {
        let map = LidMap::for_options(64, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for h in (0..map.num_hosts).map(HostId) {
            for off in 0..map.lmc().addresses_per_port() {
                let lid = map.lid_for(h, off).unwrap();
                assert!(seen.insert(lid.0), "lid {lid} assigned twice");
            }
        }
    }

    #[test]
    fn host_of_rejects_reserved_and_unassigned() {
        let map = LidMap::for_options(4, 2).unwrap();
        assert!(map.host_of(Lid(0)).is_err());
        assert!(map.host_of(Lid(1)).is_err()); // inside reserved group 0
        let last = map.lid_for(HostId(3), 1).unwrap();
        assert!(map.host_of(Lid(last.0 + 1)).is_err());
    }

    #[test]
    fn table_len_covers_all_assigned_lids() {
        let map = LidMap::for_options(16, 4).unwrap();
        let last = map
            .lid_for(HostId(15), map.lmc().addresses_per_port() - 1)
            .unwrap();
        assert!(map.table_len() > last.0 as usize);
    }

    #[test]
    fn overflow_is_detected() {
        // 65535 hosts with LMC 7 cannot fit in 16-bit LID space.
        assert!(LidMap::new(65535, Lmc::new(7).unwrap()).is_err());
        // 200 hosts with LMC 7 occupy (200+2)*128 = 25856 LIDs: fine.
        assert!(LidMap::new(200, Lmc::new(7).unwrap()).is_ok());
    }

    #[test]
    fn offset_out_of_range_rejected() {
        let map = LidMap::for_options(4, 2).unwrap();
        assert!(map.lid_for(HostId(0), 2).is_err());
    }

    proptest! {
        #[test]
        fn prop_lid_roundtrip(hosts in 1u16..300, lmc_bits in 0u8..=7, host_frac in 0.0f64..1.0, off_frac in 0.0f64..1.0) {
            let lmc = Lmc::new(lmc_bits).unwrap();
            let host = (host_frac * hosts as f64) as u16;
            let off = (off_frac * lmc.addresses_per_port() as f64) as u16;
            if let Ok(map) = LidMap::new(hosts, lmc) {
                let lid = map.lid_for(HostId(host), off).unwrap();
                prop_assert_eq!(map.host_of(lid).unwrap(), HostId(host));
                prop_assert_eq!(map.offset_of(lid).unwrap(), off);
            }
        }

        #[test]
        fn prop_adaptive_bit_discriminates(hosts in 1u16..200, host in 0u16..200) {
            prop_assume!(host < hosts);
            let map = LidMap::for_options(hosts, 2).unwrap();
            let det = map.dlid(HostId(host), false).unwrap();
            let ada = map.dlid(HostId(host), true).unwrap();
            prop_assert!(det.requests_adaptive() != ada.requests_adaptive());
            // Both resolve to the same physical destination.
            prop_assert_eq!(map.host_of(det).unwrap(), map.host_of(ada).unwrap());
        }
    }
}
