//! Identifiers for the physical elements of an IBA subnet.
//!
//! A subnet is made of switches and end nodes (hosts, i.e. channel-adapter
//! ports). Switches have a fixed number of physical ports; each port is
//! either wired to another switch's port, wired to a host, or left unused.
//! All identifiers are small dense integers so they can index `Vec`s
//! directly.

use std::fmt;

/// Index of a switch within a topology (`0..num_switches`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u16);

/// Index of a host (end-node channel-adapter port) within a topology
/// (`0..num_hosts`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

/// Index of a physical port on a switch (`0..ports_per_switch`).
///
/// By convention of `iba-topology`, inter-switch links occupy the lowest
/// port indices and host links the next ones, but nothing in the code
/// relies on that ordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortIndex(pub u8);

/// Either endpoint kind a switch port can be wired to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeRef {
    /// A switch, addressed by id.
    Switch(SwitchId),
    /// A host, addressed by id.
    Host(HostId),
}

impl SwitchId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl HostId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PortIndex {
    /// The port as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeRef {
    /// `true` when this endpoint is a switch.
    #[inline]
    pub fn is_switch(self) -> bool {
        matches!(self, NodeRef::Switch(_))
    }

    /// `true` when this endpoint is a host.
    #[inline]
    pub fn is_host(self) -> bool {
        matches!(self, NodeRef::Host(_))
    }

    /// The switch id, if this endpoint is a switch.
    #[inline]
    pub fn as_switch(self) -> Option<SwitchId> {
        match self {
            NodeRef::Switch(s) => Some(s),
            NodeRef::Host(_) => None,
        }
    }

    /// The host id, if this endpoint is a host.
    #[inline]
    pub fn as_host(self) -> Option<HostId> {
        match self {
            NodeRef::Host(h) => Some(h),
            NodeRef::Switch(_) => None,
        }
    }
}

impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Debug for PortIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PortIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u16> for SwitchId {
    fn from(v: u16) -> Self {
        SwitchId(v)
    }
}

impl From<u16> for HostId {
    fn from(v: u16) -> Self {
        HostId(v)
    }
}

impl From<u8> for PortIndex {
    fn from(v: u8) -> Self {
        PortIndex(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noderef_accessors() {
        let s = NodeRef::Switch(SwitchId(3));
        let h = NodeRef::Host(HostId(7));
        assert!(s.is_switch() && !s.is_host());
        assert!(h.is_host() && !h.is_switch());
        assert_eq!(s.as_switch(), Some(SwitchId(3)));
        assert_eq!(s.as_host(), None);
        assert_eq!(h.as_host(), Some(HostId(7)));
        assert_eq!(h.as_switch(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SwitchId(2).to_string(), "sw2");
        assert_eq!(HostId(9).to_string(), "h9");
        assert_eq!(PortIndex(1).to_string(), "p1");
        assert_eq!(format!("{:?}", SwitchId(2)), "sw2");
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(SwitchId(65535).index(), 65535);
        assert_eq!(HostId::from(12).index(), 12);
        assert_eq!(PortIndex::from(255).index(), 255);
    }

    #[test]
    fn ordering_is_by_id() {
        assert!(SwitchId(1) < SwitchId(2));
        assert!(HostId(0) < HostId(1));
        assert!(PortIndex(3) > PortIndex(2));
    }
}
