//! Virtual lanes and service levels.
//!
//! IBA switches support up to 16 virtual lanes (VL0–VL15; VL15 is reserved
//! for subnet management). Each packet carries a 4-bit service level (SL);
//! the VL a packet uses on each hop is computed from (input port, output
//! port, SL) through the SLtoVL table. The paper uses the VLs only as
//! ordinary data lanes — the adaptive/escape queues live *inside* one VL's
//! buffer (§4.4), deliberately consuming no extra VLs.

use std::fmt;

/// A data virtual lane (0..=15).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualLane(pub u8);

/// A 4-bit IBA service level.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServiceLevel(pub u8);

impl VirtualLane {
    /// Number of virtual lanes an IBA switch can support.
    pub const COUNT: usize = 16;

    /// The lane as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ServiceLevel {
    /// Number of service levels.
    pub const COUNT: usize = 16;

    /// The level as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VirtualLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VL{}", self.0)
    }
}

impl fmt::Display for VirtualLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VL{}", self.0)
    }
}

impl fmt::Debug for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SL{}", self.0)
    }
}

impl fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SL{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(VirtualLane(3).to_string(), "VL3");
        assert_eq!(ServiceLevel(1).to_string(), "SL1");
    }
}
