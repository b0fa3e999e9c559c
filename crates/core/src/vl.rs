//! Virtual lanes and service levels.
//!
//! IBA switches support up to 16 virtual lanes (VL0–VL15; VL15 is reserved
//! for subnet management). Each packet carries a 4-bit service level (SL);
//! the VL a packet uses on each hop is computed from (input port, output
//! port, SL) through the SLtoVL table. The paper uses the VLs only as
//! ordinary data lanes — the adaptive/escape queues live *inside* one VL's
//! buffer (§4.4), deliberately consuming no extra VLs.

use crate::error::IbaError;
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

    /// The management VL (VL15), never used for data in this model.
    pub const MANAGEMENT: VirtualLane = VirtualLane(15);

    /// Validating constructor.
    pub fn new(vl: u8) -> Result<Self, IbaError> {
        if (vl as usize) < Self::COUNT {
            Ok(VirtualLane(vl))
        } else {
            Err(IbaError::InvalidVirtualLane(vl))
        }
    }

    /// The lane as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ServiceLevel {
    /// Number of service levels.
    pub const COUNT: usize = 16;

    /// Validating constructor.
    pub fn new(sl: u8) -> Result<Self, IbaError> {
        if (sl as usize) < Self::COUNT {
            Ok(ServiceLevel(sl))
        } else {
            Err(IbaError::InvalidServiceLevel(sl))
        }
    }

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
    fn vl_validation() {
        assert!(VirtualLane::new(0).is_ok());
        assert!(VirtualLane::new(15).is_ok());
        assert!(VirtualLane::new(16).is_err());
        assert_eq!(VirtualLane::MANAGEMENT.index(), 15);
    }

    #[test]
    fn sl_validation() {
        assert!(ServiceLevel::new(0).is_ok());
        assert!(ServiceLevel::new(15).is_ok());
        assert!(ServiceLevel::new(16).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(VirtualLane(3).to_string(), "VL3");
        assert_eq!(ServiceLevel(1).to_string(), "SL1");
    }
}
