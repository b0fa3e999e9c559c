//! Credit units of IBA's per-virtual-lane flow control.
//!
//! IBA flow control is credit based, with credits granted in units of 64
//! bytes (§5.1 of the paper: "measured in credits of 64 bytes"). A packet
//! may only be transmitted over a link when the receiver advertises enough
//! credits to buffer the *entire* packet — which is exactly the condition
//! virtual cut-through needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Size of one flow-control credit in bytes.
pub(crate) const CREDIT_BYTES: u32 = 64;

/// A non-negative amount of flow-control credits (64-byte units).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Credits(pub u32);

impl Credits {
    /// Zero credits.
    pub const ZERO: Credits = Credits(0);

    /// Credits needed to hold `bytes` bytes (rounded up to whole credits).
    #[inline]
    pub fn for_bytes(bytes: u32) -> Credits {
        Credits(bytes.div_ceil(CREDIT_BYTES))
    }

    /// Raw credit count.
    #[inline]
    pub fn count(self) -> u32 {
        self.0
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub(crate) fn saturating_sub(self, rhs: Credits) -> Credits {
        Credits(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two credit amounts.
    #[inline]
    pub fn min(self, rhs: Credits) -> Credits {
        Credits(self.0.min(rhs.0))
    }

    /// The larger of two credit amounts.
    #[inline]
    pub fn max(self, rhs: Credits) -> Credits {
        Credits(self.0.max(rhs.0))
    }

    /// Split of a per-VL credit count into the *adaptive-queue* share,
    /// per the paper's formula (§4.4):
    /// `C_XYA = max(0, C_XY − C_max/2)`.
    ///
    /// `self` is the currently advertised credit count `C_XY`; `cap` is the
    /// total buffer capacity `C_max` of the VL. Only the buffer space
    /// *beyond* what the escape half could absorb is guaranteed to be
    /// adaptive-queue space.
    #[inline]
    pub fn adaptive_share(self, cap: Credits) -> Credits {
        self.saturating_sub(Credits(cap.0 / 2))
    }
}

impl Add for Credits {
    type Output = Credits;
    #[inline]
    fn add(self, rhs: Credits) -> Credits {
        Credits(self.0 + rhs.0)
    }
}

impl AddAssign for Credits {
    #[inline]
    fn add_assign(&mut self, rhs: Credits) {
        self.0 += rhs.0;
    }
}

impl Sub for Credits {
    type Output = Credits;
    /// Panics on underflow in debug builds — credit underflow is always a
    /// flow-control accounting bug.
    #[inline]
    fn sub(self, rhs: Credits) -> Credits {
        debug_assert!(self.0 >= rhs.0, "credit underflow: {} - {}", self.0, rhs.0);
        Credits(self.0 - rhs.0)
    }
}

impl SubAssign for Credits {
    #[inline]
    fn sub_assign(&mut self, rhs: Credits) {
        *self = *self - rhs;
    }
}

impl Sum for Credits {
    fn sum<I: Iterator<Item = Credits>>(iter: I) -> Credits {
        Credits(iter.map(|c| c.0).sum())
    }
}

impl fmt::Debug for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cr", self.0)
    }
}

impl fmt::Display for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cr", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The *escape-queue* share of a per-VL credit count, per the paper's
    /// formula (§4.4): `C_XYE = min(C_max/2, C_XY)`, with `C_max/2` the
    /// floor half. The adaptive share is what the simulator computes; the
    /// tests hold it to this complement.
    fn escape_share(c: Credits, cap: Credits) -> Credits {
        Credits((cap.0 / 2).min(c.0))
    }

    #[test]
    fn for_bytes_rounds_up() {
        assert_eq!(Credits::for_bytes(0), Credits(0));
        assert_eq!(Credits::for_bytes(1), Credits(1));
        assert_eq!(Credits::for_bytes(64), Credits(1));
        assert_eq!(Credits::for_bytes(65), Credits(2));
        assert_eq!(Credits::for_bytes(256), Credits(4));
        assert_eq!(Credits::for_bytes(4096), Credits(64));
    }

    #[test]
    fn paper_packet_sizes() {
        // 32-byte packets occupy one credit; 256-byte packets four.
        assert_eq!(Credits::for_bytes(32).count(), 1);
        assert_eq!(Credits::for_bytes(256).count(), 4);
    }

    #[test]
    fn adaptive_escape_split_formulas() {
        let cap = Credits(16); // C_max
                               // Buffer empty: all 16 credits free; adaptive share 8, escape 8.
        assert_eq!(Credits(16).adaptive_share(cap), Credits(8));
        assert_eq!(escape_share(Credits(16), cap), Credits(8));
        // Half full: 8 free → adaptive exhausted, escape full.
        assert_eq!(Credits(8).adaptive_share(cap), Credits(0));
        assert_eq!(escape_share(Credits(8), cap), Credits(8));
        // Nearly full: 3 free → all of it escape space.
        assert_eq!(Credits(3).adaptive_share(cap), Credits(0));
        assert_eq!(escape_share(Credits(3), cap), Credits(3));
        // Full: nothing anywhere.
        assert_eq!(Credits(0).adaptive_share(cap), Credits(0));
        assert_eq!(escape_share(Credits(0), cap), Credits(0));
    }

    #[test]
    fn odd_capacity_gives_escape_the_floor_half() {
        // C_max = 7: escape half is floor(7/2) = 3 credits, the adaptive
        // region gets the extra credit (7 − 3 = 4).
        let cap = Credits(7);
        assert_eq!(escape_share(Credits(7), cap), Credits(3));
        assert_eq!(Credits(7).adaptive_share(cap), Credits(4));
        // Draining below the escape boundary: everything left is escape.
        assert_eq!(escape_share(Credits(3), cap), Credits(3));
        assert_eq!(Credits(3).adaptive_share(cap), Credits(0));
        assert_eq!(escape_share(Credits(2), cap), Credits(2));
        // The partition C_A + C_E == C holds at every fill level.
        for c in 0..=7 {
            let c = Credits(c);
            assert_eq!(c.adaptive_share(cap) + escape_share(c, cap), c);
        }
    }

    #[test]
    fn arithmetic() {
        let mut c = Credits(4);
        c += Credits(2);
        assert_eq!(c, Credits(6));
        c -= Credits(1);
        assert_eq!(c, Credits(5));
        assert_eq!(Credits(3).saturating_sub(Credits(10)), Credits::ZERO);
        assert_eq!(
            vec![Credits(1), Credits(2), Credits(3)]
                .into_iter()
                .sum::<Credits>(),
            Credits(6)
        );
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    #[cfg(debug_assertions)]
    fn underflow_panics_in_debug() {
        let _ = Credits(1) - Credits(2);
    }

    proptest! {
        /// The paper's split always partitions the free space exactly:
        /// C_A + C_E == C for any C ≤ C_max.
        #[test]
        fn prop_split_partitions_free_space(c in 0u32..256, cap in 0u32..256) {
            prop_assume!(c <= cap);
            let (c, cap) = (Credits(c), Credits(cap));
            prop_assert_eq!(c.adaptive_share(cap) + escape_share(c, cap), c);
        }

        /// Escape share never exceeds half the capacity; adaptive share
        /// never exceeds capacity minus half.
        #[test]
        fn prop_split_bounds(c in 0u32..256, cap in 0u32..256) {
            prop_assume!(c <= cap);
            let (c, cap) = (Credits(c), Credits(cap));
            prop_assert!(escape_share(c, cap).count() <= cap.count() / 2);
            prop_assert!(c.adaptive_share(cap).count() <= cap.count() - cap.count() / 2);
        }

        /// Odd capacities specifically: the escape share is the *floor*
        /// half and the adaptive share absorbs the extra credit.
        #[test]
        fn prop_split_odd_capacities(c in 0u32..256, half in 0u32..128) {
            let cap = Credits(2 * half + 1);
            prop_assume!(c <= cap.count());
            let c = Credits(c);
            prop_assert_eq!(c.adaptive_share(cap) + escape_share(c, cap), c);
            prop_assert!(escape_share(c, cap).count() <= half);
            prop_assert!(c.adaptive_share(cap).count() <= half + 1);
            // A full odd buffer really does give the adaptive region one
            // more credit than the escape region.
            prop_assert_eq!(cap.adaptive_share(cap).count(), half + 1);
            prop_assert_eq!(escape_share(cap, cap).count(), half);
        }

        #[test]
        fn prop_for_bytes_is_minimal(bytes in 1u32..100_000) {
            let c = Credits::for_bytes(bytes);
            prop_assert!(c.count() * CREDIT_BYTES >= bytes);
            prop_assert!((c.count() - 1) * CREDIT_BYTES < bytes);
        }
    }
}
