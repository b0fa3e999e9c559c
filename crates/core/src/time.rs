//! Simulated time.
//!
//! The simulator works in integer nanoseconds, the natural unit for the
//! paper's parameters (100 ns routing time, 5 ns/m propagation, 4 ns/byte
//! serialization on 1X links). `u64` nanoseconds cover ~584 years of
//! simulated time — far beyond any run.

use std::fmt;
use std::ops::Sub;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// A time that sorts after every reachable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_us(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_ms(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// The value in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant, clamped at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The instant `ns` nanoseconds later. The *only* way to advance a
    /// `SimTime` by a raw duration — there is deliberately no
    /// `Add<u64>`/`AddAssign<u64>` operator, so every instant + duration
    /// mix is spelled out at the call site instead of silently coercing
    /// (`config.horizon()` once read `warmup + window.as_ns()`, which
    /// type-checked only because of that escape hatch).
    #[inline]
    pub fn plus_ns(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl Sub for SimTime {
    type Output = u64;
    /// Difference in nanoseconds. Panics in debug builds when `rhs` is
    /// later than `self` — negative durations are always ordering bugs.
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative duration: {} - {}", self.0, rhs.0);
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = if self.0 >= 1_000_000 {
            format!("{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            format!("{:.3}us", self.0 as f64 / 1e3)
        } else {
            format!("{}ns", self.0)
        };
        // Through `pad` so callers' width/alignment specs (e.g. the
        // `{:>12}` timestamp column in trace renderings) are honoured.
        f.pad(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(3), SimTime::from_ns(3_000));
        assert_eq!(SimTime::from_ms(2), SimTime::from_ns(2_000_000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100).plus_ns(50);
        assert_eq!(t.as_ns(), 150);
        assert_eq!(t - SimTime::from_ns(100), 50);
        assert_eq!(t.since(SimTime::from_ns(200)), 0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_ns(1));
        assert!(SimTime::MAX > SimTime::from_ms(1_000_000));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_ns(2_500_000).to_string(), "2.500ms");
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    #[cfg(debug_assertions)]
    fn negative_duration_panics_in_debug() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }
}
