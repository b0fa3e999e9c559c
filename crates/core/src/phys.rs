//! Physical-layer parameters of the paper's evaluation (§5.1).
//!
//! * 1X serial links at 2.5 Gbps with 8b/10b coding → 2.0 Gbps of payload
//!   bandwidth → exactly 4 ns per byte;
//! * 20 m copper cables at 5 ns/m → 100 ns propagation delay;
//! * 100 ns switch routing time (forwarding-table access + crossbar
//!   arbitration + crossbar setup);
//! * MTU between 256 and 4096 bytes (the paper uses 256).
//!
//! All values are grouped in [`PhysParams`]; the paper's configuration
//! is the checked-in default.

use crate::error::IbaError;

/// IBA's minimum maximum-transfer-unit, in bytes.
pub(crate) const MTU_MIN: u32 = 256;
/// IBA's maximum maximum-transfer-unit, in bytes.
pub(crate) const MTU_MAX: u32 = 4096;

/// Physical-layer timing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhysParams {
    /// Payload link bandwidth in bytes per nanosecond.
    ///
    /// The paper's 1X configuration is 2.5 Gbps raw; 8b/10b coding leaves
    /// 2.0 Gbps = 0.25 bytes/ns.
    pub(crate) link_bytes_per_ns: f64,
    /// One-way cable propagation delay in nanoseconds (20 m × 5 ns/m).
    pub propagation_ns: u64,
    /// Switch routing time in nanoseconds: forwarding-table access,
    /// arbitration and crossbar setup.
    pub routing_delay_ns: u64,
    /// Maximum transfer unit in bytes.
    pub mtu_bytes: u32,
}

impl PhysParams {
    /// The exact configuration of the paper's evaluation section.
    pub fn paper_1x() -> PhysParams {
        PhysParams {
            link_bytes_per_ns: 0.25,
            propagation_ns: 100,
            routing_delay_ns: 100,
            mtu_bytes: 256,
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), IbaError> {
        if !self.link_bytes_per_ns.is_finite() || self.link_bytes_per_ns <= 0.0 {
            return Err(IbaError::InvalidConfig(
                "link bandwidth must be positive".into(),
            ));
        }
        if self.mtu_bytes < MTU_MIN || self.mtu_bytes > MTU_MAX {
            return Err(IbaError::InvalidConfig(format!(
                "MTU {} outside IBA range [{MTU_MIN}, {MTU_MAX}]",
                self.mtu_bytes
            )));
        }
        Ok(())
    }

    /// Time to serialize `bytes` bytes onto the link, in nanoseconds
    /// (rounded up to a whole nanosecond).
    #[inline]
    pub fn serialization_ns(&self, bytes: u32) -> u64 {
        // `ceil` as a truncation and one compare: baseline x86-64 has no
        // rounding instruction, and the libm call sits on every hop.
        let exact = bytes as f64 / self.link_bytes_per_ns;
        let whole = exact as u64;
        whole.saturating_add(u64::from((whole as f64) < exact))
    }

    /// Zero-load network latency of a `bytes`-byte packet crossing `hops`
    /// switches: serialization once (cut-through pipelines it), plus per
    /// traversed link the propagation delay, plus per switch the routing
    /// delay. Used as a lower-bound sanity check on measured latencies.
    pub fn zero_load_latency_ns(&self, bytes: u32, switch_hops: u32) -> u64 {
        let links = switch_hops as u64 + 1; // host→sw, sw→sw…, sw→host
        self.serialization_ns(bytes)
            + links * self.propagation_ns
            + switch_hops as u64 * self.routing_delay_ns
    }
}

impl Default for PhysParams {
    fn default() -> Self {
        PhysParams::paper_1x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_serialization_times() {
        let p = PhysParams::paper_1x();
        // 4 ns per byte on 1X links.
        assert_eq!(p.serialization_ns(1), 4);
        assert_eq!(p.serialization_ns(32), 128);
        assert_eq!(p.serialization_ns(256), 1024);
    }

    #[test]
    fn serialization_rounds_up_as_ceil_does() {
        for rate in [0.25, 1.0, 3.0, 0.3, 1.0 / 3.0, 7.1, 1e-9, f64::MIN_POSITIVE] {
            let p = PhysParams {
                link_bytes_per_ns: rate,
                ..PhysParams::paper_1x()
            };
            for bytes in (0..=4096).chain([u32::MAX - 1, u32::MAX]) {
                let ceil = (bytes as f64 / rate).ceil() as u64;
                assert_eq!(p.serialization_ns(bytes), ceil, "{bytes} B at {rate} B/ns");
            }
        }
    }

    #[test]
    fn propagation_matches_20m_copper() {
        assert_eq!(PhysParams::paper_1x().propagation_ns, 100); // 20 m × 5 ns/m
    }

    #[test]
    fn zero_load_latency_composition() {
        let p = PhysParams::paper_1x();
        // One switch: ser(32)=128 + 2 links × 100 + 1 × 100 routing = 428.
        assert_eq!(p.zero_load_latency_ns(32, 1), 428);
        // Three switches: 128 + 4×100 + 3×100 = 828.
        assert_eq!(p.zero_load_latency_ns(32, 3), 828);
    }

    /// A 4X link (10 Gbps raw, 8 Gbps payload).
    fn link_4x() -> PhysParams {
        PhysParams {
            link_bytes_per_ns: 1.0,
            ..PhysParams::paper_1x()
        }
    }

    #[test]
    fn validation() {
        assert!(PhysParams::paper_1x().validate().is_ok());
        assert!(link_4x().validate().is_ok());
        let mut bad = PhysParams::paper_1x();
        bad.mtu_bytes = 128;
        assert!(bad.validate().is_err());
        bad = PhysParams::paper_1x();
        bad.link_bytes_per_ns = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn faster_links_serialize_faster() {
        assert!(link_4x().serialization_ns(256) < PhysParams::paper_1x().serialization_ns(256));
    }
}
