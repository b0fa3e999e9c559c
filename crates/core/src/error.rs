//! Shared error type for the workspace.

use std::fmt;

/// Errors surfaced by the iba-far crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbaError {
    /// LMC value above the IBA maximum of 7.
    InvalidLmc(u8),
    /// Routing-option count not representable with the LMC scheme.
    InvalidOptionCount(u16),
    /// LID address space (16 bits) exhausted by the requested assignment.
    LidSpaceExhausted,
    /// Routing-option offset beyond the destination's address range.
    OffsetOutOfRange {
        /// Requested offset.
        offset: u16,
        /// Number of addresses the destination owns.
        max: u16,
    },
    /// Adaptive DLIDs require LMC ≥ 1.
    AdaptiveNeedsLmc,
    /// LID not assigned to any host.
    UnknownLid(u16),
    /// Topology violates a structural constraint.
    InvalidTopology(String),
    /// A random generator failed to satisfy the constraints after retries.
    GenerationFailed(String),
    /// Configuration rejected.
    InvalidConfig(String),
    /// Routing computation failed (e.g. unreachable destination).
    RoutingFailed(String),
}

impl fmt::Display for IbaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IbaError::InvalidLmc(v) => write!(f, "LMC {v} exceeds the IBA maximum of 7"),
            IbaError::InvalidOptionCount(n) => {
                write!(f, "{n} routing options not representable (must be 1..=128)")
            }
            IbaError::LidSpaceExhausted => write!(f, "16-bit LID space exhausted"),
            IbaError::OffsetOutOfRange { offset, max } => {
                write!(f, "routing-option offset {offset} outside range 0..{max}")
            }
            IbaError::AdaptiveNeedsLmc => {
                write!(f, "adaptive DLIDs require LMC >= 1 (at least 2 addresses)")
            }
            IbaError::UnknownLid(l) => write!(f, "LID {l} is not assigned to any host"),
            IbaError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            IbaError::GenerationFailed(msg) => write!(f, "topology generation failed: {msg}"),
            IbaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            IbaError::RoutingFailed(msg) => write!(f, "routing failed: {msg}"),
        }
    }
}

impl std::error::Error for IbaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(IbaError::InvalidLmc(9).to_string().contains('9'));
        assert!(IbaError::OffsetOutOfRange { offset: 5, max: 4 }
            .to_string()
            .contains("0..4"));
        assert!(IbaError::InvalidTopology("disconnected".into())
            .to_string()
            .contains("disconnected"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&IbaError::LidSpaceExhausted);
    }
}
