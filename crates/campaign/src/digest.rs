//! FNV-1a digests for journal records and campaign-level accounting.
//!
//! The journal stores a digest of every run's result so a resumed
//! campaign can detect a corrupted record instead of silently reusing
//! it, and so CI can compare a resumed sweep against a clean one by a
//! single value.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold an ordered sequence of digests into one campaign digest.
///
/// Deliberately order-sensitive (little-endian bytes of each digest fed
/// through FNV-1a): two campaigns agree iff every run result agrees *in
/// spec order*, which is exactly the resumed-equals-uninterrupted
/// guarantee CI gates on.
pub(crate) fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for d in digests {
        for b in d.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Canonical hex rendering (`0x`-prefixed, zero-padded to 16 digits).
pub fn digest_hex(d: u64) -> String {
    format!("{d:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine([1, 2]), combine([2, 1]));
        assert_eq!(combine([1, 2]), combine([1, 2]));
        assert_ne!(combine([]), combine([0]));
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(digest_hex(0), "0x0000000000000000");
        assert_eq!(digest_hex(u64::MAX), "0xffffffffffffffff");
        assert_eq!(digest_hex(0xab), "0x00000000000000ab");
    }
}
