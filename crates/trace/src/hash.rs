//! FNV-1a 64-bit: the workspace's one content hash.
//!
//! Explorer cache keys and generator substreams, replay page digests,
//! the conformance CPU digest, fault-site substreams and serve's retry
//! jitter keys all fold bytes through this hasher. It is not
//! cryptographic; it only needs to be stable across platforms and runs,
//! which it is: the fold is pure integer arithmetic in byte order.
//! Persisted cache files and checked-in digests depend on that, so the
//! constants below never change.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the state.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` (IEEE-754 bits, little-endian) into the state.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The current hash value.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte slice.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_equal_one_write() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut h = Fnv1a::new();
        h.write_u64(7);
        h.write_f64(1.5);
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&bytes));
    }
}
