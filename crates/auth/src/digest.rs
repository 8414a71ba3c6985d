//! Stable 64-bit digests of signable payloads.
//!
//! Digests are FNV-1a over a canonical byte encoding. They are stable across
//! runs and platforms (no `Hash`/`RandomState` involvement), which keeps
//! simulated runs reproducible.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the FNV-1a digest of a byte slice.
///
/// # Examples
///
/// ```
/// use fastreg_auth::digest::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental FNV-1a digest writer for composite payloads.
///
/// # Examples
///
/// ```
/// use fastreg_auth::digest::DigestWriter;
///
/// let mut w = DigestWriter::new();
/// w.write_u64(7);
/// w.write_bytes(b"value");
/// let d1 = w.finish();
///
/// let mut w2 = DigestWriter::new();
/// w2.write_u64(7);
/// w2.write_bytes(b"value");
/// assert_eq!(d1, w2.finish());
/// ```
#[derive(Clone, Debug)]
pub struct DigestWriter {
    state: u64,
}

impl DigestWriter {
    /// Creates a fresh writer.
    pub fn new() -> Self {
        DigestWriter { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` in little-endian encoding, length-prefixed by nothing
    /// (fixed width, so unambiguous).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed byte string (unambiguous for variable-width
    /// payloads).
    pub(crate) fn write_len_prefixed(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_bytes(bytes);
    }

    /// Returns the digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Types with a canonical, stable 64-bit digest, suitable for signing.
pub trait Digestible {
    /// The canonical digest of `self`.
    fn digest(&self) -> u64;
}

impl Digestible for u64 {
    fn digest(&self) -> u64 {
        fnv1a(&self.to_le_bytes())
    }
}

impl Digestible for u32 {
    fn digest(&self) -> u64 {
        (*self as u64).digest()
    }
}

impl Digestible for &[u8] {
    fn digest(&self) -> u64 {
        let mut w = DigestWriter::new();
        w.write_len_prefixed(self);
        w.finish()
    }
}

impl Digestible for &str {
    fn digest(&self) -> u64 {
        self.as_bytes().digest()
    }
}

impl Digestible for String {
    fn digest(&self) -> u64 {
        self.as_str().digest()
    }
}

impl<A: Digestible, B: Digestible> Digestible for (A, B) {
    fn digest(&self) -> u64 {
        let mut w = DigestWriter::new();
        w.write_u64(self.0.digest());
        w.write_u64(self.1.digest());
        w.finish()
    }
}

impl<A: Digestible, B: Digestible, C: Digestible> Digestible for (A, B, C) {
    fn digest(&self) -> u64 {
        let mut w = DigestWriter::new();
        w.write_u64(self.0.digest());
        w.write_u64(self.1.digest());
        w.write_u64(self.2.digest());
        w.finish()
    }
}

impl<T: Digestible> Digestible for Option<T> {
    fn digest(&self) -> u64 {
        let mut w = DigestWriter::new();
        match self {
            None => w.write_u64(0),
            Some(v) => {
                w.write_u64(1);
                w.write_u64(v.digest());
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Known FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writer_equals_oneshot() {
        let mut w = DigestWriter::new();
        w.write_bytes(b"hello");
        assert_eq!(w.finish(), fnv1a(b"hello"));
    }

    #[test]
    fn len_prefix_disambiguates_concatenation() {
        let mut a = DigestWriter::new();
        a.write_len_prefixed(b"ab");
        a.write_len_prefixed(b"c");
        let mut b = DigestWriter::new();
        b.write_len_prefixed(b"a");
        b.write_len_prefixed(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn u64_digest_differs_by_value() {
        assert_ne!(1u64.digest(), 2u64.digest());
        assert_eq!(5u64.digest(), 5u64.digest());
    }

    #[test]
    fn tuple_digest_is_order_sensitive() {
        assert_ne!((1u64, 2u64).digest(), (2u64, 1u64).digest());
        assert_eq!((1u64, 2u64).digest(), (1u64, 2u64).digest());
    }

    #[test]
    fn triple_digest_composes() {
        let d = (1u64, 2u64, 3u64).digest();
        assert_ne!(d, (1u64, 2u64).digest());
        assert_eq!(d, (1u64, 2u64, 3u64).digest());
    }

    #[test]
    fn option_digest_distinguishes_none_some() {
        assert_ne!(None::<u64>.digest(), Some(0u64).digest());
        assert_ne!(Some(1u64).digest(), Some(2u64).digest());
    }

    #[test]
    fn str_and_string_agree() {
        assert_eq!("abc".digest(), "abc".to_string().digest());
    }

    #[test]
    fn u32_promotes_to_u64() {
        assert_eq!(7u32.digest(), 7u64.digest());
    }
}
