//! A stable 64-bit hash: FNV-1a.
//!
//! std's `DefaultHasher` is randomly keyed per process and its algorithm
//! may change between releases, so its values cannot be stored, compared
//! across runs or committed. FNV-1a is fixed by its published offset basis
//! and prime: the same bytes hash to the same `u64` on every host, build
//! and run. `serve` keys its memo with it; it is not collision-resistant
//! against an adversary, so every user still compares the hashed bytes on
//! a match.
//!
//! ```
//! use profirt_base::hash::{fnv1a64, Fnv1a64};
//!
//! assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
//! let mut h = Fnv1a64::new();
//! h.write(b"foo");
//! h.write(b"bar");
//! assert_eq!(h.finish(), fnv1a64(b"foobar"));
//! ```

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64: feeding bytes in pieces hashes like feeding
/// their concatenation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The empty-input state (the offset basis).
    pub fn new() -> Fnv1a64 {
        Fnv1a64(OFFSET_BASIS)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn pieces_hash_like_the_concatenation() {
        let mut h = Fnv1a64::default();
        for piece in [&b"fo"[..], b"", b"oba", b"r"] {
            h.write(piece);
        }
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
