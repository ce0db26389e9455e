//! Dependency-free content hashing: FNV-1a and SplitMix64, plus a small
//! streaming [`Digest`] built from the two.
//!
//! These are the workspace's canonical mixers — the fault-injection
//! module derives its seeded trigger decisions from them, and incident
//! dumps / explanation provenance use [`Digest`] to fingerprint configs,
//! forests, and fitted GAMs (groundwork for a content-addressed artifact
//! store). They are **not** cryptographic: the goal is a cheap, stable,
//! well-mixed 64-bit identity, reproducible across runs and platforms.

/// FNV-1a over a byte string.
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_bytes(s.as_bytes())
}

/// FNV-1a over raw bytes (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`).
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — one well-mixed `u64` out per `u64` in.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streaming 64-bit content digest.
///
/// Feed values in a fixed, documented order; [`Digest::finish`] runs the
/// accumulated FNV-1a state through SplitMix64 so short inputs still
/// produce well-spread digests. Floats are hashed by their IEEE-754 bit
/// patterns (so `-0.0 != 0.0` and NaN payloads are distinguished) —
/// bit-identical inputs, and only those, give equal digests.
///
/// ```
/// use gef_trace::hash::Digest;
/// let mut d = Digest::new("gef-core/config");
/// d.write_u64(3);
/// d.write_f64(0.25);
/// d.write_str("equi-size");
/// let a = d.finish();
/// assert_eq!(a, {
///     let mut d = Digest::new("gef-core/config");
///     d.write_u64(3);
///     d.write_f64(0.25);
///     d.write_str("equi-size");
///     d.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
}

impl Digest {
    /// Start a digest, mixing in a domain-separation tag (e.g.
    /// `"gef-forest/v1"`) so digests of different artifact kinds never
    /// collide by construction.
    pub fn new(domain: &str) -> Self {
        Digest {
            state: fnv1a(domain),
        }
    }

    fn mix(&mut self, word: u64) {
        // FNV-1a step over the 8 bytes, then a SplitMix64 stir so
        // field boundaries cannot cancel.
        let mut h = self.state;
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.state = splitmix64(h);
    }

    /// Mix in an unsigned integer.
    pub fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    /// Mix in a float by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.mix(v.to_bits());
    }

    /// Mix in a string (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.mix(s.len() as u64);
        self.mix(fnv1a(s));
    }

    /// Mix in a slice of floats (length-prefixed).
    pub fn write_f64s(&mut self, vs: &[f64]) {
        self.mix(vs.len() as u64);
        for &v in vs {
            self.mix(v.to_bits());
        }
    }

    /// Finalize to the 64-bit digest value.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// Canonical hex rendering of a digest value (16 lowercase hex digits).
pub fn to_hex(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let mut a = Digest::new("t");
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new("t");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = Digest::new("t");
        c.write_u64(1);
        c.write_u64(2);
        let mut d = Digest::new("t");
        d.write_u64(2);
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn digest_separates_domains() {
        let mut a = Digest::new("domain-a");
        a.write_u64(7);
        let mut b = Digest::new("domain-b");
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_distinguishes_float_bit_patterns() {
        let mut a = Digest::new("t");
        a.write_f64(0.0);
        let mut b = Digest::new("t");
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(to_hex(0), "0000000000000000");
        assert_eq!(to_hex(u64::MAX), "ffffffffffffffff");
        assert_eq!(to_hex(0xabc), "0000000000000abc");
    }
}
