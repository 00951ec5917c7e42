//! Stable 128-bit content fingerprinting.
//!
//! The artifact cache of `mbqc-service` addresses stage outputs by a
//! fingerprint of their inputs. [`Fingerprint`] must therefore be
//! *stable* — the same bytes hash the same across processes, platforms,
//! and releases — which rules out `std::hash` (`RandomState` is
//! per-process, and `Hasher` output is explicitly not portable). This is
//! a hand-rolled two-lane mix built from the SplitMix64 finalizer: not
//! cryptographic, just well-distributed. Exact-match correctness never
//! rests on it — cache lookups compare the full key bytes — so a
//! collision can only cost a disk-tier miss, never a wrong artifact.
//!
//! # Examples
//!
//! ```
//! use mbqc_util::fingerprint::Fingerprint;
//!
//! let a = Fingerprint::of(b"pattern bytes");
//! let b = Fingerprint::of(b"pattern bytes");
//! assert_eq!(a, b);
//! assert_ne!(a, Fingerprint::of(b"other bytes"));
//! assert_eq!(a.to_hex().len(), 32);
//! ```

/// A 128-bit stable content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

/// The SplitMix64 output finalizer (Steele, Lea, Flood 2014): a strong
/// 64-bit bijective mixer.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Absorbs one 8-byte chunk into both lanes.
#[inline]
fn absorb(a: &mut u64, b: &mut u64, v: u64) {
    *a = mix(*a ^ v.wrapping_mul(0xA076_1D64_78BD_642F));
    *b = mix(b.rotate_left(23) ^ v.wrapping_mul(0xE703_7ED1_A0B4_28DB));
}

impl Fingerprint {
    /// Hashes `bytes` into a 128-bit fingerprint.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        Self::of_parts(&[bytes])
    }

    /// The fingerprint of the concatenation of `parts`, without
    /// building it: `of_parts(&[x, y]) == of(&[x, y].concat())` for
    /// every split of the same bytes.
    #[must_use]
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        // Two independent lanes over 8-byte chunks, each absorbing the
        // chunk with a distinct odd multiplier before re-mixing; the
        // length is folded in at the end so prefixes don't collide with
        // their zero-padded extensions. A chunk may straddle two parts:
        // `tail` holds its first `held` bytes until the next part
        // completes it.
        let mut a = 0x9E37_79B9_7F4A_7C15u64;
        let mut b = 0xC2B2_AE3D_27D4_EB4Fu64;
        let mut len = 0u64;
        let mut tail = [0u8; 8];
        let mut held = 0usize;
        for &part in parts {
            len += part.len() as u64;
            let mut bytes = part;
            if held > 0 {
                let take = (8 - held).min(bytes.len());
                tail[held..held + take].copy_from_slice(&bytes[..take]);
                held += take;
                bytes = &bytes[take..];
                if held < 8 {
                    continue;
                }
                absorb(&mut a, &mut b, u64::from_le_bytes(tail));
            }
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                absorb(&mut a, &mut b, v);
            }
            let rest = chunks.remainder();
            tail[..rest.len()].copy_from_slice(rest);
            held = rest.len();
        }
        if held > 0 {
            tail[held..].fill(0);
            absorb(&mut a, &mut b, u64::from_le_bytes(tail));
        }
        a = mix(a ^ len);
        b = mix(b ^ len.rotate_left(32));
        Self((u128::from(a) << 64) | u128::from(b))
    }

    /// Lowercase 32-character hex rendering (safe as a file name).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(Fingerprint::of(b""), Fingerprint::of(b""));
        // A prefix must not collide with its zero-extended form.
        assert_ne!(Fingerprint::of(b"ab"), Fingerprint::of(b"ab\0\0"));
        assert_ne!(Fingerprint::of(b""), Fingerprint::of(b"\0"));
    }

    #[test]
    fn single_bit_flips_change_both_lanes() {
        let base = Fingerprint::of(&[0u8; 16]);
        for byte in 0..16 {
            for bit in 0..8 {
                let mut v = [0u8; 16];
                v[byte] = 1 << bit;
                let fp = Fingerprint::of(&v);
                assert_ne!(fp, base);
                assert_ne!(fp.0 >> 64, base.0 >> 64, "lane a at {byte}:{bit}");
                assert_ne!(
                    fp.0 & u128::from(u64::MAX),
                    base.0 & u128::from(u64::MAX),
                    "lane b at {byte}:{bit}"
                );
            }
        }
    }

    #[test]
    fn no_collisions_over_small_inputs() {
        let mut seen = std::collections::HashSet::new();
        seen.insert(Fingerprint::of(b""));
        for len in 1..64usize {
            for fill in 0..=255u8 {
                let v = vec![fill; len];
                assert!(
                    seen.insert(Fingerprint::of(&v)),
                    "collision at {len}/{fill}"
                );
            }
        }
    }

    /// `Fingerprint::of` names every disk artifact, so its output must
    /// never shift. Lengths around the 8-byte chunk edge cover the
    /// empty input, a lone tail, an exact chunk, and chunk plus tail.
    #[test]
    fn fingerprints_are_pinned() {
        let input = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
                .collect()
        };
        let pinned: [(usize, u128); 6] = [
            (0, 0xe220a8397b1dcdaf68850ac74e2e5a26),
            (1, 0xafbcc187f38452052d2a3953e46893ef),
            (7, 0x3ffffb8c4d4ce14755f5c79a8a74d466),
            (8, 0x39d3e0cef9b074eadf9ed7fc9c683ad5),
            (9, 0x8e5dad4570d1abfb8fbf1ac8cb7ebf2a),
            (17, 0x3b08895c26481f290f2c1ce450b56bdf),
        ];
        for (len, want) in pinned {
            let got = Fingerprint::of(&input(len)).0;
            assert_eq!(got, want, "len {len}: got {got:#034x}");
        }
    }

    #[test]
    fn hex_is_stable_and_padded() {
        let h = Fingerprint(0xab).to_hex();
        assert_eq!(h.len(), 32);
        assert!(h.starts_with("000000"));
        assert!(h.ends_with("ab"));
    }
}
