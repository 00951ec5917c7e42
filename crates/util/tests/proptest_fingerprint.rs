//! `Fingerprint::of_parts` is `Fingerprint::of` of the concatenation,
//! wherever the bytes are split: the disk tier of `mbqc-service` names
//! and checks a key's files from the key's two parts, and those names
//! must match the ones hashed from the contiguous key bytes.

use mbqc_util::Fingerprint;
use proptest::prelude::*;

proptest! {
    #[test]
    fn of_parts_equals_of_the_concatenation_at_every_split(
        bytes in prop::collection::vec(0u8..=255, 0..41),
    ) {
        let whole = Fingerprint::of(&bytes);
        prop_assert_eq!(Fingerprint::of_parts(&[]), Fingerprint::of(&[]));
        for i in 0..=bytes.len() {
            let (x, rest) = bytes.split_at(i);
            prop_assert_eq!(Fingerprint::of_parts(&[x, rest]), whole, "split at {}", i);
            // Three parts: the middle one can sit inside a single
            // 8-byte chunk, or be empty.
            for j in 0..=rest.len() {
                let (y, z) = rest.split_at(j);
                prop_assert_eq!(
                    Fingerprint::of_parts(&[x, y, z]),
                    whole,
                    "split at {} and {}",
                    i,
                    i + j
                );
            }
        }
    }
}
