//! A pattern's cached encodings: [`Pattern::wire_bytes`] and
//! [`Pattern::content_bytes`] are computed once per value and shared by
//! its clones, so they must equal a fresh encode of every random
//! pattern, be one buffer across clones made before and after first
//! use, and stay invisible to `==` and `Debug`.

use std::sync::Arc;

use mbqc_circuit::Circuit;
use mbqc_pattern::transpile::transpile;
use mbqc_pattern::Pattern;
use mbqc_util::Encoder;
use proptest::prelude::*;

/// A random circuit over `qubits` wires: `ops` picks each gate, and
/// `args` its wires and angle.
fn random_pattern(qubits: usize, ops: &[u8], args: &[u64]) -> Pattern {
    let mut c = Circuit::new(qubits);
    for (k, &op) in ops.iter().enumerate() {
        let arg = args[k % args.len()];
        let a = (arg % qubits as u64) as usize;
        let b = (a + 1 + (arg / 7 % (qubits as u64 - 1)) as usize) % qubits;
        let theta = (arg % 1000) as f64 / 1000.0 * std::f64::consts::TAU;
        match op % 6 {
            0 => c.h(a),
            1 => c.t(a),
            2 => c.rz(a, theta),
            3 => c.cz(a, b),
            4 => c.cnot(a, b),
            _ => c.rzz(a, b, theta),
        };
    }
    transpile(&c)
}

/// Fresh encodings, bypassing every cache.
fn fresh_wire(p: &Pattern) -> Vec<u8> {
    let mut e = Encoder::with_capacity(p.encoded_len());
    p.encode(&mut e);
    e.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_encodings_are_fresh_encodings_shared_by_clones(
        qubits in 2usize..7,
        ops in prop::collection::vec(0u8..=255, 0..40),
        args in prop::collection::vec(0u64..1_000_000, 1..8),
    ) {
        let p = random_pattern(qubits, &ops, &args);
        let before = p.clone();
        // Equality and Debug ignore the cache: the value is unchanged
        // by first use, and an equal value built afresh has none.
        let twin = random_pattern(qubits, &ops, &args);
        let debug = format!("{p:?}");

        let wire = p.wire_bytes();
        let (fresh, to_bytes) = (fresh_wire(&p), p.to_bytes());
        prop_assert_eq!(wire, fresh.as_slice());
        prop_assert_eq!(wire, to_bytes.as_slice());
        prop_assert_eq!(Pattern::from_bytes(wire), Ok(p.clone()));
        let after = p.clone();
        for clone in [&before, &after] {
            prop_assert!(std::ptr::eq(clone.wire_bytes(), wire), "one wire buffer");
        }
        prop_assert!(!std::ptr::eq(twin.wire_bytes(), wire), "per value");
        prop_assert_eq!(twin.wire_bytes(), wire);

        let content = after.content_bytes();
        prop_assert!(Arc::ptr_eq(&before.content_bytes(), &content), "one content buffer");
        prop_assert!(Arc::ptr_eq(&p.content_bytes(), &content));
        prop_assert_eq!(&content, &twin.content_bytes());
        prop_assert_eq!(content.len(), content.capacity());

        prop_assert_eq!(&p, &twin);
        prop_assert_eq!(&before, &after);
        prop_assert_eq!(format!("{p:?}"), debug.clone());
        prop_assert_eq!(format!("{twin:?}"), debug);
    }
}
