//! The relaxed dot product must reproduce its scalar blocked replica to
//! the bit, across random lengths (every sub-4 tail phase included) and
//! mixed signs and magnitudes.

use bolt_bench::relaxed::{dot_blocked, dot_relaxed};
use proptest::prelude::*;

/// Mixed signs and magnitudes, with explicit signed zeros.
fn val() -> impl Strategy<Value = f64> {
    (any::<u8>(), -100.0f64..100.0).prop_map(|(sel, v)| match sel % 4 {
        0 => v,
        1 => v / 100.0,
        2 => 0.0,
        _ => -0.0,
    })
}

/// Two equal-length random vectors (0..=67 elements).
fn pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=67).prop_flat_map(|n| {
        (
            proptest::collection::vec(val(), n),
            proptest::collection::vec(val(), n),
        )
    })
}

proptest! {
    #[test]
    fn dot_relaxed_matches_blocked_reference((a, b) in pair()) {
        prop_assert_eq!(dot_relaxed(&a, &b).to_bits(), dot_blocked(&a, &b).to_bits());
    }
}
