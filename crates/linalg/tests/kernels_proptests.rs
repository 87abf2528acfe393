//! Bit-exactness property tests for the unrolled kernels.
//!
//! Every kernel in `bolt_linalg::kernels` must return the *identical bits*
//! its naive scalar reference produces, across random lengths — including
//! the sub-4-element tails the unrolled blocks special-case — and random
//! magnitudes/signs (reassociation bugs show up as low-order-bit drift on
//! mixed-sign sums).

use bolt_linalg::kernels::{self, reference};
use proptest::prelude::*;

/// Value strategy with mixed signs and magnitudes (pressure-like values,
/// small weights, and negatives).
fn val() -> impl Strategy<Value = f64> {
    (any::<u8>(), -100.0f64..100.0).prop_map(|(sel, v)| match sel % 4 {
        0 => v,
        1 => v / 100.0,
        2 => 0.0,
        _ => -0.0,
    })
}

/// One random-length vector (0..=67 covers empty, tails of every phase,
/// and multi-block lengths).
fn vector() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(val(), 0..=67)
}

/// Two equal-length random vectors.
fn pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=67).prop_flat_map(|n| {
        (
            proptest::collection::vec(val(), n),
            proptest::collection::vec(val(), n),
        )
    })
}

/// Three equal-length random vectors (series, series, weights).
fn triple() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (0usize..=67).prop_flat_map(|n| {
        (
            proptest::collection::vec(val(), n),
            proptest::collection::vec(val(), n),
            proptest::collection::vec(0.0f64..10.0, n),
        )
    })
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

proptest! {
    #[test]
    fn dot_matches_reference_bitwise((a, b) in pair()) {
        prop_assert_eq!(bits(kernels::dot(&a, &b)), bits(reference::dot(&a, &b)));
    }

    #[test]
    fn sq_norm_matches_reference_bitwise(a in vector()) {
        prop_assert_eq!(bits(kernels::sq_norm(&a)), bits(reference::sq_norm(&a)));
    }

    #[test]
    fn axpy_matches_reference_bitwise((y0, x) in pair(), a in val()) {
        let mut y1 = y0.clone();
        let mut y2 = y0;
        kernels::axpy(&mut y1, a, &x);
        reference::axpy(&mut y2, a, &x);
        prop_assert_eq!(
            y1.iter().map(|v| bits(*v)).collect::<Vec<_>>(),
            y2.iter().map(|v| bits(*v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sgd_step_matches_reference_bitwise(
        (p0, q0) in pair(),
        err in -5.0f64..5.0,
        lr in 0.0001f64..0.1,
        reg in 0.0f64..0.1,
    ) {
        let (mut p1, mut q1) = (p0.clone(), q0.clone());
        let (mut p2, mut q2) = (p0, q0);
        kernels::sgd_step(&mut p1, &mut q1, err, lr, reg);
        reference::sgd_step(&mut p2, &mut q2, err, lr, reg);
        prop_assert_eq!(
            p1.iter().chain(&q1).map(|v| bits(*v)).collect::<Vec<_>>(),
            p2.iter().chain(&q2).map(|v| bits(*v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fold_step_matches_reference_bitwise(
        (p0, q) in pair(),
        err in -5.0f64..5.0,
        lr in 0.0001f64..0.1,
        reg in 0.0f64..0.1,
    ) {
        let mut p1 = p0.clone();
        let mut p2 = p0;
        kernels::fold_step(&mut p1, &q, err, lr, reg);
        reference::fold_step(&mut p2, &q, err, lr, reg);
        prop_assert_eq!(
            p1.iter().map(|v| bits(*v)).collect::<Vec<_>>(),
            p2.iter().map(|v| bits(*v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn weighted_sums_match_reference_bitwise((xs, ys, ws) in triple()) {
        let (w1, s1) = kernels::weighted_sum(&xs, &ws);
        let (w2, s2) = reference::weighted_sum(&xs, &ws);
        prop_assert_eq!(bits(w1), bits(w2));
        prop_assert_eq!(bits(s1), bits(s2));

        let (wa, sxa, sya) = kernels::weighted_sums2(&xs, &ys, &ws);
        let (wb, sxb, syb) = reference::weighted_sums2(&xs, &ys, &ws);
        prop_assert_eq!(bits(wa), bits(wb));
        prop_assert_eq!(bits(sxa), bits(sxb));
        prop_assert_eq!(bits(sya), bits(syb));
    }

    #[test]
    fn weighted_moments_match_reference_bitwise(
        (xs, ys, ws) in triple(),
        mx in -50.0f64..50.0,
        my in -50.0f64..50.0,
    ) {
        prop_assert_eq!(
            bits(kernels::weighted_comoment(&xs, &ys, &ws, mx, my)),
            bits(reference::weighted_comoment(&xs, &ys, &ws, mx, my))
        );
        let (a1, b1, c1) = kernels::weighted_moments(&xs, &ys, &ws, mx, my);
        let (a2, b2, c2) = reference::weighted_moments(&xs, &ys, &ws, mx, my);
        prop_assert_eq!(bits(a1), bits(a2));
        prop_assert_eq!(bits(b1), bits(b2));
        prop_assert_eq!(bits(c1), bits(c2));
    }

    #[test]
    fn sat_accum_and_scale_match_reference_bitwise(
        n in 0usize..=16,
        factor in 1.0f64..2.0,
        seedv in proptest::collection::vec((0.0f64..120.0, 0.0f64..120.0, 0.0f64..1.5), 0..=16),
    ) {
        let take = seedv.into_iter().take(n).collect::<Vec<_>>();
        let t0: Vec<f64> = take.iter().map(|v| v.0).collect();
        let p: Vec<f64> = take.iter().map(|v| v.1).collect();
        let s: Vec<f64> = take.iter().map(|v| v.2).collect();
        let mut t1 = t0.clone();
        let mut t2 = t0;
        kernels::sat_accum(&mut t1, &p, &s, 100.0);
        reference::sat_accum(&mut t2, &p, &s, 100.0);
        prop_assert_eq!(
            t1.iter().map(|v| bits(*v)).collect::<Vec<_>>(),
            t2.iter().map(|v| bits(*v)).collect::<Vec<_>>()
        );
        kernels::sat_scale(&mut t1, factor, 100.0);
        reference::sat_scale(&mut t2, factor, 100.0);
        prop_assert_eq!(
            t1.iter().map(|v| bits(*v)).collect::<Vec<_>>(),
            t2.iter().map(|v| bits(*v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wdot3_matches_reference_bitwise((x, y, w) in triple()) {
        prop_assert_eq!(
            bits(kernels::wdot3(&w, &x, &y)),
            bits(reference::wdot3(&w, &x, &y))
        );
    }

    #[test]
    fn wdot3_masked_matches_reference_bitwise(
        (x, y, w) in triple(),
        maskseed in proptest::collection::vec(any::<bool>(), 0..=67),
    ) {
        let skip: Vec<bool> = (0..w.len())
            .map(|i| maskseed.get(i).copied().unwrap_or(false))
            .collect();
        prop_assert_eq!(
            bits(kernels::wdot3_masked(&w, &x, &y, &skip)),
            bits(reference::wdot3_masked(&w, &x, &y, &skip))
        );
        // No-mask dispatch must equal the unmasked kernel exactly.
        let none = vec![false; w.len()];
        prop_assert_eq!(
            bits(kernels::wdot3_masked(&w, &x, &y, &none)),
            bits(kernels::wdot3(&w, &x, &y))
        );
    }

    #[test]
    fn strided_kernels_match_reference_bitwise(
        (rows, stride) in (0usize..=12, 1usize..=7),
        seedv in proptest::collection::vec(-100.0f64..100.0, 0..=84),
        c in 0.1f64..1.0,
    ) {
        let mut data: Vec<f64> = seedv.into_iter().take(rows * stride).collect();
        prop_assume!(data.len() == rows * stride);
        let p = 0;
        let q = stride - 1;
        let (a1, b1, g1) = kernels::gram_strided(&data, stride, p, q);
        let (a2, b2, g2) = reference::gram_strided(&data, stride, p, q);
        prop_assert_eq!(bits(a1), bits(a2));
        prop_assert_eq!(bits(b1), bits(b2));
        prop_assert_eq!(bits(g1), bits(g2));

        prop_assert_eq!(
            bits(kernels::col_sq_norm_strided(&data, stride, q)),
            bits(reference::col_sq_norm_strided(&data, stride, q))
        );

        let s = (1.0 - c * c).sqrt();
        let mut other = data.clone();
        kernels::rotate_pair_strided(&mut data, stride, p, q, c, s);
        reference::rotate_pair_strided(&mut other, stride, p, q, c, s);
        prop_assert_eq!(
            data.iter().map(|v| bits(*v)).collect::<Vec<_>>(),
            other.iter().map(|v| bits(*v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dot_agrees_with_iterator_sum_bitwise((a, b) in pair()) {
        // The ultimate contract: the kernel is indistinguishable from the
        // `.sum()` chain the production code used before the rewrite.
        let via_sum: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert_eq!(bits(kernels::dot(&a, &b)), bits(via_sum));
    }
}
