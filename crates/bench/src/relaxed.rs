//! The lane-parallel dot product the bit-exact library kernels are
//! measured against.
//!
//! Four independent lane accumulators combined `(l0 + l1) + (l2 + l3)`
//! break the add dependency chain — the hardware-limit shape on long
//! inputs — but round differently from the scalar left-to-right fold, so
//! no production path in the workspace may use it (DESIGN.md "Kernel
//! determinism policy"). It lives here, beside the `kernels_scale` and
//! `crit_kernels` benches that report it as a datapoint.

/// Relaxed dot product: four lane accumulators, combined
/// `(l0 + l1) + (l2 + l3)`, then a sequential tail.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_relaxed(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_relaxed: length mismatch");
    let split = a.len() - (a.len() % 4);
    let (ah, at) = a.split_at(split);
    let (bh, bt) = b.split_at(split);
    let mut l = [0.0f64; 4];
    for (xa, xb) in ah.chunks_exact(4).zip(bh.chunks_exact(4)) {
        l[0] += xa[0] * xb[0];
        l[1] += xa[1] * xb[1];
        l[2] += xa[2] * xb[2];
        l[3] += xa[3] * xb[3];
    }
    let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
    for (x, y) in at.iter().zip(bt) {
        acc += x * y;
    }
    acc
}

/// Scalar replica of [`dot_relaxed`]'s accumulation tree, in the indexed
/// style: the ground truth its property test compares against.
///
/// # Panics
///
/// Panics if the slices differ in length.
// Kept in indexed style so it reads as the lane tree it replicates.
#[allow(clippy::needless_range_loop)]
pub fn dot_blocked(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_blocked: length mismatch");
    let split = a.len() - (a.len() % 4);
    let mut l = [0.0f64; 4];
    for i in (0..split).step_by(4) {
        for lane in 0..4 {
            l[lane] += a[i + lane] * b[i + lane];
        }
    }
    let mut acc = (l[0] + l[1]) + (l[2] + l[3]);
    for i in split..a.len() {
        acc += a[i] * b[i];
    }
    acc
}
