//! Kernel scaling curve: scalar reference vs unrolled kernels across
//! input sizes.
//!
//! Not a paper figure — this pins the hardware-limit kernel pass (see
//! `DESIGN.md` § "Kernel determinism policy"): the bit-exact unrolled
//! dot product must beat the naive indexed scalar loop once inputs are
//! long enough to amortize the block setup, with the relaxed 4-lane
//! variant as the ceiling reference. Sizes cover the spectrum production
//! paths see: PQ factor rows (~8–10), pressure series (~64), and 1k/64k
//! where the ceiling shifts from issue width to memory bandwidth.
//!
//! The `speedup` columns are wall-clock ratios (scalar time / kernel
//! time), so >1.0 means the kernel wins. Every column but `n` varies run
//! to run, so the table goes to stdout only and no CSV is written; the
//! shape is the claim: the lane-parallel unrolled kernel
//! (`dot_relaxed`) reaches ≥1.5× scalar at 1k elements. The bit-exact
//! kernel cannot beat scalar on a *pure* dot at that size — a bit-exact
//! sum is latency-bound on its sequential add chain by definition — so
//! its wins come from eliminated bounds checks at small n, multiply
//! scheduling at 64k, and pass fusion at the production call sites.

use std::hint::black_box;
use std::time::Instant;

use bolt::report::Table;
use bolt_bench::relaxed::dot_relaxed;
use bolt_bench::show;
use bolt_linalg::kernels::{self, reference};

/// Deterministic sign/magnitude-mixed series (no RNG: identical data
/// every run, so timing deltas are kernel deltas).
fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as f64).mul_add(0.618_033_988_749, 0.25);
            (x - x.floor() - 0.5) * 100.0
        })
        .collect()
}

/// Median-of-5 wall-clock (ns) for `iters` calls of `f`.
fn time_ns<F: FnMut() -> f64>(iters: usize, mut f: F) -> f64 {
    let mut samples = [0.0f64; 5];
    for s in &mut samples {
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..iters {
            acc += f();
        }
        black_box(acc);
        *s = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

fn main() {
    let sizes = [8usize, 64, 1024, 65_536];
    eprintln!("timing dot kernels at {} sizes...", sizes.len());

    let mut table = Table::new(vec![
        "n",
        "scalar_ns",
        "bitexact_ns",
        "relaxed_ns",
        "bitexact_speedup",
        "relaxed_speedup",
    ]);
    let mut at_1k = (0.0, 0.0);
    for &n in &sizes {
        let a = series(n);
        let b = series(n + 1)[1..].to_vec();
        // Scale iteration count down as n grows: ~constant work per size.
        let iters = (4_000_000 / n.max(1)).clamp(200, 400_000);
        let scalar = time_ns(iters, || reference::dot(black_box(&a), black_box(&b)));
        let bitexact = time_ns(iters, || kernels::dot(black_box(&a), black_box(&b)));
        let relaxed = time_ns(iters, || dot_relaxed(black_box(&a), black_box(&b)));
        let bx_speedup = scalar / bitexact;
        let rx_speedup = scalar / relaxed;
        if n == 1024 {
            at_1k = (bx_speedup, rx_speedup);
        }
        table.row(vec![
            n.to_string(),
            format!("{scalar:.1}"),
            format!("{bitexact:.1}"),
            format!("{relaxed:.1}"),
            format!("{bx_speedup:.2}"),
            format!("{rx_speedup:.2}"),
        ]);
    }
    show(
        "kernels_scale",
        "unrolled kernels reach >=1.5x the naive scalar loop at 1k elements",
        &table,
    );
    println!(
        "1k-element speedup: bitexact {:.2}x, unrolled-relaxed {:.2}x ({})",
        at_1k.0,
        at_1k.1,
        if at_1k.1 >= 1.5 {
            "meets 1.5x target"
        } else {
            "below 1.5x target"
        }
    );
}
