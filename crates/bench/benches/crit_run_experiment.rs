//! Criterion bench for the parallel experiment engine: the Table 1
//! harness (a small controlled experiment) at `Parallelism::Serial`
//! versus `Parallelism::Auto`. Per-victim RNG derivation makes the two
//! configurations produce byte-identical records (property-tested in
//! `crates/core/tests/parallel_determinism.rs`), so any wall-clock gap is
//! pure scheduling win.
//!
//! The `run_experiment_serial_telemetry_off` case runs the telemetry-
//! aware entry point with recording disabled; comparing it against
//! `run_experiment_serial` measures the overhead of the disabled
//! telemetry path (required: within 2%). `_telemetry_on` bounds the cost
//! of full recording.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bolt::experiment::{run_experiment, run_experiment_cache_telemetry, ExperimentConfig};
use bolt::parallel::Parallelism;
use bolt::{FitCache, Telemetry};
use bolt_sim::LeastLoaded;

fn config(parallelism: Parallelism) -> ExperimentConfig {
    ExperimentConfig {
        servers: 8,
        victims: 16,
        parallelism,
        ..ExperimentConfig::default()
    }
}

fn bench_run_experiment(c: &mut Criterion) {
    c.sample_size(10);
    c.bench_function("run_experiment_serial", |b| {
        let cfg = config(Parallelism::Serial);
        b.iter(|| {
            let r = run_experiment(
                black_box(&cfg),
                &LeastLoaded,
                &FitCache::new(),
                &mut Telemetry::disabled(),
            )
            .expect("experiment runs");
            black_box(r.records.len())
        })
    });
    c.bench_function("run_experiment_auto", |b| {
        let cfg = config(Parallelism::Auto);
        b.iter(|| {
            let r = run_experiment(
                black_box(&cfg),
                &LeastLoaded,
                &FitCache::new(),
                &mut Telemetry::disabled(),
            )
            .expect("experiment runs");
            black_box(r.records.len())
        })
    });
    c.bench_function("run_experiment_serial_telemetry_off", |b| {
        // `run_experiment` with a disabled handle IS the telemetry-off
        // path; benched under its own name so the disabled overhead is
        // visible as serial-vs-this in the same report.
        let cfg = config(Parallelism::Serial);
        b.iter(|| {
            let r = run_experiment(
                black_box(&cfg),
                &LeastLoaded,
                &FitCache::new(),
                &mut Telemetry::disabled(),
            )
            .expect("experiment runs");
            black_box(r.records.len())
        })
    });
    c.bench_function("run_experiment_serial_telemetry_on", |b| {
        let cfg = config(Parallelism::Serial);
        b.iter(|| {
            let (r, log) =
                run_experiment_cache_telemetry(black_box(&cfg), &LeastLoaded, &FitCache::new())
                    .expect("experiment runs");
            black_box((r.records.len(), log.len()))
        })
    });
}

criterion_group!(benches, bench_run_experiment);
criterion_main!(benches);
