//! Determinism claims of the experiment entry points: thread count must never change
//! results, only wall-clock — and neither may recording telemetry. Every
//! public entry point is run once with a disabled handle and once with an
//! enabled one, and the sweeps over experiments must log exactly their
//! points' experiment logs, concatenated.

use bolt::attacks::coresidency::{hunt, CoResidencyConfig};
use bolt::attacks::dos::{run_dos, DosRunConfig};
use bolt::attacks::rfa::run_rfa;
use bolt::experiment::{
    build_testbed, run_experiment, run_experiment_cache, run_experiment_cache_telemetry,
    ExperimentConfig, Testbed,
};
use bolt::fingerprint::{family_heatmap, population};
use bolt::parallel::{sweep, Parallelism};
use bolt::sensitivity::{adversary_size_sweep, benchmark_count_sweep, profiling_interval_sweep};
use bolt::{
    churn_sweep, run_isolation_study, run_region, run_service, run_user_study, BoltError, FitCache,
    RegionConfig, RetryPolicy, ServiceConfig, Telemetry, TelemetryLog, UserStudyConfig,
};
use bolt_sim::{
    ChaosConfig, Cluster, FaultPlan, IsolationConfig, LeastLoaded, ServerSpec, StormConfig,
};
use bolt_workloads::{catalog, PressureVector, Resource};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Each case runs three full experiments; keep the count small and
    // scale up via PROPTEST_CASES when hunting.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn thread_count_never_changes_experiment_records(
        seed in 0u64..1_000_000,
        servers in 4usize..7,
        victims in 6usize..10,
    ) {
        let config = |parallelism| ExperimentConfig {
            servers,
            victims,
            seed,
            parallelism,
            ..ExperimentConfig::default()
        };
        let serial = run_experiment(&config(Parallelism::Serial), &LeastLoaded, &FitCache::new(), &mut Telemetry::disabled())
            .expect("serial runs");
        let one = run_experiment(&config(Parallelism::Threads(1)), &LeastLoaded, &FitCache::new(), &mut Telemetry::disabled())
            .expect("1 thread runs");
        let two = run_experiment(&config(Parallelism::Threads(2)), &LeastLoaded, &FitCache::new(), &mut Telemetry::disabled())
            .expect("2 threads run");
        let eight = run_experiment(&config(Parallelism::Threads(8)), &LeastLoaded, &FitCache::new(), &mut Telemetry::disabled())
            .expect("8 threads run");
        prop_assert_eq!(&serial.records, &one.records);
        prop_assert_eq!(&serial.records, &two.records);
        prop_assert_eq!(&serial.records, &eight.records);
    }

    #[test]
    fn fit_cache_preserves_thread_count_invariance(
        seed in 0u64..1_000_000,
        servers in 4usize..7,
        victims in 6usize..10,
    ) {
        // With a shared cache (warm or cold), thread count must still
        // never change a byte: records, telemetry event streams, and the
        // cache's hit/miss accounting all have to match the serial run.
        let config = |parallelism| ExperimentConfig {
            servers,
            victims,
            seed,
            parallelism,
            ..ExperimentConfig::default()
        };
        let serial_cache = FitCache::new();
        let (serial, serial_log) =
            run_experiment_cache_telemetry(&config(Parallelism::Serial), &LeastLoaded, &serial_cache)
                .expect("serial runs");
        let threaded_cache = FitCache::new();
        let (threaded, threaded_log) =
            run_experiment_cache_telemetry(&config(Parallelism::Threads(3)), &LeastLoaded, &threaded_cache)
                .expect("3 threads run");
        prop_assert_eq!(&serial.records, &threaded.records);
        prop_assert_eq!(serial_log.normalized(), threaded_log.normalized());
        prop_assert_eq!(serial_cache.stats(), threaded_cache.stats());
        // A warm cache changes wall-clock only: re-running against the
        // already-populated serial cache reproduces the records again.
        let warm = run_experiment_cache(&config(Parallelism::Threads(2)), &LeastLoaded, &serial_cache)
            .expect("warm cache runs");
        prop_assert_eq!(&serial.records, &warm.records);
        prop_assert_eq!(serial_cache.stats().hits, 1);
        // Disabling the cache must not change results either.
        let uncached = run_experiment_cache(&config(Parallelism::Serial), &LeastLoaded, &FitCache::disabled())
            .expect("uncached runs");
        prop_assert_eq!(&serial.records, &uncached.records);
    }
}

proptest! {
    #[test]
    fn sweep_is_an_order_preserving_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..40),
        workers in 1usize..12,
    ) {
        let f = |idx: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ idx as u64;
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let threaded = sweep(&items, Parallelism::Threads(workers), f);
        prop_assert_eq!(serial, threaded);
    }
}

/// The small testbed every entry-point case below runs at.
fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        servers: 4,
        victims: 6,
        ..ExperimentConfig::default()
    }
}

/// A fitted testbed for the detector and attack cases.
fn testbed() -> Testbed {
    build_testbed(
        &tiny(),
        &LeastLoaded,
        &FitCache::new(),
        &mut Telemetry::disabled(),
    )
    .expect("testbed builds")
}

/// One collapsed entry point, run end to end against the handle it is
/// given. The result comes back rendered with `{:?}`: floats print as
/// shortest round-trip decimals, so equal strings mean equal bits.
type EntryPoint = fn(&mut Telemetry) -> String;

const ENTRY_POINTS: &[(&str, EntryPoint)] = &[
    ("run_experiment", |t| {
        let r = run_experiment(&tiny(), &LeastLoaded, &FitCache::new(), t);
        format!("{r:?}")
    }),
    ("build_testbed", |t| {
        let tb = build_testbed(&tiny(), &LeastLoaded, &FitCache::new(), t).unwrap();
        format!("{:?} {:?}", tb.adversaries, tb.victims)
    }),
    ("run_isolation_study", |t| {
        let base = ExperimentConfig {
            victims: 4,
            ..tiny()
        };
        format!("{:?}", run_isolation_study(&base, &FitCache::new(), t))
    }),
    ("run_user_study", |t| {
        let config = UserStudyConfig {
            instances: 6,
            jobs: 10,
            users: 3,
            ..UserStudyConfig::default()
        };
        format!("{:?}", run_user_study(&config, &FitCache::new(), t))
    }),
    ("churn_sweep", |t| {
        let r = churn_sweep(&tiny(), &LeastLoaded, &[0.0, 0.6], &FitCache::new(), t);
        format!("{r:?}")
    }),
    ("adversary_size_sweep", |t| {
        format!(
            "{:?}",
            adversary_size_sweep(&tiny(), &[2, 4], &FitCache::new(), t)
        )
    }),
    ("benchmark_count_sweep", |t| {
        format!(
            "{:?}",
            benchmark_count_sweep(&tiny(), &[1, 3], &FitCache::new(), t)
        )
    }),
    ("profiling_interval_sweep", |t| {
        let r = profiling_interval_sweep(
            &[30.0, 90.0],
            60.0,
            240.0,
            0xF16A,
            Parallelism::Threads(2),
            &FitCache::new(),
            t,
        );
        format!("{r:?}")
    }),
    ("run_service", |t| {
        let config = ServiceConfig {
            servers: 4,
            requests: 12,
            storm: StormConfig::with_intensity(0.5),
            chaos: ChaosConfig::with_intensity(0.3),
            ..ServiceConfig::default()
        };
        format!("{:?}", run_service(&config, &FitCache::new(), t))
    }),
    ("run_region", |t| {
        let config = RegionConfig {
            servers: 6,
            vms_per_server: 3,
            steps: 3,
            probes_per_step: 5,
            churn_per_step: 2,
            seed: 3,
        };
        // Wall-clock fields aside, the report is deterministic.
        let r = run_region(&config, t).unwrap();
        format!(
            "{} {} {} {} {:?}",
            r.servers, r.vms, r.steps, r.probes, r.storage
        )
    }),
    ("family_heatmap", |t| {
        let pop = population(120, 7);
        format!(
            "{:?}",
            family_heatmap(&pop, "memcached", Resource::L1i, Resource::Llc, 4, t)
        )
    }),
    ("run_dos", |t| {
        let mut tb = testbed();
        let (attacker, victim) = (tb.adversaries[0], tb.victims[0]);
        let attack = PressureVector::zero();
        let config = DosRunConfig {
            horizon_s: 40.0,
            ..DosRunConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_dos(
            &mut tb.cluster,
            attacker,
            victim,
            attack,
            &config,
            &mut rng,
            t,
        );
        format!("{r:?}")
    }),
    ("run_rfa", |t| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let victim = catalog::webserver::profile(&catalog::webserver::Variant::Dynamic, &mut rng);
        let mcf = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
        format!("{:?}", run_rfa(&mut cluster, 0, victim, mcf, &mut rng, t))
    }),
    ("coresidency::hunt", |t| {
        let mut tb = testbed();
        let config = CoResidencyConfig {
            probes: 3,
            ..CoResidencyConfig::default()
        };
        let target = tb.victims[0];
        let mut rng = StdRng::seed_from_u64(3);
        let r = hunt(
            &mut tb.cluster,
            &tb.detector,
            target,
            "memcached",
            &config,
            0.0,
            &mut rng,
            t,
        );
        format!("{r:?}")
    }),
    ("Detector::detect", |t| {
        let tb = testbed();
        let mut rng = StdRng::seed_from_u64(4);
        let d = tb
            .detector
            .detect(&tb.cluster, tb.adversaries[1], 30.0, None, &mut rng, t);
        format!("{d:?}")
    }),
    ("Detector::detect_churn", |t| {
        let mut tb = testbed();
        let mut plan = FaultPlan::compile(&ChaosConfig::with_intensity(0.8), 5, 0, 0.0, 2000.0);
        let mut rng = StdRng::seed_from_u64(5);
        let adversary = tb.adversaries[1];
        let d = tb.detector.detect_churn(
            &mut tb.cluster,
            &mut plan,
            0,
            adversary,
            30.0,
            None,
            &mut rng,
            t,
        );
        format!("{d:?}")
    }),
    ("Detector::hunt", |t| {
        let tb = testbed();
        let mut rng = StdRng::seed_from_u64(6);
        let r = tb
            .detector
            .hunt(&tb.cluster, tb.adversaries[2], 0.0, |_| false, &mut rng, t);
        format!("{r:?}")
    }),
    ("Detector::hunt_churn", |t| {
        let mut tb = testbed();
        let mut plan = FaultPlan::compile(&ChaosConfig::with_intensity(0.8), 7, 0, 0.0, 5000.0);
        let mut rng = StdRng::seed_from_u64(7);
        let adversary = tb.adversaries[2];
        let r = tb.detector.hunt_churn(
            &mut tb.cluster,
            &mut plan,
            &RetryPolicy::default(),
            adversary,
            0.0,
            |_| false,
            &mut rng,
            t,
        );
        format!("{r:?}")
    }),
];

#[test]
fn every_entry_point_returns_the_same_result_with_telemetry_on_or_off() {
    for (name, run) in ENTRY_POINTS {
        let off = run(&mut Telemetry::disabled());
        let mut on = Telemetry::for_unit(0);
        assert_eq!(off, run(&mut on), "{name}: recording changed the result");
        assert!(!off.contains("Err("), "{name} failed: {off}");
        assert!(!on.into_events().is_empty(), "{name} recorded nothing");
    }
}

/// A sweep over experiments, and the configurations of its points.
type ExperimentSweep = (
    &'static str,
    fn(&FitCache, &mut Telemetry) -> Result<(), BoltError>,
    fn() -> Vec<ExperimentConfig>,
);

const EXPERIMENT_SWEEPS: &[ExperimentSweep] = &[
    (
        "adversary_size_sweep",
        |cache, t| adversary_size_sweep(&tiny(), &[2, 4], cache, t).map(drop),
        || {
            [2, 4]
                .map(|adversary_vcpus| ExperimentConfig {
                    adversary_vcpus,
                    ..tiny()
                })
                .to_vec()
        },
    ),
    (
        "benchmark_count_sweep",
        |cache, t| benchmark_count_sweep(&tiny(), &[1, 3], cache, t).map(drop),
        || {
            [1, 3]
                .map(|initial_benchmarks| {
                    let mut config = tiny();
                    config.detector.profiler.initial_benchmarks = initial_benchmarks;
                    config
                })
                .to_vec()
        },
    ),
    (
        "churn_sweep",
        |cache, t| churn_sweep(&tiny(), &LeastLoaded, &[0.0, 0.6], cache, t).map(drop),
        || {
            [0.0, 0.6]
                .map(|intensity| ExperimentConfig {
                    chaos: ChaosConfig::with_intensity(intensity),
                    ..tiny()
                })
                .to_vec()
        },
    ),
];

#[test]
fn experiment_sweep_logs_are_their_points_logs_concatenated() {
    for (name, sweep, configs) in EXPERIMENT_SWEEPS {
        let (_, swept) = TelemetryLog::record(|t| sweep(&FitCache::new(), t)).unwrap();
        // Same cache history as the sweep: cold for the first point, warm
        // for the rest.
        let cache = FitCache::new();
        let mut points = Vec::new();
        for config in configs() {
            let (_, log) =
                TelemetryLog::record(|t| run_experiment(&config, &LeastLoaded, &cache, t)).unwrap();
            points.extend(log.into_events());
        }
        assert_eq!(
            swept.normalized(),
            TelemetryLog::from_events(points).normalized(),
            "{name}"
        );
    }
}
