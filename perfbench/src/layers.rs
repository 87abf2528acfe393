//! The traced run: per-layer numbers for every module, attributed from
//! outside the program in two ways. It reads the spans and counters the
//! program already emits, and it times its own calls into each layer's
//! public functions on inputs sized to the workload. It adds no spans
//! inside the program.
//!
//! Span self times come from `Serial` calls, where a call's wall time is
//! the sum of its layers' self times; `Threads(2)` twins of the same
//! inputs give the lane speed-up and must return identical outputs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bolt::experiment::{build_testbed_cache, shared_recommender};
use bolt::{
    compile_trace, BoltError, Counter, Detector, Parallelism, Phase, Telemetry, TelemetryLog,
};
use bolt_linalg::svd::Svd;
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, FaultPlan, LeastLoaded, ServerSpec, StormPlan, SweepMemo, VmId};
use bolt_workloads::catalog::{memcached, spark, speccpu};
use bolt_workloads::{DatasetScale, LoadPattern, PressureVector, Resource, WorkloadProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, Ratio, SpanTimes};
use crate::{Call, Inputs, Metric, Output, RunResult, Setup, Tally, THREADS};

/// Which end-to-end metric each layer should move, on which workload —
/// written down before any change is measured against it.
pub const PREDICTIONS: [(&str, &str); 9] = [
    (
        "bolt::service",
        "request_host_ms_* on region-serve and region-serve-churn",
    ),
    ("bolt::parallel", "ops_per_s on region-serve"),
    (
        "bolt-sim storage/snapshot",
        "ops_per_s, request_host_ms_*, peak_rss_mb on region-serve; ops_per_s on \
         region-serve-churn (write path); nothing on detect-batch",
    ),
    ("bolt-sim::chaos", "request_host_ms_* on region-serve-churn"),
    (
        "bolt-probes",
        "ops_per_s on region-serve-churn and detect-batch",
    ),
    ("bolt::detector / anytime", "ops_per_s on every workload"),
    (
        "bolt-recommender",
        "fit: setup_s on every workload; decompose/completion/content match: ops_per_s on \
         detect-batch",
    ),
    ("bolt-linalg", "ops_per_s on detect-batch"),
    ("trace", "nothing: the cost of the traced run itself"),
];

/// Repetitions of each outside-in micro-timer; its median is reported.
const TIMER_REPS: usize = 15;
/// Requests (or victims) replayed as outside-in hunts for the storage
/// counters.
const HUNT_SAMPLE: usize = 24;

/// Median wall milliseconds of `reps` runs of `f`, after three untimed
/// warm-up runs.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// A cluster shaped like the workload's, built from public catalog
/// profiles, with the adversary VM on each server.
struct ShapedCluster {
    cluster: Cluster,
    adversaries: Vec<VmId>,
}

/// Builds the service's region shape: one quiet adversary per server and
/// `vms_per_server` zero-noise steady tenants each, rotating through the
/// region catalog's four families.
fn region_cluster(
    servers: usize,
    vms_per_server: usize,
    seed: u64,
) -> Result<ShapedCluster, BoltError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = Cluster::new(
        servers,
        ServerSpec::xeon(),
        bolt_sim::IsolationConfig::cloud_default(),
    )?;
    let mut adversaries = Vec::with_capacity(servers);
    for s in 0..servers {
        let profile = memcached::profile(&memcached::Variant::Mixed, &mut rng).with_vcpus(4);
        let id = cluster.launch_on(s, profile, VmRole::Adversarial, 0.0)?;
        cluster.set_pressure_override(id, Some(PressureVector::zero()))?;
        adversaries.push(id);
    }
    let core_iso = cluster.isolation().mechanisms.core_isolation;
    for i in 0..servers * vms_per_server {
        let profile: WorkloadProfile = match i % 4 {
            0 => memcached::profile(&memcached::Variant::Mixed, &mut rng),
            1 => speccpu::profile(&speccpu::Benchmark::Gobmk, &mut rng),
            2 => spark::profile(&spark::Algorithm::KMeans, DatasetScale::Small, &mut rng),
            _ => memcached::profile(&memcached::Variant::ReadHeavyKb, &mut rng),
        };
        let profile = profile
            .with_noise(0.0)
            .with_vcpus(1)
            .with_load(LoadPattern::steady());
        let server = i % servers;
        if cluster.server(server)?.can_host(profile.vcpus(), core_iso) {
            cluster.launch_on(server, profile, VmRole::Friendly, 0.0)?;
        }
    }
    Ok(ShapedCluster {
        cluster,
        adversaries,
    })
}

/// Span- and counter-derived numbers of one call, per call.
struct CallLayers {
    wall_ms: f64,
    spans: SpanTimes,
    log: TelemetryLog,
}

impl CallLayers {
    fn of(call: &Call) -> CallLayers {
        CallLayers {
            wall_ms: call.wall_s * 1e3,
            spans: SpanTimes::from_events(call.log.events()),
            log: call.log.clone(),
        }
    }

    fn counter(&self, c: Counter) -> f64 {
        self.log.counter_total(c) as f64
    }
}

/// Median over calls of `f`.
fn med(calls: &[CallLayers], f: impl Fn(&CallLayers) -> f64) -> f64 {
    median(&calls.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: `Threads(2)` and `Serial` calls of the
/// same inputs alternate for `seconds` (plus the untraced batch entry
/// point on `detect-batch`), then the outside-in layer timers run.
pub fn traced(panel: Vec<Inputs>, seconds: f64) -> Result<RunResult, BoltError> {
    // One input draw: the traced run attributes time, it does not average
    // over draws.
    let mut setup = Setup::run(panel.into_iter().take(1).collect())?;
    let inputs = setup.cases[0].inputs.clone();
    let threads = Parallelism::Threads(THREADS);
    let mut tally = Tally::default();
    tally.call(
        "warm-up call",
        &mut setup.cases[0],
        threads,
        &setup.cache,
        true,
    );

    let mut serial_calls = Vec::new();
    let mut threaded_calls = Vec::new();
    let mut untraced_ms = Vec::new();
    let started = Instant::now();
    for n in 1.. {
        if !serial_calls.is_empty() && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let case = &mut setup.cases[0];
        if let Some(call) = tally.call(&format!("call {n}"), case, threads, &setup.cache, true) {
            threaded_calls.push(CallLayers::of(&call));
        }
        // The lane-invariance contract: the Serial twin must return the
        // identical output (checked against the same reference).
        let what = format!("serial twin {n}");
        if let Some(call) = tally.call(&what, case, Parallelism::Serial, &setup.cache, true) {
            serial_calls.push(CallLayers::of(&call));
        }
        if matches!(inputs, Inputs::Detect(_)) {
            let what = format!("untraced call {n}");
            if let Some(call) = tally.call(&what, case, threads, &setup.cache, false) {
                untraced_ms.push(call.wall_s * 1e3);
            }
        }
        if serial_calls.is_empty() && threaded_calls.is_empty() {
            break;
        }
    }
    if serial_calls.is_empty() || threaded_calls.is_empty() {
        return Err(BoltError::InvalidExperiment {
            reason: "no traced call succeeded".to_string(),
        });
    }
    let fit_cache = setup.cache.stats();

    // Outside-in timers, sized to the workload. `targets` lists the
    // (adversary, start time) of the hunts a call makes, in call order.
    let (training_seed, isolation, recommender) = inputs.fit_inputs();
    let model = shared_recommender(
        training_seed,
        &isolation,
        recommender,
        &setup.cache,
        &mut Telemetry::disabled(),
    )?;
    let (shaped, detector, targets, build_ms, plan_us, storm_us, trace_ms) = match &inputs {
        Inputs::Serve(c) => {
            let shaped = region_cluster(c.servers, c.vms_per_server, c.seed)?;
            let build_ms = time_ms(3, || region_cluster(c.servers, c.vms_per_server, c.seed));
            let horizon_s =
                c.detector.max_iterations.max(1) as f64 * (c.detector.interval_s + 120.0) + 600.0;
            let mut unit = 0u64;
            let plan_us = 1e3
                * time_ms(TIMER_REPS * 20, || {
                    unit += 1;
                    FaultPlan::compile(&c.chaos, c.seed, unit, 60.0 * unit as f64, horizon_s)
                });
            let service_horizon_s = c.requests as f64 * 60.0 / c.arrival_rate_per_min + 120.0;
            let storm_us = 1e3
                * time_ms(TIMER_REPS * 20, || {
                    StormPlan::compile(&c.storm, c.seed, service_horizon_s)
                });
            let trace_ms = time_ms(TIMER_REPS, || compile_trace(c));
            let targets: Vec<(VmId, f64)> = compile_trace(c)
                .iter()
                .map(|r| (shaped.adversaries[r.target_server], r.arrival_s))
                .collect();
            let detector = Detector::new(Arc::clone(&model), c.detector);
            let shaped = shaped.cluster;
            (
                shaped, detector, targets, build_ms, plan_us, storm_us, trace_ms,
            )
        }
        Inputs::Detect(c) => {
            let build_ms = time_ms(TIMER_REPS, || {
                build_testbed_cache(c, &LeastLoaded, &setup.cache)
            });
            let testbed = build_testbed_cache(c, &LeastLoaded, &setup.cache)?;
            // Chaos-off batch hunts compile no fault plan; the timer runs
            // the workload's own (empty) chaos config all the same.
            let plan_us = 1e3
                * time_ms(TIMER_REPS * 20, || {
                    FaultPlan::compile(&c.chaos, c.seed, 0, 0.0, 1200.0)
                });
            let mut targets = Vec::with_capacity(testbed.victims.len());
            for (i, &victim) in testbed.victims.iter().enumerate() {
                let server = testbed.cluster.vm(victim)?.server;
                targets.push((testbed.adversaries[server], i as f64));
            }
            let shaped = testbed.cluster;
            (
                shaped,
                testbed.detector,
                targets,
                build_ms,
                plan_us,
                0.0,
                0.0,
            )
        }
    };
    let snapshot_ms = time_ms(TIMER_REPS, || shaped.snapshot());

    // Storage-layer locality and caching, as hunts see it: sampled hunts
    // on per-hunt snapshots of the shaped cluster, each inheriting one
    // shared sweep memo as the service's snapshots do.
    let accept_at = match &inputs {
        Inputs::Serve(c) => c.detector.confidence_threshold,
        Inputs::Detect(_) => f64::INFINITY,
    };
    let mut base = shaped.snapshot();
    base.share_sweeps(Arc::new(SweepMemo::new()));
    let mut rng = StdRng::seed_from_u64(0);
    let (mut agg_hits, mut agg_misses, mut visits) = (0u64, 0u64, 0u64);
    let sampled = targets.len().min(HUNT_SAMPLE);
    for &(adversary, t) in &targets[..sampled] {
        let live = base.snapshot();
        detector.detect_until(&live, adversary, t, |d| d.confidence >= accept_at, &mut rng)?;
        let storage = live.storage_stats();
        agg_hits += storage.agg_hits;
        agg_misses += storage.agg_misses;
        visits += storage.neighbor_visits;
    }

    // Recommender and linalg kernels on the workload's fitted model.
    let svd_us = 1e3 * time_ms(TIMER_REPS, || Svd::compute(model.training_data().matrix()));
    let (a, b) = (
        model.training_data().example(3).pressure,
        model.training_data().example(47).pressure,
    );
    let observation: Vec<(Resource, f64)> = Resource::ALL
        .iter()
        .map(|&r| (r, (0.9 * a[r] + 0.6 * b[r]).min(100.0)))
        .collect();
    let pursuit_us = 1e3
        * time_ms(TIMER_REPS * 10, || {
            model.decompose_mixture(black_box(&observation), &[], 2)
        });

    // Span-derived numbers (Serial calls) and lane numbers.
    let s = &serial_calls;
    let serial_ms = med(s, |c| c.wall_ms);
    let threaded_ms = med(&threaded_calls, |c| c.wall_ms);
    let imbalance = med(&threaded_calls, |c| {
        let busy: Vec<f64> = c
            .spans
            .unit_busy_ns
            .iter()
            .filter(|(&u, _)| u > 0)
            .map(|(_, &ns)| ns as f64)
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        Ratio::new(busy.iter().copied().fold(0.0, f64::max), mean).value()
    });
    let request_ms = med(s, |c| c.spans.total_ms(Phase::ServiceRequest));
    let request_self_ms = med(s, |c| c.spans.self_ms(Phase::ServiceRequest));
    let hunts = med(s, |c| c.spans.hunts as f64);
    let sweeps = med(s, |c| c.spans.count(Phase::ProbeSweep) as f64);
    let shared = med(s, |c| c.counter(Counter::SweepsShared));
    let ops = match setup.cases[0].reference.as_ref().expect("a call succeeded") {
        Output::Serve(r) => r.offered as f64,
        Output::Detect(r) => r.records.len() as f64,
    };
    let samples = med(s, |c| c.counter(Counter::ProbeSamples));
    let shortlist = med(s, |c| c.counter(Counter::ShortlistPairHits));
    let exact = med(s, |c| c.counter(Counter::ExactPairSearches));
    let overhead = if untraced_ms.is_empty() {
        Ratio::new(0.0, 1.0)
    } else {
        let untraced = median(&untraced_ms);
        Ratio::new(threaded_ms - untraced, untraced)
    };

    // Attribution of the Serial call wall, by layer self time. The
    // remainder is the time no span covers.
    let self_of = |phases: &[Phase]| med(s, |c| phases.iter().map(|&p| c.spans.self_ms(p)).sum());
    let rows: Vec<(&str, f64)> = vec![
        ("bolt::service", request_self_ms),
        ("bolt::detector", self_of(&[Phase::DetectionIteration])),
        ("bolt::anytime", self_of(&[Phase::AnytimeDeepen])),
        (
            "bolt-probes",
            self_of(&[Phase::ProbeSweep, Phase::ShutterCapture, Phase::MrcSweep]),
        ),
        (
            "bolt-recommender decompose",
            self_of(&[Phase::Decomposition]),
        ),
        (
            "bolt-recommender completion",
            self_of(&[Phase::MatrixCompletion]),
        ),
        (
            "bolt-recommender content match",
            self_of(&[Phase::ContentMatch]),
        ),
        ("bolt-recommender fit", self_of(&[Phase::RecommenderFit])),
    ];
    let attributed: f64 = rows.iter().map(|(_, ms)| ms).sum();
    let remainder_ms = serial_ms - attributed;
    let unattributed = Ratio::new(remainder_ms, serial_ms);
    let mut ranked = rows.clone();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "  self time of one Serial call ({serial_ms:.3} ms, median of {}):",
        s.len()
    );
    for (name, ms) in &rows {
        println!(
            "    {name:<32} {ms:>10.3} ms  {}",
            Ratio::new(*ms, serial_ms)
        );
    }
    println!(
        "    {:<32} {remainder_ms:>10.3} ms  {unattributed}",
        "unattributed remainder"
    );
    // What the outside-in timers say the span gaps hold: snapshots and
    // fault plans run inside service requests but outside child spans,
    // the cluster build outside every span.
    let plans_ms = hunts * plan_us / 1e3;
    println!(
        "  outside-in estimates: {hunts} snapshots x {snapshot_ms:.3} ms = {:.3} ms and {hunts} \
         fault plans = {plans_ms:.3} ms against bolt::service's {request_self_ms:.3} ms; cluster \
         build {build_ms:.3} ms against the remainder",
        hunts * snapshot_ms
    );
    println!(
        "  top three layers by self time: {}",
        ranked[..3]
            .iter()
            .map(|(n, ms)| format!("{n} {ms:.3} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  layer -> end-to-end metric it should move:");
    for (layer, moves) in PREDICTIONS {
        println!("    {layer:<28} {moves}");
    }

    let ratio = |name: &'static str, r: Ratio| Metric::new(name, r.value(), "ratio", r.to_string());
    let ms = |name: &'static str, v: f64, note: &str| Metric::new(name, v, "ms", note.to_string());
    let us = |name: &'static str, v: f64, note: &str| Metric::new(name, v, "us", note.to_string());
    let count = |name: &'static str, v: f64| Metric::new(name, v, "count", "per call".to_string());
    let per_call = "per Serial call, median";
    let timer = format!("outside-in timer, median of {TIMER_REPS}+");
    let metrics = vec![
        ms("service.request_wall_ms", request_ms, per_call),
        ratio(
            "service.attributed_fraction",
            Ratio::new(request_ms - request_self_ms, request_ms),
        ),
        ms("service.unattributed_ms", request_self_ms, per_call),
        ms("service.trace_compile_ms", trace_ms, &timer),
        count(
            "service.events_processed",
            med(s, |c| c.counter(Counter::EventsProcessed)),
        ),
        count(
            "service.admitted",
            med(s, |c| c.counter(Counter::RequestsAdmitted)),
        ),
        count("service.shed", med(s, |c| c.counter(Counter::RequestsShed))),
        count(
            "service.breaker_trips",
            med(s, |c| c.counter(Counter::BreakerTrips)),
        ),
        Metric::new(
            "parallel.lane_speedup",
            Ratio::new(serial_ms, threaded_ms).value(),
            "x",
            Ratio::new(serial_ms, threaded_ms).to_string(),
        ),
        Metric::new(
            "parallel.lane_imbalance",
            imbalance,
            "x",
            "max / mean busy time per lane (victim on detect-batch)".to_string(),
        ),
        ms(
            "sim.cluster_build_ms",
            build_ms,
            "outside-in timer, same-shaped cluster",
        ),
        ms("sim.snapshot_ms", snapshot_ms, &timer),
        ratio(
            "sim.snapshot_share",
            Ratio::new(hunts * snapshot_ms, serial_ms),
        ),
        count("sim.sweeps_shared", shared),
        ratio("sim.sweep_share_ratio", Ratio::new(shared, sweeps)),
        ratio(
            "sim.agg_cache_hit_ratio",
            Ratio::new(agg_hits as f64, (agg_hits + agg_misses) as f64),
        ),
        Metric::new(
            "sim.neighbor_visits",
            Ratio::new(visits as f64, sampled as f64).value(),
            "count",
            format!("per hunt, {sampled} outside-in hunts"),
        ),
        us("chaos.fault_plan_compile_us", plan_us, &timer),
        us("chaos.storm_plan_compile_us", storm_us, &timer),
        count(
            "chaos.faults_injected",
            med(s, |c| c.counter(Counter::FaultsInjected)),
        ),
        ms("probes.sweep_ms", self_of(&[Phase::ProbeSweep]), per_call),
        count("probes.samples", samples),
        Metric::new(
            "probes.samples_per_op",
            Ratio::new(samples, ops).value(),
            "count",
            Ratio::new(samples, ops).to_string(),
        ),
        ms(
            "detector.iteration_ms",
            self_of(&[Phase::DetectionIteration]),
            per_call,
        ),
        count(
            "detector.iterations",
            med(s, |c| c.spans.count(Phase::DetectionIteration) as f64),
        ),
        count(
            "detector.retries",
            med(s, |c| c.counter(Counter::DetectionRetries)),
        ),
        count(
            "detector.windows_discarded",
            med(s, |c| c.counter(Counter::WindowsDiscarded)),
        ),
        ms(
            "anytime.deepen_ms",
            self_of(&[Phase::AnytimeDeepen]),
            per_call,
        ),
        count(
            "anytime.probes_saved",
            med(s, |c| c.counter(Counter::ProbesSaved)),
        ),
        ms(
            "recommender.fit_ms",
            median(&setup.fit_ms),
            "cold fit in set-up, median",
        ),
        ms(
            "recommender.decompose_ms",
            self_of(&[Phase::Decomposition]),
            per_call,
        ),
        ms(
            "recommender.completion_ms",
            self_of(&[Phase::MatrixCompletion]),
            per_call,
        ),
        ms(
            "recommender.content_match_ms",
            self_of(&[Phase::ContentMatch]),
            per_call,
        ),
        ratio(
            "recommender.shortlist_hit_ratio",
            Ratio::new(shortlist, shortlist + exact),
        ),
        ratio(
            "recommender.fit_cache_hit_ratio",
            Ratio::new(
                fit_cache.hits as f64,
                (fit_cache.hits + fit_cache.misses) as f64,
            ),
        ),
        count(
            "linalg.sgd_iterations",
            med(s, |c| c.counter(Counter::SgdIterations)),
        ),
        us("linalg.pair_pursuit_us", pursuit_us, &timer),
        us("linalg.svd_us", svd_us, &timer),
        ratio("trace.overhead_frac", overhead),
        ratio("trace.unattributed_share", unattributed),
    ];
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
