//! End-to-end and per-layer benchmark of the Bolt reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload region-serve --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Each workload is a closed loop: one process calls a public entry point
//! back to back. Inside a call the service replays its own open-loop
//! request trace on virtual time, so host time per call is set by the
//! request count, not by the arrival rate. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones (see `layers.rs`).
//! Times are host wall-clock; names starting with `sim_` are deterministic
//! simulated statistics. The last stdout line is one JSON object.

mod layers;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bolt::experiment::{run_experiment_cache_telemetry, shared_recommender};
use bolt::parallel::split_seed;
use bolt::{
    compile_trace, run_experiment_cache, run_service_cache_telemetry, BoltError, ExperimentConfig,
    ExperimentResults, FitCache, Parallelism, Phase, RegionConfig, RequestOutcome, ServiceConfig,
    ServiceReport, Telemetry, TelemetryEvent, TelemetryLog,
};
use bolt_recommender::RecommenderConfig;
use bolt_sim::{ChaosConfig, IsolationConfig, LeastLoaded, StormConfig};

use stats::{median, percentile, tail_percentile, Ratio};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to re-check a claimed gain on inputs the
/// change was not written against.
const HELD_OUT_SEED: u64 = 9;
/// Cold set-ups before the timed loop; `setup_s` is the median of these
/// and of one more after each timed call.
const SETUP_REPS: usize = 9;
/// Input draws per run, split from the benchmark seed.
const DRAWS: u64 = 8;
/// Worker threads for the parallel lanes (the workloads' `Threads(2)`).
const THREADS: usize = 2;
/// No run measures longer than this many times `--seconds`, even when the
/// tail percentile still lacks samples.
const MAX_STRETCH: f64 = 3.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Region service, no churn: read-only snapshots, shared sweep memo.
    RegionServe,
    /// The same region under churn: snapshots mutate, the memo detaches.
    RegionServeChurn,
    /// The paper's §3.4 batch experiment.
    DetectBatch,
}

impl Workload {
    /// Every workload, in report order.
    const ALL: [Workload; 3] = [
        Workload::RegionServe,
        Workload::RegionServeChurn,
        Workload::DetectBatch,
    ];

    /// The workload's command-line name.
    fn name(self) -> &'static str {
        match self {
            Workload::RegionServe => "region-serve",
            Workload::RegionServeChurn => "region-serve-churn",
            Workload::DetectBatch => "detect-batch",
        }
    }

    fn parse(s: &str) -> Option<Vec<Workload>> {
        if s == "all" {
            return Some(Workload::ALL.to_vec());
        }
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .map(|w| vec![w])
    }
}

/// The generated inputs of one run: all the program ever sees.
#[derive(Debug, Clone)]
enum Inputs {
    /// A region service configuration.
    Serve(ServiceConfig),
    /// A batch experiment configuration.
    Detect(ExperimentConfig),
}

impl Inputs {
    /// Generates `workload`'s inputs from the benchmark seed.
    fn generate(workload: Workload, seed: u64) -> Inputs {
        let parallelism = Parallelism::Threads(THREADS);
        let serve = |chaos: ChaosConfig| {
            let region = RegionConfig {
                servers: 2000,
                vms_per_server: 10,
                seed,
                ..RegionConfig::default()
            };
            Inputs::Serve(ServiceConfig {
                storm: StormConfig::with_intensity(0.5),
                chaos,
                parallelism,
                ..ServiceConfig::for_region(&region)
            })
        };
        match workload {
            Workload::RegionServe => serve(ChaosConfig::none()),
            Workload::RegionServeChurn => serve(ChaosConfig::with_intensity(0.3)),
            Workload::DetectBatch => Inputs::Detect(ExperimentConfig {
                seed,
                parallelism,
                ..ExperimentConfig::default()
            }),
        }
    }

    /// The run's input draws: `workload`'s inputs for several seeds split
    /// from the benchmark seed, so one run's figures average over draws
    /// instead of hanging on one victim mix or one region placement.
    fn panel(workload: Workload, seed: u64) -> Vec<Inputs> {
        (0..DRAWS)
            .map(|k| Inputs::generate(workload, split_seed(seed, k)))
            .collect()
    }

    /// What the recommender fit depends on: training seed, isolation and
    /// recommender config.
    fn fit_inputs(&self) -> (u64, IsolationConfig, RecommenderConfig) {
        match self {
            Inputs::Serve(c) => (c.training_seed, c.isolation, c.recommender),
            Inputs::Detect(c) => (c.training_seed, c.isolation, c.recommender),
        }
    }

    /// The same inputs with another lane fan-out.
    fn with_parallelism(&self, parallelism: Parallelism) -> Inputs {
        match self {
            Inputs::Serve(c) => Inputs::Serve(ServiceConfig { parallelism, ..*c }),
            Inputs::Detect(c) => Inputs::Detect(ExperimentConfig { parallelism, ..*c }),
        }
    }

    fn describe(&self) -> String {
        match self {
            Inputs::Serve(c) => format!(
                "{} servers x {} tenants, {} base requests, storm {:.2}, chaos {:.2}, {:?}",
                c.servers,
                c.vms_per_server,
                c.requests,
                c.storm.intensity,
                c.chaos.intensity,
                c.parallelism
            ),
            Inputs::Detect(c) => format!(
                "{} servers, {} victims, LeastLoaded, fixed window, {:?}",
                c.servers, c.victims, c.parallelism
            ),
        }
    }
}

/// One input draw of a run, with what its calls are checked against.
struct Case {
    /// The generated inputs.
    inputs: Inputs,
    /// Serve workloads: the request count of the compiled trace, which
    /// every call must account for.
    expected_offered: usize,
    /// The first checked output; every later call must return it again
    /// (the program is deterministic for fixed inputs).
    reference: Option<Output>,
}

/// State built before the timed loop.
struct Setup {
    /// The fit cache the timed calls share, holding the cold fit.
    cache: FitCache,
    /// Wall seconds of each cold set-up.
    setup_s: Vec<f64>,
    /// Wall milliseconds of each cold recommender fit inside the set-ups.
    fit_ms: Vec<f64>,
    /// The run's input draws, called in rotation.
    cases: Vec<Case>,
}

impl Setup {
    /// Runs the one-time work [`SETUP_REPS`] times from cold.
    fn run(panel: Vec<Inputs>) -> Result<Setup, BoltError> {
        let mut setup = Setup {
            cache: FitCache::new(),
            setup_s: Vec::new(),
            fit_ms: Vec::new(),
            cases: panel
                .into_iter()
                .map(|inputs| Case {
                    inputs,
                    expected_offered: 0,
                    reference: None,
                })
                .collect(),
        };
        for _ in 0..SETUP_REPS {
            setup.cache = setup.cold()?;
        }
        Ok(setup)
    }

    /// One cold set-up, timed: the recommender fit into a fresh shared
    /// [`FitCache`] (training-set observation included) and, for the
    /// service, compiling every case's request trace. Returns the cache.
    fn cold(&mut self) -> Result<FitCache, BoltError> {
        let (training_seed, isolation, recommender) = self.cases[0].inputs.fit_inputs();
        let started = Instant::now();
        let cache = FitCache::new();
        shared_recommender(
            training_seed,
            &isolation,
            recommender,
            &cache,
            &mut Telemetry::disabled(),
        )?;
        self.fit_ms.push(started.elapsed().as_secs_f64() * 1e3);
        for case in &mut self.cases {
            if let Inputs::Serve(c) = &case.inputs {
                case.expected_offered = std::hint::black_box(compile_trace(c)).len();
            }
        }
        self.setup_s.push(started.elapsed().as_secs_f64());
        Ok(cache)
    }
}

/// What one call returned.
#[derive(Debug, Clone, PartialEq)]
enum Output {
    /// A service report.
    Serve(ServiceReport),
    /// Batch experiment results.
    Detect(ExperimentResults),
}

/// One timed call of a workload's entry point.
struct Call {
    /// The call's result.
    output: Output,
    /// Its telemetry stream (empty for the untraced batch entry point).
    log: TelemetryLog,
    /// Host wall seconds of the call.
    wall_s: f64,
}

impl Call {
    /// Calls the workload's entry point once. `telemetry` picks the batch
    /// experiment's entry point; the service always records its spans.
    fn run(inputs: &Inputs, cache: &FitCache, telemetry: bool) -> Result<Call, BoltError> {
        let started = Instant::now();
        let (output, log) = match inputs {
            Inputs::Serve(c) => {
                let (report, log) = run_service_cache_telemetry(c, cache)?;
                (Output::Serve(report), log)
            }
            Inputs::Detect(c) if telemetry => {
                let (results, log) = run_experiment_cache_telemetry(c, &LeastLoaded, cache)?;
                (Output::Detect(results), log)
            }
            Inputs::Detect(c) => (
                Output::Detect(run_experiment_cache(c, &LeastLoaded, cache)?),
                TelemetryLog::new(),
            ),
        };
        let wall_s = started.elapsed().as_secs_f64();
        Ok(Call {
            output,
            log,
            wall_s,
        })
    }

    /// Requests served (terminal outcomes) or victims detected.
    fn ops(&self) -> usize {
        match &self.output {
            Output::Serve(r) => r.offered,
            Output::Detect(r) => r.records.len(),
        }
    }

    /// Host milliseconds per request: each service-request span's wall, or
    /// each victim's summed detection-iteration walls.
    fn request_ms(&self) -> Vec<f64> {
        let mut per_victim = std::collections::BTreeMap::<usize, u64>::new();
        let mut out = Vec::new();
        for event in self.log.events() {
            match *event {
                TelemetryEvent::Span {
                    phase: Phase::ServiceRequest,
                    wall_ns,
                    ..
                } => out.push(wall_ns as f64 / 1e6),
                TelemetryEvent::Span {
                    phase: Phase::DetectionIteration,
                    unit,
                    wall_ns,
                    ..
                } if matches!(self.output, Output::Detect(_)) => {
                    *per_victim.entry(unit).or_default() += wall_ns;
                }
                _ => {}
            }
        }
        out.extend(per_victim.values().map(|&ns| ns as f64 / 1e6));
        out
    }

    /// The output checks: every violated one, by name.
    fn check(&self, inputs: &Inputs, expected_offered: usize) -> Vec<String> {
        let mut bad = Vec::new();
        match (&self.output, inputs) {
            (Output::Serve(r), _) => {
                let terminal = r.completed
                    + r.degraded
                    + r.shed_at_admission
                    + r.shed_after_admission
                    + r.timed_out;
                if !r.balanced() {
                    bad.push("report not balanced".to_string());
                }
                if r.offered != terminal {
                    bad.push(format!("offered {} != terminal {terminal}", r.offered));
                }
                if r.offered != expected_offered || r.records.len() != r.offered {
                    bad.push(format!(
                        "offered {} / records {} != compiled trace {}",
                        r.offered,
                        r.records.len(),
                        expected_offered
                    ));
                }
                let spans = self
                    .log
                    .events()
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            TelemetryEvent::Span {
                                phase: Phase::ServiceRequest,
                                ..
                            }
                        )
                    })
                    .count();
                let executed = r.admitted.saturating_sub(r.shed_after_admission);
                if spans != executed {
                    bad.push(format!(
                        "{spans} request spans for {executed} executed requests"
                    ));
                }
            }
            (Output::Detect(r), Inputs::Detect(c)) => {
                if r.records.len() != c.victims {
                    bad.push(format!(
                        "{} records for {} victims",
                        r.records.len(),
                        c.victims
                    ));
                }
            }
            (Output::Detect(_), Inputs::Serve(_)) => bad.push("wrong output kind".to_string()),
        }
        bad
    }
}

/// A metric as the final JSON line carries it.
struct Metric {
    /// Name from `BENCHMARK.json`.
    name: &'static str,
    /// Measured value.
    value: f64,
    /// Unit from `BENCHMARK.json`.
    unit: &'static str,
    /// How it was sampled, for the human-readable report.
    note: String,
}

impl Metric {
    /// A metric with a sampling note.
    fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
        Metric {
            name,
            value,
            unit,
            note,
        }
    }
}

/// Output of one workload run.
struct RunResult {
    /// Calls attempted.
    attempted: usize,
    /// Calls that errored or failed an output check.
    failed: usize,
    /// Metrics for the JSON line.
    metrics: Vec<Metric>,
}

/// Tallies attempted and failed calls, printing each failure.
#[derive(Default)]
struct Tally {
    /// Calls attempted.
    attempted: usize,
    /// Calls failed.
    failed: usize,
}

impl Tally {
    /// Counts one call; `problems` empty means it passed.
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            println!("FAILED {what}: {}", problems.join("; "));
        }
    }

    /// Runs and checks one call of `case`'s inputs with `lanes` lane
    /// fan-out, counting it. The first good output becomes the case's
    /// reference; later outputs, at any fan-out, must equal it.
    fn call(
        &mut self,
        what: &str,
        case: &mut Case,
        lanes: Parallelism,
        cache: &FitCache,
        telemetry: bool,
    ) -> Option<Call> {
        let inputs = case.inputs.with_parallelism(lanes);
        match Call::run(&inputs, cache, telemetry) {
            Ok(call) => {
                let mut problems = call.check(&inputs, case.expected_offered);
                match &case.reference {
                    Some(r) if *r != call.output => {
                        problems.push("output differs from the first call".to_string())
                    }
                    None if problems.is_empty() => case.reference = Some(call.output.clone()),
                    _ => {}
                }
                self.record(what, &problems);
                problems.is_empty().then_some(call)
            }
            Err(e) => {
                self.record(what, &[e.to_string()]);
                None
            }
        }
    }
}

/// Peak resident set size of this process image, in MiB: the kernel's
/// `VmHWM`. (`getrusage` would also count the pre-`exec` image of the
/// process that launched the benchmark, such as `cargo run`.)
fn peak_rss_mb() -> Result<f64, BoltError> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| BoltError::InvalidExperiment {
            reason: format!("peak RSS needs /proc/self/status: {e}"),
        })?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BoltError::InvalidExperiment {
            reason: "no VmHWM line in /proc/self/status".to_string(),
        })
}

/// The end-to-end run: set up, one warm-up call (checked, the output
/// reference, untimed), then timed calls until `seconds` have passed.
fn end_to_end(panel: Vec<Inputs>, seconds: f64) -> Result<RunResult, BoltError> {
    let lanes = Parallelism::Threads(THREADS);
    let mut setup = Setup::run(panel)?;
    let mut tally = Tally::default();
    tally.call(
        "warm-up call",
        &mut setup.cases[0],
        lanes,
        &setup.cache,
        true,
    );

    let mut rates = Vec::new();
    let mut request_ms = Vec::new();
    let started = Instant::now();
    for i in 1.. {
        let elapsed = started.elapsed().as_secs_f64();
        // Every input draw is called at least once, whatever `seconds` says.
        let covered = i >= setup.cases.len();
        let enough = !rates.is_empty() && tail_percentile(&request_ms, 95.0).is_some();
        if covered && ((elapsed >= seconds && enough) || elapsed >= seconds * MAX_STRETCH) {
            break;
        }
        let k = i % setup.cases.len();
        let what = format!("call {i} (input draw {k})");
        if let Some(call) = tally.call(&what, &mut setup.cases[k], lanes, &setup.cache, true) {
            rates.push(call.ops() as f64 / call.wall_s);
            request_ms.extend(call.request_ms());
        }
        // Set-up cost is sampled across the whole run, so one burst of
        // machine noise cannot decide its median.
        setup.cold()?;
    }
    let references: Vec<&Output> = setup
        .cases
        .iter()
        .filter_map(|c| c.reference.as_ref())
        .collect();
    if rates.is_empty() || references.len() < setup.cases.len() {
        return Err(BoltError::InvalidExperiment {
            reason: "some input draw produced no checked output".to_string(),
        });
    }

    let p95 = tail_percentile(&request_ms, 95.0);
    let p95_note = match p95 {
        Some(v) => format!(
            "{} requests, {} beyond",
            request_ms.len(),
            stats::samples_beyond(&request_ms, v)
        ),
        None => format!("{} requests, FEWER THAN 10 beyond", request_ms.len()),
    };
    if p95.is_none() {
        tally.failed += 1;
    }
    let metrics = vec![
        Metric::new(
            "setup_s",
            median(&setup.setup_s),
            "s",
            format!("median of {} cold set-ups", setup.setup_s.len()),
        ),
        Metric::new(
            "ops_per_s",
            median(&rates),
            "1/s",
            format!("median of {} timed calls", rates.len()),
        ),
        Metric::new(
            "request_host_ms_p50",
            percentile(&request_ms, 50.0),
            "ms",
            format!("{} requests", request_ms.len()),
        ),
        Metric::new(
            "request_host_ms_p95",
            p95.unwrap_or_else(|| percentile(&request_ms, 95.0)),
            "ms",
            p95_note,
        ),
        Metric::new(
            "peak_rss_mb",
            peak_rss_mb()?,
            "MiB",
            "process high-water mark".into(),
        ),
    ];
    print_sim_metrics(&references, &tally);
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Prints the deterministic simulated statistics, pooled over the run's
/// input draws, and the failure share. They are reported with their bases
/// and not gated: they follow the seed, and any change to them is a
/// behaviour change, not a speed change.
fn print_sim_metrics(references: &[&Output], tally: &Tally) {
    let mut rows: Vec<(&str, String)> = Vec::new();
    let serve: Vec<&ServiceReport> = references
        .iter()
        .filter_map(|o| match o {
            Output::Serve(r) => Some(r),
            Output::Detect(_) => None,
        })
        .collect();
    let detect: Vec<&ExperimentResults> = references
        .iter()
        .filter_map(|o| match o {
            Output::Detect(r) => Some(r),
            Output::Serve(_) => None,
        })
        .collect();
    let listed = |xs: Vec<f64>, unit: &str| {
        let shown: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
        format!("{:.6} {unit} median of [{}]", median(&xs), shown.join(", "))
    };
    if !serve.is_empty() {
        let admitted = serve.iter().map(|r| r.admitted as f64).sum::<f64>();
        let degraded = serve.iter().map(|r| r.degraded as f64).sum::<f64>();
        let silent = serve
            .iter()
            .flat_map(|r| &r.records)
            .filter(|x| {
                matches!(
                    x.outcome,
                    RequestOutcome::Completed {
                        label: Some(_),
                        correct: false,
                        ..
                    }
                )
            })
            .count() as f64;
        let goodput = serve.iter().map(|r| r.goodput_per_min).collect();
        let p99 = serve
            .iter()
            .map(|r| r.latency.map_or(0.0, |l| l.p99))
            .collect();
        rows.push(("sim_goodput_per_min", listed(goodput, "1/sim_min")));
        rows.push(("sim_latency_p99_s", listed(p99, "sim_s")));
        rows.push((
            "sim_degraded_rate",
            Ratio::new(degraded, admitted).to_string(),
        ));
        rows.push((
            "sim_silent_mislabel_rate",
            Ratio::new(silent, admitted).to_string(),
        ));
    }
    if !detect.is_empty() {
        let records = || detect.iter().flat_map(|r| &r.records);
        let n = records().count() as f64;
        let correct = records().filter(|x| x.label_correct).count() as f64;
        let silent = records()
            .filter(|x| !x.label_correct && x.detected.is_some() && x.degraded.is_none())
            .count() as f64;
        rows.push(("sim_label_accuracy", Ratio::new(correct, n).to_string()));
        rows.push((
            "sim_silent_mislabel_rate",
            Ratio::new(silent, n).to_string(),
        ));
    }
    rows.push((
        "failed_op_share",
        Ratio::new(tally.failed as f64, tally.attempted as f64).to_string(),
    ));
    for (name, value) in rows {
        println!("  {name:<34} {value}");
    }
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; "unknown" elsewhere.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: bolt-perfbench --workload <region-serve|region-serve-churn|detect-batch|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workloads =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got `{value}`"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got `{value}`"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, &Metric)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# commit {} | nproc {} | {} | seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})",
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        args.seed
    );

    let mut results = Vec::new();
    for &workload in &args.workloads {
        let panel = Inputs::panel(workload, args.seed);
        println!(
            "# workload {} ({}; {} input draws) | {} s | trace {}",
            workload.name(),
            panel[0].describe(),
            panel.len(),
            args.seconds,
            u8::from(args.trace)
        );
        let run = if args.trace {
            layers::traced(panel, args.seconds)
        } else {
            end_to_end(panel, args.seconds)
        };
        match run {
            Ok(r) => {
                for m in &r.metrics {
                    println!(
                        "  {:<34} {:<16.6} {:<6} {}",
                        m.name, m.value, m.unit, m.note
                    );
                }
                results.push((workload, r));
            }
            Err(e) => {
                eprintln!("error: {} could not be measured: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }

    let single = results.len() == 1;
    let named: Vec<(String, &Metric)> = results
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", w.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    let attempted = results.iter().map(|(_, r)| r.attempted).sum();
    let failed = results.iter().map(|(_, r)| r.failed).sum();
    println!("{}", json_line(failed == 0, attempted, failed, &named));
    ExitCode::SUCCESS
}
