//! SYNPA benchmark: runs one workload cold, checks its outputs, and prints
//! its end-to-end metrics (`--trace 0`) or its per-layer metrics
//! (`--trace 1`) as the last line of standard output, in one JSON object.
//!
//! ```text
//! synpa-perfbench --workload paper8|fullchip56|service56 [--seed N]
//!                 [--seconds S] [--trace 0|1] [--record PATH]
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric should move. Any failed check exits with code 1 and prints
//! no metrics; a usage error exits with code 2.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synpa::metrics::{geomean, tt_speedup};
use synpa::model::CategoryCoeffs;
use synpa::prelude::*;
use synpa::sched::{parallel_map, MatcherStats};
use synpa_experiments::{training_split, SuiteCell, SuitePolicy};
use trace::{LogSink, PolicyLog, Probe, Replay, TracedPolicy};
use workloads::{Inputs, Kind, OpenLoop, Seeds};

/// Worker threads of every sharded stage (capped at the machine's CPUs).
const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Environment knobs that would change what the program runs. The
/// benchmark measures the defaults only, so it refuses to start under any
/// of them.
const REFUSED_ENV: [&str; 4] = [
    "SYNPA_ENGINE",
    "SYNPA_MATCHER",
    "SYNPA_THREADS",
    "SYNPA_FRESH",
];

const POLICIES: [SuitePolicy; 2] = [SuitePolicy::Linux, SuitePolicy::Synpa];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!(
        "usage: synpa-perfbench --workload paper8|fullchip56|service56 [--seed N] \
         [--seconds S] [--trace 0|1] [--record PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a non-negative integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--record" => record = Some(PathBuf::from(value)),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        record,
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: FAILED: {e}");
        std::process::exit(1);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A workload's generated inputs and trained model, plus what set-up cost.
struct Setup {
    model: SynpaModel,
    inputs: Inputs,
    /// Median wall time of one whole set-up.
    setup_s: f64,
    /// Median wall time of the `train` call within it.
    train_s: f64,
}

/// Trains the model on the §IV-C split in-process (never through a model
/// cache) and generates the workload's inputs, [`SETUP_REPS`] times. Every
/// repetition must produce the same model.
fn setup(kind: Kind, seeds: Seeds, workers: usize) -> Result<Setup, String> {
    let mut totals = Vec::new();
    let mut trains = Vec::new();
    let mut last: Option<(SynpaModel, Inputs)> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (train_set, _) = training_split();
        let report = train(&train_set, &TrainingConfig::default(), workers)
            .map_err(|e| format!("training failed: {e}"))?;
        trains.push(start.elapsed());
        let inputs = workloads::generate(kind, seeds, workers);
        totals.push(start.elapsed());
        if let Some((model, _)) = &last {
            if *model != report.model {
                return Err("two set-ups trained different models".into());
            }
        }
        last = Some((report.model, inputs));
    }
    let (model, inputs) = last.expect("SETUP_REPS is positive");
    Ok(Setup {
        model,
        inputs,
        setup_s: median(&totals).as_secs_f64(),
        train_s: median(&trains).as_secs_f64(),
    })
}

fn median(xs: &[Duration]) -> Duration {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (the program's `metrics::percentile` rule).
fn percentile<T: Copy + PartialOrd>(xs: &[T], p: f64) -> T {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Host cost of the untraced timed phase.
struct Timing {
    /// Wall time of each cold repetition.
    walls: Vec<Duration>,
    /// Peak RSS after set-up and the first repetition, in MiB. Later
    /// repetitions raise the high-water mark through allocator
    /// fragmentation, and how many of them run depends on host speed.
    rss_mb: f64,
}

/// Operations attempted and failed, with the failure rule of the workload.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

// ---------------------------------------------------------------------------
// Closed batch (paper8, fullchip56)
// ---------------------------------------------------------------------------

/// Checks that no cell of a closed-batch sweep ran into the quanta cap.
/// A cell records only its workload turnaround, so the check is
/// conservative: a capped run ends at the cap, and its censored app then
/// reports at least `cap − latest arrival` cycles, so any turnaround below
/// that bound proves every app completed its first launch.
fn check_uncapped(spec: &synpa_experiments::SuiteSpec, cells: &[SuiteCell]) -> Result<(), String> {
    let m = &spec.config.manager;
    let cap = m.max_quanta * m.quantum_cycles;
    for (i, cell) in cells.iter().enumerate() {
        let w = &spec.workloads[i / POLICIES.len()];
        let latest = (0..w.apps.len()).map(|k| w.arrival(k)).max().unwrap_or(0);
        if cell.tt_mean >= (cap - latest) as f64 || !cell.app_ipc.iter().all(|&x| x > 0.0) {
            return Err(format!(
                "{} under {} may have hit the quanta cap (TT {} cycles, cap {cap})",
                cell.workload, cell.policy, cell.tt_mean
            ));
        }
    }
    Ok(())
}

/// Runs the cold sweep through `run_suite_sharded` until `seconds` have
/// passed (at least once). Returns the cells of the first sweep and the
/// wall time of each; every sweep must return identical cells.
fn closed_untraced(
    spec: &synpa_experiments::SuiteSpec,
    model: SynpaModel,
    workers: usize,
    seconds: f64,
) -> Result<(Vec<SuiteCell>, Timing), String> {
    let phase = Instant::now();
    let mut first: Option<Vec<SuiteCell>> = None;
    let mut walls = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let start = Instant::now();
        let cells = synpa_experiments::run_suite_sharded(spec, model, workers);
        walls.push(start.elapsed());
        match &first {
            None => {
                rss_mb = peak_rss_mb()?;
                first = Some(cells);
            }
            Some(f) if *f != cells => return Err("two cold sweeps disagree".into()),
            Some(_) => {}
        }
        if phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let cells = first.expect("at least one sweep ran");
    check_uncapped(spec, &cells)?;
    Ok((cells, Timing { walls, rss_mb }))
}

fn closed_end_to_end(
    spec: &synpa_experiments::SuiteSpec,
    cells: &[SuiteCell],
    report: &mut String,
) -> Vec<Metric> {
    let mut speedups = Vec::new();
    let mut synpa_tt = Vec::new();
    for (w, pair) in spec.workloads.iter().zip(cells.chunks(POLICIES.len())) {
        let (linux, synpa) = (&pair[0], &pair[1]);
        let s = tt_speedup(linux.tt_mean, synpa.tt_mean);
        let _ = writeln!(
            report,
            "  {:<7} TT linux {:>10.0}  synpa {:>10.0}  speedup {s:.4}  migrations {}",
            w.name, linux.tt_mean, synpa.tt_mean, synpa.migrations
        );
        speedups.push(s);
        synpa_tt.push(synpa.tt_mean / 1e3);
    }
    let _ = writeln!(
        report,
        "  tt percentiles over {} SYNPA workload turnarounds (p99 = slowest)",
        synpa_tt.len()
    );
    vec![
        metric("tt_speedup", geomean(&speedups), "ratio"),
        metric("tt_p50_kcycles", percentile(&synpa_tt, 50.0), "kcycles"),
        metric("tt_p99_kcycles", percentile(&synpa_tt, 99.0), "kcycles"),
    ]
}

/// Per-layer totals of a traced run.
#[derive(Default)]
struct Layers {
    calibrate: Duration,
    /// Σ host time of every traced cell / service run.
    runs: Duration,
    /// Σ host time of the SYNPA cells / service run.
    synpa_runs: Duration,
    quanta: u64,
    migrations: u64,
    matcher: MatcherStats,
    samples: u64,
    degraded_samples: u64,
    probe: Probe,
}

impl Layers {
    fn absorb_synpa(&mut self, quanta: u64, migrations: u64, matcher: Option<MatcherStats>) {
        self.quanta += quanta;
        self.migrations += migrations;
        let m = matcher.unwrap_or_default();
        self.matcher.calls += m.calls;
        self.matcher.certificate_hits += m.certificate_hits;
        self.matcher.cold_solves += m.cold_solves;
    }

    fn absorb_health(&mut self, d: &DegradedStats) {
        self.samples += d.samples_ok + d.samples_degraded();
        self.degraded_samples += d.samples_degraded();
    }
}

/// Builds the policy of one run; SYNPA runs are wrapped for tracing.
fn traced_policy(p: SuitePolicy, model: SynpaModel, seed: u64, sink: &LogSink) -> Box<dyn Policy> {
    let inner = p.build(model, seed);
    if p == SuitePolicy::Synpa {
        Box::new(TracedPolicy::new(inner, Arc::clone(sink)))
    } else {
        inner
    }
}

/// One single-worker traced pass over a closed-batch sweep: calibrates
/// each workload, probes it, and runs each cell through `run_cell`. Every
/// traced cell must equal its untraced twin.
fn closed_traced(
    spec: &synpa_experiments::SuiteSpec,
    model: SynpaModel,
    untraced: &[SuiteCell],
    sink: &LogSink,
    layers: &mut Layers,
) -> Result<Ops, String> {
    let cfg = ExperimentConfig {
        threads: 1,
        ..spec.config.clone()
    };
    let mut ops = Ops::default();
    let mut cells = untraced.iter();
    for w in &spec.workloads {
        let start = Instant::now();
        let prepared = prepare_workload(w, &cfg);
        layers.calibrate += start.elapsed();
        trace::probe(&prepared, &cfg, &mut layers.probe)?;
        for p in POLICIES {
            let start = Instant::now();
            let outcome = run_cell(&prepared, |seed| traced_policy(p, model, seed, sink), &cfg);
            let took = start.elapsed();
            layers.runs += took;
            let r = &outcome.exemplar;
            if r.capped {
                return Err(format!("{} under {} hit the quanta cap", w.name, p.name()));
            }
            layers.absorb_health(&r.degraded);
            if p == SuitePolicy::Synpa {
                layers.synpa_runs += took;
                layers.absorb_synpa(r.quanta, r.migrations, r.matcher);
            }
            ops.attempted += r.per_app.len() as u64;
            ops.failed += r.per_app.iter().filter(|a| !a.completed).count() as u64;
            let cell = SuiteCell::from_outcome(w, p, &outcome);
            if Some(&cell) != cells.next() {
                return Err(format!(
                    "traced {} under {} differs from the untraced sweep",
                    w.name,
                    p.name()
                ));
            }
        }
    }
    Ok(ops)
}

// ---------------------------------------------------------------------------
// Open loop (service56)
// ---------------------------------------------------------------------------

/// The simulated outputs of one service run that tracing must not change.
#[derive(Debug, PartialEq)]
struct ServiceOutputs {
    turnarounds: Vec<u64>,
    shed: Vec<usize>,
    failed: Vec<usize>,
    quanta: u64,
    migrations: u64,
    matcher: Option<MatcherStats>,
}

impl ServiceOutputs {
    fn of(r: &ServiceResult) -> Self {
        ServiceOutputs {
            turnarounds: r.turnarounds(),
            shed: r.shed.clone(),
            failed: r.failed.clone(),
            quanta: r.quanta,
            migrations: r.migrations,
            matcher: r.matcher,
        }
    }
}

/// Checks conservation (`completed + shed + failed == arrivals`, so
/// nothing is censored) and counts failed arrivals.
fn service_ops(r: &ServiceResult, arrivals: usize) -> Result<Ops, String> {
    let settled = r.completed.len() + r.shed.len() + r.failed.len();
    if settled != arrivals {
        return Err(format!(
            "{}: completed {} + shed {} + failed {} != {arrivals} arrivals",
            r.policy,
            r.completed.len(),
            r.shed.len(),
            r.failed.len()
        ));
    }
    Ok(Ops {
        attempted: arrivals as u64,
        failed: (r.shed.len() + r.failed.len()) as u64,
    })
}

/// Runs both policies on the same trace (one per worker) until `seconds`
/// have passed (at least once); every repetition must agree.
fn open_untraced(
    open: &OpenLoop,
    model: SynpaModel,
    workers: usize,
    seconds: f64,
) -> Result<(Vec<ServiceResult>, Timing, Ops), String> {
    let phase = Instant::now();
    let mut first: Option<Vec<ServiceResult>> = None;
    let mut walls = Vec::new();
    let mut rss_mb = 0.0;
    let mut ops = Ops::default();
    loop {
        let start = Instant::now();
        let results = parallel_map(&POLICIES, workers, |&p| {
            let mut policy = p.build(model, open.config.base_seed);
            run_service(
                &open.prepared.apps,
                &open.arrivals,
                policy.as_mut(),
                &open.service,
            )
        });
        walls.push(start.elapsed());
        for r in &results {
            ops.add(service_ops(r, open.arrivals.len())?);
        }
        match &first {
            None => {
                rss_mb = peak_rss_mb()?;
                first = Some(results);
            }
            Some(f) => {
                if f.iter()
                    .map(ServiceOutputs::of)
                    .ne(results.iter().map(ServiceOutputs::of))
                {
                    return Err("two service runs on one trace disagree".into());
                }
            }
        }
        if phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok((
        first.expect("at least one run"),
        Timing { walls, rss_mb },
        ops,
    ))
}

fn open_end_to_end(results: &[ServiceResult], report: &mut String) -> Result<Vec<Metric>, String> {
    let mean_tt = |r: &ServiceResult| {
        let tt = r.turnarounds();
        tt.iter().sum::<u64>() as f64 / tt.len().max(1) as f64
    };
    let (linux, synpa) = (&results[0], &results[1]);
    let tt: Vec<f64> = synpa
        .turnarounds()
        .iter()
        .map(|&t| t as f64 / 1e3)
        .collect();
    if tt.is_empty() {
        return Err("no SYNPA arrival completed".into());
    }
    for r in results {
        let _ = writeln!(
            report,
            "  {:<6} arrivals {} done {} shed {} failed {} mean TT {:.0} migrations {} drained {}",
            r.policy,
            r.completed.len() + r.shed.len() + r.failed.len(),
            r.completed.len(),
            r.shed.len(),
            r.failed.len(),
            mean_tt(r),
            r.migrations,
            r.drained
        );
    }
    let beyond = tt.len() - (0.99 * tt.len() as f64).ceil() as usize;
    let _ = writeln!(
        report,
        "  tt percentiles over {} SYNPA turnarounds ({beyond} beyond p99); \
         arrivals are due at fixed cycles, so generator lateness is 0",
        tt.len()
    );
    Ok(vec![
        metric("tt_speedup", mean_tt(linux) / mean_tt(synpa), "ratio"),
        metric("tt_p50_kcycles", percentile(&tt, 50.0), "kcycles"),
        metric("tt_p99_kcycles", percentile(&tt, 99.0), "kcycles"),
    ])
}

/// One single-worker traced pass of both service runs, after a traced
/// recalibration of the trace's apps. Outputs must equal the untraced
/// runs'.
fn open_traced(
    open: &OpenLoop,
    model: SynpaModel,
    untraced: &[ServiceResult],
    sink: &LogSink,
    layers: &mut Layers,
) -> Result<(), String> {
    let cfg = ExperimentConfig {
        threads: 1,
        ..open.config.clone()
    };
    let start = Instant::now();
    let prepared = prepare_workload(&open.prepared.workload, &cfg);
    layers.calibrate += start.elapsed();
    if prepared.solo_ipc != open.prepared.solo_ipc {
        return Err("traced calibration differs from set-up".into());
    }
    trace::probe(&prepared, &cfg, &mut layers.probe)?;
    for (p, before) in POLICIES.into_iter().zip(untraced) {
        let mut policy = traced_policy(p, model, cfg.base_seed, sink);
        let start = Instant::now();
        let r = run_service(
            &prepared.apps,
            &open.arrivals,
            policy.as_mut(),
            &open.service,
        );
        let took = start.elapsed();
        drop(policy);
        layers.runs += took;
        layers.absorb_health(&r.degraded);
        if p == SuitePolicy::Synpa {
            layers.synpa_runs += took;
            layers.absorb_synpa(r.quanta, r.migrations, r.matcher);
        }
        if ServiceOutputs::of(&r) != ServiceOutputs::of(before) {
            return Err(format!(
                "traced {} service run differs from untraced",
                p.name()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Run orchestration
// ---------------------------------------------------------------------------

fn per_layer(
    model: &SynpaModel,
    train_s: f64,
    layers: &Layers,
    logs: &[PolicyLog],
    untraced_wall: f64,
    workers: usize,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let mut replay = Replay::default();
    trace::replay(model, logs, &mut replay);
    let decide: Vec<Duration> = logs.iter().flat_map(|l| l.decide.iter().copied()).collect();
    let quantum: Vec<Duration> = logs
        .iter()
        .flat_map(|l| l.quantum.iter().copied())
        .collect();
    if decide.is_empty() || quantum.is_empty() || replay.solves.is_empty() {
        return Err("the traced SYNPA runs recorded no decisions".into());
    }
    let decide_total: Duration = decide.iter().sum();
    let overhead: Duration = logs.iter().map(|l| l.overhead).sum();
    let probe = &layers.probe;
    let probe_time: Duration = probe.quantum.iter().sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let _ = writeln!(
        report,
        "  samples: {} decide, {} quanta, {} replayed solves, {} probe quanta; \
         model/matching timings replay captured inputs (an approximate split of decide)",
        decide.len(),
        quantum.len(),
        replay.solves.len(),
        probe.quantum.len()
    );
    Ok(vec![
        metric("sim.quantum_ms", ms(median(&probe.quantum)), "ms"),
        metric(
            "sim.mcycles_per_s",
            probe.cycles as f64 / probe_time.as_secs_f64() / 1e6,
            "Mcycles/s",
        ),
        metric(
            "sim.elided_frac",
            ratio(probe.elided, probe.stepped + probe.elided),
            "ratio",
        ),
        metric("counters.sample_us", us(median(&probe.sample)), "us"),
        metric(
            "counters.degraded_frac",
            ratio(layers.degraded_samples, layers.samples),
            "ratio",
        ),
        metric(
            "model.invert_us",
            us(replay.invert_time) / replay.invert_calls.max(1) as f64,
            "us",
        ),
        metric(
            "model.predict_us",
            us(replay.predict_time) / replay.predict_calls.max(1) as f64,
            "us",
        ),
        metric("model.train_s", train_s, "s"),
        metric(
            "matching.solve_p50_us",
            us(percentile(&replay.solves, 50.0)),
            "us",
        ),
        metric(
            "matching.solve_p99_us",
            us(percentile(&replay.solves, 99.0)),
            "us",
        ),
        metric(
            "matching.cold_solves",
            layers.matcher.cold_solves as f64,
            "count",
        ),
        metric(
            "matching.fast_path_frac",
            ratio(layers.matcher.certificate_hits, layers.matcher.calls),
            "ratio",
        ),
        metric("sched.decide_p50_us", us(percentile(&decide, 50.0)), "us"),
        metric("sched.decide_p99_us", us(percentile(&decide, 99.0)), "us"),
        metric("sched.quantum_p50_ms", ms(percentile(&quantum, 50.0)), "ms"),
        metric("sched.quantum_p99_ms", ms(percentile(&quantum, 99.0)), "ms"),
        metric(
            "sched.decide_share",
            decide_total.as_secs_f64() / layers.synpa_runs.as_secs_f64(),
            "ratio",
        ),
        metric("sched.quanta", layers.quanta as f64, "count"),
        metric("sched.migrations", layers.migrations as f64, "count"),
        metric("apps.calibrate_s", layers.calibrate.as_secs_f64(), "s"),
        metric(
            "experiments.shard_efficiency",
            layers.runs.as_secs_f64() / (workers as f64 * untraced_wall),
            "ratio",
        ),
        metric("trace.overhead_s", overhead.as_secs_f64(), "s"),
    ])
}

/// Process high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The checkout's git revision, or `unknown` when the working directory is
/// not the root of a git checkout (so an enclosing repository is never
/// reported instead).
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_coeffs(c: &CategoryCoeffs) -> String {
    format!("[{}, {}, {}, {}]", c.alpha, c.beta, c.gamma, c.rho)
}

fn json_result(ops: Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; the benchmark measures the defaults only"
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = WORKERS.min(nproc);
    let seeds = Seeds::from(args.seed);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed {} trace {}: {nproc} CPUs, {workers} workers, default engine {}",
        args.kind.name(),
        args.seed,
        args.trace as u8,
        ChipConfig::thunderx2_full().engine
    );

    let setup = setup(args.kind, seeds, workers)?;
    let model = setup.model;
    let sink: LogSink = Arc::new(Mutex::new(Vec::new()));
    let mut layers = Layers::default();
    let (mut metrics, ops, timing) = match &setup.inputs {
        Inputs::Closed(batch) => {
            let seconds = if args.trace { 0.0 } else { args.seconds };
            let (cells, timing) = closed_untraced(&batch.spec, model, workers, seconds)?;
            let metrics = closed_end_to_end(&batch.spec, &cells, &mut report);
            let mut ops = Ops {
                attempted: (cells.iter().map(|c| c.app_names.len()).sum::<usize>()
                    * timing.walls.len()) as u64,
                failed: 0,
            };
            if args.trace {
                ops = closed_traced(&batch.spec, model, &cells, &sink, &mut layers)?;
            }
            (metrics, ops, timing)
        }
        Inputs::Open(open) => {
            let seconds = if args.trace { 0.0 } else { args.seconds };
            let (results, timing, ops) = open_untraced(open, model, workers, seconds)?;
            let metrics = open_end_to_end(&results, &mut report)?;
            if args.trace {
                open_traced(open, model, &results, &sink, &mut layers)?;
            }
            (metrics, ops, timing)
        }
    };
    let wall_s = median(&timing.walls).as_secs_f64();
    let fail_frac = ops.failed as f64 / ops.attempted.max(1) as f64;
    let _ = writeln!(
        report,
        "  timed phase: {} cold repetition(s), median {wall_s:.3} s; setup median {:.3} s; \
         {} of {} ops failed (fail_frac {fail_frac})",
        timing.walls.len(),
        setup.setup_s,
        ops.failed,
        ops.attempted
    );

    let metrics = if args.trace {
        let logs = std::mem::take(&mut *sink.lock().map_err(|_| "trace sink poisoned")?);
        per_layer(
            &model,
            setup.train_s,
            &layers,
            &logs,
            wall_s,
            workers,
            &mut report,
        )?
    } else {
        let mut all = vec![
            metric("wall_s", wall_s, "s"),
            metric("setup_s", setup.setup_s, "s"),
            metric("peak_rss_mb", timing.rss_mb, "MiB"),
            metric("ok_frac", 1.0 - fail_frac, "ratio"),
        ];
        all.append(&mut metrics);
        all
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }

    let result = json_result(ops, &metrics);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {workers}, \"git_rev\": \"{}\", \"engine\": \"{}\", \
         \"model\": {{\"full_dispatch\": {}, \"frontend\": {}, \"backend\": {}}}, \
         \"result\": {result}}}",
        args.kind.name(),
        args.seed,
        args.trace as u8,
        git_revision(),
        ChipConfig::thunderx2_full().engine,
        json_coeffs(&model.full_dispatch),
        json_coeffs(&model.frontend),
        json_coeffs(&model.backend),
    );
    if let Some(path) = &args.record {
        std::fs::write(path, format!("{record}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    print!("{report}");
    println!("record: {record}");
    println!("{result}");
    Ok(())
}
