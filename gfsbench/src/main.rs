//! End-to-end benchmark of the GFS stack.
//!
//! ```text
//! cargo run --release --manifest-path gfsbench/Cargo.toml -- \
//!     --workload <paper_contended|fleet_uncontended|service_recovery> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload's inputs are a fixed number of traces, each generated from
//! a sub-seed of `--seed` (`seed * 1000 + k`). Averaging over many
//! traces keeps a run's figures steady from seed to seed, although one
//! contended trace can take three times as long as another. One
//! repetition sets up and runs one trace; the benchmark cycles through
//! the traces until it has run each once and `--seconds` have passed.
//! Every repetition of a trace must reproduce that trace's report hash.
//!
//! Output checks that need a second run of the same inputs (the fleet at
//! one worker thread, the service without crashes) are made once, on the
//! first trace, outside the timed loop.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs every
//! trace untraced and then traced: the traced repetition wraps the
//! scheduler in a forwarding wrapper that times its hooks, and records
//! spans. It prints the per-layer metrics, and writes the spans of the
//! first traced repetition to `gfsbench/out/spans-<workload>.jsonl`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` (tasks admitted by the timed repetitions), `failed`
//! (placements the cluster refused to commit) and `metrics`. The command
//! exits non-zero when an output or operating-point check fails.

mod fleet;
mod layers;
mod service;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::ops::AddAssign;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gfs::sim::SimReport;
use gfs::types::Priority;

use layers::{HookTotals, Traced};
use spans::Spans;
use stats::{median, median_s, quantile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperContended,
    FleetUncontended,
    ServiceRecovery,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperContended,
        Workload::FleetUncontended,
        Workload::ServiceRecovery,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperContended => "paper_contended",
            Workload::FleetUncontended => "fleet_uncontended",
            Workload::ServiceRecovery => "service_recovery",
        }
    }

    /// Traces per run: enough that one pass takes about 20 s on a
    /// 2-core x86-64 container, and that the run's figures vary little
    /// between seeds.
    fn traces(self) -> u64 {
        match self {
            Workload::PaperContended => 24,
            Workload::FleetUncontended => 16,
            Workload::ServiceRecovery => 6,
        }
    }

    /// `service_recovery` runs the §4.1 trace at the paper's low spot
    /// load; `paper_contended` at its high one.
    fn spot_scale(self) -> f64 {
        match self {
            Workload::ServiceRecovery => 1.0,
            _ => 4.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scalar outcome of one run (deterministic for given inputs).
#[derive(Debug, Clone, Copy, Default)]
struct Outcome {
    hash: u64,
    tasks: u64,
    unfinished: u64,
    evictions: u64,
    failed_commits: u64,
    spot_eviction_rate: f64,
    spot_jqt_mean_s: f64,
    hp_jqt_p99_s: f64,
    gpu_alloc_rate: f64,
}

impl Outcome {
    fn of(report: &SimReport, hash: u64) -> Self {
        Outcome {
            hash,
            tasks: report.tasks.len() as u64,
            unfinished: report.tasks.iter().filter(|t| !t.completed()).count() as u64,
            evictions: report.eviction_count(),
            failed_commits: report.failed_commits,
            spot_eviction_rate: report.eviction_rate(),
            spot_jqt_mean_s: report.mean_jqt(Priority::Spot),
            hp_jqt_p99_s: report.jqt_quantile(Priority::Hp, 0.99),
            gpu_alloc_rate: report.mean_allocation_rate(),
        }
    }
}

/// Per-layer totals of one repetition. A layer the workload does not
/// pass through stays 0; the hook totals are filled in traced
/// repetitions only.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    hooks: HookTotals,
    /// Steps the benchmark drove itself (`run_fleet` steps internally).
    steps: u64,
    /// Service steps; on the fleet, the shard engine runs.
    step_busy: Duration,
    /// `step_busy` minus the hook time inside it.
    step_self: Duration,
    factory: Duration,
    fleet_run: Duration,
    admit_calls: u64,
    admit_busy: Duration,
    journal_bytes: u64,
    checkpoints: u64,
    encode: Duration,
    snapshot_bytes: u64,
    parse: Duration,
    restore: Duration,
    replay: Duration,
    replayed: u64,
    rebuild: Duration,
    recoveries: u64,
}

impl AddAssign for Layers {
    fn add_assign(&mut self, o: Layers) {
        self.hooks += o.hooks;
        self.steps += o.steps;
        self.step_busy += o.step_busy;
        self.step_self += o.step_self;
        self.factory += o.factory;
        self.fleet_run += o.fleet_run;
        self.admit_calls += o.admit_calls;
        self.admit_busy += o.admit_busy;
        self.journal_bytes += o.journal_bytes;
        self.checkpoints += o.checkpoints;
        self.encode += o.encode;
        self.snapshot_bytes += o.snapshot_bytes;
        self.parse += o.parse;
        self.restore += o.restore;
        self.replay += o.replay;
        self.replayed += o.replayed;
        self.rebuild += o.rebuild;
        self.recoveries += o.recoveries;
    }
}

/// One timed repetition: set up and run one trace.
#[derive(Default)]
struct Rep {
    trace: u64,
    traced: bool,
    setup: Duration,
    gen: Duration,
    train: Duration,
    run: Duration,
    outcome: Outcome,
    /// Wall latency of every service step, ns (service workloads).
    steps: Vec<u64>,
    checkpoints: Vec<Duration>,
    recoveries: Vec<Duration>,
    layers: Layers,
    errors: Vec<String>,
}

/// Sub-seed of trace `k` of a run.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

/// Runs one repetition of trace `k`; `spans` records it when given.
fn rep(wl: Workload, seed: u64, k: u64, traced: bool, mut spans: Option<(&mut Spans, u32)>) -> Rep {
    let seed = sub_seed(seed, k);
    let mut r = Rep {
        trace: k,
        traced,
        ..Rep::default()
    };
    let setup_span = spans.as_mut().map(|(s, root)| s.open("setup", *root));
    let t0 = Instant::now();
    if wl == Workload::FleetUncontended {
        let mut inputs = fleet::setup(seed);
        r.setup = t0.elapsed();
        r.gen = inputs.gen;
        close(&mut spans, setup_span);
        let run_span = spans.as_mut().map(|(s, root)| s.open("run", *root));
        let ids = std::mem::take(&mut inputs.ids);
        let ran = fleet::run(inputs, fleet::THREADS, traced);
        close(&mut spans, run_span);
        r.run = ran.wall;
        let report = &ran.fleet.report;
        service::check_ids(report, &ids, &mut r.errors);
        r.outcome = Outcome::of(report, ran.fleet.fleet_hash);
        let h = ran.shards.hooks;
        r.layers = Layers {
            hooks: h,
            step_busy: ran.shards.engine_busy,
            step_self: ran.shards.engine_busy.saturating_sub(h.busy()),
            factory: ran.factory,
            fleet_run: ran.wall,
            ..Layers::default()
        };
        return r;
    }

    let inputs = service::setup(seed, wl.spot_scale());
    r.setup = t0.elapsed();
    r.gen = inputs.gen;
    r.train = inputs.train;
    close(&mut spans, setup_span);
    let durable = wl == Workload::ServiceRecovery;
    let run_span = spans.as_mut().map(|(s, root)| s.open("run", *root));
    let t = Instant::now();
    let mut d = if traced {
        let spans = spans
            .as_mut()
            .map(|(s, _)| (&mut **s, run_span.unwrap_or(0)));
        service::drive(inputs, Traced::new, durable, spans)
    } else {
        service::drive(inputs, |s| s, durable, None)
    };
    r.run = t.elapsed();
    close(&mut spans, run_span);
    r.outcome = Outcome::of(&d.report, d.hash);
    r.errors.append(&mut d.errors);
    if durable {
        check_recovery_point(&d, &mut r.errors);
    }
    let rec = |f: fn(&service::Recovery) -> Duration| d.recoveries.iter().map(f).sum();
    r.layers = Layers {
        hooks: d.hooks,
        steps: d.steps.len() as u64,
        step_busy: d.step_busy,
        step_self: d.step_busy.saturating_sub(d.step_hooks),
        admit_calls: d.admit_calls,
        admit_busy: d.admit_busy,
        journal_bytes: d.journal_bytes,
        checkpoints: d.checkpoints.len() as u64,
        encode: d.checkpoints.iter().sum(),
        snapshot_bytes: d.snapshot_bytes,
        parse: rec(|r| r.parse),
        restore: rec(|r| r.restore),
        replay: rec(|r| r.replay),
        replayed: d.recoveries.iter().map(|r| r.replayed as u64).sum(),
        rebuild: rec(|r| r.rebuild),
        recoveries: d.recoveries.len() as u64,
        ..Layers::default()
    };
    r.steps = d.steps;
    r.checkpoints = d.checkpoints;
    r.recoveries = d.recoveries.iter().map(service::Recovery::total).collect();
    r
}

fn close(spans: &mut Option<(&mut Spans, u32)>, id: Option<u32>) {
    if let (Some((s, _)), Some(id)) = (spans.as_mut(), id) {
        s.close(id);
    }
}

/// `service_recovery`'s declared operating point: a checkpoint at every
/// hour boundary of the week, a crash at every sixth, and every recovery
/// replays at least one journal record.
fn check_recovery_point(d: &service::Driven, errors: &mut Vec<String>) {
    let want_checkpoints = service::WEEK_HOURS as usize;
    let want_recoveries = (service::WEEK_HOURS / service::CRASH_EVERY_HOURS) as usize;
    if d.checkpoints.len() != want_checkpoints {
        errors.push(format!(
            "{} checkpoints, declared {want_checkpoints}",
            d.checkpoints.len()
        ));
    }
    if d.recoveries.len() != want_recoveries {
        errors.push(format!(
            "{} recoveries, declared {want_recoveries}",
            d.recoveries.len()
        ));
    }
    if d.recoveries.iter().any(|r| r.replayed == 0) {
        errors.push("a recovery replayed no journal record".to_string());
    }
}

/// The reference run of trace 0, made once outside the timed loop: the
/// fleet on one worker thread (it must hash as on [`fleet::THREADS`]),
/// the service without crashes (the crash-recovered run must hash the
/// same). `paper_contended` has none.
fn reference_hash(wl: Workload, seed: u64) -> Option<u64> {
    let seed = sub_seed(seed, 0);
    match wl {
        Workload::PaperContended => None,
        Workload::FleetUncontended => {
            let inputs = fleet::setup(seed);
            Some(fleet::run(inputs, 1, false).fleet.fleet_hash)
        }
        Workload::ServiceRecovery => {
            let inputs = service::setup(seed, wl.spot_scale());
            Some(service::drive(inputs, |s| s, false, None).hash)
        }
    }
}

/// `paper_contended` is a contended queue: each task is retried by many
/// scheduling passes before it runs.
const MIN_CALLS_PER_TASK: f64 = 10.0;

/// The operating point each workload declares, so that a generator
/// change cannot move it silently. `traced` holds the first traced
/// repetition of every trace (none in an untraced run).
fn check_operating_point(wl: Workload, reps: &[Rep], traced: &[&Rep], errors: &mut Vec<String>) {
    let evictions: u64 = reps.iter().map(|r| r.outcome.evictions).sum();
    match wl {
        Workload::PaperContended => {
            if evictions == 0 {
                errors.push("paper_contended evicted no spot task".to_string());
            }
            let calls: u64 = traced.iter().map(|r| r.layers.hooks.sched_calls).sum();
            let tasks: u64 = traced.iter().map(|r| r.outcome.tasks).sum();
            let per_task = calls as f64 / tasks.max(1) as f64;
            if !traced.is_empty() && per_task < MIN_CALLS_PER_TASK {
                errors.push(format!(
                    "paper_contended made {per_task:.1} schedule() calls per task, declared at least {MIN_CALLS_PER_TASK}"
                ));
            }
        }
        Workload::FleetUncontended => {
            if evictions != 0 {
                errors.push(format!("fleet_uncontended evicted {evictions} tasks"));
            }
        }
        // checked on every repetition by `check_recovery_point`
        Workload::ServiceRecovery => {}
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gfsbench: {e}");
            eprintln!(
                "usage: gfsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let traces = wl.traces();
    let mut errors = Vec::new();

    let reference = reference_hash(wl, args.seed);

    let mut spans = Spans::new();
    let root = spans.open("workload", 0);
    let budget = Duration::from_secs(args.seconds);
    // a traced run runs each trace untraced, then traced
    let per_trace = if args.trace { 2 } else { 1 };
    let pass = traces * per_trace;
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut i = 0;
    while i < pass || started.elapsed() < budget {
        let k = (i / per_trace) % traces;
        let traced = args.trace && i % 2 == 1;
        let record = traced && i == 1;
        let mut r = rep(
            wl,
            args.seed,
            k,
            traced,
            record.then_some((&mut spans, root)),
        );
        if !args.trace {
            // only the per-layer metrics use the latency samples; an
            // untraced run drops them so its memory does not grow with
            // the number of repetitions
            r.steps = Vec::new();
            r.checkpoints = Vec::new();
            r.recoveries = Vec::new();
        }
        reps.push(r);
        i += 1;
    }
    spans.close(root);

    // every repetition of a trace reproduces its first hash, traced or not
    let hashes: Vec<u64> = (0..traces)
        .map(|k| reps[(k * per_trace) as usize].outcome.hash)
        .collect();
    let hash_name = if wl == Workload::FleetUncontended {
        "fleet_hash"
    } else {
        "report_hash"
    };
    for (k, h) in hashes.iter().enumerate() {
        println!(
            "{} seed={} trace={k} sub_seed={} {hash_name}=0x{h:016x}",
            wl.name(),
            args.seed,
            sub_seed(args.seed, k as u64)
        );
    }
    for r in &mut reps {
        errors.append(&mut r.errors);
        let want = hashes[r.trace as usize];
        if r.outcome.hash != want {
            errors.push(format!(
                "trace {} (traced: {}) hashed 0x{:016x}, its first run 0x{want:016x}",
                r.trace, r.traced, r.outcome.hash
            ));
        }
    }
    if let Some(h) = reference.filter(|&h| h != hashes[0]) {
        errors.push(format!(
            "the reference run of trace 0 hashed 0x{h:016x}, the timed runs 0x{:016x}",
            hashes[0]
        ));
    }
    // the first pass: one repetition per trace (untraced), and in a
    // traced run the traced repetition of each trace
    let firsts: Vec<&Rep> = reps
        .iter()
        .take(pass as usize)
        .step_by(per_trace as usize)
        .collect();
    let traced: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.traced)
        .take(traces as usize)
        .collect();
    check_operating_point(wl, &reps, &traced, &mut errors);

    let metrics = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", wl.name()));
        if let Err(e) = spans.write_jsonl(&path) {
            errors.push(format!("cannot write spans to {}: {e}", path.display()));
        }
        per_layer(&reps, &traced, &firsts)
    } else {
        end_to_end(&reps, &firsts).unwrap_or_else(|e| {
            errors.push(e);
            Vec::new()
        })
    };

    for e in &errors {
        eprintln!("gfsbench: check failed: {e}");
    }
    let attempted: u64 = reps.iter().map(|r| r.outcome.tasks).sum();
    let failed: u64 = reps.iter().map(|r| r.outcome.failed_commits).sum();
    println!(
        "{}",
        result_json(errors.is_empty(), attempted, failed, &metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Metric = (&'static str, f64, &'static str);

/// Run wall time of each trace, in seconds: the median of its
/// repetitions with the given tracing.
fn trace_run_s(reps: &[Rep], traced: bool, traces: usize) -> Vec<f64> {
    (0..traces as u64)
        .map(|k| {
            let runs: Vec<Duration> = reps
                .iter()
                .filter(|r| r.trace == k && r.traced == traced)
                .map(|r| r.run)
                .collect();
            median_s(&runs)
        })
        .collect()
}

fn end_to_end(reps: &[Rep], firsts: &[&Rep]) -> Result<Vec<Metric>, String> {
    let tasks: u64 = firsts.iter().map(|r| r.outcome.tasks).sum();
    let run_s: f64 = trace_run_s(reps, false, firsts.len()).iter().sum();
    let setups: Vec<Duration> = reps.iter().map(|r| r.setup).collect();
    let outcome =
        |f: fn(&Outcome) -> f64| median(&firsts.iter().map(|r| f(&r.outcome)).collect::<Vec<_>>());
    Ok(vec![
        ("setup_s", median_s(&setups), "s"),
        ("tasks_per_s", tasks as f64 / run_s, "1/s"),
        ("peak_rss_mb", stats::peak_rss_mb()?, "MiB"),
        ("gpu_alloc_rate", outcome(|o| o.gpu_alloc_rate), "ratio"),
        (
            "task_fail_ratio",
            outcome(|o| o.unfinished as f64 / o.tasks.max(1) as f64),
            "ratio",
        ),
    ])
}

/// Per-layer metrics: totals of the traced repetitions of the first
/// pass divided by the number of traces (per-trace means), latency
/// quantiles over every untraced repetition, and outcome medians over
/// the traces.
fn per_layer(reps: &[Rep], traced: &[&Rep], firsts: &[&Rep]) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let mut l = Layers::default();
    for r in traced {
        l += r.layers;
    }
    let h = l.hooks;
    let tasks = firsts.iter().map(|r| r.outcome.tasks).sum::<u64>() as f64;
    let count = |v: u64| v as f64 / n;
    let secs = |d: Duration| d.as_secs_f64() / n;

    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let pooled = |f: fn(&Rep) -> Vec<f64>| plain.iter().flat_map(|r| f(r)).collect::<Vec<f64>>();
    let steps = pooled(|r| r.steps.iter().map(|&ns| ns as f64 / 1e3).collect());
    let checkpoints = pooled(|r| {
        r.checkpoints
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    });
    let recoveries = pooled(|r| r.recoveries.iter().map(|d| d.as_secs_f64() * 1e3).collect());
    let run_s = |traced| trace_run_s(reps, traced, firsts.len()).iter().sum::<f64>();
    let overhead = (run_s(true) / run_s(false) - 1.0) * 100.0;
    let setup_part = |f: fn(&Rep) -> Duration| median_s(&reps.iter().map(f).collect::<Vec<_>>());
    let outcome =
        |f: fn(&Outcome) -> f64| median(&firsts.iter().map(|r| f(&r.outcome)).collect::<Vec<_>>());

    vec![
        ("sched.calls", count(h.sched_calls), "count"),
        ("sched.placed", count(h.sched_placed), "count"),
        (
            "sched.hit_ratio",
            h.sched_placed as f64 / (h.sched_calls as f64).max(1.0),
            "ratio",
        ),
        (
            "sched.calls_per_task",
            h.sched_calls as f64 / tasks.max(1.0),
            "count",
        ),
        ("sched.busy_s", secs(h.sched_busy), "s"),
        ("sched.preemptive", count(h.sched_preemptive), "count"),
        ("sched.victims", count(h.sched_victims), "count"),
        ("tick.calls", count(h.tick_calls), "count"),
        ("tick.busy_s", secs(h.tick_busy), "s"),
        ("event.calls", count(h.event_calls), "count"),
        ("event.busy_s", secs(h.event_busy), "s"),
        ("service.steps", count(l.steps), "count"),
        ("service.step_busy_s", secs(l.step_busy), "s"),
        ("service.step_self_s", secs(l.step_self), "s"),
        (
            "commit.failed",
            outcome(|o| o.failed_commits as f64),
            "count",
        ),
        ("fleet.factory_s", secs(l.factory), "s"),
        ("fleet.run_s", secs(l.fleet_run), "s"),
        ("admit.calls", count(l.admit_calls), "count"),
        ("admit.busy_s", secs(l.admit_busy), "s"),
        ("journal.bytes", count(l.journal_bytes), "B"),
        ("snapshot.encode_s", secs(l.encode), "s"),
        (
            "snapshot.bytes",
            l.snapshot_bytes as f64 / (l.checkpoints as f64).max(1.0),
            "B",
        ),
        ("snapshot.parse_s", secs(l.parse), "s"),
        ("service.restore_s", secs(l.restore), "s"),
        ("journal.replay_s", secs(l.replay), "s"),
        ("journal.replayed", count(l.replayed), "count"),
        ("recover.rebuild_s", secs(l.rebuild), "s"),
        ("recover.count", count(l.recoveries), "count"),
        ("trace.gen_s", setup_part(|r| r.gen), "s"),
        ("gde.train_s", setup_part(|r| r.train), "s"),
        ("tracing.overhead_pct", overhead, "%"),
        ("step_p50_us", quantile(&steps, 0.5), "us"),
        ("step_p99_us", quantile(&steps, 0.99), "us"),
        ("checkpoint_p50_ms", quantile(&checkpoints, 0.5), "ms"),
        ("checkpoint_p90_ms", quantile(&checkpoints, 0.9), "ms"),
        ("recover_p50_ms", quantile(&recoveries, 0.5), "ms"),
        (
            "spot_eviction_rate",
            outcome(|o| o.spot_eviction_rate),
            "ratio",
        ),
        ("spot_jqt_mean_s", outcome(|o| o.spot_jqt_mean_s), "s"),
        ("hp_jqt_p99_s", outcome(|o| o.hp_jqt_p99_s), "s"),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // JSON has no NaN or infinity
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
