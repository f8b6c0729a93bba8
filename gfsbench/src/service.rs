//! The two workloads that drive one `ClusterService` step by step:
//! `paper_contended` and `service_recovery`.
//!
//! The client is a closed loop: it admits each simulated hour's arrivals
//! one hour ahead (so no arrival lies in the service's past and none is
//! clamped), and it admits the next batch only after `step` returns.

use std::time::{Duration, Instant};

use gfs::cluster::{Cluster, Scheduler};
use gfs::core::GfsScheduler;
use gfs::scenario;
use gfs::sim::service::report_hash;
use gfs::sim::{ClusterService, ServiceSnapshot, SimConfig, SimReport};
use gfs::trace::{WorkloadConfig, WorkloadGenerator};
use gfs::types::{GfsParams, GpuModel, TaskSpec, HOUR};

use crate::layers::{HookTotals, Traced};
use crate::spans::Spans;

/// The §4.1 pool: 287 nodes × 8 A100.
const NODES: u32 = 287;
const GPUS_PER_NODE: u32 = 8;
/// Submission window and simulated horizon: one week.
pub const WEEK_HOURS: u64 = 168;
/// Weeks of demand history the GDE trains on (the §4 deployment).
const GDE_WEEKS: usize = 3;
/// HP and spot load the trace is sized for, as shares of capacity.
const HP_LOAD: f64 = 0.6;
const SPOT_LOAD: f64 = 0.12;
/// `sized_for` estimates the mean task size from a 600-task sample of
/// its own seed, so its task counts vary twofold from seed to seed. Every
/// trace is sized from this one seed instead: the task counts are fixed
/// (10,573 HP and 1,862 spot tasks at spot scale 1), and only the
/// traces' contents vary with the seed.
const SIZING_SEED: u64 = 1;
/// `service_recovery` crashes the service at every sixth hour boundary.
pub const CRASH_EVERY_HOURS: u64 = 6;

/// Inputs of one service run, built by [`setup`].
pub struct Inputs {
    /// Arrivals by submission hour.
    batches: Vec<Vec<TaskSpec>>,
    /// Every task id, sorted: the report must hold each exactly once.
    ids: Vec<u64>,
    cluster: Cluster,
    scheduler: GfsScheduler,
    expected_hp: f64,
    gde_seed: u64,
    /// Trace generation time.
    pub gen: Duration,
    /// GDE training time (`scenario::gfs_full`).
    pub train: Duration,
}

/// Generates the Table-3 trace at `spot_scale`, trains the GDE and builds
/// the pool.
pub fn setup(seed: u64, spot_scale: f64) -> Inputs {
    let t0 = Instant::now();
    let capacity = f64::from(NODES * GPUS_PER_NODE);
    let sized = WorkloadConfig {
        horizon_secs: WEEK_HOURS * HOUR,
        spot_scale,
        seed: SIZING_SEED,
        ..WorkloadConfig::default()
    }
    .sized_for(capacity, HP_LOAD, SPOT_LOAD);
    let tasks = WorkloadGenerator::new(WorkloadConfig { seed, ..sized }).generate();
    let mut ids: Vec<u64> = tasks.iter().map(|t| t.id.raw()).collect();
    ids.sort_unstable();
    let mut batches: Vec<Vec<TaskSpec>> = (0..WEEK_HOURS).map(|_| Vec::new()).collect();
    for t in tasks {
        let h = (t.submit_at.as_secs() / HOUR).min(WEEK_HOURS - 1);
        batches[h as usize].push(t);
    }
    let gen = t0.elapsed();

    let t1 = Instant::now();
    let expected_hp = HP_LOAD * capacity;
    let scheduler = scenario::gfs_full(GfsParams::default(), GDE_WEEKS, seed, expected_hp);
    let train = t1.elapsed();
    Inputs {
        batches,
        ids,
        cluster: Cluster::homogeneous(NODES, GpuModel::A100, GPUS_PER_NODE),
        scheduler,
        expected_hp,
        gde_seed: seed,
        gen,
        train,
    }
}

/// A scheduler [`drive`] can read hook totals from: the traced wrapper
/// reports its own, the bare scheduler reports none.
pub trait Hooks: Scheduler {
    fn hook_totals(&self) -> Option<HookTotals>;
}

impl Hooks for GfsScheduler {
    fn hook_totals(&self) -> Option<HookTotals> {
        None
    }
}

impl<S: Scheduler> Hooks for Traced<S> {
    fn hook_totals(&self) -> Option<HookTotals> {
        Some(self.totals())
    }
}

/// Timings of one crash recovery.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Scheduler rebuild (fresh `gfs_full`, which retrains the GDE).
    pub rebuild: Duration,
    /// `ServiceSnapshot::from_json`.
    pub parse: Duration,
    /// `ClusterService::restore`.
    pub restore: Duration,
    /// `ClusterService::replay_journal`.
    pub replay: Duration,
    /// Journal records the replay applied.
    pub replayed: usize,
}

impl Recovery {
    pub fn total(&self) -> Duration {
        self.rebuild + self.parse + self.restore + self.replay
    }
}

/// What one service run did.
#[derive(Debug, Default)]
pub struct Driven {
    pub report: SimReport,
    pub hash: u64,
    /// Wall latency of every `step`, nanoseconds.
    pub steps: Vec<u64>,
    pub step_busy: Duration,
    pub admit_calls: u64,
    pub admit_busy: Duration,
    pub journal_bytes: u64,
    /// `snapshot_json` latency of every checkpoint.
    pub checkpoints: Vec<Duration>,
    pub snapshot_bytes: u64,
    pub recoveries: Vec<Recovery>,
    /// Hook totals of every scheduler the run used (traced runs only).
    pub hooks: HookTotals,
    /// Hook time spent inside `step` (excludes replay and restore).
    pub step_hooks: Duration,
    /// Output check failures.
    pub errors: Vec<String>,
}

/// Runs the service over `inputs`. With `durable`, the service journals
/// every admission, checkpoints at every hour boundary and crashes at
/// every [`CRASH_EVERY_HOURS`]th one: the crashed service and scheduler
/// are dropped, a fresh scheduler is built with `rebuild`, the previous
/// hour's snapshot is parsed and restored and the journal replayed, and
/// the client carries on. `spans` takes the traced run's recorder and
/// the id of the run span.
pub fn drive<S: Hooks>(
    inputs: Inputs,
    wrap: impl Fn(GfsScheduler) -> S,
    durable: bool,
    mut spans: Option<(&mut Spans, u32)>,
) -> Driven {
    let Inputs {
        batches,
        ids,
        cluster,
        scheduler,
        expected_hp,
        gde_seed,
        ..
    } = inputs;
    let rebuild = || {
        wrap(scenario::gfs_full(
            GfsParams::default(),
            GDE_WEEKS,
            gde_seed,
            expected_hp,
        ))
    };
    let mut out = Driven::default();
    let mut sched = wrap(scheduler);
    let mut svc = ClusterService::new(
        cluster,
        SimConfig {
            max_time_secs: Some(WEEK_HOURS * HOUR),
            ..SimConfig::default()
        },
    );
    if durable {
        svc.enable_journal();
    }
    let mut batches = batches.into_iter();
    for _ in 0..2 {
        admit(&mut svc, batches.next().unwrap_or_default(), &mut out);
    }
    svc.start();

    // the client acts at hour boundary `b` once the clock reaches it:
    // checkpoint, then admit hour b+1
    let mut boundary = 1u64;
    let mut crashed_at = 0u64;
    let mut snapshot = String::new();
    let mut drained = false;
    loop {
        while boundary <= WEEK_HOURS && (drained || svc.now().as_secs() >= boundary * HOUR) {
            drained = false;
            if durable && boundary.is_multiple_of(CRASH_EVERY_HOURS) && crashed_at < boundary {
                crashed_at = boundary;
                let start = Instant::now();
                match recover(&svc, &snapshot, &rebuild) {
                    Ok((fresh_svc, fresh_sched, r)) => {
                        if let Some(h) = sched.hook_totals() {
                            out.hooks += h;
                        }
                        svc = fresh_svc;
                        sched = fresh_sched;
                        if let Some((spans, run)) = spans.as_mut() {
                            spans.record("recovery", *run, start, r.total(), None);
                        }
                        out.recoveries.push(r);
                    }
                    Err(e) => {
                        out.errors.push(format!("recovery at hour {boundary}: {e}"));
                        return out;
                    }
                }
                // the restored service is back at the previous boundary:
                // step through the lost hour again
                break;
            }
            if durable {
                let start = Instant::now();
                snapshot = svc.snapshot_json(&sched);
                let dt = start.elapsed();
                out.checkpoints.push(dt);
                out.snapshot_bytes += snapshot.len() as u64;
                if let Some((spans, run)) = spans.as_mut() {
                    spans.record("checkpoint", *run, start, dt, None);
                }
            }
            admit(&mut svc, batches.next().unwrap_or_default(), &mut out);
            boundary += 1;
        }

        let before = sched.hook_totals();
        let start = Instant::now();
        if !svc.step(&mut sched) {
            if boundary > WEEK_HOURS {
                break;
            }
            // nothing is left before the next boundary (every admitted
            // task finished, or the horizon is reached): act on it at once
            drained = true;
            continue;
        }
        let dt = start.elapsed();
        out.steps.push(dt.as_nanos() as u64);
        out.step_busy += dt;
        if let (Some(before), Some(after)) = (before, sched.hook_totals()) {
            let inside = after - before;
            out.step_hooks += inside.busy();
            if let Some((spans, run)) = spans.as_mut() {
                spans.record("step", *run, start, dt, Some(inside));
            }
        }
    }
    if let Some(h) = sched.hook_totals() {
        out.hooks += h;
    }
    let report = svc.finish();
    check_ids(&report, &ids, &mut out.errors);
    out.hash = report_hash(&report);
    out.report = report;
    out
}

/// Admits one hour's arrivals; an hour without arrivals is still one
/// (empty) admission, so every hour boundary leaves a journal record.
fn admit(svc: &mut ClusterService, batch: Vec<TaskSpec>, out: &mut Driven) {
    let journal_before = svc.journal().map_or(0, |j| j.text().len());
    let start = Instant::now();
    svc.admit_tasks(batch);
    out.admit_busy += start.elapsed();
    out.admit_calls += 1;
    out.journal_bytes += (svc.journal().map_or(0, |j| j.text().len()) - journal_before) as u64;
}

type Recovered<S> = (ClusterService, S, Recovery);

/// Crash recovery: fresh scheduler, parse + restore the last snapshot,
/// replay the crashed service's journal.
fn recover<S: Hooks>(
    crashed: &ClusterService,
    snapshot: &str,
    rebuild: &impl Fn() -> S,
) -> Result<Recovered<S>, String> {
    let journal = crashed.journal().ok_or("the journal is not enabled")?;
    let mut r = Recovery::default();
    let t = Instant::now();
    let mut sched = rebuild();
    r.rebuild = t.elapsed();
    let t = Instant::now();
    let snap = ServiceSnapshot::from_json(snapshot).map_err(|e| e.to_string())?;
    r.parse = t.elapsed();
    let t = Instant::now();
    let mut svc = ClusterService::restore(snap, &mut sched).map_err(|e| e.to_string())?;
    r.restore = t.elapsed();
    svc.enable_journal();
    let t = Instant::now();
    let replay = svc.replay_journal(journal.text(), &mut sched);
    r.replay = t.elapsed();
    if let Some(e) = replay.rejected {
        return Err(format!("journal replay rejected a record: {e}"));
    }
    r.replayed = replay.applied;
    Ok((svc, sched, r))
}

/// Every admitted task appears exactly once in the report.
pub fn check_ids(report: &SimReport, ids: &[u64], errors: &mut Vec<String>) {
    let mut seen: Vec<u64> = report.tasks.iter().map(|t| t.id.raw()).collect();
    seen.sort_unstable();
    if seen != ids {
        errors.push(format!(
            "report holds {} task records for {} admitted tasks, or different ids",
            seen.len(),
            ids.len()
        ));
    }
}
