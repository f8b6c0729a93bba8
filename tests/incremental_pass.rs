//! Bounds the work of the incremental scheduling pass.
//!
//! Between two placements, a pass asks the scheduler about each retry
//! key at most once: a task whose key already failed under the same
//! cluster state and retry epoch is left pending unasked. So a step that
//! places `S` tasks makes at most `(S + 1) × K` `schedule()` calls, where
//! `K` is the number of distinct keys in the trace — however long the
//! queue. A full pass (every pending task asked every time) breaks that
//! bound on a contended shard, and must still produce the same report.
//!
//! This file is kept out of the `GFS_XCHECK_PASS` run: re-asking skipped
//! tasks would inflate the counts the bound is about.

use std::cmp::Ordering;
use std::collections::HashSet;

use gfs::cluster::{DrainDecision, RetryKey, RunningTask};
use gfs::prelude::*;
use gfs::sim::service::report_hash;
use gfs::sim::ClusterService;
use gfs_types::SimDuration;

/// Forwards every [`Scheduler`] method to `inner`, counting `schedule()`
/// calls and placements. With `full_pass` it hides the retry key, which
/// turns the service's pass back into "ask every pending task".
struct Counting {
    inner: Box<dyn Scheduler>,
    full_pass: bool,
    calls: u64,
    placed: u64,
}

impl Scheduler for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        self.calls += 1;
        let d = self.inner.schedule(task, cluster, now);
        self.placed += u64::from(d.is_some());
        d
    }

    fn on_tick(&mut self, now: SimTime, cluster: &Cluster) {
        self.inner.on_tick(now, cluster);
    }

    fn on_event(&mut self, event: &TaskEvent, cluster: &Cluster) {
        self.inner.on_event(event, cluster);
    }

    fn demand_forecast(&self, p: f64, h: usize) -> Option<f64> {
        self.inner.demand_forecast(p, h)
    }

    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        self.inner.drain_decision(task, notice, cluster, now)
    }

    fn queue_cmp(&self, a: &TaskSpec, b: &TaskSpec) -> Ordering {
        self.inner.queue_cmp(a, b)
    }

    fn sort_queue(&self, queue: &mut Vec<TaskSpec>) {
        self.inner.sort_queue(queue);
    }

    fn save_state(&self) -> Option<String> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &str) -> bool {
        self.inner.restore_state(state)
    }

    fn retry_key(&self, task: &TaskSpec) -> Option<RetryKey> {
        if self.full_pass {
            None
        } else {
            self.inner.retry_key(task)
        }
    }

    fn retry_epoch(&self, cluster: &Cluster, now: SimTime) -> u64 {
        self.inner.retry_epoch(cluster, now)
    }
}

const NODES: u32 = 16;
const HORIZON: SimDuration = 2 * 24 * HOUR;

/// A two-day trace on the 16-node shard, `spot_load` of its capacity in
/// spot work on top of 60% HP load.
fn trace(spot_load: f64, seed: u64) -> Vec<TaskSpec> {
    WorkloadGenerator::new(
        WorkloadConfig {
            horizon_secs: HORIZON,
            max_duration_secs: 12 * HOUR,
            seed,
            ..WorkloadConfig::default()
        }
        .sized_for(f64::from(NODES * 8), 0.6, spot_load),
    )
    .generate()
}

/// Random node failures plus a rolling maintenance drain over a quarter
/// of the shard.
fn dynamics(seed: u64) -> DynamicsPlan {
    let failures = DynamicsPlan::seeded_mtbf(NODES, 12.0 * 3600.0, 7200.0, HORIZON, seed);
    let drains =
        DynamicsPlan::rolling_drain(NODES / 4, SimTime::from_hours(6), 2 * HOUR, 600, HOUR);
    DynamicsPlan::new_unchecked([failures.events(), drains.events()].concat())
}

/// Runs `tasks` step by step on `cluster`. Returns the report and the
/// largest excess of a step's calls over `(placed + 1) × K`; in
/// incremental mode that excess must never be positive.
fn run(
    make: fn() -> Box<dyn Scheduler>,
    full_pass: bool,
    cluster: Cluster,
    tasks: &[TaskSpec],
    cfg: SimConfig,
) -> (SimReport, i64) {
    let k = tasks
        .iter()
        .map(RetryKey::shape)
        .collect::<HashSet<_>>()
        .len() as u64;
    let mut s = Counting {
        inner: make(),
        full_pass,
        calls: 0,
        placed: 0,
    };
    let mut svc = ClusterService::new(cluster, cfg);
    svc.admit_tasks(tasks.to_vec());
    svc.start();
    let mut worst = i64::MIN;
    loop {
        let (calls, placed) = (s.calls, s.placed);
        if !svc.step(&mut s) {
            break;
        }
        let (calls, placed) = (s.calls - calls, s.placed - placed);
        let bound = (placed + 1) * k;
        worst = worst.max(calls as i64 - bound as i64);
        if !full_pass {
            assert!(
                calls <= bound,
                "{}: step {} at {:?} made {calls} calls for {placed} placements (K = {k})",
                s.name(),
                svc.steps(),
                svc.now()
            );
        }
    }
    (svc.finish(), worst)
}

#[test]
fn pass_asks_each_key_once_per_placement_and_decides_like_a_full_pass() {
    let schedulers: [fn() -> Box<dyn Scheduler>; 2] = [
        || Box::new(YarnCs::new()),
        || Box::new(GfsScheduler::with_defaults()),
    ];
    for (seed, spot_load) in [(2, 0.6), (3, 1.2), (4, 2.4)] {
        let tasks = trace(spot_load, seed);
        for make in schedulers {
            let name = make().name().to_string();
            let shard = || Cluster::homogeneous(NODES, GpuModel::A100, 8);
            let cfg = || SimConfig {
                dynamics: dynamics(seed),
                ..SimConfig::default()
            };
            let (report, _) = run(make, false, shard(), &tasks, cfg());
            let (full, full_worst) = run(make, true, shard(), &tasks, cfg());
            assert_eq!(
                report_hash(&report),
                report_hash(&full),
                "{name} at spot load {spot_load}: skipping must not change a decision"
            );
            assert!(
                full_worst > 0,
                "{name} at spot load {spot_load}: the shard must be contended enough \
                 for a full pass to break the bound"
            );
        }
    }
}

/// A spot task kept off the only node by the Score3 circuit breaker
/// (Eq. 16) fails while nothing in the cluster changes. It must be
/// retried once its eviction ages out of the short window — which only
/// the retry epoch can tell the pass.
#[test]
fn circuit_broken_spot_task_is_retried_when_the_eviction_ages_out() {
    let make: fn() -> Box<dyn Scheduler> = || {
        // one eviction in the last hour trips the breaker
        let params = GfsParams::builder()
            .penalty_m(200.0)
            .build()
            .expect("valid");
        Box::new(PtsScheduler::new(params))
    };
    let task = |id, priority, submit, secs| {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(8))
            .submit_at(SimTime::from_secs(submit))
            .duration_secs(secs)
            .build()
            .expect("valid")
    };
    // the HP task evicts the spot task at t = 100 and leaves at t = 700;
    // the node then stays idle and unchanged until the window ends
    let tasks = [
        task(1, Priority::Spot, 0, 4 * HOUR),
        task(2, Priority::Hp, 100, 600),
    ];
    let cfg = || SimConfig {
        max_time_secs: Some(2 * 24 * HOUR),
        ..SimConfig::default()
    };
    let one_node = || Cluster::homogeneous(1, GpuModel::A100, 8);
    let (report, _) = run(make, false, one_node(), &tasks, cfg());
    let (full, _) = run(make, true, one_node(), &tasks, cfg());
    assert_eq!(report_hash(&report), report_hash(&full));
    let spot = &report.tasks[0];
    assert_eq!((spot.evictions, spot.runs), (1, 2), "{spot:?}");
    assert!(spot.finish.is_some(), "the spot task ran again: {spot:?}");
}
