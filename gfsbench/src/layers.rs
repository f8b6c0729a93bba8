//! The scheduler-hook layer, measured from outside the program: a
//! forwarding [`Scheduler`] wrapper that counts and times the calls the
//! simulator makes into `schedule`, `on_tick` and `on_event` (where the
//! GFS core's PTS, SQA and GDE run).
//!
//! The wrapper is used only in the traced run. It forwards every trait
//! method unchanged, so a traced run makes exactly the decisions of an
//! untraced one; the benchmark checks this by comparing report hashes.

use std::cmp::Ordering;
use std::ops::{AddAssign, Sub};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gfs::cluster::{Cluster, Decision, DrainDecision, RunningTask, Scheduler, TaskEvent};
use gfs::types::{SimDuration, SimTime, TaskSpec};

/// `schedule()` is timed on one call in `SAMPLE_EVERY` and the sampled
/// time scaled up: a GFS decision that rejects a task takes tens of
/// nanoseconds, about what reading the clock twice costs, so timing every
/// call of a contended run would triple its length. Calls are picked by
/// a hash of their index, so the sample does not follow the queue order.
const SAMPLE_EVERY: u32 = 16;

fn sampled(call: u64) -> bool {
    // SplitMix64 finalizer
    let mut z = call.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).is_multiple_of(u64::from(SAMPLE_EVERY))
}

/// What an empty timed region reads (the cost of one clock read, median
/// of many): subtracted from every hook timing, so that reading the
/// clock is not counted as hook time.
fn clock_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut v: Vec<Duration> = (0..1001)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed()
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Call counts and busy time of the three decision hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    /// `schedule()` calls.
    pub sched_calls: u64,
    /// `schedule()` calls that returned a placement.
    pub sched_placed: u64,
    /// Placements that preempt spot tasks.
    pub sched_preemptive: u64,
    /// Spot victims named by preemptive placements.
    pub sched_victims: u64,
    /// Time inside `schedule()`, estimated from a sample of the calls.
    pub sched_busy: Duration,
    /// `on_tick()` calls.
    pub tick_calls: u64,
    /// Time inside `on_tick()`.
    pub tick_busy: Duration,
    /// `on_event()` calls.
    pub event_calls: u64,
    /// Time inside `on_event()`.
    pub event_busy: Duration,
}

impl HookTotals {
    /// Time spent inside any hook.
    pub fn busy(&self) -> Duration {
        self.sched_busy + self.tick_busy + self.event_busy
    }
}

impl AddAssign for HookTotals {
    fn add_assign(&mut self, o: HookTotals) {
        self.sched_calls += o.sched_calls;
        self.sched_placed += o.sched_placed;
        self.sched_preemptive += o.sched_preemptive;
        self.sched_victims += o.sched_victims;
        self.sched_busy += o.sched_busy;
        self.tick_calls += o.tick_calls;
        self.tick_busy += o.tick_busy;
        self.event_calls += o.event_calls;
        self.event_busy += o.event_busy;
    }
}

impl Sub for HookTotals {
    type Output = HookTotals;

    fn sub(self, o: HookTotals) -> HookTotals {
        HookTotals {
            sched_calls: self.sched_calls - o.sched_calls,
            sched_placed: self.sched_placed - o.sched_placed,
            sched_preemptive: self.sched_preemptive - o.sched_preemptive,
            sched_victims: self.sched_victims - o.sched_victims,
            sched_busy: self.sched_busy - o.sched_busy,
            tick_calls: self.tick_calls - o.tick_calls,
            tick_busy: self.tick_busy - o.tick_busy,
            event_calls: self.event_calls - o.event_calls,
            event_busy: self.event_busy - o.event_busy,
        }
    }
}

/// What a fleet shard's traced scheduler reports when it is dropped at
/// the end of its shard run.
#[derive(Debug, Default)]
pub struct ShardTotals {
    /// Hook totals summed over shards.
    pub hooks: HookTotals,
    /// Summed lifetime of the shard schedulers: from the end of the
    /// factory call to the drop after the shard's engine run.
    pub engine_busy: Duration,
}

/// A scheduler that forwards every [`Scheduler`] method to `inner`,
/// timing and counting the three decision hooks.
pub struct Traced<S> {
    inner: S,
    totals: HookTotals,
    /// [`clock_cost`], read once.
    clock: Duration,
    born: Instant,
    /// Where a fleet shard's totals go when the engine drops the
    /// scheduler; `None` for schedulers the benchmark holds itself.
    sink: Option<Arc<Mutex<ShardTotals>>>,
}

impl<S: Scheduler> Traced<S> {
    /// Wraps a scheduler whose totals the caller reads with
    /// [`Traced::totals`].
    pub fn new(inner: S) -> Self {
        Traced {
            inner,
            totals: HookTotals::default(),
            clock: clock_cost(),
            born: Instant::now(),
            sink: None,
        }
    }

    /// Wraps a scheduler that adds its totals to `sink` when dropped.
    pub fn with_sink(inner: S, sink: Arc<Mutex<ShardTotals>>) -> Self {
        Traced {
            inner,
            totals: HookTotals::default(),
            clock: clock_cost(),
            born: Instant::now(),
            sink: Some(sink),
        }
    }

    fn since(&self, t0: Instant) -> Duration {
        t0.elapsed().saturating_sub(self.clock)
    }

    /// Totals so far.
    pub fn totals(&self) -> HookTotals {
        self.totals
    }
}

impl<S> Drop for Traced<S> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            // a poisoned sink means another shard panicked; the run fails
            // there, so losing these totals changes nothing
            if let Ok(mut s) = sink.lock() {
                s.hooks += self.totals;
                s.engine_busy += self.born.elapsed();
            }
        }
    }
}

impl<S: Scheduler> Scheduler for Traced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        self.totals.sched_calls += 1;
        let d = if sampled(self.totals.sched_calls) {
            let t0 = Instant::now();
            let d = self.inner.schedule(task, cluster, now);
            self.totals.sched_busy += self.since(t0) * SAMPLE_EVERY;
            d
        } else {
            self.inner.schedule(task, cluster, now)
        };
        if let Some(d) = &d {
            self.totals.sched_placed += 1;
            if d.is_preemptive() {
                self.totals.sched_preemptive += 1;
                self.totals.sched_victims += d.preemptions.len() as u64;
            }
        }
        d
    }

    fn on_tick(&mut self, now: SimTime, cluster: &Cluster) {
        let t0 = Instant::now();
        self.inner.on_tick(now, cluster);
        self.totals.tick_busy += self.since(t0);
        self.totals.tick_calls += 1;
    }

    fn on_event(&mut self, event: &TaskEvent, cluster: &Cluster) {
        let t0 = Instant::now();
        self.inner.on_event(event, cluster);
        self.totals.event_busy += self.since(t0);
        self.totals.event_calls += 1;
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
}
