//! The scheduler interface every policy (GFS and all baselines) implements.
//!
//! A scheduler receives an immutable view of the [`Cluster`] and answers
//! placement questions; the simulator owns execution (evicting victims,
//! committing placements, requeuing). This keeps policies pure and easy to
//! compare.

use std::cmp::Ordering;

use gfs_types::{GpuDemand, GpuModel, NodeId, Priority, SimDuration, SimTime, TaskId, TaskSpec};

use crate::cluster::{Cluster, RunningTask};

/// A placement decision for one task.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Decision {
    /// Hosting node for each pod (length = pod count; duplicates allowed).
    pub pod_nodes: Vec<NodeId>,
    /// Spot tasks that must be evicted before the placement fits.
    pub preemptions: Vec<TaskId>,
}

impl Decision {
    /// A decision that places pods without preempting anyone.
    #[must_use]
    pub fn place(pod_nodes: Vec<NodeId>) -> Self {
        Decision {
            pod_nodes,
            preemptions: Vec::new(),
        }
    }

    /// Whether the decision requires evictions.
    #[must_use]
    pub fn is_preemptive(&self) -> bool {
        !self.preemptions.is_empty()
    }
}

/// The part of a task a scheduler's verdict depends on — the answer of
/// [`Scheduler::retry_key`]. Two tasks with equal keys get the same
/// `Some`/`None` verdict from an opted-in scheduler on the same cluster
/// state, so the simulator retries only one of them after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryKey {
    priority: Priority,
    gpu_model: GpuModel,
    pods: u32,
    /// Whole cards, or the bit pattern of a fractional share (tagged by
    /// `fraction`), so fractional demands compare exactly.
    demand: u64,
    fraction: bool,
}

impl RetryKey {
    /// The request shape of `task`: priority, GPU model, pod count and
    /// per-pod demand. Id, org, submit time, duration and checkpoint
    /// plan are left out.
    #[must_use]
    pub fn shape(task: &TaskSpec) -> Self {
        let (demand, fraction) = match task.gpus_per_pod {
            GpuDemand::Whole(g) => (u64::from(g), false),
            GpuDemand::Fraction(f) => (f.to_bits(), true),
        };
        RetryKey {
            priority: task.priority,
            gpu_model: task.gpu_model,
            pods: task.pods,
            demand,
            fraction,
        }
    }
}

/// Lifecycle notifications delivered to schedulers for feedback loops
/// (e.g. the SQA's eviction-rate / queueing-time controller, Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEvent {
    /// A task entered the pending queue.
    Submitted {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Event time.
        at: SimTime,
    },
    /// A task started executing after queuing for `queued_secs`.
    Started {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Seconds spent in the queue for this segment.
        queued_secs: u64,
        /// Event time.
        at: SimTime,
    },
    /// A task finished all its work.
    Finished {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Event time.
        at: SimTime,
    },
    /// A spot task was evicted by a preemption.
    Evicted {
        /// Task id.
        task: TaskId,
        /// Event time.
        at: SimTime,
    },
    /// A task (any priority) was displaced by a node failure. Kept apart
    /// from [`TaskEvent::Evicted`] so eviction-driven feedback loops
    /// (Eq. 11, Eq. 15) are not polluted by hardware churn.
    Displaced {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Event time.
        at: SimTime,
    },
    /// A node began a maintenance drain: it accepts no new placements
    /// (its cards already left every capacity total) and will be forced
    /// down at `deadline`. Tasks that cannot finish inside the notice
    /// window are migrated by the simulator and arrive as
    /// [`TaskEvent::Displaced`] notifications just before this event, so
    /// a policy can proactively re-place gangs instead of losing work at
    /// the deadline.
    DrainNotice {
        /// The draining node.
        node: NodeId,
        /// When the node will be forced out of service.
        deadline: SimTime,
        /// Event time (start of the notice window).
        at: SimTime,
    },
    /// A fresh node joined the cluster (scale-out); its capacity just
    /// entered every cluster total.
    NodeAdded {
        /// The minted node.
        node: NodeId,
        /// Cards it brought.
        added_gpus: u32,
        /// Event time.
        at: SimTime,
    },
    /// A node failed; its capacity just left every cluster total.
    NodeDown {
        /// The failed node.
        node: NodeId,
        /// Cards that vanished with it.
        lost_gpus: u32,
        /// Event time.
        at: SimTime,
    },
    /// A node returned to service with all cards idle.
    NodeUp {
        /// The restored node.
        node: NodeId,
        /// Cards that came back.
        restored_gpus: u32,
        /// Event time.
        at: SimTime,
    },
}

/// What to do with a task running on a node that just received a drain
/// notice — the answer of [`Scheduler::drain_decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainDecision {
    /// Migrate the gang now (graceful release with checkpointed progress,
    /// requeue after the grace period) — early in the notice window,
    /// before the forced deadline.
    Migrate,
    /// Leave the gang running on the draining node: it either finishes
    /// inside the notice window or keeps checkpointing until the forced
    /// shutdown displaces it at the deadline.
    Stay,
}

/// A scheduling policy.
///
/// Implementations must be deterministic: same state + same inputs must
/// produce the same decision, so simulations are reproducible.
pub trait Scheduler {
    /// Display name used in reports.
    fn name(&self) -> &str;

    /// Proposes a placement for `task`, or `None` to leave it pending.
    ///
    /// A returned [`Decision`] may list spot victims in `preemptions`; the
    /// simulator evicts them before committing the placement.
    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision>;

    /// Periodic hook (the simulator fires it at the configured quota-update
    /// interval; GFS recomputes `Q_H` here).
    fn on_tick(&mut self, _now: SimTime, _cluster: &Cluster) {}

    /// Lifecycle notification hook.
    fn on_event(&mut self, _event: &TaskEvent, _cluster: &Cluster) {}

    /// Aggregate upper-quantile GPU-demand forecast over the next `_h`
    /// hours at confidence `_p`, if this scheduler maintains one. GFS
    /// answers from its demand estimator (the Eq. 9 per-org upper
    /// quantiles, aggregated); schedulers without a forecasting loop
    /// return `None` and capacity controllers (`gfs_market`) fall back to
    /// a windowed-arrival estimate. Must be a pure read: the simulator
    /// never calls it, so scheduler state and goldens are unaffected.
    fn demand_forecast(&self, _p: f64, _h: usize) -> Option<f64> {
        None
    }

    /// Chooses how `task`, running on a node whose drain notice just
    /// landed, rides out the notice window. The simulator consults this
    /// once per affected gang at the notice and executes the answer.
    ///
    /// The default reproduces the engine's historical hard-wired rule:
    /// migrate exactly the gangs that cannot finish inside the window
    /// (`remaining > notice`), leave the rest to finish in place. A
    /// drain-aware policy may instead keep a can't-finish gang
    /// checkpointing until the deadline when the cluster has no room for
    /// it anyway — see `gfs_sched::placement::PlacementPolicy`.
    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        _cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        if task.remaining(now) > notice {
            DrainDecision::Migrate
        } else {
            DrainDecision::Stay
        }
    }

    /// Relative queue priority of two pending tasks: `Less` runs first.
    ///
    /// The key must be *static per task* (derived from the spec only): the
    /// simulator keeps its pending queue incrementally sorted by this
    /// comparator — inserting each task once instead of re-sorting the
    /// whole queue every scheduling pass — and equal tasks stay in FIFO
    /// arrival order. The default (`Equal`) is plain FIFO; PTS orders by
    /// GPU request, pod count and submit time (§3.4.2).
    fn queue_cmp(&self, _a: &TaskSpec, _b: &TaskSpec) -> Ordering {
        Ordering::Equal
    }

    /// Sorts a queue into the order of [`Scheduler::queue_cmp`] (stable, so
    /// ties keep their arrival order). Provided for external callers; the
    /// simulator itself maintains order incrementally.
    fn sort_queue(&self, queue: &mut Vec<TaskSpec>) {
        queue.sort_by(|a, b| self.queue_cmp(a, b));
    }

    /// Declares which task fields a `None` from [`Scheduler::schedule`]
    /// depends on, so the simulator can skip pending tasks whose failure
    /// is already known. Like [`Scheduler::queue_cmp`] the key must be
    /// static per task; the simulator reads it once, when the task is
    /// first submitted.
    ///
    /// **Contract.** If `schedule` returned `None` for a task with key
    /// `K`, it returns `None` for every task with key `K` for as long as
    /// three values are unchanged: the cluster's
    /// [`ChangeLog::instance`](crate::ChangeLog::instance), its
    /// [`ChangeLog::cursor`](crate::ChangeLog::cursor), and
    /// [`Scheduler::retry_epoch`]. A failing `schedule` must not change
    /// decision-relevant state (read-side caches may change).
    ///
    /// The default `None` opts out: such a task is asked again in every
    /// scheduling pass. [`RetryKey::shape`] is the usual key.
    fn retry_key(&self, _task: &TaskSpec) -> Option<RetryKey> {
        None
    }

    /// A value that changes whenever a failed decision may have turned
    /// into a success without any cluster mutation: a change of the
    /// scheduler's own decision state (a new quota) or the mere passage
    /// of simulated time.
    ///
    /// **Time validity.** The simulator evaluates the epoch at the start
    /// and the end of a scheduling pass (while it holds failures), at
    /// that pass's `now`, and trusts a failure recorded at time `t₁` at a
    /// later `t₂` exactly when the epoch (and the change log) read the
    /// same at both. A scheduler whose verdicts decay with time must
    /// therefore change the epoch by the first instant at which a `None`
    /// from `t₁` could become `Some` — e.g. when a windowed eviction
    /// count ages out. Evaluating the epoch may update read-side caches.
    ///
    /// Only consulted for tasks with a [`Scheduler::retry_key`]; the
    /// default `0` suits schedulers whose verdicts ignore `now` and carry
    /// no decision state.
    fn retry_epoch(&self, _cluster: &Cluster, _now: SimTime) -> u64 {
        0
    }

    /// Serializes the scheduler's *dynamic* state (feedback-loop
    /// accumulators, demand history — anything not rebuilt by the
    /// scheduler's constructor) for a service snapshot. `None` declares
    /// the scheduler stateless: every decision is a pure function of the
    /// cluster view, so crash recovery only needs to re-run the
    /// constructor. The default is `None`, which is correct for all
    /// baseline schedulers in the workspace; GFS overrides it.
    fn save_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`Scheduler::save_state`] into a
    /// freshly-constructed scheduler. Returns `false` when the blob is
    /// not recognized (wrong scheduler, corrupted snapshot); the default
    /// accepts nothing, matching the default `save_state` of `None`.
    fn restore_state(&mut self, _state: &str) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_constructors() {
        let d = Decision::place(vec![NodeId::new(1), NodeId::new(1)]);
        assert!(!d.is_preemptive());
        let p = Decision {
            pod_nodes: vec![NodeId::new(0)],
            preemptions: vec![TaskId::new(9)],
        };
        assert!(p.is_preemptive());
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        struct Never;
        impl Scheduler for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn schedule(&mut self, _: &TaskSpec, _: &Cluster, _: SimTime) -> Option<Decision> {
                None
            }
        }
        let mut s: Box<dyn Scheduler> = Box::new(Never);
        let cluster = Cluster::homogeneous(1, gfs_types::GpuModel::A100, 8);
        let task = TaskSpec::builder(1).build().unwrap();
        assert!(s.schedule(&task, &cluster, SimTime::ZERO).is_none());
        assert_eq!(s.name(), "never");
    }
}
