//! The bare PTS placement engine as a standalone scheduler.
//!
//! [`PtsScheduler`] is `GfsScheduler` minus the SQA quota gate and the
//! demand estimator: spot tasks are admitted whenever placement succeeds,
//! HP tasks fall back to waste-aware preemption, and the queue follows the
//! §3.4.2 order. It exists as the *placement ablation row*: pairing it
//! with a [`PlacementPolicy`] measures what churn-aware placement (domain
//! spreading, reliability scoring, drain awareness) contributes on its
//! own, with no quota feedback in the loop.

use gfs_cluster::{Cluster, Decision, DrainDecision, RetryKey, RunningTask, Scheduler};
use gfs_sched::placement::PlacementPolicy;
use gfs_types::{GfsParams, SimDuration, SimTime, TaskSpec};

use crate::pts::{Pts, PtsVariant};

/// The PTS placement engine behind the [`Scheduler`] trait, with no spot
/// quota: a pure placement policy.
#[derive(Debug, Clone)]
pub struct PtsScheduler {
    pts: Pts,
}

impl PtsScheduler {
    /// Creates the scheduler with policy-less placement.
    #[must_use]
    pub fn new(params: GfsParams) -> Self {
        PtsScheduler::with_policy(params, PlacementPolicy::naive())
    }

    /// Creates the scheduler with a churn [`PlacementPolicy`].
    #[must_use]
    pub fn with_policy(params: GfsParams, policy: PlacementPolicy) -> Self {
        PtsScheduler {
            pts: Pts::with_policy(params, PtsVariant::Full, policy),
        }
    }

    /// The active churn policy.
    #[must_use]
    pub fn policy(&self) -> &PlacementPolicy {
        self.pts.policy()
    }
}

impl Scheduler for PtsScheduler {
    fn name(&self) -> &str {
        "PTS"
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        if let Some(nodes) = self.pts.schedule_nonpreemptive(task, cluster, now) {
            return Some(Decision::place(nodes));
        }
        if task.priority.is_hp() {
            let (nodes, victims) = self.pts.schedule_preemptive(task, cluster, now)?;
            return Some(Decision {
                pod_nodes: nodes,
                preemptions: victims,
            });
        }
        None
    }

    fn queue_cmp(&self, a: &TaskSpec, b: &TaskSpec) -> std::cmp::Ordering {
        Pts::task_order(a, b)
    }

    fn retry_key(&self, task: &TaskSpec) -> Option<RetryKey> {
        Some(RetryKey::shape(task))
    }

    fn retry_epoch(&self, cluster: &Cluster, now: SimTime) -> u64 {
        self.pts.retry_epoch(cluster, now)
    }

    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        self.pts.policy().drain_decision(task, notice, cluster, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{FailureDomain, GpuDemand, GpuModel, NodeId, Priority, TaskId};

    fn task(id: u64, priority: Priority, pods: u32, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .pods(pods)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(50_000)
            .build()
            .unwrap()
    }

    #[test]
    fn admits_spot_without_quota_and_preempts_for_hp() {
        let mut s = PtsScheduler::new(GfsParams::default());
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        // spot lands with no on_tick warm-up (no SQA gate)
        let d = s
            .schedule(&task(1, Priority::Spot, 1, 8), &c, SimTime::ZERO)
            .unwrap();
        assert!(!d.is_preemptive());
        c.start_task(
            task(1, Priority::Spot, 1, 8),
            &d.pod_nodes,
            SimTime::ZERO,
            0,
        )
        .unwrap();
        // a full cluster refuses further spot but preempts for HP
        assert!(s
            .schedule(&task(2, Priority::Spot, 1, 4), &c, SimTime::from_secs(10))
            .is_none());
        let d = s
            .schedule(&task(3, Priority::Hp, 1, 4), &c, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(d.preemptions, vec![TaskId::new(1)]);
    }

    #[test]
    fn spread_policy_splits_gangs_across_racks() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        c.set_failure_domains(&FailureDomain::racks(4, 2));
        let gang = task(1, Priority::Hp, 2, 4);
        // naive packing stacks both pods on one node (Score1 ties break low)
        let mut naive = PtsScheduler::new(GfsParams::default());
        let d = naive.schedule(&gang, &c, SimTime::ZERO).unwrap();
        assert_eq!(
            d.pod_nodes[0], d.pod_nodes[1],
            "packing co-locates the gang"
        );
        // domain spread pushes the second pod into the other rack
        let mut spread =
            PtsScheduler::with_policy(GfsParams::default(), PlacementPolicy::domain_spread());
        let d = spread.schedule(&gang, &c, SimTime::ZERO).unwrap();
        let racks: Vec<_> = d.pod_nodes.iter().map(|n| c.domain_of(*n)).collect();
        assert_ne!(
            racks[0], racks[1],
            "gang spans two failure domains: {:?}",
            d.pod_nodes
        );
    }

    #[test]
    fn spread_falls_back_when_capacity_is_tight() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.set_failure_domains(&[FailureDomain::new([NodeId::new(0), NodeId::new(1)])]);
        // one domain only: anti-affinity cannot separate, but the gang
        // must still land (best-effort)
        let mut spread =
            PtsScheduler::with_policy(GfsParams::default(), PlacementPolicy::domain_spread());
        let d = spread
            .schedule(&task(1, Priority::Hp, 2, 8), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(d.pod_nodes.len(), 2);
    }

    #[test]
    fn reliability_policy_avoids_flaky_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        // node 0 failed twice recently; naive placement still prefers it
        // (tie on scores → lower id), reliability steers to node 1
        for h in [1u64, 3] {
            c.fail_node(NodeId::new(0), SimTime::from_hours(h)).unwrap();
            c.restore_node(NodeId::new(0), SimTime::from_hours(h + 1))
                .unwrap();
        }
        let now = SimTime::from_hours(5);
        let spot = task(1, Priority::Spot, 1, 2);
        let mut naive = PtsScheduler::new(GfsParams::default());
        assert_eq!(
            naive.schedule(&spot, &c, now).unwrap().pod_nodes,
            vec![NodeId::new(0)]
        );
        let mut scored =
            PtsScheduler::with_policy(GfsParams::default(), PlacementPolicy::reliability_scored());
        assert_eq!(
            scored.schedule(&spot, &c, now).unwrap().pod_nodes,
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn drain_aware_policy_avoids_racks_mid_maintenance() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        c.set_failure_domains(&FailureDomain::racks(4, 2));
        c.drain_node(NodeId::new(0), SimTime::from_hours(2))
            .unwrap();
        let spot = task(1, Priority::Spot, 1, 2);
        let now = SimTime::from_secs(100);
        // naive: lower id wins the tie → node 1, right next to the drain
        let mut naive = PtsScheduler::new(GfsParams::default());
        assert_eq!(
            naive.schedule(&spot, &c, now).unwrap().pod_nodes,
            vec![NodeId::new(1)]
        );
        // drain-aware: rack 0 is mid-wave, prefer rack 1
        let mut aware =
            PtsScheduler::with_policy(GfsParams::default(), PlacementPolicy::churn_aware());
        assert_eq!(
            aware.schedule(&spot, &c, now).unwrap().pod_nodes,
            vec![NodeId::new(2)]
        );
    }

    #[test]
    fn queue_order_is_pts_order() {
        let s = PtsScheduler::new(GfsParams::default());
        let mut q = vec![task(1, Priority::Hp, 1, 1), task(2, Priority::Hp, 1, 8)];
        s.sort_queue(&mut q);
        assert_eq!(q[0].id, TaskId::new(2), "larger requests first");
    }
}
