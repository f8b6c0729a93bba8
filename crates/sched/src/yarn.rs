//! YARN-CS baseline (§4.1): the classic capacity scheduler — FCFS queue,
//! best-fit placement, and preemption of spot containers whenever an HP
//! task cannot otherwise fit. Victim selection is reverse-submission order
//! (newest containers die first), the YARN convention.

use gfs_cluster::{Cluster, Decision, RetryKey, Scheduler};
use gfs_types::{SimTime, TaskSpec};

use crate::placement::{best_fit_nodes, plan_preemption};

/// The YARN-CS policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct YarnCs;

impl YarnCs {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        YarnCs
    }
}

impl Scheduler for YarnCs {
    fn name(&self) -> &str {
        "YARN-CS"
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        if let Some(nodes) = best_fit_nodes(cluster, task) {
            return Some(Decision::place(nodes));
        }
        if task.priority.is_hp() {
            // newest-first victim selection: YARN kills the most recently
            // launched containers
            let (nodes, victims) = plan_preemption(cluster, task, now, |rt, _| {
                u64::MAX - rt.started_at.as_secs()
            })?;
            return Some(Decision {
                pod_nodes: nodes,
                preemptions: victims,
            });
        }
        None
    }

    /// Best fit and the preemption plan read only the task's shape. The
    /// verdict ignores `now`: whichever node the waste comparison picks,
    /// a pod lowers that node's reclaimable cards by its demand and no
    /// other node's, so the retry epoch stays 0.
    fn retry_key(&self, task: &TaskSpec) -> Option<RetryKey> {
        Some(RetryKey::shape(task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuDemand, GpuModel, NodeId, Priority, TaskId};

    fn spot(id: u64, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(100_000)
            .build()
            .unwrap()
    }

    fn hp(id: u64, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(3_600)
            .build()
            .unwrap()
    }

    #[test]
    fn places_without_preemption_when_possible() {
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let mut s = YarnCs::new();
        let d = s.schedule(&hp(1, 4), &c, SimTime::ZERO).unwrap();
        assert!(!d.is_preemptive());
    }

    #[test]
    fn preempts_newest_spot_for_hp() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(spot(1, 4), &[NodeId::new(0)], SimTime::ZERO, 0)
            .unwrap();
        c.start_task(spot(2, 4), &[NodeId::new(0)], SimTime::from_secs(500), 0)
            .unwrap();
        let mut s = YarnCs::new();
        let d = s
            .schedule(&hp(3, 4), &c, SimTime::from_secs(1_000))
            .unwrap();
        assert_eq!(
            d.preemptions,
            vec![TaskId::new(2)],
            "newest container evicted"
        );
    }

    #[test]
    fn spot_never_preempts() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(spot(1, 8), &[NodeId::new(0)], SimTime::ZERO, 0)
            .unwrap();
        let mut s = YarnCs::new();
        assert!(s.schedule(&spot(2, 4), &c, SimTime::ZERO).is_none());
    }
}
