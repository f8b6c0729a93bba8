//! The batch entry point of the discrete-event simulation.
//!
//! Events (submissions, completions, requeues after eviction, quota ticks,
//! utilisation samples, and the injected cluster timeline — failures,
//! recoveries, maintenance drains, scale-out; see [`crate::dynamics`])
//! are processed in `(time, sequence)` order; after
//! every batch of same-timestamp events the engine runs one scheduling pass
//! over the pending queue. All state transitions go through
//! [`gfs_cluster::Cluster`], so a scheduler can never corrupt accounting.
//!
//! The event loop itself lives in [`crate::service`] as the long-running,
//! crash-safe [`ClusterService`](crate::ClusterService); [`run`] is a thin
//! driver over it — admit the whole trace, arm the timers, drain the heap,
//! close the report — and is bit-identical to the historical monolithic
//! loop (pinned by `tests/golden_report.rs` at the workspace root).

use gfs_cluster::{Cluster, Scheduler};
use gfs_types::{DynamicsPlan, SimDuration, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::report::SimReport;
use crate::service::ClusterService;

/// Engine configuration.
///
/// Serializable: a [`crate::ServiceSnapshot`] embeds the configuration so
/// a restored service resumes under the exact timers and horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cadence of [`Scheduler::on_tick`] (the paper's 300 s quota-update
    /// interval).
    pub tick_interval_secs: SimDuration,
    /// Delay between an eviction and the task re-entering the queue (the
    /// preemption grace period, 30 s). Displaced tasks requeue after the
    /// same delay.
    pub requeue_delay_secs: SimDuration,
    /// Cadence of allocation-rate samples.
    pub alloc_sample_interval_secs: SimDuration,
    /// Record per-node allocation series (Fig. 8 heat-maps).
    pub record_node_alloc: bool,
    /// Hard stop, seconds of simulated time (tasks still pending are
    /// reported as unfinished).
    pub max_time_secs: Option<u64>,
    /// Cluster timeline injected alongside the task trace: failures,
    /// recoveries, maintenance drains and scale-out steps (see
    /// [`crate::dynamics`] for the event flow). The
    /// default empty plan is a strict no-op.
    pub dynamics: DynamicsPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            tick_interval_secs: 300,
            requeue_delay_secs: 30,
            alloc_sample_interval_secs: 3_600,
            record_node_alloc: false,
            max_time_secs: None,
            dynamics: DynamicsPlan::none(),
        }
    }
}

/// Runs a trace against a scheduler on a cluster.
///
/// Deterministic: identical inputs produce identical reports.
pub fn run(
    cluster: Cluster,
    scheduler: &mut dyn Scheduler,
    tasks: Vec<TaskSpec>,
    cfg: &SimConfig,
) -> SimReport {
    let mut service = ClusterService::new(cluster, cfg.clone());
    service.admit_tasks(tasks);
    service.start();
    service.run_to_end(scheduler);
    service.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use gfs_cluster::Decision;
    use gfs_types::{GpuDemand, GpuModel, NodeId, Priority, SimTime, TaskId};

    /// Minimal first-fit policy used to exercise the engine.
    struct FirstFit;

    impl Scheduler for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }

        fn schedule(
            &mut self,
            task: &TaskSpec,
            cluster: &Cluster,
            _now: SimTime,
        ) -> Option<Decision> {
            let need = match task.gpus_per_pod {
                GpuDemand::Whole(n) => n,
                GpuDemand::Fraction(_) => 1,
            };
            // first-fit over the capacity index: only feasible nodes visited
            let candidates = cluster.whole_fit_candidates(task.gpu_model, need);
            let mut budget: HashMap<NodeId, u32> = HashMap::new();
            let mut nodes = Vec::with_capacity(task.pods as usize);
            for _ in 0..task.pods {
                let slot = candidates
                    .iter()
                    .map(|&id| (NodeId::new(id), &cluster.nodes()[id as usize]))
                    .find(|(id, n)| {
                        budget.get(id).copied().unwrap_or_else(|| n.idle_gpus()) >= need
                    })
                    .map(|(id, _)| id)?;
                let entry = budget
                    .entry(slot)
                    .or_insert_with(|| cluster.nodes()[slot.index()].idle_gpus());
                *entry -= need;
                nodes.push(slot);
            }
            Some(Decision::place(nodes))
        }
    }

    fn task(id: u64, priority: Priority, gpus: u32, dur: u64, submit: u64) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(dur)
            .submit_at(SimTime::from_secs(submit))
            .build()
            .unwrap()
    }

    #[test]
    fn single_task_runs_to_completion() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let report = run(
            cluster,
            &mut FirstFit,
            vec![task(1, Priority::Hp, 4, 600, 0)],
            &SimConfig::default(),
        );
        assert_eq!(report.tasks.len(), 1);
        let t = &report.tasks[0];
        assert_eq!(t.finish, Some(SimTime::from_secs(600)));
        assert_eq!(t.queued_secs, 0);
        assert_eq!(t.runs, 1);
        assert_eq!(report.failed_commits, 0);
    }

    #[test]
    fn queued_task_waits_for_capacity() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let tasks = vec![
            task(1, Priority::Hp, 8, 1_000, 0),
            task(2, Priority::Hp, 8, 500, 100),
        ];
        let report = run(cluster, &mut FirstFit, tasks, &SimConfig::default());
        let t2 = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(2))
            .unwrap();
        assert_eq!(t2.first_start, Some(SimTime::from_secs(1_000)));
        assert_eq!(t2.queued_secs, 900);
        assert_eq!(t2.finish, Some(SimTime::from_secs(1_500)));
    }

    #[test]
    fn unschedulable_task_reported_unfinished() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let tasks = vec![task(1, Priority::Hp, 16, 100, 0)]; // cannot ever fit a pod
        let cfg = SimConfig {
            max_time_secs: Some(3_600),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, tasks, &cfg);
        assert!(!report.tasks[0].completed());
        assert!(
            report.tasks[0].queued_secs > 0,
            "queued time accrues to the horizon"
        );
    }

    #[test]
    fn determinism() {
        let tasks: Vec<TaskSpec> = (0..40)
            .map(|i| {
                task(
                    i,
                    if i % 3 == 0 {
                        Priority::Spot
                    } else {
                        Priority::Hp
                    },
                    (i % 4 + 1) as u32,
                    300 + i * 13,
                    i * 7,
                )
            })
            .collect();
        let r1 = run(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            &mut FirstFit,
            tasks.clone(),
            &SimConfig::default(),
        );
        let r2 = run(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            &mut FirstFit,
            tasks,
            &SimConfig::default(),
        );
        assert_eq!(r1.tasks, r2.tasks);
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn alloc_samples_are_recorded() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let cfg = SimConfig {
            alloc_sample_interval_secs: 600,
            ..SimConfig::default()
        };
        let report = run(
            cluster,
            &mut FirstFit,
            vec![task(1, Priority::Hp, 8, 1_800, 0)],
            &cfg,
        );
        assert!(report.alloc_samples.len() >= 3);
        // while the task runs the cluster is fully allocated
        assert!(report.alloc_samples.iter().any(|s| s.total > 0.99));
    }

    #[test]
    fn node_alloc_recording_optional() {
        let cluster = Cluster::homogeneous(3, GpuModel::A100, 8);
        let cfg = SimConfig {
            record_node_alloc: true,
            ..SimConfig::default()
        };
        let report = run(
            cluster,
            &mut FirstFit,
            vec![task(1, Priority::Hp, 2, 600, 0)],
            &cfg,
        );
        assert_eq!(report.node_alloc_samples.len(), 3);
        assert!(!report.node_alloc_samples[0].is_empty());
    }

    /// A policy that preempts the single running spot task for any HP task.
    struct PreemptAll;

    impl Scheduler for PreemptAll {
        fn name(&self) -> &str {
            "preempt-all"
        }

        fn schedule(
            &mut self,
            task: &TaskSpec,
            cluster: &Cluster,
            _now: SimTime,
        ) -> Option<Decision> {
            let need = task.gpus_per_pod.whole_cards().unwrap_or(1);
            let node = cluster.nodes().first()?.id();
            let idle = cluster.node(node).ok()?.idle_gpus();
            if idle >= need {
                return Some(Decision::place(vec![node; task.pods as usize]));
            }
            if task.priority.is_hp() {
                let victims: Vec<TaskId> = cluster
                    .spot_tasks_on(node)
                    .iter()
                    .map(|rt| rt.spec.id)
                    .collect();
                if victims.is_empty() {
                    return None;
                }
                return Some(Decision {
                    pod_nodes: vec![node; task.pods as usize],
                    preemptions: victims,
                });
            }
            None
        }
    }

    #[test]
    fn preemption_evicts_and_requeues_spot() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let spot = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(10_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 600 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let hp = task(2, Priority::Hp, 8, 1_000, 2_000);
        let report = run(
            cluster,
            &mut PreemptAll,
            vec![spot, hp],
            &SimConfig::default(),
        );
        let spot_rec = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(1))
            .unwrap();
        let hp_rec = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(2))
            .unwrap();
        assert_eq!(spot_rec.evictions, 1);
        assert_eq!(spot_rec.runs, 2, "spot restarted after eviction");
        assert!(spot_rec.completed());
        assert_eq!(
            hp_rec.first_start,
            Some(SimTime::from_secs(2_000)),
            "HP ran immediately"
        );
        // checkpointed progress: 1800s preserved (3 × 600), so the spot task
        // finishes at 3030 (HP done) + (10000 − 1800) r... total work conserved
        let finish = spot_rec.finish.unwrap().as_secs();
        assert!(finish >= 3_000 + (10_000 - 1_800), "finish {finish}");
        assert_eq!(report.eviction_rate(), 0.5, "1 eviction over 2 runs");
        assert_eq!(report.failed_commits, 0);
    }

    /// Regression for carried-progress bookkeeping across long eviction
    /// chains: checkpointed progress must accumulate exactly through ~100
    /// evict/requeue cycles, and a task's progress state dies with it at
    /// finish (it lives in the dense per-task slot, cleared on `Finish` —
    /// the old per-`TaskId` map retained entries forever).
    #[test]
    fn carried_progress_exact_across_many_evictions() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        // checkpoint every second: evictions lose (almost) nothing
        let spot = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(100_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 1 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        // an 8-GPU HP task every 2000 s keeps evicting the spot task
        let mut tasks = vec![spot];
        for k in 1..120u64 {
            tasks.push(task(1_000 + k, Priority::Hp, 8, 1_000, 2_000 * k));
        }
        let report = run(cluster, &mut PreemptAll, tasks, &SimConfig::default());
        let spot_rec = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(1))
            .unwrap();
        assert!(
            spot_rec.completed(),
            "spot must finish despite the eviction storm"
        );
        assert!(
            spot_rec.evictions >= 90,
            "evictions: {}",
            spot_rec.evictions
        );
        assert_eq!(
            spot_rec.runs,
            spot_rec.evictions + 1,
            "every eviction restarts once"
        );
        // progress conservation: 2000 s in the first segment, 1000 s per
        // later segment, no checkpoint loss -> finish at exactly 198 000 s
        assert_eq!(spot_rec.finish, Some(SimTime::from_secs(198_000)));
        let hp_evictions: u32 = report
            .tasks
            .iter()
            .filter(|t| t.priority.is_hp())
            .map(|t| t.evictions)
            .sum();
        assert_eq!(hp_evictions, 0);
    }

    #[test]
    fn node_failure_displaces_requeues_and_restores() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(2, GpuModel::A100, 8);
        // an 8-GPU task on (first-fit) node 0 with per-second checkpoints
        let spec = TaskSpec::builder(1)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(10_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 1 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        // a second full-node task lands on node 1 and must ride out the
        // failure untouched
        let small = task(2, Priority::Hp, 8, 4_000, 10);
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::down(NodeId::new(0), SimTime::from_secs(2_000)),
                ClusterEvent::up(NodeId::new(0), SimTime::from_secs(5_000)),
            ])
            .unwrap(),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, vec![spec, small], &cfg);
        let t1 = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(1))
            .unwrap();
        let t2 = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(2))
            .unwrap();
        assert_eq!(t1.displacements, 1);
        assert_eq!(t1.evictions, 0, "displacement is not eviction");
        assert_eq!(t1.runs, 2, "requeued and restarted");
        assert!(
            t1.completed() && t2.completed(),
            "work survives the failure"
        );
        // per-second checkpoints: no work lost. The restart must wait for
        // node 1 (busy with task 2 until 4 010), then run the remaining
        // 8 000 s: finish at 12 010 with zero duplicated work
        assert_eq!(t1.finish, Some(SimTime::from_secs(12_010)));
        assert_eq!(
            t1.queued_secs,
            4_010 - 2_030,
            "queued from grace end to node-1 free"
        );
        assert_eq!(t2.displacements, 0, "node 1 never failed");
        assert_eq!(report.displacement_times, vec![SimTime::from_secs(2_000)]);
        assert_eq!(report.node_downs, 1);
        assert_eq!(report.node_ups, 1);
        assert!(report.unavailability > 0.0, "downtime must register");
        assert!(report.availability() < 1.0);
        assert_eq!(report.eviction_times, vec![], "no preemptions happened");
    }

    #[test]
    fn displaced_task_waits_for_recovery_when_cluster_too_small() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let spec = TaskSpec::builder(1)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(1_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 100 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::down(NodeId::new(0), SimTime::from_secs(500)),
                ClusterEvent::up(NodeId::new(0), SimTime::from_secs(3_000)),
            ])
            .unwrap(),
            max_time_secs: Some(10_000),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, vec![spec], &cfg);
        let t = &report.tasks[0];
        // 500 s progress, checkpointed at 500: the task resumes at 3 000
        // with 500 s left
        assert_eq!(t.finish, Some(SimTime::from_secs(3_500)));
        assert!(
            t.queued_secs >= 2_000,
            "waited out the outage: {}",
            t.queued_secs
        );
        // 8 of 8 cards down for 2 500 s of a 3 500 s run
        let expected = 2_500.0 / 3_500.0;
        assert!((report.unavailability - expected).abs() < 1e-9);
    }

    #[test]
    fn duplicate_fault_events_are_noops() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(2, GpuModel::A100, 8);
        // the validated constructor rejects these orderings; shape-shared
        // plans use new_unchecked and rely on engine-level no-op handling
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new_unchecked(vec![
                ClusterEvent::down(NodeId::new(1), SimTime::from_secs(100)),
                ClusterEvent::down(NodeId::new(1), SimTime::from_secs(200)), // dup
                ClusterEvent::up(NodeId::new(1), SimTime::from_secs(300)),
                ClusterEvent::up(NodeId::new(1), SimTime::from_secs(400)), // dup
                ClusterEvent::down(NodeId::new(99), SimTime::from_secs(500)), // unknown
            ]),
            ..SimConfig::default()
        };
        let report = run(
            cluster,
            &mut FirstFit,
            vec![task(1, Priority::Hp, 1, 1_000, 0)],
            &cfg,
        );
        assert_eq!(report.node_downs, 1);
        assert_eq!(report.node_ups, 1);
        assert!(report.tasks[0].completed());
    }

    #[test]
    fn empty_fault_plan_is_strict_noop() {
        let tasks: Vec<TaskSpec> = (0..30)
            .map(|i| {
                task(
                    i,
                    if i % 3 == 0 {
                        Priority::Spot
                    } else {
                        Priority::Hp
                    },
                    (i % 4 + 1) as u32,
                    300 + i * 13,
                    i * 7,
                )
            })
            .collect();
        let base = run(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            &mut FirstFit,
            tasks.clone(),
            &SimConfig::default(),
        );
        let with_empty_plan = run(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            &mut FirstFit,
            tasks,
            &SimConfig {
                dynamics: DynamicsPlan::new(Vec::new()).unwrap(),
                ..SimConfig::default()
            },
        );
        assert_eq!(base.tasks, with_empty_plan.tasks);
        assert_eq!(base.makespan, with_empty_plan.makespan);
        assert_eq!(with_empty_plan.unavailability, 0.0);
    }

    #[test]
    fn drained_node_accepts_no_new_placements() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        // the node drains before the task submits: with nowhere to go the
        // task stays queued until the node returns
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::drain(NodeId::new(0), SimTime::from_secs(100), 1_000),
                ClusterEvent::up(NodeId::new(0), SimTime::from_secs(5_000)),
            ])
            .unwrap(),
            max_time_secs: Some(20_000),
            ..SimConfig::default()
        };
        let report = run(
            cluster,
            &mut FirstFit,
            vec![task(1, Priority::Hp, 8, 600, 200)],
            &cfg,
        );
        let t = &report.tasks[0];
        assert_eq!(
            t.first_start,
            Some(SimTime::from_secs(5_000)),
            "waited out the drain"
        );
        assert_eq!(t.finish, Some(SimTime::from_secs(5_600)));
        assert_eq!(
            t.displacements + t.migrations,
            0,
            "never placed on the draining node"
        );
        assert_eq!(report.node_drains, 1);
        assert_eq!(report.node_downs, 1, "deadline forced the empty node down");
        assert_eq!(report.node_ups, 1);
    }

    #[test]
    fn short_task_finishes_inside_notice_window() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        // 1 000 s of work left at drain time, 2 000 s of notice: finish
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![ClusterEvent::drain(
                NodeId::new(0),
                SimTime::from_secs(500),
                2_000,
            )])
            .unwrap(),
            max_time_secs: Some(10_000),
            ..SimConfig::default()
        };
        let report = run(
            cluster,
            &mut FirstFit,
            vec![task(1, Priority::Hp, 8, 1_500, 0)],
            &cfg,
        );
        let t = &report.tasks[0];
        assert_eq!(
            t.finish,
            Some(SimTime::from_secs(1_500)),
            "ran to completion in place"
        );
        assert_eq!(t.migrations, 0, "fits the window: no migration");
        assert_eq!(t.displacements, 0, "and no forced displacement");
        assert_eq!(report.migration_times, vec![]);
        // the run ends at the last completion (1 500), before the 2 500
        // deadline ever fires
        assert_eq!(report.node_downs, 0);
    }

    #[test]
    fn long_task_migrates_on_drain_notice_and_restarts_elsewhere() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(2, GpuModel::A100, 8);
        // first-fit puts the task on node 0; 10 000 s of work cannot fit a
        // 1 000 s notice, so the gang migrates at the notice and restarts
        // on node 1 with its checkpointed progress
        let spec = TaskSpec::builder(1)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(10_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 1 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![ClusterEvent::drain(
                NodeId::new(0),
                SimTime::from_secs(2_000),
                1_000,
            )])
            .unwrap(),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, vec![spec], &cfg);
        let t = &report.tasks[0];
        assert_eq!(t.migrations, 1);
        assert_eq!(t.displacements, 0, "graceful, not forced");
        assert_eq!(t.evictions, 0, "and not an eviction either");
        assert_eq!(t.runs, 2);
        // per-second checkpoints: nothing lost; requeued after the 30 s
        // grace, restarts at 2 030 on node 1 with 8 000 s left
        assert_eq!(t.finish, Some(SimTime::from_secs(10_030)));
        assert_eq!(report.migration_times, vec![SimTime::from_secs(2_000)]);
        assert_eq!(report.displacement_times, vec![]);
        assert_eq!(report.node_drains, 1);
    }

    #[test]
    fn deadline_forces_displacement_with_fail_accounting() {
        use gfs_types::ClusterEvent;
        // single node: the task cannot migrate anywhere, rides out the
        // notice window, and is forcibly displaced at the deadline
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let spec = TaskSpec::builder(1)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(10_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 100 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::drain(NodeId::new(0), SimTime::from_secs(1_000), 500),
                ClusterEvent::up(NodeId::new(0), SimTime::from_secs(4_000)),
            ])
            .unwrap(),
            max_time_secs: Some(30_000),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, vec![spec], &cfg);
        let t = &report.tasks[0];
        // the migration *attempt* happens (remaining 9 000 > 500 notice)
        // but there is nowhere to go — the task requeues at the notice and
        // waits; displacement never fires because the pod already left
        assert_eq!(t.migrations, 1, "migrated off at the notice");
        assert_eq!(t.displacements, 0);
        // checkpointed at 1 000: resumes at 4 000 with 9 000 s left
        assert_eq!(t.finish, Some(SimTime::from_secs(13_000)));
        assert_eq!(report.node_downs, 1);
        // availability: 8/8 cards down from the 1 500 deadline to 4 000
        let expected = 2_500.0 / 13_000.0;
        assert!(
            (report.unavailability - expected).abs() < 1e-9,
            "{}",
            report.unavailability
        );
    }

    /// First-fit, but answering `Stay` to every drain notice: gangs ride
    /// out the window checkpointing and take the forced displacement.
    struct StayPut(FirstFit);

    impl Scheduler for StayPut {
        fn name(&self) -> &str {
            "stay-put"
        }

        fn schedule(
            &mut self,
            task: &TaskSpec,
            cluster: &Cluster,
            now: SimTime,
        ) -> Option<Decision> {
            self.0.schedule(task, cluster, now)
        }

        fn drain_decision(
            &self,
            _task: &gfs_cluster::RunningTask,
            _notice: SimDuration,
            _cluster: &Cluster,
            _now: SimTime,
        ) -> gfs_cluster::DrainDecision {
            gfs_cluster::DrainDecision::Stay
        }
    }

    #[test]
    fn drain_decision_stay_harvests_checkpoints_until_the_deadline() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(2, GpuModel::A100, 8);
        // 10 000 s of work cannot fit the 1 000 s notice; the default
        // policy migrates at the notice (see the engine test above), but a
        // Stay answer keeps the gang checkpointing until the deadline
        let spec = TaskSpec::builder(1)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(10_000)
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 1 })
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![ClusterEvent::drain(
                NodeId::new(0),
                SimTime::from_secs(2_000),
                1_000,
            )])
            .unwrap(),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut StayPut(FirstFit), vec![spec], &cfg);
        let t = &report.tasks[0];
        assert_eq!(t.migrations, 0, "the policy declined the early migration");
        assert_eq!(
            t.displacements, 1,
            "…and took the forced displacement instead"
        );
        // 3 000 s of per-second-checkpointed progress survived; restart on
        // node 1 after the 30 s grace finishes the remaining 7 000 s
        assert_eq!(t.finish, Some(SimTime::from_secs(10_030)));
        assert_eq!(report.displacement_times, vec![SimTime::from_secs(3_000)]);
        assert_eq!(report.migration_times, vec![]);
        assert_eq!(report.node_downs, 1, "the deadline forced the node down");
    }

    #[test]
    fn up_event_inside_notice_window_cancels_the_drain() {
        use gfs_types::ClusterEvent;
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        // drain at 1 000 with a 5 000 s notice, cancelled at 2 000: the
        // 4-GPU task fits the window, so it is never disturbed, and the
        // deadline at 6 000 finds the drain cancelled
        let spec = TaskSpec::builder(1)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(4))
            .duration_secs(4_000)
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let cfg = SimConfig {
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::drain(NodeId::new(0), SimTime::from_secs(1_000), 5_000),
                ClusterEvent::up(NodeId::new(0), SimTime::from_secs(2_000)),
            ])
            .unwrap(),
            max_time_secs: Some(30_000),
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, vec![spec], &cfg);
        let t = &report.tasks[0];
        assert_eq!(t.finish, Some(SimTime::from_secs(4_000)), "never disturbed");
        assert_eq!(t.migrations, 0);
        assert_eq!(
            report.node_downs, 0,
            "the deadline found the drain cancelled"
        );
        assert_eq!(report.node_drains, 1);
        assert_eq!(report.node_ups, 1);
        assert_eq!(
            report.unavailability, 0.0,
            "a cancelled drain never went down"
        );
    }

    #[test]
    fn add_node_events_grow_capacity_mid_run() {
        use gfs_types::NodeTemplate;
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        // two full-node tasks on one node: the second waits — until a
        // scale-out step mints node 1 at t = 500
        let tasks = vec![
            task(1, Priority::Hp, 8, 4_000, 0),
            task(2, Priority::Hp, 8, 1_000, 100),
        ];
        let cfg = SimConfig {
            dynamics: DynamicsPlan::scale_out(
                NodeTemplate {
                    model: GpuModel::A100,
                    gpus: 8,
                },
                SimTime::from_secs(500),
                1_000,
                1,
                1,
            ),
            record_node_alloc: true,
            ..SimConfig::default()
        };
        let report = run(cluster, &mut FirstFit, tasks, &cfg);
        let t2 = report
            .tasks
            .iter()
            .find(|t| t.id == TaskId::new(2))
            .unwrap();
        assert_eq!(
            t2.first_start,
            Some(SimTime::from_secs(500)),
            "started on the new node"
        );
        assert_eq!(t2.finish, Some(SimTime::from_secs(1_500)));
        assert_eq!(report.nodes_added, 1);
        assert_eq!(report.gpus_added, 8);
        assert_eq!(
            report.node_alloc_samples.len(),
            2,
            "sample series grew with the fleet"
        );
        assert_eq!(report.unavailability, 0.0);
        let summary = report.summary();
        assert_eq!(summary.added_gpus, 8.0);
        assert_eq!(summary.migration_count, 0);
    }

    #[test]
    fn eviction_timeline_recorded() {
        let cluster = Cluster::homogeneous(1, GpuModel::A100, 8);
        let spot = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(5_000)
            .submit_at(SimTime::ZERO)
            .build()
            .unwrap();
        let hp = task(2, Priority::Hp, 8, 500, 1_000);
        let report = run(
            cluster,
            &mut PreemptAll,
            vec![spot, hp],
            &SimConfig::default(),
        );
        assert_eq!(report.eviction_times, vec![SimTime::from_secs(1_000)]);
        assert_eq!(report.spot_start_times.len(), 2);
    }
}
