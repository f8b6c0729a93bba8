//! Contract tests every scheduler implementation must satisfy: decisions
//! reference real nodes, respect the task's GPU model, never preempt HP
//! tasks, are reproducible from identical state, and absorb the full
//! cluster-timeline event stream with a queue order that stays total.

use gfs::prelude::*;
use gfs_types::CheckpointPlan;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(YarnCs::new()),
        Box::new(Chronus::new()),
        Box::new(Lyra::new()),
        Box::new(Fgd::new()),
        Box::new(GfsScheduler::with_defaults()),
        Box::new(PtsScheduler::new(GfsParams::default())),
    ]
}

fn loaded_cluster() -> Cluster {
    let mut c = Cluster::homogeneous(6, GpuModel::A100, 8);
    for (i, node) in [0u32, 1, 2, 3].iter().enumerate() {
        let spot = TaskSpec::builder(100 + i as u64)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(6))
            .duration_secs(50_000)
            .checkpoint(CheckpointPlan::Periodic { interval: 3_600 })
            .build()
            .expect("valid");
        c.start_task(
            spot,
            &[NodeId::new(*node)],
            SimTime::from_secs(i as u64 * 700),
            0,
        )
        .expect("fits");
    }
    let hp = TaskSpec::builder(200)
        .priority(Priority::Hp)
        .gpus_per_pod(GpuDemand::whole(4))
        .duration_secs(50_000)
        .build()
        .expect("valid");
    c.start_task(hp, &[NodeId::new(4)], SimTime::ZERO, 0)
        .expect("fits");
    c
}

fn warmed(mut s: Box<dyn Scheduler>, c: &Cluster) -> Box<dyn Scheduler> {
    s.on_tick(SimTime::from_secs(300), c);
    s
}

#[test]
fn decisions_reference_valid_nodes_with_matching_model() {
    let c = loaded_cluster();
    let task = TaskSpec::builder(1)
        .priority(Priority::Hp)
        .pods(2)
        .gpus_per_pod(GpuDemand::whole(2))
        .duration_secs(600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&task, &c, SimTime::from_secs(400)) {
            assert_eq!(d.pod_nodes.len(), 2, "{name}: one node per pod");
            for n in &d.pod_nodes {
                let node = c
                    .node(*n)
                    .unwrap_or_else(|_| panic!("{name}: unknown node {n}"));
                assert_eq!(node.model(), GpuModel::A100, "{name}: wrong model");
            }
        }
    }
}

#[test]
fn preemption_victims_are_running_spot_tasks() {
    let c = loaded_cluster();
    // a task large enough to force preemption on every policy that supports it
    let big = TaskSpec::builder(2)
        .priority(Priority::Hp)
        .pods(3)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&big, &c, SimTime::from_hours(2)) {
            for v in &d.preemptions {
                let rt = c
                    .running_task(*v)
                    .unwrap_or_else(|| panic!("{name}: victim {v} not running"));
                assert!(rt.spec.priority.is_spot(), "{name}: evicted an HP task");
            }
        }
    }
}

#[test]
fn spot_tasks_never_trigger_preemptions() {
    let c = loaded_cluster();
    let spot = TaskSpec::builder(3)
        .priority(Priority::Spot)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .guarantee_secs(3_600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&spot, &c, SimTime::from_secs(400)) {
            assert!(
                d.preemptions.is_empty(),
                "{name}: spot task preempted others"
            );
        }
    }
}

#[test]
fn identical_state_yields_identical_decisions() {
    let c = loaded_cluster();
    let task = TaskSpec::builder(4)
        .priority(Priority::Hp)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .build()
        .expect("valid");
    for make in 0..6usize {
        let build = |i: usize| -> Box<dyn Scheduler> {
            match i {
                0 => Box::new(YarnCs::new()),
                1 => Box::new(Chronus::new()),
                2 => Box::new(Lyra::new()),
                3 => Box::new(Fgd::new()),
                4 => Box::new(PtsScheduler::new(GfsParams::default())),
                _ => Box::new(GfsScheduler::with_defaults()),
            }
        };
        let mut a = warmed(build(make), &c);
        let mut b = warmed(build(make), &c);
        let da = a.schedule(&task, &c, SimTime::from_hours(1));
        let db = b.schedule(&task, &c, SimTime::from_hours(1));
        assert_eq!(da, db, "{} is non-deterministic", a.name());
    }
}

#[test]
fn dynamics_events_never_panic_and_queue_cmp_stays_total() {
    // every scheduler must absorb the full cluster-timeline event set —
    // drain notices, scale-out, displacement — without panicking, and its
    // queue comparator must remain a (static, spec-derived) total order
    // afterwards: antisymmetric, transitive, reflexively equal.
    let mut c = loaded_cluster();
    c.drain_node(NodeId::new(3), SimTime::from_hours(2))
        .expect("drainable");
    let added = c.add_node(GpuModel::A100, 8);
    let displaced = c
        .fail_node(NodeId::new(0), SimTime::from_secs(4_000))
        .expect("up");
    let now = SimTime::from_secs(4_000);
    let events = [
        TaskEvent::DrainNotice {
            node: NodeId::new(3),
            deadline: SimTime::from_hours(2),
            at: now,
        },
        TaskEvent::NodeAdded {
            node: added,
            added_gpus: 8,
            at: now,
        },
        TaskEvent::Displaced {
            task: displaced[0].task.spec.id,
            priority: displaced[0].task.spec.priority,
            at: now,
        },
        TaskEvent::NodeDown {
            node: NodeId::new(0),
            lost_gpus: 8,
            at: now,
        },
        TaskEvent::NodeUp {
            node: NodeId::new(0),
            restored_gpus: 8,
            at: now,
        },
    ];
    // a spec sample diverse enough to exercise every comparator branch
    let sample: Vec<TaskSpec> = (0..12)
        .map(|i| {
            TaskSpec::builder(500 + i)
                .priority(if i % 3 == 0 {
                    Priority::Spot
                } else {
                    Priority::Hp
                })
                .pods(1 + (i as u32 % 3))
                .gpus_per_pod(GpuDemand::whole(1 + (i as u32 % 4)))
                .duration_secs(600 + i * 37)
                .submit_at(SimTime::from_secs(i * 11))
                .build()
                .expect("valid")
        })
        .collect();
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        for e in &events {
            s.on_event(e, &c);
        }
        // the scheduler still answers placement questions after the storm
        let probe = TaskSpec::builder(9_999)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(1))
            .duration_secs(600)
            .build()
            .expect("valid");
        let _ = s.schedule(&probe, &c, now);
        // total order: reflexive equality, antisymmetry, transitivity
        for a in &sample {
            assert_eq!(
                s.queue_cmp(a, a),
                std::cmp::Ordering::Equal,
                "{name}: irreflexive"
            );
            for b in &sample {
                assert_eq!(
                    s.queue_cmp(a, b),
                    s.queue_cmp(b, a).reverse(),
                    "{name}: asymmetric on {:?}/{:?}",
                    a.id,
                    b.id
                );
                for t in &sample {
                    if s.queue_cmp(a, b) != std::cmp::Ordering::Greater
                        && s.queue_cmp(b, t) != std::cmp::Ordering::Greater
                    {
                        assert_ne!(
                            s.queue_cmp(a, t),
                            std::cmp::Ordering::Greater,
                            "{name}: intransitive on {:?}/{:?}/{:?}",
                            a.id,
                            b.id,
                            t.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gang_pods_never_oversubscribe_one_node() {
    // a 2×8 gang on a cluster with exactly one empty node must either span
    // two feasible nodes or be refused — never stack 16 GPUs on one node
    let c = loaded_cluster(); // node 5 idle (8 GPUs), others partially full
    let gang = TaskSpec::builder(5)
        .priority(Priority::Hp)
        .pods(2)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&gang, &c, SimTime::from_hours(1)) {
            // commit through the cluster to validate capacity atomically
            let mut c2 = c.clone();
            for v in &d.preemptions {
                c2.evict_task(*v, SimTime::from_hours(1))
                    .expect("victim evictable");
            }
            c2.start_task(gang.clone(), &d.pod_nodes, SimTime::from_hours(1), 0)
                .unwrap_or_else(|e| panic!("{name}: invalid gang decision: {e}"));
        }
    }
}

#[test]
fn equal_retry_keys_get_equal_verdicts() {
    let c = loaded_cluster();
    let now = SimTime::from_secs(400);
    // gangs take whole cards only; one fractional single-pod shape
    let mut shapes = vec![(1, GpuDemand::fraction(0.5).expect("valid"))];
    for pods in 1..=3u32 {
        for g in [1, 2, 4, 8] {
            shapes.push((pods, GpuDemand::whole(g)));
        }
    }
    let mut opted_in = Vec::new();
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        for priority in [Priority::Hp, Priority::Spot] {
            for &(pods, demand) in &shapes {
                // everything but the shape differs between the two
                let a = TaskSpec::builder(10)
                    .priority(priority)
                    .pods(pods)
                    .gpus_per_pod(demand)
                    .duration_secs(600)
                    .build()
                    .expect("valid");
                let b = TaskSpec::builder(11)
                    .org(OrgId::new(3))
                    .priority(priority)
                    .pods(pods)
                    .gpus_per_pod(demand)
                    .duration_secs(90_000)
                    .submit_at(SimTime::from_secs(250))
                    .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
                    .build()
                    .expect("valid");
                let Some(key) = s.retry_key(&a) else {
                    continue;
                };
                assert_eq!(
                    s.retry_key(&b),
                    Some(key),
                    "{name}: key ignores id/org/time"
                );
                let va = s.schedule(&a, &c, now).is_some();
                let vb = s.schedule(&b, &c, now).is_some();
                assert_eq!(
                    va, vb,
                    "{name}: {priority:?} {pods}×{demand:?} got different verdicts"
                );
                if !opted_in.contains(&name) {
                    opted_in.push(name.clone());
                }
            }
        }
    }
    for name in ["YARN-CS", "GFS (no GDE)", "PTS"] {
        assert!(
            opted_in.iter().any(|n| n == name),
            "{name} must declare a retry key: {opted_in:?}"
        );
    }
}
