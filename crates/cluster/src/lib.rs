//! In-memory GPU cluster model for the GFS reproduction.
//!
//! The paper's production cluster (Table 1) is replaced by this
//! deterministic state machine: [`Node`]s hold per-card occupancy with both
//! whole-card and fractional allocations, the [`Cluster`] tracks running
//! tasks, eviction history and the spot outcome counters used by the
//! preemption-cost model (Eq. 18), and the [`Scheduler`] trait is the
//! interface every policy — GFS and the four baselines — implements.
//!
//! # Hot-path architecture
//!
//! Every placement question a scheduler can ask is answered by the
//! [`CapacityIndex`], which `start_task` / `evict_task` / `finish_task`
//! maintain incrementally:
//!
//! * per-GPU-model **idle buckets** (nodes keyed by whole idle cards) make
//!   "nodes with ≥ k idle GPUs" an O(answer) walk instead of an
//!   O(nodes × gpus) scan,
//! * a quantized **best-fit order** over partially-occupied cards serves
//!   fractional demands (candidates are re-verified against exact card
//!   state, so results equal a brute-force [`Node::can_fit`] scan — see
//!   the property test in `tests/property_based.rs`),
//! * per-node **spot locality lists** (sorted by task id, which also makes
//!   victim enumeration deterministic) turn preemption planning from
//!   O(nodes × running tasks) into O(candidate nodes × local spots).
//!
//! The indexed queries are exposed as [`Cluster::whole_fit_candidates`],
//! [`Cluster::fraction_fit_candidates`], [`Cluster::preemption_candidates`],
//! [`Cluster::spot_tasks_on`], [`Cluster::has_spot_on`] and
//! [`Cluster::fully_idle_nodes`]; all five schedulers in the workspace are
//! built on them. The running-task registry itself is an ordered map, so
//! iteration (and therefore every scheduling decision derived from it) is
//! reproducible across processes.
//!
//! Task specs are shared as `Arc<TaskSpec>` between the simulator's task
//! table and the running registry: starting, evicting and requeuing a task
//! never deep-copies the spec ([`Cluster::start_task`] accepts
//! `impl Into<Arc<TaskSpec>>`, so plain `TaskSpec` values still work).
//!
//! # Cluster dynamics
//!
//! Cluster membership changes mid-run along four verbs:
//!
//! * [`Cluster::fail_node`] — abrupt failure: drains every pod on the
//!   node through the shared release path (HP and spot alike — hardware
//!   does not honour priorities), removes the node's index buckets
//!   atomically and subtracts its cards from every capacity total;
//! * [`Cluster::drain_node`] — maintenance drain with notice: the node
//!   stops accepting placements immediately (index keys and capacity
//!   leave with it) while its pods keep running until they finish, are
//!   migrated ([`Cluster::migrate_task`]) or are forcibly displaced at
//!   the deadline through `fail_node` accounting;
//! * [`Cluster::restore_node`] — reverses either: a repaired node returns
//!   with all cards idle and a clean eviction history, a drain-cancelled
//!   node returns with its pods untouched;
//! * [`Cluster::add_node`] — scale-out: mints the next sequential
//!   [`NodeId`](gfs_types::NodeId) and extends every total and index
//!   structure.
//!
//! Capacity accessors therefore always describe the *schedulable* fleet,
//! per GPU model in O(1) ([`Cluster::capacity`] with `Some(model)`),
//! while [`Cluster::static_capacity`] keeps the as-built-plus-scaled-out
//! denominator for availability metrics. The engine-side event flow is
//! documented on `gfs_sim::dynamics`.
//!
//! Churn leaves a *history* behind for placement policies to read in
//! O(1): `fail_node` records per-node up→down transitions
//! ([`Node::failures_within`], [`Node::failure_count`],
//! [`Node::time_since_failure`] — kept across repairs, unlike the
//! eviction history), `drain_node` bumps [`Node::drain_count`], and a
//! declared failure-domain topology ([`Cluster::set_failure_domains`])
//! answers [`Cluster::domain_of`] and the per-domain
//! [`Cluster::draining_in_domain`] count that drain-aware placement
//! steers by.
//!
//! # Examples
//!
//! ```
//! use gfs_cluster::Cluster;
//! use gfs_types::{GpuDemand, GpuModel, NodeId, Priority, SimTime, TaskSpec};
//!
//! let mut cluster = Cluster::homogeneous(2, GpuModel::A100, 8);
//! let task = TaskSpec::builder(1)
//!     .priority(Priority::Spot)
//!     .gpus_per_pod(GpuDemand::whole(4))
//!     .build()?;
//! cluster.start_task(task, &[NodeId::new(0)], SimTime::ZERO, 0)?;
//! assert_eq!(cluster.idle_gpus(None), 12);
//! # Ok::<(), gfs_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod changelog;
mod cluster;
mod index;
mod node;
mod scheduler;

pub use changelog::ChangeLog;
pub use cluster::{Cluster, ClusterSnapshot, Displaced, PodPlacement, RunningTask};
pub use index::CapacityIndex;
pub use node::{Gpu, Node, NodeSnapshot, PodAlloc};
pub use scheduler::{Decision, DrainDecision, RetryKey, Scheduler, TaskEvent};
