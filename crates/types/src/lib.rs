//! Core domain types shared by every crate in the GFS workspace.
//!
//! This crate defines the vocabulary of the system reproduced from the
//! ASPLOS '26 paper *"GFS: A Preemption-aware Scheduling Framework for GPU
//! Clusters with Predictive Spot Instance Management"*:
//!
//! * strongly-typed identifiers ([`TaskId`], [`NodeId`], [`OrgId`]),
//! * the simulated clock ([`SimTime`], [`SimDuration`]),
//! * GPU hardware descriptions ([`GpuModel`]),
//! * task descriptions ([`TaskSpec`], [`Priority`], [`GpuDemand`]),
//! * the cluster timeline ([`ClusterEvent`], [`DynamicsPlan`]: seeded
//!   failures, correlated [`FailureDomain`] outages, maintenance drains
//!   and scale-out schedules),
//! * the workspace's one seeded generator ([`rng::SplitMix64`]), which
//!   every seeded schedule draws from,
//! * the framework configuration ([`GfsParams`], Table 4 of the paper),
//! * and the shared error type ([`Error`]).
//!
//! # Examples
//!
//! ```
//! use gfs_types::{GpuDemand, GpuModel, Priority, SimTime, TaskSpec};
//!
//! let task = TaskSpec::builder(1)
//!     .priority(Priority::Spot)
//!     .pods(2)
//!     .gpus_per_pod(GpuDemand::whole(8))
//!     .gpu_model(GpuModel::A100)
//!     .duration_secs(3_600)
//!     .submit_at(SimTime::from_hours(1))
//!     .build()
//!     .expect("valid task");
//! assert_eq!(task.total_gpus(), 16.0);
//! assert!(task.is_gang());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_event;
mod config;
mod error;
mod gpu;
mod id;
pub mod rng;
mod task;
mod time;

pub use cluster_event::{
    ClusterEvent, ClusterEventKind, DynamicsPlan, FailureDomain, NodeTemplate,
};
pub use config::{EtaUpdateRule, GfsParams, GfsParamsBuilder};
pub use error::{Error, Result};
pub use gpu::{GpuModel, GPUS_PER_NODE};
pub use id::{NodeId, OrgId, TaskId};
pub use task::{CheckpointPlan, GpuDemand, Priority, RunLog, TaskSpec, TaskSpecBuilder};
pub use time::{SimDuration, SimTime, Weekday, HOUR, MINUTE, SECONDS_PER_DAY, SECONDS_PER_WEEK};
