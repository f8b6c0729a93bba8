//! Cluster-timeline vocabulary: the events that change cluster membership
//! over a run (failures, recoveries, maintenance drains, scale-out) and
//! the composable [`DynamicsPlan`] that schedules them.
//!
//! A production fleet is not static — machines die, come back from repair,
//! get drained for maintenance with advance notice, and whole pools grow
//! when an autoscaler buys capacity. The simulator models all of this as
//! one time-ordered stream of [`ClusterEvent`]s injected alongside the
//! task trace. The types here are pure data: *who emits and who consumes
//! them* is documented on [`gfs_sim::dynamics`] (the engine-side module
//! page of the cluster-timeline event flow).
//!
//! # Determinism rules
//!
//! A [`DynamicsPlan`] must be a pure function of its inputs so that a
//! dynamic experiment grid stays byte-identical across processes and
//! thread counts:
//!
//! * hand-built plans are ordered data — [`DynamicsPlan::new`] stably
//!   sorts events by time, preserving the caller's relative order within a
//!   timestamp;
//! * independent failures ([`DynamicsPlan::seeded_mtbf`]) derive every
//!   draw from a per-`(seed, node)` [`SplitMix64`] stream, so the schedule for
//!   node `k` does not depend on how many events other nodes produced;
//! * correlated failures ([`DynamicsPlan::correlated`]) derive every draw
//!   from a per-`(seed, domain)` stream — one stream per blast radius, so
//!   every node of a [`FailureDomain`] fails and recovers *together*, and
//!   reordering the nodes inside a domain cannot change the schedule;
//! * drains and autoscale steps ([`DynamicsPlan::rolling_drain`],
//!   [`DynamicsPlan::scale_out`]) are closed-form arithmetic over their
//!   parameters — no randomness at all.
//!
//! No wall-clock, thread id or global RNG state ever feeds a plan.

use serde::{Deserialize, Serialize};

use crate::rng::SplitMix64;
use crate::{Error, GpuModel, NodeId, Result, SimDuration, SimTime};

/// Hardware description of a node minted by a scale-out event: the pool
/// ("group") the new machine joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeTemplate {
    /// GPU model of every card on the new node.
    pub model: GpuModel,
    /// Cards on the new node.
    pub gpus: u32,
}

/// What happens at a [`ClusterEvent`]'s timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterEventKind {
    /// The node fails abruptly: every pod on it is displaced and its
    /// capacity vanishes until a matching `NodeUp`.
    NodeDown,
    /// The node returns to service with all cards idle (or, for a node
    /// still draining, the drain is cancelled and its pods keep running).
    NodeUp,
    /// The node starts a maintenance drain with `notice_secs` of advance
    /// warning: it accepts no new placements, running pods may finish
    /// within the notice window (or migrate), and whatever still runs at
    /// the deadline is forcibly displaced exactly like a `NodeDown`.
    Drain {
        /// Seconds between the drain notice and the forced shutdown.
        notice_secs: SimDuration,
    },
    /// A fresh node joins the cluster (autoscaling / capacity purchase).
    /// The event's `node` field is a placeholder — the cluster mints the
    /// next sequential [`NodeId`] when the event applies.
    AddNode {
        /// Hardware of the new node.
        group: NodeTemplate,
    },
}

/// A scheduled change to cluster membership.
///
/// # Examples
///
/// ```
/// use gfs_types::{ClusterEvent, ClusterEventKind, NodeId, SimTime};
///
/// let ev = ClusterEvent::down(NodeId::new(3), SimTime::from_hours(2));
/// assert_eq!(ev.kind, ClusterEventKind::NodeDown);
/// assert_eq!(ev.up_pair(SimTime::from_hours(3)).kind, ClusterEventKind::NodeUp);
/// let drain = ClusterEvent::drain(NodeId::new(3), SimTime::from_hours(4), 1_800);
/// assert_eq!(drain.kind, ClusterEventKind::Drain { notice_secs: 1_800 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterEvent {
    /// When the event fires.
    pub at: SimTime,
    /// The affected node ([`ClusterEvent::UNASSIGNED`] for `AddNode`,
    /// whose node id is minted when the event applies).
    pub node: NodeId,
    /// What happens.
    pub kind: ClusterEventKind,
}

impl ClusterEvent {
    /// Placeholder node id carried by events that do not target an
    /// existing node (`AddNode`).
    pub const UNASSIGNED: NodeId = NodeId::new(u32::MAX);

    /// A node-down event.
    #[must_use]
    pub fn down(node: NodeId, at: SimTime) -> Self {
        ClusterEvent {
            at,
            node,
            kind: ClusterEventKind::NodeDown,
        }
    }

    /// A node-up event.
    #[must_use]
    pub fn up(node: NodeId, at: SimTime) -> Self {
        ClusterEvent {
            at,
            node,
            kind: ClusterEventKind::NodeUp,
        }
    }

    /// A maintenance-drain event: `node` stops accepting placements at
    /// `at` and is forced down at `at + notice_secs`.
    #[must_use]
    pub fn drain(node: NodeId, at: SimTime, notice_secs: SimDuration) -> Self {
        ClusterEvent {
            at,
            node,
            kind: ClusterEventKind::Drain { notice_secs },
        }
    }

    /// A scale-out event: one node of `group` joins the cluster at `at`.
    #[must_use]
    pub fn add(at: SimTime, group: NodeTemplate) -> Self {
        ClusterEvent {
            at,
            node: ClusterEvent::UNASSIGNED,
            kind: ClusterEventKind::AddNode { group },
        }
    }

    /// The recovery event matching this failure (or drain), at `at`.
    #[must_use]
    pub fn up_pair(&self, at: SimTime) -> Self {
        ClusterEvent::up(self.node, at)
    }
}

/// A named blast radius for correlated failures: the set of nodes that
/// share a fault domain (a rack's power feed, a pod's network spine) and
/// therefore fail and recover *together*.
///
/// # Examples
///
/// ```
/// use gfs_types::FailureDomain;
///
/// let racks = FailureDomain::racks(10, 4);
/// assert_eq!(racks.len(), 3, "10 nodes in racks of 4 -> 4+4+2");
/// assert_eq!(racks[2].nodes.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureDomain {
    /// The member nodes, in ascending id order for generated domains.
    pub nodes: Vec<NodeId>,
}

impl FailureDomain {
    /// A domain over an explicit node set.
    #[must_use]
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        FailureDomain {
            nodes: nodes.into_iter().collect(),
        }
    }

    /// Splits `node_count` sequential node ids into racks of `rack_size`
    /// (the last rack takes the remainder). `rack_size == 0` yields no
    /// domains.
    #[must_use]
    pub fn racks(node_count: u32, rack_size: u32) -> Vec<FailureDomain> {
        if rack_size == 0 {
            return Vec::new();
        }
        (0..node_count)
            .step_by(rack_size as usize)
            .map(|first| {
                FailureDomain::new((first..(first + rack_size).min(node_count)).map(NodeId::new))
            })
            .collect()
    }
}

/// A time-ordered schedule of cluster events — the dynamics input of one
/// simulation run: failures, recoveries, maintenance drains and scale-out
/// steps, composable from independent builders via
/// [`DynamicsPlan::merge`].
///
/// The engine applies events in order; events targeting nodes a
/// particular cluster does not have (a `fixed` plan paired with a smaller
/// shape) are engine no-ops, so shared hand-built schedules degrade
/// gracefully instead of corrupting state. *Within* a plan, however,
/// [`DynamicsPlan::new`] rejects per-node orderings that can never be
/// meaningful — an `up` for a node that was never down used to be
/// accepted silently and then dropped at run time.
///
/// # Examples
///
/// ```
/// use gfs_types::{DynamicsPlan, FailureDomain, HOUR};
///
/// // rack-level correlated failures: whole blast radii fail together
/// let racks = FailureDomain::racks(16, 4);
/// let correlated = DynamicsPlan::correlated(&racks, 36.0 * HOUR as f64, HOUR as f64, 3 * 24 * HOUR, 42);
/// let again = DynamicsPlan::correlated(&racks, 36.0 * HOUR as f64, HOUR as f64, 3 * 24 * HOUR, 42);
/// assert_eq!(correlated, again, "seeded schedules are reproducible");
///
/// // an autoscale schedule rides along: disjoint histories compose
/// use gfs_types::{GpuModel, NodeTemplate, SimTime};
/// let growth = DynamicsPlan::scale_out(
///     NodeTemplate { model: GpuModel::A100, gpus: 8 },
///     SimTime::from_hours(6), 12 * HOUR, 4, 2,
/// );
/// let combined = correlated.merge(growth).expect("disjoint histories compose");
/// assert!(combined.events().windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DynamicsPlan {
    events: Vec<ClusterEvent>,
}

/// Per-node lifecycle state tracked by the plan validator.
#[derive(Clone, Copy, PartialEq)]
enum NodeState {
    Up,
    Draining,
    Down,
}

impl DynamicsPlan {
    /// The empty plan: a static-cluster run (the strict no-op path).
    #[must_use]
    pub fn none() -> Self {
        DynamicsPlan::default()
    }

    /// Builds a validated plan from arbitrary events, stably sorting by
    /// timestamp (events at the same instant keep the caller's order).
    ///
    /// Validation tracks each node's lifecycle through the sorted
    /// sequence (up → draining/down → up …) and rejects transitions that
    /// can never apply: an `up` for a node that was never down or
    /// draining, a second `down` without an intervening `up`, a drain of
    /// a node already down or draining. (`down` *after* `drain` is
    /// allowed — an early forced shutdown inside the notice window.)
    /// `AddNode` events mint fresh ids at run time and are skipped.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the node, timestamp and offending
    /// transition.
    pub fn new(events: Vec<ClusterEvent>) -> Result<Self> {
        let plan = DynamicsPlan::new_unchecked(events);
        plan.validate()?;
        Ok(plan)
    }

    /// Builds a plan without per-node lifecycle validation (still stably
    /// sorted by time). Use for schedules intentionally shared across
    /// cluster shapes of different sizes, where events on absent nodes
    /// are engine no-ops; prefer [`DynamicsPlan::new`] everywhere else.
    #[must_use]
    pub fn new_unchecked(mut events: Vec<ClusterEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        DynamicsPlan { events }
    }

    /// Checks the per-node event ordering of an already-sorted plan (see
    /// [`DynamicsPlan::new`]).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for the first invalid transition.
    pub fn validate(&self) -> Result<()> {
        let mut states: std::collections::BTreeMap<NodeId, NodeState> =
            std::collections::BTreeMap::new();
        for ev in &self.events {
            let state = states.entry(ev.node).or_insert(NodeState::Up);
            let fail = |what: &str| {
                Err(Error::InvalidConfig(format!(
                    "{} at t={}s: {what}",
                    ev.node,
                    ev.at.as_secs()
                )))
            };
            match ev.kind {
                ClusterEventKind::AddNode { .. } => {}
                ClusterEventKind::NodeDown => match *state {
                    NodeState::Down => return fail("NodeDown for a node that is already down"),
                    _ => *state = NodeState::Down,
                },
                ClusterEventKind::NodeUp => match *state {
                    NodeState::Up => {
                        return fail("NodeUp for a node that was never down or draining")
                    }
                    _ => *state = NodeState::Up,
                },
                ClusterEventKind::Drain { .. } => match *state {
                    NodeState::Up => *state = NodeState::Draining,
                    NodeState::Draining => {
                        return fail("Drain for a node that is already draining")
                    }
                    NodeState::Down => return fail("Drain for a node that is down"),
                },
            }
        }
        Ok(())
    }

    /// Merges two plans into one validated timeline: events interleave by
    /// timestamp (stable — `self`'s events precede `other`'s at equal
    /// times).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the combined per-node histories
    /// conflict (e.g. both plans fail the same node without an
    /// intervening recovery).
    pub fn merge(self, other: DynamicsPlan) -> Result<Self> {
        let mut events = self.events;
        events.extend(other.events);
        DynamicsPlan::new(events)
    }

    /// The events, ascending by time.
    #[must_use]
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Whether the plan schedules no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Generates a seeded *independent* failure/repair schedule: every
    /// node alternates up-time drawn from `Exp(1/mtbf_secs)` and
    /// down-time drawn from `Exp(1/mttr_secs)` until `horizon_secs`, the
    /// classic renewal model of machine churn. Each node draws from its
    /// own `(seed, node)` SplitMix64 stream (see the module docs for the
    /// determinism rules).
    ///
    /// A non-positive `mtbf_secs` yields the empty plan; a non-positive
    /// `mttr_secs` means nodes never come back within the horizon.
    #[must_use]
    pub fn seeded_mtbf(
        node_count: u32,
        mtbf_secs: f64,
        mttr_secs: f64,
        horizon_secs: SimDuration,
        seed: u64,
    ) -> Self {
        if mtbf_secs <= 0.0 || node_count == 0 || horizon_secs == 0 {
            return DynamicsPlan::none();
        }
        let mut events = Vec::new();
        for node in 0..node_count {
            let mut rng =
                SplitMix64::new(seed ^ (u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let mut t = rng.exp(mtbf_secs);
            while t < horizon_secs as f64 {
                let down_at = t.round() as u64;
                events.push(ClusterEvent::down(
                    NodeId::new(node),
                    SimTime::from_secs(down_at),
                ));
                if mttr_secs <= 0.0 {
                    break; // never repaired within this horizon
                }
                t += rng.exp(mttr_secs).max(1.0);
                if t >= horizon_secs as f64 {
                    break; // still down when the horizon ends
                }
                let up_at = (t.round() as u64).max(down_at + 1);
                events.push(ClusterEvent::up(
                    NodeId::new(node),
                    SimTime::from_secs(up_at),
                ));
                t = up_at as f64 + rng.exp(mtbf_secs);
            }
        }
        DynamicsPlan::new_unchecked(events)
    }

    /// Generates a seeded *correlated* failure schedule over declared
    /// blast radii: each [`FailureDomain`] alternates up-time
    /// `Exp(1/mtbf_secs)` and repair time `Exp(1/mttr_secs)` drawn from
    /// **one** per-`(seed, domain)` SplitMix64 stream, and every node of
    /// the domain fails and recovers at the same instant — a rack losing
    /// its power feed, not sixteen coincidental machine deaths.
    ///
    /// `mtbf_secs` here is the domain's failure rate, not a per-node one.
    #[must_use]
    pub fn correlated(
        domains: &[FailureDomain],
        mtbf_secs: f64,
        mttr_secs: f64,
        horizon_secs: SimDuration,
        seed: u64,
    ) -> Self {
        if mtbf_secs <= 0.0 || domains.is_empty() || horizon_secs == 0 {
            return DynamicsPlan::none();
        }
        let mut events = Vec::new();
        for (k, domain) in domains.iter().enumerate() {
            if domain.nodes.is_empty() {
                continue;
            }
            // a distinct mixing constant keeps domain streams independent
            // of the per-node streams of `seeded_mtbf` under one seed
            let mut rng =
                SplitMix64::new(seed ^ ((k as u64).wrapping_mul(0xA076_1D64_78BD_642F) | 1));
            let mut t = rng.exp(mtbf_secs);
            while t < horizon_secs as f64 {
                let down_at = t.round() as u64;
                for &node in &domain.nodes {
                    events.push(ClusterEvent::down(node, SimTime::from_secs(down_at)));
                }
                if mttr_secs <= 0.0 {
                    break;
                }
                t += rng.exp(mttr_secs).max(1.0);
                if t >= horizon_secs as f64 {
                    break;
                }
                let up_at = (t.round() as u64).max(down_at + 1);
                for &node in &domain.nodes {
                    events.push(ClusterEvent::up(node, SimTime::from_secs(up_at)));
                }
                t = up_at as f64 + rng.exp(mtbf_secs);
            }
        }
        DynamicsPlan::new_unchecked(events)
    }

    /// A rolling maintenance wave: node `k` of `0..node_count` receives a
    /// drain notice at `start + k·stagger_secs`, is forced down
    /// `notice_secs` later, and returns to service after
    /// `maintenance_secs` of work. Closed-form and deterministic — the
    /// kernel-upgrade scenario every fleet runs monthly.
    #[must_use]
    pub fn rolling_drain(
        node_count: u32,
        start: SimTime,
        stagger_secs: SimDuration,
        notice_secs: SimDuration,
        maintenance_secs: SimDuration,
    ) -> Self {
        let mut events = Vec::with_capacity(node_count as usize * 2);
        for k in 0..node_count {
            let node = NodeId::new(k);
            let drain_at = start + u64::from(k) * stagger_secs;
            events.push(ClusterEvent::drain(node, drain_at, notice_secs));
            events.push(ClusterEvent::up(
                node,
                drain_at + notice_secs + maintenance_secs,
            ));
        }
        DynamicsPlan::new_unchecked(events)
    }

    /// A step/periodic autoscale schedule: `nodes_per_step` fresh nodes of
    /// `group` join at `start`, then again every `interval_secs`, for
    /// `steps` steps in total (`steps == 1` is a single scale-out step).
    #[must_use]
    pub fn scale_out(
        group: NodeTemplate,
        start: SimTime,
        interval_secs: SimDuration,
        steps: u32,
        nodes_per_step: u32,
    ) -> Self {
        let mut events = Vec::with_capacity((steps * nodes_per_step) as usize);
        for step in 0..steps {
            let at = start + u64::from(step) * interval_secs;
            for _ in 0..nodes_per_step {
                events.push(ClusterEvent::add(at, group));
            }
        }
        DynamicsPlan::new_unchecked(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HOUR;

    #[test]
    fn empty_plan_is_noop() {
        let p = DynamicsPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn new_sorts_stably_by_time() {
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let p = DynamicsPlan::new(vec![
            ClusterEvent::down(n1, SimTime::from_secs(50)),
            ClusterEvent::down(n0, SimTime::from_secs(10)),
            ClusterEvent::up(n1, SimTime::from_secs(50)),
        ])
        .expect("valid ordering");
        assert_eq!(p.events()[0].node, n0);
        // stable: the two t=50 events keep their relative order
        assert_eq!(p.events()[1].kind, ClusterEventKind::NodeDown);
        assert_eq!(p.events()[2].kind, ClusterEventKind::NodeUp);
    }

    #[test]
    fn validation_rejects_up_for_never_down_node() {
        let err = DynamicsPlan::new(vec![ClusterEvent::up(
            NodeId::new(3),
            SimTime::from_secs(9),
        )])
        .unwrap_err()
        .to_string();
        assert!(err.contains("node-3"), "{err}");
        assert!(err.contains("t=9s"), "{err}");
        assert!(err.contains("never down"), "{err}");
    }

    #[test]
    fn validation_rejects_double_down_and_drain_conflicts() {
        let n = NodeId::new(0);
        let double_down = DynamicsPlan::new(vec![
            ClusterEvent::down(n, SimTime::from_secs(10)),
            ClusterEvent::down(n, SimTime::from_secs(20)),
        ]);
        assert!(double_down
            .unwrap_err()
            .to_string()
            .contains("already down"));
        let drain_down = DynamicsPlan::new(vec![
            ClusterEvent::down(n, SimTime::from_secs(10)),
            ClusterEvent::drain(n, SimTime::from_secs(20), 60),
        ]);
        assert!(drain_down.unwrap_err().to_string().contains("is down"));
        let double_drain = DynamicsPlan::new(vec![
            ClusterEvent::drain(n, SimTime::from_secs(10), 60),
            ClusterEvent::drain(n, SimTime::from_secs(20), 60),
        ]);
        assert!(double_drain
            .unwrap_err()
            .to_string()
            .contains("already draining"));
    }

    #[test]
    fn validation_accepts_drain_lifecycles() {
        let n = NodeId::new(0);
        // drain → (forced down at deadline is implicit) → up → drain again
        assert!(DynamicsPlan::new(vec![
            ClusterEvent::drain(n, SimTime::from_secs(10), 60),
            ClusterEvent::up(n, SimTime::from_secs(100)),
            ClusterEvent::drain(n, SimTime::from_secs(200), 60),
        ])
        .is_ok());
        // early forced shutdown inside the notice window is allowed
        assert!(DynamicsPlan::new(vec![
            ClusterEvent::drain(n, SimTime::from_secs(10), 600),
            ClusterEvent::down(n, SimTime::from_secs(50)),
            ClusterEvent::up(n, SimTime::from_secs(500)),
        ])
        .is_ok());
    }

    #[test]
    fn unchecked_constructor_tolerates_anything() {
        let n = NodeId::new(0);
        let p = DynamicsPlan::new_unchecked(vec![
            ClusterEvent::up(n, SimTime::from_secs(5)),
            ClusterEvent::up(n, SimTime::from_secs(1)),
        ]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.events()[0].at, SimTime::from_secs(1), "still sorted");
        assert!(p.validate().is_err());
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_ordered() {
        let a = DynamicsPlan::seeded_mtbf(8, 24.0 * HOUR as f64, HOUR as f64, 7 * 24 * HOUR, 7);
        let b = DynamicsPlan::seeded_mtbf(8, 24.0 * HOUR as f64, HOUR as f64, 7 * 24 * HOUR, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a day-scale MTBF over a week must fault");
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.validate().is_ok(), "renewal schedules alternate per node");
        let c = DynamicsPlan::seeded_mtbf(8, 24.0 * HOUR as f64, HOUR as f64, 7 * 24 * HOUR, 8);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn downs_and_ups_alternate_per_node() {
        let p =
            DynamicsPlan::seeded_mtbf(4, 12.0 * HOUR as f64, 2.0 * HOUR as f64, 14 * 24 * HOUR, 3);
        for node in 0..4u32 {
            let mut down = false;
            for e in p.events().iter().filter(|e| e.node == NodeId::new(node)) {
                match e.kind {
                    ClusterEventKind::NodeDown => {
                        assert!(!down, "double down on node {node}");
                        down = true;
                    }
                    ClusterEventKind::NodeUp => {
                        assert!(down, "up without down on node {node}");
                        down = false;
                    }
                    other => panic!("unexpected kind {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mtbf_scales_event_count() {
        let rare = DynamicsPlan::seeded_mtbf(32, 1e9, HOUR as f64, 24 * HOUR, 1);
        let churny = DynamicsPlan::seeded_mtbf(32, 6.0 * HOUR as f64, HOUR as f64, 24 * HOUR, 1);
        assert!(rare.len() < churny.len());
    }

    #[test]
    fn degenerate_inputs_yield_empty_plans() {
        assert!(DynamicsPlan::seeded_mtbf(0, 100.0, 10.0, 1_000, 1).is_empty());
        assert!(DynamicsPlan::seeded_mtbf(4, 0.0, 10.0, 1_000, 1).is_empty());
        assert!(DynamicsPlan::seeded_mtbf(4, 100.0, 10.0, 0, 1).is_empty());
        assert!(DynamicsPlan::correlated(&[], 100.0, 10.0, 1_000, 1).is_empty());
        assert!(
            DynamicsPlan::correlated(&FailureDomain::racks(8, 4), 0.0, 10.0, 1_000, 1).is_empty()
        );
        assert!(DynamicsPlan::rolling_drain(0, SimTime::ZERO, 1, 1, 1).is_empty());
        let t = NodeTemplate {
            model: GpuModel::A100,
            gpus: 8,
        };
        assert!(DynamicsPlan::scale_out(t, SimTime::ZERO, HOUR, 0, 4).is_empty());
    }

    #[test]
    fn correlated_failures_share_one_stream_per_domain() {
        let racks = FailureDomain::racks(8, 4);
        let p = DynamicsPlan::correlated(&racks, 12.0 * HOUR as f64, HOUR as f64, 7 * 24 * HOUR, 5);
        assert_eq!(
            p,
            DynamicsPlan::correlated(&racks, 12.0 * HOUR as f64, HOUR as f64, 7 * 24 * HOUR, 5),
            "reproducible"
        );
        assert!(!p.is_empty());
        assert!(p.validate().is_ok());
        // whole-rack semantics: every down timestamp hits all 4 rack
        // members at once
        let mut by_time: std::collections::BTreeMap<SimTime, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for e in p
            .events()
            .iter()
            .filter(|e| e.kind == ClusterEventKind::NodeDown)
        {
            by_time.entry(e.at).or_default().push(e.node);
        }
        for (at, nodes) in by_time {
            assert_eq!(nodes.len(), 4, "partial blast radius at {at}");
            let rack = nodes[0].raw() / 4;
            assert!(
                nodes.iter().all(|n| n.raw() / 4 == rack),
                "mixed racks at {at}"
            );
        }
    }

    #[test]
    fn rolling_drain_staggers_and_restores() {
        let p = DynamicsPlan::rolling_drain(3, SimTime::from_hours(1), 600, 300, 1_200);
        assert!(p.validate().is_ok());
        assert_eq!(p.len(), 6);
        let drains: Vec<&ClusterEvent> = p
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ClusterEventKind::Drain { .. }))
            .collect();
        assert_eq!(drains.len(), 3);
        assert_eq!(drains[0].at, SimTime::from_hours(1));
        assert_eq!(drains[1].at, SimTime::from_secs(3_600 + 600));
        // recovery = drain + notice + maintenance
        let ups: Vec<&ClusterEvent> = p
            .events()
            .iter()
            .filter(|e| e.kind == ClusterEventKind::NodeUp)
            .collect();
        assert_eq!(ups[0].at, SimTime::from_secs(3_600 + 300 + 1_200));
    }

    #[test]
    fn scale_out_steps_mint_unassigned_events() {
        let t = NodeTemplate {
            model: GpuModel::H800,
            gpus: 8,
        };
        let p = DynamicsPlan::scale_out(t, SimTime::from_hours(2), HOUR, 3, 2);
        assert_eq!(p.len(), 6);
        assert!(p.validate().is_ok());
        assert!(p.events().iter().all(|e| e.node == ClusterEvent::UNASSIGNED
            && e.kind == ClusterEventKind::AddNode { group: t }));
        assert_eq!(p.events()[2].at, SimTime::from_hours(3));
    }

    #[test]
    fn merge_interleaves_and_revalidates() {
        let drains = DynamicsPlan::rolling_drain(2, SimTime::from_hours(10), 600, 300, 600);
        let adds = DynamicsPlan::scale_out(
            NodeTemplate {
                model: GpuModel::A100,
                gpus: 8,
            },
            SimTime::from_hours(1),
            HOUR,
            2,
            1,
        );
        let merged = drains.clone().merge(adds).expect("disjoint histories");
        assert_eq!(merged.len(), 6);
        assert!(merged.events().windows(2).all(|w| w[0].at <= w[1].at));
        // conflicting histories are rejected with a descriptive error:
        // two independent plans both failing node 0 without a recovery
        let a = DynamicsPlan::new(vec![ClusterEvent::down(
            NodeId::new(0),
            SimTime::from_hours(11),
        )])
        .expect("valid alone");
        let b = DynamicsPlan::new(vec![ClusterEvent::down(
            NodeId::new(0),
            SimTime::from_hours(12),
        )])
        .expect("valid alone");
        let conflict = a.merge(b).unwrap_err();
        assert!(conflict.to_string().contains("node-0"));
        assert!(conflict.to_string().contains("already down"));
    }

    #[test]
    fn serde_round_trip() {
        let base = DynamicsPlan::seeded_mtbf(2, HOUR as f64, 600.0, 6 * HOUR, 5);
        let p = base
            .merge(DynamicsPlan::scale_out(
                NodeTemplate {
                    model: GpuModel::A800,
                    gpus: 8,
                },
                SimTime::from_hours(3),
                HOUR,
                1,
                1,
            ))
            .expect("compose");
        let json = serde_json::to_string(&p).unwrap();
        let back: DynamicsPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
