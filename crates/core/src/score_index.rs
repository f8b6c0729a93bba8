//! Epoch-invalidated score index: the O(log n) replacement for the PTS
//! lexicographic placement scan.
//!
//! [`Pts::schedule_nonpreemptive`](crate::Pts::schedule_nonpreemptive)
//! historically found each pod's node by scoring *every* feasible
//! candidate and taking the lexicographic max — O(n) per decision, the
//! difference between a simulator and a schedulable control plane at
//! 100k nodes (ROADMAP item 1). This module caches the scores instead:
//!
//! * **Bucket trees** — one tournament (segment) tree per capacity-index
//!   bucket `(GpuModel, idle cards)`, whose internal nodes hold the
//!   winning node id under the exact scan order: packed `<Score1, Score2,
//!   Score3>` descending, then lower node id. A whole-card query for `g`
//!   cards reads the root of every bucket `g..` (at most
//!   `gpus_per_node + 1` roots) and picks the best — O(log n) total.
//! * **Epoch invalidation** — the cluster's [`ChangeLog`] records every
//!   score-relevant node mutation; [`ScoreIndex::prepare`] replays only
//!   the ids touched since its last cursor and recomputes those keys. A
//!   cursor that falls off the bounded log (or a different cluster
//!   instance) forces a full rebuild.
//! * **Eviction-window-aware invalidation** — `Score3` depends on
//!   windowed eviction *counts*, which also change by pure aging. Each
//!   cached key carries the last instant its counts stay valid
//!   ([`Node::eviction_score_valid_until`]); a min-heap of those
//!   deadlines recomputes exactly the nodes whose windows just aged out.
//!
//! ## Why the cached order is bit-identical to the scan
//!
//! All score components are finite and non-negative (`Score1 ∈ [0, 1]`,
//! `Score2 ≥ 0`, `Score3 ≥ 0`; the spot circuit breaker excludes a node
//! *before* a non-positive `Score3` could be stored), and for such
//! doubles the IEEE-754 bit pattern is monotone in the value — comparing
//! packed `u64` triples is exactly `partial_cmp` on the float triples,
//! with no epsilon anywhere. Scores are always recomputed from real node
//! state through the same [`Pts::node_scores`](crate::Pts::node_scores)
//! the scan calls, so a synced index cannot disagree with the scan even
//! in the last bit (property-pinned in `tests/property_based.rs`).
//!
//! Gang budgets never enter the cache: a pod's predecessors only *gate*
//! a node (virtual budget < demand), they never change its score, so the
//! caller masks budget-exhausted leaves for the duration of one gang and
//! reinserts them afterwards.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use gfs_cluster::Cluster;
use gfs_types::{GpuModel, Priority, SimTime};

use crate::pts::Pts;

/// Sentinel for "no node" in leaves and winner slots.
const EMPTY: u32 = u32::MAX;

/// Which cached score flavor a query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flavor {
    /// HP scoring (eviction-seeking `Score3`).
    Hp,
    /// Spot scoring (eviction-averse `Score3`; circuit-broken nodes are
    /// absent from this flavor entirely).
    Spot,
}

impl Flavor {
    pub(crate) fn of(priority: Priority) -> Flavor {
        match priority {
            Priority::Hp => Flavor::Hp,
            Priority::Spot => Flavor::Spot,
        }
    }
}

/// `<Score1, Score2, Score3>` packed as order-preserving bit patterns.
type Key = [u64; 3];

fn pack(scores: (f64, f64, f64)) -> Key {
    [scores.0.to_bits(), scores.1.to_bits(), scores.2.to_bits()]
}

/// Per-node cache slot.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Where the node's leaf lives: `(model, idle bucket, leaf pos)`;
    /// `None` while out of the placement structures (down, draining, or
    /// temporarily masked by a gang budget).
    bucket: Option<(GpuModel, u32, u32)>,
    hp: Option<Key>,
    spot: Option<Key>,
    /// Last second at which the eviction-window counts behind these keys
    /// are still current (`None` = stable until the next mutation).
    valid_until: Option<u64>,
}

impl Slot {
    fn key(&self, flavor: Flavor) -> Option<Key> {
        match flavor {
            Flavor::Hp => self.hp,
            Flavor::Spot => self.spot,
        }
    }
}

fn key_of(slots: &[Slot], flavor: Flavor, id: u32) -> Option<Key> {
    if id == EMPTY {
        return None;
    }
    slots[id as usize].key(flavor)
}

/// The scan's total order: higher packed scores win, ties prefer the
/// *lower* node id (the `then(b.0.cmp(&a.0))` of the scan's `max_by`).
fn duel(slots: &[Slot], flavor: Flavor, a: u32, b: u32) -> u32 {
    match (key_of(slots, flavor, a), key_of(slots, flavor, b)) {
        (None, None) => EMPTY,
        (Some(_), None) => a,
        (None, Some(_)) => b,
        (Some(ka), Some(kb)) => {
            if (ka, Reverse(a)) >= (kb, Reverse(b)) {
                a
            } else {
                b
            }
        }
    }
}

/// Tournament tree over one `(model, idle)` bucket's members. Leaves hold
/// node ids; internal slots hold the per-flavor duel winner of their
/// subtree. Positions are an implementation detail — winners depend only
/// on `(key, id)`, so leaf placement cannot affect decisions.
#[derive(Debug, Clone, Default)]
struct BucketTree {
    /// Leaf capacity; always a power of two (or 0 before first insert).
    cap: usize,
    /// `leaves[pos]` = node id or `EMPTY`.
    leaves: Vec<u32>,
    /// Internal duel winners, index 1..cap (standard implicit heap
    /// layout; entry 0 unused). Empty when `cap <= 1`.
    hp_win: Vec<u32>,
    spot_win: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl BucketTree {
    fn child(&self, flavor: Flavor, j: usize) -> u32 {
        if j >= self.cap {
            self.leaves[j - self.cap]
        } else {
            match flavor {
                Flavor::Hp => self.hp_win[j],
                Flavor::Spot => self.spot_win[j],
            }
        }
    }

    fn refresh_internal(&mut self, slots: &[Slot], i: usize) {
        let hp = duel(
            slots,
            Flavor::Hp,
            self.child(Flavor::Hp, 2 * i),
            self.child(Flavor::Hp, 2 * i + 1),
        );
        let spot = duel(
            slots,
            Flavor::Spot,
            self.child(Flavor::Spot, 2 * i),
            self.child(Flavor::Spot, 2 * i + 1),
        );
        self.hp_win[i] = hp;
        self.spot_win[i] = spot;
    }

    /// Recomputes winners on the path from leaf `pos` to the root.
    fn update_path(&mut self, slots: &[Slot], pos: u32) {
        let mut i = (self.cap + pos as usize) / 2;
        while i >= 1 {
            self.refresh_internal(slots, i);
            i /= 2;
        }
    }

    fn grow(&mut self, slots: &[Slot]) {
        let new_cap = (self.cap * 2).max(1);
        self.leaves.resize(new_cap, EMPTY);
        // hand out fresh positions high-to-low so pops take low first
        for pos in (self.cap..new_cap).rev() {
            self.free.push(pos as u32);
        }
        self.cap = new_cap;
        self.hp_win = vec![EMPTY; self.cap.max(1)];
        self.spot_win = vec![EMPTY; self.cap.max(1)];
        for i in (1..self.cap).rev() {
            self.refresh_internal(slots, i);
        }
    }

    fn insert(&mut self, slots: &[Slot], id: u32) -> u32 {
        if self.free.is_empty() {
            self.grow(slots);
        }
        let pos = self.free.pop().expect("grow produced a free leaf");
        self.leaves[pos as usize] = id;
        self.len += 1;
        self.update_path(slots, pos);
        pos
    }

    fn remove(&mut self, slots: &[Slot], pos: u32) {
        debug_assert_ne!(self.leaves[pos as usize], EMPTY);
        self.leaves[pos as usize] = EMPTY;
        self.free.push(pos);
        self.len -= 1;
        self.update_path(slots, pos);
    }

    fn winner(&self, slots: &[Slot], flavor: Flavor) -> u32 {
        if self.len == 0 || self.cap == 0 {
            return EMPTY;
        }
        if self.cap == 1 {
            let id = self.leaves[0];
            if key_of(slots, flavor, id).is_some() {
                return id;
            }
            return EMPTY;
        }
        match flavor {
            Flavor::Hp => self.hp_win[1],
            Flavor::Spot => self.spot_win[1],
        }
    }
}

/// The score index. One per [`Pts`](crate::Pts) instance, bound to one
/// cluster value at a time (a different cluster — or a clone, which mints
/// a fresh change-log instance — triggers a rebuild on first use).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScoreIndex {
    /// Change-log instance this index is synced to.
    bound: Option<u64>,
    cursor: u64,
    last_now: SimTime,
    slots: Vec<Slot>,
    trees: BTreeMap<(GpuModel, u32), BucketTree>,
    /// Min-heap of `(valid_until, node id)` eviction-window deadlines.
    expiry: BinaryHeap<Reverse<(u64, u32)>>,
    /// Deadlines taken off `expiry` so far (stale ones included); never
    /// reset, so it only grows as simulated time passes deadlines.
    aged: u64,
    scratch: Vec<u32>,
}

impl ScoreIndex {
    /// Brings the index in sync with `cluster` at `now`: full rebuild on
    /// first contact / instance change / log overflow / time moving
    /// backwards, otherwise an incremental replay of the changed ids plus
    /// aging-out of expired eviction windows.
    pub(crate) fn prepare(&mut self, pts: &Pts, cluster: &Cluster, now: SimTime) {
        let log = cluster.change_log();
        if self.bound != Some(log.instance()) || now < self.last_now {
            self.rebuild(pts, cluster, now);
            return;
        }
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        let replayed = log.replay(self.cursor, |id| ids.push(id));
        if !replayed {
            self.scratch = ids;
            self.rebuild(pts, cluster, now);
            return;
        }
        self.cursor = log.cursor();
        for &id in &ids {
            self.recompute(pts, cluster, id, now);
        }
        self.scratch = ids;
        while let Some(&Reverse((t, id))) = self.expiry.peek() {
            if t >= now.as_secs() {
                break;
            }
            self.expiry.pop();
            self.aged += 1;
            // only act on the node's *current* deadline; earlier entries
            // for the same node are stale and skipped
            if self
                .slots
                .get(id as usize)
                .is_some_and(|s| s.valid_until == Some(t))
            {
                self.recompute(pts, cluster, id, now);
            }
        }
        self.last_now = now;
    }

    fn rebuild(&mut self, pts: &Pts, cluster: &Cluster, now: SimTime) {
        let log = cluster.change_log();
        self.bound = Some(log.instance());
        self.cursor = log.cursor();
        self.last_now = now;
        self.trees.clear();
        self.expiry.clear();
        self.slots.clear();
        self.slots.resize(cluster.nodes().len(), Slot::default());
        for node in cluster.nodes() {
            self.recompute(pts, cluster, node.id().raw(), now);
        }
    }

    /// How many eviction-window deadlines [`ScoreIndex::prepare`] has
    /// seen pass. Between two cluster mutations it changes exactly when
    /// some node's windowed eviction counts may have aged — the only way
    /// a circuit-broken node rejoins spot placement without a mutation.
    pub(crate) fn aged(&self) -> u64 {
        self.aged
    }

    /// Recomputes one node's cached keys and tree membership from real
    /// cluster state.
    fn recompute(&mut self, pts: &Pts, cluster: &Cluster, id: u32, now: SimTime) {
        if self.slots.len() <= id as usize {
            // scale-out minted a fresh node id
            self.slots.resize(id as usize + 1, Slot::default());
        }
        let placement = cluster.node_placement_key(id);
        let (hp, spot, valid_until) = match placement {
            None => (None, None, None),
            Some(_) => {
                let node = &cluster.nodes()[id as usize];
                let hp = pts.node_scores(node, Priority::Hp, now).map(pack);
                let spot = pts.node_scores(node, Priority::Spot, now).map(pack);
                let valid = if pts.scoring_time_invariant() {
                    None
                } else {
                    node.eviction_score_valid_until(now, &pts.eviction_windows())
                        .map(SimTime::as_secs)
                };
                (hp, spot, valid)
            }
        };
        let slot = &mut self.slots[id as usize];
        let old_bucket = slot.bucket;
        let deadline_changed = slot.valid_until != valid_until;
        slot.hp = hp;
        slot.spot = spot;
        slot.valid_until = valid_until;
        match (old_bucket, placement) {
            (Some((m, k, pos)), Some(new)) if (m, k) == new => {
                // same bucket, keys changed: refresh the winner path
                let tree = self.trees.get_mut(&(m, k)).expect("occupied bucket");
                tree.update_path(&self.slots, pos);
            }
            (old, new) => {
                if let Some((m, k, pos)) = old {
                    let tree = self.trees.get_mut(&(m, k)).expect("occupied bucket");
                    tree.remove(&self.slots, pos);
                }
                if let Some((m, k)) = new {
                    let tree = self.trees.entry((m, k)).or_default();
                    let pos = tree.insert(&self.slots, id);
                    self.slots[id as usize].bucket = Some((m, k, pos));
                } else {
                    self.slots[id as usize].bucket = None;
                }
            }
        }
        if deadline_changed {
            if let Some(t) = valid_until {
                self.expiry.push(Reverse((t, id)));
            }
        }
    }

    /// The scan winner among schedulable `model` nodes with at least
    /// `need` whole idle cards: lexicographic max of the cached scores,
    /// ties to the lower node id. Requires a preceding
    /// [`ScoreIndex::prepare`] this scheduling round.
    pub(crate) fn query(&self, model: GpuModel, need: u32, flavor: Flavor) -> Option<u32> {
        let mut best: Option<(Key, Reverse<u32>)> = None;
        let mut best_id = EMPTY;
        for (_, tree) in self.trees.range((model, need)..=(model, u32::MAX)) {
            let w = tree.winner(&self.slots, flavor);
            if w == EMPTY {
                continue;
            }
            let key = key_of(&self.slots, flavor, w).expect("winner has a key");
            let cand = (key, Reverse(w));
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
                best_id = w;
            }
        }
        (best_id != EMPTY).then_some(best_id)
    }

    /// Debug aid: prints every node whose cached state disagrees with a
    /// fresh recomputation. Temporary instrumentation for the
    /// index-equivalence work; only called under `GFS_XCHECK_INDEX`.
    pub(crate) fn debug_dump(&self, pts: &Pts, cluster: &Cluster, now: SimTime) {
        for node in cluster.nodes() {
            let id = node.id().raw();
            let slot = &self.slots[id as usize];
            let placement = cluster.node_placement_key(id);
            let hp = pts.node_scores(node, Priority::Hp, now).map(pack);
            let spot = pts.node_scores(node, Priority::Spot, now).map(pack);
            let bucket_ok = match (slot.bucket, placement) {
                (Some((m, k, _)), Some(p)) => (m, k) == p,
                (None, None) => true,
                _ => false,
            };
            if slot.hp != hp || slot.spot != spot || !bucket_ok {
                eprintln!(
                    "node {id}: cached hp={:?} spot={:?} bucket={:?} vs fresh hp={:?} spot={:?} placement={:?} valid_until={:?} idle={}",
                    slot.hp, slot.spot, slot.bucket, hp, spot, placement, slot.valid_until,
                    node.idle_gpus()
                );
            }
        }
    }

    /// Temporarily hides a node from queries (gang budget exhausted for
    /// the pods still being placed). Keys stay cached; pair with
    /// [`ScoreIndex::unmask`] before the scheduling call returns.
    pub(crate) fn mask(&mut self, id: u32) {
        if let Some((m, k, pos)) = self.slots[id as usize].bucket.take() {
            let tree = self.trees.get_mut(&(m, k)).expect("occupied bucket");
            tree.remove(&self.slots, pos);
        }
    }

    /// Re-admits a node hidden by [`ScoreIndex::mask`]. The cluster was
    /// not mutated in between (scheduling is a pure read), so the node
    /// rejoins the bucket it was masked out of.
    pub(crate) fn unmask(&mut self, cluster: &Cluster, id: u32) {
        if self.slots[id as usize].bucket.is_some() {
            return;
        }
        if let Some((m, k)) = cluster.node_placement_key(id) {
            let tree = self.trees.entry((m, k)).or_default();
            let pos = tree.insert(&self.slots, id);
            self.slots[id as usize].bucket = Some((m, k, pos));
        }
    }
}
