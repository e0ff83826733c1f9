//! Synchronization objects: distributed queue-based locks and barriers.
//!
//! "Synchronization objects are accessed in a fundamentally different way
//! than data objects, so Munin does not provide synchronization through
//! shared memory. Rather each Munin node interacts with the other nodes to
//! provide a high-level synchronization service." (Section 3.4.)
//!
//! This module holds the per-node *synchronization object directory*: the
//! local view of every lock and barrier. The message handling that drives the
//! distributed protocol lives in [`crate::runtime`]; the state transitions are
//! kept here so they can be unit-tested in isolation.

use std::collections::VecDeque;

use munin_sim::NodeId;

use crate::nodeset::NodeSet;
use crate::object::ObjectId;

/// Identifier of a distributed lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// Identifier of a barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BarrierId(pub u32);

/// Per-node state of one distributed lock.
///
/// Ownership of a lock (the right to grant it) moves between nodes; the queue
/// of waiting requesters travels with ownership, so that "a release/acquire
/// pair can be performed with a single message exchange if the acquire is
/// pending when the release occurs". Nodes that are not the owner keep only a
/// probable-owner hint used to forward requests.
#[derive(Clone, Debug)]
pub struct LockState {
    /// Whether this node currently owns the lock token (holds it or is the
    /// node at which the free lock resides).
    pub owned: bool,
    /// Whether the local user thread currently holds the lock.
    pub held: bool,
    /// Requesters waiting for the lock (meaningful only at the owner).
    pub queue: VecDeque<NodeId>,
    /// Best guess at the current owner, used to forward acquire requests.
    pub probable_owner: NodeId,
    /// Data objects associated with the lock via `AssociateDataAndSynch`;
    /// their contents are piggybacked on lock grants.
    pub associated: Vec<ObjectId>,
}

impl LockState {
    /// Creates the initial state of a lock created at `home` as seen from a
    /// node: the home node owns it, everyone else forwards there.
    pub fn new(home: NodeId, local: NodeId) -> Self {
        LockState {
            owned: home == local,
            held: false,
            queue: VecDeque::new(),
            probable_owner: home,
            associated: Vec::new(),
        }
    }

    /// Attempts a purely local acquire. Returns `true` if the lock was free
    /// and owned locally (fast path, no messages needed).
    pub fn try_local_acquire(&mut self) -> bool {
        if self.owned && !self.held && self.queue.is_empty() {
            self.held = true;
            true
        } else {
            false
        }
    }

    /// Records the receipt of lock ownership (a `LockGrant`), together with
    /// the waiter queue that travels with it. The local thread becomes the
    /// holder.
    pub fn receive_grant(&mut self, queue: impl IntoIterator<Item = NodeId>, local: NodeId) {
        self.owned = true;
        self.held = true;
        self.queue = queue.into_iter().collect();
        self.probable_owner = local;
    }

    /// Handles a remote acquire request arriving at this node.
    ///
    /// Returns what the runtime must do with it. Queueing is idempotent (a
    /// requester already waiting is not queued twice): the crash-recovery
    /// path re-sends an acquire towards the lock home when a peer on the
    /// forwarding chain dies, and the original request may still be alive.
    pub fn handle_remote_acquire(&mut self, requester: NodeId) -> RemoteAcquireAction {
        if !self.owned {
            return RemoteAcquireAction::Forward(self.probable_owner);
        }
        if !self.held && self.queue.is_empty() {
            // Free at this node: hand ownership over immediately.
            self.owned = false;
            self.probable_owner = requester;
            RemoteAcquireAction::Grant
        } else {
            if !self.queue.contains(&requester) {
                self.queue.push_back(requester);
            }
            RemoteAcquireAction::Queued
        }
    }

    /// Crash recovery at the lock's *home* node: the peer last known to hold
    /// the token died, so the home mints a fresh free token (the distributed
    /// queue that travelled with the dead token is gone; orphaned waiters
    /// re-send their acquires towards the home). Returns `true` when a token
    /// was actually regenerated.
    pub fn regenerate_token(&mut self, local: NodeId) -> bool {
        if self.owned {
            return false;
        }
        self.owned = true;
        self.held = false;
        self.queue.clear();
        self.probable_owner = local;
        true
    }

    /// Removes a dead node from the waiter queue, and redirects a
    /// probable-owner hint that points at the dead node to `fallback` (the
    /// lock home) so later forwards do not chase a corpse.
    pub fn prune_dead(&mut self, dead: NodeId, fallback: NodeId) {
        self.queue.retain(|n| *n != dead);
        if self.probable_owner == dead && !self.owned {
            self.probable_owner = fallback;
        }
    }

    /// Releases the lock locally. If waiters are queued, ownership (and the
    /// remaining queue) must be handed to the head waiter; the state is
    /// updated accordingly and the grant target is returned.
    ///
    /// Returns `None` if no one is waiting (the lock stays here, free).
    pub fn release(&mut self) -> Option<(NodeId, Vec<NodeId>)> {
        self.held = false;
        if let Some(next) = self.queue.pop_front() {
            let rest: Vec<NodeId> = self.queue.drain(..).collect();
            self.owned = false;
            self.probable_owner = next;
            Some((next, rest))
        } else {
            None
        }
    }
}

/// What a node must do with a remote lock-acquire request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteAcquireAction {
    /// Not the owner: forward the request to this node.
    Forward(NodeId),
    /// The lock was free here: grant ownership to the requester.
    Grant,
    /// The lock is busy: the requester has been queued.
    Queued,
}

/// The static k-ary combining tree every barrier runs over.
///
/// Nodes are laid out heap-style by *rank*: the barrier owner is rank 0, the
/// ranks `r·k+1 ..= r·k+k` are the children of rank `r`, and rank `r` of node
/// `n` is `(n + nodes − owner) mod nodes` — so the shape depends only on
/// `(owner, nodes, fanout)` and every node derives identical edges without
/// coordination. With `k ≥ nodes − 1` the tree is a single level: every node
/// reports straight to the owner, which is the paper's owner-collected
/// barrier. The *static* tree never changes; crash recovery re-parents a
/// subtree by sending its reports to the nearest live static ancestor, which
/// moves an edge but never changes any node's static subtree membership.
#[derive(Clone, Copy, Debug)]
pub struct TreeTopology {
    /// The barrier owner (rank 0, the tree root).
    pub owner: NodeId,
    /// Total cluster size.
    pub nodes: usize,
    /// Fan-in `k`: at least 2, at most `max(nodes − 1, 2)`.
    pub fanout: usize,
}

impl TreeTopology {
    /// Builds the topology. A fan-in above `nodes − 1` is the same single
    /// level as `nodes − 1` and is clamped to it (which also keeps the heap
    /// arithmetic from overflowing for `usize::MAX`). A fan-in below 2 would
    /// be a chain; the config layer rejects it before it can reach here.
    pub fn new(owner: NodeId, nodes: usize, fanout: usize) -> Self {
        debug_assert!(fanout >= 2, "barrier fan-in {fanout} is below 2");
        TreeTopology {
            owner,
            nodes,
            fanout: fanout.min(nodes.saturating_sub(1)).max(2),
        }
    }

    /// Whether every node reports straight to the owner (depth 1).
    pub fn is_single_level(&self) -> bool {
        self.nodes <= self.fanout + 1
    }

    /// Heap rank of a node (owner = 0).
    pub fn rank_of(&self, node: NodeId) -> usize {
        (node.as_usize() + self.nodes - self.owner.as_usize()) % self.nodes
    }

    /// The node holding a heap rank.
    pub fn node_at(&self, rank: usize) -> NodeId {
        NodeId::new((self.owner.as_usize() + rank) % self.nodes)
    }

    /// Static tree parent (`None` for the owner).
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        let r = self.rank_of(node);
        (r > 0).then(|| self.node_at((r - 1) / self.fanout))
    }

    /// Static tree children, in rank order.
    pub fn children_of(&self, node: NodeId) -> Vec<NodeId> {
        let first = self.rank_of(node) * self.fanout + 1;
        (first..(first + self.fanout).min(self.nodes))
            .map(|r| self.node_at(r))
            .collect()
    }

    /// The node's full static subtree, itself included.
    pub fn subtree_of(&self, node: NodeId) -> NodeSet {
        let mut set = NodeSet::EMPTY;
        let mut stack = vec![self.rank_of(node)];
        while let Some(r) = stack.pop() {
            set.insert(self.node_at(r));
            let first = r * self.fanout + 1;
            stack.extend(first..(first + self.fanout).min(self.nodes));
        }
        set
    }

    /// Whether `ancestor` lies on the static path from `node` (exclusive)
    /// up to the owner (inclusive). Crash recovery uses this to decide
    /// whether a death can have swallowed this node's upward report.
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> bool {
        let target = self.rank_of(ancestor);
        let mut r = self.rank_of(node);
        while r > 0 {
            r = (r - 1) / self.fanout;
            if r == target {
                return true;
            }
        }
        false
    }

    /// The nearest static ancestor not in `dead` — the node a re-parented
    /// subtree reports to. `None` when every ancestor up to and including
    /// the owner is dead (owner death ends the run via `NodeDown`), and for
    /// the owner itself, which has no parent.
    pub fn live_parent_of(&self, node: NodeId, dead: &NodeSet) -> Option<NodeId> {
        let mut r = self.rank_of(node);
        while r > 0 {
            r = (r - 1) / self.fanout;
            let ancestor = self.node_at(r);
            if !dead.contains(ancestor) {
                return Some(ancestor);
            }
        }
        None
    }
}

/// Per-node state of one barrier.
///
/// Barriers are owner-collected (Section 3.4): every arriving thread reports
/// to the barrier owner and blocks until the owner releases everyone. The
/// reports travel up a static combining tree rooted at the owner (see
/// [`TreeTopology`]) and the releases fan back down it; a single-level tree
/// is exactly the paper's barrier. Every node keeps one of these per
/// barrier: interior nodes combine their children's reports here before
/// forwarding one merged report upward.
#[derive(Clone, Debug)]
pub struct BarrierState {
    /// The tree the barrier runs over.
    pub topo: TreeTopology,
    /// This node's static subtree, itself included: the arrivals it
    /// collects before reporting (or, at the owner, before opening).
    pub subtree: NodeSet,
    /// Every node known to have arrived this episode in (or re-parented
    /// into) this node's subtree, itself included once it arrives.
    pub arrived: NodeSet,
    /// Dynamic children this episode: each reporting node and the arrived
    /// set it covers, recorded from its upward reports. Releases fan down
    /// exactly these edges, so a re-parented subtree is released by whoever
    /// actually received its report.
    pub children: Vec<(NodeId, NodeSet)>,
    /// Arrival count as of the last upward report, so duplicate incoming
    /// reports (crash-recovery re-sends) do not trigger duplicate forwards:
    /// a node re-forwards only when its merged set has grown.
    pub forwarded_count: usize,
    /// Completed episodes: how many times the barrier has opened here.
    pub completed: u64,
}

/// What [`BarrierState::step`] decided. The runtime acts on it outside the
/// sync lock (sends never happen while holding it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BarrierStep {
    /// Nothing to do: the subtree is incomplete, or nothing grew since the
    /// last upward report.
    Hold,
    /// Forward the merged arrived set of episode `gen` to `parent`, the
    /// nearest live static ancestor.
    Report {
        /// Where the report goes.
        parent: NodeId,
        /// The episode being reported.
        gen: u64,
        /// Every arrived node this report covers.
        arrived: NodeSet,
    },
    /// Owner: every live node has arrived — release episode `gen` down these
    /// live dynamic edges.
    Open {
        /// The episode that opened.
        gen: u64,
        /// Live reporting children and the sets they cover.
        children: Vec<(NodeId, NodeSet)>,
    },
}

impl BarrierState {
    /// The state of a barrier over `topo` as seen from `local`.
    pub fn new(topo: TreeTopology, local: NodeId) -> Self {
        BarrierState {
            topo,
            subtree: topo.subtree_of(local),
            arrived: NodeSet::EMPTY,
            children: Vec::new(),
            forwarded_count: 0,
            completed: 0,
        }
    }

    /// Merges one upward report of episode `gen` from `from` covering
    /// `covered`. Returns `false` (and merges nothing) when the episode has
    /// already completed here: the sender missed its release and must be
    /// answered directly. Merging is idempotent, so a duplicate report is
    /// counted once.
    pub fn receive_report(&mut self, from: NodeId, gen: u64, covered: &NodeSet) -> bool {
        if gen <= self.completed {
            return false;
        }
        debug_assert!(
            gen == self.completed + 1,
            "report for episode {gen} > {} + 1",
            self.completed
        );
        self.arrived.union_with(covered);
        match self.children.iter_mut().find(|(c, _)| *c == from) {
            Some((_, set)) => set.union_with(covered),
            None => self.children.push((from, covered.clone())),
        }
        true
    }

    /// Checks completeness against the live part of the subtree and decides
    /// what `local` does next. Idempotent: the `forwarded_count` guard keeps
    /// repeated triggers (user thread, service thread, crash recovery) from
    /// duplicating upward traffic. Nothing happens before `local` itself
    /// arrives, since it is in its own subtree.
    pub fn step(&mut self, local: NodeId, dead: &NodeSet) -> BarrierStep {
        let mut needed = self.subtree.clone();
        needed.difference_with(dead);
        if !self.arrived.is_superset_of(&needed) {
            return BarrierStep::Hold;
        }
        let gen = self.completed + 1;
        if self.topo.owner == local {
            let children = self.finish_episode(gen, dead);
            return BarrierStep::Open { gen, children };
        }
        if self.arrived.count() <= self.forwarded_count {
            return BarrierStep::Hold;
        }
        // A dead static parent is skipped: the report re-parents to the
        // nearest live ancestor. None means the owner is dead — the waiting
        // user thread surfaces `NodeDown`.
        match self.topo.live_parent_of(local, dead) {
            Some(parent) => {
                self.forwarded_count = self.arrived.count();
                BarrierStep::Report {
                    parent,
                    gen,
                    arrived: self.arrived.clone(),
                }
            }
            None => BarrierStep::Hold,
        }
    }

    /// A release of episode `gen` reached this (non-owner) node: returns the
    /// live dynamic children to forward it to, or `None` for a duplicate of
    /// an episode already released here.
    pub fn receive_release(&mut self, gen: u64, dead: &NodeSet) -> Option<Vec<(NodeId, NodeSet)>> {
        if gen <= self.completed {
            return None;
        }
        debug_assert!(
            gen == self.completed + 1,
            "release for episode {gen} > {} + 1",
            self.completed
        );
        Some(self.finish_episode(gen, dead))
    }

    /// Crash recovery: `dead` was confirmed gone. If it was a static
    /// ancestor of `local` it may have swallowed this node's report without
    /// forwarding it, so the next [`step`](Self::step) re-sends the merged
    /// report — to the nearest live ancestor. Re-sends merge idempotently,
    /// so over-sending is safe and under-sending is not.
    pub fn note_death(&mut self, local: NodeId, dead: NodeId) {
        if self.topo.is_ancestor_of(dead, local) {
            self.forwarded_count = 0;
        }
    }

    /// Closes episode `gen`: resets the per-episode fields and hands back the
    /// live dynamic children to release (a dead child's release could not
    /// reach it, and its live descendants re-parented elsewhere).
    fn finish_episode(&mut self, gen: u64, dead: &NodeSet) -> Vec<(NodeId, NodeSet)> {
        let mut children = std::mem::take(&mut self.children);
        children.retain(|(c, _)| !dead.contains(*c));
        self.arrived.clear();
        self.forwarded_count = 0;
        self.completed = gen;
        children
    }
}

/// The synchronization object directory of one node: the analogue of the data
/// object directory for locks and barriers.
#[derive(Clone, Debug, Default)]
pub struct SyncDirectory {
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
}

impl SyncDirectory {
    /// Builds the directory for a node, given the statically created locks
    /// (by home) and barriers (by owner, each over a `fanout`-ary tree of
    /// all `nodes` nodes).
    pub fn new(
        local: NodeId,
        lock_homes: &[NodeId],
        barrier_owners: &[NodeId],
        nodes: usize,
        fanout: usize,
    ) -> Self {
        SyncDirectory {
            locks: lock_homes
                .iter()
                .map(|home| LockState::new(*home, local))
                .collect(),
            barriers: barrier_owners
                .iter()
                .map(|owner| BarrierState::new(TreeTopology::new(*owner, nodes, fanout), local))
                .collect(),
        }
    }

    /// State of a lock.
    pub fn lock(&self, id: LockId) -> &LockState {
        &self.locks[id.0 as usize]
    }

    /// Mutable state of a lock.
    pub fn lock_mut(&mut self, id: LockId) -> &mut LockState {
        &mut self.locks[id.0 as usize]
    }

    /// State of a barrier.
    pub fn barrier(&self, id: BarrierId) -> &BarrierState {
        &self.barriers[id.0 as usize]
    }

    /// Mutable state of a barrier.
    pub fn barrier_mut(&mut self, id: BarrierId) -> &mut BarrierState {
        &mut self.barriers[id.0 as usize]
    }

    /// Number of locks known to this node.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// Number of barriers known to this node.
    pub fn barrier_count(&self) -> usize {
        self.barriers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn local_acquire_fast_path() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert!(lock.held);
        // Cannot acquire again while held.
        assert!(!lock.try_local_acquire());
    }

    #[test]
    fn non_owner_cannot_acquire_locally() {
        let mut lock = LockState::new(n(0), n(1));
        assert!(!lock.try_local_acquire());
        assert_eq!(lock.probable_owner, n(0));
    }

    #[test]
    fn remote_acquire_grants_free_lock_and_moves_ownership() {
        let mut lock = LockState::new(n(0), n(0));
        let action = lock.handle_remote_acquire(n(2));
        assert_eq!(action, RemoteAcquireAction::Grant);
        assert!(!lock.owned);
        assert_eq!(lock.probable_owner, n(2));
        // A later request is forwarded to the new owner.
        assert_eq!(
            lock.handle_remote_acquire(n(3)),
            RemoteAcquireAction::Forward(n(2))
        );
    }

    #[test]
    fn remote_acquire_queues_when_held() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        assert_eq!(
            lock.handle_remote_acquire(n(2)),
            RemoteAcquireAction::Queued
        );
        // Release hands ownership and the remaining queue to the head waiter.
        let (next, rest) = lock.release().unwrap();
        assert_eq!(next, n(1));
        assert_eq!(rest, vec![n(2)]);
        assert!(!lock.owned);
        assert_eq!(lock.probable_owner, n(1));
    }

    #[test]
    fn release_without_waiters_keeps_lock_local() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert!(lock.release().is_none());
        assert!(lock.owned);
        assert!(!lock.held);
        // Can re-acquire locally without messages.
        assert!(lock.try_local_acquire());
    }

    #[test]
    fn grant_receipt_installs_queue() {
        let mut lock = LockState::new(n(0), n(3));
        lock.receive_grant(vec![n(1), n(2)], n(3));
        assert!(lock.owned && lock.held);
        assert_eq!(lock.queue, vec![n(1), n(2)]);
        let (next, rest) = lock.release().unwrap();
        assert_eq!(next, n(1));
        assert_eq!(rest, vec![n(2)]);
    }

    /// The owner's state of a single-level barrier over `nodes` nodes owned
    /// by node 0 — the paper's owner-collected barrier.
    fn one_level(nodes: usize) -> BarrierState {
        BarrierState::new(TreeTopology::new(n(0), nodes, nodes.max(2)), n(0))
    }

    /// Records the owner's own arrival or a leaf's single-node report.
    fn arrive(b: &mut BarrierState, node: usize) {
        if node == 0 {
            b.arrived.insert(n(0));
        } else {
            let gen = b.completed + 1;
            assert!(b.receive_report(n(node), gen, &NodeSet::from_nodes([n(node)])));
        }
    }

    fn released(step: BarrierStep) -> Vec<NodeId> {
        match step {
            BarrierStep::Open { children, .. } => children.into_iter().map(|(c, _)| c).collect(),
            other => panic!("expected the barrier to open, got {other:?}"),
        }
    }

    const ALIVE: NodeSet = NodeSet::EMPTY;

    #[test]
    fn barrier_opens_when_all_parties_arrive() {
        let mut b = one_level(3);
        arrive(&mut b, 0);
        assert_eq!(b.step(n(0), &ALIVE), BarrierStep::Hold);
        arrive(&mut b, 1);
        assert_eq!(b.step(n(0), &ALIVE), BarrierStep::Hold);
        arrive(&mut b, 2);
        assert_eq!(released(b.step(n(0), &ALIVE)), vec![n(1), n(2)]);
        assert_eq!(b.completed, 1);
        // The barrier is reusable, in any arrival order.
        arrive(&mut b, 2);
        arrive(&mut b, 1);
        assert_eq!(b.step(n(0), &ALIVE), BarrierStep::Hold);
        arrive(&mut b, 0);
        assert_eq!(released(b.step(n(0), &ALIVE)), vec![n(2), n(1)]);
        assert_eq!(b.completed, 2);
    }

    #[test]
    fn a_dead_node_lowers_the_arrival_threshold() {
        let mut b = one_level(4);
        arrive(&mut b, 0);
        arrive(&mut b, 1);
        // Node 3 dies: the two arrivals are still not enough.
        let dead = NodeSet::from_nodes([n(3)]);
        assert_eq!(b.step(n(0), &dead), BarrierStep::Hold);
        arrive(&mut b, 2);
        assert_eq!(released(b.step(n(0), &dead)), vec![n(1), n(2)]);
        // The next episode still runs without the corpse.
        arrive(&mut b, 0);
        arrive(&mut b, 1);
        assert_eq!(b.step(n(0), &dead), BarrierStep::Hold);
        arrive(&mut b, 2);
        assert_eq!(released(b.step(n(0), &dead)), vec![n(1), n(2)]);
    }

    #[test]
    fn death_of_the_last_straggler_releases_the_waiters() {
        let mut b = one_level(3);
        arrive(&mut b, 0);
        arrive(&mut b, 1);
        assert_eq!(b.step(n(0), &ALIVE), BarrierStep::Hold);
        // Node 2 dies while everyone else waits: the death itself opens the
        // barrier.
        let dead = NodeSet::from_nodes([n(2)]);
        assert_eq!(released(b.step(n(0), &dead)), vec![n(1)]);
        assert_eq!(b.completed, 1);
    }

    #[test]
    fn deaths_above_node_64_do_not_alias() {
        // Regression: the historical bitmap computed `1u64 << (node % 64)`,
        // so node 64 aliased onto node 0 and node 65 onto node 1 — the
        // threshold dropped by fewer than the real deaths, or a live node
        // counted as dead.
        let mut b = one_level(66);
        let dead = NodeSet::from_nodes([n(64), n(1), n(65)]);
        assert_eq!(dead.count(), 3, "three distinct deaths");
        arrive(&mut b, 0);
        for i in 2..63 {
            arrive(&mut b, i);
            assert_eq!(
                b.step(n(0), &dead),
                BarrierStep::Hold,
                "arrival {i} must not open"
            );
        }
        arrive(&mut b, 63);
        assert_eq!(released(b.step(n(0), &dead)).len(), 62);
        assert_eq!(b.completed, 1);
    }

    #[test]
    fn an_arrived_node_that_dies_is_dropped() {
        let mut b = one_level(3);
        arrive(&mut b, 2);
        let dead = NodeSet::from_nodes([n(2)]);
        // Node 2's arrival no longer counts towards anything...
        arrive(&mut b, 0);
        assert_eq!(b.step(n(0), &dead), BarrierStep::Hold);
        // ...and its release is not sent.
        arrive(&mut b, 1);
        assert_eq!(released(b.step(n(0), &dead)), vec![n(1)]);
    }

    #[test]
    fn a_duplicate_arrive_is_counted_once() {
        let mut b = one_level(3);
        let report = NodeSet::from_nodes([n(1)]);
        assert!(b.receive_report(n(1), 1, &report));
        assert!(b.receive_report(n(1), 1, &report));
        arrive(&mut b, 0);
        assert_eq!(b.arrived.count(), 2);
        assert_eq!(b.children.len(), 1);
        assert_eq!(b.step(n(0), &ALIVE), BarrierStep::Hold);
        arrive(&mut b, 2);
        assert_eq!(released(b.step(n(0), &ALIVE)), vec![n(1), n(2)]);
        // A copy arriving after the episode opened is stale, not a vote for
        // the next episode.
        assert!(!b.receive_report(n(1), 1, &report));
        assert!(b.arrived.is_empty());
    }

    #[test]
    fn a_leaf_reports_once_per_episode_and_drops_duplicate_releases() {
        let topo = TreeTopology::new(n(0), 4, 8);
        assert!(topo.is_single_level());
        let mut leaf = BarrierState::new(topo, n(2));
        assert_eq!(leaf.step(n(2), &ALIVE), BarrierStep::Hold);
        leaf.arrived.insert(n(2));
        assert_eq!(
            leaf.step(n(2), &ALIVE),
            BarrierStep::Report {
                parent: n(0),
                gen: 1,
                arrived: NodeSet::from_nodes([n(2)]),
            }
        );
        // Re-triggering without growth sends nothing more.
        assert_eq!(leaf.step(n(2), &ALIVE), BarrierStep::Hold);
        assert_eq!(leaf.receive_release(1, &ALIVE), Some(Vec::new()));
        assert_eq!(leaf.receive_release(1, &ALIVE), None);
        assert_eq!(leaf.completed, 1);
    }

    #[test]
    fn duplicate_queue_entries_are_not_created() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        // A crash-recovery re-send of the same acquire is a no-op.
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        assert_eq!(lock.queue, vec![n(1)]);
    }

    #[test]
    fn token_regeneration_and_dead_pruning() {
        let mut lock = LockState::new(n(0), n(0));
        // Grant the token away; node 2 now holds it.
        assert_eq!(lock.handle_remote_acquire(n(2)), RemoteAcquireAction::Grant);
        assert!(!lock.owned);
        // Node 2 dies: the home regenerates a free local token.
        assert!(lock.regenerate_token(n(0)));
        assert!(lock.owned && !lock.held && lock.queue.is_empty());
        assert_eq!(lock.probable_owner, n(0));
        // Regenerating an owned token is refused.
        assert!(!lock.regenerate_token(n(0)));
        // Pruning removes dead waiters and redirects stale hints.
        let mut other = LockState::new(n(0), n(1));
        other.prune_dead(n(0), n(0));
        assert_eq!(other.probable_owner, n(0));
        let mut held = LockState::new(n(0), n(0));
        assert!(held.try_local_acquire());
        held.handle_remote_acquire(n(2));
        held.handle_remote_acquire(n(3));
        held.prune_dead(n(2), n(0));
        assert_eq!(held.queue, vec![n(3)]);
    }

    #[test]
    fn directory_indexes_locks_and_barriers() {
        let dir = SyncDirectory::new(n(1), &[n(0), n(0)], &[n(0)], 4, 8);
        assert_eq!(dir.lock_count(), 2);
        assert_eq!(dir.barrier_count(), 1);
        assert!(!dir.lock(LockId(0)).owned);
        let b = dir.barrier(BarrierId(0));
        assert_eq!(b.topo.owner, n(0));
        assert_eq!(b.subtree, NodeSet::from_nodes([n(1)]));
        assert_eq!(b.completed, 0);
    }

    #[test]
    fn tree_topology_edges_are_mutually_consistent() {
        // Non-zero owner: ranks rotate, edges must still agree both ways.
        let t = TreeTopology::new(n(3), 13, 4);
        assert_eq!(t.rank_of(n(3)), 0);
        assert_eq!(t.parent_of(n(3)), None);
        for i in 0..13 {
            let node = n(i);
            for child in t.children_of(node) {
                assert_eq!(t.parent_of(child), Some(node));
            }
            if let Some(p) = t.parent_of(node) {
                assert!(t.children_of(p).contains(&node));
            }
        }
        // Rank 0 has children at ranks 1..=4 (nodes 4..=7).
        assert_eq!(t.children_of(n(3)), vec![n(4), n(5), n(6), n(7)]);
        // A leaf has none.
        assert_eq!(t.children_of(n(12)), Vec::<NodeId>::new());
    }

    #[test]
    fn tree_subtrees_partition_the_cluster() {
        let t = TreeTopology::new(n(0), 256, 8);
        // The owner's subtree is everyone.
        assert_eq!(t.subtree_of(n(0)), NodeSet::full(256));
        // Sibling subtrees are disjoint and, with the root, cover the
        // cluster exactly.
        let mut union = NodeSet::EMPTY;
        union.insert(n(0));
        let mut total = 1;
        for child in t.children_of(n(0)) {
            let sub = t.subtree_of(child);
            assert!(sub.contains(child));
            total += sub.count();
            let mut overlap = sub.clone();
            overlap.difference_with(&union);
            assert_eq!(overlap.count(), sub.count(), "subtrees must not overlap");
            union.union_with(&sub);
        }
        assert_eq!(total, 256);
        assert_eq!(union, NodeSet::full(256));
    }

    #[test]
    fn live_parent_skips_dead_ancestors() {
        let t = TreeTopology::new(n(0), 64, 2);
        // Rank chain of node 7 (rank 7): 7 → 3 → 1 → 0.
        assert_eq!(t.live_parent_of(n(7), &NodeSet::EMPTY), Some(n(3)));
        let mut dead = NodeSet::EMPTY;
        dead.insert(n(3));
        assert_eq!(t.live_parent_of(n(7), &dead), Some(n(1)));
        dead.insert(n(1));
        assert_eq!(t.live_parent_of(n(7), &dead), Some(n(0)));
        // Everything up to the owner dead: no live parent (NodeDown path).
        dead.insert(n(0));
        assert_eq!(t.live_parent_of(n(7), &dead), None);
        // The owner has no parent even when fully alive.
        assert_eq!(t.live_parent_of(n(0), &NodeSet::EMPTY), None);
    }

    #[test]
    fn tree_state_merges_reports_idempotently() {
        let topo = TreeTopology::new(n(0), 16, 4);
        let mut s = BarrierState::new(topo, n(1));
        let report = NodeSet::from_nodes([n(5), n(6)]);
        assert!(s.receive_report(n(5), 1, &report));
        assert_eq!(s.arrived.count(), 2);
        assert_eq!(s.children.len(), 1);
        // A crash-recovery re-send of the same report changes nothing.
        assert!(s.receive_report(n(5), 1, &report));
        assert_eq!(s.arrived.count(), 2);
        assert_eq!(s.children.len(), 1);
        // A grown re-send merges into the same child entry.
        assert!(s.receive_report(n(5), 1, &NodeSet::from_nodes([n(5), n(6), n(7)])));
        assert_eq!(s.arrived.count(), 3);
        assert_eq!(s.children.len(), 1);
        assert_eq!(s.children[0].1.count(), 3);
        let children = s.receive_release(1, &NodeSet::EMPTY).unwrap();
        assert_eq!(children.len(), 1);
        assert!(s.arrived.is_empty());
        assert!(s.children.is_empty());
        assert_eq!(s.completed, 1);
    }

    #[test]
    fn an_interior_node_re_reports_past_a_dead_parent() {
        // 16 nodes, k = 4: node 5 (rank 5) reports to node 1 (rank 1).
        let topo = TreeTopology::new(n(0), 16, 4);
        assert!(!topo.is_single_level());
        let mut s = BarrierState::new(topo, n(5));
        assert_eq!(s.subtree, NodeSet::from_nodes([n(5)]));
        s.arrived.insert(n(5));
        let step = s.step(n(5), &NodeSet::EMPTY);
        assert!(matches!(step, BarrierStep::Report { parent, .. } if parent == n(1)));
        // Node 1 dies, possibly with the report: re-send to the owner.
        let dead = NodeSet::from_nodes([n(1)]);
        s.note_death(n(5), n(1));
        let step = s.step(n(5), &dead);
        assert!(matches!(step, BarrierStep::Report { parent, .. } if parent == n(0)));
        // An unrelated death does not trigger another re-send.
        s.note_death(n(5), n(7));
        assert_eq!(s.step(n(5), &dead), BarrierStep::Hold);
    }

    #[test]
    fn oversized_fanouts_clamp_to_a_single_level() {
        let t = TreeTopology::new(n(0), 16, usize::MAX);
        assert!(t.is_single_level());
        assert_eq!(t.children_of(n(0)).len(), 15);
        assert_eq!(t.subtree_of(n(3)), NodeSet::from_nodes([n(3)]));
        assert_eq!(t.parent_of(n(15)), Some(n(0)));
        // A one-node cluster is a lone owner.
        let lone = TreeTopology::new(n(0), 1, 8);
        assert_eq!(lone.subtree_of(n(0)), NodeSet::from_nodes([n(0)]));
        assert!(lone.children_of(n(0)).is_empty());
    }
}
