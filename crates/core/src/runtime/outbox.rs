//! The per-destination carrier/outbox layer.
//!
//! Munin's central message-economy claim is that release consistency lets the
//! runtime merge consistency traffic into far fewer messages than a
//! sequentially-consistent DSM. The outbox is where that merging lives:
//!
//! * **Cross-release coalescing** — a `Flush()`-hint flush whose objects are
//!   owned locally buffers its encoded updates here instead of sending them;
//!   the next transmission to the same destination (a release flush, a reply,
//!   a grant) carries them along, and consecutive hint flushes merge into one
//!   message per destination. The window is closed by an intervening acquire
//!   (see `NodeRuntime::close_coalescing_window`).
//! * **Piggybacking** — pending items for a destination are attached to any
//!   protocol message already headed there (lock grants, barrier releases,
//!   copyset replies, update acks), framed by [`crate::msg::DsmMsg::Carrier`].
//! * **Barrier relay** — at a barrier, each tree node stashes the update
//!   bundles that rode in on `BarrierArrive` reports (or were flushed
//!   locally) and re-attaches each to the `BarrierRelease` headed towards
//!   its destination, so a release flush costs no standalone update or ack
//!   messages at all.
//!
//! The outbox is a leaf lock: it is never held while the directory, DUQ, or
//! sync locks are taken. Only *owner-flushed* fan-out updates are ever
//! buffered or relayed (the flusher serves every fetch of those objects from
//! live memory itself), which is what makes delayed delivery safe — see
//! `DESIGN.md`, "Carrier layer", for the full argument.

use std::collections::BTreeMap;

use munin_sim::NodeId;

use crate::msg::{CarrierUpdate, UpdateItem};
use crate::sync::BarrierId;

/// The per-node outbox.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Coalesced (cross-release buffered) update items per destination.
    /// Only owner-flushed fan-out items are ever buffered.
    pending: BTreeMap<NodeId, Vec<UpdateItem>>,
    /// Relay stash at a barrier owner: bundles that rode in on arrive
    /// carriers, keyed by barrier and final destination so overlapping
    /// barrier episodes can never cross-contaminate.
    relay: BTreeMap<(BarrierId, NodeId), Vec<CarrierUpdate>>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers coalesced items for `dest`, appending after anything already
    /// pending (older changes must be applied first; diffs carry absolute
    /// word values, so in-order application is exact).
    pub fn buffer(&mut self, dest: NodeId, items: Vec<UpdateItem>) {
        self.pending.entry(dest).or_default().extend(items);
    }

    /// Takes everything pending for one destination (attach-to-carrier and
    /// per-destination transmission paths).
    pub fn take_pending(&mut self, dest: NodeId) -> Vec<UpdateItem> {
        self.pending.remove(&dest).unwrap_or_default()
    }

    /// Drains the whole pending map (release flushes and window closes).
    pub fn drain_pending(&mut self) -> BTreeMap<NodeId, Vec<UpdateItem>> {
        std::mem::take(&mut self.pending)
    }

    /// Whether any coalesced items are pending (tests).
    #[cfg(test)]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether any coalesced item targets one of the listed objects (the
    /// `Invalidate`/`ChangeAnnotation` hints flush only when the objects
    /// they touch actually have buffered changes).
    pub fn has_pending_object(&self, objects: &[crate::object::ObjectId]) -> bool {
        self.pending
            .values()
            .flatten()
            .any(|i| objects.contains(&i.object))
    }

    /// Number of destinations with pending coalesced items (tests).
    #[cfg(test)]
    pub fn pending_destinations(&self) -> usize {
        self.pending.len()
    }

    /// Drops every buffered item for `object` headed to `dest`. Called when
    /// this node serves `dest` a fetch of `object`: the served bytes are the
    /// live memory, which already contains everything the buffered diffs
    /// would deliver — and delivering them later would *regress* the fresh
    /// copy if the object was written again after the buffering.
    pub fn drop_pending_object(&mut self, dest: NodeId, object: crate::object::ObjectId) {
        if let Some(items) = self.pending.get_mut(&dest) {
            items.retain(|i| i.object != object);
            if items.is_empty() {
                self.pending.remove(&dest);
            }
        }
    }

    /// Stashes a relayed bundle at this tree node until it moves on with a
    /// report or a release.
    pub fn stash_relay(&mut self, barrier: BarrierId, dest: NodeId, bundle: CarrierUpdate) {
        self.relay.entry((barrier, dest)).or_default().push(bundle);
    }

    /// Takes the relayed bundles to attach to the release headed to `dest`.
    pub fn take_relay(&mut self, barrier: BarrierId, dest: NodeId) -> Vec<CarrierUpdate> {
        self.relay.remove(&(barrier, dest)).unwrap_or_default()
    }

    /// Removes and returns every stashed bundle for `barrier` whose
    /// destination is *not* in `inside`. A combining-tree interior node
    /// calls this when forwarding its upward report: bundles leaving its
    /// static subtree ride the combine; bundles staying inside wait for the
    /// downward release.
    pub fn take_relay_outside(
        &mut self,
        barrier: BarrierId,
        inside: &crate::nodeset::NodeSet,
    ) -> Vec<(NodeId, Vec<CarrierUpdate>)> {
        self.take_relay_matching(barrier, |dest| !inside.contains(dest))
    }

    /// Removes and returns every stashed bundle for `barrier` whose
    /// destination is in `covered`, excluding `except` (whose bundles
    /// attach directly to its own release as carrier updates). The
    /// downward-release partition of the tree path.
    pub fn take_relay_within(
        &mut self,
        barrier: BarrierId,
        covered: &crate::nodeset::NodeSet,
        except: NodeId,
    ) -> Vec<(NodeId, Vec<CarrierUpdate>)> {
        self.take_relay_matching(barrier, |dest| dest != except && covered.contains(dest))
    }

    fn take_relay_matching(
        &mut self,
        barrier: BarrierId,
        pred: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, Vec<CarrierUpdate>)> {
        let keys: Vec<(BarrierId, NodeId)> = self
            .relay
            .keys()
            .filter(|(b, dest)| *b == barrier && pred(*dest))
            .copied()
            .collect();
        keys.into_iter()
            .map(|k| (k.1, self.relay.remove(&k).unwrap_or_default()))
            .collect()
    }

    /// Number of stashed relay bundles (tests).
    #[cfg(test)]
    pub fn relay_len(&self) -> usize {
        self.relay.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::UpdatePayload;
    use crate::object::ObjectId;

    fn item(o: u32, byte: u8) -> UpdateItem {
        UpdateItem {
            object: ObjectId::new(o),
            payload: UpdatePayload::Full(vec![byte; 4]),
        }
    }

    #[test]
    fn buffered_items_merge_in_order_per_destination() {
        let mut ob = Outbox::new();
        let d = NodeId::new(1);
        ob.buffer(d, vec![item(0, 1)]);
        ob.buffer(d, vec![item(0, 2), item(3, 9)]);
        ob.buffer(NodeId::new(2), vec![item(1, 7)]);
        assert!(ob.has_pending());
        assert_eq!(ob.pending_destinations(), 2);
        let taken = ob.take_pending(d);
        assert_eq!(taken.len(), 3);
        // Older changes first: a later full image for the same object must
        // come after the earlier one so in-order application lands on the
        // newest state.
        assert_eq!(taken[0], item(0, 1));
        assert_eq!(taken[1], item(0, 2));
        assert_eq!(ob.pending_destinations(), 1);
        let drained = ob.drain_pending();
        assert_eq!(drained.len(), 1);
        assert!(!ob.has_pending());
    }

    /// Serving a fetch drops the served object's buffered items for the
    /// fetcher (they are subsumed by the live bytes), leaving other objects
    /// and destinations untouched.
    #[test]
    fn serving_a_fetch_drops_subsumed_pending_items() {
        let mut ob = Outbox::new();
        let d = NodeId::new(1);
        ob.buffer(d, vec![item(0, 1), item(3, 9), item(0, 2)]);
        ob.buffer(NodeId::new(2), vec![item(0, 7)]);
        ob.drop_pending_object(d, ObjectId::new(0));
        let left = ob.take_pending(d);
        assert_eq!(left, vec![item(3, 9)]);
        // Another destination's items for the same object are unaffected.
        assert_eq!(ob.take_pending(NodeId::new(2)), vec![item(0, 7)]);
        // Dropping the last item removes the destination entirely.
        ob.buffer(d, vec![item(5, 1)]);
        ob.drop_pending_object(d, ObjectId::new(5));
        assert!(!ob.has_pending());
    }

    #[test]
    fn relay_stash_is_keyed_by_barrier_and_destination() {
        let mut ob = Outbox::new();
        let bundle = |from: usize| CarrierUpdate {
            from: NodeId::new(from),
            seq: 0,
            items: vec![item(0, from as u8)],
            sync_install: false,
        };
        ob.stash_relay(BarrierId(0), NodeId::new(1), bundle(2));
        ob.stash_relay(BarrierId(0), NodeId::new(1), bundle(3));
        ob.stash_relay(BarrierId(1), NodeId::new(1), bundle(4));
        assert_eq!(ob.relay_len(), 3);
        let got = ob.take_relay(BarrierId(0), NodeId::new(1));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].from, NodeId::new(2));
        // The other barrier's stash is untouched.
        assert_eq!(ob.relay_len(), 1);
        assert!(ob.take_relay(BarrierId(0), NodeId::new(1)).is_empty());
    }

    /// The tree-path partition: `take_relay_outside` extracts exactly the
    /// bundles leaving a subtree, `take_relay_within` exactly the covered
    /// remainder minus the directly-released child, and neither touches the
    /// other barrier's stash.
    #[test]
    fn relay_partitions_split_a_stash_by_destination_set() {
        use crate::nodeset::NodeSet;
        let mut ob = Outbox::new();
        let bundle = |from: usize| CarrierUpdate {
            from: NodeId::new(from),
            seq: 0,
            items: vec![item(0, from as u8)],
            sync_install: false,
        };
        for dest in [1, 2, 5, 6] {
            ob.stash_relay(BarrierId(0), NodeId::new(dest), bundle(0));
        }
        ob.stash_relay(BarrierId(1), NodeId::new(5), bundle(0));
        let subtree = NodeSet::from_nodes([0, 1, 2].map(NodeId::new));
        let out = ob.take_relay_outside(BarrierId(0), &subtree);
        assert_eq!(
            out.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![NodeId::new(5), NodeId::new(6)]
        );
        // Inside bundles are still stashed; release to child 1 covering
        // {1, 2} re-relays only node 2's bundle.
        let covered = NodeSet::from_nodes([1, 2].map(NodeId::new));
        let within = ob.take_relay_within(BarrierId(0), &covered, NodeId::new(1));
        assert_eq!(
            within.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![NodeId::new(2)]
        );
        // Child 1's own bundle attaches via take_relay, and barrier 1's
        // stash never moved.
        assert_eq!(ob.take_relay(BarrierId(0), NodeId::new(1)).len(), 1);
        assert_eq!(ob.relay_len(), 1);
    }
}
