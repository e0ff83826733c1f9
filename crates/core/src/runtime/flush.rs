//! Flushing the delayed update queue at a release.
//!
//! "When a thread releases a lock or reaches a barrier, the modifications to
//! the objects enqueued on the DUQ are propagated to their remote copies."
//! (Section 3.3.) The flush proceeds in three steps:
//!
//! 1. determine the copyset of every enqueued object (either the prototype's
//!    broadcast query or the improved owner-collected algorithm),
//! 2. encode the changes — a run-length encoded diff against the twin when
//!    one exists, the full object image otherwise — and
//! 3. send the updates (grouped into one message per destination node) and
//!    wait for acknowledgements, so that all writes performed before the
//!    release are performed with respect to every other processor before the
//!    release completes.
//!
//! `result` objects are not sent to their copyset: their changes are flushed
//! only to the owner and the local copy is invalidated (the `Fl` parameter).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use munin_sim::NodeId;

use crate::config::CopysetStrategy;
use crate::copyset::CopySet;
use crate::directory::AccessRights;
use crate::duq::DuqEntry;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, UpdateItem, UpdatePayload};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::stats::{add, bump};

use super::{NodeRuntime, WaitOp};

/// Routing decision for one flushed object: the destinations its changes go
/// to, whether they fan out to a copyset (`true`) or flush to the owner
/// (`false`, `result` objects), and whether this node owns the object (which
/// is what makes deferred delivery through the carrier layer safe — the
/// owner serves every fetch from live memory itself). Produced by
/// `NodeRuntime::flush_route`.
pub(crate) struct FlushRoute {
    pub(crate) fans_out: bool,
    pub(crate) owned: bool,
    /// `Some(owner)` when the bundle takes the owner-cooperative path: the
    /// whole bundle ships to the object's (probable) owner as a
    /// `RelayFanout`, which installs it and re-fans to the members of its
    /// authoritative copyset. Set for non-owned fan-out entries under
    /// piggybacking whose copyset is not fixed; such entries skip copyset
    /// determination entirely and ignore `destinations`.
    pub(crate) coop_owner: Option<NodeId>,
    /// Fan-out destination set (already excludes this node). A bitmap, not a
    /// materialized list: flush paths iterate it in place.
    pub(crate) destinations: NodeSet,
}

/// How a flush dispatches its updates through the carrier/outbox layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushMode {
    /// Every update goes as its own acknowledged message — the legacy path,
    /// used at lock releases without a waiting grantee, for the
    /// `Invalidate`/`ChangeAnnotation` hints, and whenever `MUNIN_PIGGYBACK`
    /// is off.
    Immediate,
    /// `Flush()`-hint flush with piggybacking enabled: owner-flushed fan-out
    /// items are buffered in the outbox and merged into a later
    /// transmission; everything else is sent immediately.
    Coalesce,
    /// Release at a barrier owned by `owner`: owner-flushed fan-out items
    /// (and `result` flushes homed at the owner) are returned to the caller
    /// to ride the barrier's tree traffic — up on `BarrierArrive` reports,
    /// down on the matching `BarrierRelease`s.
    BarrierRelay {
        /// The barrier owner (the tree root).
        owner: NodeId,
        /// The flusher's live tree parent (`None` at the owner): the one
        /// destination a relayed bundle reaches in a single wire transit.
        parent: Option<NodeId>,
    },
    /// Lock release with a known next holder: owner-flushed fan-out items
    /// destined for the grantee ride the `LockGrant` carrier instead of a
    /// standalone update+ack round.
    LockRelay {
        /// The waiter the lock will be handed to.
        grantee: NodeId,
    },
}

/// Where one (item, destination) pair goes under a given flush mode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    Immediate,
    Relay,
    Buffer,
}

/// A flush's per-destination items, by dispatch.
#[derive(Default)]
struct Queued {
    immediate: BTreeMap<NodeId, Vec<UpdateItem>>,
    relay: BTreeMap<NodeId, Vec<UpdateItem>>,
    buffered: BTreeMap<NodeId, Vec<UpdateItem>>,
}

impl Queued {
    fn push(&mut self, d: Dispatch, dest: NodeId, item: UpdateItem) {
        let map = match d {
            Dispatch::Immediate => &mut self.immediate,
            Dispatch::Relay => &mut self.relay,
            Dispatch::Buffer => &mut self.buffered,
        };
        map.entry(dest).or_default().push(item);
    }
}

/// The static dispatch class of one (item, destination) pair under `mode`,
/// before the adaptive relay bypass. Pure, so the send-scheduling pre-pass
/// and its count drain agree with each other.
fn classify(mode: FlushMode, route: &FlushRoute, dest: NodeId) -> Dispatch {
    debug_assert!(
        route.coop_owner.is_none(),
        "owner-cooperative routes are dispatched whole, never per-destination"
    );
    if !route.fans_out {
        // `result` flushes go to the fixed owner; they can ride a barrier
        // arrive that is already headed there (the owner installs the
        // bundle before counting the arrival, which is at least as early
        // as the legacy apply-then-ack).
        match mode {
            FlushMode::BarrierRelay { owner, .. } if dest == owner => Dispatch::Relay,
            _ => Dispatch::Immediate,
        }
    } else if !route.owned {
        // Non-owned fan-out updates outside the cooperative path (fixed
        // copysets, piggybacking off) keep the acknowledged path: the
        // owner's ack carries its recorded copyset, which the heal logic
        // needs (see `AckRound::finish`).
        Dispatch::Immediate
    } else {
        match mode {
            FlushMode::Immediate => Dispatch::Immediate,
            FlushMode::Coalesce => Dispatch::Buffer,
            FlushMode::BarrierRelay { .. } => Dispatch::Relay,
            FlushMode::LockRelay { grantee } if dest == grantee => Dispatch::Relay,
            FlushMode::LockRelay { .. } => Dispatch::Immediate,
        }
    }
}

/// The route of a coalesced outbox item: owner-flushed fan-out, since only
/// those are ever buffered.
const OWNER_FANOUT: FlushRoute = FlushRoute {
    fans_out: true,
    owned: true,
    coop_owner: None,
    destinations: NodeSet::EMPTY,
};

/// Replaces a route's destinations (used by the encode paths that resolve to
/// "nothing to send" after applying their state transitions).
fn route_with(route: FlushRoute, destinations: NodeSet) -> FlushRoute {
    FlushRoute {
        destinations,
        ..route
    }
}

/// One acknowledged-update round — the conservative release consistency of
/// a flush: updates are performed at the release. Shared by the DUQ flush
/// and the coalescing-window close: it sends, counts acks, writes off dead
/// peers, heals members an owner reports missed, and falls back to the
/// degraded broadcast when a cooperative owner dies or bounces a bundle.
struct AckRound {
    op: WaitOp,
    expected: usize,
    /// Outstanding acks per destination: when a destination is confirmed
    /// dead mid-round, its share of `expected` is written off.
    outstanding: BTreeMap<NodeId, usize>,
    /// Fan-out payloads are retained (cheap: the buffers are `Arc`-shared)
    /// until the round completes, so updates can be re-sent to copyset
    /// members the owner reports as missed.
    fanout: HashMap<ObjectId, (UpdatePayload, NodeSet)>,
    /// Outstanding owner-cooperative fan-out acks, with the bundle retained
    /// so a bounced item or a dead owner can fall back to the degraded
    /// broadcast. The round must not end while any entry remains: the
    /// fan-out ack names the re-fan destinations whose own acks this release
    /// still has to count.
    coop: BTreeMap<NodeId, Vec<UpdateItem>>,
}

impl AckRound {
    fn new(op: WaitOp) -> Self {
        AckRound {
            op,
            expected: 0,
            outstanding: BTreeMap::new(),
            fanout: HashMap::new(),
            coop: BTreeMap::new(),
        }
    }

    fn expect(&mut self, dest: NodeId) {
        self.expected += 1;
        *self.outstanding.entry(dest).or_default() += 1;
    }

    /// Sends `items` to `dest` as one acknowledged `Update`.
    fn send(&mut self, rt: &Arc<NodeRuntime>, dest: NodeId, items: Vec<UpdateItem>) -> Result<()> {
        if dest != rt.node && rt.is_peer_dead(dest) {
            // Confirmed dead after the route was computed: recovery has
            // already pruned it from the copysets; nothing to send.
            return Ok(());
        }
        crate::runtime::proto_trace!(
            rt,
            "update -> {dest:?}: {:?}",
            items.iter().map(|i| i.object).collect::<Vec<_>>()
        );
        rt.send(dest, rt.stream_bundle(dest, items).into_update(true))?;
        self.expect(dest);
        Ok(())
    }

    /// Owner-cooperative fan-out: ships a non-owned bundle whole to its
    /// owner, which installs it and re-fans to the members of its
    /// authoritative copyset — no determination round, no heal round. The
    /// origin counts one `RelayFanoutAck` per bundle plus one `UpdateAck`
    /// per re-fan destination the owner reports.
    fn send_coop(
        &mut self,
        rt: &Arc<NodeRuntime>,
        owner: NodeId,
        items: Vec<UpdateItem>,
    ) -> Result<()> {
        debug_assert_ne!(owner, rt.node, "coop routes never point home");
        if rt.is_peer_dead(owner) {
            return self.broadcast_degraded(rt, items);
        }
        crate::runtime::proto_trace!(
            rt,
            "coop relay -> {owner:?}: {:?}",
            items.iter().map(|i| i.object).collect::<Vec<_>>()
        );
        let bundle = rt.stream_bundle(owner, items.clone());
        rt.send(
            owner,
            DsmMsg::RelayFanout {
                items: bundle.items,
                origin: rt.node,
                seq: bundle.seq,
            },
        )?;
        self.expect(owner);
        self.coop.insert(owner, items);
        Ok(())
    }

    /// Degraded fallback when a cooperative owner is dead or bounced the
    /// bundle: every live peer gets it as an ordinary acknowledged update.
    /// Peers without a copy discard it on apply — the cost of not running a
    /// determination round inside the ack loop, whose wait may only observe
    /// update acks.
    fn broadcast_degraded(&mut self, rt: &Arc<NodeRuntime>, items: Vec<UpdateItem>) -> Result<()> {
        for peer in rt.live_peers().iter() {
            self.send(rt, peer, items.clone())?;
        }
        Ok(())
    }

    /// Waits out the round. Owners piggyback their authoritative recorded
    /// copysets on the ack; any member they know of that this flush did not
    /// reach — a replica whose fetch was served *after* our copyset query
    /// was answered — gets the update re-sent now, and the release completes
    /// only once those re-sends are acknowledged too. Re-sends travel on
    /// this node's own lanes, so they can never overtake (or be overtaken
    /// by) this node's later flushes.
    fn finish(mut self, rt: &Arc<NodeRuntime>) -> Result<()> {
        let mut acks = 0usize;
        let mut handled = NodeSet::EMPTY;
        while acks < self.expected || !self.coop.is_empty() {
            let (env, reply) = match rt.wait_reply_or_dead(self.op, &mut handled) {
                Ok(reply) => reply,
                Err(MuninError::PeerDied(n)) => {
                    // A dead destination's acks will never arrive: write
                    // off everything still outstanding towards it. Its
                    // copies are unreachable, which is the post-crash
                    // equivalent of "update performed".
                    self.expected -= self.outstanding.remove(&n).unwrap_or(0);
                    if let Some(items) = self.coop.remove(&n) {
                        // A cooperative owner died before acking. It may or
                        // may not have re-fanned already; the degraded
                        // broadcast re-sends on this node's own lanes, so
                        // every receiver's stream check drops whichever copy
                        // arrives second. (Re-fan acks already in flight
                        // from before the crash are absorbed by this loop's
                        // count — death confirmation takes a full detection
                        // window, far longer than any delivery.)
                        self.broadcast_degraded(rt, items)?;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            // Only a DUQ flush ships cooperative bundles, so only its round
            // takes fan-out acks; the window close coalesces owner-flushed
            // items alone, and a fan-out ack there is a protocol violation,
            // never one of its acks.
            let coop_acks = self.op == WaitOp::UpdateAcks;
            if matches!(reply, DsmMsg::UpdateAck { .. })
                || (coop_acks && matches!(reply, DsmMsg::RelayFanoutAck { .. }))
            {
                acks += 1;
                if let Some(o) = self.outstanding.get_mut(&env.src) {
                    *o = o.saturating_sub(1);
                }
            }
            match reply {
                DsmMsg::RelayFanoutAck { refanned, rejected } if coop_acks => {
                    let Some(items) = self.coop.remove(&env.src) else {
                        // Duplicate ack for an already-settled bundle (the
                        // stale-sequence path at the owner); counted like a
                        // duplicate update ack.
                        continue;
                    };
                    // Each re-fan destination acknowledges this node
                    // directly; their acks join this release's count.
                    for dest in refanned {
                        self.expect(dest);
                    }
                    if rejected.is_empty() {
                        continue;
                    }
                    // The ownership hint was stale: point it back at the home
                    // node (first link of the probable-owner chain) and fall
                    // back to the degraded broadcast for the bounced objects.
                    let rejected: BTreeSet<ObjectId> = rejected.into_iter().collect();
                    {
                        let mut dir = rt.dir.lock();
                        for o in &rejected {
                            let e = dir.entry_mut(*o);
                            if !e.state.owned {
                                e.probable_owner = e.home;
                            }
                        }
                    }
                    let bounced: Vec<UpdateItem> = items
                        .into_iter()
                        .filter(|i| rejected.contains(&i.object))
                        .collect();
                    if !bounced.is_empty() {
                        self.broadcast_degraded(rt, bounced)?;
                    }
                }
                DsmMsg::UpdateAck { owned_copysets, .. } => {
                    // Batch the heals per missed member, preserving the
                    // normal flush path's one-Update-per-destination shape:
                    // an owner reporting k objects that all missed the same
                    // late-fetching member costs one message, not k.
                    let mut heal: BTreeMap<NodeId, Vec<UpdateItem>> = BTreeMap::new();
                    for (object, owner_set) in owned_copysets {
                        let Some((payload, sent)) = self.fanout.get_mut(&object) else {
                            continue;
                        };
                        let missed: Vec<NodeId> = owner_set
                            .iter(rt.nodes, Some(rt.node))
                            .filter(|m| !sent.contains(*m))
                            .collect();
                        if missed.is_empty() {
                            continue;
                        }
                        // Remember the healed members for future flushes of
                        // this object (mirrors the owner-side serve-record
                        // merge).
                        {
                            let mut dir = rt.dir.lock();
                            let e = dir.entry_mut(object);
                            e.copyset = e.copyset.union(&owner_set);
                        }
                        for m in missed {
                            crate::runtime::proto_trace!(
                                rt,
                                "heal {object:?} -> {m:?} (owner-reported member missed at determination)"
                            );
                            add(&rt.stats.updates_healed, 1);
                            sent.insert(m);
                            heal.entry(m).or_default().push(UpdateItem {
                                object,
                                payload: payload.clone(),
                            });
                        }
                    }
                    for (member, items) in heal {
                        self.send(rt, member, items)?;
                    }
                }
                other => {
                    return Err(MuninError::ProtocolViolation(match other {
                        _ if !coop_acks => "unexpected reply while closing the coalescing window",
                        DsmMsg::ObjectData { .. } => "unexpected ObjectData during flush",
                        _ => "unexpected reply while waiting for update acks",
                    }))
                }
            }
        }
        Ok(())
    }
}

impl NodeRuntime {
    /// Flushes the delayed update queue with every update as its own
    /// acknowledged message. Called by the hints that must leave no pending
    /// traffic behind, and by releases without a carrier opportunity.
    pub(crate) fn flush_duq(self: &Arc<Self>) -> Result<()> {
        self.flush_duq_mode(FlushMode::Immediate).map(|_| ())
    }

    /// Flushes the delayed update queue, dispatching updates per `mode`.
    /// Returns the per-destination bundles the caller must attach to its
    /// carrier (barrier arrive or lock grant); empty except in the relay
    /// modes.
    pub(crate) fn flush_duq_mode(
        self: &Arc<Self>,
        mode: FlushMode,
    ) -> Result<BTreeMap<NodeId, Vec<UpdateItem>>> {
        let entries = {
            let mut duq = self.duq.lock();
            duq.flush()
        };
        // Coalesced items from earlier hint flushes join this transmission
        // (they stay buffered when this flush coalesces too).
        let coalesced: BTreeMap<NodeId, Vec<UpdateItem>> = if mode == FlushMode::Coalesce {
            BTreeMap::new()
        } else {
            self.outbox.lock().drain_pending()
        };
        bump(&self.stats.duq_flushes);
        if entries.is_empty() && coalesced.is_empty() {
            return Ok(BTreeMap::new());
        }
        add(&self.stats.duq_objects_flushed, entries.len() as u64);

        // Step 1: determine copysets where needed. `result` objects go to
        // their owner and need none; stable objects whose copyset is already
        // fixed reuse it.
        let needs_determination: Vec<ObjectId> = {
            let mut dir = self.dir.lock();
            entries
                .iter()
                .map(|e| e.object)
                .filter(|o| {
                    let entry = dir.entry_mut(*o);
                    if entry.params.flushes_to_owner() || entry.state.copyset_fixed {
                        return false;
                    }
                    if !self.cfg.piggyback {
                        return true;
                    }
                    // Owner-cooperative entries (non-owned fan-out under
                    // piggybacking; see `FlushRoute::coop_owner`) skip
                    // determination: the owner re-fans from its
                    // authoritative copyset, so asking first would be a
                    // wasted round.
                    if !entry.state.owned {
                        return false;
                    }
                    // Owner-authoritative elision, the flusher-side twin of
                    // the cooperative path: when the flusher itself owns an
                    // update-based object, the replicas recorded while
                    // serving fetches *are* the copyset — every remote copy
                    // of such an object originates from a fetch this node
                    // served, and update-based annotations never drop copies
                    // silently (no invalidations). The broadcast round could
                    // only re-discover that same set (its result is merged
                    // with the recorded replicas anyway), so under
                    // piggybacking it is elided. A fetch racing this flush
                    // stays safe for the same reason as in the merge path:
                    // the owner serves fetches from its own live copy, which
                    // already contains the changes being flushed.
                    // Invalidate-based annotations keep the query round —
                    // invalidations and ownership transfers clear recorded
                    // copysets, so "recorded" is not authoritative for them.
                    if !entry.params.uses_invalidate() {
                        crate::runtime::proto_trace!(
                            self,
                            "elide determination of {o:?}: owner copyset is authoritative"
                        );
                        if entry.params.is_stable() {
                            entry.state.copyset_fixed = true;
                        }
                        return false;
                    }
                    true
                })
                .collect()
        };
        if !needs_determination.is_empty() {
            let determined = match self.cfg.copyset_strategy {
                CopysetStrategy::Broadcast => {
                    self.determine_copysets_broadcast(&needs_determination)?
                }
                CopysetStrategy::OwnerCollected => {
                    self.determine_copysets_owner(&needs_determination)?
                }
            };
            let mut dir = self.dir.lock();
            for (object, copyset) in determined {
                let entry = dir.entry_mut(object);
                // For objects this node owns, *merge* the determined set with
                // the replicas recorded while serving fetches: a fetch served
                // after the query replies were collected (its requester's
                // reply raced the in-flight object data) must not be
                // forgotten, or its holder would silently stop receiving
                // updates — the seed-level SOR divergence. The merge is a
                // deliberate over-approximation: a member that later dropped
                // its copy (e.g. the Invalidate hint) cannot be pruned here,
                // because "doesn't have a copy right now" is indistinguishable
                // from "fetch in flight". Stale members cost one discarded
                // update per flush and are reset by ownership transfers and
                // invalidations, which clear the copyset.
                if entry.state.owned {
                    entry.copyset = entry.copyset.union(&copyset);
                } else {
                    entry.copyset = copyset;
                }
                crate::runtime::proto_trace!(
                    self,
                    "copyset of {object:?} determined: {:?}",
                    entry.copyset.members(self.nodes, None)
                );
                if entry.params.is_stable() {
                    entry.state.copyset_fixed = true;
                }
            }
        }

        // Step 2+3 overlapped: encode changes and transmit as the
        // per-destination messages become complete, instead of materializing
        // the full destination map first. A read-only pre-pass mirrors
        // `encode_entry`'s routing to count how many entries can still
        // contribute to each destination; once a destination's count drains
        // to zero its `Update` goes on the wire while later entries are still
        // being encoded. Each entry is encoded exactly once; the flat diff
        // buffer is shared (via `Arc`) between the per-destination clones of
        // the payload.
        let routes: Vec<FlushRoute> = {
            let dir = self.dir.lock();
            entries
                .iter()
                .map(|e| self.flush_route(dir.entry(e.object)))
                .collect()
        };
        let mut remaining: BTreeMap<NodeId, usize> = BTreeMap::new();
        for route in &routes {
            if route.coop_owner.is_some() {
                continue;
            }
            for dest in route.destinations.iter() {
                if classify(mode, route, dest) == Dispatch::Immediate {
                    *remaining.entry(dest).or_default() += 1;
                }
            }
        }
        // Immediate per-destination messages start with the coalesced items
        // of earlier hint flushes (older changes first); in the relay modes
        // the coalesced items ride the carrier like everything else
        // owner-flushed.
        let mut queued = Queued::default();
        for (dest, items) in coalesced {
            for item in items {
                let d = self.flush_dispatch(mode, &OWNER_FANOUT, dest, item.payload.model_bytes());
                queued.push(d, dest, item);
            }
        }
        // Owner-cooperative bundles, keyed by the owner they ship to.
        let mut coop: BTreeMap<NodeId, Vec<UpdateItem>> = BTreeMap::new();
        let mut round = AckRound::new(WaitOp::UpdateAcks);
        for (entry, pre_route) in entries.into_iter().zip(&routes) {
            let object = entry.object;
            let (payload, route) = self.encode_entry(entry)?;
            if let Some(payload) = &payload {
                let item = || UpdateItem {
                    object,
                    payload: payload.clone(),
                };
                if let Some(owner) = route.coop_owner {
                    coop.entry(owner).or_default().push(item());
                } else {
                    let mut any_immediate = false;
                    for dest in route.destinations.iter() {
                        let d = self.flush_dispatch(mode, &route, dest, payload.model_bytes());
                        any_immediate |= d == Dispatch::Immediate;
                        queued.push(d, dest, item());
                    }
                    if route.fans_out && any_immediate {
                        round
                            .fanout
                            .insert(object, (payload.clone(), route.destinations.clone()));
                    }
                }
            }
            // Drain the pre-pass counts with the *pre-pass* route, so a
            // directory change between the two reads cannot strand a count.
            if pre_route.coop_owner.is_some() {
                continue;
            }
            for dest in pre_route.destinations.iter() {
                if classify(mode, pre_route, dest) != Dispatch::Immediate {
                    continue;
                }
                let rem = remaining
                    .get_mut(&dest)
                    .expect("route destinations are all counted");
                *rem -= 1;
                if *rem == 0 {
                    if let Some(items) = queued.immediate.remove(&dest) {
                        round.send(self, dest, items)?;
                    }
                }
            }
        }
        let Queued {
            immediate,
            relay,
            buffered,
        } = queued;
        // Catch-all: a destination `encode_entry` routed to but the pre-pass
        // did not (the directory changed between the two reads — e.g. the
        // service thread recorded a new replica while we flushed — or the
        // relay bypass sent a payload direct) still gets its update here.
        for (dest, items) in immediate {
            if !items.is_empty() {
                round.send(self, dest, items)?;
            }
        }
        for (owner, items) in coop {
            round.send_coop(self, owner, items)?;
        }
        // Coalesced items go back to the outbox; they are delivered by the
        // next transmission to their destination or at the window close.
        if !buffered.is_empty() {
            bump(&self.stats.flushes_coalesced);
            let mut outbox = self.outbox.lock();
            for (dest, items) in buffered {
                crate::runtime::proto_trace!(
                    self,
                    "coalesce -> {dest:?}: {:?}",
                    items.iter().map(|i| i.object).collect::<Vec<_>>()
                );
                outbox.buffer(dest, items);
            }
        }
        // Relayed bundles are returned to the caller, which counts,
        // sequences, and attaches them (the barrier arrive / lock grant
        // send sites).
        if crate::runtime::proto_trace_enabled() {
            for (dest, items) in &relay {
                crate::runtime::proto_trace!(
                    self,
                    "relay -> {dest:?}: {:?}",
                    items.iter().map(|i| i.object).collect::<Vec<_>>()
                );
            }
        }
        round.finish(self)?;
        Ok(relay)
    }

    /// Transmits any coalesced outbox items as acknowledged updates. Called
    /// when the coalescing window closes: at an acquire (the issue's
    /// "no acquire intervened" rule) and when a worker finishes, so no
    /// buffered change can outlive the run. Runs on the user thread (it
    /// blocks for the acks). Only owner-flushed items are ever coalesced, so
    /// the acks carry no copysets this node would need to heal against.
    pub(crate) fn close_coalescing_window(self: &Arc<Self>) -> Result<()> {
        let pending = self.outbox.lock().drain_pending();
        let mut round = AckRound::new(WaitOp::WindowAcks);
        for (dest, items) in pending {
            round.send(self, dest, items)?;
        }
        round.finish(self)
    }

    /// Decides where one flushed (item, destination) pair goes under `mode`:
    /// the one dispatch decision of a flush, for DUQ entries and coalesced
    /// outbox items (`OWNER_FANOUT`) alike. `classify`, then the adaptive
    /// relay bypass for a payload of `bytes`, which charges its stats.
    fn flush_dispatch(
        &self,
        mode: FlushMode,
        route: &FlushRoute,
        dest: NodeId,
        bytes: u64,
    ) -> Dispatch {
        let class = classify(mode, route, dest);
        // Adaptive relay: a barrier-relayed payload bound for anyone but the
        // flusher's tree parent transits the wire at least twice (up to a
        // common ancestor, then down to the destination). At or above the
        // configured size threshold the byte multiplication outweighs the
        // saved message, so the payload goes direct as an ordinary
        // sequenced update instead. Parent-bound bundles (the owner, in a
        // single-level tree) and lock-relay bundles ride single-transit and
        // are never bypassed.
        let FlushMode::BarrierRelay { parent, .. } = mode else {
            return class;
        };
        if class != Dispatch::Relay || Some(dest) == parent || bytes < self.cfg.relay_max_bytes {
            return class;
        }
        add(&self.stats.relay_bypassed_bytes, bytes);
        self.obs.record(
            self.clock.now().as_nanos(),
            crate::obs::EventKind::RelayBypass,
            |ev| {
                ev.peer = Some(dest);
                ev.seq = Some(bytes);
            },
        );
        Dispatch::Immediate
    }

    /// Computes where one flushed object's changes go. The single source of
    /// routing truth, shared by `flush_duq`'s send-scheduling pre-pass and
    /// `encode_entry`, so the two cannot drift.
    fn flush_route(&self, e: &crate::directory::DirEntry) -> FlushRoute {
        if e.params.flushes_to_owner() {
            // `result` objects go only to their owner; nothing to send when
            // this node *is* the owner.
            FlushRoute {
                fans_out: false,
                owned: e.state.owned,
                coop_owner: None,
                destinations: if e.home == self.node {
                    NodeSet::EMPTY
                } else {
                    NodeSet::from_nodes([e.home])
                },
            }
        } else {
            let owned = e.state.owned;
            // Owner-cooperative relay: non-owned fan-out bundles ship whole
            // to the owner, which re-fans from its authoritative copyset. A
            // hint that degenerates to ourselves is repaired toward home;
            // liveness is checked at send time, not here — the failure
            // detector takes its own lock and this runs under the directory
            // lock.
            let coop_owner = if self.cfg.piggyback && !owned && !e.state.copyset_fixed {
                let hint = if e.probable_owner == self.node {
                    e.home
                } else {
                    e.probable_owner
                };
                (hint != self.node).then_some(hint)
            } else {
                None
            };
            FlushRoute {
                fans_out: true,
                owned,
                coop_owner,
                destinations: e.copyset.to_set(self.nodes, Some(self.node)),
            }
        }
    }

    /// Encodes one DUQ entry and decides where its changes go, applying the
    /// per-protocol state transitions (re-protection, invalidation of the
    /// local copy for `result` objects, private-page promotion for stable
    /// objects with an empty copyset).
    ///
    /// The entry is consumed: its twin buffer is returned to the DUQ's pool
    /// once the diff has been encoded. The diff is encoded exactly once into
    /// the node's reusable scratch buffer and shared via `Arc` when the
    /// caller fans it out to several destinations.
    pub(crate) fn encode_entry(
        self: &Arc<Self>,
        entry: DuqEntry,
    ) -> Result<(Option<UpdatePayload>, FlushRoute)> {
        let object = entry.object;
        let range = self.object_range(object);
        let (route, home, stable) = {
            let dir = self.dir.lock();
            let e = dir.entry(object);
            (self.flush_route(e), e.home, e.params.is_stable())
        };

        // Encode: diff against the twin when there is one (straight out of
        // segment memory, no object copy), otherwise the full object image.
        let payload = match entry.twin {
            Some(twin) => {
                let d = self.with_object_mem(object, |cur| {
                    let mut scratch = self.diff_scratch.lock();
                    scratch.encode(cur, &twin)
                });
                self.charge_sys(
                    self.cost
                        .encode((range.len() / 4) as u64, d.run_count() as u64),
                );
                self.duq.lock().recycle_twin(twin);
                if d.is_empty() {
                    None
                } else {
                    Some(UpdatePayload::Diff(d))
                }
            }
            None => Some(UpdatePayload::Full(self.object_bytes(object))),
        };

        let mut dir = self.dir.lock();
        let e = dir.entry_mut(object);
        e.state.dirty = false;

        if !route.fans_out {
            // `result` objects: send only to the owner, then invalidate the
            // local copy ("Fl" and the description of Matrix Multiply).
            if home == self.node {
                // The owner's own changes are already in place.
                return Ok((None, route_with(route, NodeSet::EMPTY)));
            }
            self.set_entry_rights(e, AccessRights::Invalid);
            e.state.owned = false;
            e.probable_owner = home;
            return Ok((payload, route));
        }

        if route.coop_owner.is_none() && route.destinations.is_empty() && stable {
            // "Any pages that have an empty Copyset and are therefore private
            // are made locally writable, their twins are deleted, and they do
            // not generate further access faults."
            self.set_entry_rights(e, AccessRights::ReadWrite);
            return Ok((None, route_with(route, NodeSet::EMPTY)));
        }
        // Write-shared / producer-consumer: keep the copy, re-write-protect so
        // the next write makes a fresh twin.
        self.set_entry_rights(e, AccessRights::Read);
        if route.coop_owner.is_some() {
            // Owner-cooperative entries ignore the (stale, never-determined)
            // local copyset — the owner decides the fan-out — so neither
            // empty-destination shortcut applies: an empty local copyset
            // proves nothing about remote copies.
            return Ok((payload, route));
        }
        if route.destinations.is_empty() {
            return Ok((None, route));
        }
        Ok((payload, route))
    }

    /// The prototype's copyset determination: broadcast the list of modified
    /// objects to every other node and collect the subsets each holds.
    fn determine_copysets_broadcast(
        self: &Arc<Self>,
        objects: &[ObjectId],
    ) -> Result<HashMap<ObjectId, CopySet>> {
        let dead = self.dead_set();
        let mut pending: Vec<NodeId> = self.live_peers().iter().collect();
        let mut result: HashMap<ObjectId, CopySet> =
            objects.iter().map(|o| (*o, CopySet::EMPTY)).collect();
        if pending.is_empty() {
            return Ok(result);
        }
        add(&self.stats.copyset_queries, 1);
        // One shared allocation for the whole broadcast: every peer's query
        // message clones the `Arc`, not the object list.
        let shared: Arc<[ObjectId]> = Arc::from(objects);
        for peer in &pending {
            add(&self.stats.copyset_query_msgs, 1);
            self.send(
                *peer,
                DsmMsg::CopysetQuery {
                    objects: Arc::clone(&shared),
                    requester: self.node,
                    recovery: false,
                },
            )?;
        }
        // A peer dying mid-round counts as an empty reply: whatever copies
        // it held are unreachable and have been pruned by recovery.
        let mut handled = dead;
        while !pending.is_empty() {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::CopysetReplies, &mut handled) {
                Ok((env, DsmMsg::CopysetReply { have })) => {
                    for o in have {
                        if let Some(cs) = result.get_mut(&o) {
                            cs.insert(env.src);
                        }
                    }
                    pending.retain(|n| *n != env.src);
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply while determining copysets",
                    ))
                }
                Err(MuninError::PeerDied(n)) => pending.retain(|p| *p != n),
                Err(e) => return Err(e),
            }
        }
        self.charge_sys(self.cost.dir_op());
        Ok(result)
    }

    /// The improved algorithm the paper sketches: the owner of each object
    /// collects copyset information while serving fetches, so the flusher
    /// asks the owner instead of broadcasting. Objects owned locally need no
    /// messages at all.
    fn determine_copysets_owner(
        self: &Arc<Self>,
        objects: &[ObjectId],
    ) -> Result<HashMap<ObjectId, CopySet>> {
        let mut result: HashMap<ObjectId, CopySet> = HashMap::new();
        let mut remote: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        {
            let dir = self.dir.lock();
            for o in objects {
                let e = dir.entry(*o);
                if e.state.owned {
                    result.insert(*o, e.copyset.clone());
                } else {
                    remote.entry(e.probable_owner).or_default().push(*o);
                }
            }
        }
        add(&self.stats.copyset_queries, 1);
        let mut pending: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        for (owner, objs) in remote {
            if owner != self.node && self.is_peer_dead(owner) {
                // The recorded owner is a corpse: no replicas reachable
                // through it. Flush nowhere; the objects are re-homed (or
                // declared lost) by the fetch-side orphan recovery.
                for o in objs {
                    result.insert(o, CopySet::EMPTY);
                }
                continue;
            }
            add(&self.stats.copyset_query_msgs, 1);
            self.send(
                owner,
                DsmMsg::OwnerCopysetQuery {
                    objects: objs.clone(),
                    requester: self.node,
                },
            )?;
            pending.insert(owner, objs);
        }
        let mut handled = self.dead_set();
        while !pending.is_empty() {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::OwnerCopysetReplies, &mut handled)
            {
                Ok((env, DsmMsg::OwnerCopysetReply { copysets })) => {
                    for (o, cs) in copysets {
                        result.insert(o, cs);
                    }
                    pending.remove(&env.src);
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply while collecting owner copysets",
                    ))
                }
                Err(MuninError::PeerDied(n)) => {
                    if let Some(objs) = pending.remove(&n) {
                        for o in objs {
                            result.insert(o, CopySet::EMPTY);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.charge_sys(self.cost.dir_op());
        Ok(result)
    }

    /// `Flush()` hint: "advises Munin to flush any buffered writes
    /// immediately rather than waiting for a release." With piggybacking
    /// enabled the owner-flushed updates are coalesced into the outbox
    /// instead: consecutive hint flushes to the same destination merge into
    /// one message, and release consistency still guarantees delivery no
    /// later than the next release.
    pub(crate) fn flush_hint(self: &Arc<Self>) -> Result<()> {
        let mode = if self.cfg.piggyback {
            FlushMode::Coalesce
        } else {
            FlushMode::Immediate
        };
        self.flush_duq_mode(mode).map(|_| ())
    }

    /// `Invalidate()` hint: deletes the local copy of every object of a
    /// variable, propagating pending changes first.
    pub(crate) fn invalidate_hint(self: &Arc<Self>, objects: &[ObjectId]) -> Result<()> {
        // Flush any of the listed objects that are sitting in the DUQ (or
        // coalesced in the outbox) so their changes are not lost, then drop
        // the local copies.
        let any_pending = {
            let duq = self.duq.lock();
            objects.iter().any(|o| duq.contains(*o))
        } || self.outbox.lock().has_pending_object(objects);
        if any_pending {
            self.flush_duq()?;
        }
        let mut dir = self.dir.lock();
        for o in objects {
            let e = dir.entry_mut(*o);
            if e.state.owned && e.home != self.node {
                // Give ownership back to the home node so later fetches can
                // still find the data there.
                e.state.owned = false;
                e.probable_owner = e.home;
            }
            self.set_entry_rights(e, AccessRights::Invalid);
            e.state.dirty = false;
        }
        Ok(())
    }

    /// `PhaseChange()` hint: "purges the accumulated sharing relationship
    /// information", so the next flush re-determines producer-consumer
    /// copysets.
    pub(crate) fn phase_change(self: &Arc<Self>) {
        // Lock order dir → duq, like every other path that holds both (the
        // invalidate handler encodes its flush under the directory lock).
        let mut dir = self.dir.lock();
        let duq = self.duq.lock();
        for idx in 0..dir.len() {
            let e = dir.entry_mut(ObjectId::new(idx as u32));
            if e.params.is_stable() {
                // Clear the "relationship is fixed" bit so the next flush
                // re-determines the copyset. The recorded copyset itself is
                // kept: at the owner it doubles as the record of served
                // fetches that the owner-collected determination relies on.
                e.state.copyset_fixed = false;
                // Pages promoted to locally-writable ("private") must be
                // write-protected again so that writes under the new sharing
                // relationships are detected and propagated.
                if e.state.rights == AccessRights::ReadWrite && !duq.contains(e.object) {
                    self.set_entry_rights(e, AccessRights::Read);
                }
            }
        }
    }

    /// `ChangeAnnotation()` hint: switches the protocol used for a variable's
    /// objects. Pending delayed updates are flushed first so the object is
    /// brought up to date under its old protocol.
    pub(crate) fn change_annotation(
        self: &Arc<Self>,
        objects: &[ObjectId],
        annotation: crate::annotation::SharingAnnotation,
    ) -> Result<()> {
        let any_pending = {
            let duq = self.duq.lock();
            objects.iter().any(|o| duq.contains(*o))
        } || self.outbox.lock().has_pending_object(objects);
        if any_pending {
            self.flush_duq()?;
        }
        let mut dir = self.dir.lock();
        for o in objects {
            let e = dir.entry_mut(*o);
            e.set_annotation(annotation);
            e.state.copyset_fixed = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SharingAnnotation;
    use crate::config::MuninConfig;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock};
    use std::collections::HashSet;

    fn single_node() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        table.declare("pc", SharingAnnotation::ProducerConsumer, 4, 8, false);
        table.declare("res", SharingAnnotation::Result, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(1));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(1, CostModel::fast_test());
        let (sender, _rx) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            1,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    fn obj(rt: &NodeRuntime, name: &str) -> ObjectId {
        rt.table().var_by_name(name).unwrap().objects[0]
    }

    #[test]
    fn flush_on_single_node_clears_duq_and_reprotects() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        rt.flush_duq().unwrap();
        assert!(rt.duq.lock().is_empty());
        // Write-shared copies are re-write-protected after a flush.
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        assert_eq!(rt.stats().snapshot().duq_flushes, 1);
        assert_eq!(rt.stats().snapshot().duq_objects_flushed, 1);
    }

    #[test]
    fn stable_object_with_empty_copyset_becomes_private() {
        let rt = single_node();
        let pc = obj(&rt, "pc");
        rt.write_fault(pc).unwrap();
        rt.flush_duq().unwrap();
        let dir = rt.dir.lock();
        let e = dir.entry(pc);
        assert!(e.state.copyset_fixed);
        assert_eq!(e.state.rights, AccessRights::ReadWrite);
        drop(dir);
        // A subsequent write does not fault, create a twin, or enqueue.
        let before = rt.stats().snapshot();
        rt.ensure_write(pc).unwrap();
        assert_eq!(rt.stats().snapshot().write_faults, before.write_faults);
        assert!(rt.duq.lock().is_empty());
    }

    #[test]
    fn result_object_at_owner_flushes_locally() {
        let rt = single_node();
        let res = obj(&rt, "res");
        rt.write_fault(res).unwrap();
        rt.install_object_bytes(res, &[1u8; 32]);
        rt.flush_duq().unwrap();
        // The owner keeps its (authoritative) copy.
        assert!(rt.dir.lock().entry(res).state.rights.allows_read());
        assert_eq!(rt.stats().snapshot().updates_sent, 0);
    }

    #[test]
    fn phase_change_clears_fixed_copysets() {
        let rt = single_node();
        let pc = obj(&rt, "pc");
        rt.write_fault(pc).unwrap();
        rt.flush_duq().unwrap();
        assert!(rt.dir.lock().entry(pc).state.copyset_fixed);
        rt.phase_change();
        assert!(!rt.dir.lock().entry(pc).state.copyset_fixed);
    }

    #[test]
    fn change_annotation_switches_protocol() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.change_annotation(&[ws], SharingAnnotation::Conventional)
            .unwrap();
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(ws).annotation, SharingAnnotation::Conventional);
        assert!(dir.entry(ws).params.uses_invalidate());
    }

    #[test]
    fn invalidate_hint_drops_local_copy() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.write_fault(ws).unwrap();
        rt.invalidate_hint(&[ws]).unwrap();
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Invalid);
        assert!(rt.duq.lock().is_empty());
    }

    #[test]
    fn empty_flush_is_cheap_and_counted() {
        let rt = single_node();
        rt.flush_duq().unwrap();
        let snap = rt.stats().snapshot();
        assert_eq!(snap.duq_flushes, 1);
        assert_eq!(snap.duq_objects_flushed, 0);
        assert_eq!(snap.updates_sent, 0);
    }

    /// Builds a runtime on node 0 of a three-node network (the peers are
    /// driven manually) so copysets with several members can be exercised.
    fn three_node_runtime() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (sender, _rx0) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    /// The flush fan-out guarantee: one DUQ entry is diff-encoded exactly
    /// once, and the per-destination payload clones share that single flat
    /// buffer via `Arc` instead of re-encoding or deep-copying.
    #[test]
    fn encode_entry_shares_one_encoding_across_destinations() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        // Take a write fault (creates the twin), modify the object, and give
        // the object a two-member copyset so the flush fans out.
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.copyset.insert(NodeId::new(2));
        }
        let entry = rt.duq.lock().flush().into_iter().next().unwrap();
        assert!(entry.twin.is_some());
        let (payload, route) = rt.encode_entry(entry).unwrap();
        let destinations = route.destinations;
        assert!(route.fans_out && route.owned);
        assert_eq!(
            destinations,
            NodeSet::from_nodes([NodeId::new(1), NodeId::new(2)])
        );
        let payload = payload.expect("modified object yields a payload");
        let UpdatePayload::Diff(ref d) = payload else {
            panic!("twin-backed entry must encode a diff, not a full image");
        };
        assert_eq!(d.changed_words(), 8);
        // Fan the payload out as flush_duq does and verify every clone
        // shares the same underlying buffer — i.e. exactly one encoding.
        let fanned: Vec<UpdatePayload> = destinations.iter().map(|_| payload.clone()).collect();
        for p in &fanned {
            let UpdatePayload::Diff(c) = p else {
                unreachable!()
            };
            assert!(
                c.shares_buffer(d),
                "per-destination clones must share one encoding"
            );
        }
        // The twin buffer went back to the pool for the next first-write.
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
    }

    /// End-to-end healing: the flusher's determination missed a member, the
    /// owner's ack reports it, and the flusher re-sends the update to the
    /// missed member before completing the release.
    #[test]
    fn flush_heals_members_reported_by_owner_ack() {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let (tx2, rx2) = net.endpoint(2, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let ws = rt.table().var_by_name("ws").unwrap().objects[0];
        // Node 0 knows only of the replica at N1; N2's copy is "invisible"
        // to its determination (as if N2 fetched after the query round).
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.state.copyset_fixed = true; // skip the query round
        }
        // Service loop for node 0 (routes acks back to the flushing thread).
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        // Peer 1 ("owner" in the reported sense) acks and reports that N2
        // also holds a copy.
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::Update { items, .. } = msg else {
            panic!("expected update at N1, got {msg:?}");
        };
        assert_eq!(items.len(), 1);
        tx1.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![(ws, CopySet::from_nodes([NodeId::new(1), NodeId::new(2)]))],
            },
        )
        .unwrap();
        // The flusher must now heal N2 with the same payload.
        let (_env, msg) = rx2.recv().unwrap();
        let DsmMsg::Update { items, .. } = msg else {
            panic!("expected healing update at N2, got {msg:?}");
        };
        assert_eq!(items[0].object, ws);
        tx2.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        flusher.join().unwrap().unwrap();
        assert_eq!(rt.stats().snapshot().updates_healed, 1);
        assert_eq!(rt.stats().snapshot().updates_sent, 2);
        // N2 is remembered for future flushes.
        assert!(rt.dir.lock().entry(ws).copyset.contains(NodeId::new(2)));
        // Shut the service loop down.
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// Cross-release coalescing: consecutive `Flush()` hints buffer their
    /// owner-flushed updates in the outbox and merge per destination; an
    /// intervening acquire closes the window and transmits the buffered
    /// items (with the normal ack round) before the acquire proceeds.
    #[test]
    fn hint_flushes_coalesce_until_an_acquire_closes_the_window() {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(2).with_piggyback(true));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(2, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            2,
            cfg,
            table,
            vec![NodeId::new(0)], // lock 0 homed here: acquires are local
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let ws = rt.table().var_by_name("ws").unwrap().objects[0];
        {
            // Pin the copyset so the flush skips the broadcast determination
            // round (no peer runtime is serving queries in this harness).
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.state.copyset_fixed = true;
        }

        // Two hint flushes: both buffer, nothing goes on the wire.
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[1u8; 32]);
        rt.flush_hint().unwrap();
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[2u8; 32]);
        rt.flush_hint().unwrap();
        {
            let snap = rt.stats().snapshot();
            assert_eq!(snap.flushes_coalesced, 2);
            assert_eq!(snap.updates_sent, 0, "coalesced hints send nothing");
        }
        assert!(rt.outbox.lock().has_pending());

        // An acquire invalidates the window: the buffered items are
        // transmitted (one merged message) and acknowledged before the
        // acquire completes.
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let acq_rt = Arc::clone(&rt);
        let acq = std::thread::spawn(move || acq_rt.acquire_lock(crate::sync::LockId(0)));
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::Update { items, .. } = msg else {
            panic!("expected the window-close update, got {msg:?}");
        };
        assert_eq!(items.len(), 2, "both hint flushes merged into one message");
        assert_eq!(items[0].object, ws);
        tx1.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 2,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        acq.join().unwrap().unwrap();
        assert!(rt.sync.lock().lock(crate::sync::LockId(0)).held);
        assert!(!rt.outbox.lock().has_pending());
        assert_eq!(rt.stats().snapshot().updates_sent, 1);
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// The window close counts only `UpdateAck`s: it never ships a
    /// cooperative bundle, so a stray `RelayFanoutAck` is a protocol
    /// violation rather than an ack that would close the window before its
    /// real ack arrives.
    #[test]
    fn window_close_rejects_a_stray_fanout_ack() {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(2).with_piggyback(true));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(2, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            2,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let ws = rt.table().var_by_name("ws").unwrap().objects[0];
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.state.copyset_fixed = true;
        }
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[1u8; 32]);
        rt.flush_hint().unwrap();

        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let close_rt = Arc::clone(&rt);
        let close = std::thread::spawn(move || close_rt.close_coalescing_window());
        let (_env, msg) = rx1.recv().unwrap();
        assert!(matches!(msg, DsmMsg::Update { .. }), "got {msg:?}");
        tx1.send(
            NodeId::new(0),
            "relay_fanout_ack",
            24,
            DsmMsg::RelayFanoutAck {
                refanned: vec![],
                rejected: vec![],
            },
        )
        .unwrap();
        match close.join().unwrap() {
            Err(MuninError::ProtocolViolation(m)) => {
                assert!(m.contains("coalescing window"), "{m}")
            }
            other => panic!("expected a protocol violation, got {other:?}"),
        }
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// A release flush drains the coalescing buffer too: the buffered hint
    /// items are prepended to the flush's own updates for the same
    /// destination, so nothing is delivered out of write order.
    #[test]
    fn release_flush_carries_coalesced_items_first() {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(2).with_piggyback(true));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(2, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            2,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let ws = rt.table().var_by_name("ws").unwrap().objects[0];
        {
            // Pin the copyset so the flush skips the broadcast determination
            // round (no peer runtime is serving queries in this harness).
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.state.copyset_fixed = true;
        }
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[1u8; 32]);
        rt.flush_hint().unwrap();
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[2u8; 32]);
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::Update { items, .. } = msg else {
            panic!("expected one merged update, got {msg:?}");
        };
        // Coalesced hint item first, this release's item second.
        assert_eq!(items.len(), 2);
        tx1.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 2,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        flusher.join().unwrap().unwrap();
        assert!(!rt.outbox.lock().has_pending());
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// Flushing reuses both the twin buffer (via the DUQ pool) and the diff
    /// scratch allocation across flush cycles.
    #[test]
    fn flush_cycle_reuses_twin_and_scratch_allocations() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        // First cycle warms the pool and the scratch.
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[1u8; 32]);
        rt.flush_duq().unwrap();
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
        let scratch_cap = rt.diff_scratch.lock().capacity();
        assert!(scratch_cap > 0);
        // Second cycle must not grow either allocation.
        rt.dir.lock().entry_mut(ws).state.rights = AccessRights::Read;
        rt.write_fault(ws).unwrap();
        assert_eq!(rt.duq.lock().pooled_twins(), 0, "twin taken from pool");
        rt.install_object_bytes(ws, &[2u8; 32]);
        rt.flush_duq().unwrap();
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
        assert_eq!(rt.diff_scratch.lock().capacity(), scratch_cap);
    }

    /// Builds the three-node manual harness used by the owner-cooperative
    /// flush tests: node 0 runs a real runtime (with piggybacking on and a
    /// non-owned `ws` whose owner hint points at N1), nodes 1 and 2 are
    /// driven by hand.
    #[allow(clippy::type_complexity)]
    fn coop_harness() -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        ObjectId,
    ) {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3).with_piggyback(true));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let (tx2, rx2) = net.endpoint(2, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let ws = rt.table().var_by_name("ws").unwrap().objects[0];
        rt.write_fault(ws).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        {
            // Not owned here, owner hint at N1, copyset never determined:
            // exactly the shape that takes the cooperative route.
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.owned = false;
            e.probable_owner = NodeId::new(1);
            assert!(!e.state.copyset_fixed);
        }
        // rx0 is consumed by the caller's server loop; return it alongside.
        (rt, net, tx1, rx1, tx2, rx2, rx0, ws)
    }

    /// The owner-cooperative path end-to-end from the flusher's side: a
    /// non-owned fan-out bundle ships whole to the owner hint as a
    /// `RelayFanout` (no copyset-determination round), and the release
    /// completes once the owner's fan-out ack plus one `UpdateAck` per
    /// reported re-fan destination have arrived.
    #[test]
    fn flush_ships_non_owned_bundle_to_cooperative_owner() {
        let (rt, net, tx1, rx1, tx2, _rx2, rx0, ws) = coop_harness();
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        // The whole bundle arrives at the owner hint, not at copyset members.
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::RelayFanout { items, origin, seq } = msg else {
            panic!("expected a cooperative fan-out at N1, got {msg:?}");
        };
        assert_eq!(origin, NodeId::new(0));
        assert_eq!(seq, 0, "first slot of the 0->1 update stream");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].object, ws);
        // The owner re-fanned to N2; N2's ack goes straight to the origin.
        tx1.send(
            NodeId::new(0),
            "relay_fanout_ack",
            24,
            DsmMsg::RelayFanoutAck {
                refanned: vec![NodeId::new(2)],
                rejected: vec![],
            },
        )
        .unwrap();
        tx2.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        flusher.join().unwrap().unwrap();
        let snap = rt.stats().snapshot();
        assert_eq!(snap.copyset_queries, 0, "coop entries skip determination");
        assert_eq!(snap.updates_sent, 1, "one bundle, shipped once");
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// A stale owner hint: the cooperative owner bounces the bundle, the
    /// flusher repairs the hint back to the home node and falls back to the
    /// degraded acknowledged broadcast, so the release still completes with
    /// every live peer having seen the update.
    #[test]
    fn flush_repairs_hint_and_broadcasts_bundle_bounced_by_coop_owner() {
        let (rt, net, tx1, rx1, tx2, rx2, rx0, ws) = coop_harness();
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::RelayFanout { .. } = msg else {
            panic!("expected a cooperative fan-out at N1, got {msg:?}");
        };
        // N1 does not own `ws` after all: bounce the whole bundle.
        tx1.send(
            NodeId::new(0),
            "relay_fanout_ack",
            24,
            DsmMsg::RelayFanoutAck {
                refanned: vec![],
                rejected: vec![ws],
            },
        )
        .unwrap();
        // Degraded fallback: both peers get an ordinary acknowledged update.
        for (tx, rx) in [(&tx1, &rx1), (&tx2, &rx2)] {
            let (_env, msg) = rx.recv().unwrap();
            let DsmMsg::Update {
                items, needs_ack, ..
            } = msg
            else {
                panic!("expected a degraded broadcast update, got {msg:?}");
            };
            assert!(needs_ack);
            assert_eq!(items[0].object, ws);
            tx.send(
                NodeId::new(0),
                "update_ack",
                40,
                DsmMsg::UpdateAck {
                    count: 1,
                    owned_copysets: vec![],
                },
            )
            .unwrap();
        }
        flusher.join().unwrap().unwrap();
        // The stale hint now points back at the home node, the first link of
        // the probable-owner chain.
        {
            let dir = rt.dir.lock();
            let e = dir.entry(ws);
            assert_eq!(e.probable_owner, e.home);
        }
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }
}
