//! The runtime service loop: handling requests from other nodes.
//!
//! This is the reproduction of the paper's "Munin worker threads": one thread
//! per node that receives protocol messages and performs the corresponding
//! directory, memory, and synchronization work. Handlers never block waiting
//! for a remote reply; requests that hit a directory entry in transition are
//! deferred and retried when the transition completes.

use std::sync::Arc;

use munin_sim::{Envelope, NodeId, Receiver};

use crate::annotation::SharingAnnotation;
use crate::copyset::CopySet;
use crate::diff;
use crate::directory::AccessRights;
use crate::msg::{
    CarrierUpdate, DsmMsg, FetchKind, ReduceOp, RelayUpdate, UpdateItem, UpdatePayload,
};
use crate::object::ObjectId;
use crate::stats::{add, bump};
use crate::sync::RemoteAcquireAction;

use super::{Admit, NodeRuntime, Stream};

impl NodeRuntime {
    /// Runs the service loop until a `Shutdown` message arrives. Intended to
    /// run on its own OS thread, with the node's network receiver moved in.
    pub fn server_loop(self: Arc<Self>, receiver: Receiver<DsmMsg>) {
        self.health_start();
        loop {
            let Ok((env, msg)) = receiver.recv() else {
                // All senders dropped (or the inbox was closed by the abort
                // path): the run is over.
                return;
            };
            if self.handle_incoming(env, msg) {
                self.drain_unacked(&receiver);
                return;
            }
        }
    }

    /// Processes one incoming transmission: unwraps the reliability layer
    /// (acks, dedup, in-order release) when present, then dispatches every
    /// deliverable protocol message. Returns `true` once `Shutdown` has been
    /// dispatched.
    pub(crate) fn handle_incoming(self: &Arc<Self>, env: Envelope, msg: DsmMsg) -> bool {
        if self.health_enabled() && env.src != self.node {
            // Confirmed-dead peers are past tense: recovery already pruned
            // them from every copyset and re-homed their objects, so a
            // zombie message (a frozen node thawing after the detection
            // window, or late retransmissions) must not re-enter the
            // protocol. Liveness traffic from everyone else refreshes the
            // detector.
            if self.is_peer_dead(env.src) {
                crate::runtime::proto_trace!(
                    self,
                    "drop zombie {} from {:?}",
                    msg.class(),
                    env.src
                );
                return false;
            }
            self.health_heard(env.src);
        }
        match msg {
            DsmMsg::Tick => {
                self.obs.record(
                    env.arrival.as_nanos(),
                    crate::obs::EventKind::TimerFire,
                    |_| {},
                );
                self.reliability_tick();
                false
            }
            DsmMsg::HealthTick => {
                self.obs.record(
                    env.arrival.as_nanos(),
                    crate::obs::EventKind::TimerFire,
                    |_| {},
                );
                self.health_tick();
                false
            }
            // The last-heard refresh above is the heartbeat's entire job.
            DsmMsg::Heartbeat => false,
            DsmMsg::PeerDown { node } => {
                self.confirm_peer_dead(node, true);
                false
            }
            DsmMsg::NetAck { upto } => {
                self.on_net_ack(env.src, upto);
                false
            }
            DsmMsg::Reliable { id, ack, inner } => {
                self.on_net_ack(env.src, ack);
                let mut shutdown = false;
                for released in self.reliable_deliver(env.src, id, *inner) {
                    shutdown |= self.dispatch(env, released);
                }
                shutdown
            }
            msg => self.dispatch(env, msg),
        }
    }

    /// Routes one protocol message to its handler. Returns `true` for
    /// `Shutdown`.
    fn dispatch(self: &Arc<Self>, env: Envelope, msg: DsmMsg) -> bool {
        let shutdown = matches!(msg, DsmMsg::Shutdown);
        if let DsmMsg::WorkerDone { from } = msg {
            // Completion notifications go to a dedicated channel so they
            // cannot interleave with a protocol operation the root's user
            // thread is still performing.
            let _ = self.done_tx.send(from);
        } else if matches!(msg, DsmMsg::Carrier { .. }) {
            // Carriers are unwrapped here — never routed to the user
            // thread directly — so the piggybacked payload is always
            // installed before the framed message is dispatched.
            self.handle_request(env, msg);
            self.process_deferred();
        } else if msg.is_user_reply() {
            self.route_to_user(env, msg);
        } else {
            self.handle_request(env, msg);
            self.process_deferred();
        }
        shutdown
    }

    /// Post-shutdown drain: while this node still holds unacknowledged
    /// outbound messages, keep servicing the reliability layer (acks in,
    /// retransmits out, ack-and-discard any late inner messages) so peers
    /// can finish their own drains, up to a bounded wall-clock deadline.
    /// Without this, a node whose final messages were lost would exit and
    /// strand its peers' retransmit loops until *their* watchdogs fire.
    fn drain_unacked(self: &Arc<Self>, receiver: &Receiver<DsmMsg>) {
        if !self.reliability_enabled() {
            return;
        }
        // Ack the `Shutdown` frame (and anything else owed) right away: the
        // sender is blocked in its own drain waiting for it, and this node's
        // tick never fires again once the service loop exits.
        self.flush_owed_acks();
        // Messages to confirmed-dead peers will never be acked; waiting out
        // the deadline for them would serialize a full second per survivor.
        for n in self.dead_set().iter() {
            if n != self.node {
                self.purge_peer_link(n);
            }
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while self.has_unacked() && std::time::Instant::now() < deadline {
            // A tick is always scheduled while messages are unacked, so this
            // recv wakes at least once per retransmit interval.
            let Ok((env, msg)) = receiver.recv() else {
                return;
            };
            match msg {
                DsmMsg::Tick => self.reliability_tick(),
                DsmMsg::NetAck { upto } => self.on_net_ack(env.src, upto),
                DsmMsg::Reliable { id, ack, inner } => {
                    self.on_net_ack(env.src, ack);
                    // Deliverable inners are acknowledged (the dedup frontier
                    // advances) but discarded: the run is over, and anything
                    // arriving now is a retransmission of work already done.
                    let _ = self.reliable_deliver(env.src, id, *inner);
                }
                _ => {}
            }
        }
        // Acks owed for frames that arrived *during* the drain (a peer's
        // retransmissions) flush here so the peer's own drain completes
        // instead of running out its deadline against a closed inbox.
        self.flush_owed_acks();
    }

    /// Dispatches one incoming request. Replies are timestamped from the
    /// request's arrival time plus the service cost, so a busy user thread
    /// does not delay (in virtual time) the service this node provides.
    pub(crate) fn handle_request(self: &Arc<Self>, env: Envelope, msg: DsmMsg) {
        let now = env.arrival;
        match msg {
            DsmMsg::ObjectFetch {
                object,
                access,
                requester,
            } => self.handle_object_fetch(env, object, access, requester),
            DsmMsg::Invalidate { object, requester } => {
                self.handle_invalidate(env, object, requester)
            }
            msg @ DsmMsg::Update { requester, seq, .. } => self.receive_update(
                env,
                msg,
                Stream::Slot {
                    from: requester,
                    seq,
                },
            ),
            msg @ DsmMsg::RelayFanout { origin, seq, .. } => {
                self.receive_update(env, msg, Stream::Slot { from: origin, seq })
            }
            msg @ DsmMsg::RelayForward { .. } => {
                self.receive_update(env, msg, Stream::Forward { owner: env.src })
            }
            DsmMsg::CopysetQuery {
                objects,
                requester,
                recovery,
            } => self.handle_copyset_query(env, objects, requester, recovery),
            DsmMsg::OwnerCopysetQuery { objects, requester } => {
                self.handle_owner_copyset_query(objects, requester, now)
            }
            DsmMsg::ReduceRequest {
                object,
                offset,
                op,
                requester,
            } => self.handle_reduce(object, offset, op, requester, now),
            DsmMsg::LockAcquire { lock, requester } => {
                self.handle_lock_acquire(lock, requester, now)
            }
            DsmMsg::BarrierArrive {
                barrier,
                from,
                gen,
                arrived,
            } => self.handle_barrier_report(env, barrier, from, gen, arrived),
            DsmMsg::BarrierRelease { barrier, gen } => {
                self.handle_barrier_release(env, barrier, gen)
            }
            DsmMsg::Carrier {
                inner,
                updates,
                relay,
            } => self.handle_carrier(env, inner, updates, relay),
            DsmMsg::Adopt {
                object,
                access,
                requester,
            } => self.handle_adopt(env, object, access, requester),
            // Replies and control messages are routed before we get here.
            other => {
                debug_assert!(
                    other.is_user_reply(),
                    "unexpected request message: {other:?}"
                );
            }
        }
    }

    /// Unwraps a carrier: installs the piggybacked payload, stashes or
    /// installs relayed bundles, then dispatches the framed message through
    /// the normal routing rules. The install-before-dispatch order is the
    /// carrier layer's correctness anchor: a piggybacked lock grant or
    /// barrier release can never reach the user thread ahead of the data
    /// that must be visible when it resumes.
    fn handle_carrier(
        self: &Arc<Self>,
        env: Envelope,
        inner: Option<Box<DsmMsg>>,
        updates: Vec<CarrierUpdate>,
        relay: Vec<RelayUpdate>,
    ) {
        // A grant or release *gates an acquire*: the blocked user thread
        // resumes the moment it is routed, so it must never outrun its
        // bundles. If any bundle cannot be applied yet, the whole carrier
        // (inner included) is re-queued and retried — deadlock-free, because
        // the receiver's user thread is parked in `wait_reply` (it cannot
        // hold busy/pinned entries) and any missing stream number is already
        // on the wire. Every other inner keeps legacy ordering: it is
        // dispatched now and only the blocked bundles wait (an
        // `InvalidateAck` *must* go through — its requester is mid-write-
        // fault, which is exactly what blocks the bundle).
        let gates_acquire = matches!(
            inner.as_deref(),
            Some(DsmMsg::LockGrant { .. }) | Some(DsmMsg::BarrierRelease { .. })
        );
        if gates_acquire {
            let waiting = self.try_install_carrier_updates(env, updates);
            if !waiting.is_empty() {
                crate::runtime::proto_trace!(self, "defer whole carrier (gating inner)");
                self.deferred.lock().push((
                    env,
                    DsmMsg::Carrier {
                        inner,
                        updates: waiting,
                        relay,
                    },
                ));
                return;
            }
        } else {
            self.install_carrier_updates(env, updates);
        }
        if !relay.is_empty() {
            // Relays only ever ride barrier traffic — reports up the tree
            // and releases down it (a bundle can transit several tree hops
            // before reaching its destination). The barrier id keys the
            // stash so overlapping episodes cannot mix.
            let barrier = match inner.as_deref() {
                Some(DsmMsg::BarrierArrive { barrier, .. })
                | Some(DsmMsg::BarrierRelease { barrier, .. }) => Some(*barrier),
                _ => None,
            };
            for r in relay {
                let bundle = CarrierUpdate {
                    from: r.from,
                    seq: r.seq,
                    items: r.items,
                    sync_install: false,
                };
                if r.dest == self.node {
                    // This node's own share (it rode a child's report up)
                    // is installed now — before the report below is counted.
                    // (If it has to defer, the trip
                    // still cannot release anyone ahead of the install: this
                    // node's own arrival is outstanding until its user thread
                    // clears the blocking state, and `process_deferred` runs
                    // first.)
                    self.install_carrier_updates(env, vec![bundle]);
                } else if let Some(b) = barrier {
                    self.outbox.lock().stash_relay(b, r.dest, bundle);
                } else {
                    // A relay without a framing barrier message is a
                    // protocol bug; dropping it silently would diverge the
                    // destination, so fail loudly enough to diagnose.
                    bump(&self.stats.runtime_errors);
                    crate::runtime::proto_trace!(
                        self,
                        "dropping relay bundle without a barrier frame (dest {:?})",
                        r.dest
                    );
                    debug_assert!(false, "relay bundles require a barrier frame");
                }
            }
        }
        let Some(inner) = inner else { return };
        let inner = *inner;
        if let DsmMsg::WorkerDone { from } = inner {
            let _ = self.done_tx.send(from);
        } else if inner.is_user_reply() {
            self.route_to_user(env, inner);
        } else {
            self.handle_request(env, inner);
        }
    }

    /// The unified carrier-install path: applies piggybacked update bundles
    /// with the same pin/busy discipline as standalone updates. A bundle
    /// whose directory entries are mid-transition is re-queued as a bare
    /// carrier frame and retried when the transition completes, exactly like
    /// a deferred `Update`.
    pub(crate) fn install_carrier_updates(
        self: &Arc<Self>,
        env: Envelope,
        updates: Vec<CarrierUpdate>,
    ) {
        for bundle in self.try_install_carrier_updates(env, updates) {
            self.deferred.lock().push((
                env,
                DsmMsg::Carrier {
                    inner: None,
                    updates: vec![bundle],
                    relay: Vec::new(),
                },
            ));
        }
    }

    /// Applies every bundle the admission gate admits *now* and returns the
    /// deferred rest. The caller decides how the returned bundles wait.
    /// Flush bundles ride the per-source update stream like a standalone
    /// update (a stale duplicate is dropped); sync installs are ordered by
    /// the lock token they travel with instead.
    fn try_install_carrier_updates(
        self: &Arc<Self>,
        env: Envelope,
        updates: Vec<CarrierUpdate>,
    ) -> Vec<CarrierUpdate> {
        let mut waiting = Vec::new();
        for bundle in updates {
            let stream = if bundle.sync_install {
                Stream::Sync
            } else {
                Stream::Slot {
                    from: bundle.from,
                    seq: bundle.seq,
                }
            };
            match self.admit_update(env.arrival, &bundle.items, stream) {
                Admit::Apply if bundle.sync_install => self.install_sync_items(bundle.items),
                Admit::Apply => {
                    self.apply_update_items(bundle.items, false, env.arrival);
                }
                Admit::Defer => waiting.push(bundle),
                Admit::Stale => {}
            }
        }
        waiting
    }

    /// Installs data associated with a synchronization object
    /// (`AssociateDataAndSynch` payloads on a lock grant): full images are
    /// written even where no local copy exists, and migratory objects hand
    /// ownership and write access to the new lock holder. Each entry is
    /// marked busy across its install so a concurrently arriving update or
    /// fetch for the same object is deferred instead of interleaving with
    /// the install.
    fn install_sync_items(self: &Arc<Self>, items: Vec<UpdateItem>) {
        for item in items {
            let UpdatePayload::Full(data) = item.payload else {
                debug_assert!(false, "sync installs always carry full images");
                continue;
            };
            let object = item.object;
            self.charge_sys(self.cost.copy(data.len() as u64));
            {
                let mut dir = self.dir.lock();
                dir.entry_mut(object).state.busy = true;
            }
            self.install_object_bytes(object, &data);
            {
                let mut dir = self.dir.lock();
                let e = dir.entry_mut(object);
                if e.annotation == SharingAnnotation::Migratory {
                    // Migratory data travels with the lock: the new holder
                    // gets ownership and write access immediately.
                    self.set_entry_rights(e, AccessRights::ReadWrite);
                    e.state.owned = true;
                    e.probable_owner = self.node;
                } else if !e.state.rights.allows_write() {
                    self.set_entry_rights(e, AccessRights::Read);
                }
                e.state.busy = false;
            }
            self.note_unblocked_and_process_deferred();
        }
    }

    /// Handles an adoption request: the requester's orphan-recovery round
    /// (see `refetch_orphan`) identified this node as the lowest-id
    /// surviving holder of an object whose owner died. Claim ownership if
    /// the local copy is still valid, then serve the blocked fetch exactly
    /// as an owner would.
    fn handle_adopt(
        self: &Arc<Self>,
        env: Envelope,
        object: ObjectId,
        access: FetchKind,
        requester: NodeId,
    ) {
        {
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if entry.state.busy || entry.state.pinned {
                // Mid-transition: retry once it completes, as a fetch would.
                drop(dir);
                self.deferred.lock().push((
                    env,
                    DsmMsg::Adopt {
                        object,
                        access,
                        requester,
                    },
                ));
                return;
            }
            if !entry.state.owned && entry.state.rights.allows_read() {
                entry.state.owned = true;
                entry.probable_owner = self.node;
                bump(&self.stats.objects_rehomed);
                self.obs.record(
                    env.arrival.as_nanos(),
                    crate::obs::EventKind::OwnershipRecovered,
                    |ev| {
                        ev.object = Some(object);
                        ev.peer = Some(requester);
                    },
                );
                crate::runtime::proto_trace!(self, "adopted orphan {object:?} for {requester:?}");
            }
        }
        // Owned now (or already): the normal fetch path serves it, with the
        // usual ownership-transfer semantics for write/migratory access. If
        // the local copy was invalidated since the requester's query round,
        // this forwards along the (recovery-redirected) hint chain instead.
        self.handle_object_fetch(env, object, access, requester);
    }

    /// Serves (or forwards, or defers) an object fetch.
    fn handle_object_fetch(
        self: &Arc<Self>,
        env: Envelope,
        object: ObjectId,
        access: FetchKind,
        requester: NodeId,
    ) {
        let now = env.arrival;
        enum Action {
            Defer,
            Forward(NodeId),
            Reply {
                ownership: bool,
                copyset: CopySet,
                writable: bool,
                data: Vec<u8>,
            },
        }
        let action = {
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if entry.state.busy || entry.state.pinned {
                // Mid-transition, or the user thread holds the rights for an
                // in-flight memory access: serve the fetch only after the
                // transition/access completes, so a served copy can never
                // miss a locally checked-but-not-yet-performed write.
                Action::Defer
            } else if !entry.state.owned {
                let hint = if entry.probable_owner == self.node {
                    // Stale self-hint: fall back to the home node of last resort.
                    entry.home
                } else {
                    entry.probable_owner
                };
                Action::Forward(hint)
            } else {
                let annotation = entry.annotation;
                let params = entry.params;
                let has_copy = entry.state.rights.allows_read();
                // Stable-sharing check: a fetch for a producer-consumer object
                // whose sharing relationship is already fixed, from a node
                // outside that relationship, is the runtime error the paper
                // describes. We record it and still serve the data.
                if params.is_stable()
                    && entry.state.copyset_fixed
                    && !entry.copyset.contains(requester)
                {
                    bump(&self.stats.runtime_errors);
                }
                let single_writer_transfer = params.uses_invalidate()
                    && (matches!(access, FetchKind::Write)
                        || annotation == SharingAnnotation::Migratory);
                // The object bytes are copied inside this directory-lock
                // scope: the not-pinned guard above and the copy are then
                // atomic with respect to the user thread's pinned accesses,
                // so a served copy can never be torn mid-access (the VM-trap
                // mode's lock-free user copies rely on this; the explicit
                // mode previously relied on the segment mutex for the same
                // guarantee at whole-access granularity).
                if single_writer_transfer {
                    // Conventional write miss or any migratory access:
                    // ownership (and for migratory, the only copy) moves to
                    // the requester; the local copy is invalidated.
                    let mut handed_copyset = entry.copyset.clone();
                    handed_copyset.remove(requester);
                    self.set_entry_rights(entry, AccessRights::Invalid);
                    entry.state.owned = false;
                    entry.copyset = CopySet::EMPTY;
                    entry.probable_owner = requester;
                    Action::Reply {
                        ownership: true,
                        copyset: handed_copyset,
                        writable: true,
                        data: self.object_bytes(object),
                    }
                } else if has_copy {
                    // Read replica (or a read fetch of an update-protocol
                    // object): hand out a copy and remember the replica.
                    entry.copyset.insert(requester);
                    if params.uses_invalidate() {
                        // Single-writer protocols write-protect the owner's
                        // copy so its next write re-invalidates the replicas.
                        self.set_entry_rights(entry, AccessRights::Read);
                    }
                    Action::Reply {
                        ownership: false,
                        copyset: CopySet::EMPTY,
                        writable: false,
                        data: self.object_bytes(object),
                    }
                } else {
                    // First touch of an object the owner never materialized:
                    // serve a zero-filled page. For fixed-owner objects the
                    // owner keeps ownership (flushes must keep arriving
                    // here); otherwise ownership follows the first toucher.
                    let keep_ownership = params.has_fixed_owner();
                    if !keep_ownership {
                        entry.state.owned = false;
                        entry.probable_owner = requester;
                    } else {
                        entry.copyset.insert(requester);
                    }
                    Action::Reply {
                        ownership: !keep_ownership,
                        copyset: CopySet::EMPTY,
                        writable: false,
                        data: self.object_bytes(object),
                    }
                }
            }
        };
        // The directory-lookup cost is charged once per request actually
        // examined, not per defer-retry cycle: the number of retries depends
        // on host thread interleaving and must not perturb virtual time.
        if !matches!(action, Action::Defer) {
            self.charge_sys(self.cost.dir_op());
        }
        match action {
            Action::Defer => {
                crate::runtime::proto_trace!(self, "defer fetch {object:?} from {requester:?}");
                self.deferred.lock().push((
                    env,
                    DsmMsg::ObjectFetch {
                        object,
                        access,
                        requester,
                    },
                ));
            }
            Action::Forward(next) => {
                let _ = self.send_service(
                    next,
                    DsmMsg::ObjectFetch {
                        object,
                        access,
                        requester,
                    },
                    now + self.cost.dir_op(),
                );
            }
            Action::Reply {
                ownership,
                copyset,
                writable,
                data,
            } => {
                crate::runtime::proto_trace!(
                    self,
                    "serve fetch {object:?} to {requester:?} (ownership={ownership} writable={writable}, arrival={}ns)",
                    env.arrival.as_nanos()
                );
                self.obs
                    .record(now.as_nanos(), crate::obs::EventKind::FetchServe, |ev| {
                        ev.object = Some(object);
                        ev.peer = Some(requester);
                    });
                // The served bytes are live memory, so any outbox items for
                // this (requester, object) pair are subsumed — and if the
                // object is written again before they drain, delivering them
                // later would regress the requester's fresh copy.
                if self.cfg.piggyback {
                    self.outbox.lock().drop_pending_object(requester, object);
                }
                // Charge the copy cost the prototype pays when it assembles
                // the reply (the copy itself happened under the directory
                // lock above).
                let size = self.table.object(object).size;
                self.charge_sys(self.cost.copy(size as u64));
                let _ = self.send_service(
                    requester,
                    DsmMsg::ObjectData {
                        object,
                        data,
                        ownership,
                        copyset,
                        writable,
                    },
                    now + self.cost.dir_op() + self.cost.copy(size as u64),
                );
            }
        }
    }

    /// Invalidates the local copy of an object and acknowledges.
    ///
    /// If the local user thread holds the entry pinned for an in-flight
    /// memory access, the invalidation is deferred: invalidating now would
    /// lose the checked-but-not-yet-performed write. Pins are released
    /// without blocking, so the deferral cannot deadlock (unlike deferring on
    /// `busy`, whose holder may itself be waiting for this node's reply).
    fn handle_invalidate(self: &Arc<Self>, env: Envelope, object: ObjectId, requester: NodeId) {
        let now = env.arrival;
        // Pinned guard, flush encode, and the invalidation itself run under
        // ONE directory lock, so a pin cannot start (and a write cannot land
        // unseen) anywhere between the guard and the rights change. The lock
        // order is dir → duq → memory, consistent with every other path
        // (`phase_change` takes dir before duq for this reason).
        let flush_payload = {
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if entry.state.pinned {
                // No virtual-time charge on a deferred attempt: retry counts
                // are host-timing dependent.
                drop(dir);
                self.deferred
                    .lock()
                    .push((env, DsmMsg::Invalidate { object, requester }));
                return;
            }
            let flush_first = entry.state.dirty && entry.params.allows_multiple_writers();
            let payload = if flush_first {
                // "If a Munin node with a dirty copy of an object receives an
                // invalidation request for that object and multiple writers
                // are allowed, any pending local updates are propagated."
                let twin = {
                    let mut duq = self.duq.lock();
                    duq.remove(object).and_then(|e| e.twin)
                };
                match twin {
                    Some(twin) => {
                        let d = self.with_object_mem(object, |cur| {
                            let mut scratch = self.diff_scratch.lock();
                            scratch.encode(cur, &twin)
                        });
                        self.duq.lock().recycle_twin(twin);
                        Some(UpdatePayload::Diff(d))
                    }
                    None => Some(UpdatePayload::Full(self.object_bytes(object))),
                }
            } else {
                if entry.state.dirty && !entry.params.allows_multiple_writers() {
                    // Invalidation of a dirty single-writer copy: detected
                    // runtime error (should be impossible under a correct
                    // protocol).
                    bump(&self.stats.runtime_errors);
                }
                None
            };
            self.set_entry_rights(entry, AccessRights::Invalid);
            entry.state.dirty = false;
            entry.state.owned = false;
            entry.probable_owner = requester;
            payload
        };
        self.charge_sys(self.cost.dir_op());
        bump(&self.stats.invalidations_received);
        let ack = DsmMsg::InvalidateAck { object };
        let at = now + self.cost.dir_op();
        let Some(payload) = flush_payload else {
            let _ = self.send_service(requester, ack, at);
            return;
        };
        let bundle = self.stream_bundle(requester, vec![UpdateItem { object, payload }]);
        if self.cfg.piggyback {
            // The dirty-copy flush rides the acknowledgement it would
            // otherwise race ahead of: one carrier instead of an Update
            // followed by an InvalidateAck to the same destination. The
            // receiver installs the update before the ack is routed, which
            // is the same order per-link FIFO gave the two messages.
            add(&self.stats.msgs_piggybacked, 1);
            let carrier = DsmMsg::Carrier {
                inner: Some(Box::new(ack)),
                updates: vec![bundle],
                relay: Vec::new(),
            };
            let _ = self.send_service(requester, carrier, at);
        } else {
            let _ = self.send_service(requester, bundle.into_update(false), at);
            let _ = self.send_service(requester, ack, at);
        }
    }

    /// Receives a standalone update-bearing message (`Update`,
    /// `RelayFanout`, `RelayForward`) through the admission gate
    /// (`admit_update`). A deferred message is re-queued whole. A stale
    /// duplicate is answered with its kind's empty reply: the original
    /// delivery was acknowledged when it was applied, and acking the
    /// duplicate too keeps a sender counting per-message acks no worse off
    /// than under the legacy re-apply behaviour. An admitted message is
    /// applied and acknowledged — the ack is itself a carrier opportunity:
    /// any coalesced items queued for the flusher ride it home.
    fn receive_update(self: &Arc<Self>, env: Envelope, msg: DsmMsg, stream: Stream) {
        let now = env.arrival;
        let items: &[UpdateItem] = match &msg {
            DsmMsg::Update { items, .. }
            | DsmMsg::RelayFanout { items, .. }
            | DsmMsg::RelayForward { items, .. } => items,
            _ => &[],
        };
        match (self.admit_update(now, items, stream), msg) {
            (Admit::Defer, msg) => self.deferred.lock().push((env, msg)),
            (
                Admit::Stale,
                DsmMsg::Update {
                    requester,
                    needs_ack: true,
                    ..
                },
            ) => {
                let ack = DsmMsg::UpdateAck {
                    count: 0,
                    owned_copysets: Vec::new(),
                };
                let _ = self.send_service(requester, ack, now);
            }
            (Admit::Stale, DsmMsg::RelayFanout { origin, .. }) => {
                let ack = DsmMsg::RelayFanoutAck {
                    refanned: Vec::new(),
                    rejected: Vec::new(),
                };
                let _ = self.send_service(origin, ack, now);
            }
            (
                Admit::Apply,
                DsmMsg::Update {
                    items,
                    requester,
                    needs_ack,
                    ..
                },
            ) => {
                let (count, service, owned_copysets) =
                    self.apply_update_items(items, needs_ack, now);
                if needs_ack {
                    let ack = DsmMsg::UpdateAck {
                        count,
                        owned_copysets,
                    };
                    self.send_service_with_pending(requester, ack, now + service);
                }
            }
            (Admit::Apply, DsmMsg::RelayFanout { items, origin, seq }) => {
                self.handle_relay_fanout(items, origin, seq, now)
            }
            // A forward acknowledges `origin`, whose flush is blocked
            // counting acks — not the forwarding owner.
            (Admit::Apply, DsmMsg::RelayForward { items, origin, .. }) => {
                let (count, service, _) = self.apply_update_items(items, false, now);
                let ack = DsmMsg::UpdateAck {
                    count,
                    owned_copysets: Vec::new(),
                };
                self.send_service_with_pending(origin, ack, now + service);
            }
            _ => {}
        }
    }

    /// Handles an admitted owner-cooperative fan-out bundle: installs the
    /// items this node owns, then re-fans them to the other members of its
    /// *authoritative* copyset (the union of every determined set with the
    /// replicas recorded while serving fetches) — the flusher never runs a
    /// determination round or heals stragglers for these objects. Items this
    /// node does not own (the origin's ownership hint was stale) are bounced
    /// back in the ack as `rejected`, neither installed nor distributed; the
    /// origin repairs its hint and falls back to a direct broadcast.
    ///
    /// The bundle rides the origin→owner update stream; each re-fan is a
    /// `RelayForward`, which the destination admits without a stream check:
    /// forwards travel the owner→destination link directly (FIFO, no
    /// carrier detour), and they deliberately carry no slot of the owner's
    /// update stream (see below). Interleaving with the owner's stashed
    /// bundles is order-insensitive: concurrent-interval diffs from distinct
    /// writers touch disjoint words in data-race-free programs — the same
    /// assumption the legacy multi-link fan-out already makes.
    fn handle_relay_fanout(
        self: &Arc<Self>,
        items: Vec<UpdateItem>,
        origin: NodeId,
        seq: u64,
        now: munin_sim::VirtTime,
    ) {
        // Partition on ownership and snapshot the authoritative copysets in
        // one directory-lock scope; liveness is checked afterwards because
        // the failure detector takes its own lock.
        let mut owned_items = Vec::new();
        let mut rejected = Vec::new();
        let mut per_dest: std::collections::BTreeMap<NodeId, Vec<UpdateItem>> =
            std::collections::BTreeMap::new();
        {
            let dir = self.dir.lock();
            for item in items {
                let e = dir.entry(item.object);
                if !e.state.owned {
                    rejected.push(item.object);
                    continue;
                }
                for dest in e.copyset.iter(self.nodes, Some(self.node)) {
                    if dest == origin {
                        continue;
                    }
                    per_dest.entry(dest).or_default().push(item.clone());
                }
                owned_items.push(item);
            }
        }
        per_dest.retain(|dest, _| !self.is_peer_dead(*dest));
        // Install before any re-fan leaves: the owner must never distribute
        // data it has not itself made visible (the same anchor as the
        // carrier layer's install-before-dispatch).
        let (_, service, _) = self.apply_update_items(owned_items, false, now);
        let mut refanned = Vec::new();
        for (dest, dest_items) in per_dest {
            self.note_update_sent(&dest_items);
            bump(&self.stats.owner_refans);
            self.obs
                .record(now.as_nanos(), crate::obs::EventKind::OwnerRefan, |ev| {
                    ev.peer = Some(dest);
                    ev.object = dest_items.first().map(|i| i.object);
                    ev.seq = Some(seq);
                });
            // The forward carries the *origin's* fan-out seq (tying it to the
            // `OwnerRefan` record) but deliberately does NOT draw a slot from this
            // node's own update stream to `dest`: this service thread may
            // run while the user thread has relay bundles (holding earlier
            // stream slots) parked at a barrier owner until the release, and
            // a fresh slot here would open a gap `dest` can only close after
            // a release that transitively waits on this forward's ack.
            let _ = self.send_service(
                dest,
                DsmMsg::RelayForward {
                    items: dest_items,
                    origin,
                    seq,
                },
                now + service,
            );
            refanned.push(dest);
        }
        self.send_service_with_pending(
            origin,
            DsmMsg::RelayFanoutAck { refanned, rejected },
            now + service,
        );
    }

    /// Applies a list of update items to the local copies. The single apply
    /// path shared by standalone `Update` messages and piggybacked carrier
    /// bundles. Returns the number applied, the service time charged, and —
    /// when `collect_owned` — the authoritative recorded copyset of every
    /// *owned* updated object (see `DsmMsg::UpdateAck`): the union of every
    /// determined set with the replicas recorded while serving fetches, so
    /// the flusher can heal members its own (possibly stale) determination
    /// missed.
    fn apply_update_items(
        self: &Arc<Self>,
        items: Vec<UpdateItem>,
        collect_owned: bool,
        now: munin_sim::VirtTime,
    ) -> (
        usize,
        munin_sim::VirtTime,
        Vec<(crate::object::ObjectId, crate::copyset::CopySet)>,
    ) {
        let mut applied = 0usize;
        let mut service = munin_sim::VirtTime::ZERO;
        let mut owned_copysets: Vec<(crate::object::ObjectId, crate::copyset::CopySet)> =
            Vec::new();
        for item in items {
            let has_copy = {
                let dir = self.dir.lock();
                let e = dir.entry(item.object);
                if collect_owned && e.state.owned {
                    owned_copysets.push((item.object, e.copyset.clone()));
                }
                e.state.rights.allows_read()
            };
            crate::runtime::proto_trace!(
                self,
                "update {:?} has_copy={has_copy} arrival={}ns",
                item.object,
                now.as_nanos()
            );
            if !has_copy {
                continue;
            }
            match item.payload {
                UpdatePayload::Diff(d) => {
                    let cost = self
                        .cost
                        .decode(d.changed_words() as u64, d.run_count() as u64);
                    self.charge_sys(cost);
                    service += cost;
                    if self
                        .with_object_mem_mut(item.object, |cur| diff::apply(&d, cur))
                        .is_err()
                    {
                        continue;
                    }
                    // If the object is locally dirty, fold the remote changes
                    // into the twin as well so they are not re-sent as local
                    // modifications at the next flush.
                    let mut duq = self.duq.lock();
                    duq.patch_twin(item.object, |twin| {
                        let _ = diff::apply(&d, twin);
                    });
                }
                UpdatePayload::Full(data) => {
                    let cost = self.cost.copy(data.len() as u64);
                    self.charge_sys(cost);
                    service += cost;
                    self.with_object_mem_mut(item.object, |cur| {
                        if cur.len() == data.len() {
                            cur.copy_from_slice(&data);
                        }
                    });
                }
            }
            applied += 1;
            bump(&self.stats.updates_applied);
        }
        (applied, service, owned_copysets)
    }

    /// Takes everything pending for `dst`, appends `fresh` (older coalesced
    /// changes apply first), and — when non-empty — seals it into a bundle
    /// holding the next update-stream slot, in ONE outbox-lock scope.
    /// Atomicity matters: if the take and the slot allocation were separate,
    /// a preempted service thread could end up holding *older* items than a
    /// concurrent user-thread flush while drawing a *later* slot, and the
    /// receiver (which applies strictly in seq order) would install the
    /// stale items over the newer data. The bundle rides a carrier, so it is
    /// counted as piggybacked.
    pub(crate) fn take_pending_bundle(
        &self,
        dst: NodeId,
        fresh: Vec<UpdateItem>,
    ) -> Option<CarrierUpdate> {
        if !self.cfg.piggyback {
            return None;
        }
        let mut outbox = self.outbox.lock();
        let mut items = outbox.take_pending(dst);
        items.extend(fresh);
        if items.is_empty() {
            return None;
        }
        add(&self.stats.msgs_piggybacked, 1);
        Some(self.stream_bundle(dst, items))
    }

    /// Sends a service-thread reply, attaching any coalesced outbox items
    /// queued for the same destination as a carrier bundle (the "queued
    /// updates ride replies already headed there" half of the carrier
    /// layer). Falls back to the plain message when nothing is pending or
    /// piggybacking is off.
    fn send_service_with_pending(
        self: &Arc<Self>,
        dst: NodeId,
        msg: DsmMsg,
        logical_time: munin_sim::VirtTime,
    ) {
        let msg = match self.take_pending_bundle(dst, Vec::new()) {
            Some(bundle) => DsmMsg::Carrier {
                inner: Some(Box::new(msg)),
                updates: vec![bundle],
                relay: Vec::new(),
            },
            None => msg,
        };
        let _ = self.send_service(dst, msg, logical_time);
    }

    /// Answers a broadcast copyset query: which of the listed objects does
    /// this node hold a copy of?
    ///
    /// If any listed object is mid-fetch on this node (its busy bit is set),
    /// the answer is deferred until the fetch completes: answering "don't
    /// have" while the object data is in flight would let the flusher skip
    /// this node, whose just-fetched copy would then miss the update forever.
    /// A crash-`recovery` query is answered at once instead: it asks who
    /// still holds a copy *now*, and a survivor faulting on the same orphan
    /// holds its entry busy while it waits for this node's own answer.
    fn handle_copyset_query(
        self: &Arc<Self>,
        env: Envelope,
        objects: std::sync::Arc<[ObjectId]>,
        requester: NodeId,
        recovery: bool,
    ) {
        let now = env.arrival;
        // Busy check and "have" computation under ONE directory lock: a fetch
        // starting between two separate lock scopes would otherwise still be
        // answered "don't have".
        let have: Vec<ObjectId> = {
            let dir = self.dir.lock();
            if !recovery && objects.iter().any(|o| dir.entry(*o).state.busy) {
                // No virtual-time charge on a deferred attempt: retry counts
                // are host-timing dependent. Re-queueing shares the same
                // `Arc`-backed object list — no copy.
                drop(dir);
                crate::runtime::proto_trace!(self, "defer copyset query from {requester:?}");
                self.deferred.lock().push((
                    env,
                    DsmMsg::CopysetQuery {
                        objects,
                        requester,
                        recovery,
                    },
                ));
                return;
            }
            objects
                .iter()
                .copied()
                .filter(|o| dir.entry(*o).state.rights.allows_read())
                .collect()
        };
        self.charge_sys(self.cost.dir_op());
        self.send_service_with_pending(
            requester,
            DsmMsg::CopysetReply { have },
            now + self.cost.dir_op(),
        );
    }

    /// Answers an owner-collected copyset query with the copyset recorded
    /// while serving fetches. For objects this node does not own the reply is
    /// conservatively `AllNodes`.
    fn handle_owner_copyset_query(
        self: &Arc<Self>,
        objects: Vec<ObjectId>,
        requester: NodeId,
        now: munin_sim::VirtTime,
    ) {
        self.charge_sys(self.cost.dir_op());
        let copysets: Vec<(ObjectId, CopySet)> = {
            let dir = self.dir.lock();
            objects
                .into_iter()
                .map(|o| {
                    let e = dir.entry(o);
                    if e.state.owned {
                        (o, e.copyset.clone())
                    } else {
                        (o, CopySet::AllNodes)
                    }
                })
                .collect()
        };
        self.send_service_with_pending(
            requester,
            DsmMsg::OwnerCopysetReply { copysets },
            now + self.cost.dir_op(),
        );
    }

    /// Executes a `Fetch_and_Φ` at the fixed owner and replies with the old
    /// value.
    fn handle_reduce(
        self: &Arc<Self>,
        object: ObjectId,
        offset: usize,
        op: ReduceOp,
        requester: NodeId,
        now: munin_sim::VirtTime,
    ) {
        self.charge_sys(self.cost.sync_op());
        let old = self.apply_reduce_local(object, offset, op);
        let _ = self.send_service(
            requester,
            DsmMsg::ReduceReply { old },
            now + self.cost.sync_op(),
        );
    }

    /// Applies a reduction operation to the local (owner) copy, returning the
    /// previous value bytes.
    pub(crate) fn apply_reduce_local(
        self: &Arc<Self>,
        object: ObjectId,
        offset: usize,
        op: ReduceOp,
    ) -> Vec<u8> {
        self.with_object_mem_mut(object, |cur| {
            let slot = &mut cur[offset..offset + 8];
            let old = slot.to_vec();
            let old_i = i64::from_le_bytes(old.clone().try_into().unwrap_or([0; 8]));
            let old_f = f64::from_le_bytes(old.clone().try_into().unwrap_or([0; 8]));
            let new_bytes: Option<[u8; 8]> = match op {
                ReduceOp::Read => None,
                ReduceOp::AddI64(v) => Some((old_i.wrapping_add(v)).to_le_bytes()),
                ReduceOp::MinI64(v) => Some(old_i.min(v).to_le_bytes()),
                ReduceOp::MaxI64(v) => Some(old_i.max(v).to_le_bytes()),
                ReduceOp::AddF64(v) => Some((old_f + v).to_le_bytes()),
                ReduceOp::MinF64(v) => Some(old_f.min(v).to_le_bytes()),
                ReduceOp::MaxF64(v) => Some(old_f.max(v).to_le_bytes()),
            };
            if let Some(bytes) = new_bytes {
                slot.copy_from_slice(&bytes);
            }
            old
        })
    }

    /// Handles a remote lock acquire: grant, queue, or forward.
    fn handle_lock_acquire(
        self: &Arc<Self>,
        lock: crate::sync::LockId,
        requester: NodeId,
        now: munin_sim::VirtTime,
    ) {
        self.charge_sys(self.cost.sync_op());
        // A crash-recovery re-acquire can chase its own tail: the waiter
        // re-sent towards the home, the original request was satisfied
        // after all, and the duplicate is now being forwarded back to a
        // requester that already holds the token. Drop it — queueing a
        // node behind itself would deadlock the queue.
        if self.health_enabled() && requester == self.node {
            let owned = self.sync.lock().lock(lock).owned;
            if owned {
                crate::runtime::proto_trace!(
                    self,
                    "drop own looped-back acquire for lock {}",
                    lock.0
                );
                return;
            }
        }
        let action = {
            let mut sync = self.sync.lock();
            sync.lock_mut(lock).handle_remote_acquire(requester)
        };
        match action {
            RemoteAcquireAction::Forward(next) => {
                add(&self.stats.lock_messages, 1);
                let _ = self.send_service(
                    next,
                    DsmMsg::LockAcquire { lock, requester },
                    now + self.cost.sync_op(),
                );
            }
            RemoteAcquireAction::Grant => {
                self.send_lock_grant(lock, requester, Vec::new(), Vec::new());
            }
            RemoteAcquireAction::Queued => {}
        }
    }

    /// Sends a lock grant (ownership transfer) to `to`, carrying the waiter
    /// queue. The associated consistency data (`AssociateDataAndSynch`), any
    /// flush updates the releaser diverted onto this grant, and any
    /// coalesced outbox items for the grantee all ride the same carrier
    /// frame; a grant with none of them goes out bare.
    pub(crate) fn send_lock_grant(
        self: &Arc<Self>,
        lock: crate::sync::LockId,
        to: NodeId,
        queue: Vec<NodeId>,
        diverted: Vec<UpdateItem>,
    ) {
        let sync_items = self.build_lock_piggyback(lock, to);
        // The diverted flush items join any pending outbox items in one
        // bundle, whose slot is drawn in the outbox-lock scope of the take
        // (see `take_pending_bundle`) so its number reflects when its
        // content was captured.
        let flush = self.take_pending_bundle(to, diverted);
        add(&self.stats.lock_messages, 1);
        let grant = DsmMsg::LockGrant { lock, queue };
        if sync_items.is_empty() && flush.is_none() {
            let _ = self.send(to, grant);
            return;
        }
        let mut updates = Vec::new();
        if !sync_items.is_empty() {
            updates.push(CarrierUpdate {
                from: self.node,
                seq: 0, // sync installs are ordered by the lock token, not the stream
                items: sync_items,
                sync_install: true,
            });
        }
        updates.extend(flush);
        let _ = self.send(
            to,
            DsmMsg::Carrier {
                inner: Some(Box::new(grant)),
                updates,
                relay: Vec::new(),
            },
        );
    }

    /// Builds the consistency data piggybacked on a lock grant: the current
    /// contents of every object associated with the lock that this node holds
    /// a valid copy of ("Munin sends the new value of the object in the
    /// message that is used to pass lock ownership"). Installed on the
    /// receive side by the unified carrier-install path (`sync_install`
    /// bundles).
    fn build_lock_piggyback(
        self: &Arc<Self>,
        lock: crate::sync::LockId,
        to: NodeId,
    ) -> Vec<UpdateItem> {
        let associated = {
            let sync = self.sync.lock();
            sync.lock(lock).associated.clone()
        };
        if associated.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for object in associated {
            let (has_copy, migrate) = {
                let dir = self.dir.lock();
                let e = dir.entry(object);
                (
                    e.state.rights.allows_read(),
                    e.annotation == SharingAnnotation::Migratory && e.state.owned,
                )
            };
            if !has_copy {
                continue;
            }
            let size = self.table.object(object).size;
            self.charge_sys(self.cost.copy(size as u64));
            out.push(UpdateItem {
                object,
                payload: UpdatePayload::Full(self.object_bytes(object)),
            });
            if migrate {
                // Migratory data protected by the lock travels with it: the
                // old holder gives up its copy and ownership.
                let mut dir = self.dir.lock();
                let e = dir.entry_mut(object);
                self.set_entry_rights(e, AccessRights::Invalid);
                e.state.owned = false;
                e.state.dirty = false;
                e.probable_owner = to;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MuninConfig;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock};
    use std::collections::HashSet;

    /// Builds a two-node network where node 0 hosts a runtime and node 1 is
    /// driven manually by the test.
    struct Harness {
        rt: Arc<NodeRuntime>,
        peer_tx: munin_sim::Sender<DsmMsg>,
        peer_rx: munin_sim::Receiver<DsmMsg>,
        rt_rx: munin_sim::Receiver<DsmMsg>,
    }

    fn harness() -> Harness {
        harness_with(MuninConfig::fast_test(2))
    }

    /// Same two-node harness but with the reliability layer forced on, for
    /// the duplicate-delivery idempotence tests.
    fn reliable_harness() -> Harness {
        harness_with(MuninConfig::fast_test(2).with_reliability(true))
    }

    fn harness_with(cfg: MuninConfig) -> Harness {
        let mut table = SharedDataTable::new(64);
        table.declare("ro", SharingAnnotation::ReadOnly, 4, 8, false);
        table.declare("conv", SharingAnnotation::Conventional, 4, 8, false);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        table.declare("red", SharingAnnotation::Reduction, 8, 2, false);
        table.declare("mig", SharingAnnotation::Migratory, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(cfg);
        let clock0 = NodeClock::new();
        let clock1 = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(2, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock0.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, clock1).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            2,
            cfg,
            table,
            vec![NodeId::new(0)],
            vec![NodeId::new(0)],
            clock0,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        Harness {
            rt,
            peer_tx: tx1,
            peer_rx: rx1,
            rt_rx: rx0,
        }
    }

    impl Harness {
        fn obj(&self, name: &str) -> ObjectId {
            self.rt.table().var_by_name(name).unwrap().objects[0]
        }

        /// Delivers the next message addressed to node 0 into the runtime.
        fn pump(&self) {
            let (env, msg) = self.rt_rx.recv().unwrap();
            self.rt.handle_request(env, msg);
        }

        fn peer_recv(&self) -> DsmMsg {
            self.peer_rx.recv().unwrap().1
        }
    }

    #[test]
    fn read_fetch_returns_data_and_records_replica() {
        let h = harness();
        let ro = h.obj("ro");
        h.rt.install_object_bytes(ro, &[3u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "object_fetch",
                40,
                DsmMsg::ObjectFetch {
                    object: ro,
                    access: FetchKind::Read,
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::ObjectData {
                data,
                ownership,
                writable,
                ..
            } => {
                assert_eq!(data, vec![3u8; 32]);
                assert!(!ownership);
                assert!(!writable);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        assert!(h.rt.dir.lock().entry(ro).copyset.contains(NodeId::new(1)));
    }

    #[test]
    fn conventional_write_fetch_transfers_ownership_and_invalidates_owner() {
        let h = harness();
        let conv = h.obj("conv");
        h.peer_tx
            .send(
                NodeId::new(0),
                "object_fetch",
                40,
                DsmMsg::ObjectFetch {
                    object: conv,
                    access: FetchKind::Write,
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::ObjectData {
                ownership,
                writable,
                ..
            } => {
                assert!(ownership);
                assert!(writable);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        let dir = h.rt.dir.lock();
        let e = dir.entry(conv);
        assert_eq!(e.state.rights, AccessRights::Invalid);
        assert!(!e.state.owned);
        assert_eq!(e.probable_owner, NodeId::new(1));
    }

    #[test]
    fn fetch_for_busy_entry_is_deferred_until_transition_completes() {
        let h = harness();
        let conv = h.obj("conv");
        h.rt.dir.lock().entry_mut(conv).state.busy = true;
        h.peer_tx
            .send(
                NodeId::new(0),
                "object_fetch",
                40,
                DsmMsg::ObjectFetch {
                    object: conv,
                    access: FetchKind::Read,
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1);
        // Completing the transition and retrying serves the request.
        h.rt.dir.lock().entry_mut(conv).state.busy = false;
        h.rt.process_deferred();
        assert!(matches!(h.peer_recv(), DsmMsg::ObjectData { .. }));
    }

    /// The owner's `UpdateAck` carries its authoritative recorded copyset
    /// for every owned object in the update, so the flusher can heal members
    /// its determination missed.
    #[test]
    fn update_ack_from_owner_reports_recorded_copyset() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        // The owner recorded a replica at N1 (e.g. while serving a fetch).
        h.rt.dir.lock().entry_mut(ws).copyset.insert(NodeId::new(1));
        let d = diff::encode(&[1u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(d),
                    }],
                    requester: NodeId::new(1),
                    seq: 0,
                    needs_ack: true,
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::UpdateAck {
                count,
                owned_copysets,
            } => {
                assert_eq!(count, 1);
                assert_eq!(owned_copysets.len(), 1);
                let (object, cs) = &owned_copysets[0];
                let (object, cs) = (*object, cs.clone());
                assert_eq!(object, ws);
                assert!(cs.contains(NodeId::new(1)));
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// An update hitting an object whose fetch is in flight is deferred, not
    /// dropped: the in-flight object data predates the update, so discarding
    /// it would leave the just-installed copy permanently stale.
    #[test]
    fn update_for_mid_fetch_object_is_deferred_until_install() {
        let h = harness();
        let ws = h.obj("ws");
        // Simulate "fetch in flight": no local copy, busy bit set.
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.rights = AccessRights::Invalid;
            e.state.busy = true;
        }
        let d = diff::encode(&[9u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(d),
                    }],
                    requester: NodeId::new(1),
                    seq: 0,
                    needs_ack: true,
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "update must be deferred");
        // The fetch completes: data installed, busy cleared. The deferred
        // update is then applied on top of the installed (stale) copy.
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.busy = false;
            e.state.rights = AccessRights::Read;
        }
        h.rt.process_deferred();
        match h.peer_recv() {
            DsmMsg::UpdateAck { count, .. } => assert_eq!(count, 1),
            other => panic!("unexpected reply: {other:?}"),
        }
        assert_eq!(
            h.rt.object_bytes(ws),
            vec![9u8; 32],
            "deferred update applied after install"
        );
    }

    #[test]
    fn update_applies_diff_to_local_copy_and_acks() {
        let h = harness();
        let ws = h.obj("ws");
        let original = vec![0u8; 32];
        h.rt.install_object_bytes(ws, &original);
        let mut modified = original.clone();
        modified[0..4].copy_from_slice(&7u32.to_le_bytes());
        let d = diff::encode(&modified, &original);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(d),
                    }],
                    requester: NodeId::new(1),
                    seq: 0,
                    needs_ack: true,
                },
            )
            .unwrap();
        h.pump();
        assert!(matches!(h.peer_recv(), DsmMsg::UpdateAck { count: 1, .. }));
        assert_eq!(&h.rt.object_bytes(ws)[0..4], &7u32.to_le_bytes());
    }

    /// The unified carrier-install path: a bare carrier frame applies its
    /// bundle exactly like a standalone update (no ack, same diff apply).
    #[test]
    fn carrier_bundle_applies_like_an_update() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let d = diff::encode(&[5u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "carrier",
                64,
                DsmMsg::Carrier {
                    inner: None,
                    updates: vec![CarrierUpdate {
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: ws,
                            payload: UpdatePayload::Diff(d),
                        }],
                        sync_install: false,
                    }],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.object_bytes(ws), vec![5u8; 32]);
        assert_eq!(h.rt.stats().snapshot().updates_applied, 1);
        // Piggybacked bundles are never individually acknowledged.
        assert!(h.peer_rx.try_recv().unwrap().is_none());
    }

    /// A carrier bundle hitting a busy entry defers — same pin/busy
    /// discipline as a standalone update — and applies once the transition
    /// completes.
    #[test]
    fn carrier_bundle_for_busy_entry_is_deferred() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        h.rt.dir.lock().entry_mut(ws).state.busy = true;
        let d = diff::encode(&[9u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "carrier",
                64,
                DsmMsg::Carrier {
                    inner: None,
                    updates: vec![CarrierUpdate {
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: ws,
                            payload: UpdatePayload::Diff(d),
                        }],
                        sync_install: false,
                    }],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "bundle must defer on busy");
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
        h.rt.dir.lock().entry_mut(ws).state.busy = false;
        h.rt.process_deferred();
        assert_eq!(h.rt.object_bytes(ws), vec![9u8; 32]);
    }

    /// Sync-install bundles (lock-associated data on a grant carrier) force
    /// the install and apply the migratory ownership handover — the receive
    /// side of the old `install_piggyback`, now on the one carrier path.
    #[test]
    fn lock_grant_carrier_installs_migratory_data_with_ownership() {
        let h = harness();
        let mig = h.obj("mig");
        {
            // This node is not the owner and has no copy: a migratory grant
            // must install the image and hand over ownership anyway.
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(mig);
            e.state.rights = AccessRights::Invalid;
            e.state.owned = false;
            e.probable_owner = NodeId::new(1);
        }
        h.peer_tx
            .send(
                NodeId::new(0),
                "lock_grant",
                96,
                DsmMsg::Carrier {
                    inner: Some(Box::new(DsmMsg::LockGrant {
                        lock: crate::sync::LockId(0),
                        queue: vec![],
                    })),
                    updates: vec![CarrierUpdate {
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: mig,
                            payload: UpdatePayload::Full(vec![3u8; 32]),
                        }],
                        sync_install: true,
                    }],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.object_bytes(mig), vec![3u8; 32]);
        let dir = h.rt.dir.lock();
        let e = dir.entry(mig);
        assert_eq!(e.state.rights, AccessRights::ReadWrite);
        assert!(e.state.owned);
        assert_eq!(e.probable_owner, NodeId::new(0));
        drop(dir);
        // The framed grant itself was routed to the (test's) user mailbox
        // only after the install.
        let (_env, reply) = h.rt.reply_rx.try_recv().unwrap();
        assert!(matches!(reply, DsmMsg::LockGrant { .. }));
    }

    /// A one-level barrier relay: a report carrier's bundles are installed
    /// at the owner (its own share) or stashed there, and each stashed
    /// bundle rides the release headed to its destination — as does the
    /// owner's own flush bundle, stashed at its local arrival.
    #[test]
    fn barrier_arrive_relay_is_redistributed_on_the_releases() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let b = crate::sync::BarrierId(0);
        // Node 1 reports with a relay bundle for node 0 (the owner itself).
        let d0 = diff::encode(&[7u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "barrier_arrive",
                96,
                DsmMsg::Carrier {
                    inner: Some(Box::new(barrier_report(b, 1))),
                    updates: vec![],
                    relay: vec![RelayUpdate {
                        dest: NodeId::new(0),
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: ws,
                            payload: UpdatePayload::Diff(d0),
                        }],
                    }],
                },
            )
            .unwrap();
        h.pump();
        // The owner's share was installed at report-processing time, before
        // the barrier opened; nobody is released yet.
        assert_eq!(h.rt.object_bytes(ws), vec![7u8; 32]);
        assert!(h.peer_rx.try_recv().unwrap().is_none());
        // The owner arrives with a bundle of its own for node 1.
        let d1 = diff::encode(&[9u8; 32], &[7u8; 32]);
        let mut relay = std::collections::BTreeMap::new();
        relay.insert(
            NodeId::new(1),
            vec![UpdateItem {
                object: ws,
                payload: UpdatePayload::Diff(d1),
            }],
        );
        h.rt.barrier_arrive_local(b, relay);
        match h.peer_recv() {
            DsmMsg::Carrier {
                inner: Some(inner),
                updates,
                relay,
            } => {
                assert!(matches!(*inner, DsmMsg::BarrierRelease { gen: 1, .. }));
                assert_eq!(updates.len(), 1);
                assert_eq!(updates[0].from, NodeId::new(0));
                assert!(relay.is_empty());
            }
            other => panic!("expected a release carrier, got {other:?}"),
        }
        // The owner's own release went straight to its user thread, not on
        // the wire.
        let (_env, own) = h.rt.reply_rx.try_recv().unwrap();
        assert!(matches!(own, DsmMsg::BarrierRelease { gen: 1, .. }));
        assert!(h.rt_rx.try_recv().unwrap().is_none());
    }

    /// The cross-link reordering regression the update sequence stream
    /// exists for: a barrier-relayed bundle (seq 0, travelling via the
    /// barrier owner) is overtaken by a newer direct update (seq 1, on the
    /// flusher's own link). The direct update must defer until the relayed
    /// bundle lands, and a late duplicate of the old bundle must be dropped
    /// — never applied over the newer data.
    #[test]
    fn update_stream_orders_relayed_and_direct_updates_across_links() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let old_diff = diff::encode(&[1u8; 32], &[0u8; 32]);
        let new_diff = diff::encode(&[2u8; 32], &[1u8; 32]);
        // The newer direct update (seq 1) arrives first: it must defer.
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(new_diff),
                    }],
                    requester: NodeId::new(1),
                    seq: 1,
                    needs_ack: true,
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "early update must defer");
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
        // The relayed bundle (seq 0) lands — e.g. on a BarrierRelease
        // carrier — and unblocks the stream.
        h.peer_tx
            .send(
                NodeId::new(0),
                "barrier_release",
                96,
                DsmMsg::Carrier {
                    inner: Some(Box::new(DsmMsg::BarrierRelease {
                        barrier: crate::sync::BarrierId(0),
                        gen: 1,
                    })),
                    updates: vec![CarrierUpdate {
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: ws,
                            payload: UpdatePayload::Diff(old_diff.clone()),
                        }],
                        sync_install: false,
                    }],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        h.rt.process_deferred();
        // Both applied, in stream order: the copy holds the *newer* data.
        assert_eq!(h.rt.object_bytes(ws), vec![2u8; 32]);
        assert!(matches!(h.peer_recv(), DsmMsg::UpdateAck { count: 1, .. }));
        // A duplicate of the old bundle is stale and must be dropped.
        h.peer_tx
            .send(
                NodeId::new(0),
                "carrier",
                64,
                DsmMsg::Carrier {
                    inner: None,
                    updates: vec![CarrierUpdate {
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: ws,
                            payload: UpdatePayload::Diff(old_diff),
                        }],
                        sync_install: false,
                    }],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(
            h.rt.object_bytes(ws),
            vec![2u8; 32],
            "stale bundle must not regress the copy"
        );
    }

    #[test]
    fn invalidate_drops_copy_and_acknowledges() {
        let h = harness();
        let conv = h.obj("conv");
        h.peer_tx
            .send(
                NodeId::new(0),
                "invalidate",
                40,
                DsmMsg::Invalidate {
                    object: conv,
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        assert!(matches!(h.peer_recv(), DsmMsg::InvalidateAck { .. }));
        assert_eq!(
            h.rt.dir.lock().entry(conv).state.rights,
            AccessRights::Invalid
        );
    }

    #[test]
    fn copyset_query_reports_held_objects_only() {
        let h = harness();
        let ro = h.obj("ro");
        let ws = h.obj("ws");
        // Drop the write-shared copy so only `ro` is held.
        h.rt.dir.lock().entry_mut(ws).state.rights = AccessRights::Invalid;
        h.peer_tx
            .send(
                NodeId::new(0),
                "copyset_query",
                40,
                DsmMsg::CopysetQuery {
                    objects: vec![ro, ws].into(),
                    requester: NodeId::new(1),
                    recovery: false,
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::CopysetReply { have } => assert_eq!(have, vec![ro]),
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// A flush's copyset query waits out a fetch in progress (the fetched
    /// copy must not miss the update), but crash recovery's "who still holds
    /// a copy" query is answered at once: two survivors faulting on the same
    /// orphan each hold their entry busy while asking the other, and would
    /// otherwise defer each other's query forever.
    #[test]
    fn recovery_copyset_query_is_never_deferred_on_a_busy_entry() {
        let h = harness();
        let conv = h.obj("conv");
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(conv);
            e.state.busy = true;
            e.state.rights = AccessRights::Invalid;
        }
        let query = |recovery| DsmMsg::CopysetQuery {
            objects: vec![conv].into(),
            requester: NodeId::new(1),
            recovery,
        };
        h.peer_tx
            .send(NodeId::new(0), "copyset_query", 40, query(false))
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "flush query must wait");
        assert!(h.peer_rx.try_recv().unwrap().is_none());
        h.peer_tx
            .send(NodeId::new(0), "copyset_query", 40, query(true))
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::CopysetReply { have } => assert!(have.is_empty()),
            other => panic!("unexpected reply: {other:?}"),
        }
        assert_eq!(h.rt.deferred.lock().len(), 1);
    }

    #[test]
    fn reduce_request_applies_fetch_and_min() {
        let h = harness();
        let red = h.obj("red");
        h.rt.install_object_bytes(red, &{
            let mut v = vec![0u8; 16];
            v[0..8].copy_from_slice(&100i64.to_le_bytes());
            v
        });
        h.peer_tx
            .send(
                NodeId::new(0),
                "reduce_request",
                56,
                DsmMsg::ReduceRequest {
                    object: red,
                    offset: 0,
                    op: ReduceOp::MinI64(42),
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::ReduceReply { old } => {
                assert_eq!(i64::from_le_bytes(old.try_into().unwrap()), 100);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        let bytes = h.rt.object_bytes(red);
        assert_eq!(i64::from_le_bytes(bytes[0..8].try_into().unwrap()), 42);
    }

    #[test]
    fn lock_acquire_on_free_lock_grants_ownership() {
        let h = harness();
        h.peer_tx
            .send(
                NodeId::new(0),
                "lock_acquire",
                40,
                DsmMsg::LockAcquire {
                    lock: crate::sync::LockId(0),
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        assert!(matches!(h.peer_recv(), DsmMsg::LockGrant { .. }));
        assert!(!h.rt.sync.lock().lock(crate::sync::LockId(0)).owned);
    }

    /// A single-node report to the owner of a one-level barrier.
    fn barrier_report(barrier: crate::sync::BarrierId, from: usize) -> DsmMsg {
        DsmMsg::BarrierArrive {
            barrier,
            from: NodeId::new(from),
            gen: 1,
            arrived: crate::nodeset::NodeSet::from_nodes([NodeId::new(from)]),
        }
    }

    #[test]
    fn barrier_releases_after_all_arrivals() {
        let h = harness();
        let b = crate::sync::BarrierId(0);
        // Node 1 arrives first: no release yet.
        h.peer_tx
            .send(NodeId::new(0), "barrier_arrive", 40, barrier_report(b, 1))
            .unwrap();
        h.pump();
        assert!(h.peer_rx.try_recv().unwrap().is_none());
        assert_eq!(h.rt.stats().snapshot().barrier_owner_ingress, 1);
        // Node 0 arrives locally: node 1 gets released on the wire, node 0's
        // own release goes straight to its user thread.
        h.rt.barrier_arrive_local(b, std::collections::BTreeMap::new());
        assert!(matches!(
            h.peer_recv(),
            DsmMsg::BarrierRelease { gen: 1, .. }
        ));
        assert!(matches!(
            h.rt.reply_rx.try_recv().unwrap().1,
            DsmMsg::BarrierRelease { gen: 1, .. }
        ));
        // The owner's arrival was not a message.
        assert_eq!(h.rt.stats().snapshot().barrier_owner_ingress, 1);
    }

    /// Three nodes, one level: a bundle from node 1 to node 2 rides node 1's
    /// report to the owner and node 2's release from it.
    #[test]
    fn barrier_relay_reaches_a_sibling_on_its_release() {
        let h = harness3();
        let ws = h.obj("ws");
        let b = crate::sync::BarrierId(0);
        let d = diff::encode(&[5u8; 32], &[0u8; 32]);
        h.tx1
            .send(
                NodeId::new(0),
                "barrier_arrive",
                96,
                DsmMsg::Carrier {
                    inner: Some(Box::new(barrier_report(b, 1))),
                    updates: vec![],
                    relay: vec![RelayUpdate {
                        dest: NodeId::new(2),
                        from: NodeId::new(1),
                        seq: 0,
                        items: vec![UpdateItem {
                            object: ws,
                            payload: UpdatePayload::Diff(d),
                        }],
                    }],
                },
            )
            .unwrap();
        h.pump();
        h.rt.handle_request(
            Envelope {
                src: NodeId::new(2),
                dst: NodeId::new(0),
                class: "barrier_arrive",
                model_bytes: 40,
                sent_at: munin_sim::VirtTime::ZERO,
                arrival: munin_sim::VirtTime::ZERO,
            },
            barrier_report(b, 2),
        );
        assert!(h.rx1.try_recv().unwrap().is_none(), "owner has not arrived");
        h.rt.barrier_arrive_local(b, std::collections::BTreeMap::new());
        assert!(matches!(
            h.rx1.recv().unwrap().1,
            DsmMsg::BarrierRelease { gen: 1, .. }
        ));
        match h.rx2.recv().unwrap().1 {
            DsmMsg::Carrier {
                inner: Some(inner),
                updates,
                ..
            } => {
                assert!(matches!(*inner, DsmMsg::BarrierRelease { gen: 1, .. }));
                assert_eq!(updates.len(), 1);
                assert_eq!(updates[0].from, NodeId::new(1));
            }
            other => panic!("expected node 2's release to carry the bundle, got {other:?}"),
        }
    }

    // --- reliability-layer idempotence -----------------------------------
    //
    // These tests forge `Reliable` frames straight into `handle_incoming`,
    // modelling a retransmission whose original was *not* lost: the handler
    // behind each frame must run exactly once. The handlers covered are the
    // ones that are not naturally idempotent — a re-dispatched barrier
    // arrival advances the arrival count, a re-dispatched lock acquire
    // re-grants the lock, a re-dispatched update re-enters the seq check,
    // and a re-routed invalidate ack desynchronizes the requester's
    // ack-counting loop with a phantom reply.

    /// Envelope for a forged frame from node 1.
    fn rel_env() -> Envelope {
        Envelope {
            src: NodeId::new(1),
            dst: NodeId::new(0),
            class: "reliable",
            model_bytes: 40,
            sent_at: munin_sim::VirtTime::ZERO,
            arrival: munin_sim::VirtTime::ZERO,
        }
    }

    fn rel_frame(id: u64, inner: DsmMsg) -> DsmMsg {
        DsmMsg::Reliable {
            id,
            ack: 0,
            inner: Box::new(inner),
        }
    }

    /// Strips transport (`Reliable`) and carrier framing off a message.
    fn innermost(m: DsmMsg) -> Option<DsmMsg> {
        match m {
            DsmMsg::Reliable { inner, .. } => innermost(*inner),
            DsmMsg::Carrier {
                inner: Some(inner), ..
            } => innermost(*inner),
            DsmMsg::Carrier { inner: None, .. } => None,
            other => Some(other),
        }
    }

    #[test]
    fn duplicate_barrier_arrive_is_counted_once() {
        let h = reliable_harness();
        let b = crate::sync::BarrierId(0);
        // The owner is already waiting: node 1's report opens the barrier.
        h.rt.barrier_arrive_local(b, std::collections::BTreeMap::new());
        let arrive = barrier_report(b, 1);
        h.rt.handle_incoming(rel_env(), rel_frame(1, arrive.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, arrive));
        // Were the duplicate dispatched it would be a stale report, answered
        // with a second (direct) release; the peer must see exactly one
        // release plus the dedup quench ack.
        let mut releases = 0;
        let mut net_acks = 0;
        while let Some((_env, m)) = h.peer_rx.try_recv().unwrap() {
            match (matches!(m, DsmMsg::NetAck { .. }), innermost(m)) {
                (true, _) => net_acks += 1,
                (false, Some(DsmMsg::BarrierRelease { .. })) => releases += 1,
                _ => {}
            }
        }
        assert_eq!(releases, 1, "duplicate barrier arrival released twice");
        assert_eq!(net_acks, 1);
        assert_eq!(h.rt.stats().snapshot().dup_msgs_dropped, 1);
        assert_eq!(h.rt.stats().snapshot().barrier_owner_ingress, 1);
    }

    /// Under crash recovery a read fetch can be answered twice (the
    /// original fetch was alive after all, and a recovery `Adopt` produced a
    /// second copy): only the awaited one reaches the user thread, so the
    /// stray cannot fail the next wait. Ownership transfers always route.
    #[test]
    fn duplicate_read_copies_are_absorbed_under_recovery() {
        let h =
            harness_with(MuninConfig::fast_test(2).with_detect(std::time::Duration::from_secs(5)));
        let ro = h.obj("ro");
        let env = rel_env();
        let data = |ownership| DsmMsg::ObjectData {
            object: ro,
            data: vec![0; 32],
            ownership,
            copyset: CopySet::EMPTY,
            writable: false,
        };
        h.rt.waiting_fetch
            .store(ro.as_u32() + 1, std::sync::atomic::Ordering::Release);
        h.rt.route_to_user(env, data(false));
        h.rt.route_to_user(env, data(false));
        assert!(h.rt.reply_rx.try_recv().is_ok(), "the awaited copy routes");
        assert!(
            h.rt.reply_rx.try_recv().is_err(),
            "the duplicate is absorbed"
        );
        h.rt.route_to_user(env, data(true));
        assert!(h.rt.reply_rx.try_recv().is_ok(), "ownership always routes");
    }

    #[test]
    fn duplicate_lock_acquire_grants_once() {
        let h = reliable_harness();
        let acquire = DsmMsg::LockAcquire {
            lock: crate::sync::LockId(0),
            requester: NodeId::new(1),
        };
        h.rt.handle_incoming(rel_env(), rel_frame(1, acquire.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, acquire));
        let mut grants = 0;
        while let Some((_env, m)) = h.peer_rx.try_recv().unwrap() {
            if let Some(DsmMsg::LockGrant { .. }) = innermost(m) {
                grants += 1;
            }
        }
        assert_eq!(grants, 1, "duplicate lock acquire must not re-grant");
        assert_eq!(h.rt.stats().snapshot().dup_msgs_dropped, 1);
    }

    #[test]
    fn duplicate_update_is_dropped_before_the_seq_check() {
        let h = reliable_harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let d = diff::encode(&[1u8; 32], &[0u8; 32]);
        let update = DsmMsg::Update {
            items: vec![UpdateItem {
                object: ws,
                payload: UpdatePayload::Diff(d),
            }],
            requester: NodeId::new(1),
            seq: 0,
            needs_ack: true,
        };
        h.rt.handle_incoming(rel_env(), rel_frame(1, update.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, update));
        let snap = h.rt.stats().snapshot();
        assert_eq!(snap.updates_applied, 1);
        assert_eq!(snap.dup_msgs_dropped, 1);
        // Exactly one real UpdateAck; the duplicate is answered by the
        // transport's NetAck, never by a second (count: 0) protocol ack.
        let mut update_acks = 0;
        let mut net_acks = 0;
        while let Some((_env, m)) = h.peer_rx.try_recv().unwrap() {
            match (matches!(m, DsmMsg::NetAck { .. }), innermost(m)) {
                (true, _) => net_acks += 1,
                (false, Some(DsmMsg::UpdateAck { .. })) => update_acks += 1,
                _ => {}
            }
        }
        assert_eq!(update_acks, 1);
        assert_eq!(net_acks, 1);
    }

    #[test]
    fn duplicate_invalidate_ack_routes_to_user_once() {
        let h = reliable_harness();
        let ack = DsmMsg::InvalidateAck {
            object: h.obj("ws"),
        };
        h.rt.handle_incoming(rel_env(), rel_frame(1, ack.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, ack));
        // A phantom second ack would make a later ack-counting wait return
        // early; exactly one reply may reach the user mailbox.
        assert!(h.rt.reply_rx.try_recv().is_ok());
        assert!(h.rt.reply_rx.try_recv().is_err());
        assert_eq!(h.rt.stats().snapshot().dup_msgs_dropped, 1);
    }

    #[test]
    fn out_of_order_frames_are_released_in_id_order() {
        let h = reliable_harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let first = DsmMsg::Update {
            items: vec![UpdateItem {
                object: ws,
                payload: UpdatePayload::Diff(diff::encode(&[1u8; 32], &[0u8; 32])),
            }],
            requester: NodeId::new(1),
            seq: 0,
            needs_ack: false,
        };
        let second = DsmMsg::Update {
            items: vec![UpdateItem {
                object: ws,
                payload: UpdatePayload::Diff(diff::encode(&[2u8; 32], &[1u8; 32])),
            }],
            requester: NodeId::new(1),
            seq: 1,
            needs_ack: false,
        };
        // Frame 2 arrives first: buffered, nothing dispatched.
        h.rt.handle_incoming(rel_env(), rel_frame(2, second));
        assert_eq!(h.rt.stats().snapshot().updates_applied, 0);
        // Frame 1 fills the gap: both dispatch, in id order.
        h.rt.handle_incoming(rel_env(), rel_frame(1, first));
        assert_eq!(h.rt.stats().snapshot().updates_applied, 2);
        assert_eq!(h.rt.object_bytes(ws), vec![2u8; 32]);
    }

    #[test]
    fn cumulative_ack_releases_held_messages() {
        let h = reliable_harness();
        let ws = h.obj("ws");
        let invalidate = DsmMsg::Invalidate {
            object: ws,
            requester: NodeId::new(0),
        };
        h.rt.send(NodeId::new(1), invalidate.clone()).unwrap();
        h.rt.send(NodeId::new(1), invalidate).unwrap();
        assert!(h.rt.has_unacked());
        // Acking id 1 still leaves id 2 held; acking through id 2 clears.
        h.rt.handle_incoming(rel_env(), DsmMsg::NetAck { upto: 1 });
        assert!(h.rt.has_unacked());
        h.rt.handle_incoming(rel_env(), DsmMsg::NetAck { upto: 2 });
        assert!(!h.rt.has_unacked());
    }

    /// Three-node variant of the harness: node 0 hosts the runtime, nodes 1
    /// and 2 are driven manually — enough fan-out to watch an owner re-fan a
    /// cooperative bundle to a copyset member that is not the origin.
    struct Harness3 {
        rt: Arc<NodeRuntime>,
        tx1: munin_sim::Sender<DsmMsg>,
        rx1: munin_sim::Receiver<DsmMsg>,
        tx2: munin_sim::Sender<DsmMsg>,
        rx2: munin_sim::Receiver<DsmMsg>,
        rt_rx: munin_sim::Receiver<DsmMsg>,
    }

    fn harness3() -> Harness3 {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8, false);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3).with_piggyback(true));
        let clock0 = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock0.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let (tx2, rx2) = net.endpoint(2, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![NodeId::new(0)],
            vec![NodeId::new(0)],
            clock0,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        Harness3 {
            rt,
            tx1,
            rx1,
            tx2,
            rx2,
            rt_rx: rx0,
        }
    }

    impl Harness3 {
        fn obj(&self, name: &str) -> ObjectId {
            self.rt.table().var_by_name(name).unwrap().objects[0]
        }

        fn pump(&self) {
            let (env, msg) = self.rt_rx.recv().unwrap();
            self.rt.handle_request(env, msg);
        }
    }

    /// The owner side of the cooperative relay: a `RelayFanout` bundle from
    /// the origin is installed locally, re-fanned to the authoritative
    /// copyset members (excluding the origin), and acknowledged with the
    /// re-fan destination list.
    #[test]
    fn relay_fanout_installs_refans_and_acks_origin() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        // The owner's recorded copyset: the origin (1) and a bystander (2).
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.copyset.insert(NodeId::new(2));
        }
        let d = diff::encode(&[4u8; 32], &[0u8; 32]);
        h.tx1
            .send(
                NodeId::new(0),
                "relay_fanout",
                64,
                DsmMsg::RelayFanout {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(d),
                    }],
                    origin: NodeId::new(1),
                    seq: 0,
                },
            )
            .unwrap();
        h.pump();
        // Install-before-dispatch: the owner's copy carries the diff.
        assert_eq!(h.rt.object_bytes(ws), vec![4u8; 32]);
        // Node 2 got the forward (and only node 2: the origin is excluded).
        match h.rx2.recv().unwrap().1 {
            DsmMsg::RelayForward { items, origin, seq } => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].object, ws);
                assert_eq!(origin, NodeId::new(1));
                assert_eq!(seq, 0);
            }
            other => panic!("expected RelayForward at N2, got {other:?}"),
        }
        // The origin got the ack naming the re-fan destination.
        match h.rx1.recv().unwrap().1 {
            DsmMsg::RelayFanoutAck { refanned, rejected } => {
                assert_eq!(refanned, vec![NodeId::new(2)]);
                assert!(rejected.is_empty());
            }
            other => panic!("expected RelayFanoutAck at origin, got {other:?}"),
        }
        assert_eq!(h.rt.stats().snapshot().owner_refans, 1);
    }

    /// A stale ownership hint: the fanout target does not own the object, so
    /// the bundle is bounced back untouched — not installed, not re-fanned —
    /// and the origin's ack names the rejected object.
    #[test]
    fn relay_fanout_bounces_unowned_objects() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.owned = false;
            e.probable_owner = NodeId::new(2);
            e.copyset.insert(NodeId::new(2));
        }
        let d = diff::encode(&[9u8; 32], &[0u8; 32]);
        h.tx1
            .send(
                NodeId::new(0),
                "relay_fanout",
                64,
                DsmMsg::RelayFanout {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(d),
                    }],
                    origin: NodeId::new(1),
                    seq: 0,
                },
            )
            .unwrap();
        h.pump();
        match h.rx1.recv().unwrap().1 {
            DsmMsg::RelayFanoutAck { refanned, rejected } => {
                assert!(refanned.is_empty());
                assert_eq!(rejected, vec![ws]);
            }
            other => panic!("expected RelayFanoutAck, got {other:?}"),
        }
        // Neither installed nor counted as a re-fan.
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
        assert_eq!(h.rt.stats().snapshot().owner_refans, 0);
    }

    /// The destination side of the cooperative relay: a `RelayForward`
    /// applies immediately — exempt from the per-stream sequence check, since
    /// it carries no slot of the forwarding owner's update stream — and the
    /// ack goes to the *origin*, whose flush is counting it, not back to the
    /// forwarding owner.
    #[test]
    fn relay_forward_applies_without_seq_check_and_acks_origin() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let d = diff::encode(&[6u8; 32], &[0u8; 32]);
        // seq 7 on a stream that has seen nothing: an ordinary Update would
        // be deferred as early; the forward must apply at once.
        h.tx1
            .send(
                NodeId::new(0),
                "relay_forward",
                64,
                DsmMsg::RelayForward {
                    items: vec![UpdateItem {
                        object: ws,
                        payload: UpdatePayload::Diff(d),
                    }],
                    origin: NodeId::new(2),
                    seq: 7,
                },
            )
            .unwrap();
        h.pump();
        assert!(h.rt.deferred.lock().is_empty(), "forwards are not deferred");
        assert_eq!(h.rt.object_bytes(ws), vec![6u8; 32]);
        match h.rx2.recv().unwrap().1 {
            DsmMsg::UpdateAck { count, .. } => assert_eq!(count, 1),
            other => panic!("expected UpdateAck at the origin, got {other:?}"),
        }
    }

    /// The four update-bearing receive kinds, for the admission-gate table.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Update,
        Fanout,
        Forward,
        Carrier,
    }

    const KINDS: [Kind; 4] = [Kind::Update, Kind::Fanout, Kind::Forward, Kind::Carrier];

    impl Harness3 {
        /// Delivers one `kind` transmission of `data` (a full diff over the
        /// zeroed `ws` copy) at stream slot `seq` of node 1, the origin. A
        /// forward arrives from node 2 (the re-fanning owner) on node 1's
        /// behalf; everything else comes straight from node 1.
        fn deliver(&self, kind: Kind, seq: u64, data: u8) {
            let ws = self.obj("ws");
            let items = vec![UpdateItem {
                object: ws,
                payload: UpdatePayload::Diff(diff::encode(&[data; 32], &[0u8; 32])),
            }];
            let origin = NodeId::new(1);
            let (tx, msg) = match kind {
                Kind::Update => (
                    &self.tx1,
                    DsmMsg::Update {
                        items,
                        requester: origin,
                        seq,
                        needs_ack: true,
                    },
                ),
                Kind::Fanout => (&self.tx1, DsmMsg::RelayFanout { items, origin, seq }),
                Kind::Forward => (&self.tx2, DsmMsg::RelayForward { items, origin, seq }),
                Kind::Carrier => (
                    &self.tx1,
                    DsmMsg::Carrier {
                        inner: None,
                        updates: vec![CarrierUpdate {
                            from: origin,
                            seq,
                            items,
                            sync_install: false,
                        }],
                        relay: vec![],
                    },
                ),
            };
            tx.send(NodeId::new(0), "update", 64, msg).unwrap();
            self.pump();
        }

        /// Asserts the origin's next reply is `kind`'s acknowledgement
        /// counting `applied` items (carriers are never acknowledged).
        fn expect_reply(&self, kind: Kind, applied: usize) {
            match (kind, self.rx1.try_recv().unwrap().map(|(_, m)| m)) {
                (Kind::Carrier, None) => {}
                (Kind::Update | Kind::Forward, Some(DsmMsg::UpdateAck { count, .. })) => {
                    assert_eq!(count, applied, "{kind:?} ack count")
                }
                (Kind::Fanout, Some(DsmMsg::RelayFanoutAck { refanned, rejected })) => {
                    assert!(refanned.is_empty() && rejected.is_empty(), "{kind:?} ack")
                }
                (_, other) => panic!("{kind:?}: unexpected reply {other:?}"),
            }
        }

        fn ws_bytes(&self) -> Vec<u8> {
            self.rt.object_bytes(self.obj("ws"))
        }
    }

    /// Admission gate, case 1: a transmission touching a busy (mid-fetch)
    /// or pinned (in-flight user access) entry defers without replying, and
    /// is applied and answered once the entry clears.
    #[test]
    fn every_update_kind_defers_on_a_busy_or_pinned_entry() {
        for kind in KINDS {
            for pinned in [false, true] {
                let h = harness3();
                let ws = h.obj("ws");
                h.rt.install_object_bytes(ws, &[0u8; 32]);
                let set = |on: bool| {
                    let mut dir = h.rt.dir.lock();
                    let st = &mut dir.entry_mut(ws).state;
                    if pinned {
                        st.pinned = on;
                    } else {
                        st.busy = on;
                    }
                };
                set(true);
                h.deliver(kind, 0, 3);
                assert_eq!(h.rt.deferred.lock().len(), 1, "{kind:?} pinned={pinned}");
                assert_eq!(h.ws_bytes(), vec![0u8; 32], "{kind:?} applied early");
                assert!(
                    h.rx1.try_recv().unwrap().is_none(),
                    "{kind:?} replied early"
                );
                set(false);
                h.rt.process_deferred();
                assert!(h.rt.deferred.lock().is_empty());
                assert_eq!(h.ws_bytes(), vec![3u8; 32], "{kind:?} pinned={pinned}");
                h.expect_reply(kind, 1);
            }
        }
    }

    /// Admission gate, case 2: a transmission ahead of its source's stream
    /// defers until the gap closes (here by a bare carrier bundle holding
    /// slot 0), then applies on top. Forwards carry no slot of a stream and
    /// apply at once.
    #[test]
    fn every_sequenced_update_kind_defers_an_early_seq_until_the_gap_closes() {
        for kind in KINDS {
            let h = harness3();
            h.rt.install_object_bytes(h.obj("ws"), &[0u8; 32]);
            h.deliver(kind, 1, 2);
            if kind == Kind::Forward {
                assert!(h.rt.deferred.lock().is_empty(), "forwards are exempt");
                assert_eq!(h.ws_bytes(), vec![2u8; 32]);
                h.expect_reply(kind, 1);
                continue;
            }
            assert_eq!(h.rt.deferred.lock().len(), 1, "{kind:?} must defer");
            assert_eq!(h.ws_bytes(), vec![0u8; 32]);
            assert!(
                h.rx1.try_recv().unwrap().is_none(),
                "{kind:?} replied early"
            );
            h.deliver(Kind::Carrier, 0, 1);
            h.rt.process_deferred();
            assert!(h.rt.deferred.lock().is_empty());
            assert_eq!(h.ws_bytes(), vec![2u8; 32], "{kind:?}: stream order");
            h.expect_reply(kind, 1);
        }
    }

    /// Admission gate, case 3: a duplicate of an already-consumed slot is
    /// dropped — never applied over newer data — and answered with its
    /// kind's empty reply, so the origin's per-message ack count stays
    /// whole. Forwards are exempt and apply again.
    #[test]
    fn every_sequenced_update_kind_drops_a_stale_seq_with_an_empty_reply() {
        for kind in KINDS {
            let h = harness3();
            h.rt.install_object_bytes(h.obj("ws"), &[0u8; 32]);
            h.deliver(kind, 0, 4);
            assert_eq!(h.ws_bytes(), vec![4u8; 32]);
            h.expect_reply(kind, 1);
            h.rt.install_object_bytes(h.obj("ws"), &[0u8; 32]);
            h.deliver(kind, 0, 5);
            assert!(
                h.rt.deferred.lock().is_empty(),
                "{kind:?}: stale never defers"
            );
            if kind == Kind::Forward {
                assert_eq!(h.ws_bytes(), vec![5u8; 32], "forwards are exempt");
                h.expect_reply(kind, 1);
            } else {
                assert_eq!(h.ws_bytes(), vec![0u8; 32], "{kind:?}: stale applied");
                h.expect_reply(kind, 0);
            }
        }
    }

    /// The multi-writer flush on `Invalidate`: a dirty write-shared copy's
    /// pending changes go to the invalidator ahead of (or framed with) the
    /// ack, and count as one update transmission.
    #[test]
    fn invalidating_a_dirty_write_shared_copy_flushes_and_counts_the_update() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.write_fault(ws).unwrap();
        h.rt.install_object_bytes(ws, &[7u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "invalidate",
                40,
                DsmMsg::Invalidate {
                    object: ws,
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        let flushed = |items: &[UpdateItem]| items.len() == 1 && items[0].object == ws;
        if h.rt.cfg.piggyback {
            match h.peer_recv() {
                DsmMsg::Carrier {
                    inner: Some(inner),
                    updates,
                    relay,
                } => {
                    assert!(matches!(*inner, DsmMsg::InvalidateAck { object } if object == ws));
                    assert_eq!(updates.len(), 1);
                    assert!(!updates[0].sync_install && flushed(&updates[0].items));
                    assert!(relay.is_empty());
                }
                other => panic!("expected Carrier{{InvalidateAck + bundle}}, got {other:?}"),
            }
        } else {
            match h.peer_recv() {
                DsmMsg::Update { items, .. } => assert!(flushed(&items)),
                other => panic!("expected the flush Update first, got {other:?}"),
            }
            assert!(matches!(h.peer_recv(), DsmMsg::InvalidateAck { .. }));
        }
        assert!(h.peer_rx.try_recv().unwrap().is_none());
        let stats = h.rt.stats().snapshot();
        assert_eq!(stats.updates_sent, 1);
        assert!(stats.update_bytes_sent > 0);
        assert_eq!(
            h.rt.dir.lock().entry(ws).state.rights,
            AccessRights::Invalid
        );
    }
}
