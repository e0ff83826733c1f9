//! The DSM wire protocol.
//!
//! These are the messages the Munin nodes exchange: object fetches and
//! replies, invalidations, delayed-update propagation, copyset determination
//! queries, `Fetch_and_Φ` requests for reduction objects, the distributed
//! queue-based lock and barrier traffic, and program-control messages.
//!
//! Every message also carries a modelled wire size (computed by
//! [`DsmMsg::model_bytes`]) which drives the simulated transmission time.

use munin_sim::NodeId;

use crate::copyset::CopySet;
use crate::diff::Diff;
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::sync::{BarrierId, LockId};

/// Whether a fetch wants a readable copy or a writable copy (with ownership,
/// for the ownership-based protocols).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchKind {
    /// A readable replica is sufficient.
    Read,
    /// The faulting thread intends to write; ownership must transfer for
    /// single-writer protocols.
    Write,
}

/// Payload of one object inside an update message: either a run-length
/// encoded diff against the twin, or the complete object contents.
///
/// The diff variant carries the flat wire-format buffer behind an
/// `Arc<[u8]>` (see [`crate::diff::Diff`]), so cloning the payload for each
/// destination of a flush fan-out shares one encoding instead of deep-
/// copying run vectors.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdatePayload {
    /// Flat word diff produced by [`crate::diff::DiffScratch::encode`].
    Diff(Diff),
    /// The full object image (used when no twin exists).
    Full(Vec<u8>),
}

impl UpdatePayload {
    /// Modelled wire size of the payload in bytes.
    pub fn model_bytes(&self) -> u64 {
        match self {
            UpdatePayload::Diff(d) => d.encoded_bytes() as u64,
            UpdatePayload::Full(data) => data.len() as u64,
        }
    }
}

/// One object's worth of changes inside an update message.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateItem {
    /// The object being updated.
    pub object: ObjectId,
    /// The changes.
    pub payload: UpdatePayload,
}

/// A bundle of update items piggybacked on a carrier message, destined for
/// the carrier's receiver. Installed by the unified carrier-install path
/// (`NodeRuntime::install_carrier_updates`) *before* the carrier's inner
/// message is dispatched, so a piggybacked release or grant can never be
/// observed ahead of the data it carries.
#[derive(Clone, Debug, PartialEq)]
pub struct CarrierUpdate {
    /// The node whose changes these are (piggybacked bundles are never
    /// individually acknowledged; `from` also names the sequence stream).
    pub from: NodeId,
    /// Position in the `from` → receiver update sequence stream (see
    /// [`DsmMsg::Update::seq`]). Ignored for `sync_install` bundles, which
    /// are ordered by the lock token they travel with.
    pub seq: u64,
    /// The changes, one entry per object, in application order.
    pub items: Vec<UpdateItem>,
    /// `true` for data associated with a synchronization object
    /// (`AssociateDataAndSynch` payloads on a lock grant): the items are
    /// *installed* — full images written even where no local copy exists,
    /// with the migratory ownership handover applied — rather than applied
    /// only to existing copies like flush updates.
    pub sync_install: bool,
}

impl CarrierUpdate {
    /// The same bundle sent on its own: a standalone `Update` in the same
    /// stream slot.
    pub fn into_update(self, needs_ack: bool) -> DsmMsg {
        DsmMsg::Update {
            items: self.items,
            requester: self.from,
            seq: self.seq,
            needs_ack,
        }
    }
}

/// A flush update riding `BarrierArrive` reports up the barrier tree, or a
/// `BarrierRelease` down it, towards `dest` — where it is installed before
/// the release that frames it is routed to the user thread. Two kinds of flush
/// travel this way (see `DESIGN.md`, "Carrier layer"), each with its own
/// safety argument: *owner-flushed* fan-out updates (the flusher serves all
/// fetches for those objects from live memory, so a copy that missed the
/// relayed update is impossible) and *`result`-object flushes homed at the
/// barrier owner* (the owner installs the bundle before counting the
/// arrival, which is at least as early as the legacy apply-then-ack).
#[derive(Clone, Debug, PartialEq)]
pub struct RelayUpdate {
    /// The copyset member the bundle must reach with the release.
    pub dest: NodeId,
    /// The flushing node.
    pub from: NodeId,
    /// Position in the `from` → `dest` update sequence stream (see
    /// [`DsmMsg::Update::seq`]): assigned by the flusher, carried through
    /// the barrier owner unchanged.
    pub seq: u64,
    /// The changes, one entry per object, in application order.
    pub items: Vec<UpdateItem>,
}

/// A `Fetch_and_Φ` operation on a reduction object, executed atomically at
/// the object's fixed owner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReduceOp {
    /// Return the current value without modifying it.
    Read,
    /// Fetch-and-add on a 64-bit signed integer element.
    AddI64(i64),
    /// Fetch-and-min on a 64-bit signed integer element.
    MinI64(i64),
    /// Fetch-and-max on a 64-bit signed integer element.
    MaxI64(i64),
    /// Fetch-and-add on a 64-bit float element.
    AddF64(f64),
    /// Fetch-and-min on a 64-bit float element.
    MinF64(f64),
    /// Fetch-and-max on a 64-bit float element.
    MaxF64(f64),
}

/// Messages exchanged by Munin nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum DsmMsg {
    /// Request a copy of `object` (forwarded along the probable-owner chain
    /// until it reaches the owner, which replies directly to `requester`).
    ObjectFetch {
        /// The object to fetch.
        object: ObjectId,
        /// Read or write intent.
        access: FetchKind,
        /// Node that took the fault and awaits the reply.
        requester: NodeId,
    },
    /// Reply to an [`DsmMsg::ObjectFetch`], carrying the object contents.
    ObjectData {
        /// The object.
        object: ObjectId,
        /// The object contents.
        data: Vec<u8>,
        /// Whether ownership is transferred to the requester.
        ownership: bool,
        /// Copyset handed over together with ownership (nodes the new owner
        /// must invalidate or update).
        copyset: CopySet,
        /// Whether the requester may map the copy writable immediately.
        writable: bool,
    },
    /// Invalidate the local copy of `object` and acknowledge to `requester`.
    Invalidate {
        /// The object to invalidate.
        object: ObjectId,
        /// Node awaiting the acknowledgement.
        requester: NodeId,
    },
    /// Acknowledgement of an [`DsmMsg::Invalidate`].
    InvalidateAck {
        /// The invalidated object.
        object: ObjectId,
    },
    /// Propagation of pending changes (a DUQ flush, an eager update, or the
    /// flush-to-owner of a `result` object).
    Update {
        /// Changes, one entry per object.
        items: Vec<UpdateItem>,
        /// Node awaiting the acknowledgement (if `needs_ack`).
        requester: NodeId,
        /// Position in the sender → receiver *update sequence stream*. Every
        /// update-bearing transmission between a pair of nodes (standalone
        /// updates, carrier bundles, barrier-relayed bundles) carries one
        /// consecutive number; the receiver applies strictly in sequence,
        /// deferring early arrivals and dropping stale ones. This is what
        /// keeps a relayed bundle (which travels flusher → barrier owner →
        /// destination, a *different link* than a direct update) from being
        /// applied after a newer direct update it cannot be FIFO-ordered
        /// against.
        seq: u64,
        /// Whether the receiver must acknowledge (release consistency makes
        /// the releaser wait until its updates have been performed).
        needs_ack: bool,
    },
    /// Owner-cooperative fan-out: a flusher's non-owned fan-out bundle,
    /// sent to the objects' (probable) owner instead of being distributed
    /// by the flusher itself. The owner installs its own share, re-fans the
    /// updates to its authoritative recorded copyset
    /// ([`DsmMsg::RelayForward`]), and replies with a
    /// [`DsmMsg::RelayFanoutAck`] — so the flusher skips both the
    /// copyset-determination round and the ack-heal round that the legacy
    /// path needed to compensate for its stale view of the copyset.
    RelayFanout {
        /// Changes, one entry per object, in application order.
        items: Vec<UpdateItem>,
        /// The flushing node: receives the fan-out ack and every re-fan
        /// destination's [`DsmMsg::UpdateAck`].
        origin: NodeId,
        /// Position in the origin → receiver update sequence stream (see
        /// [`DsmMsg::Update::seq`]).
        seq: u64,
    },
    /// The owner's reply to a [`DsmMsg::RelayFanout`]: which destinations
    /// the bundle was re-fanned to (each will acknowledge the origin
    /// directly), and which objects the receiver turned out not to own
    /// (stale owner hint — the origin re-distributes those itself).
    RelayFanoutAck {
        /// Re-fan destinations; the origin waits for one `UpdateAck` from
        /// each before its release completes.
        refanned: Vec<NodeId>,
        /// Objects the receiver does not own: neither installed nor
        /// distributed.
        rejected: Vec<ObjectId>,
    },
    /// An owner's re-fan of a [`DsmMsg::RelayFanout`] bundle to one copyset
    /// member. Unlike [`DsmMsg::Update`], forwards carry no update-stream
    /// slot and are exempt from the receiver's sequence check: they travel
    /// the owner→receiver link directly (FIFO, no carrier detour), and the
    /// re-fanning service thread may run while the owner's user thread has
    /// relay bundles holding earlier stream slots parked at a barrier owner
    /// (see `handle_relay_fanout` for the full argument). The
    /// acknowledgement still goes to `origin`, whose release is what the
    /// update belongs to.
    RelayForward {
        /// Changes, one entry per object, in application order.
        items: Vec<UpdateItem>,
        /// The node whose flush originated the updates; the receiver's
        /// [`DsmMsg::UpdateAck`] goes here, not to the wire sender.
        origin: NodeId,
        /// The originating fan-out's sequence number (origin → owner
        /// stream), carried for correlation with the owner's re-fan record
        /// only.
        seq: u64,
    },
    /// Acknowledgement of an [`DsmMsg::Update`].
    UpdateAck {
        /// Number of objects that were applied.
        count: usize,
        /// For every updated object the acknowledging node *owns*, its
        /// authoritative recorded copyset (the determined set merged with
        /// serve-time replica records). The flusher compares this against the
        /// set it actually sent to and re-sends the update to any member it
        /// missed — a replica served by the owner *after* the flusher's
        /// copyset query was answered would otherwise silently miss the
        /// update forever (the 16-node SOR stale-ghost-row divergence).
        owned_copysets: Vec<(ObjectId, CopySet)>,
    },
    /// Dynamic copyset determination, broadcast variant: "a message
    /// indicating which objects have been modified locally is sent to all
    /// other nodes; each node replies with the subset of these objects for
    /// which it has a copy."
    CopysetQuery {
        /// The modified objects. Behind `Arc` so the broadcast fan-out to
        /// every peer shares one allocation instead of cloning the list per
        /// peer.
        objects: std::sync::Arc<[ObjectId]>,
        /// Node awaiting the replies.
        requester: NodeId,
        /// Crash recovery's "who still holds a copy" round (orphaned
        /// objects): answered from the current rights at once, never
        /// deferred on a busy entry — two survivors faulting on the same
        /// orphan each hold their entry busy while they ask each other.
        recovery: bool,
    },
    /// Reply to a [`DsmMsg::CopysetQuery`].
    CopysetReply {
        /// Subset of the queried objects this node holds a copy of.
        have: Vec<ObjectId>,
    },
    /// Improved copyset determination: ask the objects' owner (home) for the
    /// copyset it has recorded while serving fetches.
    OwnerCopysetQuery {
        /// The modified objects homed at the destination.
        objects: Vec<ObjectId>,
        /// Node awaiting the reply.
        requester: NodeId,
    },
    /// Reply to an [`DsmMsg::OwnerCopysetQuery`].
    OwnerCopysetReply {
        /// Recorded copyset for each queried object.
        copysets: Vec<(ObjectId, CopySet)>,
    },
    /// A `Fetch_and_Φ` on a reduction object, executed at its fixed owner.
    ReduceRequest {
        /// The reduction object.
        object: ObjectId,
        /// Byte offset of the element within the object.
        offset: usize,
        /// The operation.
        op: ReduceOp,
        /// Node awaiting the old value.
        requester: NodeId,
    },
    /// Reply to a [`DsmMsg::ReduceRequest`], carrying the element's previous
    /// value (raw little-endian bytes).
    ReduceReply {
        /// Previous value of the element.
        old: Vec<u8>,
    },
    /// Request ownership of a lock (forwarded along the probable-owner
    /// chain).
    LockAcquire {
        /// The lock.
        lock: LockId,
        /// Requesting node.
        requester: NodeId,
    },
    /// Grant of lock ownership to a requester. Consistency data associated
    /// with the lock (`AssociateDataAndSynch`) travels as a `sync_install`
    /// bundle on a [`DsmMsg::Carrier`] framing this grant.
    LockGrant {
        /// The lock.
        lock: LockId,
        /// Waiting requesters handed over with ownership (the distributed
        /// queue travels with the lock).
        queue: Vec<NodeId>,
    },
    /// A barrier report travelling up the combining tree: every member of
    /// `arrived` has reached the barrier. Sent to the sender's live tree
    /// parent once its own arrival plus all of its live children's reports
    /// are in; in a single-level tree every node sends one straight to the
    /// owner. Carries the full arrived set (not a count) so re-sends after a
    /// re-parent merge idempotently at the new parent.
    BarrierArrive {
        /// The barrier.
        barrier: BarrierId,
        /// The reporting node (the root of the covered subtree).
        from: NodeId,
        /// The barrier episode this report belongs to: the sender's
        /// completed-episode count plus one. A receiver that has already
        /// finished that episode answers with a direct
        /// [`DsmMsg::BarrierRelease`] instead of re-counting.
        gen: u64,
        /// Every node in the sender's subtree known to have arrived
        /// (including the sender itself).
        arrived: NodeSet,
    },
    /// A barrier release travelling down the tree edges from the owner.
    /// Each receiver re-forwards it to its own children and then hands it
    /// to its waiting user thread.
    BarrierRelease {
        /// The barrier.
        barrier: BarrierId,
        /// The episode being released (matches the triggering report's
        /// `gen`); duplicates for already-completed episodes are dropped.
        gen: u64,
    },
    /// A worker's user thread finished its work (sent to the root).
    WorkerDone {
        /// The finished node.
        from: NodeId,
    },
    /// The root tells every node to shut down its runtime service loop.
    Shutdown,
    /// The carrier envelope: frames any other message together with
    /// piggybacked consistency traffic, so a lock grant, barrier release,
    /// copyset reply, or update acknowledgement that is headed to a
    /// destination anyway can also deliver the updates queued for it —
    /// one wire message instead of several.
    ///
    /// `inner: None` is a pure piggyback frame, used when a deferred bundle
    /// is re-queued after its directory entries were busy. Carriers are
    /// never nested.
    Carrier {
        /// The framed message, dispatched after the payload is installed.
        inner: Option<Box<DsmMsg>>,
        /// Piggybacked update bundles destined for the receiver.
        updates: Vec<CarrierUpdate>,
        /// Flush updates riding a `BarrierArrive` for redistribution on the
        /// matching `BarrierRelease`s (empty on every other carrier).
        relay: Vec<RelayUpdate>,
    },
    /// The reliability-layer frame: any protocol message wrapped with a
    /// per-(source, destination) message id and a piggybacked cumulative
    /// acknowledgement of the reverse lane (see `DESIGN.md`, "Reliability
    /// layer"). The receiver delivers each id exactly once, in order, so
    /// every handler behind this frame is idempotent under retransmission
    /// by construction. Reliable frames are never nested.
    Reliable {
        /// Position in the sender → receiver reliable-message stream
        /// (ids start at 1 and are consecutive per lane).
        id: u64,
        /// Cumulative acknowledgement: every receiver → sender message with
        /// id ≤ `ack` has been delivered (0 = nothing yet). Riding every
        /// wrapped message keeps standalone ack traffic near zero.
        ack: u64,
        /// The framed protocol message.
        inner: Box<DsmMsg>,
    },
    /// A standalone cumulative acknowledgement, sent when the receiver owes
    /// acks but has no reverse traffic to piggyback them on (delayed-ack
    /// flush), or immediately upon receiving a duplicate (retransmit quench).
    NetAck {
        /// Every message with id ≤ `upto` on the sender's lane has been
        /// delivered.
        upto: u64,
    },
    /// The reliability layer's retransmit/ack-flush tick. Never on the wire:
    /// it is the payload of a virtual-time timer event the service loop
    /// schedules for itself.
    Tick,
    /// The failure detector's periodic self-timer (never on the wire): on
    /// firing, the node sends [`DsmMsg::Heartbeat`]s and re-arms. Only
    /// scheduled when failure detection is enabled (see
    /// `MuninConfig::detect`), so zero-crash runs carry no health traffic.
    HealthTick,
    /// An "I am alive" probe. Sent *unreliably* (never wrapped in a
    /// [`DsmMsg::Reliable`] frame): a heartbeat that needed retransmission
    /// would defeat its purpose, and a lost one is replaced by the next.
    Heartbeat,
    /// Failure-detector gossip: the sender has confirmed `node` dead (no
    /// traffic for the full detection window, or the retransmit cap fired
    /// and the suspicion aged out). Receivers mark the peer dead and run
    /// their local degraded-mode recovery; they do not re-broadcast.
    PeerDown {
        /// The dead node.
        node: NodeId,
    },
    /// Degraded-mode orphan re-homing: the sender (a node that lost a fetch
    /// to a dead owner) asks the receiver — the lowest-id surviving replica
    /// holder — to adopt ownership of `object` and serve it a copy exactly
    /// as an owner would serve an [`DsmMsg::ObjectFetch`].
    Adopt {
        /// The orphaned object.
        object: ObjectId,
        /// Read or write intent of the blocked fault.
        access: FetchKind,
        /// Node awaiting the [`DsmMsg::ObjectData`] reply.
        requester: NodeId,
    },
}

/// Fixed modelled header size of every message, in bytes.
pub const HEADER_BYTES: u64 = 32;

impl DsmMsg {
    /// The statistics class of the message.
    pub fn class(&self) -> &'static str {
        match self {
            DsmMsg::ObjectFetch { .. } => "object_fetch",
            DsmMsg::ObjectData { .. } => "object_data",
            DsmMsg::Invalidate { .. } => "invalidate",
            DsmMsg::InvalidateAck { .. } => "invalidate_ack",
            DsmMsg::Update { .. } => "update",
            DsmMsg::RelayFanout { .. } => "relay_fanout",
            DsmMsg::RelayFanoutAck { .. } => "relay_fanout_ack",
            DsmMsg::RelayForward { .. } => "relay_forward",
            DsmMsg::UpdateAck { .. } => "update_ack",
            DsmMsg::CopysetQuery { .. } => "copyset_query",
            DsmMsg::CopysetReply { .. } => "copyset_reply",
            DsmMsg::OwnerCopysetQuery { .. } => "owner_copyset_query",
            DsmMsg::OwnerCopysetReply { .. } => "owner_copyset_reply",
            DsmMsg::ReduceRequest { .. } => "reduce_request",
            DsmMsg::ReduceReply { .. } => "reduce_reply",
            DsmMsg::LockAcquire { .. } => "lock_acquire",
            DsmMsg::LockGrant { .. } => "lock_grant",
            DsmMsg::BarrierArrive { .. } => "barrier_arrive",
            DsmMsg::BarrierRelease { .. } => "barrier_release",
            DsmMsg::WorkerDone { .. } => "worker_done",
            DsmMsg::Shutdown => "shutdown",
            // A carrier is classed as the message it frames, so per-class
            // accounting (e.g. "how many lock grants") is unaffected by the
            // framing; only total message counts drop.
            DsmMsg::Carrier { inner, .. } => match inner {
                Some(m) => m.class(),
                None => "carrier",
            },
            // Like carriers, a reliable frame is classed as the message it
            // wraps, so per-class accounting is unaffected by the transport.
            DsmMsg::Reliable { inner, .. } => inner.class(),
            DsmMsg::NetAck { .. } => "net_ack",
            DsmMsg::Tick => "tick",
            DsmMsg::HealthTick => "health_tick",
            DsmMsg::Heartbeat => "heartbeat",
            DsmMsg::PeerDown { .. } => "peer_down",
            DsmMsg::Adopt { .. } => "adopt",
        }
    }

    /// Modelled size of the message on the wire (header plus payload).
    pub fn model_bytes(&self) -> u64 {
        let payload: u64 = match self {
            DsmMsg::ObjectFetch { .. } => 8,
            DsmMsg::ObjectData { data, .. } => data.len() as u64 + 16,
            DsmMsg::Invalidate { .. } | DsmMsg::InvalidateAck { .. } => 8,
            DsmMsg::Update { items, .. } => items.iter().map(|i| 8 + i.payload.model_bytes()).sum(),
            // The relay messages carry an origin + stream slot on top of an
            // `Update`-shaped item list.
            DsmMsg::RelayFanout { items, .. } | DsmMsg::RelayForward { items, .. } => {
                8 + items
                    .iter()
                    .map(|i| 8 + i.payload.model_bytes())
                    .sum::<u64>()
            }
            DsmMsg::RelayFanoutAck { refanned, rejected } => {
                8 + 4 * (refanned.len() + rejected.len()) as u64
            }
            DsmMsg::UpdateAck { owned_copysets, .. } => 8 + 12 * owned_copysets.len() as u64,
            DsmMsg::CopysetQuery { objects, .. } => 4 * objects.len() as u64,
            DsmMsg::CopysetReply { have } => 4 * have.len() as u64,
            DsmMsg::OwnerCopysetQuery { objects, .. } => 4 * objects.len() as u64,
            DsmMsg::OwnerCopysetReply { copysets } => 12 * copysets.len() as u64,
            DsmMsg::ReduceRequest { .. } => 24,
            DsmMsg::ReduceReply { old } => old.len() as u64,
            DsmMsg::LockAcquire { .. } => 8,
            DsmMsg::LockGrant { queue, .. } => 8 + 4 * queue.len() as u64,
            // Barrier id + from + gen, plus the arrived bitmap (only the
            // words up to the highest set bit travel).
            DsmMsg::BarrierArrive { arrived, .. } => 16 + 8 * arrived.word_span() as u64,
            DsmMsg::BarrierRelease { .. } => 12,
            DsmMsg::WorkerDone { .. } | DsmMsg::Shutdown => 4,
            // One header for the whole frame: the inner message and every
            // piggybacked bundle share it — that is the wire saving the
            // carrier layer models.
            DsmMsg::Carrier {
                inner,
                updates,
                relay,
            } => {
                let inner_payload = inner
                    .as_ref()
                    .map(|m| m.model_bytes() - HEADER_BYTES)
                    .unwrap_or(0);
                let update_bytes: u64 = updates
                    .iter()
                    .map(|u| {
                        8 + u
                            .items
                            .iter()
                            .map(|i| 8 + i.payload.model_bytes())
                            .sum::<u64>()
                    })
                    .sum();
                let relay_bytes: u64 = relay
                    .iter()
                    .map(|r| {
                        12 + r
                            .items
                            .iter()
                            .map(|i| 8 + i.payload.model_bytes())
                            .sum::<u64>()
                    })
                    .sum();
                inner_payload + update_bytes + relay_bytes
            }
            // The reliable frame adds an id + ack pair to the message it
            // wraps, sharing the wrapped message's header.
            DsmMsg::Reliable { inner, .. } => inner.model_bytes() - HEADER_BYTES + 8,
            DsmMsg::NetAck { .. } => 8,
            // Never on the wire (timer payloads only).
            DsmMsg::Tick | DsmMsg::HealthTick => 0,
            DsmMsg::Heartbeat => 0,
            DsmMsg::PeerDown { .. } => 4,
            DsmMsg::Adopt { .. } => 12,
        };
        HEADER_BYTES + payload
    }

    /// Whether the message is a reply destined for the node's blocked user
    /// thread (as opposed to a request handled by the runtime service loop).
    /// Carriers are always unwrapped by the service loop first (the payload
    /// must be installed before the inner message is routed), so they are
    /// not user replies even when their inner message is.
    pub fn is_user_reply(&self) -> bool {
        matches!(
            self,
            DsmMsg::ObjectData { .. }
                | DsmMsg::InvalidateAck { .. }
                | DsmMsg::UpdateAck { .. }
                | DsmMsg::RelayFanoutAck { .. }
                | DsmMsg::CopysetReply { .. }
                | DsmMsg::OwnerCopysetReply { .. }
                | DsmMsg::ReduceReply { .. }
                | DsmMsg::LockGrant { .. }
                | DsmMsg::Shutdown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{encode, Diff};

    #[test]
    fn classes_are_distinct_for_requests_and_replies() {
        let fetch = DsmMsg::ObjectFetch {
            object: ObjectId::new(0),
            access: FetchKind::Read,
            requester: NodeId::new(1),
        };
        let data = DsmMsg::ObjectData {
            object: ObjectId::new(0),
            data: vec![0; 16],
            ownership: false,
            copyset: CopySet::EMPTY,
            writable: false,
        };
        assert_ne!(fetch.class(), data.class());
        assert!(!fetch.is_user_reply());
        assert!(data.is_user_reply());
    }

    #[test]
    fn model_bytes_scale_with_payload() {
        let small = DsmMsg::ObjectData {
            object: ObjectId::new(0),
            data: vec![0; 16],
            ownership: false,
            copyset: CopySet::EMPTY,
            writable: false,
        };
        let large = DsmMsg::ObjectData {
            object: ObjectId::new(0),
            data: vec![0; 8192],
            ownership: false,
            copyset: CopySet::EMPTY,
            writable: false,
        };
        assert!(large.model_bytes() > small.model_bytes());
        assert!(large.model_bytes() >= 8192);
    }

    #[test]
    fn update_bytes_reflect_diff_encoding() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        let diff = encode(&cur, &twin);
        let small_update = DsmMsg::Update {
            items: vec![UpdateItem {
                object: ObjectId::new(0),
                payload: UpdatePayload::Diff(diff),
            }],
            requester: NodeId::new(0),
            seq: 0,
            needs_ack: true,
        };
        let full_update = DsmMsg::Update {
            items: vec![UpdateItem {
                object: ObjectId::new(0),
                payload: UpdatePayload::Full(cur),
            }],
            requester: NodeId::new(0),
            seq: 0,
            needs_ack: true,
        };
        assert!(small_update.model_bytes() < full_update.model_bytes());
    }

    #[test]
    fn empty_diff_payload_is_small() {
        let d = Diff::empty(16);
        assert_eq!(UpdatePayload::Diff(d).model_bytes(), 4);
    }

    #[test]
    fn cloned_diff_payloads_share_one_encoding() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        let diff = encode(&cur, &twin);
        let payload = UpdatePayload::Diff(diff);
        let fanned: Vec<UpdatePayload> = (0..3).map(|_| payload.clone()).collect();
        for p in &fanned {
            let (UpdatePayload::Diff(a), UpdatePayload::Diff(b)) = (&fanned[0], p) else {
                panic!("diff payload expected");
            };
            assert!(a.shares_buffer(b));
        }
    }

    #[test]
    fn barrier_and_lock_messages_are_small() {
        let arrive = DsmMsg::BarrierArrive {
            barrier: BarrierId(0),
            from: NodeId::new(3),
            gen: 1,
            arrived: crate::nodeset::NodeSet::from_nodes([NodeId::new(3)]),
        };
        assert!(arrive.model_bytes() <= 64);
        let grant = DsmMsg::LockGrant {
            lock: LockId(0),
            queue: vec![NodeId::new(1)],
        };
        assert!(grant.model_bytes() <= 64);
        assert!(grant.is_user_reply());
    }

    /// A carrier frame costs one header for the inner message plus every
    /// piggybacked bundle — strictly less than the messages sent separately.
    #[test]
    fn carrier_is_cheaper_than_separate_messages() {
        let grant = DsmMsg::LockGrant {
            lock: LockId(0),
            queue: vec![],
        };
        let items = vec![UpdateItem {
            object: ObjectId::new(0),
            payload: UpdatePayload::Full(vec![0; 64]),
        }];
        let standalone = DsmMsg::Update {
            items: items.clone(),
            requester: NodeId::new(1),
            seq: 0,
            needs_ack: false,
        };
        let separate = grant.model_bytes() + standalone.model_bytes();
        let carrier = DsmMsg::Carrier {
            inner: Some(Box::new(grant)),
            updates: vec![CarrierUpdate {
                from: NodeId::new(1),
                seq: 0,
                items,
                sync_install: false,
            }],
            relay: vec![],
        };
        assert!(carrier.model_bytes() < separate);
        assert_eq!(carrier.class(), "lock_grant");
        assert!(
            !carrier.is_user_reply(),
            "carriers are unwrapped by the service loop"
        );
        let bare = DsmMsg::Carrier {
            inner: None,
            updates: vec![],
            relay: vec![],
        };
        assert_eq!(bare.class(), "carrier");
        assert_eq!(bare.model_bytes(), HEADER_BYTES);
    }

    /// Satellite audit of the relay byte accounting: a barrier-relayed
    /// payload transits the wire twice (flusher → barrier owner on the
    /// arrive carrier, owner → destination on the release carrier) and must
    /// be charged on *both* hops — once per wire transit, not once per
    /// logical update. The exact per-hop increments are pinned so the
    /// `tests/piggyback.rs` byte-ratio assertion measures reality.
    #[test]
    fn relayed_payload_is_charged_once_per_wire_transit() {
        let payload_bytes = 64u64;
        let items = vec![UpdateItem {
            object: ObjectId::new(0),
            payload: UpdatePayload::Full(vec![0; payload_bytes as usize]),
        }];
        // Hop 1: the bundle rides the BarrierArrive carrier as a RelayUpdate
        // (12 bytes of dest/from/seq framing + 8 per item + the payload).
        let arrive = DsmMsg::BarrierArrive {
            barrier: BarrierId(0),
            from: NodeId::new(1),
            gen: 1,
            arrived: crate::nodeset::NodeSet::from_nodes([NodeId::new(1)]),
        };
        let hop1 = DsmMsg::Carrier {
            inner: Some(Box::new(arrive.clone())),
            updates: vec![],
            relay: vec![RelayUpdate {
                dest: NodeId::new(2),
                from: NodeId::new(1),
                seq: 0,
                items: items.clone(),
            }],
        };
        assert_eq!(
            hop1.model_bytes() - arrive.model_bytes(),
            12 + 8 + payload_bytes
        );
        // Hop 2: the owner re-attaches the bundle to the BarrierRelease as a
        // CarrierUpdate (8 bytes of from/seq framing + 8 per item + payload).
        let release = DsmMsg::BarrierRelease {
            barrier: BarrierId(0),
            gen: 1,
        };
        let hop2 = DsmMsg::Carrier {
            inner: Some(Box::new(release.clone())),
            updates: vec![CarrierUpdate {
                from: NodeId::new(1),
                seq: 0,
                items: items.clone(),
                sync_install: false,
            }],
            relay: vec![],
        };
        assert_eq!(
            hop2.model_bytes() - release.model_bytes(),
            8 + 8 + payload_bytes
        );
        // The payload itself is paid twice across the two transits; a
        // size-thresholded direct send pays it once (plus the ack round).
        let relayed_total = hop1.model_bytes() + hop2.model_bytes();
        let direct = DsmMsg::Update {
            items,
            requester: NodeId::new(1),
            seq: 0,
            needs_ack: true,
        };
        assert!(relayed_total - arrive.model_bytes() - release.model_bytes() >= 2 * payload_bytes);
        assert_eq!(direct.model_bytes(), HEADER_BYTES + 8 + payload_bytes);
    }

    #[test]
    fn relay_fanout_messages_have_pinned_sizes_and_routing() {
        let items = vec![UpdateItem {
            object: ObjectId::new(3),
            payload: UpdatePayload::Full(vec![0; 64]),
        }];
        let fanout = DsmMsg::RelayFanout {
            items: items.clone(),
            origin: NodeId::new(1),
            seq: 4,
        };
        let forward = DsmMsg::RelayForward {
            items,
            origin: NodeId::new(1),
            seq: 0,
        };
        let ack = DsmMsg::RelayFanoutAck {
            refanned: vec![NodeId::new(2), NodeId::new(3)],
            rejected: vec![ObjectId::new(3)],
        };
        assert_eq!(fanout.model_bytes(), HEADER_BYTES + 8 + 8 + 64);
        assert_eq!(forward.model_bytes(), fanout.model_bytes());
        assert_eq!(ack.model_bytes(), HEADER_BYTES + 8 + 4 * 3);
        // The fan-out and re-fan are service-loop requests; only the ack is
        // routed to the origin's blocked user thread.
        assert!(!fanout.is_user_reply());
        assert!(!forward.is_user_reply());
        assert!(ack.is_user_reply());
        assert_eq!(fanout.class(), "relay_fanout");
        assert_eq!(forward.class(), "relay_forward");
        assert_eq!(ack.class(), "relay_fanout_ack");
    }

    #[test]
    fn barrier_messages_are_service_requests_with_pinned_sizes() {
        use crate::nodeset::NodeSet;
        let arrive = DsmMsg::BarrierArrive {
            barrier: BarrierId(0),
            from: NodeId::new(9),
            gen: 1,
            arrived: NodeSet::from_nodes([NodeId::new(9), NodeId::new(10)]),
        };
        // 16 bytes of framing + one 8-byte bitmap word for nodes < 64.
        assert_eq!(arrive.model_bytes(), HEADER_BYTES + 16 + 8);
        assert_eq!(arrive.class(), "barrier_arrive");
        assert!(!arrive.is_user_reply());

        // A 256-node subtree report still ships only 4 bitmap words.
        let wide = DsmMsg::BarrierArrive {
            barrier: BarrierId(0),
            from: NodeId::new(0),
            gen: 1,
            arrived: NodeSet::full(256),
        };
        assert_eq!(wide.model_bytes(), HEADER_BYTES + 16 + 8 * 4);

        let release = DsmMsg::BarrierRelease {
            barrier: BarrierId(0),
            gen: 1,
        };
        assert_eq!(release.model_bytes(), HEADER_BYTES + 12);
        assert_eq!(release.class(), "barrier_release");
        // The service loop forwards a release down the tree before handing
        // it to its own user thread, so it is a request, not a user reply.
        assert!(!release.is_user_reply());
    }

    #[test]
    fn every_class_is_nonempty() {
        let msgs = [
            DsmMsg::Shutdown,
            DsmMsg::WorkerDone {
                from: NodeId::new(0),
            },
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![],
            },
            DsmMsg::CopysetReply { have: vec![] },
        ];
        for m in msgs {
            assert!(!m.class().is_empty());
            assert!(m.model_bytes() >= HEADER_BYTES);
        }
    }
}
