//! Owner-collected barriers over a combining tree.
//!
//! Every barrier runs over a static k-ary tree rooted at its owner (see
//! [`TreeTopology`]): arrivals combine upward (each interior node merges its
//! children's reports into one [`DsmMsg::BarrierArrive`]), releases fan back
//! down ([`DsmMsg::BarrierRelease`]), and no node ever receives more than
//! k + 1 barrier messages per episode. With k ≥ N − 1 the tree is a single
//! level and this is the paper's barrier: every node reports straight to the
//! owner, which releases everyone. The owner's own arrival and release are
//! local — neither is a message.
//!
//! The carrier layer's barrier-relay optimization rides the tree hops: a
//! node's flush bundles are stashed locally at arrival, bundles whose
//! destination lies outside its static subtree ride its upward report, and
//! each downward release carries the bundles destined for the covered
//! subtree. Every bundle is installed at its destination before the release
//! that frames it is routed to the user thread.
//!
//! Crash handling: the static tree never changes, but reporting edges do. A
//! node whose static ancestor dies re-reports to the nearest *live* static
//! ancestor, which records it as a dynamic child (releases retrace exactly
//! the dynamic edges). A report that lands after its episode already
//! completed is answered with a direct recovery release. With the failure
//! detector enabled, trees deeper than one level flush eagerly
//! (`FlushMode::Immediate`), so a dying interior node can never take relayed
//! bundles down with it; a single-level tree parks bundles only at the
//! owner, whose death ends the run anyway, so it keeps the relay.

use std::collections::BTreeMap;
use std::sync::Arc;

use munin_sim::{Envelope, NodeId, VirtTime};

use crate::msg::{CarrierUpdate, DsmMsg, RelayUpdate, UpdateItem};
use crate::nodeset::NodeSet;
use crate::stats::{add, bump};
use crate::sync::{BarrierId, BarrierStep};

use super::NodeRuntime;

/// Flattens stashed bundles into the relay list of a carrier frame.
fn relay_list(stashed: Vec<(NodeId, Vec<CarrierUpdate>)>) -> Vec<RelayUpdate> {
    stashed
        .into_iter()
        .flat_map(|(dest, bundles)| {
            bundles.into_iter().map(move |b| RelayUpdate {
                dest,
                from: b.from,
                seq: b.seq,
                items: b.items,
            })
        })
        .collect()
}

impl NodeRuntime {
    /// The user thread's arrival: stash this node's own flush bundles,
    /// record the arrival, and advance (which sends the upward report — or
    /// opens the barrier — if this completed the subtree).
    pub(crate) fn barrier_arrive_local(
        self: &Arc<Self>,
        barrier: BarrierId,
        relay: BTreeMap<NodeId, Vec<UpdateItem>>,
    ) {
        if !relay.is_empty() {
            // Every bundle is stashed locally first; the advance below
            // extracts the ones leaving this subtree onto the report. Each
            // takes its slot in this node's update stream to `dest` *now*,
            // so later direct updates can never be overtaken by a bundle's
            // slower relayed route.
            let staged: Vec<(NodeId, CarrierUpdate)> = relay
                .into_iter()
                .map(|(dest, items)| {
                    add(&self.stats.msgs_piggybacked, 1);
                    self.note_update_sent(&items);
                    let bundle = CarrierUpdate {
                        from: self.node,
                        seq: self.next_update_seq(dest),
                        items,
                        sync_install: false,
                    };
                    (dest, bundle)
                })
                .collect();
            let mut outbox = self.outbox.lock();
            for (dest, bundle) in staged {
                outbox.stash_relay(barrier, dest, bundle);
            }
        }
        self.sync
            .lock()
            .barrier_mut(barrier)
            .arrived
            .insert(self.node);
        self.barrier_advance(barrier, None);
    }

    /// Acts on [`BarrierState::step`](crate::sync::BarrierState::step):
    /// forwards a report upward, or — at the owner — opens the episode. Safe
    /// to call from the user thread (`at == None`), the service thread
    /// (`at == Some(arrival)`), and crash recovery.
    fn barrier_advance(self: &Arc<Self>, barrier: BarrierId, at: Option<VirtTime>) {
        let dead = self.dead_set();
        let (step, subtree) = {
            let mut sync = self.sync.lock();
            let b = sync.barrier_mut(barrier);
            (b.step(self.node, &dead), b.subtree.clone())
        };
        match step {
            BarrierStep::Hold => {}
            BarrierStep::Report {
                parent,
                gen,
                arrived,
            } => {
                let outgoing = self.outbox.lock().take_relay_outside(barrier, &subtree);
                let arrive = DsmMsg::BarrierArrive {
                    barrier,
                    from: self.node,
                    gen,
                    arrived,
                };
                crate::runtime::proto_trace!(
                    self,
                    "report barrier {} gen {gen} up to {parent:?}",
                    barrier.0
                );
                let msg = if outgoing.is_empty() {
                    arrive
                } else {
                    DsmMsg::Carrier {
                        inner: Some(Box::new(arrive)),
                        updates: Vec::new(),
                        relay: relay_list(outgoing),
                    }
                };
                let _ = match at {
                    None => self.send(parent, msg),
                    Some(t) => self.send_service(parent, msg, t + self.cost.sync_op()),
                };
            }
            BarrierStep::Open { gen, children } => {
                crate::runtime::proto_trace!(self, "barrier {} gen {gen} opens", barrier.0);
                let now = at.unwrap_or_else(|| self.clock.now());
                self.release_children(barrier, gen, children, now);
                // The owner's own release is local: straight to its user
                // thread, like a received release at any other node.
                let env = Envelope {
                    src: self.node,
                    dst: self.node,
                    class: "barrier_release",
                    model_bytes: 0,
                    sent_at: now,
                    arrival: now,
                };
                self.route_to_user(env, DsmMsg::BarrierRelease { barrier, gen });
            }
        }
    }

    /// Fans the release down one level: each dynamic child's release carries
    /// the bundles destined for itself (plus this node's coalesced items)
    /// and re-relays the bundles destined for the rest of its covered set.
    fn release_children(
        self: &Arc<Self>,
        barrier: BarrierId,
        gen: u64,
        children: Vec<(NodeId, NodeSet)>,
        now: VirtTime,
    ) {
        for (child, covered) in children {
            let (mut updates, stashed) = {
                let mut outbox = self.outbox.lock();
                (
                    outbox.take_relay(barrier, child),
                    outbox.take_relay_within(barrier, &covered, child),
                )
            };
            if let Some((pending, seq)) = self.take_pending_with_seq(child) {
                add(&self.stats.msgs_piggybacked, 1);
                self.note_update_sent(&pending);
                updates.push(CarrierUpdate {
                    from: self.node,
                    seq,
                    items: pending,
                    sync_install: false,
                });
            }
            let release = DsmMsg::BarrierRelease { barrier, gen };
            let msg = if updates.is_empty() && stashed.is_empty() {
                release
            } else {
                DsmMsg::Carrier {
                    inner: Some(Box::new(release)),
                    updates,
                    relay: relay_list(stashed),
                }
            };
            let _ = self.send_service(child, msg, now + self.cost.sync_op());
        }
    }

    /// Handles an upward report (service thread).
    pub(crate) fn handle_barrier_report(
        self: &Arc<Self>,
        env: Envelope,
        barrier: BarrierId,
        from: NodeId,
        gen: u64,
        arrived: NodeSet,
    ) {
        self.charge_sys(self.cost.sync_op());
        let fresh = {
            let mut sync = self.sync.lock();
            let b = sync.barrier_mut(barrier);
            if b.topo.owner == self.node {
                bump(&self.stats.barrier_owner_ingress);
            }
            b.receive_report(from, gen, &arrived)
        };
        if !fresh {
            // The sender missed this episode's release (its parent died
            // between absorbing its report and forwarding the release).
            // Answer directly with a plain release. Nothing relayed can be
            // owed to it: deep trees under the failure detector never relay,
            // and in a single-level tree the only parent is the owner, whose
            // death ends the run — there a stale report is a duplicate of one
            // whose release already went out.
            crate::runtime::proto_trace!(
                self,
                "stale report gen {gen} from {from:?}; releasing directly"
            );
            let _ = self.send_service(
                from,
                DsmMsg::BarrierRelease { barrier, gen },
                env.arrival + self.cost.sync_op(),
            );
            return;
        }
        self.barrier_advance(barrier, Some(env.arrival));
    }

    /// Handles a downward release (service thread): re-forward to dynamic
    /// children, close the episode, and hand the release to this node's own
    /// waiting user thread.
    pub(crate) fn handle_barrier_release(
        self: &Arc<Self>,
        env: Envelope,
        barrier: BarrierId,
        gen: u64,
    ) {
        self.charge_sys(self.cost.sync_op());
        let dead = self.dead_set();
        let children = self
            .sync
            .lock()
            .barrier_mut(barrier)
            .receive_release(gen, &dead);
        // `None` is a duplicate (crash-recovery re-send): already released.
        if let Some(children) = children {
            self.release_children(barrier, gen, children, env.arrival);
            self.route_to_user(env, DsmMsg::BarrierRelease { barrier, gen });
        }
    }

    /// Re-evaluates every barrier after `dead` is confirmed gone. Called
    /// from crash recovery (and defensively from the waiting user thread,
    /// which may observe the death before recovery finishes). A dead
    /// reporting ancestor means this node's merged report must re-parent to
    /// a live one; a dead subtree member (anywhere, at the owner) may
    /// complete the subtree right now.
    pub(crate) fn barrier_handle_death(self: &Arc<Self>, dead: NodeId) {
        let barriers = self.sync.lock().barrier_count();
        for i in 0..barriers {
            let barrier = BarrierId(i as u32);
            self.sync
                .lock()
                .barrier_mut(barrier)
                .note_death(self.node, dead);
            self.barrier_advance(barrier, Some(self.clock.now()));
        }
    }
}
