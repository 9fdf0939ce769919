//! The discrete-event simulator core.
//!
//! A [`Sim`] owns a set of [`Actor`]s (one per [`NodeId`]), a virtual clock,
//! and a priority queue of pending events (message deliveries, timers,
//! crashes, restarts). Actors interact with the world exclusively through
//! [`Context`], which samples link latencies, arms timers, and accounts
//! communication cost. Identical seeds produce identical executions.

use crate::codec::Pool;
use crate::fault::{FaultAction, FaultPlan, LinkDropCause, LinkFaults};
use crate::latency::LatencyConfig;
use crate::metrics::Metrics;
use crate::node::{NodeId, TimerId};
use crate::payload::Payload;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, Trace, TraceKind};
use crate::transport::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A simulated node's behavior.
///
/// Implementations must also be `Any` so tests and experiments can downcast
/// back to the concrete type via [`Sim::actor`] to inspect final state.
/// An actor that holds model vectors draws them from its host and gives
/// them back through its transport ([`Transport::take_f64`]).
pub trait Actor<M: Payload>: Any {
    /// Called once when the node is started (at the virtual time it was
    /// added) and never again, even across crash/restart cycles.
    fn on_start(&mut self, _t: &mut dyn Transport<M>) {}

    /// Called for every message delivered to this node.
    fn on_message(&mut self, t: &mut dyn Transport<M>, from: NodeId, msg: M);

    /// Called when a timer previously armed via [`Transport::set_timer`]
    /// fires. `tag` is the application tag supplied when arming.
    fn on_timer(&mut self, _t: &mut dyn Transport<M>, _tag: u64) {}

    /// Called when the fault plan crashes this node. The actor keeps its
    /// in-memory state (it models the process image plus any persistent
    /// storage); implementations decide what survives in [`Actor::on_restart`].
    fn on_crash(&mut self, _now: SimTime) {}

    /// Called when the fault plan restarts this node. All timers armed
    /// before the crash have been discarded.
    fn on_restart(&mut self, _t: &mut dyn Transport<M>) {}

    /// Cumulative messages this actor discarded at a bounded internal
    /// buffer (e.g. the SAC engine's `4n` next-round stash). Hosting
    /// transports mirror it into their counters so protocol-level drops
    /// show up next to transport-level ones; the default means "this
    /// actor has no such buffer".
    fn stash_evicted(&self) -> u64 {
        0
    }

    /// Cumulative messages this actor refused at a protocol gate (the SAC
    /// round core: a sender not entitled to the message, a shape outside
    /// the roster or model, a share block failing its commitment check).
    /// Hosting transports mirror it into their counters; the default
    /// means "this actor performs no such verification".
    fn shares_rejected(&self) -> u64 {
        0
    }
}

enum EventKind<M> {
    Start(NodeId),
    Deliver {
        src: NodeId,
        dst: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
        epoch: u64,
    },
    Crash(NodeId),
    Restart(NodeId),
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

/// How an externally chosen event is executed by [`Sim::step_chosen`].
///
/// This is the controlled-nondeterminism surface used by the bounded model
/// checker in `p2pfl-check`: instead of the one seeded order produced by
/// [`Sim::step`], an external scheduler enumerates [`Sim::pending_events`]
/// and picks which event happens next — and whether a message delivery is
/// delivered normally, dropped, or duplicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Execute the event normally.
    Deliver,
    /// Discard the event without executing it (models message loss; for
    /// non-delivery events this simply removes them from the queue).
    Drop,
    /// Execute the event and re-enqueue a copy of it (models network
    /// duplication). Only meaningful for message deliveries; other event
    /// kinds are executed once, as with [`StepMode::Deliver`].
    Duplicate,
}

/// A lightweight, payload-free description of one pending queue event, as
/// enumerated by [`Sim::pending_events`] for external schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEvent {
    /// Unique, monotonically increasing id of the event; pass it to
    /// [`Sim::step_chosen`] to execute this event.
    pub seq: u64,
    /// The virtual time at which the default scheduler would fire it.
    pub at: SimTime,
    /// What the event is.
    pub kind: PendingKind,
}

/// The kind half of a [`PendingEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingKind {
    /// A node's one-time `on_start` callback.
    Start(NodeId),
    /// A message delivery.
    Deliver {
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// [`Payload::kind`] label of the message.
        kind: &'static str,
        /// [`Payload::size_bytes`] of the message.
        bytes: u64,
    },
    /// A pending (non-cancelled, current-incarnation) timer.
    Timer {
        /// The node whose timer it is.
        node: NodeId,
        /// Application tag supplied when arming.
        tag: u64,
    },
    /// A scheduled crash.
    Crash(NodeId),
    /// A scheduled restart.
    Restart(NodeId),
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest event;
    // ties broken by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct SimInner<M> {
    now: SimTime,
    queue: BinaryHeap<Event<M>>,
    seq: u64,
    next_timer: u64,
    cancelled: HashSet<TimerId>,
    crashed: Vec<bool>,
    epoch: Vec<u64>,
    link_faults: Option<LinkFaults>,
    latency: LatencyConfig,
    metrics: Metrics,
    trace: Trace,
    rng: StdRng,
    // Earliest time each node's egress link is free again (store-and-
    // forward: serialization occupies the sender's NIC when a bandwidth
    // model is configured).
    tx_free: Vec<SimTime>,
    // The model vectors every actor of this simulator draws and gives back.
    vectors: Pool<f64>,
}

impl<M: Payload> SimInner<M> {
    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind });
    }
}

/// Handle through which an actor interacts with the simulated world.
pub struct Context<'a, M: Payload> {
    node: NodeId,
    inner: &'a mut SimInner<M>,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The id of the node this context belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to`. Latency is sampled from the link model; the
    /// bytes are charged to the communication ledger immediately.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let src = self.node;
        if src == to {
            // Loopback delivery is free and instantaneous in the cost model,
            // matching the paper's accounting (a peer "sending to itself"
            // keeps the share locally).
            let at = self.inner.now;
            self.inner
                .push(at, EventKind::Deliver { src, dst: to, msg });
            return;
        }
        let bytes = msg.size_bytes();
        let kind = msg.kind();
        self.inner.metrics.record_send(src, to, kind, bytes);
        self.inner.trace.record(
            self.inner.now,
            TraceKind::Send {
                src,
                dst: to,
                kind,
                bytes,
            },
        );
        // The scheduled fault plan (if any) rules on this send: it may drop
        // it, duplicate it, or hold it back. The same interpreter runs in
        // the real transport's fault layer, so one plan means one behavior.
        let (copies, extra_delay) = match self.inner.link_faults.as_mut() {
            Some(lf) => {
                let v = lf.on_send(self.inner.now, src, to);
                if v.copies == 0 {
                    self.inner.metrics.record_drop(bytes);
                    let reason = match v.cause {
                        Some(LinkDropCause::Partitioned) => DropReason::Partitioned,
                        _ => DropReason::Lossy,
                    };
                    self.inner.trace.record(
                        self.inner.now,
                        TraceKind::Drop {
                            src,
                            dst: to,
                            reason,
                        },
                    );
                    return;
                }
                (v.copies, v.extra_delay)
            }
            None => (1, SimDuration::ZERO),
        };
        // Store-and-forward: serialization occupies the sender's egress
        // link, so concurrent sends from one node queue behind each other;
        // propagation then overlaps freely.
        let tx = self.inner.latency.transmission_delay(bytes);
        let depart = if tx == SimDuration::ZERO {
            self.inner.now
        } else {
            let free = self.inner.tx_free[src.index()];
            let start = if free > self.inner.now {
                free
            } else {
                self.inner.now
            };
            let depart = start + tx;
            self.inner.tx_free[src.index()] = depart;
            depart
        };
        // Every copy but the last is a clone; the last takes `msg` itself.
        for msg in std::iter::repeat_n(msg, copies as usize) {
            let prop = self.inner.latency.sample(&mut self.inner.rng);
            let at = depart + prop + extra_delay;
            self.inner
                .push(at, EventKind::Deliver { src, dst: to, msg });
        }
    }

    /// Arms a one-shot timer firing after `delay`, carrying `tag` back to
    /// [`Actor::on_timer`]. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(self.inner.next_timer);
        self.inner.next_timer += 1;
        let node = self.node;
        let epoch = self.inner.epoch[node.index()];
        let at = self.inner.now + delay;
        self.inner.push(
            at,
            EventKind::Timer {
                node,
                id,
                tag,
                epoch,
            },
        );
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancelled.insert(id);
    }
}

impl<'a, M: Payload> Transport<M> for Context<'a, M> {
    fn now(&self) -> SimTime {
        Context::now(self)
    }

    fn node_id(&self) -> NodeId {
        Context::node_id(self)
    }

    fn send(&mut self, to: NodeId, msg: M) {
        Context::send(self, to, msg)
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        Context::set_timer(self, delay, tag)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        Context::cancel_timer(self, id)
    }

    fn take_f64(&mut self, len: usize) -> Vec<f64> {
        self.inner.vectors.take(len)
    }

    fn give_f64(&mut self, storage: Vec<f64>) {
        self.inner.vectors.give(storage);
    }
}

/// The discrete-event simulator. Generic over the application message type.
/// It hosts every actor over one vector pool: a message delivered moves
/// its vectors to the receiver, which gives them back when done.
pub struct Sim<M: Payload> {
    inner: SimInner<M>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
}

impl<M: Payload> Sim<M> {
    /// Creates a simulator with the paper-default latency (constant 15 ms)
    /// and the given seed. Identical seeds give identical executions.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: SimInner {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                seq: 0,
                next_timer: 0,
                cancelled: HashSet::new(),
                crashed: Vec::new(),
                epoch: Vec::new(),
                link_faults: None,
                latency: LatencyConfig::paper_default(),
                metrics: Metrics::new(),
                trace: Trace::new(),
                rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
                tx_free: Vec::new(),
                vectors: Pool::new(),
            },
            actors: Vec::new(),
        }
    }

    /// Replaces the network latency configuration.
    pub fn set_latency(&mut self, cfg: LatencyConfig) {
        self.inner.latency = cfg;
    }

    /// Enables trace collection.
    pub fn enable_trace(&mut self) {
        self.inner.trace.set_enabled(true);
    }

    /// Adds a node running `actor`; its `on_start` runs at the current
    /// virtual time. Ids are dense and assigned in creation order.
    pub fn add_node<A: Actor<M>>(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(Some(Box::new(actor)));
        self.inner.crashed.push(false);
        self.inner.epoch.push(0);
        self.inner.tx_free.push(SimTime::ZERO);
        let now = self.inner.now;
        self.inner.push(now, EventKind::Start(id));
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.crashed[node.index()]
    }

    /// Schedules a crash of `node` at virtual time `at`.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.inner.now, "cannot schedule in the past");
        self.inner.push(at, EventKind::Crash(node));
    }

    /// Schedules a restart of `node` at virtual time `at`.
    pub fn schedule_restart(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.inner.now, "cannot schedule in the past");
        self.inner.push(at, EventKind::Restart(node));
    }

    /// Applies a declarative [`FaultPlan`]: crash/restart entries become
    /// scheduled events (times are relative to the current virtual time)
    /// and all link-level entries are handed to a seeded [`LinkFaults`]
    /// interpreter consulted on every subsequent send. Applying a second
    /// plan replaces the first.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let base = self.inner.now;
        for e in &plan.entries {
            match e.action {
                FaultAction::Crash { node } => {
                    self.schedule_crash(node, base + e.from.saturating_since(SimTime::ZERO))
                }
                FaultAction::Restart { node } => {
                    self.schedule_restart(node, base + e.from.saturating_since(SimTime::ZERO))
                }
                _ => {}
            }
        }
        self.inner.link_faults = Some(LinkFaults::new_at(plan, base));
    }

    /// Removes a previously applied fault plan's link-level effects.
    /// Already-scheduled crash/restart events still fire.
    pub fn clear_fault_plan(&mut self) {
        self.inner.link_faults = None;
    }

    /// Injects a message from outside the simulation (e.g. an operator
    /// request), delivered to `dst` after `delay`, attributed to `src`.
    /// Injected messages do not enter the cost ledger.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: M, delay: SimDuration) {
        let at = self.inner.now + delay;
        self.inner.push(at, EventKind::Deliver { src, dst, msg });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Read access to the communication ledger.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The collected trace.
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// Immutable access to a node's actor, downcast to its concrete type.
    /// Panics if the type does not match.
    pub fn actor<A: Actor<M>>(&self, node: NodeId) -> &A {
        let a = self.actors[node.index()]
            .as_ref()
            .expect("actor is currently being executed");
        (a.as_ref() as &dyn Any)
            .downcast_ref::<A>()
            .expect("actor type mismatch")
    }

    /// Mutable access to a node's actor, downcast to its concrete type.
    pub fn actor_mut<A: Actor<M>>(&mut self, node: NodeId) -> &mut A {
        let a = self.actors[node.index()]
            .as_mut()
            .expect("actor is currently being executed");
        (a.as_mut() as &mut dyn Any)
            .downcast_mut::<A>()
            .expect("actor type mismatch")
    }

    /// Executes `f` against `node`'s actor with a live [`Context`] at the
    /// current virtual time — the hook through which external drivers (test
    /// harnesses, round orchestrators) invoke actor entry points that need
    /// to send messages or arm timers. Panics if the node is crashed or the
    /// concrete type does not match.
    pub fn exec<A, F, R>(&mut self, node: NodeId, f: F) -> R
    where
        A: Actor<M>,
        F: FnOnce(&mut A, &mut Context<'_, M>) -> R,
    {
        assert!(
            !self.inner.crashed[node.index()],
            "exec on crashed node {node}"
        );
        let mut actor = self.actors[node.index()]
            .take()
            .expect("re-entrant actor execution");
        let concrete = (actor.as_mut() as &mut dyn Any)
            .downcast_mut::<A>()
            .expect("actor type mismatch");
        let mut ctx = Context {
            node,
            inner: &mut self.inner,
        };
        let r = f(concrete, &mut ctx);
        self.actors[node.index()] = Some(actor);
        r
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.inner.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.inner.now, "time went backwards");
        self.inner.now = ev.at;
        self.dispatch_event(ev);
        true
    }

    /// Executes one event (clock already advanced to `ev.at`).
    fn dispatch_event(&mut self, ev: Event<M>) {
        match ev.kind {
            EventKind::Start(node) => {
                self.with_actor(node, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Deliver { src, dst, msg } => {
                if self.inner.crashed[dst.index()] {
                    self.inner.metrics.record_drop(msg.size_bytes());
                    self.inner.trace.record(
                        ev.at,
                        TraceKind::Drop {
                            src,
                            dst,
                            reason: DropReason::DestinationCrashed,
                        },
                    );
                } else {
                    self.inner.trace.record(
                        ev.at,
                        TraceKind::Deliver {
                            src,
                            dst,
                            kind: msg.kind(),
                        },
                    );
                    self.with_actor(dst, |actor, ctx| actor.on_message(ctx, src, msg));
                }
            }
            EventKind::Timer {
                node,
                id,
                tag,
                epoch,
            } => {
                if self.inner.cancelled.remove(&id) {
                    // cancelled; nothing to do
                } else if self.inner.crashed[node.index()]
                    || self.inner.epoch[node.index()] != epoch
                {
                    // timer belonged to a previous incarnation of the node
                } else {
                    self.inner
                        .trace
                        .record(ev.at, TraceKind::TimerFired { node, tag });
                    self.with_actor(node, |actor, ctx| actor.on_timer(ctx, tag));
                }
            }
            EventKind::Crash(node) => {
                if !self.inner.crashed[node.index()] {
                    self.inner.crashed[node.index()] = true;
                    self.inner.epoch[node.index()] += 1;
                    self.inner.trace.record(ev.at, TraceKind::Crash { node });
                    let now = self.inner.now;
                    if let Some(actor) = self.actors[node.index()].as_mut() {
                        actor.on_crash(now);
                    }
                }
            }
            EventKind::Restart(node) => {
                if self.inner.crashed[node.index()] {
                    self.inner.crashed[node.index()] = false;
                    self.inner.trace.record(ev.at, TraceKind::Restart { node });
                    self.with_actor(node, |actor, ctx| actor.on_restart(ctx));
                }
            }
        }
    }

    /// Whether a queued event would do anything if executed. Cancelled and
    /// stale-incarnation timers are dead weight; external schedulers should
    /// not waste exploration depth on them.
    fn event_is_live(&self, ev: &Event<M>) -> bool {
        match &ev.kind {
            EventKind::Timer {
                node, id, epoch, ..
            } => {
                !self.inner.cancelled.contains(id)
                    && !self.inner.crashed[node.index()]
                    && self.inner.epoch[node.index()] == *epoch
            }
            _ => true,
        }
    }

    /// Enumerates live pending events in canonical `(at, seq)` order — the
    /// choice points offered to an external scheduler. Cancelled and
    /// stale-incarnation timers are filtered out (executing them is a no-op).
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let mut out: Vec<PendingEvent> = self
            .inner
            .queue
            .iter()
            .filter(|ev| self.event_is_live(ev))
            .map(|ev| PendingEvent {
                seq: ev.seq,
                at: ev.at,
                kind: match &ev.kind {
                    EventKind::Start(n) => PendingKind::Start(*n),
                    EventKind::Deliver { src, dst, msg } => PendingKind::Deliver {
                        src: *src,
                        dst: *dst,
                        kind: msg.kind(),
                        bytes: msg.size_bytes(),
                    },
                    EventKind::Timer { node, tag, .. } => PendingKind::Timer {
                        node: *node,
                        tag: *tag,
                    },
                    EventKind::Crash(n) => PendingKind::Crash(*n),
                    EventKind::Restart(n) => PendingKind::Restart(*n),
                },
            })
            .collect();
        out.sort_by_key(|e| (e.at, e.seq));
        out
    }

    /// Borrows every in-flight message delivery `(src, dst, msg)`, so
    /// invariant oracles can reason about what is still on the wire.
    pub fn pending_deliveries(&self) -> Vec<(NodeId, NodeId, &M)> {
        let mut out: Vec<(u64, (NodeId, NodeId, &M))> = self
            .inner
            .queue
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::Deliver { src, dst, msg } => Some((ev.seq, (*src, *dst, msg))),
                _ => None,
            })
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, d)| d).collect()
    }

    /// Executes the pending event with id `seq` out of queue order — the
    /// scheduler hook used by the bounded model checker. The virtual clock
    /// advances to `max(now, event.at)`; an event chosen "late" (after the
    /// clock moved past its deadline) executes at the current time, which
    /// models arbitrary network and timer delays elsewhere. Returns `false`
    /// if no live event with that id exists. The default [`Sim::step`] path
    /// is unaffected.
    pub fn step_chosen(&mut self, seq: u64, mode: StepMode) -> bool {
        let mut drained: Vec<Event<M>> = std::mem::take(&mut self.inner.queue).into_vec();
        let Some(pos) = drained.iter().position(|ev| ev.seq == seq) else {
            self.inner.queue = BinaryHeap::from(drained);
            return false;
        };
        let ev = drained.swap_remove(pos);
        self.inner.queue = BinaryHeap::from(drained);
        if !self.event_is_live(&ev) {
            return false;
        }
        if self.inner.now < ev.at {
            self.inner.now = ev.at;
        }
        let at = self.inner.now;
        match mode {
            StepMode::Drop => {
                if let EventKind::Deliver { src, dst, msg } = &ev.kind {
                    self.inner.metrics.record_drop(msg.size_bytes());
                    self.inner.trace.record(
                        at,
                        TraceKind::Drop {
                            src: *src,
                            dst: *dst,
                            reason: DropReason::Lossy,
                        },
                    );
                }
            }
            StepMode::Deliver => {
                self.dispatch_event(Event { at, ..ev });
            }
            StepMode::Duplicate => {
                if let EventKind::Deliver { src, dst, msg } = &ev.kind {
                    let copy = EventKind::Deliver {
                        src: *src,
                        dst: *dst,
                        msg: msg.clone(),
                    };
                    self.inner.push(at, copy);
                }
                self.dispatch_event(Event { at, ..ev });
            }
        }
        true
    }

    fn with_actor<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    {
        // Temporarily detach the actor so it can mutate itself while the
        // context mutably borrows the rest of the simulator.
        let mut actor = self.actors[node.index()]
            .take()
            .expect("re-entrant actor execution");
        let mut ctx = Context {
            node,
            inner: &mut self.inner,
        };
        f(actor.as_mut(), &mut ctx);
        self.actors[node.index()] = Some(actor);
    }

    /// Runs until the virtual clock reaches `deadline` or the queue drains.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        loop {
            match self.inner.queue.peek() {
                Some(ev) if ev.at <= deadline => {
                    self.step();
                    n += 1;
                }
                _ => break,
            }
        }
        if self.inner.now < deadline {
            self.inner.now = deadline;
        }
        n
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.inner.now + d;
        self.run_until(deadline)
    }

    /// Runs until the event queue is empty or `max_events` events have
    /// been processed. Returns events processed.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Order-insensitive digest of the live event queue, independent of
    /// virtual time: two simulations whose queues hold the same multiset of
    /// deliveries (by wire bytes), timers (by node and tag) and process
    /// events digest equally even if they got there along different
    /// schedules. Combined with actor-state fingerprints this canonicalizes
    /// a global state for the model checker's visited set.
    pub fn queue_digest(&self) -> u64
    where
        M: serde::Serialize,
    {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut per_event: Vec<u64> = self
            .inner
            .queue
            .iter()
            .filter(|ev| self.event_is_live(ev))
            .map(|ev| {
                let mut h = DefaultHasher::new();
                match &ev.kind {
                    EventKind::Start(n) => (0u8, n.0).hash(&mut h),
                    EventKind::Deliver { src, dst, msg } => {
                        (1u8, src.0, dst.0).hash(&mut h);
                        crate::codec::to_bytes(msg).hash(&mut h);
                    }
                    EventKind::Timer { node, tag, .. } => (2u8, node.0, *tag).hash(&mut h),
                    EventKind::Crash(n) => (3u8, n.0).hash(&mut h),
                    EventKind::Restart(n) => (4u8, n.0).hash(&mut h),
                }
                h.finish()
            })
            .collect();
        per_event.sort_unstable();
        let mut h = DefaultHasher::new();
        per_event.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Blob;

    /// Echoes every blob back to the sender and counts deliveries.
    struct Echo {
        received: u64,
        echo: bool,
    }

    impl Actor<Blob> for Echo {
        fn on_message(&mut self, ctx: &mut dyn Transport<Blob>, from: NodeId, msg: Blob) {
            self.received += 1;
            if self.echo {
                ctx.send(
                    from,
                    Blob {
                        size: msg.size,
                        tag: msg.tag + 1,
                    },
                );
            }
        }
    }

    /// Sends one blob to a peer on start.
    struct Pinger {
        peer: NodeId,
        replies: u64,
        reply_at: Option<SimTime>,
    }

    impl Actor<Blob> for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Transport<Blob>) {
            ctx.send(self.peer, Blob::of_size(100));
        }
        fn on_message(&mut self, ctx: &mut dyn Transport<Blob>, _from: NodeId, _msg: Blob) {
            self.replies += 1;
            self.reply_at = Some(ctx.now());
        }
    }

    #[test]
    fn ping_pong_round_trip_takes_two_link_delays() {
        let mut sim = Sim::new(42);
        let echo = sim.add_node(Echo {
            received: 0,
            echo: true,
        });
        let pinger = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        sim.run_until_quiet(1000);
        let p = sim.actor::<Pinger>(pinger);
        assert_eq!(p.replies, 1);
        // 15ms out + 15ms back with the paper-default constant latency.
        assert_eq!(p.reply_at, Some(SimTime::from_millis(30)));
        assert_eq!(sim.metrics().total().msgs, 2);
        assert_eq!(sim.metrics().total().bytes, 200);
    }

    #[test]
    fn crash_drops_deliveries_and_restart_resumes() {
        let mut sim = Sim::new(1);
        let echo = sim.add_node(Echo {
            received: 0,
            echo: false,
        });
        let pinger = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        let _ = pinger;
        sim.schedule_crash(echo, SimTime::from_millis(5));
        sim.run_until_quiet(1000);
        assert_eq!(sim.actor::<Echo>(echo).received, 0, "in-flight msg dropped");
        assert_eq!(sim.metrics().dropped().msgs, 1);

        // A later injection after restart is delivered. The clock has
        // advanced past the drop, so restart relative to `now`.
        let restart_at = sim.now() + SimDuration::from_millis(10);
        sim.schedule_restart(echo, restart_at);
        sim.inject(
            NodeId(1),
            echo,
            Blob::of_size(1),
            SimDuration::from_millis(20),
        );
        sim.run_until_quiet(1000);
        assert_eq!(sim.actor::<Echo>(echo).received, 1);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerBox {
            fired: Vec<u64>,
            cancel_second: bool,
        }
        impl Actor<Blob> for TimerBox {
            fn on_start(&mut self, ctx: &mut dyn Transport<Blob>) {
                ctx.set_timer(SimDuration::from_millis(3), 3);
                let t2 = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                if self.cancel_second {
                    ctx.cancel_timer(t2);
                }
            }
            fn on_message(&mut self, _: &mut dyn Transport<Blob>, _: NodeId, _: Blob) {}
            fn on_timer(&mut self, _ctx: &mut dyn Transport<Blob>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Sim::new(7);
        let n = sim.add_node(TimerBox {
            fired: vec![],
            cancel_second: true,
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.actor::<TimerBox>(n).fired, vec![1, 3]);
    }

    #[test]
    fn crash_discards_pending_timers_across_restart() {
        struct T {
            fired: u64,
        }
        impl Actor<Blob> for T {
            fn on_start(&mut self, ctx: &mut dyn Transport<Blob>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_message(&mut self, _: &mut dyn Transport<Blob>, _: NodeId, _: Blob) {}
            fn on_timer(&mut self, _: &mut dyn Transport<Blob>, _: u64) {
                self.fired += 1;
            }
        }
        let mut sim = Sim::new(9);
        let n = sim.add_node(T { fired: 0 });
        sim.schedule_crash(n, SimTime::from_millis(1));
        sim.schedule_restart(n, SimTime::from_millis(2));
        sim.run_until_quiet(100);
        assert_eq!(
            sim.actor::<T>(n).fired,
            0,
            "pre-crash timer must not fire after restart"
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Sim::new(seed);
            sim.set_latency(LatencyConfig::uniform_default(
                crate::latency::Latency::Uniform {
                    min: SimDuration::from_millis(1),
                    max: SimDuration::from_millis(30),
                },
            ));
            let echo = sim.add_node(Echo {
                received: 0,
                echo: true,
            });
            for _ in 0..5 {
                sim.add_node(Pinger {
                    peer: echo,
                    replies: 0,
                    reply_at: None,
                });
            }
            sim.run_until_quiet(10_000);
            (sim.now().as_nanos(), sim.metrics().total().bytes)
        }
        assert_eq!(run(123), run(123));
        assert_ne!(run(123).0, run(124).0, "different seeds should differ");
    }

    /// A partition window rules at send time, like every plan entry: a
    /// frame already in flight when it opens is delivered, one sent inside
    /// it is dropped as partitioned, one sent after `until` is delivered.
    #[test]
    fn partition_blocks_until_healed() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(3);
        sim.enable_trace();
        let echo = sim.add_node(Echo {
            received: 0,
            echo: false,
        });
        let pinger = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        // The pinger's start-up frame leaves at 0 ms and lands at 15 ms.
        sim.run_until(SimTime::from_millis(5));
        let plan = FaultPlan::new(3).partition(
            SimTime::ZERO,
            SimTime::from_millis(50),
            vec![pinger],
            vec![echo],
        );
        sim.apply_fault_plan(&plan);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.actor::<Echo>(echo).received, 1, "in flight: delivered");

        let ping = |sim: &mut Sim<Blob>| {
            sim.exec::<Pinger, _, _>(pinger, |_, ctx| ctx.send(echo, Blob::of_size(1)))
        };
        ping(&mut sim);
        sim.run_until(SimTime::from_millis(60));
        assert_eq!(sim.actor::<Echo>(echo).received, 1, "sent inside: dropped");
        assert!(sim.trace().events().iter().any(|e| matches!(
            e.kind,
            TraceKind::Drop {
                reason: DropReason::Partitioned,
                ..
            }
        )));

        ping(&mut sim);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.actor::<Echo>(echo).received, 2, "sent after: delivered");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Sim<Blob> = Sim::new(5);
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.now(), SimTime::from_millis(500));
    }

    #[test]
    fn fault_plan_duplicates_delays_and_crashes() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(21);
        let echo = sim.add_node(Echo {
            received: 0,
            echo: false,
        });
        let pinger = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        let _ = pinger;
        // Every message duplicated and held back 40 ms past the 15 ms link
        // latency; the node crashes at 100 ms and restarts at 150 ms.
        let plan = FaultPlan::new(77)
            .duplicate(SimTime::ZERO, SimTime::from_secs(1), 1.0)
            .delay(
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimDuration::from_millis(40),
                SimDuration::ZERO,
            )
            .crash(SimTime::from_millis(100), echo)
            .restart(SimTime::from_millis(150), echo);
        sim.apply_fault_plan(&plan);
        sim.run_until(SimTime::from_millis(90));
        assert_eq!(
            sim.actor::<Echo>(echo).received,
            2,
            "duplicate fault must deliver two copies"
        );
        assert!(!sim.is_crashed(echo));
        sim.run_until(SimTime::from_millis(120));
        assert!(sim.is_crashed(echo), "plan crash must fire");
        sim.run_until(SimTime::from_millis(200));
        assert!(!sim.is_crashed(echo), "plan restart must fire");
    }

    #[test]
    fn fault_plan_loss_window_expires() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(22);
        let echo = sim.add_node(Echo {
            received: 0,
            echo: false,
        });
        let plan = FaultPlan::new(3).loss(SimTime::ZERO, SimTime::from_millis(50), 1.0);
        sim.apply_fault_plan(&plan);
        sim.inject(
            NodeId(9),
            echo,
            Blob::of_size(1),
            SimDuration::from_millis(1),
        );
        // Injected messages bypass Context::send; drive a real send instead.
        let _p = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        sim.run_until(SimTime::from_millis(60));
        assert_eq!(sim.metrics().dropped().msgs, 1, "send inside window drops");
        let pinger2 = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        let _ = pinger2;
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(
            sim.actor::<Echo>(echo).received,
            2,
            "the injected message and the post-window send must arrive"
        );
    }

    #[test]
    fn chosen_steps_reorder_drop_and_duplicate() {
        let mut sim = Sim::new(17);
        let echo = sim.add_node(Echo {
            received: 0,
            echo: false,
        });
        // Two senders, so two deliveries are pending at once.
        let p1 = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        let p2 = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        let _ = (p1, p2);
        // Run the three Start events under external control.
        for _ in 0..3 {
            let starts: Vec<_> = sim
                .pending_events()
                .into_iter()
                .filter(|e| matches!(e.kind, PendingKind::Start(_)))
                .collect();
            assert!(sim.step_chosen(starts[0].seq, StepMode::Deliver));
        }
        let pend = sim.pending_events();
        let delivers: Vec<_> = pend
            .iter()
            .filter(|e| matches!(e.kind, PendingKind::Deliver { .. }))
            .collect();
        assert_eq!(delivers.len(), 2);
        assert_eq!(sim.pending_deliveries().len(), 2);
        // Deliver the *later* one first (out of queue order), duplicated.
        assert!(sim.step_chosen(delivers[1].seq, StepMode::Duplicate));
        assert_eq!(sim.actor::<Echo>(echo).received, 1);
        // The duplicate copy is now pending alongside the first delivery.
        assert_eq!(sim.pending_deliveries().len(), 2);
        // Drop the first delivery.
        assert!(sim.step_chosen(delivers[0].seq, StepMode::Drop));
        assert_eq!(sim.actor::<Echo>(echo).received, 1);
        assert_eq!(sim.metrics().dropped().msgs, 1);
        // Deliver the duplicate copy.
        let last = sim.pending_events();
        assert_eq!(last.len(), 1);
        assert!(sim.step_chosen(last[0].seq, StepMode::Deliver));
        assert_eq!(sim.actor::<Echo>(echo).received, 2);
        assert!(sim.pending_events().is_empty());
        // Unknown seq is rejected without disturbing the queue.
        assert!(!sim.step_chosen(9999, StepMode::Deliver));
    }

    #[test]
    fn queue_digest_is_schedule_insensitive() {
        fn build() -> (Sim<Blob>, Vec<u64>) {
            let mut sim = Sim::new(23);
            let echo = sim.add_node(Echo {
                received: 0,
                echo: false,
            });
            sim.add_node(Pinger {
                peer: echo,
                replies: 0,
                reply_at: None,
            });
            sim.add_node(Pinger {
                peer: echo,
                replies: 0,
                reply_at: None,
            });
            let starts: Vec<u64> = sim.pending_events().iter().map(|e| e.seq).collect();
            (sim, starts)
        }
        // Same Start events executed in two different orders must leave
        // queues with identical digests (same multiset of deliveries).
        let (mut a, sa) = build();
        for &s in &sa {
            a.step_chosen(s, StepMode::Deliver);
        }
        let (mut b, sb) = build();
        for &s in sb.iter().rev() {
            b.step_chosen(s, StepMode::Deliver);
        }
        assert_eq!(a.queue_digest(), b.queue_digest());
        // Dropping a delivery changes the digest.
        let seq = a.pending_events()[0].seq;
        a.step_chosen(seq, StepMode::Drop);
        assert_ne!(a.queue_digest(), b.queue_digest());
    }

    #[test]
    fn pending_events_filter_cancelled_timers() {
        struct T;
        impl Actor<Blob> for T {
            fn on_start(&mut self, ctx: &mut dyn Transport<Blob>) {
                let a = ctx.set_timer(SimDuration::from_millis(5), 1);
                ctx.set_timer(SimDuration::from_millis(6), 2);
                ctx.cancel_timer(a);
            }
            fn on_message(&mut self, _: &mut dyn Transport<Blob>, _: NodeId, _: Blob) {}
        }
        let mut sim = Sim::new(3);
        sim.add_node(T);
        let start = sim.pending_events()[0].seq;
        sim.step_chosen(start, StepMode::Deliver);
        let pend = sim.pending_events();
        assert_eq!(pend.len(), 1, "cancelled timer filtered: {pend:?}");
        assert!(matches!(pend[0].kind, PendingKind::Timer { tag: 2, .. }));
    }

    #[test]
    fn loss_probability_one_drops_everything() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(11);
        sim.apply_fault_plan(&FaultPlan::new(11).loss(
            SimTime::ZERO,
            SimTime::from_secs(3600),
            1.0,
        ));
        let echo = sim.add_node(Echo {
            received: 0,
            echo: false,
        });
        let _p = sim.add_node(Pinger {
            peer: echo,
            replies: 0,
            reply_at: None,
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.actor::<Echo>(echo).received, 0);
        assert_eq!(sim.metrics().dropped().msgs, 1);
        // The send is still charged: bandwidth was spent.
        assert_eq!(sim.metrics().total().msgs, 1);
    }
}
