//! The [`Transport`] abstraction: everything a protocol actor needs from
//! its execution environment.
//!
//! The actors in this workspace (Raft peers, the two-layer hierarchy, the
//! SAC engine) are written against this trait rather than the simulator's
//! [`Context`](crate::Context) directly, so the very same state machines
//! run in two worlds:
//!
//! * inside the deterministic discrete-event simulator, where
//!   [`Context`](crate::Context) implements `Transport` with virtual time
//!   and sampled link latencies, and
//! * on a real network, where `p2pfl-net`'s peer runtime implements it with
//!   wall-clock timers and TCP sockets.
//!
//! The trait is object-safe on purpose: actor callbacks take
//! `&mut dyn Transport<M>`, which keeps the actor code monomorphization-free
//! and lets both runtimes hand in their own context type.

use crate::node::{NodeId, TimerId};
use crate::payload::Payload;
use crate::time::{SimDuration, SimTime};

/// Handle through which an actor sends messages and arms timers, agnostic
/// of whether the world behind it is simulated or real.
///
/// Time is reported as [`SimTime`] in both worlds; a real-network
/// implementation maps it to elapsed wall-clock time since the runtime
/// started, which preserves the only property actors rely on:
/// monotonicity.
pub trait Transport<M: Payload> {
    /// Current time (virtual in the simulator, elapsed wall-clock on a
    /// real transport).
    fn now(&self) -> SimTime;

    /// The id of the node this transport belongs to.
    fn node_id(&self) -> NodeId;

    /// Sends `msg` to `to`. Sending to self is a local delivery.
    fn send(&mut self, to: NodeId, msg: M);

    /// Arms a one-shot timer firing after `delay`, carrying `tag` back to
    /// [`Actor::on_timer`](crate::Actor::on_timer). Returns an id usable
    /// with [`Transport::cancel_timer`].
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId;

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// harmless no-op.
    fn cancel_timer(&mut self, id: TimerId);

    /// Storage with room for `len` `f64`s from the host's vector pool,
    /// holding whatever another actor of the host last left there. The
    /// default keeps no pool and allocates.
    fn take_f64(&mut self, len: usize) -> Vec<f64> {
        Vec::with_capacity(len)
    }

    /// Gives storage back to the host's vector pool. The default frees it.
    fn give_f64(&mut self, _storage: Vec<f64>) {}
}
