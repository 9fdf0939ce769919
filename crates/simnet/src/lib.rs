//! # p2pfl-simnet — deterministic discrete-event network simulator
//!
//! This crate is the execution substrate for the whole `p2pfl` workspace.
//! The reproduced paper evaluates its two-layer Raft on a single machine
//! with virtual peers talking TCP through a `tc netem` 15 ms delay; we
//! replace that with a seeded discrete-event simulation, which reproduces
//! the same distributional experiments (election timeouts ~ U(T, 2T),
//! constant link delay) *deterministically*.
//!
//! ## Model
//!
//! * Every node is an [`Actor`] reacting to message deliveries and timers
//!   through a [`Context`].
//! * Virtual time ([`SimTime`]/[`SimDuration`]) advances only when events
//!   fire; there is no wall-clock dependence anywhere.
//! * Link latencies come from one [`Latency`] model for every link
//!   (constant or uniform), plus an optional bandwidth term.
//! * Fault injection has one path: declarative, seeded [`FaultPlan`]
//!   schedules (loss, delay, duplication, reordering, partitions,
//!   blackouts, crash/restart), interpreted identically here and by the
//!   real TCP transport in `p2pfl-net`. A plan rules on each frame when
//!   it is sent, so a frame already in flight when a window opens still
//!   arrives. [`Sim::schedule_crash`] and [`Sim::schedule_restart`] add
//!   one-off process faults.
//! * Every message is charged to a [`Metrics`] ledger (bytes and counts per
//!   link and per protocol phase) — the basis for the paper's communication
//!   cost figures.
//!
//! ## Example
//!
//! ```
//! use p2pfl_simnet::{Actor, Blob, NodeId, Sim, SimDuration, SimTime, Transport};
//!
//! struct Counter { seen: u32 }
//! impl Actor<Blob> for Counter {
//!     fn on_message(&mut self, _t: &mut dyn Transport<Blob>, _from: NodeId, _msg: Blob) {
//!         self.seen += 1;
//!     }
//! }
//!
//! let mut sim = Sim::new(7);
//! let receiver = sim.add_node(Counter { seen: 0 });
//! sim.inject(NodeId(0), receiver, Blob::of_size(64), SimDuration::from_millis(1));
//! sim.run_until(SimTime::from_millis(10));
//! assert_eq!(sim.actor::<Counter>(receiver).seen, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod fault;
mod latency;
mod metrics;
mod node;
mod payload;
mod sim;
mod time;
mod trace;
mod transport;

pub use fault::{
    ByzantineSpec, FaultAction, FaultEntry, FaultPlan, LinkDropCause, LinkFaults, LinkVerdict,
    PoisonMode, ProcessEvent, ProcessFault,
};
pub use latency::{Latency, LatencyConfig};
pub use metrics::{Counter, Metrics};
pub use node::{NodeId, TimerId};
pub use payload::{Blob, Payload};
pub use sim::{Actor, Context, PendingEvent, PendingKind, Sim, StepMode};
pub use time::{SimDuration, SimTime};
pub use trace::{DropReason, Trace, TraceEvent, TraceKind};
pub use transport::Transport;
