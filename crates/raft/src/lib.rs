//! # p2pfl-raft — Raft consensus from scratch
//!
//! A complete Raft implementation (paper Sec. III-C; Ongaro & Ousterhout)
//! in a sans-IO style: [`RaftNode`] holds all protocol logic — leader
//! election with randomized `U(T, 2T)` timeouts and the up-to-date-log
//! restriction, log replication with conflict resolution, the
//! current-term-only commit rule, and single-server membership changes —
//! and emits [`Effect`]s instead of doing IO. [`RaftActor`] drives a node
//! over the `p2pfl-simnet` discrete-event simulator, which is how the
//! reproduced paper's election-time experiments (Figs. 10–12) are run.
//!
//! ```
//! use p2pfl_raft::{RaftActor, RaftConfig, NullStateMachine, RaftMsg};
//! use p2pfl_simnet::{NodeId, Sim, SimDuration, SimTime};
//!
//! let mut sim: Sim<RaftMsg<u64>> = Sim::new(7);
//! let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
//! for &id in &ids {
//!     let cfg = RaftConfig::paper(id, ids.clone(), SimDuration::from_millis(100), id.0 as u64);
//!     sim.add_node(RaftActor::new(cfg, NullStateMachine));
//! }
//! sim.run_until(SimTime::from_secs(2));
//! let leaders = ids.iter().filter(|&&id| {
//!     sim.actor::<RaftActor<u64, NullStateMachine>>(id).is_leader()
//! }).count();
//! assert_eq!(leaders, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod log;
mod message;
#[cfg(feature = "mutants")]
pub mod mutants;
mod node;
mod storage;
mod types;

pub use driver::{
    AppEffect, LeadershipEvent, NullStateMachine, RaftActor, RaftDriver, RaftHost, StateMachine,
};
pub use log::{Entry, RaftLog};
pub use message::RaftMsg;
pub use node::{Effect, NotLeader, RaftConfig, RaftNode};
pub use storage::{FileStorage, MemStorage, PersistOp, PersistentState, RaftStorage};
pub use types::{Command, LogCmd, LogIndex, Role, Term};
