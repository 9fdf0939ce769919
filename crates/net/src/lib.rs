//! # p2pfl-net — real socket transport for the p2pfl actors
//!
//! `p2pfl-simnet` executes the workspace's protocol actors (Raft, the
//! two-layer hierarchy, the SAC engine) under deterministic virtual time.
//! This crate runs the *same* actors over real TCP sockets and wall-clock
//! timers, closing the gap between the simulated evaluation and the
//! deployment the paper describes (virtual peers on one machine talking
//! TCP).
//!
//! Two layers, bottom to top:
//!
//! * [`codec`] — a compact binary serializer/deserializer for the
//!   workspace serde data model, plus `u32`-length-delimited framing with
//!   a [`codec::MAX_FRAME`] guard and a run table for frames that carry
//!   model vectors.
//! * [`reactor`] — a [`Reactor`] hosts any number of
//!   [`Actor`](p2pfl_simnet::Actor)s on one epoll loop thread behind the
//!   [`Transport`](p2pfl_simnet::Transport) trait: one shared listener,
//!   one socket per peer pair opened by a hello naming both ends, bounded
//!   drop-and-count send queues, redial with capped jittered backoff,
//!   wall-clock timers, loopback delivery, and per-peer byte/frame/
//!   reconnect counters ([`NetStats`]). Each hosted peer is driven through
//!   its [`PeerHandle`].
//!
//! ```no_run
//! use p2pfl_net::{Reactor, ReactorConfig};
//! use p2pfl_simnet::{Actor, NodeId, Payload, Transport};
//!
//! #[derive(serde::Serialize, serde::Deserialize, Clone)]
//! struct Ping(u64);
//! impl Payload for Ping {
//!     fn size_bytes(&self) -> u64 {
//!         8
//!     }
//! }
//!
//! struct Counter(u64);
//! impl Actor<Ping> for Counter {
//!     fn on_message(&mut self, _t: &mut dyn Transport<Ping>, _from: NodeId, _m: Ping) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let reactor: Reactor<Ping, Counter> = Reactor::start(ReactorConfig::default()).unwrap();
//! let a = reactor.spawn_peer(NodeId(0), Counter(0)).unwrap();
//! let b = reactor.spawn_peer(NodeId(1), Counter(0)).unwrap();
//! a.add_peer(NodeId(1), reactor.local_addr());
//! b.add_peer(NodeId(0), reactor.local_addr());
//! b.with(|_, ctx| ctx.send(NodeId(0), Ping(1)));
//! ```

// `deny` rather than `forbid`: the reactor's OS shim (`reactor::sys`:
// the epoll FFI and the byte views of `f64` runs) is the one module
// allowed to opt back in — every other module stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod reactor;

pub use codec::{from_bytes, to_bytes, CodecError, FrameBuffer, MAX_FRAME};
pub use reactor::{NetStats, PeerHandle, Reactor, ReactorConfig, WireMsg};
