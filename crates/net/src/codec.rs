//! Re-export of the workspace wire codec.
//!
//! The compact binary serializer, the framing with its run tables, and
//! the per-link [`FrameReceiver`] live in [`p2pfl_simnet::codec`] so the
//! durable Raft storage (which must not depend on this crate) can persist
//! its records in the same format the wire uses. This module keeps every
//! existing `p2pfl_net::codec::...` path working.

pub use p2pfl_simnet::codec::*;
