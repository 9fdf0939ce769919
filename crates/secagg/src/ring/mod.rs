//! Ring-SAC — a second secure-aggregation engine with O(n log n) traffic.
//!
//! The paper's Alg. 4 exchanges shares all-to-all: O(n²) messages and
//! O(n²·(n-k+1)) share bytes per subgroup round, which caps subgroup
//! size. This subsystem arranges the subgroup into `L ≈ n/⌈log₂ n⌉`
//! consecutive *stages* on a ring (Turbo-Aggregate's circular layout,
//! arXiv 2002.04156): every peer shares its masked model only with its
//! successor stage, replicated within that stage with a share-of-share
//! threshold (arXiv 2201.00864) that preserves the global `n - k`
//! dropout budget. Partial aggregates — one total per `(stage,
//! partition)` — then flow to the leader, `n` vectors in all, so total
//! traffic is O(n log n).
//!
//! Three entry points, mirroring the pairwise engine:
//!
//! * [`RingPlan`] — the pure stage-layout function of `(n, k)`;
//! * [`ring_secure_average`] — synchronous reference with an explicit
//!   dropout schedule and cost ledger (counterpart of
//!   [`crate::fault_tolerant_secure_average`]);
//! * [`RingSacActor`] — the sans-IO message-driven engine: the same
//!   [`crate::RoundCore`] as [`crate::SacPeerActor`] (one round, one
//!   supervision contract), speaking [`RingMsg`] over the staged layout
//!   through the [`RingWire`] adaptor.
//!
//! [`SacEngine`] selects between the engines per run; it travels in
//! [`crate::SacConfig`] and is replicated through the FedAvg-layer
//! config so a subgroup can never mix engines within a round.

mod engine;
pub(crate) mod plan;
mod sync;

pub use crate::engine::SacEngine;
pub use engine::{RingMsg, RingSacActor, RingWire};
pub use plan::RingPlan;
pub use sync::{
    ring_secure_average, ANNOUNCE_BYTES, RING_PHASE_ANNOUNCE, RING_PHASE_RECOVERY,
    RING_PHASE_REQUEST, RING_PHASE_SHARE, RING_PHASE_TOTAL,
};
