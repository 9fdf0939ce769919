//! Ring-SAC — a second secure-aggregation engine with O(n log n) traffic.
//!
//! The paper's Alg. 4 exchanges shares all-to-all: O(n²) messages and
//! O(n²·(n-k+1)) share bytes per subgroup round, which caps subgroup
//! size. This subsystem arranges the subgroup into `L ≈ n/⌈log₂ n⌉`
//! consecutive *stages* on a ring (Turbo-Aggregate's circular layout,
//! arXiv 2002.04156): every peer shares its masked model only with its
//! successor stage, replicated within that stage with a share-of-share
//! threshold (arXiv 2201.00864) floored for privacy, so a stage tolerates
//! `min(m - 2, n - k)` of its `m` members crashing (see [`RingPlan`]).
//! Partial aggregates — one total per `(stage, partition)` — then flow to
//! the leader, `n` vectors in all, so total traffic is O(n log n).
//!
//! Two entry points, mirroring the pairwise engine:
//!
//! * [`RingPlan`] — the pure stage-layout function of `(n, k)`;
//! * [`RingWire`] — the adaptor that makes the layout an engine: over it
//!   [`RingSacActor`] is the same [`crate::RoundCore`] as
//!   [`crate::SacPeerActor`] (one round, one supervision contract, one
//!   message enum [`crate::SacMsg`]), and `reference_round::<RingWire, _>` is the
//!   same [`crate::reference_round`] as
//!   [`crate::fault_tolerant_secure_average`] (the synchronous reference
//!   with a dropout schedule and a cost ledger).
//!
//! [`SacEngine`] selects between the engines per run; it travels in
//! [`crate::SacConfig`] and is replicated through the FedAvg-layer
//! config so a subgroup can never mix engines within a round.

mod engine;
pub(crate) mod plan;

pub use crate::engine::SacEngine;
pub use engine::{RingMsg, RingSacActor, RingWire};
pub use plan::RingPlan;
