//! # p2pfl-secagg — Secure Average Computation
//!
//! Implements the secret-sharing machinery of the reproduced paper:
//!
//! * [`divide`] / [`divide_scaled`] / [`divide_masked`] — paper Alg. 1 and
//!   the standard additive-masking variant (see [`ShareScheme`]);
//! * [`replicated`] — the consecutive k-out-of-n share assignment of
//!   Replicated Additive Secret Sharing;
//! * [`reference_round`] — the one synchronous reference round, over the
//!   layout of either [`Wire`], with an explicit dropout schedule and a
//!   cost ledger. Its pairwise instance [`fault_tolerant_secure_average`]
//!   is paper Alg. 4, tolerating up to `n-k` peer dropouts per round, and
//!   at `k = n` Alg. 2's leader-collect form (cost `(N²-1)|w|`) used inside
//!   two-layer subgroups;
//! * [`RoundCore`] — the one message-driven engine: a supervised
//!   fault-tolerant round (timeout-based crash detection, replica
//!   recovery, abort + degraded retry, re-keying, sender binding) over any
//!   [`Wire`], speaking one message enum, [`SacMsg`], on both. Its two
//!   instantiations are [`SacPeerActor`] (`RoundCore<PairwiseWire>`:
//!   paper Alg. 4, one-stage layout, digest commitments) and
//!   [`RingSacActor`] (`RoundCore<RingWire>`: staged layout, `Shared`
//!   announcements). [`sim_group`] and [`drive_round`] host a group of
//!   cores on a simulator and run a round to its end; given the same
//!   per-member seeds the engine reproduces [`reference_round`] bit for
//!   bit;
//! * [`fixed`] — an exact fixed-point ring-sharing backend (extension);
//! * [`dp`] — Gaussian-mechanism differential privacy for peer updates,
//!   the hardening the paper's Sec. IV-D points to (extension);
//! * [`ring`] — the Ring-SAC layout and wire protocol: staged
//!   successor-stage sharing with O(n log n) traffic instead of O(n²),
//!   selectable per run via [`SacEngine`].
//!
//! ## Quick example
//!
//! ```
//! use p2pfl_secagg::{fault_tolerant_secure_average, ShareScheme, WeightVector};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let models = vec![
//!     WeightVector::new(vec![1.0, 2.0]),
//!     WeightVector::new(vec![3.0, 4.0]),
//! ];
//! // Both peers must contribute (k = n), position 0 leads, nobody drops.
//! let out = fault_tolerant_secure_average(&models, 2, 0, &[], ShareScheme::Masked, &mut rng)
//!     .unwrap();
//! assert!((out.average[0] - 2.0).abs() < 1e-9);
//! assert!((out.average[1] - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod divide;
pub mod dp;
mod engine;
pub mod fixed;
mod ledger;
#[cfg(feature = "mutants")]
pub mod mutants;
mod reference;
pub mod replicated;
pub mod ring;
mod weights;

pub use divide::{divide, divide_masked, divide_scaled, ShareScheme};
pub use engine::{
    drive_round, sim_group, PairwiseWire, RoundCore, RoundOutcome, SacConfig, SacEngine, SacMsg,
    SacPeerActor, SacPhase, Wire,
};
pub use ledger::TransferLog;
pub use reference::{
    fault_tolerant_secure_average, reference_round, DropPhase, Dropout, FtSacError, SacOutcome,
};
pub use ring::{RingMsg, RingPlan, RingSacActor, RingWire};
pub use weights::{WeightVector, WIRE_BYTES_PER_PARAM};
