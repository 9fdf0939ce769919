//! # p2pfl-secagg — Secure Average Computation
//!
//! Implements the secret-sharing machinery of the reproduced paper:
//!
//! * [`divide`] / [`divide_scaled`] / [`divide_masked`] — paper Alg. 1 and
//!   the standard additive-masking variant (see [`ShareScheme`]);
//! * [`secure_average`] — paper Alg. 2, n-out-of-n SAC with full subtotal
//!   broadcast (cost `2N(N-1)|w|`), plus the leader-collect variant used
//!   inside two-layer subgroups (cost `(N²-1)|w|`);
//! * [`replicated`] — the consecutive k-out-of-n share assignment of
//!   Replicated Additive Secret Sharing;
//! * [`fault_tolerant_secure_average`] — paper Alg. 4, tolerating up to
//!   `n-k` peer dropouts per round;
//! * [`RoundCore`] — the one message-driven engine: a supervised
//!   fault-tolerant round (timeout-based crash detection, replica
//!   recovery, abort + degraded retry, re-keying, sender binding) over any
//!   [`Wire`]. Its two instantiations are [`SacPeerActor`]
//!   (`RoundCore<PairwiseWire>`: paper Alg. 4, [`SacMsg`], one-stage
//!   layout, digest commitments) and [`RingSacActor`]
//!   (`RoundCore<RingWire>`: [`RingMsg`], staged layout, `Shared`
//!   announcements);
//! * [`fixed`] — an exact fixed-point ring-sharing backend (extension);
//! * [`dp`] — Gaussian-mechanism differential privacy for peer updates,
//!   the hardening the paper's Sec. IV-D points to (extension);
//! * [`pairwise`] — the Bonawitz-style pairwise-mask baseline from the
//!   paper's related work (Sec. II-B), with dropout recovery;
//! * [`ring`] — the Ring-SAC layout, wire protocol and synchronous
//!   reference: staged successor-stage sharing with O(n log n) traffic
//!   instead of O(n²), selectable per run via [`SacEngine`].
//!
//! ## Quick example
//!
//! ```
//! use p2pfl_secagg::{secure_average, ShareScheme, WeightVector};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let models = vec![
//!     WeightVector::new(vec![1.0, 2.0]),
//!     WeightVector::new(vec![3.0, 4.0]),
//! ];
//! let out = secure_average(&models, ShareScheme::Masked, &mut rng);
//! assert!((out.average[0] - 2.0).abs() < 1e-9);
//! assert!((out.average[1] - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod divide;
pub mod dp;
mod engine;
pub mod fixed;
mod ftsac;
mod ledger;
#[cfg(feature = "mutants")]
pub mod mutants;
pub mod pairwise;
pub mod replicated;
pub mod ring;
mod sac;
mod weights;

pub use divide::{
    divide, divide_masked, divide_masked_with_bound, divide_scaled, ShareScheme, DEFAULT_MASK_BOUND,
};
pub use engine::{
    PairwiseWire, RoundCore, RoundEvent, SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, Wire,
};
pub use ftsac::{
    fault_tolerant_secure_average, DropPhase, Dropout, FtSacError, FtSacOutcome, REQUEST_BYTES,
};
pub use ledger::TransferLog;
pub use ring::{ring_secure_average, RingMsg, RingPlan, RingSacActor, RingWire};
pub use sac::{secure_average, secure_average_with_leader, SacOutcome};
pub use weights::{WeightVector, WIRE_BYTES_PER_PARAM};
