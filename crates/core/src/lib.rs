//! # p2pfl — two-layer secure fault-tolerant aggregation for P2P FL
//!
//! The paper's primary contribution, assembled from the workspace
//! substrates:
//!
//! * [`system::TwoLayerSystem`] — the two-layer aggregation (paper
//!   Alg. 3): SAC inside subgroups, sample-weighted FedAvg across them,
//!   with n-out-of-n or fault-tolerant k-out-of-n subgroup aggregation and
//!   fraction-`p` slow-subgroup timeouts;
//! * [`runner::ResilientSession`] — the same system running on top of the
//!   two-layer Raft backend: elections, joins, and crash recovery happen
//!   on the simulated network, and whichever leaders Raft reports run the
//!   aggregation, each subgroup through the message-driven round core;
//! * [`cost`] — the closed-form communication model (Eqs. 4, 5, 10),
//!   verified against the executable protocols;
//! * [`multilayer::MultilayerTree`] — the X-layer generalization of
//!   Sec. VII-C;
//! * [`experiment`] — sweep harnesses behind the paper's Figs. 6–9.
//!
//! ```
//! use p2pfl::experiment::{accuracy_sweep, SweepSpec};
//! use p2pfl_ml::data::Partition;
//!
//! let spec = SweepSpec { n_total: 6, rounds: 3, ..SweepSpec::default() };
//! let series = accuracy_sweep(&spec, &[3], &[Partition::Iid]);
//! assert_eq!(series[0].records.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod experiment;
pub mod multilayer;
pub mod runner;
pub mod system;
