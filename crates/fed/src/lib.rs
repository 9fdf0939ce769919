//! # p2pfl-fed — federated averaging substrate
//!
//! Classic FedAvg (paper Sec. III-A): sample-weighted model averaging
//! ([`fedavg`]) and the robust combiners a FedAvg leader may replicate in
//! its place ([`combine`]), a [`Client`] abstraction holding a private
//! dataset and an Adam optimizer, and the threaded per-peer local training
//! ([`parallel`]) the two-layer system's round loops run. Centralised
//! FedAvg is that system with one-peer subgroups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod client;
pub mod parallel;

pub use aggregate::{
    combine, coordinate_median, fedavg, mean, norm_clip, regroup, spread_linf, trim_count,
    trimmed_mean, RobustCombiner,
};
pub use client::{Client, LocalTrainConfig};
