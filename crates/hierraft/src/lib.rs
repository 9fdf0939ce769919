//! # p2pfl-hierraft — the paper's two-layer Raft backend
//!
//! Peers are organized into subgroups, each running its own Raft; subgroup
//! leaders additionally form the FedAvg-layer Raft (paper Sec. V). The
//! crate implements the post-leader-election callback, the replication of
//! the FedAvg-layer configuration into subgroup logs, the join protocol
//! by which a newly elected subgroup leader replaces its crashed
//! predecessor in the FedAvg layer (via Raft single-server membership
//! change), and the four crash-recovery flows the paper evaluates.
//!
//! [`Deployment`] builds the paper's 25-peer topology on the simulator;
//! [`experiments`] packages the Figs. 10–12 crash trials.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod config;
mod detector;
mod elastic;
pub mod experiments;
mod topology;

pub use actor::{HierActor, COMPACT_AFTER};
pub use config::{
    ElasticPeerConfig, FedCmd, FedConfig, FedSnapshot, HierMsg, HierPeerConfig, SubCmd, SubMembers,
    SubSnapshot, CONFIG_COMMIT_INTERVAL, JOIN_POLL_INTERVAL,
};
pub use detector::{FailureDetector, Liveness};
pub use elastic::{
    rekey_key, ElasticBounds, ElasticGroup, Topology, TopologyCmd, TopologyError, TopologyEvent,
};
// Re-exported so deployment builders can name the replicated combiner
// without depending on p2pfl-fed directly.
pub use p2pfl_fed::RobustCombiner;
pub use topology::{Deployment, DeploymentSpec};
