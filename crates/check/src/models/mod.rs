//! The model catalog: small, fixed deployments of the real protocol actors
//! wired for bounded exploration.
//!
//! Each model builds its simulation with fixed seeds (determinism is what
//! makes replay-based exploration sound), canonicalizes actor state into a
//! fingerprint, and composes the [`crate::oracles`] into one `check`.

mod byz;
mod elastic;
mod hier;
mod raft3;
mod sac;
mod sac3_churn;

pub use byz::{ByzEquivModel, ByzModel};
pub use elastic::ElasticModel;
pub use hier::HierModel;
pub use raft3::Raft3Model;
pub use sac::{RingSacModel, Sac3Model, SacShape};
pub use sac3_churn::SacChurnModel;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Hashes one node's Raft-visible state (role, term, vote, commit index,
/// leader hint, live log entries, snapshot bound) into `h`. Absolute time
/// is deliberately excluded — states differing only in virtual clock are
/// equivalent for the explorer.
pub(crate) fn hash_raft_node<C, H: Hasher>(node: &p2pfl_raft::RaftNode<C>, h: &mut H)
where
    C: p2pfl_raft::Command + std::fmt::Debug,
{
    format!("{:?}", node.role()).hash(h);
    node.term().hash(h);
    node.voted_for().map(|n| n.0).hash(h);
    node.commit_index().hash(h);
    node.leader_hint().map(|n| n.0).hash(h);
    node.log().snapshot_index().hash(h);
    node.log().snapshot_term().hash(h);
    for e in node.log().iter() {
        e.index.hash(h);
        e.term.hash(h);
        format!("{:?}", e.cmd).hash(h);
    }
    for id in node.cluster() {
        id.0.hash(h);
    }
}

/// A fresh `DefaultHasher` — the single hash implementation used for all
/// model fingerprints.
pub(crate) fn hasher() -> DefaultHasher {
    DefaultHasher::new()
}
