//! A two-subgroup × three-peer two-layer deployment (the ISSUE's CI
//! topology): six `HierActor`s over `MemStorage`, founding FedAvg members
//! node 0 and node 3.
//!
//! The interesting interleavings are subgroup elections racing the
//! FedAvg-layer election and the periodic `FedConfig` commits, so the
//! oracles cover both layers plus the cross-layer replication claim.

use super::{hash_raft_node, hasher};
use crate::{oracles, Model, Violation};
use p2pfl_hierraft::{DeploymentSpec, FedCmd, HierActor, HierMsg, SubCmd};
use p2pfl_raft::MemStorage;
use p2pfl_simnet::{NodeId, Sim};
use std::hash::{Hash, Hasher};

const GROUPS: usize = 2;
const SIZE: usize = 3;
const SEED: u64 = 0x21e7;

/// See module docs.
#[derive(Clone, Copy)]
pub struct HierModel;

impl HierModel {
    fn spec() -> DeploymentSpec {
        DeploymentSpec {
            num_subgroups: GROUPS,
            subgroup_size: SIZE,
            ..DeploymentSpec::paper(300, SEED)
        }
    }

    fn subgroups() -> Vec<Vec<NodeId>> {
        Self::spec().subgroups()
    }

    fn ids() -> Vec<NodeId> {
        (0..(GROUPS * SIZE) as u32).map(NodeId).collect()
    }
}

impl Model for HierModel {
    type Msg = HierMsg;

    fn name(&self) -> &'static str {
        "hier"
    }

    fn build(&self) -> Sim<Self::Msg> {
        let mut sim = Sim::new(SEED);
        for id in Self::ids() {
            sim.add_node(HierActor::with_storage(
                Self::spec().peer_config(id),
                Box::new(MemStorage::<SubCmd>::new()),
                Box::new(MemStorage::<FedCmd>::new()),
            ));
        }
        sim
    }

    fn fingerprint(&self, sim: &mut Sim<Self::Msg>) -> u64 {
        let mut h = hasher();
        for id in Self::ids() {
            let a = sim.actor::<HierActor>(id);
            hash_raft_node(a.sub_raft(), &mut h);
            match a.fed_raft() {
                Some(fed) => {
                    true.hash(&mut h);
                    hash_raft_node(fed, &mut h);
                }
                None => false.hash(&mut h),
            }
            a.fed_config.version.hash(&mut h);
            for m in &a.fed_config.current {
                m.0.hash(&mut h);
            }
        }
        h.finish()
    }

    fn check(&self, sim: &mut Sim<Self::Msg>) -> Result<(), Violation> {
        let ids = Self::ids();
        for (gi, group) in Self::subgroups().iter().enumerate() {
            let layer = format!("sub{gi}");
            let nodes: Vec<_> = group
                .iter()
                .map(|&id| (id, sim.actor::<HierActor>(id).sub_raft()))
                .collect();
            oracles::election_safety(&layer, nodes.iter().map(|&(id, n)| (id, n)))?;
            oracles::log_matching(&layer, &nodes)?;
        }
        {
            let fed: Vec<_> = ids
                .iter()
                .filter_map(|&id| sim.actor::<HierActor>(id).fed_raft().map(|n| (id, n)))
                .collect();
            oracles::election_safety("fed", fed.iter().map(|&(id, n)| (id, n)))?;
            oracles::log_matching("fed", &fed)?;
        }
        let peers: Vec<_> = ids
            .iter()
            .map(|&id| {
                let a = sim.actor::<HierActor>(id);
                (id, &a.fed_config, a.sub_raft())
            })
            .collect();
        oracles::fed_config_replication(&peers)?;
        let configs: Vec<_> = peers.iter().map(|&(id, cfg, _)| (id, cfg)).collect();
        oracles::engine_agreement(&configs)?;
        // All peers honest: the echo protocol must never convict anyone.
        let actors: Vec<_> = ids
            .iter()
            .map(|&id| (id, sim.actor::<HierActor>(id)))
            .collect();
        oracles::equivocation_detection(
            actors.iter().copied(),
            &std::collections::BTreeSet::new(),
        )?;
        for id in ids {
            let rt = sim.actor_mut::<HierActor>(id).verify_storage_roundtrip();
            oracles::storage_roundtrip(id, rt)?;
        }
        Ok(())
    }
}
