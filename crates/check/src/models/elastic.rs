//! Elastic-topology checker model: six `HierActor`s in an asymmetric
//! layout — subgroup {0,1,2,3} and subgroup {4,5} — with elastic bounds,
//! stabilized deterministically and then handed a split, a merge, and a
//! departure to commit. The exploration starts with all three transitions
//! in flight, so the explorer drives every interleaving of their
//! replication and adoption traffic (fed-log entries, `TopologySync`
//! pushes, re-keyed subgroup elections) mid-round.
//!
//! The oracles cover both Raft layers plus the two elastic claims:
//! `TopologyConvergence` (layout agreement, partition, planner progress)
//! and `NoMaskReuseAcrossRekey` (every adopted roster transition derives a
//! fresh mask domain).

use super::{hash_raft_node, hasher};
use crate::{oracles, Model, Violation};
use p2pfl_hierraft::{
    DeploymentSpec, ElasticBounds, ElasticPeerConfig, FedCmd, HierActor, HierMsg, HierPeerConfig,
    SubCmd, TopologyCmd,
};
use p2pfl_raft::{MemStorage, Role};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use std::hash::{Hash, Hasher};

const SEED: u64 = 0xe1a5;

/// See module docs.
#[derive(Clone, Copy)]
pub struct ElasticModel;

impl ElasticModel {
    fn bounds() -> ElasticBounds {
        ElasticBounds::new(2, 4)
    }

    fn subgroups() -> Vec<Vec<NodeId>> {
        vec![
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5)],
        ]
    }

    fn ids() -> Vec<NodeId> {
        (0..6).map(NodeId).collect()
    }

    fn cfg(id: NodeId, subgroups: &[Vec<NodeId>]) -> HierPeerConfig {
        let gi = subgroups
            .iter()
            .position(|g| g.contains(&id))
            .expect("every peer starts placed");
        // Asymmetric layout: placement and founding seats are set here,
        // everything else is the paper spec's.
        let spec = DeploymentSpec {
            num_subgroups: 2,
            subgroup_size: 3,
            ..DeploymentSpec::paper(300, SEED)
        };
        let mut cfg = spec.peer_config(id);
        cfg.subgroup = subgroups[gi].clone();
        cfg.subgroup_index = gi;
        cfg.founding_fed = vec![NodeId(0), NodeId(4)];
        cfg.elastic = Some(ElasticPeerConfig {
            bounds: Self::bounds(),
            initial_groups: subgroups.to_vec(),
        });
        cfg
    }
}

impl Model for ElasticModel {
    type Msg = HierMsg;

    fn name(&self) -> &'static str {
        "elastic"
    }

    fn build(&self) -> Sim<Self::Msg> {
        let mut sim = Sim::new(SEED);
        let subgroups = Self::subgroups();
        for id in Self::ids() {
            sim.add_node(HierActor::with_storage(
                Self::cfg(id, &subgroups),
                Box::new(MemStorage::<SubCmd>::new()),
                Box::new(MemStorage::<FedCmd>::new()),
            ));
        }
        sim
    }

    fn init(&self, sim: &mut Sim<Self::Msg>) {
        // Stabilize both layers deterministically, then inject the
        // transition commands. The exploration proper starts here, with
        // the transitions' replication traffic in flight:
        //   Split 0 -> {0,1} (gid 2) + {2,3} (gid 3)
        //   Merge gid 2 into gid 1 -> {0,1,4,5}
        //   Depart 5 -> {0,1,4}
        // Every intermediate layout stays repairable, which is exactly
        // what the TopologyConvergence oracle proves on each state.
        sim.run_for(SimDuration::from_secs(8));
        let fl = Self::ids().into_iter().find(|&id| {
            sim.actor::<HierActor>(id)
                .fed_raft()
                .is_some_and(|n| n.role() == Role::Leader)
        });
        if let Some(fl) = fl {
            let g0 = Self::subgroups()[0].clone();
            sim.exec::<HierActor, _, _>(fl, |a, ctx| {
                let _ = a.propose_topology(
                    ctx,
                    TopologyCmd::Split {
                        gid: 0,
                        left: g0[..2].to_vec(),
                        right: g0[2..].to_vec(),
                    },
                );
                let _ = a.propose_topology(ctx, TopologyCmd::Merge { into: 1, from: 2 });
                let _ = a.propose_topology(ctx, TopologyCmd::Depart { peer: NodeId(5) });
            });
        }
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
            a.topology.version.hash(&mut h);
            for g in &a.topology.groups {
                g.gid.hash(&mut h);
                for m in &g.members {
                    m.0.hash(&mut h);
                }
            }
            a.rekeys.hash(&mut h);
            a.splits.hash(&mut h);
            a.merges.hash(&mut h);
        }
        h.finish()
    }

    fn check(&self, sim: &mut Sim<Self::Msg>) -> Result<(), Violation> {
        let ids = Self::ids();
        // Subgroup-layer safety per *adopted* roster: transitions re-seat
        // the subgroup Raft, so peers are grouped by the roster they
        // currently believe in, not the static layout.
        let mut rosters: Vec<Vec<NodeId>> = Vec::new();
        for &id in &ids {
            let roster = sim.actor::<HierActor>(id).subgroup().to_vec();
            if !rosters.contains(&roster) {
                rosters.push(roster);
            }
        }
        for roster in &rosters {
            let layer = format!("sub{:?}", roster.iter().map(|m| m.0).collect::<Vec<_>>());
            let nodes: Vec<_> = roster
                .iter()
                .filter(|&&id| sim.actor::<HierActor>(id).subgroup() == &roster[..])
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
        let topologies: Vec<_> = ids
            .iter()
            .map(|&id| (id, &sim.actor::<HierActor>(id).topology))
            .collect();
        oracles::topology_convergence(topologies.iter().copied(), Self::bounds())?;
        let actors: Vec<_> = ids
            .iter()
            .map(|&id| (id, sim.actor::<HierActor>(id)))
            .collect();
        oracles::no_mask_reuse_across_rekey(actors.iter().copied())
    }
}
