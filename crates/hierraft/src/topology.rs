//! Deployment builder for two-layer Raft simulations.

use crate::actor::HierActor;
use crate::config::{ElasticPeerConfig, HierMsg, HierPeerConfig};
use crate::elastic::{ElasticBounds, Topology};
use p2pfl_fed::RobustCombiner;
use p2pfl_secagg::SacEngine;
use p2pfl_simnet::{Latency, LatencyConfig, NodeId, Sim, SimDuration, SimTime};

/// Parameters of a two-layer deployment (paper Sec. VI-B1: m = 5 subgroups
/// of n = 5 peers, 15 ms link delay, timeouts `U(T, 2T)`).
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Number of subgroups (`m`).
    pub num_subgroups: usize,
    /// Peers per subgroup (`n`).
    pub subgroup_size: usize,
    /// Election timeout lower bound `T`.
    pub t: SimDuration,
    /// One-way link delay.
    pub link_delay: SimDuration,
    /// Secure-aggregation engine for this deployment (replicated to every
    /// peer through the committed [`crate::FedConfig`]).
    pub engine: SacEngine,
    /// FedAvg-layer combining rule (replicated alongside `engine`).
    pub combiner: RobustCombiner,
    /// Simulation seed.
    pub seed: u64,
    /// Elastic subgroup bounds; `None` keeps the paper's static layout.
    pub elastic: Option<ElasticBounds>,
}

impl DeploymentSpec {
    /// The paper's Fig. 10–12 topology with a given `T` and seed.
    pub fn paper(t_ms: u64, seed: u64) -> Self {
        DeploymentSpec {
            num_subgroups: 5,
            subgroup_size: 5,
            t: SimDuration::from_millis(t_ms),
            link_delay: SimDuration::from_millis(15),
            engine: SacEngine::Pairwise,
            combiner: RobustCombiner::FedAvg,
            seed,
            elastic: None,
        }
    }

    /// Total peer count.
    pub fn total_peers(&self) -> usize {
        self.num_subgroups * self.subgroup_size
    }

    /// Subgroup memberships, in subgroup order: ids `0..total_peers` in
    /// consecutive runs of `subgroup_size`.
    pub fn subgroups(&self) -> Vec<Vec<NodeId>> {
        let n = self.subgroup_size;
        (0..self.num_subgroups)
            .map(|g| (g * n..(g + 1) * n).map(|i| NodeId(i as u32)).collect())
            .collect()
    }

    /// The configuration of peer `id`. An id below
    /// [`DeploymentSpec::total_peers`] is placed in subgroup `id / n`, and
    /// the first peer of each subgroup is a founding FedAvg member; a
    /// higher id is an unplaced rendezvous joiner. Heartbeat, probe and
    /// detector windows derive from `t` ([`HierPeerConfig::heartbeat`]). A
    /// caller that needs a different value sets that field with
    /// struct-update syntax.
    pub fn peer_config(&self, id: NodeId) -> HierPeerConfig {
        let subgroups = self.subgroups();
        let gi = id.0 as usize / self.subgroup_size;
        let placed = gi < self.num_subgroups;
        let (subgroup, subgroup_index) = match placed {
            true => (subgroups[gi].clone(), gi),
            false => (vec![id], usize::MAX),
        };
        HierPeerConfig {
            id,
            subgroup,
            subgroup_index,
            founding_fed: subgroups.iter().map(|g| g[0]).collect(),
            t: self.t,
            engine: self.engine,
            combiner: self.combiner,
            seed: self.seed ^ (0x9e37 + id.0 as u64 * 0x85eb_ca6b),
            elastic: self.elastic.map(|bounds| ElasticPeerConfig {
                bounds,
                initial_groups: if placed { subgroups } else { Vec::new() },
            }),
        }
    }
}

/// A running two-layer Raft deployment.
pub struct Deployment {
    /// The simulator carrying all peers.
    pub sim: Sim<HierMsg>,
    /// Subgroup memberships, in subgroup order.
    pub subgroups: Vec<Vec<NodeId>>,
    /// The designated founding FedAvg-layer members (one per subgroup).
    pub founding: Vec<NodeId>,
    spec: DeploymentSpec,
}

impl Deployment {
    /// Builds and starts a deployment (nothing has run yet; drive with
    /// [`Deployment::wait_stable`] or `sim.run_until`).
    pub fn build(spec: DeploymentSpec) -> Self {
        let mut sim = Sim::new(spec.seed);
        sim.set_latency(LatencyConfig::uniform_default(Latency::Constant(
            spec.link_delay,
        )));
        let subgroups = spec.subgroups();
        // Founding FedAvg member: the first peer of each subgroup.
        let founding: Vec<NodeId> = subgroups.iter().map(|g| g[0]).collect();
        for id in subgroups.iter().flatten() {
            let got = sim.add_node(HierActor::new(spec.peer_config(*id)));
            assert_eq!(got, *id);
        }
        Deployment {
            sim,
            subgroups,
            founding,
            spec,
        }
    }

    /// The spec this deployment was built from.
    pub fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    /// Spawns an *unplaced* peer into an elastic deployment: it belongs to
    /// no subgroup and polls the founding FedAvg members for a rendezvous
    /// assignment; the FedAvg leader serializes an `Admit` for it and the
    /// peer transitions into its assigned subgroup. Panics if the
    /// deployment is not elastic.
    pub fn spawn_joiner(&mut self) -> NodeId {
        // A static deployment has no rendezvous path to place the joiner.
        assert!(
            self.spec.elastic.is_some(),
            "spawn_joiner requires an elastic deployment"
        );
        // Reserve the id the simulator will hand out next.
        let id = NodeId(self.sim.node_count() as u32);
        let got = self.sim.add_node(HierActor::new(self.spec.peer_config(id)));
        assert_eq!(got, id);
        got
    }

    /// The most advanced layout any live peer has adopted.
    pub fn latest_topology(&self) -> Topology {
        let mut best: Option<Topology> = None;
        for id in 0..self.sim.node_count() {
            let id = NodeId(id as u32);
            if self.sim.is_crashed(id) {
                continue;
            }
            let t = &self.sim.actor::<HierActor>(id).topology;
            if best.as_ref().is_none_or(|b| t.version > b.version) {
                best = Some(t.clone());
            }
        }
        best.unwrap_or_else(|| Topology::from_groups(&self.subgroups))
    }

    /// Refreshes `self.subgroups` from the most advanced adopted layout,
    /// so `sub_leader_of` / `is_stable` follow elastic transitions.
    /// Returns the layout it adopted.
    pub fn refresh_subgroups(&mut self) -> Topology {
        let t = self.latest_topology();
        self.subgroups = t.groups.iter().map(|g| g.members.clone()).collect();
        t
    }

    /// The current leader of subgroup `g`, if exactly one live peer leads.
    pub fn sub_leader_of(&self, g: usize) -> Option<NodeId> {
        let leaders: Vec<NodeId> = self.subgroups[g]
            .iter()
            .copied()
            .filter(|&id| {
                !self.sim.is_crashed(id) && self.sim.actor::<HierActor>(id).is_sub_leader()
            })
            .collect();
        if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        }
    }

    /// The current FedAvg-layer leader, if exactly one live peer leads.
    pub fn fed_leader(&self) -> Option<NodeId> {
        let mut leaders = Vec::new();
        for g in &self.subgroups {
            for &id in g {
                if !self.sim.is_crashed(id) && self.sim.actor::<HierActor>(id).is_fed_leader() {
                    leaders.push(id);
                }
            }
        }
        if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        }
    }

    /// Whether the deployment is stable: every subgroup has exactly one
    /// leader, each such leader is an active FedAvg-layer member, and the
    /// FedAvg layer has a leader.
    pub fn is_stable(&self) -> bool {
        if self.fed_leader().is_none() {
            return false;
        }
        (0..self.subgroups.len()).all(|g| {
            self.sub_leader_of(g)
                .is_some_and(|l| self.sim.actor::<HierActor>(l).is_fed_member())
        })
    }

    /// Runs until [`Deployment::is_stable`] or `deadline`; returns success.
    pub fn wait_stable(&mut self, deadline: SimTime) -> bool {
        self.wait(deadline, |d| d.is_stable())
    }

    /// Runs in small steps until `pred` holds or `deadline` passes.
    pub fn wait(&mut self, deadline: SimTime, pred: impl Fn(&Deployment) -> bool) -> bool {
        let step = SimDuration::from_millis(5);
        loop {
            if pred(self) {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            self.sim.run_for(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_reaches_stability() {
        let mut d = Deployment::build(DeploymentSpec::paper(100, 1));
        assert!(d.wait_stable(SimTime::from_secs(10)), "never stabilized");
        // Founding members should lead their subgroups at genesis.
        for (g, members) in d.subgroups.clone().iter().enumerate() {
            assert_eq!(d.sub_leader_of(g), Some(members[0]), "subgroup {g}");
        }
        let fl = d.fed_leader().unwrap();
        assert!(d.founding.contains(&fl));
    }

    #[test]
    fn spec_counts() {
        let s = DeploymentSpec::paper(50, 2);
        assert_eq!(s.total_peers(), 25);
    }
}
