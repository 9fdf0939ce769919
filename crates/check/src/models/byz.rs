//! Byzantine checker models: small deployments with 1-of-n *malicious*
//! (not crashed) peers, exercising the two Byzantine oracles.
//!
//! [`ByzModel`] is a 4-peer, k=2 SAC subgroup in which position 2 runs the
//! commit-then-skew attack (`byz_share_skew`): it publishes honest hash
//! commitments, then scales every share block it sends. The
//! `ByzantineBoundedInfluence` oracle must hold on every reachable state —
//! the skewer never lands in a frozen contributor set, and the published
//! result never escapes the honest contributors' envelope.
//!
//! [`ByzEquivModel`] is one 3-peer subgroup of `HierActor`s in which peer 2
//! equivocates on its config echoes (conflicting digests to different
//! peers). The `EquivocationDetection` oracle must hold on every reachable
//! state: only peer 2 is ever convicted, and any counted conflict convicts.

use super::sac::{config, hash_round_state, ids, peer_model};
use super::{hash_raft_node, hasher};
use crate::{oracles, Model, Violation};
use p2pfl_hierraft::{FedCmd, HierActor, HierMsg, HierPeerConfig, RobustCombiner, SubCmd};
use p2pfl_raft::MemStorage;
use p2pfl_secagg::{SacEngine, SacMsg, SacPeerActor, WeightVector};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const N: usize = 4;
const K: usize = 2;
const BYZ_POS: usize = 2;
const SKEW: f64 = 4.0;
const SEED: u64 = 0xb42;

/// See module docs.
#[derive(Clone, Copy)]
pub struct ByzModel;

impl Model for ByzModel {
    type Msg = SacMsg;

    fn name(&self) -> &'static str {
        "byz"
    }

    fn build(&self) -> Sim<Self::Msg> {
        let mut sim = Sim::new(SEED);
        for pos in 0..N {
            let cfg = config(N, pos, K, SacEngine::Pairwise, SEED, None);
            sim.add_node(SacPeerActor::new(cfg, peer_model(NodeId(pos as u32))));
        }
        sim.actor_mut::<SacPeerActor>(NodeId(BYZ_POS as u32))
            .byz_share_skew = Some(SKEW);
        sim
    }

    fn init(&self, sim: &mut Sim<Self::Msg>) {
        sim.exec::<SacPeerActor, _, _>(NodeId(0), |a, ctx| a.start_round(ctx, 1));
    }

    fn fingerprint(&self, sim: &mut Sim<Self::Msg>) -> u64 {
        let mut h = hasher();
        for id in ids(N) {
            let a = sim.actor::<SacPeerActor>(id);
            hash_round_state(a, &mut h);
            a.shares_rejected.hash(&mut h);
            a.byzantine_detected.hash(&mut h);
        }
        h.finish()
    }

    fn check(&self, sim: &mut Sim<Self::Msg>) -> Result<(), Violation> {
        let sim = &*sim;
        let actors: Vec<(NodeId, &SacPeerActor)> =
            ids(N).into_iter().map(|id| (id, sim.actor(id))).collect();
        // The honest inputs; position 2's *intended* contribution. The
        // mask-cancellation oracle is deliberately not run here — the
        // attacker's shares do not sum to any model, which is exactly the
        // point.
        let models: Vec<&WeightVector> = actors.iter().map(|(_, a)| a.model()).collect();
        let byzantine: BTreeSet<usize> = [BYZ_POS].into_iter().collect();
        oracles::byzantine_bounded_influence(actors.iter().copied(), &models, &byzantine)
    }
}

const EQUIV_SIZE: usize = 3;
const EQUIV_BYZ: u32 = 2;
const EQUIV_SEED: u64 = 0xeb42;

/// See module docs.
#[derive(Clone, Copy)]
pub struct ByzEquivModel;

impl ByzEquivModel {
    fn ids() -> Vec<NodeId> {
        (0..EQUIV_SIZE as u32).map(NodeId).collect()
    }

    fn cfg(id: NodeId) -> HierPeerConfig {
        HierPeerConfig {
            id,
            subgroup: Self::ids(),
            subgroup_index: 0,
            founding_fed: vec![NodeId(0)],
            t: SimDuration::from_millis(300),
            heartbeat: SimDuration::from_millis(60),
            config_commit_interval: SimDuration::from_millis(200),
            join_poll_interval: SimDuration::from_millis(100),
            probe_interval: SimDuration::from_millis(60),
            suspect_after: SimDuration::from_millis(300),
            dead_after: SimDuration::from_millis(900),
            engine: SacEngine::Pairwise,
            combiner: RobustCombiner::TrimmedMean,
            seed: EQUIV_SEED ^ (0x9e37 + id.0 as u64 * 0x85eb_ca6b),
            elastic: None,
        }
    }
}

impl Model for ByzEquivModel {
    type Msg = HierMsg;

    fn name(&self) -> &'static str {
        "byzequiv"
    }

    fn build(&self) -> Sim<Self::Msg> {
        let mut sim = Sim::new(EQUIV_SEED);
        for id in Self::ids() {
            sim.add_node(HierActor::with_storage(
                Self::cfg(id),
                Box::new(MemStorage::<SubCmd>::new()),
                Box::new(MemStorage::<FedCmd>::new()),
            ));
        }
        sim.actor_mut::<HierActor>(NodeId(EQUIV_BYZ)).byz_equivocate = true;
        sim
    }

    fn fingerprint(&self, sim: &mut Sim<Self::Msg>) -> u64 {
        let mut h = hasher();
        for id in Self::ids() {
            let a = sim.actor::<HierActor>(id);
            hash_raft_node(a.sub_raft(), &mut h);
            a.fed_config.version.hash(&mut h);
            a.equivocations_detected.hash(&mut h);
            for p in &a.byzantine_peers {
                p.0.hash(&mut h);
            }
            for m in a.live_sub_members() {
                m.0.hash(&mut h);
            }
        }
        h.finish()
    }

    fn check(&self, sim: &mut Sim<Self::Msg>) -> Result<(), Violation> {
        let ids = Self::ids();
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| (id, sim.actor::<HierActor>(id).sub_raft()))
            .collect();
        oracles::election_safety("sub0", nodes.iter().map(|&(id, n)| (id, n)))?;
        oracles::log_matching("sub0", &nodes)?;
        let byzantine: BTreeSet<NodeId> = [NodeId(EQUIV_BYZ)].into_iter().collect();
        let actors: Vec<(NodeId, &HierActor)> = ids
            .iter()
            .map(|&id| (id, sim.actor::<HierActor>(id)))
            .collect();
        oracles::equivocation_detection(actors.iter().copied(), &byzantine)
    }
}
