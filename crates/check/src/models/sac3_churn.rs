//! A 3-peer, k = n = 3 *supervised* SAC subgroup with a mid-round follower
//! crash: the round cannot complete with the full roster, so the leader's
//! round deadline must abort it and restart with the two survivors
//! (`k' = min(3, 2) = 2`).
//!
//! The crash is a pending event like any delivery, so the explorer owns
//! its placement relative to share and subtotal traffic. Beyond the mask
//! and reconstruction oracles shared with `sac3`, this model gates the two
//! supervision invariants: **RoundTermination** (a quiescent system never
//! strands an open supervised round) and **DegradedLiveness** (a `Done`
//! after degradation carries a sane `n'`/`k'`/contributor set, and a
//! `Failed` is only ever issued after an abort was tried).

use super::sac::{config, hash_round_state, ids, peer_model};
use crate::{oracles, Model, Violation};
use p2pfl_secagg::{SacEngine, SacMsg, SacPeerActor, WeightVector};
use p2pfl_simnet::{NodeId, Sim, SimDuration, SimTime};
use std::hash::{Hash, Hasher};

const N: usize = 3;
/// n-of-n: every partition has exactly one holder, so losing any member
/// makes the round unrecoverable and forces the supervisor to act.
const K: usize = 3;
const SEED: u64 = 0x5ac2;

/// See module docs.
#[derive(Clone, Copy)]
pub struct SacChurnModel;

impl Model for SacChurnModel {
    type Msg = SacMsg;

    fn name(&self) -> &'static str {
        "sacchurn"
    }

    fn build(&self) -> Sim<Self::Msg> {
        let mut sim = Sim::new(SEED);
        // > share + 2 * collect, so phase deadlines get their chance
        // before the supervisor pulls the plug.
        let round_deadline = Some(SimDuration::from_millis(400));
        for pos in 0..N {
            let cfg = config(N, pos, K, SacEngine::Pairwise, SEED, round_deadline);
            sim.add_node(SacPeerActor::new(cfg, peer_model(NodeId(pos as u32))));
        }
        sim
    }

    fn init(&self, sim: &mut Sim<Self::Msg>) {
        sim.exec::<SacPeerActor, _, _>(NodeId(0), |a, ctx| a.start_round(ctx, 1));
        // Before any 15 ms share delivery lands; the explorer still owns
        // the ordering of the crash against everything else in flight.
        sim.schedule_crash(NodeId(2), SimTime::from_millis(5));
    }

    fn fingerprint(&self, sim: &mut Sim<Self::Msg>) -> u64 {
        let mut h = super::hasher();
        for id in ids(N) {
            sim.is_crashed(id).hash(&mut h);
            let a = sim.actor::<SacPeerActor>(id);
            hash_round_state(a, &mut h);
            a.aborts.hash(&mut h);
            a.abandoned.hash(&mut h);
            let cfg = a.sac_config();
            cfg.group
                .iter()
                .map(|n| n.0)
                .collect::<Vec<_>>()
                .hash(&mut h);
            cfg.k.hash(&mut h);
            cfg.position.hash(&mut h);
        }
        h.finish()
    }

    fn check(&self, sim: &mut Sim<Self::Msg>) -> Result<(), Violation> {
        let ids = ids(N);
        let quiescent = sim.pending_events().is_empty();
        let sim = &*sim;
        let actors: Vec<(NodeId, &SacPeerActor)> = ids
            .iter()
            .map(|&id| (id, sim.actor::<SacPeerActor>(id)))
            .collect();
        oracles::round_termination(quiescent, actors.iter().copied())?;
        oracles::degraded_liveness(K, actors.iter().copied())?;
        // Mask and reconstruction checks run against the *current* roster:
        // the leader's group for the newest round in the system (positions
        // in share traffic are roster-relative after a reconfiguration).
        let round = actors.iter().map(|(_, a)| a.round).max().unwrap_or(0);
        let leader = sim.actor::<SacPeerActor>(NodeId(0));
        let roster: Vec<NodeId> = if leader.round == round {
            leader.sac_config().group.clone()
        } else {
            ids.clone()
        };
        let current = || {
            actors
                .iter()
                .copied()
                .filter(|(_, a)| a.sac_config().group == roster)
        };
        let copies = oracles::share_copies(current(), sim.pending_deliveries(), round);
        let models: Vec<WeightVector> = roster.iter().map(|&m| peer_model(m)).collect();
        let model_refs: Vec<&WeightVector> = models.iter().collect();
        oracles::mask_cancellation(&copies, &model_refs, |_| roster.len())?;
        oracles::kofn_result(current(), &model_refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_secagg::SacPhase;

    /// The natural (timestamp-ordered) execution: the crash beats every
    /// share delivery, the supervisor aborts round 1 and completes round 2
    /// with the two survivors.
    #[test]
    fn natural_execution_degrades_and_terminates() {
        let m = SacChurnModel;
        let mut sim = m.build();
        m.init(&mut sim);
        sim.run_until_quiet(100_000);
        m.check(&mut sim).expect("oracles clean at quiescence");
        let leader = sim.actor::<SacPeerActor>(NodeId(0));
        assert_eq!(leader.phase, SacPhase::Done);
        assert_eq!(leader.aborts, 1);
        assert_eq!(leader.round, 2);
        assert_eq!(leader.sac_config().group, vec![NodeId(0), NodeId(1)]);
        assert_eq!(leader.sac_config().k, 2);
        assert_eq!(leader.contributors, vec![0, 1]);
    }

    #[test]
    fn bounded_exploration_is_clean() {
        let ex = crate::Explorer::new(
            SacChurnModel,
            crate::ExploreConfig {
                max_depth: 5,
                max_states: 4_000,
                max_branch: 3,
                enable_drops: false,
                enable_dups: false,
                fault_choice_limit: 2,
            },
        );
        let report = ex.explore();
        assert!(report.counterexample.is_none(), "{report:?}");
        assert!(report.states_visited > 50);
    }

    /// Deep random walks reach quiescence, arming RoundTermination.
    #[test]
    fn random_walks_reach_clean_quiescence() {
        let ex = crate::Explorer::new(
            SacChurnModel,
            crate::ExploreConfig {
                max_depth: 150,
                max_states: u64::MAX,
                max_branch: 4,
                enable_drops: false,
                enable_dups: false,
                fault_choice_limit: 0,
            },
        );
        let report = ex.random_walk(30, 0xdeb);
        assert!(report.counterexample.is_none(), "{report:?}");
    }
}
