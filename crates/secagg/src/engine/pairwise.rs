//! The pairwise engine's wire protocol (paper Alg. 4): the one-stage
//! layout with `k` as given, all-to-all `ShareBlock`s preceded by digest
//! `Commit`s, and a leader that learns who contributed from the blocks it
//! received itself.

use super::Wire;
use crate::ring::plan::RingPlan;

/// The pairwise engine's [`Wire`]: the one-stage layout, with digest
/// commitments.
pub struct PairwiseWire;

impl Wire for PairwiseWire {
    const COMMITS: bool = true;
    const ANNOUNCES: bool = false;

    fn layout(n: usize, k: usize) -> RingPlan {
        RingPlan::one_stage(n, k)
    }
}

/// What only the pairwise wire does: the all-to-all ledger and the
/// digest commitments. The shared contract is tested in `engine::tests`.
#[cfg(test)]
mod tests {
    use crate::engine::testkit::*;
    use crate::{PairwiseWire, SacPeerActor, SacPhase};
    use p2pfl_simnet::NodeId;

    /// Runs one n = 5, k = 3 round in which peer 3 commits to honest
    /// digests but sends shares scaled by 0.5 (the commit-then-skew
    /// attack).
    fn skewed_round(verify: bool) -> (Sim<crate::SacMsg>, Vec<NodeId>, Vec<crate::WeightVector>) {
        let (mut sim, ids, models) = build::<PairwiseWire>(5, 3, 8, 51, None);
        for &id in &ids {
            sim.actor_mut::<SacPeerActor>(id).verify_commitments = verify;
        }
        sim.actor_mut::<SacPeerActor>(ids[3]).byz_share_skew = Some(0.5);
        start::<PairwiseWire>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        (sim, ids, models)
    }

    #[test]
    fn share_traffic_dominates_ledger() {
        let (mut sim, ids, models) = build::<PairwiseWire>(5, 3, 64, 33, None);
        let wire = models[0].wire_bytes();
        start::<PairwiseWire>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        let m = sim.metrics();
        // Share phase: n(n-1) block messages of (n-k+1)|w| each (+8B header).
        let share = m.kind("sac.share");
        assert_eq!(share.msgs, 20);
        assert_eq!(share.bytes, 20 * (3 * wire + 8));
        // Subtotal phase: primary owners outside the leader's block.
        assert_eq!(m.kind("sac.subtotal").msgs, 2); // k-1 = 2
        assert_eq!(m.kind("sac.commit").msgs, 20);
    }

    #[test]
    fn skewed_shares_are_rejected_and_sender_evicted_from_round() {
        // Every receiver's digest check must reject the skewer's blocks,
        // so the round completes over the honest four — and the leader's
        // average is the honest mean, not a poisoned one.
        let (sim, ids, models) = skewed_round(true);
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_done(leader, &models, &[0, 1, 2, 4]);
        assert!(leader.shares_rejected >= 1);
        assert!(leader.byzantine_detected.contains(&ids[3]));
        // Followers reject the same blocks independently.
        for &id in &[ids[1], ids[2], ids[4]] {
            assert!(
                sim.actor::<SacPeerActor>(id).shares_rejected >= 1,
                "follower {id:?} accepted a skewed block"
            );
        }
    }

    #[test]
    fn without_commitment_checks_the_skew_poisons_the_average() {
        // The pinned negative twin of the test above: commitment checks
        // off, same attack. The skewed shares land in the sums and the
        // "secure" average is silently wrong — which is why the check
        // defaults to on.
        let (sim, ids, models) = skewed_round(false);
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, vec![0, 1, 2, 3, 4], "skewer included");
        assert_eq!(leader.shares_rejected, 0);
        let avg = leader.result.as_ref().unwrap();
        assert!(
            avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3, 4])) > 1e-3,
            "undefended round should have been poisoned"
        );
    }
}
