//! The Ring-SAC engine's wire protocol: the staged [`RingPlan`] layout,
//! `ShareBlock`s sent only to the successor stage (`O(log n)` fan-out
//! instead of `n - 1`), and `Shared` announcements — the leader never
//! sees most shares, so the announcement replaces the all-to-all
//! visibility it has in the pairwise engine. The leader reconstructs the
//! global sum from `n` per-stage partition totals. Everything else — the
//! messages, the round itself and its supervision — is
//! [`crate::engine::RoundCore`].

use crate::engine::{RoundCore, SacMsg, Wire};
use crate::ring::plan::RingPlan;

/// The Ring-SAC engine's messages: the round core's one vocabulary. The
/// name stays for callers that spell the ring's message type.
pub type RingMsg = SacMsg;

/// The Ring-SAC engine's [`Wire`]: the staged layout, with `Shared`
/// announcements and (yet) no commitments.
pub struct RingWire;

/// A subgroup member executing fault-tolerant Ring-SAC. Shares
/// [`crate::SacConfig`] with the pairwise engine — a runtime picks one of
/// the two actors per [`crate::SacConfig::engine`].
pub type RingSacActor = RoundCore<RingWire>;

impl Wire for RingWire {
    const COMMITS: bool = false;
    const ANNOUNCES: bool = true;

    fn layout(n: usize, k: usize) -> RingPlan {
        RingPlan::new(n, k)
    }
}

/// What only the staged layout does: log fan-out and the per-stage
/// anonymity gate. The shared contract is tested in `engine::tests`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::*;
    use crate::{SacPhase, WeightVector};
    use p2pfl_simnet::{NodeId, SimDuration};

    /// n = 4, k = 2: stages [2, 2]. Peer 3 crashes before the round, so
    /// the announced set {0, 1, 2} leaves stage 1 with only peer 2 — its
    /// stage totals would hand the leader peer 2's individual model.
    fn isolated_stage_round(
        round_deadline: Option<SimDuration>,
    ) -> (Sim<SacMsg>, Vec<NodeId>, Vec<WeightVector>) {
        let (mut sim, ids, models) = build::<RingWire>(4, 2, 8, 23, round_deadline);
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(1));
        sim.run_until_quiet(100);
        start::<RingWire>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(5));
        (sim, ids, models)
    }

    #[test]
    fn singleton_frozen_stage_fails_unsupervised() {
        // The leader must refuse even though k is satisfied.
        let (sim, ids, _) = isolated_stage_round(None);
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert!(
            matches!(&leader.phase, SacPhase::Failed(r) if r.contains("single contributor")),
            "phase: {:?}",
            leader.phase
        );
        assert!(leader.result.is_none());
    }

    #[test]
    fn supervised_singleton_frozen_stage_degrades_and_completes() {
        // Same isolation, but supervised: the leader aborts and retries on
        // the contributor roster; the re-derived 3-member plan is a single
        // stage, so the per-stage anonymity set is the whole contributor
        // set again and the round completes.
        let (sim, ids, models) = isolated_stage_round(Some(SimDuration::from_millis(600)));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_done(leader, &models, &[0, 1, 2]);
        assert_eq!(leader.aborts, 1);
        assert_eq!(leader.sac_config().group, vec![ids[0], ids[1], ids[2]]);
        assert_eq!(leader.plan().num_stages(), 1);
    }

    #[test]
    fn follower_drops_compute_over_isolating_a_stage() {
        // Defense in depth against a curious leader: a follower refuses
        // to total a contributor set that isolates one peer in a stage.
        let mut solo = Solo::<RingWire>::new(4, 1, 2, false);
        solo.deliver(0, SacMsg::Begin { round: 1 });
        let compute_over = |contributors: Vec<usize>| SacMsg::ComputeOver {
            round: 1,
            contributors,
        };
        solo.deliver(0, compute_over(vec![0, 1, 2])); // stage 1 = {2, 3} isolated to {2}
        assert!(
            solo.actor.frozen_set().is_none(),
            "isolating freeze accepted"
        );
        assert_eq!(solo.actor.shares_rejected, 1);
        solo.deliver(0, compute_over(vec![0, 1, 2, 3]));
        assert!(
            solo.actor.frozen_set().is_some(),
            "balanced freeze rejected"
        );
    }

    #[test]
    fn share_traffic_is_log_fan_out() {
        // n = 8 -> stages [4, 4], k = 4: m = 4, n - k = 4 gives the raw
        // threshold m - (n - k) = 0, floored to the privacy minimum
        // k_m = 2 — each receiver gets 3 of the 4 partitions, never a
        // full share set. The point of the assertion is the message
        // count: 8 senders x 4 receivers = 32 share blocks instead of the
        // pairwise n(n-1) = 56.
        let (mut sim, ids, models) = build::<RingWire>(8, 4, 64, 33, None);
        let wire = models[0].wire_bytes();
        start::<RingWire>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        let m = sim.metrics();
        let share = m.kind("sac.share");
        assert_eq!(share.msgs, 32);
        // Each block carries min(m-1, n-k+1) = 3 partitions (+8B hdr).
        assert_eq!(share.bytes, 32 * (3 * wire + 8));
        // Announcements: n - 1 small control messages.
        assert_eq!(m.kind("sac.shared").msgs, 7);
        // Primary totals: all (stage, idx) pairs the leader does not
        // compute itself. Leader pos 0 (stage 0) holds its assigned block
        // {0, 1, 2} of stage 0, leaving stage 0's partition 3 and stage
        // 1's 4 primaries on the wire.
        assert_eq!(m.kind("sac.subtotal").msgs, 5);
    }
}
