//! The Ring-SAC engine's wire protocol: the staged [`RingPlan`] layout,
//! `StageShare`s sent only to the successor stage (`O(log n)` fan-out
//! instead of `n - 1`), and `Shared` announcements — the leader never
//! sees most shares, so the announcement replaces the all-to-all
//! visibility it has in the pairwise engine. The leader reconstructs the
//! global sum from `n` per-stage partition totals. Everything else — the
//! round itself and its supervision — is [`crate::engine::RoundCore`].

use crate::engine::{RoundCore, RoundEvent, Wire};
use crate::ring::plan::RingPlan;
use crate::weights::WeightVector;
use p2pfl_simnet::{NodeId, Payload};

/// Messages exchanged by the Ring-SAC engine.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RingMsg {
    /// Leader tells followers to begin round `round`.
    Begin {
        /// Round number.
        round: u64,
    },
    /// A contributor's replicated block of `(stage-local partition index,
    /// partition)` pairs, sent only to successor-stage members.
    StageShare {
        /// Round number.
        round: u64,
        /// Sender's global position within the subgroup.
        from_pos: usize,
        /// The stage-local partitions assigned to the receiver.
        parts: Vec<(usize, WeightVector)>,
    },
    /// A peer tells the leader its shares are distributed. The leader
    /// never sees most shares in the ring layout, so contributor
    /// freezing is driven by these announcements instead of received
    /// blocks.
    Shared {
        /// Round number.
        round: u64,
        /// Announcer's global position.
        from_pos: usize,
    },
    /// Leader freezes the contributor set.
    ComputeOver {
        /// Round number.
        round: u64,
        /// Positions whose models are included this round.
        contributors: Vec<usize>,
    },
    /// A computed per-stage partition total.
    StageTotal {
        /// Round number.
        round: u64,
        /// Receiving stage the total belongs to.
        stage: usize,
        /// Stage-local partition index.
        idx: usize,
        /// Sum of the partition over the frozen predecessor-stage
        /// contributors.
        value: WeightVector,
    },
    /// Leader asks an in-stage replica holder for a missing total.
    StageTotalRequest {
        /// Round number.
        round: u64,
        /// Receiving stage of the missing total.
        stage: usize,
        /// Stage-local partition index to recover.
        idx: usize,
    },
    /// Leader aborts the round (same discard semantics as the pairwise
    /// engine: all mask material of the round is dropped, never reused).
    Abort {
        /// The aborted round.
        round: u64,
        /// Human-readable cause, for logs and traces.
        reason: String,
    },
    /// Leader restarts aggregation after an abort with a degraded roster;
    /// receivers re-derive the ring plan from the new `(group, k)`.
    Reconfigure {
        /// The retry round (always a fresh round number).
        round: u64,
        /// Surviving subgroup members, in position order.
        group: Vec<NodeId>,
        /// Recomputed threshold `k' = min(k, n')`.
        k: usize,
    },
}

impl Payload for RingMsg {
    fn size_bytes(&self) -> u64 {
        match self {
            RingMsg::Begin { .. } => 16,
            RingMsg::StageShare { parts, .. } => {
                parts.iter().map(|(_, v)| v.wire_bytes()).sum::<u64>() + 8
            }
            RingMsg::Shared { .. } => 16,
            RingMsg::ComputeOver { contributors, .. } => 16 + contributors.len() as u64,
            RingMsg::StageTotal { value, .. } => value.wire_bytes() + 16,
            RingMsg::StageTotalRequest { .. } => 24,
            RingMsg::Abort { reason, .. } => 16 + reason.len() as u64,
            RingMsg::Reconfigure { group, .. } => 24 + 4 * group.len() as u64,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            RingMsg::Begin { .. } => "ring.begin",
            RingMsg::StageShare { .. } => "ring.share",
            RingMsg::Shared { .. } => "ring.shared",
            RingMsg::ComputeOver { .. } => "ring.ctrl",
            RingMsg::StageTotal { .. } => "ring.total",
            RingMsg::StageTotalRequest { .. } => "ring.request",
            RingMsg::Abort { .. } => "ring.abort",
            RingMsg::Reconfigure { .. } => "ring.reconf",
        }
    }
}

/// The Ring-SAC engine's [`Wire`]: [`RingMsg`] over the staged layout.
pub struct RingWire;

/// A subgroup member executing fault-tolerant Ring-SAC. Shares
/// [`crate::SacConfig`] with the pairwise engine — a runtime picks one of
/// the two actors per [`crate::SacConfig::engine`].
pub type RingSacActor = RoundCore<RingWire>;

impl Wire for RingWire {
    type Msg = RingMsg;
    const COMMITS: bool = false;
    const ANNOUNCES: bool = true;

    fn layout(n: usize, k: usize) -> RingPlan {
        RingPlan::new(n, k)
    }

    fn decode(msg: RingMsg) -> RoundEvent {
        match msg {
            RingMsg::Begin { round } => RoundEvent::Begin { round },
            RingMsg::StageShare {
                round,
                from_pos,
                parts,
            } => RoundEvent::Share {
                round,
                from_pos,
                parts,
            },
            RingMsg::Shared { round, from_pos } => RoundEvent::Shared { round, from_pos },
            RingMsg::ComputeOver {
                round,
                contributors,
            } => RoundEvent::ComputeOver {
                round,
                contributors,
            },
            RingMsg::StageTotal {
                round,
                stage,
                idx,
                value,
            } => RoundEvent::Total {
                round,
                stage,
                idx,
                value,
            },
            RingMsg::StageTotalRequest { round, stage, idx } => {
                RoundEvent::TotalRequest { round, stage, idx }
            }
            RingMsg::Abort { round, reason } => RoundEvent::Abort { round, reason },
            RingMsg::Reconfigure { round, group, k } => RoundEvent::Reconfigure { round, group, k },
        }
    }

    fn encode(event: RoundEvent) -> Option<RingMsg> {
        Some(match event {
            RoundEvent::Begin { round } => RingMsg::Begin { round },
            // No commitments on this wire (yet): shares are unchecked.
            RoundEvent::Commit { .. } => return None,
            RoundEvent::Share {
                round,
                from_pos,
                parts,
            } => RingMsg::StageShare {
                round,
                from_pos,
                parts,
            },
            RoundEvent::Shared { round, from_pos } => RingMsg::Shared { round, from_pos },
            RoundEvent::ComputeOver {
                round,
                contributors,
            } => RingMsg::ComputeOver {
                round,
                contributors,
            },
            RoundEvent::Total {
                round,
                stage,
                idx,
                value,
            } => RingMsg::StageTotal {
                round,
                stage,
                idx,
                value,
            },
            RoundEvent::TotalRequest { round, stage, idx } => {
                RingMsg::StageTotalRequest { round, stage, idx }
            }
            RoundEvent::Abort { round, reason } => RingMsg::Abort { round, reason },
            RoundEvent::Reconfigure { round, group, k } => RingMsg::Reconfigure { round, group, k },
        })
    }

    fn total_label(stage: usize, idx: usize) -> String {
        format!("stage total ({stage},{idx})")
    }
}

/// What only the staged layout does: log fan-out and the per-stage
/// anonymity gate. The shared contract is tested in `engine::tests`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::*;
    use crate::SacPhase;
    use p2pfl_simnet::SimDuration;

    /// n = 4, k = 2: stages [2, 2]. Peer 3 crashes before the round, so
    /// the announced set {0, 1, 2} leaves stage 1 with only peer 2 — its
    /// stage totals would hand the leader peer 2's individual model.
    fn isolated_stage_round(
        round_deadline: Option<SimDuration>,
    ) -> (Sim<RingMsg>, Vec<NodeId>, Vec<WeightVector>) {
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
        solo.deliver(0, RoundEvent::Begin { round: 1 });
        let compute_over = |contributors: Vec<usize>| RoundEvent::ComputeOver {
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
        // count: 8 senders x 4 receivers = 32 StageShares instead of the
        // pairwise n(n-1) = 56.
        let (mut sim, ids, models) = build::<RingWire>(8, 4, 64, 33, None);
        let wire = models[0].wire_bytes();
        start::<RingWire>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        let m = sim.metrics();
        let share = m.kind("ring.share");
        assert_eq!(share.msgs, 32);
        // Each StageShare carries min(m-1, n-k+1) = 3 partitions (+8B hdr).
        assert_eq!(share.bytes, 32 * (3 * wire + 8));
        // Announcements: n - 1 small control messages.
        assert_eq!(m.kind("ring.shared").msgs, 7);
        // Primary totals: all (stage, idx) pairs the leader does not
        // compute itself. Leader pos 0 (stage 0) holds its assigned block
        // {0, 1, 2} of stage 0, leaving stage 0's partition 3 and stage
        // 1's 4 primaries on the wire.
        assert_eq!(m.kind("ring.total").msgs, 5);
    }
}
