//! The pairwise engine's wire protocol (paper Alg. 4): the one-stage
//! layout with `k` as given, all-to-all `ShareBlock`s preceded by digest
//! `Commit`s, and a leader that learns who contributed from the blocks it
//! received itself.

use super::{RoundEvent, Wire};
use crate::ring::plan::RingPlan;
use crate::weights::WeightVector;
use p2pfl_simnet::{NodeId, Payload};

/// Messages exchanged by the pairwise SAC engine.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SacMsg {
    /// Leader tells followers to begin round `round` (the trigger the
    /// FedAvg layer sends down in the full system).
    Begin {
        /// Round number.
        round: u64,
    },
    /// A contributor's digest commitments to its full partition set for
    /// the round, broadcast *before* its `ShareBlock`s: `digests[p]` is
    /// the [`WeightVector::digest`] of partition `p`. Receivers check the
    /// blocks they are later sent against these digests — a sender whose
    /// share disagrees with its own commitment is Byzantine, and its
    /// contribution is rejected (links are FIFO, so the commitment always
    /// precedes the block it covers).
    Commit {
        /// Round number.
        round: u64,
        /// Sender's position within the subgroup.
        from_pos: usize,
        /// Per-partition digests, indexed by partition.
        digests: Vec<u64>,
    },
    /// A contributor's block of `(partition index, partition)` pairs.
    ShareBlock {
        /// Round number.
        round: u64,
        /// Sender's position within the subgroup.
        from_pos: usize,
        /// The consecutive partitions assigned to the receiver.
        parts: Vec<(usize, WeightVector)>,
    },
    /// Leader freezes the contributor set.
    ComputeOver {
        /// Round number.
        round: u64,
        /// Positions whose models are included this round.
        contributors: Vec<usize>,
    },
    /// A computed subtotal for one partition index.
    Subtotal {
        /// Round number.
        round: u64,
        /// Partition index.
        idx: usize,
        /// The subtotal vector.
        value: WeightVector,
    },
    /// Leader asks a replica holder for a missing subtotal.
    SubtotalRequest {
        /// Round number.
        round: u64,
        /// Partition index to recover.
        idx: usize,
    },
    /// Leader aborts the round: the supervisor deadline expired or a
    /// partition became unrecoverable. Receivers discard every share and
    /// subtotal of the round — the mask material is never reused, so an
    /// abort cannot leak a pairwise secret.
    Abort {
        /// The aborted round.
        round: u64,
        /// Human-readable cause, for logs and traces.
        reason: String,
    },
    /// Leader restarts aggregation after an abort with a degraded roster:
    /// the receiver recomputes its position in `group`, adopts `k`, and
    /// begins `round` as if a fresh `Begin` had arrived. Peers absent from
    /// `group` have been evicted for this round and simply ignore it.
    Reconfigure {
        /// The retry round (always a fresh round number).
        round: u64,
        /// Surviving subgroup members, in position order.
        group: Vec<NodeId>,
        /// Recomputed threshold `k' = min(k, n')`.
        k: usize,
    },
}

impl Payload for SacMsg {
    fn size_bytes(&self) -> u64 {
        match self {
            SacMsg::Begin { .. } => 16,
            SacMsg::Commit { digests, .. } => 16 + 8 * digests.len() as u64,
            SacMsg::ShareBlock { parts, .. } => {
                parts.iter().map(|(_, v)| v.wire_bytes()).sum::<u64>() + 8
            }
            SacMsg::ComputeOver { contributors, .. } => 16 + contributors.len() as u64,
            SacMsg::Subtotal { value, .. } => value.wire_bytes() + 8,
            SacMsg::SubtotalRequest { .. } => 16,
            SacMsg::Abort { reason, .. } => 16 + reason.len() as u64,
            SacMsg::Reconfigure { group, .. } => 24 + 4 * group.len() as u64,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            SacMsg::Begin { .. } => "sac.begin",
            SacMsg::Commit { .. } => "sac.commit",
            SacMsg::ShareBlock { .. } => "sac.share",
            SacMsg::ComputeOver { .. } => "sac.ctrl",
            SacMsg::Subtotal { .. } => "sac.subtotal",
            SacMsg::SubtotalRequest { .. } => "sac.request",
            SacMsg::Abort { .. } => "sac.abort",
            SacMsg::Reconfigure { .. } => "sac.reconf",
        }
    }
}

/// The pairwise engine's [`Wire`]: [`SacMsg`] over the one-stage layout.
pub struct PairwiseWire;

impl Wire for PairwiseWire {
    type Msg = SacMsg;
    const COMMITS: bool = true;
    const ANNOUNCES: bool = false;

    fn layout(n: usize, k: usize) -> RingPlan {
        RingPlan::one_stage(n, k)
    }

    fn decode(msg: SacMsg) -> RoundEvent {
        match msg {
            SacMsg::Begin { round } => RoundEvent::Begin { round },
            SacMsg::Commit {
                round,
                from_pos,
                digests,
            } => RoundEvent::Commit {
                round,
                from_pos,
                digests,
            },
            SacMsg::ShareBlock {
                round,
                from_pos,
                parts,
            } => RoundEvent::Share {
                round,
                from_pos,
                parts,
            },
            SacMsg::ComputeOver {
                round,
                contributors,
            } => RoundEvent::ComputeOver {
                round,
                contributors,
            },
            SacMsg::Subtotal { round, idx, value } => RoundEvent::Total {
                round,
                stage: 0,
                idx,
                value,
            },
            SacMsg::SubtotalRequest { round, idx } => RoundEvent::TotalRequest {
                round,
                stage: 0,
                idx,
            },
            SacMsg::Abort { round, reason } => RoundEvent::Abort { round, reason },
            SacMsg::Reconfigure { round, group, k } => RoundEvent::Reconfigure { round, group, k },
        }
    }

    fn encode(event: RoundEvent) -> Option<SacMsg> {
        Some(match event {
            RoundEvent::Begin { round } => SacMsg::Begin { round },
            RoundEvent::Commit {
                round,
                from_pos,
                digests,
            } => SacMsg::Commit {
                round,
                from_pos,
                digests,
            },
            RoundEvent::Share {
                round,
                from_pos,
                parts,
            } => SacMsg::ShareBlock {
                round,
                from_pos,
                parts,
            },
            // The leader sees every contributor's block itself.
            RoundEvent::Shared { .. } => return None,
            RoundEvent::ComputeOver {
                round,
                contributors,
            } => SacMsg::ComputeOver {
                round,
                contributors,
            },
            RoundEvent::Total {
                round, idx, value, ..
            } => SacMsg::Subtotal { round, idx, value },
            RoundEvent::TotalRequest { round, idx, .. } => SacMsg::SubtotalRequest { round, idx },
            RoundEvent::Abort { round, reason } => SacMsg::Abort { round, reason },
            RoundEvent::Reconfigure { round, group, k } => SacMsg::Reconfigure { round, group, k },
        })
    }

    fn total_label(_stage: usize, idx: usize) -> String {
        format!("partition {idx}")
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
    fn skewed_round(verify: bool) -> (Sim<super::SacMsg>, Vec<NodeId>, Vec<crate::WeightVector>) {
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
