//! The synchronous reference round — paper Alg. 2, Alg. 4 and Ring-SAC
//! executed logically, once, for every share layout, with an explicit
//! dropout schedule.
//!
//! [`reference_round`] is generic over the same [`Wire`] adaptor as
//! [`crate::RoundCore`]: `W::layout(n, k)` says who shares with whom and
//! `W::ANNOUNCES` whether contributors announce to the leader, so the
//! oracle runs the layout the engine runs, stated in one place. One
//! leader-collect round:
//!
//! 1. every contributor divides its model into one share per member of its
//!    successor stage and sends each member its replicated block (Alg. 4
//!    lines 2-10), announcing to the leader if the wire does;
//! 2. the leader gathers the total of every `(stage, partition)` of the
//!    layout's grid — its own block directly, the rest from the primary
//!    owner, an alternate holder covering a crashed owner (lines 11-19);
//! 3. it sums the grid, which telescopes to the contributors' models, and
//!    scales by their count (line 20).
//!
//! A peer that drops **before sharing** does not contribute; one that
//! drops **after sharing** still does, its totals recovered from replicas
//! (paper Fig. 3 walks the 2-out-of-3 case). The pairwise instance,
//! [`fault_tolerant_secure_average`], is paper Alg. 4: `c(n-1)(n-k+1)|w|`
//! of shares for `c` contributors plus `(k-1)|w|` of totals and `|w|` per
//! recovery. At `k = n` it is Alg. 2's leader-collect form used inside a
//! two-layer subgroup (`(n²-1)|w|`); Alg. 2 proper would also broadcast
//! every subtotal to every other peer, `(n-1)²|w|` more that no engine
//! sends (`2n(n-1)|w|` in all). The staged instance moves
//! `n·m·r·|w|` of shares for successor-stage size `m ≈ ⌈log₂ n⌉` and
//! blocks of `r = min(m-1, n-k+1)` partitions, `(n-r)|w|` of totals (the
//! leader holds its own block) and `n - 1` small announcements.
//! `p2pfl::cost::sac_round_ledger` states both ledgers in closed form.
//!
//! The round first draws one seed per member position from the RNG it is
//! passed, in position order; member `i` then divides its model with the
//! mask stream a [`crate::RoundCore`] seeded with that seed at position
//! `i` uses. So the engine, given the same seeds, reproduces a reference
//! round bit for bit: the reference is the engine's oracle.
//!
//! Every transfer is charged to a [`TransferLog`] — and the share
//! arithmetic's floating-point error is really incurred — so the
//! closed-form cost formulas can be checked against executed rounds.

use crate::divide::{divide, ShareScheme};
use crate::engine::{mask_domain, PairwiseWire, Wire};
use crate::ledger::TransferLog;
use crate::weights::WeightVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When during the round a peer drops out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPhase {
    /// Crashed before distributing any share: contributes nothing.
    BeforeShare,
    /// Crashed after distributing shares but before sending totals: its
    /// model is included and its totals are recovered from replicas.
    AfterShare,
}

/// One scheduled dropout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dropout {
    /// Index of the peer that drops (must be `< n`).
    pub peer: usize,
    /// When it drops.
    pub phase: DropPhase,
}

/// Why a reference round could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtSacError {
    /// `k` was outside `1..=n`.
    InvalidThreshold {
        /// Number of peers.
        n: usize,
        /// Offending threshold.
        k: usize,
    },
    /// The designated leader was in the dropout schedule. (In the full
    /// system a Raft election replaces the leader and the round restarts;
    /// the synchronous primitive just reports it.)
    LeaderCrashed,
    /// Some partition lost every replica holder, so the secret sum cannot
    /// be reconstructed. Within the layout's dropout budget this cannot
    /// happen.
    TooManyDropouts {
        /// Global position of the lost partition's primary owner.
        partition: usize,
    },
    /// (Staged layout only.) The contributor set left a ring stage with a
    /// single contributor, whose stage totals would disclose its
    /// individual model to the leader. The round is refused rather than
    /// weakened; a retry on the surviving roster re-chunks the stages.
    StageIsolation {
        /// The stage isolated down to one contributor.
        stage: usize,
    },
}

impl std::fmt::Display for FtSacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtSacError::InvalidThreshold { n, k } => {
                write!(f, "threshold k={k} invalid for n={n} peers")
            }
            FtSacError::LeaderCrashed => write!(f, "aggregation leader crashed mid-round"),
            FtSacError::TooManyDropouts { partition } => {
                write!(f, "partition {partition} lost all replica holders")
            }
            FtSacError::StageIsolation { stage } => {
                write!(
                    f,
                    "ring stage {stage} has a single contributor; refusing to \
                     disclose an individual model"
                )
            }
        }
    }
}

impl std::error::Error for FtSacError {}

/// Result of one reference round.
#[derive(Debug, Clone)]
pub struct SacOutcome {
    /// Average over the contributing peers' models (leader-side value).
    pub average: WeightVector,
    /// Indices of peers whose models entered the average.
    pub contributors: Vec<usize>,
    /// Number of totals served by alternate holders.
    pub recoveries: usize,
    /// Every logical transfer performed.
    pub log: TransferLog,
}

/// Ledger phase of share-block transfers.
const PHASE_SHARE: &str = "secagg.share";
/// Ledger phase of `Shared` announcements to the leader.
const PHASE_ANNOUNCE: &str = "secagg.announce";
/// Ledger phase of totals sent by their primary owner.
const PHASE_TOTAL: &str = "secagg.total";
/// Ledger phase of recovery requests (small control messages).
const PHASE_REQUEST: &str = "secagg.request";
/// Ledger phase of totals served by an alternate holder.
const PHASE_RECOVERY: &str = "secagg.recovery";

/// Size charged for a recovery request control message.
const REQUEST_BYTES: u64 = 16;
/// Size charged for one `Shared` announcement control message.
const ANNOUNCE_BYTES: u64 = 16;

/// Paper Alg. 4: one round of `k`-out-of-`n` fault-tolerant SAC led by
/// `leader` — the [`reference_round`] over the pairwise one-stage layout.
pub fn fault_tolerant_secure_average<R: Rng + ?Sized>(
    models: &[WeightVector],
    k: usize,
    leader: usize,
    dropouts: &[Dropout],
    scheme: ShareScheme,
    rng: &mut R,
) -> Result<SacOutcome, FtSacError> {
    reference_round::<PairwiseWire, R>(models, k, leader, dropouts, scheme, rng)
}

/// Runs one round led by `leader` over the layout of wire `W`, with the
/// given dropout schedule (see the module docs).
///
/// Panics if `leader` or a dropout's peer is out of range, or model
/// dimensions mismatch.
pub fn reference_round<W: Wire, R: Rng + ?Sized>(
    models: &[WeightVector],
    k: usize,
    leader: usize,
    dropouts: &[Dropout],
    scheme: ShareScheme,
    rng: &mut R,
) -> Result<SacOutcome, FtSacError> {
    let n = models.len();
    if k == 0 || k > n {
        return Err(FtSacError::InvalidThreshold { n, k });
    }
    assert!(leader < n, "leader index out of range");
    let dim = models[0].dim();
    assert!(
        models.iter().all(|m| m.dim() == dim),
        "all models must share a dimension"
    );
    let wire = models[0].wire_bytes();

    // dropped[p]: when peer p drops out, if it does.
    let mut dropped = vec![None; n];
    for d in dropouts {
        assert!(d.peer < n, "dropout peer index out of range");
        dropped[d.peer] = Some(d.phase);
    }
    if dropped[leader].is_some() {
        return Err(FtSacError::LeaderCrashed);
    }
    let alive = |p: usize| dropped[p].is_none();
    let contributes = |p: usize| dropped[p] != Some(DropPhase::BeforeShare);
    let plan = W::layout(n, k);
    if let Some(stage) = plan.lone_contributor_stage(contributes) {
        // The stage's totals would hand the leader that one peer's model
        // (the engine refuses to freeze such a contributor set too).
        return Err(FtSacError::StageIsolation { stage });
    }
    let contributors: Vec<usize> = (0..n).filter(|&p| contributes(p)).collect();
    let mut log = TransferLog::new();

    // 1. Divide and hand out. The sender cannot know a receiver is about
    //    to crash; the bandwidth is spent either way. Member `i` divides
    //    with the mask stream of a core seeded `seeds[i]` at position `i`.
    let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut shares: Vec<Option<Vec<WeightVector>>> = vec![None; n];
    for &i in &contributors {
        let mut stream = StdRng::seed_from_u64(mask_domain(seeds[i], i));
        shares[i] = Some(divide(&models[i], plan.parts_of(i), scheme, &mut stream));
        let s = plan.succ_stage(plan.stage_of(i));
        for r in plan.members(s).filter(|&r| r != i) {
            let block = plan.assigned(s, plan.local_index(r)).len() as u64;
            log.record(PHASE_SHARE, block * wire);
        }
        if W::ANNOUNCES && i != leader {
            log.record(PHASE_ANNOUNCE, ANNOUNCE_BYTES);
        }
    }

    // 2.-3. Total (t, p) sums partition p of every contributor in t's
    //       predecessor stage; the leader adds the totals up in grid order.
    let own = plan.stage_of(leader);
    let own_block = plan.assigned(own, plan.local_index(leader));
    let mut recoveries = 0;
    let mut sum = WeightVector::zeros(dim);
    let mut total = WeightVector::zeros(dim);
    for (t, p) in plan.grid() {
        let owner = plan.global_pos(t, p);
        if t == own && own_block.contains(&p) {
            // Held by the leader itself.
        } else if alive(owner) {
            log.record(PHASE_TOTAL, wire);
        } else if plan
            .holders_of(t, p)
            .into_iter()
            .any(|h| h != owner && alive(h))
        {
            log.record(PHASE_REQUEST, REQUEST_BYTES);
            log.record(PHASE_RECOVERY, wire);
            recoveries += 1;
        } else {
            return Err(FtSacError::TooManyDropouts { partition: owner });
        }
        total.as_mut_slice().fill(0.0);
        for parts in plan
            .members(plan.pred_stage(t))
            .filter_map(|c| shares[c].as_ref())
        {
            total.add_assign(&parts[p]);
        }
        sum.add_assign(&total);
    }
    sum.scale(1.0 / contributors.len() as f64);

    Ok(SacOutcome {
        average: sum,
        contributors,
        recoveries,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingWire;
    use DropPhase::{AfterShare, BeforeShare};
    use Layout::{Pairwise, Ring};

    #[derive(Debug, Clone, Copy)]
    enum Layout {
        Pairwise,
        Ring,
    }

    fn models(n: usize, dim: usize, seed: u64) -> Vec<WeightVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| WeightVector::random(dim, 1.0, &mut rng))
            .collect()
    }

    fn round(
        layout: Layout,
        ms: &[WeightVector],
        k: usize,
        leader: usize,
        drops: &[(usize, DropPhase)],
    ) -> Result<SacOutcome, FtSacError> {
        let drops: Vec<Dropout> = drops
            .iter()
            .map(|&(peer, phase)| Dropout { peer, phase })
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let scheme = ShareScheme::Masked;
        match layout {
            Pairwise => reference_round::<PairwiseWire, _>(ms, k, leader, &drops, scheme, &mut rng),
            Ring => reference_round::<RingWire, _>(ms, k, leader, &drops, scheme, &mut rng),
        }
    }

    /// `Ok((contributors, recoveries))`, the average checked against the
    /// contributors' plain mean, or the error.
    type Expect = Result<(&'static [usize], usize), FtSacError>;
    /// `(layout, n, k, leader, dropouts, expected)`.
    type Row = (
        Layout,
        usize,
        usize,
        usize,
        &'static [(usize, DropPhase)],
        Expect,
    );

    #[test]
    fn dropout_schedules_over_both_layouts() {
        const ALL5: &[usize] = &[0, 1, 2, 3, 4];
        const ALL6: &[usize] = &[0, 1, 2, 3, 4, 5];
        let invalid = |k| Err(FtSacError::InvalidThreshold { n: 3, k });
        #[rustfmt::skip]
        let table: &[Row] = &[
            (Pairwise, 5, 3, 0, &[], Ok((ALL5, 0))),
            // The paper's Fig. 3: Alice drops after sharing, the remaining
            // peers still reconstruct the 3-peer average.
            (Pairwise, 3, 2, 1, &[(0, AfterShare)], Ok((&[0, 1, 2], 1))),
            (Pairwise, 4, 3, 1, &[(3, BeforeShare)], Ok((&[0, 1, 2], 1))),
            // Peer 4's subtotal is outside leader 0's block {0, 1, 2}.
            (Pairwise, 5, 3, 0, &[(4, AfterShare)], Ok((ALL5, 1))),
            // Up to n - k dropouts.
            (Pairwise, 5, 2, 0, &[(1, AfterShare), (2, AfterShare), (3, AfterShare)], Ok((ALL5, 0))),
            (Pairwise, 3, 2, 0, &[(0, AfterShare)], Err(FtSacError::LeaderCrashed)),
            (Pairwise, 3, 0, 0, &[], invalid(0)),
            (Pairwise, 3, 4, 0, &[], invalid(4)),
            // k = n: no replication, so one crash outside the leader's block
            // is unrecoverable — the weakness of Alg. 2 that Alg. 4 fixes.
            (Pairwise, 4, 4, 0, &[(2, AfterShare)], Err(FtSacError::TooManyDropouts { partition: 2 })),
            (Ring, 6, 2, 0, &[(4, AfterShare)], Ok((ALL6, 1))),
            (Ring, 6, 2, 1, &[(3, BeforeShare)], Ok((&[0, 1, 2, 4, 5], 1))),
            // Stages [3, 3] with k_m = 2 each tolerate min(m-2, n-k) = 1
            // post-share crash: every lost primary is recovered in-stage.
            (Ring, 6, 2, 0, &[(2, AfterShare), (4, AfterShare)], Ok((ALL6, 2))),
            // The privacy floor k_m >= 2 trades the pairwise budget n - k for
            // min(m-2, n-k) per stage: two in-stage crashes can kill both
            // holders of a partition, and the round reports it instead of
            // widening replication back to a full, reconstructable set.
            (Ring, 6, 2, 0, &[(1, AfterShare), (2, AfterShare)], Err(FtSacError::TooManyDropouts { partition: 2 })),
            // Peers 3 and 4 never share, leaving stage {3, 4, 5} with the lone
            // contributor 5, whose totals would sum to its own model.
            (Ring, 6, 2, 0, &[(3, BeforeShare), (4, BeforeShare)], Err(FtSacError::StageIsolation { stage: 1 })),
            (Ring, 6, 2, 0, &[(0, AfterShare)], Err(FtSacError::LeaderCrashed)),
            (Ring, 3, 0, 0, &[], invalid(0)),
            (Ring, 3, 4, 0, &[], invalid(4)),
            // k = n gives k_m = m: no in-stage replication.
            (Ring, 4, 4, 0, &[(3, AfterShare)], Err(FtSacError::TooManyDropouts { partition: 3 })),
        ];
        for (i, (layout, n, k, leader, drops, expect)) in table.iter().enumerate() {
            let ms = models(*n, 16, i as u64);
            let got = round(*layout, &ms, *k, *leader, drops);
            let case = format!("row {i}: {layout:?} n={n} k={k}");
            match (got, expect) {
                (Ok(out), Ok((contributors, recoveries))) => {
                    assert_eq!(out.contributors, *contributors, "{case}");
                    assert_eq!(out.recoveries, *recoveries, "{case}");
                    let n = *recoveries as u64;
                    assert_eq!(out.log.phase(PHASE_REQUEST).0, n, "{case}");
                    assert_eq!(out.log.phase(PHASE_RECOVERY).0, n, "{case}");
                    let plain = WeightVector::mean(contributors.iter().map(|&c| &ms[c]));
                    assert!(out.average.linf_distance(&plain) < 1e-9, "{case}");
                }
                (got, expect) => assert_eq!(got.map(|_| ()), expect.clone().map(|_| ()), "{case}"),
            }
        }
    }

    #[test]
    fn no_dropouts_match_the_plain_mean_across_sizes() {
        for (n, k) in [(3usize, 2usize), (5, 3), (6, 2), (8, 4), (16, 8), (24, 12)] {
            let ms = models(n, 20, n as u64);
            let plain = WeightVector::mean(ms.iter());
            for layout in [Pairwise, Ring] {
                let out = round(layout, &ms, k, 0, &[]).unwrap();
                assert_eq!(out.contributors, (0..n).collect::<Vec<_>>());
                assert_eq!(out.recoveries, 0);
                assert!(out.average.linf_distance(&plain) < 1e-9, "{layout:?} n={n}");
            }
        }
    }

    #[test]
    fn ledgers_match_the_paper_formulas() {
        // Alg. 4 (Sec. VII-B), n = 5, k = 3: n(n-1)(n-k+1)|w| of shares,
        // (k-1)|w| of totals. Staged, n = 8, k = 4: stages [4, 4] with k_m
        // floored at 2, so blocks carry min(m-1, n-k+1) = 3 of 4 partitions
        // — never a full share set; 8 senders x 4 receivers = 32 blocks,
        // against pairwise n(n-1) = 56 blocks of 5|w|. The leader holds
        // its block {0, 1, 2} of stage 0; stage 0's partition 3 and stage
        // 1's four primaries travel.
        let ms = models(5, 10, 3);
        let w = ms[0].wire_bytes();
        let out = round(Pairwise, &ms, 3, 0, &[]).unwrap();
        assert_eq!(out.log.phase(PHASE_SHARE), (20, 20 * 3 * w));
        assert_eq!(out.log.phase(PHASE_TOTAL), (2, 2 * w));
        assert_eq!(out.log.phase(PHASE_ANNOUNCE), (0, 0));
        assert_eq!(out.log.phase(PHASE_RECOVERY), (0, 0));
        let ms = models(8, 10, 3);
        let out = round(Ring, &ms, 4, 0, &[]).unwrap();
        assert_eq!(out.log.phase(PHASE_SHARE), (32, 32 * 3 * w));
        assert_eq!(out.log.phase(PHASE_ANNOUNCE), (7, 7 * ANNOUNCE_BYTES));
        assert_eq!(out.log.phase(PHASE_TOTAL), (5, 5 * w));
        assert_eq!(out.log.phase(PHASE_RECOVERY), (0, 0));
    }

    #[test]
    fn ring_beats_pairwise_bytes_at_moderate_n() {
        // The whole point of the staged layout: beyond the crossover its
        // share phase moves strictly fewer bytes and messages.
        for n in [8usize, 16, 32] {
            let ms = models(n, 16, 19 + n as u64);
            let (rm, rb) = round(Ring, &ms, n / 2, 0, &[])
                .unwrap()
                .log
                .phase(PHASE_SHARE);
            let (pm, pb) = round(Pairwise, &ms, n / 2, 0, &[])
                .unwrap()
                .log
                .phase(PHASE_SHARE);
            assert!(rm < pm, "n={n}: ring {rm} msgs vs pairwise {pm}");
            assert!(rb < pb, "n={n}: ring {rb} bytes vs pairwise {pb}");
        }
    }

    #[test]
    fn alg2_is_the_n_of_n_round() {
        // Leader collect (Sec. VII-A): a subgroup of n costs (n²-1)|w|,
        // and either scheme equals the mean.
        for n in 1..=8usize {
            let ms = models(n, 6, 5);
            let out = round(Pairwise, &ms, n, 0, &[]).unwrap();
            assert_eq!(out.log.bytes(), (n * n - 1) as u64 * ms[0].wire_bytes());
        }
        let ms = models(7, 50, 1);
        let plain = WeightVector::mean(ms.iter());
        let mut rng = StdRng::seed_from_u64(2);
        for scheme in [ShareScheme::Scaled, ShareScheme::Masked] {
            let out = fault_tolerant_secure_average(&ms, 7, 0, &[], scheme, &mut rng).unwrap();
            assert!(out.average.linf_distance(&plain) < 1e-9, "{scheme:?}");
        }
        // The leader's choice does not change the average.
        let ms = models(4, 12, 9);
        let a = round(Pairwise, &ms, 4, 0, &[]).unwrap();
        let b = round(Pairwise, &ms, 4, 3, &[]).unwrap();
        assert!(a.average.linf_distance(&b.average) < 1e-9);
    }
}
