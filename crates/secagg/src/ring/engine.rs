//! Message-driven Ring-SAC engine over `p2pfl-simnet`.
//!
//! Runs the same fault-tolerant secure-average protocol as
//! [`crate::engine::SacPeerActor`] but over the staged ring layout of
//! [`RingPlan`]: each peer shares only with its successor stage
//! (`O(log n)` fan-out instead of `n - 1`), and the leader reconstructs
//! the global sum from `n` per-stage partition totals.
//!
//! Protocol (one aggregation round, leader-driven):
//!
//! 1. every peer divides its model into `m` additive shares (`m` = size
//!    of its successor stage) and sends each successor-stage member its
//!    replicated block (`StageShare`), then announces completion to the
//!    leader (`Shared`) — the announcement replaces the leader's
//!    all-to-all visibility in the pairwise engine;
//! 2. when every member has announced — or the share deadline expires —
//!    the leader freezes the contributor set and broadcasts
//!    `ComputeOver`;
//! 3. every live peer totals its block of predecessor-stage shares over
//!    the frozen set; the *primary owner* of each `(stage, partition)`
//!    sends its total to the leader (`StageTotal`);
//! 4. after a collection deadline the leader requests missing totals from
//!    alternate in-stage replica holders (`StageTotalRequest`);
//! 5. with all `n` totals the leader averages and completes.
//!
//! The round supervision contract is identical to the pairwise engine:
//! round-tagged deadlines, `Abort` + one degraded retry with
//! `k' = min(k, n')`, follower abandonment, next-round stashing, and
//! roster-driven reconfiguration.

use crate::divide::divide;
use crate::engine::{SacConfig, SacPhase};
use crate::replicated::{hand_out, replication_factor};
use crate::ring::plan::RingPlan;
use crate::weights::WeightVector;
use p2pfl_simnet::{Actor, NodeId, Payload, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Which secure-aggregation engine a subgroup runs. Replicated through
/// the FedAvg-layer config (`FedConfig`) so every member of a subgroup
/// agrees on the engine before a round starts — a round must never mix
/// engines, which the checker's `EngineAgreement` oracle enforces.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum SacEngine {
    /// Paper Alg. 4: all-to-all replicated share blocks, O(n²) messages.
    #[default]
    Pairwise,
    /// Staged ring layout: successor-stage sharing, O(n log n) messages.
    Ring,
}

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

const TIMER_SHARE_DEADLINE: u64 = 1;
const TIMER_COLLECT_DEADLINE: u64 = 2;
const TIMER_ROUND_DEADLINE: u64 = 3;

/// Round-tagged timers, same scheme as the pairwise engine: a deadline
/// armed for an aborted round can never misfire into its retry.
fn timer_tag(base: u64, round: u64) -> u64 {
    (round << 8) | base
}

/// A subgroup member executing fault-tolerant Ring-SAC over the
/// simulator. Shares [`SacConfig`] and [`SacPhase`] with the pairwise
/// engine — a runtime picks one of the two actors per
/// [`SacConfig::engine`].
pub struct RingSacActor {
    cfg: SacConfig,
    plan: RingPlan,
    model: WeightVector,
    rng: StdRng,
    /// Current round number.
    pub round: u64,
    /// Protocol phase.
    pub phase: SacPhase,
    /// The leader's computed average once `phase == Done`.
    pub result: Option<WeightVector>,
    /// Contributor positions of the completed round (leader only).
    pub contributors: Vec<usize>,
    /// Recoveries performed in the completed round (leader only).
    pub recoveries: usize,
    /// Rounds aborted on this peer (same semantics as the pairwise
    /// engine).
    pub aborts: u64,
    /// Rounds a follower abandoned locally at the round deadline.
    pub abandoned: u64,
    /// Next-round stash messages evicted because the `4n` bound was hit.
    pub stash_evicted: u64,
    // blocks[from_pos][stage-local idx] = partition share from the
    // predecessor-stage contributor at global position from_pos.
    blocks: BTreeMap<usize, BTreeMap<usize, WeightVector>>,
    // Leader: positions that announced `Shared` this round (self
    // included).
    announced: BTreeSet<usize>,
    frozen: Option<BTreeSet<usize>>,
    // totals[(stage, idx)]: on every peer the own-block totals; on the
    // leader additionally everything collected via `StageTotal`.
    totals: BTreeMap<(usize, usize), WeightVector>,
    requested: BTreeSet<(usize, usize)>,
    sent_primary: bool,
    pending_requests: Vec<((usize, usize), NodeId)>,
    // Next-round stash, same rationale and bound as the pairwise engine.
    future: Vec<(NodeId, RingMsg)>,
    aborted: Option<u64>,
    retried: bool,
    // Mask-stream domains adopted so far (construction seed, then one per
    // `rekey`); surface of the NoMaskReuseAcrossRekey oracle.
    mask_keys: Vec<u64>,
}

impl RingSacActor {
    /// Creates an idle engine participant holding `model`.
    pub fn new(cfg: SacConfig, model: WeightVector) -> Self {
        assert!(cfg.position < cfg.group.len(), "position out of range");
        assert!(
            cfg.leader_pos < cfg.group.len(),
            "leader position out of range"
        );
        assert!(cfg.k >= 1 && cfg.k <= cfg.group.len(), "invalid threshold");
        let plan = RingPlan::new(cfg.group.len(), cfg.k);
        let mask_domain = cfg.seed ^ (cfg.position as u64) << 32;
        let rng = StdRng::seed_from_u64(mask_domain);
        RingSacActor {
            cfg,
            plan,
            model,
            rng,
            round: 0,
            phase: SacPhase::Idle,
            result: None,
            contributors: Vec::new(),
            recoveries: 0,
            aborts: 0,
            abandoned: 0,
            stash_evicted: 0,
            blocks: BTreeMap::new(),
            announced: BTreeSet::new(),
            frozen: None,
            totals: BTreeMap::new(),
            requested: BTreeSet::new(),
            sent_primary: false,
            pending_requests: Vec::new(),
            future: Vec::new(),
            aborted: None,
            retried: false,
            mask_keys: vec![mask_domain],
        }
    }

    /// Replaces the local model (between rounds).
    pub fn set_model(&mut self, model: WeightVector) {
        self.model = model;
    }

    // ------------------------------------------------------------------
    // Inspection accessors for the invariant checker (`p2pfl-check`)
    // ------------------------------------------------------------------

    /// This participant's static configuration.
    pub fn sac_config(&self) -> &SacConfig {
        &self.cfg
    }

    /// The stage layout this participant derived from `(n, k)`.
    pub fn plan(&self) -> &RingPlan {
        &self.plan
    }

    /// The local model being aggregated this round.
    pub fn model(&self) -> &WeightVector {
        &self.model
    }

    /// Every share partition held locally: `blocks[from_pos][idx]`.
    pub fn held_blocks(&self) -> &BTreeMap<usize, BTreeMap<usize, WeightVector>> {
        &self.blocks
    }

    /// The frozen contributor set, once decided.
    pub fn frozen_set(&self) -> Option<&BTreeSet<usize>> {
        self.frozen.as_ref()
    }

    /// Stage totals held locally (`(stage, idx) -> value`); on the leader
    /// these are the collected per-partition sums over the frozen set.
    pub fn held_totals(&self) -> &BTreeMap<(usize, usize), WeightVector> {
        &self.totals
    }

    /// Leader entry point: begins round `round`, instructing followers
    /// and distributing this peer's own shares.
    pub fn start_round(&mut self, ctx: &mut dyn Transport<RingMsg>, round: u64) {
        assert!(self.cfg.is_leader(), "only the leader starts rounds");
        self.retried = false;
        self.reset_for(round);
        let group = self.cfg.group.clone();
        let me = self.me();
        for &peer in &group {
            if peer != me {
                ctx.send(peer, RingMsg::Begin { round });
            }
        }
        self.distribute_shares(ctx);
        ctx.set_timer(
            self.cfg.share_deadline,
            timer_tag(TIMER_SHARE_DEADLINE, round),
        );
        self.arm_round_deadline(ctx);
        self.phase = SacPhase::Sharing;
        self.maybe_freeze(ctx); // n = 1: the leader's own announcement completes the set
        self.replay_future(ctx);
    }

    fn me(&self) -> NodeId {
        self.cfg.group[self.cfg.position]
    }

    fn arm_round_deadline(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        if let Some(d) = self.cfg.round_deadline {
            ctx.set_timer(d, timer_tag(TIMER_ROUND_DEADLINE, self.round));
        }
    }

    /// Adopts a new roster mid-life; same contract as the pairwise
    /// engine, plus re-deriving the ring plan from the new `(n', k')`.
    /// Returns whether the roster was adopted.
    pub fn reconfigure(&mut self, group: Vec<NodeId>, leader: NodeId, k: usize) -> bool {
        let me = self.me();
        // Same policy as the pairwise engine: an invalid roster (missing
        // this peer or the leader, unsatisfiable threshold) is ignored
        // rather than allowed to crash the engine.
        let (Some(position), Some(leader_pos)) = (
            group.iter().position(|&p| p == me),
            group.iter().position(|&p| p == leader),
        ) else {
            return false;
        };
        if k < 1 || k > group.len() {
            return false;
        }
        self.plan = RingPlan::new(group.len(), k);
        self.cfg.group = group;
        self.cfg.position = position;
        self.cfg.leader_pos = leader_pos;
        self.cfg.k = k;
        let round = self.round;
        self.reset_for(round);
        true
    }

    /// Adopts a new roster *and* a fresh mask domain — the elastic
    /// split/merge re-key; same contract as the pairwise engine's
    /// [`crate::SacPeerActor::rekey`]: the stage-share RNG is reseeded
    /// under the per-peer `roster_key`, so no mask drawn for the retired
    /// roster can recur under the new one, even if the member set is
    /// identical. A rejected roster leaves the mask stream untouched.
    pub fn rekey(&mut self, group: Vec<NodeId>, leader: NodeId, k: usize, roster_key: u64) -> bool {
        if !self.reconfigure(group, leader, k) {
            return false;
        }
        let domain = self.cfg.seed ^ roster_key ^ (self.cfg.position as u64) << 32;
        self.rng = StdRng::seed_from_u64(domain);
        self.mask_keys.push(domain);
        true
    }

    /// The mask-stream domains this engine has drawn from, in adoption
    /// order (construction seed first, then one entry per re-key).
    pub fn mask_keys(&self) -> &[u64] {
        &self.mask_keys
    }

    /// Leader-side dead end: abort the round everywhere, then — unless
    /// the round was already a retry, or fewer than two members survive —
    /// restart with the surviving roster and `k' = min(k, n')`.
    fn supervise(
        &mut self,
        ctx: &mut dyn Transport<RingMsg>,
        suspects: &BTreeSet<usize>,
        reason: &str,
    ) {
        let old_round = self.round;
        let me = self.me();
        for &peer in &self.cfg.group.clone() {
            if peer != me {
                ctx.send(
                    peer,
                    RingMsg::Abort {
                        round: old_round,
                        reason: reason.to_string(),
                    },
                );
            }
        }
        self.aborted = Some(old_round);
        self.aborts += 1;
        let survivors: Vec<NodeId> = self
            .cfg
            .group
            .iter()
            .enumerate()
            .filter(|(j, _)| *j == self.cfg.position || !suspects.contains(j))
            .map(|(_, &p)| p)
            .collect();
        if self.retried {
            self.reset_for(old_round);
            self.phase = SacPhase::Failed(format!("{reason} (after retry)"));
            return;
        }
        if survivors.len() < 2 {
            self.reset_for(old_round);
            self.phase = SacPhase::Failed(format!(
                "degraded below 2 members (n' = {}): {reason}",
                survivors.len()
            ));
            return;
        }
        self.retried = true;
        let k = self.cfg.k.min(survivors.len());
        let next = old_round + 1;
        self.reconfigure(survivors.clone(), me, k);
        for &peer in &survivors {
            if peer != me {
                ctx.send(
                    peer,
                    RingMsg::Reconfigure {
                        round: next,
                        group: survivors.clone(),
                        k,
                    },
                );
            }
        }
        self.reset_for(next);
        self.distribute_shares(ctx);
        ctx.set_timer(
            self.cfg.share_deadline,
            timer_tag(TIMER_SHARE_DEADLINE, next),
        );
        self.arm_round_deadline(ctx);
        self.phase = SacPhase::Sharing;
        self.replay_future(ctx);
    }

    /// Re-dispatches stashed next-round messages now that the round has
    /// advanced.
    fn replay_future(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        for (from, msg) in std::mem::take(&mut self.future) {
            self.on_message(ctx, from, msg);
        }
    }

    fn reset_for(&mut self, round: u64) {
        self.round = round;
        self.phase = SacPhase::Idle;
        self.result = None;
        self.contributors.clear();
        self.recoveries = 0;
        self.blocks.clear();
        self.announced.clear();
        self.frozen = None;
        self.totals.clear();
        self.requested.clear();
        self.sent_primary = false;
        self.pending_requests.clear();
    }

    /// Splits the model into `m` shares (`m` = successor-stage size) and
    /// sends each successor-stage member its replicated block — the
    /// O(log n) fan-out that replaces the pairwise engine's `n - 1`
    /// sends. Finishes by announcing completion to the leader.
    fn distribute_shares(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        let t = self.plan.stage_of(self.cfg.position);
        let s = self.plan.succ_stage(t);
        let m = self.plan.stage_len(s);
        let mut parts = divide(&self.model, m, self.cfg.scheme, &mut self.rng);
        #[cfg(feature = "mutants")]
        if crate::mutants::active(crate::mutants::Mutant::ShareSkew) {
            if let Some(p0) = parts.get_mut(0) {
                p0.scale(0.5);
            }
        }
        let mut uses_left = vec![replication_factor(m, self.plan.stage_k(s)); m];
        for i in 0..m {
            let gpos = self.plan.global_pos(s, i);
            let block: Vec<(usize, WeightVector)> = self
                .plan
                .assigned(s, i)
                .into_iter()
                .map(|p| (p, hand_out(&mut parts, &mut uses_left, p)))
                .collect();
            if gpos == self.cfg.position {
                // Single-stage ring (L = 1): keep our own block locally.
                self.blocks
                    .entry(self.cfg.position)
                    .or_default()
                    .extend(block);
            } else {
                ctx.send(
                    self.cfg.group[gpos],
                    RingMsg::StageShare {
                        round: self.round,
                        from_pos: self.cfg.position,
                        parts: block,
                    },
                );
            }
        }
        if self.cfg.is_leader() {
            self.announced.insert(self.cfg.position);
        } else {
            ctx.send(
                self.cfg.group[self.cfg.leader_pos],
                RingMsg::Shared {
                    round: self.round,
                    from_pos: self.cfg.position,
                },
            );
        }
    }

    /// Leader: freeze as soon as every member has announced.
    fn maybe_freeze(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        if self.cfg.is_leader()
            && self.phase == SacPhase::Sharing
            && self.announced.len() == self.cfg.group.len()
        {
            self.freeze_and_collect(ctx);
        }
    }

    fn freeze_and_collect(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        let contributors = self.announced.clone();
        if contributors.is_empty() {
            self.phase = SacPhase::Failed("no contributors".into());
            return;
        }
        if contributors.len() < self.cfg.k {
            // Same dead-end rule as the pairwise engine: never publish an
            // average the round's `k` policy does not sanction. Supervised
            // rounds abort and retry/fail; unsupervised rounds just fail.
            if self.cfg.round_deadline.is_some() {
                let suspects: BTreeSet<usize> = (0..self.plan.n())
                    .filter(|j| !contributors.contains(j))
                    .collect();
                self.supervise(ctx, &suspects, "fewer than k contributors at freeze");
            } else {
                self.phase = SacPhase::Failed(format!(
                    "fewer than k contributors at freeze ({} < {})",
                    contributors.len(),
                    self.cfg.k
                ));
            }
            return;
        }
        if let Some(stage) = self
            .plan
            .lone_contributor_stage(|p| contributors.contains(&p))
        {
            // A stage frozen down to one contributor would make that
            // stage's totals sum to the lone peer's individual model,
            // shrinking the anonymity set from "contributors" to
            // "contributors per stage". Same dead-end rule as below-k:
            // supervised rounds retry on the contributor roster (the
            // re-derived plan re-chunks the stages, restoring balance);
            // unsupervised rounds fail rather than disclose.
            if self.cfg.round_deadline.is_some() {
                let suspects: BTreeSet<usize> = (0..self.plan.n())
                    .filter(|j| !contributors.contains(j))
                    .collect();
                self.supervise(
                    ctx,
                    &suspects,
                    &format!("stage {stage} frozen to a single contributor"),
                );
            } else {
                self.phase = SacPhase::Failed(format!(
                    "stage {stage} frozen to a single contributor \
                     (per-stage anonymity set below 2)"
                ));
            }
            return;
        }
        self.frozen = Some(contributors.clone());
        let msg = RingMsg::ComputeOver {
            round: self.round,
            contributors: contributors.iter().copied().collect(),
        };
        let me = self.cfg.group[self.cfg.position];
        for &peer in &self.cfg.group.clone() {
            if peer != me {
                ctx.send(peer, msg.clone());
            }
        }
        // Compute our own block's totals immediately (predecessor-stage
        // blocks may still be in flight; late arrivals re-trigger this).
        self.compute_own_totals();
        self.phase = SacPhase::Collecting;
        ctx.set_timer(
            self.cfg.collect_deadline,
            timer_tag(TIMER_COLLECT_DEADLINE, self.round),
        );
        self.maybe_finish();
    }

    /// Total of own-stage partition `p` over the frozen contributors of
    /// the predecessor stage; `None` while some contributor's block is
    /// missing locally. Zero contributors in the predecessor stage yield
    /// a zero vector — the leader still needs the total to close the sum.
    fn total_over_frozen(&self, p: usize) -> Option<WeightVector> {
        let frozen = self.frozen.as_ref()?;
        let t = self.plan.stage_of(self.cfg.position);
        let pred = self.plan.pred_stage(t);
        let mut acc = WeightVector::zeros(self.model.dim());
        for c in self.plan.members(pred) {
            if !frozen.contains(&c) {
                continue;
            }
            acc.add_assign(self.blocks.get(&c)?.get(&p)?);
        }
        Some(acc)
    }

    fn compute_own_totals(&mut self) {
        let t = self.plan.stage_of(self.cfg.position);
        let i = self.plan.local_index(self.cfg.position);
        for p in self.plan.assigned(t, i) {
            if self.totals.contains_key(&(t, p)) {
                continue;
            }
            if let Some(v) = self.total_over_frozen(p) {
                self.totals.insert((t, p), v);
            }
        }
    }

    fn maybe_finish(&mut self) {
        if self.phase != SacPhase::Collecting {
            return;
        }
        if self.totals.len() < self.plan.total_partitions() {
            return;
        }
        let Some(frozen) = self.frozen.as_ref() else {
            return;
        };
        // Iterate the (stage, partition) grid explicitly so a spurious
        // key can never substitute for a missing total.
        let mut avg = WeightVector::zeros(self.model.dim());
        for t in 0..self.plan.num_stages() {
            for p in 0..self.plan.stage_len(t) {
                let Some(v) = self.totals.get(&(t, p)) else {
                    return;
                };
                avg.add_assign(v);
            }
        }
        avg.scale(1.0 / frozen.len() as f64);
        self.contributors = frozen.iter().copied().collect();
        self.result = Some(avg);
        self.phase = SacPhase::Done;
    }

    /// Progress after a share block or `ComputeOver` arrives: recompute
    /// own totals, let the leader try to finish, let a follower send its
    /// primary total, and serve recovery requests that were waiting on
    /// missing blocks.
    fn progress(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        if self.frozen.is_none() {
            return;
        }
        self.compute_own_totals();
        if self.cfg.is_leader() {
            self.maybe_finish();
        } else if !self.sent_primary {
            let t = self.plan.stage_of(self.cfg.position);
            let i = self.plan.local_index(self.cfg.position);
            if !self.leader_holds(t, i) {
                if let Some(v) = self.totals.get(&(t, i)).cloned() {
                    self.sent_primary = true;
                    ctx.send(
                        self.cfg.group[self.cfg.leader_pos],
                        RingMsg::StageTotal {
                            round: self.round,
                            stage: t,
                            idx: i,
                            value: v,
                        },
                    );
                }
            }
        }
        let pending = std::mem::take(&mut self.pending_requests);
        for ((stage, idx), from) in pending {
            if let Some(v) = self.total_over_frozen(idx) {
                ctx.send(
                    from,
                    RingMsg::StageTotal {
                        round: self.round,
                        stage,
                        idx,
                        value: v,
                    },
                );
            } else {
                self.pending_requests.push(((stage, idx), from));
            }
        }
    }

    /// Whether the leader computes total `(t, i)` itself (it is in stage
    /// `t` and `i` is in its assigned block), making a primary send
    /// redundant.
    fn leader_holds(&self, t: usize, i: usize) -> bool {
        let lt = self.plan.stage_of(self.cfg.leader_pos);
        lt == t
            && self
                .plan
                .assigned(lt, self.plan.local_index(self.cfg.leader_pos))
                .contains(&i)
    }

    fn request_missing(&mut self, ctx: &mut dyn Transport<RingMsg>) {
        let mut missing: Vec<(usize, usize)> = Vec::new();
        for t in 0..self.plan.num_stages() {
            for p in 0..self.plan.stage_len(t) {
                if !self.totals.contains_key(&(t, p)) {
                    missing.push((t, p));
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        for &(t, p) in &missing {
            if self.requested.contains(&(t, p)) {
                // Second deadline with the request still unanswered: the
                // whole in-stage replica neighborhood is gone. Under
                // supervision the round aborts and retries without the
                // unresponsive holders; without it this is terminal.
                if self.cfg.round_deadline.is_some() {
                    let mut suspects = BTreeSet::new();
                    for &(qt, qp) in &missing {
                        if self.requested.contains(&(qt, qp)) {
                            suspects.extend(self.plan.holders_of(qt, qp));
                        }
                    }
                    suspects.remove(&self.cfg.position);
                    self.supervise(
                        ctx,
                        &suspects,
                        &format!("stage total ({t},{p}) unrecoverable"),
                    );
                } else {
                    self.phase = SacPhase::Failed(format!("stage total ({t},{p}) unrecoverable"));
                }
                return;
            }
            self.requested.insert((t, p));
            // Ask every alternate in-stage holder; first response wins,
            // duplicates are idempotent inserts.
            for g in self.plan.holders_of(t, p) {
                if g != self.cfg.position && self.plan.local_index(g) != p {
                    ctx.send(
                        self.cfg.group[g],
                        RingMsg::StageTotalRequest {
                            round: self.round,
                            stage: t,
                            idx: p,
                        },
                    );
                }
            }
            self.recoveries += 1;
        }
        ctx.set_timer(
            self.cfg.collect_deadline,
            timer_tag(TIMER_COLLECT_DEADLINE, self.round),
        );
    }
}

impl Actor<RingMsg> for RingSacActor {
    fn on_message(&mut self, ctx: &mut dyn Transport<RingMsg>, from: NodeId, msg: RingMsg) {
        // Next-round stash and aborted-round discard: identical to the
        // pairwise engine (`Begin` / `Reconfigure` advance the round
        // themselves, so they are never stashed).
        let msg_round = match &msg {
            RingMsg::Begin { .. } | RingMsg::Reconfigure { .. } => None,
            RingMsg::StageShare { round, .. }
            | RingMsg::Shared { round, .. }
            | RingMsg::ComputeOver { round, .. }
            | RingMsg::StageTotal { round, .. }
            | RingMsg::StageTotalRequest { round, .. }
            | RingMsg::Abort { round, .. } => Some(*round),
        };
        if let Some(r) = msg_round {
            if r == self.round + 1 {
                if self.future.len() < 4 * self.cfg.group.len() {
                    self.future.push((from, msg));
                } else {
                    // Counted in `stash_evicted`, surfaced via NetStats.
                    self.stash_evicted += 1;
                }
                return;
            }
            if self.aborted == Some(r) && r == self.round {
                return;
            }
        }
        match msg {
            RingMsg::Begin { round } => {
                if self.cfg.is_leader() {
                    return; // only followers react to Begin
                }
                // Single-randomization rule, same as the pairwise engine.
                #[cfg(feature = "mutants")]
                let guard_disabled =
                    crate::mutants::active(crate::mutants::Mutant::BeginRerandomize);
                #[cfg(not(feature = "mutants"))]
                let guard_disabled = false;
                if !guard_disabled
                    && (round < self.round
                        || (round == self.round && self.phase != SacPhase::Idle)
                        || self.aborted == Some(round))
                {
                    return;
                }
                self.reset_for(round);
                self.distribute_shares(ctx);
                self.arm_round_deadline(ctx);
                self.phase = SacPhase::Sharing;
                self.replay_future(ctx);
            }
            RingMsg::StageShare {
                round,
                from_pos,
                parts,
            } => {
                if round != self.round {
                    return;
                }
                // Shape gate: sender position, partition indices, and
                // dimensions must fit the roster/plan/model before the
                // block can reach `add_assign` (which panics on
                // dimension mismatch).
                let dim = self.model.dim();
                if from_pos >= self.cfg.group.len()
                    || parts
                        .iter()
                        .any(|(p, v)| *p >= self.plan.total_partitions() || v.dim() != dim)
                {
                    return;
                }
                let entry = self.blocks.entry(from_pos).or_default();
                for (p, v) in parts {
                    entry.insert(p, v);
                }
                self.progress(ctx);
            }
            RingMsg::Shared { round, from_pos } => {
                if round != self.round || !self.cfg.is_leader() {
                    return;
                }
                if self.phase != SacPhase::Sharing {
                    return; // late announcement after freeze
                }
                if from_pos >= self.cfg.group.len() {
                    return;
                }
                self.announced.insert(from_pos);
                self.maybe_freeze(ctx);
            }
            RingMsg::ComputeOver {
                round,
                contributors,
            } => {
                if round != self.round || self.cfg.is_leader() {
                    return;
                }
                let _ = from; // leader is the sender of ComputeOver
                let set: BTreeSet<usize> = contributors.into_iter().collect();
                if self
                    .plan
                    .lone_contributor_stage(|p| set.contains(&p))
                    .is_some()
                {
                    // A correct leader never freezes a set that isolates
                    // one contributor in a stage (see freeze_and_collect);
                    // totalling it would hand a curious leader that peer's
                    // model. Drop the message — the round ends via Abort
                    // or this follower's round deadline.
                    return;
                }
                self.frozen = Some(set);
                self.progress(ctx);
            }
            RingMsg::StageTotal {
                round,
                stage,
                idx,
                value,
            } => {
                if round != self.round || !self.cfg.is_leader() {
                    return;
                }
                if stage >= self.plan.num_stages() || idx >= self.plan.stage_len(stage) {
                    return; // outside the (stage, partition) grid
                }
                if value.dim() != self.model.dim() {
                    return; // wrong shape must not enter the average
                }
                self.totals.entry((stage, idx)).or_insert(value);
                self.maybe_finish();
            }
            RingMsg::StageTotalRequest { round, stage, idx } => {
                if round != self.round {
                    return;
                }
                if stage != self.plan.stage_of(self.cfg.position)
                    || idx >= self.plan.stage_len(stage)
                {
                    // Not our stage, or outside the grid: never servable,
                    // so don't let it occupy a pending-request slot.
                    return;
                }
                if let Some(v) = self.total_over_frozen(idx) {
                    ctx.send(
                        from,
                        RingMsg::StageTotal {
                            round: self.round,
                            stage,
                            idx,
                            value: v,
                        },
                    );
                } else {
                    // Can't serve yet (missing predecessor blocks, or the
                    // contributor set is not frozen here yet); answer when
                    // the missing pieces arrive.
                    self.pending_requests.push(((stage, idx), from));
                }
            }
            RingMsg::Abort { round, reason } => {
                if round != self.round || self.cfg.is_leader() {
                    return;
                }
                let _ = reason;
                self.reset_for(round);
                self.aborted = Some(round);
                self.aborts += 1;
            }
            RingMsg::Reconfigure { round, group, k } => {
                if self.cfg.is_leader() {
                    return;
                }
                // Same freshness rules as Begin.
                if round < self.round
                    || (round == self.round && self.phase != SacPhase::Idle)
                    || self.aborted == Some(round)
                {
                    return;
                }
                if k < 1 || k > group.len() {
                    return;
                }
                let me = self.me();
                if !group.contains(&me) {
                    return; // evicted from the retry roster
                }
                if !group.contains(&from) {
                    return;
                }
                self.reconfigure(group, from, k);
                self.reset_for(round);
                self.distribute_shares(ctx);
                self.arm_round_deadline(ctx);
                self.phase = SacPhase::Sharing;
                self.replay_future(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport<RingMsg>, tag: u64) {
        let (base, round) = (tag & 0xff, tag >> 8);
        if round != self.round {
            return; // armed for a round that has since ended or aborted
        }
        match base {
            TIMER_SHARE_DEADLINE if self.cfg.is_leader() && self.phase == SacPhase::Sharing => {
                self.freeze_and_collect(ctx);
            }
            TIMER_COLLECT_DEADLINE
                if self.cfg.is_leader() && self.phase == SacPhase::Collecting =>
            {
                self.request_missing(ctx);
            }
            TIMER_ROUND_DEADLINE => {
                if self.cfg.is_leader() {
                    if matches!(self.phase, SacPhase::Sharing | SacPhase::Collecting) {
                        let suspects: BTreeSet<usize> = (0..self.cfg.group.len())
                            .filter(|j| !self.announced.contains(j))
                            .collect();
                        self.supervise(ctx, &suspects, "round deadline expired");
                    }
                } else if self.phase == SacPhase::Sharing {
                    if self.frozen.is_none() {
                        self.abandoned += 1;
                    }
                    self.reset_for(round);
                    self.aborted = Some(round);
                }
            }
            _ => {}
        }
    }

    fn stash_evicted(&self) -> u64 {
        self.stash_evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divide::ShareScheme;
    use p2pfl_simnet::{Sim, SimDuration, SimTime, TimerId};

    fn config(ids: &[NodeId], i: usize, k: usize, seed: u64) -> SacConfig {
        SacConfig {
            group: ids.to_vec(),
            position: i,
            leader_pos: 0,
            k,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Ring,
            share_deadline: SimDuration::from_millis(100),
            collect_deadline: SimDuration::from_millis(100),
            round_deadline: None,
            seed,
        }
    }

    fn build(
        n: usize,
        k: usize,
        dim: usize,
        seed: u64,
    ) -> (Sim<RingMsg>, Vec<NodeId>, Vec<WeightVector>) {
        let mut sim = Sim::new(seed);
        let ids: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
        let mut rng = StdRng::seed_from_u64(seed + 999);
        let models: Vec<WeightVector> = (0..n)
            .map(|_| WeightVector::random(dim, 1.0, &mut rng))
            .collect();
        for i in 0..n {
            let cfg = config(&ids, i, k, seed + i as u64);
            let actual = sim.add_node(RingSacActor::new(cfg, models[i].clone()));
            assert_eq!(actual, ids[i]);
        }
        (sim, ids, models)
    }

    fn build_supervised(
        n: usize,
        k: usize,
        dim: usize,
        seed: u64,
        round_deadline: SimDuration,
    ) -> (Sim<RingMsg>, Vec<NodeId>, Vec<WeightVector>) {
        let (mut sim, ids, models) = {
            let mut sim = Sim::new(seed);
            let ids: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
            let mut rng = StdRng::seed_from_u64(seed + 999);
            let models: Vec<WeightVector> = (0..n)
                .map(|_| WeightVector::random(dim, 1.0, &mut rng))
                .collect();
            for i in 0..n {
                let mut cfg = config(&ids, i, k, seed + i as u64);
                cfg.round_deadline = Some(round_deadline);
                let actual = sim.add_node(RingSacActor::new(cfg, models[i].clone()));
                assert_eq!(actual, ids[i]);
            }
            (sim, ids, models)
        };
        sim.run_until_quiet(100);
        (sim, ids, models)
    }

    fn start(sim: &mut Sim<RingMsg>, leader: NodeId, round: u64) {
        sim.run_until_quiet(100); // flush on_start events
        sim.exec::<RingSacActor, _, _>(leader, |a, ctx| a.start_round(ctx, round));
    }

    fn plain_mean(models: &[WeightVector], idx: &[usize]) -> WeightVector {
        WeightVector::mean(idx.iter().map(|&i| &models[i]))
    }

    #[test]
    fn rekey_reseeds_and_the_round_still_averages() {
        let (mut sim, ids, models) = build(5, 2, 8, 61);
        start(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.actor::<RingSacActor>(ids[0]).phase, SacPhase::Done);
        for (i, &id) in ids.iter().enumerate() {
            let group = ids.clone();
            let adopted =
                sim.actor_mut::<RingSacActor>(id)
                    .rekey(group, ids[0], 2, 0x0005_1a9e + i as u64);
            assert!(adopted);
        }
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 2));
        sim.run_until(SimTime::from_secs(4));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3, 4])) < 1e-9);
    }

    #[test]
    fn rekey_history_stays_fresh_and_rejects_bad_rosters() {
        let (mut sim, ids, _) = build(4, 2, 4, 62);
        sim.run_until_quiet(100);
        let a = sim.actor_mut::<RingSacActor>(ids[1]);
        assert!(a.rekey(ids.clone(), ids[0], 2, 7));
        assert!(a.rekey(ids.clone(), ids[0], 2, 8));
        let hist = a.mask_keys().to_vec();
        assert_eq!(hist.len(), 3);
        let mut dedup = hist.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hist.len(), "mask domain reused: {hist:?}");
        // Invalid rosters leave the stream untouched.
        assert!(!a.rekey(vec![ids[0], ids[2]], ids[0], 2, 9));
        assert_eq!(a.mask_keys().len(), 3);
    }

    #[test]
    fn happy_path_completes_with_plain_mean_across_sizes() {
        // Covers L = 1 (all-to-all degenerate), L = 2 and L = 4 rings.
        for (n, k) in [(3usize, 2usize), (4, 2), (5, 3), (6, 2), (8, 4), (16, 8)] {
            let (mut sim, ids, models) = build(n, k, 16, 42 + n as u64);
            start(&mut sim, ids[0], 1);
            sim.run_until(SimTime::from_secs(2));
            let leader = sim.actor::<RingSacActor>(ids[0]);
            assert_eq!(leader.phase, SacPhase::Done, "n={n}: {:?}", leader.phase);
            assert_eq!(leader.contributors, (0..n).collect::<Vec<_>>());
            assert_eq!(leader.recoveries, 0, "n={n}");
            let all: Vec<usize> = (0..n).collect();
            let avg = leader.result.as_ref().unwrap();
            assert!(
                avg.linf_distance(&plain_mean(&models, &all)) < 1e-9,
                "n={n}: error {}",
                avg.linf_distance(&plain_mean(&models, &all))
            );
        }
    }

    #[test]
    fn after_share_crash_is_recovered() {
        // n = 6 -> stages [3, 3], k = 2 -> k_m = 2 (each partition held
        // by two stage members). Peer 4 (stage 1) crashes after sharing:
        // its primary total is recovered from an in-stage replica holder.
        let (mut sim, ids, models) = build(6, 2, 8, 7);
        start(&mut sim, ids[0], 1);
        sim.schedule_crash(ids[4], SimTime::from_millis(40));
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, vec![0, 1, 2, 3, 4, 5]);
        assert!(leader.recoveries >= 1);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3, 4, 5])) < 1e-9);
    }

    #[test]
    fn before_share_crash_is_excluded() {
        let (mut sim, ids, models) = build(6, 2, 8, 11);
        sim.run_until_quiet(100);
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(1));
        sim.run_until_quiet(100);
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, vec![0, 1, 2, 4, 5]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 4, 5])) < 1e-9);
    }

    #[test]
    fn unrecoverable_when_whole_stage_dies() {
        // k = n means k_m = m: no in-stage replication, so one post-share
        // crash outside the leader's block is fatal without supervision.
        let (mut sim, ids, _) = build(4, 4, 4, 13);
        start(&mut sim, ids[0], 1);
        sim.schedule_crash(ids[3], SimTime::from_millis(40));
        sim.run_until(SimTime::from_secs(3));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert!(
            matches!(leader.phase, SacPhase::Failed(_)),
            "phase: {:?}",
            leader.phase
        );
    }

    #[test]
    fn supervised_unrecoverable_degrades_and_completes() {
        // Same dead end as above, but supervised: the leader aborts,
        // evicts the unresponsive holder, and retries degraded.
        let (mut sim, ids, models) = build_supervised(4, 4, 4, 13, SimDuration::from_millis(600));
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(40));
        sim.run_until(SimTime::from_secs(5));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.aborts, 1);
        assert_eq!(leader.round, 2, "retry must use a fresh round number");
        assert_eq!(leader.sac_config().group, vec![ids[0], ids[1], ids[2]]);
        assert_eq!(leader.sac_config().k, 3, "k' = min(k, n')");
        assert_eq!(leader.contributors, vec![0, 1, 2]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2])) < 1e-9);
    }

    #[test]
    fn supervised_refuses_below_two_members() {
        let (mut sim, ids, _) = build_supervised(3, 3, 4, 17, SimDuration::from_millis(600));
        let t = sim.now() + SimDuration::from_millis(1);
        sim.schedule_crash(ids[1], t);
        sim.schedule_crash(ids[2], t);
        sim.run_until_quiet(100);
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(5));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert!(
            matches!(&leader.phase, SacPhase::Failed(r) if r.contains("no contributors")
                || r.contains("below 2 members")),
            "phase: {:?}",
            leader.phase
        );
    }

    #[test]
    fn singleton_frozen_stage_fails_unsupervised() {
        // n = 4, k = 2: stages [2, 2]. Peer 3 crashes before the round,
        // so the frozen set {0, 1, 2} leaves stage 1 with only peer 2 —
        // its stage totals would hand the leader peer 2's individual
        // model. The leader must refuse even though k is satisfied.
        let (mut sim, ids, _) = build(4, 2, 8, 23);
        sim.run_until_quiet(100);
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(1));
        sim.run_until_quiet(100);
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(2));
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
        // Same isolation as above, but supervised: the leader aborts and
        // retries on the contributor roster; the re-derived 3-member plan
        // is a single stage, so the per-stage anonymity set is the whole
        // contributor set again and the round completes.
        let (mut sim, ids, models) = build_supervised(4, 2, 8, 23, SimDuration::from_millis(600));
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(1));
        sim.run_until_quiet(100);
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(5));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.aborts, 1);
        assert_eq!(leader.sac_config().group, vec![ids[0], ids[1], ids[2]]);
        assert_eq!(leader.plan().num_stages(), 1);
        assert_eq!(leader.contributors, vec![0, 1, 2]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2])) < 1e-9);
    }

    #[test]
    fn follower_drops_compute_over_isolating_a_stage() {
        // Defense in depth against a curious leader: a follower refuses
        // to total a contributor set that isolates one peer in a stage.
        let ids: Vec<NodeId> = (0..4).map(|i| NodeId(i as u32)).collect();
        let mut actor =
            RingSacActor::new(config(&ids, 1, 2, 29), WeightVector::new(vec![1.0, 2.0]));
        let mut net = StubNet {
            id: ids[1],
            sent: Vec::new(),
        };
        actor.on_message(&mut net, ids[0], RingMsg::Begin { round: 1 });
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::ComputeOver {
                round: 1,
                contributors: vec![0, 1, 2], // stage 1 = {2, 3} isolated to {2}
            },
        );
        assert!(actor.frozen_set().is_none(), "isolating freeze accepted");
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::ComputeOver {
                round: 1,
                contributors: vec![0, 1, 2, 3],
            },
        );
        assert!(actor.frozen_set().is_some(), "balanced freeze rejected");
    }

    #[test]
    fn share_traffic_is_log_fan_out() {
        // n = 8 -> stages [4, 4], k = 4: m = 4, n - k = 4 gives the raw
        // threshold m - (n - k) = 0, floored to the privacy minimum
        // k_m = 2 — each receiver gets 3 of the 4 partitions, never a
        // full share set. The point of the assertion is the message
        // count: 8 senders x 4 receivers = 32 StageShares instead of the
        // pairwise n(n-1) = 56.
        let (mut sim, ids, models) = build(8, 4, 64, 33);
        let wire = models[0].wire_bytes();
        start(&mut sim, ids[0], 1);
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

    /// Transport stub recording sends — same adversarial-order harness as
    /// the pairwise engine tests.
    struct StubNet {
        id: NodeId,
        sent: Vec<(NodeId, RingMsg)>,
    }

    impl Transport<RingMsg> for StubNet {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn send(&mut self, to: NodeId, msg: RingMsg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: SimDuration, _tag: u64) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
    }

    #[test]
    fn next_round_share_arriving_before_begin_is_replayed() {
        let ids: Vec<NodeId> = (0..4).map(|i| NodeId(i as u32)).collect();
        // Position 2 is in stage 1 of the [2, 2] layout; its predecessor
        // stage is stage 0, so a share from position 1 (stage 0) is
        // legitimate traffic.
        let mut actor =
            RingSacActor::new(config(&ids, 2, 2, 77), WeightVector::new(vec![1.0, 2.0]));
        let mut net = StubNet {
            id: ids[2],
            sent: Vec::new(),
        };
        let early = RingMsg::StageShare {
            round: 1,
            from_pos: 1,
            parts: vec![(0, WeightVector::new(vec![0.5, 0.5]))],
        };
        actor.on_message(&mut net, ids[1], early);
        assert_eq!(actor.round, 0, "early block must not advance the round");
        assert!(actor.blocks.is_empty());
        actor.on_message(&mut net, ids[0], RingMsg::Begin { round: 1 });
        assert_eq!(actor.round, 1);
        assert_eq!(actor.phase, SacPhase::Sharing);
        assert!(
            actor.blocks.contains_key(&1),
            "stashed block must be replayed after Begin"
        );

        // Round+2 is outside the stash window; a flood stays bounded.
        actor.on_message(
            &mut net,
            ids[1],
            RingMsg::StageTotalRequest {
                round: 3,
                stage: 1,
                idx: 0,
            },
        );
        assert!(actor.future.is_empty(), "round+2 must not be stashed");
        for _ in 0..100 {
            actor.on_message(
                &mut net,
                ids[1],
                RingMsg::StageTotalRequest {
                    round: 2,
                    stage: 1,
                    idx: 0,
                },
            );
        }
        assert_eq!(actor.future.len(), 16, "stash must stay at the 4n bound");
        assert_eq!(actor.stash_evicted, 84);
    }

    #[test]
    fn abort_after_late_share_is_idempotent() {
        let ids: Vec<NodeId> = (0..4).map(|i| NodeId(i as u32)).collect();
        let mut cfg = config(&ids, 2, 2, 99);
        cfg.round_deadline = Some(SimDuration::from_secs(10));
        let mut actor = RingSacActor::new(cfg, WeightVector::new(vec![1.0, 2.0]));
        let mut net = StubNet {
            id: ids[2],
            sent: Vec::new(),
        };
        actor.on_message(&mut net, ids[0], RingMsg::Begin { round: 1 });
        assert_eq!(actor.phase, SacPhase::Sharing);
        let block = RingMsg::StageShare {
            round: 1,
            from_pos: 1,
            parts: vec![(0, WeightVector::new(vec![0.5, 0.5]))],
        };
        actor.on_message(&mut net, ids[1], block.clone());
        assert!(actor.blocks.contains_key(&1));
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::Abort {
                round: 1,
                reason: "test".into(),
            },
        );
        assert_eq!(actor.phase, SacPhase::Idle);
        assert!(actor.blocks.is_empty(), "abort must drop all mask material");
        assert_eq!(actor.aborts, 1);

        // Late share, duplicate abort, re-delivered Begin: all no-ops.
        actor.on_message(&mut net, ids[1], block);
        assert!(actor.blocks.is_empty(), "late block after abort ignored");
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::Abort {
                round: 1,
                reason: "dup".into(),
            },
        );
        assert_eq!(actor.aborts, 1, "duplicate abort must not double-count");
        let sends_before = net.sent.len();
        actor.on_message(&mut net, ids[0], RingMsg::Begin { round: 1 });
        assert_eq!(actor.phase, SacPhase::Idle);
        assert_eq!(net.sent.len(), sends_before, "no re-randomized shares");

        // The retry Reconfigure restarts cleanly under the new roster and
        // a freshly derived plan.
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::Reconfigure {
                round: 2,
                group: vec![ids[0], ids[2], ids[3]],
                k: 2,
            },
        );
        assert_eq!(actor.round, 2);
        assert_eq!(actor.phase, SacPhase::Sharing);
        assert_eq!(actor.sac_config().position, 1);
        assert_eq!(actor.plan().n(), 3);
        assert!(
            net.sent.len() > sends_before,
            "retry must distribute fresh shares"
        );
    }

    #[test]
    fn reconfigure_excluding_this_peer_is_ignored() {
        let ids: Vec<NodeId> = (0..4).map(|i| NodeId(i as u32)).collect();
        let mut actor = RingSacActor::new(config(&ids, 1, 2, 5), WeightVector::new(vec![1.0]));
        let mut net = StubNet {
            id: ids[1],
            sent: Vec::new(),
        };
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::Reconfigure {
                round: 2,
                group: vec![ids[0], ids[2]],
                k: 2,
            },
        );
        assert_eq!(actor.round, 0, "evicted peer sits the round out");
        assert_eq!(actor.phase, SacPhase::Idle);
        assert!(net.sent.is_empty());
    }

    #[test]
    fn follower_round_deadline_abandons_unclosed_round() {
        let ids: Vec<NodeId> = (0..4).map(|i| NodeId(i as u32)).collect();
        let mut cfg = config(&ids, 1, 2, 6);
        cfg.round_deadline = Some(SimDuration::from_secs(2));
        let mut actor = RingSacActor::new(cfg, WeightVector::new(vec![1.0]));
        let mut net = StubNet {
            id: ids[1],
            sent: Vec::new(),
        };
        actor.on_message(&mut net, ids[0], RingMsg::Begin { round: 1 });
        assert_eq!(actor.phase, SacPhase::Sharing);
        actor.on_timer(&mut net, timer_tag(TIMER_ROUND_DEADLINE, 7));
        assert_eq!(actor.phase, SacPhase::Sharing, "foreign-round deadline");
        actor.on_timer(&mut net, timer_tag(TIMER_ROUND_DEADLINE, 1));
        assert_eq!(actor.phase, SacPhase::Idle);
        assert_eq!(actor.abandoned, 1);
        assert!(actor.blocks.is_empty());
        // A late recovery request for the retired round is not served.
        let sends = net.sent.len();
        actor.on_message(
            &mut net,
            ids[0],
            RingMsg::StageTotalRequest {
                round: 1,
                stage: 0,
                idx: 1,
            },
        );
        assert_eq!(net.sent.len(), sends);
        assert!(actor.pending_requests.is_empty());
    }

    #[test]
    fn bogus_stage_total_cannot_complete_the_round() {
        // A total outside the (stage, partition) grid must neither count
        // toward the n-totals finish condition nor panic the averaging.
        let (mut sim, ids, _) = build(6, 2, 4, 51);
        start(&mut sim, ids[0], 1);
        sim.inject(
            ids[1],
            ids[0],
            RingMsg::StageTotal {
                round: 1,
                stage: 9,
                idx: 9,
                value: WeightVector::zeros(4),
            },
            SimDuration::from_millis(1),
        );
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done);
        assert!(!leader.held_totals().contains_key(&(9, 9)));
    }

    #[test]
    fn second_round_reuses_the_engine() {
        let (mut sim, ids, models) = build(6, 2, 8, 61);
        start(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.actor::<RingSacActor>(ids[0]).phase, SacPhase::Done);
        sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 2));
        sim.run_until(SimTime::from_secs(4));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done);
        assert_eq!(leader.round, 2);
        let all: Vec<usize> = (0..6).collect();
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &all)) < 1e-9);
    }
}
