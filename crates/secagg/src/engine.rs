//! Message-driven fault-tolerant SAC engine over `p2pfl-simnet`.
//!
//! [`crate::ftsac`] executes Alg. 4 synchronously; this module runs the same
//! protocol as real message exchange between simulator actors, with crash
//! detection by timeout and subtotal recovery from replica holders — the
//! form the paper actually deploys inside each subgroup.
//!
//! Protocol (one aggregation round, leader-driven):
//!
//! 1. every peer divides its model into `n` partitions and sends each other
//!    peer its consecutive `n-k+1`-partition block (`ShareBlock`);
//! 2. when the leader has blocks from everyone — or its share deadline
//!    expires — it freezes the contributor set and broadcasts `ComputeOver`;
//! 3. every live peer computes the subtotals of its block over that set and
//!    the *primary owner* of each index sends it to the leader (`Subtotal`);
//! 4. after a collection deadline the leader requests missing subtotals
//!    from alternate replica holders (`SubtotalRequest`), which respond with
//!    the recovered `Subtotal`;
//! 5. with all `n` subtotals the leader averages and completes.
//!
//! The `ComputeOver` control broadcast has no counterpart in the paper's
//! pseudo-code (which assumes a synchronous view of who contributed); it is
//! required for consistency once peers can crash mid-protocol, and is
//! counted in its own ledger phase as a small control message.

use crate::divide::{divide, ShareScheme};
use crate::replicated::{assigned_partitions, hand_out, holders, replication_factor};
use crate::ring::SacEngine;
use crate::weights::WeightVector;
use p2pfl_simnet::{Actor, NodeId, Payload, SimDuration, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Messages exchanged by the SAC engine.
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

/// Where the engine is in the round.
#[derive(Debug, Clone, PartialEq)]
pub enum SacPhase {
    /// Waiting for `Begin` (followers) or `start_round` (leader).
    Idle,
    /// Shares sent; collecting blocks.
    Sharing,
    /// Contributor set frozen; collecting subtotals (leader only).
    Collecting,
    /// Round finished; `result` holds the average (leader only).
    Done,
    /// Round failed.
    Failed(String),
}

const TIMER_SHARE_DEADLINE: u64 = 1;
const TIMER_COLLECT_DEADLINE: u64 = 2;
const TIMER_ROUND_DEADLINE: u64 = 3;

/// Timer tags carry the round in their upper bits so a deadline armed for
/// an aborted round can never misfire into its successor: abort/retry
/// re-enters the `Sharing` phase under a *new* round number, which a bare
/// phase guard cannot distinguish from the round the timer was armed for.
fn timer_tag(base: u64, round: u64) -> u64 {
    (round << 8) | base
}

/// Static configuration of one SAC engine participant.
#[derive(Debug, Clone)]
pub struct SacConfig {
    /// All subgroup members, in position order (position = index here).
    pub group: Vec<NodeId>,
    /// This peer's position within `group`.
    pub position: usize,
    /// The leader's position within `group`.
    pub leader_pos: usize,
    /// Reconstruction threshold `k` (`1..=n`).
    pub k: usize,
    /// Share construction scheme.
    pub scheme: ShareScheme,
    /// Which aggregation engine this subgroup runs. The config struct is
    /// shared by both engines; a runtime constructs [`SacPeerActor`] for
    /// `Pairwise` and [`crate::ring::RingSacActor`] for `Ring`. All
    /// members of a subgroup must agree on the engine for a round — the
    /// value is replicated through the FedAvg-layer config.
    pub engine: SacEngine,
    /// Leader grace period for the share phase.
    pub share_deadline: SimDuration,
    /// Leader grace period for subtotal collection before recovery kicks in.
    pub collect_deadline: SimDuration,
    /// Supervisor deadline for the whole round. `None` keeps the legacy
    /// behavior (an unrecoverable partition fails the round terminally).
    /// When set, the leader converts every dead end into one abort +
    /// retry with the surviving `n'` members and `k' = min(k, n')`,
    /// refusing only when `n' < 2`; followers abandon a round that is
    /// still open when the deadline fires, discarding its mask material.
    /// Should comfortably exceed `share_deadline + 2 * collect_deadline`
    /// so it only fires on rounds no phase deadline can finish.
    pub round_deadline: Option<SimDuration>,
    /// RNG seed for share randomness.
    pub seed: u64,
}

impl SacConfig {
    /// Subgroup size `n`.
    pub fn n(&self) -> usize {
        self.group.len()
    }
    /// Whether this participant is the round leader.
    pub fn is_leader(&self) -> bool {
        self.position == self.leader_pos
    }
}

/// A subgroup member executing fault-tolerant SAC over the simulator.
pub struct SacPeerActor {
    cfg: SacConfig,
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
    /// Rounds aborted on this peer (leader: deadline/unrecoverable abort;
    /// follower: processed `Abort`).
    pub aborts: u64,
    /// Rounds a follower abandoned locally when the round deadline fired
    /// with the round still open (the leader's outcome is unknown to it).
    pub abandoned: u64,
    /// Next-round stash messages evicted because the `4n` bound was hit.
    pub stash_evicted: u64,
    /// Whether received share blocks are checked against the sender's
    /// broadcast digest commitments (on by default). Disabling this models
    /// an undefended deployment — used by the pinned negative tests.
    pub verify_commitments: bool,
    /// Byzantine fault injection: when set, this peer *commits* to its
    /// honest partition digests but scales the shares it actually sends by
    /// this factor — the commit-then-skew attack the commitment check is
    /// built to catch. Set by the fault-plan interpreters.
    pub byz_share_skew: Option<f64>,
    /// Share blocks rejected because they disagreed with the sender's own
    /// commitment.
    pub shares_rejected: u64,
    /// Positions convicted of sending shares inconsistent with their
    /// commitments (cumulative across rounds; the round supervisor reads
    /// this to drive roster evictions).
    pub byzantine_detected: BTreeSet<usize>,
    // commitments[from_pos] = per-partition digests for the current round
    commitments: BTreeMap<usize, Vec<u64>>,
    // blocks[from_pos][idx] = partition
    blocks: BTreeMap<usize, BTreeMap<usize, WeightVector>>,
    frozen: Option<BTreeSet<usize>>,
    subtotals: BTreeMap<usize, WeightVector>,
    requested: BTreeSet<usize>,
    sent_primary: bool,
    pending_requests: Vec<(usize, NodeId)>,
    // Messages that arrived for the *next* round before this peer's
    // `Begin` did. Real transports order frames per connection only, so a
    // fast peer's `ShareBlock` for round r+1 can beat the leader's
    // `Begin { r+1 }`; dropping it would stall the round into recovery
    // (or unrecoverability). Stashed here and replayed after the round
    // advances. Bounded to one message burst per peer.
    future: Vec<(NodeId, SacMsg)>,
    // The most recently aborted round: messages addressed to it are dead
    // on arrival (its mask material was discarded; a late ShareBlock must
    // not resurrect partial state), and a re-delivered `Begin` for it must
    // not redistribute shares — the same single-randomization rule the
    // Begin-idempotence guard enforces.
    aborted: Option<u64>,
    // Whether the current round is already the retry of an aborted one
    // (each externally started round gets at most one supervised retry).
    retried: bool,
    // Every mask-stream domain this engine has drawn from, in adoption
    // order (construction seed, then one per `rekey`). The checker's
    // NoMaskReuseAcrossRekey oracle asserts all entries are distinct.
    mask_keys: Vec<u64>,
}

impl SacPeerActor {
    /// Creates an idle engine participant holding `model`.
    pub fn new(cfg: SacConfig, model: WeightVector) -> Self {
        assert!(cfg.position < cfg.n(), "position out of range");
        assert!(cfg.leader_pos < cfg.n(), "leader position out of range");
        assert!(cfg.k >= 1 && cfg.k <= cfg.n(), "invalid threshold");
        let mask_domain = cfg.seed ^ (cfg.position as u64) << 32;
        let rng = StdRng::seed_from_u64(mask_domain);
        SacPeerActor {
            cfg,
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
            verify_commitments: true,
            byz_share_skew: None,
            shares_rejected: 0,
            byzantine_detected: BTreeSet::new(),
            commitments: BTreeMap::new(),
            blocks: BTreeMap::new(),
            frozen: None,
            subtotals: BTreeMap::new(),
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

    /// Subtotals held locally (`idx -> value`); on the leader these are the
    /// collected per-partition sums over the frozen set.
    pub fn held_subtotals(&self) -> &BTreeMap<usize, WeightVector> {
        &self.subtotals
    }

    /// Leader entry point: begins round `round`, instructing followers and
    /// distributing this peer's own shares.
    pub fn start_round(&mut self, ctx: &mut dyn Transport<SacMsg>, round: u64) {
        assert!(self.cfg.is_leader(), "only the leader starts rounds");
        self.retried = false;
        self.reset_for(round);
        let group = self.cfg.group.clone();
        let me = self.me();
        for &peer in &group {
            if peer != me {
                ctx.send(peer, SacMsg::Begin { round });
            }
        }
        self.distribute_shares(ctx);
        ctx.set_timer(
            self.cfg.share_deadline,
            timer_tag(TIMER_SHARE_DEADLINE, round),
        );
        self.arm_round_deadline(ctx);
        self.phase = SacPhase::Sharing;
        self.replay_future(ctx);
    }

    fn me(&self) -> NodeId {
        self.cfg.group[self.cfg.position]
    }

    fn arm_round_deadline(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        if let Some(d) = self.cfg.round_deadline {
            ctx.set_timer(d, timer_tag(TIMER_ROUND_DEADLINE, self.round));
        }
    }

    /// Adopts a new roster mid-life (after a supervised abort or a
    /// membership change replicated by the layer above): recomputes this
    /// peer's position, moves the leadership to `leader`, adopts `k`, and
    /// discards all state of the current round. The caller starts the next
    /// round (with a fresh round number) afterwards. Returns whether the
    /// roster was adopted.
    pub fn reconfigure(&mut self, group: Vec<NodeId>, leader: NodeId, k: usize) -> bool {
        let me = self.me();
        // A roster that drops this peer or its leader, or carries an
        // unsatisfiable threshold, is invalid (a supervised restart never
        // produces one). Ignore it and keep the current configuration —
        // the supervisor aborts/retries — rather than crash the engine.
        let (Some(position), Some(leader_pos)) = (
            group.iter().position(|&p| p == me),
            group.iter().position(|&p| p == leader),
        ) else {
            return false;
        };
        if k < 1 || k > group.len() {
            return false;
        }
        self.cfg.group = group;
        self.cfg.position = position;
        self.cfg.leader_pos = leader_pos;
        self.cfg.k = k;
        let round = self.round;
        self.reset_for(round);
        true
    }

    /// Adopts a new roster *and* a fresh mask domain — the elastic
    /// split/merge re-key. Beyond [`SacPeerActor::reconfigure`], the RNG
    /// driving every subsequent share polynomial and mask partition is
    /// reseeded under `roster_key` (the replicated layer derives it per
    /// peer and transition, strictly fresh), so no mask drawn for the old
    /// roster can recur under the new one — even when a merge reunites the
    /// exact member set a split divided. Returns whether the roster was
    /// adopted; a rejected roster leaves the mask stream untouched.
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

    /// Leader-side dead end: abort the round everywhere, then — unless the
    /// round was already a retry, or fewer than two members survive —
    /// restart with the surviving roster and `k' = min(k, n')`.
    fn supervise(
        &mut self,
        ctx: &mut dyn Transport<SacMsg>,
        suspects: &BTreeSet<usize>,
        reason: &str,
    ) {
        let old_round = self.round;
        let me = self.me();
        for &peer in &self.cfg.group.clone() {
            if peer != me {
                ctx.send(
                    peer,
                    SacMsg::Abort {
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
                    SacMsg::Reconfigure {
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
    /// advanced; anything not matching the current round is filtered out
    /// by the per-message round guards.
    fn replay_future(&mut self, ctx: &mut dyn Transport<SacMsg>) {
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
        self.commitments.clear();
        self.blocks.clear();
        self.frozen = None;
        self.subtotals.clear();
        self.requested.clear();
        self.sent_primary = false;
        self.pending_requests.clear();
    }

    fn distribute_shares(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let n = self.cfg.n();
        let mut parts = divide(&self.model, n, self.cfg.scheme, &mut self.rng);
        #[cfg(feature = "mutants")]
        if crate::mutants::active(crate::mutants::Mutant::ShareSkew) {
            if let Some(p0) = parts.get_mut(0) {
                p0.scale(0.5);
            }
        }
        // Commit to the partition digests before sending any shares. Links
        // are FIFO, so every receiver sees the commitment before the block
        // it covers. A Byzantine peer injected with `byz_share_skew` still
        // commits honestly here and skews only what it sends below — which
        // is exactly what the receivers' digest check convicts.
        let digests: Vec<u64> = parts.iter().map(|p| p.digest()).collect();
        let round = self.round;
        let me = self.me();
        for &peer in &self.cfg.group {
            if peer != me {
                ctx.send(
                    peer,
                    SacMsg::Commit {
                        round,
                        from_pos: self.cfg.position,
                        digests: digests.clone(),
                    },
                );
            }
        }
        let mut uses_left = vec![replication_factor(n, self.cfg.k); n];
        for (j, &peer) in self.cfg.group.iter().enumerate() {
            let mut block: Vec<(usize, WeightVector)> = assigned_partitions(n, self.cfg.k, j)
                .into_iter()
                .map(|p| (p, hand_out(&mut parts, &mut uses_left, p)))
                .collect();
            if j == self.cfg.position {
                // Keep our own block locally.
                self.blocks
                    .entry(self.cfg.position)
                    .or_default()
                    .extend(block);
            } else {
                if let Some(factor) = self.byz_share_skew {
                    for (_, v) in &mut block {
                        v.scale(factor);
                    }
                }
                ctx.send(
                    peer,
                    SacMsg::ShareBlock {
                        round,
                        from_pos: self.cfg.position,
                        parts: block,
                    },
                );
            }
        }
    }

    /// Positions whose blocks this peer has fully received.
    fn received_from(&self) -> BTreeSet<usize> {
        self.blocks.keys().copied().collect()
    }

    fn freeze_and_request_subtotals(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let contributors = self.received_from();
        if contributors.is_empty() {
            self.phase = SacPhase::Failed("no contributors".into());
            return;
        }
        if contributors.len() < self.cfg.k {
            // Freezing below the threshold would publish an average the
            // round's `k` policy does not sanction (a retry round can get
            // here when its `Reconfigure` reaches the survivors after the
            // new share deadline). Treat it as a dead end: supervised
            // rounds abort and retry/fail, unsupervised rounds just fail.
            if self.cfg.round_deadline.is_some() {
                let suspects: BTreeSet<usize> = (0..self.cfg.n())
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
        self.frozen = Some(contributors.clone());
        let msg = SacMsg::ComputeOver {
            round: self.round,
            contributors: contributors.iter().copied().collect(),
        };
        let me = self.cfg.group[self.cfg.position];
        for &peer in &self.cfg.group.clone() {
            if peer != me {
                ctx.send(peer, msg.clone());
            }
        }
        // Compute our own block's subtotals immediately.
        self.compute_own_subtotals();
        self.phase = SacPhase::Collecting;
        ctx.set_timer(
            self.cfg.collect_deadline,
            timer_tag(TIMER_COLLECT_DEADLINE, self.round),
        );
        self.maybe_finish();
    }

    /// Subtotal for partition `p` over the frozen contributor set; `None`
    /// if some contributor's partition is missing locally.
    fn subtotal_over_frozen(&self, p: usize) -> Option<WeightVector> {
        let frozen = self.frozen.as_ref()?;
        let mut acc = WeightVector::zeros(self.model.dim());
        for &c in frozen {
            acc.add_assign(self.blocks.get(&c)?.get(&p)?);
        }
        Some(acc)
    }

    fn compute_own_subtotals(&mut self) {
        let n = self.cfg.n();
        for p in assigned_partitions(n, self.cfg.k, self.cfg.position) {
            if let Some(s) = self.subtotal_over_frozen(p) {
                self.subtotals.insert(p, s);
            }
        }
    }

    fn maybe_finish(&mut self) {
        if self.phase != SacPhase::Collecting {
            return;
        }
        let n = self.cfg.n();
        if self.subtotals.len() < n {
            return;
        }
        let Some(frozen) = self.frozen.as_ref() else {
            return;
        };
        let mut avg = WeightVector::zeros(self.model.dim());
        for p in 0..n {
            // Explicit grid check: the count alone does not prove every
            // partition 0..n is present.
            let Some(s) = self.subtotals.get(&p) else {
                return;
            };
            avg.add_assign(s);
        }
        avg.scale(1.0 / frozen.len() as f64);
        self.contributors = frozen.iter().copied().collect();
        self.result = Some(avg);
        self.phase = SacPhase::Done;
    }

    /// Follower-side progress: once the contributor set is frozen, send
    /// the primary subtotal as soon as it becomes computable (share blocks
    /// can arrive *after* `ComputeOver` on slow links), and answer any
    /// recovery requests that were waiting on missing partitions.
    fn follower_progress(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        if self.frozen.is_none() {
            return;
        }
        self.compute_own_subtotals();
        if !self.cfg.is_leader() && !self.sent_primary {
            let leader_block = assigned_partitions(self.cfg.n(), self.cfg.k, self.cfg.leader_pos);
            if !leader_block.contains(&self.cfg.position) {
                if let Some(s) = self.subtotals.get(&self.cfg.position).cloned() {
                    self.sent_primary = true;
                    ctx.send(
                        self.cfg.group[self.cfg.leader_pos],
                        SacMsg::Subtotal {
                            round: self.round,
                            idx: self.cfg.position,
                            value: s,
                        },
                    );
                }
            }
        }
        let pending = std::mem::take(&mut self.pending_requests);
        for (idx, from) in pending {
            if let Some(s) = self.subtotal_over_frozen(idx) {
                ctx.send(
                    from,
                    SacMsg::Subtotal {
                        round: self.round,
                        idx,
                        value: s,
                    },
                );
            } else {
                self.pending_requests.push((idx, from));
            }
        }
    }

    fn request_missing(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let n = self.cfg.n();
        let missing: Vec<usize> = (0..n).filter(|p| !self.subtotals.contains_key(p)).collect();
        if missing.is_empty() {
            return;
        }
        for &p in &missing {
            if self.requested.contains(&p) {
                // Second deadline with the request still unanswered: the
                // whole replica neighborhood is gone. Under supervision
                // the round aborts and retries without the unresponsive
                // holders; without it this is terminal.
                if self.cfg.round_deadline.is_some() {
                    let suspects: BTreeSet<usize> = missing
                        .iter()
                        .filter(|q| self.requested.contains(q))
                        .flat_map(|&q| holders(n, self.cfg.k, q))
                        .collect();
                    self.supervise(ctx, &suspects, &format!("partition {p} unrecoverable"));
                } else {
                    self.phase = SacPhase::Failed(format!("partition {p} unrecoverable"));
                }
                return;
            }
            self.requested.insert(p);
            // Ask every alternate holder; first response wins, duplicates
            // are idempotent inserts.
            for h in holders(n, self.cfg.k, p) {
                if h != self.cfg.position && h != p {
                    let peer = self.cfg.group[h];
                    ctx.send(
                        peer,
                        SacMsg::SubtotalRequest {
                            round: self.round,
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

impl Actor<SacMsg> for SacPeerActor {
    fn on_message(&mut self, ctx: &mut dyn Transport<SacMsg>, from: NodeId, msg: SacMsg) {
        // Stash anything addressed to the round right after ours: our
        // `Begin` is still in flight on another connection. `Begin` and
        // `Reconfigure` advance the round themselves, so they are never
        // stashed. The bound makes a hostile or deeply desynchronized peer
        // a no-op, not a memory leak — and evictions are counted and
        // logged, not silent.
        let msg_round = match &msg {
            SacMsg::Begin { .. } | SacMsg::Reconfigure { .. } => None,
            SacMsg::Commit { round, .. }
            | SacMsg::ShareBlock { round, .. }
            | SacMsg::ComputeOver { round, .. }
            | SacMsg::Subtotal { round, .. }
            | SacMsg::SubtotalRequest { round, .. }
            | SacMsg::Abort { round, .. } => Some(*round),
        };
        if let Some(r) = msg_round {
            if r == self.round + 1 {
                if self.future.len() < 4 * self.cfg.n() {
                    self.future.push((from, msg));
                } else {
                    // Counted in `stash_evicted`, surfaced via NetStats.
                    self.stash_evicted += 1;
                }
                return;
            }
            // Messages for an aborted round are dead on arrival: its mask
            // material is gone, and a late ShareBlock (or a re-delivered
            // Abort) must not resurrect partial round state.
            if self.aborted == Some(r) && r == self.round {
                return;
            }
        }
        match msg {
            SacMsg::Begin { round } => {
                if self.cfg.is_leader() {
                    return; // only followers react to Begin
                }
                // Share distribution draws fresh randomness, so it must
                // run exactly once per round: a duplicated Begin for the
                // round in progress would emit a *different* share set and
                // break mask cancellation, and a stale Begin re-delivered
                // from an earlier round would regress the actor.
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
            SacMsg::Commit {
                round,
                from_pos,
                digests,
            } => {
                // Out-of-roster sender positions are rejected so the
                // commitment table stays bounded by the roster size.
                if round != self.round || from_pos >= self.cfg.n() {
                    return;
                }
                self.commitments.insert(from_pos, digests);
            }
            SacMsg::ShareBlock {
                round,
                from_pos,
                parts,
            } => {
                if round != self.round {
                    return;
                }
                // Shape gate: a block whose sender position, partition
                // indices, or dimensions don't fit the roster/model is
                // Byzantine by construction. Reject it *before* it can
                // reach the subtotal arithmetic, whose `add_assign`
                // panics on dimension mismatch.
                let dim = self.model.dim();
                if from_pos >= self.cfg.n()
                    || parts
                        .iter()
                        .any(|(p, v)| *p >= self.cfg.n() || v.dim() != dim)
                {
                    self.shares_rejected += 1;
                    if from_pos < self.cfg.n() {
                        self.byzantine_detected.insert(from_pos);
                    }
                    return;
                }
                // Commitment check: every partition in the block must hash
                // to the digest its sender committed to for this round. A
                // mismatch convicts the sender (the commitment and the
                // block carry the same signature — its position — over the
                // same FIFO link) and rejects the whole block, turning the
                // Byzantine sender into an ordinary dropout. An absent
                // commitment is *not* a conviction: a peer that never
                // committed simply predates the check (mixed versions) and
                // is accepted as before.
                if self.verify_commitments {
                    if let Some(digests) = self.commitments.get(&from_pos) {
                        let consistent = parts
                            .iter()
                            .all(|(p, v)| digests.get(*p).is_some_and(|&d| d == v.digest()));
                        if !consistent {
                            self.shares_rejected += 1;
                            self.byzantine_detected.insert(from_pos);
                            self.blocks.remove(&from_pos);
                            return;
                        }
                    }
                }
                let entry = self.blocks.entry(from_pos).or_default();
                for (p, v) in parts {
                    entry.insert(p, v);
                }
                if self.cfg.is_leader() {
                    // Rejected senders will never be heard from again this
                    // round; counting them lets the leader freeze as soon
                    // as every *honest* block is in instead of burning the
                    // share deadline.
                    let settled = self.received_from().len()
                        + self
                            .byzantine_detected
                            .iter()
                            .filter(|p| !self.blocks.contains_key(p))
                            .count();
                    if self.phase == SacPhase::Sharing && settled == self.cfg.n() {
                        self.freeze_and_request_subtotals(ctx);
                    }
                } else {
                    self.follower_progress(ctx);
                }
            }
            SacMsg::ComputeOver {
                round,
                contributors,
            } => {
                if round != self.round || self.cfg.is_leader() {
                    return;
                }
                let _ = from; // leader is the sender of ComputeOver
                self.frozen = Some(contributors.into_iter().collect());
                // Primary-owner rule (paper lines 14-16): the k-1 peers
                // whose index the leader does not hold send their subtotal
                // — as soon as it is computable (blocks may still be in
                // flight on slow links).
                self.follower_progress(ctx);
            }
            SacMsg::Subtotal { round, idx, value } => {
                if round != self.round || !self.cfg.is_leader() {
                    return;
                }
                // Bounds/shape gate: an out-of-range index or a wrong-
                // dimension value must not enter the average.
                if idx >= self.cfg.n() || value.dim() != self.model.dim() {
                    self.shares_rejected += 1;
                    return;
                }
                self.subtotals.entry(idx).or_insert(value);
                self.maybe_finish();
            }
            SacMsg::SubtotalRequest { round, idx } => {
                if round != self.round || idx >= self.cfg.n() {
                    return;
                }
                if let Some(s) = self.subtotal_over_frozen(idx) {
                    ctx.send(
                        from,
                        SacMsg::Subtotal {
                            round: self.round,
                            idx,
                            value: s,
                        },
                    );
                } else {
                    // Can't serve yet (missing partitions); answer when the
                    // missing blocks arrive.
                    self.pending_requests.push((idx, from));
                }
            }
            SacMsg::Abort { round, reason } => {
                if round != self.round || self.cfg.is_leader() {
                    return;
                }
                let _ = reason;
                self.reset_for(round);
                self.aborted = Some(round);
                self.aborts += 1;
            }
            SacMsg::Reconfigure { round, group, k } => {
                if self.cfg.is_leader() {
                    return;
                }
                // Same freshness rules as Begin: never regress, never
                // re-randomize a round in progress, never revive an
                // aborted round.
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
                    // Evicted from the retry roster; sit this round out
                    // (the layer above re-admits us via the join path).
                    return;
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

    fn on_timer(&mut self, ctx: &mut dyn Transport<SacMsg>, tag: u64) {
        let (base, round) = (tag & 0xff, tag >> 8);
        if round != self.round {
            return; // armed for a round that has since ended or aborted
        }
        match base {
            TIMER_SHARE_DEADLINE if self.cfg.is_leader() && self.phase == SacPhase::Sharing => {
                self.freeze_and_request_subtotals(ctx);
            }
            TIMER_COLLECT_DEADLINE
                if self.cfg.is_leader() && self.phase == SacPhase::Collecting =>
            {
                self.request_missing(ctx);
            }
            TIMER_ROUND_DEADLINE => {
                if self.cfg.is_leader() {
                    if matches!(self.phase, SacPhase::Sharing | SacPhase::Collecting) {
                        // The phase deadlines failed to finish the round in
                        // a whole supervisor window: abort and retry with
                        // whoever has been heard from.
                        let heard = self.received_from();
                        let suspects: BTreeSet<usize> =
                            (0..self.cfg.n()).filter(|j| !heard.contains(j)).collect();
                        self.supervise(ctx, &suspects, "round deadline expired");
                    }
                } else if self.phase == SacPhase::Sharing {
                    // Retire the round's share material: recovery requests
                    // for it will no longer be served. Count it as
                    // abandoned only if the contributor set never froze —
                    // a follower has no way to see a healthy round end, so
                    // a frozen round at deadline is a normal retirement.
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

    fn shares_rejected(&self) -> u64 {
        self.shares_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_simnet::{Sim, SimTime, TimerId};

    fn build(
        n: usize,
        k: usize,
        dim: usize,
        seed: u64,
    ) -> (Sim<SacMsg>, Vec<NodeId>, Vec<WeightVector>) {
        let mut sim = Sim::new(seed);
        let ids: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
        let mut rng = StdRng::seed_from_u64(seed + 999);
        let models: Vec<WeightVector> = (0..n)
            .map(|_| WeightVector::random(dim, 1.0, &mut rng))
            .collect();
        for i in 0..n {
            let cfg = SacConfig {
                group: ids.clone(),
                position: i,
                leader_pos: 0,
                k,
                scheme: ShareScheme::Masked,
                engine: SacEngine::Pairwise,
                share_deadline: SimDuration::from_millis(100),
                collect_deadline: SimDuration::from_millis(100),
                round_deadline: None,
                seed: seed + i as u64,
            };
            let actual = sim.add_node(SacPeerActor::new(cfg, models[i].clone()));
            assert_eq!(actual, ids[i]);
        }
        (sim, ids, models)
    }

    fn start(sim: &mut Sim<SacMsg>, leader: NodeId, round: u64) {
        sim.run_until_quiet(100); // flush on_start events
        sim.exec::<SacPeerActor, _, _>(leader, |a, ctx| a.start_round(ctx, round));
    }

    /// Like [`build`] but with the round supervisor enabled on every peer.
    fn build_supervised(
        n: usize,
        k: usize,
        dim: usize,
        seed: u64,
        round_deadline: SimDuration,
    ) -> (Sim<SacMsg>, Vec<NodeId>, Vec<WeightVector>) {
        let mut sim = Sim::new(seed);
        let ids: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
        let mut rng = StdRng::seed_from_u64(seed + 999);
        let models: Vec<WeightVector> = (0..n)
            .map(|_| WeightVector::random(dim, 1.0, &mut rng))
            .collect();
        for i in 0..n {
            let cfg = SacConfig {
                group: ids.clone(),
                position: i,
                leader_pos: 0,
                k,
                scheme: ShareScheme::Masked,
                engine: SacEngine::Pairwise,
                share_deadline: SimDuration::from_millis(100),
                collect_deadline: SimDuration::from_millis(100),
                round_deadline: Some(round_deadline),
                seed: seed + i as u64,
            };
            let actual = sim.add_node(SacPeerActor::new(cfg, models[i].clone()));
            assert_eq!(actual, ids[i]);
        }
        (sim, ids, models)
    }

    fn plain_mean(models: &[WeightVector], idx: &[usize]) -> WeightVector {
        WeightVector::mean(idx.iter().map(|&i| &models[i]))
    }

    #[test]
    fn rekey_reseeds_and_the_round_still_averages() {
        // Re-keying every member onto the same roster must leave the
        // arithmetic intact: the fresh mask streams still cancel, so the
        // next round's result is exactly the plain mean.
        let (mut sim, ids, models) = build(4, 2, 8, 51);
        start(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.actor::<SacPeerActor>(ids[0]).phase, SacPhase::Done);
        for (i, &id) in ids.iter().enumerate() {
            let group = ids.clone();
            let adopted =
                sim.actor_mut::<SacPeerActor>(id)
                    .rekey(group, ids[0], 2, 0xe1a5_71c0 + i as u64);
            assert!(adopted);
        }
        sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 2));
        sim.run_until(SimTime::from_secs(4));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3])) < 1e-9);
    }

    #[test]
    fn rekey_history_stays_fresh_for_identical_rosters() {
        let (mut sim, ids, _) = build(3, 2, 4, 52);
        sim.run_until_quiet(100);
        let a = sim.actor_mut::<SacPeerActor>(ids[1]);
        assert_eq!(a.mask_keys().len(), 1);
        // Same roster, same leader, twice — only the roster key differs
        // (a split immediately undone by a merge). Every domain is fresh.
        assert!(a.rekey(ids.clone(), ids[0], 2, 1));
        assert!(a.rekey(ids.clone(), ids[0], 2, 2));
        let hist = a.mask_keys().to_vec();
        assert_eq!(hist.len(), 3);
        let mut dedup = hist.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hist.len(), "mask domain reused: {hist:?}");
    }

    #[test]
    fn rekey_rejects_roster_without_this_peer() {
        let (mut sim, ids, _) = build(3, 2, 4, 53);
        sim.run_until_quiet(100);
        let a = sim.actor_mut::<SacPeerActor>(ids[2]);
        let before = a.mask_keys().to_vec();
        // A roster that drops this peer (or its leader) must be refused
        // without touching the mask stream.
        assert!(!a.rekey(vec![ids[0], ids[1]], ids[0], 2, 9));
        assert!(!a.rekey(ids.clone(), NodeId(99), 2, 9));
        assert!(!a.rekey(ids.clone(), ids[0], 4, 9));
        assert_eq!(a.mask_keys(), &before[..]);
    }

    #[test]
    fn happy_path_completes_with_plain_mean() {
        let (mut sim, ids, models) = build(5, 3, 16, 42);
        start(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done);
        assert_eq!(leader.contributors, vec![0, 1, 2, 3, 4]);
        assert_eq!(leader.recoveries, 0);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3, 4])) < 1e-9);
    }

    #[test]
    fn after_share_crash_is_recovered() {
        let (mut sim, ids, models) = build(5, 3, 8, 7);
        start(&mut sim, ids[0], 1);
        // Shares settle within ~2 link delays (30ms); crash peer 4 after.
        sim.schedule_crash(ids[4], SimTime::from_millis(40));
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        // Crashed peer shared before dying, so it still contributes.
        assert_eq!(leader.contributors, vec![0, 1, 2, 3, 4]);
        assert!(leader.recoveries >= 1);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3, 4])) < 1e-9);
    }

    #[test]
    fn before_share_crash_is_excluded() {
        let (mut sim, ids, models) = build(5, 3, 8, 11);
        // Peer 3 dies before the round even starts.
        sim.run_until_quiet(100);
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(1));
        sim.run_until_quiet(100);
        sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, vec![0, 1, 2, 4]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 4])) < 1e-9);
    }

    #[test]
    fn unrecoverable_when_all_holders_die() {
        // k = n means no replication: one post-share crash is fatal.
        let (mut sim, ids, _) = build(4, 4, 4, 13);
        start(&mut sim, ids[0], 1);
        sim.schedule_crash(ids[2], SimTime::from_millis(40));
        sim.run_until(SimTime::from_secs(3));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert!(
            matches!(leader.phase, SacPhase::Failed(_)),
            "phase: {:?}",
            leader.phase
        );
    }

    /// Transport stub recording sends — for driving an actor directly with
    /// an adversarial message *order*, which the simulator cannot express
    /// (its per-link delivery never reorders a `Begin` behind a later
    /// cross-peer `ShareBlock` deterministically).
    struct StubNet {
        id: NodeId,
        sent: Vec<(NodeId, SacMsg)>,
    }

    impl Transport<SacMsg> for StubNet {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn send(&mut self, to: NodeId, msg: SacMsg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: SimDuration, _tag: u64) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
    }

    #[test]
    fn next_round_share_arriving_before_begin_is_replayed() {
        // Real transports only order frames per connection: peer 2 can see
        // peer 1's round-1 ShareBlock before the leader's Begin { 1 }.
        // The block must survive the race and count after Begin arrives.
        let ids: Vec<NodeId> = (0..3).map(|i| NodeId(i as u32)).collect();
        let cfg = SacConfig {
            group: ids.clone(),
            position: 2,
            leader_pos: 0,
            k: 3,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Pairwise,
            share_deadline: SimDuration::from_secs(1),
            collect_deadline: SimDuration::from_secs(1),
            round_deadline: None,
            seed: 77,
        };
        let mut actor = SacPeerActor::new(cfg, WeightVector::new(vec![1.0, 2.0]));
        let mut net = StubNet {
            id: ids[2],
            sent: Vec::new(),
        };
        let early = SacMsg::ShareBlock {
            round: 1,
            from_pos: 1,
            parts: vec![(0, WeightVector::new(vec![0.5, 0.5]))],
        };
        actor.on_message(&mut net, ids[1], early);
        assert_eq!(actor.round, 0, "early block must not advance the round");
        assert!(
            actor.blocks.is_empty(),
            "early block must not be applied before Begin"
        );
        actor.on_message(&mut net, ids[0], SacMsg::Begin { round: 1 });
        assert_eq!(actor.round, 1);
        assert_eq!(actor.phase, SacPhase::Sharing);
        assert!(
            actor.blocks.contains_key(&1),
            "stashed block must be replayed after Begin"
        );

        // A message two rounds ahead is outside the stash window and a
        // flood cannot grow the stash without bound.
        actor.on_message(
            &mut net,
            ids[1],
            SacMsg::SubtotalRequest { round: 3, idx: 0 },
        );
        assert!(actor.future.is_empty(), "round+2 must not be stashed");
        for _ in 0..100 {
            actor.on_message(
                &mut net,
                ids[1],
                SacMsg::SubtotalRequest { round: 2, idx: 0 },
            );
        }
        assert!(actor.future.len() <= 12, "stash must stay bounded");
    }

    #[test]
    fn begin_aimed_at_leader_is_ignored() {
        let (mut sim, ids, _) = build(3, 2, 4, 42);
        sim.inject(
            ids[1],
            ids[0],
            SacMsg::Begin { round: 5 },
            SimDuration::from_millis(1),
        );
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.actor::<SacPeerActor>(ids[0]).phase, SacPhase::Idle);
    }

    #[test]
    fn duplicate_and_stale_begins_are_ignored() {
        let (mut sim, ids, models) = build(5, 3, 8, 31);
        start(&mut sim, ids[0], 2);
        // Re-deliver the in-flight Begin to one follower and a stale
        // round-1 Begin to another: neither may trigger a second share
        // distribution (fresh randomness would break mask cancellation)
        // or regress the follower's round.
        sim.inject(
            ids[0],
            ids[2],
            SacMsg::Begin { round: 2 },
            SimDuration::from_millis(20),
        );
        sim.inject(
            ids[0],
            ids[3],
            SacMsg::Begin { round: 1 },
            SimDuration::from_millis(25),
        );
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, vec![0, 1, 2, 3, 4]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 3, 4])) < 1e-9);
        assert_eq!(sim.actor::<SacPeerActor>(ids[3]).round, 2);
    }

    #[test]
    fn stale_round_messages_are_ignored() {
        let (mut sim, ids, _) = build(3, 2, 4, 21);
        start(&mut sim, ids[0], 3);
        // A stray share from an old round must not pollute round 3.
        sim.inject(
            ids[1],
            ids[0],
            SacMsg::Subtotal {
                round: 2,
                idx: 0,
                value: WeightVector::zeros(4),
            },
            SimDuration::from_millis(1),
        );
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done);
        assert_eq!(leader.round, 3);
    }

    #[test]
    fn share_traffic_dominates_ledger() {
        let (mut sim, ids, models) = build(5, 3, 64, 33);
        let wire = models[0].wire_bytes();
        start(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        let m = sim.metrics();
        // Share phase: n(n-1) block messages of (n-k+1)|w| each (+8B header).
        let share = m.kind("sac.share");
        assert_eq!(share.msgs, 20);
        assert_eq!(share.bytes, 20 * (3 * wire + 8));
        // Subtotal phase: primary owners outside the leader's block.
        let sub = m.kind("sac.subtotal");
        assert_eq!(sub.msgs, 2); // k-1 = 2
    }

    #[test]
    fn supervised_unrecoverable_degrades_and_completes() {
        // Same scenario as `unrecoverable_when_all_holders_die` (k = n, so
        // a post-share crash kills the only holder of one partition), but
        // with the supervisor enabled: instead of a terminal failure the
        // leader aborts, evicts the unresponsive holder, and retries with
        // n' = 3 survivors and k' = min(4, 3) = 3 — the exact n' = k edge.
        let (mut sim, ids, models) = build_supervised(4, 4, 4, 13, SimDuration::from_millis(600));
        start(&mut sim, ids[0], 1);
        sim.schedule_crash(ids[2], SimTime::from_millis(40));
        sim.run_until(SimTime::from_secs(5));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.aborts, 1);
        assert_eq!(leader.round, 2, "retry must use a fresh round number");
        assert_eq!(leader.sac_config().group, vec![ids[0], ids[1], ids[3]]);
        assert_eq!(leader.sac_config().k, 3, "k' = min(k, n') at n' = k");
        assert_eq!(leader.contributors, vec![0, 1, 2]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 3])) < 1e-9);
    }

    #[test]
    fn supervised_refuses_below_two_members() {
        // Everyone but the leader dies before sharing: no retry roster of
        // size >= 2 exists, so the supervisor degrades to a refusal rather
        // than looping.
        let (mut sim, ids, _) = build_supervised(3, 3, 4, 17, SimDuration::from_millis(600));
        sim.run_until_quiet(100);
        let t = sim.now() + SimDuration::from_millis(1);
        sim.schedule_crash(ids[1], t);
        sim.schedule_crash(ids[2], t);
        sim.run_until_quiet(100);
        sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(5));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert!(
            matches!(&leader.phase, SacPhase::Failed(r) if r.contains("no contributors")
                || r.contains("below 2 members")),
            "phase: {:?}",
            leader.phase
        );
    }

    #[test]
    fn abort_after_late_share_block_is_idempotent() {
        let ids: Vec<NodeId> = (0..3).map(|i| NodeId(i as u32)).collect();
        let cfg = SacConfig {
            group: ids.clone(),
            position: 2,
            leader_pos: 0,
            k: 2,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Pairwise,
            share_deadline: SimDuration::from_secs(1),
            collect_deadline: SimDuration::from_secs(1),
            round_deadline: Some(SimDuration::from_secs(10)),
            seed: 99,
        };
        let mut actor = SacPeerActor::new(cfg, WeightVector::new(vec![1.0, 2.0]));
        let mut net = StubNet {
            id: ids[2],
            sent: Vec::new(),
        };
        actor.on_message(&mut net, ids[0], SacMsg::Begin { round: 1 });
        assert_eq!(actor.phase, SacPhase::Sharing);
        let block = SacMsg::ShareBlock {
            round: 1,
            from_pos: 1,
            parts: vec![(0, WeightVector::new(vec![0.5, 0.5]))],
        };
        actor.on_message(&mut net, ids[1], block.clone());
        assert!(actor.blocks.contains_key(&1));
        actor.on_message(
            &mut net,
            ids[0],
            SacMsg::Abort {
                round: 1,
                reason: "test".into(),
            },
        );
        assert_eq!(actor.phase, SacPhase::Idle);
        assert!(actor.blocks.is_empty(), "abort must drop all mask material");
        assert_eq!(actor.aborts, 1);

        // A late ShareBlock for the aborted round must not resurrect it.
        actor.on_message(&mut net, ids[0], block);
        assert!(actor.blocks.is_empty(), "late block after abort ignored");
        // A duplicate Abort is a no-op.
        actor.on_message(
            &mut net,
            ids[0],
            SacMsg::Abort {
                round: 1,
                reason: "dup".into(),
            },
        );
        assert_eq!(actor.aborts, 1, "duplicate abort must not double-count");
        // A re-delivered Begin for the aborted round must not redistribute
        // shares (single-randomization rule).
        let sends_before = net.sent.len();
        actor.on_message(&mut net, ids[0], SacMsg::Begin { round: 1 });
        assert_eq!(actor.phase, SacPhase::Idle);
        assert_eq!(net.sent.len(), sends_before, "no re-randomized shares");

        // The retry Reconfigure restarts cleanly under the new roster.
        actor.on_message(
            &mut net,
            ids[0],
            SacMsg::Reconfigure {
                round: 2,
                group: vec![ids[0], ids[2]],
                k: 2,
            },
        );
        assert_eq!(actor.round, 2);
        assert_eq!(actor.phase, SacPhase::Sharing);
        assert_eq!(actor.sac_config().position, 1);
        assert_eq!(actor.sac_config().k, 2);
        assert!(
            net.sent.len() > sends_before,
            "retry must distribute fresh shares"
        );
    }

    #[test]
    fn reconfigure_excluding_this_peer_is_ignored() {
        let ids: Vec<NodeId> = (0..3).map(|i| NodeId(i as u32)).collect();
        let cfg = SacConfig {
            group: ids.clone(),
            position: 1,
            leader_pos: 0,
            k: 2,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Pairwise,
            share_deadline: SimDuration::from_secs(1),
            collect_deadline: SimDuration::from_secs(1),
            round_deadline: None,
            seed: 5,
        };
        let mut actor = SacPeerActor::new(cfg, WeightVector::new(vec![1.0]));
        let mut net = StubNet {
            id: ids[1],
            sent: Vec::new(),
        };
        actor.on_message(
            &mut net,
            ids[0],
            SacMsg::Reconfigure {
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
        let ids: Vec<NodeId> = (0..3).map(|i| NodeId(i as u32)).collect();
        let cfg = SacConfig {
            group: ids.clone(),
            position: 1,
            leader_pos: 0,
            k: 2,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Pairwise,
            share_deadline: SimDuration::from_secs(1),
            collect_deadline: SimDuration::from_secs(1),
            round_deadline: Some(SimDuration::from_secs(2)),
            seed: 6,
        };
        let mut actor = SacPeerActor::new(cfg, WeightVector::new(vec![1.0]));
        let mut net = StubNet {
            id: ids[1],
            sent: Vec::new(),
        };
        actor.on_message(&mut net, ids[0], SacMsg::Begin { round: 1 });
        assert_eq!(actor.phase, SacPhase::Sharing);
        // Deadline for a *different* round is ignored.
        actor.on_timer(&mut net, timer_tag(TIMER_ROUND_DEADLINE, 7));
        assert_eq!(actor.phase, SacPhase::Sharing);
        // Deadline for the open round retires it: the leader never froze
        // the contributor set, so this counts as an abandonment.
        actor.on_timer(&mut net, timer_tag(TIMER_ROUND_DEADLINE, 1));
        assert_eq!(actor.phase, SacPhase::Idle);
        assert_eq!(actor.abandoned, 1);
        assert!(actor.blocks.is_empty());
        // A late recovery request for the retired round is not served.
        let sends = net.sent.len();
        actor.on_message(
            &mut net,
            ids[0],
            SacMsg::SubtotalRequest { round: 1, idx: 1 },
        );
        assert_eq!(net.sent.len(), sends);
        assert!(actor.pending_requests.is_empty());
    }

    #[test]
    fn skewed_shares_are_rejected_and_sender_evicted_from_round() {
        // Peer 3 commits to honest digests but sends shares scaled by 0.5
        // (the commit-then-skew attack). Every receiver's digest check must
        // reject its blocks, so the round completes over the honest four —
        // and the leader's average is the honest mean, not a poisoned one.
        let (mut sim, ids, models) = build(5, 3, 8, 51);
        sim.run_until_quiet(100);
        sim.exec::<SacPeerActor, _, _>(ids[3], |a, _| a.byz_share_skew = Some(0.5));
        sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(2));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, vec![0, 1, 2, 4], "skewer excluded");
        assert!(leader.shares_rejected >= 1);
        assert!(leader.byzantine_detected.contains(&3));
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &[0, 1, 2, 4])) < 1e-9);
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
        let (mut sim, ids, models) = build(5, 3, 8, 51);
        sim.run_until_quiet(100);
        for &id in &ids {
            sim.exec::<SacPeerActor, _, _>(id, |a, _| a.verify_commitments = false);
        }
        sim.exec::<SacPeerActor, _, _>(ids[3], |a, _| a.byz_share_skew = Some(0.5));
        sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(SimTime::from_secs(2));
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

    #[test]
    fn stash_eviction_is_counted_not_silent() {
        let ids: Vec<NodeId> = (0..3).map(|i| NodeId(i as u32)).collect();
        let cfg = SacConfig {
            group: ids.clone(),
            position: 2,
            leader_pos: 0,
            k: 3,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Pairwise,
            share_deadline: SimDuration::from_secs(1),
            collect_deadline: SimDuration::from_secs(1),
            round_deadline: None,
            seed: 77,
        };
        let mut actor = SacPeerActor::new(cfg, WeightVector::new(vec![1.0, 2.0]));
        let mut net = StubNet {
            id: ids[2],
            sent: Vec::new(),
        };
        // 4n = 12 messages fill the stash; everything beyond is evicted
        // and counted.
        for _ in 0..20 {
            actor.on_message(
                &mut net,
                ids[1],
                SacMsg::SubtotalRequest { round: 1, idx: 0 },
            );
        }
        assert_eq!(actor.future.len(), 12);
        assert_eq!(actor.stash_evicted, 8);
    }
}
