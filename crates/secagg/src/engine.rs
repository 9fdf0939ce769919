//! The supervised round core: the paper's fault-tolerant SAC (Alg. 4) as
//! real message exchange between actors, once, for every share layout.
//!
//! [`crate::reference_round`] executes the protocol synchronously over
//! the same [`Wire`] layout; [`RoundCore`] runs it over a
//! [`Transport`] with crash detection by timeout and recovery from
//! replica holders — the form deployed inside each subgroup. One
//! aggregation round, leader-driven:
//!
//! 1. every peer divides its model into `m` additive shares (`m` = size
//!    of its successor stage in the [`RingPlan`]) and sends each member of
//!    that stage its replicated block;
//! 2. when the leader has heard from everyone — or its share deadline
//!    expires — it freezes the contributor set and broadcasts
//!    `ComputeOver`;
//! 3. the leader totals every partition it holds over that set; each
//!    follower totals only the partition it is *primary owner* of (unless
//!    the leader holds it too) and sends that total to the leader, keeping
//!    no copy;
//! 4. after a collection deadline the leader requests missing totals from
//!    alternate replica holders, which total on demand and respond with
//!    the recovered total;
//! 5. with the whole grid of `n` totals the leader averages and completes.
//!
//! The `ComputeOver` control broadcast has no counterpart in the paper's
//! pseudo-code (which assumes a synchronous view of who contributed); it is
//! required for consistency once peers can crash mid-protocol, and is
//! counted in its own ledger phase as a small control message.
//!
//! Around those five steps sits the supervision contract, also owned here
//! and nowhere else: round-tagged deadlines, the bounded next-round stash,
//! `Abort` plus one degraded retry with `k' = min(k, n')` (refusing below
//! two members), follower abandonment, roster reconfiguration and
//! re-keying, and the sender-binding gate.
//!
//! Both deployed engines speak one message enum, [`SacMsg`]. What differs
//! between them is confined to a [`Wire`] adaptor each — [`PairwiseWire`]
//! (paper Alg. 4, all-to-all) and [`crate::ring::RingWire`] (staged
//! ring): the layout, whether contributors commit to their shares, and
//! how the leader learns who contributed.

mod pairwise;
mod sim;

pub use pairwise::PairwiseWire;
pub use sim::{drive_round, sim_group, RoundOutcome};

use crate::divide::{divide, ShareScheme};
use crate::ring::plan::RingPlan;
use crate::weights::WeightVector;
use p2pfl_simnet::codec::Pool;
use p2pfl_simnet::{Actor, NodeId, Payload, SimDuration, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::sync::Arc;

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

/// Where the engine is in the round.
#[derive(Debug, Clone, PartialEq)]
pub enum SacPhase {
    /// Waiting for `Begin` (followers) or `start_round` (leader).
    Idle,
    /// Shares sent; collecting blocks.
    Sharing,
    /// Contributor set frozen; collecting totals (leader only).
    Collecting,
    /// Round finished; `result` holds the average (leader only).
    Done,
    /// Round failed.
    Failed(String),
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
    /// Leader grace period for total collection before recovery kicks in.
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

/// Messages exchanged by the round core on both share plans (paper
/// Alg. 4's vocabulary). Positions are subgroup positions. A subtotal is
/// named by Alg. 4's index: the position of the partition's primary owner
/// (lines 14-16), which on the staged layout is the receiving-stage member
/// whose stage-local index is the partition's. The variant order is the
/// wire format: a new variant goes last.
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
    /// precedes the block it covers). Sent only where [`Wire::COMMITS`].
    Commit {
        /// Round number.
        round: u64,
        /// Sender's position within the subgroup.
        from_pos: usize,
        /// Per-partition digests, indexed by partition.
        digests: Vec<u64>,
    },
    /// A contributor's replicated block for one member of its successor
    /// stage: `(stage-local partition index, partition)` pairs. Every
    /// holder of a partition is sent the one immutable copy its sender
    /// made; the codec ships the vector itself.
    ShareBlock {
        /// Round number.
        round: u64,
        /// Sender's position within the subgroup.
        from_pos: usize,
        /// The consecutive partitions assigned to the receiver.
        parts: Vec<(usize, Arc<WeightVector>)>,
    },
    /// Leader freezes the contributor set.
    ComputeOver {
        /// Round number.
        round: u64,
        /// Positions whose models are included this round.
        contributors: Vec<usize>,
    },
    /// Subtotal `idx`: one partition's sum over the frozen contributors.
    Subtotal {
        /// Round number.
        round: u64,
        /// Subtotal index (position of the partition's primary owner).
        idx: usize,
        /// The subtotal vector.
        value: WeightVector,
    },
    /// Leader asks a replica holder for missing subtotal `idx`.
    SubtotalRequest {
        /// Round number.
        round: u64,
        /// Subtotal index to recover.
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
    /// the receiver recomputes its position in `group`, adopts `k`,
    /// re-derives the layout and begins `round` as if a fresh `Begin` had
    /// arrived. Peers absent from `group` have been evicted for this round
    /// and simply ignore it.
    Reconfigure {
        /// The retry round (always a fresh round number).
        round: u64,
        /// Surviving subgroup members, in position order.
        group: Vec<NodeId>,
        /// Recomputed threshold `k' = min(k, n')`.
        k: usize,
    },
    /// A peer tells the leader its shares are distributed. Sent only where
    /// [`Wire::ANNOUNCES`]: on the staged layout the leader never sees
    /// most shares, so contributor freezing is driven by these
    /// announcements instead of received blocks.
    Shared {
        /// Round number.
        round: u64,
        /// Announcer's position.
        from_pos: usize,
    },
}

impl SacMsg {
    /// The round a message belongs to, for the next-round stash and the
    /// aborted-round discard. `Begin` and `Reconfigure` advance the round
    /// themselves, so they are never stashed.
    fn stash_round(&self) -> Option<u64> {
        match self {
            SacMsg::Begin { .. } | SacMsg::Reconfigure { .. } => None,
            SacMsg::Commit { round, .. }
            | SacMsg::ShareBlock { round, .. }
            | SacMsg::Shared { round, .. }
            | SacMsg::ComputeOver { round, .. }
            | SacMsg::Subtotal { round, .. }
            | SacMsg::SubtotalRequest { round, .. }
            | SacMsg::Abort { round, .. } => Some(*round),
        }
    }
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
            SacMsg::Shared { .. } => 16,
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
            SacMsg::Shared { .. } => "sac.shared",
        }
    }

    fn recycle(self, vectors: &mut Pool<f64>) {
        match self {
            SacMsg::ShareBlock { parts, .. } => {
                for (_, part) in parts {
                    if let Some(v) = Arc::into_inner(part) {
                        vectors.give(v.into_inner());
                    }
                }
            }
            SacMsg::Subtotal { value, .. } => vectors.give(value.into_inner()),
            _ => {}
        }
    }
}

/// What one engine supplies to the round core: its share layout and the
/// two properties of its protocol the core branches on. An adaptor holds
/// no state and makes no protocol decision — it never sees a transport, a
/// timer or a phase.
pub trait Wire: 'static {
    /// Whether contributors broadcast digest commitments before sharing,
    /// which every receiver then checks its blocks against.
    const COMMITS: bool;

    /// Whether the leader learns who contributed from `Shared`
    /// announcements (it never sees most shares) rather than from the
    /// blocks it received itself.
    const ANNOUNCES: bool;

    /// The share layout for `n` members with threshold `k`.
    fn layout(n: usize, k: usize) -> RingPlan;
}

/// The mask-stream domain of the member at `position` under `seed`: a
/// core seeds its share RNG with it, and [`crate::reference_round`] draws
/// member `position`'s shares from the same stream.
pub(crate) fn mask_domain(seed: u64, position: usize) -> u64 {
    seed ^ (position as u64) << 32
}

/// A subgroup member executing pairwise fault-tolerant SAC (paper Alg. 4).
pub type SacPeerActor = RoundCore<PairwiseWire>;

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

/// A vector of dimension `dim` from the host's pool, holding whatever it
/// last held: every caller writes over all of it.
fn draw(ctx: &mut dyn Transport<SacMsg>, dim: usize) -> WeightVector {
    let mut storage = ctx.take_f64(dim);
    storage.resize(dim, 0.0);
    WeightVector::new(storage)
}

/// A subgroup member executing one supervised secure-aggregation round
/// after another over wire protocol `W`.
pub struct RoundCore<W: Wire> {
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
    /// Messages refused at a gate: not from the peer entitled to send
    /// them, outside the roster/grid/model shape, or a share block that
    /// disagreed with its sender's own commitment.
    pub shares_rejected: u64,
    /// Peers convicted of sending malformed shares or shares inconsistent
    /// with their commitments (cumulative across rounds and rosters: kept
    /// by identity, so a degraded retry's renumbering cannot move a
    /// conviction onto an honest member; the round supervisor reads this
    /// to drive roster evictions). Only a message bound to its sender can
    /// convict.
    pub byzantine_detected: BTreeSet<NodeId>,
    // commitments[from_pos] = per-partition digests for the current round
    commitments: BTreeMap<usize, Vec<u64>>,
    // blocks[from_pos][idx] = share of partition idx from the
    // predecessor-stage contributor at position from_pos
    blocks: BTreeMap<usize, BTreeMap<usize, Arc<WeightVector>>>,
    // Leader, announcing wires: positions that announced `Shared` this
    // round (self included).
    announced: BTreeSet<usize>,
    frozen: Option<BTreeSet<usize>>,
    // totals[(stage, idx)]: leader only — its own-block totals plus
    // everything collected via `Subtotal`. A follower keeps none: it totals
    // its primary once and sends it, and a recovery request on demand.
    totals: BTreeMap<(usize, usize), WeightVector>,
    requested: BTreeSet<(usize, usize)>,
    sent_primary: bool,
    // Recovery requests from the leader waiting on missing blocks.
    pending_requests: Vec<(usize, usize)>,
    // Messages that arrived for the *next* round before this peer's
    // `Begin` did. Real transports order frames per connection only, so a
    // fast peer's share for round r+1 can beat the leader's
    // `Begin { r+1 }`; dropping it would stall the round into recovery
    // (or unrecoverability). Stashed here and replayed after the round
    // advances. Bounded to one message burst per peer.
    future: Vec<(NodeId, SacMsg)>,
    // The most recently aborted round: messages addressed to it are dead
    // on arrival (its mask material was discarded; a late share must not
    // resurrect partial state), and a re-delivered `Begin` for it must
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
    wire: PhantomData<fn() -> W>,
}

impl<W: Wire> RoundCore<W> {
    /// Creates an idle engine participant holding `model`.
    pub fn new(cfg: SacConfig, model: WeightVector) -> Self {
        assert!(cfg.position < cfg.n(), "position out of range");
        assert!(cfg.leader_pos < cfg.n(), "leader position out of range");
        assert!(cfg.k >= 1 && cfg.k <= cfg.n(), "invalid threshold");
        let plan = W::layout(cfg.n(), cfg.k);
        let domain = mask_domain(cfg.seed, cfg.position);
        let rng = StdRng::seed_from_u64(domain);
        RoundCore {
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
            verify_commitments: true,
            byz_share_skew: None,
            shares_rejected: 0,
            byzantine_detected: BTreeSet::new(),
            commitments: BTreeMap::new(),
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
            mask_keys: vec![domain],
            wire: PhantomData,
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

    /// The share layout this participant derived from `(n, k)`.
    pub fn plan(&self) -> &RingPlan {
        &self.plan
    }

    /// The local model being aggregated this round.
    pub fn model(&self) -> &WeightVector {
        &self.model
    }

    /// Every share partition held locally: `blocks[from_pos][idx]`.
    pub fn held_blocks(&self) -> &BTreeMap<usize, BTreeMap<usize, Arc<WeightVector>>> {
        &self.blocks
    }

    /// The frozen contributor set, once decided.
    pub fn frozen_set(&self) -> Option<&BTreeSet<usize>> {
        self.frozen.as_ref()
    }

    /// Totals held locally (`(stage, idx) -> value`): on the leader the
    /// per-partition sums over the frozen set, its own and collected;
    /// always empty on a follower, which totals on demand and keeps none.
    pub fn held_totals(&self) -> &BTreeMap<(usize, usize), WeightVector> {
        &self.totals
    }

    /// The mask-stream domains this engine has drawn from, in adoption
    /// order (construction seed first, then one entry per re-key).
    pub fn mask_keys(&self) -> &[u64] {
        &self.mask_keys
    }

    /// Leader entry point: begins round `round`, instructing followers and
    /// distributing this peer's own shares.
    pub fn start_round(&mut self, ctx: &mut dyn Transport<SacMsg>, round: u64) {
        assert!(self.cfg.is_leader(), "only the leader starts rounds");
        self.retried = false;
        self.send_to_peers(ctx, SacMsg::Begin { round });
        self.enter_round(ctx, round);
    }

    /// Adopts a new roster mid-life (after a supervised abort or a
    /// membership change replicated by the layer above): recomputes this
    /// peer's position, moves the leadership to `leader`, adopts `k`,
    /// re-derives the layout and discards all state of the current round.
    /// The caller starts the next round (with a fresh round number)
    /// afterwards. Returns whether the roster was adopted.
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
        self.plan = W::layout(group.len(), k);
        self.cfg.group = group;
        self.cfg.position = position;
        self.cfg.leader_pos = leader_pos;
        self.cfg.k = k;
        self.reset_for(self.round);
        true
    }

    /// Adopts a new roster *and* a fresh mask domain — the elastic
    /// split/merge re-key. Beyond [`RoundCore::reconfigure`], the RNG
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
        let domain = mask_domain(self.cfg.seed ^ roster_key, self.cfg.position);
        self.rng = StdRng::seed_from_u64(domain);
        self.mask_keys.push(domain);
        true
    }

    fn me(&self) -> NodeId {
        self.cfg.group[self.cfg.position]
    }

    fn leader(&self) -> NodeId {
        self.cfg.group[self.cfg.leader_pos]
    }

    /// Serves the leader total `(stage, idx)` of this peer's own stage, if
    /// it is computable yet.
    fn send_total(&mut self, ctx: &mut dyn Transport<SacMsg>, stage: usize, idx: usize) -> bool {
        let Some(value) = self.total_over_frozen(ctx, idx) else {
            return false;
        };
        let total = SacMsg::Subtotal {
            round: self.round,
            idx: self.plan.global_pos(stage, idx),
            value,
        };
        ctx.send(self.leader(), total);
        true
    }

    /// Sends `msg` to every other member, in position order.
    fn send_to_peers(&self, ctx: &mut dyn Transport<SacMsg>, msg: SacMsg) {
        let me = self.me();
        for &peer in &self.cfg.group {
            if peer != me {
                ctx.send(peer, msg.clone());
            }
        }
    }

    /// Ends the round in progress and opens `round`'s bookkeeping. The
    /// old round's vectors are dropped; [`Self::enter_round`] gives them
    /// back to the host first.
    fn reset_for(&mut self, round: u64) {
        self.totals.clear();
        self.result = None;
        self.blocks.clear();
        self.round = round;
        self.phase = SacPhase::Idle;
        self.contributors.clear();
        self.recoveries = 0;
        self.commitments.clear();
        self.announced.clear();
        self.frozen = None;
        self.requested.clear();
        self.sent_primary = false;
        self.pending_requests.clear();
    }

    /// Opens `round` on this peer: shares go out, deadlines are armed,
    /// and whatever arrived early for the round is replayed.
    fn enter_round(&mut self, ctx: &mut dyn Transport<SacMsg>, round: u64) {
        // The old round's vectors go back to the host: totals and average
        // outright, blocks where this core holds the last reference.
        let owned = std::mem::take(&mut self.totals)
            .into_values()
            .chain(self.result.take());
        let shared = std::mem::take(&mut self.blocks)
            .into_values()
            .flat_map(BTreeMap::into_values)
            .filter_map(Arc::into_inner);
        for v in owned.chain(shared) {
            ctx.give_f64(v.into_inner());
        }
        self.reset_for(round);
        self.distribute_shares(ctx);
        if self.cfg.is_leader() {
            ctx.set_timer(
                self.cfg.share_deadline,
                timer_tag(TIMER_SHARE_DEADLINE, round),
            );
        }
        if let Some(d) = self.cfg.round_deadline {
            ctx.set_timer(d, timer_tag(TIMER_ROUND_DEADLINE, round));
        }
        self.phase = SacPhase::Sharing;
        self.maybe_freeze(ctx); // a roster of one has nobody to wait for
        self.replay_future(ctx);
    }

    /// Re-dispatches stashed next-round messages now that the round has
    /// advanced; anything not matching the current round, or no longer
    /// from a peer entitled to send it under the roster now in force, is
    /// filtered out by [`RoundCore::dispatch`].
    fn replay_future(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        for (from, msg) in std::mem::take(&mut self.future) {
            self.dispatch(ctx, from, msg);
        }
    }

    /// Splits the model into `m` shares (`m` = successor-stage size), in
    /// storage drawn from the host, and sends each successor-stage member
    /// its replicated block. Every holder of a partition shares its one
    /// copy, and the last to let go of it gives it back.
    fn distribute_shares(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let (round, pos) = (self.round, self.cfg.position);
        let s = self.plan.succ_stage(self.plan.stage_of(pos));
        let m = self.plan.stage_len(s);
        let dim = self.model.dim();
        let mut parts: Vec<WeightVector> = (0..m).map(|_| draw(ctx, dim)).collect();
        divide(&self.model, self.cfg.scheme, &mut self.rng, &mut parts);
        #[cfg(feature = "mutants")]
        if crate::mutants::active(crate::mutants::Mutant::ShareSkew) {
            if let Some(p0) = parts.get_mut(0) {
                p0.scale(0.5);
            }
        }
        if W::COMMITS {
            // Commit to the partition digests before sending any shares.
            // Links are FIFO, so every receiver sees the commitment before
            // the block it covers. A Byzantine peer injected with
            // `byz_share_skew` still commits honestly here and skews only
            // what it sends below — which is exactly what the receivers'
            // digest check convicts.
            let digests = parts.iter().map(|p| p.digest()).collect();
            let commit = SacMsg::Commit {
                round,
                from_pos: pos,
                digests,
            };
            self.send_to_peers(ctx, commit);
        }
        let parts: Vec<Arc<WeightVector>> = parts.into_iter().map(Arc::new).collect();
        for i in 0..m {
            let gpos = self.plan.global_pos(s, i);
            let mut block: Vec<(usize, Arc<WeightVector>)> = self
                .plan
                .assigned(s, i)
                .into_iter()
                .map(|p| (p, Arc::clone(&parts[p])))
                .collect();
            if gpos == pos {
                // One-stage layout: keep our own block locally.
                self.blocks.entry(pos).or_default().extend(block);
                continue;
            }
            if let Some(factor) = self.byz_share_skew {
                // Copy on write: this peer and the part's other holders
                // share it, so only this block's copy is skewed, and this
                // peer's own block stays the one it committed to.
                for (_, v) in &mut block {
                    Arc::make_mut(v).scale(factor);
                }
            }
            let share = SacMsg::ShareBlock {
                round,
                from_pos: pos,
                parts: block,
            };
            ctx.send(self.cfg.group[gpos], share);
        }
        // A part that no block or queued frame holds any more goes back.
        for part in parts.into_iter().filter_map(Arc::into_inner) {
            ctx.give_f64(part.into_inner());
        }
        if W::ANNOUNCES {
            if self.cfg.is_leader() {
                self.announced.insert(pos);
            } else {
                let shared = SacMsg::Shared {
                    round,
                    from_pos: pos,
                };
                ctx.send(self.leader(), shared);
            }
        }
    }

    /// Leader: whether position `p` is known to have shared this round.
    fn heard(&self, p: usize) -> bool {
        if W::ANNOUNCES {
            self.announced.contains(&p)
        } else {
            self.blocks.contains_key(&p)
        }
    }

    /// Leader: the positions not heard from — whom a dead end suspects.
    fn unheard(&self) -> BTreeSet<usize> {
        (0..self.cfg.n()).filter(|&p| !self.heard(p)).collect()
    }

    /// Leader: freeze as soon as every member is settled. Convicted
    /// senders will never be heard from again this round; counting them
    /// lets the leader freeze as soon as every *honest* member is in
    /// instead of burning the share deadline.
    fn maybe_freeze(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let n = self.cfg.n();
        if self.cfg.is_leader()
            && self.phase == SacPhase::Sharing
            && (0..n).all(|p| self.heard(p) || self.byzantine_detected.contains(&self.cfg.group[p]))
        {
            self.freeze(ctx);
        }
    }

    /// A dead end on the leader: supervised rounds abort and retry without
    /// `suspects`; unsupervised rounds fail.
    fn dead_end(
        &mut self,
        ctx: &mut dyn Transport<SacMsg>,
        suspects: &BTreeSet<usize>,
        reason: &str,
        detail: &str,
    ) {
        if self.cfg.round_deadline.is_some() {
            self.supervise(ctx, suspects, reason);
        } else {
            self.phase = SacPhase::Failed(format!("{reason}{detail}"));
        }
    }

    fn freeze(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let absent = self.unheard();
        let contributors: BTreeSet<usize> =
            (0..self.cfg.n()).filter(|p| !absent.contains(p)).collect();
        if contributors.is_empty() {
            self.phase = SacPhase::Failed("no contributors".into());
            return;
        }
        if contributors.len() < self.cfg.k {
            // Freezing below the threshold would publish an average the
            // round's `k` policy does not sanction (a retry round can get
            // here when its `Reconfigure` reaches the survivors after the
            // new share deadline).
            let detail = format!(" ({} < {})", contributors.len(), self.cfg.k);
            self.dead_end(ctx, &absent, "fewer than k contributors at freeze", &detail);
            return;
        }
        if let Some(stage) = self
            .plan
            .lone_contributor_stage(|p| contributors.contains(&p))
        {
            // A stage frozen down to one contributor would make that
            // stage's totals sum to the lone peer's individual model,
            // shrinking the anonymity set from "contributors" to
            // "contributors per stage". Supervised rounds retry on the
            // contributor roster (the re-derived plan re-chunks the
            // stages, restoring balance); unsupervised rounds fail rather
            // than disclose. Never fires on a one-stage layout.
            self.dead_end(
                ctx,
                &absent,
                &format!("stage {stage} frozen to a single contributor"),
                " (per-stage anonymity set below 2)",
            );
            return;
        }
        let compute_over = SacMsg::ComputeOver {
            round: self.round,
            contributors: contributors.iter().copied().collect(),
        };
        self.frozen = Some(contributors);
        self.send_to_peers(ctx, compute_over);
        // Total our own block immediately (predecessor-stage blocks may
        // still be in flight; late arrivals re-trigger this).
        self.compute_own_totals(ctx);
        self.phase = SacPhase::Collecting;
        ctx.set_timer(
            self.cfg.collect_deadline,
            timer_tag(TIMER_COLLECT_DEADLINE, self.round),
        );
        self.maybe_finish(ctx);
    }

    /// Total of own-stage partition `p` over the frozen contributors of
    /// the predecessor stage, ascending by position; `None` while some
    /// contributor's block is missing locally. Zero contributors in the
    /// predecessor stage yield a zero vector — the leader still needs the
    /// total to close the sum. Every block is looked up before storage is
    /// drawn: `progress` asks again on each late share, and an incomplete
    /// total must cost nothing.
    fn total_over_frozen(
        &mut self,
        ctx: &mut dyn Transport<SacMsg>,
        p: usize,
    ) -> Option<WeightVector> {
        let frozen = self.frozen.as_ref()?;
        let pred = self.plan.pred_stage(self.plan.stage_of(self.cfg.position));
        let blocks = self
            .plan
            .members(pred)
            .filter(|c| frozen.contains(c))
            .map(|c| self.blocks.get(&c).and_then(|b| b.get(&p)));
        if !blocks.clone().all(|b| b.is_some()) {
            return None;
        }
        let mut total = draw(ctx, self.model.dim());
        total.sum_from_zero(blocks.flatten().map(|v| &**v));
        Some(total)
    }

    /// Leader: totals every own-stage partition it holds and has not
    /// totalled yet. Followers never call this; see [`Self::progress`].
    fn compute_own_totals(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let t = self.plan.stage_of(self.cfg.position);
        let i = self.plan.local_index(self.cfg.position);
        for p in self.plan.assigned(t, i) {
            if self.totals.contains_key(&(t, p)) {
                continue;
            }
            if let Some(v) = self.total_over_frozen(ctx, p) {
                self.totals.insert((t, p), v);
            }
        }
    }

    fn maybe_finish(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        if self.phase != SacPhase::Collecting {
            return;
        }
        if self.totals.len() < self.plan.total_partitions() {
            return;
        }
        let Some(frozen) = self.frozen.as_ref() else {
            return;
        };
        // Walk the grid explicitly so a spurious key can never substitute
        // for a missing total: the count alone does not prove every
        // partition is present.
        let Some(grid) = self
            .plan
            .grid()
            .map(|key| self.totals.get(&key))
            .collect::<Option<Vec<_>>>()
        else {
            return;
        };
        let mut avg = draw(ctx, self.model.dim());
        avg.sum_from_zero(grid.iter().copied());
        avg.scale(1.0 / frozen.len() as f64);
        self.contributors = frozen.iter().copied().collect();
        self.result = Some(avg);
        self.phase = SacPhase::Done;
    }

    /// Progress after a share block or `ComputeOver` arrives: the leader
    /// totals what it holds and tries to finish; a follower totals and
    /// sends its primary as soon as it is computable (share blocks can
    /// arrive *after* `ComputeOver` on slow links), and serves recovery
    /// requests that were waiting on missing blocks.
    fn progress(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        if self.frozen.is_none() {
            return;
        }
        if self.cfg.is_leader() {
            self.compute_own_totals(ctx);
            self.maybe_finish(ctx);
        } else if !self.sent_primary {
            // Primary-owner rule (paper lines 14-16): each peer owns the
            // total whose index is its own, and sends it unless the leader
            // computes that total itself.
            let stage = self.plan.stage_of(self.cfg.position);
            let idx = self.plan.local_index(self.cfg.position);
            if !self.plan.is_holder(self.cfg.leader_pos, stage, idx) {
                self.sent_primary = self.send_total(ctx, stage, idx);
            }
        }
        for (stage, idx) in std::mem::take(&mut self.pending_requests) {
            if !self.send_total(ctx, stage, idx) {
                self.pending_requests.push((stage, idx));
            }
        }
    }

    fn request_missing(&mut self, ctx: &mut dyn Transport<SacMsg>) {
        let missing: Vec<(usize, usize)> = self
            .plan
            .grid()
            .filter(|key| !self.totals.contains_key(key))
            .collect();
        if missing.is_empty() {
            return;
        }
        for &(t, p) in &missing {
            if self.requested.contains(&(t, p)) {
                // Second deadline with the request still unanswered: the
                // whole replica neighborhood is gone. Under supervision
                // the round aborts and retries without the unresponsive
                // holders; without it this is terminal.
                let suspects: BTreeSet<usize> = missing
                    .iter()
                    .filter(|key| self.requested.contains(key))
                    .flat_map(|&(qt, qp)| self.plan.holders_of(qt, qp))
                    .collect();
                let reason = format!("partition {} unrecoverable", self.plan.global_pos(t, p));
                self.dead_end(ctx, &suspects, &reason, "");
                return;
            }
            self.requested.insert((t, p));
            // Ask every alternate holder; first response wins, duplicates
            // are idempotent inserts.
            for g in self.plan.holders_of(t, p) {
                if g != self.cfg.position && self.plan.local_index(g) != p {
                    let request = SacMsg::SubtotalRequest {
                        round: self.round,
                        idx: self.plan.global_pos(t, p),
                    };
                    ctx.send(self.cfg.group[g], request);
                }
            }
            self.recoveries += 1;
        }
        ctx.set_timer(
            self.cfg.collect_deadline,
            timer_tag(TIMER_COLLECT_DEADLINE, self.round),
        );
    }

    /// Leader-side dead end: abort the round everywhere, then — unless the
    /// round was already a retry, or fewer than two members survive —
    /// restart with the surviving roster and `k' = min(k, n')`. The leader
    /// itself always survives.
    fn supervise(
        &mut self,
        ctx: &mut dyn Transport<SacMsg>,
        suspects: &BTreeSet<usize>,
        reason: &str,
    ) {
        let old_round = self.round;
        let me = self.me();
        let abort = SacMsg::Abort {
            round: old_round,
            reason: reason.to_string(),
        };
        self.send_to_peers(ctx, abort);
        self.aborted = Some(old_round);
        self.aborts += 1;
        let survivors: Vec<NodeId> = self
            .cfg
            .group
            .iter()
            .enumerate()
            .filter(|&(j, p)| {
                j == self.cfg.position
                    || !(suspects.contains(&j) || self.byzantine_detected.contains(p))
            })
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
        let reconfigure = SacMsg::Reconfigure {
            round: next,
            group: survivors,
            k,
        };
        self.send_to_peers(ctx, reconfigure);
        self.enter_round(ctx, next);
    }

    /// The sender-binding gate: whether `from` — the peer the transport
    /// authenticated as the sender — is entitled to send `msg` under
    /// the roster in force. Position-stamped messages must come from the
    /// member at that position (shares: one in the receiver's predecessor
    /// stage); control messages and subtotal requests only from the
    /// leader; subtotals go to the leader only, from a holder of that
    /// subtotal.
    fn authorised(&self, from: NodeId, msg: &SacMsg) -> bool {
        let cfg = &self.cfg;
        let is = |pos: usize| cfg.group.get(pos) == Some(&from);
        match msg {
            SacMsg::Begin { .. }
            | SacMsg::ComputeOver { .. }
            | SacMsg::SubtotalRequest { .. }
            | SacMsg::Abort { .. }
            | SacMsg::Reconfigure { .. } => is(cfg.leader_pos),
            SacMsg::Commit { from_pos, .. } => is(*from_pos),
            SacMsg::Shared { from_pos, .. } => cfg.is_leader() && is(*from_pos),
            SacMsg::ShareBlock { from_pos, .. } => {
                is(*from_pos)
                    && self.plan.stage_of(*from_pos)
                        == self.plan.pred_stage(self.plan.stage_of(cfg.position))
            }
            SacMsg::Subtotal { idx, .. } => {
                cfg.is_leader()
                    && cfg
                        .group
                        .iter()
                        .position(|&p| p == from)
                        .is_some_and(|pos| {
                            self.plan
                                .grid_key(*idx)
                                .is_some_and(|(t, p)| self.plan.is_holder(pos, t, p))
                        })
            }
        }
    }

    /// Same freshness rules for `Begin` and `Reconfigure`: never regress,
    /// never re-randomize a round in progress, never revive an aborted
    /// round. Share distribution draws fresh randomness, so it must run
    /// exactly once per round: a duplicated `Begin` for the round in
    /// progress would emit a *different* share set and break mask
    /// cancellation, and a stale one re-delivered from an earlier round
    /// would regress the actor.
    fn stale_opening(&self, round: u64) -> bool {
        round < self.round
            || (round == self.round && self.phase != SacPhase::Idle)
            || self.aborted == Some(round)
    }

    /// The one place a received message is judged: next-round stash,
    /// dead-round discard, sender binding, then the protocol step.
    fn dispatch(&mut self, ctx: &mut dyn Transport<SacMsg>, from: NodeId, msg: SacMsg) {
        if let Some(r) = msg.stash_round() {
            // Stash anything addressed to the round right after ours: our
            // `Begin` is still in flight on another connection. The stash
            // comes before the sender gate on purpose: the roster may
            // change with the round, so a stashed message is judged
            // against the roster in force when it is replayed. The bound
            // makes a hostile or deeply desynchronized peer a no-op, not a
            // memory leak — and evictions are counted, not silent.
            if r == self.round + 1 {
                if self.future.len() < 4 * self.cfg.n() {
                    self.future.push((from, msg));
                } else {
                    self.stash_evicted += 1;
                }
                return;
            }
            // Other rounds are stale, and messages for an aborted round
            // are dead on arrival: its mask material is gone, and a late
            // share (or a re-delivered Abort) must not resurrect partial
            // round state.
            if r != self.round || self.aborted == Some(r) {
                return;
            }
        }
        if !self.authorised(from, &msg) {
            self.shares_rejected += 1;
            return;
        }
        match msg {
            SacMsg::Begin { round } => {
                #[cfg(feature = "mutants")]
                let guard_disabled =
                    crate::mutants::active(crate::mutants::Mutant::BeginRerandomize);
                #[cfg(not(feature = "mutants"))]
                let guard_disabled = false;
                if guard_disabled || !self.stale_opening(round) {
                    self.enter_round(ctx, round);
                }
            }
            SacMsg::Commit {
                from_pos, digests, ..
            } => {
                self.commitments.insert(from_pos, digests);
            }
            SacMsg::ShareBlock {
                from_pos, parts, ..
            } => {
                // Shape gate: a block whose partition indices or
                // dimensions don't fit the receiver's grid row or the
                // model is Byzantine by construction. Reject it *before*
                // it can reach the total arithmetic, whose `add_assign`
                // panics on dimension mismatch.
                let dim = self.model.dim();
                let row = self.plan.stage_len(self.plan.stage_of(self.cfg.position));
                if parts.iter().any(|(p, v)| *p >= row || v.dim() != dim) {
                    self.shares_rejected += 1;
                    self.byzantine_detected.insert(self.cfg.group[from_pos]);
                    return;
                }
                // Commitment check: every partition in the block must hash
                // to the digest its sender committed to for this round. A
                // mismatch convicts the sender (the commitment and the
                // block both came from it, over the same FIFO link) and
                // rejects the whole block, turning the Byzantine sender
                // into an ordinary dropout. An absent commitment is *not*
                // a conviction: a peer that never committed simply
                // predates the check (mixed versions) — or speaks a wire
                // protocol without commitments — and is accepted.
                if self.verify_commitments {
                    if let Some(digests) = self.commitments.get(&from_pos) {
                        let consistent = parts
                            .iter()
                            .all(|(p, v)| digests.get(*p).is_some_and(|&d| d == v.digest()));
                        if !consistent {
                            self.shares_rejected += 1;
                            self.byzantine_detected.insert(self.cfg.group[from_pos]);
                            self.blocks.remove(&from_pos);
                            return;
                        }
                    }
                }
                self.blocks.entry(from_pos).or_default().extend(parts);
                self.maybe_freeze(ctx);
                self.progress(ctx);
            }
            SacMsg::Shared { from_pos, .. } => {
                // A late announcement after the freeze changes nothing.
                if self.phase == SacPhase::Sharing {
                    self.announced.insert(from_pos);
                    self.maybe_freeze(ctx);
                }
            }
            SacMsg::ComputeOver { contributors, .. } => {
                if self.frozen.is_some() {
                    return; // the set freezes once per round
                }
                let set: BTreeSet<usize> = contributors.into_iter().collect();
                if set.iter().any(|&c| c >= self.cfg.n())
                    || self
                        .plan
                        .lone_contributor_stage(|p| set.contains(&p))
                        .is_some()
                {
                    // A correct leader never freezes a set outside the
                    // roster, or one that isolates a contributor in a
                    // stage (see `freeze`); totalling the latter would
                    // hand a curious leader that peer's model. Refuse —
                    // the round ends via Abort or this follower's round
                    // deadline.
                    self.shares_rejected += 1;
                    return;
                }
                self.frozen = Some(set);
                self.progress(ctx);
            }
            SacMsg::Subtotal { idx, value, .. } => {
                // The gate admitted only a subtotal on the grid; a
                // wrong-dimension value must not enter the average.
                let Some(key) = self
                    .plan
                    .grid_key(idx)
                    .filter(|_| value.dim() == self.model.dim())
                else {
                    self.shares_rejected += 1;
                    return;
                };
                self.totals.entry(key).or_insert(value);
                self.maybe_finish(ctx);
            }
            SacMsg::SubtotalRequest { idx, .. } => {
                // Never servable means never queued: only a holder of
                // the partition can ever total it.
                let Some((stage, idx)) = self
                    .plan
                    .grid_key(idx)
                    .filter(|&(t, p)| self.plan.is_holder(self.cfg.position, t, p))
                else {
                    self.shares_rejected += 1;
                    return;
                };
                // Can't serve yet (missing blocks, or the contributor set
                // is not frozen here yet)? Answer when the pieces arrive.
                if !self.send_total(ctx, stage, idx) {
                    self.pending_requests.push((stage, idx));
                }
            }
            SacMsg::Abort { round, .. } => {
                self.reset_for(round);
                self.aborted = Some(round);
                self.aborts += 1;
            }
            SacMsg::Reconfigure { round, group, k } => {
                // A roster without this peer evicts it for the retry; it
                // sits the round out (the layer above re-admits it via
                // the join path). `reconfigure` refuses such a roster.
                if !self.stale_opening(round) && self.reconfigure(group, from, k) {
                    self.enter_round(ctx, round);
                }
            }
        }
    }
}

impl<W: Wire> Actor<SacMsg> for RoundCore<W> {
    fn on_message(&mut self, ctx: &mut dyn Transport<SacMsg>, from: NodeId, msg: SacMsg) {
        self.dispatch(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport<SacMsg>, tag: u64) {
        let (base, round) = (tag & 0xff, tag >> 8);
        if round != self.round {
            return; // armed for a round that has since ended or aborted
        }
        match base {
            TIMER_SHARE_DEADLINE if self.cfg.is_leader() && self.phase == SacPhase::Sharing => {
                self.freeze(ctx);
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
                        let suspects = self.unheard();
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

/// Shared harness for the engine tests here and beside each adaptor.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    pub(crate) use p2pfl_simnet::{Sim, SimTime, TimerId};

    pub(crate) fn ids(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    pub(crate) fn config(ids: &[NodeId], i: usize, k: usize, seed: u64) -> SacConfig {
        SacConfig {
            group: ids.to_vec(),
            position: i,
            leader_pos: 0,
            k,
            scheme: ShareScheme::Masked,
            // Informational here: the engine is chosen by the actor type.
            engine: SacEngine::default(),
            share_deadline: SimDuration::from_millis(100),
            collect_deadline: SimDuration::from_millis(100),
            round_deadline: None,
            seed,
        }
    }

    /// `n` engines on a simulator, `on_start` flushed; supervised when a
    /// round deadline is given.
    pub(crate) fn build<W: Wire>(
        n: usize,
        k: usize,
        dim: usize,
        seed: u64,
        round_deadline: Option<SimDuration>,
    ) -> (Sim<SacMsg>, Vec<NodeId>, Vec<WeightVector>) {
        let mut sim = Sim::new(seed);
        let ids = ids(n);
        let mut rng = StdRng::seed_from_u64(seed + 999);
        let models: Vec<WeightVector> = (0..n)
            .map(|_| WeightVector::random(dim, 1.0, &mut rng))
            .collect();
        for i in 0..n {
            let mut cfg = config(&ids, i, k, seed + i as u64);
            cfg.round_deadline = round_deadline;
            let actual = sim.add_node(RoundCore::<W>::new(cfg, models[i].clone()));
            assert_eq!(actual, ids[i]);
        }
        sim.run_until_quiet(100);
        (sim, ids, models)
    }

    pub(crate) fn start<W: Wire>(sim: &mut Sim<SacMsg>, leader: NodeId, round: u64) {
        sim.exec::<RoundCore<W>, _, _>(leader, |a, ctx| a.start_round(ctx, round));
    }

    pub(crate) fn plain_mean(models: &[WeightVector], idx: &[usize]) -> WeightVector {
        WeightVector::mean(idx.iter().map(|&i| &models[i]))
    }

    /// Asserts the leader finished over `contributors` with their mean.
    pub(crate) fn assert_done<W: Wire>(
        leader: &RoundCore<W>,
        models: &[WeightVector],
        contributors: &[usize],
    ) {
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.contributors, contributors);
        let avg = leader.result.as_ref().unwrap();
        let err = avg.linf_distance(&plain_mean(models, contributors));
        assert!(err < 1e-9, "error {err}");
    }

    /// Transport stub recording sends — for driving an actor directly with
    /// an adversarial message *order*, which the simulator cannot express
    /// (its per-link delivery never reorders a `Begin` behind a later
    /// cross-peer share deterministically).
    pub(crate) struct StubNet<M> {
        pub(crate) id: NodeId,
        pub(crate) sent: Vec<(NodeId, M)>,
    }

    impl<M: Payload> Transport<M> for StubNet<M> {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn send(&mut self, to: NodeId, msg: M) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: SimDuration, _tag: u64) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
    }

    /// A lone engine at `position` of `n` (leader 0) with a stub transport,
    /// fed messages as if they arrived from `from`.
    pub(crate) struct Solo<W: Wire> {
        pub(crate) actor: RoundCore<W>,
        pub(crate) net: StubNet<SacMsg>,
        pub(crate) ids: Vec<NodeId>,
    }

    impl<W: Wire> Solo<W> {
        pub(crate) fn new(n: usize, position: usize, k: usize, supervised: bool) -> Self {
            let ids = ids(n);
            let mut cfg = config(&ids, position, k, 77);
            cfg.share_deadline = SimDuration::from_secs(1);
            cfg.collect_deadline = SimDuration::from_secs(1);
            cfg.round_deadline = supervised.then_some(SimDuration::from_secs(10));
            Solo {
                actor: RoundCore::new(cfg, WeightVector::new(vec![1.0, 2.0])),
                net: StubNet {
                    id: ids[position],
                    sent: Vec::new(),
                },
                ids,
            }
        }

        pub(crate) fn deliver(&mut self, from: usize, msg: SacMsg) {
            self.actor.on_message(&mut self.net, self.ids[from], msg);
        }

        /// A share of partition 0 from `from`.
        pub(crate) fn share(round: u64, from: usize) -> SacMsg {
            SacMsg::ShareBlock {
                round,
                from_pos: from,
                parts: vec![(0, Arc::new(WeightVector::new(vec![0.5, 0.5])))],
            }
        }
    }
}

/// The supervision contract, checked once per share plan: every test
/// body below is generic over the [`Wire`] and instantiated for both.
#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    /// Generates one `#[test]` per listed body and share plan.
    macro_rules! per_plan {
        ($($body:ident),* $(,)?) => {
            mod pairwise {
                $(#[test] fn $body() { super::$body::<crate::PairwiseWire>(); })*
            }
            mod ring {
                $(#[test] fn $body() { super::$body::<crate::ring::RingWire>(); })*
            }
        };
    }

    per_plan!(
        rekey_reseeds_and_the_round_still_averages,
        rekey_history_stays_fresh_and_rejects_bad_rosters,
        happy_path_completes_with_plain_mean_across_sizes,
        after_share_crash_is_recovered,
        before_share_crash_is_excluded,
        unrecoverable_when_every_holder_dies,
        supervised_unrecoverable_degrades_and_completes,
        supervised_refuses_below_two_members,
        next_round_share_arriving_before_begin_is_replayed,
        stash_eviction_is_counted_not_silent,
        begin_aimed_at_leader_is_ignored,
        duplicate_and_stale_begins_are_ignored,
        stale_round_messages_are_ignored,
        abort_after_late_share_is_idempotent,
        reconfigure_excluding_this_peer_is_ignored,
        follower_round_deadline_abandons_unclosed_round,
        second_round_reuses_the_engine,
        bogus_total_cannot_complete_the_round,
        hostile_shapes_are_counted_and_bounded_by_the_grid,
        unservable_requests_are_never_queued,
        a_skewer_copies_on_write,
    );

    fn leader<W: Wire>(sim: &Sim<SacMsg>) -> &RoundCore<W> {
        sim.actor(NodeId(0))
    }

    fn rekey_reseeds_and_the_round_still_averages<W: Wire>() {
        // Re-keying every member onto the same roster must leave the
        // arithmetic intact: the fresh mask streams still cancel, so the
        // next round's result is exactly the plain mean.
        let (mut sim, ids, models) = build::<W>(5, 2, 8, 51, None);
        start::<W>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(leader::<W>(&sim).phase, SacPhase::Done);
        for (i, &id) in ids.iter().enumerate() {
            let a = sim.actor_mut::<RoundCore<W>>(id);
            assert!(a.rekey(ids.clone(), ids[0], 2, 0xe1a5_71c0 + i as u64));
        }
        start::<W>(&mut sim, ids[0], 2);
        sim.run_until(SimTime::from_secs(4));
        assert_done(leader::<W>(&sim), &models, &[0, 1, 2, 3, 4]);
    }

    fn rekey_history_stays_fresh_and_rejects_bad_rosters<W: Wire>() {
        let (mut sim, ids, _) = build::<W>(4, 2, 4, 52, None);
        let a = sim.actor_mut::<RoundCore<W>>(ids[1]);
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
        // A roster that drops this peer or its leader, or carries an
        // unsatisfiable threshold, is refused without touching the stream.
        assert!(!a.rekey(vec![ids[0], ids[2]], ids[0], 2, 9));
        assert!(!a.rekey(ids.clone(), NodeId(99), 2, 9));
        assert!(!a.rekey(ids.clone(), ids[0], 5, 9));
        assert_eq!(a.mask_keys(), &hist[..]);
    }

    fn happy_path_completes_with_plain_mean_across_sizes<W: Wire>() {
        // On the staged layout this covers L = 1 (all-to-all degenerate),
        // L = 2 and L = 4 rings.
        for (n, k) in [(3usize, 2usize), (4, 2), (5, 3), (6, 2), (8, 4), (16, 8)] {
            let (mut sim, ids, models) = build::<W>(n, k, 16, 42 + n as u64, None);
            start::<W>(&mut sim, ids[0], 1);
            sim.run_until(SimTime::from_secs(2));
            let all: Vec<usize> = (0..n).collect();
            assert_done(leader::<W>(&sim), &models, &all);
            assert_eq!(leader::<W>(&sim).recoveries, 0, "n={n}");
        }
    }

    /// A position other than the leader whose primary total the leader
    /// does not compute itself — crashing it after it shared forces a
    /// recovery (or, without replicas, a dead end).
    fn primary_owner<W: Wire>(n: usize, k: usize) -> usize {
        let plan = W::layout(n, k);
        (1..n)
            .rev()
            .find(|&p| !plan.is_holder(0, plan.stage_of(p), plan.local_index(p)))
            .expect("some total is not the leader's")
    }

    fn after_share_crash_is_recovered<W: Wire>() {
        // The victim shares, then dies before sending its primary total:
        // the leader recovers it from a replica holder, and the victim
        // still contributes.
        let (n, k) = if W::ANNOUNCES { (6, 2) } else { (5, 3) };
        let victim = primary_owner::<W>(n, k);
        let (mut sim, ids, models) = build::<W>(n, k, 8, 7, None);
        start::<W>(&mut sim, ids[0], 1);
        // Shares settle within ~2 link delays (30ms); crash after.
        sim.schedule_crash(ids[victim], sim.now() + SimDuration::from_millis(40));
        sim.run_until(SimTime::from_secs(2));
        let all: Vec<usize> = (0..n).collect();
        assert_done(leader::<W>(&sim), &models, &all);
        assert!(leader::<W>(&sim).recoveries >= 1);
    }

    fn before_share_crash_is_excluded<W: Wire>() {
        let (mut sim, ids, models) = build::<W>(6, 2, 8, 11, None);
        // Peer 3 dies before the round even starts.
        sim.schedule_crash(ids[3], sim.now() + SimDuration::from_millis(1));
        sim.run_until_quiet(100);
        start::<W>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(2));
        assert_done(leader::<W>(&sim), &models, &[0, 1, 2, 4, 5]);
    }

    fn unrecoverable_when_every_holder_dies<W: Wire>() {
        // k = n means no replication: one post-share crash outside the
        // leader's block is fatal without supervision.
        let victim = primary_owner::<W>(4, 4);
        let (mut sim, ids, _) = build::<W>(4, 4, 4, 13, None);
        start::<W>(&mut sim, ids[0], 1);
        sim.schedule_crash(ids[victim], sim.now() + SimDuration::from_millis(40));
        sim.run_until(SimTime::from_secs(3));
        let phase = &leader::<W>(&sim).phase;
        assert!(
            matches!(phase, SacPhase::Failed(r) if r.contains("unrecoverable")),
            "phase: {phase:?}"
        );
    }

    fn supervised_unrecoverable_degrades_and_completes<W: Wire>() {
        // Same dead end, but supervised: instead of a terminal failure the
        // leader aborts, evicts the unresponsive holder, and retries with
        // n' = 3 survivors and k' = min(4, 3) = 3 — the exact n' = k edge.
        let victim = primary_owner::<W>(4, 4);
        let deadline = Some(SimDuration::from_millis(600));
        let (mut sim, ids, models) = build::<W>(4, 4, 4, 13, deadline);
        start::<W>(&mut sim, ids[0], 1);
        sim.schedule_crash(ids[victim], sim.now() + SimDuration::from_millis(40));
        sim.run_until(SimTime::from_secs(5));
        let survivors: Vec<usize> = (0..4).filter(|&p| p != victim).collect();
        let leader = leader::<W>(&sim);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        assert_eq!(leader.aborts, 1);
        assert_eq!(leader.round, 2, "retry must use a fresh round number");
        let roster: Vec<NodeId> = survivors.iter().map(|&p| ids[p]).collect();
        assert_eq!(leader.sac_config().group, roster);
        assert_eq!(leader.sac_config().k, 3, "k' = min(k, n') at n' = k");
        assert_eq!(leader.plan().n(), 3, "layout re-derived for the roster");
        assert_eq!(leader.contributors, vec![0, 1, 2]);
        let avg = leader.result.as_ref().unwrap();
        assert!(avg.linf_distance(&plain_mean(&models, &survivors)) < 1e-9);
    }

    fn supervised_refuses_below_two_members<W: Wire>() {
        // Everyone but the leader dies before sharing: no retry roster of
        // size >= 2 exists, so the supervisor degrades to a refusal rather
        // than looping.
        let (mut sim, ids, _) = build::<W>(3, 3, 4, 17, Some(SimDuration::from_millis(600)));
        let t = sim.now() + SimDuration::from_millis(1);
        sim.schedule_crash(ids[1], t);
        sim.schedule_crash(ids[2], t);
        sim.run_until_quiet(100);
        start::<W>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(5));
        let phase = &leader::<W>(&sim).phase;
        assert!(
            matches!(phase, SacPhase::Failed(r) if r.contains("below 2 members")),
            "phase: {phase:?}"
        );
    }

    fn next_round_share_arriving_before_begin_is_replayed<W: Wire>() {
        // Real transports only order frames per connection: peer 2 can see
        // peer 1's round-1 share before the leader's Begin { 1 }. The
        // block must survive the race and count after Begin arrives.
        // (Position 2 of 4 sits in the second stage of the staged layout,
        // so position 1 is in its predecessor stage on both plans.)
        let mut solo = Solo::<W>::new(4, 2, 2, false);
        solo.deliver(1, Solo::<W>::share(1, 1));
        assert_eq!(
            solo.actor.round, 0,
            "early block must not advance the round"
        );
        assert!(
            solo.actor.blocks.is_empty(),
            "early block must not be applied before Begin"
        );
        solo.deliver(0, SacMsg::Begin { round: 1 });
        assert_eq!(solo.actor.round, 1);
        assert_eq!(solo.actor.phase, SacPhase::Sharing);
        assert!(
            solo.actor.blocks.contains_key(&1),
            "stashed block must be replayed after Begin"
        );
        // A message two rounds ahead is outside the stash window.
        solo.deliver(1, Solo::<W>::share(3, 1));
        assert!(solo.actor.future.is_empty(), "round+2 must not be stashed");
    }

    fn stash_eviction_is_counted_not_silent<W: Wire>() {
        // 4n = 16 messages fill the stash; a flood cannot grow it further,
        // and everything beyond the bound is evicted *and counted*.
        let mut solo = Solo::<W>::new(4, 2, 2, false);
        for _ in 0..100 {
            solo.deliver(1, Solo::<W>::share(1, 1));
        }
        assert_eq!(solo.actor.future.len(), 16);
        assert_eq!(solo.actor.stash_evicted, 84);
        assert_eq!(Actor::stash_evicted(&solo.actor), 84);
    }

    fn begin_aimed_at_leader_is_ignored<W: Wire>() {
        let (mut sim, ids, _) = build::<W>(3, 2, 4, 42, None);
        let begin = SacMsg::Begin { round: 5 };
        sim.inject(ids[1], ids[0], begin, SimDuration::from_millis(1));
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(leader::<W>(&sim).phase, SacPhase::Idle);
        assert_eq!(leader::<W>(&sim).round, 0);
    }

    fn duplicate_and_stale_begins_are_ignored<W: Wire>() {
        let (mut sim, ids, models) = build::<W>(5, 3, 8, 31, None);
        start::<W>(&mut sim, ids[0], 2);
        // Re-deliver the in-flight Begin to one follower and a stale
        // round-1 Begin to another: neither may trigger a second share
        // distribution (fresh randomness would break mask cancellation)
        // or regress the follower's round.
        for (to, round, ms) in [(2, 2, 20), (3, 1, 25)] {
            let begin = SacMsg::Begin { round };
            sim.inject(ids[0], ids[to], begin, SimDuration::from_millis(ms));
        }
        sim.run_until(SimTime::from_secs(2));
        assert_done(leader::<W>(&sim), &models, &[0, 1, 2, 3, 4]);
        assert_eq!(sim.actor::<RoundCore<W>>(ids[3]).round, 2);
    }

    fn stale_round_messages_are_ignored<W: Wire>() {
        let (mut sim, ids, _) = build::<W>(3, 2, 4, 21, None);
        start::<W>(&mut sim, ids[0], 3);
        // A stray total from an old round must not pollute round 3.
        let stray = SacMsg::Subtotal {
            round: 2,
            idx: 0,
            value: WeightVector::zeros(4),
        };
        sim.inject(ids[1], ids[0], stray, SimDuration::from_millis(1));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(leader::<W>(&sim).phase, SacPhase::Done);
        assert_eq!(leader::<W>(&sim).round, 3);
        assert_eq!(leader::<W>(&sim).shares_rejected, 0, "stale is not hostile");
    }

    fn abort_after_late_share_is_idempotent<W: Wire>() {
        let mut solo = Solo::<W>::new(4, 2, 2, true);
        solo.deliver(0, SacMsg::Begin { round: 1 });
        assert_eq!(solo.actor.phase, SacPhase::Sharing);
        solo.deliver(1, Solo::<W>::share(1, 1));
        assert!(solo.actor.blocks.contains_key(&1));
        let abort = |reason: &str| SacMsg::Abort {
            round: 1,
            reason: reason.into(),
        };
        solo.deliver(0, abort("test"));
        assert_eq!(solo.actor.phase, SacPhase::Idle);
        assert!(
            solo.actor.blocks.is_empty(),
            "abort must drop all mask material"
        );
        assert_eq!(solo.actor.aborts, 1);

        // A late share for the aborted round must not resurrect it.
        solo.deliver(1, Solo::<W>::share(1, 1));
        assert!(
            solo.actor.blocks.is_empty(),
            "late block after abort ignored"
        );
        // A duplicate Abort is a no-op.
        solo.deliver(0, abort("dup"));
        assert_eq!(
            solo.actor.aborts, 1,
            "duplicate abort must not double-count"
        );
        // A re-delivered Begin for the aborted round must not redistribute
        // shares (single-randomization rule).
        let sends_before = solo.net.sent.len();
        solo.deliver(0, SacMsg::Begin { round: 1 });
        assert_eq!(solo.actor.phase, SacPhase::Idle);
        assert_eq!(solo.net.sent.len(), sends_before, "no re-randomized shares");

        // The retry Reconfigure restarts cleanly under the new roster and
        // a freshly derived layout.
        let group = vec![solo.ids[0], solo.ids[2], solo.ids[3]];
        solo.deliver(
            0,
            SacMsg::Reconfigure {
                round: 2,
                group,
                k: 2,
            },
        );
        assert_eq!(solo.actor.round, 2);
        assert_eq!(solo.actor.phase, SacPhase::Sharing);
        assert_eq!(solo.actor.sac_config().position, 1);
        assert_eq!(solo.actor.sac_config().k, 2);
        assert_eq!(solo.actor.plan().n(), 3);
        assert!(
            solo.net.sent.len() > sends_before,
            "retry must distribute fresh shares"
        );
    }

    fn reconfigure_excluding_this_peer_is_ignored<W: Wire>() {
        let mut solo = Solo::<W>::new(4, 1, 2, false);
        let group = vec![solo.ids[0], solo.ids[2]];
        solo.deliver(
            0,
            SacMsg::Reconfigure {
                round: 2,
                group,
                k: 2,
            },
        );
        assert_eq!(solo.actor.round, 0, "evicted peer sits the round out");
        assert_eq!(solo.actor.phase, SacPhase::Idle);
        assert_eq!(solo.actor.sac_config().group.len(), 4);
        assert!(solo.net.sent.is_empty());
    }

    fn follower_round_deadline_abandons_unclosed_round<W: Wire>() {
        let mut solo = Solo::<W>::new(4, 1, 2, true);
        solo.deliver(0, SacMsg::Begin { round: 1 });
        assert_eq!(solo.actor.phase, SacPhase::Sharing);
        // Deadline for a *different* round is ignored.
        solo.actor
            .on_timer(&mut solo.net, timer_tag(TIMER_ROUND_DEADLINE, 7));
        assert_eq!(solo.actor.phase, SacPhase::Sharing);
        // Deadline for the open round retires it: the leader never froze
        // the contributor set, so this counts as an abandonment.
        solo.actor
            .on_timer(&mut solo.net, timer_tag(TIMER_ROUND_DEADLINE, 1));
        assert_eq!(solo.actor.phase, SacPhase::Idle);
        assert_eq!(solo.actor.abandoned, 1);
        assert!(solo.actor.blocks.is_empty());
        // A late recovery request for the retired round is not served.
        let sends = solo.net.sent.len();
        solo.deliver(0, SacMsg::SubtotalRequest { round: 1, idx: 1 });
        assert_eq!(solo.net.sent.len(), sends);
        assert!(solo.actor.pending_requests.is_empty());
    }

    fn second_round_reuses_the_engine<W: Wire>() {
        let (mut sim, ids, models) = build::<W>(6, 2, 8, 61, None);
        for round in [1, 2] {
            start::<W>(&mut sim, ids[0], round);
            sim.run_until(sim.now() + SimDuration::from_secs(2));
            assert_done(leader::<W>(&sim), &models, &[0, 1, 2, 3, 4, 5]);
            assert_eq!(leader::<W>(&sim).round, round);
        }
    }

    fn bogus_total_cannot_complete_the_round<W: Wire>() {
        // A total outside the (stage, partition) grid must neither count
        // toward the n-totals finish condition nor panic the averaging.
        let (mut sim, ids, _) = build::<W>(6, 2, 4, 51, None);
        start::<W>(&mut sim, ids[0], 1);
        let bogus = SacMsg::Subtotal {
            round: 1,
            idx: 9,
            value: WeightVector::zeros(4),
        };
        sim.inject(ids[1], ids[0], bogus, SimDuration::from_millis(1));
        sim.run_until(SimTime::from_secs(2));
        let leader = leader::<W>(&sim);
        assert_eq!(leader.phase, SacPhase::Done);
        assert_eq!(leader.held_totals().len(), 6);
        assert_eq!(leader.shares_rejected, 1, "every gate counts");
        assert_eq!(Actor::shares_rejected(leader), 1, "and reaches NetStats");
    }

    fn a_skewer_copies_on_write<W: Wire>() {
        // Every holder of a partition shares the one copy its sender made,
        // and so does, on the one-stage layout, the sender's own block. A
        // skewer must scale a copy of its own: the parts it keeps stay the
        // honest ones it committed to, and no other member's part is
        // touched.
        const FACTOR: f64 = 3.0;
        let (n, skewer) = (6, 2);
        let (mut sim, ids, models) = build::<W>(n, 3, 8, 71, None);
        fn at<W: Wire>(sim: &Sim<SacMsg>, p: usize) -> &RoundCore<W> {
            sim.actor(NodeId(p as u32))
        }
        sim.actor_mut::<RoundCore<W>>(ids[skewer]).byz_share_skew = Some(FACTOR);
        // Its parts as it divides them in round 1, from its fresh stream.
        let core = at::<W>(&sim, skewer);
        let (plan, cfg) = (core.plan(), core.sac_config());
        let m = plan.stage_len(plan.succ_stage(plan.stage_of(skewer)));
        let mut honest = vec![WeightVector::zeros(8); m];
        let mut rng = StdRng::seed_from_u64(mask_domain(cfg.seed, skewer));
        divide(&models[skewer], cfg.scheme, &mut rng, &mut honest);
        start::<W>(&mut sim, ids[0], 1);
        sim.run_until(SimTime::from_secs(5));

        let sum = WeightVector::sum(&honest);
        assert!(
            sum.linf_distance(&models[skewer]) < 1e-9,
            "kept parts skewed"
        );
        let digests: Vec<u64> = honest.iter().map(WeightVector::digest).collect();
        for j in 0..n {
            let member = at::<W>(&sim, j);
            if W::COMMITS && j != skewer {
                assert_eq!(member.commitments.get(&skewer), Some(&digests), "at {j}");
            }
            // What the skewer sent was scaled; its own block, kept locally
            // on the one-stage layout, was not.
            for (&p, v) in member.held_blocks().get(&skewer).into_iter().flatten() {
                let factor = if j == skewer { 1.0 } else { FACTOR };
                assert_eq!(**v, honest[p].scaled(factor), "part {p} at {j}");
            }
            let convicted: Vec<NodeId> = member.byzantine_detected.iter().copied().collect();
            assert!(
                convicted.iter().all(|&c| c == ids[skewer]),
                "{j} convicted {convicted:?}"
            );
        }
        // Other members' parts: every holder of partition `p` of member `h`
        // holds the same vector, and `h`'s parts sum to its model.
        for h in (0..n).filter(|&h| h != skewer) {
            let mut parts: BTreeMap<usize, &Arc<WeightVector>> = BTreeMap::new();
            for j in 0..n {
                for (&p, v) in at::<W>(&sim, j).held_blocks().get(&h).into_iter().flatten() {
                    let first = *parts.entry(p).or_insert(v);
                    assert!(Arc::ptr_eq(first, v), "part {p} of {h} copied");
                }
            }
            let sum = WeightVector::sum(parts.values().map(|v| &***v));
            assert!(sum.linf_distance(&models[h]) < 1e-9, "parts of {h} scaled");
        }
        let leader = at::<W>(&sim, 0);
        assert_eq!(leader.phase, SacPhase::Done, "phase: {:?}", leader.phase);
        if W::COMMITS {
            // The commitment check turns the skewer into a dropout.
            assert_eq!(leader.byzantine_detected, BTreeSet::from([ids[skewer]]));
            assert_done(leader, &models, &[0, 1, 3, 4, 5]);
        } else {
            // The staged layout has no commitments to convict by yet.
            assert!(leader.byzantine_detected.is_empty());
        }
    }

    fn hostile_shapes_are_counted_and_bounded_by_the_grid<W: Wire>() {
        // Position 2 of 4, round open. Its grid row has `row` partitions
        // (4 on the one-stage layout, 2 on the staged one): an index in
        // `row..n` could never be totalled, so it must not be stored.
        let mut solo = Solo::<W>::new(4, 2, 2, false);
        solo.deliver(0, SacMsg::Begin { round: 1 });
        let row = solo.actor.plan().stage_len(solo.actor.plan().stage_of(2));
        let part = |idx: usize, dim: usize| SacMsg::ShareBlock {
            round: 1,
            from_pos: 1,
            parts: vec![(idx, Arc::new(WeightVector::zeros(dim)))],
        };
        solo.deliver(1, part(row, 2));
        assert_eq!(solo.actor.shares_rejected, 1, "index outside the grid row");
        solo.deliver(1, part(0, 3));
        assert_eq!(solo.actor.shares_rejected, 2, "wrong dimension");
        assert!(!solo.actor.blocks.contains_key(&1), "nothing was stored");
        assert!(
            solo.actor.byzantine_detected.contains(&solo.ids[1]),
            "a malformed block bound to its sender convicts it"
        );
        solo.deliver(1, part(row - 1, 2));
        assert!(solo.actor.blocks[&1].contains_key(&(row - 1)));
        // A frozen set outside the roster is refused and counted too.
        let compute_over = SacMsg::ComputeOver {
            round: 1,
            contributors: vec![0, 1, 2, 3, 4],
        };
        solo.deliver(0, compute_over);
        assert!(solo.actor.frozen_set().is_none());
        assert_eq!(solo.actor.shares_rejected, 3);
    }

    fn unservable_requests_are_never_queued<W: Wire>() {
        // A request this peer can never serve — a partition of another
        // stage, one outside its assigned block, or one off the grid —
        // must not sit in the pending queue until the round ends.
        let mut solo = Solo::<W>::new(4, 2, 4, false);
        solo.deliver(0, SacMsg::Begin { round: 1 });
        let request = |idx: usize| SacMsg::SubtotalRequest { round: 1, idx };
        // k = n: every peer holds exactly its own partition, subtotal 2.
        for (i, idx) in [0, 1, 3, 4, usize::MAX].into_iter().enumerate() {
            solo.deliver(0, request(idx));
            assert_eq!(solo.actor.shares_rejected, i as u64 + 1, "idx {idx}");
        }
        assert!(solo.actor.pending_requests.is_empty());
        // Its own partition is servable once the blocks arrive: queued.
        solo.deliver(0, request(2));
        let plan = solo.actor.plan();
        let own = (plan.stage_of(2), plan.local_index(2));
        assert_eq!(solo.actor.pending_requests, vec![own]);
    }
}
