//! The two-layer peer: a subgroup Raft participant that, while leading its
//! subgroup, also participates in the FedAvg-layer Raft.
//!
//! Implements the paper's Sec. V mechanics:
//!
//! * every peer runs its subgroup's Raft;
//! * the subgroup leader joins the FedAvg-layer Raft, and periodically
//!   commits the FedAvg-layer configuration into its subgroup log;
//! * the post-leader-election callback: a newly elected subgroup leader
//!   reads that replicated configuration and asks the FedAvg leader to
//!   admit it (replacing its subgroup's crashed representative) via the
//!   cluster-membership-change protocol;
//! * a pending joiner polls for a FedAvg leader on a fixed interval (the
//!   paper uses 100 ms) until an election over there produces one.
//!
//! Deviation noted for reviewers: when handling a join, the FedAvg leader
//! proposes `RemoveServer(old)` and `AddServer(new)` back-to-back instead
//! of waiting for the first change to commit; with a single proposer this
//! is safe in our setting and keeps recovery latency low.

use crate::config::{
    FedCmd, FedConfig, FedSnapshot, HierMsg, HierPeerConfig, SubCmd, SubMembers, SubSnapshot,
};
use crate::detector::{FailureDetector, Liveness};
use crate::elastic::{rekey_key, ElasticGroup, Topology, TopologyCmd, TopologyEvent};
use p2pfl_raft::{Command, Effect, Entry, LogCmd, LogIndex, RaftConfig, RaftNode, RaftStorage};
use p2pfl_simnet::{codec, Actor, NodeId, SimDuration, SimTime, TimerId, Transport};
use std::collections::{BTreeMap, BTreeSet};

/// The most applied entries either Raft log of a peer retains; a log
/// longer than this (plus what one settle window has in flight) is a bug.
/// A peer's per-round state must be bounded however long the session
/// runs, and both logs fold to a few hundred bytes of replicated state, so
/// this is a property of the protocol, not a tuning knob.
pub const COMPACT_AFTER: u64 = 256;

/// Applied entries between two checkpoints of a layer's replicated state.
/// Taking a checkpoint cuts the log at the *previous* one, so a log holds
/// between one and two intervals: a follower less than an interval behind
/// (every follower of a fault-free round) is still caught up by entries,
/// and only one further behind, or restarted from nothing, is sent the
/// snapshot.
const CHECKPOINT_EVERY: u64 = COMPACT_AFTER / 2;

/// Applied [`FedConfig`] digests kept as the reference incoming
/// [`HierMsg::ConfigEcho`]es are cross-checked against (one is added per
/// config re-commit, so the map is pruned like the logs are).
const ECHO_VERSIONS_KEPT: usize = 64;

/// A layer's replicated state as of an applied log index.
type Checkpoint = (LogIndex, Vec<u8>);

/// Whether applying `entry` takes `node` a checkpoint interval past its
/// last checkpoint (or snapshot). The entry must still be in this node's
/// log: applying a topology change can replace the instance mid-batch, and
/// the old instance's remaining commits say nothing about the new log.
fn checkpoint_due<C: Command>(
    node: &RaftNode<C>,
    last: &Option<Checkpoint>,
    index: LogIndex,
    term: u64,
) -> bool {
    let base = last
        .as_ref()
        .map_or(node.log().snapshot_index(), |(at, _)| *at);
    node.log().term_at(index) == Some(term) && index >= base + CHECKPOINT_EVERY
}

/// Records `(index, blob)` as `node`'s checkpoint and cuts its log at the
/// one it replaces, persisting the cut.
fn roll_checkpoint<C: Command>(
    node: &mut RaftNode<C>,
    storage: &mut Option<Box<dyn RaftStorage<C>>>,
    last: &mut Option<Checkpoint>,
    index: LogIndex,
    blob: Vec<u8>,
) {
    if let Some((at, state)) = last.replace((index, blob)) {
        if let (Some(op), Some(st)) = (node.take_snapshot(at, state), storage.as_mut()) {
            st.record(&op);
        }
    }
}

const TIMER_SUB_ELECTION: u64 = 1;
const TIMER_SUB_HEARTBEAT: u64 = 2;
const TIMER_FED_ELECTION: u64 = 3;
const TIMER_FED_HEARTBEAT: u64 = 4;
const TIMER_CONFIG_TICK: u64 = 5;
const TIMER_JOIN_TICK: u64 = 6;
const TIMER_PROBE_TICK: u64 = 7;
const TIMER_RENDEZVOUS_TICK: u64 = 8;

/// A peer in the two-layer Raft deployment.
pub struct HierActor {
    cfg: HierPeerConfig,
    sub: RaftNode<SubCmd>,
    fed: Option<RaftNode<FedCmd>>,
    sub_storage: Option<Box<dyn RaftStorage<SubCmd>>>,
    fed_storage: Option<Box<dyn RaftStorage<FedCmd>>>,
    sub_checkpoint: Option<Checkpoint>,
    fed_checkpoint: Option<Checkpoint>,
    sub_election_timer: Option<TimerId>,
    sub_heartbeat_timer: Option<TimerId>,
    fed_election_timer: Option<TimerId>,
    fed_heartbeat_timer: Option<TimerId>,
    join_tick_timer: Option<TimerId>,
    probe_tick_timer: Option<TimerId>,
    config_tick_armed: bool,
    config_version: u64,
    members_version: u64,
    /// The roster this leader last proposed but has not yet seen commit;
    /// further changes build on it so receipt bursts don't re-propose the
    /// same re-admission.
    proposed_roster: Option<SubMembers>,
    join_target: Option<NodeId>,
    join_round_robin: usize,
    detector: FailureDetector,
    probe_seq: u64,
    /// Latest FedAvg-layer configuration this peer knows (deployment-time
    /// founding config until a replicated update commits).
    pub fed_config: FedConfig,
    /// Latest replicated aggregation roster of this peer's subgroup (the
    /// full subgroup until a detector-driven update commits).
    pub sub_members: SubMembers,
    /// `(when, member, evicted?)` roster changes this peer proposed as
    /// subgroup leader: `true` = eviction, `false` = re-admission.
    pub roster_changes: Vec<(SimTime, NodeId, bool)>,
    /// Times at which this peer won its subgroup election.
    pub sub_leader_history: Vec<SimTime>,
    /// Times at which this peer won the FedAvg-layer election.
    pub fed_leader_history: Vec<SimTime>,
    /// When this peer's join request was accepted.
    pub join_ack_at: Option<SimTime>,
    /// When this peer's FedAvg-layer Raft instance became active.
    pub fed_active_at: Option<SimTime>,
    /// FedAvg-layer commands applied, in order.
    pub fed_cmds_applied: Vec<FedCmd>,
    /// Subgroup application commands applied, in order.
    pub sub_cmds_applied: Vec<u64>,
    /// Byzantine behavior switch (fault injection): when set, this peer
    /// broadcasts *conflicting* [`HierMsg::ConfigEcho`] digests to
    /// different subgroup members — the equivocating-leader fault.
    pub byz_equivocate: bool,
    /// Byzantine behavior switch (fault injection): when set and leading
    /// its subgroup, this peer proposes aggregation rosters containing a
    /// phantom member outside the configured subgroup.
    pub byz_bogus_roster: bool,
    /// Conflicting config echoes observed (each one is proof that the
    /// sender advertised a different config to us than it committed).
    pub equivocations_detected: u64,
    /// Replicated rosters rejected because they named members outside the
    /// configured subgroup.
    pub bogus_rosters_rejected: u64,
    /// Peers this actor convicted of equivocation. Convicted peers are
    /// evicted from the aggregation roster and never re-admitted by the
    /// liveness path — Byzantine is not a transient condition.
    pub byzantine_peers: BTreeSet<NodeId>,
    /// Digest of the [`FedConfig`] this peer applied, per version (the
    /// latest [`ECHO_VERSIONS_KEPT`]); the reference against which incoming
    /// echoes are cross-checked.
    echo_digests: BTreeMap<u64, u64>,
    /// The adopted elastic layout. Static deployments freeze it at
    /// version 0; elastic ones advance it through replicated
    /// [`TopologyCmd`]s (fed members) and [`SubCmd::Topology`] /
    /// [`HierMsg::TopologySync`] catch-up (everyone else).
    pub topology: Topology,
    /// Split transitions this peer applied through the FedAvg-layer log.
    pub splits: u64,
    /// Merge transitions this peer applied through the FedAvg-layer log.
    pub merges: u64,
    /// Times this peer adopted a new roster for its own subgroup — each
    /// one a fresh mask domain for the SAC engines.
    pub rekeys: u64,
    /// Mask-domain keys adopted across re-keys, in order (the
    /// `NoMaskReuseAcrossRekey` oracle surface: all entries distinct).
    pub rekey_history: Vec<u64>,
    /// Layout version this leader last re-committed into its subgroup log.
    topology_commit_version: u64,
    /// Joiners whose `Admit` this FedAvg leader proposed but has not yet
    /// seen commit (dedups rendezvous retry bursts).
    pending_admits: BTreeSet<NodeId>,
    /// Whether this peer booted unplaced and is polling for a rendezvous
    /// assignment.
    pending_rendezvous: bool,
    rendezvous_timer: Option<TimerId>,
}

impl HierActor {
    /// Creates the peer. Founding FedAvg-layer members activate their
    /// FedAvg-layer Raft at startup and get a shortened first subgroup
    /// election timeout so the genesis subgroup leaders coincide with the
    /// founding configuration (the paper starts from such a stable state).
    pub fn new(cfg: HierPeerConfig) -> Self {
        Self::build(cfg, None, None)
    }

    /// Creates the peer with durable Raft state for both layers. On
    /// construction each layer's storage is replayed: a non-empty subgroup
    /// record restores term/vote/log, and a non-empty FedAvg-layer record
    /// means this peer held a representative seat when it went down — the
    /// restored instance is started again in [`Actor::on_start`] so its
    /// vote keeps counting toward FedAvg-layer quorum across the restart.
    pub fn with_storage(
        cfg: HierPeerConfig,
        sub_storage: Box<dyn RaftStorage<SubCmd>>,
        fed_storage: Box<dyn RaftStorage<FedCmd>>,
    ) -> Self {
        Self::build(cfg, Some(sub_storage), Some(fed_storage))
    }

    fn sub_raft_config(cfg: &HierPeerConfig) -> RaftConfig {
        RaftConfig {
            id: cfg.id,
            initial_cluster: cfg.subgroup.clone(),
            election_timeout_min: cfg.t,
            election_timeout_max: cfg.t.saturating_mul(2),
            heartbeat_interval: cfg.heartbeat,
            seed: cfg.seed ^ 0x5ab,
            pre_vote: true,
        }
    }

    fn fed_raft_config(cfg: &HierPeerConfig, founding: Vec<NodeId>) -> RaftConfig {
        RaftConfig {
            id: cfg.id,
            initial_cluster: founding,
            election_timeout_min: cfg.t,
            election_timeout_max: cfg.t.saturating_mul(2),
            heartbeat_interval: cfg.heartbeat,
            seed: cfg.seed ^ 0xfed,
            pre_vote: true,
        }
    }

    fn build(
        cfg: HierPeerConfig,
        mut sub_storage: Option<Box<dyn RaftStorage<SubCmd>>>,
        mut fed_storage: Option<Box<dyn RaftStorage<FedCmd>>>,
    ) -> Self {
        let sub_cfg = Self::sub_raft_config(&cfg);
        let sub = match sub_storage.as_mut().and_then(|s| s.load()) {
            Some(state) => RaftNode::restore(sub_cfg, state),
            None => RaftNode::new(sub_cfg),
        };
        let fed = fed_storage.as_mut().and_then(|s| s.load()).map(|state| {
            RaftNode::restore(Self::fed_raft_config(&cfg, cfg.founding_fed.clone()), state)
        });
        let fed_config = FedConfig {
            founding: cfg.founding_fed.clone(),
            current: cfg.founding_fed.clone(),
            engine: cfg.engine,
            combiner: cfg.combiner,
            version: 0,
        };
        let sub_members = SubMembers {
            members: cfg.subgroup.clone(),
            version: 0,
        };
        let detector = FailureDetector::new(
            cfg.subgroup.iter().copied().filter(|&p| p != cfg.id),
            cfg.suspect_after,
            cfg.dead_after,
            SimTime::ZERO,
        );
        let (topology, pending_rendezvous) = match cfg.elastic.as_ref() {
            // A rendezvous joiner knows no layout: it learns the committed
            // topology (which by then contains it) from its assignment.
            Some(e) if e.initial_groups.is_empty() => (
                Topology {
                    version: 0,
                    groups: Vec::new(),
                    next_gid: 0,
                },
                true,
            ),
            Some(e) => (Topology::from_groups(&e.initial_groups), false),
            None => (
                Topology::from_groups(std::slice::from_ref(&cfg.subgroup)),
                false,
            ),
        };
        HierActor {
            sub,
            fed,
            sub_storage,
            fed_storage,
            sub_checkpoint: None,
            fed_checkpoint: None,
            sub_election_timer: None,
            sub_heartbeat_timer: None,
            fed_election_timer: None,
            fed_heartbeat_timer: None,
            join_tick_timer: None,
            probe_tick_timer: None,
            config_tick_armed: false,
            config_version: 0,
            members_version: 0,
            proposed_roster: None,
            join_target: None,
            join_round_robin: 0,
            detector,
            probe_seq: 0,
            fed_config,
            sub_members,
            roster_changes: Vec::new(),
            sub_leader_history: Vec::new(),
            fed_leader_history: Vec::new(),
            join_ack_at: None,
            fed_active_at: None,
            fed_cmds_applied: Vec::new(),
            sub_cmds_applied: Vec::new(),
            byz_equivocate: false,
            byz_bogus_roster: false,
            equivocations_detected: 0,
            bogus_rosters_rejected: 0,
            byzantine_peers: BTreeSet::new(),
            echo_digests: BTreeMap::new(),
            topology,
            splits: 0,
            merges: 0,
            rekeys: 0,
            rekey_history: Vec::new(),
            topology_commit_version: 0,
            pending_admits: BTreeSet::new(),
            pending_rendezvous,
            rendezvous_timer: None,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Accessors used by experiments, tests, and the aggregation system
    // ------------------------------------------------------------------

    /// This peer's id.
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// Whether this peer currently leads its subgroup.
    pub fn is_sub_leader(&self) -> bool {
        self.sub.is_leader()
    }

    /// Whether this peer currently leads the FedAvg layer.
    pub fn is_fed_leader(&self) -> bool {
        self.fed.as_ref().is_some_and(|f| f.is_leader())
    }

    /// Whether this peer's FedAvg-layer Raft instance is active.
    pub fn is_fed_member(&self) -> bool {
        self.fed.is_some()
    }

    /// The subgroup Raft state.
    pub fn sub_raft(&self) -> &RaftNode<SubCmd> {
        &self.sub
    }

    /// This peer's failure-detector verdict on a subgroup member.
    pub fn liveness_of(&self, peer: NodeId) -> Liveness {
        self.detector.liveness(peer)
    }

    /// The aggregation roster this peer currently believes in: the
    /// replicated member list, in subgroup order.
    pub fn live_sub_members(&self) -> &[NodeId] {
        &self.sub_members.members
    }

    /// The FedAvg-layer Raft state, if active.
    pub fn fed_raft(&self) -> Option<&RaftNode<FedCmd>> {
        self.fed.as_ref()
    }

    /// The last round marker applied through the FedAvg-layer log: with
    /// [`HierActor::topology`], what that log folds to.
    fn last_fed_round(&self) -> Option<u64> {
        self.fed_cmds_applied.iter().rev().find_map(|c| match c {
            FedCmd::Round(r) => Some(*r),
            FedCmd::Topology(_) => None,
        })
    }

    /// The round markers applied through the FedAvg-layer log, in order
    /// (topology commands filtered out).
    pub fn fed_rounds_applied(&self) -> Vec<u64> {
        self.fed_cmds_applied
            .iter()
            .filter_map(|c| match c {
                FedCmd::Round(r) => Some(*r),
                FedCmd::Topology(_) => None,
            })
            .collect()
    }

    /// This peer's current subgroup roster as configured (updated by
    /// elastic transitions).
    pub fn subgroup(&self) -> &[NodeId] {
        &self.cfg.subgroup
    }

    /// Whether this peer is still polling for a rendezvous assignment.
    pub fn is_pending_rendezvous(&self) -> bool {
        self.pending_rendezvous
    }

    /// StorageRoundTrip oracle hook for the invariant checker: replays both
    /// storage handles (when present) and checks that a node restored from
    /// them would be bisimilar to the live Raft instances — same term, vote,
    /// log, and snapshot. Returns a description of the first divergence.
    pub fn verify_storage_roundtrip(&mut self) -> Result<(), String> {
        if let Some(st) = self.sub_storage.as_mut() {
            let state = st.load().unwrap_or_default();
            self.sub
                .matches_persistent(&state)
                .map_err(|e| format!("sub layer: {e}"))?;
        }
        if let (Some(st), Some(fed)) = (self.fed_storage.as_mut(), self.fed.as_ref()) {
            let state = st.load().unwrap_or_default();
            fed.matches_persistent(&state)
                .map_err(|e| format!("fed layer: {e}"))?;
        }
        Ok(())
    }

    /// Proposes an application command on the FedAvg layer (leader only).
    pub fn propose_fed(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        cmd: FedCmd,
    ) -> Result<(), &'static str> {
        let Some(fed) = self.fed.as_mut() else {
            return Err("not a FedAvg-layer member");
        };
        match fed.propose(LogCmd::App(cmd)) {
            Ok((_, eff)) => {
                self.run_fed_effects(ctx, eff);
                Ok(())
            }
            Err(_) => Err("not the FedAvg leader"),
        }
    }

    /// Proposes an elastic-topology operation on the FedAvg layer (leader
    /// only) — the single serialization point for layout changes.
    pub fn propose_topology(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        cmd: TopologyCmd,
    ) -> Result<(), &'static str> {
        self.propose_fed(ctx, FedCmd::Topology(cmd))
    }

    /// Proposes an application command on the subgroup (leader only).
    pub fn propose_sub(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        cmd: u64,
    ) -> Result<(), &'static str> {
        match self.sub.propose(LogCmd::App(SubCmd::App(cmd))) {
            Ok((_, eff)) => {
                self.run_sub_effects(ctx, eff);
                Ok(())
            }
            Err(_) => Err("not the subgroup leader"),
        }
    }

    // ------------------------------------------------------------------
    // Effect plumbing
    // ------------------------------------------------------------------

    fn arm(ctx: &mut dyn Transport<HierMsg>, slot: &mut Option<TimerId>, d: SimDuration, tag: u64) {
        if let Some(t) = slot.take() {
            ctx.cancel_timer(t);
        }
        *slot = Some(ctx.set_timer(d, tag));
    }

    fn run_sub_effects(&mut self, ctx: &mut dyn Transport<HierMsg>, effects: Vec<Effect<SubCmd>>) {
        for e in effects {
            match e {
                Effect::Send(to, msg) => ctx.send(to, HierMsg::Sub(msg)),
                Effect::ArmElectionTimer(d) => {
                    Self::arm(ctx, &mut self.sub_election_timer, d, TIMER_SUB_ELECTION)
                }
                Effect::ArmHeartbeatTimer(d) => {
                    Self::arm(ctx, &mut self.sub_heartbeat_timer, d, TIMER_SUB_HEARTBEAT)
                }
                Effect::Commit(entry) => {
                    self.apply_sub_entry(ctx, &entry);
                    self.checkpoint_sub(entry.index, entry.term);
                }
                Effect::BecameLeader(_) => {
                    self.sub_leader_history.push(ctx.now());
                    self.on_became_sub_leader(ctx);
                }
                Effect::Persist(op) => {
                    if let Some(st) = self.sub_storage.as_mut() {
                        st.record(&op);
                    }
                }
                Effect::RestoreSnapshot(blob) => self.restore_sub_snapshot(ctx, &blob),
                Effect::SteppedDown(_) | Effect::ConfigChanged(_) => {}
            }
        }
    }

    fn run_fed_effects(&mut self, ctx: &mut dyn Transport<HierMsg>, effects: Vec<Effect<FedCmd>>) {
        let mut retire = false;
        for e in effects {
            match e {
                Effect::Send(to, msg) => ctx.send(to, HierMsg::Fed(msg)),
                Effect::ArmElectionTimer(d) => {
                    Self::arm(ctx, &mut self.fed_election_timer, d, TIMER_FED_ELECTION)
                }
                Effect::ArmHeartbeatTimer(d) => {
                    Self::arm(ctx, &mut self.fed_heartbeat_timer, d, TIMER_FED_HEARTBEAT)
                }
                Effect::Commit(entry) => {
                    if let LogCmd::App(v) = entry.cmd {
                        if let FedCmd::Topology(cmd) = &v {
                            let cmd = cmd.clone();
                            self.apply_fed_topology(ctx, &cmd);
                        }
                        self.fed_cmds_applied.push(v);
                    }
                    self.checkpoint_fed(entry.index, entry.term);
                }
                Effect::BecameLeader(_) => self.fed_leader_history.push(ctx.now()),
                Effect::ConfigChanged(cluster) => {
                    // A replicated membership change removed this peer from
                    // the FedAvg layer (its subgroup elected a replacement
                    // while it was down): retire gracefully — but only after
                    // the rest of the batch, so the removal entry's own
                    // broadcast still reaches the remaining members.
                    if !cluster.contains(&self.cfg.id) {
                        retire = true;
                    }
                }
                Effect::Persist(op) => {
                    if let Some(st) = self.fed_storage.as_mut() {
                        st.record(&op);
                    }
                }
                Effect::RestoreSnapshot(blob) => self.restore_fed_snapshot(ctx, &blob),
                Effect::SteppedDown(_) => {}
            }
        }
        if retire {
            self.retire_fed(ctx);
        }
    }

    /// Drops this peer's FedAvg-layer instance (its seat went to a
    /// replacement) together with everything that belonged to it.
    fn retire_fed(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        self.fed = None;
        self.fed_checkpoint = None;
        for slot in [&mut self.fed_election_timer, &mut self.fed_heartbeat_timer] {
            if let Some(t) = slot.take() {
                ctx.cancel_timer(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Log compaction: each layer's log folds to a small replicated state
    // ------------------------------------------------------------------

    fn checkpoint_sub(&mut self, index: LogIndex, term: u64) {
        if !checkpoint_due(&self.sub, &self.sub_checkpoint, index, term) {
            return;
        }
        let blob = codec::to_bytes(&SubSnapshot {
            fed_config: self.fed_config.clone(),
            sub_members: self.sub_members.clone(),
            topology: self.topology.clone(),
        });
        roll_checkpoint(
            &mut self.sub,
            &mut self.sub_storage,
            &mut self.sub_checkpoint,
            index,
            blob,
        );
    }

    fn checkpoint_fed(&mut self, index: LogIndex, term: u64) {
        let Some(fed) = self.fed.as_ref() else { return };
        if !checkpoint_due(fed, &self.fed_checkpoint, index, term) {
            return;
        }
        let blob = codec::to_bytes(&FedSnapshot {
            last_round: self.last_fed_round(),
            topology: self.topology.clone(),
        });
        let Some(fed) = self.fed.as_mut() else { return };
        roll_checkpoint(
            fed,
            &mut self.fed_storage,
            &mut self.fed_checkpoint,
            index,
            blob,
        );
    }

    /// The subgroup log was replaced by a snapshot (shipped by the leader
    /// or recovered from disk): adopt what it folds to, exactly as if the
    /// compacted entries had been applied. An undecodable blob leaves the
    /// state as it is; the log above the snapshot still applies.
    fn restore_sub_snapshot(&mut self, ctx: &mut dyn Transport<HierMsg>, blob: &[u8]) {
        self.sub_checkpoint = None;
        let Ok(snap) = codec::from_bytes::<SubSnapshot>(blob) else {
            return;
        };
        self.adopt_fed_config(ctx, &snap.fed_config);
        self.adopt_sub_members(&snap.sub_members);
        self.adopt_topology(ctx, &snap.topology);
    }

    /// The FedAvg-layer counterpart of [`Self::restore_sub_snapshot`]. The
    /// round markers the snapshot covers are gone; the last one is
    /// recorded so the applied history still ends where the layer is.
    fn restore_fed_snapshot(&mut self, ctx: &mut dyn Transport<HierMsg>, blob: &[u8]) {
        self.fed_checkpoint = None;
        let Ok(snap) = codec::from_bytes::<FedSnapshot>(blob) else {
            return;
        };
        if let Some(r) = snap
            .last_round
            .filter(|r| Some(*r) != self.last_fed_round())
        {
            self.fed_cmds_applied.push(FedCmd::Round(r));
        }
        self.adopt_topology(ctx, &snap.topology);
    }

    /// A FedAvg-layer instance recovered from a compacted durable log
    /// starts from the snapshot the dropped prefix built; the retained tail
    /// re-applies on top.
    fn restore_stored_fed_snapshot(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        let stored = self.fed.as_ref().and_then(|f| f.snapshot());
        if let Some(blob) = stored.map(|(_, _, _, blob)| blob.clone()) {
            self.restore_fed_snapshot(ctx, &blob);
        }
    }

    /// Adopts a replicated FedAvg-layer configuration (version
    /// max-advance).
    fn adopt_fed_config(&mut self, ctx: &mut dyn Transport<HierMsg>, c: &FedConfig) {
        if c.version >= self.fed_config.version {
            self.fed_config = c.clone();
        }
        // A restarted ex-representative learns through its subgroup log
        // that the FedAvg layer moved on without it: retire the stale
        // FedAvg-layer instance.
        if self.fed.is_some()
            && !self.sub.is_leader()
            && !self.fed_config.current.contains(&self.cfg.id)
        {
            self.retire_fed(ctx);
        }
    }

    /// Adopts a replicated aggregation roster (version max-advance).
    fn adopt_sub_members(&mut self, m: &SubMembers) {
        // Bogus-roster defense: a replicated roster may only name members
        // of the configured subgroup. A Byzantine leader that smuggles a
        // phantom member into the aggregation roster is ignored — the
        // previous roster stays in force.
        if !m.members.iter().all(|p| self.cfg.subgroup.contains(p)) {
            self.bogus_rosters_rejected += 1;
            return;
        }
        if m.version >= self.sub_members.version {
            self.sub_members = m.clone();
        }
        if self
            .proposed_roster
            .as_ref()
            .is_some_and(|p| m.version >= p.version)
        {
            self.proposed_roster = None;
        }
    }

    fn apply_sub_entry(&mut self, ctx: &mut dyn Transport<HierMsg>, entry: &Entry<SubCmd>) {
        match &entry.cmd {
            LogCmd::App(SubCmd::FedConfig(c)) => {
                self.adopt_fed_config(ctx, c);
                self.broadcast_config_echo(ctx, c);
            }
            LogCmd::App(SubCmd::Members(m)) => self.adopt_sub_members(m),
            LogCmd::App(SubCmd::App(v)) => self.sub_cmds_applied.push(*v),
            LogCmd::App(SubCmd::Topology(t)) => {
                let t = t.clone();
                self.adopt_topology(ctx, &t);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Elastic topology: replicated split/merge/admit/depart transitions
    // ------------------------------------------------------------------

    /// Applies a committed FedAvg-layer topology command. Every fed member
    /// applies the identical command in the identical log order, so the
    /// resulting layouts agree; the peers the change touches get a
    /// best-effort [`HierMsg::TopologySync`] push immediately (the durable
    /// path is the subgroup-log re-commit on the config tick, plus the
    /// stale-sender catch-up in `on_message`).
    fn apply_fed_topology(&mut self, ctx: &mut dyn Transport<HierMsg>, cmd: &TopologyCmd) {
        // Rosters the command touches, read *before* applying so pre-split
        // and departing members are included.
        let roster_of = |t: &Topology, gid: u64| -> Vec<NodeId> {
            t.group(gid).map(|g| g.members.clone()).unwrap_or_default()
        };
        let mut affected: BTreeSet<NodeId> = match cmd {
            TopologyCmd::Split { gid, .. } => roster_of(&self.topology, *gid).into_iter().collect(),
            TopologyCmd::Merge { into, from } => roster_of(&self.topology, *into)
                .into_iter()
                .chain(roster_of(&self.topology, *from))
                .collect(),
            TopologyCmd::Admit { peer, gid } => {
                let mut s: BTreeSet<NodeId> = roster_of(&self.topology, *gid).into_iter().collect();
                s.insert(*peer);
                s
            }
            TopologyCmd::Depart { peer } => self
                .topology
                .group_of(*peer)
                .map(|g| g.members.iter().copied().collect())
                .unwrap_or_default(),
        };
        let mut t = self.topology.clone();
        let Ok(event) = t.apply(cmd) else {
            // Every replica rejects the command identically; the layout is
            // untouched.
            return;
        };
        match &event {
            TopologyEvent::Split { .. } => self.splits += 1,
            TopologyEvent::Merged { .. } => self.merges += 1,
            TopologyEvent::Admitted { peer, .. } => {
                self.pending_admits.remove(peer);
                // The joiner's assignment is acknowledged only now, after
                // the admission committed — an ack therefore always carries
                // a layout that contains the joiner.
                if self.is_fed_leader() {
                    ctx.send(
                        *peer,
                        HierMsg::RendezvousAssign {
                            accepted: true,
                            leader: Some(self.cfg.id),
                            topology: Some(t.clone()),
                        },
                    );
                }
            }
            TopologyEvent::Departed { .. } => {}
            TopologyEvent::Noop => {
                // Duplicate admit retries land here: the peer stays where
                // the first commit put it, and nobody re-keys.
                if let TopologyCmd::Admit { peer, .. } = cmd {
                    self.pending_admits.remove(peer);
                }
                affected.clear();
            }
        }
        affected.remove(&self.cfg.id);
        for p in affected {
            ctx.send(
                p,
                HierMsg::TopologySync {
                    topology: t.clone(),
                },
            );
        }
        self.adopt_topology(ctx, &t);
    }

    /// Adopts a newer layout (version max-advance; stale and duplicate
    /// layouts are ignored). If the layout assigns this peer a different
    /// subgroup than it currently runs, the peer transitions.
    fn adopt_topology(&mut self, ctx: &mut dyn Transport<HierMsg>, t: &Topology) {
        if t.version <= self.topology.version {
            return;
        }
        let old = self.topology.group_of(self.cfg.id).cloned();
        self.topology = t.clone();
        let Some(new) = self.topology.group_of(self.cfg.id).cloned() else {
            // Departed (or not yet admitted): keep serving the old roster
            // until the supervisor retires this peer.
            return;
        };
        let changed = old
            .as_ref()
            .is_none_or(|o| o.gid != new.gid || o.members != new.members);
        if changed {
            if self.pending_rendezvous {
                self.pending_rendezvous = false;
                if let Some(timer) = self.rendezvous_timer.take() {
                    ctx.cancel_timer(timer);
                }
            }
            self.transition_to(ctx, &new);
        }
    }

    /// Adopts `group` as this peer's own subgroup: a fresh subgroup Raft
    /// over the new roster, detector and replicated roster rebuilt, and a
    /// fresh mask-domain key recorded — the re-key that makes mask reuse
    /// across rosters impossible. An in-flight SAC round over the old
    /// roster is migrated by the PR 5 supervision path: the next attempt
    /// sees the new roster, aborts, and retries degraded on it.
    fn transition_to(&mut self, ctx: &mut dyn Transport<HierMsg>, group: &ElasticGroup) {
        self.rekeys += 1;
        self.rekey_history.push(rekey_key(
            self.cfg.id,
            group.gid,
            &group.members,
            self.rekeys,
        ));
        self.cfg.subgroup = group.members.clone();
        self.cfg.subgroup_index = group.gid as usize;
        // Old-roster supervision state is meaningless for the new roster.
        self.proposed_roster = None;
        self.members_version = self.members_version.max(self.sub_members.version) + 1;
        self.sub_members = SubMembers {
            members: group.members.clone(),
            version: self.members_version,
        };
        self.detector = FailureDetector::new(
            group.members.iter().copied().filter(|&p| p != self.cfg.id),
            self.cfg.suspect_after,
            self.cfg.dead_after,
            ctx.now(),
        );
        // A fresh Raft instance for the new roster. The timeout stream is
        // domain-separated by layout version and group id so sibling
        // instances born from one split never share an RNG stream. The
        // retired roster's durable log describes a dissolved cluster;
        // re-seeding durability for the new lineage is future work, so the
        // fresh instance runs memory-only.
        let mut raft_cfg = Self::sub_raft_config(&self.cfg);
        raft_cfg.seed ^= (self.topology.version << 20) ^ group.gid.wrapping_mul(0x9e37_79b9);
        for slot in [&mut self.sub_election_timer, &mut self.sub_heartbeat_timer] {
            if let Some(timer) = slot.take() {
                ctx.cancel_timer(timer);
            }
        }
        self.sub_storage = None;
        self.sub_checkpoint = None;
        self.sub = RaftNode::new(raft_cfg);
        self.topology_commit_version = 0;
        let eff = self.sub.start();
        self.run_sub_effects(ctx, eff);
        // Deterministic quick election: the lowest id in the new roster
        // gets a genesis-style boosted timeout (mirrors founding startup).
        if group.members.first() == Some(&self.cfg.id) {
            let boost = SimDuration::from_nanos((self.cfg.t.as_nanos() / 20).max(1));
            Self::arm(ctx, &mut self.sub_election_timer, boost, TIMER_SUB_ELECTION);
        }
    }

    // ------------------------------------------------------------------
    // Rendezvous join (elastic deployments): an unplaced peer polls for
    // an assignment; the FedAvg leader serializes it as an Admit command
    // ------------------------------------------------------------------

    fn send_rendezvous(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        if !self.pending_rendezvous {
            return;
        }
        let mut candidates: Vec<NodeId> = self
            .fed_config
            .current
            .iter()
            .chain(self.cfg.founding_fed.iter())
            .copied()
            .filter(|&m| m != self.cfg.id)
            .collect();
        candidates.sort_by_key(|m| m.0);
        candidates.dedup();
        if candidates.is_empty() {
            return;
        }
        // Same one-shot-hint + round-robin policy as the join protocol.
        let target = self.join_target.take().unwrap_or_else(|| {
            let t = candidates[self.join_round_robin % candidates.len()];
            self.join_round_robin += 1;
            t
        });
        ctx.send(target, HierMsg::Rendezvous { from: self.cfg.id });
        Self::arm(
            ctx,
            &mut self.rendezvous_timer,
            self.cfg.join_poll_interval,
            TIMER_RENDEZVOUS_TICK,
        );
    }

    fn on_rendezvous(&mut self, ctx: &mut dyn Transport<HierMsg>, peer: NodeId) {
        if self.cfg.elastic.is_none() {
            return;
        }
        if self.is_fed_leader() {
            if self.topology.group_of(peer).is_some() {
                // Stale retry for an already-placed peer: idempotent
                // re-ack with the committed layout, never a second
                // insertion (the double-admission bug this replaces).
                ctx.send(
                    peer,
                    HierMsg::RendezvousAssign {
                        accepted: true,
                        leader: Some(self.cfg.id),
                        topology: Some(self.topology.clone()),
                    },
                );
                return;
            }
            if self.pending_admits.contains(&peer) {
                return; // admit already in flight; ack follows its commit
            }
            let Some(gid) = self.topology.assign_joiner() else {
                return;
            };
            self.pending_admits.insert(peer);
            let _ = self.propose_fed(ctx, FedCmd::Topology(TopologyCmd::Admit { peer, gid }));
        } else if let Some(fed) = self.fed.as_ref() {
            let hint = fed.leader_hint().filter(|&l| l != self.cfg.id);
            ctx.send(
                peer,
                HierMsg::RendezvousAssign {
                    accepted: false,
                    leader: hint,
                    topology: None,
                },
            );
        } else {
            ctx.send(
                peer,
                HierMsg::RendezvousAssign {
                    accepted: false,
                    leader: None,
                    topology: None,
                },
            );
        }
    }

    fn on_rendezvous_assign(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        accepted: bool,
        leader: Option<NodeId>,
        topology: Option<Topology>,
    ) {
        if !self.pending_rendezvous {
            return;
        }
        if accepted {
            if let Some(t) = topology {
                if t.group_of(self.cfg.id).is_some() {
                    self.join_ack_at = Some(ctx.now());
                    // Adoption clears `pending_rendezvous` and transitions
                    // into the assigned subgroup.
                    self.adopt_topology(ctx, &t);
                }
            }
        } else if let Some(l) = leader {
            self.join_target = Some(l);
            self.send_rendezvous(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Config echo witness protocol (equivocation detection)
    // ------------------------------------------------------------------

    /// After applying a [`FedConfig`], every peer echoes the config's
    /// digest to its subgroup. Raft keeps the committed config identical
    /// across honest members at a given version, so any echo disagreeing
    /// with the locally applied digest convicts its sender of advertising
    /// a different config — equivocation.
    fn broadcast_config_echo(&mut self, ctx: &mut dyn Transport<HierMsg>, c: &FedConfig) {
        let digest = c.digest();
        self.echo_digests.insert(c.version, digest);
        // Echoes answer an apply within a link delay or two; a reference
        // older than this many versions has no honest echo left to meet.
        while self.echo_digests.len() > ECHO_VERSIONS_KEPT {
            self.echo_digests.pop_first();
        }
        for &peer in &self.cfg.subgroup.clone() {
            if peer == self.cfg.id {
                continue;
            }
            // The equivocating-leader fault: advertise one config to
            // even-numbered peers and a different one to odd-numbered
            // peers — mutually conflicting claims about the same version.
            let d = if self.byz_equivocate {
                digest ^ (peer.0 as u64 & 1)
            } else {
                digest
            };
            ctx.send(
                peer,
                HierMsg::ConfigEcho {
                    version: c.version,
                    digest: d,
                },
            );
        }
    }

    fn on_config_echo(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        from: NodeId,
        version: u64,
        digest: u64,
    ) {
        if !self.cfg.subgroup.contains(&from) {
            return;
        }
        match self.echo_digests.get(&version) {
            // We applied this version ourselves; a differing digest is
            // proof the sender saw (or fabricated) a conflicting config.
            Some(&mine) if mine != digest => {
                self.equivocations_detected += 1;
                self.convict_byzantine(ctx, from);
            }
            Some(_) => {}
            // We have not applied this version yet: remember the claim so
            // our own apply would conflict... keeping only our own applied
            // digests is enough for detection, because the equivocator must
            // eventually disagree with some peer that has applied.
            None => {}
        }
    }

    /// Marks a peer as Byzantine: evicts it from the aggregation roster
    /// (when leading) and bars the liveness path from ever re-admitting
    /// it. Shares the PR-5 supervision path — the eviction is an ordinary
    /// replicated roster change.
    fn convict_byzantine(&mut self, ctx: &mut dyn Transport<HierMsg>, peer: NodeId) {
        self.byzantine_peers.insert(peer);
        if self.sub.is_leader() {
            self.propose_roster_change(ctx, peer, true);
            ctx.send(
                peer,
                HierMsg::Evict {
                    reason: "equivocation: conflicting config echo".into(),
                },
            );
        }
    }

    /// External conviction entry point: a supervisor that detected
    /// Byzantine behavior out-of-band (e.g. a commitment-check failure in
    /// the aggregation layer) reports it here. Same consequences as an
    /// in-protocol conviction: permanent bar from re-admission, and a
    /// replicated roster eviction when this peer leads.
    pub fn convict(&mut self, ctx: &mut dyn Transport<HierMsg>, peer: NodeId) {
        self.convict_byzantine(ctx, peer);
    }

    // ------------------------------------------------------------------
    // Failure detection & self-healing roster (beyond-paper: Sec. V only
    // heals Raft seats; this heals the aggregation membership too)
    // ------------------------------------------------------------------

    /// Leader-side roster update: proposes a new replicated member list
    /// with `member` evicted or re-admitted. No-ops when the roster
    /// already reflects the change or this peer stopped leading.
    fn propose_roster_change(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        member: NodeId,
        evict: bool,
    ) {
        if !self.sub.is_leader() || member == self.cfg.id {
            return;
        }
        let base = self
            .proposed_roster
            .as_ref()
            .filter(|p| p.version > self.sub_members.version)
            .unwrap_or(&self.sub_members);
        let mut members = base.members.clone();
        if evict {
            if !members.contains(&member) {
                return;
            }
            members.retain(|&m| m != member);
        } else {
            if members.contains(&member) || !self.cfg.subgroup.contains(&member) {
                return;
            }
            // Keep subgroup (= position) order stable for SAC rosters.
            members = self
                .cfg
                .subgroup
                .iter()
                .copied()
                .filter(|m| members.contains(m) || *m == member)
                .collect();
        }
        self.members_version = self.members_version.max(base.version) + 1;
        let roster = SubMembers {
            members,
            version: self.members_version,
        };
        if let Ok((_, eff)) = self
            .sub
            .propose(LogCmd::App(SubCmd::Members(roster.clone())))
        {
            self.proposed_roster = Some(roster);
            self.roster_changes.push((ctx.now(), member, evict));
            self.run_sub_effects(ctx, eff);
        }
    }

    /// Any receipt from a subgroup member feeds the detector; a receipt
    /// that revives a suspected/dead member triggers its re-admission to
    /// the aggregation roster (the "suspected peer recovers" race must
    /// never end in an eviction).
    fn note_heard_from(&mut self, ctx: &mut dyn Transport<HierMsg>, from: NodeId) {
        let revived = self.detector.heard_from(from, ctx.now());
        let missing = !self.sub_members.members.contains(&from);
        if (revived || missing)
            && self.sub.is_leader()
            && self.cfg.subgroup.contains(&from)
            // Byzantine is not transient: a convicted equivocator stays
            // evicted no matter how alive it looks.
            && !self.byzantine_peers.contains(&from)
        {
            self.propose_roster_change(ctx, from, false);
        }
    }

    fn on_probe_tick(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        self.probe_tick_timer = None;
        if !self.sub.is_leader() {
            return; // stops ticking; re-armed on the next leadership win
        }
        for (peer, verdict) in self.detector.tick(ctx.now()) {
            if verdict == Liveness::Dead {
                self.propose_roster_change(ctx, peer, true);
                ctx.send(
                    peer,
                    HierMsg::Evict {
                        reason: "failure detector: confirm window expired".into(),
                    },
                );
            }
        }
        // Probe every currently suspected member: Raft heartbeats stop
        // reaching a partitioned peer's *replies* to us, but an explicit
        // probe/ack pair gives it a dedicated path to refute suspicion
        // before the confirm window expires.
        for peer in self.detector.suspected() {
            self.probe_seq += 1;
            ctx.send(
                peer,
                HierMsg::Probe {
                    seq: self.probe_seq,
                },
            );
        }
        Self::arm(
            ctx,
            &mut self.probe_tick_timer,
            self.cfg.probe_interval,
            TIMER_PROBE_TICK,
        );
    }

    // ------------------------------------------------------------------
    // Post-leader-election callback & join protocol (paper Sec. V-A1)
    // ------------------------------------------------------------------

    fn on_became_sub_leader(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        if !self.config_tick_armed {
            self.config_tick_armed = true;
            ctx.set_timer(self.cfg.config_commit_interval, TIMER_CONFIG_TICK);
        }
        // Start detecting from a clean slate: quiet time accumulated while
        // someone else led (and we weren't probing) must not instantly
        // convict anyone. A roster proposal from a previous term may never
        // commit, so forget it too.
        self.detector.reset_all(ctx.now());
        self.proposed_roster = None;
        // A conviction reached while following could not evict; do it now.
        for peer in self.byzantine_peers.clone() {
            self.propose_roster_change(ctx, peer, true);
        }
        Self::arm(
            ctx,
            &mut self.probe_tick_timer,
            self.cfg.probe_interval,
            TIMER_PROBE_TICK,
        );
        if self.fed.is_none() {
            self.join_target = None;
            self.send_join(ctx);
            Self::arm(
                ctx,
                &mut self.join_tick_timer,
                self.cfg.join_poll_interval,
                TIMER_JOIN_TICK,
            );
        } else if self.replaces().is_some() {
            // After an elastic merge the group can hold two FedAvg-layer
            // seats. This peer already has one, so a single JoinRequest
            // (no polling) asks the FedAvg leader to retire the other
            // representative.
            self.join_target = None;
            self.send_join(ctx);
        }
    }

    /// The FedAvg-layer member this peer would replace: the configured
    /// representative of its own subgroup (normally the crashed previous
    /// subgroup leader).
    fn replaces(&self) -> Option<NodeId> {
        self.fed_config
            .current
            .iter()
            .copied()
            .find(|m| *m != self.cfg.id && self.cfg.subgroup.contains(m))
    }

    fn send_join(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        // Poll the configured FedAvg members, but also this peer's own
        // subgroup: the replicated fed config can be arbitrarily stale
        // (e.g. still the founding set after several failovers), while the
        // previous representative of this very subgroup — who can redirect
        // to the live FedAvg leader — is always a subgroup peer.
        let mut candidates: Vec<NodeId> = self
            .fed_config
            .current
            .iter()
            .chain(self.cfg.subgroup.iter())
            .copied()
            .filter(|&m| m != self.cfg.id)
            .collect();
        candidates.sort_by_key(|m| m.0);
        candidates.dedup();
        if candidates.is_empty() {
            return;
        }
        // A leader hint is consumed by the send: if the hinted peer is
        // itself dead (e.g. it was the crashed FedAvg leader), the next
        // poll tick falls back to round-robin probing of the configured
        // members instead of retrying the corpse forever.
        let target = self.join_target.take().unwrap_or_else(|| {
            let t = candidates[self.join_round_robin % candidates.len()];
            self.join_round_robin += 1;
            t
        });
        ctx.send(
            target,
            HierMsg::JoinRequest {
                from: self.cfg.id,
                replaces: self.replaces(),
            },
        );
    }

    fn activate_fed(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        if self.fed.is_some() {
            return;
        }
        let fed_cfg = Self::fed_raft_config(&self.cfg, self.fed_config.founding.clone());
        let mut fed = match self.fed_storage.as_mut().and_then(|s| s.load()) {
            Some(state) => RaftNode::restore(fed_cfg, state),
            None => RaftNode::new(fed_cfg),
        };
        let eff = fed.start();
        self.fed = Some(fed);
        self.fed_active_at = Some(ctx.now());
        self.restore_stored_fed_snapshot(ctx);
        self.run_fed_effects(ctx, eff);
        if let Some(t) = self.join_tick_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    fn on_join_request(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        from: NodeId,
        replaces: Option<NodeId>,
    ) {
        match self.fed.as_mut() {
            Some(fed) if fed.is_leader() => {
                let mut effects = Vec::new();
                if let Some(r) = replaces {
                    if r != from && fed.cluster().contains(&r) {
                        if let Ok((_, eff)) = fed.propose(LogCmd::RemoveServer(r)) {
                            effects.extend(eff);
                        }
                    }
                }
                if !fed.cluster().contains(&from) {
                    if let Ok((_, eff)) = fed.propose(LogCmd::AddServer(from)) {
                        effects.extend(eff);
                    }
                }
                self.run_fed_effects(ctx, effects);
                ctx.send(
                    from,
                    HierMsg::JoinAck {
                        accepted: true,
                        leader: Some(self.cfg.id),
                    },
                );
            }
            Some(fed) => {
                let hint = fed.leader_hint().filter(|&l| l != self.cfg.id);
                ctx.send(
                    from,
                    HierMsg::JoinAck {
                        accepted: false,
                        leader: hint,
                    },
                );
            }
            None => {
                ctx.send(
                    from,
                    HierMsg::JoinAck {
                        accepted: false,
                        leader: None,
                    },
                );
            }
        }
    }

    fn on_join_ack(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        accepted: bool,
        leader: Option<NodeId>,
    ) {
        if self.fed.is_some() || !self.sub.is_leader() {
            return;
        }
        if accepted {
            self.join_ack_at = Some(ctx.now());
            self.activate_fed(ctx);
        } else if let Some(l) = leader {
            // Redirect immediately toward the hinted leader; the hint is
            // one-shot (see `send_join`).
            self.join_target = Some(l);
            self.send_join(ctx);
        }
    }

    fn on_config_tick(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        self.config_tick_armed = false;
        if !self.sub.is_leader() {
            return;
        }
        // An elastic topology can shed a seat holder entirely (Depart, or
        // a retired group): the departed peer is in nobody's roster, so
        // the JoinRequest `replaces` path never retires its seat. The
        // FedAvg leader prunes config members who are in no subgroup of
        // the adopted layout, before dead seats cost the layer its quorum.
        if self.cfg.elastic.is_some() && self.topology.version > 0 {
            if let Some(fed) = self.fed.as_mut() {
                if fed.is_leader() {
                    let ghosts: Vec<NodeId> = fed
                        .cluster()
                        .iter()
                        .copied()
                        .filter(|&m| m != self.cfg.id && self.topology.group_of(m).is_none())
                        .collect();
                    let mut effects = Vec::new();
                    for g in ghosts {
                        if let Ok((_, eff)) = fed.propose(LogCmd::RemoveServer(g)) {
                            effects.extend(eff);
                        }
                    }
                    self.run_fed_effects(ctx, effects);
                }
            }
        }
        if let Some(fed) = self.fed.as_ref() {
            // A replacement leader's counter restarts at zero while its
            // followers already hold the previous leader's higher-versioned
            // configs; always advance past everything seen so the commit is
            // not rejected as stale.
            self.config_version = self.config_version.max(self.fed_config.version) + 1;
            let cmd = SubCmd::FedConfig(FedConfig {
                founding: self.fed_config.founding.clone(),
                current: fed.cluster().to_vec(),
                engine: self.fed_config.engine,
                combiner: self.fed_config.combiner,
                version: self.config_version,
            });
            if let Ok((_, eff)) = self.sub.propose(LogCmd::App(cmd)) {
                self.run_sub_effects(ctx, eff);
            }
        }
        // Re-commit the adopted layout into the subgroup log so followers
        // that missed the best-effort sync push still converge (same
        // durable path as the FedConfig re-commit above).
        if self.cfg.elastic.is_some() && self.topology.version > self.topology_commit_version {
            let cmd = SubCmd::Topology(self.topology.clone());
            if let Ok((_, eff)) = self.sub.propose(LogCmd::App(cmd)) {
                self.topology_commit_version = self.topology.version;
                self.run_sub_effects(ctx, eff);
            }
        }
        if self.byz_bogus_roster {
            // Byzantine leader fault: replicate a roster naming a phantom
            // member outside the configured subgroup. Honest followers
            // reject it in `apply_sub_entry`.
            self.members_version = self.members_version.max(self.sub_members.version) + 1;
            let mut members = self.sub_members.members.clone();
            members.push(NodeId(u32::MAX));
            let roster = SubMembers {
                members,
                version: self.members_version,
            };
            if let Ok((_, eff)) = self.sub.propose(LogCmd::App(SubCmd::Members(roster))) {
                self.run_sub_effects(ctx, eff);
            }
        }
        self.config_tick_armed = true;
        ctx.set_timer(self.cfg.config_commit_interval, TIMER_CONFIG_TICK);
    }
}

impl Actor<HierMsg> for HierActor {
    fn on_start(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        if self.pending_rendezvous {
            // An unplaced joiner has no subgroup to run Raft for; it polls
            // for a rendezvous assignment instead and transitions when the
            // committed layout arrives.
            self.send_rendezvous(ctx);
            return;
        }
        // Restored from a compacted durable log: the snapshot is the state
        // the dropped prefix built; the retained tail re-applies on top.
        if let Some(blob) = self.sub.snapshot().map(|(_, _, _, blob)| blob.clone()) {
            self.restore_sub_snapshot(ctx, &blob);
        }
        let eff = self.sub.start();
        self.run_sub_effects(ctx, eff);
        if let Some(fed) = self.fed.as_mut() {
            // Restored from durable state with a FedAvg-layer seat: rejoin
            // that layer as a follower. No genesis boost — the cluster this
            // peer restarts into already exists.
            let eff = fed.start();
            self.fed_active_at = Some(ctx.now());
            self.restore_stored_fed_snapshot(ctx);
            self.run_fed_effects(ctx, eff);
        } else if self.cfg.is_founding() {
            // Shorten the genesis election so founding members win their
            // subgroup's first election (see `new`).
            let boost = SimDuration::from_nanos((self.cfg.t.as_nanos() / 20).max(1));
            Self::arm(ctx, &mut self.sub_election_timer, boost, TIMER_SUB_ELECTION);
            self.activate_fed(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Transport<HierMsg>, from: NodeId, msg: HierMsg) {
        if self.cfg.subgroup.contains(&from) {
            self.note_heard_from(ctx, from);
        }
        match msg {
            HierMsg::Sub(m) => {
                if self.cfg.elastic.is_some()
                    && (self.pending_rendezvous || !self.cfg.subgroup.contains(&from))
                {
                    // Traffic from a retired layout (or to a peer not yet
                    // placed): don't feed a foreign Raft instance — help
                    // the stale sender catch up instead.
                    if self.topology.version > 0 {
                        ctx.send(
                            from,
                            HierMsg::TopologySync {
                                topology: self.topology.clone(),
                            },
                        );
                    }
                    return;
                }
                let eff = self.sub.handle(from, m);
                self.run_sub_effects(ctx, eff);
            }
            HierMsg::Fed(m) => {
                if self.fed.is_none() {
                    // The FedAvg leader can start replicating to us before
                    // our JoinAck arrives; activate lazily if we are the
                    // legitimate subgroup representative.
                    if self.sub.is_leader() {
                        self.activate_fed(ctx);
                    } else {
                        return; // stray traffic for a role we lost
                    }
                }
                // `activate_fed` just installed the node (or it already
                // existed); if activation declined, drop the message.
                let Some(fed) = self.fed.as_mut() else { return };
                let eff = fed.handle(from, m);
                self.run_fed_effects(ctx, eff);
            }
            HierMsg::JoinRequest {
                from: joiner,
                replaces,
            } => self.on_join_request(ctx, joiner, replaces),
            HierMsg::JoinAck { accepted, leader } => self.on_join_ack(ctx, accepted, leader),
            HierMsg::Probe { seq } => ctx.send(from, HierMsg::ProbeAck { seq }),
            // The heard_from above already did all the work an ack carries.
            HierMsg::ProbeAck { .. } => {}
            // We are demonstrably alive: refute the eviction. The ack
            // revives us in the sender's detector, which re-admits us.
            HierMsg::Evict { .. } => ctx.send(from, HierMsg::ProbeAck { seq: 0 }),
            HierMsg::ConfigEcho { version, digest } => {
                self.on_config_echo(ctx, from, version, digest)
            }
            HierMsg::Rendezvous { from: peer } => self.on_rendezvous(ctx, peer),
            HierMsg::RendezvousAssign {
                accepted,
                leader,
                topology,
            } => self.on_rendezvous_assign(ctx, accepted, leader, topology),
            HierMsg::TopologySync { topology } => {
                if self.cfg.elastic.is_some() {
                    self.adopt_topology(ctx, &topology);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport<HierMsg>, tag: u64) {
        match tag {
            TIMER_SUB_ELECTION => {
                self.sub_election_timer = None;
                let eff = self.sub.on_election_timeout();
                self.run_sub_effects(ctx, eff);
            }
            TIMER_SUB_HEARTBEAT => {
                self.sub_heartbeat_timer = None;
                let eff = self.sub.on_heartbeat_timeout();
                self.run_sub_effects(ctx, eff);
            }
            TIMER_FED_ELECTION => {
                self.fed_election_timer = None;
                if let Some(fed) = self.fed.as_mut() {
                    let eff = fed.on_election_timeout();
                    self.run_fed_effects(ctx, eff);
                }
            }
            TIMER_FED_HEARTBEAT => {
                self.fed_heartbeat_timer = None;
                if let Some(fed) = self.fed.as_mut() {
                    let eff = fed.on_heartbeat_timeout();
                    self.run_fed_effects(ctx, eff);
                }
            }
            TIMER_CONFIG_TICK => self.on_config_tick(ctx),
            TIMER_PROBE_TICK => self.on_probe_tick(ctx),
            TIMER_RENDEZVOUS_TICK => {
                self.rendezvous_timer = None;
                self.send_rendezvous(ctx);
            }
            TIMER_JOIN_TICK => {
                self.join_tick_timer = None;
                if self.fed.is_none() && self.sub.is_leader() {
                    // Round-robin to the next candidate unless we have a
                    // confirmed leader hint.
                    self.send_join(ctx);
                    Self::arm(
                        ctx,
                        &mut self.join_tick_timer,
                        self.cfg.join_poll_interval,
                        TIMER_JOIN_TICK,
                    );
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        self.sub_election_timer = None;
        self.sub_heartbeat_timer = None;
        self.fed_election_timer = None;
        self.fed_heartbeat_timer = None;
        self.join_tick_timer = None;
        self.probe_tick_timer = None;
        self.rendezvous_timer = None;
        self.config_tick_armed = false;
    }

    fn on_restart(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        if self.pending_rendezvous {
            // Still unplaced: resume polling for an assignment.
            self.send_rendezvous(ctx);
            return;
        }
        // Raft state is durable: if this peer held a FedAvg-layer seat, it
        // rejoins that layer as a follower. If its subgroup elected a
        // replacement in the meantime, the replacement's join commits a
        // RemoveServer for this peer and the ConfigChanged handler retires
        // it; until then its vote still counts toward FedAvg-layer quorum
        // (matching hashicorp/raft's restart semantics).
        self.detector.reset_all(ctx.now());
        if let Some(fed) = self.fed.as_mut() {
            let eff = fed.handle_restart();
            self.run_fed_effects(ctx, eff);
        }
        let eff = self.sub.handle_restart();
        self.run_sub_effects(ctx, eff);
    }
}
