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
use p2pfl_raft::{
    AppEffect, Command, Effect, Entry, LogCmd, RaftConfig, RaftDriver, RaftHost, RaftNode,
    RaftStorage,
};
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

/// The round markers in a FedAvg-layer application history, in order
/// (topology commands filtered out). The last one and the adopted topology
/// are what that log folds to.
fn rounds(applied: &[FedCmd]) -> impl DoubleEndedIterator<Item = u64> + '_ {
    applied.iter().filter_map(|c| match c {
        FedCmd::Round(r) => Some(*r),
        FedCmd::Topology(_) => None,
    })
}

/// The subgroup and FedAvg-layer election/heartbeat timer tags, and the
/// salts of their timeout streams.
const SUB_TIMERS: [u64; 2] = [1, 2];
const FED_TIMERS: [u64; 2] = [3, 4];
const SUB_SALT: u64 = 0x5ab;
const FED_SALT: u64 = 0xfed;
const TIMER_CONFIG_TICK: u64 = 5;
const TIMER_JOIN_TICK: u64 = 6;
const TIMER_PROBE_TICK: u64 = 7;
const TIMER_RENDEZVOUS_TICK: u64 = 8;

/// A peer in the two-layer Raft deployment.
pub struct HierActor {
    cfg: HierPeerConfig,
    /// The subgroup Raft seat, always held.
    sub: RaftDriver<SubCmd, HierMsg>,
    /// The FedAvg-layer Raft seat, held while this peer represents its
    /// subgroup there.
    fed: RaftDriver<FedCmd, HierMsg>,
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

    /// The Raft configuration of one of this peer's seats: `cluster`, and
    /// the layer's `salt` separating its timeout stream from the other's.
    fn raft_config(cfg: &HierPeerConfig, cluster: Vec<NodeId>, salt: u64) -> RaftConfig {
        RaftConfig {
            id: cfg.id,
            initial_cluster: cluster,
            election_timeout_min: cfg.t,
            election_timeout_max: cfg.t.saturating_mul(2),
            heartbeat_interval: cfg.heartbeat(),
            seed: cfg.seed ^ salt,
            pre_vote: true,
        }
    }

    fn build(
        cfg: HierPeerConfig,
        sub_storage: Option<Box<dyn RaftStorage<SubCmd>>>,
        fed_storage: Option<Box<dyn RaftStorage<FedCmd>>>,
    ) -> Self {
        let sub = RaftDriver::new(
            Self::raft_config(&cfg, cfg.subgroup.clone(), SUB_SALT),
            sub_storage,
            SUB_TIMERS,
            HierMsg::Sub,
            true,
        );
        // A stored FedAvg-layer record means this peer held a seat when it
        // went down: it takes that seat again.
        let fed = RaftDriver::new(
            Self::raft_config(&cfg, cfg.founding_fed.clone(), FED_SALT),
            fed_storage,
            FED_TIMERS,
            HierMsg::Fed,
            false,
        );
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
            cfg.suspect_after(),
            cfg.dead_after(),
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
        self.sub.node().is_leader()
    }

    /// Whether this peer currently leads the FedAvg layer.
    pub fn is_fed_leader(&self) -> bool {
        self.fed.seated().is_some_and(RaftNode::is_leader)
    }

    /// Whether this peer's FedAvg-layer Raft instance is active.
    pub fn is_fed_member(&self) -> bool {
        self.fed.seated().is_some()
    }

    /// The subgroup Raft state.
    pub fn sub_raft(&self) -> &RaftNode<SubCmd> {
        self.sub.node()
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
        self.fed.seated()
    }

    /// The round markers applied through the FedAvg-layer log, in order
    /// (topology commands filtered out).
    pub fn fed_rounds_applied(&self) -> Vec<u64> {
        rounds(&self.fed_cmds_applied).collect()
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
        self.sub
            .verify_storage_roundtrip()
            .map_err(|e| format!("sub layer: {e}"))?;
        self.fed
            .verify_storage_roundtrip()
            .map_err(|e| format!("fed layer: {e}"))
    }

    /// Proposes an application command on the FedAvg layer (leader only).
    pub fn propose_fed(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        cmd: FedCmd,
    ) -> Result<(), &'static str> {
        let fed = self.fed.seated_mut().ok_or("not a FedAvg-layer member")?;
        let (_, eff) = fed
            .propose(LogCmd::App(cmd))
            .map_err(|_| "not the FedAvg leader")?;
        self.run_effects(ctx, eff);
        Ok(())
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
        let cmd = LogCmd::App(SubCmd::App(cmd));
        let proposed = self.sub.node_mut().propose(cmd);
        let (_, eff) = proposed.map_err(|_| "not the subgroup leader")?;
        self.run_effects(ctx, eff);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raft seats: both layers run through one driver each
    // ------------------------------------------------------------------

    fn arm(ctx: &mut dyn Transport<HierMsg>, slot: &mut Option<TimerId>, d: SimDuration, tag: u64) {
        if let Some(t) = slot.take() {
            ctx.cancel_timer(t);
        }
        *slot = Some(ctx.set_timer(d, tag));
    }

    /// Starts the seated FedAvg-layer node. One recovered from a compacted
    /// durable log starts from the snapshot the dropped prefix built; the
    /// retained tail re-applies on top.
    fn start_fed(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        let eff = self.fed.with_seat(RaftNode::start);
        self.fed_active_at = Some(ctx.now());
        if let Some(blob) = stored_snapshot(self.fed.node()) {
            self.restore_fed_snapshot(ctx, &blob);
        }
        self.run_effects(ctx, eff);
    }

    /// Shortens the subgroup seat's first election timeout, so this peer
    /// wins its subgroup's first election (as founding members do at
    /// genesis).
    fn boost_sub_election(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        let boost = SimDuration::from_nanos((self.cfg.t.as_nanos() / 20).max(1));
        self.run_effects(ctx, vec![Effect::<SubCmd>::ArmElectionTimer(boost)]);
    }

    /// The subgroup log was replaced by a snapshot (shipped by the leader
    /// or recovered from disk): adopt what it folds to, exactly as if the
    /// compacted entries had been applied. An undecodable blob leaves the
    /// state as it is; the log above the snapshot still applies.
    fn restore_sub_snapshot(&mut self, ctx: &mut dyn Transport<HierMsg>, blob: &[u8]) {
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
        let Ok(snap) = codec::from_bytes::<FedSnapshot>(blob) else {
            return;
        };
        if let Some(r) = snap
            .last_round
            .filter(|r| Some(*r) != rounds(&self.fed_cmds_applied).next_back())
        {
            self.fed_cmds_applied.push(FedCmd::Round(r));
        }
        self.adopt_topology(ctx, &snap.topology);
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
        if self.is_fed_member()
            && !self.is_sub_leader()
            && !self.fed_config.current.contains(&self.cfg.id)
        {
            self.fed.vacate(ctx);
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
            LogCmd::App(SubCmd::Topology(t)) => self.adopt_topology(ctx, t),
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
        let roster = |gid: u64| {
            let group = self.topology.group(gid);
            group.map(|g| g.members.clone()).unwrap_or_default()
        };
        let mut affected: BTreeSet<NodeId> = match cmd {
            TopologyCmd::Split { gid, .. } => roster(*gid).into_iter().collect(),
            TopologyCmd::Merge { into, from } => {
                roster(*into).into_iter().chain(roster(*from)).collect()
            }
            TopologyCmd::Admit { peer, gid } => roster(*gid).into_iter().chain([*peer]).collect(),
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
            self.cfg.suspect_after(),
            self.cfg.dead_after(),
            ctx.now(),
        );
        // A fresh Raft instance for the new roster. The timeout stream is
        // domain-separated by layout version and group id so sibling
        // instances born from one split never share an RNG stream. The
        // retired roster's durable log describes a dissolved cluster;
        // re-seeding durability for the new lineage is future work, so the
        // fresh instance runs memory-only.
        let mut raft_cfg = Self::raft_config(&self.cfg, self.cfg.subgroup.clone(), SUB_SALT);
        raft_cfg.seed ^= (self.topology.version << 20) ^ group.gid.wrapping_mul(0x9e37_79b9);
        self.sub.vacate(ctx);
        self.sub = RaftDriver::new(raft_cfg, None, SUB_TIMERS, HierMsg::Sub, true);
        self.topology_commit_version = 0;
        let eff = self.sub.with_seat(RaftNode::start);
        self.run_effects(ctx, eff);
        // Deterministic quick election: the lowest id in the new roster
        // gets a genesis-style boosted timeout (mirrors founding startup).
        if group.members.first() == Some(&self.cfg.id) {
            self.boost_sub_election(ctx);
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
        let Some(target) = self.poll_target(self.cfg.founding_fed.clone()) else {
            return;
        };
        ctx.send(target, HierMsg::Rendezvous { from: self.cfg.id });
        let poll = self.cfg.join_poll_interval;
        Self::arm(ctx, &mut self.rendezvous_timer, poll, TIMER_RENDEZVOUS_TICK);
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
        } else {
            let leader = self.fed_leader_hint();
            ctx.send(
                peer,
                HierMsg::RendezvousAssign {
                    accepted: false,
                    leader,
                    topology: None,
                },
            );
        }
    }

    /// The FedAvg leader this peer's seat knows of, other than itself.
    fn fed_leader_hint(&self) -> Option<NodeId> {
        let hint = self.fed.seated().and_then(RaftNode::leader_hint);
        hint.filter(|&l| l != self.cfg.id)
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
            if let Some(t) = topology.filter(|t| t.group_of(self.cfg.id).is_some()) {
                self.join_ack_at = Some(ctx.now());
                // Adoption clears `pending_rendezvous` and transitions into
                // the assigned subgroup.
                self.adopt_topology(ctx, &t);
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
        // A digest differing from that of a version we applied ourselves
        // is proof the sender saw (or fabricated) a conflicting config. A
        // version we have not applied yet says nothing: keeping only our
        // own applied digests is enough for detection, because the
        // equivocator must eventually disagree with some peer that has.
        let conflicts = self
            .echo_digests
            .get(&version)
            .is_some_and(|&d| d != digest);
        if conflicts && self.cfg.subgroup.contains(&from) {
            self.equivocations_detected += 1;
            self.convict(ctx, from);
        }
    }

    /// Marks a peer as Byzantine: evicts it from the aggregation roster
    /// (when leading) and bars the liveness path from ever re-admitting
    /// it. Shares the PR-5 supervision path — the eviction is an ordinary
    /// replicated roster change. This is also the entry point for a
    /// supervisor that detected Byzantine behavior out-of-band (e.g. a
    /// commitment-check failure in the aggregation layer).
    pub fn convict(&mut self, ctx: &mut dyn Transport<HierMsg>, peer: NodeId) {
        self.byzantine_peers.insert(peer);
        if self.is_sub_leader() {
            self.propose_roster_change(ctx, peer, true);
            ctx.send(
                peer,
                HierMsg::Evict {
                    reason: "equivocation: conflicting config echo".into(),
                },
            );
        }
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
        if !self.is_sub_leader() || member == self.cfg.id {
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
            .node_mut()
            .propose(LogCmd::App(SubCmd::Members(roster.clone())))
        {
            self.proposed_roster = Some(roster);
            self.roster_changes.push((ctx.now(), member, evict));
            self.run_effects(ctx, eff);
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
            && self.is_sub_leader()
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
        if !self.is_sub_leader() {
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
        let every = self.cfg.probe_interval();
        Self::arm(ctx, &mut self.probe_tick_timer, every, TIMER_PROBE_TICK);
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
        let every = self.cfg.probe_interval();
        Self::arm(ctx, &mut self.probe_tick_timer, every, TIMER_PROBE_TICK);
        // A seatless leader polls for a seat. After an elastic merge the
        // group can hold two FedAvg-layer seats: a leader that already has
        // one sends a single JoinRequest (no polling) asking the FedAvg
        // leader to retire the other representative.
        let seated = self.is_fed_member();
        if !seated || self.replaces().is_some() {
            self.join_target = None;
            self.send_join(ctx);
        }
        if !seated {
            let poll = self.cfg.join_poll_interval;
            Self::arm(ctx, &mut self.join_tick_timer, poll, TIMER_JOIN_TICK);
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

    /// The next peer a join or rendezvous poll goes to: the leader hint,
    /// if one is pending, else the next of the FedAvg-config members and
    /// `extra` in id order. A hint is consumed by the send: if the hinted
    /// peer is itself dead (e.g. it was the crashed FedAvg leader), the
    /// next poll falls back to round-robin instead of retrying the corpse
    /// forever.
    fn poll_target(&mut self, extra: Vec<NodeId>) -> Option<NodeId> {
        let current = self.fed_config.current.iter().copied();
        let mut candidates: Vec<NodeId> =
            current.chain(extra).filter(|&m| m != self.cfg.id).collect();
        candidates.sort_by_key(|m| m.0);
        candidates.dedup();
        if candidates.is_empty() {
            return None;
        }
        Some(self.join_target.take().unwrap_or_else(|| {
            self.join_round_robin += 1;
            candidates[(self.join_round_robin - 1) % candidates.len()]
        }))
    }

    fn send_join(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        // Poll the configured FedAvg members, but also this peer's own
        // subgroup: the replicated fed config can be arbitrarily stale
        // (e.g. still the founding set after several failovers), while the
        // previous representative of this very subgroup — who can redirect
        // to the live FedAvg leader — is always a subgroup peer.
        let Some(target) = self.poll_target(self.cfg.subgroup.clone()) else {
            return;
        };
        ctx.send(
            target,
            HierMsg::JoinRequest {
                from: self.cfg.id,
                replaces: self.replaces(),
            },
        );
    }

    fn activate_fed(&mut self, ctx: &mut dyn Transport<HierMsg>) {
        if self.is_fed_member() {
            return;
        }
        // The seat resumes from whatever a previous one here persisted.
        self.fed.seat(Self::raft_config(
            &self.cfg,
            self.fed_config.founding.clone(),
            FED_SALT,
        ));
        self.start_fed(ctx);
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
        let Some(fed) = self.fed.seated_mut().filter(|f| f.is_leader()) else {
            let leader = self.fed_leader_hint();
            ctx.send(
                from,
                HierMsg::JoinAck {
                    accepted: false,
                    leader,
                },
            );
            return;
        };
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
        self.run_effects(ctx, effects);
        ctx.send(
            from,
            HierMsg::JoinAck {
                accepted: true,
                leader: Some(self.cfg.id),
            },
        );
    }

    fn on_join_ack(
        &mut self,
        ctx: &mut dyn Transport<HierMsg>,
        accepted: bool,
        leader: Option<NodeId>,
    ) {
        if self.is_fed_member() || !self.is_sub_leader() {
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
        if !self.is_sub_leader() {
            return;
        }
        // An elastic topology can shed a seat holder entirely (Depart, or
        // a retired group): the departed peer is in nobody's roster, so
        // the JoinRequest `replaces` path never retires its seat. The
        // FedAvg leader prunes config members who are in no subgroup of
        // the adopted layout, before dead seats cost the layer its quorum.
        let elastic = self.cfg.elastic.is_some() && self.topology.version > 0;
        if let Some(fed) = self.fed.seated_mut().filter(|f| elastic && f.is_leader()) {
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
            self.run_effects(ctx, effects);
        }
        if let Some(fed) = self.fed.seated() {
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
            if let Ok((_, eff)) = self.sub.node_mut().propose(LogCmd::App(cmd)) {
                self.run_effects(ctx, eff);
            }
        }
        // Re-commit the adopted layout into the subgroup log so followers
        // that missed the best-effort sync push still converge (same
        // durable path as the FedConfig re-commit above).
        if self.cfg.elastic.is_some() && self.topology.version > self.topology_commit_version {
            let cmd = SubCmd::Topology(self.topology.clone());
            if let Ok((_, eff)) = self.sub.node_mut().propose(LogCmd::App(cmd)) {
                self.topology_commit_version = self.topology.version;
                self.run_effects(ctx, eff);
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
            if let Ok((_, eff)) = self
                .sub
                .node_mut()
                .propose(LogCmd::App(SubCmd::Members(roster)))
            {
                self.run_effects(ctx, eff);
            }
        }
        self.config_tick_armed = true;
        ctx.set_timer(self.cfg.config_commit_interval, TIMER_CONFIG_TICK);
    }
}

/// The contents of the snapshot a node was recovered with, if any.
fn stored_snapshot<C: Command>(node: &RaftNode<C>) -> Option<Vec<u8>> {
    node.snapshot().map(|(_, _, _, blob)| blob.clone())
}

impl RaftHost<SubCmd, HierMsg> for HierActor {
    fn driver(&mut self) -> &mut RaftDriver<SubCmd, HierMsg> {
        &mut self.sub
    }

    fn apply_effect(&mut self, ctx: &mut dyn Transport<HierMsg>, effect: AppEffect<SubCmd>) {
        match effect {
            AppEffect::Commit(entry) => {
                self.apply_sub_entry(ctx, &entry);
                self.sub
                    .checkpoint(entry.index, entry.term, CHECKPOINT_EVERY, || {
                        codec::to_bytes(&SubSnapshot {
                            fed_config: self.fed_config.clone(),
                            sub_members: self.sub_members.clone(),
                            topology: self.topology.clone(),
                        })
                    });
            }
            AppEffect::BecameLeader(_) => {
                self.sub_leader_history.push(ctx.now());
                self.on_became_sub_leader(ctx);
            }
            AppEffect::RestoreSnapshot(blob) => self.restore_sub_snapshot(ctx, &blob),
            AppEffect::SteppedDown(_) | AppEffect::ConfigChanged(_) => {}
        }
    }
}

impl RaftHost<FedCmd, HierMsg> for HierActor {
    fn driver(&mut self) -> &mut RaftDriver<FedCmd, HierMsg> {
        &mut self.fed
    }

    fn apply_effect(&mut self, ctx: &mut dyn Transport<HierMsg>, effect: AppEffect<FedCmd>) {
        match effect {
            AppEffect::Commit(Entry { index, term, cmd }) => {
                if let LogCmd::App(v) = cmd {
                    if let FedCmd::Topology(cmd) = &v {
                        self.apply_fed_topology(ctx, cmd);
                    }
                    self.fed_cmds_applied.push(v);
                }
                self.fed.checkpoint(index, term, CHECKPOINT_EVERY, || {
                    codec::to_bytes(&FedSnapshot {
                        last_round: rounds(&self.fed_cmds_applied).next_back(),
                        topology: self.topology.clone(),
                    })
                });
            }
            AppEffect::BecameLeader(_) => self.fed_leader_history.push(ctx.now()),
            AppEffect::ConfigChanged(cluster) => {
                // A replicated membership change removed this peer from
                // the FedAvg layer (its subgroup elected a replacement
                // while it was down): retire gracefully.
                if !cluster.contains(&self.cfg.id) {
                    self.fed.leave();
                }
            }
            AppEffect::RestoreSnapshot(blob) => self.restore_fed_snapshot(ctx, &blob),
            AppEffect::SteppedDown(_) => {}
        }
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
        if let Some(blob) = stored_snapshot(self.sub.node()) {
            self.restore_sub_snapshot(ctx, &blob);
        }
        let eff = self.sub.with_seat(RaftNode::start);
        self.run_effects(ctx, eff);
        if self.is_fed_member() {
            // Restored from durable state with a FedAvg-layer seat: rejoin
            // that layer as a follower. No genesis boost — the cluster this
            // peer restarts into already exists.
            self.start_fed(ctx);
        } else if self.cfg.is_founding() {
            // Shorten the genesis election so founding members win their
            // subgroup's first election (see `new`).
            self.boost_sub_election(ctx);
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
                let eff = self.sub.with_seat(|n| n.handle(from, m));
                self.run_effects(ctx, eff);
            }
            HierMsg::Fed(m) => {
                if !self.is_fed_member() {
                    // The FedAvg leader can start replicating to us before
                    // our JoinAck arrives; activate lazily if we are the
                    // legitimate subgroup representative.
                    if self.is_sub_leader() {
                        self.activate_fed(ctx);
                    } else {
                        return; // stray traffic for a role we lost
                    }
                }
                let eff = self.fed.with_seat(|n| n.handle(from, m));
                self.run_effects(ctx, eff);
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
        if RaftHost::<SubCmd, _>::fire(self, ctx, tag)
            || RaftHost::<FedCmd, _>::fire(self, ctx, tag)
        {
            return;
        }
        match tag {
            TIMER_CONFIG_TICK => self.on_config_tick(ctx),
            TIMER_PROBE_TICK => self.on_probe_tick(ctx),
            TIMER_RENDEZVOUS_TICK => {
                self.rendezvous_timer = None;
                self.send_rendezvous(ctx);
            }
            TIMER_JOIN_TICK => {
                self.join_tick_timer = None;
                if !self.is_fed_member() && self.is_sub_leader() {
                    // Round-robin to the next candidate unless we have a
                    // confirmed leader hint.
                    self.send_join(ctx);
                    let poll = self.cfg.join_poll_interval;
                    Self::arm(ctx, &mut self.join_tick_timer, poll, TIMER_JOIN_TICK);
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        self.sub.drop_timers();
        self.fed.drop_timers();
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
        let eff = self.fed.with_seat(RaftNode::handle_restart);
        self.run_effects(ctx, eff);
        let eff = self.sub.with_seat(RaftNode::handle_restart);
        self.run_effects(ctx, eff);
    }
}
