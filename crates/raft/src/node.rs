//! The sans-IO Raft state machine.
//!
//! [`RaftNode`] contains the complete protocol logic — leader election with
//! the up-to-date-log restriction, log replication with conflict
//! resolution, the current-term-only commit rule, and single-server
//! membership changes — but performs no IO. Inputs are
//! [`RaftNode::handle`], [`RaftNode::on_election_timeout`],
//! [`RaftNode::on_heartbeat_timeout`] and [`RaftNode::propose`]; outputs
//! are [`Effect`]s that a driver (see [`crate::driver`]) turns into
//! messages and timers. This makes every protocol path unit-testable
//! without a network.

use crate::log::{Entry, RaftLog};
use crate::message::RaftMsg;
use crate::storage::{PersistOp, PersistentState};
use crate::types::{Command, LogCmd, LogIndex, Role, Term};
use p2pfl_simnet::{NodeId, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Static configuration of one Raft participant.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// This node's id.
    pub id: NodeId,
    /// The initial cluster membership (including this node, normally).
    pub initial_cluster: Vec<NodeId>,
    /// Lower bound of the randomized election timeout (the paper's `T`).
    pub election_timeout_min: SimDuration,
    /// Upper bound of the randomized election timeout (the paper's `2T`).
    pub election_timeout_max: SimDuration,
    /// Leader heartbeat period; must be well below the election timeout.
    pub heartbeat_interval: SimDuration,
    /// Seed for timeout randomization.
    pub seed: u64,
    /// Whether elections are preceded by a Pre-Vote round (Raft
    /// dissertation §9.6). On by default; disable only to demonstrate the
    /// disruptive-rejoin livelock it prevents (see the ablation benchmark
    /// `abl_prevote`).
    pub pre_vote: bool,
}

impl RaftConfig {
    /// The paper's timeout scheme: election timeouts uniform in `[T, 2T]`
    /// and heartbeats every `T/5` (comfortably under the broadcast-time ≪
    /// election-timeout requirement with the 15 ms link delay).
    pub fn paper(id: NodeId, cluster: Vec<NodeId>, t: SimDuration, seed: u64) -> Self {
        RaftConfig {
            id,
            initial_cluster: cluster,
            election_timeout_min: t,
            election_timeout_max: t.saturating_mul(2),
            heartbeat_interval: SimDuration::from_nanos((t.as_nanos() / 5).max(1)),
            seed,
            pre_vote: true,
        }
    }
}

/// Side effects requested by the protocol logic.
#[derive(Debug, Clone)]
pub enum Effect<C> {
    /// Send a message to a peer.
    Send(NodeId, RaftMsg<C>),
    /// (Re)arm the election timer with this delay, cancelling any previous
    /// election timer.
    ArmElectionTimer(SimDuration),
    /// (Re)arm the leader heartbeat timer.
    ArmHeartbeatTimer(SimDuration),
    /// An entry became committed; apply it to the state machine.
    Commit(Entry<C>),
    /// This node won an election for `Term`.
    BecameLeader(Term),
    /// This node stepped down from leadership in `Term`.
    SteppedDown(Term),
    /// A snapshot was installed: the state machine must be reset to this
    /// blob (which covers everything up to the accompanying log index).
    RestoreSnapshot(Vec<u8>),
    /// The cluster configuration changed (by an appended config entry).
    ConfigChanged(Vec<NodeId>),
    /// Persistent state changed: the driver must record this op on stable
    /// storage. Emitted *before* any [`Effect::Send`] that depends on it
    /// within the same batch, so processing effects in order yields Raft's
    /// required persist-before-reply discipline.
    Persist(PersistOp<C>),
}

/// Error returned when proposing to a non-leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// The most recently observed leader, if any.
    pub leader_hint: Option<NodeId>,
}

/// The Raft protocol state machine for one server.
pub struct RaftNode<C: Command> {
    cfg: RaftConfig,
    role: Role,
    current_term: Term,
    voted_for: Option<NodeId>,
    log: RaftLog<C>,
    commit_index: LogIndex,
    last_applied: LogIndex,
    cluster: Vec<NodeId>,
    leader_hint: Option<NodeId>,
    votes: HashSet<NodeId>,
    pre_votes: HashSet<NodeId>,
    next_index: HashMap<NodeId, LogIndex>,
    match_index: HashMap<NodeId, LogIndex>,
    // (last_index, last_term, cluster at snapshot, app blob)
    snapshot: Option<(LogIndex, Term, Vec<NodeId>, Vec<u8>)>,
    rng: StdRng,
}

impl<C: Command> RaftNode<C> {
    /// Creates a node in the follower state.
    pub fn new(cfg: RaftConfig) -> Self {
        assert!(
            cfg.election_timeout_min <= cfg.election_timeout_max,
            "inverted election timeout bounds"
        );
        assert!(
            cfg.heartbeat_interval < cfg.election_timeout_min,
            "heartbeat must be shorter than the election timeout"
        );
        let cluster = cfg.initial_cluster.clone();
        let rng = StdRng::seed_from_u64(cfg.seed ^ (cfg.id.0 as u64).rotate_left(17));
        RaftNode {
            cfg,
            role: Role::Follower,
            current_term: 0,
            voted_for: None,
            log: RaftLog::new(),
            commit_index: 0,
            last_applied: 0,
            cluster,
            leader_hint: None,
            votes: HashSet::new(),
            pre_votes: HashSet::new(),
            next_index: HashMap::new(),
            match_index: HashMap::new(),
            snapshot: None,
            rng,
        }
    }

    /// Rebuilds a node from storage-recovered persistent state, as a
    /// follower. `commit_index`/`last_applied` restart at the snapshot
    /// boundary (commitment is volatile in Raft); entries above it are
    /// re-committed — and re-applied to the driver's fresh state machine —
    /// once a leader re-establishes their commitment.
    pub fn restore(cfg: RaftConfig, state: PersistentState<C>) -> Self {
        let mut node = RaftNode::new(cfg);
        node.current_term = state.term;
        node.voted_for = state.voted_for;
        node.log = state.log;
        node.snapshot = state.snapshot;
        node.commit_index = node.log.snapshot_index();
        node.last_applied = node.log.snapshot_index();
        node.cluster = node.compute_cluster();
        node
    }

    fn persist_hard_state(&self) -> Effect<C> {
        Effect::Persist(PersistOp::HardState {
            term: self.current_term,
            voted_for: self.voted_for,
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.current_term
    }

    /// Whether this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The last leader this node heard from (itself when leading).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// Current cluster membership (initial config plus applied changes).
    pub fn cluster(&self) -> &[NodeId] {
        &self.cluster
    }

    /// Highest committed log index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// Read access to the log.
    pub fn log(&self) -> &RaftLog<C> {
        &self.log
    }

    /// The local snapshot, if any: `(last_index, last_term, cluster, blob)`.
    pub fn snapshot(&self) -> Option<&(LogIndex, Term, Vec<NodeId>, Vec<u8>)> {
        self.snapshot.as_ref()
    }

    /// The candidate this node voted for in the current term, if any.
    /// Inspection accessor for the invariant checker (`p2pfl-check`).
    pub fn voted_for(&self) -> Option<NodeId> {
        self.voted_for
    }

    /// Checks that this node's persistent portion (term, vote, log,
    /// snapshot) matches a [`PersistentState`] — the StorageRoundTrip
    /// oracle: a node restored from `st` would be bisimilar to this one up
    /// to volatile state (role, commit index, leadership). Returns a
    /// human-readable description of the first mismatch.
    pub fn matches_persistent(&self, st: &PersistentState<C>) -> Result<(), String>
    where
        C: PartialEq + std::fmt::Debug,
    {
        if st.term != self.current_term {
            return Err(format!(
                "term mismatch: storage {} vs live {}",
                st.term, self.current_term
            ));
        }
        if st.voted_for != self.voted_for {
            return Err(format!(
                "voted_for mismatch: storage {:?} vs live {:?}",
                st.voted_for, self.voted_for
            ));
        }
        if st.log.snapshot_index() != self.log.snapshot_index()
            || st.log.last_index() != self.log.last_index()
        {
            return Err(format!(
                "log bounds mismatch: storage ({}, {}] vs live ({}, {}]",
                st.log.snapshot_index(),
                st.log.last_index(),
                self.log.snapshot_index(),
                self.log.last_index()
            ));
        }
        for i in (self.log.snapshot_index() + 1)..=self.log.last_index() {
            let (a, b) = (st.log.get(i), self.log.get(i));
            match (a, b) {
                (Some(x), Some(y)) if x.term == y.term && x.cmd == y.cmd => {}
                _ => {
                    return Err(format!(
                        "log entry {i} mismatch: storage {a:?} vs live {b:?}"
                    ));
                }
            }
        }
        let live_snap = self.snapshot.as_ref();
        let stored_snap = st.snapshot.as_ref();
        match (stored_snap, live_snap) {
            (None, None) => {}
            (Some(a), Some(b)) if a == b => {}
            _ => return Err("snapshot mismatch between storage and live node".into()),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Boot the node: arm the first election timer.
    pub fn start(&mut self) -> Vec<Effect<C>> {
        vec![Effect::ArmElectionTimer(self.sample_timeout())]
    }

    /// The election timer fired without contact from a valid leader.
    /// Starts a Pre-Vote round (Raft dissertation §9.6): the real
    /// election — and its term increment — only happens once a majority
    /// signals it would vote for us, so a rejoining peer with a stale log
    /// cannot disrupt a healthy cluster by inflating terms.
    pub fn on_election_timeout(&mut self) -> Vec<Effect<C>> {
        if self.role == Role::Leader {
            return Vec::new(); // stale timer
        }
        if self.cfg.pre_vote {
            self.start_pre_vote()
        } else {
            self.start_election()
        }
    }

    /// The heartbeat timer fired (leaders only).
    pub fn on_heartbeat_timeout(&mut self) -> Vec<Effect<C>> {
        if self.role != Role::Leader {
            return Vec::new(); // stale timer
        }
        let mut eff = self.broadcast_append_entries();
        eff.push(Effect::ArmHeartbeatTimer(self.cfg.heartbeat_interval));
        eff
    }

    /// The process restarted after a crash: leadership is volatile and is
    /// dropped, persistent state (term, vote, log) is kept. The state
    /// machine also survives in-process, so `last_applied` is retained to
    /// avoid double-applying entries.
    pub fn handle_restart(&mut self) -> Vec<Effect<C>> {
        let was_leader = self.role == Role::Leader;
        self.role = Role::Follower;
        self.votes.clear();
        let mut eff = Vec::new();
        if was_leader {
            eff.push(Effect::SteppedDown(self.current_term));
        }
        eff.push(Effect::ArmElectionTimer(self.sample_timeout()));
        eff
    }

    /// Compacts the log prefix up to and including `upto` (clamped to what
    /// is committed and applied) into a snapshot carrying the application
    /// blob `data`, which must be the state machine as of that index.
    /// Returns the [`PersistOp::Compact`] the driver must record, or `None`
    /// when there was nothing new to compact. Followers whose next entry
    /// falls inside the compacted prefix will be sent the snapshot instead
    /// of entries.
    pub fn take_snapshot(&mut self, upto: LogIndex, data: Vec<u8>) -> Option<PersistOp<C>> {
        let upto = upto.min(self.commit_index).min(self.last_applied);
        if upto <= self.log.snapshot_index() {
            return None;
        }
        // Membership as of the snapshot point: initial + changes <= upto.
        let mut cluster = match &self.snapshot {
            Some((_, _, c, _)) => c.clone(),
            None => self.cfg.initial_cluster.clone(),
        };
        for e in self.log.iter() {
            if e.index > upto {
                break;
            }
            match &e.cmd {
                LogCmd::AddServer(id) if !cluster.contains(id) => cluster.push(*id),
                LogCmd::RemoveServer(id) => cluster.retain(|c| c != id),
                _ => {}
            }
        }
        self.log.compact(upto);
        let last_term = self.log.snapshot_term();
        self.snapshot = Some((upto, last_term, cluster.clone(), data.clone()));
        Some(PersistOp::Compact {
            last_index: upto,
            last_term,
            cluster,
            data,
        })
    }

    /// Proposes a command (leader only). On success returns the assigned
    /// log index and the replication effects.
    pub fn propose(&mut self, cmd: LogCmd<C>) -> Result<(LogIndex, Vec<Effect<C>>), NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.leader_hint,
            });
        }
        let appended = self.log.append(self.current_term, cmd);
        let index = appended.index;
        let mut eff = vec![Effect::Persist(PersistOp::Append(appended))];
        if let Some(changed) = self.recompute_cluster_if_config(index) {
            eff.push(Effect::ConfigChanged(changed));
        }
        eff.extend(self.broadcast_append_entries());
        // Single-node clusters commit immediately.
        eff.extend(self.try_advance_commit());
        Ok((index, eff))
    }

    /// Handles an incoming RPC from `from`.
    pub fn handle(&mut self, from: NodeId, msg: RaftMsg<C>) -> Vec<Effect<C>> {
        match msg {
            RaftMsg::PreVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_pre_vote(from, term, candidate, last_log_index, last_log_term),
            RaftMsg::PreVoteResp { term, granted } => self.on_pre_vote_resp(from, term, granted),
            RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, candidate, last_log_index, last_log_term),
            RaftMsg::RequestVoteResp { term, granted } => {
                self.on_request_vote_resp(from, term, granted)
            }
            RaftMsg::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => self.on_append_entries(
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            ),
            RaftMsg::InstallSnapshot {
                term,
                leader,
                last_index,
                last_term,
                cluster,
                data,
            } => self.on_install_snapshot(term, leader, last_index, last_term, cluster, data),
            RaftMsg::AppendEntriesResp {
                term,
                success,
                match_index,
            } => self.on_append_entries_resp(from, term, success, match_index),
        }
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    fn sample_timeout(&mut self) -> SimDuration {
        let lo = self.cfg.election_timeout_min.as_nanos();
        let hi = self.cfg.election_timeout_max.as_nanos();
        SimDuration::from_nanos(if lo == hi {
            lo
        } else {
            self.rng.random_range(lo..=hi)
        })
    }

    fn start_pre_vote(&mut self) -> Vec<Effect<C>> {
        self.pre_votes.clear();
        self.pre_votes.insert(self.cfg.id);
        if self.has_majority(self.pre_votes.len()) {
            // Single-node (or degenerate) cluster: campaign immediately.
            return self.start_election();
        }
        let msg: RaftMsg<C> = RaftMsg::PreVote {
            term: self.current_term + 1,
            candidate: self.cfg.id,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        let mut eff: Vec<Effect<C>> = self
            .cluster
            .iter()
            .filter(|&&p| p != self.cfg.id)
            .map(|&p| Effect::Send(p, msg.clone()))
            .collect();
        eff.push(Effect::ArmElectionTimer(self.sample_timeout()));
        eff
    }

    fn on_pre_vote(
        &mut self,
        from: NodeId,
        term: Term,
        _candidate: NodeId,
        last_log_index: LogIndex,
        last_log_term: Term,
    ) -> Vec<Effect<C>> {
        // Grant iff the prober's proposed term is not behind ours and its
        // log is at least as up-to-date; granting changes no local state.
        let granted = term >= self.current_term
            && self
                .log
                .candidate_is_up_to_date(last_log_term, last_log_index);
        vec![Effect::Send(from, RaftMsg::PreVoteResp { term, granted })]
    }

    fn on_pre_vote_resp(&mut self, from: NodeId, term: Term, granted: bool) -> Vec<Effect<C>> {
        if self.role == Role::Leader || term != self.current_term + 1 || !granted {
            return Vec::new();
        }
        self.pre_votes.insert(from);
        if self.has_majority(self.pre_votes.len()) {
            self.pre_votes.clear();
            self.start_election()
        } else {
            Vec::new()
        }
    }

    fn start_election(&mut self) -> Vec<Effect<C>> {
        self.current_term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.cfg.id);
        self.votes.clear();
        self.votes.insert(self.cfg.id);
        self.leader_hint = None;
        #[cfg(feature = "mutants")]
        let mut eff = if crate::mutants::active(crate::mutants::Mutant::SkipPersist) {
            Vec::new()
        } else {
            vec![self.persist_hard_state()]
        };
        #[cfg(not(feature = "mutants"))]
        let mut eff = vec![self.persist_hard_state()];
        let msg: RaftMsg<C> = RaftMsg::RequestVote {
            term: self.current_term,
            candidate: self.cfg.id,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        for &peer in &self.cluster {
            if peer != self.cfg.id {
                eff.push(Effect::Send(peer, msg.clone()));
            }
        }
        eff.push(Effect::ArmElectionTimer(self.sample_timeout()));
        if self.has_majority(self.votes.len()) {
            eff.extend(self.become_leader());
        }
        eff
    }

    fn has_majority(&self, count: usize) -> bool {
        count * 2 > self.cluster.len()
    }

    fn become_leader(&mut self) -> Vec<Effect<C>> {
        self.role = Role::Leader;
        self.leader_hint = Some(self.cfg.id);
        self.next_index.clear();
        self.match_index.clear();
        let next = self.log.last_index() + 1;
        for &peer in &self.cluster {
            if peer != self.cfg.id {
                self.next_index.insert(peer, next);
                self.match_index.insert(peer, 0);
            }
        }
        // Commit a no-op so prior-term entries become committable under the
        // current-term-only commit rule.
        let noop = self.log.append(self.current_term, LogCmd::Noop);
        let mut eff = vec![
            Effect::Persist(PersistOp::Append(noop)),
            Effect::BecameLeader(self.current_term),
        ];
        eff.extend(self.broadcast_append_entries());
        eff.push(Effect::ArmHeartbeatTimer(self.cfg.heartbeat_interval));
        eff.extend(self.try_advance_commit());
        eff
    }

    fn step_down(&mut self, term: Term) -> Vec<Effect<C>> {
        let was_leader = self.role == Role::Leader;
        let old_term = self.current_term;
        let mut eff = Vec::new();
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
            eff.push(self.persist_hard_state());
        }
        self.role = Role::Follower;
        self.votes.clear();
        if was_leader {
            eff.push(Effect::SteppedDown(old_term));
        }
        eff.push(Effect::ArmElectionTimer(self.sample_timeout()));
        eff
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        candidate: NodeId,
        last_log_index: LogIndex,
        last_log_term: Term,
    ) -> Vec<Effect<C>> {
        let mut eff = Vec::new();
        if term > self.current_term {
            eff.extend(self.step_down(term));
        }
        let up_to_date = self
            .log
            .candidate_is_up_to_date(last_log_term, last_log_index);
        let vote_free = self.voted_for.is_none() || self.voted_for == Some(candidate);
        #[cfg(feature = "mutants")]
        let vote_free = vote_free || crate::mutants::active(crate::mutants::Mutant::DoubleVote);
        let grant = term == self.current_term && up_to_date && vote_free;
        if grant {
            self.voted_for = Some(candidate);
            eff.push(self.persist_hard_state());
            // Granting a vote resets the election timer (we believe an
            // election is legitimately in progress).
            eff.push(Effect::ArmElectionTimer(self.sample_timeout()));
        }
        eff.push(Effect::Send(
            from,
            RaftMsg::RequestVoteResp {
                term: self.current_term,
                granted: grant,
            },
        ));
        eff
    }

    fn on_request_vote_resp(&mut self, from: NodeId, term: Term, granted: bool) -> Vec<Effect<C>> {
        if term > self.current_term {
            return self.step_down(term);
        }
        if self.role != Role::Candidate || term != self.current_term || !granted {
            return Vec::new();
        }
        self.votes.insert(from);
        if self.has_majority(self.votes.len()) {
            self.become_leader()
        } else {
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn append_entries_for(&self, peer: NodeId) -> RaftMsg<C> {
        let mut next = self.next_index.get(&peer).copied().unwrap_or(1);
        if self.log.is_compacted(next) {
            // The entries this follower needs are gone: ship the snapshot.
            if let Some((last_index, last_term, cluster, data)) = self.snapshot.clone() {
                return RaftMsg::InstallSnapshot {
                    term: self.current_term,
                    leader: self.cfg.id,
                    last_index,
                    last_term,
                    cluster,
                    data,
                };
            }
            // A compacted log always records its snapshot; if it is
            // somehow missing, replicate from the first live index
            // instead of crashing the leader.
            next = self.log.snapshot_index() + 1;
        }
        let prev = next - 1;
        RaftMsg::AppendEntries {
            term: self.current_term,
            leader: self.cfg.id,
            prev_log_index: prev,
            prev_log_term: self.log.term_at(prev).unwrap_or(0),
            entries: self.log.entries_from(next),
            leader_commit: self.commit_index,
        }
    }

    fn on_install_snapshot(
        &mut self,
        term: Term,
        leader: NodeId,
        last_index: LogIndex,
        last_term: Term,
        cluster: Vec<NodeId>,
        data: Vec<u8>,
    ) -> Vec<Effect<C>> {
        let mut eff = Vec::new();
        if term < self.current_term {
            eff.push(Effect::Send(
                leader,
                RaftMsg::AppendEntriesResp {
                    term: self.current_term,
                    success: false,
                    match_index: 0,
                },
            ));
            return eff;
        }
        eff.extend(self.step_down(term));
        self.leader_hint = Some(leader);
        if last_index <= self.commit_index {
            // Stale snapshot; we already have everything it covers.
            eff.push(Effect::Send(
                leader,
                RaftMsg::AppendEntriesResp {
                    term: self.current_term,
                    success: true,
                    match_index: self.log.last_index(),
                },
            ));
            return eff;
        }
        // Discard the log and state machine; restart from the snapshot.
        self.log = RaftLog::from_snapshot(last_index, last_term);
        self.commit_index = last_index;
        self.last_applied = last_index;
        self.snapshot = Some((last_index, last_term, cluster.clone(), data.clone()));
        eff.push(Effect::Persist(PersistOp::InstallSnapshot {
            last_index,
            last_term,
            cluster: cluster.clone(),
            data: data.clone(),
        }));
        if cluster != self.cluster {
            self.cluster = cluster.clone();
            eff.push(Effect::ConfigChanged(cluster));
        }
        eff.push(Effect::RestoreSnapshot(data));
        eff.push(Effect::Send(
            leader,
            RaftMsg::AppendEntriesResp {
                term: self.current_term,
                success: true,
                match_index: last_index,
            },
        ));
        eff
    }

    fn broadcast_append_entries(&mut self) -> Vec<Effect<C>> {
        let peers: Vec<NodeId> = self
            .cluster
            .iter()
            .copied()
            .filter(|&p| p != self.cfg.id)
            .collect();
        peers
            .into_iter()
            .map(|p| Effect::Send(p, self.append_entries_for(p)))
            .collect()
    }

    fn on_append_entries(
        &mut self,
        term: Term,
        leader: NodeId,
        prev_log_index: LogIndex,
        prev_log_term: Term,
        entries: Vec<Entry<C>>,
        leader_commit: LogIndex,
    ) -> Vec<Effect<C>> {
        let mut eff = Vec::new();
        if term < self.current_term {
            eff.push(Effect::Send(
                leader,
                RaftMsg::AppendEntriesResp {
                    term: self.current_term,
                    success: false,
                    match_index: 0,
                },
            ));
            return eff;
        }
        // A valid leader for this (or a newer) term exists.
        eff.extend(self.step_down(term));
        self.leader_hint = Some(leader);

        // Consistency check.
        if self.log.term_at(prev_log_index) != Some(prev_log_term) {
            let hint = self.log.last_index().min(prev_log_index.saturating_sub(1));
            eff.push(Effect::Send(
                leader,
                RaftMsg::AppendEntriesResp {
                    term: self.current_term,
                    success: false,
                    match_index: hint,
                },
            ));
            return eff;
        }

        // Append, resolving conflicts.
        let mut config_touched = false;
        for e in entries.iter() {
            match self.log.term_at(e.index) {
                Some(t) if t == e.term => continue, // already have it
                Some(_) => {
                    self.log.truncate_from(e.index);
                    eff.push(Effect::Persist(PersistOp::TruncateFrom(e.index)));
                    config_touched = true;
                    self.log.append_entry(e.clone());
                    eff.push(Effect::Persist(PersistOp::Append(e.clone())));
                }
                None => {
                    self.log.append_entry(e.clone());
                    eff.push(Effect::Persist(PersistOp::Append(e.clone())));
                }
            }
            if matches!(e.cmd, LogCmd::AddServer(_) | LogCmd::RemoveServer(_)) {
                config_touched = true;
            }
        }
        if config_touched {
            let new = self.compute_cluster();
            if new != self.cluster {
                self.cluster = new.clone();
                eff.push(Effect::ConfigChanged(new));
            }
        }
        let match_index = prev_log_index + entries.len() as LogIndex;
        if leader_commit > self.commit_index {
            self.commit_index = leader_commit.min(self.log.last_index());
            eff.extend(self.apply_committed());
        }
        eff.push(Effect::Send(
            leader,
            RaftMsg::AppendEntriesResp {
                term: self.current_term,
                success: true,
                match_index,
            },
        ));
        eff
    }

    fn on_append_entries_resp(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
    ) -> Vec<Effect<C>> {
        if term > self.current_term {
            return self.step_down(term);
        }
        if self.role != Role::Leader || term != self.current_term {
            return Vec::new();
        }
        let mut eff = Vec::new();
        if success {
            let m = self.match_index.entry(from).or_insert(0);
            if match_index > *m {
                *m = match_index;
            }
            self.next_index.insert(from, match_index + 1);
            eff.extend(self.try_advance_commit());
            // Ship any remaining tail right away.
            if match_index < self.log.last_index() {
                eff.push(Effect::Send(from, self.append_entries_for(from)));
            }
        } else {
            let next = self.next_index.entry(from).or_insert(1);
            *next = (*next).saturating_sub(1).max(1).min(match_index + 1);
            eff.push(Effect::Send(from, self.append_entries_for(from)));
        }
        eff
    }

    fn try_advance_commit(&mut self) -> Vec<Effect<C>> {
        if self.role != Role::Leader {
            return Vec::new();
        }
        let mut n = self.log.last_index();
        while n > self.commit_index {
            // Current-term-only commit rule (paper Sec. III-C3).
            if self.log.term_at(n) == Some(self.current_term) {
                let mut count = 1; // self
                for &peer in &self.cluster {
                    if peer != self.cfg.id && self.match_index.get(&peer).copied().unwrap_or(0) >= n
                    {
                        count += 1;
                    }
                }
                if self.has_majority(count) {
                    self.commit_index = n;
                    break;
                }
            }
            n -= 1;
        }
        self.apply_committed()
    }

    fn apply_committed(&mut self) -> Vec<Effect<C>> {
        let mut eff = Vec::new();
        while self.last_applied < self.commit_index {
            let Some(entry) = self.log.get(self.last_applied + 1) else {
                // Commit index points past the live log — an internal
                // inconsistency. Stop applying rather than crash; the
                // remaining entries apply once the log catches up.
                break;
            };
            eff.push(Effect::Commit(entry.clone()));
            self.last_applied += 1;
        }
        eff
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    fn compute_cluster(&self) -> Vec<NodeId> {
        let mut cluster = match &self.snapshot {
            Some((_, _, c, _)) => c.clone(),
            None => self.cfg.initial_cluster.clone(),
        };
        for e in self.log.iter() {
            match &e.cmd {
                LogCmd::AddServer(id) if !cluster.contains(id) => cluster.push(*id),
                LogCmd::AddServer(_) => {}
                LogCmd::RemoveServer(id) => cluster.retain(|c| c != id),
                _ => {}
            }
        }
        cluster
    }

    /// If the entry at `index` is a config command, recompute membership
    /// (configs take effect when *appended*, per the Raft dissertation) and
    /// return the new cluster.
    fn recompute_cluster_if_config(&mut self, index: LogIndex) -> Option<Vec<NodeId>> {
        let is_config = matches!(
            self.log.get(index).map(|e| &e.cmd),
            Some(LogCmd::AddServer(_)) | Some(LogCmd::RemoveServer(_))
        );
        if !is_config {
            return None;
        }
        let new = self.compute_cluster();
        self.cluster = new.clone();
        // Track replication state for any newly added server.
        let next = self.log.last_index() + 1;
        for &peer in &self.cluster {
            if peer != self.cfg.id {
                self.next_index.entry(peer).or_insert(next);
                self.match_index.entry(peer).or_insert(0);
            }
        }
        Some(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn cfg(id: u32, cluster: &[u32]) -> RaftConfig {
        RaftConfig::paper(
            n(id),
            cluster.iter().map(|&i| n(i)).collect(),
            SimDuration::from_millis(100),
            42 + id as u64,
        )
    }

    fn sends<C: Command>(effects: &[Effect<C>]) -> usize {
        effects
            .iter()
            .filter(|e| matches!(e, Effect::Send(..)))
            .count()
    }

    /// Drives the two-phase (pre-vote, then vote) election of `node` with
    /// a single granting peer — enough for a majority in a 3-node cluster.
    fn elect(node: &mut RaftNode<u64>, granter: NodeId) {
        node.on_election_timeout();
        let proposed = node.term() + 1;
        node.handle(
            granter,
            RaftMsg::PreVoteResp {
                term: proposed,
                granted: true,
            },
        );
        assert_eq!(
            node.role(),
            Role::Candidate,
            "pre-vote majority must campaign"
        );
        let term = node.term();
        node.handle(
            granter,
            RaftMsg::RequestVoteResp {
                term,
                granted: true,
            },
        );
        assert!(node.is_leader());
    }

    #[test]
    fn single_node_becomes_leader_immediately() {
        let mut node: RaftNode<u64> = RaftNode::new(cfg(0, &[0]));
        let eff = node.on_election_timeout();
        assert!(node.is_leader());
        assert!(eff.iter().any(|e| matches!(e, Effect::BecameLeader(1))));
        // The no-op commits instantly in a 1-node cluster.
        assert_eq!(node.commit_index(), 1);
    }

    #[test]
    fn election_needs_majority() {
        let mut a: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        // Phase 1: the timeout only probes (no term change, still follower).
        let eff = a.on_election_timeout();
        assert_eq!(a.role(), Role::Follower);
        assert_eq!(a.term(), 0, "pre-vote must not bump the term");
        assert_eq!(sends(&eff), 2, "pre-vote probes to both peers");
        // Phase 2: one pre-vote grant = majority -> real candidacy.
        let eff = a.handle(
            n(1),
            RaftMsg::PreVoteResp {
                term: 1,
                granted: true,
            },
        );
        assert_eq!(a.role(), Role::Candidate);
        assert_eq!(a.term(), 1);
        assert_eq!(sends(&eff), 2, "vote requests to both peers");
        // Phase 3: one real grant = 2 of 3 votes -> leader.
        let eff = a.handle(
            n(1),
            RaftMsg::RequestVoteResp {
                term: 1,
                granted: true,
            },
        );
        assert!(a.is_leader());
        assert!(eff.iter().any(|e| matches!(e, Effect::BecameLeader(1))));
    }

    #[test]
    fn pre_vote_denied_for_stale_log_and_changes_no_state() {
        let mut voter: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1, 2]));
        voter.log.append(1, LogCmd::App(7));
        voter.current_term = 1;
        let eff = voter.handle(
            n(0),
            RaftMsg::PreVote {
                term: 2,
                candidate: n(0),
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send(_, RaftMsg::PreVoteResp { granted: false, .. })
        )));
        // A zombie probing forever never inflates anyone's term.
        assert_eq!(voter.term(), 1);
        assert_eq!(voter.voted_for, None);
    }

    #[test]
    fn pre_vote_granted_without_consuming_the_real_vote() {
        let mut voter: RaftNode<u64> = RaftNode::new(cfg(2, &[0, 1, 2]));
        let eff = voter.handle(
            n(0),
            RaftMsg::PreVote {
                term: 1,
                candidate: n(0),
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send(_, RaftMsg::PreVoteResp { granted: true, .. })
        )));
        // The real vote is still available to anyone.
        assert_eq!(voter.voted_for, None);
    }

    #[test]
    fn vote_denied_for_stale_log() {
        let mut voter: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1, 2]));
        voter.log.append(1, LogCmd::App(7));
        voter.current_term = 1;
        let eff = voter.handle(
            n(0),
            RaftMsg::RequestVote {
                term: 2,
                candidate: n(0),
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let granted = eff.iter().any(|e| {
            matches!(
                e,
                Effect::Send(_, RaftMsg::RequestVoteResp { granted: true, .. })
            )
        });
        assert!(!granted, "stale candidate must not win the vote");
    }

    #[test]
    fn votes_are_single_use_per_term() {
        let mut voter: RaftNode<u64> = RaftNode::new(cfg(2, &[0, 1, 2]));
        let e1 = voter.handle(
            n(0),
            RaftMsg::RequestVote {
                term: 1,
                candidate: n(0),
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(e1.iter().any(|e| matches!(
            e,
            Effect::Send(_, RaftMsg::RequestVoteResp { granted: true, .. })
        )));
        let e2 = voter.handle(
            n(1),
            RaftMsg::RequestVote {
                term: 1,
                candidate: n(1),
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(e2.iter().any(|e| matches!(
            e,
            Effect::Send(_, RaftMsg::RequestVoteResp { granted: false, .. })
        )));
    }

    #[test]
    fn append_entries_rejects_stale_term() {
        let mut f: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1, 2]));
        f.current_term = 5;
        let eff = f.handle(
            n(0),
            RaftMsg::AppendEntries {
                term: 3,
                leader: n(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
        );
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send(_, RaftMsg::AppendEntriesResp { success: false, .. })
        )));
        assert_eq!(f.term(), 5);
    }

    #[test]
    fn append_entries_consistency_check_and_conflict_resolution() {
        let mut f: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1]));
        // Follower has [t1, t1]; leader ships prev=(1, t1) + entry(2, t2).
        f.log.append(1, LogCmd::App(10));
        f.log.append(1, LogCmd::App(11));
        let eff = f.handle(
            n(0),
            RaftMsg::AppendEntries {
                term: 2,
                leader: n(0),
                prev_log_index: 1,
                prev_log_term: 1,
                entries: vec![Entry {
                    term: 2,
                    index: 2,
                    cmd: LogCmd::App(99),
                }],
                leader_commit: 0,
            },
        );
        assert!(eff.iter().any(|e| matches!(
            e,
            Effect::Send(
                _,
                RaftMsg::AppendEntriesResp {
                    success: true,
                    match_index: 2,
                    ..
                }
            )
        )));
        // Conflicting entry replaced.
        assert_eq!(f.log.get(2).unwrap().cmd, LogCmd::App(99));
        assert_eq!(f.log.last_index(), 2);
    }

    #[test]
    fn commit_flows_through_leader_majority() {
        // 3-node cluster: leader + one responsive follower = majority.
        let mut leader: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        elect(&mut leader, n(1));
        let (idx, _) = leader.propose(LogCmd::App(5)).unwrap();
        assert_eq!(idx, 2); // after the no-op
        assert_eq!(leader.commit_index(), 0, "nothing acked yet");
        let eff = leader.handle(
            n(1),
            RaftMsg::AppendEntriesResp {
                term: 1,
                success: true,
                match_index: 2,
            },
        );
        assert_eq!(leader.commit_index(), 2);
        let commits: Vec<_> = eff
            .iter()
            .filter_map(|e| match e {
                Effect::Commit(en) => Some(en.index),
                _ => None,
            })
            .collect();
        assert_eq!(commits, vec![1, 2], "no-op then the command");
    }

    #[test]
    fn leader_steps_down_on_higher_term() {
        let mut leader: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        elect(&mut leader, n(1));
        let eff = leader.handle(
            n(2),
            RaftMsg::AppendEntries {
                term: 9,
                leader: n(2),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
        );
        assert!(!leader.is_leader());
        assert!(eff.iter().any(|e| matches!(e, Effect::SteppedDown(1))));
        assert_eq!(leader.leader_hint(), Some(n(2)));
    }

    #[test]
    fn propose_on_follower_returns_hint() {
        let mut f: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1, 2]));
        f.handle(
            n(0),
            RaftMsg::AppendEntries {
                term: 1,
                leader: n(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
        );
        let err = f.propose(LogCmd::App(1)).unwrap_err();
        assert_eq!(err.leader_hint, Some(n(0)));
    }

    #[test]
    fn add_server_extends_cluster_on_append() {
        let mut leader: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        elect(&mut leader, n(1));
        let (_, eff) = leader.propose(LogCmd::AddServer(n(3))).unwrap();
        assert!(leader.cluster().contains(&n(3)));
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::ConfigChanged(c) if c.contains(&n(3)))));
        // Replication now reaches the new server too.
        assert!(eff
            .iter()
            .any(|e| matches!(e, Effect::Send(to, RaftMsg::AppendEntries { .. }) if *to == n(3))));
    }

    #[test]
    fn follower_applies_config_from_log() {
        let mut f: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1, 2]));
        f.handle(
            n(0),
            RaftMsg::AppendEntries {
                term: 1,
                leader: n(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    Entry {
                        term: 1,
                        index: 1,
                        cmd: LogCmd::Noop,
                    },
                    Entry {
                        term: 1,
                        index: 2,
                        cmd: LogCmd::AddServer(n(7)),
                    },
                ],
                leader_commit: 0,
            },
        );
        assert!(f.cluster().contains(&n(7)));
    }

    #[test]
    fn removed_server_shrinks_quorum() {
        let mut leader: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        elect(&mut leader, n(1));
        leader.propose(LogCmd::RemoveServer(n(2))).unwrap();
        assert_eq!(leader.cluster(), &[n(0), n(1)]);
    }

    #[test]
    fn heartbeat_only_fires_for_leaders() {
        let mut f: RaftNode<u64> = RaftNode::new(cfg(1, &[0, 1, 2]));
        assert!(f.on_heartbeat_timeout().is_empty());
    }

    #[test]
    fn election_timeout_is_ignored_by_leader() {
        let mut l: RaftNode<u64> = RaftNode::new(cfg(0, &[0]));
        l.on_election_timeout();
        assert!(l.is_leader());
        assert!(l.on_election_timeout().is_empty());
    }

    #[test]
    fn candidate_restarts_election_on_timeout() {
        let mut c: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        c.on_election_timeout();
        c.handle(
            n(1),
            RaftMsg::PreVoteResp {
                term: 1,
                granted: true,
            },
        );
        assert_eq!(c.term(), 1);
        assert_eq!(c.role(), Role::Candidate);
        // Split vote: the next timeout re-probes, then campaigns again.
        c.on_election_timeout();
        c.handle(
            n(2),
            RaftMsg::PreVoteResp {
                term: 2,
                granted: true,
            },
        );
        assert_eq!(c.term(), 2);
        assert_eq!(c.role(), Role::Candidate);
    }

    #[test]
    fn stale_pre_vote_response_is_ignored() {
        let mut c: RaftNode<u64> = RaftNode::new(cfg(0, &[0, 1, 2]));
        c.on_election_timeout();
        // A response for a long-gone probe term must not trigger anything.
        c.handle(
            n(1),
            RaftMsg::PreVoteResp {
                term: 99,
                granted: true,
            },
        );
        assert_eq!(c.role(), Role::Follower);
        assert_eq!(c.term(), 0);
    }
}
