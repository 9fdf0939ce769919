//! The Raft driver: runs a [`RaftNode`] on a `p2pfl-simnet` transport.
//!
//! A [`RaftDriver`] owns one node (its *seat*), the node's optional
//! stable storage and its election/heartbeat timer pair. It performs the
//! effects every owner performs alike — sends through the owner's message
//! wrapper, timer arms, storage writes — and hands each remaining effect
//! back to its owner as an [`AppEffect`], one at a time and in Raft's
//! order, from the one interpreter [`RaftHost::run_effects`].
//! [`RaftActor`] is a driver plus a [`StateMachine`]; the two-layer peer
//! hosts one driver per layer.
//!
//! Crash/restart follows the paper's evaluation: term, vote and log
//! survive a crash (they are persistent state in Raft), timers and
//! volatile leadership are lost, and the node rejoins as a follower.

use crate::log::Entry;
use crate::message::RaftMsg;
use crate::node::{Effect, NotLeader, RaftConfig, RaftNode};
use crate::storage::{PersistOp, RaftStorage};
use crate::types::{Command, LogCmd, LogIndex, Role, Term};
use p2pfl_simnet::{Actor, NodeId, Payload, SimDuration, SimTime, TimerId, Transport};
use std::convert::identity;

/// An effect only the driver's owner can interpret.
#[derive(Debug, Clone)]
pub enum AppEffect<C> {
    /// An entry became committed; apply it.
    Commit(Entry<C>),
    /// The seated node won an election for this term.
    BecameLeader(Term),
    /// The seated node stepped down from leadership in this term.
    SteppedDown(Term),
    /// A snapshot was installed: reset the application state to this blob.
    RestoreSnapshot(Vec<u8>),
    /// The cluster configuration changed (by an appended config entry).
    ConfigChanged(Vec<NodeId>),
}

/// One Raft seat on a transport: the node, its storage, its timer pair,
/// and the replicated state as of the last checkpoint.
///
/// A seat can be vacated (its server left the cluster) and taken again;
/// storage outlives the vacancy, so a re-seated node resumes from what the
/// last one persisted.
pub struct RaftDriver<C: Command, M> {
    node: RaftNode<C>,
    seated: bool,
    storage: Option<Box<dyn RaftStorage<C>>>,
    /// The election and heartbeat timers, and the tags they are armed with.
    timers: [Option<TimerId>; 2],
    tags: [u64; 2],
    wrap: fn(RaftMsg<C>) -> M,
    /// `(index, blob)`: the application state as of an applied index,
    /// where the next checkpoint cuts the log.
    checkpoint: Option<(LogIndex, Vec<u8>)>,
    /// Vacate once the current effect batch is done.
    leaving: bool,
}

/// The node recovered from `storage`, and whether there was anything to
/// recover (a fresh node otherwise).
fn recover<C: Command>(
    cfg: RaftConfig,
    storage: &mut Option<Box<dyn RaftStorage<C>>>,
) -> (RaftNode<C>, bool) {
    match storage.as_mut().and_then(|s| s.load()) {
        Some(state) => (RaftNode::restore(cfg, state), true),
        None => (RaftNode::new(cfg), false),
    }
}

impl<C: Command, M: Payload> RaftDriver<C, M> {
    /// A driver over `storage`, seated with the node recovered from it.
    /// When storage is absent or empty the node is fresh, and it takes the
    /// seat only if `seat_fresh`; the seat is vacant until
    /// [`RaftDriver::seat`] otherwise. `tags` are the election and
    /// heartbeat timer tags; `wrap` puts a Raft message in the owner's
    /// envelope.
    pub fn new(
        cfg: RaftConfig,
        mut storage: Option<Box<dyn RaftStorage<C>>>,
        tags: [u64; 2],
        wrap: fn(RaftMsg<C>) -> M,
        seat_fresh: bool,
    ) -> Self {
        let (node, recovered) = recover(cfg, &mut storage);
        RaftDriver {
            node,
            seated: recovered || seat_fresh,
            storage,
            timers: [None; 2],
            tags,
            wrap,
            checkpoint: None,
            leaving: false,
        }
    }

    /// Takes the seat with a node recovered from storage, or a fresh one.
    pub fn seat(&mut self, cfg: RaftConfig) {
        self.node = recover(cfg, &mut self.storage).0;
        self.seated = true;
        self.checkpoint = None;
    }

    /// Vacates the seat now: cancels the timer pair and drops the
    /// checkpoint. Storage is kept for the next [`RaftDriver::seat`].
    pub fn vacate(&mut self, ctx: &mut dyn Transport<M>) {
        for timer in self.timers.iter_mut().filter_map(Option::take) {
            ctx.cancel_timer(timer);
        }
        self.seated = false;
        self.checkpoint = None;
    }

    /// Vacates the seat once the current effect batch is done, so the
    /// batch's remaining sends (a removal entry's own broadcast) still go
    /// out.
    pub fn leave(&mut self) {
        self.leaving = true;
    }

    /// The node in the seat, or the last one seated if it is vacant.
    pub fn node(&self) -> &RaftNode<C> {
        &self.node
    }

    /// Mutable access to [`RaftDriver::node`].
    pub fn node_mut(&mut self) -> &mut RaftNode<C> {
        &mut self.node
    }

    /// The node in the seat, if the seat is held.
    pub fn seated(&self) -> Option<&RaftNode<C>> {
        self.seated.then_some(&self.node)
    }

    /// Mutable access to [`RaftDriver::seated`].
    pub fn seated_mut(&mut self) -> Option<&mut RaftNode<C>> {
        self.seated.then_some(&mut self.node)
    }

    /// The effects of `f` on the seated node (none while vacant).
    pub fn with_seat(
        &mut self,
        f: impl FnOnce(&mut RaftNode<C>) -> Vec<Effect<C>>,
    ) -> Vec<Effect<C>> {
        self.seated_mut().map(f).unwrap_or_default()
    }

    /// Timers die with the process; the node's persistent state survives.
    pub fn drop_timers(&mut self) {
        self.timers = [None; 2];
    }

    /// Compacts the seated node's applied log up to `upto` into a
    /// snapshot carrying `blob`, and records the cut on storage.
    pub fn compact(&mut self, upto: LogIndex, blob: Vec<u8>) {
        if let Some(op) = self.node.take_snapshot(upto, blob) {
            self.record(&op);
        }
    }

    /// Rolls the checkpoint when applying the entry at `index` (of
    /// `term`) takes the seat `every` entries past its last checkpoint or
    /// snapshot: `blob()`, the state as of `index`, becomes the
    /// checkpoint, and the log is cut at the one it replaces. So a log
    /// holds between one and two intervals. The entry must still be in
    /// the seated log: an owner that re-seated mid-batch learns nothing
    /// about the new log from the old node's commits.
    pub fn checkpoint(
        &mut self,
        index: LogIndex,
        term: Term,
        every: u64,
        blob: impl FnOnce() -> Vec<u8>,
    ) {
        let base = self
            .checkpoint
            .as_ref()
            .map_or(self.node.log().snapshot_index(), |(at, _)| *at);
        if !self.seated || self.node.log().term_at(index) != Some(term) || index < base + every {
            return;
        }
        if let Some((at, state)) = self.checkpoint.replace((index, blob())) {
            self.compact(at, state);
        }
    }

    /// StorageRoundTrip oracle hook: replays the storage (when present)
    /// and checks that a node restored from it would be bisimilar to the
    /// seated one — same term, vote, log and snapshot. Returns a
    /// description of the first divergence.
    pub fn verify_storage_roundtrip(&mut self) -> Result<(), String>
    where
        C: PartialEq + std::fmt::Debug,
    {
        match self.storage.as_mut() {
            Some(st) if self.seated => self.node.matches_persistent(&st.load().unwrap_or_default()),
            _ => Ok(()),
        }
    }

    fn record(&mut self, op: &PersistOp<C>) {
        if let Some(st) = self.storage.as_mut() {
            st.record(op);
        }
    }

    fn arm(&mut self, ctx: &mut dyn Transport<M>, which: usize, delay: SimDuration) {
        if let Some(timer) = self.timers[which].take() {
            ctx.cancel_timer(timer);
        }
        self.timers[which] = Some(ctx.set_timer(delay, self.tags[which]));
    }

    /// Performs one effect, or hands it back for the owner.
    fn perform(&mut self, ctx: &mut dyn Transport<M>, effect: Effect<C>) -> Option<AppEffect<C>> {
        match effect {
            Effect::Send(to, msg) => ctx.send(to, (self.wrap)(msg)),
            Effect::ArmElectionTimer(d) => self.arm(ctx, 0, d),
            Effect::ArmHeartbeatTimer(d) => self.arm(ctx, 1, d),
            Effect::Persist(op) => self.record(&op),
            Effect::Commit(entry) => return Some(AppEffect::Commit(entry)),
            Effect::BecameLeader(term) => return Some(AppEffect::BecameLeader(term)),
            Effect::SteppedDown(term) => return Some(AppEffect::SteppedDown(term)),
            Effect::ConfigChanged(cluster) => return Some(AppEffect::ConfigChanged(cluster)),
            Effect::RestoreSnapshot(blob) => {
                self.checkpoint = None; // superseded by the installed snapshot
                return Some(AppEffect::RestoreSnapshot(blob));
            }
        }
        None
    }

    /// The effects of the timer tagged `tag` firing, or `None` if the tag
    /// is not this driver's.
    fn timeout(&mut self, tag: u64) -> Option<Vec<Effect<C>>> {
        let which = self.tags.iter().position(|&t| t == tag)?;
        self.timers[which] = None;
        Some(self.with_seat(|n| match which {
            0 => n.on_election_timeout(),
            _ => n.on_heartbeat_timeout(),
        }))
    }
}

/// The owner of a [`RaftDriver`]: it interprets the application effects.
/// An owner of several drivers implements this once per command type.
pub trait RaftHost<C: Command, M: Payload> {
    /// The driver whose effects this host interprets.
    fn driver(&mut self) -> &mut RaftDriver<C, M>;

    /// Applies one application effect. It runs mid-batch, before the
    /// batch's later effects, and may itself send, run other batches or
    /// replace the driver.
    fn apply_effect(&mut self, ctx: &mut dyn Transport<M>, effect: AppEffect<C>);

    /// The effect interpreter: performs `effects` in order through the
    /// driver, handing each application effect to
    /// [`RaftHost::apply_effect`] as it is reached. Storage writes precede
    /// the sends that depend on them in a batch: in order is write-ahead.
    fn run_effects(&mut self, ctx: &mut dyn Transport<M>, effects: Vec<Effect<C>>) {
        for effect in effects {
            if let Some(app) = self.driver().perform(ctx, effect) {
                self.apply_effect(ctx, app);
            }
        }
        let driver = self.driver();
        if std::mem::take(&mut driver.leaving) {
            driver.vacate(ctx);
        }
    }

    /// Runs the driver's timeout if `tag` is one of its timers; returns
    /// whether it was.
    fn fire(&mut self, ctx: &mut dyn Transport<M>, tag: u64) -> bool {
        let Some(effects) = self.driver().timeout(tag) else {
            return false;
        };
        self.run_effects(ctx, effects);
        true
    }
}

/// Application state machine fed by committed entries.
pub trait StateMachine<C>: 'static {
    /// Applies one committed entry, in log order.
    fn apply(&mut self, entry: &Entry<C>);

    /// Called when the local node wins an election (the hook the two-layer
    /// system uses to join the FedAvg layer).
    fn on_became_leader(&mut self, _term: Term) {}

    /// Called when the local node loses leadership.
    fn on_stepped_down(&mut self, _term: Term) {}

    /// Serializes the state machine for a log-compaction snapshot.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Resets the state machine from a snapshot produced by
    /// [`StateMachine::snapshot`] on another replica.
    fn restore(&mut self, _data: &[u8]) {}
}

/// A no-op state machine for tests that only exercise elections.
pub struct NullStateMachine;

impl<C> StateMachine<C> for NullStateMachine {
    fn apply(&mut self, _entry: &Entry<C>) {}
}

/// `RaftActor`'s election and heartbeat timer tags.
const TIMERS: [u64; 2] = [1, 2];

/// One leadership observation, recorded for the election-time experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadershipEvent {
    /// When the node won the election.
    pub at: SimTime,
    /// The term it won.
    pub term: Term,
}

/// A Raft server running inside the simulator: one driver and a state
/// machine.
pub struct RaftActor<C: Command, SM: StateMachine<C>> {
    driver: RaftDriver<C, RaftMsg<C>>,
    /// The application state machine.
    pub sm: SM,
    /// Every election this node has won, with timestamps (experiment data).
    pub leadership_history: Vec<LeadershipEvent>,
    /// Number of times this node stepped down.
    pub step_downs: u64,
}

impl<C: Command, SM: StateMachine<C>> RaftActor<C, SM> {
    /// Wraps a fresh Raft node and state machine. Persistent state lives
    /// only in memory; use [`RaftActor::with_storage`] for durability.
    pub fn new(cfg: RaftConfig, sm: SM) -> Self {
        Self::on(cfg, sm, None)
    }

    /// Wraps a Raft node backed by stable storage: previously persisted
    /// state (term, vote, log, snapshot) is recovered — the state machine
    /// is reset from the snapshot blob and re-fed committed entries above
    /// it — and every subsequent persistent-state change is recorded
    /// before the message that depends on it is sent.
    pub fn with_storage(cfg: RaftConfig, sm: SM, storage: Box<dyn RaftStorage<C>>) -> Self {
        Self::on(cfg, sm, Some(storage))
    }

    fn on(cfg: RaftConfig, mut sm: SM, storage: Option<Box<dyn RaftStorage<C>>>) -> Self {
        let driver = RaftDriver::new(cfg, storage, TIMERS, identity, true);
        if let Some((_, _, _, blob)) = driver.node().snapshot() {
            sm.restore(blob);
        }
        RaftActor {
            driver,
            sm,
            leadership_history: Vec::new(),
            step_downs: 0,
        }
    }

    /// Read access to the protocol state.
    pub fn raft(&self) -> &RaftNode<C> {
        self.driver.node()
    }

    /// StorageRoundTrip oracle hook for the invariant checker; see
    /// [`RaftDriver::verify_storage_roundtrip`].
    pub fn verify_storage_roundtrip(&mut self) -> Result<(), String>
    where
        C: PartialEq + std::fmt::Debug,
    {
        self.driver.verify_storage_roundtrip()
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.raft().role()
    }

    /// Whether this node currently leads its cluster.
    pub fn is_leader(&self) -> bool {
        self.raft().is_leader()
    }

    /// Proposes an application command on this node (leader only).
    pub fn propose(
        &mut self,
        ctx: &mut dyn Transport<RaftMsg<C>>,
        cmd: C,
    ) -> Result<LogIndex, NotLeader> {
        let (idx, eff) = self.driver.node_mut().propose(LogCmd::App(cmd))?;
        self.run_effects(ctx, eff);
        Ok(idx)
    }

    /// Compacts the applied log prefix into a snapshot of the current
    /// state machine; slow or freshly restarted followers will receive the
    /// snapshot instead of the full log.
    pub fn compact_log(&mut self) -> usize {
        let before = self.raft().log().live_entries();
        let blob = self.sm.snapshot();
        self.driver.compact(LogIndex::MAX, blob);
        before - self.raft().log().live_entries()
    }
}

impl<C: Command, SM: StateMachine<C>> RaftHost<C, RaftMsg<C>> for RaftActor<C, SM> {
    fn driver(&mut self) -> &mut RaftDriver<C, RaftMsg<C>> {
        &mut self.driver
    }

    fn apply_effect(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>, effect: AppEffect<C>) {
        match effect {
            AppEffect::Commit(entry) => self.sm.apply(&entry),
            AppEffect::BecameLeader(term) => {
                self.leadership_history.push(LeadershipEvent {
                    at: ctx.now(),
                    term,
                });
                self.sm.on_became_leader(term);
            }
            AppEffect::SteppedDown(term) => {
                self.step_downs += 1;
                self.sm.on_stepped_down(term);
            }
            AppEffect::RestoreSnapshot(data) => self.sm.restore(&data),
            AppEffect::ConfigChanged(_) => {}
        }
    }
}

impl<C: Command, SM: StateMachine<C>> Actor<RaftMsg<C>> for RaftActor<C, SM> {
    fn on_start(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>) {
        let eff = self.driver.with_seat(RaftNode::start);
        self.run_effects(ctx, eff);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>, from: NodeId, msg: RaftMsg<C>) {
        let eff = self.driver.with_seat(|n| n.handle(from, msg));
        self.run_effects(ctx, eff);
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>, tag: u64) {
        self.fire(ctx, tag);
    }

    fn on_crash(&mut self, _now: SimTime) {
        self.driver.drop_timers();
    }

    fn on_restart(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>) {
        // Rejoin as a follower: leadership is volatile.
        let eff = self.driver.with_seat(RaftNode::handle_restart);
        self.run_effects(ctx, eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_simnet::{FaultPlan, Sim, SimDuration};

    type Msg = RaftMsg<u64>;

    /// Records applied commands.
    struct Recorder {
        applied: Vec<(LogIndex, Option<u64>)>,
    }

    impl StateMachine<u64> for Recorder {
        fn apply(&mut self, entry: &Entry<u64>) {
            let v = match &entry.cmd {
                LogCmd::App(x) => Some(*x),
                _ => None,
            };
            self.applied.push((entry.index, v));
        }
    }

    fn build_cluster(n: usize, t_ms: u64, seed: u64) -> (Sim<Msg>, Vec<NodeId>) {
        let mut sim = Sim::new(seed);
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for &id in &ids {
            let cfg = RaftConfig::paper(
                id,
                ids.clone(),
                SimDuration::from_millis(t_ms),
                seed + id.0 as u64,
            );
            sim.add_node(RaftActor::new(cfg, Recorder { applied: vec![] }));
        }
        (sim, ids)
    }

    fn leaders(sim: &Sim<Msg>, ids: &[NodeId]) -> Vec<NodeId> {
        ids.iter()
            .copied()
            .filter(|&id| {
                !sim.is_crashed(id) && sim.actor::<RaftActor<u64, Recorder>>(id).is_leader()
            })
            .collect()
    }

    #[test]
    fn cluster_elects_exactly_one_leader() {
        let (mut sim, ids) = build_cluster(5, 100, 1);
        sim.run_until(SimTime::from_secs(2));
        let ls = leaders(&sim, &ids);
        assert_eq!(ls.len(), 1, "leaders: {ls:?}");
        // All nodes agree on the leader.
        let leader = ls[0];
        for &id in &ids {
            let a = sim.actor::<RaftActor<u64, Recorder>>(id);
            assert_eq!(a.raft().leader_hint(), Some(leader), "node {id}");
        }
    }

    #[test]
    fn replication_applies_in_order_everywhere() {
        let (mut sim, ids) = build_cluster(3, 100, 2);
        sim.run_until(SimTime::from_secs(2));
        let leader = leaders(&sim, &ids)[0];
        for v in [10u64, 20, 30] {
            sim.exec::<RaftActor<u64, Recorder>, _, _>(leader, |a, ctx| a.propose(ctx, v).unwrap());
        }
        sim.run_for(SimDuration::from_secs(1));
        let expect: Vec<u64> = vec![10, 20, 30];
        for &id in &ids {
            let a = sim.actor::<RaftActor<u64, Recorder>>(id);
            let applied: Vec<u64> = a.sm.applied.iter().filter_map(|(_, v)| *v).collect();
            assert_eq!(applied, expect, "node {id}");
        }
    }

    #[test]
    fn leader_crash_triggers_reelection_preserving_log() {
        let (mut sim, ids) = build_cluster(5, 100, 3);
        sim.run_until(SimTime::from_secs(2));
        let old = leaders(&sim, &ids)[0];
        sim.exec::<RaftActor<u64, Recorder>, _, _>(old, |a, ctx| a.propose(ctx, 777).unwrap());
        sim.run_for(SimDuration::from_millis(500));
        let crash_at = sim.now() + SimDuration::from_millis(1);
        sim.schedule_crash(old, crash_at);
        sim.run_for(SimDuration::from_secs(3));
        let ls = leaders(&sim, &ids);
        assert_eq!(ls.len(), 1);
        assert_ne!(ls[0], old, "new leader must differ");
        // The committed command survived the crash.
        let a = sim.actor::<RaftActor<u64, Recorder>>(ls[0]);
        assert!(a.sm.applied.iter().any(|(_, v)| *v == Some(777)));
    }

    #[test]
    fn crashed_node_rejoins_and_catches_up() {
        let (mut sim, ids) = build_cluster(3, 100, 4);
        sim.run_until(SimTime::from_secs(2));
        let leader = leaders(&sim, &ids)[0];
        let victim = *ids.iter().find(|&&i| i != leader).unwrap();
        let t = sim.now();
        sim.schedule_crash(victim, t + SimDuration::from_millis(1));
        sim.run_for(SimDuration::from_millis(100));
        sim.exec::<RaftActor<u64, Recorder>, _, _>(leader, |a, ctx| a.propose(ctx, 42).unwrap());
        sim.run_for(SimDuration::from_millis(500));
        let t = sim.now();
        sim.schedule_restart(victim, t + SimDuration::from_millis(1));
        sim.run_for(SimDuration::from_secs(2));
        let a = sim.actor::<RaftActor<u64, Recorder>>(victim);
        assert!(
            a.sm.applied.iter().any(|(_, v)| *v == Some(42)),
            "restarted node must catch up: {:?}",
            a.sm.applied
        );
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let (mut sim, ids) = build_cluster(3, 100, 5);
        sim.run_until(SimTime::from_secs(2));
        let leader = leaders(&sim, &ids)[0];
        // Cut the leader off from both followers for the rest of the test.
        let others: Vec<NodeId> = ids.iter().copied().filter(|&i| i != leader).collect();
        let (from, until) = (SimTime::ZERO, SimTime::from_secs(1));
        let plan = FaultPlan::new(5)
            .partition(from, until, vec![leader], others.clone())
            .partition(from, until, others.clone(), vec![leader]);
        sim.apply_fault_plan(&plan);
        let before = sim
            .actor::<RaftActor<u64, Recorder>>(leader)
            .raft()
            .commit_index();
        sim.exec::<RaftActor<u64, Recorder>, _, _>(leader, |a, ctx| {
            let _ = a.propose(ctx, 999);
        });
        sim.run_for(SimDuration::from_secs(1));
        let a = sim.actor::<RaftActor<u64, Recorder>>(leader);
        assert_eq!(
            a.raft().commit_index(),
            before,
            "isolated leader must not commit"
        );
        // Meanwhile the majority side elected a new leader.
        let new_leaders = leaders(&sim, &others);
        assert_eq!(new_leaders.len(), 1);
    }

    #[test]
    fn storage_backed_node_recovers_term_vote_and_log() {
        use crate::storage::MemStorage;
        // Three storage-backed nodes replicate entries; then node 2's state
        // is rebuilt from its storage handle alone (modeling a process that
        // died and restarted from disk) and must come back with the same
        // term and a log containing everything it had persisted.
        let mut sim: Sim<Msg> = Sim::new(31);
        let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
        let stores: Vec<MemStorage<u64>> = (0..3).map(|_| MemStorage::new()).collect();
        for &id in &ids {
            let cfg = RaftConfig::paper(id, ids.clone(), SimDuration::from_millis(100), 31);
            sim.add_node(RaftActor::with_storage(
                cfg,
                Recorder { applied: vec![] },
                Box::new(stores[id.index()].clone()),
            ));
        }
        sim.run_until(SimTime::from_secs(2));
        let leader = leaders(&sim, &ids)[0];
        for v in [5u64, 6, 7] {
            sim.exec::<RaftActor<u64, Recorder>, _, _>(leader, |a, ctx| a.propose(ctx, v).unwrap());
        }
        sim.run_for(SimDuration::from_secs(1));
        let victim = *ids.iter().find(|&&i| i != leader).unwrap();
        let (term_before, last_before) = {
            let a = sim.actor::<RaftActor<u64, Recorder>>(victim);
            (a.raft().term(), a.raft().log().last_index())
        };
        assert!(last_before >= 4, "noop + 3 commands replicated");

        // Rebuild purely from the storage handle: fresh actor, fresh SM.
        let cfg = RaftConfig::paper(victim, ids.clone(), SimDuration::from_millis(100), 99);
        let revived = RaftActor::with_storage(
            cfg,
            Recorder { applied: vec![] },
            Box::new(stores[victim.index()].clone()),
        );
        assert_eq!(revived.raft().term(), term_before);
        assert_eq!(revived.raft().log().last_index(), last_before);
        assert_eq!(revived.role(), Role::Follower);
        // Commitment is volatile: it restarts at the snapshot boundary and
        // is re-established by the next leader contact.
        assert_eq!(revived.raft().commit_index(), 0);
    }

    #[test]
    fn election_safety_over_many_seeds() {
        // At most one leader per term, across random seeds and a crash.
        for seed in 0..15u64 {
            let (mut sim, ids) = build_cluster(5, 50, 100 + seed);
            sim.schedule_crash(ids[(seed % 5) as usize], SimTime::from_millis(150));
            sim.run_until(SimTime::from_secs(3));
            let mut by_term: std::collections::HashMap<Term, Vec<NodeId>> = Default::default();
            for &id in &ids {
                let a = sim.actor::<RaftActor<u64, Recorder>>(id);
                for ev in &a.leadership_history {
                    by_term.entry(ev.term).or_default().push(id);
                }
            }
            for (term, winners) in by_term {
                assert_eq!(winners.len(), 1, "seed {seed}: term {term} had {winners:?}");
            }
        }
    }
}
