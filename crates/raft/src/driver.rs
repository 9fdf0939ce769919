//! Simulator driver: runs a [`RaftNode`] as a `p2pfl-simnet` actor.
//!
//! The driver translates [`Effect`]s into messages and timers, applies
//! committed entries to a pluggable [`StateMachine`], and implements the
//! crash/restart semantics of the paper's evaluation: term, vote and log
//! survive a crash (they are persistent state in Raft), volatile leadership
//! is lost, and the node rejoins as a follower.

use crate::log::Entry;
use crate::message::RaftMsg;
use crate::node::{Effect, NotLeader, RaftConfig, RaftNode};
use crate::storage::RaftStorage;
use crate::types::{Command, LogCmd, LogIndex, Role, Term};
use p2pfl_simnet::{Actor, NodeId, SimTime, TimerId, Transport};

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

const TIMER_ELECTION: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;

/// One leadership observation, recorded for the election-time experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadershipEvent {
    /// When the node won the election.
    pub at: SimTime,
    /// The term it won.
    pub term: Term,
}

/// A Raft server running inside the simulator.
pub struct RaftActor<C: Command, SM: StateMachine<C>> {
    node: RaftNode<C>,
    /// The application state machine.
    pub sm: SM,
    storage: Option<Box<dyn RaftStorage<C>>>,
    election_timer: Option<TimerId>,
    heartbeat_timer: Option<TimerId>,
    /// Every election this node has won, with timestamps (experiment data).
    pub leadership_history: Vec<LeadershipEvent>,
    /// Number of times this node stepped down.
    pub step_downs: u64,
}

impl<C: Command, SM: StateMachine<C>> RaftActor<C, SM> {
    /// Wraps a fresh Raft node and state machine. Persistent state lives
    /// only in memory; use [`RaftActor::with_storage`] for durability.
    pub fn new(cfg: RaftConfig, sm: SM) -> Self {
        RaftActor {
            node: RaftNode::new(cfg),
            sm,
            storage: None,
            election_timer: None,
            heartbeat_timer: None,
            leadership_history: Vec::new(),
            step_downs: 0,
        }
    }

    /// Wraps a Raft node backed by stable storage: previously persisted
    /// state (term, vote, log, snapshot) is recovered — the state machine
    /// is reset from the snapshot blob and re-fed committed entries above
    /// it — and every subsequent persistent-state change is recorded
    /// before the message that depends on it is sent.
    pub fn with_storage(cfg: RaftConfig, sm: SM, mut storage: Box<dyn RaftStorage<C>>) -> Self {
        let mut sm = sm;
        let node = match storage.load() {
            Some(state) => {
                if let Some((_, _, _, blob)) = &state.snapshot {
                    sm.restore(blob);
                }
                RaftNode::restore(cfg, state)
            }
            None => RaftNode::new(cfg),
        };
        RaftActor {
            node,
            sm,
            storage: Some(storage),
            election_timer: None,
            heartbeat_timer: None,
            leadership_history: Vec::new(),
            step_downs: 0,
        }
    }

    /// Read access to the protocol state.
    pub fn raft(&self) -> &RaftNode<C> {
        &self.node
    }

    /// StorageRoundTrip oracle hook for the invariant checker: replays the
    /// storage handle (when present) and checks that a node restored from
    /// it would be bisimilar to the live one — same term, vote, log, and
    /// snapshot. Returns a description of the first divergence.
    pub fn verify_storage_roundtrip(&mut self) -> Result<(), String>
    where
        C: PartialEq + std::fmt::Debug,
    {
        match self.storage.as_mut() {
            Some(st) => self.node.matches_persistent(&st.load().unwrap_or_default()),
            None => Ok(()),
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.node.role()
    }

    /// Whether this node currently leads its cluster.
    pub fn is_leader(&self) -> bool {
        self.node.is_leader()
    }

    /// Proposes an application command on this node (leader only).
    pub fn propose(
        &mut self,
        ctx: &mut dyn Transport<RaftMsg<C>>,
        cmd: C,
    ) -> Result<LogIndex, NotLeader> {
        let (idx, eff) = self.node.propose(LogCmd::App(cmd))?;
        self.run_effects(ctx, eff);
        Ok(idx)
    }

    /// Compacts the applied log prefix into a snapshot of the current
    /// state machine; slow or freshly restarted followers will receive the
    /// snapshot instead of the full log.
    pub fn compact_log(&mut self) -> usize {
        let before = self.node.log().live_entries();
        let blob = self.sm.snapshot();
        if let Some(op) = self.node.take_snapshot(LogIndex::MAX, blob) {
            if let Some(st) = self.storage.as_mut() {
                st.record(&op);
            }
        }
        before - self.node.log().live_entries()
    }

    /// Proposes a membership change on this node (leader only).
    pub fn propose_config(
        &mut self,
        ctx: &mut dyn Transport<RaftMsg<C>>,
        cmd: LogCmd<C>,
    ) -> Result<LogIndex, NotLeader> {
        assert!(
            matches!(cmd, LogCmd::AddServer(_) | LogCmd::RemoveServer(_)),
            "use propose() for application commands"
        );
        let (idx, eff) = self.node.propose(cmd)?;
        self.run_effects(ctx, eff);
        Ok(idx)
    }

    fn run_effects(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>, effects: Vec<Effect<C>>) {
        for e in effects {
            match e {
                Effect::Send(to, msg) => ctx.send(to, msg),
                Effect::ArmElectionTimer(d) => {
                    if let Some(t) = self.election_timer.take() {
                        ctx.cancel_timer(t);
                    }
                    self.election_timer = Some(ctx.set_timer(d, TIMER_ELECTION));
                }
                Effect::ArmHeartbeatTimer(d) => {
                    if let Some(t) = self.heartbeat_timer.take() {
                        ctx.cancel_timer(t);
                    }
                    self.heartbeat_timer = Some(ctx.set_timer(d, TIMER_HEARTBEAT));
                }
                Effect::Commit(entry) => self.sm.apply(&entry),
                Effect::BecameLeader(term) => {
                    self.leadership_history.push(LeadershipEvent {
                        at: ctx.now(),
                        term,
                    });
                    self.sm.on_became_leader(term);
                }
                Effect::SteppedDown(term) => {
                    self.step_downs += 1;
                    self.sm.on_stepped_down(term);
                }
                Effect::RestoreSnapshot(data) => self.sm.restore(&data),
                Effect::ConfigChanged(_) => {}
                Effect::Persist(op) => {
                    if let Some(st) = self.storage.as_mut() {
                        st.record(&op);
                    }
                }
            }
        }
    }
}

impl<C: Command, SM: StateMachine<C>> Actor<RaftMsg<C>> for RaftActor<C, SM> {
    fn on_start(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>) {
        let eff = self.node.start();
        self.run_effects(ctx, eff);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>, from: NodeId, msg: RaftMsg<C>) {
        let eff = self.node.handle(from, msg);
        self.run_effects(ctx, eff);
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>, tag: u64) {
        let eff = match tag {
            TIMER_ELECTION => {
                self.election_timer = None;
                self.node.on_election_timeout()
            }
            TIMER_HEARTBEAT => {
                self.heartbeat_timer = None;
                self.node.on_heartbeat_timeout()
            }
            _ => Vec::new(),
        };
        self.run_effects(ctx, eff);
    }

    fn on_crash(&mut self, _now: SimTime) {
        // Timers die with the process; persistent Raft state (term, vote,
        // log) survives inside `self.node`.
        self.election_timer = None;
        self.heartbeat_timer = None;
    }

    fn on_restart(&mut self, ctx: &mut dyn Transport<RaftMsg<C>>) {
        // Rejoin as a follower: leadership is volatile.
        let eff = self.node.handle_restart();
        self.run_effects(ctx, eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_simnet::{Sim, SimDuration};

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
        // Cut the leader off from both followers.
        for &id in &ids {
            if id != leader {
                sim.partition_pair(leader, id);
            }
        }
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
        let others: Vec<NodeId> = ids.iter().copied().filter(|&i| i != leader).collect();
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
