//! Write-ahead ordering for every Raft driver: `RaftActor`, and the
//! subgroup and FedAvg layers of `HierActor`.
//!
//! Raft's safety argument needs a server's answers to survive its crash:
//! a granted vote must be on stable storage, with the term it was granted
//! in, before the grant leaves the server, or a restarted server can vote
//! twice in one term; an append acknowledgement must follow the entries
//! it acknowledges onto storage, or a leader can count a replica that a
//! crash erases. Each peer here sits behind a transport that, at every
//! send, replays the peer's own shared `MemStorage` and checks both rules
//! against what storage holds at that instant.

use p2pfl_hierraft::{DeploymentSpec, FedCmd, HierActor, HierMsg, SubCmd};
use p2pfl_raft::{
    Command, MemStorage, NullStateMachine, RaftActor, RaftConfig, RaftMsg, RaftStorage,
};
use p2pfl_simnet::{
    Actor, Latency, LatencyConfig, NodeId, Payload, Sim, SimDuration, SimTime, TimerId, Transport,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Checked sends per layer: `(vote grants, append acks)`.
type Seen = Arc<Mutex<BTreeMap<&'static str, (u64, u64)>>>;

/// Checks one outgoing Raft message of `layer` against its sender's
/// storage.
fn check_layer<C: Command>(
    layer: &'static str,
    store: &MemStorage<C>,
    from: NodeId,
    to: NodeId,
    msg: &RaftMsg<C>,
    seen: &Seen,
) {
    let (votes, acks) = match msg {
        RaftMsg::RequestVoteResp {
            granted: true,
            term,
        } => {
            let st = store.clone().load().unwrap_or_default();
            assert!(
                st.term == *term && st.voted_for == Some(to),
                "{layer}: {from} granted {to} its vote in term {term} before storing it \
                 (storage: term {}, vote {:?})",
                st.term,
                st.voted_for
            );
            (1, 0)
        }
        RaftMsg::AppendEntriesResp {
            success: true,
            term,
            match_index,
        } => {
            let st = store.clone().load().unwrap_or_default();
            assert!(
                st.term == *term && st.log.last_index() >= *match_index,
                "{layer}: {from} acknowledged index {match_index} in term {term} before storing \
                 it (storage: term {}, last index {})",
                st.term,
                st.log.last_index()
            );
            (0, 1)
        }
        _ => return,
    };
    let mut seen = seen.lock().unwrap();
    let e = seen.entry(layer).or_default();
    e.0 += votes;
    e.1 += acks;
}

/// A peer's storage handles, and which of them a message is checked
/// against.
trait Stores<M>: 'static {
    fn check(&self, from: NodeId, to: NodeId, msg: &M, seen: &Seen);
}

impl Stores<RaftMsg<u64>> for MemStorage<u64> {
    fn check(&self, from: NodeId, to: NodeId, msg: &RaftMsg<u64>, seen: &Seen) {
        check_layer("raft", self, from, to, msg, seen);
    }
}

impl Stores<HierMsg> for (MemStorage<SubCmd>, MemStorage<FedCmd>) {
    fn check(&self, from: NodeId, to: NodeId, msg: &HierMsg, seen: &Seen) {
        match msg {
            HierMsg::Sub(m) => check_layer("sub", &self.0, from, to, m, seen),
            HierMsg::Fed(m) => check_layer("fed", &self.1, from, to, m, seen),
            _ => {}
        }
    }
}

/// Hosts an actor behind a transport that checks every send.
struct Wal<A, S> {
    inner: A,
    stores: S,
    seen: Seen,
}

struct Checked<'a, M: Payload, S> {
    t: &'a mut dyn Transport<M>,
    stores: &'a S,
    seen: &'a Seen,
}

impl<M: Payload, S: Stores<M>> Transport<M> for Checked<'_, M, S> {
    fn now(&self) -> SimTime {
        self.t.now()
    }
    fn node_id(&self) -> NodeId {
        self.t.node_id()
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.stores.check(self.t.node_id(), to, &msg, self.seen);
        self.t.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.t.set_timer(delay, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.t.cancel_timer(id)
    }
}

impl<A, S> Wal<A, S> {
    fn with<M: Payload, R>(
        &mut self,
        t: &mut dyn Transport<M>,
        f: impl FnOnce(&mut A, &mut dyn Transport<M>) -> R,
    ) -> R
    where
        S: Stores<M>,
    {
        let mut checked = Checked {
            t,
            stores: &self.stores,
            seen: &self.seen,
        };
        f(&mut self.inner, &mut checked)
    }
}

impl<M: Payload, A: Actor<M>, S: Stores<M>> Actor<M> for Wal<A, S> {
    fn on_start(&mut self, t: &mut dyn Transport<M>) {
        self.with(t, |a, t| a.on_start(t));
    }
    fn on_message(&mut self, t: &mut dyn Transport<M>, from: NodeId, msg: M) {
        self.with(t, |a, t| a.on_message(t, from, msg));
    }
    fn on_timer(&mut self, t: &mut dyn Transport<M>, tag: u64) {
        self.with(t, |a, t| a.on_timer(t, tag));
    }
    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }
    fn on_restart(&mut self, t: &mut dyn Transport<M>) {
        self.with(t, |a, t| a.on_restart(t));
    }
}

fn in_ms<M: Payload>(sim: &Sim<M>, ms: u64) -> SimTime {
    sim.now() + SimDuration::from_millis(ms)
}

#[test]
fn raft_actor_stores_before_it_answers() {
    type Node = Wal<RaftActor<u64, NullStateMachine>, MemStorage<u64>>;
    let seen = Seen::default();
    let mut sim: Sim<RaftMsg<u64>> = Sim::new(9);
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    for &id in &ids {
        let cfg = RaftConfig::paper(
            id,
            ids.clone(),
            SimDuration::from_millis(100),
            9 + id.0 as u64,
        );
        let store = MemStorage::new();
        sim.add_node(Wal {
            inner: RaftActor::with_storage(cfg, NullStateMachine, Box::new(store.clone())),
            stores: store,
            seen: seen.clone(),
        });
    }
    let leader = |sim: &Sim<RaftMsg<u64>>| {
        ids.iter()
            .copied()
            .find(|&id| !sim.is_crashed(id) && sim.actor::<Node>(id).inner.is_leader())
            .expect("a leader")
    };
    sim.run_until(SimTime::from_secs(2));
    // Replicate, cut the leader's log, and crash a follower so it comes
    // back behind the cut and acknowledges an installed snapshot; then
    // crash the leader so the survivors vote again.
    let l = leader(&sim);
    let follower = NodeId((l.0 + 1) % 5);
    sim.schedule_crash(follower, in_ms(&sim, 1));
    for v in 0..10 {
        sim.exec::<Node, _, _>(l, |w, ctx| w.with(ctx, |a, t| a.propose(t, v).unwrap()));
        sim.run_for(SimDuration::from_millis(20));
    }
    sim.run_for(SimDuration::from_millis(300));
    assert!(sim.actor_mut::<Node>(l).inner.compact_log() > 0);
    sim.schedule_restart(follower, in_ms(&sim, 1));
    sim.run_for(SimDuration::from_secs(1));
    sim.schedule_crash(l, in_ms(&sim, 1));
    sim.run_for(SimDuration::from_secs(2));
    sim.schedule_restart(l, in_ms(&sim, 1));
    sim.run_for(SimDuration::from_secs(1));
    let seen = seen.lock().unwrap();
    let (votes, acks) = seen["raft"];
    assert!(votes >= 6 && acks > 20, "checked too little: {seen:?}");
}

#[test]
fn hier_actor_stores_before_it_answers_on_both_layers() {
    type Peer = Wal<HierActor, (MemStorage<SubCmd>, MemStorage<FedCmd>)>;
    let spec = DeploymentSpec {
        num_subgroups: 3,
        subgroup_size: 3,
        ..DeploymentSpec::paper(100, 12)
    };
    let seen = Seen::default();
    let mut sim: Sim<HierMsg> = Sim::new(spec.seed);
    sim.set_latency(LatencyConfig::uniform_default(Latency::Constant(
        spec.link_delay,
    )));
    for i in 0..spec.total_peers() {
        let stores = (MemStorage::new(), MemStorage::new());
        let actor = HierActor::with_storage(
            spec.peer_config(NodeId(i as u32)),
            Box::new(stores.0.clone()),
            Box::new(stores.1.clone()),
        );
        sim.add_node(Wal {
            inner: actor,
            stores,
            seen: seen.clone(),
        });
    }
    let find = |sim: &Sim<HierMsg>, pred: &dyn Fn(&HierActor) -> bool| {
        (0..spec.total_peers() as u32)
            .map(NodeId)
            .find(|&id| !sim.is_crashed(id) && pred(&sim.actor::<Peer>(id).inner))
            .expect("a peer")
    };
    sim.run_until(SimTime::from_secs(3));
    // The FedAvg leader crashes (the FedAvg layer votes again), then a
    // subgroup leader with a seat crashes (its subgroup votes, and the
    // replacement's join appends membership changes on both layers).
    let fed_leader = find(&sim, &|a| a.is_fed_leader());
    sim.schedule_crash(fed_leader, in_ms(&sim, 1));
    sim.run_for(SimDuration::from_secs(3));
    let rep = find(&sim, &|a| a.is_fed_member() && !a.is_fed_leader());
    sim.schedule_crash(rep, in_ms(&sim, 1));
    sim.run_for(SimDuration::from_secs(3));
    sim.schedule_restart(fed_leader, in_ms(&sim, 1));
    sim.schedule_restart(rep, in_ms(&sim, 1));
    sim.run_for(SimDuration::from_secs(2));
    let seen = seen.lock().unwrap();
    for layer in ["sub", "fed"] {
        let (votes, acks) = seen.get(layer).copied().unwrap_or_default();
        assert!(
            votes >= 3 && acks > 20,
            "{layer}: checked too little: {seen:?}"
        );
    }
}
