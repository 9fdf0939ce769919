//! Transcript oracle for the Raft drivers: `RaftActor` and both layers of
//! `HierActor`. Every scenario pins three digests:
//!
//! * the simulator's trace JSON (sends with kind and ledger bytes,
//!   deliveries, drops, timer tags, crashes, restarts);
//! * every call a peer makes on its transport, in order: the codec bytes
//!   of each send, each timer armed (delay, tag, id) and each cancelled;
//! * the codec bytes of each peer's end state: term, vote, every live
//!   entry and the snapshot index of both logs, the replicated
//!   `fed_config`, `sub_members` and `topology`, plus the applied
//!   histories.
//!
//! The pinned values were captured before the three hand-kept effect
//! loops became one driver and must never be edited for a refactor: equal
//! transcripts are the licence for one. Only a deliberate protocol change
//! may move them, and then the commit message says which scenario moved
//! and why.

use p2pfl_hierraft::{
    DeploymentSpec, ElasticBounds, FedCmd, HierActor, HierMsg, SubCmd, TopologyCmd,
};
use p2pfl_raft::{
    Command, Entry, LogCmd, MemStorage, RaftActor, RaftConfig, RaftMsg, RaftNode, StateMachine,
};
use p2pfl_simnet::{
    codec, Actor, Latency, LatencyConfig, NodeId, Payload, Sim, SimDuration, SimTime, TimerId,
    Transport,
};
use std::sync::{Arc, Mutex};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hosts an actor and digests every transport call it makes. A tap marked
/// `boot` runs its actor's `on_start` at the next restart: the actor was
/// rebuilt from its storage while the node was down, as a new process is.
struct Tap<A> {
    inner: A,
    calls: Arc<Mutex<(Fnv, u64)>>,
    boot: bool,
}

struct Recorder<'a, M: Payload> {
    t: &'a mut dyn Transport<M>,
    calls: &'a Mutex<(Fnv, u64)>,
}

impl<M: Payload> Recorder<'_, M> {
    fn record(&self, op: u8, parts: &[&[u8]]) {
        let mut calls = self.calls.lock().unwrap();
        calls.0.feed(&[op]);
        calls.0.feed(&self.t.node_id().0.to_le_bytes());
        for p in parts {
            calls.0.feed(p);
        }
        calls.1 += 1;
    }
}

impl<M: Payload + serde::Serialize> Transport<M> for Recorder<'_, M> {
    fn now(&self) -> SimTime {
        self.t.now()
    }
    fn node_id(&self) -> NodeId {
        self.t.node_id()
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.record(b's', &[&to.0.to_le_bytes(), &codec::to_bytes(&msg)]);
        self.t.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.t.set_timer(delay, tag);
        self.record(
            b't',
            &[
                &delay.as_nanos().to_le_bytes(),
                &tag.to_le_bytes(),
                &id.0.to_le_bytes(),
            ],
        );
        id
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.record(b'c', &[&id.0.to_le_bytes()]);
        self.t.cancel_timer(id)
    }
}

impl<A> Tap<A> {
    fn with<M: Payload + serde::Serialize, R>(
        &mut self,
        t: &mut dyn Transport<M>,
        f: impl FnOnce(&mut A, &mut dyn Transport<M>) -> R,
    ) -> R {
        let mut rec = Recorder {
            t,
            calls: &self.calls,
        };
        f(&mut self.inner, &mut rec)
    }
}

impl<M: Payload + serde::Serialize, A: Actor<M>> Actor<M> for Tap<A> {
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
        if std::mem::take(&mut self.boot) {
            self.with(t, |a, t| a.on_start(t));
        } else {
            self.with(t, |a, t| a.on_restart(t));
        }
    }
}

/// What one scenario pins.
#[derive(Debug, PartialEq)]
struct Pin {
    trace: u64,
    calls: u64,
    ncalls: u64,
    state: u64,
}

fn pin(trace: u64, calls: u64, ncalls: u64, state: u64) -> Pin {
    Pin {
        trace,
        calls,
        ncalls,
        state,
    }
}

/// Term, vote, live entries and snapshot index of one Raft log.
fn feed_node<C: Command + serde::Serialize>(h: &mut Fnv, node: &RaftNode<C>) {
    h.feed(&codec::to_bytes(&node.term()));
    h.feed(&codec::to_bytes(&node.voted_for()));
    h.feed(&codec::to_bytes(&node.log().snapshot_index()));
    for e in node.log().iter() {
        h.feed(&codec::to_bytes(e));
    }
}

fn finish<M: Payload + serde::Serialize, A: Actor<M>>(
    sim: &Sim<M>,
    calls: &Mutex<(Fnv, u64)>,
    mut peer: impl FnMut(&mut Fnv, &A),
) -> Pin {
    let mut trace = Fnv::new();
    trace.feed(sim.trace().to_json().as_bytes());
    let mut state = Fnv::new();
    for i in 0..sim.node_count() {
        let id = NodeId(i as u32);
        state.feed(&[sim.is_crashed(id) as u8]);
        peer(&mut state, &sim.actor::<Tap<A>>(id).inner);
    }
    let calls = calls.lock().unwrap();
    Pin {
        trace: trace.0,
        calls: calls.0 .0,
        ncalls: calls.1,
        state: state.0,
    }
}

// ----------------------------------------------------------------------
// RaftActor
// ----------------------------------------------------------------------

/// Folds applied commands into one number; snapshots and restores it.
#[derive(Default)]
struct Fold {
    acc: u64,
    applied: u64,
}

impl StateMachine<u64> for Fold {
    fn apply(&mut self, entry: &Entry<u64>) {
        if let LogCmd::App(v) = entry.cmd {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(v);
            self.applied += 1;
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        codec::to_bytes(&vec![self.acc, self.applied])
    }
    fn restore(&mut self, data: &[u8]) {
        if let Ok(v) = codec::from_bytes::<Vec<u64>>(data) {
            self.acc = v[0];
            self.applied = v[1];
        }
    }
}

type Node = RaftActor<u64, Fold>;

/// Five storage-backed servers: replication, a compaction cut a crashed
/// follower can only cross by snapshot, then a leader crash.
fn raft_cluster() -> Pin {
    let mut sim: Sim<RaftMsg<u64>> = Sim::new(5);
    sim.enable_trace();
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let calls = Arc::new(Mutex::new((Fnv::new(), 0)));
    for &id in &ids {
        let cfg = RaftConfig::paper(
            id,
            ids.clone(),
            SimDuration::from_millis(100),
            5 + id.0 as u64,
        );
        let node = Node::with_storage(cfg, Fold::default(), Box::new(MemStorage::new()));
        sim.add_node(Tap {
            inner: node,
            calls: calls.clone(),
            boot: false,
        });
    }
    let leader = |sim: &Sim<RaftMsg<u64>>| {
        ids.iter()
            .copied()
            .find(|&id| !sim.is_crashed(id) && sim.actor::<Tap<Node>>(id).inner.is_leader())
    };
    let propose = |sim: &mut Sim<RaftMsg<u64>>, at: NodeId, v: u64| {
        sim.exec::<Tap<Node>, _, _>(at, |tap, ctx| {
            tap.with(ctx, |a, t| a.propose(t, v).unwrap());
        });
        sim.run_for(SimDuration::from_millis(10));
    };
    sim.run_until(SimTime::from_secs(2));
    let l = leader(&sim).expect("a leader");
    for v in 1..=20 {
        propose(&mut sim, l, v);
    }
    sim.run_for(SimDuration::from_millis(500));
    let peer = NodeId((l.0 + 1) % 5);
    for id in [l, peer] {
        assert!(sim.actor_mut::<Tap<Node>>(id).inner.compact_log() > 0);
    }
    let victim = NodeId((l.0 + 2) % 5);
    sim.schedule_crash(victim, sim.now() + SimDuration::from_millis(1));
    sim.run_for(SimDuration::from_millis(100));
    for v in 21..=30 {
        propose(&mut sim, l, v);
    }
    sim.run_for(SimDuration::from_millis(300));
    assert!(sim.actor_mut::<Tap<Node>>(l).inner.compact_log() > 0);
    sim.schedule_restart(victim, sim.now() + SimDuration::from_millis(1));
    sim.run_for(SimDuration::from_secs(1));
    sim.schedule_crash(l, sim.now() + SimDuration::from_millis(1));
    sim.run_for(SimDuration::from_secs(2));
    let l2 = leader(&sim).expect("a new leader");
    for v in 31..=35 {
        propose(&mut sim, l2, v);
    }
    sim.schedule_restart(l, sim.now() + SimDuration::from_millis(1));
    sim.run_for(SimDuration::from_secs(1));
    finish(&sim, &calls, |h, a: &Node| {
        feed_node(h, a.raft());
        h.feed(&codec::to_bytes(&a.raft().commit_index()));
        h.feed(&codec::to_bytes(&vec![
            a.sm.acc,
            a.sm.applied,
            a.step_downs,
        ]));
        h.feed(format!("{:?}", a.leadership_history).as_bytes());
    })
}

// ----------------------------------------------------------------------
// HierActor
// ----------------------------------------------------------------------

type Stores = (MemStorage<SubCmd>, MemStorage<FedCmd>);

struct Hier {
    sim: Sim<HierMsg>,
    spec: DeploymentSpec,
    calls: Arc<Mutex<(Fnv, u64)>>,
    stores: Option<Vec<Stores>>,
}

fn spec(subgroups: usize, size: usize, seed: u64) -> DeploymentSpec {
    DeploymentSpec {
        num_subgroups: subgroups,
        subgroup_size: size,
        ..DeploymentSpec::paper(100, seed)
    }
}

impl Hier {
    fn build(spec: DeploymentSpec, durable: bool) -> Hier {
        let mut sim = Sim::new(spec.seed);
        sim.enable_trace();
        sim.set_latency(LatencyConfig::uniform_default(Latency::Constant(
            spec.link_delay,
        )));
        let mut h = Hier {
            sim,
            calls: Arc::new(Mutex::new((Fnv::new(), 0))),
            stores: durable.then(Vec::new),
            spec,
        };
        for _ in 0..h.spec.total_peers() {
            h.spawn();
        }
        h
    }

    /// Adds the next peer (an unplaced joiner once the layout is full).
    fn spawn(&mut self) -> NodeId {
        let id = NodeId(self.sim.node_count() as u32);
        let cfg = self.spec.peer_config(id);
        let actor = match self.stores.as_mut() {
            Some(stores) => {
                let s: Stores = (MemStorage::new(), MemStorage::new());
                stores.push(s.clone());
                HierActor::with_storage(cfg, Box::new(s.0), Box::new(s.1))
            }
            None => HierActor::new(cfg),
        };
        let got = self.sim.add_node(Tap {
            inner: actor,
            calls: self.calls.clone(),
            boot: false,
        });
        assert_eq!(got, id);
        id
    }

    fn peer(&self, id: NodeId) -> &HierActor {
        &self.sim.actor::<Tap<HierActor>>(id).inner
    }

    fn exec<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut HierActor, &mut dyn Transport<HierMsg>) -> R,
    ) -> R {
        self.sim
            .exec::<Tap<HierActor>, _, _>(id, |tap, ctx| tap.with(ctx, f))
    }

    fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.sim.node_count() as u32)
            .map(NodeId)
            .filter(|&id| !self.sim.is_crashed(id))
    }

    fn fed_leader(&self) -> NodeId {
        self.live()
            .find(|&id| self.peer(id).is_fed_leader())
            .expect("a FedAvg leader")
    }

    /// The live leader of the subgroup `member` belongs to.
    fn sub_leader(&self, member: NodeId) -> NodeId {
        let group = self.peer(member).subgroup().to_vec();
        self.live()
            .find(|&id| group.contains(&id) && self.peer(id).is_sub_leader())
            .expect("a subgroup leader")
    }

    fn run_ms(&mut self, ms: u64) {
        self.sim.run_for(SimDuration::from_millis(ms));
    }

    fn crash(&mut self, id: NodeId) {
        let at = self.sim.now() + SimDuration::from_millis(1);
        self.sim.schedule_crash(id, at);
    }

    fn restart(&mut self, id: NodeId) {
        let at = self.sim.now() + SimDuration::from_millis(1);
        self.sim.schedule_restart(id, at);
    }

    /// Kills `id` and boots a new process for it from its storage alone.
    fn rebuild(&mut self, id: NodeId) {
        self.crash(id);
        self.run_ms(300);
        let s = self.stores.as_ref().expect("a durable deployment")[id.index()].clone();
        let actor =
            HierActor::with_storage(self.spec.peer_config(id), Box::new(s.0), Box::new(s.1));
        let tap = self.sim.actor_mut::<Tap<HierActor>>(id);
        tap.inner = actor;
        tap.boot = true;
        self.restart(id);
    }

    fn finish(&self) -> Pin {
        finish(&self.sim, &self.calls, |h, a: &HierActor| {
            feed_node(h, a.sub_raft());
            if let Some(fed) = a.fed_raft() {
                feed_node(h, fed);
            }
            h.feed(&codec::to_bytes(&a.fed_config));
            h.feed(&codec::to_bytes(&a.sub_members));
            h.feed(&codec::to_bytes(&a.topology));
            h.feed(&codec::to_bytes(&a.fed_cmds_applied));
            h.feed(&codec::to_bytes(&a.sub_cmds_applied));
            h.feed(
                format!(
                    "{:?} {:?} {:?} {:?} {:?} {} {} {} {} {:?} {:?}",
                    a.sub_leader_history,
                    a.fed_leader_history,
                    a.join_ack_at,
                    a.fed_active_at,
                    a.roster_changes,
                    a.rekeys,
                    a.splits,
                    a.equivocations_detected,
                    a.bogus_rosters_rejected,
                    a.byzantine_peers,
                    a.rekey_history,
                )
                .as_bytes(),
            );
        })
    }
}

fn hier_settle() -> Pin {
    let mut h = Hier::build(spec(2, 3, 1), false);
    h.run_ms(5_000);
    h.finish()
}

/// A subgroup leader that holds no FedAvg leadership crashes: its
/// subgroup elects a replacement that joins the FedAvg layer in its
/// seat; the old leader restarts and is retired from that layer.
fn hier_sub_failover() -> Pin {
    let mut h = Hier::build(spec(3, 3, 2), false);
    h.run_ms(3_000);
    let fl = h.fed_leader();
    let victim = h
        .live()
        .find(|&id| h.peer(id).is_fed_member() && id != fl)
        .unwrap();
    h.crash(victim);
    h.run_ms(4_000);
    h.restart(victim);
    h.run_ms(3_000);
    h.finish()
}

/// The FedAvg leader crashes: the layer rebuilds around the others and
/// the old leader comes back as a follower.
fn hier_fed_failover() -> Pin {
    let mut h = Hier::build(spec(3, 3, 3), false);
    h.run_ms(3_000);
    let fl = h.fed_leader();
    h.crash(fl);
    h.run_ms(4_000);
    h.restart(fl);
    h.run_ms(3_000);
    h.finish()
}

/// A storage-backed representative is killed after both of its logs were
/// cut at a checkpoint and booted again from storage alone.
fn hier_durable_rebuild() -> Pin {
    let mut h = Hier::build(spec(3, 3, 4), true);
    h.run_ms(3_000);
    let fl = h.fed_leader();
    let victim = h
        .live()
        .find(|&id| h.peer(id).is_fed_member() && id != fl)
        .unwrap();
    for v in 0..270 {
        h.exec(victim, |a, t| a.propose_sub(t, v).unwrap());
        h.exec(fl, |a, t| a.propose_fed(t, FedCmd::Round(v)).unwrap());
        if v % 6 == 5 {
            h.run_ms(60);
        }
    }
    h.run_ms(500);
    {
        let a = h.peer(victim);
        assert!(a.sub_raft().log().snapshot_index() > 0, "sub log cut");
        assert!(
            a.fed_raft().unwrap().log().snapshot_index() > 0,
            "fed log cut"
        );
    }
    h.rebuild(victim);
    h.run_ms(3_000);
    let fl = h.fed_leader();
    for v in 270..280 {
        h.exec(fl, |a, t| a.propose_fed(t, FedCmd::Round(v)).unwrap());
        h.run_ms(20);
    }
    h.run_ms(1_000);
    h.finish()
}

/// Elastic layout changes through the FedAvg-layer log: a rendezvous
/// admission, a split, then a departure.
fn hier_elastic() -> Pin {
    let mut s = spec(2, 4, 6);
    s.elastic = Some(ElasticBounds::new(2, 6));
    let mut h = Hier::build(s, false);
    h.run_ms(3_000);
    h.spawn();
    h.run_ms(3_000);
    let fl = h.fed_leader();
    let g0 = h.peer(fl).topology.groups[0].clone();
    h.exec(fl, |a, t| {
        a.propose_topology(
            t,
            TopologyCmd::Split {
                gid: g0.gid,
                left: g0.members[..2].to_vec(),
                right: g0.members[2..].to_vec(),
            },
        )
        .unwrap()
    });
    h.run_ms(4_000);
    let fl = h.fed_leader();
    let leaver = h.peer(fl).topology.groups.last().unwrap().members[0];
    h.exec(fl, |a, t| {
        a.propose_topology(t, TopologyCmd::Depart { peer: leaver })
            .unwrap()
    });
    h.run_ms(4_000);
    h.finish()
}

/// An equivocating peer and a leader replicating a phantom roster.
fn hier_byzantine() -> Pin {
    let mut h = Hier::build(spec(2, 3, 7), false);
    h.run_ms(3_000);
    let equivocator = NodeId(1);
    let bogus = h.sub_leader(NodeId(3));
    h.sim
        .actor_mut::<Tap<HierActor>>(equivocator)
        .inner
        .byz_equivocate = true;
    h.sim
        .actor_mut::<Tap<HierActor>>(bogus)
        .inner
        .byz_bogus_roster = true;
    h.run_ms(3_000);
    h.finish()
}

#[test]
fn transcripts_match_the_pinned_parent() {
    let runs: Vec<(&str, Pin)> = vec![
        ("raft cluster crash restart compact", raft_cluster()),
        ("hier settle 2x3", hier_settle()),
        ("hier subgroup failover", hier_sub_failover()),
        ("hier fedavg failover", hier_fed_failover()),
        ("hier durable rebuild across cuts", hier_durable_rebuild()),
        ("hier elastic admit split depart", hier_elastic()),
        ("hier byzantine switches", hier_byzantine()),
    ];
    let pinned = pinned();
    assert_eq!(runs.len(), pinned.len(), "every scenario has a pin");
    let mut failures = Vec::new();
    for ((name, got), (pinned_name, want)) in runs.into_iter().zip(pinned) {
        assert_eq!(name, pinned_name, "scenario order");
        if got != want {
            failures.push(format!(
                "(\"{name}\", pin({:#018x}, {:#018x}, {}, {:#018x})),",
                got.trace, got.calls, got.ncalls, got.state
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "transcripts moved; actual values:\n{}",
        failures.join("\n")
    );
}

/// Captured at the commit before the Raft driver was shared.
fn pinned() -> Vec<(&'static str, Pin)> {
    vec![
        (
            "raft cluster crash restart compact",
            pin(
                0xe1c08c7f4e022107,
                0x0d8df1b883e1649e,
                8630,
                0x7ae97946508c894a,
            ),
        ),
        (
            "hier settle 2x3",
            pin(
                0x66de7d8f6925cb02,
                0x8d2890074e3d8750,
                7286,
                0xad4c66f4f5caca02,
            ),
        ),
        (
            "hier subgroup failover",
            pin(
                0x083478ea5473982f,
                0x61fb6e07664ffb6d,
                21993,
                0x68b242ae58f25697,
            ),
        ),
        (
            "hier fedavg failover",
            pin(
                0xc4b29db081239651,
                0xcb9adb29b8aa2c89,
                21936,
                0x4bd4264c708b85bd,
            ),
        ),
        (
            "hier durable rebuild across cuts",
            pin(
                0xf2e1122f94af2878,
                0x7b5246e517262850,
                34166,
                0x82bff2d4a1c6c400,
            ),
        ),
        (
            "hier elastic admit split depart",
            pin(
                0xaabac73970a6c0af,
                0x5895355e3c0e8893,
                31548,
                0x1533a69c1af57229,
            ),
        ),
        (
            "hier byzantine switches",
            pin(
                0xac3763bbaa826eb6,
                0xa2e1b49044d48e1d,
                9029,
                0xd9c4d0e4bfc836cd,
            ),
        ),
    ]
}
