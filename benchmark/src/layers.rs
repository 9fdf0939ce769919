//! The adapter: every call into a crate of the repo lives in this module.
//!
//! The workload and probe modules time these functions from outside and
//! never name a crate themselves, so when the system under test changes
//! shape (open item 1 replaces `ResilientSession` by `PeerNode`s hosted on
//! a transport) the benchmark is re-pointed here and nowhere else.
//!
//! Nothing here measures; everything here is driven only by inputs
//! generated from the benchmark seed.

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_fed::parallel::local_updates_masked;
use p2pfl_fed::{combine, Client, LocalTrainConfig};
use p2pfl_hierraft::experiments::{fedavg_leader_crash_trial, subgroup_leader_crash_trial};
use p2pfl_hierraft::{Deployment, DeploymentSpec, FedCmd, HierActor};
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Dataset, Partition};
use p2pfl_ml::metrics::evaluate;
use p2pfl_ml::models::mlp;
use p2pfl_ml::optim::Adam;
use p2pfl_ml::Sequential;
use p2pfl_net::codec::{from_bytes, to_frame_bytes, FrameBuffer};
use p2pfl_net::{PeerHandle, Reactor, ReactorConfig};
use p2pfl_raft::{NullStateMachine, RaftActor, RaftConfig, RaftMsg};
use p2pfl_secagg::{
    divide_masked, fault_tolerant_secure_average, RingMsg, RingSacActor, SacConfig, SacEngine,
    SacMsg, SacPeerActor, SacPhase, ShareScheme, WeightVector,
};
use p2pfl_simnet::{Actor, NodeId, Payload, Sim, SimDuration, SimTime, TimerId, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;

// ---------------------------------------------------------------------
// The session: `session_mlp_30`
// ---------------------------------------------------------------------

/// Paper headline topology: N = 30 = 10 subgroups of 3, 2-of-3 shares.
pub const SESSION_SUBGROUPS: usize = 10;
const SESSION_SUBGROUP_SIZE: usize = 3;
const SESSION_THRESHOLD: usize = 2;
/// MLP 64-128-10: 64*128 + 128 + 128*10 + 10 parameters.
const MLP_DIMS: [usize; 3] = [64, 128, 10];
pub const SESSION_DIM: usize = 9610;
const SAMPLES_PER_PEER: usize = 200;
const TEST_SAMPLES: usize = 500;
const LEARNING_RATE: f32 = 2e-4;
const TRAIN: LocalTrainConfig = LocalTrainConfig {
    epochs: 1,
    batch_size: 50,
};
/// The session's subgroup layout, for the probes that take a shape.
pub const SESSION_SHAPE: Shape = Shape {
    groups: SESSION_SUBGROUPS,
    group_size: SESSION_SUBGROUP_SIZE,
    k: SESSION_THRESHOLD,
    dim: SESSION_DIM,
};
/// Samples one round of local training processes, all peers together.
pub const SESSION_SAMPLES_PER_ROUND: usize =
    SESSION_SUBGROUPS * SESSION_SUBGROUP_SIZE * SAMPLES_PER_PEER;

struct SessionInputs {
    cfg: ResilientConfig,
    clients: Vec<Client>,
    eval: Sequential,
    test: Dataset,
}

/// Data, partitions, models and every protocol seed, from the benchmark
/// seed alone.
fn session_inputs(seed: u64) -> SessionInputs {
    let mut cfg = ResilientConfig::small(seed);
    cfg.deployment = DeploymentSpec::paper(100, seed);
    cfg.deployment.num_subgroups = SESSION_SUBGROUPS;
    cfg.deployment.subgroup_size = SESSION_SUBGROUP_SIZE;
    cfg.threshold = SESSION_THRESHOLD;
    cfg.train = TRAIN;
    let peers = cfg.deployment.total_peers();
    let all = features_like(MLP_DIMS[0], peers * SAMPLES_PER_PEER + TEST_SAMPLES, seed);
    let (train, test) = train_test_split(&all, peers * SAMPLES_PER_PEER);
    let parts = partition_dataset(&train, peers, Partition::NON_IID_0, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let clients = parts
        .into_iter()
        .enumerate()
        .map(|(i, data)| {
            let model = mlp(&MLP_DIMS, &mut rng);
            Client::new(i, model, data, LEARNING_RATE, seed + 10 + i as u64)
        })
        .collect();
    let eval = mlp(&MLP_DIMS, &mut rng);
    SessionInputs {
        cfg,
        clients,
        eval,
        test,
    }
}

/// What one session round produced.
pub struct SessionRound {
    pub accuracy: f64,
    /// Aggregation traffic of the round (`RoundRecord.bytes`).
    pub aggregation_bytes: u64,
    /// Subgroups whose average entered the combine.
    pub groups_used: usize,
}

/// The composed system as it ships today: `ResilientSession::run_round`.
pub struct Session {
    inner: ResilientSession,
    test: Dataset,
}

impl Session {
    /// Data + clients + `Deployment` stabilisation.
    pub fn start(seed: u64) -> Session {
        let inputs = session_inputs(seed);
        Session {
            inner: ResilientSession::new(inputs.cfg, inputs.clients, inputs.eval),
            test: inputs.test,
        }
    }

    pub fn round(&mut self, round: usize) -> SessionRound {
        let out = self.inner.run_round(round, &self.test);
        SessionRound {
            accuracy: out.record.test_accuracy,
            aggregation_bytes: out.record.bytes,
            groups_used: out.record.groups_used,
        }
    }

    /// Raft control traffic so far, `(messages, bytes)`.
    pub fn control_traffic(&self) -> (u64, u64) {
        let total = self.inner.dep.sim.metrics().total();
        (total.msgs, total.bytes)
    }

    pub fn global(&self) -> &[f64] {
        self.inner.global()
    }
}

/// Bit-exact digest of a parameter vector.
pub fn params_digest(params: &[f64]) -> u64 {
    WeightVector::new(params.to_vec()).digest()
}

/// The session round rebuilt phase by phase from the same public calls
/// `run_round` makes, so each phase can be timed from outside. It follows
/// `run_round`'s fault-free path exactly - same calls, same order, same
/// share RNG stream - and the caller checks its global against the real
/// session's every round.
pub struct SessionTwin {
    dep: Deployment,
    clients: Vec<Client>,
    eval: Sequential,
    test: Dataset,
    global: Vec<f64>,
    cfg: ResilientConfig,
    rng: StdRng,
    fed_leader: Option<NodeId>,
    group_averages: Vec<Vec<f64>>,
    group_samples: Vec<usize>,
}

impl SessionTwin {
    pub fn start(seed: u64) -> SessionTwin {
        let inputs = session_inputs(seed);
        let mut dep = Deployment::build(inputs.cfg.deployment.clone());
        assert!(
            dep.wait_stable(SimTime::from_secs(30)),
            "twin deployment failed to stabilize"
        );
        let global = inputs.eval.params_flat();
        let mut twin = SessionTwin {
            dep,
            clients: inputs.clients,
            eval: inputs.eval,
            test: inputs.test,
            global,
            // The share RNG derivation `ResilientSession::new` uses, so the
            // twin draws the same masks and stays bit-identical to it.
            rng: StdRng::seed_from_u64(inputs.cfg.seed ^ 0x7e51),
            cfg: inputs.cfg,
            fed_leader: None,
            group_averages: Vec::new(),
            group_samples: Vec::new(),
        };
        twin.push_global();
        twin
    }

    fn push_global(&mut self) {
        for c in &mut self.clients {
            c.set_params(&self.global);
        }
    }

    /// `hierraft` + `raft` + `simnet`: the Raft settle window of a round.
    /// Returns the simulator events it processed.
    pub fn settle(&mut self) -> u64 {
        self.dep.sim.run_for(self.cfg.round_settle)
    }

    /// `fed` + `ml`: local training on every peer.
    pub fn train(&mut self) {
        let alive = vec![true; self.clients.len()];
        local_updates_masked(&mut self.clients, &alive, self.cfg.train);
        self.fed_leader = self.dep.fed_leader();
        self.group_averages.clear();
        self.group_samples.clear();
    }

    /// `secagg`: FT-SAC over subgroup `g` under its Raft-elected leader.
    /// Returns whether the subgroup produced an average.
    pub fn secure_average(&mut self, g: usize) -> bool {
        let leader = self
            .dep
            .sub_leader_of(g)
            .filter(|&l| self.dep.sim.actor::<HierActor>(l).is_fed_member());
        let Some(leader) = leader else {
            return false;
        };
        let actor = self.dep.sim.actor::<HierActor>(leader);
        assert_eq!(
            actor.fed_config.engine,
            SacEngine::Pairwise,
            "the twin mirrors the pairwise path only"
        );
        let members = actor.live_sub_members().to_vec();
        let Some(leader_pos) = members.iter().position(|&m| m == leader) else {
            return false;
        };
        let models: Vec<WeightVector> = members
            .iter()
            .map(|m| WeightVector::new(self.clients[m.index()].params()))
            .collect();
        let k = self.cfg.threshold.min(members.len()).max(1);
        let Ok(out) = fault_tolerant_secure_average(
            &models,
            k,
            leader_pos,
            &[],
            self.cfg.scheme,
            &mut self.rng,
        ) else {
            return false;
        };
        let samples = out
            .contributors
            .iter()
            .map(|&pos| self.clients[members[pos].index()].num_samples())
            .sum();
        self.group_averages.push(out.average.into_inner());
        self.group_samples.push(samples);
        true
    }

    /// `fed`: sequence the round in the FedAvg log, combine the subgroup
    /// averages and push the new global back to every client.
    pub fn combine(&mut self, round: usize) {
        let Some(leader) = self.fed_leader.filter(|_| !self.group_averages.is_empty()) else {
            return;
        };
        self.dep.sim.exec::<HierActor, _, _>(leader, |a, ctx| {
            let _ = a.propose_fed(ctx, FedCmd::Round(round as u64));
        });
        let combiner = self.dep.sim.actor::<HierActor>(leader).fed_config.combiner;
        self.global = combine(combiner, &self.group_averages, &self.group_samples);
        self.push_global();
    }

    /// `ml`: test accuracy of the global model.
    pub fn evaluate(&mut self) -> f64 {
        self.eval.set_params_flat(&self.global);
        evaluate(&mut self.eval, &self.test, 256).1
    }

    /// Raft control traffic so far, `(messages, bytes)`.
    pub fn control_traffic(&self) -> (u64, u64) {
        let total = self.dep.sim.metrics().total();
        (total.msgs, total.bytes)
    }

    pub fn global(&self) -> &[f64] {
        &self.global
    }
}

// ---------------------------------------------------------------------
// Secure-aggregation engines on the reactor and on the simulator twin
// ---------------------------------------------------------------------

/// One subgroup layout run on the reactor: `groups` independent subgroups
/// of `group_size` peers, `k`-of-n shares, `dim` parameters per model.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub groups: usize,
    pub group_size: usize,
    pub k: usize,
    pub dim: usize,
}

impl Shape {
    pub fn peers(&self) -> usize {
        self.groups * self.group_size
    }

    fn members(&self, group: usize) -> Vec<NodeId> {
        (0..self.group_size)
            .map(|i| NodeId((group * self.group_size + i) as u32))
            .collect()
    }

    fn leader(&self, group: usize) -> usize {
        group * self.group_size
    }
}

/// Where a leader is in its round.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundState {
    Pending,
    Done,
    Failed(String),
}

fn round_state(phase: &SacPhase) -> RoundState {
    match phase {
        SacPhase::Done => RoundState::Done,
        SacPhase::Failed(why) => RoundState::Failed(why.clone()),
        _ => RoundState::Pending,
    }
}

/// The pairwise engine (Alg. 4, all-to-all shares).
pub type Pairwise = SacPeerActor;
/// The staged Ring-SAC engine.
pub type Ring = RingSacActor;
/// One peer's flat parameter vector.
pub type Model = WeightVector;

/// What the benchmark needs from either aggregation engine.
pub trait Engine: Actor<Self::Msg> + Send + Sized + 'static {
    type Msg: Payload + serde::Serialize + serde::Deserialize;
    const KIND: SacEngine;
    fn build(cfg: SacConfig, model: WeightVector) -> Self;
    fn begin(&mut self, t: &mut dyn Transport<Self::Msg>, round: u64);
    fn state(&self) -> RoundState;
    fn result_digest(&self) -> Option<u64>;
}

impl Engine for SacPeerActor {
    type Msg = SacMsg;
    const KIND: SacEngine = SacEngine::Pairwise;
    fn build(cfg: SacConfig, model: WeightVector) -> Self {
        SacPeerActor::new(cfg, model)
    }
    fn begin(&mut self, t: &mut dyn Transport<SacMsg>, round: u64) {
        self.start_round(t, round);
    }
    fn state(&self) -> RoundState {
        round_state(&self.phase)
    }
    fn result_digest(&self) -> Option<u64> {
        self.result.as_ref().map(WeightVector::digest)
    }
}

impl Engine for RingSacActor {
    type Msg = RingMsg;
    const KIND: SacEngine = SacEngine::Ring;
    fn build(cfg: SacConfig, model: WeightVector) -> Self {
        RingSacActor::new(cfg, model)
    }
    fn begin(&mut self, t: &mut dyn Transport<RingMsg>, round: u64) {
        self.start_round(t, round);
    }
    fn state(&self) -> RoundState {
        round_state(&self.phase)
    }
    fn result_digest(&self) -> Option<u64> {
        self.result.as_ref().map(WeightVector::digest)
    }
}

/// One model per peer, from the benchmark seed.
pub fn random_models(shape: &Shape, seed: u64) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_6465_6c73);
    (0..shape.peers())
        .map(|_| WeightVector::random(shape.dim, 1.0, &mut rng))
        .collect()
}

/// No deadline may fire in a fault-free round: a loaded reactor must show
/// up as a slow round, not as an abort.
const NEVER: SimDuration = SimDuration::from_secs(3600);

fn engine_config<E: Engine>(shape: &Shape, peer: usize, seed: u64) -> SacConfig {
    SacConfig {
        group: shape.members(peer / shape.group_size),
        position: peer % shape.group_size,
        leader_pos: 0,
        k: shape.k,
        scheme: ShareScheme::Masked,
        engine: E::KIND,
        share_deadline: NEVER,
        collect_deadline: NEVER,
        round_deadline: None,
        seed: seed.wrapping_add(1 + peer as u64),
    }
}

fn engines<E: Engine>(shape: &Shape, models: &[WeightVector], seed: u64) -> Vec<E> {
    assert_eq!(models.len(), shape.peers(), "one model per peer");
    models
        .iter()
        .enumerate()
        .map(|(peer, model)| E::build(engine_config::<E>(shape, peer, seed), model.clone()))
        .collect()
}

/// Transport counters summed over every peer of a mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetTotals {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub frames_coalesced: u64,
    pub send_queue_peak: u64,
    pub reconnects: u64,
    pub sends_dropped: u64,
    pub decode_errors: u64,
}

fn net_totals<M, A>(handles: &[PeerHandle<M, A>]) -> NetTotals {
    let mut t = NetTotals::default();
    for h in handles {
        let s = h.stats();
        t.frames_sent += s.frames_sent;
        t.bytes_sent += s.bytes_sent;
        t.frames_coalesced += s.frames_coalesced;
        t.send_queue_peak = t.send_queue_peak.max(s.send_queue_peak);
        t.reconnects += s.reconnects;
        t.sends_dropped += s.sends_dropped;
        t.decode_errors += h.decode_errors();
    }
    t
}

/// Registers every pair of each subgroup with each other (the lower id of
/// a pair dials).
fn connect_groups<M, A>(shape: &Shape, handles: &[PeerHandle<M, A>], addr: SocketAddr) {
    for g in 0..shape.groups {
        let members = shape.members(g);
        for &a in &members {
            for &b in &members {
                if a != b {
                    handles[a.index()].add_peer(b, addr);
                }
            }
        }
    }
}

/// The subgroups of a shape hosted on one `Reactor` over loopback.
pub struct Mesh<E: Engine> {
    shape: Shape,
    handles: Vec<PeerHandle<E::Msg, E>>,
    // Dropped after the handles: stops the loop thread and joins it.
    _reactor: Reactor<E::Msg, E>,
}

impl<E: Engine> Mesh<E> {
    /// Reactor start + spawn + mesh dial (links come up in the background;
    /// the first round waits for them).
    pub fn start(shape: &Shape, models: &[WeightVector], seed: u64) -> Mesh<E> {
        let reactor: Reactor<E::Msg, E> =
            Reactor::start(ReactorConfig::default()).expect("bind the loopback reactor");
        let handles: Vec<PeerHandle<E::Msg, E>> = engines::<E>(shape, models, seed)
            .into_iter()
            .enumerate()
            .map(|(peer, actor)| {
                reactor
                    .spawn_peer(NodeId(peer as u32), actor)
                    .expect("spawn a peer on the reactor")
            })
            .collect();
        connect_groups(shape, &handles, reactor.local_addr());
        Mesh {
            shape: *shape,
            handles,
            _reactor: reactor,
        }
    }

    /// Starts `round` on every subgroup leader.
    pub fn begin_round(&self, round: u64) {
        for g in 0..self.shape.groups {
            self.handles[self.shape.leader(g)].with(move |a, t| a.begin(t, round));
        }
    }

    /// Asks subgroup `g`'s leader where it is (one call onto the loop).
    pub fn poll(&self, g: usize) -> RoundState {
        self.handles[self.shape.leader(g)].with(|a, _| a.state())
    }

    /// Digest of subgroup `g`'s finished average.
    pub fn result_digest(&self, g: usize) -> Option<u64> {
        self.handles[self.shape.leader(g)].with(|a, _| a.result_digest())
    }

    pub fn net_totals(&self) -> NetTotals {
        net_totals(&self.handles)
    }
}

/// Wraps an engine so the messages it sends can be copied out.
struct Tap<E: Engine> {
    inner: E,
    /// `Some` while recording.
    sent: Option<Vec<E::Msg>>,
}

struct TapTransport<'a, M: Payload> {
    inner: &'a mut dyn Transport<M>,
    sent: &'a mut Option<Vec<M>>,
}

impl<M: Payload> Transport<M> for TapTransport<'_, M> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn send(&mut self, to: NodeId, msg: M) {
        if let Some(sent) = self.sent.as_mut() {
            sent.push(msg.clone());
        }
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.inner.set_timer(delay, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.inner.cancel_timer(id);
    }
}

impl<E: Engine> Tap<E> {
    fn tapped<'a>(
        sent: &'a mut Option<Vec<E::Msg>>,
        t: &'a mut dyn Transport<E::Msg>,
    ) -> TapTransport<'a, E::Msg> {
        TapTransport { inner: t, sent }
    }
}

impl<E: Engine> Actor<E::Msg> for Tap<E> {
    fn on_start(&mut self, t: &mut dyn Transport<E::Msg>) {
        self.inner.on_start(&mut Self::tapped(&mut self.sent, t));
    }
    fn on_message(&mut self, t: &mut dyn Transport<E::Msg>, from: NodeId, msg: E::Msg) {
        self.inner
            .on_message(&mut Self::tapped(&mut self.sent, t), from, msg);
    }
    fn on_timer(&mut self, t: &mut dyn Transport<E::Msg>, tag: u64) {
        self.inner
            .on_timer(&mut Self::tapped(&mut self.sent, t), tag);
    }
}

/// The simulator twin of a [`Mesh`]: the same actors, seeds and models on
/// a `Sim` - engine and kernels, no codec, no sockets.
pub struct Twin<E: Engine> {
    shape: Shape,
    sim: Sim<E::Msg>,
}

/// Events one twin round may take before it counts as stuck.
const TWIN_EVENT_CAP: u64 = 50_000_000;

impl<E: Engine> Twin<E> {
    pub fn start(shape: &Shape, models: &[WeightVector], seed: u64) -> Twin<E> {
        let mut sim: Sim<E::Msg> = Sim::new(seed);
        for inner in engines::<E>(shape, models, seed) {
            sim.add_node(Tap { inner, sent: None });
        }
        sim.run_until_quiet(TWIN_EVENT_CAP);
        Twin { shape: *shape, sim }
    }

    /// Starts or stops copying out sent messages.
    pub fn record(&mut self, on: bool) {
        for peer in 0..self.shape.peers() {
            self.sim.actor_mut::<Tap<E>>(NodeId(peer as u32)).sent = on.then(Vec::new);
        }
    }

    /// Runs `round` on every subgroup to completion; returns the simulator
    /// events processed.
    pub fn round(&mut self, round: u64) -> u64 {
        for g in 0..self.shape.groups {
            let leader = NodeId(self.shape.leader(g) as u32);
            self.sim.exec::<Tap<E>, _, _>(leader, |a, ctx| {
                a.inner
                    .begin(&mut Tap::<E>::tapped(&mut a.sent, ctx), round)
            });
        }
        self.sim.run_until_quiet(TWIN_EVENT_CAP)
    }

    /// Subgroup `g`'s digest after a finished round, `Err` with the
    /// leader's state otherwise.
    pub fn result_digest(&self, g: usize) -> Result<u64, String> {
        let leader = &self
            .sim
            .actor::<Tap<E>>(NodeId(self.shape.leader(g) as u32))
            .inner;
        match (leader.state(), leader.result_digest()) {
            (RoundState::Done, Some(d)) => Ok(d),
            (state, _) => Err(format!("twin leader of subgroup {g} is {state:?}")),
        }
    }

    /// Takes the recorded messages, peer by peer in send order.
    pub fn take_recorded(&mut self) -> Vec<E::Msg> {
        let mut all = Vec::new();
        for peer in 0..self.shape.peers() {
            let tap = self.sim.actor_mut::<Tap<E>>(NodeId(peer as u32));
            if let Some(sent) = tap.sent.as_mut() {
                all.append(sent);
            }
        }
        all
    }
}

// ---------------------------------------------------------------------
// `net::codec`, as the reactor uses it
// ---------------------------------------------------------------------

/// The reactor's send-side encoding: one length-prefixed frame.
pub fn encode_frame<M: serde::Serialize>(msg: &M) -> Vec<u8> {
    to_frame_bytes(msg).expect("engine messages fit a frame")
}

/// The reactor's receive side: bytes arrive in read-buffer sized pieces,
/// are reassembled into a frame and decoded. Returns whether it decoded.
pub fn decode_frame<M: serde::Deserialize>(frame: &[u8]) -> bool {
    const READ_CHUNK: usize = 64 << 10;
    let mut buf = FrameBuffer::new();
    for piece in frame.chunks(READ_CHUNK) {
        buf.extend(piece);
    }
    match buf.next_frame() {
        Ok(Some(payload)) => from_bytes::<M>(&payload).is_ok(),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Bare-reactor probes: a benchmark-side actor over `SacMsg` frames
// ---------------------------------------------------------------------

/// Counts frames and sends some straight back; never looks inside them.
pub struct EchoActor {
    /// Frames received.
    pub received: u64,
    /// A received frame is sent back while fewer than this many have been
    /// received: 0 only counts, `u64::MAX` reflects everything.
    bounce_until: u64,
}

impl Actor<SacMsg> for EchoActor {
    fn on_message(&mut self, t: &mut dyn Transport<SacMsg>, from: NodeId, msg: SacMsg) {
        self.received += 1;
        if self.received < self.bounce_until {
            t.send(from, msg);
        }
    }
}

/// A `SacMsg` whose frame is close to `bytes` long: digests for small
/// frames (8 bytes each plus a fixed header), a model vector for bulk.
pub fn sized_message(bytes: usize) -> SacMsg {
    if bytes <= 4096 {
        SacMsg::Commit {
            round: 1,
            from_pos: 0,
            digests: vec![0x5eed; bytes.saturating_sub(24) / 8],
        }
    } else {
        SacMsg::Subtotal {
            round: 1,
            idx: 0,
            value: WeightVector::zeros(bytes / 8),
        }
    }
}

/// Echo actors on one reactor, wired like the subgroups of a shape.
pub struct EchoMesh {
    shape: Shape,
    handles: Vec<PeerHandle<SacMsg, EchoActor>>,
    _reactor: Reactor<SacMsg, EchoActor>,
}

impl EchoMesh {
    /// Starts the reactor and spawns the peers; nothing is dialled yet.
    /// Peers reflect when `reflect`, count otherwise.
    pub fn spawn(shape: &Shape, reflect: bool) -> EchoMesh {
        let reactor: Reactor<SacMsg, EchoActor> =
            Reactor::start(ReactorConfig::default()).expect("bind the loopback reactor");
        let handles = (0..shape.peers())
            .map(|peer| {
                let actor = EchoActor {
                    received: 0,
                    // Peer 0 drives a probe, everyone else answers it.
                    bounce_until: if reflect && peer != 0 { u64::MAX } else { 0 },
                };
                reactor
                    .spawn_peer(NodeId(peer as u32), actor)
                    .expect("spawn an echo peer")
            })
            .collect();
        EchoMesh {
            shape: *shape,
            handles,
            _reactor: reactor,
        }
    }

    /// Dials every link and has the lower id of each pair send one small
    /// frame over it; a link is up when that frame has arrived.
    pub fn dial_all(&self) {
        connect_groups(&self.shape, &self.handles, self.handles[0].local_addr());
        for g in 0..self.shape.groups {
            let members = self.shape.members(g);
            for (i, &a) in members.iter().enumerate() {
                let higher: Vec<NodeId> = members[i + 1..].to_vec();
                self.handles[a.index()].with(move |_, t| {
                    for &b in &higher {
                        t.send(b, sized_message(64));
                    }
                });
            }
        }
    }

    /// Frames peer `peer` has received.
    pub fn received_by(&self, peer: usize) -> u64 {
        self.handles[peer].with(|a, _| a.received)
    }

    /// Peer 0 sends `burst` copies of `msg` to peer 1.
    pub fn send_burst(&self, msg: &SacMsg, burst: usize) {
        let msg = msg.clone();
        self.handles[0].with(move |_, t| {
            for _ in 0..burst {
                t.send(NodeId(1), msg.clone());
            }
        });
    }

    /// Peer 0 starts a ping-pong of `trips` round trips with the
    /// reflecting peer 1; done when peer 0 has received `trips` frames.
    pub fn start_ping_pong(&self, msg: &SacMsg, trips: u64) {
        let msg = msg.clone();
        self.handles[0].with(move |a, t| {
            a.received = 0;
            a.bounce_until = trips;
            t.send(NodeId(1), msg);
        });
    }
}

// ---------------------------------------------------------------------
// Layer probes with a fixed shape
// ---------------------------------------------------------------------

/// `raft`: five `RaftActor`s with a null state machine on the simulator.
pub struct RaftCluster {
    sim: Sim<RaftMsg<u64>>,
    leader: NodeId,
}

impl RaftCluster {
    /// Builds the cluster and runs it until a leader is elected.
    pub fn elect(seed: u64) -> RaftCluster {
        let mut sim: Sim<RaftMsg<u64>> = Sim::new(seed);
        let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
        for &id in &ids {
            let cfg = RaftConfig::paper(
                id,
                ids.clone(),
                SimDuration::from_millis(100),
                seed.wrapping_add(id.0 as u64),
            );
            sim.add_node(RaftActor::new(cfg, NullStateMachine));
        }
        type Node = RaftActor<u64, NullStateMachine>;
        let deadline = SimTime::from_secs(30);
        let leader = loop {
            sim.run_for(SimDuration::from_millis(50));
            if let Some(&l) = ids.iter().find(|&&id| sim.actor::<Node>(id).is_leader()) {
                break l;
            }
            assert!(sim.now() < deadline, "raft probe elected no leader");
        };
        RaftCluster { sim, leader }
    }

    /// Proposes `entries` commands one after another, each given two
    /// heartbeat periods to commit and be acknowledged by every follower
    /// before the next (the session's pattern: one entry per round).
    /// Proposing the moment the previous entry commits instead makes the
    /// leader re-ship the tail to the slower followers and the messages
    /// per commit grow without bound - a finding, not a load to time.
    /// Returns the messages the cluster exchanged meanwhile.
    pub fn commit(&mut self, entries: u64) -> u64 {
        type Node = RaftActor<u64, NullStateMachine>;
        let before = self.sim.metrics().total().msgs;
        for cmd in 0..entries {
            let index = self
                .sim
                .exec::<Node, _, _>(self.leader, |a, ctx| a.propose(ctx, cmd))
                .expect("the probe's leader stays leader");
            self.sim.run_for(SimDuration::from_millis(40));
            let committed = self.sim.actor::<Node>(self.leader).raft().commit_index();
            assert!(
                committed >= index,
                "entry {index} did not commit in two heartbeats"
            );
        }
        self.sim.metrics().total().msgs - before
    }
}

/// `hierraft`: virtual milliseconds one failover took (subgroup leader
/// crash until its successor joined the FedAvg layer, or FedAvg leader
/// crash until the layer is rebuilt), `None` if it did not recover.
pub fn failover_trial(fedavg_leader: bool, seed: u64) -> Option<f64> {
    const T_MS: u64 = 100;
    if fedavg_leader {
        fedavg_leader_crash_trial(T_MS, seed).map(|r| r.rebuild_ms)
    } else {
        subgroup_leader_crash_trial(T_MS, seed).map(|r| r.join_ms)
    }
}

/// `ml`: the session's MLP with one batch of its training data, stepped
/// with Adam.
pub struct TrainStep {
    model: Sequential,
    opt: Adam,
    batch: (p2pfl_ml::Tensor, Vec<usize>),
}

impl TrainStep {
    pub fn new(seed: u64) -> TrainStep {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = features_like(MLP_DIMS[0], TRAIN.batch_size, seed);
        TrainStep {
            model: mlp(&MLP_DIMS, &mut rng),
            opt: Adam::new(LEARNING_RATE),
            batch: data.full_batch(),
        }
    }

    /// One forward + backward + optimizer step.
    pub fn step(&mut self) -> f32 {
        let (x, y) = &self.batch;
        self.model.train_batch(x, y, &mut self.opt).0
    }
}

/// `secagg` kernels at one dimension.
pub struct Kernels {
    model: WeightVector,
    acc: WeightVector,
    rng: StdRng,
    parts: usize,
}

impl Kernels {
    pub fn new(dim: usize, parts: usize, seed: u64) -> Kernels {
        let mut rng = StdRng::seed_from_u64(seed);
        Kernels {
            model: WeightVector::random(dim, 1.0, &mut rng),
            acc: WeightVector::zeros(dim),
            rng,
            parts,
        }
    }

    /// `divide_masked` into the shape's partition count.
    pub fn divide(&mut self) -> Vec<WeightVector> {
        divide_masked(&self.model, self.parts, &mut self.rng)
    }

    /// `add_assign` of one vector into an accumulator.
    pub fn accumulate(&mut self) {
        self.acc.add_assign(&self.model);
    }

    /// `WeightVector::digest`.
    pub fn digest(&self) -> u64 {
        self.model.digest()
    }
}
