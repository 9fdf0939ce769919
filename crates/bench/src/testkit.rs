//! The one harness for tests and bench bins: host a group of actors on a
//! [`Reactor`] or on a [`Sim`], mesh them, drive a secure-aggregation
//! round to its end on either, watch a two-layer `HierActor` deployment
//! settle and commit, and build the models, SAC configurations and
//! synthetic training session they start from.
//!
//! A sim-vs-reactor check is one twin: the same `(id, actor)` list goes to
//! [`sim_group`] and [`spawn_group`], and [`sim_round`] and
//! [`reactor_round`] return the same `(contributors, result)` per leader.
//!
//! Every helper that waits names what it waits for, so a timeout says
//! which phase of which test stalled.

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_fed::Client;
use p2pfl_hierraft::{FedCmd, HierActor, HierMsg};
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Dataset, Partition};
use p2pfl_ml::models::mlp;
use p2pfl_net::{PeerHandle, Reactor, ReactorConfig, WireMsg};
use p2pfl_secagg::{
    drive_round, RoundCore, SacConfig, SacEngine, SacMsg, SacPhase, ShareScheme, WeightVector, Wire,
};
use p2pfl_simnet::{Actor, FaultPlan, NodeId, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// `NodeId(0)..NodeId(n)`.
pub fn ids(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
}

/// `n` models of dimension `dim`, drawn in order from one RNG seeded
/// `seed`.
pub fn models(n: usize, dim: usize, seed: u64) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| WeightVector::random(dim, 1.0, &mut rng))
        .collect()
}

/// The SAC configuration harness rounds start from: leader at position
/// 0, masked shares, both stage deadlines `deadline`, no round deadline.
/// A caller that differs sets the field afterwards.
pub fn sac_config(
    group: &[NodeId],
    position: usize,
    k: usize,
    engine: SacEngine,
    deadline: SimDuration,
    seed: u64,
) -> SacConfig {
    SacConfig {
        group: group.to_vec(),
        position,
        leader_pos: 0,
        k,
        scheme: ShareScheme::Masked,
        engine,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed,
    }
}

/// One SAC peer per model: peers `0..models.len()` in consecutive
/// subgroups of `sub_size` (leader first), peer `id` holding `models[id]`
/// under [`sac_config`] with threshold `k`, stage deadlines `deadline` and
/// seed `seed + id`. A `sub_size` of `models.len()` is one flat group.
pub fn sac_peers<W: Wire>(
    models: &[WeightVector],
    sub_size: usize,
    k: usize,
    engine: SacEngine,
    deadline: SimDuration,
    seed: u64,
) -> Vec<(NodeId, RoundCore<W>)> {
    models
        .iter()
        .enumerate()
        .map(|(id, model)| {
            let first = id - id % sub_size;
            let group: Vec<NodeId> = (first..first + sub_size)
                .map(|i| NodeId(i as u32))
                .collect();
            let seed = seed + id as u64;
            let cfg = sac_config(&group, id % sub_size, k, engine, deadline, seed);
            (NodeId(id as u32), RoundCore::new(cfg, model.clone()))
        })
        .collect()
}

/// The simulator half of the twin, the mirror of [`spawn_group`]:
/// `p2pfl_secagg`'s driver, which the session aggregates through too.
pub use p2pfl_secagg::sim_group;

/// Starts round `round` on every leader in `leaders`, runs the simulator
/// for 30 s of virtual time ([`drive_round`]) and returns each leader's
/// frozen contributor set and result, in order. Panics, naming the
/// leader, if one is not `Done`.
pub fn sim_round<W: Wire>(
    sim: &mut Sim<SacMsg>,
    leaders: impl IntoIterator<Item = NodeId>,
    round: u64,
) -> Vec<(Vec<usize>, WeightVector)> {
    let leaders: Vec<NodeId> = leaders.into_iter().collect();
    drive_round::<W>(sim, leaders.iter().copied(), round)
        .into_iter()
        .zip(&leaders)
        .map(|(outcome, leader)| {
            outcome.unwrap_or_else(|phase| {
                panic!("simulated round {round} at leader {leader}: {phase}")
            })
        })
        .collect()
}

/// A simulator-backed session over synthetic 16-feature data: one client
/// per peer of `cfg` plus `joiners` spare clients (returned, for
/// [`ResilientSession::add_peer`]), each an MLP 16-24-10 over
/// `samples_per_peer` IID samples, and a 300-sample test split. Seeded
/// from `cfg.seed` alone.
pub fn synthetic_session(
    cfg: ResilientConfig,
    joiners: usize,
    samples_per_peer: usize,
) -> (ResilientSession, Vec<Client>, Dataset) {
    let seed = cfg.seed;
    let n_initial = cfg.deployment.total_peers();
    let train_count = (n_initial + joiners) * samples_per_peer;
    let (train, test) = train_test_split(&features_like(16, train_count + 300, seed), train_count);
    let parts = partition_dataset(&train, n_initial + joiners, Partition::Iid, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let mut clients: Vec<Client> = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let model = mlp(&[16, 24, 10], &mut rng);
            Client::new(i, model, d, 5e-3, seed + 10 + i as u64)
        })
        .collect();
    let spare = clients.split_off(n_initial);
    let eval = mlp(&[16, 24, 10], &mut rng);
    (ResilientSession::new(cfg, clients, eval), spare, test)
}

/// A reactor on an OS-assigned loopback port.
pub fn reactor<M, A>() -> Reactor<M, A>
where
    M: WireMsg + Send + 'static,
    A: Actor<M> + Send + 'static,
{
    Reactor::start(ReactorConfig::default()).expect("bind reactor")
}

/// Hosts every `(id, actor)` on `reactor`, each filtering its sends
/// through `plan` if one is given. Handles come back in input order.
pub fn spawn_group<M, A>(
    reactor: &Reactor<M, A>,
    actors: impl IntoIterator<Item = (NodeId, A)>,
    plan: Option<&FaultPlan>,
) -> Vec<PeerHandle<M, A>>
where
    M: WireMsg + Send + 'static,
    A: Actor<M> + Send + 'static,
{
    actors
        .into_iter()
        .map(|(id, actor)| match plan {
            Some(plan) => reactor.spawn_peer_with_faults(id, actor, plan),
            None => reactor.spawn_peer(id, actor),
        })
        .map(|spawned| spawned.expect("spawn peer"))
        .collect()
}

/// Tells every handle where every other one listens (its hosting
/// reactor's shared port, so the handles may span reactors).
pub fn mesh<M, A>(handles: &[PeerHandle<M, A>]) {
    for a in handles {
        for b in handles {
            if a.node_id() != b.node_id() {
                a.add_peer(b.node_id(), b.local_addr());
            }
        }
    }
}

/// Polls until `poll` yields, panicking with `what` after `timeout`.
pub fn wait_some<T>(what: &str, timeout: Duration, mut poll: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = poll() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls until `pred` holds, panicking with `what` after `timeout`.
pub fn wait_for(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    wait_some(what, timeout, || pred().then_some(()));
}

/// Waits for `leader`'s current round to finish; returns the frozen
/// contributor set and the published result. Panics, naming `what`, if
/// the round fails or stalls.
pub fn wait_done<W: Wire>(
    leader: &PeerHandle<SacMsg, RoundCore<W>>,
    what: &str,
) -> (Vec<usize>, WeightVector) {
    let outcome = wait_some(what, Duration::from_secs(60), || {
        leader.with(|a, _| match (&a.phase, &a.result) {
            (SacPhase::Done, Some(result)) => Some(Ok((a.contributors.clone(), result.clone()))),
            (SacPhase::Failed(e), _) => Some(Err(e.to_string())),
            _ => None,
        })
    });
    outcome.unwrap_or_else(|e| panic!("{what} failed: {e}"))
}

/// Starts round `round` on every leader in `leaders`, then waits for each
/// in turn ([`wait_done`]); returns each leader's frozen contributor set
/// and result, in order.
pub fn reactor_round<'a, W: Wire>(
    leaders: impl IntoIterator<Item = &'a PeerHandle<SacMsg, RoundCore<W>>>,
    round: u64,
) -> Vec<(Vec<usize>, WeightVector)> {
    let leaders: Vec<_> = leaders.into_iter().collect();
    for leader in &leaders {
        leader.with(move |a, ctx| a.start_round(ctx, round));
    }
    leaders
        .iter()
        .map(|leader| {
            let what = format!("round {round} at leader {}", leader.node_id());
            wait_done(leader, &what)
        })
        .collect()
}

/// No frame was refused by a decoder or a full queue on any handle.
pub fn assert_clean_wire<M, A>(handles: &[PeerHandle<M, A>]) {
    for h in handles {
        assert_eq!(h.decode_errors(), 0, "peer {:?}", h.node_id());
        let stats = h.stats();
        assert_eq!(stats.sends_dropped, 0, "peer {:?}: {stats:?}", h.node_id());
    }
}

/// A running two-layer deployment, by peer id.
pub type HierPeers = HashMap<NodeId, PeerHandle<HierMsg, HierActor>>;

/// Whether the deployment is stable: per subgroup exactly one leader, who
/// holds a FedAvg-layer seat, and exactly one FedAvg leader overall.
pub fn hier_stable(peers: &HierPeers, subgroups: &[Vec<NodeId>]) -> bool {
    let fed_leaders = peers
        .values()
        .filter(|h| h.with(|a, _| a.is_fed_leader()))
        .count();
    fed_leaders == 1
        && subgroups.iter().all(|g| {
            let leaders: Vec<_> = g
                .iter()
                .filter_map(|id| peers.get(id))
                .filter(|h| h.with(|a, _| a.is_sub_leader()))
                .collect();
            leaders.len() == 1 && leaders[0].with(|a, _| a.is_fed_member())
        })
}

/// Proposes `FedCmd::Round(marker)` at the FedAvg leader and waits until
/// every subgroup's leader has applied it.
pub fn commit_marker(peers: &HierPeers, subgroups: &[Vec<NodeId>], marker: u64) {
    let leader = peers
        .values()
        .find(|h| h.with(|a, _| a.is_fed_leader()))
        .expect("fed leader");
    leader.with(move |a, ctx| a.propose_fed(ctx, FedCmd::Round(marker)).unwrap());
    wait_for(
        &format!("marker {marker} at every subgroup leader"),
        Duration::from_secs(30),
        || {
            subgroups.iter().all(|g| {
                g.iter().filter_map(|id| peers.get(id)).any(|h| {
                    h.with(move |a, _| {
                        a.is_sub_leader() && a.fed_rounds_applied().contains(&marker)
                    })
                })
            })
        },
    );
}

/// Writes `payload` to a test socket as one frame without runs: its
/// `u32` length, then its bytes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame without runs from a blocking test socket.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}
