//! The one reactor test harness: host a group of actors on a
//! [`Reactor`], mesh them, drive a secure-aggregation round to its end, or
//! watch a two-layer `HierActor` deployment settle and commit.
//!
//! Every helper that waits names what it waits for, so a timeout says
//! which phase of which test stalled.

// Each test binary uses its own subset.
#![allow(dead_code)]

use p2pfl_hierraft::{FedCmd, HierActor, HierMsg};
use p2pfl_net::{PeerHandle, Reactor, ReactorConfig, WireMsg};
use p2pfl_secagg::{RoundCore, SacPhase, WeightVector, Wire};
use p2pfl_simnet::{Actor, FaultPlan, NodeId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// `NodeId(0)..NodeId(n)`.
pub fn ids(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
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
    leader: &PeerHandle<W::Msg, RoundCore<W>>,
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
