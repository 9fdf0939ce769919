//! End-to-end over real sockets: the SAC engine completes aggregation
//! rounds on localhost TCP, survives an injected connection blackout via
//! the transport's reconnect/backoff machinery, and produces results
//! bit-for-bit identical to the same protocol executed under the
//! deterministic simulator with the same seeds and models. A follower
//! killed between rounds and restarted at a new address contributes to
//! the next round.

use p2pfl_bench::testkit::{
    assert_clean_wire, mesh, models, reactor, reactor_round, sac_peers, sim_group, sim_round,
    spawn_group,
};
use p2pfl_secagg::{PairwiseWire, SacEngine, SacMsg, SacPeerActor, WeightVector};
use p2pfl_simnet::{NodeId, SimDuration};

const N: usize = 5;
const K: usize = 3;
const DIM: usize = 32;
const SEED: u64 = 0xA57;

/// The group's peers. The deadlines only bound how long the leader waits
/// for stragglers; with full participation it freezes as soon as all `n`
/// blocks arrive, so the result does not depend on these values as long as
/// they exceed worst-case delivery (which differs wildly between the
/// simulator and TCP-with-reconnects — hence the parameter).
fn peers(deadline: SimDuration) -> Vec<(NodeId, SacPeerActor)> {
    let models = models(N, DIM, SEED + 999);
    sac_peers(&models, N, K, SacEngine::Pairwise, deadline, SEED)
}

#[test]
fn tcp_rounds_match_simulator_bitwise_across_connection_drops() {
    // Two rounds under the simulator: the leader's digest after each.
    let mut sim = sim_group(SEED, peers(SimDuration::from_millis(500)), None);
    let expected: Vec<u64> = (1..=2)
        .map(|round| {
            sim_round::<PairwiseWire>(&mut sim, [NodeId(0)], round)[0]
                .1
                .digest()
        })
        .collect();

    // Same actors, same seeds and models — but on real sockets, split
    // over two reactors so some pairs share a listener and some do not.
    // Generous deadlines (wall-clock here!) so reconnect backoff after the
    // injected blackout can never shrink the contributor set.
    let mut peers = peers(SimDuration::from_secs(10));
    let second = peers.split_off(3);
    let (r1, r2) = (reactor::<SacMsg, SacPeerActor>(), reactor());
    let mut handles = spawn_group(&r1, peers, None);
    handles.extend(spawn_group(&r2, second, None));
    mesh(&handles);

    // Round 1 on a healthy network.
    assert_eq!(
        reactor_round(&handles[..1], 1)[0].1.digest(),
        expected[0],
        "round 1 diverged from simulator"
    );

    // Sever every TCP connection in the mesh, then immediately run round 2:
    // the first sends find no socket and the dialers must reconnect (with
    // backoff) before any share can flow.
    r1.kill_connections();
    r2.kill_connections();
    assert_eq!(
        reactor_round(&handles[..1], 2)[0].1.digest(),
        expected[1],
        "round 2 diverged from simulator"
    );

    let reconnects: u64 = handles.iter().map(|h| h.stats().reconnects).sum();
    assert!(
        reconnects >= 1,
        "blackout did not exercise the reconnect path"
    );
    assert_clean_wire(&handles);
}

#[test]
fn follower_killed_between_rounds_rejoins_at_a_new_address() {
    const VICTIM: usize = 2;
    let deadline = SimDuration::from_secs(10);
    let home = reactor::<SacMsg, SacPeerActor>();
    let mut handles = spawn_group(&home, peers(deadline), None);
    mesh(&handles);
    assert_eq!(
        reactor_round(&handles[..1], 1)[0].0,
        (0..N).collect::<Vec<_>>()
    );

    // A process kill: the restarted peer has a fresh actor, no sockets and
    // a listener of its own, and its neighbours (one lower id that dials
    // it, three higher ones it dials) are re-pointed.
    handles.remove(VICTIM).kill();
    let away = reactor::<SacMsg, SacPeerActor>();
    let (id, fresh) = peers(deadline).swap_remove(VICTIM);
    let back = away.spawn_peer(id, fresh).expect("respawn");
    for other in &handles {
        back.add_peer(other.node_id(), other.local_addr());
        other.add_peer(back.node_id(), back.local_addr());
    }

    let (contributors, result) = reactor_round(&handles[..1], 2).remove(0);
    assert_eq!(
        contributors,
        (0..N).collect::<Vec<_>>(),
        "rejoiner left out"
    );
    let mean = WeightVector::mean(models(N, DIM, SEED + 999).iter());
    assert!(result.linf_distance(&mean) < 1e-9);
    assert_clean_wire(&handles);
    assert_eq!(back.decode_errors(), 0);
}
