//! End-to-end over real sockets: the SAC engine completes aggregation
//! rounds on localhost TCP, survives an injected connection blackout via
//! the transport's reconnect/backoff machinery, and produces results
//! bit-for-bit identical to the same protocol executed under the
//! deterministic simulator with the same seeds and models. A follower
//! killed between rounds and restarted at a new address contributes to
//! the next round.

mod common;

use common::{assert_clean_wire, ids, mesh, reactor, spawn_group, wait_done};
use p2pfl_secagg::{
    SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme, WeightVector,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 5;
const K: usize = 3;
const DIM: usize = 32;
const SEED: u64 = 0xA57;

fn models() -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED + 999);
    (0..N)
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect()
}

/// One peer's config. The deadlines only bound how long the leader waits
/// for stragglers; with full participation it freezes as soon as all `n`
/// blocks arrive, so the result does not depend on these values as long as
/// they exceed worst-case delivery (which differs wildly between the
/// simulator and TCP-with-reconnects — hence the parameter).
fn config(ids: &[NodeId], position: usize, deadline: SimDuration) -> SacConfig {
    SacConfig {
        group: ids.to_vec(),
        position,
        leader_pos: 0,
        k: K,
        scheme: ShareScheme::Masked,
        engine: SacEngine::Pairwise,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed: SEED + position as u64,
    }
}

/// Runs `rounds` aggregation rounds under the simulator and returns the
/// leader's result digest after each round.
fn simulator_digests(rounds: u64) -> Vec<u64> {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    let ids = ids(N);
    let models = models();
    for (i, model) in models.iter().enumerate() {
        let cfg = config(&ids, i, SimDuration::from_millis(500));
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    sim.run_until_quiet(100);
    let mut digests = Vec::new();
    for round in 1..=rounds {
        sim.exec::<SacPeerActor, _, _>(ids[0], move |a, ctx| a.start_round(ctx, round));
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(
            leader.phase,
            SacPhase::Done,
            "sim round {round}: {:?}",
            leader.phase
        );
        digests.push(leader.result.as_ref().unwrap().digest());
    }
    digests
}

#[test]
fn tcp_rounds_match_simulator_bitwise_across_connection_drops() {
    let expected = simulator_digests(2);

    // Same actors, same seeds and models — but on real sockets, split
    // over two reactors so some pairs share a listener and some do not.
    // Generous deadlines (wall-clock here!) so reconnect backoff after the
    // injected blackout can never shrink the contributor set.
    let ids = ids(N);
    let models = models();
    let actor = |i: usize| {
        let cfg = config(&ids, i, SimDuration::from_secs(10));
        (ids[i], SacPeerActor::new(cfg, models[i].clone()))
    };
    let (r1, r2) = (reactor::<SacMsg, SacPeerActor>(), reactor());
    let mut handles = spawn_group(&r1, (0..3).map(actor), None);
    handles.extend(spawn_group(&r2, (3..N).map(actor), None));
    mesh(&handles);

    // Round 1 on a healthy network.
    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    assert_eq!(
        wait_done(&handles[0], "round 1").1.digest(),
        expected[0],
        "round 1 diverged from simulator"
    );

    // Sever every TCP connection in the mesh, then immediately run round 2:
    // the first sends find no socket and the dialers must reconnect (with
    // backoff) before any share can flow.
    r1.kill_connections();
    r2.kill_connections();
    handles[0].with(|a, ctx| a.start_round(ctx, 2));
    assert_eq!(
        wait_done(&handles[0], "round 2").1.digest(),
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
    let ids = ids(N);
    let models = models();
    let actor = |i: usize| {
        let cfg = config(&ids, i, SimDuration::from_secs(10));
        (ids[i], SacPeerActor::new(cfg, models[i].clone()))
    };
    let home = reactor::<SacMsg, SacPeerActor>();
    let mut handles = spawn_group(&home, (0..N).map(actor), None);
    mesh(&handles);
    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    assert_eq!(
        wait_done(&handles[0], "round 1").0,
        (0..N).collect::<Vec<_>>()
    );

    // A process kill: the restarted peer has a fresh actor, no sockets and
    // a listener of its own, and its neighbours (one lower id that dials
    // it, three higher ones it dials) are re-pointed.
    handles.remove(VICTIM).kill();
    let away = reactor::<SacMsg, SacPeerActor>();
    let (id, fresh) = actor(VICTIM);
    let back = away.spawn_peer(id, fresh).expect("respawn");
    for other in &handles {
        back.add_peer(other.node_id(), other.local_addr());
        other.add_peer(back.node_id(), back.local_addr());
    }

    handles[0].with(|a, ctx| a.start_round(ctx, 2));
    let (contributors, result) = wait_done(&handles[0], "round 2");
    assert_eq!(
        contributors,
        (0..N).collect::<Vec<_>>(),
        "rejoiner left out"
    );
    let mean = WeightVector::mean(models.iter());
    assert!(result.linf_distance(&mean) < 1e-9);
    assert_clean_wire(&handles);
    assert_eq!(back.decode_errors(), 0);
}
