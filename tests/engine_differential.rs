//! Differential acceptance: the pairwise (Alg. 4) and Ring-SAC engines,
//! run with the same seed, the same input models, and the same fault
//! plan, must publish the same aggregate.
//!
//! The two engines use independent mask randomness (different message
//! schedules consume the shared seed differently), so cross-engine
//! results are *not* bit-identical — each engine's masks cancel to float
//! rounding, leaving a documented `RING_DIFF_TOL` gap between them. What
//! *is* bit-identical is each engine against itself across transports:
//! in the no-dropout case the same engine run under the simulator and
//! over real TCP sockets (the reactor) freezes the same contributor set and sums in
//! the same (position-sorted) order, so its digests must match exactly.

mod common;

use common::{assert_clean_wire, mesh, reactor, spawn_group, wait_done};
use p2pfl_secagg::{
    RingMsg, RingSacActor, SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme,
    WeightVector,
};
use p2pfl_simnet::{FaultPlan, NodeId, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 6;
const K: usize = 2;
const DIM: usize = 24;
const SEED: u64 = 0xD1FF;

/// Documented cross-engine bound. Each engine's result is the plain mean
/// of its contributors up to mask-cancellation rounding (masks are drawn
/// in `[-1e3, 1e3]`, so cancellation error is ~1e-12 at this scale); the
/// two engines therefore agree within a comfortable 1e-6.
const RING_DIFF_TOL: f64 = 1e-6;

fn models() -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED + 999);
    (0..N)
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect()
}

fn config(ids: &[NodeId], position: usize, engine: SacEngine, deadline: SimDuration) -> SacConfig {
    SacConfig {
        group: ids.to_vec(),
        position,
        leader_pos: 0,
        k: K,
        scheme: ShareScheme::Masked,
        engine,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed: SEED + position as u64,
    }
}

/// One simulated pairwise round under `plan`; returns the leader's frozen
/// contributor set and result.
fn sim_pairwise(plan: Option<&FaultPlan>) -> (Vec<usize>, WeightVector) {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for (i, model) in models().iter().enumerate() {
        let cfg = config(&ids, i, SacEngine::Pairwise, SimDuration::from_millis(100));
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    if let Some(p) = plan {
        sim.apply_fault_plan(p);
    }
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    let leader = sim.actor::<SacPeerActor>(ids[0]);
    assert_eq!(leader.phase, SacPhase::Done, "pairwise: {:?}", leader.phase);
    (leader.contributors.clone(), leader.result.clone().unwrap())
}

/// One simulated ring round under `plan`; returns the leader's frozen
/// contributor set and result.
fn sim_ring(plan: Option<&FaultPlan>) -> (Vec<usize>, WeightVector) {
    let mut sim: Sim<RingMsg> = Sim::new(SEED);
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for (i, model) in models().iter().enumerate() {
        let cfg = config(&ids, i, SacEngine::Ring, SimDuration::from_millis(100));
        sim.add_node(RingSacActor::new(cfg, model.clone()));
    }
    if let Some(p) = plan {
        sim.apply_fault_plan(p);
    }
    sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    let leader = sim.actor::<RingSacActor>(ids[0]);
    assert_eq!(leader.phase, SacPhase::Done, "ring: {:?}", leader.phase);
    (leader.contributors.clone(), leader.result.clone().unwrap())
}

#[test]
fn no_dropout_engines_agree_on_sim() {
    let (pc, pv) = sim_pairwise(None);
    let (rc, rv) = sim_ring(None);
    assert_eq!(pc, (0..N).collect::<Vec<_>>());
    assert_eq!(pc, rc, "contributor sets diverged");
    let gap = pv.linf_distance(&rv);
    assert!(gap <= RING_DIFF_TOL, "engines {gap} apart");
    // Both sit on the plain mean of all inputs.
    let mean = WeightVector::mean(models().iter());
    assert!(pv.linf_distance(&mean) <= RING_DIFF_TOL);
    assert!(rv.linf_distance(&mean) <= RING_DIFF_TOL);
}

#[test]
fn same_fault_plan_engines_agree_on_sim() {
    // One declarative plan interpreted by both engines: peer 4 crashes
    // mid-round, after shares have flowed but before the round closes.
    // Each engine must recover the lost peer's material from replicas and
    // still count it as a contributor.
    let plan = FaultPlan::new(SEED ^ 0xc4a5).crash(SimTime::from_millis(40), NodeId(4));
    let (pc, pv) = sim_pairwise(Some(&plan));
    let (rc, rv) = sim_ring(Some(&plan));
    assert_eq!(
        pc,
        (0..N).collect::<Vec<_>>(),
        "pairwise lost a contributor"
    );
    assert_eq!(pc, rc, "contributor sets diverged under the same plan");
    let gap = pv.linf_distance(&rv);
    assert!(gap <= RING_DIFF_TOL, "engines {gap} apart under faults");
}

#[test]
fn pre_round_crash_excludes_the_same_peer_from_both_engines() {
    // Crash before any share flows: both engines must exclude exactly the
    // crashed peer and average the surviving five.
    let plan = FaultPlan::new(SEED ^ 0xdead).crash(SimTime::ZERO, NodeId(5));
    let (pc, pv) = sim_pairwise(Some(&plan));
    let (rc, rv) = sim_ring(Some(&plan));
    assert_eq!(pc, (0..N - 1).collect::<Vec<_>>());
    assert_eq!(pc, rc, "exclusion diverged");
    let gap = pv.linf_distance(&rv);
    assert!(gap <= RING_DIFF_TOL, "engines {gap} apart after exclusion");
    let mean = WeightVector::mean(models()[..N - 1].iter());
    assert!(rv.linf_distance(&mean) <= RING_DIFF_TOL);
}

/// Simulator digests for `rounds` consecutive no-dropout rounds, pairwise.
fn sim_pairwise_digests(rounds: u64) -> Vec<u64> {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for (i, model) in models().iter().enumerate() {
        let cfg = config(&ids, i, SacEngine::Pairwise, SimDuration::from_millis(500));
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    let mut out = Vec::new();
    for round in 1..=rounds {
        sim.exec::<SacPeerActor, _, _>(ids[0], move |a, ctx| a.start_round(ctx, round));
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "{:?}", leader.phase);
        out.push(leader.result.as_ref().unwrap().digest());
    }
    out
}

/// Simulator digests for `rounds` consecutive no-dropout rounds, ring.
fn sim_ring_digests(rounds: u64) -> Vec<u64> {
    let mut sim: Sim<RingMsg> = Sim::new(SEED);
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for (i, model) in models().iter().enumerate() {
        let cfg = config(&ids, i, SacEngine::Ring, SimDuration::from_millis(500));
        sim.add_node(RingSacActor::new(cfg, model.clone()));
    }
    let mut out = Vec::new();
    for round in 1..=rounds {
        sim.exec::<RingSacActor, _, _>(ids[0], move |a, ctx| a.start_round(ctx, round));
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let leader = sim.actor::<RingSacActor>(ids[0]);
        assert_eq!(leader.phase, SacPhase::Done, "{:?}", leader.phase);
        out.push(leader.result.as_ref().unwrap().digest());
    }
    out
}

#[test]
fn tcp_engines_agree_and_match_their_simulator_runs_bitwise() {
    let expected_pairwise = sim_pairwise_digests(2);
    let expected_ring = sim_ring_digests(2);
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    let ms = models();
    let cfg = |i: usize, engine| config(&ids, i, engine, SimDuration::from_secs(10));

    let pairwise_reactor = reactor::<SacMsg, SacPeerActor>();
    let pairwise = spawn_group(
        &pairwise_reactor,
        (0..N).map(|i| {
            let actor = SacPeerActor::new(cfg(i, SacEngine::Pairwise), ms[i].clone());
            (ids[i], actor)
        }),
        None,
    );
    mesh(&pairwise);
    let ring_reactor = reactor::<RingMsg, RingSacActor>();
    let ring = spawn_group(
        &ring_reactor,
        (0..N).map(|i| {
            let actor = RingSacActor::new(cfg(i, SacEngine::Ring), ms[i].clone());
            (ids[i], actor)
        }),
        None,
    );
    mesh(&ring);

    // Round 1 on a healthy network.
    pairwise[0].with(|a, ctx| a.start_round(ctx, 1));
    ring[0].with(|a, ctx| a.start_round(ctx, 1));
    let (_, pv) = wait_done(&pairwise[0], "pairwise round 1");
    let (_, rv) = wait_done(&ring[0], "ring round 1");
    assert_eq!(pv.digest(), expected_pairwise[0], "pairwise TCP != sim");
    assert_eq!(rv.digest(), expected_ring[0], "ring TCP != sim");
    let gap = pv.linf_distance(&rv);
    assert!(gap <= RING_DIFF_TOL, "TCP engines {gap} apart");

    // The same transport fault against both engines: sever every TCP
    // connection, then run round 2 straight through the reconnect path.
    pairwise_reactor.kill_connections();
    ring_reactor.kill_connections();
    pairwise[0].with(|a, ctx| a.start_round(ctx, 2));
    ring[0].with(|a, ctx| a.start_round(ctx, 2));
    let (_, pv) = wait_done(&pairwise[0], "pairwise round 2");
    let (_, rv) = wait_done(&ring[0], "ring round 2");
    assert_eq!(pv.digest(), expected_pairwise[1], "pairwise TCP != sim");
    assert_eq!(rv.digest(), expected_ring[1], "ring TCP != sim");
    let gap = pv.linf_distance(&rv);
    assert!(
        gap <= RING_DIFF_TOL,
        "TCP engines {gap} apart after blackout"
    );
    assert_clean_wire(&pairwise);
    assert_clean_wire(&ring);
}
