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

use p2pfl_bench::testkit::{
    assert_clean_wire, mesh, models, reactor, sac_peers, sim_group, sim_round, spawn_group,
    wait_done,
};
use p2pfl_secagg::{
    PairwiseWire, RingSacActor, RingWire, RoundCore, SacEngine, SacMsg, SacPeerActor, WeightVector,
    Wire,
};
use p2pfl_simnet::{FaultPlan, NodeId, SimDuration, SimTime};

const N: usize = 6;
const K: usize = 2;
const DIM: usize = 24;
const SEED: u64 = 0xD1FF;

/// Documented cross-engine bound. Each engine's result is the plain mean
/// of its contributors up to mask-cancellation rounding (masks are drawn
/// in `[-1e3, 1e3]`, so cancellation error is ~1e-12 at this scale); the
/// two engines therefore agree within a comfortable 1e-6.
const RING_DIFF_TOL: f64 = 1e-6;

fn inputs() -> Vec<WeightVector> {
    models(N, DIM, SEED + 999)
}

/// The group's peers on `engine`; `deadline` bounds straggler waits only.
fn peers<W: Wire>(engine: SacEngine, deadline: SimDuration) -> Vec<(NodeId, RoundCore<W>)> {
    sac_peers(&inputs(), N, K, engine, deadline, SEED)
}

/// A leader's frozen contributor set and result.
type Outcome = (Vec<usize>, WeightVector);

/// One simulated round per engine under `plan`, pairwise first.
fn sim_engines(plan: Option<&FaultPlan>) -> (Outcome, Outcome) {
    let deadline = SimDuration::from_millis(100);
    let mut sim = sim_group(
        SEED,
        peers::<PairwiseWire>(SacEngine::Pairwise, deadline),
        plan,
    );
    let pairwise = sim_round::<PairwiseWire>(&mut sim, [NodeId(0)], 1).remove(0);
    let mut sim = sim_group(SEED, peers::<RingWire>(SacEngine::Ring, deadline), plan);
    let ring = sim_round::<RingWire>(&mut sim, [NodeId(0)], 1).remove(0);
    (pairwise, ring)
}

#[test]
fn no_dropout_engines_agree_on_sim() {
    let ((pc, pv), (rc, rv)) = sim_engines(None);
    assert_eq!(pc, (0..N).collect::<Vec<_>>());
    assert_eq!(pc, rc, "contributor sets diverged");
    let gap = pv.linf_distance(&rv);
    assert!(gap <= RING_DIFF_TOL, "engines {gap} apart");
    // Both sit on the plain mean of all inputs.
    let mean = WeightVector::mean(inputs().iter());
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
    let ((pc, pv), (rc, rv)) = sim_engines(Some(&plan));
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
    let ((pc, pv), (rc, rv)) = sim_engines(Some(&plan));
    assert_eq!(pc, (0..N - 1).collect::<Vec<_>>());
    assert_eq!(pc, rc, "exclusion diverged");
    let gap = pv.linf_distance(&rv);
    assert!(gap <= RING_DIFF_TOL, "engines {gap} apart after exclusion");
    let mean = WeightVector::mean(inputs()[..N - 1].iter());
    assert!(rv.linf_distance(&mean) <= RING_DIFF_TOL);
}

/// Simulator digests for `rounds` consecutive no-dropout rounds.
fn sim_digests<W: Wire>(engine: SacEngine, rounds: u64) -> Vec<u64> {
    let peers = peers::<W>(engine, SimDuration::from_millis(500));
    let mut sim = sim_group(SEED, peers, None);
    (1..=rounds)
        .map(|round| sim_round::<W>(&mut sim, [NodeId(0)], round)[0].1.digest())
        .collect()
}

#[test]
fn tcp_engines_agree_and_match_their_simulator_runs_bitwise() {
    let expected_pairwise = sim_digests::<PairwiseWire>(SacEngine::Pairwise, 2);
    let expected_ring = sim_digests::<RingWire>(SacEngine::Ring, 2);
    let deadline = SimDuration::from_secs(10);

    let pairwise_reactor = reactor::<SacMsg, SacPeerActor>();
    let pairwise = spawn_group(
        &pairwise_reactor,
        peers(SacEngine::Pairwise, deadline),
        None,
    );
    mesh(&pairwise);
    let ring_reactor = reactor::<SacMsg, RingSacActor>();
    let ring = spawn_group(&ring_reactor, peers(SacEngine::Ring, deadline), None);
    mesh(&ring);

    // Round 1 on a healthy network. Each round starts on both leaders
    // before either is awaited, so the two engines run at once.
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
