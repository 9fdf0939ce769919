//! Subtotals are demand-driven, as in paper Alg. 4: the primary owner of
//! a partition sends its total (lines 14-16), and an alternate holder is
//! asked only when that total goes missing (line 18). So the leader keeps
//! the grid of totals it averages, and a follower keeps none: it totals
//! its primary once to send it and a recovery request when one arrives.
//!
//! Each engine runs a fault-free round, then a round in which a follower
//! crashes after sharing. The leader does not hold that follower's
//! primary, so the round must close through recovery.

use p2pfl_bench::testkit::{models, sac_peers, sim_group, sim_round};
use p2pfl_secagg::{
    PairwiseWire, RingWire, RoundCore, SacEngine, SacMsg, SacPhase, WeightVector, Wire,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use std::collections::BTreeSet;

const DIM: usize = 16;
const SEED: u64 = 0x5B70;
const LEADER: NodeId = NodeId(0);
const ROUND_TIME: SimDuration = SimDuration::from_secs(30);

/// Masks cancel to float rounding; results sit this close to the mean.
const TOL: f64 = 1e-9;

/// The leader holds exactly one total per grid cell; no follower holds any.
fn assert_totals_leader_only<W: Wire>(sim: &Sim<SacMsg>, n: usize, round: u64) {
    let leader = sim.actor::<RoundCore<W>>(LEADER);
    let held: BTreeSet<(usize, usize)> = leader.held_totals().keys().copied().collect();
    let grid: BTreeSet<(usize, usize)> = leader.plan().grid().collect();
    assert_eq!(
        held.len(),
        leader.plan().total_partitions(),
        "round {round}"
    );
    assert_eq!(held, grid, "round {round}: leader totals outside the grid");
    for p in 1..n {
        let follower = sim.actor::<RoundCore<W>>(NodeId(p as u32));
        assert!(
            follower.held_totals().is_empty(),
            "round {round}: follower {p} keeps {} totals",
            follower.held_totals().len()
        );
    }
}

fn mean_of(inputs: &[WeightVector], contributors: &[usize]) -> WeightVector {
    WeightVector::mean(contributors.iter().map(|&c| &inputs[c]))
}

fn subtotals_on_demand<W: Wire>(engine: SacEngine, n: usize, k: usize) {
    let inputs = models(n, DIM, SEED);
    let deadline = SimDuration::from_millis(100);
    let peers = sac_peers::<W>(&inputs, n, k, engine, deadline, SEED);
    let mut sim = sim_group(SEED, peers, None);
    let everyone: Vec<usize> = (0..n).collect();

    // Round 1, fault-free: the plain mean, totals on the leader only.
    let (contributors, result) = sim_round::<W>(&mut sim, [LEADER], 1).remove(0);
    assert_eq!(contributors, everyone);
    assert!(result.linf_distance(&mean_of(&inputs, &everyone)) <= TOL);
    assert_eq!(sim.actor::<RoundCore<W>>(LEADER).recoveries, 0);
    assert_totals_leader_only::<W>(&sim, n, 1);

    // Round 2: a follower whose primary total the leader does not hold
    // crashes right after it has shared, before it can send that total.
    let plan = sim.actor::<RoundCore<W>>(LEADER).plan().clone();
    let victim = (1..n)
        .find(|&p| !plan.is_holder(0, plan.stage_of(p), plan.local_index(p)))
        .expect("some primary is not leader-held");
    let victim_id = NodeId(victim as u32);
    sim.exec::<RoundCore<W>, _, _>(LEADER, |a, ctx| a.start_round(ctx, 2));
    while sim.actor::<RoundCore<W>>(victim_id).round < 2 {
        assert!(sim.step(), "round 2 never reached peer {victim}");
    }
    let shared = sim.actor::<RoundCore<W>>(victim_id);
    assert_eq!(shared.phase, SacPhase::Sharing, "peer {victim} has shared");
    assert!(shared.frozen_set().is_none(), "and cannot total yet");
    sim.schedule_crash(victim_id, sim.now());
    sim.run_until(sim.now() + ROUND_TIME);
    assert!(sim.is_crashed(victim_id));

    let leader = sim.actor::<RoundCore<W>>(LEADER);
    assert_eq!(leader.phase, SacPhase::Done, "round 2 must close");
    assert!(leader.recoveries >= 1, "the lost total came from a replica");
    assert!(leader.contributors.contains(&victim), "its shares count");
    let result = leader.result.as_ref().expect("Done carries a result");
    let want = mean_of(&inputs, &leader.contributors);
    assert!(result.linf_distance(&want) <= TOL);
    assert_totals_leader_only::<W>(&sim, n, 2);
}

#[test]
fn pairwise_followers_total_on_demand_only() {
    subtotals_on_demand::<PairwiseWire>(SacEngine::Pairwise, 5, 3);
}

#[test]
fn ring_followers_total_on_demand_only() {
    subtotals_on_demand::<RingWire>(SacEngine::Ring, 8, 3);
}
