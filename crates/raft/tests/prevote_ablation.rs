//! Demonstrates what Pre-Vote buys: a rejoining peer with a stale log
//! cannot inflate terms and disrupt a healthy cluster. This is the
//! scenario that livelocked the FedAvg layer during development (see
//! DESIGN.md, implementation note 1).

use p2pfl_raft::{NullStateMachine, RaftActor, RaftConfig, RaftMsg};
use p2pfl_simnet::{FaultPlan, NodeId, Sim, SimDuration, SimTime};

type Node = RaftActor<u64, NullStateMachine>;

/// Builds a 3-node cluster, commits entries, crashes one follower so its
/// log goes stale, restarts it, and measures how much the cluster's term
/// inflates while the zombie campaigns.
fn run_scenario(pre_vote: bool, seed: u64) -> (u64, u64) {
    let mut sim: Sim<RaftMsg<u64>> = Sim::new(seed);
    let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
    for &id in &ids {
        let mut cfg = RaftConfig::paper(
            id,
            ids.clone(),
            SimDuration::from_millis(100),
            seed + id.0 as u64,
        );
        cfg.pre_vote = pre_vote;
        sim.add_node(RaftActor::new(cfg, NullStateMachine));
    }
    sim.run_until(SimTime::from_secs(2));
    let leader = *ids
        .iter()
        .find(|&&id| sim.actor::<Node>(id).is_leader())
        .expect("no leader");
    let term_before = sim.actor::<Node>(leader).raft().term();

    // Make a follower stale: crash it, then commit entries without it.
    // Isolate it from the leader from the crash on, so that after its
    // restart it keeps timing out, but let it reach the other follower
    // (whose vote it will solicit). This models the flaky-link rejoin that
    // plagues real clusters. (A plan rules at send time: cutting the link
    // only at the restart would still deliver the leader's frames already
    // in flight, which bring the rejoiner's log up to date.)
    let victim = *ids.iter().find(|&&id| id != leader).unwrap();
    let other = *ids
        .iter()
        .find(|&&id| id != leader && id != victim)
        .unwrap();
    let (from, until) = (SimTime::ZERO, SimTime::from_secs(6));
    let plan = FaultPlan::new(seed)
        .partition(from, until, vec![victim], vec![leader])
        .partition(from, until, vec![leader], vec![victim]);
    sim.apply_fault_plan(&plan);
    let at = sim.now() + SimDuration::from_millis(1);
    sim.schedule_crash(victim, at);
    sim.run_for(SimDuration::from_millis(200));
    for v in 0..5u64 {
        sim.exec::<Node, _, _>(leader, |a, ctx| {
            let _ = a.propose(ctx, v);
        });
        sim.run_for(SimDuration::from_millis(50));
    }
    let at = sim.now() + SimDuration::from_millis(1);
    sim.schedule_restart(victim, at);
    sim.run_for(SimDuration::from_secs(5));

    let cluster_term = sim.actor::<Node>(other).raft().term();
    let step_downs = sim.actor::<Node>(leader).step_downs;
    (cluster_term - term_before, step_downs)
}

#[test]
fn pre_vote_prevents_term_inflation_by_stale_rejoiner() {
    for seed in 0..5u64 {
        let (inflation, step_downs) = run_scenario(true, 100 + seed);
        assert_eq!(
            inflation, 0,
            "seed {seed}: pre-vote must block the stale campaigner entirely"
        );
        assert_eq!(
            step_downs, 0,
            "seed {seed}: the healthy leader must never step down"
        );
    }
}

#[test]
fn without_pre_vote_the_stale_rejoiner_disrupts() {
    // The ablation: identical scenario, pre-vote off. The zombie's
    // RequestVotes carry ever-higher terms; the reachable follower adopts
    // them, and when the leader hears the higher term it steps down.
    let mut any_disruption = false;
    for seed in 0..5u64 {
        let (inflation, step_downs) = run_scenario(false, 100 + seed);
        if inflation > 0 || step_downs > 0 {
            any_disruption = true;
        }
    }
    assert!(
        any_disruption,
        "disabling pre-vote should reproduce the disruptive-rejoin problem"
    );
}
