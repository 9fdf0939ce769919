//! End-to-end scenarios across every crate: the integrated Raft-backed
//! training session surviving compound failures, and the distributed SAC
//! engine agreeing with the synchronous reference implementation.

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_bench::testkit::{sac_config, synthetic_session};
use p2pfl_ml::data::Dataset;
use p2pfl_secagg::{
    secure_average, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme, WeightVector,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn session(seed: u64) -> (ResilientSession, Dataset) {
    let (s, _, test) = synthetic_session(ResilientConfig::small(seed), 0, 50);
    (s, test)
}

#[test]
fn compound_failure_sequence_recovers_fully() {
    // The crash_drill example as an assertion: follower, then a subgroup
    // leader, then the FedAvg leader die in sequence; the system heals
    // after each and finishes with all groups aggregating.
    let (mut s, test) = session(42);
    s.run(2, &test);

    let leader0 = s.dep.sub_leader_of(0).unwrap();
    let follower = *s.dep.subgroups[0].iter().find(|&&m| m != leader0).unwrap();
    s.crash(follower);
    let r = s.run_round(3, &test);
    assert_eq!(r.record.groups_used, 3, "follower crash must be absorbed");

    let sub_leader = s.dep.sub_leader_of(1).unwrap();
    s.crash(sub_leader);
    s.run_round(4, &test);
    let r = s.run_round(5, &test);
    assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);

    // Return the first two casualties before the final blow: the FedAvg
    // leader may be subgroup 0's leader, and a subgroup that has already
    // lost a follower would drop below quorum when its leader dies too
    // (that quorum arithmetic is asserted separately below).
    s.restart(follower);
    s.restart(sub_leader);
    let fed = s.dep.fed_leader().expect("fed leader must exist");
    s.crash(fed);
    s.run_round(6, &test);
    let r = s.run_round(7, &test);
    assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
    assert!(r.fed_leader.is_some());
    assert_ne!(r.fed_leader, Some(fed));

    // The last casualty returns; training still improves.
    s.restart(fed);
    let recs = s.run(8, &test);
    let last = recs.last().unwrap();
    assert_eq!(last.record.groups_used, 3);
    assert!(
        last.record.test_accuracy > 0.15,
        "acc {}",
        last.record.test_accuracy
    );
}

#[test]
fn two_simultaneous_fed_member_crashes_halt_the_fed_layer() {
    // Sec. VII-D's negative result: with m = 3 FedAvg members, two
    // simultaneous subgroup-leader crashes are a FedAvg-layer majority,
    // so the layer loses quorum and no aggregation can complete until
    // peers return.
    let (mut s, test) = session(7);
    s.run(2, &test);
    // Two of the three subgroup leaders, always including the current
    // FedAvg-layer leader so the stale-leader role cannot linger on the
    // surviving member (which leader that is depends on election timing).
    let fl = s.dep.fed_leader().expect("stable session has a fed leader");
    let mut downed: Vec<NodeId> = (0..3)
        .filter_map(|g| s.dep.sub_leader_of(g))
        .filter(|&l| l != fl)
        .collect();
    downed.truncate(1);
    downed.insert(0, fl);
    s.crash(downed[0]);
    s.crash(downed[1]);
    s.run_round(3, &test);
    let r = s.run_round(4, &test);
    assert!(
        r.fed_leader.is_none(),
        "2 of 3 FedAvg members down = no quorum"
    );

    // Once one casualty returns, the layer has 2 of 3 again and heals:
    // elections complete and the replacement leaders join.
    s.restart(downed[1]);
    s.run_round(5, &test);
    s.run_round(6, &test);
    let r = s.run_round(7, &test);
    assert!(r.fed_leader.is_some(), "quorum restored, layer must heal");
    assert_eq!(r.record.groups_used, 3, "leaders: {:?}", r.leaders);
}

#[test]
fn distributed_engine_agrees_with_synchronous_reference() {
    // The same models aggregated (a) by the message-driven engine over the
    // simulator and (b) by the synchronous Alg. 2 must agree to float
    // accumulation precision.
    let n = 5usize;
    let dim = 32usize;
    let mut rng = StdRng::seed_from_u64(5);
    let models: Vec<WeightVector> = (0..n)
        .map(|_| WeightVector::random(dim, 1.0, &mut rng))
        .collect();

    let mut sim: Sim<SacMsg> = Sim::new(9);
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for (i, model) in models.iter().enumerate() {
        let deadline = SimDuration::from_millis(100);
        let cfg = sac_config(&ids, i, 3, SacEngine::Pairwise, deadline, 100 + i as u64);
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    sim.run_until_quiet(100);
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(SimTime::from_secs(2));

    let leader = sim.actor::<SacPeerActor>(ids[0]);
    assert_eq!(leader.phase, SacPhase::Done);
    let distributed = leader.result.clone().unwrap();

    let reference = secure_average(&models, ShareScheme::Masked, &mut rng).average;
    assert!(
        distributed.linf_distance(&reference) < 1e-8,
        "distributed vs reference error {}",
        distributed.linf_distance(&reference)
    );
}

#[test]
fn aggregation_traffic_is_separate_from_raft_traffic() {
    // The ledger split the paper's analysis relies on: SAC/FedAvg bytes in
    // the TransferLog, Raft control bytes in the simulator metrics.
    let (mut s, test) = session(11);
    let before_raft = s.dep.sim.metrics().total().bytes;
    s.run(3, &test);
    assert!(s.log.bytes() > 0, "aggregation must move bytes");
    assert!(
        s.dep.sim.metrics().total().bytes > before_raft,
        "raft heartbeats must keep flowing during training"
    );
    // Raft control traffic is orders of magnitude below model traffic in
    // any realistic deployment; with tiny test models it is still the
    // aggregation that dominates per-message size.
    let raft = s.dep.sim.metrics();
    assert!(raft.kind("hier.sub").msgs > 0);
}
