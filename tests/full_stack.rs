//! End-to-end scenarios across every crate: the integrated Raft-backed
//! training session surviving compound failures, and the distributed SAC
//! engine agreeing with the synchronous reference implementation.

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_bench::testkit::{ids, models, sac_config, sim_group, sim_round, synthetic_session};
use p2pfl_ml::data::Dataset;
use p2pfl_secagg::{
    reference_round, PairwiseWire, RingWire, RoundCore, SacEngine, ShareScheme, Wire,
};
use p2pfl_simnet::{NodeId, SimDuration};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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
    // The message-driven engine over the simulator and the synchronous
    // reference round, given the same models and the same per-member
    // seeds, agree bit for bit: the reference is the engine's oracle.
    for (n, k) in [(3, 2), (3, 3), (5, 3), (8, 3), (10, 5)] {
        for leader in [0, n - 1] {
            for dim in [7, 9_610] {
                engine_matches_reference::<PairwiseWire>(SacEngine::Pairwise, n, k, leader, dim);
                engine_matches_reference::<RingWire>(SacEngine::Ring, n, k, leader, dim);
            }
        }
    }
}

/// One fault-free round of `n` cores led by position `leader`, seeded
/// from the stream the reference then draws its member seeds from.
fn engine_matches_reference<W: Wire>(
    engine: SacEngine,
    n: usize,
    k: usize,
    leader: usize,
    dim: usize,
) {
    let case = format!("{engine:?} n={n} k={k} leader={leader} dim={dim}");
    let seed = (1000 * n + 100 * k + 10 * leader + dim) as u64;
    let inputs = models(n, dim, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut seeds = rng.clone();
    let group = ids(n);
    let deadline = SimDuration::from_millis(100);
    let peers = inputs.iter().enumerate().map(|(i, model)| {
        let mut cfg = sac_config(&group, i, k, engine, deadline, seeds.next_u64());
        cfg.leader_pos = leader;
        (group[i], RoundCore::<W>::new(cfg, model.clone()))
    });
    let mut sim = sim_group(seed, peers, None);
    let (contributors, average) = sim_round::<W>(&mut sim, [group[leader]], 1).remove(0);
    let reference = reference_round::<W, _>(&inputs, k, leader, &[], ShareScheme::Masked, &mut rng)
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    assert_eq!(contributors, reference.contributors, "{case}");
    assert_eq!(average.digest(), reference.average.digest(), "{case}");
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
