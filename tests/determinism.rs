//! Whole-stack determinism: the repository's core promise that any
//! distributed failure scenario replays bit-for-bit from a seed.

use p2pfl::experiment::{accuracy_sweep, SweepSpec};
use p2pfl::runner::ResilientConfig;
use p2pfl_bench::testkit::synthetic_session;
use p2pfl_hierraft::experiments::subgroup_leader_crash_trial;
use p2pfl_ml::data::Partition;

#[test]
fn accuracy_sweep_replays_exactly() {
    let spec = SweepSpec {
        n_total: 6,
        rounds: 8,
        ..SweepSpec::default()
    };
    let a = accuracy_sweep(&spec, &[3], &[Partition::NON_IID_5]);
    let b = accuracy_sweep(&spec, &[3], &[Partition::NON_IID_5]);
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.records, sb.records, "series {} diverged", sa.label);
    }
}

#[test]
fn parallel_and_serial_training_produce_identical_models() {
    // Per-peer local training fans out over one scoped thread per core.
    // Each client owns its RNG and optimizer state, so thread scheduling
    // must not leak into the result: a 3-round N=6 sweep has to produce
    // the global models the serial per-client loop produced, pinned here.
    // (`p2pfl_fed::parallel`'s own test forces the threaded path on a
    // single-core host.)
    use p2pfl::experiment::build_system;
    use p2pfl::system::SystemKind;
    use p2pfl_secagg::WeightVector;

    let spec = SweepSpec {
        n_total: 6,
        rounds: 3,
        ..SweepSpec::default()
    };
    let (mut sys, test) = build_system(&spec, SystemKind::TwoLayer, 3, 1.0, Partition::Iid);
    let digests: Vec<u64> = (1..=3)
        .map(|r| {
            sys.run_round(r, &test);
            WeightVector::new(sys.global().to_vec()).digest()
        })
        .collect();
    assert_eq!(
        digests,
        [0x63d639a8a459284e, 0xf10833279ccd8eca, 0x8de7d1e5d9a0c121],
        "parallel local training diverged from the serial loop"
    );
}

#[test]
fn reactor_sac_round_replays_exactly() {
    // The single-thread reactor transport inherits the stack's replay
    // promise: the same seed, models, and fault plan give a bit-identical
    // aggregate on every run, even though TCP delivery timing differs.
    // (Cross-transport equality — sim vs reactor — is covered in
    // `fault_plan.rs`; this pins run-to-run stability of one leg.)
    use p2pfl_bench::testkit::{mesh, models, reactor, reactor_round, sac_peers, spawn_group};
    use p2pfl_secagg::{SacEngine, SacMsg, SacPeerActor};
    use p2pfl_simnet::{FaultPlan, SimDuration, SimTime};

    const N: usize = 5;
    const SEED: u64 = 0xD3;

    fn run_once() -> u64 {
        let plan = FaultPlan::new(SEED)
            .delay(
                SimTime::ZERO,
                SimTime::from_secs(600),
                SimDuration::from_millis(3),
                SimDuration::ZERO,
            )
            .duplicate(SimTime::ZERO, SimTime::from_secs(600), 0.4);
        let models = models(N, 24, SEED + 999);
        let deadline = SimDuration::from_secs(30);
        let peers = sac_peers(&models, N, 3, SacEngine::Pairwise, deadline, SEED);
        let reactor = reactor::<SacMsg, SacPeerActor>();
        let handles = spawn_group(&reactor, peers, Some(&plan));
        mesh(&handles);
        reactor_round(&handles[..1], 1)[0].1.digest()
    }

    assert_eq!(run_once(), run_once(), "reactor run diverged from itself");
}

#[test]
fn raft_crash_trial_replays_exactly() {
    let a = subgroup_leader_crash_trial(100, 9).unwrap();
    let b = subgroup_leader_crash_trial(100, 9).unwrap();
    assert_eq!(a, b);
    // And a different seed gives a different trajectory.
    let c = subgroup_leader_crash_trial(100, 10).unwrap();
    assert!(a != c, "distinct seeds should differ");
}

#[test]
fn resilient_session_replays_exactly() {
    fn run(seed: u64) -> Vec<(f64, usize, u64)> {
        let (mut s, _, test) = synthetic_session(ResilientConfig::small(seed), 0, 40);
        s.run(2, &test);
        let victim = s.dep.sub_leader_of(1).unwrap();
        s.crash(victim);
        s.run(3, &test)
            .into_iter()
            .map(|r| (r.record.test_accuracy, r.record.groups_used, r.record.bytes))
            .collect()
    }
    assert_eq!(run(5), run(5));
}
