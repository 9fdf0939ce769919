//! Whole-stack determinism: the repository's core promise that any
//! distributed failure scenario replays bit-for-bit from a seed.

mod common;

use p2pfl::experiment::{accuracy_sweep, SweepSpec};
use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_fed::Client;
use p2pfl_hierraft::experiments::subgroup_leader_crash_trial;
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Partition};
use p2pfl_ml::models::mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    // The `parallel` feature fans per-peer local training out over scoped
    // threads. Each client owns its RNG and optimizer state, so thread
    // scheduling must not leak into the result: a 3-round N=6 sweep has to
    // produce bit-identical global models either way.
    use p2pfl::experiment::build_system;
    use p2pfl::system::SystemKind;
    use p2pfl_fed::parallel::{reset_parallel, set_parallel};
    use p2pfl_secagg::WeightVector;

    fn digests(parallel: bool) -> Vec<u64> {
        set_parallel(parallel);
        let spec = SweepSpec {
            n_total: 6,
            rounds: 3,
            ..SweepSpec::default()
        };
        let (mut sys, test) = build_system(&spec, SystemKind::TwoLayer, 3, 1.0, Partition::Iid);
        (1..=3)
            .map(|r| {
                sys.run_round(r, &test);
                WeightVector::new(sys.global().to_vec()).digest()
            })
            .collect()
    }

    let serial = digests(false);
    let threaded = digests(true);
    reset_parallel();
    assert_eq!(
        serial, threaded,
        "parallel local training diverged from serial"
    );
}

#[test]
fn reactor_sac_round_replays_exactly() {
    // The single-thread reactor transport inherits the stack's replay
    // promise: the same seed, models, and fault plan give a bit-identical
    // aggregate on every run, even though TCP delivery timing differs.
    // (Cross-transport equality — sim vs reactor — is covered in
    // `fault_plan.rs`; this pins run-to-run stability of one leg.)
    use common::{ids, mesh, reactor, spawn_group, wait_done};
    use p2pfl_secagg::{SacConfig, SacEngine, SacMsg, SacPeerActor, ShareScheme, WeightVector};
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
        let mut rng = StdRng::seed_from_u64(SEED + 999);
        let ids = ids(N);
        let reactor = reactor::<SacMsg, SacPeerActor>();
        let actors = (0..N).map(|i| {
            let cfg = SacConfig {
                group: ids.clone(),
                position: i,
                leader_pos: 0,
                k: 3,
                scheme: ShareScheme::Masked,
                engine: SacEngine::Pairwise,
                share_deadline: SimDuration::from_secs(30),
                collect_deadline: SimDuration::from_secs(30),
                round_deadline: None,
                seed: SEED + i as u64,
            };
            let model = WeightVector::random(24, 1.0, &mut rng);
            (ids[i], SacPeerActor::new(cfg, model))
        });
        let handles = spawn_group(&reactor, actors, Some(&plan));
        mesh(&handles);
        handles[0].with(|a, ctx| a.start_round(ctx, 1));
        wait_done(&handles[0], "reactor round").1.digest()
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
        let cfg = ResilientConfig::small(seed);
        let n_total = cfg.deployment.total_peers();
        let (train, test) =
            train_test_split(&features_like(16, n_total * 40 + 200, seed), n_total * 40);
        let parts = partition_dataset(&train, n_total, Partition::Iid, seed + 1);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let clients: Vec<Client> = parts
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                Client::new(
                    i,
                    mlp(&[16, 16, 10], &mut rng),
                    d,
                    5e-3,
                    seed + 10 + i as u64,
                )
            })
            .collect();
        let eval = mlp(&[16, 16, 10], &mut rng);
        let mut s = ResilientSession::new(cfg, clients, eval);
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
