//! Sample-count weighting through a full training round — the `n_k / n`
//! factor of the paper's Sec. III-A update law, verified end-to-end with
//! uneven client datasets.
//!
//! Centralised FedAvg is the two-layer system with one-peer subgroups:
//! `divide_masked(w, 1)` returns `w` untouched, so every subgroup average
//! is its peer's model and the FedAvg layer weights those by sample count.

use p2pfl::system::{TwoLayerConfig, TwoLayerSystem};
use p2pfl_fed::{fedavg, Client, LocalTrainConfig};
use p2pfl_ml::data::{features_like, train_test_split, Dataset};
use p2pfl_ml::models::mlp;
use p2pfl_ml::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One MLP client per entry of `counts`, each over the next `counts[i]`
/// samples of `train`, and the evaluation twin, all drawn from `seed`.
fn clients(
    train: &Dataset,
    counts: &[usize],
    dims: &[usize],
    seed: u64,
) -> (Vec<Client>, Sequential) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut from = 0;
    let clients = (0..counts.len())
        .map(|i| {
            let shard: Vec<usize> = (from..from + counts[i]).collect();
            from += counts[i];
            let model = mlp(dims, &mut rng);
            Client::new(i, model, train.subset(&shard), 5e-3, seed + 1 + i as u64)
        })
        .collect();
    (clients, mlp(dims, &mut rng))
}

fn fedavg_session(
    clients: Vec<Client>,
    eval: Sequential,
    train: LocalTrainConfig,
) -> TwoLayerSystem {
    let cfg = TwoLayerConfig {
        subgroup_size: 1,
        train,
        ..TwoLayerConfig::default()
    };
    TwoLayerSystem::new(clients, eval, cfg)
}

#[test]
fn global_model_is_the_sample_weighted_mean_of_locals() {
    // Three clients with 30 / 60 / 90 samples: after one round the global
    // parameters must equal Σ (n_k / n) w_k over the *post-training*
    // locals, not the unweighted mean.
    let (train, test) = train_test_split(&features_like(8, 480, 1), 180);
    let counts = [30usize, 60, 90];
    let cfg = LocalTrainConfig {
        epochs: 1,
        batch_size: 16,
    };
    let (peers, eval) = clients(&train, &counts, &[8, 6, 10], 2);
    let mut session = fedavg_session(peers, eval, cfg);

    // Reference run: replicate the exact same training with twin clients.
    let (mut twins, eval_twin) = clients(&train, &counts, &[8, 6, 10], 2);
    let init = eval_twin.params_flat();
    for t in &mut twins {
        t.set_params(&init);
        t.local_update(cfg);
    }
    let locals: Vec<Vec<f64>> = twins.iter().map(|t| t.params()).collect();
    let expected = fedavg(&locals, &counts);

    session.run_round(1, &test);
    let max_err = session
        .global()
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-9, "weighted-mean mismatch: {max_err}");

    // Sanity: the unweighted mean differs, so the test has teeth.
    let unweighted = fedavg(&locals, &[1, 1, 1]);
    let diff = expected
        .iter()
        .zip(&unweighted)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff > 1e-6, "weighting did not matter; test is vacuous");
}

#[test]
fn session_with_uneven_shards_still_learns() {
    let (train, test) = train_test_split(&features_like(16, 700, 5), 400);
    let (peers, eval) = clients(&train, &[40, 120, 240], &[16, 24, 10], 6);
    let cfg = LocalTrainConfig {
        epochs: 1,
        batch_size: 32,
    };
    let records = fedavg_session(peers, eval, cfg).run(25, &test);
    let first = records.first().unwrap().test_accuracy;
    let last = records.last().unwrap().test_accuracy;
    assert!(last > first + 0.15, "accuracy {first:.3} -> {last:.3}");
}
