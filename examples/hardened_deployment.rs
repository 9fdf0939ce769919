//! The hardened configuration: every optional privacy/robustness feature
//! switched on at once —
//!
//! * k-out-of-n fault-tolerant SAC in the subgroups (paper Alg. 4),
//! * SAC *between* the subgroup leaders too, instead of plain FedAvg
//!   (the "stronger privacy in the higher layer" variant of Sec. IV-D),
//! * per-peer differential privacy (clipping + Gaussian mechanism),
//!
//! and, separately, the exact fixed-point ring backend for comparison.
//!
//! ```text
//! cargo run --release --example hardened_deployment
//! ```

use p2pfl::cost::{two_layer_units_eq4, two_layer_units_fed_sac};
use p2pfl::system::{SystemKind, TwoLayerConfig, TwoLayerSystem};
use p2pfl_fed::{Client, LocalTrainConfig};
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Partition};
use p2pfl_ml::models::mlp;
use p2pfl_secagg::dp::GaussianDp;
use p2pfl_secagg::{fixed, ShareScheme, WeightVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PEERS: usize = 9;
const ROUNDS: usize = 50;

fn main() {
    let (train, test) = train_test_split(&features_like(32, PEERS * 80 + 400, 7), PEERS * 80);
    let shards = partition_dataset(&train, PEERS, Partition::NON_IID_5, 8);
    let mut rng = StdRng::seed_from_u64(9);
    let clients: Vec<Client> = shards
        .into_iter()
        .enumerate()
        .map(|(i, s)| Client::new(i, mlp(&[32, 24, 10], &mut rng), s, 3e-3, 10 + i as u64))
        .collect();
    let eval = mlp(&[32, 24, 10], &mut rng);

    let cfg = TwoLayerConfig {
        kind: SystemKind::TwoLayer,
        subgroup_size: 3,
        threshold: Some(2),          // any one peer per subgroup may drop
        scheme: ShareScheme::Masked, // real secrecy for the shares
        fraction: 1.0,
        train: LocalTrainConfig {
            epochs: 1,
            batch_size: 32,
        },
        seed: 11,
        // (0.8, 1e-5)-DP per round, updates clipped to L2 <= 20.
        dp: Some(GaussianDp {
            epsilon: 0.8,
            delta: 1e-5,
            sensitivity: 20.0,
        }),
        fed_layer_sac: true, // SAC among the leaders as well
    };
    let mut system = TwoLayerSystem::new(clients, eval, cfg);

    println!("== hardened two-layer deployment: k-of-n + fed-layer SAC + DP ==\n");
    let records = system.run(ROUNDS, &test);
    let last = records.last().unwrap();
    println!(
        "rounds: {ROUNDS}   final accuracy: {:.3}   final loss: {:.3}",
        last.test_accuracy, last.test_loss
    );
    println!("(DP noise costs some accuracy — that is the privacy/utility trade)");

    println!(
        "\nupper-layer SAC premium: {:.0} vs {:.0} model-units per round (closed form)",
        two_layer_units_fed_sac(3, 3),
        two_layer_units_eq4(3, 3)
    );
    println!(
        "measured aggregation traffic: {} bytes over {ROUNDS} rounds",
        system.log.bytes()
    );

    // ------------------------------------------------------------------
    println!("\n== an alternative share backend on 9 models ==\n");
    let models: Vec<WeightVector> = (0..PEERS)
        .map(|i| WeightVector::random(658, 0.5, &mut StdRng::seed_from_u64(50 + i as u64)))
        .collect();
    let plain = WeightVector::mean(models.iter());

    let mut rng = StdRng::seed_from_u64(60);
    let exact = fixed::secure_average_exact(&models, &mut rng);
    println!(
        "fixed-point ring SAC   error vs plain mean: {:.2e}  (exact, info-theoretic hiding)",
        exact.linf_distance(&plain)
    );
}
