//! Bit-identity goldens for the training step.
//!
//! The kernels behind `Tensor::matmul` may be re-tiled freely as long as
//! every output element keeps its ascending-`k` `acc += a * b` from +0.0.
//! These digests pin that contract end to end: they were captured at the
//! commit before the GEMM routine and the params-only backward landed
//! (PR 15's parent) and must never move for a pure performance change. A
//! digest that moves means the trained parameters moved, and with them
//! every accuracy figure and `ml.rounds_to_target`.

use p2pfl_ml::data::{features_like, mnist_like};
use p2pfl_ml::models::{mlp, small_cnn};
use p2pfl_ml::optim::Adam;
use p2pfl_ml::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the exact bit patterns (no tolerance, no `-0.0 == 0.0`).
fn digest(params: &[f64]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn train(model: &mut Sequential, data: &p2pfl_ml::data::Dataset, batch: usize, steps: usize) {
    let mut opt = Adam::new(2e-4);
    for s in 0..steps {
        let idx: Vec<usize> = (s * batch..(s + 1) * batch).collect();
        let (x, y) = data.gather(&idx);
        let (loss, _) = model.train_batch(&x, &y, &mut opt);
        assert!(loss.is_finite(), "step {s} diverged");
    }
}

#[test]
fn session_mlp_eight_steps_digest_is_pinned() {
    // The `session_mlp_30` model and step: 64-128-10, batch 50, Adam 2e-4.
    let mut rng = StdRng::seed_from_u64(42);
    let mut model = mlp(&[64, 128, 10], &mut rng);
    train(&mut model, &features_like(64, 400, 42), 50, 8);
    assert_eq!(digest(&model.params_flat()), 0xe1c9_c0bf_826d_0d8d);
}

#[test]
fn small_cnn_two_steps_digest_is_pinned() {
    // Conv2d is layer 0 here, dropout is live, and the second conv sits
    // behind a pool: every backward path the MLP does not reach.
    let mut rng = StdRng::seed_from_u64(42);
    let mut model = small_cnn(&mut rng, 7);
    train(&mut model, &mnist_like(16, 42), 8, 2);
    assert_eq!(digest(&model.params_flat()), 0x21f7_e722_e99c_fc0d);
}
