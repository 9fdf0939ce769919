//! Fig. 5 — the paper's CNN architecture for CIFAR-10.
//!
//! Prints the layer summary and asserts the headline parameter count
//! (~1.25 M). Run: `cargo run -rp p2pfl-bench --bin fig05_model`.

use p2pfl_ml::models::{paper_cnn, PAPER_CNN_PARAMS};
use p2pfl_ml::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    p2pfl_bench::Args::parse().finish();
    p2pfl_bench::banner(
        "Fig. 5: CNN model architecture",
        "\"relatively small with 1.25M parameters\"; two conv blocks, two dense layers",
    );
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = paper_cnn(&mut rng, 0);
    println!("{}", model.summary());
    let params = model.num_params();
    println!("total parameters: {params} ({:.3} M)", params as f64 / 1e6);
    assert_eq!(params, PAPER_CNN_PARAMS);

    // Demonstrate a forward/backward pass on a CIFAR-shaped batch.
    let x = Tensor::zeros(&[2, 3, 32, 32]);
    let y = model.forward(&x, false);
    println!("forward [2, 3, 32, 32] -> {:?}", y.shape());
    println!("OK: parameter count matches the paper's 1.25M claim");
}
