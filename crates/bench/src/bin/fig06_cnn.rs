//! Fig. 6, convolutional variant — the same two-layer-vs-baseline
//! accuracy comparison run through the *image* pipeline (a compact CNN on
//! MNIST-shaped synthetic data) instead of the fast MLP stand-in. This is
//! the closest offline analogue of the paper's exact setup; it is slow,
//! so the default is 10 rounds (`--rounds` to extend).
//!
//! Run: `cargo run -rp p2pfl-bench --bin fig06_cnn -- --rounds 30`.

use p2pfl::experiment::cnn_probe;
use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_ml::data::Partition;

fn main() {
    let args = Args::parse();
    let rounds = args.get_usize("rounds", 10);
    let seed = args.get_u64("seed", 42);
    let n_total = args.get_usize("peers", 6);
    args.finish();

    banner(
        "Fig. 6 (CNN variant): conv pipeline through two-layer SAC",
        "image model + secure aggregation end to end; accuracy rises, IID fastest",
    );
    let mut rows = Vec::new();
    for partition in [Partition::Iid, Partition::NON_IID_5] {
        for n in [3usize, n_total] {
            let series = cnn_probe(n_total, n, partition, rounds, 60, seed);
            for r in &series.records {
                rows.push(format!(
                    "{},{},{:.4},{:.4}",
                    series.label, r.round, r.test_accuracy, r.test_loss
                ));
            }
        }
    }
    print_csv("series,round,test_accuracy,test_loss", rows);
}
