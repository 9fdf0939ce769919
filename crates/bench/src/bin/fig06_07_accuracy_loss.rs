//! Figs. 6 and 7 — moving averages of test accuracy (Fig. 6) and training
//! loss (Fig. 7) from one sweep: two-layer SAC (n = 3, 5) vs the original
//! one-layer SAC baseline (n = N), N = 10 peers, under IID /
//! Non-IID(5%) / Non-IID(0%) data.
//!
//! Paper claims to reproduce (shape): the two-layer curves coincide with
//! the baseline (accuracy differences < ~2%), accuracy orders
//! IID > Non-IID(5%) > Non-IID(0%), and loss is lowest under IID data.
//!
//! Run: `cargo run -rp p2pfl-bench --bin fig06_07_accuracy_loss --
//! --rounds 1000` for the paper's full horizon (default 200 keeps CI
//! fast). The model is the MLP-on-synthetic-features stand-in documented
//! in DESIGN.md.

use p2pfl::experiment::{accuracy_sweep, final_accuracy, SweepSpec};
use p2pfl_bench::{accuracy_loss_rows, banner, print_csv, Args};
use p2pfl_ml::data::Partition;

fn main() {
    let args = Args::parse();
    let rounds = args.get_usize("rounds", 200);
    let seed = args.get_u64("seed", 42);
    let window = args.get_usize("window", 20);
    args.finish();

    banner(
        "Figs. 6-7: test accuracy and training loss, two-layer SAC vs original SAC (N = 10)",
        "two-layer matches baseline accuracy and loss; IID > Non-IID(5%) > Non-IID(0%)",
    );
    let spec = SweepSpec {
        n_total: 10,
        rounds,
        seed,
        ..SweepSpec::default()
    };
    let partitions = [Partition::Iid, Partition::NON_IID_5, Partition::NON_IID_0];
    let series = accuracy_sweep(&spec, &[3, 5, 10], &partitions);
    print_csv(
        "series,round,test_accuracy_ma,train_loss_ma",
        accuracy_loss_rows(&series, window),
    );

    println!("\n# final smoothed accuracy per series:");
    for s in &series {
        println!("#   {:<28} {:.4}", s.label, final_accuracy(s));
    }
    println!("\n# final smoothed loss per series:");
    for s in &series {
        let n = s.records.len();
        let tail = &s.records[n - (n / 4).max(1)..];
        let loss = tail.iter().map(|r| r.train_loss).sum::<f64>() / tail.len() as f64;
        println!("#   {:<28} {loss:.4}", s.label);
    }
}
