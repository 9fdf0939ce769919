//! Figs. 8 and 9 — test accuracy (Fig. 8) and training loss (Fig. 9) from
//! one sweep with a fraction `p` of subgroups contributing per round
//! (N = 20, n = 5, p ∈ {0.5, 1}).
//!
//! Paper claims to reproduce (shape): p = 0.5 loses only a couple of
//! accuracy points versus p = 1 (paper: mean gap 2.18% over the three
//! distributions), so slow subgroups can be timed out safely, and its
//! loss curves stay close to p = 1 under all three distributions.
//!
//! Run: `cargo run -rp p2pfl-bench --bin fig08_09_fraction -- --rounds 1000`.

use p2pfl::experiment::{final_accuracy, fraction_sweep, SweepSpec};
use p2pfl_bench::{accuracy_loss_rows, banner, print_csv, Args};
use p2pfl_ml::data::Partition;

fn main() {
    let args = Args::parse();
    let rounds = args.get_usize("rounds", 200);
    let seed = args.get_u64("seed", 42);
    let window = args.get_usize("window", 20);
    args.finish();

    banner(
        "Figs. 8-9: test accuracy and training loss vs subgroup fraction p (N = 20, n = 5)",
        "p = 0.5 costs ~2% accuracy vs p = 1 (paper: average gap 2.18%); its loss tracks p = 1",
    );
    let spec = SweepSpec {
        n_total: 20,
        rounds,
        seed,
        ..SweepSpec::default()
    };
    let partitions = [Partition::Iid, Partition::NON_IID_5, Partition::NON_IID_0];
    let series = fraction_sweep(&spec, 5, &[0.5, 1.0], &partitions);
    print_csv(
        "series,round,test_accuracy_ma,train_loss_ma",
        accuracy_loss_rows(&series, window),
    );

    println!("\n# final smoothed accuracy and p=1 vs p=0.5 gaps:");
    let mut gaps = Vec::new();
    for pair in series.chunks(2) {
        let half = final_accuracy(&pair[0]);
        let full = final_accuracy(&pair[1]);
        gaps.push(full - half);
        println!(
            "#   {:<22} p=0.5: {half:.4}  p=1: {full:.4}  gap: {:+.4}",
            pair[1].label,
            full - half
        );
    }
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    println!(
        "#   mean gap over distributions: {:.2}% (paper: 2.18%)",
        mean_gap * 100.0
    );
}
