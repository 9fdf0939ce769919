//! Fig. 13 — total communication cost per aggregation as the number of
//! subgroups `m` varies, N = 30 peers, Fig. 5 CNN (|w| = 1.25 M × 32 bit).
//!
//! Paper claims to reproduce exactly (these are closed-form): cost at
//! m = 6 is 7.12 Gb, about one-tenth of the one-layer SAC (m = 1); the
//! curve flattens for m ≥ 10 where subgroups shrink below 3 peers (and
//! SAC stops being secure / Raft fault tolerant).
//!
//! The closed-form Eq. 4 values are cross-checked against the byte ledger
//! of the executable protocol in `crates/core/tests/cost_vs_protocol.rs`.
//!
//! Run: `cargo run -rp p2pfl-bench --bin fig13_cost_vs_m`.

use p2pfl::cost::{even_groups, gigabits, sac_baseline_units, two_layer_units_exact, ModelSize};
use p2pfl_bench::{banner, print_csv, Args};

fn main() {
    let args = Args::parse();
    let n_total = args.get_usize("peers", 30);
    let model = ModelSize {
        params: args.get_u64("params", ModelSize::PAPER_CNN.params),
    };
    args.finish();

    banner(
        "Fig. 13: communication cost per aggregation vs m (N = 30)",
        "m = 6 costs 7.12 Gb, ~1/10th of one-layer SAC; flat for m >= 10",
    );
    let baseline_bits = sac_baseline_units(n_total) * model.bits();
    let mut rows = Vec::new();
    for m in 1..=n_total {
        let groups = even_groups(n_total, m);
        let units = if m == 1 {
            // m = 1 degenerates to the original one-layer SAC (Alg. 2 with
            // full subtotal broadcast), per the figure caption.
            sac_baseline_units(n_total)
        } else {
            two_layer_units_exact(&groups)
        };
        let bits = units * model.bits();
        let min_group = groups.iter().min().unwrap();
        rows.push(format!(
            "{m},{:.3},{:.2},{min_group}",
            gigabits(bits),
            baseline_bits / bits,
        ));
    }
    print_csv(
        "m,cost_gigabits,improvement_over_sac,min_subgroup_size",
        rows,
    );

    let g6 = gigabits(two_layer_units_exact(&even_groups(n_total, 6)) * model.bits());
    println!("\n# m = 6 cost: {g6:.2} Gb (paper: 7.12 Gb)");
    println!(
        "# one-layer SAC (m = 1): {:.2} Gb -> ratio {:.2}x (paper: ~10x)",
        gigabits(baseline_bits),
        baseline_bits / (two_layer_units_exact(&even_groups(n_total, 6)) * model.bits())
    );
    println!("# note: m >= 10 leaves subgroups of < 3 peers, where SAC is no longer");
    println!("#       secure and the subgroup Raft is no longer fault tolerant.");
}
