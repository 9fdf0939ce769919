//! Ablation — the redundancy/communication trade-off of Sec. VII-B:
//! sweep the reconstruction threshold `k` for fixed subgroup size `n` and
//! report (a) the closed-form cost and (b) the Monte-Carlo probability
//! that a round survives i.i.d. peer crashes, per subgroup.
//!
//! Run: `cargo run -rp p2pfl-bench --bin abl_k_tradeoff -- --n 5 --peers 30`.

use p2pfl::cost::{gigabits, sac_baseline_units, two_layer_ft_units_eq5, ModelSize};
use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_secagg::replicated::can_reconstruct;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Monte-Carlo estimate of P(subgroup of `n` with threshold `k` completes
/// a round | each peer crashes i.i.d. with probability `p`, leader held
/// up by Raft re-election, so only share recovery matters).
fn survival(n: usize, k: usize, p: f64, trials: u64, rng: &mut StdRng) -> f64 {
    let mut ok = 0u64;
    for _ in 0..trials {
        let alive: Vec<bool> = (0..n).map(|_| rng.random::<f64>() >= p).collect();
        if can_reconstruct(n, k, &alive) {
            ok += 1;
        }
    }
    ok as f64 / trials as f64
}

fn main() {
    let args = Args::parse();
    let n = args.get_usize("n", 5);
    let n_total = args.get_usize("peers", 30);
    let trials = args.get_u64("trials", 20_000);
    let mut rng = StdRng::seed_from_u64(args.get_u64("seed", 1));
    args.finish();
    let model = ModelSize::PAPER_CNN;

    banner(
        "Ablation: k-out-of-n redundancy vs cost vs survival",
        "Sec. VII-B: 'a trade-off between redundancy and communication cost'",
    );
    assert!(n_total.is_multiple_of(n), "pick N divisible by n");
    let baseline = sac_baseline_units(n_total);
    let mut rows = Vec::new();
    for k in 1..=n {
        let units = two_layer_ft_units_eq5(n, k, n_total);
        let mut row = format!(
            "{k},{n},{:.3},{:.2},{}",
            gigabits(units * model.bits()),
            baseline / units,
            n - k
        );
        for p in [0.05, 0.10, 0.20, 0.30] {
            row.push_str(&format!(",{:.4}", survival(n, k, p, trials, &mut rng)));
        }
        rows.push(row);
    }
    print_csv(
        "k,n,cost_gigabits,improvement_over_sac,tolerated_dropouts,survive_p05,survive_p10,survive_p20,survive_p30",
        rows,
    );
    println!("\n# reading guide: k = n is cheapest but dies with any dropout;");
    println!("# k = 1 replicates everything to everyone (no secrecy!); the paper");
    println!("# picks k = n-1 (e.g. 2-of-3) as the sweet spot, and so does this table.");
}
