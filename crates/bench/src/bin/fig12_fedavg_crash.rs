//! Fig. 12 — crash of the *FedAvg leader* (which is simultaneously a
//! subgroup leader): both layers elect new leaders and the crashed
//! subgroup's replacement rejoins the FedAvg group.
//!
//! Paper claim to reproduce (shape): full recovery takes longer than the
//! single-subgroup case because the joiner must wait for the FedAvg-layer
//! election (paper reports the increments +95.07 / +114.65 / +130.30 /
//! +158.53 ms over the Fig. 11 case for the four ranges); the 100 ms
//! presence-poll interval bounds the extra wait.
//!
//! Run: `cargo run -rp p2pfl-bench --bin fig12_fedavg_crash -- --trials 1000`.

use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_hierraft::experiments::{fedavg_leader_crash_trial, Stats};

fn main() {
    let args = Args::parse();
    let trials = args.get_u64("trials", 200);
    let seed0 = args.get_u64("seed", 0);
    args.finish();

    banner(
        "Fig. 12: FedAvg leader crash -> double election + rebuild",
        "paper: +95.07/+114.65/+130.30/+158.53 ms over the Fig. 11 case",
    );
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for t in [50u64, 100, 150, 200] {
        let mut fed = Vec::new();
        let mut sub = Vec::new();
        let mut rebuild = Vec::new();
        for s in 0..trials {
            if let Some(r) = fedavg_leader_crash_trial(t, seed0 + s) {
                fed.push(r.fed_elect_ms);
                sub.push(r.sub_elect_ms);
                rebuild.push(r.rebuild_ms);
                rows.push(format!(
                    "{t}-{},{},{:.2},{:.2},{:.2}",
                    2 * t,
                    s,
                    r.fed_elect_ms,
                    r.sub_elect_ms,
                    r.rebuild_ms
                ));
            }
        }
        let f = Stats::of(&fed).expect("all trials failed");
        let sb = Stats::of(&sub).expect("all trials failed");
        let rb = Stats::of(&rebuild).expect("all trials failed");
        summary.push(format!(
            "#   T={t}..{}ms: fed elect {:.2}ms  sub elect {:.2}ms  full rebuild {:.2}ms  (n={})",
            2 * t,
            f.mean,
            sb.mean,
            rb.mean,
            rb.count
        ));
    }
    print_csv(
        "timeout_range_ms,trial,fed_elect_ms,sub_elect_ms,rebuild_ms",
        rows,
    );
    println!("\n# summary:");
    for s in summary {
        println!("{s}");
    }
}
