//! Figs. 10 and 11 — from one set of subgroup-leader crash trials: the
//! time to detect the crashed leader and elect a new one (Fig. 10), and
//! the time until the new leader has also joined the FedAvg layer
//! (Fig. 11). Follower/candidate timeouts are uniform in `[T, 2T]`,
//! T ∈ {50, 100, 150, 200} ms; N = 25 peers in 5 subgroups; 15 ms links.
//!
//! Paper claims to reproduce (shape): recovery time grows roughly linearly
//! with T (paper means: 214 / 401 / 581 / 749 ms for the four ranges), and
//! the join adds a roughly constant overhead on top (paper: +122.98 /
//! +125.8 / +144.70 / +166.09 ms), dominated by the join polling interval
//! and a few round trips.
//!
//! Run: `cargo run -rp p2pfl-bench --bin fig10_11_election_join --
//! --trials 1000` (the paper uses 1000 trials; default 200 keeps the run
//! short).

use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_hierraft::experiments::{subgroup_leader_crash_trial, Stats};

fn main() {
    let args = Args::parse();
    let trials = args.get_u64("trials", 200);
    let seed0 = args.get_u64("seed", 0);
    args.finish();

    banner(
        "Figs. 10-11: subgroup leader crash -> new leader election, then FedAvg-layer join",
        "paper means: 214.30 / 401.04 / 580.74 / 749.07 ms for T = 50/100/150/200; \
         join adds +122.98/+125.8/+144.70/+166.09 ms",
    );
    let mut rows = Vec::new();
    let mut elect_summary = Vec::new();
    let mut join_summary = Vec::new();
    for t in [50u64, 100, 150, 200] {
        let mut elect = Vec::new();
        let mut join = Vec::new();
        for s in 0..trials {
            if let Some(r) = subgroup_leader_crash_trial(t, seed0 + s) {
                elect.push(r.elect_ms);
                join.push(r.join_ms);
                rows.push(format!(
                    "{t}-{},{s},{:.2},{:.2}",
                    2 * t,
                    r.elect_ms,
                    r.join_ms
                ));
            }
        }
        let e = Stats::of(&elect).expect("all trials failed");
        let j = Stats::of(&join).expect("all trials failed");
        elect_summary.push(format!(
            "#   T={t}..{}ms: mean {:.2}ms  min {:.2}  max {:.2}  std {:.2}  (n={})",
            2 * t,
            e.mean,
            e.min,
            e.max,
            e.std_dev,
            e.count
        ));
        join_summary.push(format!(
            "#   T={t}..{}ms: join mean {:.2}ms (elect {:.2} + delta {:.2})  min {:.2}  max {:.2}  (n={})",
            2 * t,
            j.mean,
            e.mean,
            j.mean - e.mean,
            j.min,
            j.max,
            j.count
        ));
    }
    print_csv("timeout_range_ms,trial,elect_ms,join_ms", rows);
    println!("\n# Fig. 10 summary (election):");
    for s in elect_summary {
        println!("{s}");
    }
    println!("\n# Fig. 11 summary (election + join):");
    for s in join_summary {
        println!("{s}");
    }
}
