//! One-shot reproduction check: re-derives every table/figure claim at
//! reduced scale and prints a paper-vs-measured verdict table. The
//! dedicated `figNN_*` binaries produce the full-resolution data; this is
//! the five-minute sanity pass.
//!
//! Run: `cargo run -rp p2pfl-bench --bin repro_all`
//! (add `--full` for paper-scale rounds/trials; takes minutes).

use p2pfl::cost::{
    even_groups, gigabits, sac_baseline_units, two_layer_ft_units_eq5, two_layer_units_exact,
    ModelSize,
};
use p2pfl::experiment::{accuracy_sweep, final_accuracy, fraction_sweep, SweepSpec};
use p2pfl_bench::Args;
use p2pfl_hierraft::experiments::{fedavg_leader_crash_trial, subgroup_leader_crash_trial, Stats};
use p2pfl_ml::data::Partition;
use p2pfl_ml::models::{paper_cnn, PAPER_CNN_PARAMS};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Verdict {
    item: &'static str,
    paper: String,
    measured: String,
    pass: bool,
}

fn main() {
    let args = Args::parse();
    let full = args.get_flag("full");
    args.finish();
    let rounds = if full { 1000 } else { 120 };
    let trials = if full { 1000 } else { 60 };
    let mut verdicts: Vec<Verdict> = Vec::new();

    // ------------------------------------------------------------------
    println!("[1/7] Fig. 5: CNN parameter count ...");
    let mut rng = StdRng::seed_from_u64(0);
    let params = paper_cnn(&mut rng, 0).num_params();
    verdicts.push(Verdict {
        item: "Fig.5 CNN size",
        paper: "1.25 M params".into(),
        measured: format!("{:.3} M", params as f64 / 1e6),
        pass: params == PAPER_CNN_PARAMS && (params as f64 / 1e6 - 1.25).abs() < 0.01,
    });

    // ------------------------------------------------------------------
    println!("[2/7] Figs. 6-7: two-layer vs baseline accuracy ({rounds} rounds) ...");
    let spec = SweepSpec {
        n_total: 10,
        rounds,
        seed: 42,
        ..SweepSpec::default()
    };
    let series = accuracy_sweep(&spec, &[3, 10], &[Partition::Iid, Partition::NON_IID_0]);
    let gap = (final_accuracy(&series[0]) - final_accuracy(&series[1])).abs();
    verdicts.push(Verdict {
        item: "Fig.6 two-layer == baseline",
        paper: "<2% accuracy difference".into(),
        measured: format!("{:.2}% gap", gap * 100.0),
        pass: gap < 0.02,
    });
    let iid = final_accuracy(&series[0]);
    let skew = final_accuracy(&series[2]);
    verdicts.push(Verdict {
        item: "Fig.6 IID >= Non-IID(0%)",
        paper: "IID best".into(),
        measured: format!("IID {:.3} vs skew {:.3}", iid, skew),
        pass: iid >= skew - 1e-9,
    });

    // ------------------------------------------------------------------
    println!("[3/7] Figs. 8-9: fraction p = 0.5 ({rounds} rounds) ...");
    let spec = SweepSpec {
        n_total: 20,
        rounds,
        seed: 42,
        ..SweepSpec::default()
    };
    let fr = fraction_sweep(&spec, 5, &[0.5, 1.0], &[Partition::Iid]);
    let gap = final_accuracy(&fr[1]) - final_accuracy(&fr[0]);
    verdicts.push(Verdict {
        item: "Fig.8 p=0.5 costs little",
        paper: "~2.18% mean gap".into(),
        measured: format!("{:+.2}% gap", gap * 100.0),
        pass: gap.abs() < 0.05,
    });

    // ------------------------------------------------------------------
    println!("[4/7] Figs. 10-11: subgroup leader crash recovery ({trials} trials) ...");
    let mut means = Vec::new();
    let mut deltas = Vec::new();
    for t in [50u64, 200] {
        let mut elect = Vec::new();
        let mut join = Vec::new();
        for s in 0..trials {
            if let Some(r) = subgroup_leader_crash_trial(t, s) {
                elect.push(r.elect_ms);
                join.push(r.join_ms);
            }
        }
        let e = Stats::of(&elect).unwrap();
        let j = Stats::of(&join).unwrap();
        means.push(e.mean);
        deltas.push(j.mean - e.mean);
    }
    verdicts.push(Verdict {
        item: "Fig.10 recovery grows with T",
        paper: "monotone in timeout".into(),
        measured: format!("{:.0}ms @T=50 -> {:.0}ms @T=200", means[0], means[1]),
        pass: means[1] > means[0],
    });
    verdicts.push(Verdict {
        item: "Fig.11 join overhead ~const",
        paper: "+123..166 ms".into(),
        measured: format!("+{:.0} / +{:.0} ms", deltas[0], deltas[1]),
        pass: deltas.iter().all(|d| (90.0..220.0).contains(d)),
    });

    // ------------------------------------------------------------------
    println!("[5/7] Fig. 12: FedAvg leader crash ({trials} trials) ...");
    let mut rebuilds = Vec::new();
    let mut joins_at_t50 = Vec::new();
    for s in 0..trials {
        if let Some(r) = fedavg_leader_crash_trial(50, s) {
            rebuilds.push(r.rebuild_ms);
        }
        if let Some(r) = subgroup_leader_crash_trial(50, s) {
            joins_at_t50.push(r.join_ms);
        }
    }
    let rebuild = Stats::of(&rebuilds).unwrap().mean;
    let join = Stats::of(&joins_at_t50).unwrap().mean;
    verdicts.push(Verdict {
        item: "Fig.12 full rebuild slowest",
        paper: "longer than Fig.11 case".into(),
        measured: format!("rebuild {rebuild:.0}ms vs join {join:.0}ms"),
        pass: rebuild >= join,
    });

    // ------------------------------------------------------------------
    println!("[6/7] Fig. 13: cost vs m (closed form) ...");
    let m6 = gigabits(two_layer_units_exact(&even_groups(30, 6)) * ModelSize::PAPER_CNN.bits());
    verdicts.push(Verdict {
        item: "Fig.13 m=6 cost",
        paper: "7.12 Gb".into(),
        measured: format!("{m6:.2} Gb"),
        pass: (m6 - 7.12).abs() < 0.01,
    });

    // ------------------------------------------------------------------
    println!("[7/7] Fig. 14: k-n improvement ratios (closed form) ...");
    for (n, k, nt, expect) in [
        (3usize, 3usize, 30usize, 14.75),
        (3, 2, 30, 10.36),
        (5, 3, 30, 4.29),
    ] {
        let ratio = sac_baseline_units(nt) / two_layer_ft_units_eq5(n, k, nt);
        verdicts.push(Verdict {
            item: match (n, k) {
                (3, 3) => "Fig.14 (3-3, N=30)",
                (3, 2) => "Fig.14 (3-2, N=30) headline",
                _ => "Fig.14 (5-3, N=30)",
            },
            paper: format!("{expect}x"),
            measured: format!("{ratio:.2}x"),
            pass: (ratio - expect).abs() < 0.01,
        });
    }

    // ------------------------------------------------------------------
    println!(
        "\n{:<32} {:<26} {:<28} verdict",
        "claim", "paper", "measured"
    );
    println!("{}", "-".repeat(98));
    let mut failures = 0;
    for v in &verdicts {
        println!(
            "{:<32} {:<26} {:<28} {}",
            v.item,
            v.paper,
            v.measured,
            if v.pass { "PASS" } else { "FAIL" }
        );
        if !v.pass {
            failures += 1;
        }
    }
    println!("{}", "-".repeat(98));
    if failures == 0 {
        println!("all {} reproduction checks passed", verdicts.len());
    } else {
        println!("{failures} of {} checks FAILED", verdicts.len());
        std::process::exit(1);
    }
}
