//! The paper's closed-form cost model (Eqs. 4, 5, 10) against the byte
//! ledgers of the *executed* protocols — the formulas must describe the
//! code, not just the paper.
//!
//! One subgroup round is counted twice: by the synchronous reference's
//! ledger, which must equal the paper's payload terms
//! ([`sac_round_ledger`]), and by the simulator on the wire of the engine
//! that ships, which must equal those terms plus the engine's control
//! frames ([`sac_round_overhead`]) — in bytes and in messages, at two
//! model sizes, with and without a crash.

use p2pfl::cost::{
    even_groups, ft_sac_units, sac_baseline_units, sac_round_ledger, sac_round_overhead,
    two_layer_ft_units_eq5, two_layer_units_eq4, two_layer_units_exact,
};
use p2pfl::multilayer::MultilayerTree;
use p2pfl::system::{SystemKind, TwoLayerConfig, TwoLayerSystem};
use p2pfl_bench::testkit::{models, sac_peers};
use p2pfl_fed::{Client, LocalTrainConfig};
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Partition};
use p2pfl_ml::models::mlp;
use p2pfl_secagg::{
    drive_round, reference_round, sim_group, DropPhase, Dropout, PairwiseWire, RingPlan, RingWire,
    SacEngine, ShareScheme, WeightVector, Wire,
};
use p2pfl_simnet::{FaultPlan, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 16;

fn wire(dim: usize) -> u64 {
    dim as u64 * 4
}

/// The crash cases of one round: none, and each of Sec. V's C1 and C2.
const CRASHES: [Option<DropPhase>; 3] = [
    None,
    Some(DropPhase::BeforeShare),
    Some(DropPhase::AfterShare),
];

/// Runs one round of `n` peers at threshold `k`, led by position 0, with
/// the last position crashing as `crash` says: on the simulator through
/// the engine `W`, and on the reference ledger, at dims 16 and 100. A
/// crash outside the layout's dropout budget must fail both and is not
/// counted; otherwise the ledger must equal [`sac_round_ledger`] and the
/// wire the ledger plus [`sac_round_overhead`], exactly. Returns whether
/// the round ran within budget.
fn check_round<W: Wire>(engine: SacEngine, n: usize, k: usize, crash: Option<DropPhase>) -> bool {
    let victim = n - 1;
    let dropouts: Vec<Dropout> = crash
        .map(|phase| Dropout {
            peer: victim,
            phase,
        })
        .into_iter()
        .collect();
    // Begin reaches the followers at 15 ms and ComputeOver at 45 ms: a
    // crash at 0 precedes the victim's shares, one at 40 ms its total.
    let crash_at = crash.map(|phase| match phase {
        DropPhase::BeforeShare => SimTime::ZERO,
        DropPhase::AfterShare => SimTime::from_millis(40),
    });
    for dim in [16, 100] {
        let case = format!("{engine:?} n={n} k={k} {crash:?} dim={dim}");
        let seed = (n * 100 + k) as u64;
        let ms = models(n, dim, seed);
        let plan = crash_at.map(|at| FaultPlan::new(seed).crash(at, NodeId(victim as u32)));
        let deadline = SimDuration::from_millis(100);
        let peers = sac_peers::<W>(&ms, n, k, engine, deadline, seed);
        let mut sim = sim_group(seed, peers, plan.as_ref());
        let outcome = drive_round::<W>(&mut sim, [NodeId(0)], 1).remove(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let reference =
            reference_round::<W, _>(&ms, k, 0, &dropouts, ShareScheme::Masked, &mut rng);
        let log = match (outcome, reference) {
            (Err(_), Err(_)) => return false,
            (Ok((contributors, _)), Ok(out)) => {
                assert_eq!(contributors, out.contributors, "{case}");
                let lost = usize::from(crash == Some(DropPhase::BeforeShare));
                assert_eq!(contributors.len(), n - lost, "{case}");
                out.log
            }
            _ => panic!("{case}: only one of engine and reference completed"),
        };
        let w = ms[0].wire_bytes();
        let ledger = sac_round_ledger(engine, n, k, crash);
        let overhead = sac_round_overhead(engine, n, k, crash);
        assert_eq!(
            (log.messages(), log.bytes()),
            (ledger.msgs, ledger.bytes(w)),
            "{case}: reference ledger"
        );
        let on_wire = sim.metrics().total();
        let expected = (
            ledger.msgs + overhead.msgs,
            ledger.bytes(w) + overhead.bytes(w),
        );
        assert_eq!(
            (on_wire.msgs, on_wire.bytes),
            expected,
            "{case}: engine on the wire"
        );
    }
    true
}

#[test]
fn alg2_ledger_matches_2n_nminus1() {
    // Alg. 2 is the k = n round plus a broadcast of every subtotal to
    // every other peer, (n-1)²|w| that no engine sends: 2n(n-1) in all.
    for n in 1..12usize {
        assert!(check_round::<PairwiseWire>(SacEngine::Pairwise, n, n, None));
        let ledger = sac_round_ledger(SacEngine::Pairwise, n, n, None);
        let broadcast = ((n - 1) * (n - 1)) as u64;
        assert_eq!(ledger.units, (n * n - 1) as u64, "n={n}");
        assert_eq!(
            (ledger.units + broadcast) as f64,
            sac_baseline_units(n),
            "n={n}"
        );
    }
}

#[test]
fn alg4_ledger_matches_eq5_sac_terms() {
    // Eq. 5's per-subgroup terms: shares n(n-1)(n-k+1)|w| + subtotals
    // (k-1)|w| when nobody drops; Eq. 5 at N = n adds the (n-1)|w|
    // broadcast of the aggregate. A crash is within budget iff k < n.
    for n in 2..9usize {
        for k in 1..=n {
            let units = ft_sac_units(n, k);
            assert_eq!(
                units as f64,
                two_layer_ft_units_eq5(n, k, n) - (n - 1) as f64,
                "n={n} k={k}"
            );
            let ledger = sac_round_ledger(SacEngine::Pairwise, n, k, None);
            assert_eq!((ledger.units, ledger.fixed), (units, 0), "n={n} k={k}");
            for crash in CRASHES {
                let within = check_round::<PairwiseWire>(SacEngine::Pairwise, n, k, crash);
                assert_eq!(within, crash.is_none() || k < n, "n={n} k={k} {crash:?}");
            }
        }
    }
}

#[test]
fn ring_ledger_matches_staged_terms() {
    // The staged layout's terms: n·m·r|w| of shares for stage size m and
    // blocks of r = min(m-1, n-k+1) partitions, n - r totals the leader
    // does not hold, and n - 1 announcements of 16 B. A crash is within
    // budget iff partitions have an alternate holder (r >= 2).
    for (n, k) in [(4usize, 2usize), (6, 2), (8, 4), (16, 8)] {
        let plan = RingPlan::new(n, k);
        let m = plan.stage_len(0);
        assert!((0..plan.num_stages()).all(|t| plan.stage_len(t) == m));
        let r = (m - 1).min(n - k + 1);
        let ledger = sac_round_ledger(SacEngine::Ring, n, k, None);
        assert_eq!(
            (ledger.units, ledger.fixed),
            ((n * m * r + n - r) as u64, 16 * (n - 1) as u64),
            "n={n} k={k}"
        );
        for crash in CRASHES {
            let within = check_round::<RingWire>(SacEngine::Ring, n, k, crash);
            assert_eq!(within, crash.is_none() || r >= 2, "n={n} k={k} {crash:?}");
        }
    }
}

fn system_for(
    n_total: usize,
    kind: SystemKind,
    subgroup: usize,
    threshold: Option<usize>,
    seed: u64,
) -> (TwoLayerSystem, p2pfl_ml::data::Dataset, u64) {
    let (train, test) =
        train_test_split(&features_like(DIM, n_total * 30 + 100, seed), n_total * 30);
    let parts = partition_dataset(&train, n_total, Partition::Iid, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let clients: Vec<Client> = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            Client::new(
                i,
                mlp(&[DIM, 8, 10], &mut rng),
                d,
                1e-2,
                seed + 3 + i as u64,
            )
        })
        .collect();
    let eval = mlp(&[DIM, 8, 10], &mut rng);
    let model_bytes = eval.num_params() as u64 * 4;
    let cfg = TwoLayerConfig {
        kind,
        subgroup_size: subgroup,
        threshold,
        scheme: ShareScheme::Masked,
        fraction: 1.0,
        train: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
        },
        seed: seed + 50,
        dp: None,
        fed_layer_sac: false,
    };
    (TwoLayerSystem::new(clients, eval, cfg), test, model_bytes)
}

#[test]
fn full_round_matches_eq4_for_divisible_n() {
    for (n_total, n) in [(6usize, 3usize), (12, 3), (10, 5), (8, 4)] {
        let (mut sys, test, w) = system_for(n_total, SystemKind::TwoLayer, n, None, 7);
        let rec = sys.run_round(1, &test);
        let m = n_total / n;
        assert_eq!(
            rec.bytes,
            two_layer_units_eq4(m, n) as u64 * w,
            "N={n_total} n={n}"
        );
    }
}

#[test]
fn full_round_matches_exact_formula_for_uneven_groups() {
    // N = 10, n = 3 -> groups 4, 3, 3 (the paper's Fig. 6 arrangement).
    let (mut sys, test, w) = system_for(10, SystemKind::TwoLayer, 3, None, 8);
    let rec = sys.run_round(1, &test);
    let expected = two_layer_units_exact(&even_groups(10, 3)) as u64 * w;
    assert_eq!(rec.bytes, expected);
}

#[test]
fn ft_round_matches_eq5() {
    for (n, k, n_total) in [(3usize, 2usize, 6usize), (3, 3, 9), (5, 3, 10)] {
        let (mut sys, test, w) = system_for(n_total, SystemKind::TwoLayer, n, Some(k), 9);
        let rec = sys.run_round(1, &test);
        assert_eq!(
            rec.bytes,
            two_layer_ft_units_eq5(n, k, n_total) as u64 * w,
            "n={n} k={k} N={n_total}"
        );
    }
}

#[test]
fn headline_ratio_10_36x_holds_in_executed_system() {
    // The abstract's claim: N = 30, (n,k) = (3,2) reduces communication
    // 10.36x vs the one-layer SAC — measured on real rounds, not formulas.
    let (mut two, test, _) = system_for(30, SystemKind::TwoLayer, 3, Some(2), 10);
    let rec2 = two.run_round(1, &test);
    let (mut base, test_b, w) = system_for(30, SystemKind::OriginalSac, 30, None, 10);
    let rec1 = base.run_round(1, &test_b);
    // The baseline runner charges an extra (N-1)|w| global distribution
    // that Alg. 2 strictly doesn't need; remove it for the paper's ratio.
    let baseline_bytes = rec1.bytes - (29 * w);
    let ratio = baseline_bytes as f64 / rec2.bytes as f64;
    assert!(
        (ratio - 10.36).abs() < 0.05,
        "measured ratio {ratio:.2}, paper 10.36"
    );
}

#[test]
fn multilayer_ledger_matches_eq10_at_scale() {
    let mut rng = StdRng::seed_from_u64(11);
    let tree = MultilayerTree::build(3, 4); // 45 peers
    let models: Vec<WeightVector> = (0..tree.total_peers())
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect();
    let (avg, log) = tree.aggregate(&models, ShareScheme::Masked, &mut rng);
    let plain = WeightVector::mean(models.iter());
    assert!(avg.linf_distance(&plain) < 1e-6);
    let expected = p2pfl::cost::multilayer_units_eq10(3, 4) as u64 * wire(DIM);
    assert_eq!(log.bytes(), expected);
}
