//! Acceptance: the integrated system survives *malicious* peers, not just
//! crashed ones.
//!
//! One seeded [`FaultPlan`] makes 1 of 8 peers Byzantine — it skews its
//! outgoing SAC shares *and* poisons its local update. With the defenses
//! on (commitment verification + the replicated `TrimmedMean` combiner)
//! the session completes with a global model within bound `B` of the
//! honest-only twin and the offender convicted and evicted. The pinned
//! negative: with the defenses off (no verification, plain FedAvg) the
//! very same plan drags the global model far outside `B`.

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_bench::testkit::synthetic_session;
use p2pfl_hierraft::{HierActor, RobustCombiner};
use p2pfl_simnet::{FaultPlan, NodeId, PoisonMode, SimTime};

const SEED: u64 = 0xb1_2a17;
const ROUNDS: usize = 3;
/// Bound `B` on the adversary's influence: the defended run's global model
/// may differ from the honest-only twin per coordinate by at most this
/// (the honest subgroup averages are IID-close, so losing the Byzantine
/// subgroup shifts the weighted mean only slightly). The attack factors
/// below push an undefended run three orders of magnitude past it.
const BOUND_B: f64 = 1.0;

/// 8 peers: 4 subgroups of 2. The Byzantine peer is `NodeId(1)` — the
/// follower of subgroup 0 (founding leaders are the first peer of each
/// subgroup).
fn config(seed: u64, combiner: RobustCombiner, verify: bool) -> ResilientConfig {
    let mut cfg = ResilientConfig::small(seed);
    cfg.deployment.num_subgroups = 4;
    cfg.deployment.subgroup_size = 2;
    cfg.deployment.combiner = combiner;
    cfg.verify_commitments = verify;
    cfg
}

/// The seeded plan: peer 1 runs the commit-then-skew share attack and
/// norm-boosts its local update, for the whole horizon.
fn byzantine_plan() -> FaultPlan {
    FaultPlan::new(SEED ^ 0xeb)
        .share_skew(SimTime::ZERO, None, NodeId(1), 5.0)
        .poison(
            SimTime::ZERO,
            None,
            NodeId(1),
            PoisonMode::NormBoost { factor: 1e4 },
        )
}

/// Runs `ROUNDS` rounds under `plan` (if any) and returns the session.
fn run(cfg: ResilientConfig, plan: Option<&FaultPlan>) -> ResilientSession {
    let (mut s, _, test) = synthetic_session(cfg, 0, 50);
    if let Some(p) = plan {
        s.apply_fault_plan(p);
    }
    s.run(ROUNDS, &test);
    s
}

fn linf(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn defended_session_stays_within_bound_b_and_evicts_the_offender() {
    let honest = run(config(SEED, RobustCombiner::TrimmedMean, true), None);
    let defended = run(
        config(SEED, RobustCombiner::TrimmedMean, true),
        Some(&byzantine_plan()),
    );

    // The offender was caught and convicted through the supervision path.
    assert!(
        defended.supervisor.shares_rejected >= 1,
        "skewed shares never rejected"
    );
    assert!(
        defended
            .supervisor
            .peers_evicted_byzantine
            .iter()
            .any(|&(_, p)| p == NodeId(1)),
        "offender never evicted: {:?}",
        defended.supervisor.peers_evicted_byzantine
    );
    // The conviction is permanent state on the subgroup leader.
    assert!(defended
        .dep
        .sim
        .actor::<HierActor>(NodeId(0))
        .byzantine_peers
        .contains(&NodeId(1)));

    // The combiner really came from the replicated config, not a local
    // default.
    let fl = defended.dep.fed_leader().expect("fed leader");
    assert_eq!(
        defended.dep.sim.actor::<HierActor>(fl).fed_config.combiner,
        RobustCombiner::TrimmedMean
    );

    // Bound B: the defended global model tracks the honest-only twin.
    let d = linf(defended.global(), honest.global());
    assert!(
        d <= BOUND_B,
        "defended run drifted {d} from the honest twin (bound {BOUND_B})"
    );
    assert!(defended.global().iter().all(|x| x.is_finite()));
}

#[test]
fn undefended_fedavg_violates_bound_b_under_the_same_plan() {
    // Pinned negative: same plan, but commitment checks off and plain
    // FedAvg. The skew and the poisoned update both land, and the global
    // model leaves the bound by orders of magnitude.
    let honest = run(config(SEED, RobustCombiner::FedAvg, true), None);
    let undefended = run(
        config(SEED, RobustCombiner::FedAvg, false),
        Some(&byzantine_plan()),
    );
    assert_eq!(undefended.supervisor.shares_rejected, 0);
    let d = linf(undefended.global(), honest.global());
    assert!(
        d > 10.0 * BOUND_B,
        "attack unexpectedly absorbed without defenses: drift {d}"
    );
}
