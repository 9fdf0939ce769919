//! Acceptance: a `p2pfl-check` counterexample JSON is a *replayable*
//! artifact.
//!
//! * The schedule re-executes deterministically on the simulator through
//!   the same explorer that produced it — byte-identical state
//!   fingerprints across runs, and (against unmutated code) no violation.
//! * Its projected [`FaultPlan`] re-executes the fault pattern on both
//!   transports: applied to a fresh simulator deployment and to a real
//!   TCP deployment on the reactor, the fault-tolerant SAC round still
//!   completes and the published result is exactly the mean of the frozen
//!   contributor set — the KofNReconstructability oracle, checked by hand
//!   on the transport the explorer cannot drive.

use p2pfl_bench::testkit::{
    mesh, reactor, reactor_round, sac_peers, sim_group, sim_round, spawn_group,
};
use p2pfl_check::models::Sac3Model;
use p2pfl_check::{Counterexample, ExploreConfig, Explorer, Model};
use p2pfl_secagg::{PairwiseWire, SacEngine, SacMsg, SacPeerActor, WeightVector};
use p2pfl_simnet::{NodeId, SimDuration};

const SEED: u64 = 0xCE11;

/// A counterexample-format schedule as the mutation self-check writes
/// them: drop the first in-flight delivery (the leader's `Begin` to peer
/// 1), then let the round run. Labels are informational only.
const SCHEDULE_JSON: &str = r#"{
  "model": "sac3",
  "oracle": "(none: clean-code replay probe)",
  "detail": "drops the leader's Begin to n1, round must still complete",
  "steps": [
    {"index": 0, "mode": 1, "label": "deliver sac.begin n0->n1"},
    {"index": 0, "mode": 0, "label": "deliver sac.begin n0->n2"},
    {"index": 0, "mode": 0, "label": "deliver sac.share n0->n2"},
    {"index": 1, "mode": 0, "label": "deliver sac.share n2->n0"},
    {"index": 0, "mode": 0, "label": "deliver sac.share n2->n1"}
  ]
}"#;

fn explorer() -> Explorer<Sac3Model> {
    Explorer::new(
        Sac3Model,
        ExploreConfig {
            max_depth: 32,
            max_states: 10_000,
            max_branch: 8,
            enable_drops: true,
            enable_dups: true,
            fault_choice_limit: 4,
        },
    )
}

#[test]
fn counterexample_json_reexecutes_deterministically_on_simulator() {
    let cx = Counterexample::from_json(SCHEDULE_JSON).expect("parse schedule");
    let ex = explorer();
    let (mut a, va) = ex.replay(&cx.choices());
    let (mut b, vb) = ex.replay(&cx.choices());
    assert!(va.is_none(), "clean code must not violate: {va:?}");
    assert!(vb.is_none());
    assert_eq!(
        Sac3Model.fingerprint(&mut a),
        Sac3Model.fingerprint(&mut b),
        "schedule replay must be deterministic"
    );
    assert_eq!(a.queue_digest(), b.queue_digest());
}

/// The 3-peer SAC deployment of [`Sac3Model`] (k = 2, peer `pos` holding
/// `peer_model(pos)`), for a plain simulator or the reactor.
fn peers(deadline: SimDuration) -> Vec<(NodeId, SacPeerActor)> {
    sac_peers(&MODELS, 3, 2, SacEngine::Pairwise, deadline, SEED)
}

fn peer_model(pos: usize) -> WeightVector {
    let b = (pos + 1) as f64;
    WeightVector::new(vec![b, -2.0 * b, 0.5 * b])
}

fn assert_kofn(contributors: &[usize], result: &WeightVector) {
    assert!(!contributors.is_empty());
    let expected = WeightVector::mean(contributors.iter().map(|&c| &MODELS[c]));
    assert!(
        result.linf_distance(&expected) < 1e-6,
        "result is not the mean of contributors {contributors:?}"
    );
}

// peer_model(pos) materialized once for the oracle comparison.
static MODELS: std::sync::LazyLock<Vec<WeightVector>> =
    std::sync::LazyLock::new(|| (0..3).map(peer_model).collect());

#[test]
fn projected_fault_plan_reexecutes_on_simulator() {
    let cx = Counterexample::from_json(SCHEDULE_JSON).expect("parse schedule");
    let plan = explorer().project_fault_plan(&cx.choices(), SEED);
    assert!(
        plan.can_drop_messages(),
        "the schedule's drop must survive projection"
    );
    let mut sim = sim_group(SEED, peers(SimDuration::from_millis(400)), Some(&plan));
    let (contributors, result) = sim_round::<PairwiseWire>(&mut sim, [NodeId(0)], 1).remove(0);
    assert_kofn(&contributors, &result);
}

#[test]
fn projected_fault_plan_reexecutes_on_tcp() {
    let cx = Counterexample::from_json(SCHEDULE_JSON).expect("parse schedule");
    let mut plan = explorer().project_fault_plan(&cx.choices(), SEED);
    // Sim partition windows are a few virtual milliseconds; stretch them to
    // cover the real round so the fault actually bites on the wire.
    for e in &mut plan.entries {
        e.until = Some(p2pfl_simnet::SimTime::from_secs(600));
    }

    let reactor = reactor::<SacMsg, SacPeerActor>();
    let handles = spawn_group(&reactor, peers(SimDuration::from_secs(2)), Some(&plan));
    mesh(&handles);

    let (contributors, result) = reactor_round(&handles[..1], 1).remove(0);
    assert_kofn(&contributors, &result);
}
