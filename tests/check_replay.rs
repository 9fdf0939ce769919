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

mod common;

use common::{mesh, reactor, spawn_group, wait_done};
use p2pfl_check::models::Sac3Model;
use p2pfl_check::{Counterexample, ExploreConfig, Explorer, Model};
use p2pfl_secagg::{
    SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme, WeightVector,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};

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

/// The 3-peer SAC deployment of [`Sac3Model`], rebuilt on a plain
/// simulator so a fault plan can be applied to it.
fn sim_round_under(plan: &p2pfl_simnet::FaultPlan) -> (Vec<usize>, WeightVector) {
    let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    for pos in 0..3 {
        sim.add_node(SacPeerActor::new(
            sac_cfg(&ids, pos, SimDuration::from_millis(400)),
            peer_model(pos),
        ));
    }
    sim.apply_fault_plan(plan);
    sim.run_until_quiet(50);
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_for(SimDuration::from_secs(10));
    let leader = sim.actor::<SacPeerActor>(ids[0]);
    assert_eq!(
        leader.phase,
        SacPhase::Done,
        "sim round: {:?}",
        leader.phase
    );
    (
        leader.contributors.clone(),
        leader.result.clone().expect("Done implies result"),
    )
}

fn sac_cfg(ids: &[NodeId], pos: usize, deadline: SimDuration) -> SacConfig {
    SacConfig {
        group: ids.to_vec(),
        position: pos,
        leader_pos: 0,
        k: 2,
        scheme: ShareScheme::Masked,
        engine: SacEngine::Pairwise,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed: SEED + pos as u64,
    }
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
    let (contributors, result) = sim_round_under(&plan);
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

    let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
    let reactor = reactor::<SacMsg, SacPeerActor>();
    let handles = spawn_group(
        &reactor,
        (0..3).map(|pos| {
            let cfg = sac_cfg(&ids, pos, SimDuration::from_secs(2));
            (ids[pos], SacPeerActor::new(cfg, peer_model(pos)))
        }),
        Some(&plan),
    );
    mesh(&handles);

    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    let (contributors, result) = wait_done(&handles[0], "tcp round under projected plan");
    assert_kofn(&contributors, &result);
}
