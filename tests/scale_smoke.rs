//! Tier-1 smoke for the async reactor at moderate scale: 64 SAC peers in
//! 8 disjoint subgroups of 8, all hosted on ONE reactor thread over real
//! loopback TCP, each subgroup completing a full aggregation round whose
//! leader digest must be bit-identical to the same 64 actors executed
//! under the deterministic simulator.
//!
//! This is the fast stand-in for `bench --bin scale` (1000 peers / 100
//! subgroups): same topology shape, same digest-vs-sim oracle, sized to
//! run in tier-1 CI.

mod common;

use common::{assert_clean_wire, mesh, reactor, spawn_group, wait_done};
use p2pfl_secagg::{
    SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme, WeightVector,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SUBGROUPS: usize = 8;
const SUB_SIZE: usize = 8;
const N: usize = SUBGROUPS * SUB_SIZE;
const K: usize = 3;
const DIM: usize = 16;
const SEED: u64 = 0x5CA1E;

fn models() -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED + 999);
    (0..N)
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect()
}

/// Global ids of subgroup `g`'s members; the leader is the first.
fn subgroup_ids(g: usize) -> Vec<NodeId> {
    (0..SUB_SIZE)
        .map(|i| NodeId((g * SUB_SIZE + i) as u32))
        .collect()
}

/// Config for global peer `id` (subgroup membership derived from the id).
/// Deadlines only bound straggler waits — with full participation the
/// round freezes once all blocks arrive, so sim and TCP can use different
/// values without affecting the result.
fn config(id: usize, deadline: SimDuration) -> SacConfig {
    SacConfig {
        group: subgroup_ids(id / SUB_SIZE),
        position: id % SUB_SIZE,
        leader_pos: 0,
        k: K,
        scheme: ShareScheme::Masked,
        engine: SacEngine::Pairwise,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed: SEED + id as u64,
    }
}

/// All 64 actors under the simulator: every subgroup runs round 1, and we
/// return the 8 leader digests in subgroup order.
fn simulator_digests() -> Vec<u64> {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    let models = models();
    for (id, model) in models.iter().enumerate() {
        let cfg = config(id, SimDuration::from_millis(500));
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    sim.run_until_quiet(1000);
    for g in 0..SUBGROUPS {
        let leader = subgroup_ids(g)[0];
        sim.exec::<SacPeerActor, _, _>(leader, |a, ctx| a.start_round(ctx, 1));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    (0..SUBGROUPS)
        .map(|g| {
            let leader = sim.actor::<SacPeerActor>(subgroup_ids(g)[0]);
            assert_eq!(
                leader.phase,
                SacPhase::Done,
                "sim subgroup {g}: {:?}",
                leader.phase
            );
            leader.result.as_ref().unwrap().digest()
        })
        .collect()
}

#[test]
fn sixty_four_peers_on_one_reactor_match_simulator() {
    let expected = simulator_digests();

    let reactor = reactor::<SacMsg, SacPeerActor>();
    let models = models();
    let handles = spawn_group(
        &reactor,
        (0..N).map(|id| {
            let cfg = config(id, SimDuration::from_secs(30));
            (
                NodeId(id as u32),
                SacPeerActor::new(cfg, models[id].clone()),
            )
        }),
        None,
    );

    // Full mesh within each subgroup only — all 64 peers share the one
    // reactor listener, so every address is the same socket.
    for subgroup in handles.chunks(SUB_SIZE) {
        mesh(subgroup);
    }

    // Kick off all 8 subgroup rounds concurrently.
    for subgroup in handles.chunks(SUB_SIZE) {
        subgroup[0].with(|a, ctx| a.start_round(ctx, 1));
    }

    for (g, want) in expected.iter().enumerate() {
        let (_, got) = wait_done(&handles[g * SUB_SIZE], &format!("subgroup {g}"));
        assert_eq!(got.digest(), *want, "subgroup {g} diverged from simulator");
    }
    assert_clean_wire(&handles);
}
