//! Tier-1 smoke for the async reactor at moderate scale: 64 SAC peers in
//! 8 disjoint subgroups of 8, all hosted on ONE reactor thread over real
//! loopback TCP, each subgroup completing a full aggregation round whose
//! leader digest must be bit-identical to the same 64 actors executed
//! under the deterministic simulator.
//!
//! This is the fast stand-in for `bench --bin scale` (1000 peers / 100
//! subgroups): same topology shape, same digest-vs-sim oracle, sized to
//! run in tier-1 CI.

use p2pfl_bench::testkit::{
    assert_clean_wire, mesh, models, reactor, reactor_round, sac_peers, sim_group, sim_round,
    spawn_group,
};
use p2pfl_secagg::{PairwiseWire, SacEngine, SacMsg, SacPeerActor};
use p2pfl_simnet::{NodeId, SimDuration};

const SUBGROUPS: usize = 8;
const SUB_SIZE: usize = 8;
const N: usize = SUBGROUPS * SUB_SIZE;
const K: usize = 3;
const DIM: usize = 16;
const SEED: u64 = 0x5CA1E;

/// The 64 peers, subgroup `g` being ids `8g..8g + 8`. Deadlines only
/// bound straggler waits — with full participation the round freezes once
/// all blocks arrive, so sim and TCP can use different values without
/// affecting the result.
fn peers(deadline: SimDuration) -> Vec<(NodeId, SacPeerActor)> {
    let models = models(N, DIM, SEED + 999);
    sac_peers(&models, SUB_SIZE, K, SacEngine::Pairwise, deadline, SEED)
}

#[test]
fn sixty_four_peers_on_one_reactor_match_simulator() {
    // All 64 actors under the simulator: every subgroup runs round 1.
    let mut sim = sim_group(SEED, peers(SimDuration::from_millis(500)), None);
    let leaders = (0..N).step_by(SUB_SIZE).map(|id| NodeId(id as u32));
    let expected = sim_round::<PairwiseWire>(&mut sim, leaders, 1);

    let reactor = reactor::<SacMsg, SacPeerActor>();
    let handles = spawn_group(&reactor, peers(SimDuration::from_secs(30)), None);

    // Full mesh within each subgroup only — all 64 peers share the one
    // reactor listener, so every address is the same socket.
    for subgroup in handles.chunks(SUB_SIZE) {
        mesh(subgroup);
    }

    // All 8 subgroup rounds run concurrently.
    let got = reactor_round(handles.iter().step_by(SUB_SIZE), 1);
    for (g, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.1.digest(),
            want.1.digest(),
            "subgroup {g} diverged from simulator"
        );
    }
    assert_clean_wire(&handles);
}
