//! A long-lived peer's Raft state stays bounded.
//!
//! Every subgroup leader re-commits the FedAvg-layer configuration three
//! times per settle window and the session sequences one round marker per
//! round through the FedAvg-layer log, so without compaction both logs of
//! every peer grow linearly for the life of the session (20 KB per round
//! at N = 30). This drives the `session_mlp_30` deployment - 10 subgroups
//! of 3 - through 1 500 fault-free settle rounds and holds every peer's
//! two logs to the compaction bound.

use p2pfl_hierraft::{Deployment, DeploymentSpec, FedCmd, HierActor, COMPACT_AFTER};
use p2pfl_simnet::{SimDuration, SimTime};

const ROUNDS: u64 = 1_500;
/// The session's settle window and the entries one window can add on top
/// of the bound before the next checkpoint cuts the log: three config
/// re-commits (200 ms interval) or one round marker, with slack for a
/// leader's no-op and a membership change.
const SETTLE: SimDuration = SimDuration::from_millis(600);
const SETTLE_WINDOW_ENTRIES: usize = 8;

#[test]
fn both_logs_of_every_peer_stay_under_the_compaction_bound() {
    let mut spec = DeploymentSpec::paper(100, 7);
    spec.num_subgroups = 10;
    spec.subgroup_size = 3;
    let peers = spec.total_peers();
    let mut dep = Deployment::build(spec);
    assert!(dep.wait_stable(SimTime::from_secs(30)), "never stabilized");

    let bound = COMPACT_AFTER as usize + SETTLE_WINDOW_ENTRIES;
    let mut longest = (0usize, 0usize);
    for round in 1..=ROUNDS {
        dep.sim.run_for(SETTLE);
        let leader = dep.fed_leader().expect("fault-free run keeps its leader");
        dep.sim.exec::<HierActor, _, _>(leader, |a, ctx| {
            a.propose_fed(ctx, FedCmd::Round(round))
                .expect("the FedAvg leader accepts round markers");
        });
        for id in dep.subgroups.iter().flatten() {
            let a = dep.sim.actor::<HierActor>(*id);
            let sub = a.sub_raft().log().live_entries();
            let fed = a.fed_raft().map_or(0, |f| f.log().live_entries());
            assert!(
                sub <= bound && fed <= bound,
                "round {round}, peer {id:?}: sub log {sub}, fed log {fed}, bound {bound}"
            );
            longest = (longest.0.max(sub), longest.1.max(fed));
        }
    }
    dep.sim.run_for(SETTLE);

    // The bound was exercised, not vacuous: both layers cut their logs,
    // and nobody fell off the replicated state while they did.
    let reference = dep.sim.actor::<HierActor>(dep.subgroups[0][0]);
    let fed_version = reference.fed_config.version;
    let mut fed_members = 0;
    for (g, group) in dep.subgroups.iter().enumerate() {
        let versions: Vec<u64> = group
            .iter()
            .map(|id| dep.sim.actor::<HierActor>(*id).fed_config.version)
            .collect();
        assert!(
            versions.iter().all(|v| *v == versions[0]) && versions[0] >= 3 * ROUNDS - 3,
            "subgroup {g} config versions {versions:?}"
        );
        for id in group {
            let a = dep.sim.actor::<HierActor>(*id);
            assert!(
                a.sub_raft().log().snapshot_index() > 0,
                "peer {id:?} never compacted its subgroup log"
            );
            if let Some(fed) = a.fed_raft() {
                fed_members += 1;
                assert!(fed.log().snapshot_index() > 0, "peer {id:?} fed log");
                let rounds = a.fed_rounds_applied();
                assert_eq!(rounds.len() as u64, ROUNDS, "peer {id:?} missed markers");
                assert_eq!(rounds.last(), Some(&ROUNDS));
            }
        }
    }
    assert_eq!(fed_members, 10, "one FedAvg-layer seat per subgroup");
    assert!(fed_version > 0);
    // What still grows per round is the test-facing applied histories
    // (`fed_cmds_applied`: one entry per round on each of the ten seats).
    println!(
        "{peers} peers, {ROUNDS} rounds: longest sub log {}, longest fed log {}, bound {bound}",
        longest.0, longest.1
    );
}
