//! Durable two-layer Raft state: a storage-backed peer rebuilt purely from
//! its persisted record recovers both its subgroup Raft state and (if it
//! held one) its FedAvg-layer seat.

use p2pfl_hierraft::{DeploymentSpec, FedCmd, HierActor, HierMsg, SubCmd};
use p2pfl_raft::MemStorage;
use p2pfl_simnet::{Latency, LatencyConfig, NodeId, Sim, SimDuration, SimTime};

const SUBGROUPS: usize = 2;
const SIZE: usize = 3;

/// Two subgroups of three at `T` = 100 ms, peers wired by hand so each
/// keeps a handle on its storage.
fn spec() -> DeploymentSpec {
    DeploymentSpec {
        num_subgroups: SUBGROUPS,
        subgroup_size: SIZE,
        ..DeploymentSpec::paper(100, 0)
    }
}

#[test]
fn storage_backed_peer_recovers_both_layers() {
    let mut sim: Sim<HierMsg> = Sim::new(42);
    sim.set_latency(LatencyConfig::uniform_default(Latency::Constant(
        SimDuration::from_millis(15),
    )));
    let subgroups = spec().subgroups();

    let sub_stores: Vec<MemStorage<SubCmd>> =
        (0..SUBGROUPS * SIZE).map(|_| MemStorage::new()).collect();
    let fed_stores: Vec<MemStorage<FedCmd>> =
        (0..SUBGROUPS * SIZE).map(|_| MemStorage::new()).collect();

    for &id in subgroups.iter().flatten() {
        let actor = HierActor::with_storage(
            spec().peer_config(id),
            Box::new(sub_stores[id.0 as usize].clone()),
            Box::new(fed_stores[id.0 as usize].clone()),
        );
        assert_eq!(sim.add_node(actor), id);
    }

    sim.run_until(SimTime::from_secs(5));
    let rep = subgroups[0][0];
    {
        let a = sim.actor::<HierActor>(rep);
        assert!(a.is_sub_leader(), "founding member should lead subgroup 0");
        assert!(a.is_fed_member(), "subgroup leader should hold a fed seat");
    }

    // Commit traffic on both layers so there is real state to recover.
    sim.exec::<HierActor, _, _>(rep, |a, ctx| {
        a.propose_sub(ctx, 7).unwrap();
    });
    let fed_leader = (0..SUBGROUPS * SIZE)
        .map(|i| NodeId(i as u32))
        .find(|&id| sim.actor::<HierActor>(id).is_fed_leader())
        .expect("fed layer should have a leader");
    sim.exec::<HierActor, _, _>(fed_leader, |a, ctx| {
        a.propose_fed(ctx, FedCmd::Round(999)).unwrap();
    });
    sim.run_for(SimDuration::from_secs(2));

    let (sub_term, sub_last, fed_term, fed_last) = {
        let a = sim.actor::<HierActor>(rep);
        assert!(a.sub_cmds_applied.contains(&7));
        assert!(a.fed_rounds_applied().contains(&999));
        let fed = a.fed_raft().expect("rep holds a fed seat");
        (
            a.sub_raft().term(),
            a.sub_raft().log().last_index(),
            fed.term(),
            fed.log().last_index(),
        )
    };
    assert!(sub_last > 0 && fed_last > 0);

    // Rebuild the representative purely from its storage handles — the
    // simulated process is gone; only the persisted record survives.
    let rebuilt = HierActor::with_storage(
        spec().peer_config(rep),
        Box::new(sub_stores[rep.0 as usize].clone()),
        Box::new(fed_stores[rep.0 as usize].clone()),
    );
    assert_eq!(rebuilt.sub_raft().term(), sub_term);
    assert_eq!(rebuilt.sub_raft().log().last_index(), sub_last);
    assert!(
        rebuilt.is_fed_member(),
        "restored rep must rejoin the FedAvg layer"
    );
    let fed = rebuilt.fed_raft().unwrap();
    assert_eq!(fed.term(), fed_term);
    assert_eq!(fed.log().last_index(), fed_last);
    assert!(!rebuilt.is_sub_leader(), "restarts as a follower");

    // A plain follower has no fed record: it restores without a fed seat.
    let follower = subgroups[0][1];
    let rebuilt = HierActor::with_storage(
        spec().peer_config(follower),
        Box::new(sub_stores[follower.0 as usize].clone()),
        Box::new(fed_stores[follower.0 as usize].clone()),
    );
    assert_eq!(rebuilt.sub_raft().term(), sub_term);
    assert!(!rebuilt.is_fed_member());
}
