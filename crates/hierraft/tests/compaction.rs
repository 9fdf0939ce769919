//! Log compaction where it can go wrong: a follower that misses a cut.
//!
//! Both logs of a `HierActor` are cut at a checkpoint once enough entries
//! have been applied. A follower partitioned across a cut comes back to a
//! leader that no longer has the entries it needs; it must be caught up by
//! `InstallSnapshot` and end at the same replicated state as the peers
//! that applied every entry.

use p2pfl_hierraft::{
    Deployment, DeploymentSpec, ElasticBounds, FedCmd, HierActor, TopologyCmd, COMPACT_AFTER,
};
use p2pfl_simnet::{FaultPlan, NodeId, SimDuration, SimTime};

/// A plan cutting both directions between `a` and every peer of `b` for
/// `away` from when it is applied.
fn cut_off(a: NodeId, b: Vec<NodeId>, away: SimDuration) -> FaultPlan {
    let (from, until) = (SimTime::ZERO, SimTime::ZERO + away);
    FaultPlan::new(0)
        .partition(from, until, vec![a], b.clone())
        .partition(from, until, b, vec![a])
}

/// `(fed_config, sub_members, topology)` versions of a peer.
fn versions(d: &Deployment, id: NodeId) -> (u64, u64, u64) {
    let a = d.sim.actor::<HierActor>(id);
    (
        a.fed_config.version,
        a.sub_members.version,
        a.topology.version,
    )
}

#[test]
fn partitioned_subgroup_follower_converges_by_install_snapshot() {
    let mut spec = DeploymentSpec::paper(100, 11);
    spec.num_subgroups = 3;
    spec.subgroup_size = 3;
    let mut d = Deployment::build(spec);
    assert!(d.wait_stable(SimTime::from_secs(10)));

    let group = d.subgroups[0].clone();
    let leader = d.sub_leader_of(0).unwrap();
    let lagger = *group.iter().find(|&&m| m != leader).unwrap();
    let last_seen = d
        .sim
        .actor::<HierActor>(lagger)
        .sub_raft()
        .log()
        .last_index();
    let versions_seen = versions(&d, lagger);
    // Carry the subgroup log across two cuts while the lagger is away: the
    // periodic config re-commits plus a burst of application commands, one
    // every 40 ms.
    let others = group.iter().copied().filter(|&m| m != lagger).collect();
    let away = SimDuration::from_millis(40 * 2 * COMPACT_AFTER);
    d.sim.apply_fault_plan(&cut_off(lagger, others, away));
    for v in 0..2 * COMPACT_AFTER {
        d.sim.exec::<HierActor, _, _>(leader, |a, ctx| {
            a.propose_sub(ctx, v).expect("leader stays leader");
        });
        d.sim.run_for(SimDuration::from_millis(40));
    }
    let cut = d
        .sim
        .actor::<HierActor>(leader)
        .sub_raft()
        .log()
        .snapshot_index();
    assert!(
        cut > last_seen,
        "the leader still holds what the lagger needs (cut {cut}, lagger at {last_seen})"
    );
    assert!(
        !d.sim
            .actor::<HierActor>(leader)
            .live_sub_members()
            .contains(&lagger),
        "the detector should have evicted the silent member meanwhile"
    );

    // The partition window has closed. The lagger can only cross the cut
    // by InstallSnapshot. The moment it has, and before the log tail above
    // the snapshot reaches it (two link delays later), its state is what
    // the snapshot carried: a newer config and the roster that evicted it.
    let deadline = d.sim.now() + SimDuration::from_secs(5);
    while d
        .sim
        .actor::<HierActor>(lagger)
        .sub_raft()
        .log()
        .snapshot_index()
        < cut
    {
        assert!(d.sim.now() < deadline, "no snapshot reached the lagger");
        d.sim.run_for(SimDuration::from_millis(1));
    }
    let (config, roster, _) = versions(&d, lagger);
    assert!(
        config > versions_seen.0 && roster > versions_seen.1,
        "restored ({config}, {roster}) from {versions_seen:?}"
    );
    assert!(!d
        .sim
        .actor::<HierActor>(lagger)
        .live_sub_members()
        .contains(&lagger));

    d.sim.run_for(SimDuration::from_secs(5));
    // The leader re-commits its config every 200 ms and a follower applies
    // each one a heartbeat later, so compare at the same commit index.
    let commit = |d: &Deployment, id| d.sim.actor::<HierActor>(id).sub_raft().commit_index();
    let deadline = d.sim.now() + SimDuration::from_secs(1);
    while commit(&d, lagger) != commit(&d, leader) {
        assert!(
            d.sim.now() < deadline,
            "the lagger stopped following commits"
        );
        d.sim.run_for(SimDuration::from_millis(1));
    }
    let a = d.sim.actor::<HierActor>(lagger);
    assert!(a.sub_raft().log().live_entries() <= COMPACT_AFTER as usize + 8);
    assert_eq!(
        versions(&d, lagger),
        versions(&d, leader),
        "same replicated state as the peer that applied every entry"
    );
    assert_eq!(a.fed_config, d.sim.actor::<HierActor>(leader).fed_config);
    assert!(
        a.live_sub_members().contains(&lagger),
        "re-admitted after the heal"
    );
    // The application history is not part of the snapshot: the commands
    // under the cut are gone for the lagger, the tail above it applied.
    assert!(a.sub_cmds_applied.len() < 2 * COMPACT_AFTER as usize);
    assert_eq!(a.sub_cmds_applied.last(), Some(&(2 * COMPACT_AFTER - 1)));
}

#[test]
fn partitioned_fed_follower_adopts_round_and_topology_from_the_snapshot() {
    // Three subgroups of four, elastic: the FedAvg layer has three seats,
    // so it keeps its quorum while one seat is cut off from the leader.
    let mut spec = DeploymentSpec::paper(100, 23);
    spec.num_subgroups = 3;
    spec.subgroup_size = 4;
    spec.elastic = Some(ElasticBounds::new(2, 6));
    let mut d = Deployment::build(spec);
    assert!(d.wait_stable(SimTime::from_secs(10)));

    let fed_leader = d.fed_leader().unwrap();
    let leaders: Vec<NodeId> = (0..3).map(|g| d.sub_leader_of(g).unwrap()).collect();
    let lagger = *leaders.iter().find(|&&l| l != fed_leader).unwrap();
    let split_group = (0..3)
        .find(|&g| leaders[g] != fed_leader && leaders[g] != lagger)
        .unwrap();
    let last_seen = d
        .sim
        .actor::<HierActor>(lagger)
        .fed_raft()
        .unwrap()
        .log()
        .last_index();
    // Away for the split's 3 s plus 40 ms per round marker.
    let away = SimDuration::from_millis(3_000 + 40 * 2 * COMPACT_AFTER);
    d.sim
        .apply_fault_plan(&cut_off(lagger, vec![fed_leader], away));

    // A layout change the lagger can only learn through the FedAvg-layer
    // log: it leads its own subgroup and the split touches another one.
    let parent = d.latest_topology().groups[split_group].clone();
    d.sim.exec::<HierActor, _, _>(fed_leader, |a, ctx| {
        a.propose_topology(
            ctx,
            TopologyCmd::Split {
                gid: parent.gid,
                left: parent.members[..2].to_vec(),
                right: parent.members[2..].to_vec(),
            },
        )
        .unwrap();
    });
    d.sim.run_for(SimDuration::from_secs(3));
    for round in 1..=2 * COMPACT_AFTER {
        d.sim.exec::<HierActor, _, _>(fed_leader, |a, ctx| {
            a.propose_fed(ctx, FedCmd::Round(round))
                .expect("leader stays leader");
        });
        d.sim.run_for(SimDuration::from_millis(40));
    }
    let (cut, version) = {
        let a = d.sim.actor::<HierActor>(fed_leader);
        (
            a.fed_raft().unwrap().log().snapshot_index(),
            a.topology.version,
        )
    };
    assert!(cut > last_seen, "cut {cut}, lagger at {last_seen}");
    assert!(version >= 1, "the split committed");
    assert_eq!(
        d.sim.actor::<HierActor>(lagger).topology.version,
        0,
        "nothing but the FedAvg-layer log tells the lagger about the split"
    );

    // The partition window has closed.
    d.sim.run_for(SimDuration::from_secs(5));

    let a = d.sim.actor::<HierActor>(lagger);
    let fed = a.fed_raft().expect("the lagger kept its seat");
    assert!(
        fed.log().snapshot_index() >= cut,
        "crossed the cut by InstallSnapshot"
    );
    assert!(fed.log().live_entries() <= COMPACT_AFTER as usize + 8);
    assert_eq!(a.topology, d.sim.actor::<HierActor>(fed_leader).topology);
    let rounds = a.fed_rounds_applied();
    assert_eq!(rounds.last(), Some(&(2 * COMPACT_AFTER)));
    assert!(
        rounds.windows(2).all(|w| w[0] < w[1]),
        "a restored marker is recorded once, in order: {rounds:?}"
    );
    assert!(
        (rounds.len() as u64) < 2 * COMPACT_AFTER,
        "the markers under the cut were never replayed"
    );
}
