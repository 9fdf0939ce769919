//! Detector-driven self-healing of the aggregation roster, at deployment
//! level: confirmed-dead members are evicted from the replicated member
//! list, suspected-but-recovering members never are, and an eviction caused
//! by an asymmetric partition is undone once the link heals.

use p2pfl_hierraft::{Deployment, DeploymentSpec, HierActor, Liveness};
use p2pfl_simnet::{FaultPlan, NodeId, SimDuration, SimTime};

/// The paper topology with `T` = 100 ms, which the deployment builder maps
/// to a 100 ms suspect window and a 300 ms confirm window.
fn stable_deployment(seed: u64) -> Deployment {
    let mut d = Deployment::build(DeploymentSpec::paper(100, seed));
    assert!(d.wait_stable(SimTime::from_secs(10)), "never stabilized");
    d
}

fn roster_of(d: &Deployment, peer: NodeId) -> Vec<NodeId> {
    d.sim.actor::<HierActor>(peer).live_sub_members().to_vec()
}

fn roster_changes_for(d: &Deployment, leader: NodeId, member: NodeId) -> Vec<bool> {
    d.sim
        .actor::<HierActor>(leader)
        .roster_changes
        .iter()
        .filter(|(_, m, _)| *m == member)
        .map(|&(_, _, evicted)| evicted)
        .collect()
}

/// A plan cutting `src -> dst` for `outage` from when it is applied.
fn one_way_outage(src: NodeId, dst: NodeId, outage: SimDuration) -> FaultPlan {
    let until = SimTime::ZERO + outage;
    FaultPlan::new(0).partition(SimTime::ZERO, until, vec![src], vec![dst])
}

#[test]
fn crashed_member_is_evicted_then_readmitted_on_restart() {
    let mut d = stable_deployment(11);
    let leader = d.sub_leader_of(0).expect("stable");
    let victim = d.subgroups[0][2];
    assert_ne!(leader, victim);

    let t0 = d.sim.now();
    d.sim
        .schedule_crash(victim, t0 + SimDuration::from_millis(1));
    d.sim.run_until(t0 + SimDuration::from_secs(1));

    assert!(
        !roster_of(&d, leader).contains(&victim),
        "confirmed-dead member still on the leader's roster"
    );
    // The roster is replicated, not leader-local: a surviving follower
    // applies the same member list through its subgroup log.
    let follower = d.subgroups[0]
        .iter()
        .copied()
        .find(|&p| p != leader && p != victim)
        .unwrap();
    assert!(!roster_of(&d, follower).contains(&victim));
    assert_eq!(roster_changes_for(&d, leader, victim), vec![true]);

    let t1 = d.sim.now();
    d.sim
        .schedule_restart(victim, t1 + SimDuration::from_millis(1));
    d.sim.run_until(t1 + SimDuration::from_secs(1));

    let roster = roster_of(&d, leader);
    assert!(roster.contains(&victim), "restarted member not re-admitted");
    // Re-admission restores subgroup order, not append order.
    assert_eq!(roster, d.subgroups[0]);
    assert_eq!(roster_changes_for(&d, leader, victim), vec![true, false]);
}

#[test]
fn suspected_member_that_recovers_is_never_evicted() {
    let mut d = stable_deployment(12);
    let leader = d.sub_leader_of(0).expect("stable");
    let victim = d.subgroups[0][3];
    assert_ne!(leader, victim);

    // One-way outage shorter than the confirm window: the leader stops
    // hearing the victim's heartbeat replies, but the victim stays up.
    let t0 = d.sim.now();
    let outage = SimDuration::from_millis(140);
    d.sim
        .apply_fault_plan(&one_way_outage(victim, leader, outage));
    d.sim.run_until(t0 + outage);
    assert_eq!(
        d.sim.actor::<HierActor>(leader).liveness_of(victim),
        Liveness::Suspected,
        "quiet past the suspect window should be suspected"
    );

    d.sim.run_until(t0 + SimDuration::from_secs(1));

    assert_eq!(
        d.sim.actor::<HierActor>(leader).liveness_of(victim),
        Liveness::Alive
    );
    assert!(roster_of(&d, leader).contains(&victim));
    assert_eq!(
        roster_changes_for(&d, leader, victim),
        Vec::<bool>::new(),
        "a recovering suspect must never be evicted"
    );
}

#[test]
fn asymmetric_partition_eviction_is_undone_after_heal() {
    let mut d = stable_deployment(13);
    let leader = d.sub_leader_of(0).expect("stable");
    let victim = d.subgroups[0][4];
    assert_ne!(leader, victim);

    // Outage longer than the confirm window: a false positive the detector
    // cannot avoid. The victim never crashes.
    let t0 = d.sim.now();
    let outage = SimDuration::from_secs(1);
    d.sim
        .apply_fault_plan(&one_way_outage(victim, leader, outage));
    d.sim.run_until(t0 + outage);
    assert!(!roster_of(&d, leader).contains(&victim), "not evicted");
    assert!(!d.sim.is_crashed(victim), "victim was alive the whole time");

    // Once its replies get through again (Raft heartbeat acks, probe acks,
    // or the ProbeAck refuting the Evict notice), the leader re-admits it.
    let t1 = d.sim.now();
    d.sim.run_until(t1 + SimDuration::from_secs(1));

    assert!(
        roster_of(&d, leader).contains(&victim),
        "healed member not re-admitted"
    );
    assert_eq!(roster_changes_for(&d, leader, victim), vec![true, false]);
}
