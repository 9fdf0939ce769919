//! Acceptance: one declarative [`FaultPlan`] value is interpreted
//! identically by the discrete-event simulator and the real TCP transport.
//!
//! * The same loss-free plan (delay spikes + duplication) applied to both
//!   transports lets a full SAC round complete, with the leader's
//!   aggregate bit-for-bit equal to the fault-free digest — the paper's
//!   invariant that faults which do not destroy shares cannot change the
//!   result.
//! * The same plan applied to the two-layer Raft deployment on the
//!   simulator still reaches a stable elected state and commits a round
//!   marker through the FedAvg layer.
//! * A crash/restart event pair taken from a plan's process-fault schedule
//!   kills a reactor-hosted peer mid-deployment and recovers it, at a new
//!   address, from its on-disk Raft record: the rebuilt actor restores
//!   term, log, and its FedAvg-layer seat from the files alone, and the
//!   deployment then commits a fresh round marker. Both of the victim's
//!   logs are pushed past a compaction point first, so what the files hold
//!   is a snapshot plus a log tail, not a whole log.

use p2pfl_bench::testkit::{
    assert_clean_wire, commit_marker, hier_stable, ids, mesh, reactor, sac_config, spawn_group,
    wait_done, wait_for, HierPeers,
};
use p2pfl_hierraft::{
    Deployment, DeploymentSpec, FedCmd, HierActor, HierMsg, HierPeerConfig, SubCmd, COMPACT_AFTER,
};
use p2pfl_raft::FileStorage;
use p2pfl_secagg::{SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, WeightVector};
use p2pfl_simnet::{FaultPlan, NodeId, ProcessFault, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const N: usize = 5;
const K: usize = 3;
const DIM: usize = 16;
const SEED: u64 = 0xFA17;

/// The one plan both transports interpret: constant delay spikes plus
/// aggressive duplication, active for the whole test horizon. Loss-free,
/// so every share survives and the digest invariant must hold exactly.
fn shared_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .delay(
            SimTime::ZERO,
            SimTime::from_secs(600),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        )
        .duplicate(SimTime::ZERO, SimTime::from_secs(600), 0.5)
}

fn models() -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED + 999);
    (0..N)
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect()
}

fn config(ids: &[NodeId], position: usize, deadline: SimDuration) -> SacConfig {
    let seed = SEED + position as u64;
    sac_config(ids, position, K, SacEngine::Pairwise, deadline, seed)
}

/// One SAC round on the simulator, optionally under a fault plan; returns
/// the leader's result digest.
fn sim_sac_digest(plan: Option<&FaultPlan>) -> u64 {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for (i, model) in models().iter().enumerate() {
        let cfg = config(&ids, i, SimDuration::from_millis(500));
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    if let Some(p) = plan {
        sim.apply_fault_plan(p);
    }
    sim.run_until_quiet(100);
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    let leader = sim.actor::<SacPeerActor>(ids[0]);
    assert_eq!(
        leader.phase,
        SacPhase::Done,
        "sim round: {:?}",
        leader.phase
    );
    leader.result.as_ref().unwrap().digest()
}

#[test]
fn plan_preserves_sac_digest_on_simulator() {
    let clean = sim_sac_digest(None);
    let faulted = sim_sac_digest(Some(&shared_plan()));
    assert_eq!(
        faulted, clean,
        "loss-free faults must not change the aggregate"
    );
}

/// One SAC round over real sockets, every peer filtering its sends
/// through `plan`: all peers on one reactor (one loop thread, one shared
/// listener), or split over two. Returns the leader's digest.
fn tcp_sac_digest(plan: &FaultPlan, reactors: usize) -> u64 {
    let ids = ids(N);
    let models = models();
    let actor = |i: usize| {
        let cfg = config(&ids, i, SimDuration::from_secs(30));
        (ids[i], SacPeerActor::new(cfg, models[i].clone()))
    };
    let hosts: Vec<_> = (0..reactors)
        .map(|_| reactor::<SacMsg, SacPeerActor>())
        .collect();
    let mut handles = Vec::new();
    for (r, host) in hosts.iter().enumerate() {
        let share = (0..N).filter(|i| i % reactors == r).map(actor);
        handles.extend(spawn_group(host, share, Some(plan)));
    }
    mesh(&handles);
    // Peer 0, the leader, is the first reactor's first.
    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    let digest = wait_done(&handles[0], "tcp round under the plan")
        .1
        .digest();

    // The duplication window must actually have fired: more frames hit the
    // wire than a clean all-to-all round needs.
    let frames: u64 = handles.iter().map(|h| h.stats().frames_sent).sum();
    let clean_run: u64 = (N * (N - 1)) as u64 * 2; // generous clean-round bound
    assert!(
        frames > clean_run,
        "duplication never fired: {frames} frames"
    );
    assert_clean_wire(&handles);
    digest
}

#[test]
fn same_plan_preserves_sac_digest_on_tcp() {
    assert_eq!(
        tcp_sac_digest(&shared_plan(), 2),
        sim_sac_digest(None),
        "tcp aggregate diverged under the fault plan"
    );
}

/// The acceptance differential for the transport: the same seed, models,
/// and declarative fault plan produce a bit-identical aggregate on the
/// discrete-event simulator and on the single-thread reactor.
#[test]
fn plan_digest_identical_across_sim_and_reactor() {
    let clean = sim_sac_digest(None);
    let plan = shared_plan();
    assert_eq!(sim_sac_digest(Some(&plan)), clean, "simulator leg diverged");
    assert_eq!(tcp_sac_digest(&plan, 1), clean, "reactor leg diverged");
}

#[test]
fn plan_leaves_two_layer_backend_electable_on_simulator() {
    let mut spec = DeploymentSpec::paper(100, SEED);
    spec.num_subgroups = 3;
    spec.subgroup_size = 3;
    let mut d = Deployment::build(spec);
    d.sim.apply_fault_plan(&shared_plan());
    assert!(
        d.wait_stable(SimTime::from_secs(20)),
        "two-layer backend failed to stabilize under the plan"
    );
    let fl = d.fed_leader().unwrap();
    d.sim.exec::<HierActor, _, _>(fl, |a, ctx| {
        a.propose_fed(ctx, FedCmd::Round(77)).unwrap();
    });
    d.sim.run_for(SimDuration::from_secs(2));
    for g in 0..3 {
        let l = d.sub_leader_of(g).unwrap();
        assert!(
            d.sim
                .actor::<HierActor>(l)
                .fed_rounds_applied()
                .contains(&77),
            "subgroup {g} missed the round marker under faults"
        );
    }
}

// ---------------------------------------------------------------------
// TCP crash/restart recovery from on-disk Raft state
// ---------------------------------------------------------------------

/// The reactor-hosted deployment: two subgroups of three, `T` = 300 ms.
fn hier_spec() -> DeploymentSpec {
    DeploymentSpec {
        num_subgroups: 2,
        subgroup_size: 3,
        ..DeploymentSpec::paper(300, SEED)
    }
}

fn storage_paths(dir: &std::path::Path, id: NodeId) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("n{}-sub.raft", id.0)),
        dir.join(format!("n{}-fed.raft", id.0)),
    )
}

fn storage_actor(dir: &std::path::Path, cfg: HierPeerConfig) -> HierActor {
    let (sub, fed) = storage_paths(dir, cfg.id);
    HierActor::with_storage(
        cfg,
        Box::new(FileStorage::<SubCmd>::open(sub).expect("open sub storage")),
        Box::new(FileStorage::<FedCmd>::open(fed).expect("open fed storage")),
    )
}

#[test]
fn plan_crash_restart_recovers_tcp_peer_from_disk() {
    let dir = std::env::temp_dir().join(format!("p2pfl-fault-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let subgroups = hier_spec().subgroups();
    let all: Vec<NodeId> = subgroups.iter().flatten().copied().collect();
    let actor = |id| storage_actor(&dir, hier_spec().peer_config(id));

    let home = reactor::<HierMsg, HierActor>();
    let handles = spawn_group(&home, all.iter().map(|&id| (id, actor(id))), None);
    mesh(&handles);
    let mut peers: HierPeers = handles.into_iter().map(|h| (h.node_id(), h)).collect();

    wait_for(
        "initial two-layer stability",
        Duration::from_secs(30),
        || hier_stable(&peers, &subgroups),
    );
    commit_marker(&peers, &subgroups, 1);

    // Push both of the victim's logs across a compaction point, in bursts
    // its links can queue: application commands through its subgroup's
    // leader, round markers through the FedAvg leader.
    let victim = subgroups[0][0];
    const BURST: u64 = 64;
    for burst in 0..=COMPACT_AFTER / BURST {
        let first = 1_000 + burst * BURST;
        for h in peers.values() {
            h.with(move |a, ctx| {
                for v in first..first + BURST {
                    if a.is_sub_leader() && a.subgroup().contains(&victim) {
                        a.propose_sub(ctx, v).unwrap();
                    }
                    if a.is_fed_leader() {
                        a.propose_fed(ctx, FedCmd::Round(v)).unwrap();
                    }
                }
            });
        }
        let last = first + BURST - 1;
        wait_for("burst applied", Duration::from_secs(30), || {
            peers[&victim].with(move |a, _| {
                a.sub_cmds_applied.last() == Some(&last)
                    && a.fed_rounds_applied().last() == Some(&last)
            })
        });
    }
    let (pre_sub_cut, pre_fed_cut, pre_config) = peers[&victim].with(|a, _| {
        (
            a.sub_raft().log().snapshot_index(),
            a.fed_raft().expect("fed seat").log().snapshot_index(),
            a.fed_config.version,
        )
    });
    assert!(
        pre_sub_cut > 0 && pre_fed_cut > 0,
        "both logs should have been cut (sub {pre_sub_cut}, fed {pre_fed_cut})"
    );

    // The fault plan's process schedule: kill subgroup 0's representative,
    // bring it back 2 s later. Everything below is driven by the plan.
    let plan = FaultPlan::new(SEED ^ 0xdead)
        .crash(SimTime::from_millis(10), victim)
        .restart(SimTime::from_millis(2000), victim);
    let origin = Instant::now();
    let (pre_term, pre_last) = peers[&victim].with(|a, _| {
        let r = a.sub_raft();
        (r.term(), r.log().last_index())
    });
    assert!(pre_last > 0, "no durable log before the crash");

    // The restarted process gets a listener of its own: a new address.
    let away = reactor::<HierMsg, HierActor>();
    for ev in plan.process_events() {
        let due = origin + Duration::from_nanos(ev.at.as_nanos());
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match ev.fault {
            ProcessFault::Crash => {
                peers.remove(&ev.node).expect("victim running").kill();
            }
            ProcessFault::Restart => {
                let actor = actor(ev.node);
                // Recovery happens *before* any network traffic: the files
                // alone restore term, log, and the FedAvg-layer seat.
                assert!(actor.sub_raft().term() >= pre_term, "term lost");
                assert!(
                    actor.sub_raft().log().last_index() >= pre_last,
                    "log entries lost"
                );
                assert!(actor.is_fed_member(), "fed seat not restored from disk");
                // ... and each file holds a snapshot plus the tail above it.
                let sub = actor.sub_raft();
                let fed = actor.fed_raft().expect("fed seat");
                assert!(sub.log().snapshot_index() >= pre_sub_cut, "sub cut lost");
                assert!(fed.log().snapshot_index() >= pre_fed_cut, "fed cut lost");
                assert!(sub.snapshot().is_some() && fed.snapshot().is_some());
                assert_eq!(
                    sub.log().live_entries() as u64,
                    sub.log().last_index() - sub.log().snapshot_index(),
                    "log tail above the snapshot"
                );
                assert!(sub.log().live_entries() <= COMPACT_AFTER as usize + 8);
                let back = away.spawn_peer(ev.node, actor).expect("respawn");
                for other in peers.values() {
                    back.add_peer(other.node_id(), other.local_addr());
                    other.add_peer(ev.node, back.local_addr());
                }
                peers.insert(ev.node, back);
            }
        }
    }

    // The deployment absorbs the crash (subgroup 0 re-elects, the new
    // leader replaces the victim in the FedAvg layer or the victim's
    // restored seat resumes) and commits another round marker.
    wait_for("post-restart stability", Duration::from_secs(60), || {
        hier_stable(&peers, &subgroups)
    });
    commit_marker(&peers, &subgroups, 2);
    // The restarted peer took its replicated state from the snapshot (the
    // config versions under the cut are in no log any more) and kept
    // recording: files and live state still agree.
    let (config, roundtrip) =
        peers[&victim].with(|a, _| (a.fed_config.version, a.verify_storage_roundtrip()));
    assert!(config >= pre_config, "config {config} < {pre_config}");
    assert_eq!(roundtrip, Ok(()));

    for (_, h) in peers.drain() {
        drop(h.stop());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
