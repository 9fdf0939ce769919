//! A full two-layer aggregation round over real localhost TCP.
//!
//! Six peers in two subgroups ({0,1,2} and {3,4,5}) run the paper's
//! two-layer protocol outside the simulator:
//!
//! 1. **Election** — every peer runs `HierActor` (subgroup Raft + FedAvg
//!    layer) over sockets, all six hosted on one reactor thread behind one
//!    listener, until each subgroup has a leader and the two leaders form
//!    the FedAvg layer.
//! 2. **Crash** — the subgroup leader that is a FedAvg-layer *follower*
//!    is killed mid-round. (With only two subgroups the FedAvg layer has
//!    two members, so losing its leader leaves no quorum to admit a
//!    replacement — that flow needs ≥3 subgroups and is exercised by
//!    `p2pfl-hierraft`'s experiments.) The survivors elect a replacement,
//!    which joins the FedAvg layer in the dead peer's place.
//! 3. **Rejoin** — the killed peer restarts *at a new port* (a second
//!    reactor, as a restarted process would have); every other peer is
//!    re-pointed via `add_peer` and the transport's reconnect machinery
//!    picks it back up. It rejoins as a plain follower and
//!    retires its stale FedAvg membership from the replicated subgroup log.
//! 4. **SAC** — each subgroup runs fault-tolerant secure aggregation over
//!    TCP with the *elected* leaders (including the rejoined peer as a
//!    contributor).
//! 5. **FedAvg** — subgroup results are combined size-weighted, and the
//!    final model digest is compared against a simulator run of the same
//!    aggregation with the same seeds and models: they must be equal
//!    bit for bit.
//!
//! Every peer takes the timings `DeploymentSpec::peer_config` derives
//! from `T` = 150 ms: 30 ms heartbeats and detector probes, a member
//! suspected after 150 ms of silence and evicted after 450 ms.
//!
//! Run with `cargo run --example real_net`.

use p2pfl_hierraft::{DeploymentSpec, HierActor, HierMsg, HierPeerConfig};
use p2pfl_net::{NetStats, PeerHandle, Reactor, ReactorConfig};
use p2pfl_secagg::{
    SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme, WeightVector,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SEED: u64 = 2024;
const DIM: usize = 1000;
const K: usize = 2;

const GROUP_A: [u32; 3] = [0, 1, 2];
const GROUP_B: [u32; 3] = [3, 4, 5];

fn ids(raw: &[u32]) -> Vec<NodeId> {
    raw.iter().map(|&i| NodeId(i)).collect()
}

/// The paper's two-layer spec at `T` = 150 ms, two subgroups of three.
fn hier_config(id: u32) -> HierPeerConfig {
    DeploymentSpec {
        num_subgroups: 2,
        subgroup_size: 3,
        ..DeploymentSpec::paper(150, SEED)
    }
    .peer_config(NodeId(id))
}

type HierRt = PeerHandle<HierMsg, HierActor>;
type SacRt = PeerHandle<SacMsg, SacPeerActor>;

/// Polls `pred` across the live runtimes until it holds or `what` times out.
fn wait_for(runtimes: &[Option<HierRt>], what: &str, pred: impl Fn(&[Option<HierRt>]) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred(runtimes) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
    println!("  ok: {what}");
}

fn sub_leader_of(runtimes: &[Option<HierRt>], group: &[u32]) -> Option<u32> {
    let leaders: Vec<u32> = group
        .iter()
        .filter(|&&i| {
            runtimes[i as usize]
                .as_ref()
                .is_some_and(|rt| rt.with(|a, _| a.is_sub_leader() && a.is_fed_member()))
        })
        .copied()
        .collect();
    (leaders.len() == 1).then(|| leaders[0])
}

fn fed_leader_count(runtimes: &[Option<HierRt>]) -> usize {
    runtimes
        .iter()
        .flatten()
        .filter(|rt| rt.with(|a, _| a.is_fed_leader()))
        .count()
}

/// Deterministic per-peer models — the same closure feeds the simulator
/// mirror, so the two worlds aggregate identical inputs.
fn models() -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xbeef);
    (0..6)
        .map(|_| WeightVector::random(DIM, 1.0, &mut rng))
        .collect()
}

fn sac_config(group: &[u32], position: usize, leader_pos: usize, deadline_ms: u64) -> SacConfig {
    SacConfig {
        group: ids(group),
        position,
        leader_pos,
        k: K,
        scheme: ShareScheme::Masked,
        engine: SacEngine::Pairwise,
        share_deadline: SimDuration::from_millis(deadline_ms),
        collect_deadline: SimDuration::from_millis(deadline_ms),
        round_deadline: None,
        seed: SEED ^ group[0] as u64,
    }
}

/// Runs one SAC round per subgroup plus the FedAvg combine under the
/// deterministic simulator and returns the final digest.
fn simulator_digest(leader_a: usize, leader_b: usize) -> u64 {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    let models = models();
    for i in 0..6u32 {
        let (group, pos, leader) = if GROUP_A.contains(&i) {
            (&GROUP_A, i as usize, leader_a)
        } else {
            (&GROUP_B, i as usize - 3, leader_b)
        };
        sim.add_node(SacPeerActor::new(
            sac_config(group, pos, leader, 500),
            models[i as usize].clone(),
        ));
    }
    sim.run_until_quiet(100);
    for leader in [NodeId(GROUP_A[leader_a]), NodeId(GROUP_B[leader_b])] {
        sim.exec::<SacPeerActor, _, _>(leader, |a, ctx| a.start_round(ctx, 1));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    let results: Vec<WeightVector> = [NodeId(GROUP_A[leader_a]), NodeId(GROUP_B[leader_b])]
        .iter()
        .map(|&l| {
            let a = sim.actor::<SacPeerActor>(l);
            assert_eq!(a.phase, SacPhase::Done, "sim leader {l:?}: {:?}", a.phase);
            a.result.clone().unwrap()
        })
        .collect();
    WeightVector::weighted_mean(&results, &[3.0, 3.0]).digest()
}

fn wait_sac_done(leader: &SacRt) -> WeightVector {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = leader.with(|a, _| (a.phase.clone(), a.result.clone()));
        match state {
            (SacPhase::Done, Some(r)) => return r,
            (SacPhase::Failed(e), _) => panic!("SAC round failed: {e}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "SAC round stalled");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() {
    // ---- Phase 1: bring up the two-layer Raft over TCP -----------------
    println!("[1/5] electing subgroup + FedAvg leaders over TCP");
    let home: Reactor<HierMsg, HierActor> = Reactor::start(ReactorConfig::default()).expect("bind");
    let mut hier: Vec<Option<HierRt>> = (0..6u32)
        .map(|i| {
            let actor = HierActor::new(hier_config(i));
            Some(home.spawn_peer(NodeId(i), actor).expect("spawn"))
        })
        .collect();
    for rt in hier.iter().flatten() {
        for j in (0..6u32).filter(|&j| NodeId(j) != rt.node_id()) {
            rt.add_peer(NodeId(j), home.local_addr());
        }
    }
    wait_for(&hier, "stable two-layer leadership", |rts| {
        sub_leader_of(rts, &GROUP_A).is_some()
            && sub_leader_of(rts, &GROUP_B).is_some()
            && fed_leader_count(rts) == 1
    });

    // ---- Phase 2: kill a subgroup leader mid-round ---------------------
    // Kill whichever subgroup leader is a FedAvg-layer follower: the
    // two-member FedAvg layer keeps its quorum, so the replacement's join
    // can commit (see module docs).
    let la = sub_leader_of(&hier, &GROUP_A).unwrap();
    let lb = sub_leader_of(&hier, &GROUP_B).unwrap();
    let a_leads_fed = hier[la as usize]
        .as_ref()
        .unwrap()
        .with(|actor, _| actor.is_fed_leader());
    let (victim, victim_group): (u32, &[u32; 3]) = if a_leads_fed {
        (lb, &GROUP_B)
    } else {
        (la, &GROUP_A)
    };
    println!("[2/5] killing subgroup leader {victim} (a FedAvg follower)");
    hier[victim as usize].take().expect("victim running").kill();
    wait_for(&hier, "replacement leader joined the FedAvg layer", |rts| {
        sub_leader_of(rts, victim_group).is_some_and(|l| l != victim) && fed_leader_count(rts) == 1
    });

    // ---- Phase 3: rejoin the dead peer at a NEW port -------------------
    println!("[3/5] rejoining peer {victim} at a fresh port");
    let away: Reactor<HierMsg, HierActor> = Reactor::start(ReactorConfig::default()).expect("bind");
    let rejoined = away
        .spawn_peer(NodeId(victim), HierActor::new(hier_config(victim)))
        .expect("spawn");
    for rt in hier.iter().flatten() {
        rejoined.add_peer(rt.node_id(), home.local_addr());
        rt.add_peer(NodeId(victim), away.local_addr()); // re-point the mesh
    }
    hier[victim as usize] = Some(rejoined);
    wait_for(&hier, "rejoined peer settled as follower", |rts| {
        let back = rts[victim as usize].as_ref().unwrap();
        // It must have caught up (retired its stale FedAvg membership via
        // the replicated config) without disturbing the new leadership.
        !back.with(|a, _| a.is_sub_leader() || a.is_fed_member())
            && sub_leader_of(rts, victim_group).is_some_and(|l| l != victim)
            && fed_leader_count(rts) == 1
    });

    let leader_a = sub_leader_of(&hier, &GROUP_A).unwrap();
    let leader_b = sub_leader_of(&hier, &GROUP_B).unwrap();
    let leader_a_pos = GROUP_A.iter().position(|&i| i == leader_a).unwrap();
    let leader_b_pos = GROUP_B.iter().position(|&i| i == leader_b).unwrap();

    // ---- Phase 4: secure aggregation per subgroup over TCP -------------
    println!("[4/5] running SAC in both subgroups (leaders: {leader_a}, {leader_b})");
    let models = models();
    let sac_reactor: Reactor<SacMsg, SacPeerActor> =
        Reactor::start(ReactorConfig::default()).expect("bind");
    let sac: Vec<SacRt> = (0..6u32)
        .map(|i| {
            let (group, pos, leader) = if GROUP_A.contains(&i) {
                (&GROUP_A, i as usize, leader_a_pos)
            } else {
                (&GROUP_B, i as usize - 3, leader_b_pos)
            };
            // Wall-clock deadlines: generous, so reconnect backoff can
            // never shrink the contributor set (the leader freezes early
            // once all blocks are in, so this costs nothing when healthy).
            let actor = SacPeerActor::new(
                sac_config(group, pos, leader, 10_000),
                models[i as usize].clone(),
            );
            sac_reactor.spawn_peer(NodeId(i), actor).expect("spawn")
        })
        .collect();
    for rt in &sac {
        let group: &[u32] = if GROUP_A.contains(&rt.node_id().0) {
            &GROUP_A
        } else {
            &GROUP_B
        };
        for &j in group {
            if NodeId(j) != rt.node_id() {
                rt.add_peer(NodeId(j), sac_reactor.local_addr());
            }
        }
    }
    for leader in [leader_a, leader_b] {
        sac[leader as usize].with(|a, ctx| a.start_round(ctx, 1));
    }
    let result_a = wait_sac_done(&sac[leader_a as usize]);
    let result_b = wait_sac_done(&sac[leader_b as usize]);

    // ---- Phase 5: FedAvg combine + parity check ------------------------
    // Both subgroups aggregated 3 contributors, so the size-weighted
    // FedAvg combine is an equal-weight mean of the two subtotals.
    let global = WeightVector::weighted_mean(&[result_a, result_b], &[3.0, 3.0]);
    let real = global.digest();
    let sim = simulator_digest(leader_a_pos, leader_b_pos);
    println!("[5/5] FedAvg combine: real digest {real:#018x}, simulator {sim:#018x}");
    assert_eq!(
        real, sim,
        "real-network aggregate diverged from the simulator"
    );

    let mut total = NetStats::default();
    let mut reconnects = 0;
    for rt in hier.iter().flatten() {
        let s = rt.stats();
        reconnects += s.reconnects;
        total.frames_sent += s.frames_sent;
        total.bytes_sent += s.bytes_sent;
    }
    for rt in &sac {
        let s = rt.stats();
        total.frames_sent += s.frames_sent;
        total.bytes_sent += s.bytes_sent;
    }
    println!(
        "done: digest match; {} frames / {} bytes sent, {} reconnects after the crash",
        total.frames_sent, total.bytes_sent, reconnects
    );
}
