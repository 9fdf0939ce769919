//! Chaos soak — randomized fault plans driven through full two-layer
//! rounds (election → SAC → FedAvg), cycling the four crash cases of the
//! paper's Sec. V and asserting each is hit *and recovered* at least once:
//!
//! * C1 — subgroup follower crash (k-out-of-n SAC absorbs the dropout);
//! * C2 — subgroup leader crash (the subgroup re-elects, the replacement
//!   rejoins the FedAvg layer);
//! * C3 — FedAvg leader crash (double election + rebuild);
//! * C4 — crash + restart: the restarted peer rejoins training.
//!
//! Every epoch runs a lossy randomized [`FaultPlan`] (link chaos) with the
//! case's crash/restart events spliced in, applied to the simulator-backed
//! [`ResilientSession`]. A final TCP leg replays a plan's crash/restart
//! schedule against reactor-hosted peers with on-disk Raft storage and
//! verifies recovery, at a new address, from the files alone.
//!
//! Run: `cargo run -rp p2pfl-bench --bin chaos_soak -- --seed 7`
//! Smoke: `cargo run -rp p2pfl-bench --bin chaos_soak -- --smoke --seed 7`
//! Churn: `cargo run -rp p2pfl-bench --bin chaos_soak -- --churn --seed 7`
//! (kill/wait/restart a random follower every round; the final model must
//! match a crash-free twin bit-for-bit, and detector-driven roster
//! evictions must all heal). Each epoch prints its seed; replay one with
//! `--seed <n> --epochs 1`.
//! Byzantine: `cargo run -rp p2pfl-bench --bin chaos_soak -- --byzantine
//! --seed 7` (one SAC peer runs the commit-then-skew attack on both the
//! simulator and real TCP transports; both leaders must finish with the
//! attacker excluded and the honest mean intact).
//! Flash crowd: `cargo run -rp p2pfl-bench --bin chaos_soak --
//! --flash-crowd --seed 7` (burst-join to 3x the population then mass
//! leave; the elastic planner must split and merge, every subgroup must
//! end in band with nobody orphaned, no mask domain may repeat across
//! re-keys, the run must match an identically-scheduled twin bit for
//! bit, and a re-keyed SAC round per converged roster must produce the
//! same digest over real TCP as on the simulator).

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_bench::{banner, mesh, print_csv, Args};
use p2pfl_fed::Client;
use p2pfl_hierraft::{
    ElasticBounds, FedCmd, HierActor, HierMsg, HierPeerConfig, RobustCombiner, SubCmd,
};
use p2pfl_ml::data::{features_like, partition_dataset, train_test_split, Dataset, Partition};
use p2pfl_ml::models::mlp;
use p2pfl_net::{PeerHandle, Reactor, ReactorConfig};
use p2pfl_raft::FileStorage;
use p2pfl_secagg::{
    RingMsg, RingSacActor, SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme,
    WeightVector,
};
use p2pfl_simnet::{FaultPlan, NodeId, ProcessFault, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CrashCase {
    /// C1: a subgroup follower dies mid-round.
    Follower,
    /// C2: a subgroup leader (FedAvg member) dies.
    SubLeader,
    /// C3: the FedAvg-layer leader dies.
    FedLeader,
    /// C4: a peer dies and later restarts, rejoining training.
    Rejoin,
}

const CASES: [CrashCase; 4] = [
    CrashCase::Follower,
    CrashCase::SubLeader,
    CrashCase::FedLeader,
    CrashCase::Rejoin,
];

impl CrashCase {
    fn name(self) -> &'static str {
        match self {
            CrashCase::Follower => "C1-follower",
            CrashCase::SubLeader => "C2-sub-leader",
            CrashCase::FedLeader => "C3-fed-leader",
            CrashCase::Rejoin => "C4-rejoin",
        }
    }
}

fn session(seed: u64, engine: SacEngine) -> (ResilientSession, Dataset) {
    let mut cfg = ResilientConfig::small(seed);
    cfg.deployment.engine = engine;
    let n_total = cfg.deployment.total_peers();
    let (train, test) =
        train_test_split(&features_like(16, n_total * 50 + 300, seed), n_total * 50);
    let parts = partition_dataset(&train, n_total, Partition::Iid, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let clients: Vec<Client> = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            Client::new(
                i,
                mlp(&[16, 24, 10], &mut rng),
                d,
                5e-3,
                seed + 10 + i as u64,
            )
        })
        .collect();
    let eval = mlp(&[16, 24, 10], &mut rng);
    (ResilientSession::new(cfg, clients, eval), test)
}

/// Picks the case's victim from the live Raft state.
fn pick_victim(s: &ResilientSession, case: CrashCase) -> NodeId {
    match case {
        CrashCase::Follower | CrashCase::Rejoin => {
            let leader0 = s.dep.sub_leader_of(0).expect("subgroup 0 leaderless");
            *s.dep.subgroups[0]
                .iter()
                .find(|&&m| m != leader0)
                .expect("subgroup 0 has a follower")
        }
        CrashCase::SubLeader => s.dep.sub_leader_of(1).expect("subgroup 1 leaderless"),
        CrashCase::FedLeader => s.dep.fed_leader().expect("no FedAvg leader"),
    }
}

/// One chaos epoch: lossy link chaos + the case's crash (and restart, so
/// the peer pool recovers for the next epoch). Returns (min groups used
/// during chaos, recovered).
fn run_epoch(
    s: &mut ResilientSession,
    test: &Dataset,
    case: CrashCase,
    epoch_seed: u64,
    round0: usize,
    chaos_rounds: usize,
    settle_rounds: usize,
) -> (usize, bool) {
    let nodes: Vec<NodeId> = s.dep.subgroups.iter().flatten().copied().collect();
    let victim = pick_victim(s, case);
    let plan = FaultPlan::randomized(epoch_seed, &nodes, SimTime::from_secs(3), true)
        .crash(SimTime::from_millis(300), victim)
        .restart(SimTime::from_millis(2300), victim);
    s.apply_fault_plan(&plan);

    let mut round = round0;
    let mut min_groups = usize::MAX;
    for _ in 0..chaos_rounds {
        let r = s.run_round(round, test);
        min_groups = min_groups.min(r.record.groups_used);
        round += 1;
    }
    s.clear_fault_plan();
    let mut last = None;
    for _ in 0..settle_rounds.max(1) {
        last = Some(s.run_round(round, test));
        round += 1;
    }
    let last = last.unwrap();

    let num_groups = s.dep.subgroups.len();
    let mut recovered = last.record.groups_used == num_groups && last.fed_leader.is_some();
    match case {
        CrashCase::FedLeader => {
            // The FedAvg layer must have moved on from the dead leader
            // during the chaos window (it restarts as a plain peer).
            recovered &= last.fed_leader.is_some();
        }
        CrashCase::Rejoin => {
            // The restarted peer itself is back in the round.
            recovered &= !s.dep.sim.is_crashed(victim);
        }
        _ => {}
    }
    (min_groups, recovered)
}

/// Churn leg: every round, kill a random follower, hold it down across the
/// failure detector's suspect window (every 10th round: across the confirm
/// window, forcing a roster eviction + re-admission), restart it before
/// aggregation, and finally compare the global model bit-for-bit against a
/// crash-free twin — churn that never removes a contributor at aggregation
/// time must be invisible in the aggregate.
fn churn_leg(seed: u64, rounds: usize, engine: SacEngine) {
    let settle = SimDuration::from_millis(600); // ResilientConfig::small
    println!("# churn leg: {rounds} rounds, seed {seed} (replay with --churn --seed {seed})");
    let (mut clean, test) = session(seed, engine);
    let (mut churned, _) = session(seed, engine);
    let mut pick = StdRng::seed_from_u64(seed ^ 0xc0411);
    let wall = Instant::now();

    for round in 1..=rounds {
        let g = pick.random_range(0..churned.dep.subgroups.len());
        let leader = churned
            .dep
            .sub_leader_of(g)
            .expect("subgroup leaderless at pick time");
        let followers: Vec<NodeId> = churned.dep.subgroups[g]
            .iter()
            .copied()
            .filter(|&m| m != leader)
            .collect();
        let victim = followers[pick.random_range(0..followers.len())];
        let down_ms = if round % 10 == 0 { 350 } else { 150 };
        churned.crash(victim);
        churned.dep.sim.run_for(SimDuration::from_millis(down_ms));
        churned.restart(victim);

        let t0 = churned.dep.sim.now();
        let r = churned.run_round(round, &test);
        assert!(
            churned.dep.sim.now() <= t0 + settle + SimDuration::from_millis(10),
            "round {round}: churn round exceeded the settle window"
        );
        assert_eq!(
            r.record.groups_used,
            churned.dep.subgroups.len(),
            "round {round}: churn excluded a subgroup (leaders {:?})",
            r.leaders
        );
        clean.run_round(round, &test);
    }

    let clean_bits: Vec<u64> = clean.global().iter().map(|x| x.to_bits()).collect();
    let churn_bits: Vec<u64> = churned.global().iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        clean_bits, churn_bits,
        "churn with full recovery changed the global model (seed {seed})"
    );

    let mut evictions = 0usize;
    let mut readmissions = 0usize;
    for g in 0..churned.dep.subgroups.len() {
        for &m in &churned.dep.subgroups[g].clone() {
            let a = churned.dep.sim.actor::<HierActor>(m);
            evictions += a.roster_changes.iter().filter(|(_, _, e)| *e).count();
            readmissions += a.roster_changes.iter().filter(|(_, _, e)| !*e).count();
        }
        let leader = churned.dep.sub_leader_of(g).expect("leader after churn");
        let roster = churned
            .dep
            .sim
            .actor::<HierActor>(leader)
            .live_sub_members();
        assert_eq!(
            roster,
            &churned.dep.subgroups[g][..],
            "subgroup {g}: roster did not heal"
        );
    }
    assert!(
        evictions >= rounds / 10,
        "deep-churn rounds triggered too few evictions ({evictions})"
    );
    assert_eq!(
        evictions, readmissions,
        "an evicted member was never re-admitted"
    );
    println!(
        "# churn leg passed: {rounds} rounds, {evictions} evictions healed, \
         digest matches crash-free twin ({:.1}s)",
        wall.elapsed().as_secs_f64()
    );
}

// ---------------------------------------------------------------------
// Flash-crowd leg: elastic split/merge under burst join + mass leave
// ---------------------------------------------------------------------

const FC_GROUPS: usize = 4;
const FC_SIZE: usize = 3;

/// Builds one elastic session sized for the flash crowd: the dataset is
/// partitioned for the initial peers *and* the joiners, so the burst
/// brings real training clients. Returns the session, the joiner clients,
/// and the test split.
fn elastic_session(
    seed: u64,
    engine: SacEngine,
    bounds: ElasticBounds,
) -> (ResilientSession, Vec<Client>, Dataset) {
    let mut cfg = ResilientConfig::small(seed);
    cfg.deployment.num_subgroups = FC_GROUPS;
    cfg.deployment.subgroup_size = FC_SIZE;
    cfg.deployment.engine = engine;
    cfg.deployment.elastic = Some(bounds);
    let n_initial = cfg.deployment.total_peers();
    let n_all = 3 * n_initial; // the burst triples the population
    let (train, test) = train_test_split(&features_like(16, n_all * 40 + 300, seed), n_all * 40);
    let parts = partition_dataset(&train, n_all, Partition::Iid, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let mut clients: Vec<Client> = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            Client::new(
                i,
                mlp(&[16, 24, 10], &mut rng),
                d,
                5e-3,
                seed + 10 + i as u64,
            )
        })
        .collect();
    let joiners = clients.split_off(n_initial);
    let eval = mlp(&[16, 24, 10], &mut rng);
    (ResilientSession::new(cfg, clients, eval), joiners, test)
}

/// Asserts the elastic safety claims on a session's final state and
/// returns the converged rosters with their re-key domains for the
/// reactor leg: layout in band, nobody orphaned, and — oracle-checked —
/// no mask domain reused across any re-key.
fn assert_elastic_safe(
    s: &ResilientSession,
    bounds: ElasticBounds,
    n_all: usize,
) -> Vec<(u64, Vec<NodeId>)> {
    let t = s.dep.latest_topology();
    for g in &t.groups {
        assert!(
            bounds.admits(g.members.len()),
            "subgroup {} ended out of band with {} members",
            g.gid,
            g.members.len()
        );
    }
    for i in 0..n_all {
        let id = NodeId(i as u32);
        if s.dep.sim.is_crashed(id) {
            continue;
        }
        let homes = t.groups.iter().filter(|g| g.members.contains(&id)).count();
        assert_eq!(homes, 1, "peer {id:?} lives in {homes} subgroups");
    }
    let actors: Vec<(NodeId, &HierActor)> = (0..n_all)
        .map(|i| {
            let id = NodeId(i as u32);
            (id, s.dep.sim.actor::<HierActor>(id))
        })
        .collect();
    if let Err(v) = p2pfl_check::oracles::no_mask_reuse_across_rekey(actors.iter().copied()) {
        panic!("{}: {}", v.oracle, v.detail);
    }
    t.groups
        .iter()
        .map(|g| {
            let key = t.roster_key(g.gid).expect("group just listed");
            (key, g.members.clone())
        })
        .collect()
}

/// Flash-crowd leg (simulator): from 4 subgroups, burst-join peers until
/// the population triples, then mass-leave back down. The replicated
/// planner must split on the way up and merge on the way down, every
/// subgroup must end inside `[n_min, n_max]` with nobody orphaned, no
/// mask domain may repeat across the re-keys, and the whole run must be
/// bit-reproducible: a twin session fed the identical schedule ends with
/// the identical global model. Returns the converged rosters + re-key
/// domains for the TCP leg.
fn flash_crowd_leg(seed: u64, engine: SacEngine) -> Vec<(u64, Vec<NodeId>)> {
    let bounds = ElasticBounds::new(3, 6);
    let (mut s, joiners, test) = elastic_session(seed, engine, bounds);
    let (mut twin, twin_joiners, _) = elastic_session(seed, engine, bounds);
    let n_initial = FC_GROUPS * FC_SIZE;
    let n_all = 3 * n_initial;
    let wall = Instant::now();
    println!(
        "# flash-crowd leg: {n_initial} peers, burst to {n_all}, bounds [{}, {}], seed {seed}",
        bounds.n_min, bounds.n_max
    );

    s.run(2, &test);
    twin.run(2, &test);
    assert_eq!(s.supervisor.splits, 0, "no split before the burst");

    // Burst: every joiner rendezvouses in; 36 peers cannot fit in groups
    // of <= 6 without at least one split.
    for (c, ct) in joiners.into_iter().zip(twin_joiners) {
        s.add_peer(c);
        twin.add_peer(ct);
    }
    let mut round = 3usize;
    for _ in 0..10 {
        s.run_round(round, &test);
        twin.run_round(round, &test);
        round += 1;
        let placed = (n_initial..n_all)
            .all(|i| s.dep.latest_topology().group_of(NodeId(i as u32)).is_some());
        if placed && s.supervisor.splits >= 1 && s.dep.latest_topology().converged(bounds) {
            break;
        }
    }
    assert!(s.supervisor.splits >= 1, "join burst never forced a split");
    println!(
        "# flash-crowd: burst absorbed ({} splits, {} groups, {} rekeys)",
        s.supervisor.splits,
        s.dep.latest_topology().groups.len(),
        s.supervisor.rekeys
    );

    // Mass leave: every joiner departs again (same schedule on the twin).
    for i in n_initial..n_all {
        s.remove_peer(NodeId(i as u32));
        twin.remove_peer(NodeId(i as u32));
    }
    for _ in 0..6 {
        s.run_round(round, &test);
        twin.run_round(round, &test);
        round += 1;
        let t = s.dep.latest_topology();
        let sizes: Vec<usize> = t.groups.iter().map(|g| g.members.len()).collect();
        println!(
            "# flash-crowd leave round {}: v{} groups {:?}, {} merges, fed leader {:?}",
            round - 1,
            t.version,
            sizes,
            s.supervisor.merges,
            s.dep.fed_leader()
        );
        if s.supervisor.merges >= 1 && t.converged(bounds) {
            break;
        }
    }
    // The exodus usually leaves a runt behind; if every surviving group
    // landed in band by luck, decay one below the floor so the merge path
    // is exercised deterministically (same picks on the twin).
    if s.supervisor.merges == 0 {
        let t = s.dep.latest_topology();
        let small = t
            .groups
            .iter()
            .min_by_key(|g| (g.members.len(), g.gid))
            .expect("layout has groups")
            .clone();
        let spare: Vec<NodeId> = small
            .members
            .iter()
            .copied()
            .filter(|&m| Some(m) != s.dep.fed_leader())
            .take((small.members.len() + 1).saturating_sub(bounds.n_min))
            .collect();
        for m in spare {
            s.remove_peer(m);
            twin.remove_peer(m);
        }
        for _ in 0..6 {
            s.run_round(round, &test);
            twin.run_round(round, &test);
            round += 1;
            if s.supervisor.merges >= 1 && s.dep.latest_topology().converged(bounds) {
                break;
            }
        }
    }
    assert!(s.supervisor.merges >= 1, "mass leave never forced a merge");

    // Post-convergence round, then the digest check: the twin saw the
    // identical schedule, so the global models must match bit for bit.
    let r = s.run_round(round, &test);
    let rt = twin.run_round(round, &test);
    assert!(r.fed_leader.is_some(), "no FedAvg leader after the churn");
    assert!(r.record.groups_used >= 1, "training wedged after the churn");
    let s_bits: Vec<u64> = s.global().iter().map(|x| x.to_bits()).collect();
    let t_bits: Vec<u64> = twin.global().iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        s_bits, t_bits,
        "flash-crowd run diverged from its twin (seed {seed})"
    );
    assert_eq!(rt.record.groups_used, r.record.groups_used);

    let rosters = assert_elastic_safe(&s, bounds, n_all);
    println!(
        "# flash-crowd leg passed: {} splits, {} merges, {} rekeys, {} final groups, \
         twin digest matches ({:.1}s)",
        s.supervisor.splits,
        s.supervisor.merges,
        s.supervisor.rekeys,
        rosters.len(),
        wall.elapsed().as_secs_f64()
    );
    rosters
}

/// Flash-crowd TCP leg: replays one secure-aggregation round per
/// converged roster on the reactor runtime, with every SAC actor re-keyed
/// into the roster's mask domain (the same `roster_key` the simulator
/// peers adopted), and checks the result bit-for-bit against a simulator
/// twin of the identical round — and against the plain mean.
fn flash_crowd_reactor_leg(rosters: &[(u64, Vec<NodeId>)], seed: u64) {
    let wall = Instant::now();
    for (gi, (roster_key, roster)) in rosters.iter().enumerate() {
        let n = roster.len();
        let k = n.div_ceil(2);
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ roster_key);
        let models: Vec<WeightVector> = (0..n)
            .map(|_| WeightVector::random(16, 1.0, &mut rng))
            .collect();
        let mut plain = WeightVector::zeros(16);
        for m in &models {
            plain.add_assign(m);
        }
        plain.scale(1.0 / n as f64);
        let cfg = |pos: usize, deadline: SimDuration| SacConfig {
            group: ids.clone(),
            position: pos,
            leader_pos: 0,
            k,
            scheme: ShareScheme::Masked,
            engine: SacEngine::Pairwise,
            share_deadline: deadline,
            collect_deadline: deadline,
            round_deadline: None,
            seed: seed ^ (pos as u64 * 0x9e37_79b9),
        };
        let rekeyed = |pos: usize, deadline: SimDuration| {
            let mut a = SacPeerActor::new(cfg(pos, deadline), models[pos].clone());
            assert!(
                a.rekey(ids.clone(), ids[0], k, *roster_key),
                "re-key rejected for subgroup {gi} position {pos}"
            );
            assert_eq!(a.mask_keys().len(), 2, "construction domain + re-key");
            a
        };

        // Simulator twin of the round.
        let mut sim: Sim<SacMsg> = Sim::new(seed ^ roster_key);
        for pos in 0..n {
            sim.add_node(rekeyed(pos, SimDuration::from_millis(100)));
        }
        sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let leader = sim.actor::<SacPeerActor>(ids[0]);
        assert_eq!(
            leader.phase,
            SacPhase::Done,
            "sim twin of subgroup {gi}: {:?}",
            leader.phase
        );
        let sim_result = leader.result.clone().expect("sim twin result");
        assert!(
            sim_result.linf_distance(&plain) < 1e-9,
            "subgroup {gi}: re-keyed masks failed to cancel on the simulator"
        );

        // The same round over real sockets on the reactor runtime.
        let reactor: Reactor<SacMsg, SacPeerActor> =
            Reactor::start(ReactorConfig::default()).expect("bind reactor");
        let handles: Vec<PeerHandle<SacMsg, SacPeerActor>> = (0..n)
            .map(|pos| {
                reactor
                    .spawn_peer(ids[pos], rekeyed(pos, SimDuration::from_secs(2)))
                    .expect("spawn peer")
            })
            .collect();
        mesh(&handles);
        handles[0].with(|a, ctx| a.start_round(ctx, 1));
        wait_for(
            &format!("flash-crowd tcp round, subgroup {gi}"),
            Duration::from_secs(60),
            || handles[0].with(|a, _| a.result.is_some() || matches!(a.phase, SacPhase::Failed(_))),
        );
        let (phase, tcp_result) = handles[0].with(|a, _| (a.phase.clone(), a.result.clone()));
        assert_eq!(phase, SacPhase::Done, "tcp subgroup {gi}: {phase:?}");
        let tcp_result = tcp_result.expect("tcp result");
        assert_eq!(
            tcp_result.digest(),
            sim_result.digest(),
            "subgroup {gi}: reactor round diverged from the simulator twin"
        );
        drop(reactor);
    }
    println!(
        "# flash-crowd tcp leg passed: {} re-keyed rosters, reactor digests match the \
         simulator twin ({:.1}s)",
        rosters.len(),
        wall.elapsed().as_secs_f64()
    );
}

// ---------------------------------------------------------------------
// TCP leg: plan-scheduled crash/restart against on-disk Raft state
// ---------------------------------------------------------------------

const TCP_GROUPS: usize = 2;
const TCP_SIZE: usize = 3;

type HierRt = PeerHandle<HierMsg, HierActor>;

fn hier_cfg(
    id: NodeId,
    subgroups: &[Vec<NodeId>],
    founding: &[NodeId],
    seed: u64,
    engine: SacEngine,
) -> HierPeerConfig {
    let gi = (id.0 as usize) / TCP_SIZE;
    HierPeerConfig {
        id,
        subgroup: subgroups[gi].clone(),
        subgroup_index: gi,
        founding_fed: founding.to_vec(),
        t: SimDuration::from_millis(300),
        heartbeat: SimDuration::from_millis(60),
        config_commit_interval: SimDuration::from_millis(200),
        join_poll_interval: SimDuration::from_millis(100),
        probe_interval: SimDuration::from_millis(60),
        suspect_after: SimDuration::from_millis(300),
        dead_after: SimDuration::from_millis(900),
        engine,
        combiner: RobustCombiner::FedAvg,
        seed: seed ^ (0x9e37 + id.0 as u64 * 0x85eb_ca6b),
        elastic: None,
    }
}

fn storage_actor(dir: &Path, cfg: HierPeerConfig) -> HierActor {
    let sub: PathBuf = dir.join(format!("n{}-sub.raft", cfg.id.0));
    let fed: PathBuf = dir.join(format!("n{}-fed.raft", cfg.id.0));
    HierActor::with_storage(
        cfg,
        Box::new(FileStorage::<SubCmd>::open(sub).expect("open sub storage")),
        Box::new(FileStorage::<FedCmd>::open(fed).expect("open fed storage")),
    )
}

fn wait_for(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn tcp_stable(rts: &HashMap<NodeId, HierRt>, subgroups: &[Vec<NodeId>]) -> bool {
    let fed_leaders = rts
        .values()
        .filter(|rt| rt.with(|a, _| a.is_fed_leader()))
        .count();
    fed_leaders == 1
        && subgroups.iter().all(|g| {
            let leaders: Vec<&HierRt> = g
                .iter()
                .filter_map(|id| rts.get(id))
                .filter(|rt| rt.with(|a, _| a.is_sub_leader()))
                .collect();
            leaders.len() == 1 && leaders[0].with(|a, _| a.is_fed_member())
        })
}

fn commit_marker(rts: &HashMap<NodeId, HierRt>, subgroups: &[Vec<NodeId>], marker: u64) {
    let fl = rts
        .values()
        .find(|rt| rt.with(|a, _| a.is_fed_leader()))
        .expect("fed leader");
    fl.with(move |a, ctx| a.propose_fed(ctx, FedCmd::Round(marker)).unwrap());
    wait_for(
        &format!("marker {marker} at every subgroup leader"),
        Duration::from_secs(30),
        || {
            subgroups.iter().all(|g| {
                g.iter().filter_map(|id| rts.get(id)).any(|rt| {
                    rt.with(move |a, _| {
                        a.is_sub_leader() && a.fed_rounds_applied().contains(&marker)
                    })
                })
            })
        },
    );
}

/// The soak's TCP leg: a plan's crash/restart schedule kills a real peer
/// and recovery comes from its on-disk Raft record alone.
fn tcp_crash_restart_leg(seed: u64, engine: SacEngine) {
    let dir = std::env::temp_dir().join(format!("p2pfl-chaos-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let subgroups: Vec<Vec<NodeId>> = (0..TCP_GROUPS)
        .map(|g| {
            (0..TCP_SIZE)
                .map(|i| NodeId((g * TCP_SIZE + i) as u32))
                .collect()
        })
        .collect();
    let founding: Vec<NodeId> = subgroups.iter().map(|g| g[0]).collect();
    let all: Vec<NodeId> = subgroups.iter().flatten().copied().collect();

    let home: Reactor<HierMsg, HierActor> =
        Reactor::start(ReactorConfig::default()).expect("bind reactor");
    let handles: Vec<HierRt> = all
        .iter()
        .map(|&id| {
            let actor = storage_actor(&dir, hier_cfg(id, &subgroups, &founding, seed, engine));
            home.spawn_peer(id, actor).expect("spawn peer")
        })
        .collect();
    mesh(&handles);
    let mut rts: HashMap<NodeId, HierRt> = handles.into_iter().map(|h| (h.node_id(), h)).collect();
    wait_for(
        "initial TCP two-layer stability",
        Duration::from_secs(30),
        || tcp_stable(&rts, &subgroups),
    );
    commit_marker(&rts, &subgroups, 1);

    let victim = founding[0];
    let plan = FaultPlan::new(seed ^ 0xdead)
        .crash(SimTime::from_millis(10), victim)
        .restart(SimTime::from_millis(2000), victim);
    let origin = Instant::now();
    let (pre_term, pre_last) = rts[&victim].with(|a, _| {
        let r = a.sub_raft();
        (r.term(), r.log().last_index())
    });
    // The restarted process gets a listener of its own: a new address.
    let away: Reactor<HierMsg, HierActor> =
        Reactor::start(ReactorConfig::default()).expect("bind reactor");
    for ev in plan.process_events() {
        let due = origin + Duration::from_nanos(ev.at.as_nanos());
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match ev.fault {
            ProcessFault::Crash => {
                rts.remove(&ev.node).expect("victim running").kill();
            }
            ProcessFault::Restart => {
                let actor =
                    storage_actor(&dir, hier_cfg(ev.node, &subgroups, &founding, seed, engine));
                assert!(actor.sub_raft().term() >= pre_term, "term lost on restart");
                assert!(
                    actor.sub_raft().log().last_index() >= pre_last,
                    "log entries lost on restart"
                );
                assert!(actor.is_fed_member(), "fed seat not restored from disk");
                let rt = away.spawn_peer(ev.node, actor).expect("respawn");
                for other in rts.values() {
                    rt.add_peer(other.node_id(), other.local_addr());
                    other.add_peer(ev.node, rt.local_addr());
                }
                rts.insert(ev.node, rt);
            }
        }
    }
    wait_for(
        "post-restart TCP stability",
        Duration::from_secs(60),
        || tcp_stable(&rts, &subgroups),
    );
    commit_marker(&rts, &subgroups, 2);
    for (_, rt) in rts.drain() {
        drop(rt.stop());
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("# tcp leg: crash/restart recovered from on-disk Raft state, marker committed");
}

/// Ring-engine leg: a dedicated mid-round crash against the Ring-SAC
/// actor itself. A follower dies after its shares have entered the ring
/// but before the round closes; the leader must still finish with all n
/// contributors by pulling the victim's blocks out of stage replicas.
fn ring_crash_leg(seed: u64) {
    const N: usize = 8;
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    let mut sim: Sim<RingMsg> = Sim::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1219);
    for i in 0..N {
        let cfg = SacConfig {
            group: ids.clone(),
            position: i,
            leader_pos: 0,
            k: N.div_ceil(2),
            scheme: ShareScheme::Masked,
            engine: SacEngine::Ring,
            share_deadline: SimDuration::from_millis(100),
            collect_deadline: SimDuration::from_millis(100),
            round_deadline: None,
            seed: seed + i as u64,
        };
        let model = WeightVector::random(64, 1.0, &mut rng);
        sim.add_node(RingSacActor::new(cfg, model));
    }
    let victim = NodeId(5);
    let plan = FaultPlan::new(seed ^ 0x51de).crash(SimTime::from_millis(40), victim);
    sim.apply_fault_plan(&plan);
    sim.exec::<RingSacActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    let leader = sim.actor::<RingSacActor>(ids[0]);
    assert_eq!(leader.phase, SacPhase::Done, "ring leg: {:?}", leader.phase);
    assert!(
        leader.recoveries >= 1,
        "mid-round crash did not exercise replica recovery"
    );
    assert!(
        leader.contributors.contains(&(victim.0 as usize)),
        "victim's update was lost despite stage replicas"
    );
    println!(
        "# ring leg: mid-round crash recovered from stage replicas \
         ({} recoveries), all {N} contributors kept",
        leader.recoveries
    );
}

// ---------------------------------------------------------------------
// Byzantine leg: commit-then-skew attack on both transports
// ---------------------------------------------------------------------

const BYZ_N: usize = 5;
const BYZ_K: usize = 3;
const BYZ_POS: usize = 3;
const BYZ_SKEW: f64 = 6.0;
const BYZ_DIM: usize = 32;

fn byz_sac_cfg(ids: &[NodeId], pos: usize, deadline: SimDuration, seed: u64) -> SacConfig {
    SacConfig {
        group: ids.to_vec(),
        position: pos,
        leader_pos: 0,
        k: BYZ_K,
        scheme: ShareScheme::Masked,
        engine: SacEngine::Pairwise,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed: seed ^ (pos as u64 * 0x9e37_79b9),
    }
}

/// The checks both transports must pass: round done, the attacker caught
/// and excluded, and the published result equal to the honest plain mean.
fn assert_byz_defended(
    transport: &str,
    phase: &SacPhase,
    contributors: &[usize],
    rejected: u64,
    detected: &std::collections::BTreeSet<usize>,
    result: &WeightVector,
    honest_mean: &WeightVector,
) {
    assert_eq!(*phase, SacPhase::Done, "{transport}: {phase:?}");
    let honest: Vec<usize> = (0..BYZ_N).filter(|&p| p != BYZ_POS).collect();
    assert_eq!(
        contributors, honest,
        "{transport}: attacker not excluded from contributors"
    );
    assert!(rejected >= 1, "{transport}: no shares rejected");
    assert!(
        detected.contains(&BYZ_POS),
        "{transport}: attacker not in byzantine_detected ({detected:?})"
    );
    let d = result.linf_distance(honest_mean);
    assert!(
        d < 1e-9,
        "{transport}: result drifted {d} from the honest mean"
    );
}

/// Byzantine leg: peer 3 of a 5-peer, k=3 SAC subgroup runs the
/// commit-then-skew attack — honest hash commitments, then every share
/// block scaled by [`BYZ_SKEW`]. The simulator and a real TCP deployment
/// must interpret the fault identically: on both transports every honest
/// receiver's digest check rejects the blocks, the leader finishes the
/// round over the honest four, and the published average equals the plain
/// mean of the honest models (the adversary-free twin, computed directly).
fn byzantine_leg(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb12a);
    let models: Vec<WeightVector> = (0..BYZ_N)
        .map(|_| WeightVector::random(BYZ_DIM, 1.0, &mut rng))
        .collect();
    let mut honest_mean = WeightVector::zeros(BYZ_DIM);
    for (pos, m) in models.iter().enumerate() {
        if pos != BYZ_POS {
            honest_mean.add_assign(m);
        }
    }
    honest_mean.scale(1.0 / (BYZ_N - 1) as f64);
    let ids: Vec<NodeId> = (0..BYZ_N as u32).map(NodeId).collect();

    // Simulator sub-leg.
    let mut sim: Sim<SacMsg> = Sim::new(seed);
    for (pos, model) in models.iter().enumerate() {
        sim.add_node(SacPeerActor::new(
            byz_sac_cfg(&ids, pos, SimDuration::from_millis(100), seed),
            model.clone(),
        ));
    }
    sim.actor_mut::<SacPeerActor>(ids[BYZ_POS]).byz_share_skew = Some(BYZ_SKEW);
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(SimTime::from_secs(5));
    let leader = sim.actor::<SacPeerActor>(ids[0]);
    assert_byz_defended(
        "sim",
        &leader.phase,
        &leader.contributors,
        leader.shares_rejected,
        &leader.byzantine_detected,
        leader.result.as_ref().expect("sim result"),
        &honest_mean,
    );
    for pos in (0..BYZ_N).filter(|&p| p != BYZ_POS) {
        assert!(
            sim.actor::<SacPeerActor>(ids[pos]).shares_rejected >= 1,
            "sim: honest peer {pos} accepted a skewed block"
        );
    }
    println!("# byzantine leg (sim): attacker detected by all honest peers, honest mean intact");

    // TCP sub-leg: same attack over real sockets.
    let reactor: Reactor<SacMsg, SacPeerActor> =
        Reactor::start(ReactorConfig::default()).expect("bind reactor");
    let runtimes: Vec<PeerHandle<SacMsg, SacPeerActor>> = (0..BYZ_N)
        .map(|pos| {
            let mut actor = SacPeerActor::new(
                byz_sac_cfg(&ids, pos, SimDuration::from_secs(2), seed),
                models[pos].clone(),
            );
            if pos == BYZ_POS {
                actor.byz_share_skew = Some(BYZ_SKEW);
            }
            reactor.spawn_peer(ids[pos], actor).expect("spawn peer")
        })
        .collect();
    mesh(&runtimes);
    runtimes[0].with(|a, ctx| a.start_round(ctx, 1));
    wait_for("tcp byzantine round", Duration::from_secs(30), || {
        runtimes[0].with(|a, _| a.result.is_some() || matches!(a.phase, SacPhase::Failed(_)))
    });
    let (phase, contributors, rejected, detected, result) = runtimes[0].with(|a, _| {
        (
            a.phase.clone(),
            a.contributors.clone(),
            a.shares_rejected,
            a.byzantine_detected.clone(),
            a.result.clone().expect("tcp result"),
        )
    });
    assert_byz_defended(
        "tcp",
        &phase,
        &contributors,
        rejected,
        &detected,
        &result,
        &honest_mean,
    );
    for rt in runtimes {
        drop(rt.stop());
    }
    println!("# byzantine leg (tcp): attacker detected over real sockets, honest mean intact");
}

fn main() {
    let args = Args::parse();
    let smoke = args.get_flag("smoke") || args.get_flag("quick");
    let seed = args.get_u64("seed", 7);
    let engine = match args.get_str("engine").as_deref() {
        None | Some("pairwise") => SacEngine::Pairwise,
        Some("ring") => SacEngine::Ring,
        Some(other) => {
            eprintln!("unknown --engine '{other}' (expected ring or pairwise)");
            std::process::exit(2);
        }
    };

    if args.get_flag("byzantine") {
        banner(
            "Chaos soak: commit-then-skew Byzantine attack on both transports",
            "honest receivers reject the skewed shares; the round survives with the honest mean",
        );
        byzantine_leg(seed);
        println!("# byzantine soak passed");
        return;
    }

    if args.get_flag("flash-crowd") {
        banner(
            "Chaos soak: flash-crowd churn over the elastic topology",
            "burst join to 3x then mass leave; split+merge in band, safe re-keys, twin digest match",
        );
        let rosters = flash_crowd_leg(seed, engine);
        if !args.get_flag("skip-tcp") {
            flash_crowd_reactor_leg(&rosters, seed);
        } else {
            println!("# --skip-tcp: reactor replay of the converged rosters skipped");
        }
        println!("# flash-crowd soak passed");
        return;
    }

    if args.get_flag("churn") {
        banner(
            "Chaos soak: per-round membership churn vs crash-free twin",
            "kill/wait/restart a random follower each round; digest must match",
        );
        churn_leg(
            seed,
            args.get_usize("rounds", if smoke { 20 } else { 50 }),
            engine,
        );
        return;
    }

    let epochs = args.get_usize("epochs", if smoke { 4 } else { 8 });
    let chaos_rounds = args.get_usize("rounds", if smoke { 2 } else { 4 });
    let settle_rounds = args.get_usize("settle", if smoke { 2 } else { 3 });
    let skip_tcp = args.get_flag("skip-tcp");

    banner(
        "Chaos soak: randomized fault plans over full two-layer rounds",
        "Sec. V crash cases C1-C4 each hit and recovered; faults never wedge a round",
    );
    println!("# seed {seed} (replay with --seed {seed}); engine={engine:?} epochs={epochs} chaos_rounds={chaos_rounds} settle_rounds={settle_rounds}");

    let (mut s, test) = session(seed, engine);
    s.run(2, &test); // healthy warm-up establishes both layers

    let mut hit: HashMap<CrashCase, usize> = HashMap::new();
    let mut recovered_count: HashMap<CrashCase, usize> = HashMap::new();
    let mut rows = Vec::new();
    let mut round = 3usize;
    for e in 0..epochs {
        let case = CASES[e % CASES.len()];
        let epoch_seed = seed.wrapping_add(1 + e as u64);
        println!("# epoch {e}: {} (epoch seed {epoch_seed})", case.name());
        let (min_groups, recovered) = run_epoch(
            &mut s,
            &test,
            case,
            epoch_seed,
            round,
            chaos_rounds,
            settle_rounds,
        );
        round += chaos_rounds + settle_rounds.max(1);
        *hit.entry(case).or_default() += 1;
        if recovered {
            *recovered_count.entry(case).or_default() += 1;
        }
        rows.push(format!(
            "{e},{},{epoch_seed},{min_groups},{recovered}",
            case.name()
        ));
    }
    print_csv(
        "epoch,case,epoch_seed,min_groups_during_chaos,recovered",
        rows,
    );

    println!("\n# summary:");
    let mut failed = false;
    for case in CASES {
        let h = hit.get(&case).copied().unwrap_or(0);
        let r = recovered_count.get(&case).copied().unwrap_or(0);
        println!("#   {}: hit {h}, recovered {r}", case.name());
        if h == 0 || r == 0 {
            failed = true;
        }
    }
    assert!(
        !failed,
        "a Sec. V crash case was never hit or never recovered (replay with --seed {seed})"
    );

    if engine == SacEngine::Ring {
        ring_crash_leg(seed);
    }
    if skip_tcp {
        println!("# tcp leg skipped (--skip-tcp)");
    } else {
        tcp_crash_restart_leg(seed, engine);
    }
    println!("# chaos soak passed");
}
