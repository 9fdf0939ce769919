//! Chaos soak — the long randomized legs nothing else runs. Every
//! deterministic robustness check (per-round churn, the Byzantine
//! skewer, the ring mid-round crash, TCP crash/restart from disk) is a
//! tier-1 test under `tests/`; see EXPERIMENTS.md for the map.
//!
//! The epoch soak drives randomized fault plans through full two-layer
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
//! [`ResilientSession`], on either engine (`--engine pairwise|ring`).
//!
//! Run: `cargo run -rp p2pfl-bench --bin chaos_soak -- --seed 7`
//! Smoke: `cargo run -rp p2pfl-bench --bin chaos_soak -- --smoke --seed 7`
//! Each epoch prints its seed; replay one with `--seed <n> --epochs 1`.
//! Flash crowd: `cargo run -rp p2pfl-bench --bin chaos_soak --
//! --flash-crowd --seed 7` (burst-join to 3x the population then mass
//! leave; the elastic planner must split and merge, every subgroup must
//! end in band with nobody orphaned, no mask domain may repeat across
//! re-keys, the run must match an identically-scheduled twin bit for
//! bit, and a re-keyed SAC round per converged roster must produce the
//! same digest over real TCP as on the simulator).

use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_bench::testkit::{
    ids, mesh, reactor, sac_config, spawn_group, synthetic_session, wait_done,
};
use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_fed::Client;
use p2pfl_hierraft::{ElasticBounds, HierActor};
use p2pfl_ml::data::Dataset;
use p2pfl_secagg::{SacEngine, SacMsg, SacPeerActor, SacPhase, WeightVector};
use p2pfl_simnet::{FaultPlan, NodeId, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

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
    let (s, _, test) = synthetic_session(cfg, 0, 50);
    (s, test)
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
    // The burst triples the population.
    let joiners = 2 * cfg.deployment.total_peers();
    synthetic_session(cfg, joiners, 40)
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
        let ids = ids(n);
        let mut rng = StdRng::seed_from_u64(seed ^ roster_key);
        let models: Vec<WeightVector> = (0..n)
            .map(|_| WeightVector::random(16, 1.0, &mut rng))
            .collect();
        let plain = WeightVector::mean(models.iter());
        let rekeyed = |pos: usize, deadline: SimDuration| {
            let pos_seed = seed ^ (pos as u64 * 0x9e37_79b9);
            let cfg = sac_config(&ids, pos, k, SacEngine::Pairwise, deadline, pos_seed);
            let mut a = SacPeerActor::new(cfg, models[pos].clone());
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
        let reactor = reactor::<SacMsg, SacPeerActor>();
        let actors = (0..n).map(|pos| (ids[pos], rekeyed(pos, SimDuration::from_secs(2))));
        let handles = spawn_group(&reactor, actors, None);
        mesh(&handles);
        handles[0].with(|a, ctx| a.start_round(ctx, 1));
        let what = format!("flash-crowd tcp round, subgroup {gi}");
        let (_, tcp_result) = wait_done(&handles[0], &what);
        assert_eq!(
            tcp_result.digest(),
            sim_result.digest(),
            "subgroup {gi}: reactor round diverged from the simulator twin"
        );
    }
    println!(
        "# flash-crowd tcp leg passed: {} re-keyed rosters, reactor digests match the \
         simulator twin ({:.1}s)",
        rosters.len(),
        wall.elapsed().as_secs_f64()
    );
}

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 7);
    let engine = match args.get_str("engine").as_deref() {
        None | Some("pairwise") => SacEngine::Pairwise,
        Some("ring") => SacEngine::Ring,
        Some(other) => {
            eprintln!("unknown --engine '{other}' (expected ring or pairwise)");
            std::process::exit(2);
        }
    };

    if args.get_flag("flash-crowd") {
        args.finish();
        banner(
            "Chaos soak: flash-crowd churn over the elastic topology",
            "burst join to 3x then mass leave; split+merge in band, safe re-keys, twin digest match",
        );
        let rosters = flash_crowd_leg(seed, engine);
        flash_crowd_reactor_leg(&rosters, seed);
        println!("# flash-crowd soak passed");
        return;
    }

    let smoke = args.get_flag("smoke");
    let epochs = args.get_usize("epochs", if smoke { 4 } else { 8 });
    let chaos_rounds = args.get_usize("rounds", if smoke { 2 } else { 4 });
    let settle_rounds = args.get_usize("settle", if smoke { 2 } else { 3 });
    args.finish();

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
    println!("# chaos soak passed");
}
