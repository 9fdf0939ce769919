//! Scale benchmark (`BENCH_scale.json`): a 1000-peer, 100-subgroup
//! two-layer secure-aggregation round on loopback TCP, every peer hosted
//! by the single-thread reactor runtime.
//!
//! Layer 1 runs 100 independent SAC subgroups (10 peers each, pairwise
//! masked, k = 5) concurrently on ONE reactor; layer 2 aggregates the 100
//! subgroup results in a second SAC group. The leader digests of both
//! layers are checked bit-for-bit against a simulator twin running the
//! same actors with the same seeds — at every scale, the async runtime
//! must compute *exactly* what the discrete-event simulator computes.
//!
//! Reported: per-subgroup round-completion latency percentiles
//! (p50/p95/p99), whole-round wall time, layer-2 latency, and bytes +
//! frames per peer from the transport's own counters.
//!
//! ```text
//! cargo run -rp p2pfl-bench --bin scale              # full: 1000 peers, writes BENCH_scale.json
//!     --quick                                        # CI-sized: 64 peers / 8 subgroups
//!     --soak                                         # chaos leg: fault plan + connection blackout
//!     --baseline BENCH_scale.json                    # fail (exit 2) on >2x median regression
//!     --out target/bench/scale_quick.json            # alternate report path
//!     --factor 2.0                                   # regression threshold
//! ```
//!
//! The checked-in `BENCH_scale.json` is the perf-gate baseline; refresh it
//! with a full (non-`--quick`) run on a quiet machine.

use p2pfl_bench::hotpath::{parse_baseline, BenchResult};
use p2pfl_bench::testkit::{ids, mesh, sac_config, synthetic_session};
use p2pfl_bench::{banner, Args};
use p2pfl_net::{PeerHandle, Reactor, ReactorConfig};
use p2pfl_secagg::{SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, WeightVector};
use p2pfl_simnet::{FaultPlan, NodeId, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SEED: u64 = 0x5CA1E0;
/// Seed offset separating layer-2 actor seeds from layer-1's.
const L2_SEED: u64 = SEED + 1_000_000;

#[derive(Clone, Copy)]
struct Shape {
    subgroups: usize,
    sub_size: usize,
    dim: usize,
    k: usize,
    l2_k: usize,
}

impl Shape {
    fn peers(&self) -> usize {
        self.subgroups * self.sub_size
    }
}

const FULL: Shape = Shape {
    subgroups: 100,
    sub_size: 10,
    dim: 256,
    k: 5,
    l2_k: 5,
};
const QUICK: Shape = Shape {
    subgroups: 8,
    sub_size: 8,
    dim: 32,
    k: 3,
    l2_k: 3,
};

/// The soak leg's link chaos: loss-free delay spikes + duplication, so
/// the digest invariant must survive it exactly.
fn soak_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .delay(
            SimTime::ZERO,
            SimTime::from_secs(3600),
            SimDuration::from_millis(2),
            SimDuration::ZERO,
        )
        .duplicate(SimTime::ZERO, SimTime::from_secs(3600), 0.3)
}

fn models(shape: &Shape) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(SEED + 999);
    (0..shape.peers())
        .map(|_| WeightVector::random(shape.dim, 1.0, &mut rng))
        .collect()
}

fn subgroup_ids(shape: &Shape, g: usize) -> Vec<NodeId> {
    (0..shape.sub_size)
        .map(|i| NodeId((g * shape.sub_size + i) as u32))
        .collect()
}

/// Layer-1 config for global peer `id`.
fn l1_config(shape: &Shape, id: usize, deadline: SimDuration) -> SacConfig {
    let group = subgroup_ids(shape, id / shape.sub_size);
    let position = id % shape.sub_size;
    sac_config(
        &group,
        position,
        shape.k,
        SacEngine::Pairwise,
        deadline,
        SEED + id as u64,
    )
}

/// Layer-2 config: one group of all subgroup leaders, ids 0..subgroups.
fn l2_config(shape: &Shape, position: usize, deadline: SimDuration) -> SacConfig {
    let group = ids(shape.subgroups);
    let seed = L2_SEED + position as u64;
    sac_config(
        &group,
        position,
        shape.l2_k,
        SacEngine::Pairwise,
        deadline,
        seed,
    )
}

/// The simulator twin: the full two-layer round under the discrete-event
/// simulator. Returns (per-round layer-1 leader digests, per-round
/// layer-2 digest, layer-1 results feeding the final layer-2 round).
fn sim_twin(shape: &Shape, rounds: u64) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut sim: Sim<SacMsg> = Sim::new(SEED);
    for (id, model) in models(shape).iter().enumerate() {
        let cfg = l1_config(shape, id, SimDuration::from_millis(500));
        sim.add_node(SacPeerActor::new(cfg, model.clone()));
    }
    sim.run_until_quiet(10_000);

    let mut l1_digests = Vec::new();
    let mut l2_digests = Vec::new();
    for round in 1..=rounds {
        for g in 0..shape.subgroups {
            let leader = subgroup_ids(shape, g)[0];
            sim.exec::<SacPeerActor, _, _>(leader, move |a, ctx| a.start_round(ctx, round));
        }
        sim.run_until(sim.now() + SimDuration::from_secs(30));
        let mut digests = Vec::new();
        let mut results = Vec::new();
        for g in 0..shape.subgroups {
            let leader = sim.actor::<SacPeerActor>(subgroup_ids(shape, g)[0]);
            assert_eq!(
                leader.phase,
                SacPhase::Done,
                "sim round {round} subgroup {g}: {:?}",
                leader.phase
            );
            let r = leader.result.as_ref().expect("sim leader result");
            digests.push(r.digest());
            results.push(r.clone());
        }
        l1_digests.push(digests);

        // Layer 2 for this round, in its own simulator: the subgroup
        // results become the leader-layer models.
        let mut l2: Sim<SacMsg> = Sim::new(SEED ^ round);
        for (pos, model) in results.iter().enumerate() {
            let cfg = l2_config(shape, pos, SimDuration::from_millis(500));
            l2.add_node(SacPeerActor::new(cfg, model.clone()));
        }
        l2.run_until_quiet(10_000);
        l2.exec::<SacPeerActor, _, _>(NodeId(0), |a, ctx| a.start_round(ctx, 1));
        l2.run_until(l2.now() + SimDuration::from_secs(30));
        let leader = l2.actor::<SacPeerActor>(NodeId(0));
        assert_eq!(
            leader.phase,
            SacPhase::Done,
            "sim round {round} layer 2: {:?}",
            leader.phase
        );
        l2_digests.push(leader.result.as_ref().expect("sim l2 result").digest());
    }
    (l1_digests, l2_digests)
}

type Handle = PeerHandle<SacMsg, SacPeerActor>;

struct RoundOutcome {
    /// Per-subgroup completion latency, seconds, subgroup order.
    latencies: Vec<f64>,
    /// Start of the round to the last subgroup's completion.
    wall_s: f64,
    /// Layer-1 results in subgroup order (the layer-2 inputs).
    results: Vec<WeightVector>,
}

/// Starts round `round` on every subgroup leader, polls all leaders to
/// completion, and checks every digest against the sim twin's.
fn run_l1_round(shape: &Shape, handles: &[Handle], round: u64, expected: &[u64]) -> RoundOutcome {
    let started = Instant::now();
    let mut starts = Vec::with_capacity(shape.subgroups);
    for g in 0..shape.subgroups {
        starts.push(started.elapsed());
        handles[g * shape.sub_size].with(move |a, ctx| a.start_round(ctx, round));
    }

    // Poll sweep: completion timestamps are quantized by the sweep
    // period, which is negligible against multi-second rounds.
    let mut done: Vec<Option<(Duration, u64, WeightVector)>> = vec![None; shape.subgroups];
    let deadline = Instant::now() + Duration::from_secs(600);
    while done.iter().any(Option::is_none) {
        for g in 0..shape.subgroups {
            if done[g].is_some() {
                continue;
            }
            let state = handles[g * shape.sub_size].with(|a, _| {
                (
                    a.phase.clone(),
                    a.result.as_ref().map(|r| (r.digest(), r.clone())),
                )
            });
            match state {
                (SacPhase::Done, Some((d, r))) => done[g] = Some((started.elapsed(), d, r)),
                (SacPhase::Failed(e), _) => panic!("round {round} subgroup {g} failed: {e}"),
                _ => {}
            }
        }
        assert!(Instant::now() < deadline, "round {round} stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall_s = started.elapsed().as_secs_f64();

    let mut latencies = Vec::with_capacity(shape.subgroups);
    let mut results = Vec::with_capacity(shape.subgroups);
    for (g, slot) in done.into_iter().enumerate() {
        let (at, digest, result) = slot.expect("polled to completion");
        assert_eq!(
            digest, expected[g],
            "round {round} subgroup {g} diverged from the simulator"
        );
        latencies.push((at - starts[g]).as_secs_f64());
        results.push(result);
    }
    RoundOutcome {
        latencies,
        wall_s,
        results,
    }
}

/// Runs layer 2 on a fresh reactor (the layer-1 reactor must already be
/// dropped — a 100-wide full mesh plus 100 subgroup meshes would crowd
/// the fd budget). Returns the layer-2 latency in seconds.
fn run_l2_round(shape: &Shape, results: Vec<WeightVector>, expected: u64) -> f64 {
    let reactor: Reactor<SacMsg, SacPeerActor> =
        Reactor::start(ReactorConfig::default()).expect("bind layer-2 reactor");
    let handles: Vec<Handle> = results
        .into_iter()
        .enumerate()
        .map(|(pos, model)| {
            let cfg = l2_config(shape, pos, SimDuration::from_secs(300));
            reactor
                .spawn_peer(NodeId(pos as u32), SacPeerActor::new(cfg, model))
                .expect("spawn layer-2 peer")
        })
        .collect();
    mesh(&handles);
    let t = Instant::now();
    handles[0].with(|a, ctx| a.start_round(ctx, 1));
    // Polled every 2 ms like the layer-1 sweep rather than through
    // `testkit::wait_done` (10 ms poll, 60 s stall limit): the quick
    // shape's layer-2 round takes a few milliseconds, so the poll period
    // is the latency's resolution, and the full shape's runs for tens of
    // seconds.
    let deadline = t + Duration::from_secs(600);
    let digest = loop {
        match handles[0].with(|a, _| (a.phase.clone(), a.result.as_ref().map(|r| r.digest()))) {
            (SacPhase::Done, Some(digest)) => break digest,
            (SacPhase::Failed(e), _) => panic!("layer-2 round failed: {e}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "layer-2 round stalled");
        std::thread::sleep(Duration::from_millis(2));
    };
    let latency = t.elapsed().as_secs_f64();
    assert_eq!(digest, expected, "layer 2 diverged from the simulator");
    for h in &handles {
        assert_eq!(
            h.decode_errors(),
            0,
            "layer-2 peer {:?} dropped frames",
            h.node_id()
        );
    }
    latency
}

/// Milliseconds below which a median is treated as noise: on a loaded
/// single-core runner the quick shape's round times are a few
/// milliseconds, where scheduler jitter alone exceeds 2x. A regression
/// must clear BOTH the relative factor and this absolute floor — the
/// failure mode the gate exists for (e.g. listener-backlog overflow
/// turning dials into ~1 s kernel SYN retransmits) clears the floor by
/// an order of magnitude.
const GATE_FLOOR_MS: f64 = 250.0;

/// [`p2pfl_bench::hotpath::check_regressions`] with the absolute floor.
fn gate(current: &[BenchResult], baseline: &[(String, u64)], factor: f64) -> Vec<String> {
    let floor_ns = (GATE_FLOOR_MS * 1e6) as u64;
    let mut offenders = Vec::new();
    for r in current {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) else {
            continue;
        };
        let allowed = ((*base as f64 * factor) as u64).max(floor_ns);
        if *base > 0 && r.median_ns > allowed {
            offenders.push(format!(
                "{}: median {} ns vs baseline {} ns ({:.2}x > {factor}x allowed, floor {GATE_FLOOR_MS} ms)",
                r.name,
                r.median_ns,
                base,
                r.median_ns as f64 / *base as f64
            ));
        }
    }
    offenders
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn result(name: &str, iters: usize, median_s: f64, p95_s: f64, mean_s: f64) -> BenchResult {
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns: (median_s * 1e9) as u64,
        p95_ns: (p95_s * 1e9) as u64,
        mean_ns: (mean_s * 1e9) as u64,
        bytes_per_iter: 0,
        bytes_per_sec: 0,
        allocs_per_iter: 0,
    }
}

/// Renders the report with the same `"name"`/`"median_ns"` field order as
/// the hotpath harness, so `parse_baseline` reads both schemas.
fn to_json(
    shape: &Shape,
    quick: bool,
    soak: bool,
    results: &[BenchResult],
    extra: &[String],
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"p2pfl-bench/scale/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"soak\": {soak},\n"));
    s.push_str(&format!("  \"peers\": {},\n", shape.peers()));
    s.push_str(&format!("  \"subgroups\": {},\n", shape.subgroups));
    s.push_str(&format!("  \"subgroup_size\": {},\n", shape.sub_size));
    s.push_str(&format!("  \"dim\": {},\n", shape.dim));
    s.push_str(&format!("  \"k\": {},\n", shape.k));
    for line in extra {
        s.push_str(&format!("  {line},\n"));
    }
    s.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"p95_ns\": {}, \
             \"mean_ns\": {}, \"bytes_per_iter\": {}, \"bytes_per_sec\": {}, \
             \"allocs_per_iter\": {}}}{}\n",
            r.name,
            r.iters,
            r.median_ns,
            r.p95_ns,
            r.mean_ns,
            r.bytes_per_iter,
            r.bytes_per_sec,
            r.allocs_per_iter,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One complete two-layer run of `shape`: sim twin, layer-1 round(s) on
/// the reactor (two rounds with a mid-run blackout when `soak`), layer 2
/// on a fresh reactor, digests checked throughout. `suffix` tags the
/// benchmark names, so the quick and full shapes gate independently in
/// one baseline file.
fn run_shape(shape: &Shape, soak: bool, suffix: &str) -> (Vec<BenchResult>, Vec<String>) {
    let rounds: u64 = if soak { 2 } else { 1 };
    println!(
        "# shape{suffix}: peers={} subgroups={} sub_size={} dim={} k={} soak={soak}",
        shape.peers(),
        shape.subgroups,
        shape.sub_size,
        shape.dim,
        shape.k
    );

    println!("# simulator twin ({rounds} round(s))...");
    let (l1_expected, l2_expected) = sim_twin(shape, rounds);

    println!("# reactor: spawning {} peers...", shape.peers());
    let reactor: Reactor<SacMsg, SacPeerActor> =
        Reactor::start(ReactorConfig::default()).expect("bind reactor");
    let plan = soak_plan();
    let all_models = models(shape);
    let handles: Vec<Handle> = (0..shape.peers())
        .map(|id| {
            let actor = SacPeerActor::new(
                l1_config(shape, id, SimDuration::from_secs(300)),
                all_models[id].clone(),
            );
            if soak {
                reactor.spawn_peer_with_faults(NodeId(id as u32), actor, &plan)
            } else {
                reactor.spawn_peer(NodeId(id as u32), actor)
            }
            .expect("spawn peer")
        })
        .collect();
    for subgroup in handles.chunks(shape.sub_size) {
        mesh(subgroup);
    }

    let mut outcome = run_l1_round(shape, &handles, 1, &l1_expected[0]);
    println!(
        "# round 1: {} subgroups done in {:.2}s",
        shape.subgroups, outcome.wall_s
    );

    if soak {
        // Chaos leg: sever every connection in the mesh, then run round 2
        // cold — every link must redial (with backoff) and the digests
        // must still match the simulator exactly.
        println!("# soak: severing all connections, running round 2...");
        reactor.kill_connections();
        outcome = run_l1_round(shape, &handles, 2, &l1_expected[1]);
        println!("# round 2 (post-blackout): done in {:.2}s", outcome.wall_s);
        let reconnects: u64 = handles.iter().map(|h| h.stats().reconnects).sum();
        assert!(reconnects >= 1, "blackout never exercised the redial path");
        println!("# soak: {reconnects} reconnects");
    }

    // Transport totals BEFORE tearing layer 1 down.
    let (mut bytes, mut frames, mut dropped) = (0u64, 0u64, 0u64);
    for h in &handles {
        let s = h.stats();
        bytes += s.bytes_sent;
        frames += s.frames_sent;
        dropped += s.sends_dropped;
        assert_eq!(
            h.decode_errors(),
            0,
            "peer {:?} dropped frames",
            h.node_id()
        );
    }
    assert_eq!(dropped, 0, "bounded queues overflowed during the round");
    let bytes_per_peer = bytes / shape.peers() as u64;
    let frames_per_peer = frames / shape.peers() as u64;
    println!("# traffic: {bytes_per_peer} bytes/peer, {frames_per_peer} frames/peer");

    // Free layer 1's sockets before the 100-wide layer-2 mesh.
    drop(handles);
    drop(reactor);

    let l2_s = run_l2_round(
        shape,
        outcome.results.clone(),
        l2_expected[rounds as usize - 1],
    );
    println!("# layer 2: {} leaders done in {l2_s:.2}s", shape.subgroups);

    let mut sorted = outcome.latencies.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p95, p99) = (
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
    );
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    println!(
        "# subgroup round latency: p50 {p50:.3}s  p95 {p95:.3}s  p99 {p99:.3}s  (wall {:.3}s)",
        outcome.wall_s
    );

    let bench_results = vec![
        result(
            &format!("subgroup_round{suffix}"),
            shape.subgroups,
            p50,
            p95,
            mean,
        ),
        result(
            &format!("whole_round{suffix}"),
            1,
            outcome.wall_s,
            outcome.wall_s,
            outcome.wall_s,
        ),
        result(&format!("layer2_round{suffix}"), 1, l2_s, l2_s, l2_s),
    ];
    let extra = vec![
        format!("\"subgroup_p99_ms{suffix}\": {:.3}", p99 * 1e3),
        format!("\"bytes_per_peer{suffix}\": {bytes_per_peer}"),
        format!("\"frames_per_peer{suffix}\": {frames_per_peer}"),
    ];
    (bench_results, extra)
}

/// A short elastic episode on the simulator-backed session: a join burst
/// doubles a 4x3 layout and the planner splits it back into band. Records
/// the converged subgroup-size histogram and the supervisor's elastic
/// counters for the report.
fn elastic_histogram(seed: u64) -> (Vec<(usize, usize)>, u64, u64, u64) {
    use p2pfl::runner::ResilientConfig;
    use p2pfl_hierraft::ElasticBounds;

    let bounds = ElasticBounds::new(3, 6);
    let mut cfg = ResilientConfig::small(seed);
    cfg.deployment.num_subgroups = 4;
    cfg.deployment.subgroup_size = 3;
    cfg.deployment.elastic = Some(bounds);
    let n_initial = cfg.deployment.total_peers();
    let (mut s, joiners, test) = synthetic_session(cfg, n_initial, 20);
    s.run(2, &test);
    for c in joiners {
        s.add_peer(c);
    }
    for round in 3..=10usize {
        s.run_round(round, &test);
        if s.supervisor.splits >= 1 && s.dep.latest_topology().converged(bounds) {
            break;
        }
    }
    let t = s.dep.latest_topology();
    assert!(t.converged(bounds), "elastic episode never converged");
    let mut hist = std::collections::BTreeMap::<usize, usize>::new();
    for g in &t.groups {
        *hist.entry(g.members.len()).or_default() += 1;
    }
    (
        hist.into_iter().collect(),
        s.supervisor.splits,
        s.supervisor.merges,
        s.supervisor.rekeys,
    )
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let soak = args.get_flag("soak");
    let out_path = args
        .get_str("out")
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let factor = args.get_f64("factor", 2.0);
    let baseline_path = args.get_str("baseline");
    args.finish();

    banner(
        "Scale: two-layer SAC round on the single-thread reactor runtime",
        "1000 peers / 100 subgroups on loopback, digests bit-identical to the simulator",
    );

    // Quick runs gate against the baseline's `_quick` entries; a full
    // (baseline-refreshing) run measures BOTH shapes so the quick gate
    // stays meaningful from the same file.
    let mut bench_results;
    let mut extra;
    if quick {
        (bench_results, extra) = run_shape(&QUICK, soak, "_quick");
    } else {
        (bench_results, extra) = run_shape(&QUICK, false, "_quick");
        let (full_results, full_extra) = run_shape(&FULL, soak, "");
        bench_results.extend(full_results);
        extra.extend(full_extra);
    }
    extra.push("\"digest_match\": true".to_string());

    // Elastic episode: a join burst the planner must split back into
    // band; the converged subgroup-size histogram lands in the report.
    println!("# elastic episode: join burst on a 4x3 layout, recording the converged histogram...");
    let (hist, splits, merges, rekeys) = elastic_histogram(SEED ^ 0xe1a5);
    println!("# elastic: sizes {hist:?}, {splits} splits, {merges} merges, {rekeys} rekeys");
    let hist_json: Vec<String> = hist
        .iter()
        .map(|(sz, n)| format!("\"{sz}\": {n}"))
        .collect();
    extra.push(format!(
        "\"elastic_subgroup_size_hist\": {{{}}}",
        hist_json.join(", ")
    ));
    extra.push(format!("\"elastic_splits\": {splits}"));
    extra.push(format!("\"elastic_merges\": {merges}"));
    extra.push(format!("\"elastic_rekeys\": {rekeys}"));

    let shape = if quick { QUICK } else { FULL };
    let json = to_json(&shape, quick, soak, &bench_results, &extra);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create report dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if let Some(baseline_path) = baseline_path {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => {
                let baseline = parse_baseline(&text);
                let offenders = gate(&bench_results, &baseline, factor);
                if offenders.is_empty() {
                    println!(
                        "perf gate: {} benchmarks within {factor}x of {baseline_path}",
                        baseline.len()
                    );
                } else {
                    eprintln!("perf gate FAILED vs {baseline_path}:");
                    for line in &offenders {
                        eprintln!("  {line}");
                    }
                    std::process::exit(2);
                }
            }
            Err(_) => {
                println!("perf gate: baseline {baseline_path} missing, skipping comparison");
            }
        }
    }
}
