//! Scale benchmark (`BENCH_scale.json`): a 1000-peer, 100-subgroup
//! two-layer round, layer 1 on loopback TCP with every peer hosted by the
//! single-thread reactor runtime.
//!
//! Layer 1 runs 100 independent SAC subgroups (10 peers each, pairwise
//! masked, k = 5) concurrently on ONE reactor; layer 2 is the paper's
//! Alg. 3 FedAvg over the 100 subgroup results, computed in process as
//! `ResilientSession` combines. Every subgroup digest and the combine's
//! are checked bit-for-bit against a simulator twin running the same
//! actors with the same seeds — at every scale, the async runtime must
//! compute *exactly* what the discrete-event simulator computes.
//!
//! Reported: per-subgroup round-completion latency percentiles
//! (p50/p95/p99), whole-round wall time, and bytes + frames per peer from
//! the transport's own counters.
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

use p2pfl_bench::hotpath::{gate, write_report, BenchResult};
use p2pfl_bench::testkit::{
    mesh, models, reactor, sac_peers, sim_group, sim_round, spawn_group, synthetic_session,
};
use p2pfl_bench::{banner, Args};
use p2pfl_fed::fedavg;
use p2pfl_net::PeerHandle;
use p2pfl_secagg::{PairwiseWire, SacEngine, SacMsg, SacPeerActor, SacPhase, WeightVector};
use p2pfl_simnet::{FaultPlan, NodeId, SimDuration, SimTime};
use std::time::{Duration, Instant};

const SEED: u64 = 0x5CA1E0;

/// Nanoseconds below which a median is treated as noise: on a loaded
/// runner the quick shape's round times are a few milliseconds, where
/// scheduler jitter alone exceeds 2x. A regression must clear BOTH the
/// relative factor and this absolute floor — the failure mode the gate
/// exists for (e.g. listener-backlog overflow turning dials into ~1 s
/// kernel SYN retransmits) clears the floor by an order of magnitude.
const GATE_FLOOR_NS: u64 = 250_000_000;

#[derive(Clone, Copy)]
struct Shape {
    subgroups: usize,
    sub_size: usize,
    dim: usize,
    k: usize,
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
};
const QUICK: Shape = Shape {
    subgroups: 8,
    sub_size: 8,
    dim: 32,
    k: 3,
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

/// The peers: `shape.subgroups` subgroups of `shape.sub_size`, the
/// leader of each first.
fn peers(shape: &Shape, deadline: SimDuration) -> Vec<(NodeId, SacPeerActor)> {
    let models = models(shape.peers(), shape.dim, SEED + 999);
    let (sub_size, k) = (shape.sub_size, shape.k);
    sac_peers(&models, sub_size, k, SacEngine::Pairwise, deadline, SEED)
}

/// Layer 2 (paper Alg. 3): plain FedAvg over the subgroup results, each
/// weighted by its subgroup's size, all equal here.
fn combine(shape: &Shape, results: &[WeightVector]) -> WeightVector {
    let models: Vec<Vec<f64>> = results.iter().map(|r| r.as_slice().to_vec()).collect();
    WeightVector::new(fedavg(&models, &vec![shape.sub_size; models.len()]))
}

/// What the simulator twin computed in one round.
struct Expected {
    /// Each subgroup leader's result digest, subgroup order.
    subgroups: Vec<u64>,
    /// The layer-2 combine's digest.
    combine: u64,
}

/// The simulator twin: the full two-layer round under the discrete-event
/// simulator, once per round.
fn sim_twin(shape: &Shape, rounds: u64) -> Vec<Expected> {
    let mut sim = sim_group(SEED, peers(shape, SimDuration::from_millis(500)), None);
    (1..=rounds)
        .map(|round| {
            let leaders = (0..shape.peers()).step_by(shape.sub_size);
            let leaders = leaders.map(|id| NodeId(id as u32));
            let results: Vec<WeightVector> = sim_round::<PairwiseWire>(&mut sim, leaders, round)
                .into_iter()
                .map(|(_, result)| result)
                .collect();
            Expected {
                subgroups: results.iter().map(WeightVector::digest).collect(),
                combine: combine(shape, &results).digest(),
            }
        })
        .collect()
}

type Handle = PeerHandle<SacMsg, SacPeerActor>;

struct RoundOutcome {
    /// Per-subgroup completion latency, seconds, subgroup order.
    latencies: Vec<f64>,
    /// Start of the round to the last subgroup's completion.
    wall_s: f64,
}

/// Starts round `round` on every subgroup leader, polls all leaders to
/// completion, combines their results, and checks every digest against
/// the sim twin's.
fn run_round(shape: &Shape, handles: &[Handle], round: u64, expected: &Expected) -> RoundOutcome {
    let started = Instant::now();
    let mut starts = Vec::with_capacity(shape.subgroups);
    for g in 0..shape.subgroups {
        starts.push(started.elapsed());
        handles[g * shape.sub_size].with(move |a, ctx| a.start_round(ctx, round));
    }

    // Poll sweep: completion timestamps are quantized by the sweep
    // period, which is small against the subgroup rounds' spread.
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
            digest, expected.subgroups[g],
            "round {round} subgroup {g} diverged from the simulator"
        );
        latencies.push((at - starts[g]).as_secs_f64());
        results.push(result);
    }
    let t = Instant::now();
    let global = combine(shape, &results);
    println!(
        "# round {round} layer 2: FedAvg over {} subgroup results in {:.3} ms",
        results.len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(
        global.digest(),
        expected.combine,
        "round {round} layer 2 diverged from the simulator"
    );
    RoundOutcome { latencies, wall_s }
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

/// One complete two-layer run of `shape`: sim twin, then the round(s) on
/// the reactor (two rounds with a mid-run blackout when `soak`), each
/// combined and digest-checked. `suffix` tags the benchmark names, so
/// the quick and full shapes gate independently in one baseline file.
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
    let expected = sim_twin(shape, rounds);

    println!("# reactor: spawning {} peers...", shape.peers());
    let reactor = reactor::<SacMsg, SacPeerActor>();
    let plan = soak_plan();
    let deadline = SimDuration::from_secs(300);
    let handles = spawn_group(&reactor, peers(shape, deadline), soak.then_some(&plan));
    for subgroup in handles.chunks(shape.sub_size) {
        mesh(subgroup);
    }

    let mut outcome = run_round(shape, &handles, 1, &expected[0]);
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
        outcome = run_round(shape, &handles, 2, &expected[1]);
        println!("# round 2 (post-blackout): done in {:.2}s", outcome.wall_s);
        let reconnects: u64 = handles.iter().map(|h| h.stats().reconnects).sum();
        assert!(reconnects >= 1, "blackout never exercised the redial path");
        println!("# soak: {reconnects} reconnects");
    }

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
        "Scale: two-layer round, layer 1 on the single-thread reactor runtime",
        "1000 peers / 100 subgroups on loopback, digests bit-identical to the simulator",
    );

    let shape = if quick { QUICK } else { FULL };
    let mut extra = vec![
        format!("\"quick\": {quick}"),
        format!("\"soak\": {soak}"),
        format!("\"peers\": {}", shape.peers()),
        format!("\"subgroups\": {}", shape.subgroups),
        format!("\"subgroup_size\": {}", shape.sub_size),
        format!("\"dim\": {}", shape.dim),
        format!("\"k\": {}", shape.k),
    ];
    // Quick runs gate against the baseline's `_quick` entries; a full
    // (baseline-refreshing) run measures BOTH shapes so the quick gate
    // stays meaningful from the same file.
    let (mut bench_results, shape_extra) = run_shape(&QUICK, soak && quick, "_quick");
    extra.extend(shape_extra);
    if !quick {
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

    write_report(&out_path, "p2pfl-bench/scale/v1", &extra, &bench_results);
    if let Some(baseline_path) = baseline_path {
        gate(&baseline_path, &bench_results, factor, GATE_FLOOR_NS);
    }
}
