//! `session_mlp_30`: the only composed system today - Raft settle on the
//! simulator, parallel local training, FT-SAC per subgroup, FedAvg combine
//! and evaluation, driven through `ResilientSession::run_round`. `ml` and
//! `fed` do most of a round, `secagg` about a tenth, `hierraft` + `simnet`
//! a twentieth, and there is no codec or socket at all: kernel and training
//! work shows here, transport work must not.
//!
//! One harness thread drives a closed loop (a round starts when the
//! previous one is combined); training fans out over at most `nproc`
//! threads inside the system.

use crate::layers::{
    params_digest, Session, SessionTwin, SESSION_SAMPLES_PER_ROUND, SESSION_SUBGROUPS,
};
use crate::metrics::{Outcome, Values};
use crate::stats::{self, Tracer};
use crate::{alloc, host};
use std::time::Instant;

/// The round at which the seed-42 reference run first reaches
/// [`TARGET_ACCURACY`]. `time_to_target_s` is the wall time of this many
/// rounds for every seed: rounds-to-accuracy itself moves by a quarter from
/// seed to seed (357..639 over twenty seeds), which no bound survives,
/// while the time of a fixed amount of training repeats within a few
/// percent.
pub const TARGET_ROUND: usize = 428;
/// An untraced run is timed in blocks of this many rounds, about two
/// seconds each, and reports the median block; the target is a whole
/// number of blocks.
const BLOCK_ROUNDS: usize = 107;
const BLOCKS_TO_TARGET: usize = TARGET_ROUND / BLOCK_ROUNDS;
const _: () = assert!(BLOCKS_TO_TARGET * BLOCK_ROUNDS == TARGET_ROUND);
pub const TARGET_ACCURACY: f64 = 0.95;
/// Every seed tried is above 0.87 at the target round; a run below this
/// floor has broken training, not drawn a hard seed.
const ACCURACY_FLOOR: f64 = 0.80;
/// Set-up takes ~25 ms, so it is repeated and the median reported.
const SETUP_REPEATS: usize = 25;
/// Rounds a second session replays to show that a seed repeats exactly.
const REPLAY_ROUNDS: usize = 15;
/// Rounds of a traced run in which `run_round` runs next to the twin.
pub const LOCKSTEP_ROUNDS: usize = 150;
/// How far (L-inf) the twin's global may sit from `run_round`'s.
const TWIN_TOLERANCE: f64 = 1e-9;

/// Builds the session `SETUP_REPEATS` times; returns the last one and the
/// median set-up time.
fn timed_setups(seed: u64) -> (Session, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let session = Session::start(seed);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(session);
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut session, setup_s) = timed_setups(seed);

    let mut walls = Vec::new();
    // Wall and CPU time of each block of `BLOCK_ROUNDS` rounds.
    let mut block_walls = Vec::new();
    let mut block_cpus = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut replay_mark = None;
    let mut accuracy_at_target = None;
    let mut first_at_accuracy = None;
    let (_, mut control) = session.control_traffic();
    let loop_start = Instant::now();
    let mut round = 0;
    while round < TARGET_ROUND || loop_start.elapsed().as_secs_f64() < seconds {
        let cpu_before = host::cpu_seconds();
        let block_start = Instant::now();
        for _ in 0..BLOCK_ROUNDS {
            round += 1;
            let t = Instant::now();
            let r = session.round(round);
            walls.push(t.elapsed().as_secs_f64());
            let (_, control_now) = session.control_traffic();
            wire_bytes.push(r.aggregation_bytes + control_now - control);
            control = control_now;
            out.failed += (SESSION_SUBGROUPS - r.groups_used) as u64;
            if round == REPLAY_ROUNDS {
                replay_mark = Some((params_digest(session.global()), r.accuracy));
            }
            if round == TARGET_ROUND {
                accuracy_at_target = Some(r.accuracy);
            }
            if first_at_accuracy.is_none() && r.accuracy >= TARGET_ACCURACY {
                first_at_accuracy = Some(round);
            }
        }
        block_walls.push(block_start.elapsed().as_secs_f64());
        block_cpus.push(host::cpu_seconds() - cpu_before);
    }
    let peak_rss = host::peak_rss_mib();
    out.attempted = (SESSION_SUBGROUPS * round) as u64;
    drop(session);

    let accuracy = accuracy_at_target.expect("the loop passes the target round");
    out.check(accuracy >= ACCURACY_FLOOR, || {
        format!("test accuracy {accuracy} at round {TARGET_ROUND} is below {ACCURACY_FLOOR}")
    });

    // A seed must repeat exactly: replay the first rounds on a fresh
    // session and compare the global bit for bit.
    let mut again = Session::start(seed);
    let mut replayed = None;
    for r in 1..=REPLAY_ROUNDS {
        replayed = Some(again.round(r).accuracy);
    }
    let replay = (
        params_digest(again.global()),
        replayed.expect("replayed a round"),
    );
    out.check(replay_mark == Some(replay), || {
        format!("seed {seed} does not repeat: round {REPLAY_ROUNDS} gave {replay_mark:?}, then {replay:?}")
    });

    let (tail_pct, tail_s) = stats::tail(&walls);
    out.notes.push(format!(
        "{round} rounds timed in {} blocks; round p{tail_pct} {tail_s:.6} s; accuracy {accuracy} at round \
         {TARGET_ROUND}; first at {TARGET_ACCURACY}: {}",
        block_walls.len(),
        first_at_accuracy.map_or("not within the run".to_string(), |r| format!("round {r}"))
    ));
    let target_bytes: u64 = wire_bytes[..TARGET_ROUND].iter().sum();
    let v = &mut out.values;
    v.put("setup_s", setup_s);
    v.put("round_s", stats::median(&walls));
    v.put(
        "time_to_target_s",
        stats::median(&block_walls) * BLOCKS_TO_TARGET as f64,
    );
    v.put(
        "cpu_s_per_round",
        stats::median(&block_cpus) / BLOCK_ROUNDS as f64,
    );
    v.put(
        "wire_bytes_per_round",
        target_bytes as f64 / TARGET_ROUND as f64,
    );
    v.put("peak_rss_mib", peak_rss);
    out
}

/// Raw numbers of a phase-by-phase run.
struct Phases {
    /// `run_round` wall times, lockstep rounds only.
    untraced: Vec<f64>,
    /// Twin round wall times.
    traced: Vec<f64>,
    /// Root span of each twin round.
    roots: Vec<usize>,
    /// Twin test accuracy per round.
    accuracies: Vec<f64>,
    settle_events: u64,
    settle_msgs: u64,
    control_bytes: u64,
    /// Allocation calls and bytes inside the `run_round` calls.
    allocs: (u64, u64),
    failed_groups: u64,
    /// Largest L-inf distance between the twin's global and `run_round`'s.
    divergence: f64,
}

/// Runs `rounds` rounds of the twin, the first `lockstep` of them next to
/// a real session whose `run_round` is timed untraced and whose global the
/// twin's is compared with.
fn phases(seed: u64, lockstep: usize, rounds: usize, tracer: &mut Tracer) -> Phases {
    let mut session = Session::start(seed);
    let mut twin = SessionTwin::start(seed);
    let mut p = Phases {
        untraced: Vec::new(),
        traced: Vec::new(),
        roots: Vec::new(),
        accuracies: Vec::new(),
        settle_events: 0,
        settle_msgs: 0,
        control_bytes: 0,
        allocs: (0, 0),
        failed_groups: 0,
        divergence: 0.0,
    };
    for round in 1..=rounds {
        if round <= lockstep {
            let before = alloc::snapshot();
            let t = Instant::now();
            let r = session.round(round);
            p.untraced.push(t.elapsed().as_secs_f64());
            let after = alloc::snapshot();
            p.allocs.0 += after.0 - before.0;
            p.allocs.1 += after.1 - before.1;
            p.failed_groups += (SESSION_SUBGROUPS - r.groups_used) as u64;
        }

        let id = round as u64;
        let (msgs_before, bytes_before) = twin.control_traffic();
        let root = tracer.begin("core.round", None, id);
        p.settle_events += tracer.span("hierraft.settle", Some(root), id, || twin.settle());
        p.settle_msgs += twin.control_traffic().0 - msgs_before;
        tracer.span("fed.train", Some(root), id, || twin.train());
        for g in 0..SESSION_SUBGROUPS {
            if !tracer.span("secagg.ftsac", Some(root), id, || twin.secure_average(g)) {
                p.failed_groups += 1;
            }
        }
        tracer.span("fed.combine", Some(root), id, || twin.combine(round));
        let accuracy = tracer.span("ml.eval", Some(root), id, || twin.evaluate());
        p.traced.push(tracer.end(root));
        p.roots.push(root);
        p.accuracies.push(accuracy);
        p.control_bytes += twin.control_traffic().1 - bytes_before;

        if round <= lockstep {
            let apart = session
                .global()
                .iter()
                .zip(twin.global())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            p.divergence = p.divergence.max(apart);
        }
    }
    p
}

/// Median per-round time of the spans called `name`, among `spans`.
fn phase_median(spans: &[stats::Span], name: &str) -> f64 {
    stats::median(&stats::per_round_totals(spans, name))
}

/// The per-layer numbers every session trace yields, full or small.
/// `spans` is the whole recording, of which this trace starts at `first`.
fn put_phase_metrics(p: &Phases, spans: &[stats::Span], first: usize, v: &mut Values) {
    let rounds = p.traced.len() as f64;
    let own = &spans[first..];
    let settle = phase_median(own, "hierraft.settle");
    let train = phase_median(own, "fed.train");
    let ftsac = phase_median(own, "secagg.ftsac");
    let combine = phase_median(own, "fed.combine");
    let eval = phase_median(own, "ml.eval");
    // `run_round` minus what the same round's phases took in the twin,
    // round by round: pairing cancels the drift between rounds, which is
    // larger than the difference being measured.
    let self_times: Vec<f64> = p
        .untraced
        .iter()
        .zip(p.roots.iter().zip(&p.traced))
        .map(|(run_round, (&root, twin))| {
            let phases = twin - stats::self_seconds(spans, root);
            run_round - phases
        })
        .collect();
    v.put("core.round_self_s", stats::median(&self_times));
    v.put("hierraft.settle_s", settle);
    v.put("hierraft.settle_msgs", p.settle_msgs as f64 / rounds);
    v.put(
        "hierraft.control_bytes_per_round",
        p.control_bytes as f64 / rounds,
    );
    v.put("ml.eval_s", eval);
    v.put("fed.train_s", train);
    v.put(
        "fed.train_samples_per_s",
        SESSION_SAMPLES_PER_ROUND as f64 / train,
    );
    v.put("fed.combine_s", combine);
    v.put("secagg.ftsac_s", ftsac);
}

fn check_phases(p: &Phases, out: &mut Outcome) {
    out.attempted += (SESSION_SUBGROUPS * (p.traced.len() + p.untraced.len())) as u64;
    out.failed += p.failed_groups;
    out.check(p.divergence <= TWIN_TOLERANCE, || {
        format!(
            "the phase twin drifted {} (L-inf) from run_round, over {TWIN_TOLERANCE}",
            p.divergence
        )
    });
}

/// The traced run of the workload: the twin to the target round, in
/// lockstep with `run_round` for the first [`LOCKSTEP_ROUNDS`].
pub fn trace(seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let first_span = tracer.spans.len();
    let p = phases(seed, LOCKSTEP_ROUNDS, TARGET_ROUND, tracer);
    check_phases(&p, &mut out);
    put_phase_metrics(&p, &tracer.spans, first_span, &mut out.values);
    let spans = &tracer.spans[first_span..];

    let settle_s: f64 = stats::per_round_totals(spans, "hierraft.settle")
        .iter()
        .sum();
    let coverage: Vec<f64> = p
        .roots
        .iter()
        .zip(&p.traced)
        .map(|(&root, wall)| 1.0 - stats::self_seconds(&tracer.spans, root) / wall)
        .collect();
    let (tail_pct, tail_s) = stats::tail(&p.traced);
    let accuracy = *p.accuracies.last().expect("traced a round");
    out.check(accuracy >= ACCURACY_FLOOR, || {
        format!("test accuracy {accuracy} at round {TARGET_ROUND} is below {ACCURACY_FLOOR}")
    });
    let to_target = p.accuracies.iter().position(|&a| a >= TARGET_ACCURACY);
    let v = &mut out.values;
    v.put("core.round_tail_s", tail_s);
    v.put("core.round_tail_pct", tail_pct as f64);
    v.put("core.trace_coverage", stats::median(&coverage));
    v.put(
        "core.trace_overhead_share",
        stats::median(&p.traced[..p.untraced.len()]) / stats::median(&p.untraced) - 1.0,
    );
    v.put("simnet.events_per_s", p.settle_events as f64 / settle_s);
    // 0: the target accuracy was not reached by the target round.
    v.put(
        "ml.rounds_to_target",
        to_target.map_or(0.0, |i| (i + 1) as f64),
    );
    v.put("ml.final_accuracy", accuracy);
    v.put(
        "mem.allocs_per_round",
        p.allocs.0 as f64 / p.untraced.len() as f64,
    );
    v.put(
        "mem.alloc_bytes_per_round",
        p.allocs.1 as f64 / p.untraced.len() as f64,
    );
    out.notes.push(format!(
        "{} twin rounds, {} of them in lockstep with run_round; largest L-inf distance {:e}",
        p.traced.len(),
        p.untraced.len(),
        p.divergence
    ));
    out
}

/// Rounds of the small session the reactor workloads' traced runs use.
const PROBE_ROUNDS: usize = 30;

/// The session layers' numbers for a traced run of a workload that has no
/// session in it: the same phases on a short run of the same shape, so
/// every per-layer time is a live measurement on every workload. The
/// numbers do not depend on that workload and are predicted flat for any
/// change that touches only `net` or the engines.
pub fn probe(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let p = phases(seed, PROBE_ROUNDS, PROBE_ROUNDS, &mut tracer);
    check_phases(&p, &mut out);
    put_phase_metrics(&p, &tracer.spans, 0, &mut out.values);
    out.values.put("ml.rounds_to_target", 0.0);
    out.values.put("ml.final_accuracy", 0.0);
    out
}
