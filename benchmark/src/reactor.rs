//! The three reactor workloads: bare aggregation engines hosted on one
//! `Reactor` over loopback, every round checked against a simulator twin.
//!
//! * `sac_bulk_cnn_3` - the paper's model size: bytes dominate, so the
//!   `secagg` kernels, the codec and large socket copies do the work;
//!   `ml`, Raft and per-frame overhead do none.
//! * `sac_fanout_256` - many small frames: engine bookkeeping, codec
//!   allocations, syscalls per frame and injector wake-ups dominate and
//!   vector math is negligible.
//! * `ring_bulk_16` - the second engine: mid-sized frames through a staged
//!   dependency chain, so a gain for pairwise that costs ring shows.
//!
//! One harness thread drives a closed loop (a round starts when every
//! subgroup of the previous one is done) against the one reactor thread.
//!
//! An untraced run builds mesh after mesh for `--seconds`: each is set up
//! (timed: `setup_s`), runs one block of a second or two of timed rounds
//! and is dropped. The run reports the median round, the median block wall
//! time and the median block CPU time.

use crate::layers::{
    decode_frame, encode_frame, random_models, Engine, Mesh, NetTotals, Pairwise, Ring, RoundState,
    Shape, Twin, SESSION_DIM,
};
use crate::metrics::{Outcome, Values};
use crate::stats::{self, Tracer};
use crate::{alloc, host};
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub ring: bool,
    /// Rounds run during set-up, before anything is timed.
    warmup: u64,
    /// Timed rounds of one mesh of an untraced run, about a second's worth.
    /// `time_to_target_s` is the wall time of such a block.
    block_rounds: usize,
    /// Rounds of a traced run.
    trace_rounds: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sac_bulk_cnn_3",
        shape: Shape {
            groups: 1,
            group_size: 3,
            k: 2,
            // The paper's Fig. 5 CNN.
            dim: 1_248_394,
        },
        ring: false,
        warmup: 2,
        block_rounds: 2,
        trace_rounds: 8,
    },
    Workload {
        name: "sac_fanout_256",
        shape: Shape {
            groups: 32,
            group_size: 8,
            k: 4,
            dim: 256,
        },
        ring: false,
        warmup: 10,
        block_rounds: 10,
        trace_rounds: 60,
    },
    Workload {
        name: "ring_bulk_16",
        shape: Shape {
            groups: 1,
            group_size: 16,
            k: 8,
            dim: 100_000,
        },
        ring: true,
        warmup: 3,
        block_rounds: 4,
        trace_rounds: 16,
    },
];

/// One of the session's subgroups on the reactor: what the traced run of
/// `session_mlp_30` uses for the engine and `net` numbers (see [`probe`]).
const SESSION_SUBGROUP: Workload = Workload {
    name: "session_subgroup",
    shape: Shape {
        groups: 1,
        group_size: 3,
        k: 2,
        dim: SESSION_DIM,
    },
    ring: false,
    warmup: 2,
    block_rounds: 0,
    trace_rounds: 40,
};

/// An untraced run builds at least this many meshes, however short
/// `--seconds` is.
const MIN_MESHES: usize = 3;
/// Leaders are asked where they are at most this often, one at a time and
/// only those not yet done, so the harness does not load the reactor it
/// measures.
const POLL_EVERY: Duration = Duration::from_millis(1);
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);
/// Times the codec replays one round's messages.
const CODEC_REPEATS: usize = 3;

/// Per subgroup: the leader's digest of the round's average, or why
/// there is none.
type RoundResults = Vec<Result<u64, String>>;

/// One round on the reactor.
struct RoundRun {
    wall_s: f64,
    results: RoundResults,
}

/// The twin's rounds, from round 1.
struct TwinRun {
    results: Vec<RoundResults>,
    walls: Vec<f64>,
    /// Simulator events processed, all rounds together.
    events: u64,
}

/// Starts `round` on every leader and waits until the last subgroup is
/// done. The round's wall time ends when the last leader reports `Done`;
/// digests are fetched afterwards.
fn drive_round<E: Engine>(mesh: &Mesh<E>, groups: usize, round: u64) -> RoundRun {
    let start = Instant::now();
    mesh.begin_round(round);
    let mut settled = Vec::with_capacity(groups);
    for g in 0..groups {
        settled.push(loop {
            match mesh.poll(g) {
                RoundState::Done => break Ok(()),
                RoundState::Failed(why) => break Err(why),
                RoundState::Pending if start.elapsed() > ROUND_TIMEOUT => {
                    break Err("timed out".to_string())
                }
                RoundState::Pending => std::thread::sleep(POLL_EVERY),
            }
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let results = settled
        .into_iter()
        .enumerate()
        .map(|(g, done)| done.and_then(|()| mesh.result_digest(g).ok_or("no result".to_string())))
        .collect();
    RoundRun { wall_s, results }
}

/// Reactor start + spawn + mesh dial + warm-up rounds.
fn set_up<E: Engine>(
    w: &Workload,
    models: &[crate::layers::Model],
    seed: u64,
) -> (Mesh<E>, Vec<RoundRun>) {
    let mesh = Mesh::<E>::start(&w.shape, models, seed);
    let warmup = (1..=w.warmup)
        .map(|round| drive_round(&mesh, w.shape.groups, round))
        .collect();
    (mesh, warmup)
}

/// Checks `runs[i]` (round `first_round + i`) against the twin's digests
/// and books attempts and failures.
fn verify(
    expected: &[RoundResults],
    first_round: usize,
    runs: &[RoundRun],
    what: &str,
    out: &mut Outcome,
) {
    for (i, run) in runs.iter().enumerate() {
        let round = first_round + i;
        for (g, got) in run.results.iter().enumerate() {
            out.attempted += 1;
            let want = &expected[round - 1][g];
            if got.is_err() || got != want {
                out.failed += 1;
                out.problems.push(format!(
                    "{what} round {round} subgroup {g}: reactor {got:?}, simulator twin {want:?}"
                ));
            }
        }
    }
}

/// Runs the twin for `rounds` rounds, each inside a `secagg.engine` span.
fn twin_rounds<E: Engine>(
    twin: &mut Twin<E>,
    groups: usize,
    rounds: usize,
    tracer: &mut Tracer,
) -> TwinRun {
    let mut run = TwinRun {
        results: Vec::with_capacity(rounds),
        walls: Vec::with_capacity(rounds),
        events: 0,
    };
    for round in 1..=rounds as u64 {
        let id = tracer.begin("secagg.engine", None, round);
        run.events += twin.round(round);
        run.walls.push(tracer.end(id));
        run.results
            .push((0..groups).map(|g| twin.result_digest(g)).collect());
    }
    run
}

fn check_net(net: &NetTotals, out: &mut Outcome) {
    out.check(net.sends_dropped == 0, || {
        format!("{} sends were dropped at a full queue", net.sends_dropped)
    });
    out.check(net.decode_errors == 0, || {
        format!("{} frames failed to decode", net.decode_errors)
    });
    if net.reconnects > 0 {
        out.notes.push(format!("{} reconnects", net.reconnects));
    }
}

/// One mesh of an untraced run: its set-up, then one block of timed rounds.
struct MeshRun {
    setup_s: f64,
    warmup: Vec<RoundRun>,
    timed: Vec<RoundRun>,
    /// Wall and CPU time of the block, the harness's work between rounds
    /// included.
    block_wall_s: f64,
    block_cpu_s: f64,
    /// Bytes and frames the block put on the wire.
    bytes: u64,
    frames: u64,
}

fn mesh_run<E: Engine>(
    w: &Workload,
    models: &[crate::layers::Model],
    seed: u64,
    out: &mut Outcome,
) -> MeshRun {
    let t = Instant::now();
    let (mesh, warmup) = set_up::<E>(w, models, seed);
    let setup_s = t.elapsed().as_secs_f64();

    let net_before = mesh.net_totals();
    let cpu_before = host::cpu_seconds();
    let block_start = Instant::now();
    let timed = (1..=w.block_rounds as u64)
        .map(|i| drive_round(&mesh, w.shape.groups, w.warmup + i))
        .collect();
    let block_wall_s = block_start.elapsed().as_secs_f64();
    let block_cpu_s = host::cpu_seconds() - cpu_before;
    let net_after = mesh.net_totals();
    check_net(&net_after, out);
    MeshRun {
        setup_s,
        warmup,
        timed,
        block_wall_s,
        block_cpu_s,
        bytes: net_after.bytes_sent - net_before.bytes_sent,
        frames: net_after.frames_sent - net_before.frames_sent,
    }
}

fn run_on<E: Engine>(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let models = random_models(&w.shape, seed);

    // Mesh after mesh until the time is used up, not one mesh for the whole
    // run: five meshes built one after another in one process had round
    // medians of 80 to 97 ms on `sac_fanout_256`, so one mesh's pace is a
    // draw, and a run must report what many meshes agree on.
    let run_start = Instant::now();
    let mut meshes: Vec<MeshRun> = Vec::new();
    let mut last_s = 0.0;
    while meshes.len() < MIN_MESHES || run_start.elapsed().as_secs_f64() + last_s <= seconds {
        let t = Instant::now();
        meshes.push(mesh_run::<E>(w, &models, seed, &mut out));
        last_s = t.elapsed().as_secs_f64();
    }
    let peak_rss = host::peak_rss_mib();

    // Every round of every mesh must equal the simulator twin's, bit for
    // bit. Measured above, checked here: the twin costs as much CPU as the
    // engines themselves.
    let mut twin = Twin::<E>::start(&w.shape, &models, seed);
    let rounds_per_mesh = w.warmup as usize + w.block_rounds;
    let expected = twin_rounds(
        &mut twin,
        w.shape.groups,
        rounds_per_mesh,
        &mut Tracer::new(),
    )
    .results;
    for m in &meshes {
        verify(&expected, 1, &m.warmup, "warm-up", &mut out);
        verify(
            &expected,
            w.warmup as usize + 1,
            &m.timed,
            "timed",
            &mut out,
        );
    }

    let per_mesh = |f: fn(&MeshRun) -> f64| meshes.iter().map(f).collect::<Vec<f64>>();
    let walls: Vec<f64> = meshes
        .iter()
        .flat_map(|m| m.timed.iter().map(|r| r.wall_s))
        .collect();
    let rounds = walls.len() as f64;
    let (tail_pct, tail_s) = stats::tail(&walls);
    out.notes.push(format!(
        "{} meshes, {} rounds timed; round p{tail_pct} {tail_s:.6} s; {} frames per round",
        meshes.len(),
        walls.len(),
        meshes.iter().map(|m| m.frames).sum::<u64>() as f64 / rounds
    ));
    let v = &mut out.values;
    v.put("setup_s", stats::median(&per_mesh(|m| m.setup_s)));
    v.put("round_s", stats::median(&walls));
    v.put(
        "time_to_target_s",
        stats::median(&per_mesh(|m| m.block_wall_s)),
    );
    v.put(
        "cpu_s_per_round",
        stats::median(&per_mesh(|m| m.block_cpu_s)) / w.block_rounds as f64,
    );
    v.put(
        "wire_bytes_per_round",
        meshes.iter().map(|m| m.bytes).sum::<u64>() as f64 / rounds,
    );
    v.put("peak_rss_mib", peak_rss);
    out
}

/// Raw numbers of a traced reactor run.
struct Layers {
    /// Wall times of the rounds run without a span around them.
    untraced: Vec<f64>,
    /// Wall times of the rounds run inside a `core.round` span.
    traced: Vec<f64>,
    /// Twin wall time per round, warm-up rounds left out.
    engine: Vec<f64>,
    twin_events: u64,
    twin_seconds: f64,
    messages: usize,
    encode: Vec<f64>,
    decode: Vec<f64>,
    codec_allocs_per_frame: f64,
    net: NetTotals,
    net_before: NetTotals,
    allocs: (u64, u64),
}

fn layers_on<E: Engine>(w: &Workload, seed: u64, tracer: &mut Tracer, out: &mut Outcome) -> Layers {
    let groups = w.shape.groups;
    let models = random_models(&w.shape, seed);
    let (mesh, warmup) = set_up::<E>(w, &models, seed);

    let net_before = mesh.net_totals();
    let allocs_before = alloc::snapshot();
    let mut runs = Vec::with_capacity(w.trace_rounds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..w.trace_rounds {
        let round = w.warmup + i as u64 + 1;
        // Every second round runs inside a span; the others run exactly as
        // the untraced benchmark runs them.
        let span = (i % 2 == 1).then(|| tracer.begin("core.round", None, round));
        let run = drive_round(&mesh, groups, round);
        match span {
            Some(id) => {
                tracer.end(id);
                traced.push(run.wall_s);
            }
            None => untraced.push(run.wall_s),
        }
        runs.push(run);
    }
    let allocs_after = alloc::snapshot();
    let net = mesh.net_totals();
    drop(mesh);
    check_net(&net, out);

    // The same actors, seeds and models on the simulator: engine and
    // kernels, no codec, no sockets.
    let mut twin = Twin::<E>::start(&w.shape, &models, seed);
    let total_rounds = w.warmup as usize + w.trace_rounds;
    let twin_start = Instant::now();
    let twin_run = twin_rounds(&mut twin, groups, total_rounds, tracer);
    let twin_seconds = twin_start.elapsed().as_secs_f64();
    verify(&twin_run.results, 1, &warmup, "warm-up", out);
    verify(
        &twin_run.results,
        w.warmup as usize + 1,
        &runs,
        "traced",
        out,
    );

    // One more twin round with every sent message copied out, replayed
    // through the codec the way the reactor uses it.
    twin.record(true);
    twin.round(total_rounds as u64 + 1);
    let messages = twin.take_recorded();
    drop(twin);
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut codec_allocs = Vec::new();
    for rep in 0..CODEC_REPEATS as u64 {
        let allocs_before = alloc::snapshot().0;
        let (mut encode_s, mut decode_s, mut decoded) = (0.0, 0.0, 0);
        let id = tracer.begin("net.codec_replay", None, rep);
        // One frame alive at a time, as on the reactor, where a frame is
        // written and freed while the next is being produced.
        for msg in &messages {
            let t = Instant::now();
            let frame = encode_frame(msg);
            let encoded = t.elapsed();
            decoded += decode_frame::<E::Msg>(&frame) as usize;
            decode_s += (t.elapsed() - encoded).as_secs_f64();
            encode_s += encoded.as_secs_f64();
        }
        tracer.end(id);
        encode.push(encode_s);
        decode.push(decode_s);
        codec_allocs.push((alloc::snapshot().0 - allocs_before) as f64 / messages.len() as f64);
        out.check(decoded == messages.len(), || {
            format!(
                "{} of {} replayed frames did not decode",
                messages.len() - decoded,
                messages.len()
            )
        });
    }

    Layers {
        untraced,
        traced,
        engine: twin_run.walls[w.warmup as usize..].to_vec(),
        twin_events: twin_run.events,
        twin_seconds,
        messages: messages.len(),
        encode,
        decode,
        codec_allocs_per_frame: stats::median(&codec_allocs),
        net,
        net_before,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
    }
}

impl Layers {
    fn round_walls(&self) -> Vec<f64> {
        self.untraced.iter().chain(&self.traced).copied().collect()
    }

    /// Engine + codec time of a round: what the measured layers explain.
    fn explained_s(&self) -> f64 {
        stats::median(&self.engine) + stats::median(&self.encode) + stats::median(&self.decode)
    }
}

/// The engine and `net` numbers every reactor trace yields.
fn put_layer_metrics(l: &Layers, v: &mut Values) {
    let rounds = (l.untraced.len() + l.traced.len()) as f64;
    let frames = (l.net.frames_sent - l.net_before.frames_sent) as f64;
    let coalesced = (l.net.frames_coalesced - l.net_before.frames_coalesced) as f64;
    v.put("secagg.engine_round_s", stats::median(&l.engine));
    v.put("secagg.msgs_per_round", l.messages as f64);
    v.put("net.codec_encode_s", stats::median(&l.encode));
    v.put("net.codec_decode_s", stats::median(&l.decode));
    v.put("net.codec_allocs_per_frame", l.codec_allocs_per_frame);
    // One reactor thread serialises engine, codec and socket work, so what
    // the twin and the codec replay do not explain is the reactor's own.
    v.put(
        "net.reactor_self_s",
        stats::median(&l.round_walls()) - l.explained_s(),
    );
    v.put("net.frames_per_round", frames / rounds);
    v.put("net.frames_coalesced_share", coalesced / frames);
    v.put("net.send_queue_peak", l.net.send_queue_peak as f64);
    v.put("net.reconnects", l.net.reconnects as f64);
    v.put("net.sends_dropped", l.net.sends_dropped as f64);
    v.put("net.decode_errors", l.net.decode_errors as f64);
}

fn trace_on<E: Engine>(w: &Workload, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let l = layers_on::<E>(w, seed, tracer, &mut out);
    put_layer_metrics(&l, &mut out.values);
    let walls = l.round_walls();
    let (tail_pct, tail_s) = stats::tail(&walls);
    let v = &mut out.values;
    v.put("core.round_tail_s", tail_s);
    v.put("core.round_tail_pct", tail_pct as f64);
    v.put(
        "core.trace_coverage",
        l.explained_s() / stats::median(&walls),
    );
    v.put(
        "core.trace_overhead_share",
        stats::median(&l.traced) / stats::median(&l.untraced) - 1.0,
    );
    v.put("simnet.events_per_s", l.twin_events as f64 / l.twin_seconds);
    v.put(
        "mem.allocs_per_round",
        l.allocs.0 as f64 / walls.len() as f64,
    );
    v.put(
        "mem.alloc_bytes_per_round",
        l.allocs.1 as f64 / walls.len() as f64,
    );
    out
}

/// The untraced run of a reactor workload: every end-to-end metric.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    if w.ring {
        run_on::<Ring>(w, seed, seconds)
    } else {
        run_on::<Pairwise>(w, seed, seconds)
    }
}

/// The traced run: the workload again with alternate rounds inside spans,
/// then its simulator twin, a codec replay of one round's messages.
pub fn trace(w: &Workload, seed: u64, tracer: &mut Tracer) -> Outcome {
    if w.ring {
        trace_on::<Ring>(w, seed, tracer)
    } else {
        trace_on::<Pairwise>(w, seed, tracer)
    }
}

/// The engine and `net` numbers for the traced run of `session_mlp_30`,
/// which has neither: one of its subgroups (3 peers, 2-of-3, the MLP's
/// dimension) on the reactor, so every per-layer time is a live
/// measurement on every workload - and a first estimate of what moving
/// the session onto the engines and the wire (open item 1) will cost.
pub fn probe(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let l = layers_on::<Pairwise>(&SESSION_SUBGROUP, seed, &mut Tracer::new(), &mut out);
    put_layer_metrics(&l, &mut out.values);
    out
}
