//! Layer probes: small fixed experiments against one layer's public API,
//! run at the end of every traced run. Their shape does not depend on the
//! workload, except that the `secagg` kernels run at the workload's model
//! dimension and the mesh dial at its link layout.

use crate::layers::{
    failover_trial, sized_message, EchoMesh, Kernels, RaftCluster, Shape, TrainStep,
};
use crate::metrics::Outcome;
use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

const RAFT_ENTRIES: u64 = 2000;
/// Failover trials of each kind (subgroup leader, FedAvg leader).
const FAILOVER_TRIALS: u64 = 25;
const TRAIN_STEPS: usize = 300;
/// Parameters each kernel probe touches in total, so small and large
/// dimensions are timed for about as long.
const KERNEL_PARAMS: usize = 20_000_000;
const PING_PONGS: u64 = 2000;
const SMALL_FRAME: usize = 256;
/// Under the 4096-frame per-link queue cap.
const SMALL_BURST: usize = 3000;
const SMALL_BURSTS: usize = 8;
const BULK_FRAME: usize = 10 << 20;
/// Two 10 MiB frames stay under the 32 MiB per-link queue cap.
const BULK_BURST: usize = 2;
const BULK_BURSTS: usize = 5;
const PROBE_TIMEOUT: Duration = Duration::from_secs(30);

/// Polls `done` once a millisecond; whether it came true in time.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > PROBE_TIMEOUT {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn raft(seed: u64, out: &mut Outcome) {
    let mut cluster = RaftCluster::elect(seed);
    let t = Instant::now();
    let msgs = cluster.commit(RAFT_ENTRIES);
    let wall = t.elapsed().as_secs_f64();
    out.values
        .put("raft.commit_us_per_entry", wall * 1e6 / RAFT_ENTRIES as f64);
    out.values
        .put("raft.msgs_per_commit", msgs as f64 / RAFT_ENTRIES as f64);
}

fn failover(seed: u64, out: &mut Outcome) {
    let (mut virtual_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    for trial in 0..2 * FAILOVER_TRIALS {
        let trial_seed = seed.wrapping_mul(1000).wrapping_add(trial);
        let t = Instant::now();
        match failover_trial(trial >= FAILOVER_TRIALS, trial_seed) {
            Some(ms) => {
                virtual_ms.push(ms);
                wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            None => failed += 1,
        }
    }
    out.check(!virtual_ms.is_empty(), || {
        "no failover trial recovered".to_string()
    });
    if !virtual_ms.is_empty() {
        out.values
            .put("hierraft.failover_virtual_ms", stats::median(&virtual_ms));
        out.values
            .put("hierraft.failover_wall_ms", stats::median(&wall_ms));
    }
    out.values.put("hierraft.failover_failed", failed as f64);
}

fn train_step(seed: u64, out: &mut Outcome) {
    let mut probe = TrainStep::new(seed);
    for _ in 0..20 {
        black_box(probe.step());
    }
    let steps: Vec<f64> = (0..TRAIN_STEPS)
        .map(|_| {
            let t = Instant::now();
            black_box(probe.step());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.values.put("ml.train_step_us", stats::median(&steps));
}

/// Median nanoseconds per parameter of `kernel` over `reps` calls.
fn ns_per_param(dim: usize, reps: usize, mut kernel: impl FnMut()) -> f64 {
    kernel();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            kernel();
            t.elapsed().as_secs_f64() * 1e9 / dim as f64
        })
        .collect();
    stats::median(&samples)
}

fn kernels(seed: u64, shape: &Shape, out: &mut Outcome) {
    let mut k = Kernels::new(shape.dim, shape.group_size, seed);
    let reps = (KERNEL_PARAMS / shape.dim).clamp(5, 5000);
    // Per parameter of the model divided, whatever the share count.
    let divide = ns_per_param(shape.dim, reps, || {
        black_box(k.divide());
    });
    let accumulate = ns_per_param(shape.dim, reps, || k.accumulate());
    let digest = ns_per_param(shape.dim, reps, || {
        black_box(k.digest());
    });
    out.values.put("secagg.divide_ns_per_param", divide);
    out.values.put("secagg.accumulate_ns_per_param", accumulate);
    out.values.put("secagg.digest_ns_per_param", digest);
}

const PAIR: Shape = Shape {
    groups: 1,
    group_size: 2,
    k: 1,
    dim: 0,
};

/// 64-byte ping-pong over one link: what one frame's trip through the
/// reactor costs when nothing else is going on.
fn echo_rtt(out: &mut Outcome) {
    let mesh = EchoMesh::spawn(&PAIR, true);
    mesh.dial_all();
    let up = wait_until(|| mesh.received_by(1) >= 1);
    // The dial frame came back to peer 0 as well; wait for it so it is not
    // counted as a pong.
    let settled = up && wait_until(|| mesh.received_by(0) >= 1);
    let t = Instant::now();
    mesh.start_ping_pong(&sized_message(64), PING_PONGS);
    let done = settled && wait_until(|| mesh.received_by(0) >= PING_PONGS);
    let wall = t.elapsed().as_secs_f64();
    out.check(done, || "echo ping-pong did not finish".to_string());
    out.values
        .put("net.echo_rtt_us", wall * 1e6 / PING_PONGS as f64);
}

/// One-way floods from peer 0 to peer 1: frames per second at 256 B,
/// MiB per second at 10 MiB.
fn floods(out: &mut Outcome) {
    let mesh = EchoMesh::spawn(&PAIR, false);
    mesh.dial_all();
    let mut expected = 1;
    let mut ok = wait_until(|| mesh.received_by(1) >= expected);

    let small = sized_message(SMALL_FRAME);
    let t = Instant::now();
    for _ in 0..SMALL_BURSTS {
        mesh.send_burst(&small, SMALL_BURST);
        expected += SMALL_BURST as u64;
        ok = ok && wait_until(|| mesh.received_by(1) >= expected);
    }
    let frames = (SMALL_BURSTS * SMALL_BURST) as f64;
    out.values
        .put("net.small_frames_per_s", frames / t.elapsed().as_secs_f64());

    let bulk = sized_message(BULK_FRAME);
    let t = Instant::now();
    for _ in 0..BULK_BURSTS {
        mesh.send_burst(&bulk, BULK_BURST);
        expected += BULK_BURST as u64;
        ok = ok && wait_until(|| mesh.received_by(1) >= expected);
    }
    let mib = (BULK_BURSTS * BULK_BURST * BULK_FRAME) as f64 / (1 << 20) as f64;
    out.values
        .put("net.bulk_mib_per_s", mib / t.elapsed().as_secs_f64());
    out.check(ok, || "a flood probe lost frames".to_string());
}

/// First `add_peer` until one frame has crossed every link of the
/// workload's mesh layout.
fn dial_mesh(shape: &Shape, out: &mut Outcome) {
    let mesh = EchoMesh::spawn(shape, false);
    let t = Instant::now();
    mesh.dial_all();
    // Peer i of a subgroup hears from the i lower ids that dial it. Peers
    // are waited for one at a time, so the loop is asked one thing at once.
    let up = (0..shape.peers()).all(|peer| {
        let want = (peer % shape.group_size) as u64;
        want == 0 || wait_until(|| mesh.received_by(peer) >= want)
    });
    out.values.put("net.dial_mesh_s", t.elapsed().as_secs_f64());
    out.check(up, || {
        "the echo mesh never brought up all its links".to_string()
    });
}

/// Runs every probe. `shape` is the workload's subgroup layout.
pub fn run(seed: u64, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    raft(seed, &mut out);
    failover(seed, &mut out);
    train_step(seed, &mut out);
    kernels(seed, shape, &mut out);
    echo_rtt(&mut out);
    floods(&mut out);
    dial_mesh(shape, &mut out);
    out
}
