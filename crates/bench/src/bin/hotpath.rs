//! Kernel wall-clock harness and gates (`BENCH_hotpath.json`).
//!
//! Times the kernels no repo-benchmark workload isolates: dense matmul
//! (naive oracle vs the blocked production kernel, and their speedup),
//! the session MLP's narrow-output head product, and im2col convolution
//! forward and backward. End-to-end and per-layer time (rounds, codec,
//! digest, share division, the training step) belong to the repo
//! benchmark (`BENCHMARK.json`), which has a noise model; they are not
//! re-timed here. Also gated: the pairwise vs Ring-SAC
//! message-complexity crossover. Every workload is seeded with fixed
//! constants, so run-to-run variation is measurement noise, not input
//! variation.
//!
//! ```text
//! cargo run -rp p2pfl-bench --bin hotpath               # full, writes BENCH_hotpath.json
//! cargo run -rp p2pfl-bench --bin hotpath -- --quick    # CI-sized iteration counts
//!     --baseline BENCH_hotpath.json                     # fail (exit 2) on a >2x regression
//!                                                       # relative to matmul_naive_256
//!     --out target/hotpath.json                         # alternate report path
//!     --factor 2.0                                      # regression threshold
//! ```
//!
//! The checked-in `BENCH_hotpath.json` is the perf-gate baseline; refresh
//! it with a full (non-`--quick`) run on a quiet machine (see DESIGN.md,
//! "Performance").

use p2pfl_bench::alloc::CountingAlloc;
use p2pfl_bench::hotpath::{check_regressions, parse_baseline, Harness, HOST_ORACLE};
use p2pfl_bench::testkit::{ids, sac_config};
use p2pfl_bench::Args;
use p2pfl_ml::layers::Conv2d;
use p2pfl_ml::reference::matmul_naive;
use p2pfl_ml::{Layer, Tensor};
use p2pfl_secagg::{
    PairwiseWire, RingWire, RoundCore, SacConfig, SacEngine, SacPhase, WeightVector, Wire,
};
use p2pfl_simnet::{NodeId, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 0xB0_5EED;

fn seeded_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n).map(|_| rng.random_range(-1.0f32..=1.0)).collect(),
    )
}

/// One clean (no-dropout) simulated SAC round at subgroup size `n` under
/// `engine`; returns the simulator ledger total as `(msgs, bytes)`. Every
/// message the round sends — shares, acks, control, subtotals — is
/// counted once, so the pair is the engine's full per-round traffic.
fn sweep_round(engine: SacEngine, n: usize, dim: usize) -> (u64, u64) {
    let ids = ids(n);
    let deadline = SimDuration::from_millis(200);
    let cfg = |i: usize| sac_config(&ids, i, n.div_ceil(2), engine, deadline, SEED + i as u64);
    match engine {
        SacEngine::Pairwise => sweep_on::<PairwiseWire>(&ids, dim, cfg),
        SacEngine::Ring => sweep_on::<RingWire>(&ids, dim, cfg),
    }
}

fn sweep_on<W: Wire>(ids: &[NodeId], dim: usize, cfg: impl Fn(usize) -> SacConfig) -> (u64, u64) {
    let n = ids.len();
    let mut rng = StdRng::seed_from_u64(SEED + n as u64);
    let mut sim: Sim<W::Msg> = Sim::new(SEED + n as u64);
    for i in 0..n {
        let model = WeightVector::random(dim, 1.0, &mut rng);
        sim.add_node(RoundCore::<W>::new(cfg(i), model));
    }
    sim.exec::<RoundCore<W>, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    let leader = sim.actor::<RoundCore<W>>(ids[0]);
    assert_eq!(leader.phase, SacPhase::Done, "{:?} n={n}", cfg(0).engine);
    let t = sim.metrics().total();
    (t.msgs, t.bytes)
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let out_path = args
        .get_str("out")
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let factor = args.get_f64("factor", 2.0);
    let baseline_path = args.get_str("baseline");
    args.finish();
    // Quick mode shrinks iteration counts ~3x for the CI gate.
    let scale = |full: usize| if quick { full.div_ceil(3) } else { full };

    let mut h = Harness::new();

    // --- micro: dense matmul, naive oracle vs blocked production kernel ---
    let m = 256usize;
    let a = seeded_tensor(&[m, m], SEED + 1);
    let b = seeded_tensor(&[m, m], SEED + 2);
    let matmul_bytes = (3 * m * m * 4) as u64;
    h.bench("matmul_naive_256", scale(9), matmul_bytes, || {
        std::hint::black_box(matmul_naive(&a, &b));
    });
    h.bench("matmul_blocked_256", scale(21), matmul_bytes, || {
        std::hint::black_box(a.matmul(&b));
    });

    // --- micro: the session MLP's narrow-output head product ---
    // The 10-class head: 64 k MACs whose output rows are 10 wide, the shape
    // the register-tiled narrow path of the GEMM routine exists for.
    let head_a = seeded_tensor(&[50, 128], SEED + 12);
    let head_b = seeded_tensor(&[128, 10], SEED + 13);
    let head_bytes = ((50 * 128 + 128 * 10 + 50 * 10) * 4) as u64;
    h.bench("matmul_head_50x128x10", scale(600), head_bytes, || {
        std::hint::black_box(head_a.matmul(&head_b));
    });

    // --- micro: im2col convolution, forward and backward ---
    let mut conv_rng = StdRng::seed_from_u64(SEED + 3);
    let mut conv = Conv2d::new(3, 8, 3, 1, &mut conv_rng);
    let x = seeded_tensor(&[8, 3, 16, 16], SEED + 4);
    let conv_bytes = (x.len() * 4) as u64;
    h.bench("im2col", scale(45), conv_bytes, || {
        std::hint::black_box(conv.im2col(&x));
    });
    h.bench("conv2d_forward", scale(27), conv_bytes, || {
        std::hint::black_box(conv.forward(&x, false));
    });
    // Backward consumes the forward cache, so each iteration pays one
    // training-mode forward plus the backward proper.
    let ones = {
        let y = conv.forward(&x, false);
        Tensor::from_vec(y.shape(), vec![1.0; y.len()])
    };
    h.bench("conv2d_backward", scale(15), conv_bytes, || {
        let _ = conv.forward(&x, true);
        std::hint::black_box(conv.backward(&ones));
    });

    // --- gate: pairwise vs ring message-complexity crossover sweep ---
    // One clean round per engine per subgroup size, counted on the
    // simulator's ledger. The pairwise engine shares all-to-all (O(n²)
    // messages); Ring-SAC shares only into its successor stage of size
    // ~log₂ n (O(n log n)), so past a small crossover ring must be
    // strictly cheaper. Enforced here rather than in the baseline diff:
    // if ring fails to beat pairwise in both messages and bytes at every
    // swept size from the crossover on — or never crosses at all, or its
    // message growth per size doubling looks quadratic — exit 2.
    let sweep_dim = 256usize;
    let sweep_ns = [4usize, 8, 16, 24, 32];
    let mut rows = Vec::new();
    for &n in &sweep_ns {
        let (pm, pb) = sweep_round(SacEngine::Pairwise, n, sweep_dim);
        let (rm, rb) = sweep_round(SacEngine::Ring, n, sweep_dim);
        println!(
            "crossover n={n:2}: pairwise {pm:5} msgs / {pb:8} B   ring {rm:5} msgs / {rb:8} B"
        );
        rows.push((n, pm, pb, rm, rb));
    }
    // Crossover = the smallest swept n from which ring stays strictly
    // cheaper than pairwise in both messages and bytes.
    let Some(ci) = (0..rows.len()).find(|&i| {
        rows[i..]
            .iter()
            .all(|&(_, pm, pb, rm, rb)| rm < pm && rb < pb)
    }) else {
        eprintln!("crossover gate FAILED: ring never strictly cheaper than pairwise");
        std::process::exit(2);
    };
    let crossover_n = rows[ci].0;
    println!("ring crossover: ring strictly cheaper from n={crossover_n} on");
    // Sub-quadratic check: doubling n under O(n²) multiplies messages by
    // ~4; under O(n log n) by ~2.5. Gate ring's 16→32 growth well below
    // the quadratic slope (pairwise itself sits near 4 here).
    let msgs_at = |n: usize| {
        rows.iter()
            .find(|r| r.0 == n)
            .map(|r| r.3 as f64)
            .expect("swept size")
    };
    let ring_growth = msgs_at(32) / msgs_at(16);
    println!("ring msg growth 16->32: {ring_growth:.2}x (quadratic would be ~4x)");
    if ring_growth >= 3.5 {
        eprintln!("crossover gate FAILED: ring message growth {ring_growth:.2}x looks quadratic");
        std::process::exit(2);
    }

    // --- derived acceptance ratio: blocked matmul speedup over naive ---
    let naive = h.median_of("matmul_naive_256").unwrap() as f64;
    let blocked = h.median_of("matmul_blocked_256").unwrap().max(1) as f64;
    let speedup = naive / blocked;
    println!("matmul blocked speedup at 256x256: {speedup:.2}x");

    let sweep_json: Vec<String> = rows
        .iter()
        .map(|&(n, pm, pb, rm, rb)| {
            format!(
                "{{\"n\": {n}, \"pairwise_msgs\": {pm}, \"pairwise_bytes\": {pb}, \
                 \"ring_msgs\": {rm}, \"ring_bytes\": {rb}}}"
            )
        })
        .collect();
    let json = h.to_json(
        quick,
        &[
            format!("\"matmul_speedup_256\": {speedup:.3}"),
            format!("\"ring_crossover_n\": {crossover_n}"),
            format!("\"ring_crossover\": [{}]", sweep_json.join(", ")),
        ],
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    // --- optional regression gate against a checked-in baseline ---
    if let Some(baseline_path) = baseline_path {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => {
                let baseline = parse_baseline(&text);
                let offenders = check_regressions(h.results(), &baseline, factor);
                if offenders.is_empty() {
                    println!(
                        "perf gate: {} benchmarks within {factor}x of {baseline_path} \
                         (each relative to {HOST_ORACLE})",
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
