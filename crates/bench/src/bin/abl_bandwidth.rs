//! Ablation — round *latency* under finite link bandwidth. The paper
//! argues in bytes; this experiment runs the actual message-driven SAC
//! protocol on the simulator with a bandwidth model and measures how long
//! one aggregation round takes end-to-end: one-layer SAC over all N peers
//! versus a single n-peer subgroup of the two-layer system (subgroups run
//! in parallel, so the subgroup time *is* the SAC-layer time).
//!
//! Run: `cargo run -rp p2pfl-bench --bin abl_bandwidth -- --params 125000`.

use p2pfl_bench::testkit::sac_config;
use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_secagg::{SacEngine, SacMsg, SacPeerActor, SacPhase, WeightVector};
use p2pfl_simnet::{Latency, LatencyConfig, NodeId, Sim, SimDuration};

/// Runs one n-peer, k-threshold SAC round at the given bandwidth and
/// returns the leader's completion time in virtual milliseconds.
fn round_time(n: usize, k: usize, dim: usize, mbps: u64, seed: u64) -> Option<f64> {
    let mut sim: Sim<SacMsg> = Sim::new(seed);
    let cfg = LatencyConfig::uniform_default(Latency::Constant(SimDuration::from_millis(15)))
        .with_bandwidth(mbps * 1_000_000 / 8);
    sim.set_latency(cfg);
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for i in 0..n {
        let deadline = SimDuration::from_secs(120);
        let cfg = sac_config(&ids, i, k, SacEngine::Pairwise, deadline, seed + i as u64);
        sim.add_node(SacPeerActor::new(cfg, WeightVector::zeros(dim)));
    }
    sim.run_until_quiet(1000);
    let t0 = sim.now();
    sim.exec::<SacPeerActor, _, _>(ids[0], |a, ctx| a.start_round(ctx, 1));
    let deadline = sim.now() + SimDuration::from_secs(600);
    // Step until the leader completes.
    loop {
        if sim.actor::<SacPeerActor>(ids[0]).phase == SacPhase::Done {
            return Some((sim.now() - t0).as_millis_f64());
        }
        if sim.now() >= deadline {
            return None;
        }
        sim.run_for(SimDuration::from_millis(20));
    }
}

fn main() {
    let args = Args::parse();
    // Default to a tenth of the Fig. 5 CNN so the one-layer case stays
    // memory-friendly; the *ratio* between configurations is size-free.
    let dim = args.get_usize("params", 125_000);
    let seed = args.get_u64("seed", 1);
    args.finish();

    banner(
        "Ablation: end-to-end SAC round latency under finite bandwidth",
        "two-layer subgroups aggregate in parallel; one-layer SAC serializes O(N^2) bytes",
    );
    let mut rows = Vec::new();
    for mbps in [100u64, 1000] {
        let one_layer = round_time(30, 30, dim, mbps, seed);
        let subgroup = round_time(3, 2, dim, mbps, seed + 1);
        let subgroup5 = round_time(5, 3, dim, mbps, seed + 2);
        rows.push(format!(
            "{mbps},{},{},{}",
            one_layer.map_or("timeout".into(), |t| format!("{t:.0}")),
            subgroup.map_or("timeout".into(), |t| format!("{t:.0}")),
            subgroup5.map_or("timeout".into(), |t| format!("{t:.0}")),
        ));
    }
    print_csv(
        "link_mbps,one_layer_sac_n30_ms,two_layer_subgroup_3of2_ms,two_layer_subgroup_5of3_ms",
        rows,
    );
    println!("\n# the two-layer SAC phase completes when the slowest subgroup does;");
    println!("# with parallel subgroups that is the per-subgroup time above, while");
    println!("# one-layer SAC must move its entire quadratic share volume.");
}
