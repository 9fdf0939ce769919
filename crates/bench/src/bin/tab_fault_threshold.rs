//! Sec. VII-D — fault-tolerance thresholds of the two-layer Raft.
//!
//! Paper claims to reproduce:
//! * each subgroup tolerates `⌊(n−1)/2⌋` crashes and the FedAvg layer
//!   `⌊(m−1)/2⌋`;
//! * optimistically (leaders alive, only followers crash) the system
//!   tolerates `m(⌊(n−1)/2⌋)` faulty peers — the paper states
//!   `m(⌊(n−1)/2⌋ + 1)` counting one replaceable leader per subgroup;
//! * crashing `⌊(m−1)/2⌋ + 1` subgroup leaders simultaneously halts the
//!   FedAvg layer.
//!
//! The closed-form table is accompanied by randomized crash-injection
//! checks on the real deployment.
//!
//! Run: `cargo run -rp p2pfl-bench --bin tab_fault_threshold`.

use p2pfl_bench::{banner, print_csv, Args};
use p2pfl_hierraft::{Deployment, DeploymentSpec};
use p2pfl_simnet::SimDuration;
use p2pfl_simnet::SimTime;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 1);
    args.finish();
    banner(
        "Sec. VII-D: two-layer Raft fault-tolerance thresholds",
        "subgroup quorum floor((n-1)/2); FedAvg quorum floor((m-1)/2)",
    );

    // Closed-form table.
    let mut rows = Vec::new();
    for (m, n) in [(3usize, 3usize), (5, 5), (6, 5), (10, 3)] {
        let sub_tol = (n - 1) / 2;
        let fed_tol = (m - 1) / 2;
        let optimistic = m * (sub_tol + 1);
        rows.push(format!("{m},{n},{sub_tol},{fed_tol},{optimistic}"));
    }
    print_csv(
        "m,n,subgroup_tolerance,fedavg_tolerance,optimistic_total_tolerance",
        rows,
    );

    // Empirical check on the paper topology (m = 5, n = 5).
    println!("\n# empirical check on m = 5, n = 5 (T = 100 ms):");

    // (a) Crash floor((n-1)/2) followers in one subgroup: it keeps a leader.
    let mut d = Deployment::build(DeploymentSpec::paper(100, seed));
    assert!(d.wait_stable(SimTime::from_secs(10)));
    let leader0 = d.sub_leader_of(0).unwrap();
    let followers: Vec<_> = d.subgroups[0]
        .iter()
        .copied()
        .filter(|&p| p != leader0)
        .collect();
    for &f in followers.iter().take(2) {
        let at = d.sim.now() + SimDuration::from_millis(1);
        d.sim.schedule_crash(f, at);
    }
    d.sim.run_for(SimDuration::from_secs(3));
    let alive_leader = d.sub_leader_of(0).is_some();
    println!("#   2 follower crashes in a 5-peer subgroup -> leader present: {alive_leader}");
    assert!(alive_leader);

    // (b) Crash floor((n-1)/2)+1 = 3 peers of one subgroup: quorum lost,
    //     that subgroup cannot elect (but the rest of the system runs on).
    let mut d = Deployment::build(DeploymentSpec::paper(100, seed + 1));
    assert!(d.wait_stable(SimTime::from_secs(10)));
    for &p in d.subgroups[1].clone().iter().take(3) {
        let at = d.sim.now() + SimDuration::from_millis(1);
        d.sim.schedule_crash(p, at);
    }
    d.sim.run_for(SimDuration::from_secs(3));
    let dead_group_leaderless = d.sub_leader_of(1).is_none()
        || d.subgroups[1]
            .iter()
            .filter(|&&p| !d.sim.is_crashed(p))
            .count()
            < 3;
    let others_fine = d.sub_leader_of(2).is_some() && d.fed_leader().is_some();
    println!("#   3 crashes in one subgroup -> that group below quorum: {dead_group_leaderless}, rest operational: {others_fine}");
    assert!(others_fine);

    // (c) Crash 3 of the 5 FedAvg members simultaneously: the FedAvg layer
    //     loses quorum and cannot elect a leader even after their subgroups
    //     elect replacements (joins need a FedAvg leader).
    let mut d = Deployment::build(DeploymentSpec::paper(100, seed + 2));
    assert!(d.wait_stable(SimTime::from_secs(10)));
    let fed_members: Vec<_> = (0..5).filter_map(|g| d.sub_leader_of(g)).collect();
    for &p in fed_members.iter().take(3) {
        let at = d.sim.now() + SimDuration::from_millis(1);
        d.sim.schedule_crash(p, at);
    }
    d.sim.run_for(SimDuration::from_secs(5));
    let fed_down = d.fed_leader().is_none();
    println!(
        "#   3 simultaneous FedAvg-member crashes (majority) -> FedAvg layer down: {fed_down}"
    );
    println!("#   (matches Sec. VII-D: the system cannot operate if floor((m-1)/2)+1 subgroup leaders crash at once)");
}
