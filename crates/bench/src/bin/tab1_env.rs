//! Table I — evaluation environment.
//!
//! The paper's Table I lists its testbed machine. This reproduction runs
//! everything on a deterministic discrete-event simulator, so wall-clock
//! hardware does not affect any reported number except benchmark
//! throughput; this binary records the substitution and the current host
//! for the EXPERIMENTS.md ledger.

use p2pfl_bench::{banner, Args};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn main() {
    Args::parse().finish();
    banner(
        "Table I: evaluation environment",
        "paper: single machine + tc netem 15 ms; here: seeded discrete-event simulation",
    );
    println!("substitution: real TCP + `tc netem` -> p2pfl-simnet virtual time");
    println!("  * link delay: constant 15 ms (Latency::paper_default), configurable");
    println!("  * election timeouts: U(T, 2T), T in {{50, 100, 150, 200}} ms");
    println!("  * all results are deterministic given a seed\n");

    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mem_kb = read("/proc/meminfo")
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("MemTotal")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0);
    let os = read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    println!("host cpu:    {cpu}");
    println!("host memory: {:.1} GiB", mem_kb as f64 / 1024.0 / 1024.0);
    println!("host kernel: {}", os.trim());
    println!(
        "rustc:       {}",
        option_env!("RUSTC_VERSION").unwrap_or("(cargo default)")
    );
}
