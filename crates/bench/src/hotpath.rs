//! Timing harness and regression gate behind the `hotpath` binary.
//!
//! A deliberately small, dependency-free benchmark core: each benchmark
//! runs a fixed, seeded workload for a fixed iteration count, recording
//! per-iteration wall-clock nanoseconds and allocation counts (via
//! [`crate::alloc`]). Results serialize to the flat JSON trajectory file
//! `BENCH_hotpath.json`; [`check_regressions`] compares a fresh run
//! against a checked-in baseline and reports benchmarks whose median,
//! measured against the same run's [`HOST_ORACLE`], exceeded the allowed
//! factor — the perf gate `ci.sh` enforces.

use crate::alloc::allocations;
use std::time::Instant;

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark name (the regression-gate join key).
    pub name: String,
    /// Measured iterations (after one untimed warmup).
    pub iters: usize,
    /// Median per-iteration wall clock, nanoseconds.
    pub median_ns: u64,
    /// 95th-percentile per-iteration wall clock, nanoseconds.
    pub p95_ns: u64,
    /// Mean per-iteration wall clock, nanoseconds.
    pub mean_ns: u64,
    /// Payload bytes one iteration processes (0 when not meaningful).
    pub bytes_per_iter: u64,
    /// Derived throughput, bytes/second (0 when `bytes_per_iter` is 0).
    pub bytes_per_sec: u64,
    /// Mean allocation calls per iteration (counting allocator).
    pub allocs_per_iter: u64,
}

/// Collects [`BenchResult`]s and renders the JSON report.
#[derive(Debug, Default)]
pub struct Harness {
    results: Vec<BenchResult>,
}

impl Harness {
    /// An empty harness.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Runs `f` for `iters` timed iterations (plus one warmup) and
    /// records the result. `bytes_per_iter` annotates throughput-style
    /// benchmarks; pass 0 where bytes are not the natural unit.
    pub fn bench(&mut self, name: &str, iters: usize, bytes_per_iter: u64, mut f: impl FnMut()) {
        assert!(iters > 0, "need at least one iteration");
        f(); // warmup: page in buffers, warm caches, JIT nothing (it's Rust)
        let mut samples_ns = Vec::with_capacity(iters);
        let allocs_before = allocations();
        for _ in 0..iters {
            let t = Instant::now();
            f();
            samples_ns.push(t.elapsed().as_nanos() as u64);
        }
        let allocs = allocations() - allocs_before;
        samples_ns.sort_unstable();
        let median_ns = samples_ns[samples_ns.len() / 2];
        let p95_ns = samples_ns[((samples_ns.len() * 95).div_ceil(100)).saturating_sub(1)];
        let mean_ns = samples_ns.iter().sum::<u64>() / iters as u64;
        let bytes_per_sec = if bytes_per_iter > 0 && median_ns > 0 {
            (bytes_per_iter as f64 * 1e9 / median_ns as f64) as u64
        } else {
            0
        };
        let r = BenchResult {
            name: name.to_string(),
            iters,
            median_ns,
            p95_ns,
            mean_ns,
            bytes_per_iter,
            bytes_per_sec,
            allocs_per_iter: allocs / iters as u64,
        };
        println!(
            "{:<24} median {:>12} ns   p95 {:>12} ns   {:>8} allocs/iter{}",
            r.name,
            r.median_ns,
            r.p95_ns,
            r.allocs_per_iter,
            if r.bytes_per_sec > 0 {
                format!("   {:.1} MB/s", r.bytes_per_sec as f64 / 1e6)
            } else {
                String::new()
            }
        );
        self.results.push(r);
    }

    /// The results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Median of the named benchmark, if it ran.
    pub fn median_of(&self, name: &str) -> Option<u64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    }

    /// Renders the machine-readable report. `extra` lines are injected
    /// verbatim as top-level fields (already-formatted `"key": value`
    /// pairs, e.g. derived speedups).
    pub fn to_json(&self, quick: bool, extra: &[String]) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"p2pfl-bench/hotpath/v1\",\n");
        s.push_str(&format!("  \"quick\": {quick},\n"));
        for line in extra {
            s.push_str(&format!("  {line},\n"));
        }
        s.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
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
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Extracts `(name, median_ns)` pairs from a hotpath JSON report. A tiny
/// purpose-built scanner (the workspace has no JSON parser): it walks
/// `"name": "..."` / `"median_ns": N` key orders as `to_json` emits them,
/// which is also stable across hand edits that preserve the field order.
pub fn parse_baseline(json: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + 9..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_string();
        let Some(j) = rest.find("\"median_ns\": ") else {
            break;
        };
        rest = &rest[j + 13..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(v) = digits.parse() {
            out.push((name, v));
        }
    }
    out
}

/// The benchmark the gate measures every other against: the naive matmul
/// oracle (`p2pfl_ml::reference`), code no change optimises, so how much
/// slower it runs than in the baseline is how much slower the host is.
pub const HOST_ORACLE: &str = "matmul_naive_256";

/// Compares fresh medians against a baseline, each as a multiple of its
/// own run's [`HOST_ORACLE`] median (raw medians when either run lacks
/// it): returns one line per benchmark whose multiple grew by more than
/// `factor`. A uniformly slower host therefore passes; a kernel that got
/// slower than the oracle did fails. Benchmarks present on only one side
/// are ignored (new benchmarks must not fail the gate; retired ones must
/// not block baseline refreshes).
pub fn check_regressions(
    current: &[BenchResult],
    baseline: &[(String, u64)],
    factor: f64,
) -> Vec<String> {
    let oracle_now = current.iter().find(|r| r.name == HOST_ORACLE);
    let oracle_then = baseline.iter().find(|(n, _)| n == HOST_ORACLE);
    let host = match (oracle_now, oracle_then) {
        (Some(now), Some((_, then))) if now.median_ns > 0 && *then > 0 => {
            now.median_ns as f64 / *then as f64
        }
        _ => 1.0,
    };
    let mut offenders = Vec::new();
    for r in current {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) else {
            continue;
        };
        let growth = r.median_ns as f64 / *base as f64 / host;
        if *base > 0 && growth > factor {
            offenders.push(format!(
                "{}: median {} ns vs baseline {} ns, {growth:.2}x after the host's \
                 {host:.2}x on {HOST_ORACLE} (> {factor}x allowed)",
                r.name, r.median_ns, base,
            ));
        }
    }
    offenders
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, median: u64) -> BenchResult {
        BenchResult {
            name: name.into(),
            iters: 3,
            median_ns: median,
            p95_ns: median,
            mean_ns: median,
            bytes_per_iter: 0,
            bytes_per_sec: 0,
            allocs_per_iter: 0,
        }
    }

    #[test]
    fn json_round_trips_through_baseline_parser() {
        let mut h = Harness::new();
        h.bench("spin", 3, 128, || {
            std::hint::black_box(1 + 1);
        });
        h.bench("spin2", 3, 0, || {
            std::hint::black_box(2 + 2);
        });
        let json = h.to_json(true, &["\"matmul_speedup_256\": 4.5".into()]);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "spin");
        assert_eq!(parsed[0].1, h.results()[0].median_ns);
        assert!(json.contains("\"matmul_speedup_256\": 4.5"));
        assert!(json.contains("\"bytes_per_iter\": 128"));
    }

    #[test]
    fn regression_gate_flags_only_true_regressions() {
        let current = vec![result("a", 1000), result("b", 4000), result("new", 9)];
        let baseline = vec![
            ("a".to_string(), 900),
            ("b".to_string(), 1000),
            ("retired".to_string(), 5),
        ];
        let bad = check_regressions(&current, &baseline, 2.0);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("b:"), "{}", bad[0]);
    }

    fn baseline() -> Vec<(String, u64)> {
        vec![
            (HOST_ORACLE.to_string(), 16_000),
            ("blocked".to_string(), 4_000),
            ("im2col".to_string(), 1_000),
        ]
    }

    #[test]
    fn a_uniformly_slower_host_passes_the_gate() {
        let current = vec![
            result(HOST_ORACLE, 32_000),
            result("blocked", 8_000),
            result("im2col", 2_000),
        ];
        let bad = check_regressions(&current, &baseline(), 2.0);
        assert!(bad.is_empty(), "{bad:?}");
        // The raw medians doubled: without the oracle they sit on the
        // threshold, and a little host noise on top fails them.
        let noisy: Vec<BenchResult> = current
            .iter()
            .map(|r| result(&r.name, r.median_ns * 11 / 10))
            .collect();
        let raw: Vec<(String, u64)> = baseline().into_iter().skip(1).collect();
        assert_eq!(check_regressions(&noisy, &raw, 2.0).len(), 2);
        assert!(check_regressions(&noisy, &baseline(), 2.0).is_empty());
    }

    #[test]
    fn a_kernel_slower_than_the_oracle_fails_the_gate() {
        // The host is 2x slower, and im2col 2.5x slower on top of that.
        let current = vec![
            result(HOST_ORACLE, 32_000),
            result("blocked", 8_000),
            result("im2col", 5_000),
        ];
        let bad = check_regressions(&current, &baseline(), 2.0);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("im2col:"), "{}", bad[0]);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Harness::new();
        h.bench("t", 20, 0, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        let r = &h.results()[0];
        assert!(r.median_ns <= r.p95_ns);
        assert_eq!(r.iters, 20);
    }
}
