//! The metric registry: every name the benchmark prints, with its unit,
//! its direction and whether it repeats exactly for a seed. Bounds live in
//! `BENCHMARK.json`; a test checks that file against this table.

/// One metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Repeats to the last digit for a seed: `compare` demands identity.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("round_s", "s"),
    lower("time_to_target_s", "s"),
    lower("cpu_s_per_round", "s"),
    exact("wire_bytes_per_round", "B"),
    lower("peak_rss_mib", "MiB"),
];

/// Single layers, timed from outside; printed with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    lower("core.round_self_s", "s"),
    lower("core.round_tail_s", "s"),
    exact("core.round_tail_pct", "%"),
    lower("core.trace_coverage", "ratio"),
    lower("core.trace_overhead_share", "ratio"),
    lower("hierraft.settle_s", "s"),
    exact("hierraft.settle_msgs", "count"),
    exact("hierraft.control_bytes_per_round", "B"),
    exact("hierraft.failover_virtual_ms", "virtual_ms"),
    lower("hierraft.failover_wall_ms", "ms"),
    exact("hierraft.failover_failed", "count"),
    lower("raft.commit_us_per_entry", "us"),
    exact("raft.msgs_per_commit", "count"),
    higher("simnet.events_per_s", "1/s"),
    lower("ml.train_step_us", "us"),
    lower("ml.eval_s", "s"),
    exact("ml.rounds_to_target", "count"),
    Def {
        name: "ml.final_accuracy",
        unit: "ratio",
        higher_is_better: true,
        exact: true,
    },
    lower("fed.train_s", "s"),
    higher("fed.train_samples_per_s", "1/s"),
    lower("fed.combine_s", "s"),
    lower("secagg.ftsac_s", "s"),
    lower("secagg.engine_round_s", "s"),
    exact("secagg.msgs_per_round", "count"),
    lower("secagg.divide_ns_per_param", "ns"),
    lower("secagg.accumulate_ns_per_param", "ns"),
    lower("secagg.digest_ns_per_param", "ns"),
    lower("net.codec_encode_s", "s"),
    lower("net.codec_decode_s", "s"),
    exact("net.codec_allocs_per_frame", "count"),
    lower("net.reactor_self_s", "s"),
    exact("net.frames_per_round", "count"),
    higher("net.frames_coalesced_share", "ratio"),
    lower("net.send_queue_peak", "count"),
    exact("net.reconnects", "count"),
    exact("net.sends_dropped", "count"),
    exact("net.decode_errors", "count"),
    lower("net.echo_rtt_us", "us"),
    higher("net.small_frames_per_s", "1/s"),
    higher("net.bulk_mib_per_s", "MiB/s"),
    lower("net.dial_mesh_s", "s"),
    lower("mem.allocs_per_round", "count"),
    lower("mem.alloc_bytes_per_round", "B"),
    lower("host.spin_ms", "ms"),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values, in the order they were put.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "{name} is not a registered metric");
        assert!(value.is_finite(), "{name} measured {value}");
        assert!(self.get(name).is_none(), "{name} measured twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn merge(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.put(name, value);
        }
    }
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    /// Subgroup-rounds attempted.
    pub attempted: u64,
    /// Subgroup-rounds that failed, timed out or disagreed with the twin.
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Things worth a line in the human-readable output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Adds what another part of the same run produced.
    pub fn absorb(&mut self, other: Outcome) {
        self.values.merge(other.values);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and this table must name the same metrics with the
    /// same units and directions, or the driver and the benchmark disagree
    /// about what is printed.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            let names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name"))
                .collect();
            let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, ours, "{key} names");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(
                    m.get("unit").and_then(|u| u.as_str()),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    m.get("better").and_then(|b| b.as_str()),
                    Some(better),
                    "{}",
                    d.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
