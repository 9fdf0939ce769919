//! `compare <a.jsonl> <b.jsonl>`: applies the bounds of `BENCHMARK.json`
//! to two sets of runs (the lines `--out` appends), `a` the parent and `b`
//! the change.
//!
//! Per workload and metric it prints both medians and a verdict: a
//! bounded metric `REGRESSED` when the change's median is worse than the
//! parent's by more than the bound, `improved` when better by more than
//! it, `unresolved` when either side's run-to-run quartile spread exceeds
//! the bound (the medians then say nothing), else `unchanged`. An exact
//! metric must be identical wherever both files ran the same seed, or it
//! is `CHANGED`. Per-layer metrics have no bound and are printed as they
//! are. The exit code is 1 if anything regressed or changed.

use crate::json::{self, Value};
use crate::metrics::{self, Def};
use crate::stats;
use std::process::ExitCode;

/// One line of a runs file.
struct Run {
    workload: String,
    trace: bool,
    seed: u64,
    metrics: Vec<(String, f64)>,
}

fn load_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line)?;
        let field = |key: &str| v.get(key).ok_or(format!("a run has no \"{key}\""));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                value
                    .map(|x| (name.clone(), x))
                    .ok_or(format!("{name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        runs.push(Run {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .into(),
            trace: field("trace")?.as_f64() == Some(1.0),
            seed: field("seed")?.as_f64().ok_or("\"seed\" is not a number")? as u64,
            metrics,
        });
    }
    Ok(runs)
}

/// `name -> bound` for the end-to-end metrics of `BENCHMARK.json`.
fn load_bounds(text: &str) -> Result<Vec<(String, f64)>, String> {
    json::parse(text)?
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or("a metric lacks name or bound".into())
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    Identical,
    Changed,
    /// Exact, but the two files share no seed.
    NoCommonSeed,
    /// No bound: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
            Verdict::NoCommonSeed => "no common seed",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// `(seed, value)` of one metric over the runs of one side.
type Samples = Vec<(u64, f64)>;

fn values(samples: &Samples) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// Quartile spread, 0 when there are too few runs to have one.
fn spread(samples: &Samples) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    stats::quartile_spread(&values(samples))
}

/// Judges one metric of one workload.
pub fn judge(def: &Def, bound: Option<f64>, a: &Samples, b: &Samples) -> Verdict {
    if def.exact {
        let mut common = 0;
        for &(seed, va) in a {
            for &(_, vb) in b.iter().filter(|(s, _)| *s == seed) {
                if va != vb {
                    return Verdict::Changed;
                }
                common += 1;
            }
        }
        return if common > 0 {
            Verdict::Identical
        } else {
            Verdict::NoCommonSeed
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(&values(a)), stats::median(&values(b)));
    let worse_by = if def.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs();
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn samples(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Samples {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| {
            let value = r.metrics.iter().find(|(n, _)| n == metric);
            value.map(|&(_, v)| (r.seed, v))
        })
        .collect()
}

/// The comparison table and whether anything failed.
pub fn report(bounds_text: &str, a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let bounds = load_bounds(bounds_text)?;
    let (a, b) = (load_runs(a_text)?, load_runs(b_text)?);
    let mut table = String::new();
    let mut failed = false;
    for workload in crate::WORKLOADS {
        for (trace, defs) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
            let mut header_done = false;
            for def in defs {
                let sa = samples(&a, workload, trace, def.name);
                let sb = samples(&b, workload, trace, def.name);
                if sa.is_empty() || sb.is_empty() {
                    continue;
                }
                if !header_done {
                    table.push_str(&format!("{workload} (--trace {})\n", trace as u8));
                    header_done = true;
                }
                let bound = bounds.iter().find(|(n, _)| n == def.name).map(|&(_, b)| b);
                let verdict = judge(def, bound, &sa, &sb);
                failed |= verdict.fails();
                let (ma, mb) = (stats::median(&values(&sa)), stats::median(&values(&sb)));
                table.push_str(&format!(
                    "  {:<34} {:>16.6} -> {:>16.6} {:<6} {:+8.2}%  spread {:5.2}% / {:5.2}%  n {}/{}  {}\n",
                    def.name,
                    ma,
                    mb,
                    def.unit,
                    if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() * 100.0 },
                    spread(&sa) * 100.0,
                    spread(&sb) * 100.0,
                    sa.len(),
                    sb.len(),
                    bound.map_or(verdict.label().to_string(), |b| format!(
                        "{} (bound {}%)",
                        verdict.label(),
                        b * 100.0
                    )),
                ));
            }
        }
    }
    if table.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok((table, failed))
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: compare <parent.jsonl> <change.jsonl>   (run from the repo root)");
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let result = read("BENCHMARK.json")
        .and_then(|bounds| Ok((bounds, read(a)?, read(b)?)))
        .and_then(|(bounds, a, b)| report(&bounds, &a, &b));
    match result {
        Ok((table, failed)) => {
            print!("{table}");
            ExitCode::from(failed as u8)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "wire_bytes_per_round", "unit": "B", "better": "lower", "bound": 0.01}]}"#;

    /// One `--out` line, rendered by the same writer the benchmark uses.
    fn line(seed: u64, round_s: f64, bytes: f64) -> String {
        let metric = |v: f64, unit: &str| {
            Value::obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))])
        };
        Value::obj([
            ("workload", Value::Str("sac_fanout_256".into())),
            ("seed", Value::Num(seed as f64)),
            ("trace", Value::Num(0.0)),
            ("correct", Value::Bool(true)),
            (
                "metrics",
                Value::obj([
                    ("round_s", metric(round_s, "s")),
                    ("wire_bytes_per_round", metric(bytes, "B")),
                ]),
            ),
        ])
        .render()
            + "\n"
    }

    fn file(round_s: [f64; 3], bytes: f64) -> String {
        (0..3)
            .map(|i| line(42 + i as u64, round_s[i], bytes))
            .collect()
    }

    #[test]
    fn a_runs_file_round_trips_into_verdicts() {
        let parent = file([0.090, 0.091, 0.092], 18_930_176.0);
        let same = file([0.0915, 0.0905, 0.0925], 18_930_176.0);
        let (table, failed) = report(BOUNDS, &parent, &same).unwrap();
        assert!(!failed, "{table}");
        assert!(table.contains("unchanged (bound 10%)"), "{table}");
        assert!(table.contains("identical"), "{table}");

        let slower = file([0.110, 0.111, 0.112], 18_930_176.0);
        let (table, failed) = report(BOUNDS, &parent, &slower).unwrap();
        assert!(failed && table.contains("REGRESSED"), "{table}");

        let faster = file([0.070, 0.071, 0.072], 18_930_176.0);
        let (table, failed) = report(BOUNDS, &parent, &faster).unwrap();
        assert!(!failed && table.contains("improved"), "{table}");

        // One byte more per round is a change, however small.
        let fatter = file([0.090, 0.091, 0.092], 18_930_177.0);
        let (table, failed) = report(BOUNDS, &parent, &fatter).unwrap();
        assert!(failed && table.contains("CHANGED"), "{table}");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let parent = file([0.090, 0.091, 0.092], 1.0);
        let noisy = file([0.070, 0.091, 0.120], 1.0);
        let (table, failed) = report(BOUNDS, &parent, &noisy).unwrap();
        assert!(!failed && table.contains("unresolved"), "{table}");
        assert!(!table.contains("unchanged"), "{table}");
    }

    #[test]
    fn exact_metrics_need_a_common_seed() {
        let def = metrics::find("wire_bytes_per_round").unwrap();
        let a = vec![(42, 10.0), (43, 11.0)];
        assert_eq!(
            judge(def, Some(0.01), &a, &vec![(43, 11.0)]),
            Verdict::Identical
        );
        assert_eq!(
            judge(def, Some(0.01), &a, &vec![(43, 12.0)]),
            Verdict::Changed
        );
        assert_eq!(
            judge(def, Some(0.01), &a, &vec![(44, 10.0)]),
            Verdict::NoCommonSeed
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(report(BOUNDS, "{\"workload\": 1}", "").is_err());
        assert!(report("{}", "", "").is_err());
        assert!(report(BOUNDS, "not json", "").is_err());
    }
}
