//! The repo benchmark: four round-loop workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced run that times calls
//! into each layer's public API from outside. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process per workload. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod probes;
mod reactor;
mod session;
mod stats;

use json::Value;
use metrics::{Def, Outcome};
use stats::Tracer;
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workload names later issues cite; fixed.
pub const WORKLOADS: [&str; 4] = [
    "session_mlp_30",
    "sac_bulk_cnn_3",
    "sac_fanout_256",
    "ring_bulk_16",
];

const USAGE: &str =
    "usage: --workload <session_mlp_30|sac_bulk_cnn_3|sac_fanout_256|ring_bulk_16> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <file>]\n       \
                     compare <parent.jsonl> <change.jsonl>";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} cannot be {value}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload \"{}\"", o.workload));
    }
    if !(o.seconds > 0.0 && o.seconds <= 120.0) {
        return Err(format!("--seconds cannot be {}", o.seconds));
    }
    Ok(o)
}

/// Open files `sac_fanout_256` needs: both ends of its 896 links live in
/// this process, plus listener, wake pipe and standard streams.
const FANOUT_MIN_FDS: u64 = 2048;

fn preflight(workload: &str) -> Result<(), String> {
    if workload != "sac_fanout_256" {
        return Ok(());
    }
    match host::max_open_files() {
        Some(limit) if limit < FANOUT_MIN_FDS => Err(format!(
            "sac_fanout_256 holds both ends of 896 loopback links and needs {FANOUT_MIN_FDS} open \
             files, but the limit is {limit} (see /proc/self/limits); raise it with `ulimit -n {FANOUT_MIN_FDS}`"
        )),
        _ => Ok(()),
    }
}

fn run_workload(o: &Options, tracer: &mut Tracer) -> Outcome {
    let reactor_workload = reactor::WORKLOADS.iter().find(|w| w.name == o.workload);
    match (reactor_workload, o.trace) {
        (None, false) => session::run(o.seed, o.seconds),
        (None, true) => {
            let mut out = session::trace(o.seed, tracer);
            out.absorb(reactor::probe(o.seed));
            out.absorb(probes::run(o.seed, &layers::SESSION_SHAPE));
            out
        }
        (Some(w), false) => reactor::run(w, o.seed, o.seconds),
        (Some(w), true) => {
            let mut out = reactor::trace(w, o.seed, tracer);
            out.absorb(session::probe(o.seed));
            out.absorb(probes::run(o.seed, &w.shape));
            out
        }
    }
}

/// Where build products go: the trace file is one of them.
fn target_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), Into::into)
}

fn write_trace(o: &Options, tracer: &Tracer) -> std::io::Result<std::path::PathBuf> {
    let spans = tracer
        .spans
        .iter()
        .map(|s| {
            Value::obj([
                ("name", Value::Str(s.name.into())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("round", Value::Num(s.round as f64)),
            ])
        })
        .collect();
    let doc = Value::obj([
        ("workload", Value::Str(o.workload.clone())),
        ("seed", Value::Num(o.seed as f64)),
        ("spans", Value::Arr(spans)),
    ]);
    let dir = target_dir().join("benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}.json", o.workload));
    std::fs::write(&path, doc.render() + "\n")?;
    Ok(path)
}

fn result_object(defs: &[Def], out: &Outcome) -> Value {
    let metrics = defs.iter().map(|d| {
        let value = out.values.get(d.name).unwrap_or(0.0);
        let entry = Value::obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(d.unit.into())),
        ]);
        (d.name, entry)
    });
    Value::obj([
        ("correct", Value::Bool(out.problems.is_empty())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

fn run(o: &Options) -> Result<bool, String> {
    preflight(&o.workload)?;
    let defs = if o.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };

    let spin_before = host::spin_ms();
    let mut tracer = Tracer::new();
    let mut out = run_workload(o, &mut tracer);
    let spin_after = host::spin_ms();
    if o.trace {
        out.values
            .put("host.spin_ms", (spin_before + spin_after) / 2.0);
    }
    let drift = (spin_after - spin_before).abs() / spin_before;
    if drift > 0.10 {
        out.notes.push(format!(
            "noisy: the host spin loop took {spin_before:.1} ms before and {spin_after:.1} ms after"
        ));
    }
    let attempted = out.attempted;
    out.check(attempted >= 1, || "nothing was attempted".to_string());
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} subgroup-rounds failed"));
    for d in defs {
        let measured = out.values.get(d.name).is_some();
        out.check(measured, || format!("{} was not measured", d.name));
    }

    println!(
        "# {} seed {} seconds {} trace {} on {} cores",
        o.workload,
        o.seed,
        o.seconds,
        o.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for d in defs {
        println!(
            "{:<36} {:>20} {}",
            d.name,
            out.values.get(d.name).unwrap_or(0.0),
            d.unit
        );
    }
    for problem in &out.problems {
        println!("FAILED CHECK: {problem}");
    }
    if o.trace {
        let path = write_trace(o, &tracer).map_err(|e| format!("writing the trace: {e}"))?;
        println!(
            "# {} spans written to {}",
            tracer.spans.len(),
            path.display()
        );
    }

    let result = result_object(defs, &out);
    if let Some(path) = &o.out {
        let Value::Obj(mut fields) = result.clone() else {
            unreachable!("the result is an object");
        };
        fields.insert(0, ("workload".into(), Value::Str(o.workload.clone())));
        fields.insert(1, ("seed".into(), Value::Num(o.seed as f64)));
        fields.insert(2, ("trace".into(), Value::Num(o.trace as u8 as f64)));
        let line = Value::Obj(fields).render() + "\n";
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(out.problems.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
