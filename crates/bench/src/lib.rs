//! Shared plumbing for the figure-reproduction binaries, and the test
//! harness ([`testkit`]) the root integration tests share with the bins.
//!
//! Every figure binary under `src/bin/` regenerates one table or figure
//! (or one figure pair drawn from the same run) of the paper and prints
//! it as a small CSV-ish report to stdout, so
//! `cargo run -rp p2pfl-bench --bin figNN_...` is the whole reproduction
//! recipe. Binaries accept `--key value` flags (see [`Args`]) to scale up
//! to the paper's full round/trial counts, and refuse any other flag.

pub mod alloc;
pub mod hotpath;
pub mod testkit;

use p2pfl::experiment::Series;
use p2pfl::system::RoundRecord;
use p2pfl_ml::metrics::MovingAverage;
use std::cell::RefCell;
use std::collections::HashMap;

/// Minimal `--key value` argument parser (no external dependencies).
///
/// Every `get_*` call records the key it looks up. A binary reads all of
/// its flags first and then calls [`Args::finish`], which refuses any
/// flag that was passed but never read: a misspelt, retired or (on the
/// chosen code path) ignored flag must not silently run the default
/// experiment.
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    read: RefCell<Vec<String>>,
}

impl Args {
    /// Parses the process arguments; a stray value exits with status 2.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Parses an explicit iterator (testable form).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            let val = if it.peek().is_some_and(|n| !n.starts_with("--")) {
                it.next().unwrap()
            } else {
                "true".to_string()
            };
            values.insert(key.to_string(), val);
        }
        Ok(Args {
            values,
            read: RefCell::new(Vec::new()),
        })
    }

    /// Exits with status 2 if a flag was passed that no `get_*` call read,
    /// naming it and the flags this run accepts.
    pub fn finish(self) {
        if let Err(e) = self.unread() {
            exit_usage(&e);
        }
    }

    /// The check behind [`Args::finish`] (testable form).
    pub fn unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let Some(key) = self.values.keys().filter(|k| !read.contains(k)).min() else {
            return Ok(());
        };
        let accepted = if read.is_empty() {
            "no flags".to_string()
        } else {
            read.iter()
                .map(|k| format!("--{k}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        Err(format!("unknown flag --{key}; accepted: {accepted}"))
    }

    fn get(&self, key: &str) -> Option<&String> {
        let mut read = self.read.borrow_mut();
        if !read.iter().any(|k| k == key) {
            read.push(key.to_string());
        }
        self.values.get(key)
    }

    /// An integer flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// A u64 flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// A float flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    /// A boolean switch.
    pub fn get_flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// A string flag, `None` when absent.
    pub fn get_str(&self, key: &str) -> Option<String> {
        self.get(key).cloned()
    }
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Prints a CSV header and rows through one writer lock.
pub fn print_csv(header: &str, rows: impl IntoIterator<Item = String>) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    writeln!(lock, "{header}").unwrap();
    for r in rows {
        writeln!(lock, "{r}").unwrap();
    }
}

/// The rows of one sweep's accuracy and loss figures, under the header
/// `series,round,test_accuracy_ma,train_loss_ma`: per series and round,
/// test accuracy and training loss, each a moving average over `window`
/// rounds.
pub fn accuracy_loss_rows(series: &[Series], window: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for s in series {
        let smooth = |f: fn(&RoundRecord) -> f64| {
            MovingAverage::smooth(window, &s.records.iter().map(f).collect::<Vec<_>>())
        };
        let acc = smooth(|r| r.test_accuracy);
        let loss = smooth(|r| r.train_loss);
        for ((r, acc), loss) in s.records.iter().zip(&acc).zip(&loss) {
            rows.push(format!("{},{},{acc:.4},{loss:.4}", s.label, r.round));
        }
    }
    rows
}

/// A figure banner with the paper reference, so output is self-describing.
pub fn banner(figure: &str, claim: &str) {
    println!("# {figure}");
    println!("# paper reference: {claim}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        Args::from_args(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args(&["--rounds", "100", "--full", "--seed", "7"]).unwrap();
        assert_eq!(a.get_usize("rounds", 1), 100);
        assert_eq!(a.get_u64("seed", 0), 7);
        assert!(a.get_flag("full"));
        assert!(!a.get_flag("missing"));
        assert_eq!(a.get_f64("missing", 2.5), 2.5);
        assert_eq!(a.unread(), Ok(()));
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]).unwrap();
        assert_eq!(a.get_usize("rounds", 150), 150);
    }

    #[test]
    fn unknown_flags_and_stray_values_are_refused() {
        let a = args(&["--trial", "1000"]).unwrap();
        a.get_u64("trials", 200);
        a.get_u64("seed", 0);
        let e = a.unread().unwrap_err();
        assert!(e.contains("--trial;"), "{e}");
        assert!(e.contains("--trials --seed"), "{e}");
        let e = args(&["1000"]).unwrap_err();
        assert!(e.contains("'1000'"), "{e}");
        assert!(args(&["--churn"])
            .unwrap()
            .unread()
            .unwrap_err()
            .contains("no flags"));
    }
}
