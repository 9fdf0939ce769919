//! Shared plumbing for the figure-reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper and prints it as a small CSV-ish report to stdout, so
//! `cargo run -rp p2pfl-bench --bin figNN_...` is the whole reproduction
//! recipe. Binaries accept `--key value` flags (see [`Args`]) to scale up
//! to the paper's full round/trial counts.

pub mod alloc;
pub mod hotpath;

use std::collections::HashMap;

/// Minimal `--key value` argument parser (no external dependencies).
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable form).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let val = if it.peek().is_some_and(|n| !n.starts_with("--")) {
                    it.next().unwrap()
                } else {
                    "true".to_string()
                };
                values.insert(key.to_string(), val);
            }
        }
        Args { values }
    }

    /// An integer flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// A u64 flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// A float flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    /// A boolean switch.
    pub fn get_flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// A string flag, `None` when absent.
    pub fn get_str(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }
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

/// Tells every reactor-hosted peer in `handles` where every other one
/// listens (full mesh; the lower id of each pair dials).
pub fn mesh<M, A>(handles: &[p2pfl_net::PeerHandle<M, A>]) {
    for a in handles {
        for b in handles {
            if a.node_id() != b.node_id() {
                a.add_peer(b.node_id(), b.local_addr());
            }
        }
    }
}

/// Polls a reactor-hosted pairwise leader until its round completes and
/// returns the published result; panics, naming `what`, if the round
/// fails or stalls.
pub fn wait_round(
    leader: &p2pfl_net::PeerHandle<p2pfl_secagg::SacMsg, p2pfl_secagg::SacPeerActor>,
    what: &str,
) -> p2pfl_secagg::WeightVector {
    use p2pfl_secagg::SacPhase;
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        match leader.with(|a, _| (a.phase.clone(), a.result.clone())) {
            (SacPhase::Done, Some(result)) => return result,
            (SacPhase::Failed(e), _) => panic!("{what} failed: {e}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "{what} stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A figure banner with the paper reference, so output is self-describing.
pub fn banner(figure: &str, claim: &str) {
    println!("# {figure}");
    println!("# paper reference: {claim}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_args(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args(&["--rounds", "100", "--full", "--seed", "7"]);
        assert_eq!(a.get_usize("rounds", 1), 100);
        assert_eq!(a.get_u64("seed", 0), 7);
        assert!(a.get_flag("full"));
        assert!(!a.get_flag("other"));
        assert_eq!(a.get_f64("missing", 2.5), 2.5);
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.get_usize("rounds", 150), 150);
    }
}
