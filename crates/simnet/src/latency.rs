//! Link latency models.
//!
//! The paper's testbed injects a constant 15 ms one-way delay with
//! `tc netem`. We support that plus uniform jitter.

use crate::time::SimDuration;
use rand::Rng;

/// A one-way link latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Lower bound (inclusive).
        min: SimDuration,
        /// Upper bound (inclusive).
        max: SimDuration,
    },
}

impl Latency {
    /// The paper's `tc netem` setting: a constant 15 ms one-way delay.
    pub const fn paper_default() -> Latency {
        Latency::Constant(SimDuration::from_millis(15))
    }

    /// Draws a latency sample using `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            Latency::Constant(d) => d,
            Latency::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform latency bounds inverted");
                if min == max {
                    min
                } else {
                    SimDuration::from_nanos(rng.random_range(min.as_nanos()..=max.as_nanos()))
                }
            }
        }
    }
}

/// Network-wide latency configuration: one distribution for every link,
/// and an optional shared bandwidth model that adds a serialization delay
/// proportional to message size (so a 5 MB model transfer takes
/// realistically longer than a 32-byte RPC).
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    default: Latency,
    bandwidth_bytes_per_sec: Option<u64>,
}

impl LatencyConfig {
    /// A configuration where every link follows `default`.
    pub fn uniform_default(default: Latency) -> Self {
        LatencyConfig {
            default,
            bandwidth_bytes_per_sec: None,
        }
    }

    /// Adds a per-link bandwidth: every message's delivery is delayed by
    /// an additional `bytes / bandwidth` on top of the propagation
    /// latency. `None` (the default) models infinitely fast links, which
    /// matches the paper's `tc netem`-only setup.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        self.bandwidth_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// The serialization delay for a message of `bytes` bytes.
    pub fn transmission_delay(&self, bytes: u64) -> SimDuration {
        match self.bandwidth_bytes_per_sec {
            None => SimDuration::ZERO,
            Some(bw) => {
                let ns = (bytes as u128 * 1_000_000_000u128) / bw as u128;
                SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
            }
        }
    }

    /// The paper setting: constant 15 ms everywhere.
    pub fn paper_default() -> Self {
        Self::uniform_default(Latency::paper_default())
    }

    /// Samples one link's propagation delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        self.default.sample(rng)
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Latency::Constant(SimDuration::from_millis(15));
        for _ in 0..10 {
            assert_eq!(l.sample(&mut rng), SimDuration::from_millis(15));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let min = SimDuration::from_millis(5);
        let max = SimDuration::from_millis(10);
        let l = Latency::Uniform { min, max };
        for _ in 0..1000 {
            let s = l.sample(&mut rng);
            assert!(s >= min && s <= max, "sample {s} out of bounds");
        }
    }

    #[test]
    fn uniform_degenerate_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SimDuration::from_millis(7);
        let l = Latency::Uniform { min: d, max: d };
        assert_eq!(l.sample(&mut rng), d);
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = LatencyConfig::uniform_default(Latency::Constant(SimDuration::from_millis(15)))
            .with_bandwidth(1_000_000); // 1 MB/s
        assert_eq!(cfg.sample(&mut rng), SimDuration::from_millis(15));
        // 500 kB at 1 MB/s = 500 ms of serialization.
        assert_eq!(
            cfg.transmission_delay(500_000),
            SimDuration::from_millis(500)
        );
        // Tiny control message: essentially just propagation.
        assert_eq!(cfg.transmission_delay(16).as_nanos(), 16_000);
        // Without bandwidth, size is free.
        let free = LatencyConfig::paper_default();
        assert_eq!(free.transmission_delay(500_000), SimDuration::ZERO);
    }
}
