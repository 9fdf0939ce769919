//! Order statistics and the in-memory span recorder.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them - the rule the acceptance check uses.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4, one-based, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [u32; 5] = [99, 95, 90, 80, 50];

/// The highest percentile with at least ten samples beyond it, and its
/// value (nearest rank). With fewer than twenty samples no percentile
/// qualifies and the maximum is reported as percentile 100.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_PERCENTILES {
        let rank = (n * p as usize).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100, v[n - 1])
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fed.train`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The round every span of one round shares.
    pub round: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, round: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, round);
        let out = f();
        self.end(id);
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns - covered) as f64 * 1e-9
}

/// Per-round totals of the spans called `name`, in round order of first
/// appearance.
pub fn per_round_totals(spans: &[Span], name: &str) -> Vec<f64> {
    let mut rounds: Vec<(u64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match rounds.last_mut() {
            Some((r, total)) if *r == s.round => *total += s.seconds(),
            _ => rounds.push((s.round, s.seconds())),
        }
    }
    rounds.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // 1500 samples: p99 leaves 15 beyond.
        assert_eq!(tail(&ramp(1500)), (99, 1485.0));
        // 999 samples: p99 leaves 9 beyond (rank 990), p95 leaves 49.
        assert_eq!(tail(&ramp(999)).0, 95);
        // 350 -> p95 (17 beyond), 100 -> p90 (10 beyond), 50 -> p80.
        assert_eq!(tail(&ramp(350)), (95, 333.0));
        assert_eq!(tail(&ramp(100)), (90, 90.0));
        assert_eq!(tail(&ramp(50)), (80, 40.0));
        // 20 samples: p50 leaves exactly 10 beyond; 19 samples: nothing does.
        assert_eq!(tail(&ramp(20)), (50, 10.0));
        assert_eq!(tail(&ramp(19)), (100, 19.0));
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, 1_000, None),
            span(100, 300, Some(0)),
            span(300, 600, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span(120, 200, Some(1)),
        ];
        assert!((self_seconds(&spans, 0) - 500e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 1) - 120e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 3) - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        let spans = vec![
            span(100, 1_100, None),
            span(200, 600, Some(0)),
            span(400, 800, Some(0)),
            span(1_000, 1_500, Some(0)),
        ];
        // Covered: [200, 800) and [1000, 1100) = 700 of 1000.
        assert!((self_seconds(&spans, 0) - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn per_round_totals_sum_repeated_spans_of_a_round() {
        let mut spans = vec![span(0, 10, None), span(10, 30, None), span(50, 90, None)];
        spans[2].round = 2;
        let totals = per_round_totals(&spans, "t");
        assert_eq!(totals.len(), 2);
        assert!((totals[0] - 30e-9).abs() < 1e-15 && (totals[1] - 40e-9).abs() < 1e-15);
    }
}
