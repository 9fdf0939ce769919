//! Closed-form communication-cost model (paper Sec. VII, Eqs. 4, 5, 10).
//!
//! All formulas count transferred *model-sized units* `|w|`; helpers
//! convert to bits/bytes given a parameter count (32-bit wire floats, as
//! in the paper's PyTorch models). The integration tests in
//! `tests/cost_vs_protocol.rs` verify these formulas against executed
//! rounds: the Figs. 6-9 trainer's ledger, and one subgroup round both on
//! the synchronous reference's ledger ([`sac_round_ledger`]) and on the
//! simulator's wire, where the message-driven engine adds the control
//! frames of [`sac_round_overhead`].

use p2pfl_secagg::{DropPhase, RingPlan, SacEngine};

/// Size of one model on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSize {
    /// Number of scalar parameters.
    pub params: u64,
}

impl ModelSize {
    /// The paper's Fig. 5 CNN (~1.25 M parameters) at its nominal size, as
    /// used by the cost figures.
    pub const PAPER_CNN: ModelSize = ModelSize { params: 1_250_000 };

    /// `|w|` in bits (32 bits per parameter).
    pub fn bits(self) -> f64 {
        self.params as f64 * 32.0
    }

    /// `|w|` in bytes.
    pub fn bytes(self) -> u64 {
        self.params * 4
    }
}

/// Formats a bit count the way the paper's figures do (Gb = 1e9 bits).
pub fn gigabits(bits: f64) -> f64 {
    bits / 1e9
}

/// Splits `n_total` peers into `m` subgroups as evenly as possible
/// (Fig. 13's rule: `N mod m` groups get one extra peer).
pub fn even_groups(n_total: usize, m: usize) -> Vec<usize> {
    assert!(m >= 1 && m <= n_total, "need 1 <= m <= N");
    let base = n_total / m;
    let extra = n_total % m;
    (0..m).map(|i| base + usize::from(i < extra)).collect()
}

// ----------------------------------------------------------------------
// Cost in |w| units
// ----------------------------------------------------------------------

/// Original one-layer SAC (Alg. 2): `2N(N-1)` — both share and subtotal
/// phases are all-to-all (paper Sec. III-B).
pub fn sac_baseline_units(n_total: usize) -> f64 {
    (2 * n_total * (n_total.saturating_sub(1))) as f64
}

/// Eq. 4: two-layer aggregation with n-out-of-n SAC and equal subgroups:
/// `(m n² + m n − 2)`.
pub fn two_layer_units_eq4(m: usize, n: usize) -> f64 {
    (m * n * n + m * n) as f64 - 2.0
}

/// Exact two-layer n-out-of-n cost for (possibly uneven) `groups`:
/// `Σ (n_g² − 1)` for subgroup SAC + `2(m−1)` for FedAvg + `Σ (n_g − 1)`
/// for broadcasting the aggregate back to all peers.
pub fn two_layer_units_exact(groups: &[usize]) -> f64 {
    assert!(!groups.is_empty(), "need at least one subgroup");
    let m = groups.len();
    let sac: usize = groups.iter().map(|&n| n * n - 1).sum();
    let bcast: usize = groups.iter().map(|&n| n - 1).sum();
    (sac + 2 * (m - 1) + bcast) as f64
}

/// Cost of the "SAC in both layers" variant (paper Sec. IV-D's stronger
/// privacy option): the upper layer's `(m-1)` upload leg becomes a
/// leader-collect SAC at `(m²-1)`; the `(m-1)` result-download leg and
/// everything else stay as in Eq. 4.
pub fn two_layer_units_fed_sac(m: usize, n: usize) -> f64 {
    let groups = vec![n; m];
    two_layer_units_exact(&groups) - (m - 1) as f64 + (m * m - 1) as f64
}

/// Eq. 5: two-layer aggregation with k-out-of-n fault-tolerant SAC and
/// equal subgroups (`N = n·m`): `(n² − kn + k)N + km − 2`.
pub fn two_layer_ft_units_eq5(n: usize, k: usize, n_total: usize) -> f64 {
    assert!(n_total.is_multiple_of(n), "Eq. 5 assumes N divisible by n");
    assert!(k >= 1 && k <= n, "threshold out of range");
    let m = n_total / n;
    ((n * n - k * n + k) * n_total + k * m) as f64 - 2.0
}

/// Eq. 5's per-subgroup terms, one k-out-of-n SAC round (Alg. 4) in a
/// subgroup of `n` without dropouts: share exchange `n(n−1)(n−k+1)` plus
/// subtotal collection `k−1`.
pub fn ft_sac_units(n: usize, k: usize) -> u64 {
    assert!(k >= 1 && k <= n, "threshold out of range");
    (n * (n - 1) * (n - k + 1) + (k - 1)) as u64
}

/// Exact two-layer k-out-of-n cost for uneven `groups`. Each subgroup of
/// size `n_g` uses threshold `min(k, n_g)` (a group smaller than `k`
/// degrades to n-out-of-n) and costs [`ft_sac_units`], plus the FedAvg
/// and broadcast terms.
pub fn two_layer_ft_units_exact(groups: &[usize], k: usize) -> f64 {
    assert!(!groups.is_empty(), "need at least one subgroup");
    let m = groups.len();
    let sac: u64 = groups
        .iter()
        .map(|&n| ft_sac_units(n, k.min(n).max(1)))
        .sum();
    let bcast: usize = groups.iter().map(|&n| n - 1).sum();
    (sac as usize + 2 * (m - 1) + bcast) as f64
}

/// The server-based pairwise-mask design of the paper's related work
/// (Bonawitz et al., Sec. II-B): `2N` — `N` masked uploads and the
/// aggregate sent back to each peer, the (amortizable) seed agreement
/// left out. Fig. 14's context row.
pub fn pairwise_mask_units(n_total: usize) -> f64 {
    (2 * n_total) as f64
}

/// Total peers of an `x`-layer tree with degree `n` (paper Eq. 6):
/// `N = Σ_{i=1..x} n(n−1)^{i−1}`.
pub fn multilayer_total_peers(n: usize, layers: usize) -> usize {
    assert!(n >= 2, "tree degree must be at least 2");
    assert!(layers >= 1, "need at least one layer");
    let mut total = 0usize;
    let mut level = n;
    for _ in 0..layers {
        total += level;
        level *= n - 1;
    }
    total
}

/// Eq. 10: total cost of the `x`-layer aggregation with n-out-of-n SAC at
/// every layer: `(N − 1)(n + 2)`.
pub fn multilayer_units_eq10(n: usize, layers: usize) -> f64 {
    let n_total = multilayer_total_peers(n, layers);
    ((n_total - 1) * (n + 2)) as f64
}

// ----------------------------------------------------------------------
// One subgroup round: the reference ledger and the engine's wire
// ----------------------------------------------------------------------

/// Traffic of one round: `units` model-sized transfers plus `fixed`
/// bytes that do not scale with the model, in `msgs` messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Model-sized transfers, in `|w|`.
    pub units: u64,
    /// Bytes independent of `|w|`.
    pub fixed: u64,
    /// Messages.
    pub msgs: u64,
}

impl Traffic {
    /// Total bytes for a model of `model_bytes` bytes on the wire.
    pub fn bytes(self, model_bytes: u64) -> u64 {
        self.units * model_bytes + self.fixed
    }
}

/// Counts of one round led by position 0 (see [`sac_round_ledger`]):
/// contributors, block receivers per contributor, partitions per block
/// (also the leader's own block), totals their owner sends, totals
/// recovered (0 or 1) and the alternate holders of a partition besides
/// its owner.
fn round(engine: SacEngine, n: usize, k: usize, crash: Option<DropPhase>) -> [u64; 6] {
    assert!(k >= 1 && k <= n, "threshold out of range");
    let (fan_out, block) = match engine {
        SacEngine::Pairwise => (n - 1, n - k + 1),
        SacEngine::Ring => {
            let plan = RingPlan::new(n, k);
            let m = plan.stage_len(0);
            let stages = plan.num_stages();
            assert!(
                stages >= 2 && (0..stages).all(|t| plan.stage_len(t) == m),
                "the closed form needs two or more equal stages"
            );
            (m, (m - 1).min(n - k + 1))
        }
    };
    // The last position's total is among those the leader lacks, if any.
    let missing = n - block;
    let recovered = usize::from(crash.is_some() && missing > 0);
    assert!(
        recovered == 0 || block >= 2,
        "crash outside the dropout budget"
    );
    let contributors = n - usize::from(crash == Some(DropPhase::BeforeShare));
    [
        contributors,
        fan_out,
        block,
        missing - recovered,
        recovered,
        block - 1,
    ]
    .map(|c| c as u64)
}

/// What the reference ledger charges a recovery request or a `Shared`
/// announcement (the latter is 16 B on the wire too).
const LEDGER_CONTROL: u64 = 16;

/// What the synchronous reference's ledger (`p2pfl_secagg::reference_round`)
/// charges for one round of `n` peers at threshold `k` on `engine`'s
/// layout, led by position 0, with the last position dropping out at
/// `crash` if given (paper Sec. V, cases C1 and C2): every contributor's
/// blocks, the totals the leader does not hold, one request and one
/// recovered total for a crashed owner's, and (ring) the other
/// contributors' announcements.
///
/// Pairwise, every peer sends a block of `n − k + 1` partitions to each
/// of the other `n − 1`; without a crash that is Eq. 5's per-subgroup
/// terms ([`ft_sac_units`]). Ring, every peer sends a block of
/// `r = min(m − 1, n − k + 1)` partitions to each of the `m` members of
/// its successor stage (`RingPlan::new(n, k)`, whose stages must be
/// equal), and the leader lacks `n − r` totals.
pub fn sac_round_ledger(
    engine: SacEngine,
    n: usize,
    k: usize,
    crash: Option<DropPhase>,
) -> Traffic {
    let [contributors, fan_out, block, totals, recovered, _] = round(engine, n, k, crash);
    let blocks = contributors * fan_out;
    let announces = match engine {
        SacEngine::Pairwise => 0,
        SacEngine::Ring => contributors - 1,
    };
    Traffic {
        units: blocks * block + totals + recovered,
        fixed: (announces + recovered) * LEDGER_CONTROL,
        msgs: blocks + announces + totals + 2 * recovered,
    }
}

/// What the message-driven engine (`p2pfl_secagg::RoundCore`) sends on
/// top of [`sac_round_ledger`] for the same round, so that its bytes on
/// the simulator are exactly the ledger's plus these:
///
/// * `Begin` (16 B) and `ComputeOver` (16 B + one per contributor) to
///   the other `n − 1` members;
/// * (pairwise) each contributor's `Commit` to the other `n − 1`:
///   16 B + 8 per partition digest;
/// * an 8 B header per share block, and a header per total sent (8 B
///   pairwise, 16 B ring);
/// * for a recovered total, one request (16 B pairwise, 24 B ring) to
///   each alternate holder, every one of which answers, where the ledger
///   charges one 16 B request and one answer.
///
/// Without a crash the overhead is `|w|`-free. The answers beyond the
/// ledger's one are its only model-sized term.
pub fn sac_round_overhead(
    engine: SacEngine,
    n: usize,
    k: usize,
    crash: Option<DropPhase>,
) -> Traffic {
    let [contributors, fan_out, _, totals, recovered, alternates] = round(engine, n, k, crash);
    let others = (n - 1) as u64;
    let (commits, commit_bytes, total_header, request) = match engine {
        SacEngine::Pairwise => (contributors * others, 16 + 8 * n as u64, 8, 16),
        SacEngine::Ring => (0, 0, 16, 24),
    };
    let answers = recovered * alternates;
    let extra = answers - recovered;
    Traffic {
        units: extra,
        fixed: others * (32 + contributors)
            + commits * commit_bytes
            + 8 * contributors * fan_out
            + total_header * (totals + answers)
            + answers * request
            - recovered * LEDGER_CONTROL,
        msgs: 2 * others + commits + 2 * extra,
    }
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

/// A comparison row as printed in Figs. 13–14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRow {
    /// Cost in `|w|` units.
    pub units: f64,
    /// Cost in bits for the given model.
    pub bits: f64,
    /// Ratio of the one-layer SAC baseline to this cost (the paper's
    /// "x-times more efficient").
    pub improvement: f64,
}

/// Builds a comparison row against the one-layer SAC baseline at `n_total`.
pub fn row(units: f64, n_total: usize, model: ModelSize) -> CostRow {
    let baseline = sac_baseline_units(n_total);
    CostRow {
        units,
        bits: units * model.bits(),
        improvement: baseline / units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_groups_match_fig13_caption() {
        // "N = 30 and m = 4: two groups of eight and two of seven".
        assert_eq!(even_groups(30, 4), vec![8, 8, 7, 7]);
        assert_eq!(even_groups(30, 6), vec![5; 6]);
        assert_eq!(even_groups(10, 3), vec![4, 3, 3]);
    }

    #[test]
    fn eq4_matches_exact_for_equal_groups() {
        for m in 1..8 {
            for n in 1..8 {
                let groups = vec![n; m];
                assert_eq!(
                    two_layer_units_eq4(m, n),
                    two_layer_units_exact(&groups),
                    "m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn fig13_m6_is_7_12_gigabits_and_one_tenth_of_sac() {
        // Paper Sec. VII-A: "When m = 6, the communication cost is 7.12Gb,
        // ... about one-tenth of that of the one-layer SAC."
        let groups = even_groups(30, 6);
        let units = two_layer_units_exact(&groups);
        let bits = units * ModelSize::PAPER_CNN.bits();
        assert!(
            (gigabits(bits) - 7.12).abs() < 0.01,
            "got {}",
            gigabits(bits)
        );
        let baseline_bits = sac_baseline_units(30) * ModelSize::PAPER_CNN.bits();
        let ratio = baseline_bits / bits;
        assert!((ratio - 9.78).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn fig14_headline_ratios() {
        // Paper Sec. VII-B: 14.75x for (n,k,N)=(3,3,30); 10.36x for
        // (3,2,30); 4.29x for (5,3,30).
        let cases = [
            (3usize, 3usize, 30usize, 14.75),
            (3, 2, 30, 10.36),
            (5, 3, 30, 4.29),
            (3, 3, 20, 8.84), // the paper's N=20 headline
        ];
        for (n, k, nt, expect) in cases {
            let units = if nt % n == 0 {
                two_layer_ft_units_eq5(n, k, nt)
            } else {
                two_layer_ft_units_exact(&even_groups(nt, nt.div_ceil(n)), k)
            };
            let ratio = sac_baseline_units(nt) / units;
            if nt % n == 0 {
                assert!(
                    (ratio - expect).abs() < 0.01,
                    "(n,k,N)=({n},{k},{nt}): got {ratio:.2}, paper {expect}"
                );
            } else {
                // The paper does not specify its uneven-group accounting;
                // require the same ballpark (within 15%).
                assert!(
                    (ratio - expect).abs() / expect < 0.15,
                    "(n,k,N)=({n},{k},{nt}): got {ratio:.2}, paper {expect}"
                );
            }
        }
    }

    #[test]
    fn eq5_reduces_to_eq4_when_k_equals_n() {
        // k = n means one partition per peer; share cost n(n-1)·1 and
        // subtotal n-1 reproduce the n-out-of-n subgroup cost (n²-1).
        for n in 1..8 {
            for m in 1..6 {
                let nt = n * m;
                assert_eq!(
                    two_layer_ft_units_eq5(n, n, nt),
                    two_layer_units_eq4(m, n),
                    "n={n} m={m}"
                );
            }
        }
    }

    #[test]
    fn ft_cost_exceeds_plain_but_beats_baseline() {
        // Redundancy costs more than n-out-of-n but far less than one-layer
        // SAC (the trade-off of Sec. VII-B).
        let plain = two_layer_ft_units_eq5(3, 3, 30);
        let ft = two_layer_ft_units_eq5(3, 2, 30);
        let baseline = sac_baseline_units(30);
        assert!(ft > plain);
        assert!(ft < baseline / 5.0);
    }

    #[test]
    fn multilayer_peer_count_eq6() {
        // X=1: N=n. X=2: n + n(n-1).
        assert_eq!(multilayer_total_peers(3, 1), 3);
        assert_eq!(multilayer_total_peers(3, 2), 3 + 6);
        assert_eq!(multilayer_total_peers(4, 3), 4 + 12 + 36);
    }

    #[test]
    fn eq10_matches_summed_construction() {
        // Rebuild Eq. 10 from its derivation: (n²−1) per aggregation,
        // #aggregations = Σ_{k=1..X−1} n(n−1)^{k−1} + 1, plus (N−1) for
        // distribution.
        for n in 2..6usize {
            for layers in 1..5usize {
                let n_total = multilayer_total_peers(n, layers);
                let mut aggs = 1usize;
                let mut level = n;
                for _ in 0..layers - 1 {
                    aggs += level;
                    level *= n - 1;
                }
                let derived = ((n * n - 1) * aggs + (n_total - 1)) as f64;
                assert_eq!(
                    multilayer_units_eq10(n, layers),
                    derived,
                    "n={n} X={layers}"
                );
            }
        }
    }

    #[test]
    fn model_size_conversions() {
        let m = ModelSize { params: 1_000_000 };
        assert_eq!(m.bits(), 3.2e7);
        assert_eq!(m.bytes(), 4_000_000);
        assert_eq!(gigabits(1e9), 1.0);
    }

    #[test]
    fn report_row_improvement() {
        let r = row(100.0, 30, ModelSize::PAPER_CNN);
        assert!((r.improvement - 17.4).abs() < 1e-9);
    }
}
