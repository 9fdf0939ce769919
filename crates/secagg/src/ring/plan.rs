//! Stage layout for the Ring-SAC engine.
//!
//! The `n` subgroup positions are chunked into `L ≈ n / ⌈log₂ n⌉`
//! consecutive *stages* of `g ≈ ⌈log₂ n⌉` members each, arranged in a
//! ring: every peer splits its masked model into additive shares and
//! sends them only to the members of its *successor* stage, never to the
//! whole subgroup. Stage-`t` members then own the per-partition sums over
//! everything stage `t-1` contributed, so the leader can reconstruct the
//! global sum from `n` stage totals instead of `n` full share matrices —
//! Turbo-Aggregate's circular multi-group layout (arXiv 2002.04156)
//! grafted onto the paper's replicated k-out-of-n share blocks.
//!
//! Within each receiving stage of size `m` the shares are replicated with
//! the stage-local threshold `k_m = min(m, max(2, m - (n - k)))`, i.e.
//! each partition has `min(m - 1, n - k + 1)` holders (for `m >= 2`). The
//! floor at 2 is a *privacy* floor, not a dropout one: with `k_m = 1`
//! every receiver would hold all `m` additive shares of each predecessor
//! contributor and could sum them back into that peer's individual model.
//! Capping the per-receiver block at `m - 1` partitions keeps every
//! single holder's view information-theoretically independent of any one
//! model, at the cost of shrinking the in-stage dropout budget from
//! `min(m - 1, n - k)` to `min(m - 2, n - k)` crashes per stage.

use crate::replicated::{assigned_partitions, holders};

/// The ring/stage arrangement of one subgroup, derived from `(n, k)`.
///
/// Stages are consecutive position ranges (`positions 0..n` chunked in
/// order), so the layout is a pure function of the roster length — every
/// member derives the identical plan with no extra coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingPlan {
    n: usize,
    k: usize,
    /// `(start position, length)` per stage, covering `0..n` exactly.
    stages: Vec<(usize, usize)>,
    /// Whether stage thresholds carry the staged layout's privacy floor.
    floored: bool,
}

impl RingPlan {
    /// Derives the stage layout for `n` members with global threshold `k`.
    ///
    /// Panics unless `n >= 1` and `1 <= k <= n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n >= 1, "empty subgroup has no ring layout");
        assert!(k >= 1 && k <= n, "invalid threshold");
        // Target stage size g = ⌈log₂ n⌉, floored at 2 so no stage is a
        // singleton (a stage of one would hand the leader a per-peer sum,
        // collapsing the anonymity set to a single model).
        let mut g = ceil_log2(n).max(2);
        if g > n {
            g = n; // n = 1: a single one-member "stage"
        }
        let num = (n / g).max(1);
        let base = n / num;
        let extra = n % num;
        let mut stages = Vec::with_capacity(num);
        let mut start = 0;
        for t in 0..num {
            let len = base + usize::from(t < extra);
            stages.push((start, len));
            start += len;
        }
        debug_assert_eq!(start, n);
        RingPlan {
            n,
            k,
            stages,
            floored: true,
        }
    }

    /// The one-group layout of the paper's pairwise scheme (Alg. 4): a
    /// single stage holding everyone, which is therefore its own
    /// successor — every peer shares with every other and keeps its own
    /// block.
    ///
    /// The stage threshold is `k` exactly as given, deliberately without
    /// the floor [`RingPlan::new`] applies: Alg. 4 lets the operator pick
    /// any `1 <= k <= n` (replication `n - k + 1`), and `k = 1` — every
    /// peer holding every partition — is that algorithm's stated
    /// no-privacy, maximum-tolerance corner. The floor at 2 is the staged
    /// layout's own rule, needed there because its thresholds are derived
    /// rather than chosen.
    ///
    /// Panics unless `n >= 1` and `1 <= k <= n`.
    pub fn one_stage(n: usize, k: usize) -> Self {
        assert!(n >= 1, "empty subgroup has no layout");
        assert!(k >= 1 && k <= n, "invalid threshold");
        RingPlan {
            n,
            k,
            stages: vec![(0, n)],
            floored: false,
        }
    }

    /// Number of stages `L` (1 for tiny groups, where the ring degenerates
    /// to the all-to-all pairwise layout).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Subgroup size this plan was derived for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The stage containing global position `pos`.
    pub fn stage_of(&self, pos: usize) -> usize {
        assert!(pos < self.n, "position out of range");
        self.stages
            .iter()
            .position(|&(s, l)| pos >= s && pos < s + l)
            .expect("stages cover 0..n")
    }

    /// Number of members in stage `t`.
    pub fn stage_len(&self, t: usize) -> usize {
        self.stages[t].1
    }

    /// Global positions of stage `t`, in order.
    pub fn members(&self, t: usize) -> std::ops::Range<usize> {
        let (s, l) = self.stages[t];
        s..s + l
    }

    /// Global position of the stage-`t` member with stage-local index `i`.
    pub fn global_pos(&self, t: usize, i: usize) -> usize {
        assert!(i < self.stages[t].1, "stage-local index out of range");
        self.stages[t].0 + i
    }

    /// Stage-local index of global position `pos` within its own stage.
    pub fn local_index(&self, pos: usize) -> usize {
        pos - self.stages[self.stage_of(pos)].0
    }

    /// The `(stage, partition)` grid key of subtotal `g`, the partition
    /// whose primary owner sits at global position `g` — the inverse of
    /// [`RingPlan::global_pos`]. Total: `None` off the grid, since `g` may
    /// come off the wire.
    pub fn grid_key(&self, g: usize) -> Option<(usize, usize)> {
        let t = self
            .stages
            .iter()
            .position(|&(s, l)| (s..s + l).contains(&g))?;
        Some((t, g - self.stages[t].0))
    }

    /// The stage that receives stage `t`'s shares.
    pub fn succ_stage(&self, t: usize) -> usize {
        (t + 1) % self.stages.len()
    }

    /// The stage whose shares stage `t` receives.
    pub fn pred_stage(&self, t: usize) -> usize {
        (t + self.stages.len() - 1) % self.stages.len()
    }

    /// Stage-local reconstruction threshold
    /// `k_m = min(m, max(2, m - (n - k)))` for the stage of size
    /// `m = stage_len(t)`: each partition gets `min(m - 1, n - k + 1)`
    /// replica holders (for `m >= 2`). A [`RingPlan::one_stage`] layout
    /// has `m = n` and uses `k` itself.
    ///
    /// The floor at 2 is load-bearing for privacy: a receiver's block has
    /// `m - k_m + 1` partitions, so `k_m >= 2` guarantees every receiver
    /// misses at least one additive share of each predecessor contributor
    /// and can never reassemble an individual model on its own. The price
    /// is in-stage dropout tolerance: a stage survives `m - k_m =
    /// min(m - 2, n - k)` of its members crashing instead of the pairwise
    /// engine's full `n - k`. `k_m = 1` only for a one-member subgroup
    /// (`m = 1`), where there is nothing to hide from anyone.
    pub fn stage_k(&self, t: usize) -> usize {
        let m = self.stage_len(t);
        let raw = m.saturating_sub(self.n - self.k);
        if self.floored {
            raw.max(2).min(m)
        } else {
            raw
        }
    }

    /// How many additive shares the peer at `pos` splits its model into:
    /// the size of its successor stage.
    pub fn parts_of(&self, pos: usize) -> usize {
        self.stage_len(self.succ_stage(self.stage_of(pos)))
    }

    /// Stage-local partition indices assigned to the stage-`t` member with
    /// local index `i` (the block of its predecessor stage's shares it
    /// holds and totals).
    pub fn assigned(&self, t: usize, i: usize) -> Vec<usize> {
        assigned_partitions(self.stage_len(t), self.stage_k(t), i)
    }

    /// Global positions of every stage-`t` member holding partition `p`.
    pub fn holders_of(&self, t: usize, p: usize) -> Vec<usize> {
        holders(self.stage_len(t), self.stage_k(t), p)
            .into_iter()
            .map(|h| self.global_pos(t, h))
            .collect()
    }

    /// Whether the peer at global position `pos` holds partition `p` of
    /// stage `t` — [`RingPlan::holders_of`] as a membership test, without
    /// building the holder list. Total: anything outside the grid or the
    /// roster (the arguments may come off the wire) is simply not held.
    pub fn is_holder(&self, pos: usize, t: usize, p: usize) -> bool {
        let Some(&(start, m)) = self.stages.get(t) else {
            return false;
        };
        p < m
            && (start..start + m).contains(&pos)
            && (p + m - (pos - start)) % m <= m - self.stage_k(t)
    }

    /// Total number of `(stage, partition)` totals the leader collects:
    /// always exactly `n`.
    pub fn total_partitions(&self) -> usize {
        self.n
    }

    /// Every `(stage, partition)` the leader collects a total for,
    /// ascending — the order the round's sum is accumulated in.
    pub fn grid(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_stages()).flat_map(move |t| (0..self.stage_len(t)).map(move |p| (t, p)))
    }

    /// A stage whose contributor count (per `is_contributor`, over global
    /// positions) is exactly 1, if the plan has two or more stages.
    ///
    /// Such a stage's totals sum to the lone contributor's individual
    /// model, so the leader must refuse to freeze (and followers must
    /// refuse to total) a contributor set that isolates one. Single-stage
    /// plans return `None`: there the stage sum *is* the whole round's
    /// aggregate, exactly the disclosure the pairwise engine makes.
    /// Stages with zero contributors are fine — an empty sum reveals
    /// nothing.
    pub fn lone_contributor_stage(
        &self,
        mut is_contributor: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if self.num_stages() < 2 {
            return None;
        }
        (0..self.num_stages())
            .find(|&t| self.members(t).filter(|&p| is_contributor(p)).count() == 1)
    }
}

/// `⌈log₂ n⌉` for `n >= 1` (0 for `n = 1`).
fn ceil_log2(n: usize) -> usize {
    usize::BITS as usize - (n - 1).leading_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_float() {
        for n in 1..=1024usize {
            assert_eq!(ceil_log2(n), (n as f64).log2().ceil() as usize, "n={n}");
        }
    }

    #[test]
    fn stages_partition_positions_exactly() {
        for n in 1..=64 {
            let plan = RingPlan::new(n, n.div_ceil(2));
            let mut covered = vec![false; n];
            for t in 0..plan.num_stages() {
                for pos in plan.members(t) {
                    assert!(!covered[pos], "position {pos} in two stages");
                    covered[pos] = true;
                    assert_eq!(plan.stage_of(pos), t);
                    assert_eq!(plan.global_pos(t, plan.local_index(pos)), pos);
                    assert_eq!(plan.grid_key(pos), Some((t, plan.local_index(pos))));
                }
            }
            assert_eq!(plan.grid_key(n), None);
            assert_eq!(plan.grid_key(usize::MAX), None);
            assert!(covered.into_iter().all(|c| c), "n={n} not fully covered");
            assert_eq!(plan.total_partitions(), n);
        }
    }

    #[test]
    fn no_singleton_stages_above_one_member() {
        // A stage of one would expose a single peer's masked sum to the
        // leader; the layout floors stage sizes at 2 whenever n >= 2.
        for n in 2..=128 {
            let plan = RingPlan::new(n, 1);
            for t in 0..plan.num_stages() {
                assert!(plan.stage_len(t) >= 2, "n={n} stage {t} is a singleton");
            }
        }
    }

    #[test]
    fn stage_sizes_are_logarithmic() {
        // Stage size tracks ⌈log₂ n⌉, so per-peer fan-out is O(log n):
        // that is the entire complexity claim of the ring engine.
        for n in 6..=256 {
            let plan = RingPlan::new(n, 2);
            let g = ceil_log2(n);
            for t in 0..plan.num_stages() {
                assert!(
                    plan.stage_len(t) <= 2 * g,
                    "n={n} stage {t} len {} exceeds 2·⌈log₂ n⌉ = {}",
                    plan.stage_len(t),
                    2 * g
                );
            }
        }
    }

    #[test]
    fn known_layouts() {
        assert_eq!(RingPlan::new(3, 2).stages, vec![(0, 3)]);
        assert_eq!(RingPlan::new(4, 2).stages, vec![(0, 2), (2, 2)]);
        assert_eq!(RingPlan::new(5, 3).stages, vec![(0, 5)]);
        assert_eq!(RingPlan::new(6, 2).stages, vec![(0, 3), (3, 3)]);
        assert_eq!(RingPlan::new(8, 4).stages, vec![(0, 4), (4, 4)]);
        assert_eq!(
            RingPlan::new(16, 8).stages,
            vec![(0, 4), (4, 4), (8, 4), (12, 4)]
        );
    }

    #[test]
    fn ring_orientation_is_a_bijection() {
        let plan = RingPlan::new(16, 8);
        for t in 0..plan.num_stages() {
            assert_eq!(plan.pred_stage(plan.succ_stage(t)), t);
            assert_eq!(plan.succ_stage(plan.pred_stage(t)), t);
        }
    }

    #[test]
    fn stage_threshold_trades_dropout_budget_for_privacy() {
        for n in 2..=64 {
            for k in 1..=n {
                let plan = RingPlan::new(n, k);
                for t in 0..plan.num_stages() {
                    let m = plan.stage_len(t);
                    let k_m = plan.stage_k(t);
                    assert!((2..=m).contains(&k_m), "n={n} k={k} stage {t}");
                    // Replication factor min(m-1, n-k+1): the stage
                    // survives min(m-2, n-k) of its members crashing, and
                    // no receiver's block is a full share set.
                    assert_eq!(m - k_m + 1, (m - 1).min(n - k + 1));
                }
            }
        }
    }

    #[test]
    fn no_receiver_block_is_a_full_share_set() {
        // The high-severity privacy invariant: a stage member must never
        // be assigned all m partitions of its predecessor contributors,
        // or it could sum them back into an individual model. Holds for
        // every (n, k), not just the advertised operating points.
        for n in 2..=64 {
            for k in 1..=n {
                let plan = RingPlan::new(n, k);
                for t in 0..plan.num_stages() {
                    let m = plan.stage_len(t);
                    for i in 0..m {
                        assert!(
                            plan.assigned(t, i).len() < m,
                            "n={n} k={k}: stage {t} member {i} holds all {m} shares"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_stage_layout_is_the_pairwise_assignment() {
        for n in 1..=12 {
            for k in 1..=n {
                let plan = RingPlan::one_stage(n, k);
                assert_eq!(plan.num_stages(), 1);
                assert_eq!(plan.succ_stage(0), 0);
                assert_eq!(plan.stage_k(0), k, "threshold is k as given");
                for j in 0..n {
                    assert_eq!(plan.parts_of(j), n);
                    assert_eq!(plan.assigned(0, j), assigned_partitions(n, k, j));
                    assert_eq!(plan.holders_of(0, j), holders(n, k, j));
                }
            }
        }
    }

    #[test]
    fn lone_contributor_stage_detection() {
        // n = 6, k = 2: stages [3, 3].
        let plan = RingPlan::new(6, 2);
        let all = |_p: usize| true;
        assert_eq!(plan.lone_contributor_stage(all), None);
        let only_five = |p: usize| p < 3 || p == 5;
        assert_eq!(plan.lone_contributor_stage(only_five), Some(1));
        let stage1_empty = |p: usize| p < 3;
        assert_eq!(plan.lone_contributor_stage(stage1_empty), None);
        // Single-stage plans never isolate: the stage sum is the round
        // aggregate, same disclosure as the pairwise engine.
        let single = RingPlan::new(5, 3);
        assert_eq!(single.lone_contributor_stage(|p| p == 0), None);
    }

    #[test]
    fn holders_are_stage_members_holding_the_partition() {
        for plan in [RingPlan::new(16, 8), RingPlan::one_stage(7, 3)] {
            assert_eq!(plan.grid().count(), plan.total_partitions());
            for (t, p) in plan.grid() {
                let holders = plan.holders_of(t, p);
                for &g in &holders {
                    assert_eq!(plan.stage_of(g), t);
                    assert!(plan.assigned(t, plan.local_index(g)).contains(&p));
                }
                for pos in 0..plan.n() {
                    assert_eq!(plan.is_holder(pos, t, p), holders.contains(&pos));
                }
            }
            let (n, stages) = (plan.n(), plan.num_stages());
            assert!(!plan.is_holder(n, 0, 0), "outside the roster");
            assert!(!plan.is_holder(0, stages, 0), "outside the stages");
            assert!(!plan.is_holder(0, 0, plan.stage_len(0)), "outside the row");
        }
    }
}
