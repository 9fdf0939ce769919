//! X-layer aggregation (paper Sec. VII-C) — the generalization of the
//! two-layer system to a tree of SAC subgroups.
//!
//! The tree has degree `n`: every peer of layer `x < X` leads a subgroup
//! of `n` peers at layer `x + 1` (itself plus `n − 1` fresh peers), so the
//! total peer count is `N = Σ_{k=1..X} n(n−1)^{k−1}` (Eq. 6). Aggregation
//! runs bottom-up: each leader SAC-averages its subgroup — inputs are
//! pre-scaled by subtree size so the plain SAC average reconstructs the
//! sample-exact subtree mean — and the topmost result is distributed back
//! down. The total communication is `(N − 1)(n + 2)|w|` (Eq. 10), which
//! the tests verify against the executed ledger.

use crate::cost::multilayer_total_peers;
use p2pfl_secagg::{fault_tolerant_secure_average, ShareScheme, TransferLog, WeightVector};
use rand::Rng;

/// The aggregation tree.
#[derive(Debug, Clone)]
pub struct MultilayerTree {
    n: usize,
    layers: usize,
    /// `groups[x]` lists the subgroups of layer `x+1`; each subgroup is
    /// `(leader peer id, member peer ids)` with the leader living in layer
    /// `x` (`usize::MAX` marks the virtual root of the topmost group).
    groups: Vec<Vec<(usize, Vec<usize>)>>,
    total: usize,
}

impl MultilayerTree {
    /// Builds the tree for degree `n` (≥ 2) and `layers` (≥ 1).
    pub fn build(n: usize, layers: usize) -> Self {
        let total = multilayer_total_peers(n, layers);
        let mut groups: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(layers);
        // Layer 1: one subgroup of the first n peers; its leader is peer 0.
        let mut next_id = 0usize;
        let top: Vec<usize> = (0..n)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                id
            })
            .collect();
        groups.push(vec![(usize::MAX, top.clone())]);
        let mut frontier = top;
        for _ in 1..layers {
            let mut layer_groups = Vec::new();
            let mut new_frontier = Vec::new();
            for &leader in &frontier {
                let mut members = vec![leader];
                for _ in 0..n - 1 {
                    members.push(next_id);
                    new_frontier.push(next_id);
                    next_id += 1;
                }
                layer_groups.push((leader, members));
            }
            groups.push(layer_groups);
            frontier = new_frontier;
        }
        assert_eq!(next_id, total, "tree construction mismatch");
        MultilayerTree {
            n,
            layers,
            groups,
            total,
        }
    }

    /// Total number of peers (Eq. 6).
    pub fn total_peers(&self) -> usize {
        self.total
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Tree degree `n`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of SAC aggregations performed per round.
    pub fn num_aggregations(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// Aggregates `models` (indexed by peer id) bottom-up with SAC at
    /// every layer, returning the exact global mean and the communication
    /// ledger. Subtree sizes are public (they weight the SAC inputs).
    pub fn aggregate<R: Rng + ?Sized>(
        &self,
        models: &[WeightVector],
        scheme: ShareScheme,
        rng: &mut R,
    ) -> (WeightVector, TransferLog) {
        assert_eq!(models.len(), self.total, "model count mismatch");
        let mut log = TransferLog::new();
        // acc[p] = (subtree mean rooted at p, subtree size); initially the
        // peer's own model.
        let mut acc: Vec<(WeightVector, usize)> =
            models.iter().map(|m| (m.clone(), 1usize)).collect();

        // Bottom-up: deepest layer first.
        for layer_groups in self.groups.iter().rev() {
            for (_, members) in layer_groups {
                let group_size = members.len();
                // Scale each input by its subtree count so the plain SAC
                // mean times group_size recovers the weighted sum.
                let inputs: Vec<WeightVector> = members
                    .iter()
                    .map(|&p| acc[p].0.scaled(acc[p].1 as f64))
                    .collect();
                // n-out-of-n, led by members[0], the layer-above leader.
                let out = fault_tolerant_secure_average(&inputs, group_size, 0, &[], scheme, rng)
                    .expect("an n-of-n round without dropouts completes");
                log.absorb(&out.log);
                let total_count: usize = members.iter().map(|&p| acc[p].1).sum();
                let mut mean = out.average;
                mean.scale(group_size as f64 / total_count as f64);
                let root = members[0];
                acc[root] = (mean, total_count);
            }
        }
        // Distribute the global model back to every other peer: (N-1)|w|.
        let result = acc[self.groups[0][0].1[0]].0.clone();
        let wire = result.wire_bytes();
        for _ in 1..self.total {
            log.record("multilayer.distribute", wire);
        }
        (result, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::multilayer_units_eq10;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_counts_match_eq6() {
        for n in 2..6 {
            for layers in 1..4 {
                let t = MultilayerTree::build(n, layers);
                assert_eq!(t.total_peers(), multilayer_total_peers(n, layers));
            }
        }
    }

    #[test]
    fn aggregation_count_matches_derivation() {
        // #aggregations = Σ_{k=1..X-1} n(n-1)^{k-1} + 1.
        let t = MultilayerTree::build(3, 3);
        assert_eq!(t.num_aggregations(), 1 + 3 + 6);
    }

    #[test]
    fn aggregate_equals_global_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, layers) in [(2usize, 2usize), (3, 2), (3, 3), (4, 2)] {
            let t = MultilayerTree::build(n, layers);
            let models: Vec<WeightVector> = (0..t.total_peers())
                .map(|_| WeightVector::random(12, 1.0, &mut rng))
                .collect();
            let plain = WeightVector::mean(models.iter());
            let (got, _) = t.aggregate(&models, ShareScheme::Masked, &mut rng);
            assert!(
                got.linf_distance(&plain) < 1e-6,
                "n={n} X={layers}: err {}",
                got.linf_distance(&plain)
            );
        }
    }

    #[test]
    fn ledger_matches_eq10() {
        let mut rng = StdRng::seed_from_u64(2);
        for (n, layers) in [(3usize, 2usize), (3, 3), (4, 2)] {
            let t = MultilayerTree::build(n, layers);
            let models: Vec<WeightVector> = (0..t.total_peers())
                .map(|_| WeightVector::random(8, 1.0, &mut rng))
                .collect();
            let wire = models[0].wire_bytes();
            let (_, log) = t.aggregate(&models, ShareScheme::Masked, &mut rng);
            let expected = multilayer_units_eq10(n, layers) as u64 * wire;
            assert_eq!(log.bytes(), expected, "n={n} X={layers}");
        }
    }

    #[test]
    fn single_layer_is_one_sac_group() {
        let t = MultilayerTree::build(4, 1);
        assert_eq!(t.total_peers(), 4);
        assert_eq!(t.num_aggregations(), 1);
    }
}
