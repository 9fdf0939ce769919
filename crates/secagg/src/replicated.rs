//! Replicated additive secret sharing — the k-out-of-n share *assignment*.
//!
//! Paper Alg. 4 (lines 3–9) makes peer `i` send peer `j` the block of
//! `n - k + 1` *consecutive* partitions `j, j+1, …, j+(n-k) (mod n)` of its
//! model. Consequently every partition index `p` is replicated on the
//! `n - k + 1` peers `p, p-1, …, p-(n-k) (mod n)`, so any set of at most
//! `n - k` crashed peers still leaves at least one live holder per
//! partition — the invariant that makes the aggregation `k`-out-of-`n`.

/// The consecutive partition indices peer `j` holds under `k`-out-of-`n`
/// replication (paper Alg. 4, lines 5–7). Indices are `0..n`.
///
/// Panics unless `1 <= k <= n` and `j < n`.
pub fn assigned_partitions(n: usize, k: usize, j: usize) -> Vec<usize> {
    validate(n, k);
    assert!(j < n, "peer index out of range");
    (0..=(n - k)).map(|t| (j + t) % n).collect()
}

/// The peers holding partition index `p` under `k`-out-of-`n` replication —
/// exactly the peers that can serve a recovery request for subtotal `p`
/// (paper Alg. 4, line 18).
pub fn holders(n: usize, k: usize, p: usize) -> Vec<usize> {
    validate(n, k);
    assert!(p < n, "partition index out of range");
    (0..=(n - k)).map(|t| (p + n - t) % n).collect()
}

/// Number of partitions each peer holds: `n - k + 1`.
pub fn replication_factor(n: usize, k: usize) -> usize {
    validate(n, k);
    n - k + 1
}

/// Whether the live peer set `alive` (indices `< n`) suffices to reconstruct
/// every partition, i.e. every partition has at least one live holder.
pub fn can_reconstruct(n: usize, k: usize, alive: &[bool]) -> bool {
    validate(n, k);
    assert_eq!(alive.len(), n, "alive mask length mismatch");
    (0..n).all(|p| holders(n, k, p).iter().any(|&h| alive[h]))
}

fn validate(n: usize, k: usize) {
    assert!(n >= 1, "need at least one peer");
    assert!(k >= 1 && k <= n, "threshold k must satisfy 1 <= k <= n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_out_of_n_degenerates_to_one_partition_each() {
        for n in 1..8 {
            for j in 0..n {
                assert_eq!(assigned_partitions(n, n, j), vec![j]);
            }
        }
    }

    #[test]
    fn two_out_of_three_matches_paper_fig3() {
        // In the paper's 2-out-of-3 walkthrough each peer ends up holding
        // two consecutive subtotals (e.g. S_circle and S_square).
        assert_eq!(assigned_partitions(3, 2, 0), vec![0, 1]);
        assert_eq!(assigned_partitions(3, 2, 1), vec![1, 2]);
        assert_eq!(assigned_partitions(3, 2, 2), vec![2, 0]);
    }

    #[test]
    fn holders_inverts_assignment() {
        for n in 1..10 {
            for k in 1..=n {
                for p in 0..n {
                    for h in holders(n, k, p) {
                        assert!(
                            assigned_partitions(n, k, h).contains(&p),
                            "n={n} k={k} p={p} h={h}"
                        );
                    }
                    // And no one else holds it.
                    let hs = holders(n, k, p);
                    for j in 0..n {
                        if !hs.contains(&j) {
                            assert!(!assigned_partitions(n, k, j).contains(&p));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn replication_factor_is_n_minus_k_plus_1() {
        assert_eq!(replication_factor(5, 3), 3);
        assert_eq!(replication_factor(3, 2), 2);
        for n in 1..10 {
            for k in 1..=n {
                assert_eq!(assigned_partitions(n, k, 0).len(), replication_factor(n, k));
                assert_eq!(holders(n, k, 0).len(), replication_factor(n, k));
            }
        }
    }

    #[test]
    fn survives_any_n_minus_k_crashes() {
        // Exhaustively check all crash sets of size <= n-k for small n.
        for n in 1..=7usize {
            for k in 1..=n {
                let max_crash = n - k;
                for mask in 0u32..(1 << n) {
                    let crashed = mask.count_ones() as usize;
                    let alive: Vec<bool> = (0..n).map(|i| mask & (1 << i) == 0).collect();
                    let ok = can_reconstruct(n, k, &alive);
                    if crashed <= max_crash {
                        assert!(ok, "n={n} k={k} mask={mask:b} should reconstruct");
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_consecutive_crashes_break_reconstruction() {
        // Crashing all n-k+1 holders of one partition defeats recovery.
        let n = 5;
        let k = 3;
        let mut alive = vec![true; n];
        for h in holders(n, k, 0) {
            alive[h] = false;
        }
        assert!(!can_reconstruct(n, k, &alive));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        assigned_partitions(3, 0, 0);
    }
}
