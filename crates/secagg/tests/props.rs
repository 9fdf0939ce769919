//! Property-based tests for the secret-sharing invariants.

use p2pfl_secagg::replicated::{assigned_partitions, can_reconstruct, holders};
use p2pfl_secagg::{
    divide_masked, divide_scaled, fault_tolerant_secure_average, fixed, reference_round, DropPhase,
    Dropout, RingPlan, RingWire, ShareScheme, WeightVector,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn weight_vec(dim: usize) -> impl Strategy<Value = WeightVector> {
    proptest::collection::vec(-10.0f64..10.0, dim).prop_map(WeightVector::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Alg. 1 invariant: shares always sum back to the secret.
    #[test]
    #[cfg_attr(miri, ignore = "full simulation runs are prohibitively slow under miri")]
    fn shares_reconstruct(
        w in weight_vec(32),
        n in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scaled = divide_scaled(&w, n, &mut rng);
        let masked = divide_masked(&w, n, &mut rng);
        prop_assert!(WeightVector::sum(scaled.iter()).linf_distance(&w) < 1e-9);
        prop_assert!(WeightVector::sum(masked.iter()).linf_distance(&w) < 1e-8);
    }

    /// Alg. 2 invariant: SAC equals the plain mean regardless of scheme,
    /// peer count, or who leads.
    #[test]
    #[cfg_attr(miri, ignore = "full simulation runs are prohibitively slow under miri")]
    fn sac_equals_plain_mean(
        models in proptest::collection::vec(weight_vec(16), 1..8),
        seed in any::<u64>(),
        lead_pick in any::<prop::sample::Index>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plain = WeightVector::mean(models.iter());
        let n = models.len();
        for scheme in [ShareScheme::Scaled, ShareScheme::Masked] {
            let full = fault_tolerant_secure_average(&models, n, 0, &[], scheme, &mut rng).unwrap();
            prop_assert!(full.average.linf_distance(&plain) < 1e-7);
        }
        let leader = lead_pick.index(models.len());
        let led = fault_tolerant_secure_average(&models, n, leader, &[], ShareScheme::Masked, &mut rng)
            .unwrap();
        prop_assert!(led.average.linf_distance(&plain) < 1e-7);
    }

    /// Alg. 4 and Ring-SAC invariant: any dropout schedule within the
    /// layout's budget completes — `n-k` crashes for pairwise; for the
    /// staged layout `min(m-2, n-k)` of each stage's `m` members, with no
    /// stage left holding a single contributor — and every round that
    /// completes at all yields the mean over its contributors.
    #[test]
    #[cfg_attr(miri, ignore = "full simulation runs are prohibitively slow under miri")]
    fn ftsac_survives_dropouts(
        n in 2usize..12,
        k_off in 0usize..12,
        ring in any::<bool>(),
        drop_bits in any::<u16>(),
        after_bits in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % n;
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<WeightVector> =
            (0..n).map(|_| WeightVector::random(8, 1.0, &mut rng)).collect();
        // Any schedule of non-leader peers (the leader is position 0).
        let dropouts: Vec<Dropout> = (1..n)
            .filter(|p| drop_bits & (1 << p) != 0)
            .map(|peer| Dropout {
                peer,
                phase: if after_bits & (1 << peer) != 0 {
                    DropPhase::AfterShare
                } else {
                    DropPhase::BeforeShare
                },
            })
            .collect();
        let dropped = |p: usize| dropouts.iter().any(|d| d.peer == p);
        let contributes =
            |p: usize| !dropouts.iter().any(|d| d.peer == p && d.phase == DropPhase::BeforeShare);
        let (out, within_budget) = if ring {
            let plan = RingPlan::new(n, k);
            let within = (0..plan.num_stages()).all(|t| {
                let m = plan.stage_len(t);
                let lost = plan.members(t).filter(|&p| dropped(p)).count();
                let contributing = plan.members(t).filter(|&p| contributes(p)).count();
                lost <= m.saturating_sub(2).min(n - k)
                    && (plan.num_stages() == 1 || contributing != 1)
            });
            let out = reference_round::<RingWire, _>(
                &models, k, 0, &dropouts, ShareScheme::Masked, &mut rng,
            );
            (out, within)
        } else {
            let out = fault_tolerant_secure_average(
                &models, k, 0, &dropouts, ShareScheme::Masked, &mut rng,
            );
            (out, dropouts.len() <= n - k)
        };
        prop_assert!(out.is_ok() || !within_budget, "n={n} k={k} ring={ring}: {out:?}");
        if let Ok(out) = out {
            let plain = WeightVector::mean(out.contributors.iter().map(|&i| &models[i]));
            prop_assert!(out.average.linf_distance(&plain) < 1e-7);
            // Contributors are exactly the peers that did not drop BeforeShare.
            prop_assert_eq!(out.contributors, (0..n).filter(|&p| contributes(p)).collect::<Vec<_>>());
        }
    }

    /// Replication invariant: assignment and holders are inverse relations
    /// and any <= n-k crash set keeps every partition reconstructible.
    #[test]
    #[cfg_attr(miri, ignore = "full simulation runs are prohibitively slow under miri")]
    fn replication_covers_crashes(
        n in 1usize..12,
        k_off in 0usize..12,
        crash_bits in any::<u16>(),
    ) {
        let k = 1 + k_off % n;
        // Keep at most n-k crashes.
        let mut alive = vec![true; n];
        let mut budget = n - k;
        for (i, a) in alive.iter_mut().enumerate() {
            if budget > 0 && crash_bits & (1 << i) != 0 {
                *a = false;
                budget -= 1;
            }
        }
        prop_assert!(can_reconstruct(n, k, &alive));
        for p in 0..n {
            for h in holders(n, k, p) {
                prop_assert!(assigned_partitions(n, k, h).contains(&p));
            }
        }
    }

    /// Fixed-point ring sharing reconstructs exactly (quantization only).
    #[test]
    #[cfg_attr(miri, ignore = "full simulation runs are prohibitively slow under miri")]
    fn ring_sharing_is_exact(
        w in weight_vec(16),
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shares = fixed::divide_ring(&w, n, &mut rng);
        let sum = fixed::reconstruct_sum(&[shares]);
        prop_assert!(sum.linf_distance(&w) < 1e-7);
    }
}
