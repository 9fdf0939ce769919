//! Algorithm 1 — splitting a secret weight vector into `N` additive shares.
//!
//! Two share constructions are provided:
//!
//! * [`divide_scaled`] is the paper's Alg. 1 verbatim: draw `N` random
//!   numbers, normalize them into convex weights `prn_i`, and emit shares
//!   `par_w_i = prn_i · w`. Shares sum to `w` exactly (up to float error).
//!   Note that a *single* scaled share reveals the direction of `w`; the
//!   paper uses this construction anyway, so we keep it for fidelity and
//!   document the leak.
//! * [`divide_masked`] is standard additive masking: the first `N-1` shares
//!   are i.i.d. uniform noise in `[-1e3, 1e3]` and the last is
//!   `w - Σ noise`. Any `N-1` shares are jointly independent of `w` (up to
//!   the finite mask range), which is the textbook security argument for
//!   additive secret sharing over bounded reals.
//!
//! Both satisfy the reconstruction invariant `Σ_i par_w_i = w` that every
//! SAC variant relies on.

use crate::weights::WeightVector;
use rand::Rng;

/// How shares are constructed by [`divide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum ShareScheme {
    /// The paper's Alg. 1: random convex scaling of the whole vector.
    Scaled,
    /// Standard additive masking (default; see module docs).
    #[default]
    Masked,
}

/// Magnitude of the uniform masks used by [`divide_masked`]. Large enough to
/// swamp typical neural-network weights, small enough that `f64`
/// accumulation error stays ~1e-9 of a weight.
pub(crate) const DEFAULT_MASK_BOUND: f64 = 1e3;

/// Paper Alg. 1: splits `w` into `n` shares `prn_i · w` where the `prn_i`
/// are normalized positive random numbers summing to 1.
///
/// Panics if `n == 0`.
pub fn divide_scaled<R: Rng + ?Sized>(
    w: &WeightVector,
    n: usize,
    rng: &mut R,
) -> Vec<WeightVector> {
    assert!(n > 0, "cannot split into zero shares");
    // Draw strictly positive random numbers so the normalizer can't be 0.
    let rn: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..1.0)).collect();
    let total: f64 = rn.iter().sum();
    rn.iter().map(|&r| w.scaled(r / total)).collect()
}

/// Standard additive masking: `n-1` uniform noise shares plus a correction
/// share, summing exactly to `w`.
///
/// Share generation is fused and chunked: each noise share is drawn
/// directly into its destination buffer and subtracted from the residual
/// chunk-by-chunk in the same sweep, halving the memory traffic of the
/// draw-then-subtract formulation (`divide_masked_reference`, the test
/// oracle) while drawing from the RNG in exactly the same order — the
/// shares are bit-identical to the reference.
///
/// Panics if `n == 0`.
pub fn divide_masked<R: Rng + ?Sized>(
    w: &WeightVector,
    n: usize,
    rng: &mut R,
) -> Vec<WeightVector> {
    assert!(n > 0, "cannot split into zero shares");
    let dim = w.dim();
    // Cache-sized stripe: noise generation and the residual update for one
    // chunk complete while the chunk is still resident.
    const CHUNK: usize = 4096;
    let mut shares: Vec<WeightVector> = Vec::with_capacity(n);
    let mut residual = w.clone().into_inner();
    for _ in 0..n - 1 {
        let mut noise = vec![0.0f64; dim];
        for (nc, rc) in noise.chunks_mut(CHUNK).zip(residual.chunks_mut(CHUNK)) {
            for (x, r) in nc.iter_mut().zip(rc.iter_mut()) {
                let v = rng.random_range(-DEFAULT_MASK_BOUND..=DEFAULT_MASK_BOUND);
                *x = v;
                *r -= v;
            }
        }
        shares.push(WeightVector::new(noise));
    }
    shares.push(WeightVector::new(residual));
    shares
}

/// The original two-pass formulation of [`divide_masked`]:
/// draw a whole noise vector, then subtract it from the residual. Retained
/// as the differential-test oracle for the fused kernel.
#[cfg(test)]
pub(crate) fn divide_masked_reference<R: Rng + ?Sized>(
    w: &WeightVector,
    n: usize,
    rng: &mut R,
) -> Vec<WeightVector> {
    assert!(n > 0, "cannot split into zero shares");
    let dim = w.dim();
    let mut shares: Vec<WeightVector> = Vec::with_capacity(n);
    let mut residual = w.clone();
    for _ in 0..n - 1 {
        let noise = WeightVector::random(dim, DEFAULT_MASK_BOUND, rng);
        residual.sub_assign(&noise);
        shares.push(noise);
    }
    shares.push(residual);
    shares
}

/// Splits `w` into `n` shares using `scheme`.
pub fn divide<R: Rng + ?Sized>(
    w: &WeightVector,
    n: usize,
    scheme: ShareScheme,
    rng: &mut R,
) -> Vec<WeightVector> {
    match scheme {
        ShareScheme::Scaled => divide_scaled(w, n, rng),
        ShareScheme::Masked => divide_masked(w, n, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reconstructs(shares: &[WeightVector], w: &WeightVector, tol: f64) {
        let sum = WeightVector::sum(shares.iter());
        assert!(
            sum.linf_distance(w) < tol,
            "reconstruction error {} over tol {tol}",
            sum.linf_distance(w)
        );
    }

    #[test]
    fn scaled_shares_sum_to_secret() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = WeightVector::random(100, 1.0, &mut rng);
        for n in 1..=12 {
            let shares = divide_scaled(&w, n, &mut rng);
            assert_eq!(shares.len(), n);
            reconstructs(&shares, &w, 1e-12);
        }
    }

    #[test]
    fn masked_shares_sum_to_secret() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = WeightVector::random(100, 1.0, &mut rng);
        for n in 1..=12 {
            let shares = divide_masked(&w, n, &mut rng);
            assert_eq!(shares.len(), n);
            reconstructs(&shares, &w, 1e-9);
        }
    }

    #[test]
    fn single_share_is_the_secret() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = WeightVector::new(vec![1.0, -2.0, 3.0]);
        assert_eq!(divide_scaled(&w, 1, &mut rng)[0], w);
        assert_eq!(divide_masked(&w, 1, &mut rng)[0], w);
    }

    #[test]
    fn masked_share_is_statistically_unrelated() {
        // A masked share of a zero vector and of a unit vector should look
        // the same at the resolution of the mask: its magnitude is dominated
        // by the mask bound, not the secret.
        let mut rng = StdRng::seed_from_u64(4);
        let w = WeightVector::new(vec![0.5; 1000]);
        let shares = divide_masked(&w, 5, &mut rng);
        // Non-final shares are pure noise with std ~ bound/sqrt(3).
        let rms = (shares[0].iter().map(|x| x * x).sum::<f64>() / 1000.0).sqrt();
        assert!(
            rms > DEFAULT_MASK_BOUND * 0.4,
            "rms {rms} too small for noise"
        );
    }

    #[test]
    fn scaled_share_leaks_direction() {
        // Documented limitation of the paper's Alg. 1: each share is a
        // positive multiple of w.
        let mut rng = StdRng::seed_from_u64(5);
        let w = WeightVector::new(vec![3.0, -1.0]);
        for share in divide_scaled(&w, 4, &mut rng) {
            let ratio = share[0] / w[0];
            assert!(ratio > 0.0);
            assert!((share[1] / w[1] - ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_masked_divide_is_bit_identical_to_reference() {
        // Same seed, same draw order: the fused chunked kernel must equal
        // the two-pass oracle exactly, across dims straddling the chunk
        // size and share counts from degenerate to 12.
        for (case, &dim) in [1usize, 7, 100, 4095, 4096, 4097, 9001].iter().enumerate() {
            for n in [1usize, 2, 5, 12] {
                let seed = 0xd1f + case as u64 * 31 + n as u64;
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let w = WeightVector::random(dim, 1.0, &mut StdRng::seed_from_u64(seed ^ 1));
                let fused = divide_masked(&w, n, &mut rng_a);
                let reference = divide_masked_reference(&w, n, &mut rng_b);
                assert_eq!(fused, reference, "dim {dim}, n {n}");
            }
        }
    }

    #[test]
    fn dispatcher_routes() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = WeightVector::random(10, 1.0, &mut rng);
        reconstructs(&divide(&w, 4, ShareScheme::Scaled, &mut rng), &w, 1e-12);
        reconstructs(&divide(&w, 4, ShareScheme::Masked, &mut rng), &w, 1e-9);
    }
}
