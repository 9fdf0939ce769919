//! Flat weight vectors — the unit of aggregation.
//!
//! Every protocol in this workspace treats a model as an opaque flat vector
//! of parameters. Arithmetic is done in `f64` for accumulation accuracy.
//!
//! Two byte counts exist per vector and they differ on purpose. The
//! *communication-cost ledger* ([`WeightVector::wire_bytes`], every
//! `Payload::size_bytes`) charges `4 * len` — the 32-bit floats of the
//! paper's PyTorch models, which is what the reproduced figures count. The
//! *binary codec* actually ships the `f64` bit patterns, `8 * len` bytes
//! plus a length prefix, because a real-network round must publish the
//! simulator's result bit for bit and a round trip through `f32` would not.

use rand::Rng;
use std::ops::{Deref, Index};

/// Bytes per parameter in the communication-cost ledger (f32, as in the
/// paper's PyTorch models). The binary codec ships 8 — see the module docs.
pub const WIRE_BYTES_PER_PARAM: u64 = 4;

/// A flat vector of model parameters.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct WeightVector(Vec<f64>);

impl WeightVector {
    /// Wraps an existing parameter vector.
    pub fn new(data: Vec<f64>) -> Self {
        WeightVector(data)
    }

    /// An all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        WeightVector(vec![0.0; dim])
    }

    /// A vector with i.i.d. uniform entries in `[-bound, bound]`.
    pub fn random<R: Rng + ?Sized>(dim: usize, bound: f64, rng: &mut R) -> Self {
        WeightVector((0..dim).map(|_| rng.random_range(-bound..=bound)).collect())
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Size in bytes the communication-cost ledger charges (f32 per
    /// parameter); not what the binary codec ships — see the module docs.
    pub fn wire_bytes(&self) -> u64 {
        self.0.len() as u64 * WIRE_BYTES_PER_PARAM
    }

    /// Borrow the raw parameters.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrow the raw parameters.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Consumes the vector, returning the raw parameters.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// `self += other`, elementwise. Panics on dimension mismatch.
    pub fn add_assign(&mut self, other: &WeightVector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// `self -= other`, elementwise. Panics on dimension mismatch.
    pub fn sub_assign(&mut self, other: &WeightVector) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a -= b;
        }
    }

    /// `self *= s`, elementwise.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.0 {
            *a *= s;
        }
    }

    /// Fused `self += s * other` in one pass — the axpy kernel behind
    /// weighted averaging and mask application. One memory traversal and
    /// no temporary, where `scaled` + `add_assign` costs an allocation and
    /// two traversals. Panics on dimension mismatch.
    pub fn add_scaled(&mut self, other: &WeightVector, s: f64) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += s * b;
        }
    }

    /// Returns `self * s` without mutating.
    pub fn scaled(&self, s: f64) -> WeightVector {
        let mut out = self.clone();
        out.scale(s);
        out
    }

    /// Sums a non-empty iterator of vectors. Panics if empty or mismatched.
    pub fn sum<'a, I: IntoIterator<Item = &'a WeightVector>>(iter: I) -> WeightVector {
        let mut it = iter.into_iter();
        let first = it.next().expect("summing zero vectors");
        let mut acc = first.clone();
        for v in it {
            acc.add_assign(v);
        }
        acc
    }

    /// Overwrites `self` with `0 + parts[0] + parts[1] + ...`, elementwise
    /// and in that order, whatever it held before — bit for bit what
    /// `zeros(dim)` and one `add_assign` per part give, but zeroed and
    /// summed block by block while each output block is in cache, so the
    /// output is written once rather than once per part, into storage
    /// the caller reuses. `parts` is walked once per block, so it should
    /// be cheap to clone. Panics on dimension mismatch.
    pub(crate) fn sum_from_zero<'a, I>(&mut self, parts: I)
    where
        I: Iterator<Item = &'a WeightVector> + Clone,
    {
        const BLOCK: usize = 2048;
        let dim = self.dim();
        assert!(parts.clone().all(|v| v.dim() == dim), "dimension mismatch");
        for (i, acc) in self.0.chunks_mut(BLOCK).enumerate() {
            acc.fill(0.0);
            for v in parts.clone() {
                for (a, b) in acc.iter_mut().zip(&v.0[i * BLOCK..]) {
                    *a += b;
                }
            }
        }
    }

    /// Arithmetic mean of a non-empty iterator of vectors.
    pub fn mean<'a, I: IntoIterator<Item = &'a WeightVector>>(iter: I) -> WeightVector {
        let vs: Vec<&WeightVector> = iter.into_iter().collect();
        let n = vs.len();
        let mut acc = WeightVector::sum(vs);
        acc.scale(1.0 / n as f64);
        acc
    }

    /// Weighted mean `Σ w_i v_i / Σ w_i` — the FedAvg update law.
    /// Panics if `weights` and the vector count differ or all weights are 0.
    pub fn weighted_mean(vectors: &[WeightVector], weights: &[f64]) -> WeightVector {
        assert_eq!(vectors.len(), weights.len(), "weight count mismatch");
        assert!(!vectors.is_empty(), "weighted mean of zero vectors");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut acc = WeightVector::zeros(vectors[0].dim());
        for (v, &w) in vectors.iter().zip(weights) {
            acc.add_scaled(v, w / total);
        }
        acc
    }

    /// Maximum absolute elementwise difference to `other`.
    pub fn linf_distance(&self, other: &WeightVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// 64-bit digest of the exact bit patterns of the entries: equal
    /// digests mean bit-for-bit identical vectors up to a 2^-64 accident.
    /// It is what share commitments carry and how the real-network runs
    /// prove parity with a simulator run of the same aggregation.
    ///
    /// Word-parallel: entry `i` feeds lane `i % 4`, each lane a rotate-
    /// xor-multiply chain over `f64::to_bits`, so four multiplies are in
    /// flight at once where a byte-serial hash waits on eight in a row per
    /// entry. Every step is a bijection of the lane state, hence any
    /// change to a single entry changes the digest; the lanes fold, in
    /// order and with the length, through a final avalanche.
    ///
    /// **Not cryptographic.** It catches accidental corruption and the
    /// modelled commit-then-skew sender, who commits before choosing what
    /// to send; anyone searching for a second vector with a given digest
    /// will find one.
    pub fn digest(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        fn step(h: u64, word: u64) -> u64 {
            (h.rotate_left(23) ^ word).wrapping_mul(K)
        }
        let mut lanes: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0x8422_2325_cbf2_9ce4,
            0x2545_f491_4f6c_dd1d,
            0xd6e8_feb8_6659_fd93,
        ];
        let (quads, tail) = self.0.as_chunks::<4>();
        for quad in quads {
            for (h, x) in lanes.iter_mut().zip(quad) {
                *h = step(*h, x.to_bits());
            }
        }
        for (h, x) in lanes.iter_mut().zip(tail) {
            *h = step(*h, x.to_bits());
        }
        let mut h = lanes
            .iter()
            .fold(step(K, self.0.len() as u64), |h, &lane| step(h, lane));
        // splitmix64 finalizer: the multiply chain only carries
        // differences upward, this brings them back down.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// The byte-serial FNV-1a that [`WeightVector::digest`] replaced, kept
    /// as the oracle the digest property tests are compared against.
    #[cfg(test)]
    fn digest_fnv1a_reference(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in &self.0 {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

impl Deref for WeightVector {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl Index<usize> for WeightVector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl From<Vec<f64>> for WeightVector {
    fn from(v: Vec<f64>) -> Self {
        WeightVector(v)
    }
}

impl FromIterator<f64> for WeightVector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        WeightVector(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arithmetic() {
        let mut a = WeightVector::new(vec![1.0, 2.0]);
        let b = WeightVector::new(vec![0.5, -1.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 1.0]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn add_scaled_matches_scale_then_add() {
        let mut rng = StdRng::seed_from_u64(9);
        let v = WeightVector::random(257, 1.0, &mut rng);
        let w = WeightVector::random(257, 1.0, &mut rng);
        let mut fused = v.clone();
        fused.add_scaled(&w, -0.375);
        let mut two_pass = v.clone();
        two_pass.add_assign(&w.scaled(-0.375));
        assert_eq!(fused, two_pass, "fused axpy must be bit-identical");
    }

    #[test]
    fn sum_from_zero_is_zeros_then_add_assign_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        // Signed zeros and NaN payloads are where a sum that starts from
        // the first part instead of +0.0 would differ.
        let specials = [-0.0, 0.0, f64::from_bits(0x7ff8_0000_0000_0001), -1e-300];
        for dim in [0, 1, 2047, 2048, 2049, 5000] {
            for count in 0..4 {
                let parts: Vec<WeightVector> = (0..count)
                    .map(|c| {
                        let mut v = WeightVector::random(dim, 1.0, &mut rng);
                        for (i, x) in v.0.iter_mut().enumerate().filter(|(i, _)| i % 7 == c) {
                            *x = specials[i % specials.len()];
                        }
                        v
                    })
                    .collect();
                let mut want = WeightVector::zeros(dim);
                for v in &parts {
                    want.add_assign(v);
                }
                // Storage left dirty by an earlier round.
                let mut got = WeightVector::new(vec![f64::NAN; dim]);
                got.sum_from_zero(parts.iter());
                assert_eq!(got.digest(), want.digest(), "dim {dim}, {count} parts");
            }
        }
    }

    #[test]
    fn mean_and_weighted_mean() {
        let vs = vec![
            WeightVector::new(vec![1.0, 0.0]),
            WeightVector::new(vec![3.0, 2.0]),
        ];
        assert_eq!(WeightVector::mean(vs.iter()).as_slice(), &[2.0, 1.0]);
        // Weighted: 3:1 toward the second vector.
        let wm = WeightVector::weighted_mean(&vs, &[1.0, 3.0]);
        assert_eq!(wm.as_slice(), &[2.5, 1.5]);
    }

    #[test]
    fn wire_bytes_is_four_per_param() {
        assert_eq!(WeightVector::zeros(1_248_394).wire_bytes(), 4 * 1_248_394);
    }

    #[test]
    fn distances() {
        let a = WeightVector::new(vec![0.0, 3.0]);
        let b = WeightVector::new(vec![4.0, 0.0]);
        assert_eq!(a.linf_distance(&b), 4.0);
        assert_eq!(b.l2_norm(), 4.0);
    }

    /// Both digests must tell `a` from `b`: the reference proves the pair
    /// really differs bitwise, the production digest must then see it too.
    fn assert_told_apart(a: &[f64], b: &[f64], what: &str) {
        let (a, b) = (WeightVector::new(a.to_vec()), WeightVector::new(b.to_vec()));
        assert_ne!(
            a.digest_fnv1a_reference(),
            b.digest_fnv1a_reference(),
            "{what}: not a bitwise change"
        );
        assert_ne!(a.digest(), b.digest(), "{what}");
    }

    #[test]
    fn digest_distinguishes_bit_changes() {
        let base: Vec<f64> = (1..=11).map(|i| i as f64 * 0.37).collect();
        assert_eq!(
            WeightVector::new(base.clone()).digest(),
            WeightVector::new(base.clone()).digest()
        );
        // One ulp — the smallest possible bitwise change — at every
        // position, so every lane and the tail are covered.
        for i in 0..base.len() {
            let mut c = base.clone();
            c[i] = f64::from_bits(c[i].to_bits() + 1);
            assert_told_apart(&base, &c, &format!("one ulp at {i}"));
        }
        // -0.0 == 0.0 numerically but differs bitwise; digest must see it.
        assert_told_apart(&[0.0], &[-0.0], "sign of zero");
        // Sign flips touch only the top bit, which a multiply chain never
        // carries anywhere by itself: two in one lane must not cancel.
        let mut c = base.clone();
        c[1] = -c[1];
        c[5] = -c[5];
        assert_told_apart(&base, &c, "two sign flips in one lane");
        // Swapping two entries: same lane (1 and 5) and different lanes.
        let mut c = base.clone();
        c.swap(1, 5);
        assert_told_apart(&base, &c, "swap within a lane");
        let mut c = base.clone();
        c.swap(1, 2);
        assert_told_apart(&base, &c, "swap across lanes");
        let mut c = base.clone();
        c.swap(8, 10);
        assert_told_apart(&base, &c, "swap in the tail");
        // NaN payload bits are data like any other.
        let quiet = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_told_apart(&[1.0, quiet], &[1.0, payload], "NaN payload");
        assert_told_apart(&[1.0, quiet], &[1.0, -quiet], "NaN sign");
    }

    #[test]
    fn digest_sees_length_and_trailing_zeros() {
        // Every length 0..=9, of zeros and of a repeated value: all
        // twenty digests differ, so appending or removing trailing zeros
        // (or anything else) never goes unnoticed.
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=9 {
            assert!(
                seen.insert(WeightVector::zeros(len).digest()),
                "zeros {len}"
            );
            if len > 0 {
                assert!(
                    seen.insert(WeightVector::new(vec![0.5; len]).digest()),
                    "halves {len}"
                );
            }
        }
        let v = [1.5, -2.0, 3.25];
        for pad in 1..=8 {
            let mut padded = v.to_vec();
            padded.resize(v.len() + pad, 0.0);
            assert_told_apart(&v, &padded, &format!("{pad} trailing zeros"));
        }
    }

    #[test]
    fn digest_agrees_with_the_reference_on_equality() {
        // Over random pairs that differ in one random bit or not at all,
        // the digest and the FNV-1a it replaced make the same call.
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..200 {
            let dim = rng.random_range(0..40usize);
            let a = WeightVector::random(dim, 1.0, &mut rng);
            let mut b = a.clone();
            if dim > 0 && case % 4 != 0 {
                let (i, bit) = (rng.random_range(0..dim), rng.random_range(0..64u32));
                b.0[i] = f64::from_bits(b.0[i].to_bits() ^ (1 << bit));
            }
            assert_eq!(
                a.digest() == b.digest(),
                a.digest_fnv1a_reference() == b.digest_fnv1a_reference(),
                "case {case}"
            );
        }
    }

    #[test]
    fn json_export_is_untouched_by_the_slice_hooks() {
        // The JSON backend does not override the `f64` slice hooks, so a
        // vector still exports as the same element-wise event stream.
        let v = WeightVector::new(vec![1.5, -2.0, 0.0, f64::NAN, 1e-7]);
        assert_eq!(
            serde::json::to_string(&v),
            r#"{"0":[1.5,-2.0,0.0,null,1e-7]}"#
        );
        assert_eq!(
            serde::json::to_string(&WeightVector::zeros(0)),
            r#"{"0":[]}"#
        );
    }

    #[test]
    fn random_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = WeightVector::random(1000, 0.25, &mut rng);
        assert!(v.iter().all(|x| x.abs() <= 0.25));
        assert!(v.is_finite());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let mut a = WeightVector::zeros(2);
        a.add_assign(&WeightVector::zeros(3));
    }
}
