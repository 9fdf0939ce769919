//! A minimal dense tensor for CPU training.
//!
//! Row-major `f32` storage with an explicit shape. Only the operations the
//! paper's CNN/MLP need are implemented — 2-D matrix product, transpose,
//! broadcasting bias addition, elementwise maps — all in safe Rust.
//!
//! # The one GEMM routine and its bit-identity contract
//!
//! Every matrix product in the crate — [`Tensor::matmul`] (`A · B`) and
//! [`Tensor::matmul_tn`] (`Aᵀ · B`, the weight-gradient shape) — is the
//! private `gemm` below. It reads the left operand through a pair of
//! strides, so the transposed entry allocates and copies nothing, and it
//! picks between two tilings by the output width alone:
//!
//! * **wide** (`n > 16`): four output rows advance together down `k` (ikj
//!   order), so each row of `B` streamed from memory feeds four rows of
//!   the result and the contiguous loop over `j` auto-vectorizes;
//! * **narrow** (`n <= 16`, e.g. the 10-class head): there the wide loop
//!   would reload and restore four short output rows for every `k`, so
//!   `B` is packed once into fixed-width zero-padded rows and a 4-row tile
//!   of accumulators lives in registers for the whole `k` loop, written
//!   once.
//!
//! The contract both tilings keep, and any future one must: **each output
//! element is `acc = +0.0; for p in 0..k { acc += a[i][p] * b[p][j] }`** —
//! ascending `p`, a separate multiply and add (no FMA), no split or
//! reordered sums. Tiling only changes which elements are in flight
//! together, never the operation sequence of one element, so results are
//! bit-identical to the three-line loop (`tests/gemm_exact.rs` checks
//! `to_bits` equality across shapes and remainders, `tests/train_golden.rs`
//! at the repo root pins trained parameters), and trained models do not
//! depend on which tiling ran.

use std::fmt;

/// A dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor from raw data; `data.len()` must equal the shape
    /// product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape product {n}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape changes element count");
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Number of rows when viewed as a 2-D matrix.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "not a matrix");
        self.shape[0]
    }

    /// Number of columns when viewed as a 2-D matrix.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "not a matrix");
        self.shape[1]
    }

    /// Element accessor for 2-D tensors.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Matrix product `self (m×k) · other (k×n) -> (m×n)`.
    ///
    /// Bit-identical to the plain ascending-`k` triple loop (see the module
    /// header), and within float-reassociation error of
    /// [`crate::reference::matmul_naive`], the test oracle.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs not a matrix");
        assert_eq!(other.shape.len(), 2, "rhs not a matrix");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "inner dimensions differ: lhs {:?} vs rhs {:?}",
            self.shape, other.shape
        );
        Tensor::from_vec(&[m, n], gemm(&self.data, (k, 1), (m, k, n), &other.data))
    }

    /// Transposed-lhs product `selfᵀ · other`: `self` is `(k×m)`, `other`
    /// is `(k×n)`, the result `(m×n)`. Bit-identical to
    /// `self.transposed().matmul(other)` without materializing the
    /// transpose — the shape of every weight gradient (`xᵀ · g`).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs not a matrix");
        assert_eq!(other.shape.len(), 2, "rhs not a matrix");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "row counts differ: lhs {:?} vs rhs {:?}",
            self.shape, other.shape
        );
        Tensor::from_vec(&[m, n], gemm(&self.data, (1, m), (m, k, n), &other.data))
    }

    /// Transpose of a 2-D tensor.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "not a matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    /// Adds `bias` (length = last dim) to every row of a 2-D tensor.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(self.shape.len(), 2, "not a matrix");
        let n = self.shape[1];
        assert_eq!(bias.len(), n, "bias length mismatch");
        for row in self.data.chunks_exact_mut(n) {
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise sum with another tensor of identical shape.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales every element.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sum over rows of a 2-D tensor, yielding a vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        assert_eq!(self.shape.len(), 2, "not a matrix");
        let n = self.shape[1];
        let mut out = vec![0.0f32; n];
        for row in self.data.chunks_exact(n) {
            for (o, x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

/// Rows of the left operand advanced together, in both tilings.
const MR: usize = 4;
/// Widest output the register-tiled narrow path takes.
const NARROW_MAX: usize = 16;

/// `A (m×k) · B (k×n)`, row-major result. `A[i][p]` is
/// `a[i * row_stride + p * col_stride]` — `(k, 1)` for a row-major `A`,
/// `(1, m)` for the transpose of a row-major `(k×m)` matrix. See the module
/// header for the bit-identity contract.
fn gemm(
    a: &[f32],
    (row_stride, col_stride): (usize, usize),
    (m, k, n): (usize, usize, usize),
    b: &[f32],
) -> Vec<f32> {
    let at = |i: usize, p: usize| a[i * row_stride + p * col_stride];
    let mut out = vec![0.0f32; m * n];
    if n == 0 {
        return out;
    }
    if n <= NARROW_MAX {
        match n.div_ceil(4) {
            1 => gemm_narrow::<4>(at, k, n, b, &mut out),
            2 => gemm_narrow::<8>(at, k, n, b, &mut out),
            3 => gemm_narrow::<12>(at, k, n, b, &mut out),
            _ => gemm_narrow::<16>(at, k, n, b, &mut out),
        }
        return out;
    }
    let mut blocks = out.chunks_exact_mut(MR * n);
    for (blk, rows) in blocks.by_ref().enumerate() {
        let i = blk * MR;
        let (r0, rest) = rows.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            let (a0, a1, a2, a3) = (at(i, p), at(i + 1, p), at(i + 2, p), at(i + 3, p));
            for (j, &bv) in b_row.iter().enumerate() {
                r0[j] += a0 * bv;
                r1[j] += a1 * bv;
                r2[j] += a2 * bv;
                r3[j] += a3 * bv;
            }
        }
    }
    // Remainder rows (m not a multiple of the row block).
    let done = m - m % MR;
    for (r, out_row) in blocks.into_remainder().chunks_exact_mut(n).enumerate() {
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            let av = at(done + r, p);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The narrow tiling of [`gemm`]: `n <= W`, `W` a multiple of the 4-lane
/// vector width. `B` is packed into `W`-wide zero-padded rows so the inner
/// loops have a compile-time trip count and the `R × W` accumulators stay
/// in registers across the whole `k` loop; the padding lanes accumulate
/// `a * 0.0` and are dropped on the single write-back.
fn gemm_narrow<const W: usize>(
    at: impl Fn(usize, usize) -> f32,
    k: usize,
    n: usize,
    b: &[f32],
    out: &mut [f32],
) {
    let mut packed = vec![0.0f32; k * W];
    for (dst, src) in packed.chunks_exact_mut(W).zip(b.chunks_exact(n)) {
        dst[..n].copy_from_slice(src);
    }
    let done = out.len() / (MR * n) * MR;
    let mut blocks = out.chunks_exact_mut(MR * n);
    for (blk, rows) in blocks.by_ref().enumerate() {
        narrow_tile::<MR, W>(&at, blk * MR, &packed, n, rows);
    }
    for (r, row) in blocks.into_remainder().chunks_exact_mut(n).enumerate() {
        narrow_tile::<1, W>(&at, done + r, &packed, n, row);
    }
}

/// `R` output rows starting at row `i0`, accumulated in registers.
#[inline(always)]
fn narrow_tile<const R: usize, const W: usize>(
    at: &impl Fn(usize, usize) -> f32,
    i0: usize,
    packed: &[f32],
    n: usize,
    rows: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    for (p, b_row) in packed.chunks_exact(W).enumerate() {
        // A fixed-size view: the trip counts below are compile-time, which
        // is what lets the accumulators live in registers.
        let b_row: &[f32; W] = b_row.try_into().expect("chunks_exact yields W lanes");
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = at(i0 + r, p);
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    // By value: iterating `&acc` would pin the accumulators in memory.
    for (row, acc_row) in rows.chunks_exact_mut(n).zip(acc) {
        row.copy_from_slice(&acc_row[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![3., -1., 2., 5.]);
        let i = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Tensor::from_vec(&[2, 2], vec![0., 0., 1., 1.]);
        a.add_row_broadcast(&[10., 20.]);
        assert_eq!(a.data(), &[10., 20., 11., 21.]);
        assert_eq!(a.sum_rows(), vec![21., 41.]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.reshaped(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ: lhs [2, 3] vs rhs [2, 3]")]
    fn matmul_dimension_mismatch_panics_with_both_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_row_block_remainder_matches_reference() {
        // 5, 6, 7 rows exercise the 1-, 2-, and 3-row tails after the
        // 4-row blocked passes.
        for m in [1usize, 2, 3, 5, 6, 7, 9] {
            let a = Tensor::from_vec(&[m, 3], (0..m * 3).map(|i| i as f32 * 0.5 - 1.0).collect());
            let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| (i as f32).cos()).collect());
            let fast = a.matmul(&b);
            let slow = crate::reference::matmul_naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-5, "m={m}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn map_scale_norm() {
        let mut a = Tensor::from_vec(&[1, 2], vec![3., 4.]);
        assert_eq!(a.norm(), 5.0);
        a.map_inplace(|x| x * 2.0);
        assert_eq!(a.data(), &[6., 8.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[3., 4.]);
    }
}
