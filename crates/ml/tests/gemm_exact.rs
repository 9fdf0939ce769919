//! The GEMM bit-identity contract, checked exactly.
//!
//! `tests/kernel_diff.rs` bounds the kernels against the ijk oracle with a
//! tolerance; this file holds them to `to_bits` equality against the
//! three-line ascending-`k` loop the contract is stated in (see the
//! `tensor` module header). Every entry (`matmul`, `matmul_tn`), both
//! tilings (n on either side of 16), every row-block remainder, and the
//! degenerate inner dimensions are covered, so a re-tiled kernel cannot
//! move a trained parameter by one ulp without failing here.

use p2pfl_ml::layers::{Conv2d, Dense};
use p2pfl_ml::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    // Mixed magnitudes and exact zeros: sums that round differently under
    // any reassociation, and `-0.0` products the `+0.0` start must absorb.
    let data = (0..n)
        .map(|_| match rng.random_range(0u32..8) {
            0 => 0.0,
            1 => rng.random_range(-1e-3f32..=1e-3),
            2 => rng.random_range(-1e3f32..=1e3),
            _ => rng.random_range(-1.0f32..=1.0),
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// The contract: each element is `acc = +0.0; acc += a * b` in ascending
/// `k`. `a` is read as `a_at(i, p)` so the same loop serves both entries.
fn reference(a_at: impl Fn(usize, usize) -> f32, b: &Tensor, m: usize) -> Vec<u32> {
    let (k, n) = (b.rows(), b.cols());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_at(i, p) * b.at2(p, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_gemm_entry_is_bit_identical_to_the_ascending_k_loop() {
    let mut rng = StdRng::seed_from_u64(0x6E33_0001);
    // m covers full 4-row blocks and the 1/2/3-row remainders; n covers
    // the narrow tiling's four lane widths, its boundary (16 | 17) and
    // wide outputs; k covers empty, single, odd and the session's sizes.
    let ms = [1usize, 2, 3, 4, 5, 6, 7, 8, 50];
    let ns: Vec<usize> = (1..=17).chain([33, 128]).collect();
    for &k in &[0usize, 1, 7, 50, 128] {
        for &m in &ms {
            for &n in &ns {
                let b = random_tensor(&[k, n], &mut rng);

                let a = random_tensor(&[m, k], &mut rng);
                let got = a.matmul(&b);
                assert_eq!(got.shape(), &[m, n]);
                assert_eq!(
                    bits(&got),
                    reference(|i, p| a.at2(i, p), &b, m),
                    "matmul {m}x{k}x{n}"
                );

                let at = random_tensor(&[k, m], &mut rng);
                let got = at.matmul_tn(&b);
                assert_eq!(got.shape(), &[m, n]);
                assert_eq!(
                    bits(&got),
                    reference(|i, p| at.at2(p, i), &b, m),
                    "matmul_tn {m}x{k}x{n}"
                );
            }
        }
    }
}

#[test]
fn matmul_tn_equals_materialized_transpose() {
    let mut rng = StdRng::seed_from_u64(0x6E33_0002);
    for &(k, m, n) in &[(50usize, 128usize, 10usize), (50, 64, 128), (9, 5, 3)] {
        let a = random_tensor(&[k, m], &mut rng);
        let b = random_tensor(&[k, n], &mut rng);
        assert_eq!(
            bits(&a.matmul_tn(&b)),
            bits(&a.transposed().matmul(&b)),
            "{k}x{m}x{n}"
        );
    }
}

/// Parameter gradients after `forward(x, true)` and one backward pass of
/// the given kind, as bit patterns.
fn param_grads(layer: &mut dyn Layer, x: &Tensor, g: &Tensor, params_only: bool) -> Vec<Vec<u32>> {
    for p in layer.params_mut() {
        p.zero_grad();
    }
    layer.forward(x, true);
    if params_only {
        layer.backward_params(g);
    } else {
        layer.backward(g);
    }
    layer.params().iter().map(|p| bits(&p.grad)).collect()
}

#[test]
fn params_only_backward_accumulates_the_same_gradients() {
    // The first layer of a model skips its input gradient; what it adds to
    // its parameter gradients must not depend on that.
    let mut rng = StdRng::seed_from_u64(0x6E33_0003);
    let mut dense = Dense::new_he(13, 10, &mut rng);
    let x = random_tensor(&[7, 13], &mut rng);
    let g = random_tensor(&[7, 10], &mut rng);
    assert_eq!(
        param_grads(&mut dense, &x, &g, true),
        param_grads(&mut dense, &x, &g, false),
        "dense"
    );

    let mut conv = Conv2d::new(2, 5, 3, 1, &mut rng);
    let x = random_tensor(&[3, 2, 6, 7], &mut rng);
    let g = random_tensor(&[3, 5, 6, 7], &mut rng);
    assert_eq!(
        param_grads(&mut conv, &x, &g, true),
        param_grads(&mut conv, &x, &g, false),
        "conv2d"
    );
}

#[test]
#[should_panic(expected = "row counts differ: lhs [3, 2] vs rhs [2, 2]")]
fn matmul_tn_dimension_mismatch_panics_with_both_shapes() {
    let _ = Tensor::zeros(&[3, 2]).matmul_tn(&Tensor::zeros(&[2, 2]));
}
