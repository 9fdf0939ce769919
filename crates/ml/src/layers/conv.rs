//! 2-D convolution via im2col.
//!
//! Stride is fixed at 1 (all convolutions in the Fig. 5 CNN are 3×3/s1 with
//! "same" padding). The im2col transform turns convolution into one big
//! matrix product, which reuses the one GEMM routine in `tensor`.

use crate::init;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use rand::Rng;

/// 2-D convolution layer over `[B, C, H, W]` inputs.
pub struct Conv2d {
    weight: Param, // [out_c, in_c * kh * kw]
    bias: Param,   // [1, out_c]
    in_c: usize,
    out_c: usize,
    k: usize,
    pad: usize,
    cached_cols: Option<Tensor>,
    cached_dims: Option<(usize, usize, usize)>, // (batch, oh, ow)
}

impl Conv2d {
    /// He-initialized `k×k` same-ish convolution with `pad` zero padding.
    pub fn new<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        k: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_c * k * k;
        Conv2d {
            weight: Param::new(init::he_normal(&[fan_in, out_c], fan_in, rng)),
            bias: Param::new(Tensor::zeros(&[1, out_c])),
            in_c,
            out_c,
            k,
            pad,
            cached_cols: None,
            cached_dims: None,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h + 2 * self.pad + 1 - self.k, w + 2 * self.pad + 1 - self.k)
    }

    /// The im2col transform: unfolds `[B, C, H, W]` input patches into a
    /// `[B*OH*OW, C*k*k]` matrix whose product with the weight is the
    /// convolution. Public so the benchmark harness can time the unfold in
    /// isolation; not part of the training API.
    pub fn im2col(&self, x: &Tensor) -> (Tensor, usize, usize, usize) {
        let s = x.shape();
        assert_eq!(s.len(), 4, "conv input must be [B, C, H, W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(
            c, self.in_c,
            "channel mismatch: input has {c} channels, layer expects {}",
            self.in_c
        );
        let (oh, ow) = self.out_hw(h, w);
        let kk = self.k;
        let pad = self.pad;
        let cols_w = c * kk * kk;
        let mut cols = vec![0.0f32; b * oh * ow * cols_w];
        let xd = x.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * cols_w;
                    // The kx values that land inside [0, w): one contiguous
                    // span per (patch, ky), copied as a slice instead of
                    // element-by-element.
                    let kx0 = pad.saturating_sub(ox);
                    let kx1 = kk.min(w + pad - ox);
                    if kx0 >= kx1 {
                        continue;
                    }
                    for ci in 0..c {
                        for ky in 0..kk {
                            let iy = (oy + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let src = ((bi * c + ci) * h + iy as usize) * w + (ox + kx0) - pad;
                            let dst = row + (ci * kk + ky) * kk + kx0;
                            let len = kx1 - kx0;
                            cols[dst..dst + len].copy_from_slice(&xd[src..src + len]);
                        }
                    }
                }
            }
        }
        (Tensor::from_vec(&[b * oh * ow, cols_w], cols), b, oh, ow)
    }

    fn col2im(&self, dcols: &Tensor, b: usize, h: usize, w: usize) -> Tensor {
        let (oh, ow) = self.out_hw(h, w);
        let c = self.in_c;
        let kk = self.k;
        let cols_w = c * kk * kk;
        let pad = self.pad;
        let mut out = vec![0.0f32; b * c * h * w];
        let dd = dcols.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * cols_w;
                    // Same contiguous-span structure as im2col, but
                    // scatter-adding instead of copying.
                    let kx0 = pad.saturating_sub(ox);
                    let kx1 = kk.min(w + pad - ox);
                    if kx0 >= kx1 {
                        continue;
                    }
                    for ci in 0..c {
                        for ky in 0..kk {
                            let iy = (oy + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst = ((bi * c + ci) * h + iy as usize) * w + (ox + kx0) - pad;
                            let src = row + (ci * kk + ky) * kk + kx0;
                            let len = kx1 - kx0;
                            for (o, &d) in out[dst..dst + len].iter_mut().zip(&dd[src..src + len]) {
                                *o += d;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[b, c, h, w], out)
    }

    /// The parameter half of the backward pass: `dW += colsᵀ g`, `db +=
    /// column sums of g`. Returns `g` as the `[B*OH*OW, OC]` matrix the
    /// input gradient is computed from, for the caller that needs one.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let (b, oh, ow) = self.cached_dims.expect("backward before forward");
        // Un-permute [b, oc, oy, ox] -> rows [b, oy, ox][oc].
        let mut g = vec![0.0f32; b * oh * ow * self.out_c];
        let gd = grad_out.data();
        for bi in 0..b {
            for oc in 0..self.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        g[((bi * oh + oy) * ow + ox) * self.out_c + oc] =
                            gd[((bi * self.out_c + oc) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        let gmat = Tensor::from_vec(&[b * oh * ow, self.out_c], g);
        let cols = self.cached_cols.take().expect("backward before forward");
        self.weight.grad.add_assign(&cols.matmul_tn(&gmat));
        let db = gmat.sum_rows();
        for (gacc, d) in self.bias.grad.data_mut().iter_mut().zip(&db) {
            *gacc += d;
        }
        gmat
    }

    fn cached_input_hw(&self) -> (usize, usize) {
        let (_, oh, ow) = self.cached_dims.expect("backward before forward");
        (
            oh + self.k - 1 - 2 * self.pad,
            ow + self.k - 1 - 2 * self.pad,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (cols, b, oh, ow) = self.im2col(x);
        // [B*OH*OW, C*k*k] x [C*k*k, OC] = [B*OH*OW, OC]
        let mat = cols.matmul(&self.weight.value);
        if train {
            self.cached_cols = Some(cols);
            self.cached_dims = Some((b, oh, ow));
        }
        // Permute rows [b, oy, ox][oc] -> [b, oc, oy, ox], adding the bias
        // in the same pass (one memory traversal instead of two).
        let bias = self.bias.value.data();
        let mut out = vec![0.0f32; b * self.out_c * oh * ow];
        let md = mat.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * self.out_c;
                    for oc in 0..self.out_c {
                        out[((bi * self.out_c + oc) * oh + oy) * ow + ox] = md[row + oc] + bias[oc];
                    }
                }
            }
        }
        Tensor::from_vec(&[b, self.out_c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let gmat = self.accumulate_param_grads(grad_out);
        let (b, _, _) = self.cached_dims.expect("backward before forward");
        let dcols = gmat.matmul(&self.weight.value.transposed());
        let (h, w) = self.cached_input_hw();
        self.col2im(&dcols, b, h, w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate_param_grads(grad_out);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        // Kernel that picks the center pixel.
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        conv.weight.value = Tensor::from_vec(&[9, 1], w);
        conv.bias.value = Tensor::zeros(&[1, 1]);
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|i| i as f32).collect());
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn shapes_with_padding() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        // Without padding the spatial dims shrink by k-1.
        let mut convnp = Conv2d::new(3, 4, 3, 0, &mut rng);
        let y2 = convnp.forward(&x, false);
        assert_eq!(y2.shape(), &[2, 4, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "conv input must be [B, C, H, W]")]
    fn non_4d_input_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[4, 9]), false);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channel_count_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(3, 4, 3, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 2, 8, 8]), false);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 3, 3]));
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        let n_in = 2 * 2 * 4 * 4;
        let x = Tensor::from_vec(
            &[2, 2, 4, 4],
            (0..n_in).map(|i| (i as f32 * 0.37).sin() * 0.5).collect(),
        );
        let y = conv.forward(&x, true);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let dx = conv.backward(&ones);

        let eps = 1e-2f32;
        // Spot-check a scattering of input gradients.
        for &i in &[0usize, 5, 17, 31, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = conv.forward(&xp, false).data().iter().sum();
            let lm: f32 = conv.forward(&xm, false).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 0.05,
                "dx[{i}] numeric {num} analytic {}",
                dx.data()[i]
            );
        }
        // Spot-check weight gradients.
        let analytic = conv.params()[0].grad.clone();
        for &i in &[0usize, 7, 20, 35] {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let lp: f32 = conv.forward(&x, false).data().iter().sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let lm: f32 = conv.forward(&x, false).data().iter().sum();
            conv.weight.value.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 0.05,
                "dW[{i}] numeric {num} analytic {}",
                analytic.data()[i]
            );
        }
    }
}
