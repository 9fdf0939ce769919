//! Fully connected layer.

use crate::init;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use rand::Rng;

/// `y = x W + b` over a batch: `x` is `[B, in]`, `W` is `[in, out]`.
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// He-initialized dense layer (for hidden layers before ReLU).
    pub fn new_he<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Dense {
            weight: Param::new(init::he_normal(&[in_dim, out_dim], in_dim, rng)),
            bias: Param::new(Tensor::zeros(&[1, out_dim])),
            cached_input: None,
        }
    }

    /// Xavier-initialized dense layer (for the softmax output).
    pub fn new_xavier<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Dense {
            weight: Param::new(init::xavier_uniform(
                &[in_dim, out_dim],
                in_dim,
                out_dim,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[1, out_dim])),
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.matmul(&self.weight.value);
        y.add_row_broadcast(self.bias.value.data());
        if train {
            self.cached_input = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dx = g W^T
        grad_out.matmul(&self.weight.value.transposed())
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self.cached_input.as_ref().expect("backward before forward");
        // dW = x^T g ; db = column sums of g
        self.weight.grad.add_assign(&x.matmul_tn(grad_out));
        let db = grad_out.sum_rows();
        for (g, d) in self.bias.grad.data_mut().iter_mut().zip(&db) {
            *g += d;
        }
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new_he(3, 2, &mut rng);
        // Force known weights.
        d.weight.value = Tensor::from_vec(&[3, 2], vec![1., 0., 0., 1., 1., 1.]);
        d.bias.value = Tensor::from_vec(&[1, 2], vec![0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 3], vec![1., 2., 3.]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), &[1. + 3. + 0.5, 2. + 3. - 0.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new_he(4, 3, &mut rng);
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|i| 0.1 * i as f32 - 0.3).collect());
        // Loss = sum(y) so dL/dy = ones.
        let y = d.forward(&x, true);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let dx = d.backward(&ones);

        let eps = 1e-3f32;
        // Check dL/dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = d.forward(&xp, false).data().iter().sum();
            let lm: f32 = d.forward(&xm, false).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "dx[{i}] numeric {num} analytic {}",
                dx.data()[i]
            );
        }
        // Check dL/dW numerically.
        let analytic_dw = d.params()[0].grad.clone();
        for i in 0..analytic_dw.len() {
            let orig = d.weight.value.data()[i];
            d.weight.value.data_mut()[i] = orig + eps;
            let lp: f32 = d.forward(&x, false).data().iter().sum();
            d.weight.value.data_mut()[i] = orig - eps;
            let lm: f32 = d.forward(&x, false).data().iter().sum();
            d.weight.value.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic_dw.data()[i]).abs() < 1e-2,
                "dW[{i}] numeric {num} analytic {}",
                analytic_dw.data()[i]
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new_he(2, 2, &mut rng);
        let x = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        let g = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        d.forward(&x, true);
        d.backward(&g);
        let g1 = d.params()[0].grad.clone();
        d.forward(&x, true);
        d.backward(&g);
        let g2 = d.params()[0].grad.clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((b - 2.0 * a).abs() < 1e-6, "accumulation failed");
        }
        d.params_mut()[0].zero_grad();
        assert!(d.params()[0].grad.data().iter().all(|&v| v == 0.0));
    }
}
