//! Activation layers.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit, `max(0, x)` elementwise.
pub struct Relu {
    cached_mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates the layer.
    pub fn new() -> Self {
        Relu { cached_mask: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.clone();
        if train {
            self.cached_mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        y.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.cached_mask.take().expect("backward before forward");
        // A select, not a conditional store: the mask of a hidden layer is
        // a coin flip per element, and a branch on it mispredicts half the
        // time (it was a sixth of the MLP training step).
        let dx = grad_out
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &keep)| if keep { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), dx)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Flattens `[B, ...]` to `[B, prod(...)]`. A pure reshape.
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert!(!s.is_empty(), "flatten needs a batch dim");
        let b = s[0];
        let rest: usize = s[1..].iter().product();
        if train {
            self.cached_shape = Some(s.to_vec());
        }
        x.reshaped(&[b, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let s = self.cached_shape.take().expect("backward before forward");
        grad_out.reshaped(&s)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_gates_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1., 2., 0., 3.]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0., 2., 0., 3.]);
        let g = Tensor::from_vec(&[1, 4], vec![1., 1., 1., 1.]);
        let dx = r.backward(&g);
        assert_eq!(dx.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        let dx = f.backward(&y);
        assert_eq!(dx.shape(), &[2, 2, 2]);
        assert_eq!(dx.data(), x.data());
    }
}
