//! The [`Layer`] abstraction and trainable [`Param`]s.

use crate::tensor::Tensor;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`, accumulated by `backward`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// One differentiable network layer.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// gradient w.r.t. the layer output and returns the gradient w.r.t. the
/// layer input, accumulating parameter gradients along the way;
/// `backward_params` is the same minus the input gradient, for the layer
/// nobody sits below. Layers are `Send` so whole models can move across
/// worker threads (the two-layer system trains its peers in parallel).
pub trait Layer: Send {
    /// Forward pass. `train` toggles training-only behavior (dropout).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass; must be preceded by a `forward` with `train = true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Backward pass of a layer whose input gradient is not needed (the
    /// first layer of a model): accumulates exactly the parameter
    /// gradients [`Layer::backward`] would and skips the input gradient.
    /// Layers with parameters override this with the accumulation alone.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// The layer's trainable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> &'static str;
}
