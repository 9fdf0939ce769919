//! Sequential model container with flat-parameter import/export.
//!
//! The aggregation protocols treat a model as an opaque flat `f64` vector;
//! [`Sequential::params_flat`] / [`Sequential::set_params_flat`] are that
//! bridge.

use crate::layer::{Layer, Param};
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::optim::Optimizer;
use crate::tensor::Tensor;

/// A stack of layers executed in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, train);
        }
        cur
    }

    /// Backward pass through all layers (after a `forward(_, true)`).
    /// Nothing consumes the gradient w.r.t. the model input, so the first
    /// layer only accumulates its parameter gradients.
    pub fn backward(&mut self, grad: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut cur = grad.clone();
        for l in rest.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        first.backward_params(&cur);
    }

    /// All trainable parameters, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to all trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// One training step on a batch: forward, loss, backward, optimizer
    /// update. Returns `(loss, accuracy)` on the batch.
    pub fn train_batch<O: Optimizer>(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &mut O,
    ) -> (f32, f64) {
        let logits = self.forward(x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        let acc = accuracy(&logits, labels);
        self.backward(&grad);
        let mut params = self.params_mut();
        opt.step(&mut params);
        (loss, acc)
    }

    /// Evaluates `(mean loss, accuracy)` on a batch without training.
    pub fn eval_batch(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f64) {
        let logits = self.forward(x, false);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        (loss, accuracy(&logits, labels))
    }

    /// Exports every parameter as one flat `f64` vector (layer order).
    pub fn params_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for p in self.params() {
            out.extend(p.value.data().iter().map(|&x| x as f64));
        }
        out
    }

    /// Imports a flat parameter vector produced by [`Self::params_flat`]
    /// (or an aggregate of such vectors). Panics on length mismatch.
    pub fn set_params_flat(&mut self, flat: &[f64]) {
        let expected = self.num_params();
        assert_eq!(
            flat.len(),
            expected,
            "expected {expected} params, got {}",
            flat.len()
        );
        let mut off = 0;
        for p in self.params_mut() {
            let n = p.len();
            for (dst, &src) in p.value.data_mut().iter_mut().zip(&flat[off..off + n]) {
                *dst = src as f32;
            }
            off += n;
        }
    }

    /// One line per layer: name and parameter count.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for l in &self.layers {
            let n: usize = l.params().iter().map(|p| p.len()).sum();
            s.push_str(&format!("{:<12} {:>10} params\n", l.name(), n));
        }
        s.push_str(&format!("{:<12} {:>10} total\n", "", self.num_params()));
        s
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new_he(2, 16, &mut rng))
            .push(Relu::new())
            .push(Dense::new_xavier(16, 2, &mut rng))
    }

    #[test]
    fn param_round_trip() {
        let m = tiny_model(1);
        let flat = m.params_flat();
        assert_eq!(flat.len(), m.num_params());
        let mut m2 = tiny_model(2);
        m2.set_params_flat(&flat);
        assert_eq!(m2.params_flat(), flat);
    }

    #[test]
    fn learns_xor() {
        let mut m = tiny_model(3);
        let x = Tensor::from_vec(&[4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let labels = [0usize, 1, 1, 0];
        let mut opt = Sgd::new(0.5);
        let mut last = f32::INFINITY;
        for _ in 0..500 {
            let (loss, _) = m.train_batch(&x, &labels, &mut opt);
            last = loss;
        }
        assert!(last < 0.05, "final loss {last}");
        let (_, acc) = m.eval_batch(&x, &labels);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn nan_parameters_train_and_evaluate_without_unwinding() {
        // A poisoned or diverged global reaches every client's
        // `set_params_flat`; the training fan-out must survive it.
        let mut m = tiny_model(6);
        let mut flat = m.params_flat();
        // The output bias: ReLU would swallow a NaN below it.
        *flat.last_mut().unwrap() = f64::NAN;
        m.set_params_flat(&flat);
        let data = crate::data::synthetic(&[2], 2, 8, 0.5, 1);
        let (x, labels) = data.full_batch();
        let (_, acc) = m.train_batch(&x, &labels, &mut Sgd::new(0.1));
        assert_eq!(acc, 0.0, "every row has a NaN logit");
        let (_, acc) = crate::metrics::evaluate(&mut m, &data, 4);
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn num_params_matches_layers() {
        let m = tiny_model(4);
        // 2*16 + 16 + 16*2 + 2
        assert_eq!(m.num_params(), 32 + 16 + 32 + 2);
        assert!(m.summary().contains("dense"));
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn set_params_flat_rejects_bad_length() {
        let mut m = tiny_model(5);
        m.set_params_flat(&[0.0; 3]);
    }
}
