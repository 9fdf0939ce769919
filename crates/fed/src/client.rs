//! A federated-learning client: local model + private data + optimizer.

use p2pfl_ml::data::Dataset;
use p2pfl_ml::metrics::evaluate;
use p2pfl_ml::optim::Adam;
use p2pfl_ml::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters of a local update (paper Sec. VI-A1: 1 epoch, batch 50,
/// Adam with lr 1e-4).
#[derive(Debug, Clone, Copy)]
pub struct LocalTrainConfig {
    /// Epochs per round.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        LocalTrainConfig {
            epochs: 1,
            batch_size: 50,
        }
    }
}

/// One peer's learning state.
pub struct Client {
    /// Stable client id (used for reporting only).
    pub id: usize,
    model: Sequential,
    data: Dataset,
    opt: Adam,
    rng: StdRng,
}

impl Client {
    /// Creates a client with its private dataset and an Adam optimizer with
    /// the given learning rate.
    pub fn new(id: usize, model: Sequential, data: Dataset, lr: f32, seed: u64) -> Self {
        Client {
            id,
            model,
            data,
            opt: Adam::new(lr),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of local training samples (`n_k` in the FedAvg update law).
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// Flat view of the current local model parameters.
    pub fn params(&self) -> Vec<f64> {
        self.model.params_flat()
    }

    /// Installs the new global model.
    pub fn set_params(&mut self, flat: &[f64]) {
        self.model.set_params_flat(flat);
    }

    /// Runs the local update (paper "local update" step) and returns the
    /// mean `(loss, accuracy)` over the processed batches.
    pub fn local_update(&mut self, cfg: LocalTrainConfig) -> (f64, f64) {
        let mut loss_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut batches = 0usize;
        for _ in 0..cfg.epochs {
            for idx in self.data.minibatch_indices(cfg.batch_size, &mut self.rng) {
                let (x, y) = self.data.gather(&idx);
                let (loss, acc) = self.model.train_batch(&x, &y, &mut self.opt);
                loss_sum += loss as f64;
                acc_sum += acc;
                batches += 1;
            }
        }
        if batches == 0 {
            return (0.0, 0.0);
        }
        (loss_sum / batches as f64, acc_sum / batches as f64)
    }

    /// Evaluates the local model on an external dataset.
    pub fn evaluate_on(&mut self, data: &Dataset, batch_size: usize) -> (f64, f64) {
        evaluate(&mut self.model, data, batch_size)
    }

    /// Read access to the local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pfl_ml::data::{features_like, train_test_split};
    use p2pfl_ml::models::mlp;

    fn make_client(seed: u64) -> (Client, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = mlp(&[16, 24, 10], &mut rng);
        // Train and test must share class prototypes: draw one pool.
        let (data, test) = train_test_split(&features_like(16, 320, 100), 120);
        (Client::new(0, model, data, 5e-3, seed), test)
    }

    #[test]
    fn local_update_reduces_loss() {
        let (mut c, test) = make_client(1);
        let (before, _) = c.evaluate_on(&test, 64);
        for _ in 0..30 {
            c.local_update(LocalTrainConfig {
                epochs: 1,
                batch_size: 32,
            });
        }
        let (after, acc) = c.evaluate_on(&test, 64);
        assert!(after < before, "loss {before} -> {after}");
        assert!(acc > 0.2, "accuracy {acc}");
    }

    #[test]
    fn params_round_trip() {
        let (c, _) = make_client(2);
        let p = c.params();
        let (mut c2, _) = make_client(3);
        c2.set_params(&p);
        assert_eq!(c2.params(), p);
    }

    #[test]
    fn sample_count_reflects_data() {
        let (c, _) = make_client(4);
        assert_eq!(c.num_samples(), 120);
    }
}
