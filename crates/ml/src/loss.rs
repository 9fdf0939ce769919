//! Softmax cross-entropy loss (the paper's categorical cross-entropy).

use crate::tensor::Tensor;

/// Row-wise softmax of a `[B, C]` logit matrix, numerically stabilized.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().len(), 2, "logits must be [B, C]");
    let c = logits.shape()[1];
    let mut out = logits.clone();
    for row in out.data_mut().chunks_exact_mut(c) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean categorical cross-entropy between `[B, C]` logits and integer
/// labels, plus the gradient w.r.t. the logits (`(softmax - onehot)/B`).
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let b = logits.shape()[0];
    let c = logits.shape()[1];
    assert_eq!(labels.len(), b, "label count mismatch");
    let probs = softmax(logits);
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    let gd = grad.data_mut();
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        let p = probs.data()[i * c + y].max(1e-12);
        loss -= (p as f64).ln();
        gd[i * c + y] -= 1.0;
    }
    grad.scale(1.0 / b as f32);
    ((loss / b as f64) as f32, grad)
}

/// Fraction of rows whose argmax matches the label. A row holding a NaN
/// logit has no argmax and counts as a wrong prediction: a poisoned or
/// diverged model scores zero here, it does not panic the caller.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let b = logits.shape()[0];
    let c = logits.shape()[1];
    assert_eq!(labels.len(), b, "label count mismatch");
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits.data()[i * c..(i + 1) * c];
        if row.iter().any(|v| v.is_nan()) {
            continue;
        }
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN in the row"))
            .map(|(j, _)| j);
        if pred == Some(y) {
            correct += 1;
        }
    }
    correct as f64 / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        let p = softmax(&l);
        for row in p.data().chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&v| v.is_finite()));
        }
    }

    #[test]
    fn loss_of_perfect_prediction_is_small() {
        let l = Tensor::from_vec(&[1, 3], vec![100., 0., 0.]);
        let (loss, _) = softmax_cross_entropy(&l, &[0]);
        assert!(loss < 1e-6);
        let (loss_bad, _) = softmax_cross_entropy(&l, &[1]);
        assert!(loss_bad > 10.0);
    }

    #[test]
    fn uniform_logits_give_ln_c() {
        let l = Tensor::zeros(&[4, 10]);
        let (loss, _) = softmax_cross_entropy(&l, &[0, 3, 5, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_numerical() {
        let l = Tensor::from_vec(&[2, 3], vec![0.3, -0.2, 0.9, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, g) = softmax_cross_entropy(&l, &labels);
        let eps = 1e-3f32;
        for i in 0..l.len() {
            let mut lp = l.clone();
            lp.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - g.data()[i]).abs() < 1e-3,
                "g[{i}] numeric {num} analytic {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn nan_logit_counts_as_wrong_prediction() {
        let l = Tensor::from_vec(&[3, 2], vec![0.9, 0.1, f32::NAN, 0.8, 0.2, f32::INFINITY]);
        // Row 0 right, row 1 has a NaN (wrong whatever the label), row 2's
        // infinite logit is a legitimate argmax.
        assert_eq!(accuracy(&l, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&l, &[0, 0, 1]), 2.0 / 3.0);
    }

    #[test]
    fn accuracy_counts_argmax() {
        let l = Tensor::from_vec(&[2, 2], vec![0.9, 0.1, 0.2, 0.8]);
        assert_eq!(accuracy(&l, &[0, 1]), 1.0);
        assert_eq!(accuracy(&l, &[1, 1]), 0.5);
    }
}
