//! Loss functions with fused, numerically-stable backward passes.

use crate::{Tape, Var};
use qt_tensor::Tensor;

/// Sentinel target meaning "ignore this position" (padding) in
/// [`Tape::cross_entropy`].
pub const IGNORE_INDEX: usize = usize::MAX;

impl Tape {
    /// Mean cross-entropy between `logits` (`[..., C]`, flattened to rows)
    /// and integer `targets` (one per row; [`IGNORE_INDEX`] rows are
    /// excluded from both the mean and the gradient).
    ///
    /// Forward uses a stable log-softmax; backward is the fused
    /// `(softmax - onehot) / n_valid`.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` does not equal the number of rows, or if a
    /// non-ignored target is out of range.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let classes = *self
            .value(logits)
            .shape()
            .last()
            .expect("cross_entropy on scalar");
        let rows = self.value(logits).len() / classes;
        assert_eq!(targets.len(), rows, "one target per logit row required");
        let ls = self.value(logits).log_softmax_lastdim();
        let mut n_valid = 0usize;
        let mut total = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            assert!(t < classes, "target {t} out of range ({classes} classes)");
            n_valid += 1;
            total -= ls.data()[r * classes + t] as f64;
        }
        let n = n_valid.max(1) as f32;
        let loss = Tensor::scalar((total / n as f64) as f32);
        let targets = targets.to_vec();
        self.unary(logits, loss, move |g, parents, _| {
            let sm = parents.softmax_lastdim();
            let mut dl = sm;
            for (r, &t) in targets.iter().enumerate() {
                let row = &mut dl.data_mut()[r * classes..(r + 1) * classes];
                if t == IGNORE_INDEX {
                    row.iter_mut().for_each(|x| *x = 0.0);
                } else {
                    row[t] -= 1.0;
                }
            }
            dl.mul_scalar(g.data()[0] / n)
        })
    }

    /// Mean squared error between `pred` and a constant `target` of the
    /// same shape.
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).shape(),
            target.shape(),
            "mse shape mismatch"
        );
        let n = target.len() as f32;
        let diff = self.value(pred).sub(target);
        let loss = Tensor::scalar(diff.data().iter().map(|d| d * d).sum::<f32>() / n);
        let target = target.clone();
        self.unary(pred, loss, move |g, parents, _| {
            parents.sub(&target).mul_scalar(2.0 * g.data()[0] / n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction() {
        let mut t = Tape::new();
        // Extremely confident, correct logits → loss ≈ 0.
        let logits = t.leaf(
            Tensor::from_vec(vec![100.0, 0.0, 0.0, 0.0, 100.0, 0.0], &[2, 3]),
            true,
        );
        let loss = t.cross_entropy(logits, &[0, 1]);
        assert!(t.value(loss).data()[0] < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::zeros(&[1, 4]), true);
        let loss = t.cross_entropy(logits, &[2]);
        assert!((t.value(loss).data()[0] - (4.0f32).ln()).abs() < 1e-6);
        let g = t.backward(loss);
        let gl = g.get(logits).unwrap();
        // softmax - onehot = 0.25 everywhere except target (-0.75)
        assert!((gl.data()[2] + 0.75).abs() < 1e-6);
        assert!((gl.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_ignores_padding() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::zeros(&[3, 2]), true);
        let loss = t.cross_entropy(logits, &[0, IGNORE_INDEX, 1]);
        // mean over 2 valid rows
        assert!((t.value(loss).data()[0] - (2.0f32).ln()).abs() < 1e-6);
        let g = t.backward(loss);
        let gl = g.get(logits).unwrap();
        assert_eq!(&gl.data()[2..4], &[0.0, 0.0]); // padded row gets no grad
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let x0 = Tensor::from_vec(vec![0.2, -0.7, 1.1, 0.0, 0.5, -0.5], &[2, 3]);
        let targets = [2usize, 0];
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone(), true);
        let loss = tape.cross_entropy(x, &targets);
        let g = tape.backward(loss);
        let gx = g.get(x).unwrap().clone();
        for idx in 0..6 {
            let eval = |v: f32| {
                let mut x1 = x0.clone();
                x1.data_mut()[idx] = v;
                let mut t2 = Tape::new();
                let xv = t2.leaf(x1, false);
                let l = t2.cross_entropy(xv, &targets);
                t2.value(l).data()[0]
            };
            let eps = 1e-2;
            let fd = (eval(x0.data()[idx] + eps) - eval(x0.data()[idx] - eps)) / (2.0 * eps);
            assert!((gx.data()[idx] - fd).abs() < 1e-3, "idx {idx}");
        }
    }

    #[test]
    fn mse_gradient() {
        let mut t = Tape::new();
        let p = t.leaf(Tensor::from_vec(vec![1.0, 3.0], &[2]), true);
        let target = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let loss = t.mse(p, &target);
        assert!((t.value(loss).data()[0] - 2.5).abs() < 1e-6); // (1 + 4)/2
        let g = t.backward(loss);
        assert_eq!(g.get(p).unwrap().data(), &[1.0, 2.0]); // 2*(p-t)/n
    }
}
