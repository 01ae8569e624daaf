//! Standard differentiable operations on the [`Tape`].

use crate::{reduce_grad_to_shape, Tape, Var};
use qt_tensor::Tensor;

impl Tape {
    /// Elementwise sum with broadcasting.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.custom(
            vec![a, b],
            v,
            Box::new(|g, parents, _| {
                vec![
                    reduce_grad_to_shape(g, parents[0].shape()),
                    reduce_grad_to_shape(g, parents[1].shape()),
                ]
            }),
        )
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.custom(
            vec![a, b],
            v,
            Box::new(|g, parents, _| {
                vec![
                    reduce_grad_to_shape(g, parents[0].shape()),
                    reduce_grad_to_shape(&g.neg(), parents[1].shape()),
                ]
            }),
        )
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.custom(
            vec![a, b],
            v,
            Box::new(|g, parents, _| {
                vec![
                    reduce_grad_to_shape(&g.mul(parents[1]), parents[0].shape()),
                    reduce_grad_to_shape(&g.mul(parents[0]), parents[1].shape()),
                ]
            }),
        )
    }

    /// Multiply by a constant scalar.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).mul_scalar(s);
        self.unary(a, v, move |g, _, _| g.mul_scalar(s))
    }

    /// Add a constant scalar.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).add_scalar(s);
        self.unary(a, v, |g, _, _| g.clone())
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).neg();
        self.unary(a, v, |g, _, _| g.neg())
    }

    /// Batched matrix product (see [`Tensor::matmul`] for shape rules).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.custom(
            vec![a, b],
            v,
            Box::new(|g, parents, _| {
                let ga = g.matmul(&parents[1].transpose_last2());
                let gb = parents[0].transpose_last2().matmul(g);
                vec![
                    reduce_grad_to_shape(&ga, parents[0].shape()),
                    reduce_grad_to_shape(&gb, parents[1].shape()),
                ]
            }),
        )
    }

    /// Swap the last two axes.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose_last2();
        self.unary(a, v, |g, _, _| g.transpose_last2())
    }

    /// Permute axes.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let v = self.value(a).permute(perm);
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        self.unary(a, v, move |g, _, _| g.permute(&inverse))
    }

    /// Reshape (same element count; one axis may be `usize::MAX` to infer).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.value(a).clone().reshape(shape);
        let orig = self.value(a).shape().to_vec();
        self.unary(a, v, move |g, _, _| g.clone().reshape(&orig))
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = self.value(a).gelu();
        self.unary(a, v, |g, parents, _| g.mul(&parents.gelu_grad()))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).relu();
        self.unary(a, v, |g, parents, _| {
            g.mul(&parents.map(|x| if x > 0.0 { 1.0 } else { 0.0 }))
        })
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        self.unary(a, v, |g, _, out| g.mul(&out.map(|t| 1.0 - t * t)))
    }

    /// Numerically-stable softmax over the last axis (exact float version;
    /// the approximate posit softmax lives in `qt-transformer`).
    pub fn softmax_lastdim(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_lastdim();
        self.unary(a, v, |g, _, s| {
            // ds = s ∘ (g − Σ_j g_j s_j)
            let dot = g.mul(s).sum_axis(s.ndim() - 1);
            let dot = dot.clone().reshape(&with_trailing_one(dot.shape()));
            s.mul(&g.sub(&dot))
        })
    }

    /// Layer normalisation over the last axis with learned scale and shift.
    ///
    /// `gamma` and `beta` must be 1-D of the last-axis length.
    pub fn layernorm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let v = self
            .value(x)
            .layernorm_lastdim(self.value(gamma), self.value(beta), eps);
        self.custom(
            vec![x, gamma, beta],
            v,
            Box::new(move |g, parents, _| {
                let x = parents[0];
                let gamma = parents[1];
                let h = *x.shape().last().expect("layernorm of scalar") as f32;
                let rows = x.len() / h as usize;
                let hn = h as usize;
                let mut dx = Tensor::zeros(x.shape());
                let mut dgamma = Tensor::zeros(gamma.shape());
                let mut dbeta = Tensor::zeros(gamma.shape());
                for r in 0..rows {
                    let xr = &x.data()[r * hn..(r + 1) * hn];
                    let gr = &g.data()[r * hn..(r + 1) * hn];
                    let mean = xr.iter().sum::<f32>() / h;
                    let var = xr.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / h;
                    let inv = 1.0 / (var + eps).sqrt();
                    // xhat and ghat = g * gamma
                    let xhat: Vec<f32> = xr.iter().map(|&v| (v - mean) * inv).collect();
                    let ghat: Vec<f32> = gr
                        .iter()
                        .zip(gamma.data())
                        .map(|(&gv, &gam)| gv * gam)
                        .collect();
                    let mg = ghat.iter().sum::<f32>() / h;
                    let mgx = ghat.iter().zip(&xhat).map(|(&a, &b)| a * b).sum::<f32>() / h;
                    for j in 0..hn {
                        dx.data_mut()[r * hn + j] = inv * (ghat[j] - mg - xhat[j] * mgx);
                        dgamma.data_mut()[j] += gr[j] * xhat[j];
                        dbeta.data_mut()[j] += gr[j];
                    }
                }
                vec![dx, dgamma, dbeta]
            }),
        )
    }

    /// Embedding lookup: `table` is `[V, H]`, `ids` index rows; output shape
    /// is `ids_shape ++ [H]`. The backward pass scatter-adds into the table.
    pub fn embedding(&mut self, table: Var, ids: &[usize], ids_shape: &[usize]) -> Var {
        let v = self.value(table).gather_rows(ids, ids_shape);
        let ids = ids.to_vec();
        self.unary(table, v, move |g, parents, _| {
            let mut dt = Tensor::zeros(parents.shape());
            dt.scatter_add_rows(&ids, g);
            dt
        })
    }

    /// Sum of all elements, as a scalar variable.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum_all());
        self.unary(a, v, |g, parents, _| {
            Tensor::full(parents.shape(), g.data()[0])
        })
    }

    /// Mean of all elements, as a scalar variable.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).len() as f32;
        let s = self.sum_all(a);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Concatenate along the last axis.
    pub fn concat_lastdim(&mut self, parts: &[Var]) -> Var {
        let refs: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_lastdim(&refs);
        self.custom(
            parts.to_vec(),
            v,
            Box::new(|g, parents, _| {
                let lead: usize = g.shape()[..g.ndim() - 1].iter().product();
                let glast = g.shape()[g.ndim() - 1];
                let mut outs = Vec::with_capacity(parents.len());
                let mut col = 0usize;
                for p in parents {
                    let plast = p.shape()[p.ndim() - 1];
                    let mut out = Tensor::zeros(p.shape());
                    for r in 0..lead {
                        let src = &g.data()[r * glast + col..r * glast + col + plast];
                        out.data_mut()[r * plast..(r + 1) * plast].copy_from_slice(src);
                    }
                    col += plast;
                    outs.push(out);
                }
                outs
            }),
        )
    }
}

fn with_trailing_one(shape: &[usize]) -> Vec<usize> {
    let mut s = shape.to_vec();
    s.push(1);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Numerical-gradient check harness for composite graphs.
    fn check_grad(build: impl Fn(&mut Tape, Var) -> Var, x0: &Tensor, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone(), true);
        let y = build(&mut tape, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let gx = grads.get(x).expect("no grad").clone();

        for idx in 0..x0.len() {
            let eval = |v: f32| {
                let mut xp = x0.clone();
                xp.data_mut()[idx] = v;
                let mut t2 = Tape::new();
                let xv = t2.leaf(xp, false);
                let yv = build(&mut t2, xv);
                t2.value(yv).sum_all()
            };
            let eps = 1e-2;
            let fd = (eval(x0.data()[idx] + eps) - eval(x0.data()[idx] - eps)) / (2.0 * eps);
            assert!(
                (gx.data()[idx] - fd).abs() < tol,
                "idx {idx}: autograd {} vs fd {fd}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn gelu_grad() {
        let x = Tensor::from_vec(vec![-2.0, -0.3, 0.0, 0.8, 2.5], &[5]);
        check_grad(|t, x| t.gelu(x), &x, 1e-2);
    }

    #[test]
    fn tanh_grad() {
        let x = Tensor::from_vec(vec![-1.0, 0.2, 1.3], &[3]);
        check_grad(|t, x| t.tanh(x), &x, 1e-2);
    }

    #[test]
    fn softmax_grad() {
        let x = Tensor::from_vec(vec![0.1, -0.4, 0.9, 0.3, 0.0, -1.2], &[2, 3]);
        // compose with a weighting so the gradient is non-trivial
        check_grad(
            |t, x| {
                let s = t.softmax_lastdim(x);
                let w = t.leaf(
                    Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5, 2.0], &[2, 3]),
                    false,
                );
                t.mul(s, w)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn layernorm_grad() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[3, 4], &mut rng);
        check_grad(
            |t, x| {
                let g = t.leaf(Tensor::from_vec(vec![1.0, 2.0, 0.5, 1.5], &[4]), false);
                let b = t.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.0, 0.3], &[4]), false);
                let n = t.layernorm(x, g, b, 1e-5);
                // weight to break symmetry
                let w = t.leaf(Tensor::arange(12).reshape(&[3, 4]), false);
                t.mul(n, w)
            },
            &x,
            2e-2,
        );
    }

    #[test]
    fn layernorm_param_grads() {
        let mut rng = StdRng::seed_from_u64(4);
        let x0 = Tensor::randn(&[5, 4], &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone(), false);
        let g0 = Tensor::ones(&[4]);
        let gamma = tape.leaf(g0.clone(), true);
        let beta = tape.leaf(Tensor::zeros(&[4]), true);
        let y = tape.layernorm(x, gamma, beta, 1e-5);
        let l = tape.sum_all(y);
        let grads = tape.backward(l);
        // dbeta = number of rows per column = 5
        assert_eq!(grads.get(beta).unwrap().data(), &[5.0; 4]);
        // dgamma = sum of xhat per column; finite check on one entry
        let dg = grads.get(gamma).unwrap().clone();
        let eval = |v: f32| {
            let mut g1 = g0.clone();
            g1.data_mut()[2] = v;
            x0.layernorm_lastdim(&g1, &Tensor::zeros(&[4]), 1e-5)
                .sum_all()
        };
        let fd = (eval(1.0 + 1e-2) - eval(1.0 - 1e-2)) / 2e-2;
        assert!((dg.data()[2] - fd).abs() < 1e-2, "{} vs {fd}", dg.data()[2]);
    }

    #[test]
    fn embedding_grad_scatter() {
        let mut tape = Tape::new();
        let table = tape.leaf(Tensor::arange(8).reshape(&[4, 2]), true);
        let e = tape.embedding(table, &[1, 1, 3], &[3]);
        assert_eq!(tape.value(e).shape(), &[3, 2]);
        let l = tape.sum_all(e);
        let g = tape.backward(l);
        let gt = g.get(table).unwrap();
        assert_eq!(gt.at(&[1, 0]), 2.0);
        assert_eq!(gt.at(&[3, 1]), 1.0);
        assert_eq!(gt.at(&[0, 0]), 0.0);
    }

    #[test]
    fn permute_reshape_grads() {
        let x = Tensor::arange(8).reshape(&[2, 2, 2]);
        check_grad(
            |t, x| {
                let p = t.permute(x, &[2, 0, 1]);
                let r = t.reshape(p, &[4, 2]);
                let w = t.leaf(Tensor::arange(8).reshape(&[4, 2]), false);
                t.mul(r, w)
            },
            &x,
            1e-2,
        );
    }

    #[test]
    fn concat_grad_splits() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 2]), true);
        let b = tape.leaf(Tensor::ones(&[2, 3]), true);
        let c = tape.concat_lastdim(&[a, b]);
        assert_eq!(tape.value(c).shape(), &[2, 5]);
        let w = tape.leaf(Tensor::arange(10).reshape(&[2, 5]), false);
        let y = tape.mul(c, w);
        let l = tape.sum_all(y);
        let g = tape.backward(l);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 1.0, 5.0, 6.0]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 3.0, 4.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn matmul_batched_broadcast_grad() {
        let mut rng = StdRng::seed_from_u64(9);
        // weights [3,2] broadcast over batch [2, 4, 3]
        let x0 = Tensor::randn(&[2, 4, 3], &mut rng);
        let w0 = Tensor::randn(&[3, 2], &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone(), false);
        let w = tape.leaf(w0.clone(), true);
        let y = tape.matmul(x, w);
        let l = tape.sum_all(y);
        let g = tape.backward(l);
        let gw = g.get(w).unwrap().clone();
        assert_eq!(gw.shape(), &[3, 2]);
        let eval = |idx: usize, v: f32| {
            let mut w1 = w0.clone();
            w1.data_mut()[idx] = v;
            x0.matmul(&w1).sum_all()
        };
        for idx in 0..6 {
            let eps = 1e-2;
            let fd =
                (eval(idx, w0.data()[idx] + eps) - eval(idx, w0.data()[idx] - eps)) / (2.0 * eps);
            assert!((gw.data()[idx] - fd).abs() < 2e-2, "idx {idx}");
        }
    }
}
