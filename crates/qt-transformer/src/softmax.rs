//! The posit softmax (§4.1) and its re-derived backward pass (§5.2).
//!
//! Forward, per row `z` of the last axis:
//!
//! 1. `u_i = z_i - max(z)` (all inputs to the exponential are ≤ 0);
//! 2. `e_i = f(u_i)` with the thresholded + shifted approximate posit
//!    exponential of Equation 3 (a 256-entry function of the Posit(8,1)
//!    code — literally a LUT here, as in hardware the sigmoid/reciprocal
//!    bit tricks make it combinational logic);
//! 3. `t = Σ e_i` accumulated in high precision (fused, §3.2);
//! 4. `r = f_recip(t)`: the piecewise-linear posit reciprocal;
//! 5. `s_i = e_i · r`.
//!
//! Backward (Equation 4): the PWL reciprocal is *not* `1/t`, so the usual
//! softmax Jacobian diverges in training; instead
//! `∂s_j/∂z_i = δ_ij e_j r + e_j f'(t) e_i` with
//! `f'(t) = -2^(-2⌊log2 t⌋ - 1)` (Equation 5).

use qt_autograd::{Tape, Var};
use qt_posit::approx::{fast_reciprocal, pwl_reciprocal_derivative, ExpApprox};
use qt_posit::P8E1;
use qt_quant::SoftmaxKind;
use qt_tensor::Tensor;

/// A softmax implementation (exact or posit-approximate) recordable on a
/// [`Tape`] with the correct custom backward.
#[derive(Debug, Clone)]
pub struct Softmax {
    kind: SoftmaxKind,
    /// `e_i` per Posit(8,1) input code (256 entries) when the approximate
    /// exponential is enabled.
    exp_lut: Option<Vec<f32>>,
}

impl Softmax {
    /// Build a softmax for the given kind.
    pub fn new(kind: SoftmaxKind) -> Self {
        let exp_lut = match kind {
            SoftmaxKind::PositApprox {
                approx_exp: true,
                exp,
                ..
            } => Some(build_exp_lut(exp)),
            _ => None,
        };
        Self { kind, exp_lut }
    }

    /// Apply over the last axis of `scores` and record on the tape.
    pub fn apply(&self, tape: &mut Tape, scores: Var) -> Var {
        match self.kind {
            SoftmaxKind::Exact => tape.softmax_lastdim(scores),
            SoftmaxKind::PositApprox {
                approx_exp,
                approx_recip,
                exp,
            } => {
                let lut = self.exp_lut.clone();
                let fwd = self.forward(tape.value(scores));
                tape.custom(
                    vec![scores],
                    fwd,
                    Box::new(move |g, parents, _| {
                        vec![backward(
                            g,
                            parents[0],
                            lut.as_deref(),
                            approx_exp,
                            approx_recip,
                            exp,
                        )]
                    }),
                )
            }
        }
    }

    /// Forward evaluation without a tape (inference fast path).
    pub fn forward(&self, scores: &Tensor) -> Tensor {
        match self.kind {
            SoftmaxKind::Exact => scores.softmax_lastdim(),
            SoftmaxKind::PositApprox {
                approx_exp,
                approx_recip,
                exp,
            } => {
                // Rows are independent; chunk over whole rows with a fixed
                // chunk length so output is identical at any thread count.
                const ROW_CHUNK: usize = 4 * 1024;
                let mut out = scores.clone();
                let last = *scores.shape().last().expect("softmax of scalar");
                let rows = scores.len() / last;
                let lut = self.exp_lut.as_deref();
                let data = out.data_mut();
                if rows <= 1 || data.len() < ROW_CHUNK {
                    for row in data.chunks_mut(last) {
                        row_forward(row, lut, approx_exp, approx_recip, exp);
                    }
                } else {
                    let rows_per = (ROW_CHUNK / last).max(1);
                    qt_par::parallel_for_slices_mut(data, rows_per * last, |_, _, chunk| {
                        for row in chunk.chunks_mut(last) {
                            row_forward(row, lut, approx_exp, approx_recip, exp);
                        }
                    });
                }
                out
            }
        }
    }
}

/// Tabulate the approximate exponential over every Posit(8,1) code.
fn build_exp_lut(cfg: ExpApprox) -> Vec<f32> {
    (0u16..256)
        .map(|c| cfg.eval_p8(P8E1::from_bits(c)).to_f32())
        .collect()
}

fn eval_exp(u: f32, lut: Option<&[f32]>, approx_exp: bool) -> f32 {
    if approx_exp {
        let lut = lut.expect("exp LUT missing");
        lut[P8E1::from_f32(u).bits() as usize]
    } else {
        libm::expf(u)
    }
}

fn eval_recip(t: f32, approx_recip: bool) -> f32 {
    if t <= 0.0 {
        return 0.0; // fully-masked row: all exponentials truncated
    }
    if approx_recip {
        fast_reciprocal(P8E1::from_f32(t)).to_f32()
    } else {
        1.0 / t
    }
}

fn row_forward(
    row: &mut [f32],
    lut: Option<&[f32]>,
    approx_exp: bool,
    approx_recip: bool,
    _exp: ExpApprox,
) {
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut t = 0.0f32;
    for x in row.iter_mut() {
        *x = eval_exp(*x - m, lut, approx_exp);
        t += *x;
    }
    let r = eval_recip(t, approx_recip);
    for x in row.iter_mut() {
        *x *= r;
    }
}

fn backward(
    g: &Tensor,
    scores: &Tensor,
    lut: Option<&[f32]>,
    approx_exp: bool,
    approx_recip: bool,
    _exp: ExpApprox,
) -> Tensor {
    let last = *scores.shape().last().expect("softmax of scalar");
    let rows = scores.len() / last;
    let mut out = Tensor::zeros(scores.shape());
    for rix in 0..rows {
        let z = &scores.data()[rix * last..(rix + 1) * last];
        let gr = &g.data()[rix * last..(rix + 1) * last];
        // Recompute forward intermediates.
        let (mut m, mut argmax) = (f32::NEG_INFINITY, 0usize);
        for (i, &v) in z.iter().enumerate() {
            if v > m {
                m = v;
                argmax = i;
            }
        }
        let e: Vec<f32> = z
            .iter()
            .map(|&v| eval_exp(v - m, lut, approx_exp))
            .collect();
        let t: f32 = e.iter().sum();
        let r = eval_recip(t, approx_recip);
        let fprime = if t <= 0.0 {
            0.0
        } else if approx_recip {
            pwl_reciprocal_derivative(t as f64) as f32
        } else {
            -1.0 / (t * t)
        };
        // de_k = g_k·r + (Σ_i g_i e_i)·f'(t);  du_k = de_k · e_k
        let gdot: f32 = gr.iter().zip(&e).map(|(&a, &b)| a * b).sum();
        let orow = &mut out.data_mut()[rix * last..(rix + 1) * last];
        let mut du_sum = 0.0f32;
        for k in 0..last {
            let de = gr[k] * r + gdot * fprime;
            let du = de * e[k];
            orow[k] = du;
            du_sum += du;
        }
        // max-subtraction: dz_j = du_j - δ(j = argmax)·Σ du
        orow[argmax] -= du_sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::SoftmaxKind;

    fn approx_kind() -> SoftmaxKind {
        SoftmaxKind::posit_full()
    }

    #[test]
    fn exact_matches_tensor_softmax() {
        let s = Softmax::new(SoftmaxKind::Exact);
        let x = Tensor::from_vec(vec![0.1, 1.0, -0.4, 2.0], &[2, 2]);
        assert_eq!(s.forward(&x).data(), x.softmax_lastdim().data());
    }

    #[test]
    fn approx_rows_are_near_normalised() {
        let s = Softmax::new(approx_kind());
        let x = Tensor::from_vec(vec![1.0, 0.5, -0.5, -2.0, 3.0, 0.0, -1.0, 1.5], &[2, 4]);
        let y = s.forward(&x);
        for r in 0..2 {
            let sum: f32 = y.data()[r * 4..(r + 1) * 4].iter().sum();
            // PWL reciprocal + shifted exp: sums are close to 1, not exact.
            assert!((sum - 1.0).abs() < 0.25, "row {r}: {sum}");
        }
    }

    #[test]
    fn approx_close_to_exact_softmax() {
        let s = Softmax::new(approx_kind());
        let x = Tensor::from_vec(vec![2.0, 1.0, 0.0, -1.0], &[1, 4]);
        let y = s.forward(&x);
        let ex = x.softmax_lastdim();
        for i in 0..4 {
            assert!(
                (y.data()[i] - ex.data()[i]).abs() < 0.1,
                "i={i}: {} vs {}",
                y.data()[i],
                ex.data()[i]
            );
        }
    }

    #[test]
    fn masked_positions_get_zero_attention() {
        // With the thresholded exponential, a -30 masked score must get
        // exactly zero probability (§4.1's entire point).
        let s = Softmax::new(approx_kind());
        let x = Tensor::from_vec(vec![1.0, 0.0, -30.0, -30.0], &[1, 4]);
        let y = s.forward(&x);
        assert_eq!(y.data()[2], 0.0);
        assert_eq!(y.data()[3], 0.0);
        assert!(y.data()[0] > y.data()[1]);
    }

    #[test]
    fn raw_exponential_leaks_attention() {
        // Without the threshold, masked tokens keep non-zero attention.
        let s = Softmax::new(SoftmaxKind::PositApprox {
            approx_exp: true,
            approx_recip: true,
            exp: ExpApprox::raw(),
        });
        let x = Tensor::from_vec(vec![1.0, 0.0, -30.0, -30.0], &[1, 4]);
        let y = s.forward(&x);
        assert!(y.data()[2] > 0.0, "raw approximation should leak");
    }

    #[test]
    fn exact_backward_matches_finite_difference() {
        use qt_autograd::Tape;
        let sm = Softmax::new(SoftmaxKind::Exact);
        let x0 = Tensor::from_vec(vec![0.4, -0.2, 0.9, 0.1], &[1, 4]);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 4]);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone(), true);
        let y = sm.apply(&mut tape, x);
        let wv = tape.leaf(w.clone(), false);
        let yw = tape.mul(y, wv);
        let l = tape.sum_all(yw);
        let grads = tape.backward(l);
        let gx = grads.get(x).unwrap().clone();
        for idx in 0..4 {
            let eval = |v: f32| {
                let mut x1 = x0.clone();
                x1.data_mut()[idx] = v;
                sm.forward(&x1).mul(&w).sum_all()
            };
            let eps = 5e-3;
            let fd = (eval(x0.data()[idx] + eps) - eval(x0.data()[idx] - eps)) / (2.0 * eps);
            assert!(
                (gx.data()[idx] - fd).abs() < 0.05,
                "idx {idx}: {} vs {fd}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn pwl_backward_matches_smooth_pwl_model() {
        // The hardware forward quantizes t to Posit8 before the reciprocal,
        // so its true derivative is a staircase; Equation 4/5 differentiates
        // the *smooth* PWL model instead (what the paper trains with).
        // Check the analytic backward against finite differences of that
        // smooth model.
        use qt_autograd::Tape;
        use qt_posit::approx::pwl_reciprocal;
        let kind = SoftmaxKind::PositApprox {
            approx_exp: false,
            approx_recip: true,
            exp: ExpApprox::PAPER_BEST,
        };
        let sm = Softmax::new(kind);
        let x0 = Tensor::from_vec(vec![0.4, -0.2, 0.9, 0.1], &[1, 4]);
        let w = [1.0f32, -2.0, 0.5, 3.0];
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone(), true);
        let y = sm.apply(&mut tape, x);
        let wv = tape.leaf(Tensor::from_vec(w.to_vec(), &[1, 4]), false);
        let yw = tape.mul(y, wv);
        let l = tape.sum_all(yw);
        let grads = tape.backward(l);
        let gx = grads.get(x).unwrap().clone();
        let smooth = |z: &[f32]| -> f32 {
            let m = z.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let e: Vec<f32> = z.iter().map(|&v| libm::expf(v - m)).collect();
            let t: f32 = e.iter().sum();
            let r = pwl_reciprocal(t as f64) as f32;
            e.iter().zip(&w).map(|(&ei, &wi)| ei * r * wi).sum()
        };
        for idx in 0..4 {
            let eval = |v: f32| {
                let mut z = x0.data().to_vec();
                z[idx] = v;
                smooth(&z)
            };
            let eps = 5e-3;
            let fd = (eval(x0.data()[idx] + eps) - eval(x0.data()[idx] - eps)) / (2.0 * eps);
            assert!(
                (gx.data()[idx] - fd).abs() < 0.03,
                "idx {idx}: analytic {} vs smooth-model fd {fd}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn pwl_reciprocal_backward_differs_from_exact() {
        // Equation 4/5 exists because the PWL reciprocal's derivative is a
        // step function; verify the two backward passes disagree.
        let x0 = Tensor::from_vec(vec![0.9, 0.2, -0.5], &[1, 3]);
        let grad_of = |kind: SoftmaxKind| {
            let sm = Softmax::new(kind);
            let mut tape = Tape::new();
            let x = tape.leaf(x0.clone(), true);
            let y = sm.apply(&mut tape, x);
            let w = tape.leaf(Tensor::from_vec(vec![1.0, 0.0, 0.0], &[1, 3]), false);
            let yw = tape.mul(y, w);
            let l = tape.sum_all(yw);
            tape.backward(l).get(x).unwrap().clone()
        };
        let exact = grad_of(SoftmaxKind::Exact);
        let pwl = grad_of(SoftmaxKind::PositApprox {
            approx_exp: false,
            approx_recip: true,
            exp: ExpApprox::PAPER_BEST,
        });
        let diff: f32 = exact
            .data()
            .iter()
            .zip(pwl.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "backwards should differ, diff={diff}");
    }
}
