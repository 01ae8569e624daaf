//! Fast tensor fake-quantization, plus the straight-through-estimator
//! autograd op used during quantized training.

use crate::format::ElemFormat;
use crate::guard::{NonFinitePolicy, TensorHealth};
use qt_autograd::{Tape, Var};
use qt_posit::UnderflowPolicy;
use qt_tensor::Tensor;

/// A fake-quantizer: rounds values onto a format's representable grid.
///
/// For the 8-/9-bit formats the quantizer pre-computes the sorted value
/// table and the decision boundaries between adjacent values (including
/// tie direction), plus a 2^16-entry direct-index LUT keyed on the top 16
/// bits of the input (bf16-spaced cells): cells whose whole value range
/// rounds to one grid point answer in O(1); cells containing a decision
/// boundary (or inf/NaN) hold a sentinel and fall back to the binary
/// search. Results are bit-identical to [`ElemFormat::quantize_scalar_with`].
///
/// # Example
///
/// ```
/// use qt_quant::{ElemFormat, FakeQuant};
/// use qt_tensor::Tensor;
///
/// let q = FakeQuant::new(ElemFormat::E4M3);
/// let t = Tensor::from_vec(vec![0.3, 500.0, -1e-9], &[3]);
/// let r = q.quantize(&t);
/// assert_eq!(r.data()[1], 448.0); // saturated
/// assert_eq!(r.data()[2], 0.0);   // flushed
/// ```
#[derive(Debug, Clone)]
pub struct FakeQuant {
    format: ElemFormat,
    policy: UnderflowPolicy,
    nonfinite: NonFinitePolicy,
    /// Sorted representable values (empty → identity/wide format).
    values: Vec<f32>,
    /// `bounds[i]` is the threshold between `values[i]` and `values[i+1]`:
    /// inputs strictly below it map to index ≤ i, above to ≥ i+1; inputs
    /// equal to it map according to `tie_up[i]`.
    bounds: Vec<f32>,
    tie_up: Vec<bool>,
    /// Direct-index table: `lut[x.to_bits() >> 16]` is the value index for
    /// every f32 in that bf16-spaced cell, or [`LUT_SENTINEL`] when the
    /// cell straddles a decision boundary (binary-search fallback).
    /// Empty for the identity/wide formats.
    lut: Vec<u16>,
}

/// LUT cell marker: fall back to the binary search.
const LUT_SENTINEL: u16 = u16::MAX;

/// Binary search over decision boundaries: `b < x` puts an input exactly
/// on a boundary below it, so ties land on the lower value; bump when the
/// pre-computed tie direction says otherwise.
#[inline]
fn search_index(bounds: &[f32], tie_up: &[bool], n: usize, x: f32) -> usize {
    let mut i = bounds.partition_point(|&b| b < x).min(n - 1);
    if i < bounds.len() && x == bounds[i] && tie_up[i] {
        i += 1;
    }
    i.min(n - 1)
}

impl FakeQuant {
    /// Quantizer with the paper's default posit underflow policy.
    pub fn new(format: ElemFormat) -> Self {
        Self::with_policy(format, UnderflowPolicy::RoundTiesToZero)
    }

    /// Quantizer with an explicit posit underflow policy (no effect on
    /// float formats).
    pub fn with_policy(format: ElemFormat, policy: UnderflowPolicy) -> Self {
        Self::with_guard(format, policy, NonFinitePolicy::default())
    }

    /// Quantizer with explicit underflow and non-finite policies.
    pub fn with_guard(
        format: ElemFormat,
        policy: UnderflowPolicy,
        nonfinite: NonFinitePolicy,
    ) -> Self {
        let values = format.finite_values();
        let mut bounds = Vec::new();
        let mut tie_up = Vec::new();
        for w in values.windows(2) {
            let mid = 0.5 * (w[0] as f64 + w[1] as f64);
            bounds.push(mid as f32);
            // Resolve the tie exactly like the scalar path.
            let q = format.quantize_scalar_with(mid as f32, policy);
            tie_up.push(q == w[1]);
        }
        // Build the direct-index LUT. A cell covers the f32s sharing their
        // top 16 bits — a contiguous value interval (per sign), over which
        // the rounding index is monotone; if both cell endpoints search to
        // the same index the whole cell does, and the cell answers in O(1).
        let n = values.len();
        let mut lut = Vec::new();
        if n > 0 && n < LUT_SENTINEL as usize {
            lut = vec![LUT_SENTINEL; 1 << 16];
            for (cell, slot) in lut.iter_mut().enumerate() {
                if (cell >> 7) & 0xFF == 0xFF {
                    continue; // exponent 0xFF: inf/NaN, guard path handles it
                }
                let bits = (cell as u32) << 16;
                let ia = search_index(&bounds, &tie_up, n, f32::from_bits(bits));
                let ib = search_index(&bounds, &tie_up, n, f32::from_bits(bits | 0xFFFF));
                if ia == ib {
                    *slot = ia as u16;
                }
            }
        }
        Self {
            format,
            policy,
            nonfinite,
            values,
            bounds,
            tie_up,
            lut,
        }
    }

    /// The quantizer's format.
    pub fn format(&self) -> ElemFormat {
        self.format
    }

    /// The underflow policy in effect.
    pub fn policy(&self) -> UnderflowPolicy {
        self.policy
    }

    /// The non-finite input policy in effect.
    pub fn nonfinite_policy(&self) -> NonFinitePolicy {
        self.nonfinite
    }

    /// Resolve a non-finite input according to [`NonFinitePolicy`].
    /// Returns the value the quantizer should round instead, or `None`
    /// when the input should flow through the normal path.
    #[inline]
    fn guard_nonfinite(&self, x: f32) -> Option<f32> {
        if x.is_finite() {
            return None;
        }
        let max = self.format.max_value() as f32;
        match self.nonfinite {
            // NaN passes; ±∞ falls through and saturates naturally.
            NonFinitePolicy::Propagate => x.is_nan().then_some(f32::NAN),
            NonFinitePolicy::Saturate => Some(if x == f32::NEG_INFINITY { -max } else { max }),
            NonFinitePolicy::Zero => Some(0.0),
        }
    }

    /// Resolve the value index for a finite input: O(1) LUT hit, or the
    /// binary search when the cell holds the sentinel (tie/boundary cells,
    /// or a format too wide for the table).
    #[inline]
    fn index_for(&self, x: f32) -> usize {
        if let Some(&i) = self.lut.get((x.to_bits() >> 16) as usize) {
            if i != LUT_SENTINEL {
                return i as usize;
            }
        }
        search_index(&self.bounds, &self.tie_up, self.values.len(), x)
    }

    /// Quantize a single value.
    #[inline]
    pub fn quantize_scalar(&self, x: f32) -> f32 {
        let x = match self.guard_nonfinite(x) {
            Some(r) if r.is_nan() => return f32::NAN,
            Some(r) => r,
            None => x,
        };
        if self.values.is_empty() {
            // Fp32 (identity) or Bf16 (cheap direct rounding).
            return self.format.quantize_scalar_with(x, self.policy);
        }
        let v = self.values[self.index_for(x)];
        // Standard posit policy: a non-zero input never rounds to zero.
        if v == 0.0
            && x != 0.0
            && self.format.is_posit()
            && self.policy == UnderflowPolicy::Standard
        {
            let minpos = self.format.min_positive() as f32;
            return if x > 0.0 { minpos } else { -minpos };
        }
        v
    }

    /// Quantize every element of a tensor.
    pub fn quantize(&self, t: &Tensor) -> Tensor {
        if matches!(self.format, ElemFormat::Fp32) {
            return t.clone();
        }
        t.map(|x| self.quantize_scalar(x))
    }

    /// Quantize with a scale factor: `Q(x * scale) / scale` — the
    /// per-tensor-scaled quantization of §5.1. `scale == 1.0` is plain
    /// quantization.
    pub fn quantize_scaled(&self, t: &Tensor, scale: f32) -> Tensor {
        if matches!(self.format, ElemFormat::Fp32) {
            return t.clone();
        }
        let inv = 1.0 / scale;
        t.map(|x| self.quantize_scalar(x * scale) * inv)
    }

    /// Consuming [`FakeQuant::quantize`]: rewrites the tensor in place,
    /// avoiding the output allocation when the caller hands ownership.
    pub fn quantize_owned(&self, t: Tensor) -> Tensor {
        if matches!(self.format, ElemFormat::Fp32) {
            return t;
        }
        t.mapv(|x| self.quantize_scalar(x))
    }

    /// Consuming [`FakeQuant::quantize_scaled`].
    pub fn quantize_scaled_owned(&self, t: Tensor, scale: f32) -> Tensor {
        if matches!(self.format, ElemFormat::Fp32) {
            return t;
        }
        let inv = 1.0 / scale;
        t.mapv(|x| self.quantize_scalar(x * scale) * inv)
    }

    /// Classify one (pre-quantization, post-quantization) pair into the
    /// health counters. `x` is the value actually rounded (after scaling).
    #[inline]
    fn classify(&self, x: f32, v: f32, health: &mut TensorHealth) {
        health.elements += 1;
        if !x.is_finite() {
            health.nonfinite_in += 1;
        } else if v == 0.0 && x != 0.0 {
            health.underflowed += 1;
        } else if (x.abs() as f64) > self.format.max_value() {
            health.saturated += 1;
        }
        if !v.is_finite() {
            health.nonfinite_out += 1;
        }
    }

    /// Quantize every element and report the tensor's numerical health
    /// (saturation / underflow / non-finite counters).
    pub fn quantize_with_health(&self, t: &Tensor) -> (Tensor, TensorHealth) {
        self.quantize_scaled_with_health(t, 1.0)
    }

    /// [`FakeQuant::quantize_scaled`] with health counters. Saturation and
    /// underflow are judged on the *scaled* value — the one that actually
    /// met the format's range.
    pub fn quantize_scaled_with_health(&self, t: &Tensor, scale: f32) -> (Tensor, TensorHealth) {
        /// Elements per parallel chunk — fixed, so the decomposition (and
        /// the in-order merge of health partials) is thread-count-invariant.
        const QUANT_CHUNK: usize = 8 * 1024;
        let inv = if scale == 1.0 { 1.0 } else { 1.0 / scale };
        let src = t.data();
        let quantize_span = |out: &mut [f32], xs_off: usize, health: &mut TensorHealth| {
            let end = xs_off + out.len();
            for (o, &x) in out.iter_mut().zip(&src[xs_off..end]) {
                let xs = x * scale;
                let v = self.quantize_scalar(xs);
                self.classify(xs, v, health);
                *o = v * inv;
            }
        };
        let mut data = vec![0.0f32; src.len()];
        let mut health = TensorHealth::default();
        if data.len() < QUANT_CHUNK {
            quantize_span(&mut data, 0, &mut health);
        } else {
            // Per-chunk health partials, merged in chunk order.
            let partials =
                qt_par::parallel_map_slices_mut(&mut data, QUANT_CHUNK, |_, off, out| {
                    let mut h = TensorHealth::default();
                    quantize_span(out, off, &mut h);
                    h
                });
            for p in &partials {
                health.merge(p);
            }
        }
        (Tensor::from_vec(data, t.shape()), health)
    }

    /// Record a quantization on the tape with a straight-through estimator
    /// backward pass: the gradient flows through unchanged, but is zeroed
    /// where the input saturated (clipped STE), matching quantization-aware
    /// training practice.
    pub fn quantize_var(&self, tape: &mut Tape, x: Var) -> Var {
        self.quantize_var_scaled(tape, x, 1.0)
    }

    /// Scaled quantization on the tape (`Q(x·s)/s`) with clipped-STE
    /// backward.
    pub fn quantize_var_scaled(&self, tape: &mut Tape, x: Var, scale: f32) -> Var {
        if matches!(self.format, ElemFormat::Fp32) {
            return x;
        }
        let v = self.quantize_scaled(tape.value(x), scale);
        let max = (self.format.max_value() / scale as f64) as f32;
        tape.custom(
            vec![x],
            v,
            Box::new(move |g, parents, _| {
                vec![g.zip(parents[0], |gv, xv| if xv.abs() > max { 0.0 } else { gv })]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn lut_matches_scalar_path_exhaustively() {
        let mut rng = StdRng::seed_from_u64(42);
        for fmt in [
            ElemFormat::P8E0,
            ElemFormat::P8E1,
            ElemFormat::P8E2,
            ElemFormat::E4M3,
            ElemFormat::E5M2,
            ElemFormat::E5M3,
        ] {
            for policy in [UnderflowPolicy::RoundTiesToZero, UnderflowPolicy::Standard] {
                let q = FakeQuant::with_policy(fmt, policy);
                // Random magnitudes across the whole dynamic range.
                for _ in 0..2000 {
                    let e: f64 = rng.gen_range(-30.0..30.0);
                    let m: f64 = rng.gen_range(-2.0..2.0);
                    let x = (m * libm::exp2(e)) as f32;
                    let a = q.quantize_scalar(x);
                    let b = fmt.quantize_scalar_with(x, policy);
                    assert_eq!(a, b, "{fmt:?} {policy:?} x={x}");
                }
                // Exact representable values and midpoints.
                let vals = fmt.finite_values();
                for w in vals.windows(2) {
                    for x in [w[0], w[1], 0.5 * (w[0] + w[1])] {
                        assert_eq!(
                            q.quantize_scalar(x),
                            fmt.quantize_scalar_with(x, policy),
                            "{fmt:?} {policy:?} x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_tensor_shapes_preserved() {
        let q = FakeQuant::new(ElemFormat::P8E1);
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(q.quantize(&t).shape(), &[2, 3, 4]);
    }

    #[test]
    fn scaled_quantization_rescues_small_values() {
        // 1e-5 underflows Posit8 (min 2^-12 ≈ 2.4e-4) but survives with a
        // scale that maps amax to 64.
        let q = FakeQuant::new(ElemFormat::P8E1);
        let t = Tensor::from_vec(vec![1e-5, 2e-5], &[2]);
        assert_eq!(q.quantize(&t).data(), &[0.0, 0.0]);
        let scale = 64.0 / 2e-5;
        let s = q.quantize_scaled(&t, scale);
        assert!((s.data()[0] - 1e-5).abs() / 1e-5 < 0.05);
        assert!((s.data()[1] - 2e-5).abs() / 2e-5 < 0.05);
    }

    #[test]
    fn ste_backward_passes_and_clips() {
        let q = FakeQuant::new(ElemFormat::P8E1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.3, 9999.0, -9999.0], &[3]), true);
        let y = q.quantize_var(&mut tape, x);
        assert_eq!(tape.value(y).data()[1], 4096.0);
        let l = tape.sum_all(y);
        let g = tape.backward(l);
        // in-range passes gradient; saturated entries are clipped
        assert_eq!(g.get(x).unwrap().data(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn bf16_and_fp32_paths() {
        let qb = FakeQuant::new(ElemFormat::Bf16);
        assert_eq!(qb.quantize_scalar(1.0 + 1e-4), 1.0);
        let qf = FakeQuant::new(ElemFormat::Fp32);
        let t = Tensor::from_vec(vec![0.12345], &[1]);
        assert_eq!(qf.quantize(&t).data(), t.data());
    }

    #[test]
    fn nan_propagates() {
        let q = FakeQuant::new(ElemFormat::E4M3);
        assert!(q.quantize_scalar(f32::NAN).is_nan());
    }

    #[test]
    fn nonfinite_policy_saturate_and_zero() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0], &[4]);
        let sat = FakeQuant::with_guard(
            ElemFormat::E4M3,
            UnderflowPolicy::RoundTiesToZero,
            NonFinitePolicy::Saturate,
        );
        assert_eq!(sat.quantize(&t).data(), &[448.0, 448.0, -448.0, 1.0]);
        let zero = FakeQuant::with_guard(
            ElemFormat::E4M3,
            UnderflowPolicy::RoundTiesToZero,
            NonFinitePolicy::Zero,
        );
        assert_eq!(zero.quantize(&t).data(), &[0.0, 0.0, 0.0, 1.0]);
        // Default (Propagate): NaN passes, infinities saturate naturally.
        let prop = FakeQuant::new(ElemFormat::E4M3);
        let p = prop.quantize(&t);
        assert!(p.data()[0].is_nan());
        assert_eq!(&p.data()[1..], &[448.0, -448.0, 1.0]);
    }

    #[test]
    fn all_nan_tensor_under_each_policy() {
        let t = Tensor::from_vec(vec![f32::NAN; 4], &[4]);
        for (policy, expect) in [
            (NonFinitePolicy::Saturate, Some(4096.0)),
            (NonFinitePolicy::Zero, Some(0.0)),
            (NonFinitePolicy::Propagate, None), // all NaN out
        ] {
            let q =
                FakeQuant::with_guard(ElemFormat::P8E1, UnderflowPolicy::RoundTiesToZero, policy);
            let (out, h) = q.quantize_with_health(&t);
            assert_eq!(h.nonfinite_in, 4, "{policy:?}");
            assert_eq!(h.nonfinite_rate(), 1.0);
            match expect {
                Some(v) => {
                    assert!(out.data().iter().all(|&x| x == v), "{policy:?}");
                    assert_eq!(h.nonfinite_out, 0);
                }
                None => {
                    assert!(out.data().iter().all(|x| x.is_nan()), "{policy:?}");
                    assert_eq!(h.nonfinite_out, 4);
                }
            }
        }
    }

    #[test]
    fn health_counts_saturation_and_underflow() {
        let q = FakeQuant::new(ElemFormat::P8E1); // range [2^-12, 4096]
        let t = Tensor::from_vec(vec![1e9, -1e9, 1e-9, 0.0, 1.0, f32::NAN], &[6]);
        let (out, h) = q.quantize_with_health(&t);
        assert_eq!(h.elements, 6);
        assert_eq!(h.saturated, 2); // ±1e9 clamp to ±4096
        assert_eq!(h.underflowed, 1); // 1e-9 flushes; exact 0 does not count
        assert_eq!(h.nonfinite_in, 1);
        assert_eq!(h.nonfinite_out, 1);
        assert_eq!(out.data()[0], 4096.0);
        assert_eq!(out.data()[3], 0.0);
        assert!((h.saturation_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_health_judges_scaled_values() {
        // 1e-5 underflows unscaled; with a rescuing scale nothing flushes.
        let q = FakeQuant::new(ElemFormat::P8E1);
        let t = Tensor::from_vec(vec![1e-5, 2e-5], &[2]);
        let (_, h0) = q.quantize_with_health(&t);
        assert_eq!(h0.underflowed, 2);
        let (_, h1) = q.quantize_scaled_with_health(&t, 64.0 / 2e-5);
        assert!(h1.is_clean(), "{h1}");
    }

    #[test]
    fn underflow_policy_at_exactly_half_minpos() {
        // minpos/2 is the tie point: RoundTiesToZero flushes it, Standard
        // never lets a non-zero input round to zero.
        let minpos = ElemFormat::P8E1.min_positive() as f32;
        let tie = 0.5 * minpos;
        let rtz = FakeQuant::with_policy(ElemFormat::P8E1, UnderflowPolicy::RoundTiesToZero);
        assert_eq!(rtz.quantize_scalar(tie), 0.0);
        assert_eq!(rtz.quantize_scalar(-tie), 0.0);
        let std = FakeQuant::with_policy(ElemFormat::P8E1, UnderflowPolicy::Standard);
        assert_eq!(std.quantize_scalar(tie), minpos);
        assert_eq!(std.quantize_scalar(-tie), -minpos);
        // Just above the tie rounds to minpos under both policies.
        let above = tie * 1.001;
        assert_eq!(rtz.quantize_scalar(above), minpos);
        assert_eq!(std.quantize_scalar(above), minpos);
    }
}
