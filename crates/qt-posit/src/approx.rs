//! Bitwise approximate posit operations (paper §3.3 and §4.1).
//!
//! Posits admit startlingly cheap approximations of transcendental
//! functions:
//!
//! - **Sigmoid** (es = 0 only): invert the sign bit and shift the code right
//!   by two, shifting in zeros.
//! - **Reciprocal** (any es): XOR the code with the negated sign mask, i.e.
//!   invert every bit except the sign — pure NOT gates in hardware. The
//!   result is a piecewise-linear function whose segments connect the points
//!   `(2^n, 2^-n)` (Figure 7), up to one final-position code.
//! - **Exponential**: composed from the two, via
//!   `e^x = 1/S(-x) - 1`, plus the paper's two corrections: outputs are
//!   truncated to zero below a threshold `θ` (so attention masks still
//!   work), and the curve is shifted by `ε` to hug `e^x` (Equation 3).
//!
//! All functions here operate on posit values and return posit values; the
//! `*_f64` variants run the same bit-level pipeline on `f64` endpoints for
//! plotting and reference use.

use crate::{Posit, P8E0, P8E1};

/// Fast sigmoid on an es = 0 posit: `(bits XOR signmask) >> 2` (§3.3).
///
/// Exact at `x = 0` (gives 0.5) and asymptotically correct at `±maxpos`.
pub fn fast_sigmoid_es0<const N: u32>(x: Posit<N, 0>) -> Posit<N, 0> {
    if x.is_nar() {
        return Posit::NAR;
    }
    let sign_mask = (1u32 << (N - 1)) as u16;
    Posit::from_bits((x.bits() ^ sign_mask) >> 2)
}

/// Fast sigmoid for an arbitrary-es posit.
///
/// The bit trick is only valid for es = 0, so (as §3.3 describes) the value
/// is first converted to the es = 0 format of the same width, the trick is
/// applied, and the result converted back.
pub fn fast_sigmoid<const N: u32, const ES: u32>(x: Posit<N, ES>) -> Posit<N, ES> {
    if x.is_nar() {
        return Posit::NAR;
    }
    let x0 = Posit::<N, 0>::from_f64(x.to_f64());
    let s0 = fast_sigmoid_es0(x0);
    Posit::<N, ES>::from_f64(s0.to_f64())
}

/// Fast reciprocal: two's complement of all non-sign bits (NOT via XOR with
/// the negated sign mask, plus the increment already present in the posit
/// negation datapath), valid for any es (§3.3).
///
/// On the posit grid this is *exactly* the monotone piecewise-linear
/// function whose segments connect `(2^n, 2^-n)` to `(2^(n+1), 2^-(n+1))`
/// (Figure 7, left): exact at powers of two, chordal in between.
/// Zero maps to NaR; NaR maps to NaR.
pub fn fast_reciprocal<const N: u32, const ES: u32>(x: Posit<N, ES>) -> Posit<N, ES> {
    if x.is_nar() {
        return Posit::NAR;
    }
    let invert_mask = ((1u32 << (N - 1)) - 1) as u16;
    Posit::from_bits((x.bits() ^ invert_mask).wrapping_add(1))
}

/// The literal NOT-gates-only reciprocal (XOR with the negated sign mask,
/// no increment), as stated in §3.3's prose. It tracks [`fast_reciprocal`]
/// exactly one code position lower; zero maps to `maxpos`.
pub fn fast_reciprocal_not_only<const N: u32, const ES: u32>(x: Posit<N, ES>) -> Posit<N, ES> {
    if x.is_nar() {
        return Posit::NAR;
    }
    let invert_mask = ((1u32 << (N - 1)) - 1) as u16;
    Posit::from_bits(x.bits() ^ invert_mask)
}

/// The ideal piecewise-linear reciprocal that [`fast_reciprocal`]
/// approximates: segments connecting `(2^n, 2^-n)` to `(2^(n+1), 2^-(n+1))`
/// (Figure 7, left). Reference function for plots and for the softmax
/// backward derivation.
pub fn pwl_reciprocal(x: f64) -> f64 {
    if x == 0.0 {
        return f64::INFINITY;
    }
    let sign = x.signum();
    let a = x.abs();
    let n = libm::floor(libm::log2(a)) as i32;
    let x0 = libm::ldexp(1.0, n);
    let y0 = libm::ldexp(1.0, -n);
    let slope = pwl_reciprocal_derivative(a);
    sign * (y0 + slope * (a - x0))
}

/// Derivative of the piecewise-linear posit reciprocal (Equation 5):
/// `f'(t) = -2^(-2*floor(log2 t) - 1)`.
///
/// Used by the custom softmax backward pass (§5.2).
pub fn pwl_reciprocal_derivative(t: f64) -> f64 {
    let n = libm::floor(libm::log2(t.abs())) as i32;
    -libm::ldexp(1.0, -2 * n - 1)
}

/// Configuration of the approximate posit exponential (Equation 3):
///
/// ```text
/// f(x) = 1/S(-x) + ε   if x ≥ θ
///      = 0             if x < θ
/// ```
///
/// where `S` is [`fast_sigmoid`] and `1/·` is [`fast_reciprocal`]. `ε` is
/// negative and close to `-1.125`; `ε = -1` recovers the raw identity
/// `e^x = 1/S(-x) - 1`, which fails to converge to 0 for very negative
/// inputs and leaks attention onto masked tokens (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpApprox {
    /// Threshold below which outputs are truncated to zero.
    pub theta: f64,
    /// Constant added to `1/S(-x)` (negative; `-1` = unshifted).
    pub epsilon: f64,
}

impl ExpApprox {
    /// The paper's best configuration (Table 3): `θ = -4`, `ε = -1.125`.
    pub const PAPER_BEST: Self = Self {
        theta: -4.0,
        epsilon: -1.125,
    };

    /// Unshifted, thresholded variant: subtract exactly 1.
    pub fn thresholded(theta: f64) -> Self {
        Self {
            theta,
            epsilon: -1.0,
        }
    }

    /// Raw identity with no threshold and no shift (the orange curve in
    /// Figure 7 that fails to converge to zero).
    pub fn raw() -> Self {
        Self {
            theta: f64::NEG_INFINITY,
            epsilon: -1.0,
        }
    }

    /// Derive `ε` from `θ` the way §4.1 describes: subtract the value the
    /// *approximated* exponential takes at the threshold, i.e.
    /// `ε = -(1/S(-θ))` evaluated with the approximate posit pipeline.
    pub fn shifted(theta: f64) -> Self {
        let x0 = P8E0::from_f64(-theta);
        let r0 = fast_reciprocal(fast_sigmoid_es0(x0));
        Self {
            theta,
            epsilon: -r0.to_f64(),
        }
    }

    /// Evaluate the approximate exponential on a `Posit<8, 1>` value.
    ///
    /// Only meaningful for non-positive inputs (numerically-stable softmax
    /// subtracts the max first); positive inputs are evaluated as-is and
    /// increasingly overshoot.
    pub fn eval_p8(self, x: P8E1) -> P8E1 {
        if x.is_nar() {
            return P8E1::NAR;
        }
        if x.to_f64() < self.theta {
            return P8E1::ZERO;
        }
        let x0 = P8E0::from_f64(x.negated().to_f64());
        let r0 = fast_reciprocal(fast_sigmoid_es0(x0));
        // The shift is folded into the existing subtraction (§4.1): no
        // extra hardware. The whole pipeline — sigmoid trick, reciprocal
        // trick, subtraction — runs in the es = 0 domain and re-encodes
        // to es = 1 once at the end.
        let shifted = r0 + P8E0::from_f64(self.epsilon);
        P8E1::from_f64(shifted.to_f64())
    }

    /// Evaluate the same bit-level pipeline with `f64` endpoints (for
    /// plotting Figure 7 and for tensor-level reference code).
    pub fn eval_f64(self, x: f64) -> f64 {
        self.eval_p8(P8E1::from_f64(x)).to_f64()
    }
}

impl Default for ExpApprox {
    fn default() -> Self {
        Self::PAPER_BEST
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_es0_fixed_points() {
        assert_eq!(fast_sigmoid_es0(P8E0::ZERO).to_f64(), 0.5);
        // Saturated positive input → just below 1.
        let s = fast_sigmoid_es0(P8E0::from_f64(64.0)).to_f64();
        assert!(s > 0.9 && s < 1.0, "{s}");
        // Saturated negative input → 0.
        assert_eq!(fast_sigmoid_es0(P8E0::from_f64(-64.0)).to_f64(), 0.0);
        assert!(fast_sigmoid_es0(P8E0::NAR).is_nar());
    }

    #[test]
    fn sigmoid_accuracy_bound() {
        // Fast sigmoid tracks the true sigmoid to within ~0.08 absolute
        // over the useful range (Cococcioni et al.).
        for i in -60..=60 {
            let x = i as f64 / 10.0;
            let approx = fast_sigmoid(P8E1::from_f64(x)).to_f64();
            let exact = 1.0 / (1.0 + libm::exp(-x));
            assert!(
                (approx - exact).abs() < 0.09,
                "x={x} approx={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn sigmoid_monotone() {
        let mut prev = -1.0;
        for i in -100..=100 {
            let x = i as f64 / 8.0;
            let s = fast_sigmoid(P8E1::from_f64(x)).to_f64();
            assert!(s >= prev, "x={x}");
            prev = s;
        }
    }

    #[test]
    fn reciprocal_near_powers_of_two() {
        // Within one code of exact at powers of two, chord in between.
        for n in -4..=4i32 {
            let x = libm::ldexp(1.0, n);
            let r = fast_reciprocal(P8E1::from_f64(x)).to_f64();
            let exact = libm::ldexp(1.0, -n);
            let rel = (r - exact).abs() / exact;
            assert!(rel < 0.05, "x={x} r={r} exact={exact}");
        }
    }

    #[test]
    fn reciprocal_relative_error_bound() {
        for p in P8E1::all_finite() {
            if p.is_zero() {
                continue;
            }
            let x = p.to_f64();
            let r = fast_reciprocal(p).to_f64();
            let exact = 1.0 / x;
            let rel = ((r - exact) / exact).abs();
            // PWL chord error peaks ~12.5% mid-segment plus rounding.
            assert!(rel < 0.2, "x={x} r={r} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn reciprocal_special_cases() {
        assert!(fast_reciprocal(P8E1::NAR).is_nar());
        // 1/0 falls out of the bit pattern as NaR.
        assert!(fast_reciprocal(P8E1::ZERO).is_nar());
        // The NOT-only variant saturates 1/0 to maxpos instead.
        assert_eq!(
            fast_reciprocal_not_only(P8E1::ZERO).to_f64(),
            P8E1::maxpos()
        );
        // Sign is preserved, and powers of two are exact.
        assert_eq!(fast_reciprocal(P8E1::from_f64(-2.0)).to_f64(), -0.5);
        // NOT-only tracks one code lower on positives.
        let x = P8E1::from_f64(3.0);
        assert_eq!(
            fast_reciprocal_not_only(x).bits() + 1,
            fast_reciprocal(x).bits()
        );
    }

    #[test]
    fn reciprocal_is_exact_pwl_on_grid() {
        // fast_reciprocal == quantized PWL for every finite non-zero posit.
        for p in P8E1::all_finite() {
            if p.is_zero() {
                continue;
            }
            let approx = fast_reciprocal(p).to_f64();
            let pwl = P8E1::quantize(pwl_reciprocal(p.to_f64()));
            assert_eq!(approx, pwl, "x={}", p.to_f64());
        }
    }

    #[test]
    fn pwl_reciprocal_matches_breakpoints() {
        for n in -6..=6i32 {
            let x = libm::ldexp(1.0, n);
            assert_eq!(pwl_reciprocal(x), libm::ldexp(1.0, -n));
        }
        // Chord value at x = 3 between (2, 0.5) and (4, 0.25).
        assert_eq!(pwl_reciprocal(3.0), 0.375);
        assert_eq!(pwl_reciprocal_derivative(3.0), -0.125);
    }

    #[test]
    fn exp_raw_fails_to_converge() {
        // The uncorrected approximation plateaus above zero for very
        // negative inputs — the attention-mask leak of §4.1.
        let raw = ExpApprox::raw();
        let tail = raw.eval_f64(-50.0);
        assert!(tail > 0.02, "raw tail should leak, got {tail}");
        // And it never reaches zero anywhere left of the knee.
        for i in 5..80 {
            let v = raw.eval_f64(-(i as f64));
            assert!(v > 0.0, "x={} v={v}", -(i as f64));
        }
    }

    #[test]
    fn exp_threshold_fixes_tail() {
        let cfg = ExpApprox::PAPER_BEST;
        assert_eq!(cfg.eval_f64(-50.0), 0.0);
        // -4.3 quantizes below the threshold; -4.01 quantizes *onto* -4.0
        // (the comparison happens after input quantization, as in hardware).
        assert_eq!(cfg.eval_f64(-4.3), 0.0);
        assert!(cfg.eval_f64(-3.9) >= 0.0);
    }

    #[test]
    fn exp_tracks_true_exponential() {
        // Between θ and 0 the shifted curve hugs e^x (Figure 7, green/red).
        let cfg = ExpApprox::PAPER_BEST;
        for i in 0..=40 {
            let x = -4.0 + i as f64 / 10.0;
            let approx = cfg.eval_f64(x);
            let exact = libm::exp(x);
            assert!(
                (approx - exact).abs() < 0.22,
                "x={x} approx={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn shifted_epsilon_derivation() {
        // ε derived at the threshold makes f(θ⁺) small.
        for theta in [-5.0, -4.0, -3.0, -2.0] {
            let cfg = ExpApprox::shifted(theta);
            assert!(cfg.epsilon < -1.0 && cfg.epsilon > -1.5, "{cfg:?}");
            let at_theta = cfg.eval_f64(theta + 1e-9);
            assert!(at_theta.abs() < 0.15, "theta={theta} f={at_theta}");
        }
    }

    #[test]
    fn exp_monotone_above_threshold() {
        let cfg = ExpApprox::PAPER_BEST;
        let mut prev = -1.0;
        for i in 0..=80 {
            let x = -4.0 + i as f64 * 0.05;
            let v = cfg.eval_f64(x);
            assert!(v >= prev - 1e-12, "x={x} v={v} prev={prev}");
            prev = v;
        }
    }
}
