//! Fused posit operations with deferred rounding (paper §3.2).
//!
//! Fusing a chain of multiply-accumulates means rounding only once, at the
//! end, instead of re-encoding every intermediate. For 8-bit posits the
//! exact sum of products fits in a fixed-point accumulator (the *quire*);
//! this module provides a bit-exact [`Quire`] for `N <= 8` and a
//! high-precision `f64` fallback ([`FusedDot`]) for wider formats —
//! matching the paper's accelerators, which accumulate in BFloat16/FP32.

use crate::Posit;

/// Exact fixed-point accumulator for products of `Posit<N, ES>` values,
/// `N <= 8`.
///
/// Every product of two posits is an integer multiple of
/// `2^(-2·maxpos_exp - 2·fmax)`; the quire accumulates those multiples in an
/// `i128`, which leaves > 20 bits of headroom even for `Posit<8, 2>` with
/// thousands of terms.
///
/// # Example
///
/// ```
/// use qt_posit::{P8E1, Quire};
///
/// let a: Vec<P8E1> = [1.5, 2.0, -0.25].iter().map(|&x| P8E1::from_f64(x)).collect();
/// let b: Vec<P8E1> = [2.0, 0.5, 4.0].iter().map(|&x| P8E1::from_f64(x)).collect();
/// let mut q = Quire::<8, 1>::new();
/// for (&x, &y) in a.iter().zip(&b) {
///     q.add_product(x, y);
/// }
/// assert_eq!(q.to_f64(), 3.0); // 3.0 + 1.0 - 1.0, exactly
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quire<const N: u32, const ES: u32> {
    acc: i128,
    nar: bool,
}

impl<const N: u32, const ES: u32> Quire<N, ES> {
    /// Binary exponent of the accumulator's least significant bit.
    /// All products are exact multiples of `2^LSB_EXP`.
    pub const LSB_EXP: i32 = -2 * Posit::<N, ES>::MAXPOS_EXP - 2 * Self::FMAX as i32;
    const FMAX: u32 = N - 3 - ES; // max fraction bits (requires N >= 3 + ES)

    /// Create an empty (zero) quire.
    ///
    /// # Panics
    ///
    /// Panics if `N > 8` — wider formats overflow the `i128` accumulator;
    /// use [`FusedDot`] instead.
    pub fn new() -> Self {
        assert!(N <= 8, "exact quire supports N <= 8; use FusedDot");
        assert!(N >= 3 + ES, "degenerate posit format");
        Self { acc: 0, nar: false }
    }

    /// Accumulate the exact product `a * b`.
    pub fn add_product(&mut self, a: Posit<N, ES>, b: Posit<N, ES>) {
        if a.is_nar() || b.is_nar() {
            self.nar = true;
            return;
        }
        if a.is_zero() || b.is_zero() {
            return;
        }
        self.acc += exact_product_fixed(a, b, Self::LSB_EXP);
    }

    /// Accumulate a single posit value exactly.
    pub fn add(&mut self, p: Posit<N, ES>) {
        self.add_product(p, Posit::ONE);
    }

    /// Subtract the exact product `a * b`.
    pub fn sub_product(&mut self, a: Posit<N, ES>, b: Posit<N, ES>) {
        self.add_product(a.negated(), b);
    }

    /// `true` if any NaR was absorbed.
    pub fn is_nar(&self) -> bool {
        self.nar
    }

    /// The exact accumulated value as `f64`.
    ///
    /// This may itself round (f64 has 53 significand bits) but the
    /// accumulation up to this point was exact.
    pub fn to_f64(&self) -> f64 {
        if self.nar {
            return f64::NAN;
        }
        // i128 → f64 conversion is correctly rounded.
        libm::ldexp(self.acc as f64, Self::LSB_EXP)
    }

    /// Round once to the posit format — the fused operation's single
    /// rounding step.
    pub fn to_posit(&self) -> Posit<N, ES> {
        if self.nar {
            return Posit::NAR;
        }
        Posit::from_f64(self.to_f64())
    }
}

impl<const N: u32, const ES: u32> Default for Quire<N, ES> {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact fixed-point representation of `a * b` with LSB `2^lsb_exp`.
fn exact_product_fixed<const N: u32, const ES: u32>(
    a: Posit<N, ES>,
    b: Posit<N, ES>,
    lsb_exp: i32,
) -> i128 {
    let (sa, ia, ea) = to_int_scale(a);
    let (sb, ib, eb) = to_int_scale(b);
    let mag = (ia as i128) * (ib as i128);
    let shift = ea + eb - lsb_exp;
    debug_assert!(shift >= 0, "product below quire LSB");
    let v = mag << shift;
    if sa != sb {
        -v
    } else {
        v
    }
}

/// Decompose a non-zero posit into `(sign, integer_significand, exponent)`
/// with value `±integer * 2^exponent`.
fn to_int_scale<const N: u32, const ES: u32>(p: Posit<N, ES>) -> (bool, u64, i32) {
    let v = p.to_f64();
    let neg = v < 0.0;
    let a = v.abs();
    let bits = a.to_bits();
    let be = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let frac52 = bits & ((1u64 << 52) - 1);
    // Posit significands have at most FMAX bits; shift the f64 mantissa
    // down to the minimal integer representation.
    let tz = if frac52 == 0 {
        52
    } else {
        frac52.trailing_zeros().min(52)
    };
    let int = ((1u64 << 52) | frac52) >> tz;
    (neg, int, be - (52 - tz as i32))
}

/// High-precision fused dot product for arbitrary posit widths.
///
/// Uses the exact [`Quire`] when `N <= 8`; otherwise accumulates in `f64`
/// (deferred rounding, like a BF16/FP32 accumulator that is much wider than
/// the operand format).
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedDot;

impl FusedDot {
    /// Compute `sum_i a[i] * b[i]` with a single final rounding.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot<const N: u32, const ES: u32>(
        a: &[Posit<N, ES>],
        b: &[Posit<N, ES>],
    ) -> Posit<N, ES> {
        assert_eq!(a.len(), b.len(), "fused dot length mismatch");
        if N <= 8 {
            let mut q = Quire::<N, ES>::new();
            for (&x, &y) in a.iter().zip(b) {
                q.add_product(x, y);
            }
            q.to_posit()
        } else {
            let mut acc = 0.0f64;
            let mut nar = false;
            for (&x, &y) in a.iter().zip(b) {
                if x.is_nar() || y.is_nar() {
                    nar = true;
                }
                acc += x.to_f64() * y.to_f64();
            }
            if nar {
                Posit::NAR
            } else {
                Posit::from_f64(acc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{P8E1, P8E2};

    #[test]
    fn quire_exact_cancellation() {
        // (maxpos * minpos) + 1 - 1 == 1 exactly; a rounding accumulator at
        // 8-bit precision would lose the tiny term.
        let mut q = Quire::<8, 1>::new();
        q.add_product(P8E1::from_f64(4096.0), P8E1::from_f64(2.0_f64.powi(-12)));
        q.add(P8E1::ONE);
        q.add(P8E1::from_f64(-1.0));
        assert_eq!(q.to_f64(), 1.0);
    }

    #[test]
    fn quire_vs_sequential_rounding() {
        // Accumulating 0.0625 sixteen times: fused gives exactly 1.0;
        // sequential posit adds stall once the running sum's ULP exceeds
        // the addend.
        let step = P8E1::from_f64(0.045);
        let mut q = Quire::<8, 1>::new();
        let mut seq = P8E1::ZERO;
        for _ in 0..64 {
            q.add(step);
            seq = seq + step;
        }
        let fused = q.to_posit().to_f64();
        let expect = 64.0 * step.to_f64();
        assert!((fused - expect).abs() / expect < 0.05, "fused {fused}");
        // The sequential result is biased low.
        assert!(seq.to_f64() <= fused);
    }

    #[test]
    fn quire_extreme_products_p8e2() {
        let mut q = Quire::<8, 2>::new();
        let tiny = P8E2::from_f64(libm::ldexp(1.0, -24));
        q.add_product(tiny, tiny); // 2^-48, far below the format
        q.add(P8E2::ONE);
        let v = q.to_f64();
        assert!(v > 1.0 && v < 1.0 + 1e-13);
        assert_eq!(q.to_posit().to_f64(), 1.0); // rounds once at the end
    }

    #[test]
    fn quire_nar_is_sticky() {
        let mut q = Quire::<8, 1>::new();
        q.add(P8E1::NAR);
        q.add(P8E1::ONE);
        assert!(q.is_nar());
        assert!(q.to_posit().is_nar());
    }

    #[test]
    fn fused_dot_matches_f64_reference() {
        let xs: Vec<P8E1> = (0..32)
            .map(|i| P8E1::from_f64(0.1 * i as f64 - 1.5))
            .collect();
        let ys: Vec<P8E1> = (0..32)
            .map(|i| P8E1::from_f64(0.07 * i as f64 - 1.0))
            .collect();
        let exact: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .sum();
        let fused = FusedDot::dot(&xs, &ys).to_f64();
        assert_eq!(fused, P8E1::quantize(exact));
    }

    #[test]
    fn fused_dot_wide_format_fallback() {
        use crate::P16E1;
        let xs: Vec<P16E1> = (0..8).map(|i| P16E1::from_f64(1.0 + i as f64)).collect();
        let ys: Vec<P16E1> = (0..8).map(|_| P16E1::ONE).collect();
        assert_eq!(FusedDot::dot(&xs, &ys).to_f64(), 36.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fused_dot_length_mismatch_panics() {
        let _ = FusedDot::dot::<8, 1>(&[P8E1::ONE], &[]);
    }
}
