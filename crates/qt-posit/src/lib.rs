//! Posit arithmetic for DNN training and inference, as used by the paper
//! *8-bit Transformer Inference and Fine-tuning for Edge Accelerators*
//! (ASPLOS 2024, section 3).
//!
//! A posit `Posit<N, ES>` has four fields: sign, a variable-length *regime*
//! (a run of identical bits encoding a scaling of `useed^k` where
//! `useed = 2^(2^ES)`), up to `ES` exponent bits, and the remaining bits of
//! fraction. The variable-length fields give posits *tapered precision*:
//! values near 1 get the most fraction bits, and very large/small values get
//! none (Figures 1 and 3 of the paper).
//!
//! This crate provides:
//!
//! - bit-exact encode/decode with round-to-nearest-even,
//! - both the standard posit underflow rule (tiny values saturate to
//!   `minpos`) and the paper's modified rule (§3.4: round-to-even below
//!   `minpos/2`, which is essential for training),
//! - fused (deferred-rounding) dot products via an exact integer [`Quire`],
//! - the bitwise approximate operations of §3.3 and §4.1: sigmoid,
//!   reciprocal, and the thresholded + shifted exponential used by the
//!   posit softmax ([`approx`]).
//!
//! # Example
//!
//! ```
//! use qt_posit::P8E1;
//!
//! let x = P8E1::from_f64(0.171875);
//! assert_eq!(x.to_f64(), 0.171875); // exactly representable (Figure 1)
//! assert_eq!(P8E1::MAXPOS_EXP, 12); // range 2^-12 ..= 2^12
//! assert_eq!(P8E1::from_f64(1e9).to_f64(), 4096.0); // saturates at maxpos
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod quire;

pub use quire::{FusedDot, Quire};

use core::fmt;

/// Rounding policy for values below `minpos` (the smallest positive posit).
///
/// The policies only differ for `0 < |x| < minpos`; everything else uses
/// round-to-nearest-even with saturation at `maxpos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UnderflowPolicy {
    /// Standard posit (Gustafson): a non-zero value never rounds to zero;
    /// anything in `(0, minpos)` rounds *up* to `minpos`. The paper shows
    /// this diverges when training (gradients are often below `minpos`).
    Standard,
    /// The paper's §3.4 rule: round-to-nearest-even between `0` and
    /// `minpos`, so values below `minpos/2` flush to zero. This is the
    /// default used throughout the reproduction.
    #[default]
    RoundTiesToZero,
}

/// A posit value with `N` total bits and `ES` exponent bits.
///
/// The bit pattern is stored right-aligned in a `u16`, so `N <= 16`.
/// Negative values use two's-complement encoding of the whole `N`-bit code,
/// which makes posit codes *monotone*: comparing codes as `N`-bit signed
/// integers matches comparing values.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posit<const N: u32, const ES: u32> {
    bits: u16,
}

/// 8-bit posit with 0 exponent bits; range `2^-6 ..= 2^6`. Used by the fast
/// sigmoid approximation (§3.3).
pub type P8E0 = Posit<8, 0>;
/// 8-bit posit with 1 exponent bit; range `2^-12 ..= 2^12`. The paper's
/// primary "Posit8" format.
pub type P8E1 = Posit<8, 1>;
/// 8-bit posit with 2 exponent bits; range `2^-24 ..= 2^24`. Evaluated for
/// large Transformers (§4.3).
pub type P8E2 = Posit<8, 2>;
/// 16-bit posit with 1 exponent bit, used for the 16-bit hardware
/// comparison points of §4.2.
pub type P16E1 = Posit<16, 1>;

impl<const N: u32, const ES: u32> Posit<N, ES> {
    /// Number of bits in the format.
    pub const BITS: u32 = N;
    /// Number of exponent bits.
    pub const ES: u32 = ES;
    /// `log2(maxpos)`: `maxpos = 2^((N-2) * 2^ES)`.
    pub const MAXPOS_EXP: i32 = ((N - 2) as i32) << ES;

    const CODE_MASK: u16 = (((1u32 << N) - 1) as u16);
    const SIGN_BIT: u16 = (1u32 << (N - 1)) as u16;
    /// Code of `maxpos` (all ones except the sign bit).
    const MAXPOS_CODE: u16 = Self::SIGN_BIT - 1;
    /// Code of `minpos` (one in the LSB).
    const MINPOS_CODE: u16 = 1;

    /// Positive zero (code `0…0`).
    pub const ZERO: Self = Self { bits: 0 };
    /// Not-a-Real (code `10…0`), posit's single exception value.
    pub const NAR: Self = Self {
        bits: Self::SIGN_BIT,
    };
    /// One (code `010…0`).
    pub const ONE: Self = Self {
        bits: (1u32 << (N - 2)) as u16,
    };

    /// Construct from a raw `N`-bit code. Bits above `N` are masked off.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Self {
            bits: bits & Self::CODE_MASK,
        }
    }

    /// The raw `N`-bit code.
    #[inline]
    pub const fn bits(self) -> u16 {
        self.bits
    }

    /// Largest representable value, `2^((N-2)·2^ES)`.
    #[inline]
    pub fn maxpos() -> f64 {
        libm::ldexp(1.0, Self::MAXPOS_EXP)
    }

    /// Smallest positive representable value, `2^-((N-2)·2^ES)`.
    #[inline]
    pub fn minpos() -> f64 {
        libm::ldexp(1.0, -Self::MAXPOS_EXP)
    }

    /// `true` for the Not-a-Real exception value.
    #[inline]
    pub fn is_nar(self) -> bool {
        self.bits == Self::SIGN_BIT
    }

    /// `true` for (positive) zero — posits have a single zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.bits == 0
    }

    /// Negate (two's complement of the code).
    #[inline]
    pub fn negated(self) -> Self {
        Self::from_bits(self.bits.wrapping_neg())
    }

    /// Decode to `f64`. Exact: every finite posit with `N <= 16` is exactly
    /// representable in `f64`. [`Posit::NAR`] decodes to NaN.
    pub fn to_f64(self) -> f64 {
        if self.bits == 0 {
            return 0.0;
        }
        if self.is_nar() {
            return f64::NAN;
        }
        let negative = self.bits & Self::SIGN_BIT != 0;
        let code = if negative {
            self.bits.wrapping_neg() & Self::CODE_MASK
        } else {
            self.bits
        };
        let (scale, frac_num, frac_bits) = decode_fields(code, N, ES);
        let frac = 1.0 + frac_num as f64 / (1u64 << frac_bits) as f64;
        let mag = libm::ldexp(frac, scale);
        if negative {
            -mag
        } else {
            mag
        }
    }

    /// Decode to `f32` (exact for `N <= 16`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Round an `f64` to the nearest posit using the paper's default
    /// underflow policy ([`UnderflowPolicy::RoundTiesToZero`]).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self::from_f64_with(x, UnderflowPolicy::RoundTiesToZero)
    }

    /// Round an `f32` to the nearest posit (paper's underflow policy).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }

    /// Round an `f64` to the nearest posit under an explicit
    /// [`UnderflowPolicy`].
    ///
    /// Values with magnitude above `maxpos` saturate to `±maxpos` (never to
    /// NaR); NaN maps to NaR.
    pub fn from_f64_with(x: f64, policy: UnderflowPolicy) -> Self {
        if x == 0.0 {
            return Self::ZERO;
        }
        if x.is_nan() {
            return Self::NAR;
        }
        let negative = x < 0.0;
        let a = x.abs();
        let maxpos = Self::maxpos();
        let minpos = Self::minpos();
        let mag_code = if a >= maxpos {
            Self::MAXPOS_CODE
        } else if a < minpos {
            match policy {
                UnderflowPolicy::Standard => Self::MINPOS_CODE,
                UnderflowPolicy::RoundTiesToZero => {
                    // RNE between 0 (even) and minpos (odd): ties go to 0.
                    if a > minpos / 2.0 {
                        Self::MINPOS_CODE
                    } else {
                        return Self::ZERO;
                    }
                }
            }
        } else {
            round_magnitude::<N, ES>(a)
        };
        if negative {
            Self::from_bits(mag_code.wrapping_neg())
        } else {
            Self::from_bits(mag_code)
        }
    }

    /// Quantize `x` onto this posit grid and return the result as `f64`
    /// (the scalar fake-quantization primitive, paper's default policy).
    #[inline]
    pub fn quantize(x: f64) -> f64 {
        Self::from_f64(x).to_f64()
    }

    /// Quantize `x` under an explicit underflow policy.
    #[inline]
    pub fn quantize_with(x: f64, policy: UnderflowPolicy) -> f64 {
        Self::from_f64_with(x, policy).to_f64()
    }

    /// Number of fraction bits in the encoding of this value (0 for zero,
    /// NaR, and values whose regime+exponent consume all bits). This is what
    /// tapers: see Figure 3 of the paper.
    pub fn fraction_bits(self) -> u32 {
        if self.bits == 0 || self.is_nar() {
            return 0;
        }
        let code = if self.bits & Self::SIGN_BIT != 0 {
            self.bits.wrapping_neg() & Self::CODE_MASK
        } else {
            self.bits
        };
        decode_fields(code, N, ES).2
    }

    /// Iterate over every value of the format in code order, excluding NaR:
    /// `0, minpos, …, maxpos, -maxpos, …, -minpos` (useful for exhaustive
    /// tests; 255 values for `N = 8`).
    pub fn all_finite() -> impl Iterator<Item = Self> {
        (0..(1u32 << N))
            .map(|b| Self::from_bits(b as u16))
            .filter(|p| !p.is_nar())
    }

    /// Total ordering of posit codes: NaR first, then values in increasing
    /// numeric order. This is the signed-integer order of the `N`-bit codes,
    /// which the hardware comparator uses directly.
    pub fn total_cmp(self, other: Self) -> core::cmp::Ordering {
        let a = sign_extend(self.bits, N);
        let b = sign_extend(other.bits, N);
        a.cmp(&b)
    }
}

/// Decode the regime/exponent/fraction fields of a *positive* posit code.
/// Returns `(scale, fraction_numerator, fraction_bits)` so that the value is
/// `(1 + frac_num / 2^frac_bits) * 2^scale`.
fn decode_fields(code: u16, n: u32, es: u32) -> (i32, u64, u32) {
    // Bits below the sign, MSB-first.
    let body_len = n - 1;
    let body = code & (((1u32 << body_len) - 1) as u16);
    let first = (body >> (body_len - 1)) & 1;
    // Run length of identical leading bits.
    let mut m = 1u32;
    while m < body_len && ((body >> (body_len - 1 - m)) & 1) == first {
        m += 1;
    }
    let k: i32 = if first == 1 {
        m as i32 - 1
    } else {
        -(m as i32)
    };
    // Bits consumed: the run plus (if any bits remain) the terminating bit.
    let mut idx = body_len.saturating_sub(m); // bits remaining after run
    idx = idx.saturating_sub(1);
    // Exponent: up to ES bits; missing low bits are zero.
    let exp_avail = idx.min(es);
    let mut e = 0u32;
    if exp_avail > 0 {
        let shift = idx - exp_avail;
        e = ((body >> shift) & (((1u32 << exp_avail) - 1) as u16)) as u32;
        idx -= exp_avail;
    }
    e <<= es - exp_avail;
    let frac_bits = idx;
    let frac_num = (body & (((1u32 << frac_bits) - 1) as u16)) as u64;
    let scale = (k << es) + e as i32;
    (scale, frac_num, frac_bits)
}

/// Round a positive magnitude `a` in `[minpos, maxpos)` to the nearest posit
/// code (round-to-nearest, ties-to-even-code).
fn round_magnitude<const N: u32, const ES: u32>(a: f64) -> u16 {
    // Build the exact bit string (regime | exponent | 52-bit fraction) in a
    // u128, then truncate to the N-1 code bits. Posit codes are monotone in
    // value, so the truncation is the floor and `floor + 1` the ceiling.
    let scale = ilogb(a);
    let k = scale.div_euclid(1 << ES);
    let e = (scale.rem_euclid(1 << ES)) as u128;
    let frac52 = (a.to_bits() & ((1u64 << 52) - 1)) as u128; // mantissa below the leading 1

    let (regime, regime_len) = if k >= 0 {
        // k+1 ones then a zero
        (((1u128 << (k + 1)) - 1) << 1, (k + 2) as u32)
    } else {
        // -k zeros then a one
        (1u128, (-k + 1) as u32)
    };
    let ext_len = regime_len + ES + 52;
    let ext: u128 = (regime << (ES + 52)) | (e << 52) | frac52;

    let code_bits = N - 1;
    // The regime alone can fill the code for extreme values.
    let floor_code = if ext_len >= code_bits {
        (ext >> (ext_len - code_bits)) as u16
    } else {
        (ext << (code_bits - ext_len)) as u16
    };
    let floor_code = floor_code.min(((1u32 << code_bits) - 1) as u16).max(1);

    let v_lo = Posit::<N, ES>::from_bits(floor_code).to_f64();
    if v_lo == a {
        return floor_code;
    }
    debug_assert!(v_lo < a, "floor {v_lo} vs {a}");
    if floor_code == ((1u32 << code_bits) - 1) as u16 {
        return floor_code; // already at maxpos
    }
    let hi_code = floor_code + 1;
    let v_hi = Posit::<N, ES>::from_bits(hi_code).to_f64();
    // v_lo and v_hi have few significand bits; their midpoint is exact in f64.
    let mid = 0.5 * (v_lo + v_hi);
    if a < mid {
        floor_code
    } else if a > mid {
        hi_code
    } else if floor_code & 1 == 0 {
        floor_code
    } else {
        hi_code
    }
}

#[inline]
fn ilogb(a: f64) -> i32 {
    debug_assert!(a > 0.0 && a.is_finite());
    let bits = a.to_bits();
    let be = ((bits >> 52) & 0x7ff) as i32;
    if be == 0 {
        ilogb(a * libm::ldexp(1.0, 128)) - 128
    } else {
        be - 1023
    }
}

#[inline]
fn sign_extend(bits: u16, n: u32) -> i32 {
    let shift = 32 - n;
    (((bits as u32) << shift) as i32) >> shift
}

impl<const N: u32, const ES: u32> fmt::Debug for Posit<N, ES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nar() {
            write!(f, "Posit<{N},{ES}>(NaR)")
        } else {
            write!(f, "Posit<{N},{ES}>({})", self.to_f64())
        }
    }
}

impl<const N: u32, const ES: u32> fmt::Display for Posit<N, ES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nar() {
            write!(f, "NaR")
        } else {
            write!(f, "{}", self.to_f64())
        }
    }
}

impl<const N: u32, const ES: u32> fmt::Binary for Posit<N, ES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.bits, width = N as usize)
    }
}

impl<const N: u32, const ES: u32> Default for Posit<N, ES> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: u32, const ES: u32> PartialOrd for Posit<N, ES> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        if self.is_nar() || other.is_nar() {
            None
        } else {
            Some(self.total_cmp(*other))
        }
    }
}

impl<const N: u32, const ES: u32> core::ops::Neg for Posit<N, ES> {
    type Output = Self;
    fn neg(self) -> Self {
        self.negated()
    }
}

impl<const N: u32, const ES: u32> core::ops::Add for Posit<N, ES> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        if self.is_nar() || rhs.is_nar() {
            return Self::NAR;
        }
        Self::from_f64(self.to_f64() + rhs.to_f64())
    }
}

impl<const N: u32, const ES: u32> core::ops::Sub for Posit<N, ES> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        if self.is_nar() || rhs.is_nar() {
            return Self::NAR;
        }
        Self::from_f64(self.to_f64() - rhs.to_f64())
    }
}

impl<const N: u32, const ES: u32> core::ops::Mul for Posit<N, ES> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        if self.is_nar() || rhs.is_nar() {
            return Self::NAR;
        }
        Self::from_f64(self.to_f64() * rhs.to_f64())
    }
}

impl<const N: u32, const ES: u32> core::ops::Div for Posit<N, ES> {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        if self.is_nar() || rhs.is_nar() || rhs.is_zero() {
            return Self::NAR;
        }
        Self::from_f64(self.to_f64() / rhs.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // grouped as sign_regime_exp_frac
    fn figure1_example() {
        // Figure 1: 8-bit posit, es=1, value 0.171875 = 1.011 * 4^-2 * 2^1.
        // sign 0, regime 001 (k=-2), exponent 1, fraction 011.
        let p = P8E1::from_bits(0b0_001_1_011);
        assert_eq!(p.to_f64(), 0.171875);
        assert_eq!(P8E1::from_f64(0.171875).bits(), 0b0_001_1_011);
        assert_eq!(p.fraction_bits(), 3);
    }

    #[test]
    fn ranges() {
        assert_eq!(P8E1::maxpos(), 4096.0); // 2^12
        assert_eq!(P8E1::minpos(), libm::ldexp(1.0, -12));
        assert_eq!(P8E0::maxpos(), 64.0); // 2^6
        assert_eq!(P8E2::maxpos(), libm::ldexp(1.0, 24));
        assert_eq!(P16E1::maxpos(), libm::ldexp(1.0, 28));
    }

    #[test]
    fn special_codes() {
        assert_eq!(P8E1::ZERO.to_f64(), 0.0);
        assert!(P8E1::NAR.to_f64().is_nan());
        assert_eq!(P8E1::ONE.to_f64(), 1.0);
        assert_eq!(P8E1::from_bits(0x7f).to_f64(), 4096.0);
        assert_eq!(P8E1::from_bits(0x01).to_f64(), libm::ldexp(1.0, -12));
        // -1 is the two's complement of the code of 1.
        assert_eq!(
            P8E1::from_f64(-1.0).bits(),
            P8E1::ONE.bits().wrapping_neg() & 0xff
        );
    }

    #[test]
    fn roundtrip_exhaustive_all_formats() {
        fn check<const N: u32, const ES: u32>() {
            for p in Posit::<N, ES>::all_finite() {
                let v = p.to_f64();
                let q = Posit::<N, ES>::from_f64(v);
                assert_eq!(q.bits(), p.bits(), "N={N} ES={ES} v={v} p={:b}", p);
            }
        }
        check::<8, 0>();
        check::<8, 1>();
        check::<8, 2>();
        check::<16, 1>();
        check::<6, 1>();
    }

    #[test]
    fn monotone_codes() {
        // Positive codes in increasing order decode to increasing values.
        let mut prev = 0.0;
        for b in 1u16..=P8E1::MAXPOS_CODE {
            let v = P8E1::from_bits(b).to_f64();
            assert!(v > prev, "code {b:#x}: {v} !> {prev}");
            prev = v;
        }
    }

    #[test]
    fn total_order_matches_value_order() {
        let vals: Vec<P8E1> = P8E1::all_finite().collect();
        for &a in &vals {
            for &b in &vals {
                let by_code = a.total_cmp(b);
                let by_val = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
                assert_eq!(by_code, by_val, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn rounding_nearest() {
        // Between 1.0 and the next posit (1.0625 for P8E1: 1 + 2^-4) values
        // round to the nearest; the midpoint ties to the even code (1.0).
        let next = P8E1::from_bits(P8E1::ONE.bits() + 1).to_f64();
        assert_eq!(next, 1.0625);
        assert_eq!(P8E1::quantize(1.02), 1.0);
        assert_eq!(P8E1::quantize(1.05), 1.0625);
        assert_eq!(P8E1::quantize(1.03125), 1.0); // tie → even code 0x40
    }

    #[test]
    fn saturation() {
        assert_eq!(P8E1::quantize(1e300), 4096.0);
        assert_eq!(P8E1::quantize(-1e300), -4096.0);
        assert_eq!(P8E1::quantize(f64::INFINITY), 4096.0);
        assert!(P8E1::from_f64(f64::NAN).is_nar());
    }

    #[test]
    fn underflow_policies_section_3_4() {
        let minpos = P8E1::minpos(); // 2^-12
        let half = minpos / 2.0; // 2^-13
                                 // Standard posit: never round a non-zero to zero.
        assert_eq!(
            P8E1::quantize_with(half / 4.0, UnderflowPolicy::Standard),
            minpos
        );
        // Paper: values below 2^-13 flush to zero, at/above round to minpos.
        assert_eq!(P8E1::quantize(half * 0.99), 0.0);
        assert_eq!(P8E1::quantize(half), 0.0); // tie → zero (even)
        assert_eq!(P8E1::quantize(half * 1.01), minpos);
        assert_eq!(P8E1::quantize(-half * 0.99), 0.0);
        assert_eq!(P8E1::quantize(-half * 1.5), -minpos);
    }

    #[test]
    fn tapered_fraction_bits() {
        // Near 1: max fraction bits (N - 1 - 2 - ES = 4 for P8E1).
        assert_eq!(P8E1::from_f64(1.3).fraction_bits(), 4);
        // At the extremes: zero fraction bits.
        assert_eq!(P8E1::from_f64(4096.0).fraction_bits(), 0);
        assert_eq!(P8E1::from_f64(P8E1::minpos()).fraction_bits(), 0);
    }

    #[test]
    fn negation_involution() {
        for p in P8E1::all_finite() {
            assert_eq!(p.negated().negated().bits(), p.bits());
            if !p.is_zero() {
                assert_eq!(p.negated().to_f64(), -p.to_f64());
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = P8E1::from_f64(1.5);
        let b = P8E1::from_f64(2.0);
        assert_eq!((a * b).to_f64(), 3.0);
        assert_eq!((a + b).to_f64(), 3.5);
        assert_eq!((b - a).to_f64(), 0.5);
        assert_eq!((a / b).to_f64(), 0.75);
        assert!((P8E1::NAR + a).is_nar());
        assert!((a / P8E1::ZERO).is_nar());
    }

    #[test]
    fn quantize_is_idempotent() {
        for p in P8E1::all_finite() {
            let v = p.to_f64();
            assert_eq!(P8E1::quantize(P8E1::quantize(v)), P8E1::quantize(v));
        }
    }

    #[test]
    fn p8e2_wider_range_fewer_bits_near_one() {
        // Posit(8,2) trades fraction bits near 1 for range (§4.3).
        assert_eq!(P8E2::from_f64(1.3).fraction_bits(), 3);
        assert_eq!(P8E1::from_f64(1.3).fraction_bits(), 4);
        assert!(P8E2::maxpos() > P8E1::maxpos());
    }
}
