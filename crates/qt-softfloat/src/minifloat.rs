//! Generic small binary floating-point formats (`E<e>M<m>`).
//!
//! A [`Minifloat`] is parameterised by a [`FloatSpec`] describing the number
//! of exponent and mantissa bits and whether the format reserves the
//! all-ones exponent for infinities and NaNs (IEEE-style, like E5M2) or
//! extends the top binade with finite values and keeps a single NaN encoding
//! (the OCP "FN" convention used by E4M3).

use core::fmt;
use core::marker::PhantomData;

/// Static description of a minifloat format.
///
/// Implementations are zero-sized marker types; see [`E4M3`], [`E5M2`] and
/// [`E5M3`] for the formats used in the paper.
pub trait FloatSpec: Copy + Clone + fmt::Debug + PartialEq + Eq + 'static {
    /// Number of exponent bits.
    const EXP_BITS: u32;
    /// Number of mantissa (fraction) bits.
    const MAN_BITS: u32;
    /// If `true`, the all-ones exponent encodes finite values except for the
    /// single all-ones mantissa pattern, which is NaN ("FN" convention).
    /// If `false`, the all-ones exponent encodes infinity/NaN (IEEE).
    const FINITE_ONLY: bool;
    /// Short human-readable name, e.g. `"E4M3"`.
    const NAME: &'static str;

    /// Total storage bits (1 sign + exponent + mantissa).
    #[inline]
    fn total_bits() -> u32 {
        1 + Self::EXP_BITS + Self::MAN_BITS
    }

    /// Exponent bias.
    #[inline]
    fn bias() -> i32 {
        (1i32 << (Self::EXP_BITS - 1)) - 1
    }

    /// Largest finite representable magnitude.
    fn max_value() -> f64 {
        let bias = Self::bias();
        if Self::FINITE_ONLY {
            // Top binade is usable except the all-ones mantissa (NaN).
            let emax = ((1i32 << Self::EXP_BITS) - 1) - bias;
            let man = 2.0 - 2.0 * exp2i(-(Self::MAN_BITS as i32));
            man * exp2i(emax)
        } else {
            let emax = ((1i32 << Self::EXP_BITS) - 2) - bias;
            let man = 2.0 - exp2i(-(Self::MAN_BITS as i32));
            man * exp2i(emax)
        }
    }

    /// Smallest positive normal magnitude.
    fn min_positive_normal() -> f64 {
        exp2i(1 - Self::bias())
    }

    /// Smallest positive (subnormal) magnitude.
    fn min_positive() -> f64 {
        exp2i(1 - Self::bias() - Self::MAN_BITS as i32)
    }
}

#[inline]
fn exp2i(e: i32) -> f64 {
    // Exact for the exponent ranges used by small formats.
    libm::ldexp(1.0, e)
}

/// NVIDIA/OCP `E4M3` (4 exponent bits, 3 mantissa bits, finite-only with a
/// single NaN; maximum magnitude 448). Used for forward-pass tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecE4M3;
impl FloatSpec for SpecE4M3 {
    const EXP_BITS: u32 = 4;
    const MAN_BITS: u32 = 3;
    const FINITE_ONLY: bool = true;
    const NAME: &'static str = "E4M3";
}

/// NVIDIA/OCP `E5M2` (5 exponent bits, 2 mantissa bits, IEEE-style inf/NaN;
/// maximum finite magnitude 57344). Used for backward-pass gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecE5M2;
impl FloatSpec for SpecE5M2 {
    const EXP_BITS: u32 = 5;
    const MAN_BITS: u32 = 2;
    const FINITE_ONLY: bool = false;
    const NAME: &'static str = "E5M2";
}

/// The hybrid `E5M3` format (5 exponent bits, 3 mantissa bits) used by the
/// paper's "hybrid FP8" MAC datapath, a superset of both E4M3 and E5M2
/// operand grids (section 7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecE5M3;
impl FloatSpec for SpecE5M3 {
    const EXP_BITS: u32 = 5;
    const MAN_BITS: u32 = 3;
    const FINITE_ONLY: bool = false;
    const NAME: &'static str = "E5M3";
}

/// A value of a small floating-point format described by spec `S`.
///
/// Stored as its bit pattern (right-aligned in a `u16`). All conversions are
/// bit-exact; arithmetic is performed by converting to `f64`, operating, and
/// rounding the result back (round-to-nearest-even), which matches a
/// correctly-rounded hardware implementation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Minifloat<S: FloatSpec> {
    bits: u16,
    _spec: PhantomData<S>,
}

/// 8-bit E4M3 value (OCP FP8, forward-pass format).
pub type E4M3 = Minifloat<SpecE4M3>;
/// 8-bit E5M2 value (OCP FP8, backward-pass format).
pub type E5M2 = Minifloat<SpecE5M2>;
/// 9-bit hybrid E5M3 value (MAC-internal format).
pub type E5M3 = Minifloat<SpecE5M3>;

impl<S: FloatSpec> Minifloat<S> {
    /// Positive zero.
    pub const ZERO: Self = Self {
        bits: 0,
        _spec: PhantomData,
    };

    /// Construct from raw bits (low `1 + E + M` bits are significant).
    ///
    /// Bits above the format width are masked off.
    #[inline]
    pub fn from_bits(bits: u16) -> Self {
        let mask = ((1u32 << S::total_bits()) - 1) as u16;
        Self {
            bits: bits & mask,
            _spec: PhantomData,
        }
    }

    /// Raw bit pattern, right-aligned.
    #[inline]
    pub fn bits(self) -> u16 {
        self.bits
    }

    /// The largest finite value of the format.
    pub fn max() -> Self {
        Self::from_f64_mode(S::max_value(), true)
    }

    /// The smallest positive subnormal value of the format.
    pub fn min_positive() -> Self {
        Self::from_f64_mode(S::min_positive(), true)
    }

    /// Round an `f32` to the nearest representable value, saturating on
    /// overflow (the behaviour used for DNN tensor quantization).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f64_mode(x as f64, true)
    }

    /// Round an `f64` to the nearest representable value, saturating on
    /// overflow.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self::from_f64_mode(x, true)
    }

    /// Round an `f64` to the nearest representable value with IEEE overflow
    /// semantics: values beyond the largest finite value become infinity
    /// (IEEE formats) or NaN (finite-only formats).
    #[inline]
    pub fn from_f64_ieee(x: f64) -> Self {
        Self::from_f64_mode(x, false)
    }

    fn nan_bits() -> u16 {
        if S::FINITE_ONLY {
            // all-ones exponent + all-ones mantissa, sign 0
            (((1u32 << S::EXP_BITS) - 1) << S::MAN_BITS | ((1 << S::MAN_BITS) - 1)) as u16
        } else {
            // all-ones exponent + quiet bit
            ((((1u32 << S::EXP_BITS) - 1) << S::MAN_BITS) | (1 << (S::MAN_BITS - 1))) as u16
        }
    }

    fn inf_bits() -> Option<u16> {
        if S::FINITE_ONLY {
            None
        } else {
            Some((((1u32 << S::EXP_BITS) - 1) as u16) << S::MAN_BITS)
        }
    }

    fn from_f64_mode(x: f64, saturate: bool) -> Self {
        let sign = if x.is_sign_negative() { 1u16 } else { 0 };
        let sign_bit = sign << (S::EXP_BITS + S::MAN_BITS);
        if x.is_nan() {
            return Self::from_bits(Self::nan_bits());
        }
        let a = x.abs();
        if a == 0.0 {
            return Self::from_bits(sign_bit);
        }
        let max = S::max_value();
        if a.is_infinite() {
            return if saturate {
                let m = Self::max();
                Self::from_bits(sign_bit | m.bits())
            } else {
                match Self::inf_bits() {
                    Some(b) => Self::from_bits(sign_bit | b),
                    None => Self::from_bits(Self::nan_bits()),
                }
            };
        }
        let bias = S::bias();
        // Unbiased exponent of a (a is a normal f64 whenever it matters:
        // f64 subnormals are far below the smallest subnormal of any
        // format here and round to zero through the same path).
        let e = ilogb(a);
        let min_lsb = 1 - bias - S::MAN_BITS as i32;
        let lsb = (e - S::MAN_BITS as i32).max(min_lsb);
        let scaled = libm::ldexp(a, -lsb);
        // `scaled` fits comfortably in f64's 53-bit mantissa for all formats
        // here, so rounding it to an integer is the exact RNE quantization.
        let r = round_ties_even(scaled);
        if r == 0.0 {
            return Self::from_bits(sign_bit); // underflow to zero
        }
        let v = libm::ldexp(r, lsb);
        if v > max {
            return if saturate {
                let m = Self::max();
                Self::from_bits(sign_bit | m.bits())
            } else {
                match Self::inf_bits() {
                    Some(b) => Self::from_bits(sign_bit | b),
                    None => Self::from_bits(Self::nan_bits()),
                }
            };
        }
        // Encode v exactly: recompute exponent (mantissa rounding may have
        // carried into the next binade).
        let ev = ilogb(v);
        let (exp_field, man_field) = if ev < 1 - bias {
            // Subnormal: exponent field 0, mantissa = v / 2^(1-bias-M).
            let man = libm::ldexp(v, -(1 - bias - S::MAN_BITS as i32));
            (0u16, man as u16)
        } else {
            let man = libm::ldexp(v, -(ev - S::MAN_BITS as i32)) as u64;
            let man_field = (man - (1 << S::MAN_BITS)) as u16;
            (((ev + bias) as u16), man_field)
        };
        let bits = sign_bit | (exp_field << S::MAN_BITS) | man_field;
        debug_assert!(
            (exp_field as u32) < (1 << S::EXP_BITS)
                || (S::FINITE_ONLY && (exp_field as u32) == (1 << S::EXP_BITS) - 1)
        );
        Self::from_bits(bits)
    }

    /// Convert to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        let bits = self.bits();
        let man_mask = (1u16 << S::MAN_BITS) - 1;
        let man = (bits & man_mask) as u64;
        let exp = ((bits >> S::MAN_BITS) & ((1 << S::EXP_BITS) - 1) as u16) as i32;
        let sign = (bits >> (S::EXP_BITS + S::MAN_BITS)) & 1;
        let bias = S::bias();
        let a = if exp == 0 {
            // subnormal
            libm::ldexp(man as f64, 1 - bias - S::MAN_BITS as i32)
        } else if exp == (1 << S::EXP_BITS) - 1 && !S::FINITE_ONLY {
            if man == 0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        } else if S::FINITE_ONLY
            && bits & !((1u16) << (S::EXP_BITS + S::MAN_BITS)) == Self::nan_bits()
        {
            f64::NAN
        } else {
            libm::ldexp(
                (man + (1 << S::MAN_BITS)) as f64,
                exp - bias - S::MAN_BITS as i32,
            )
        };
        if sign == 1 {
            -a
        } else {
            a
        }
    }

    /// Convert to `f32` (exact; every minifloat value is exactly
    /// representable in `f32`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// `true` if the value is NaN.
    pub fn is_nan(self) -> bool {
        self.to_f64().is_nan()
    }

    /// Iterate over all finite non-negative values of the format, in
    /// increasing order. Useful for exhaustive property tests and the
    /// decimal-accuracy analysis of Figure 4.
    pub fn positive_finite_values() -> impl Iterator<Item = f64> {
        let count = 1u32 << (S::EXP_BITS + S::MAN_BITS);
        (0..count as u16)
            .map(|b| Self::from_bits(b).to_f64())
            .filter(|v| v.is_finite())
    }

    /// Quantize `x` to the nearest representable value (saturating) and
    /// return it as `f64`. The scalar fake-quantization primitive.
    #[inline]
    pub fn quantize(x: f64) -> f64 {
        Self::from_f64(x).to_f64()
    }
}

impl<S: FloatSpec> fmt::Debug for Minifloat<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", S::NAME, self.to_f64())
    }
}

impl<S: FloatSpec> fmt::Display for Minifloat<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl<S: FloatSpec> Default for Minifloat<S> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<S: FloatSpec> PartialOrd for Minifloat<S> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        self.to_f64().partial_cmp(&other.to_f64())
    }
}

impl<S: FloatSpec> core::ops::Add for Minifloat<S> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() + rhs.to_f64())
    }
}

impl<S: FloatSpec> core::ops::Sub for Minifloat<S> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() - rhs.to_f64())
    }
}

impl<S: FloatSpec> core::ops::Mul for Minifloat<S> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() * rhs.to_f64())
    }
}

impl<S: FloatSpec> core::ops::Div for Minifloat<S> {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() / rhs.to_f64())
    }
}

impl<S: FloatSpec> core::ops::Neg for Minifloat<S> {
    type Output = Self;
    fn neg(self) -> Self {
        let sign_bit = 1u16 << (S::EXP_BITS + S::MAN_BITS);
        Self::from_bits(self.bits() ^ sign_bit)
    }
}

#[inline]
fn ilogb(a: f64) -> i32 {
    debug_assert!(a > 0.0 && a.is_finite());
    let bits = a.to_bits();
    let be = ((bits >> 52) & 0x7ff) as i32;
    if be == 0 {
        // f64 subnormal: normalize via multiplication.
        return ilogb(a * libm::ldexp(1.0, 128)) - 128;
    }
    be - 1023
}

#[inline]
fn round_ties_even(x: f64) -> f64 {
    // f64::round_ties_even is stable; use libm variant for determinism.
    libm::rint(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4m3_constants() {
        assert_eq!(SpecE4M3::max_value(), 448.0);
        assert_eq!(SpecE4M3::min_positive_normal(), libm::ldexp(1.0, -6));
        assert_eq!(SpecE4M3::min_positive(), libm::ldexp(1.0, -9));
    }

    #[test]
    fn e5m2_constants() {
        assert_eq!(SpecE5M2::max_value(), 57344.0);
        assert_eq!(SpecE5M2::min_positive_normal(), libm::ldexp(1.0, -14));
        assert_eq!(SpecE5M2::min_positive(), libm::ldexp(1.0, -16));
    }

    #[test]
    fn roundtrip_all_e4m3() {
        for b in 0u16..256 {
            let v = E4M3::from_bits(b).to_f64();
            if v.is_nan() {
                assert!(E4M3::from_f64(v).is_nan());
            } else {
                let r = E4M3::from_f64(v);
                assert_eq!(r.to_f64(), v, "bits {b:#04x}");
            }
        }
    }

    #[test]
    fn roundtrip_all_e5m2() {
        for b in 0u16..256 {
            let v = E5M2::from_bits(b).to_f64();
            if v.is_nan() {
                continue;
            }
            if v.is_infinite() {
                // saturating conversion clamps infinities
                assert_eq!(E5M2::from_f64(v).to_f64().abs(), 57344.0);
                continue;
            }
            assert_eq!(E5M2::from_f64(v).to_f64(), v, "bits {b:#04x}");
        }
    }

    #[test]
    fn rne_midpoints() {
        // Between 1.0 (mantissa 000) and 1.125 (mantissa 001) in E4M3 the
        // midpoint 1.0625 rounds to even (1.0).
        assert_eq!(E4M3::quantize(1.0625), 1.0);
        // Between 1.125 and 1.25 the midpoint 1.1875 rounds to even (1.25).
        assert_eq!(E4M3::quantize(1.1875), 1.25);
    }

    #[test]
    fn saturation_and_ieee_overflow() {
        assert_eq!(E4M3::from_f64(1e6).to_f64(), 448.0);
        assert_eq!(E4M3::from_f64(-1e6).to_f64(), -448.0);
        assert!(E4M3::from_f64_ieee(1e6).is_nan());
        assert_eq!(E5M2::from_f64(1e9).to_f64(), 57344.0);
        assert!(E5M2::from_f64_ieee(1e9).to_f64().is_infinite());
    }

    #[test]
    fn e4m3_near_max_rounding() {
        // 448..464 rounds down to 448; above the midpoint saturates to max
        // under saturating conversion.
        assert_eq!(E4M3::quantize(450.0), 448.0);
        assert_eq!(E4M3::quantize(470.0), 448.0);
    }

    #[test]
    fn subnormal_rounding() {
        let minsub = SpecE4M3::min_positive();
        assert_eq!(E4M3::quantize(minsub), minsub);
        assert_eq!(E4M3::quantize(minsub * 0.49), 0.0);
        assert_eq!(E4M3::quantize(minsub * 0.51), minsub);
        // exact midpoint ties to even (zero)
        assert_eq!(E4M3::quantize(minsub * 0.5), 0.0);
        // 1.5 * minsub is a midpoint between minsub and 2*minsub; ties to
        // even picks 2*minsub (mantissa 10).
        assert_eq!(E4M3::quantize(minsub * 1.5), minsub * 2.0);
    }

    #[test]
    fn negative_zero_sign() {
        let z = E4M3::from_f64(-0.0);
        assert_eq!(z.to_f64(), 0.0);
        assert_eq!(z.bits() >> 7, 1);
    }

    #[test]
    fn e5m3_superset_of_both_fp8() {
        // Every finite E4M3 and E5M2 value must be exactly representable in
        // the hybrid E5M3 format (the premise of the paper's hybrid MAC).
        for b in 0u16..256 {
            let v = E4M3::from_bits(b).to_f64();
            if v.is_finite() {
                assert_eq!(E5M3::quantize(v), v, "E4M3 bits {b:#04x}");
            }
            let v = E5M2::from_bits(b).to_f64();
            if v.is_finite() {
                assert_eq!(E5M3::quantize(v), v, "E5M2 bits {b:#04x}");
            }
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = E4M3::from_f32(2.0);
        let b = E4M3::from_f32(3.0);
        assert_eq!((a + b).to_f32(), 5.0);
        assert_eq!((a * b).to_f32(), 6.0);
        assert_eq!((b - a).to_f32(), 1.0);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -2.0);
    }

    #[test]
    fn monotone_quantization() {
        // quantize is monotone non-decreasing.
        let mut prev = f64::NEG_INFINITY;
        let mut x = -500.0;
        while x < 500.0 {
            let q = E4M3::quantize(x);
            assert!(q >= prev, "x={x} q={q} prev={prev}");
            prev = q;
            x += 0.37;
        }
    }
}
