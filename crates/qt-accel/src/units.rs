//! Structural models of the paper's hardware units (§4.2, §7.1, §7.2):
//! MACs, posit codecs, exponential/reciprocal units, and vector units.

use crate::cost::{synthesize, AreaPower, Gates, SynthesisPoint, Tech40};

/// A multiply-accumulate unit: `(e, m)` operands accumulated into an
/// `(E, M)` accumulator (§7.1).
///
/// Decoded Posit8 is an E5M4 operand (≤ 4 fraction bits, 5-bit effective
/// exponent); hybrid FP8 is E5M3; BF16 accumulates in FP32, 8-bit formats
/// in BF16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacUnit {
    /// Operand exponent bits.
    pub op_exp: u32,
    /// Operand mantissa (fraction) bits.
    pub op_man: u32,
    /// Accumulator exponent bits.
    pub acc_exp: u32,
    /// Accumulator mantissa bits.
    pub acc_man: u32,
}

impl MacUnit {
    /// BF16 MAC with FP32 accumulation.
    pub fn bf16() -> Self {
        Self {
            op_exp: 8,
            op_man: 7,
            acc_exp: 8,
            acc_man: 23,
        }
    }

    /// Posit8 MAC: decoded E5M4 operands, BF16 accumulation.
    pub fn posit8() -> Self {
        Self {
            op_exp: 5,
            op_man: 4,
            acc_exp: 8,
            acc_man: 7,
        }
    }

    /// Hybrid FP8 (E5M3 superset of E4M3/E5M2), BF16 accumulation.
    pub fn hybrid_fp8() -> Self {
        Self {
            op_exp: 5,
            op_man: 3,
            acc_exp: 8,
            acc_man: 7,
        }
    }

    /// E4M3-only MAC.
    pub fn e4m3() -> Self {
        Self {
            op_exp: 4,
            op_man: 3,
            acc_exp: 8,
            acc_man: 7,
        }
    }

    /// E5M2-only MAC.
    pub fn e5m2() -> Self {
        Self {
            op_exp: 5,
            op_man: 2,
            acc_exp: 8,
            acc_man: 7,
        }
    }

    /// NAND2-equivalent gate count.
    ///
    /// Models a 3-stage pipelined FMA: significand multiplier, product
    /// alignment into the accumulator width (the datapath carries the full
    /// double-width product), accumulate, normalise, plus pipeline
    /// registers. `IMPL_FACTOR` covers the logic a structural sketch
    /// omits (rounding, exceptions, retiming buffers) and is calibrated so
    /// one operand fraction bit moves the total by the margin the paper's
    /// Figure 12 shows between the Posit8 (E5M4) and hybrid FP8 (E5M3)
    /// MACs.
    pub fn gates(&self) -> f64 {
        const IMPL_FACTOR: f64 = 6.0;
        let prod = 2 * (self.op_man + 1);
        let w = self.acc_man + prod + 4;
        let core = Gates::multiplier(self.op_man + 1, self.op_man + 1)
            + Gates::adder(self.op_exp + 2)
            + Gates::shifter(w)
            + Gates::adder(w)
            + Gates::lzc(w)
            + Gates::mux(w)
            + Gates::register(1 + self.acc_exp + self.acc_man)
            + 3.0 * Gates::register(prod);
        IMPL_FACTOR * core
    }

    /// Synthesize at an operating point.
    pub fn synth(&self, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
        synthesize(self.gates(), tech, point)
    }
}

/// Posit decode/encode hardware (§3.1, §7.2). Decoders sit at the array
/// and vector-unit inputs, encoders at the outputs (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositCodec {
    /// Posit width.
    pub n: u32,
    /// Exponent-bit count.
    pub es: u32,
}

impl PositCodec {
    /// Posit(8,1) codec.
    pub fn p8() -> Self {
        Self { n: 8, es: 1 }
    }

    /// Decoder gates: two's-complement, leading-run count, field shift.
    pub fn decoder_gates(&self) -> f64 {
        Gates::adder(self.n)           // sign negate
            + Gates::lzc(self.n)       // regime run length
            + Gates::shifter(self.n)   // field extraction
            + Gates::adder(self.es + 4) // scale assembly
    }

    /// Encoder gates: regime construction, field packing, round-to-even.
    pub fn encoder_gates(&self) -> f64 {
        Gates::shifter(self.n + 4) + Gates::adder(self.n) + 2.0 * Gates::mux(self.n)
    }

    /// Synthesize the decoder.
    pub fn decoder(&self, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
        synthesize(self.decoder_gates(), tech, point)
    }

    /// Synthesize the encoder.
    pub fn encoder(&self, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
        synthesize(self.encoder_gates(), tech, point)
    }
}

/// Exponential-unit implementations (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpUnitKind {
    /// Exact float exponential: range reduction + LUT + cubic polynomial.
    ExactFloat {
        /// Exponent bits.
        e: u32,
        /// Mantissa bits.
        m: u32,
    },
    /// Posit approximation (§4.1): es-conversion, sigmoid bit trick,
    /// reciprocal bit trick, threshold mask and shift subtraction.
    PositApprox {
        /// Posit width.
        n: u32,
        /// Exponent bits of the working format.
        es: u32,
    },
}

/// An exponential function unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpUnit {
    /// Implementation.
    pub kind: ExpUnitKind,
}

impl ExpUnit {
    /// Exact BF16 unit.
    pub fn bf16_exact() -> Self {
        Self {
            kind: ExpUnitKind::ExactFloat { e: 8, m: 7 },
        }
    }

    /// Exact FP16 unit.
    pub fn fp16_exact() -> Self {
        Self {
            kind: ExpUnitKind::ExactFloat { e: 5, m: 10 },
        }
    }

    /// Posit(8,1) approximate unit.
    pub fn posit8_approx() -> Self {
        Self {
            kind: ExpUnitKind::PositApprox { n: 8, es: 1 },
        }
    }

    /// Posit(16,1) approximate unit (the §4.2 comparison point).
    pub fn posit16_approx() -> Self {
        Self {
            kind: ExpUnitKind::PositApprox { n: 16, es: 1 },
        }
    }

    /// Gate count.
    pub fn gates(&self) -> f64 {
        match self.kind {
            ExpUnitKind::ExactFloat { e, m } => {
                // x·log2e split into integer + fraction, 256-entry LUT
                // seed, degree-4 polynomial refinement, normalisation.
                let range_red = Gates::multiplier(m + 1, m + 1) + Gates::adder(m + 2);
                let lut = Gates::lut(256, m + 2);
                let poly = 4.0 * Gates::multiplier(m + 1, m + 1) + 4.0 * Gates::adder(m + 2);
                let norm = Gates::shifter(m + 2) + Gates::adder(e + 1);
                range_red + lut + poly + norm
            }
            ExpUnitKind::PositApprox { n, es } => {
                let codec = PositCodec { n, es };
                // es→0 conversion (shift+adjust), sigmoid trick (XOR+shift),
                // reciprocal trick (inverters), posit subtraction of ε.
                codec.decoder_gates()
                    + codec.encoder_gates()
                    + Gates::shifter(n)
                    + Gates::inverters(n)
                    + Gates::adder(n + 2)   // ε subtraction datapath
                    + Gates::comparator(n)  // threshold mask
                    + Gates::mux(n)
            }
        }
    }

    /// Synthesize at an operating point.
    pub fn synth(&self, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
        synthesize(self.gates(), tech, point)
    }
}

/// Reciprocal-unit implementations (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipUnitKind {
    /// Float divider (Newton–Raphson: LUT seed + two refinement
    /// multiplies).
    FloatDivider {
        /// Exponent bits.
        e: u32,
        /// Mantissa bits.
        m: u32,
    },
    /// Posit bitwise reciprocal: NOT gates on the non-sign bits (§3.3).
    PositApprox {
        /// Posit width.
        n: u32,
    },
}

/// A reciprocal function unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipUnit {
    /// Implementation.
    pub kind: RecipUnitKind,
}

impl RecipUnit {
    /// Exact BF16 divider.
    pub fn bf16_divider() -> Self {
        Self {
            kind: RecipUnitKind::FloatDivider { e: 8, m: 7 },
        }
    }

    /// Exact FP16 divider.
    pub fn fp16_divider() -> Self {
        Self {
            kind: RecipUnitKind::FloatDivider { e: 5, m: 10 },
        }
    }

    /// Posit(8,·) bitwise reciprocal.
    pub fn posit8_approx() -> Self {
        Self {
            kind: RecipUnitKind::PositApprox { n: 8 },
        }
    }

    /// Posit(16,·) bitwise reciprocal.
    pub fn posit16_approx() -> Self {
        Self {
            kind: RecipUnitKind::PositApprox { n: 16 },
        }
    }

    /// Gate count.
    pub fn gates(&self) -> f64 {
        match self.kind {
            RecipUnitKind::FloatDivider { e, m } => {
                let seed = Gates::lut(128, m + 2);
                let newton = 2.0 * (Gates::multiplier(m + 2, m + 2) + Gates::adder(m + 2));
                let norm = Gates::shifter(m + 2) + Gates::adder(e + 1);
                let ctl = Gates::register(2 * (m + 2));
                seed + newton + norm + ctl
            }
            RecipUnitKind::PositApprox { n } => {
                // NOT all bits but the sign, plus the increment already in
                // the negation path.
                Gates::inverters(n) + Gates::adder(n)
            }
        }
    }

    /// Synthesize at an operating point.
    pub fn synth(&self, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
        synthesize(self.gates(), tech, point)
    }
}

/// Element-wise datapath flavours of a vector lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorKind {
    /// Exact float lane at `(e, m)` (BF16 for FP8 accelerators, FP32 for
    /// the BF16 accelerator).
    ExactFloat {
        /// Exponent bits.
        e: u32,
        /// Mantissa bits.
        m: u32,
    },
    /// Posit lane: BF16 add/mul (the accumulation type) with approximate
    /// posit exp/recip and the codecs they need.
    PositApprox,
}

/// An `N`-lane vector unit executing softmax, layer norm, GELU and other
/// element-wise operations (Figure 11, Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorUnit {
    /// Lane count.
    pub lanes: u32,
    /// Lane flavour.
    pub kind: VectorKind,
}

impl VectorUnit {
    /// Vector unit of the FP8 accelerators: exact BF16 lanes.
    pub fn fp8_style(lanes: u32) -> Self {
        Self {
            lanes,
            kind: VectorKind::ExactFloat { e: 8, m: 7 },
        }
    }

    /// Vector unit of the BF16 accelerator: exact FP32 lanes.
    pub fn bf16_style(lanes: u32) -> Self {
        Self {
            lanes,
            kind: VectorKind::ExactFloat { e: 8, m: 23 },
        }
    }

    /// Vector unit of the Posit8 accelerator: posit approximations.
    pub fn posit8_style(lanes: u32) -> Self {
        Self {
            lanes,
            kind: VectorKind::PositApprox,
        }
    }

    /// Fixed per-lane infrastructure: a 32-entry 32-bit operand register
    /// file, bypass muxes and lane control. Shared by all flavours.
    fn lane_overhead_gates() -> f64 {
        Gates::register(32 * 32) + 4.0 * Gates::mux(32) + 600.0
    }

    /// Gate count of one lane.
    pub fn lane_gates(&self) -> f64 {
        let oh = Self::lane_overhead_gates();
        match self.kind {
            VectorKind::ExactFloat { e, m } => {
                let alu = Gates::multiplier(m + 1, m + 1)
                    + Gates::adder(m + 4)
                    + Gates::shifter(m + 4)
                    + Gates::lzc(m + 4);
                let exp = ExpUnit {
                    kind: ExpUnitKind::ExactFloat { e, m },
                }
                .gates();
                let recip = RecipUnit {
                    kind: RecipUnitKind::FloatDivider { e, m },
                }
                .gates();
                oh + alu + exp + recip + Gates::comparator(1 + e + m)
            }
            VectorKind::PositApprox => {
                // BF16 add/mul for reductions and scaling…
                let alu = Gates::multiplier(8, 8)
                    + Gates::adder(11)
                    + Gates::shifter(11)
                    + Gates::lzc(11);
                // …plus the posit approximate function units and codecs.
                let exp = ExpUnit::posit8_approx().gates();
                let recip = RecipUnit::posit8_approx().gates();
                let codec = PositCodec::p8();
                oh + alu
                    + exp
                    + recip
                    + codec.decoder_gates()
                    + codec.encoder_gates()
                    + Gates::comparator(8)
            }
        }
    }

    /// Total gate count.
    pub fn gates(&self) -> f64 {
        self.lanes as f64 * self.lane_gates()
    }

    /// Synthesize at an operating point.
    pub fn synth(&self, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
        synthesize(self.gates(), tech, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (Tech40, SynthesisPoint) {
        (Tech40::default(), SynthesisPoint::nominal())
    }

    #[test]
    fn mac_ordering_matches_section_7_1() {
        // Posit8 MAC slightly larger than hybrid FP8 (one more fraction
        // bit); both far smaller than BF16.
        let p8 = MacUnit::posit8().gates();
        let hy = MacUnit::hybrid_fp8().gates();
        let bf = MacUnit::bf16().gates();
        assert!(p8 > hy, "{p8} vs {hy}");
        assert!(p8 < 1.25 * hy, "posit8 only slightly larger: {p8} vs {hy}");
        assert!(bf > 1.8 * p8, "bf16 much larger: {bf} vs {p8}");
        // E5M2 < E4M3 <= hybrid
        assert!(MacUnit::e5m2().gates() < MacUnit::e4m3().gates());
        assert!(MacUnit::e4m3().gates() <= hy);
    }

    #[test]
    fn exp_unit_savings_match_section_4_2() {
        // Paper: 16-bit posit approximate exponential 62% smaller and 44%
        // lower power than BF16 at 200 MHz. Accept a generous band.
        let (tech, pt) = nominal();
        let posit = ExpUnit::posit16_approx().synth(&tech, pt);
        let bf16 = ExpUnit::bf16_exact().synth(&tech, pt);
        let area_red = 1.0 - posit.area_mm2 / bf16.area_mm2;
        assert!(
            (0.45..=0.8).contains(&area_red),
            "exp area reduction {area_red}"
        );
        let power_red = 1.0 - posit.power_mw / bf16.power_mw;
        assert!(power_red > 0.3, "exp power reduction {power_red}");
    }

    #[test]
    fn recip_unit_savings_match_section_4_2() {
        // Paper: 85% smaller, 75% less power (posit16 approx vs BF16).
        let (tech, pt) = nominal();
        let posit = RecipUnit::posit16_approx().synth(&tech, pt);
        let bf16 = RecipUnit::bf16_divider().synth(&tech, pt);
        let area_red = 1.0 - posit.area_mm2 / bf16.area_mm2;
        assert!(area_red > 0.7, "recip area reduction {area_red}");
        let power_red = 1.0 - posit.power_mw / bf16.power_mw;
        assert!(power_red > 0.7, "recip power reduction {power_red}");
    }

    #[test]
    fn vector_unit_savings_match_table_8() {
        // Paper: Posit8 vector unit on average 33% smaller, 35% lower
        // power than the hybrid-FP8 one.
        let (tech, pt) = nominal();
        for lanes in [8, 16, 32] {
            let posit = VectorUnit::posit8_style(lanes).synth(&tech, pt);
            let fp8 = VectorUnit::fp8_style(lanes).synth(&tech, pt);
            let red = 1.0 - posit.area_mm2 / fp8.area_mm2;
            assert!((0.2..=0.5).contains(&red), "{lanes}-lane area red {red}");
        }
    }

    #[test]
    fn codec_is_small_relative_to_mac() {
        let c = PositCodec::p8();
        assert!(c.decoder_gates() + c.encoder_gates() < MacUnit::posit8().gates());
    }

    #[test]
    fn frequency_sweep_monotone() {
        // Figures 8/9: area and power grow with target frequency.
        let tech = Tech40::default();
        let mut prev = AreaPower::default();
        for f in [100.0, 200.0, 300.0, 400.0, 500.0] {
            let pt = SynthesisPoint {
                freq_mhz: f,
                fmax_mhz: 800.0,
            };
            let ap = ExpUnit::posit8_approx().synth(&tech, pt);
            assert!(ap.area_mm2 >= prev.area_mm2);
            assert!(ap.power_mw > prev.power_mw);
            prev = ap;
        }
    }
}
