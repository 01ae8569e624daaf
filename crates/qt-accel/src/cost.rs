//! Gate-level cost primitives and 40 nm technology constants.
//!
//! Everything is counted in NAND2-equivalent gates and converted to area
//! (mm²) and post-synthesis dynamic power (mW) at a given clock and 0.9 V.
//! The per-primitive gate counts are standard textbook estimates (a full
//! adder ≈ 6.5 NAND2, an `n×m` array multiplier ≈ 6 n·m, a flip-flop ≈ 5).
//! Synthesis-pressure scaling models the area/power growth the paper's
//! Figures 8–9 show as the target frequency approaches the design's limit.

/// Area (mm²) and power (mW) of a synthesized block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaPower {
    /// Standard-cell (+ SRAM macro) area in mm².
    pub area_mm2: f64,
    /// Post-synthesis dynamic power in mW.
    pub power_mw: f64,
}

impl AreaPower {
    /// Component-wise sum.
    pub fn plus(self, other: AreaPower) -> AreaPower {
        AreaPower {
            area_mm2: self.area_mm2 + other.area_mm2,
            power_mw: self.power_mw + other.power_mw,
        }
    }

    /// Scale both metrics (e.g. lane count).
    pub fn times(self, k: f64) -> AreaPower {
        AreaPower {
            area_mm2: self.area_mm2 * k,
            power_mw: self.power_mw * k,
        }
    }
}

/// 40 nm, 0.9 V technology constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech40 {
    /// Area of one NAND2-equivalent gate, μm².
    pub um2_per_gate: f64,
    /// Dynamic power per gate at 200 MHz with typical activity, μW.
    pub uw_per_gate_200mhz: f64,
    /// SRAM macro density, μm² per bit.
    pub sram_um2_per_bit: f64,
    /// SRAM read/write energy proxy, μW per bit at 200 MHz (leakage +
    /// amortised access).
    pub sram_uw_per_bit_200mhz: f64,
}

impl Default for Tech40 {
    fn default() -> Self {
        Self {
            um2_per_gate: 1.1,
            uw_per_gate_200mhz: 0.011,
            sram_um2_per_bit: 0.45,
            sram_uw_per_bit_200mhz: 0.0011,
        }
    }
}

/// A synthesis operating point: clock frequency and the design's maximum
/// achievable frequency, which sets how hard the synthesizer must work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisPoint {
    /// Target clock, MHz.
    pub freq_mhz: f64,
    /// The design's maximum achievable frequency, MHz.
    pub fmax_mhz: f64,
}

impl SynthesisPoint {
    /// Nominal 200 MHz point with comfortable slack.
    pub fn nominal() -> Self {
        Self {
            freq_mhz: 200.0,
            fmax_mhz: 800.0,
        }
    }

    /// Area inflation from timing pressure: upsizing and logic duplication
    /// grow area superlinearly as `f → fmax` (empirically ~1 + (f/fmax)²
    /// up to ~2× at the wall).
    pub fn area_factor(&self) -> f64 {
        let r = (self.freq_mhz / self.fmax_mhz).min(0.98);
        1.0 + r * r
    }

    /// Dynamic power ∝ f · C(f): the capacitance itself grows with the
    /// area factor.
    pub fn power_factor(&self) -> f64 {
        (self.freq_mhz / 200.0) * self.area_factor()
    }
}

/// Gate-count estimates for primitive datapath blocks (NAND2 equivalents).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gates;

impl Gates {
    /// Ripple/parallel-prefix adder of `n` bits.
    pub fn adder(n: u32) -> f64 {
        7.0 * n as f64
    }

    /// `n × m` array multiplier.
    pub fn multiplier(n: u32, m: u32) -> f64 {
        6.0 * (n as f64) * (m as f64)
    }

    /// Barrel shifter, `n` bits.
    pub fn shifter(n: u32) -> f64 {
        2.5 * n as f64 * (n as f64).log2().max(1.0)
    }

    /// Leading-zero/one counter, `n` bits.
    pub fn lzc(n: u32) -> f64 {
        3.0 * n as f64
    }

    /// Magnitude comparator, `n` bits.
    pub fn comparator(n: u32) -> f64 {
        3.0 * n as f64
    }

    /// 2:1 mux, `n` bits.
    pub fn mux(n: u32) -> f64 {
        2.5 * n as f64
    }

    /// Register (DFF bank), `n` bits.
    pub fn register(n: u32) -> f64 {
        5.0 * n as f64
    }

    /// Inverters, `n` bits (the posit reciprocal!).
    pub fn inverters(n: u32) -> f64 {
        0.5 * n as f64
    }

    /// Lookup table of `entries × width` bits as synthesized logic.
    pub fn lut(entries: u32, width: u32) -> f64 {
        0.4 * entries as f64 * width as f64
    }
}

/// Convert a gate count into area/power at an operating point.
pub fn synthesize(gates: f64, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
    AreaPower {
        area_mm2: gates * tech.um2_per_gate * point.area_factor() / 1e6,
        power_mw: gates * tech.uw_per_gate_200mhz * point.power_factor() / 1e3,
    }
}

/// SRAM macro of `bits` capacity (macro area does not scale with timing
/// pressure; power scales with frequency).
pub fn sram(bits: u64, tech: &Tech40, point: SynthesisPoint) -> AreaPower {
    AreaPower {
        area_mm2: bits as f64 * tech.sram_um2_per_bit / 1e6,
        power_mw: bits as f64 * tech.sram_uw_per_bit_200mhz * (point.freq_mhz / 200.0) / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_scale_with_width() {
        assert!(Gates::multiplier(8, 8) > Gates::multiplier(4, 4));
        assert_eq!(Gates::multiplier(4, 8), Gates::multiplier(8, 4));
        assert!(Gates::adder(32) == 2.0 * Gates::adder(16));
        assert!(Gates::inverters(8) < Gates::adder(8));
    }

    #[test]
    fn synthesis_pressure_grows_area_and_power() {
        let tech = Tech40::default();
        let slow = synthesize(
            1000.0,
            &tech,
            SynthesisPoint {
                freq_mhz: 100.0,
                fmax_mhz: 800.0,
            },
        );
        let fast = synthesize(
            1000.0,
            &tech,
            SynthesisPoint {
                freq_mhz: 600.0,
                fmax_mhz: 800.0,
            },
        );
        assert!(fast.area_mm2 > slow.area_mm2);
        assert!(fast.power_mw > 5.0 * slow.power_mw); // ~6x freq + pressure
    }

    #[test]
    fn power_linear_in_frequency_with_slack() {
        let tech = Tech40::default();
        let p = |f: f64| {
            synthesize(
                1000.0,
                &tech,
                SynthesisPoint {
                    freq_mhz: f,
                    fmax_mhz: 10_000.0,
                },
            )
            .power_mw
        };
        let ratio = p(400.0) / p(200.0);
        assert!((ratio - 2.0).abs() < 0.1, "{ratio}");
    }

    #[test]
    fn sram_area_constant_over_frequency() {
        let tech = Tech40::default();
        let a = sram(
            1 << 20,
            &tech,
            SynthesisPoint {
                freq_mhz: 100.0,
                fmax_mhz: 800.0,
            },
        );
        let b = sram(
            1 << 20,
            &tech,
            SynthesisPoint {
                freq_mhz: 400.0,
                fmax_mhz: 800.0,
            },
        );
        assert_eq!(a.area_mm2, b.area_mm2);
        assert!(b.power_mw > a.power_mw);
        // 1 Mbit at 0.45 μm²/bit ≈ 0.47 mm²
        assert!((a.area_mm2 - 0.47).abs() < 0.02);
    }

    #[test]
    fn area_power_arithmetic() {
        let x = AreaPower {
            area_mm2: 1.0,
            power_mw: 2.0,
        };
        let y = AreaPower {
            area_mm2: 0.5,
            power_mw: 1.0,
        };
        let s = x.plus(y).times(2.0);
        assert_eq!(s.area_mm2, 3.0);
        assert_eq!(s.power_mw, 6.0);
    }
}
