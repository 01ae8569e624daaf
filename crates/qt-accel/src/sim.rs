//! Cycle-level simulation of the systolic array and vector unit:
//! GEMM tiling, element-wise operation latencies, SRAM/DRAM traffic and
//! energy estimates.

use crate::accelerator::{Accelerator, Datapath};
use crate::cost::{SynthesisPoint, Tech40};
use qt_trace::{CycleModel, GemmCost};

/// Statistics of one simulated GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmStats {
    /// Total cycles (including pipeline fill/drain and weight loads).
    pub cycles: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// SRAM bytes read.
    pub sram_read_bytes: u64,
    /// SRAM bytes written.
    pub sram_write_bytes: u64,
    /// Utilisation numerator: cycles in which the array computed.
    pub active_cycles: u64,
}

impl GemmStats {
    /// Array utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.active_cycles as f64 / self.cycles as f64
    }
}

/// Element-wise operations the vector unit executes, with per-element
/// latencies that differ between the exact and posit-approximate designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOp {
    /// Addition / residual accumulate.
    Add,
    /// Multiplication / scaling.
    Mul,
    /// Exponential.
    Exp,
    /// Reciprocal (for the softmax denominator).
    Recip,
    /// Max reduction step.
    Max,
}

impl VectorOp {
    /// Latency in cycles per element on the given datapath's vector unit.
    /// The exact float exponential is a multi-cycle pipeline and the
    /// divider is iterative; the posit bit tricks are single-cycle.
    pub fn latency(self, datapath: Datapath) -> u64 {
        let approx = datapath == Datapath::Posit8;
        match self {
            VectorOp::Add | VectorOp::Mul | VectorOp::Max => 1,
            VectorOp::Exp => {
                if approx {
                    1
                } else {
                    4
                }
            }
            VectorOp::Recip => {
                if approx {
                    1
                } else {
                    8
                }
            }
        }
    }
}

/// Statistics of vector-unit work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VectorStats {
    /// Total cycles.
    pub cycles: u64,
    /// Elements processed.
    pub elements: u64,
}

/// Soft-error model over simulated SRAM traffic.
///
/// Deployed edge silicon holds weights and activations in on-chip SRAM
/// for the lifetime of the model; single-event upsets flip stored bits
/// at a rate conventionally expressed as a bit-error rate (BER) per bit
/// accessed. This model converts byte traffic into a deterministic flip
/// budget; Table 9's `SRAM flips` column (`qt_robust::weight_traffic_budget`)
/// reports it for holding a model's weights, tying the campaign's flip
/// rates to what the hardware would actually see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramFaultModel {
    /// Upset probability per bit accessed.
    pub ber: f64,
}

impl SramFaultModel {
    /// Model with the given bit-error rate per accessed bit.
    pub fn new(ber: f64) -> Self {
        Self { ber: ber.max(0.0) }
    }

    /// Expected number of bit flips across `bytes` of SRAM traffic.
    pub fn expected_flips(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.ber
    }

    /// Deterministic integer flip budget for `bytes` of traffic
    /// (expectation rounded half-up, so a non-zero expectation ≥ 0.5
    /// always injects at least one flip).
    pub fn flip_budget(&self, bytes: u64) -> u64 {
        (self.expected_flips(bytes) + 0.5) as u64
    }
}

/// Cycle-level simulator of an [`Accelerator`].
#[derive(Debug, Clone, Copy)]
pub struct SystolicSim {
    /// The hardware instance.
    pub accel: Accelerator,
}

impl SystolicSim {
    /// Simulator over an accelerator.
    pub fn new(accel: Accelerator) -> Self {
        Self { accel }
    }

    /// Weight-stationary tiled GEMM `[m, k] × [k, n]`.
    ///
    /// Tiles of `N×N` weights are loaded column-by-column (N cycles), then
    /// `m` activation rows stream through with a `2N` fill/drain bubble.
    pub fn gemm(&self, m: u64, k: u64, n: u64) -> GemmStats {
        let nn = self.accel.n as u64;
        let k_tiles = k.div_ceil(nn);
        let n_tiles = n.div_ceil(nn);
        let tiles = k_tiles * n_tiles;
        let per_tile = nn /* weight load */ + m + 2 * nn /* fill+drain */;
        let cycles = tiles * per_tile;
        let active = tiles * m;
        let op_bytes = self.accel.datapath.operand_bits().div_ceil(8);
        let acc_bytes = self.accel.datapath.acc_bits().div_ceil(8);
        GemmStats {
            cycles,
            macs: m * k * n,
            sram_read_bytes: tiles * nn * nn * op_bytes // weights
                + k_tiles * n_tiles * m * nn * op_bytes, // activations per tile pass
            sram_write_bytes: n_tiles * m * nn * acc_bytes,
            active_cycles: active,
        }
    }

    /// Vector-unit execution of `op` over `len` elements.
    pub fn vector(&self, op: VectorOp, len: u64) -> VectorStats {
        let lanes = self.accel.n as u64;
        let lat = op.latency(self.accel.datapath);
        let waves = len.div_ceil(lanes);
        VectorStats {
            cycles: waves * lat,
            elements: len,
        }
    }

    /// Cycles to compute a numerically-stable softmax over `rows` rows of
    /// `width` elements: max-reduce, exp, sum-reduce, reciprocal, scale.
    pub fn softmax_cycles(&self, rows: u64, width: u64) -> u64 {
        let n = rows * width;
        let max = self.vector(VectorOp::Max, n).cycles;
        let exp = self.vector(VectorOp::Exp, n).cycles;
        let sum = self.vector(VectorOp::Add, n).cycles;
        let recip = self.vector(VectorOp::Recip, rows).cycles;
        let scale = self.vector(VectorOp::Mul, n).cycles;
        max + exp + sum + recip + scale
    }

    /// Energy (nJ) of a GEMM at an operating point: cycles × array power,
    /// plus SRAM access energy.
    pub fn gemm_energy_nj(&self, stats: &GemmStats, tech: &Tech40, point: SynthesisPoint) -> f64 {
        let report = self.accel.synth(tech, point);
        let secs = stats.cycles as f64 / (point.freq_mhz * 1e6);
        let compute = report.array.power_mw * 1e-3 * secs * 1e9; // nJ
                                                                 // SRAM access energy proxy: 0.02 nJ per 8 bytes at 40 nm
        let traffic = (stats.sram_read_bytes + stats.sram_write_bytes) as f64 / 8.0 * 0.02;
        compute + traffic
    }
}

/// The simulator *is* the cycle-cost oracle the tracing layer consults:
/// attach one to a `QuantCtx` via `with_cycle_model` and every GEMM /
/// softmax span in the model carries this hardware's simulated cycles.
impl CycleModel for SystolicSim {
    fn gemm_cost(&self, m: u64, k: u64, n: u64) -> GemmCost {
        let s = self.gemm(m, k, n);
        GemmCost {
            cycles: s.cycles,
            macs: s.macs,
            active_cycles: s.active_cycles,
            sram_bytes: s.sram_read_bytes + s.sram_write_bytes,
        }
    }

    fn softmax_cycles(&self, rows: u64, width: u64) -> u64 {
        SystolicSim::softmax_cycles(self, rows, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(d: Datapath) -> SystolicSim {
        SystolicSim::new(Accelerator::new(8, d))
    }

    #[test]
    fn gemm_mac_count_exact() {
        let s = sim(Datapath::Posit8).gemm(16, 32, 24);
        assert_eq!(s.macs, 16 * 32 * 24);
    }

    #[test]
    fn gemm_cycles_scale_with_tiles() {
        let small = sim(Datapath::Posit8).gemm(16, 8, 8); // 1 tile
        let big = sim(Datapath::Posit8).gemm(16, 16, 16); // 4 tiles
        assert_eq!(small.cycles * 4, big.cycles);
        assert!(big.utilization() > 0.0 && big.utilization() < 1.0);
    }

    #[test]
    fn long_streams_amortise_fills() {
        // utilisation approaches 1 as m grows
        let u1 = sim(Datapath::Posit8).gemm(8, 8, 8).utilization();
        let u2 = sim(Datapath::Posit8).gemm(4096, 8, 8).utilization();
        assert!(u2 > u1 && u2 > 0.95, "{u1} vs {u2}");
    }

    #[test]
    fn bf16_moves_twice_the_bytes() {
        let p8 = sim(Datapath::Posit8).gemm(64, 64, 64);
        let bf = sim(Datapath::Bf16).gemm(64, 64, 64);
        assert_eq!(bf.sram_read_bytes, 2 * p8.sram_read_bytes);
        assert_eq!(bf.sram_write_bytes, 2 * p8.sram_write_bytes);
        assert_eq!(bf.cycles, p8.cycles); // same dataflow
    }

    #[test]
    fn approx_softmax_is_faster() {
        // The posit vector unit's single-cycle exp/recip beats the exact
        // multi-cycle units — the latency side of Table 8's savings.
        let fp8 = sim(Datapath::HybridFp8).softmax_cycles(64, 64);
        let p8 = sim(Datapath::Posit8).softmax_cycles(64, 64);
        assert!(p8 < fp8, "{p8} !< {fp8}");
        assert!(fp8 as f64 / p8 as f64 > 1.5);
    }

    #[test]
    fn vector_waves() {
        let v = sim(Datapath::Posit8).vector(VectorOp::Add, 20);
        // 20 elements over 8 lanes → 3 waves
        assert_eq!(v.cycles, 3);
    }

    #[test]
    fn fault_model_budget_tracks_traffic() {
        let m = SramFaultModel::new(1e-4);
        let s = sim(Datapath::Posit8);
        let small = s.gemm(16, 16, 16);
        let big = s.gemm(64, 64, 64);
        let traffic = |g: &GemmStats| g.sram_read_bytes + g.sram_write_bytes;
        let b_small = m.flip_budget(traffic(&small));
        let b_big = m.flip_budget(traffic(&big));
        assert!(b_big > b_small);
        // Exact expectation: bytes × 8 × BER, rounded half-up.
        assert_eq!(b_big, (traffic(&big) as f64 * 8.0 * 1e-4 + 0.5) as u64);
        // Zero BER → zero budget; BF16 moves more bytes → bigger budget.
        assert_eq!(SramFaultModel::new(0.0).flip_budget(traffic(&big)), 0);
        let bf = sim(Datapath::Bf16).gemm(64, 64, 64);
        assert!(m.flip_budget(traffic(&bf)) > b_big);
    }

    #[test]
    fn cycle_model_matches_inherent_sim() {
        let s = sim(Datapath::Posit8);
        let cm: &dyn CycleModel = &s;
        let cost = cm.gemm_cost(16, 32, 24);
        let stats = s.gemm(16, 32, 24);
        assert_eq!(cost.cycles, stats.cycles);
        assert_eq!(cost.macs, stats.macs);
        assert_eq!(cost.active_cycles, stats.active_cycles);
        assert_eq!(
            cost.sram_bytes,
            stats.sram_read_bytes + stats.sram_write_bytes
        );
        assert_eq!(cm.softmax_cycles(64, 64), s.softmax_cycles(64, 64));
    }

    #[test]
    fn vector_stats_count_elements() {
        // 128 elements over 8 lanes at the posit unit's 1-cycle exp.
        let v = sim(Datapath::Posit8).vector(VectorOp::Exp, 128);
        assert_eq!(v.elements, 128);
        assert_eq!(v.cycles, 16);
    }

    #[test]
    fn gemm_energy_positive_and_scales() {
        let tech = Tech40::default();
        let pt = SynthesisPoint::nominal();
        let s = sim(Datapath::Posit8);
        let small = s.gemm(16, 16, 16);
        let big = s.gemm(64, 64, 64);
        let e1 = s.gemm_energy_nj(&small, &tech, pt);
        let e2 = s.gemm_energy_nj(&big, &tech, pt);
        assert!(e1 > 0.0 && e2 > 5.0 * e1);
    }
}
