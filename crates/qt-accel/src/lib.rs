//! Hardware evaluation substrate (paper §7): an analytic gate-level
//! area/power model of the paper's accelerator family, a cycle-level
//! systolic-array + vector-unit simulator, and the fine-tuning memory
//! model of Figure 14.
//!
//! The paper synthesises HLS designs with Design Compiler in a 40 nm
//! technology. We replace that proprietary flow with a **structural
//! gate-count model**: every unit (float/posit MACs, posit codecs,
//! exponential and reciprocal units, vector lanes, PEs, SRAM macros) is
//! composed from primitive blocks (adders, multipliers, shifters, leading-
//! zero counters, registers…) whose NAND2-equivalent gate counts follow
//! standard VLSI estimates, converted to mm²/mW with 40 nm constants.
//! Ratios between designs — the paper's actual claims — derive from the
//! datapath structure (bit widths, approximations) rather than curve
//! fitting; see `DESIGN.md` for the substitution argument.

#![warn(missing_docs)]

pub mod accelerator;
pub mod cost;
pub mod memory;
pub mod sim;
pub mod units;

pub use accelerator::{AccelReport, Accelerator, Datapath};
pub use cost::{AreaPower, SynthesisPoint, Tech40};
pub use memory::{FinetuneMemoryModel, MemoryBreakdown};
pub use sim::{GemmStats, SramFaultModel, SystolicSim, VectorOp, VectorStats};
pub use units::{ExpUnit, ExpUnitKind, MacUnit, PositCodec, RecipUnit, RecipUnitKind, VectorUnit};
