//! Quantization machinery for 8-bit Transformer inference and fine-tuning:
//! element formats, fast fake-quantization, the paper's operation-fusion
//! schemes (§4), and per-tensor gradient scaling (§5.1).
//!
//! The paper's experiments run "fake-quantized": tensors live in a wide
//! carrier type and are *clipped to the representable set* of an 8-bit
//! format at every operation boundary that the fusion scheme does not
//! exempt. [`ElemFormat`] names the formats, [`FakeQuant`] rounds tensors
//! onto a format's grid (via a 256-entry sorted table for the 8-bit
//! formats), [`FusionLevel`] decides which operation inputs skip
//! quantization, and [`AmaxTracker`] implements the delayed-scaling
//! per-tensor factors used for activation gradients.
//!
//! # Example
//!
//! ```
//! use qt_quant::{ElemFormat, FakeQuant};
//!
//! let q = FakeQuant::new(ElemFormat::P8E1);
//! assert_eq!(q.quantize_scalar(1.05), 1.0625); // nearest Posit(8,1)
//! assert_eq!(q.quantize_scalar(1e9), 4096.0);  // saturates at maxpos
//! ```

#![warn(missing_docs)]

mod format;
mod fusion;
mod guard;
mod qgemm;
mod quantizer;
mod scaling;
mod scheme;

pub use format::ElemFormat;
pub use fusion::{FusionLevel, OpClass, OpSet};
pub use guard::{HealthWindow, NonFinitePolicy, TensorHealth};
pub use qgemm::{matmul_codes, PackedQuantB, QuantizedTensor};
pub use qt_posit::UnderflowPolicy;
pub use quantizer::FakeQuant;
pub use scaling::{AmaxTracker, ScalingMode};
pub use scheme::{QuantScheme, SoftmaxKind};
