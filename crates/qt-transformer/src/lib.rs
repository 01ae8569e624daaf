//! The paper's core contribution, rebuilt as a library: Transformer models
//! whose **every operation** can be quantized to Posit8/FP8 with
//! configurable operation fusion (§4), an approximate posit softmax with a
//! custom backward pass (§4.1, §5.2), and LoRA fine-tuning in a single
//! 8-bit data type (§5.3).
//!
//! The model zoo ([`config`]) mirrors the paper's evaluation families at
//! simulation scale: MobileBERT-style encoders with stacked
//! feed-forward networks (the architecture quirk that makes MobileBERT
//! hard to quantize), BERT/RoBERTa-style encoders, Whisper-style
//! encoder-decoders and GPT/LLaMA-style decoders.
//!
//! Quantization is injected through a [`QuantCtx`]: every operation input
//! passes through [`QuantCtx::cut`], which fake-quantizes the forward value
//! (unless the fusion level exempts the site) and quantizes + rescales the
//! gradient on the way back — exactly the paper's GPU simulation recipe.

#![warn(missing_docs)]

pub mod cancel;
pub mod config;
pub mod heads;
pub mod lora;
pub mod model;
pub mod params;
pub mod probe;
pub mod qctx;
pub mod softmax;

pub use cancel::{CancelCause, CancelToken, ForwardCancelled};
pub use config::{ModelKind, TransformerConfig};
pub use heads::TaskHead;
pub use lora::LoraConfig;
pub use model::{DecodeState, Model, ModelOutput, TokenBatch, TrainMode};
pub use params::ParamStore;
pub use probe::ProbeStore;
pub use qctx::QuantCtx;
pub use qt_quant::{NonFinitePolicy, TensorHealth};
pub use softmax::Softmax;
