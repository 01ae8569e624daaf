//! Fine-tuning memory model (Figure 14): how LoRA and 8-bit quantization
//! shrink the training footprint.
//!
//! Training memory =
//! **parameters** + **weight gradients** (trainable only) +
//! **optimizer state** (trainable only) + **activations** (stored for the
//! backward pass, dominated by batch·seq) + **errors** (activation
//! gradients in flight).

use qt_transformer::{LoraConfig, TransformerConfig};

/// Byte widths of each tensor class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Precision {
    /// Bytes per weight element.
    pub weight: usize,
    /// Bytes per stored activation element.
    pub activation: usize,
    /// Bytes per weight-gradient element.
    pub weight_grad: usize,
    /// Bytes per activation-gradient (error) element.
    pub error: usize,
    /// Bytes of optimizer state per trainable element (AdamW: two f32
    /// moments = 8).
    pub optimizer: usize,
}

impl Precision {
    /// 16-bit training (the paper's baseline: BF16 everywhere, FP32 Adam
    /// moments).
    pub fn bf16() -> Self {
        Self {
            weight: 2,
            activation: 2,
            weight_grad: 2,
            error: 2,
            optimizer: 8,
        }
    }

    /// 8-bit training (§5): weights and activations stored in 8 bits;
    /// LoRA master factors and optimizer state stay 16/32-bit but are tiny.
    pub fn eight_bit() -> Self {
        Self {
            weight: 1,
            activation: 1,
            weight_grad: 2,
            error: 1,
            optimizer: 8,
        }
    }
}

/// Memory breakdown in bytes (the stacked bars of Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBreakdown {
    /// All model parameters (backbone + adapters).
    pub parameters: u64,
    /// Gradients of trainable parameters.
    pub weight_grads: u64,
    /// Optimizer state of trainable parameters.
    pub optimizer: u64,
    /// Stored forward activations.
    pub activations: u64,
    /// Activation gradients in flight ("Error" in Figure 14).
    pub errors: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.parameters + self.weight_grads + self.optimizer + self.activations + self.errors
    }
}

/// Fine-tuning memory model for a Transformer config.
#[derive(Debug, Clone)]
pub struct FinetuneMemoryModel {
    /// Architecture.
    pub cfg: TransformerConfig,
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Tensor precisions.
    pub precision: Precision,
    /// LoRA adapters (None = full fine-tuning).
    pub lora: Option<LoraConfig>,
}

impl FinetuneMemoryModel {
    /// Model with the paper's Figure 14 setup: sequence 128, batch 16,
    /// AdamW.
    pub fn figure14(
        cfg: TransformerConfig,
        precision: Precision,
        lora: Option<LoraConfig>,
    ) -> Self {
        Self {
            cfg,
            batch: 16,
            seq: 128,
            precision,
            lora,
        }
    }

    /// Backbone parameter count.
    pub fn backbone_params(&self) -> u64 {
        self.cfg.param_count() as u64
    }

    /// LoRA parameter count (0 without adapters).
    pub fn lora_params(&self) -> u64 {
        let Some(lora) = self.lora else { return 0 };
        let h = self.cfg.hidden as u64;
        let f = self.cfg.ffn as u64;
        let r = lora.rank as u64;
        // dense weights per block and whether each is adapted
        let attn_adapted: u64 = match lora.targets {
            qt_transformer::lora::LoraTargets::QueryValue => 2,
            qt_transformer::lora::LoraTargets::AllDense => 4,
        };
        let attn = attn_adapted * (h * r + r * h);
        let ffn = match lora.targets {
            qt_transformer::lora::LoraTargets::QueryValue => 0,
            qt_transformer::lora::LoraTargets::AllDense => {
                self.cfg.stacked_ffn as u64 * ((h * r + r * f) + (f * r + r * h))
            }
        };
        self.cfg.layers as u64 * (attn + ffn)
    }

    /// Trainable parameter count.
    pub fn trainable_params(&self) -> u64 {
        if self.lora.is_some() {
            self.lora_params()
        } else {
            self.backbone_params()
        }
    }

    /// Stored activations per forward pass, in elements.
    pub fn activation_elements(&self) -> u64 {
        let (b, s) = (self.batch as u64, self.seq as u64);
        let h = self.cfg.hidden as u64;
        let f = self.cfg.ffn as u64;
        let nh = self.cfg.heads as u64;
        // per layer: q,k,v,ctx,attn_out,ln outputs ≈ 8h per token; each
        // stacked FFN stores its inner activation (f) and output (h);
        // attention probabilities are nh·s per query token.
        let per_token = 8 * h + self.cfg.stacked_ffn as u64 * (f + h);
        let per_layer = b * s * per_token + b * nh * s * s;
        self.cfg.layers as u64 * per_layer + b * s * h // embeddings
    }

    /// Compute the breakdown.
    pub fn breakdown(&self) -> MemoryBreakdown {
        let p = &self.precision;
        let backbone = self.backbone_params();
        let lora = self.lora_params();
        let trainable = self.trainable_params();
        // LoRA master factors stay 16-bit even in the 8-bit regime (§5.3).
        let parameters = backbone * p.weight as u64 + lora * 2;
        let acts = self.activation_elements();
        MemoryBreakdown {
            parameters,
            weight_grads: trainable * p.weight_grad as u64,
            optimizer: trainable * p.optimizer as u64,
            activations: acts * p.activation as u64,
            // errors: activation gradients in flight — the backward sweep
            // holds the token-level gradients of ~two layers at once
            // (attention-map gradients are consumed immediately)
            errors: 2
                * (self.batch * self.seq) as u64
                * (self.cfg.hidden + self.cfg.ffn) as u64
                * p.error as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_transformer::lora::LoraTargets;

    fn cfg() -> TransformerConfig {
        TransformerConfig::mobilebert_tiny_sim()
    }

    fn lora() -> LoraConfig {
        LoraConfig {
            rank: 4,
            alpha: 8.0,
            targets: LoraTargets::AllDense,
        }
    }

    #[test]
    fn lora_cuts_grads_and_optimizer() {
        let full = FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), None).breakdown();
        let with_lora =
            FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), Some(lora())).breakdown();
        assert!(with_lora.weight_grads < full.weight_grads / 5);
        assert!(with_lora.optimizer < full.optimizer / 5);
        // total parameters grow slightly (adapters added)
        assert!(with_lora.parameters > full.parameters);
        assert!(with_lora.parameters < full.parameters * 12 / 10);
    }

    #[test]
    fn eight_bit_halves_params_and_activations() {
        let l = Some(lora());
        let b16 = FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), l).breakdown();
        let b8 = FinetuneMemoryModel::figure14(cfg(), Precision::eight_bit(), l).breakdown();
        let act_ratio = b8.activations as f64 / b16.activations as f64;
        assert!((act_ratio - 0.5).abs() < 0.01, "{act_ratio}");
        assert!(b8.parameters < b16.parameters * 6 / 10);
    }

    #[test]
    fn figure14_three_times_reduction() {
        // Paper: LoRA + 8-bit ≈ 3× total memory reduction vs 16-bit full
        // fine-tuning.
        let baseline = FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), None)
            .breakdown()
            .total();
        let compressed = FinetuneMemoryModel::figure14(cfg(), Precision::eight_bit(), Some(lora()))
            .breakdown()
            .total();
        let factor = baseline as f64 / compressed as f64;
        assert!((2.0..=4.5).contains(&factor), "reduction factor {factor}");
    }

    #[test]
    fn activations_dominate_at_large_batch() {
        // "Transformer training memory is primarily dominated by
        // activations especially with larger batch sizes."
        let mut m = FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), None);
        m.batch = 64;
        let b = m.breakdown();
        assert!(b.activations > b.parameters + b.weight_grads + b.optimizer);
    }

    #[test]
    fn qv_lora_smaller_than_all_dense() {
        let qv = LoraConfig {
            targets: LoraTargets::QueryValue,
            ..lora()
        };
        let a = FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), Some(qv));
        let b = FinetuneMemoryModel::figure14(cfg(), Precision::bf16(), Some(lora()));
        assert!(a.lora_params() < b.lora_params());
        assert!(a.lora_params() > 0);
    }
}
