//! Deterministic model preparation: pre-train simulation-scale models the
//! experiment binaries share.
//!
//! All pre-training runs in FP32 with AdamW (the "pretrained checkpoint"
//! the paper downloads); quantized evaluation/fine-tuning happens after.

use crate::CkptSpec;
use qt_ckpt::CheckpointStore;
use qt_datagen::{AsrTask, ClassifyKind, ClassifyTask, LmTask, SpanTask};
use qt_quant::QuantScheme;
use qt_trace::TraceHandle;
use qt_train::{AdamW, Trainer};
use qt_transformer::{LoraConfig, Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::rc::Rc;

/// Attach durable checkpointing (and optionally resume) per `spec`;
/// returns how many data batches the restored state already consumed —
/// the caller must skip that many so the resumed run replays the exact
/// remaining data order.
fn apply_ckpt_spec(
    mut trainer: Trainer<AdamW>,
    spec: Option<&CkptSpec>,
    data_seed: u64,
    scheme: QuantScheme,
    task: &str,
) -> (Trainer<AdamW>, usize) {
    let Some(spec) = spec else {
        return (trainer, 0);
    };
    let store = CheckpointStore::open(&spec.dir);
    trainer = trainer
        .with_checkpointing(store, spec.every, data_seed)
        .with_checkpoint_meta(vec![
            ("scheme".to_string(), format!("{scheme:?}")),
            ("task".to_string(), task.to_string()),
        ]);
    if spec.resume {
        if let Some(info) = trainer.resume_latest().expect("resume from checkpoint") {
            eprintln!(
                "[ckpt] resumed {} at global step {} (generation {}, fallback depth {})",
                spec.dir.display(),
                trainer.global_step(),
                info.generation,
                info.fallback_depth
            );
        }
    }
    let consumed = trainer.global_step();
    (trainer, consumed)
}

/// Pre-train a span-extraction model (SQuAD analogue) in FP32.
pub fn pretrain_span(cfg: &TransformerConfig, task: &SpanTask, steps: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(cfg.clone(), TaskHead::Span, &mut rng);
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    let data = task.dataset(steps * 16, seed ^ 0x51);
    for chunk in data.chunks(16).take(steps) {
        let (batch, spans) = task.batch(chunk);
        trainer.step_span(&batch, &spans);
    }
    trainer.model
}

/// Pre-train a classification model in FP32; returns the model.
pub fn pretrain_classify(
    cfg: &TransformerConfig,
    task: &ClassifyTask,
    steps: usize,
    seed: u64,
) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(
        cfg.clone(),
        TaskHead::Classify(task.kind.classes()),
        &mut rng,
    );
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    let data = task.dataset(steps * 16, seed ^ 0xC1);
    for chunk in data.chunks(16).take(steps) {
        let (batch, labels) = task.batch(chunk);
        trainer.step_classify(&batch, &labels);
    }
    trainer.model
}

/// Pre-train a causal LM in FP32.
pub fn pretrain_lm(cfg: &TransformerConfig, task: &LmTask, steps: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    let data = task.dataset(steps * 8, seed ^ 0x17);
    for chunk in data.chunks(8).take(steps) {
        let (batch, targets) = task.batch(chunk);
        trainer.step_lm(&batch, &targets);
    }
    trainer.model
}

/// Pre-train an encoder-decoder transcription model in FP32.
pub fn pretrain_seq2seq(cfg: &TransformerConfig, task: &AsrTask, steps: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    let data = task.dataset(steps * 8, seed ^ 0xA5);
    for chunk in data.chunks(8).take(steps) {
        let (enc, dec, targets) = task.batch(chunk);
        trainer.step_seq2seq(&enc, &dec, &targets);
    }
    trainer.model
}

/// Fine-tune a pretrained model with LoRA under a scheme; the head is
/// re-initialised. Returns the adapted model. With `trace`, the run's
/// steps, losses and scaler history land on that session. With `ckpt`,
/// training state is persisted per the spec, and (under `resume`) the
/// run restarts from its newest intact checkpoint, skipping exactly the
/// batches the restored state already consumed — so an interrupted and
/// a straight-through run end bitwise-identical.
#[allow(clippy::too_many_arguments)]
pub fn lora_finetune_classify(
    pretrained: &Model,
    task: &ClassifyTask,
    scheme: QuantScheme,
    lora: LoraConfig,
    steps: usize,
    lr: f32,
    seed: u64,
    trace: Option<&TraceHandle>,
    ckpt: Option<&CkptSpec>,
) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = pretrained.clone();
    model.add_lora(lora, &mut rng);
    let mut qctx = QuantCtx::training(scheme);
    if let Some(t) = trace {
        qctx = qctx.with_trace(Rc::clone(t));
    }
    let data_seed = seed ^ 0x10;
    let trainer = Trainer::new(model, qctx, TrainMode::Lora, AdamW::new(lr));
    let (mut trainer, consumed) = apply_ckpt_spec(trainer, ckpt, data_seed, scheme, "classify");
    let data = task.dataset(steps * 16, data_seed);
    for chunk in data.chunks(16).take(steps).skip(consumed) {
        let (batch, labels) = task.batch(chunk);
        trainer.step_classify(&batch, &labels);
    }
    trainer.model
}

/// Fine-tune a pretrained span model with LoRA under a scheme. With
/// `trace`, the run's telemetry lands on that session; with `ckpt`,
/// state is persisted / resumed as in [`lora_finetune_classify`].
#[allow(clippy::too_many_arguments)]
pub fn lora_finetune_span(
    pretrained: &Model,
    task: &SpanTask,
    scheme: QuantScheme,
    lora: LoraConfig,
    steps: usize,
    lr: f32,
    seed: u64,
    trace: Option<&TraceHandle>,
    ckpt: Option<&CkptSpec>,
) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = pretrained.clone();
    model.add_lora(lora, &mut rng);
    let mut qctx = QuantCtx::training(scheme);
    if let Some(t) = trace {
        qctx = qctx.with_trace(Rc::clone(t));
    }
    let data_seed = seed ^ 0x11;
    let trainer = Trainer::new(model, qctx, TrainMode::Lora, AdamW::new(lr));
    let (mut trainer, consumed) = apply_ckpt_spec(trainer, ckpt, data_seed, scheme, "span");
    let data = task.dataset(steps * 16, data_seed);
    for chunk in data.chunks(16).take(steps).skip(consumed) {
        let (batch, spans) = task.batch(chunk);
        trainer.step_span(&batch, &spans);
    }
    trainer.model
}

/// Default span task for a model config (sequence 24, its vocab).
pub fn span_task_for(cfg: &TransformerConfig) -> SpanTask {
    SpanTask::new(cfg.vocab, 24)
}

/// Default classification task for a model config.
pub fn classify_task_for(cfg: &TransformerConfig, kind: ClassifyKind) -> ClassifyTask {
    ClassifyTask::new(kind, cfg.vocab, 24)
}
