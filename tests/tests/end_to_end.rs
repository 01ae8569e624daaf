//! End-to-end integration: quantized training and inference across the
//! whole stack (datagen → transformer → quant → train).

use qt_datagen::{ClassifyKind, ClassifyTask, SpanTask};
use qt_quant::{QuantScheme, ScalingMode};
use qt_train::{evaluate_classify, evaluate_span_f1, AdamW, Trainer};
use qt_transformer::{LoraConfig, Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

fn tiny_cfg() -> TransformerConfig {
    let mut cfg = TransformerConfig::mobilebert_tiny_sim();
    cfg.layers = 2;
    cfg
}

#[test]
fn posit8_training_with_approx_softmax_learns() {
    let cfg = tiny_cfg();
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
    let mut rng = StdRng::seed_from_u64(1);
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    let scheme = QuantScheme::posit8_approx();
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(scheme),
        TrainMode::Full,
        AdamW::new(3e-3),
    );
    let data = task.dataset(40 * 16, 2);
    for chunk in data.chunks(16) {
        let (batch, labels) = task.batch(chunk);
        trainer.step_classify(&batch, &labels);
    }
    let eval = task.dataset(128, 99);
    let batches: Vec<_> = eval.chunks(32).map(|c| task.batch(c)).collect();
    let acc = evaluate_classify(&trainer.model, &QuantCtx::inference(scheme), &batches);
    assert!(
        acc > 75.0,
        "8-bit training should beat chance by far: {acc}"
    );
}

#[test]
fn ptq_posit8_tracks_fp32_on_trained_model() {
    let cfg = tiny_cfg();
    let task = SpanTask::new(cfg.vocab, 16);
    let mut rng = StdRng::seed_from_u64(3);
    let model = Model::new(cfg, TaskHead::Span, &mut rng);
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    let data = task.dataset(50 * 16, 4);
    for chunk in data.chunks(16) {
        let (batch, spans) = task.batch(chunk);
        trainer.step_span(&batch, &spans);
    }
    let eval = task.dataset(96, 99);
    let f1_fp32 = evaluate_span_f1(
        &trainer.model,
        &QuantCtx::inference(QuantScheme::fp32()),
        &task,
        &eval,
        32,
    );
    let f1_p8 = evaluate_span_f1(
        &trainer.model,
        &QuantCtx::inference(QuantScheme::posit8()),
        &task,
        &eval,
        32,
    );
    assert!(f1_fp32 > 50.0, "model should have learned: {f1_fp32}");
    assert!(
        (f1_fp32 - f1_p8).abs() < 15.0,
        "posit8 PTQ should track fp32: {f1_fp32} vs {f1_p8}"
    );
}

#[test]
fn lora_8bit_finetuning_adapts_frozen_backbone() {
    let cfg = tiny_cfg();
    let task = ClassifyTask::new(ClassifyKind::Qnli, cfg.vocab, 16);
    let mut rng = StdRng::seed_from_u64(5);
    // pretrain briefly
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    let mut pre = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    for chunk in task.dataset(30 * 16, 6).chunks(16) {
        let (batch, labels) = task.batch(chunk);
        pre.step_classify(&batch, &labels);
    }
    let mut model = pre.model;
    model.add_lora(LoraConfig::mobilebert_default(), &mut rng);
    let before = model.params.get("enc.0.attn.wq").clone();

    let scheme = QuantScheme::posit8().with_scaling(ScalingMode::PerTensorAmax { history: 8 });
    let mut ft = Trainer::new(
        model,
        QuantCtx::training(scheme),
        TrainMode::Lora,
        AdamW::new(2e-3),
    );
    for chunk in task.dataset(20 * 16, 7).chunks(16) {
        let (batch, labels) = task.batch(chunk);
        ft.step_classify(&batch, &labels);
    }
    // backbone untouched, adapters moved
    assert_eq!(ft.model.params.get("enc.0.attn.wq").data(), before.data());
    assert!(ft.model.params.get("enc.0.attn.wq.lora_b").amax() > 0.0);
    assert!(ft.steps() > 0);
}

#[test]
fn whisper_style_pipeline_transcribes() {
    use qt_datagen::AsrTask;
    use qt_train::evaluate_asr_wer;
    let mut cfg = TransformerConfig::whisper_tiny_sim();
    cfg.layers = 1;
    let task = AsrTask::new(cfg.vocab, 16, 4);
    let mut rng = StdRng::seed_from_u64(8);
    let model = Model::new(cfg, TaskHead::LmTied, &mut rng);
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    for chunk in task.dataset(300 * 8, 9).chunks(8) {
        let (enc, dec, targets) = task.batch(chunk);
        trainer.step_seq2seq(&enc, &dec, &targets);
    }
    let eval = task.dataset(24, 99);
    let wer = evaluate_asr_wer(
        &trainer.model,
        &QuantCtx::inference(QuantScheme::fp32()),
        &task,
        &eval,
        24,
    );
    assert!(
        wer < 75.0,
        "seq2seq should be learning to transcribe: WER {wer}"
    );
}
