//! 8-bit LoRA fine-tuning (§5.3): start from a "pretrained" model, freeze
//! the backbone as quantized 8-bit weights, and train only low-rank
//! adapters — with every GEMM running on a single 8-bit data type per
//! Equation 7, and activation gradients rescued by per-tensor scaling.
//!
//! ```bash
//! cargo run --release -p qt-examples --bin lora_finetune_8bit
//! ```

use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::{QuantScheme, ScalingMode};
use qt_train::{evaluate_classify, AdamW, Trainer};
use qt_transformer::{LoraConfig, Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let cfg = TransformerConfig::roberta_base_sim();
    let task = ClassifyTask::new(ClassifyKind::Qnli, cfg.vocab, 24);
    let mut rng = StdRng::seed_from_u64(3);

    // "pretrain" in FP32
    println!("pretraining {}…", cfg.name);
    let model = Model::new(cfg.clone(), TaskHead::Classify(2), &mut rng);
    let mut pre = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    for chunk in task.dataset(300 * 16, 1).chunks(16) {
        let (batch, labels) = task.batch(chunk);
        pre.step_classify(&batch, &labels);
    }
    let pretrained = pre.model;

    // attach LoRA and fine-tune in Posit8
    let mut model = pretrained.clone();
    model.add_lora(LoraConfig::roberta_default(), &mut rng);
    println!(
        "LoRA: {} trainable of {} total parameters ({:.2}%)",
        model.trainable_params(TrainMode::Lora),
        model.params.num_elements(),
        100.0 * model.trainable_params(TrainMode::Lora) as f64 / model.params.num_elements() as f64
    );

    let scheme =
        QuantScheme::posit8_approx().with_scaling(ScalingMode::PerTensorAmax { history: 16 });
    println!("fine-tuning with scheme: {}", scheme.describe());
    let mut ft = Trainer::new(
        model,
        QuantCtx::training(scheme),
        TrainMode::Lora,
        AdamW::new(2e-3),
    );
    for (i, chunk) in task.dataset(200 * 16, 2).chunks(16).enumerate() {
        let (batch, labels) = task.batch(chunk);
        let loss = ft.step_classify(&batch, &labels);
        if i % 50 == 0 {
            println!(
                "  step {i:>4}: loss {loss:.3} (skipped so far: {})",
                ft.skipped()
            );
        }
    }

    // evaluate both under the 8-bit scheme
    let eval = task.dataset(512, 99);
    let batches: Vec<_> = eval.chunks(32).map(|c| task.batch(c)).collect();
    let acc_pre = evaluate_classify(&pretrained, &QuantCtx::inference(scheme), &batches);
    let acc_ft = evaluate_classify(&ft.model, &QuantCtx::inference(scheme), &batches);
    println!("\naccuracy under Posit8 inference:");
    println!("  pretrained (no adapters): {acc_pre:.1}%");
    println!("  after 8-bit LoRA:         {acc_ft:.1}%");
}
