//! Post-training quantization of a Transformer: train a small span-
//! extraction model in FP32, then run inference in Posit8 and FP8 at
//! increasing operation-fusion levels (§4 of the paper).
//!
//! ```bash
//! cargo run --release -p qt-examples --bin ptq_inference
//! ```

use qt_autograd::Tape;
use qt_datagen::SpanTask;
use qt_quant::{ElemFormat, FusionLevel, QuantScheme};
use qt_train::{evaluate_span_f1, AdamW, Trainer};
use qt_transformer::{Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let cfg = TransformerConfig::mobilebert_tiny_sim();
    let task = SpanTask::new(cfg.vocab, 24);
    let mut rng = StdRng::seed_from_u64(7);

    println!(
        "training {} ({} params) on synthetic span extraction…",
        cfg.name,
        cfg.param_count()
    );
    let model = Model::new(cfg.clone(), TaskHead::Span, &mut rng);
    let mut trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::fp32()),
        TrainMode::Full,
        AdamW::new(2e-3),
    );
    let data = task.dataset(300 * 16, 1);
    for (i, chunk) in data.chunks(16).enumerate() {
        let (batch, spans) = task.batch(chunk);
        let loss = trainer.step_span(&batch, &spans);
        if i % 75 == 0 {
            println!("  step {i:>4}: loss {loss:.3}");
        }
    }
    let model = trainer.model;

    let eval = task.dataset(256, 99);
    println!("\npost-training quantization (F1 on 256 held-out examples):");
    let f1 = |scheme: QuantScheme| {
        evaluate_span_f1(&model, &QuantCtx::inference(scheme), &task, &eval, 32)
    };
    println!("  BF16 baseline: {:.1}", f1(QuantScheme::bf16()));
    for fmt in [ElemFormat::P8E1, ElemFormat::P8E2, ElemFormat::E4M3] {
        print!("  {:<12}", fmt.name());
        for level in FusionLevel::ALL {
            print!(" {:>5.1}", f1(QuantScheme::uniform(fmt).with_fusion(level)));
        }
        println!("   (no-fusion → fuse-all)");
    }

    // peek at one quantized forward pass
    let (batch, _) = task.batch(&eval[..4]);
    let qctx = QuantCtx::inference(QuantScheme::posit8());
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Frozen);
    println!(
        "\nPosit8 forward pass: {} tape nodes, logits shape {:?}",
        tape.len(),
        tape.value(out.logits).shape()
    );
}
