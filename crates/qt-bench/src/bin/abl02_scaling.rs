//! **Ablation 2** (design choice, §5.1): gradient scaling during 8-bit
//! fine-tuning — none vs global loss scale vs delayed per-tensor amax
//! scaling — and the amax-history length.
//!
//! Reproduction target: no scaling underflows most activation gradients;
//! a loss scale recovers most accuracy; per-tensor scaling matches BF16.

use qt_bench::{classify_task_for, lora_finetune_classify, pretrain_classify, Opts, Table};
use qt_datagen::ClassifyKind;
use qt_quant::{QuantScheme, ScalingMode};
use qt_train::evaluate_classify;
use qt_transformer::{LoraConfig, QuantCtx, TransformerConfig};

fn main() {
    let opts = Opts::parse();
    let pre_steps = opts.pick(500, 80);
    let ft_steps = opts.pick(250, 40);
    let eval_n = opts.pick(256, 64);

    let cfg = TransformerConfig::mobilebert_sim();
    let task = classify_task_for(&cfg, ClassifyKind::Sst2);
    eprintln!("[abl02] pretraining {}…", cfg.name);
    let pretrained = pretrain_classify(&cfg, &task, pre_steps, opts.seed);
    let lora = LoraConfig::mobilebert_default();

    let modes: [(&str, ScalingMode); 5] = [
        ("none", ScalingMode::None),
        ("loss scale 256", ScalingMode::LossScale(256.0)),
        (
            "per-tensor, history 1",
            ScalingMode::PerTensorAmax { history: 1 },
        ),
        (
            "per-tensor, history 16",
            ScalingMode::PerTensorAmax { history: 16 },
        ),
        (
            "per-tensor, history 64",
            ScalingMode::PerTensorAmax { history: 64 },
        ),
    ];

    let mut table = Table::new(
        "Ablation: gradient scaling during Posit8 LoRA fine-tuning (SST-2-like acc %)",
        &["Scaling", "Posit8 acc", "BF16 reference"],
    );
    // BF16 reference once
    let bf16 = {
        let model = lora_finetune_classify(
            &pretrained,
            &task,
            QuantScheme::bf16(),
            lora,
            ft_steps,
            2e-3,
            opts.seed,
            None,
            opts.ckpt_spec("abl02-bf16-reference").as_ref(),
        );
        let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
        let batches: Vec<_> = eval.chunks(32).map(|c| task.batch(c)).collect();
        evaluate_classify(&model, &QuantCtx::inference(QuantScheme::bf16()), &batches)
    };
    for (mi, (name, scaling)) in modes.into_iter().enumerate() {
        let scheme = QuantScheme::posit8().with_scaling(scaling);
        let model = lora_finetune_classify(
            &pretrained,
            &task,
            scheme,
            lora,
            ft_steps,
            2e-3,
            opts.seed,
            None,
            opts.ckpt_spec(&format!("abl02-posit8-mode{mi}")).as_ref(),
        );
        let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
        let batches: Vec<_> = eval.chunks(32).map(|c| task.batch(c)).collect();
        let acc = evaluate_classify(&model, &QuantCtx::inference(scheme), &batches);
        table.row(&[name.into(), format!("{acc:.1}"), format!("{bf16:.1}")]);
    }

    table.print();
    table
        .write_json(&opts.out_dir, "abl02_scaling")
        .expect("write results");
}
