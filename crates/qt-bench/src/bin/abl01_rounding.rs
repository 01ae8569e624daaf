//! **Ablation 1** (design choice, §3.4): the posit underflow policy during
//! 8-bit fine-tuning — standard posit (tiny values saturate *up* to
//! minpos) vs the paper's round-ties-to-zero.
//!
//! Reproduction target: the standard rule injects a floor of ±2^-12 into
//! every near-zero gradient, destabilising training; the paper's rule
//! tracks BF16.

use qt_bench::{classify_task_for, lora_finetune_classify, pretrain_classify, Opts, Table};
use qt_datagen::ClassifyKind;
use qt_quant::{QuantScheme, ScalingMode, UnderflowPolicy};
use qt_train::evaluate_classify;
use qt_transformer::{LoraConfig, QuantCtx, TransformerConfig};

fn main() {
    let opts = Opts::parse();
    let pre_steps = opts.pick(500, 80);
    let ft_steps = opts.pick(250, 40);
    let eval_n = opts.pick(256, 64);

    let cfg = TransformerConfig::mobilebert_sim();
    let task = classify_task_for(&cfg, ClassifyKind::Sst2);
    eprintln!("[abl01] pretraining {}…", cfg.name);
    let pretrained = pretrain_classify(&cfg, &task, pre_steps, opts.seed);
    let lora = LoraConfig::mobilebert_default();

    let mut table = Table::new(
        "Ablation: posit underflow policy during Posit8 LoRA fine-tuning (SST-2-like acc %)",
        &["Policy", "Scaling", "Accuracy"],
    );
    for (pname, policy) in [
        ("standard (saturate to minpos)", UnderflowPolicy::Standard),
        (
            "paper §3.4 (ties to zero)",
            UnderflowPolicy::RoundTiesToZero,
        ),
    ] {
        for (sname, scaling) in [
            ("none", ScalingMode::None),
            ("per-tensor", ScalingMode::PerTensorAmax { history: 16 }),
        ] {
            let scheme = QuantScheme::posit8()
                .with_underflow(policy)
                .with_scaling(scaling);
            let run_id = format!(
                "abl01-{}-{}",
                if matches!(policy, UnderflowPolicy::Standard) {
                    "std"
                } else {
                    "rtz"
                },
                if matches!(scaling, ScalingMode::None) {
                    "none"
                } else {
                    "amax"
                },
            );
            let model = lora_finetune_classify(
                &pretrained,
                &task,
                scheme,
                lora,
                ft_steps,
                2e-3,
                opts.seed,
                None,
                opts.ckpt_spec(&run_id).as_ref(),
            );
            let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
            let batches: Vec<_> = eval.chunks(32).map(|c| task.batch(c)).collect();
            let acc = evaluate_classify(&model, &QuantCtx::inference(scheme), &batches);
            table.row(&[pname.into(), sname.into(), format!("{acc:.1}")]);
        }
    }

    table.print();
    table
        .write_json(&opts.out_dir, "abl01_rounding")
        .expect("write results");
}
