//! **Table 7**: fine-tuning accuracy across methods, data types and tasks.
//!
//! For each (model, task): "Full Training FP32" trains everything from
//! scratch and doubles as the pretrained checkpoint; the LoRA rows
//! re-initialise the head, attach adapters, and fine-tune only those —
//! in BF16, Posit8, Posit8 with the approximate softmax, and FP8
//! (E4M3 fwd / E5M2 bwd), all with per-tensor gradient scaling.
//!
//! Reproduction target: every LoRA variant lands within ~1 point of the
//! BF16 LoRA run, with a tiny fraction of the trainable parameters.
//!
//! Extra flags beyond the shared harness:
//!
//! * `--models mobilebert,roberta` — substring filter on the model list
//!
//! With `--checkpoint-dir DIR` each LoRA fine-tune persists its training
//! state under `DIR/<model>-<method>-<task>/`; `--resume` picks every run
//! back up from its newest intact checkpoint, reproducing the
//! uninterrupted run's table bitwise (see DESIGN.md §10).

use qt_bench::{
    classify_task_for, lora_finetune_classify, lora_finetune_span, pretrain_classify,
    pretrain_span, span_task_for, Opts, Table,
};
use qt_datagen::ClassifyKind;
use qt_quant::QuantScheme;
use qt_train::{evaluate_classify, evaluate_span_f1};
use qt_transformer::{LoraConfig, QuantCtx, TransformerConfig};

/// `"LoRA Posit8 Approx"` → `"lora-posit8-approx"`: run ids double as
/// directory names, so keep them to lowercase alphanumerics and dashes.
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn main() {
    let opts = Opts::parse();
    let pre_steps = opts.pick(400, 80);
    let ft_steps = opts.pick(150, 40);
    let eval_n = opts.pick(256, 64);
    let mut model_filter: Vec<String> = Vec::new();
    let mut it = opts.extra.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--models" => {
                if let Some(v) = it.next() {
                    model_filter = v.split(',').map(|m| m.trim().to_lowercase()).collect();
                }
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let trace = opts.open_trace("tab07_lora_finetune");
    let ((), tasks) = qt_par::count_tasks(|| {
        let methods: [(&str, Option<QuantScheme>); 5] = [
            ("Full Training FP32", None),
            ("LoRA BF16", Some(QuantScheme::bf16())),
            ("LoRA Posit8", Some(QuantScheme::posit8())),
            ("LoRA Posit8 Approx", Some(QuantScheme::posit8_approx())),
            ("LoRA FP8", Some(QuantScheme::fp8())),
        ];

        let mut table = Table::new(
            "Table 7: fine-tuning accuracy by method (GLUE-style acc % / SQuAD-style F1)",
            &[
                "Model", "Method", "#Train", "MNLI", "QNLI", "MRPC", "SST-2", "SQuAD",
            ],
        );

        for (cfg, lora) in [
            (
                TransformerConfig::mobilebert_tiny_sim(),
                LoraConfig::mobilebert_default(),
            ),
            (
                TransformerConfig::roberta_base_sim(),
                LoraConfig::roberta_default(),
            ),
        ] {
            if !model_filter.is_empty()
                && !model_filter
                    .iter()
                    .any(|f| cfg.name.to_lowercase().contains(f))
            {
                eprintln!("[tab07] skipping {} (--models filter)", cfg.name);
                continue;
            }
            eprintln!("[tab07] model {}…", cfg.name);
            // Pretrain per task (the "checkpoint" each LoRA row starts from).
            let glue_tasks: Vec<_> = ClassifyKind::ALL
                .iter()
                .map(|&k| classify_task_for(&cfg, k))
                .collect();
            let glue_pretrained: Vec<_> = glue_tasks
                .iter()
                .map(|t| pretrain_classify(&cfg, t, pre_steps, opts.seed))
                .collect();
            let span_task = span_task_for(&cfg);
            let span_pretrained = pretrain_span(&cfg, &span_task, pre_steps, opts.seed);

            for (mi, (method, scheme)) in methods.iter().enumerate() {
                let mut cells = vec![cfg.name.to_string(), method.to_string()];
                let mut trainable = 0usize;
                let mut metrics = Vec::new();
                for (task, pretrained) in glue_tasks.iter().zip(&glue_pretrained) {
                    let (model, mode) = match scheme {
                        None => (pretrained.clone(), qt_transformer::TrainMode::Full),
                        Some(s) => {
                            let run_id = format!(
                                "{}-{}-{}",
                                slug(cfg.name),
                                slug(method),
                                slug(&format!("{:?}", task.kind))
                            );
                            (
                                lora_finetune_classify(
                                    pretrained,
                                    task,
                                    *s,
                                    lora,
                                    ft_steps,
                                    2e-3,
                                    opts.seed ^ mi as u64,
                                    trace.as_ref(),
                                    opts.ckpt_spec(&run_id).as_ref(),
                                ),
                                qt_transformer::TrainMode::Lora,
                            )
                        }
                    };
                    trainable = model.trainable_params(mode);
                    let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
                    let batches: Vec<_> = eval.chunks(32).map(|c| task.batch(c)).collect();
                    // evaluate under the scheme the model was trained with
                    let eval_scheme = scheme.unwrap_or_else(QuantScheme::fp32);
                    let acc =
                        evaluate_classify(&model, &QuantCtx::inference(eval_scheme), &batches);
                    metrics.push(acc);
                }
                // SQuAD column
                let span_model = match scheme {
                    None => span_pretrained.clone(),
                    Some(s) => {
                        let run_id = format!("{}-{}-squad", slug(cfg.name), slug(method));
                        lora_finetune_span(
                            &span_pretrained,
                            &span_task,
                            *s,
                            lora,
                            ft_steps,
                            2e-3,
                            opts.seed ^ mi as u64,
                            trace.as_ref(),
                            opts.ckpt_spec(&run_id).as_ref(),
                        )
                    }
                };
                let eval = span_task.dataset(eval_n, opts.seed ^ 0xEEE);
                let eval_scheme = scheme.unwrap_or_else(QuantScheme::fp32);
                let f1 = evaluate_span_f1(
                    &span_model,
                    &QuantCtx::inference(eval_scheme),
                    &span_task,
                    &eval,
                    32,
                );
                metrics.push(f1);

                cells.push(format!("{:.1}k", trainable as f64 / 1000.0));
                cells.extend(metrics.iter().map(|m| format!("{m:.1}")));
                table.row(&cells);
            }
        }

        table.print();
        table
            .write_json(&opts.out_dir, "tab07_lora_finetune")
            .expect("write results");
    });
    opts.close_trace(trace, tasks);
}
