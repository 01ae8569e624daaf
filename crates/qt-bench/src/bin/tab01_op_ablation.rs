//! **Table 1**: accuracy impact of quantizing GEMM plus exactly one other
//! operation class to Posit(8,1), on the MobileBERT-style and BERT-style
//! encoders (synthetic SQuAD F1).
//!
//! Reproduction target: the ordering of sensitivity — attention scaling
//! worst, then activations, layer norm, residual — and MobileBERT being
//! the more fragile model.

use qt_bench::{pretrain_span, span_task_for, Opts, Table};
use qt_quant::{OpClass, OpSet, QuantScheme};
use qt_train::evaluate_span_f1;
use qt_transformer::{QuantCtx, TransformerConfig};

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(900, 120);
    let eval_n = opts.pick(384, 64);

    let mut table = Table::new(
        "Table 1: quantizing GEMM + one op class to Posit(8,1), F1 on synthetic SQuAD",
        &["Operations", "MobileBERT-sim", "BERT_base-sim"],
    );

    let configs = [
        TransformerConfig::mobilebert_sim(),
        TransformerConfig::bert_base_sim(),
    ];
    let mut models = Vec::new();
    for cfg in &configs {
        let task = span_task_for(cfg);
        eprintln!("[tab01] pretraining {}…", cfg.name);
        let model = pretrain_span(cfg, &task, steps, opts.seed);
        let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
        models.push((model, task, eval));
    }

    let rows: Vec<(&str, Option<OpSet>)> = vec![
        ("BF16", None),
        ("GEMM", Some(OpSet::GEMM_ONLY)),
        ("GEMM + Residual", Some(OpSet::gemm_plus(OpClass::Residual))),
        (
            "GEMM + LayerNorm",
            Some(OpSet::gemm_plus(OpClass::LayerNorm)),
        ),
        (
            "GEMM + Activation",
            Some(OpSet::gemm_plus(OpClass::Activation)),
        ),
        (
            "GEMM + Attn Scaling",
            Some(OpSet::gemm_plus(OpClass::AttnScaling)),
        ),
    ];

    for (label, ops) in rows {
        let mut cells = vec![label.to_string()];
        for (model, task, eval) in &models {
            let scheme = match ops {
                None => QuantScheme::bf16(),
                Some(set) => QuantScheme::posit8().with_ops(set),
            };
            let f1 = evaluate_span_f1(model, &QuantCtx::inference(scheme), task, eval, 32);
            cells.push(format!("{f1:.1}"));
        }
        table.row(&cells);
    }

    table.print();
    table
        .write_json(&opts.out_dir, "tab01_op_ablation")
        .expect("write results");
}
