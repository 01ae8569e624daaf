//! **Table 4**: span F1 with the posit softmax built from the approximate
//! exponential and/or the approximate (piecewise-linear) reciprocal, on the
//! MobileBERT-style and BERT-style models.
//!
//! Reproduction target: each approximation costs little on its own and the
//! two compose with only a small additional drop, with the larger model
//! more robust.

use qt_bench::{pretrain_span, span_task_for, Opts, Table};
use qt_posit::approx::ExpApprox;
use qt_quant::{QuantScheme, SoftmaxKind};
use qt_train::evaluate_span_f1;
use qt_transformer::{QuantCtx, TransformerConfig};

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(900, 120);
    let eval_n = opts.pick(384, 64);

    let configs = [
        TransformerConfig::mobilebert_sim(),
        TransformerConfig::bert_base_sim(),
    ];
    let mut models = Vec::new();
    for cfg in &configs {
        let task = span_task_for(cfg);
        eprintln!("[tab04] pretraining {}…", cfg.name);
        let model = pretrain_span(cfg, &task, steps, opts.seed);
        let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
        models.push((model, task, eval));
    }

    let rows: Vec<(&str, Option<SoftmaxKind>)> = vec![
        ("BF16", None),
        ("Posit8 (exact softmax)", Some(SoftmaxKind::Exact)),
        (
            "Posit8 + approx e^x",
            Some(SoftmaxKind::PositApprox {
                approx_exp: true,
                approx_recip: false,
                exp: ExpApprox::PAPER_BEST,
            }),
        ),
        (
            "Posit8 + approx 1/x",
            Some(SoftmaxKind::PositApprox {
                approx_exp: false,
                approx_recip: true,
                exp: ExpApprox::PAPER_BEST,
            }),
        ),
        ("Posit8 + both", Some(SoftmaxKind::posit_full())),
    ];

    let mut table = Table::new(
        "Table 4: posit softmax approximations (synthetic SQuAD F1)",
        &["Config", "MobileBERT-sim", "BERT_base-sim"],
    );
    for (label, softmax) in rows {
        let mut cells = vec![label.to_string()];
        for (model, task, eval) in &models {
            let scheme = match softmax {
                None => QuantScheme::bf16(),
                Some(k) => QuantScheme::posit8().with_softmax(k),
            };
            let f1 = evaluate_span_f1(model, &QuantCtx::inference(scheme), task, eval, 32);
            cells.push(format!("{f1:.1}"));
        }
        table.row(&cells);
    }

    table.print();
    table
        .write_json(&opts.out_dir, "tab04_softmax_approx")
        .expect("write results");
}
