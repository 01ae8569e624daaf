//! **Table 3**: sweeping the approximate-exponential threshold θ
//! ("Accuracy 1": truncation only) and the shift ε derived at each
//! threshold ("Accuracy 2": truncation + shifting), on the MobileBERT-style
//! model. Includes the raw approximation (no threshold), which leaks
//! attention onto masked tokens.
//!
//! Reproduction target: raw << thresholded < thresholded+shifted ≈ BF16,
//! with an interior optimum in θ.

use qt_bench::{pretrain_span, span_task_for, Opts, Table};
use qt_posit::approx::ExpApprox;
use qt_quant::{QuantScheme, SoftmaxKind};
use qt_train::evaluate_span_f1;
use qt_transformer::{QuantCtx, TransformerConfig};

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(900, 120);
    let eval_n = opts.pick(384, 64);

    let cfg = TransformerConfig::mobilebert_sim();
    let task = span_task_for(&cfg);
    eprintln!("[tab03] pretraining {}…", cfg.name);
    let model = pretrain_span(&cfg, &task, steps, opts.seed);
    let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);

    let f1_with = |exp: ExpApprox| {
        let scheme = QuantScheme::posit8().with_softmax(SoftmaxKind::PositApprox {
            approx_exp: true,
            approx_recip: false,
            exp,
        });
        evaluate_span_f1(&model, &QuantCtx::inference(scheme), &task, &eval, 32)
    };

    let mut table = Table::new(
        "Table 3: approximate-exponential threshold/shift sweep (MobileBERT-sim F1)",
        &[
            "Threshold θ",
            "ε (derived)",
            "Accuracy 1 (θ only)",
            "Accuracy 2 (θ + shift)",
        ],
    );
    table.row(&[
        "none (raw)".into(),
        "-1.0".into(),
        format!("{:.1}", f1_with(ExpApprox::raw())),
        "-".into(),
    ]);
    for theta in [-5.0, -4.0, -3.0, -2.0] {
        let shifted = ExpApprox::shifted(theta);
        table.row(&[
            format!("{theta}"),
            format!("{:.3}", shifted.epsilon),
            format!("{:.1}", f1_with(ExpApprox::thresholded(theta))),
            format!("{:.1}", f1_with(shifted)),
        ]);
    }
    let bf16 = evaluate_span_f1(
        &model,
        &QuantCtx::inference(QuantScheme::bf16()),
        &task,
        &eval,
        32,
    );
    table.row(&[
        "Baseline BF16".into(),
        "-".into(),
        format!("{bf16:.1}"),
        String::new(),
    ]);

    table.print();
    table
        .write_json(&opts.out_dir, "tab03_exp_threshold")
        .expect("write results");
}
