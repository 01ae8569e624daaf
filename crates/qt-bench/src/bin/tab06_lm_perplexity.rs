//! **Table 6**: perplexity of the GPT-2-style and LLaMA-style causal
//! decoders on the synthetic Markov language, across Posit(8,1),
//! Posit(8,2) and E4M3 at each fusion level.
//!
//! Reproduction target: smaller models are more quantization-sensitive;
//! the larger "LLaMA" models stay near the BF16 perplexity in every format.

use qt_accel::{Accelerator, SystolicSim};
use qt_bench::{datapath_for, pretrain_lm, Opts, Table};
use qt_datagen::LmTask;
use qt_quant::{ElemFormat, FusionLevel, QuantScheme};
use qt_train::evaluate_lm_perplexity;
use qt_transformer::{QuantCtx, TransformerConfig};
use std::rc::Rc;

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(600, 100);
    let eval_rows = opts.pick(64, 16);
    let trace = opts.open_trace("tab06_lm_perplexity");
    let ((), tasks) = qt_par::count_tasks(|| {
        let mut table = Table::new(
            "Table 6: perplexity on the synthetic Markov language vs fusion level",
            &[
                "Model",
                "Data type",
                "BF16",
                "No Fusion",
                "+AttnScal",
                "+Activation",
                "+LayerNorm",
                "+Residual",
            ],
        );

        for cfg in [
            TransformerConfig::gpt2_large_sim(),
            TransformerConfig::gpt2_xl_sim(),
            TransformerConfig::llama7b_sim(),
            TransformerConfig::llama13b_sim(),
        ] {
            let task = LmTask::new(cfg.vocab, 32, 7);
            eprintln!("[tab06] pretraining {}…", cfg.name);
            let model = pretrain_lm(&cfg, &task, steps, opts.seed);
            let eval_data = task.dataset(eval_rows, opts.seed ^ 0xEEE);
            let batches: Vec<_> = eval_data.chunks(8).map(|c| task.batch(c)).collect();
            // Each evaluation gets the cycle model of the datapath its format
            // runs on, and is wrapped in a top-level span so the trace nests
            // eval → block → GEMM.
            let ppl = |scheme: QuantScheme, label: &str| {
                let mut qctx = QuantCtx::inference(scheme);
                let span = trace.as_ref().map(|t| {
                    let sim = SystolicSim::new(Accelerator::new(8, datapath_for(scheme.fwd)));
                    qctx = qctx
                        .clone()
                        .with_trace(Rc::clone(t))
                        .with_cycle_model(Rc::new(sim));
                    t.borrow_mut().begin(label, "eval")
                });
                let p = evaluate_lm_perplexity(&model, &qctx, &batches);
                if let (Some(t), Some(span)) = (&trace, span) {
                    t.borrow_mut().end(span);
                }
                p
            };
            let bf16 = ppl(QuantScheme::bf16(), &format!("{}.BF16", cfg.name));
            for fmt in [ElemFormat::P8E1, ElemFormat::P8E2, ElemFormat::E4M3] {
                let mut cells = vec![
                    cfg.name.to_string(),
                    fmt.name().to_string(),
                    format!("{bf16:.2}"),
                ];
                for level in FusionLevel::ALL {
                    let label = format!("{}.{}.{:?}", cfg.name, fmt.name(), level);
                    let p = ppl(QuantScheme::uniform(fmt).with_fusion(level), &label);
                    cells.push(format!("{p:.2}"));
                }
                table.row(&cells);
            }
        }

        table.print();
        table
            .write_json(&opts.out_dir, "tab06_lm_perplexity")
            .expect("write results");
    });
    opts.close_trace(trace, tasks);
}
