//! **Figure 6**: per-layer activation distributions of the MobileBERT-style
//! model during span-extraction inference, against the binade bands where
//! Posit(8,1) has 4..1 fraction bits.
//!
//! Reproduction target: the stacked-FFN residual chain widens the
//! distribution in deeper layers, pushing mass out of posit's
//! high-precision band — compared against the BERT-style model, which
//! stays narrow.

use qt_autograd::Tape;
use qt_bench::{pretrain_span, span_task_for, Opts, Table};
use qt_quant::QuantScheme;
use qt_tensor::TensorStats;
use qt_transformer::{ProbeStore, QuantCtx, TrainMode, TransformerConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(700, 100);

    let mut table = Table::new(
        "Figure 6: per-layer activation stats during inference (binades; Posit(8,1) has ≥3 fraction bits in 2^-4..2^4)",
        &[
            "Model", "Layer", "amax", "p50 binade", "p99 binade", "frac in 2^-4..2^4",
            "frac in 2^-12..2^12",
        ],
    );

    for cfg in [
        TransformerConfig::mobilebert_sim(),
        TransformerConfig::bert_base_sim(),
    ] {
        let task = span_task_for(&cfg);
        eprintln!("[fig06] pretraining {}…", cfg.name);
        let model = pretrain_span(&cfg, &task, steps, opts.seed);
        let probe = Rc::new(RefCell::new(ProbeStore::new()));
        let qctx = QuantCtx::inference(QuantScheme::fp32()).with_probe(Rc::clone(&probe));
        let eval = task.dataset(64, opts.seed ^ 0xEEE);
        let (batch, _) = task.batch(&eval);
        let mut tape = Tape::new();
        model.forward(&mut tape, &qctx, &batch, None, TrainMode::Frozen);

        let p = probe.borrow();
        for l in 0..cfg.layers {
            let needle = format!("enc.{l}.");
            let Some(hist) = p.merged_hist(&needle) else {
                continue;
            };
            let entries = p.matching(&needle);
            let amax = entries.iter().map(|(_, s)| s.amax).fold(0.0f32, f32::max);
            let total: u64 = hist.iter().sum::<u64>().max(1);
            let frac_in = |lo: i32, hi: i32| {
                let lo_i = (lo - TensorStats::LOG2_LO) as usize;
                let hi_i = (hi - TensorStats::LOG2_LO) as usize;
                hist[lo_i..=hi_i].iter().sum::<u64>() as f64 / total as f64
            };
            let quantile = |q: f64| {
                let target = (q * total as f64).ceil() as u64;
                let mut acc = 0u64;
                for (i, &c) in hist.iter().enumerate() {
                    acc += c;
                    if acc >= target.max(1) {
                        return i as i32 + TensorStats::LOG2_LO;
                    }
                }
                31
            };
            table.row(&[
                cfg.name.into(),
                format!("{l}"),
                format!("{amax:.1}"),
                format!("2^{}", quantile(0.5)),
                format!("2^{}", quantile(0.99)),
                format!("{:.1}%", 100.0 * frac_in(-4, 3)),
                format!("{:.1}%", 100.0 * frac_in(-12, 11)),
            ]);
        }
    }

    table.print();
    table
        .write_json(&opts.out_dir, "fig06_activation_dist")
        .expect("write results");
}
