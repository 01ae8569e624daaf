//! **Figure 10**: tensor value distributions during fine-tuning — weights,
//! activations, and activation gradients — overlaid with the coverage of
//! E4M3 and Posit(8,1).
//!
//! Reproduction target: weights/activations fit inside both formats'
//! ranges, while the activation-gradient distribution falls largely
//! *below* both (hence per-tensor scaling, §5.1).

use qt_bench::{classify_task_for, Opts, Table};
use qt_datagen::ClassifyKind;
use qt_quant::{ElemFormat, QuantScheme, ScalingMode};
use qt_tensor::TensorStats;
use qt_train::{AdamW, Trainer};
use qt_transformer::{Model, ProbeStore, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(60, 12);

    let cfg = TransformerConfig::mobilebert_sim();
    let task = classify_task_for(&cfg, ClassifyKind::Sst2);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let model = Model::new(cfg.clone(), TaskHead::Classify(2), &mut rng);

    // Train briefly in FP32 with a probe attached: the cut sites record
    // activations on the way forward and gradients on the way back.
    let probe = Rc::new(RefCell::new(ProbeStore::new()));
    let scheme = QuantScheme::fp32().with_scaling(ScalingMode::None);
    // bwd must be non-FP32 for the backward hook to fire; use BF16 (lossless
    // at these magnitudes) purely as a recorder.
    let mut scheme = scheme;
    scheme.bwd = ElemFormat::Bf16;
    let qctx = QuantCtx::training(scheme).with_probe(Rc::clone(&probe));
    let mut trainer = Trainer::new(model, qctx, TrainMode::Full, AdamW::new(1e-3));
    let data = task.dataset(steps * 16, opts.seed ^ 0x77);
    for chunk in data.chunks(16).take(steps) {
        let (batch, labels) = task.batch(chunk);
        trainer.step_classify(&batch, &labels);
    }

    // Aggregate three tensor classes.
    let p = probe.borrow();
    let mut classes: Vec<(&str, Vec<u64>)> = Vec::new();
    let acts = p
        .merged_hist_where(|n| n.ends_with(".in") || n.ends_with(".softmax.in"))
        .unwrap_or_default();
    classes.push(("activations", acts));
    classes.push((
        "act gradients",
        p.merged_hist_where(|n| n.ends_with(".grad"))
            .unwrap_or_default(),
    ));
    // weights straight from the model
    let mut whist = vec![0u64; TensorStats::BUCKETS];
    for (name, t) in trainer.model.params.iter() {
        if name.ends_with(".w1") || name.ends_with(".wq") || name.ends_with(".w2") {
            let s = TensorStats::of(t);
            for (h, c) in whist.iter_mut().zip(&s.log2_hist) {
                *h += c;
            }
        }
    }
    classes.insert(0, ("weights", whist));

    let mut table = Table::new(
        "Figure 10: value distributions during fine-tuning vs format coverage",
        &[
            "Tensor class",
            "p1 binade",
            "p50 binade",
            "p99 binade",
            "in E4M3 range",
            "in Posit8 range",
        ],
    );
    let (e4_lo, e4_hi) = ElemFormat::E4M3.exp_range();
    let (p8_lo, p8_hi) = ElemFormat::P8E1.exp_range();
    for (name, hist) in classes {
        let total: u64 = hist.iter().sum::<u64>().max(1);
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
        let frac_in = |lo: i32, hi: i32| {
            let lo_i = (lo - TensorStats::LOG2_LO).clamp(0, 63) as usize;
            let hi_i = (hi - TensorStats::LOG2_LO).clamp(0, 63) as usize;
            hist[lo_i..=hi_i].iter().sum::<u64>() as f64 / total as f64
        };
        table.row(&[
            name.into(),
            format!("2^{}", quantile(0.01)),
            format!("2^{}", quantile(0.5)),
            format!("2^{}", quantile(0.99)),
            format!("{:.1}%", 100.0 * frac_in(e4_lo, e4_hi)),
            format!("{:.1}%", 100.0 * frac_in(p8_lo, p8_hi)),
        ]);
    }

    table.print();
    table
        .write_json(&opts.out_dir, "fig10_grad_dist")
        .expect("write results");
}
