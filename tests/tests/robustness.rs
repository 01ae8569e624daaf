//! Robustness integration: numerical-health counters surfaced through the
//! quantization context during real inference, non-finite guard policies
//! containing NaN-poisoned weights, dynamic loss scaling riding out
//! injected gradient overflow, the seeded fault campaign end-to-end, and
//! the serving fault sources' reads against the offline corruptor.

use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::{ElemFormat, NonFinitePolicy, QuantScheme, ScalingMode};
use qt_robust::{
    cell_seed, corrupt_model, run_campaign, BerFaultSource, BitFlipInjector, BurstFaultSource,
    CampaignConfig, CodeFormat, FaultSource,
};
use qt_train::{evaluate_classify, AdamW, LossScaler, Trainer};
use qt_transformer::{Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

fn tiny_cfg() -> TransformerConfig {
    let mut cfg = TransformerConfig::mobilebert_tiny_sim();
    cfg.layers = 1;
    cfg
}

fn eval_batches(
    task: &ClassifyTask,
    n: usize,
    seed: u64,
) -> Vec<(qt_transformer::TokenBatch, Vec<usize>)> {
    task.dataset(n, seed)
        .chunks(16)
        .map(|c| task.batch(c))
        .collect()
}

#[test]
fn qctx_health_counters_observable_during_inference() {
    let cfg = tiny_cfg();
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
    let mut rng = StdRng::seed_from_u64(21);
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    let ctx = QuantCtx::inference(QuantScheme::posit8());

    let _ = evaluate_classify(&model, &ctx, &eval_batches(&task, 32, 5));

    let report = ctx.health_report();
    assert!(!report.is_empty(), "quantized cuts must record health");
    let total = ctx.health_total();
    assert!(total.elements > 0);
    assert_eq!(
        total.elements,
        report.iter().map(|(_, h)| h.elements).sum::<u64>()
    );
    // A fresh random model on finite data has no non-finite traffic.
    assert_eq!(total.nonfinite_in, 0);
    assert_eq!(total.nonfinite_out, 0);
    // Per-site lookup mirrors the report.
    let (site, h) = &report[0];
    assert_eq!(ctx.health_of(site), Some(*h));

    ctx.reset_health();
    assert_eq!(ctx.health_total().elements, 0);
}

#[test]
fn nonfinite_guard_contains_nan_poisoned_weights() {
    let cfg = tiny_cfg();
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
    let mut rng = StdRng::seed_from_u64(22);
    let mut model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    // Poison one early weight: NaN reaches the quantization cuts.
    let name = model
        .params
        .names()
        .into_iter()
        .find(|n| n.ends_with(".w"))
        .expect("model has a weight matrix");
    model.params.get_mut(&name).data_mut()[0] = f32::NAN;
    let batches = eval_batches(&task, 32, 6);

    // Propagating scheme observes the poison at the cuts.
    let ctx = QuantCtx::inference(QuantScheme::posit8());
    let _ = evaluate_classify(&model, &ctx, &batches);
    assert!(
        ctx.health_total().nonfinite_in > 0,
        "NaN weights must show up in the health counters"
    );

    // A saturating guard still observes it, but clamps the poison so the
    // quantized values leaving every cut are finite.
    let guarded =
        QuantCtx::inference(QuantScheme::posit8().with_nonfinite(NonFinitePolicy::Saturate));
    let acc = evaluate_classify(&model, &guarded, &batches);
    let total = guarded.health_total();
    assert!(total.nonfinite_in > 0);
    assert_eq!(
        total.nonfinite_out, 0,
        "saturating guard must emit only finite quantized values"
    );
    assert!((0.0..=100.0).contains(&acc));
}

#[test]
fn dynamic_scaling_completes_where_static_scale_diverges() {
    // Injected overflow: an infinite static loss scale makes every
    // backward non-finite, so a plain trainer never applies a step.
    let cfg = tiny_cfg();
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
    let data = task.dataset(12 * 8, 7);
    let scheme = QuantScheme::posit8().with_scaling(ScalingMode::LossScale(f32::INFINITY));

    let run = |scaler: Option<LossScaler>| {
        let mut rng = StdRng::seed_from_u64(23);
        let model = Model::new(tiny_cfg(), TaskHead::Classify(2), &mut rng);
        let mut trainer = Trainer::new(
            model,
            QuantCtx::training(scheme),
            TrainMode::Full,
            AdamW::new(3e-3),
        );
        if let Some(s) = scaler {
            trainer = trainer.with_dynamic_scaling(s);
        }
        for chunk in data.chunks(8) {
            let (batch, labels) = task.batch(chunk);
            trainer.step_classify(&batch, &labels);
        }
        (trainer.steps(), trainer.skipped())
    };

    let (static_steps, static_skipped) = run(None);
    assert_eq!(static_steps, 0, "static infinite scale must diverge");
    assert!(static_skipped > 0);

    let (dyn_steps, dyn_skipped) = run(Some(
        LossScaler::new(f32::INFINITY).with_backoff(1.0 / 65536.0),
    ));
    assert!(
        dyn_skipped > 0,
        "dynamic scaler must first hit the overflow"
    );
    assert!(
        dyn_steps > 0,
        "dynamic scaler must back off and complete the run"
    );
}

#[test]
fn seeded_fault_campaign_reproduces_through_full_inference() {
    let cfg = tiny_cfg();
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
    let mut rng = StdRng::seed_from_u64(24);
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    let batches = eval_batches(&task, 32, 8);

    let campaign = CampaignConfig {
        seed: 1234,
        formats: vec![ElemFormat::P8E1, ElemFormat::E5M2],
        flip_rates: vec![2e-3],
        trials: 2,
    };
    let eval = |m: &Model, fmt: ElemFormat| {
        let ctx = QuantCtx::inference(
            QuantScheme::uniform(fmt).with_nonfinite(NonFinitePolicy::Saturate),
        );
        evaluate_classify(m, &ctx, &batches)
    };
    let a = run_campaign(&campaign, &model, eval);
    let b = run_campaign(&campaign, &model, eval);
    assert_eq!(a, b, "same seed must reproduce the full table");
    assert_eq!(a.len(), 2);
    for cell in &a {
        assert!(cell.report.bits_flipped > 0);
        assert!((0.0..=100.0).contains(&cell.corrupted));
    }

    // The injector reports which corrupted words a free non-finite check
    // catches; recompute one cell by hand to cross-check the plumbing.
    let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
    let mut inj = BitFlipInjector::new(77);
    let t = model.params.get(&model.params.names()[0]).clone();
    let (_, r1) = inj.corrupt_tensor(&t, codec, 2e-3);
    let mut inj2 = BitFlipInjector::new(77);
    let (_, r2) = inj2.corrupt_tensor(&t, codec, 2e-3);
    assert_eq!(r1, r2);
}

/// Every read of `src` matches the offline corruptor on the same request
/// stream: `None` exactly when [`corrupt_model`] flips no bit, otherwise the
/// same tensors bit for bit and an equal report. Returns how many reads
/// were (clean, faulted).
fn assert_reads_match_corrupt_model(
    model: &Model,
    src: &dyn FaultSource,
    seed: u64,
    codec: CodeFormat,
    ber_of: impl Fn(u64) -> f64,
) -> (usize, usize) {
    let bits = |m: &Model, name: &str| -> Vec<u32> {
        m.params
            .get(name)
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    let (mut clean, mut faulted) = (0, 0);
    for request in 0..24u64 {
        for attempt in 0..2u32 {
            // The per-(request, attempt) stream a fault source reads with.
            let stream = cell_seed(seed, request as usize, attempt as usize, 0);
            let mut inj = BitFlipInjector::new(stream);
            let (want, want_report) = corrupt_model(model, codec, ber_of(request), &mut inj);
            match src.corrupt_for_request(model, request, attempt) {
                None => {
                    assert_eq!(want_report.bits_flipped, 0, "request {request}/{attempt}");
                    clean += 1;
                }
                Some((got, got_report)) => {
                    assert!(want_report.bits_flipped > 0, "request {request}/{attempt}");
                    assert_eq!(got_report, want_report, "request {request}/{attempt}");
                    for name in model.params.names() {
                        assert_eq!(bits(&got, &name), bits(&want, &name), "{name}");
                    }
                    faulted += 1;
                }
            }
        }
    }
    (clean, faulted)
}

#[test]
fn fault_source_reads_match_corrupt_model() {
    let mut rng = StdRng::seed_from_u64(31);
    let model = Model::new(tiny_cfg(), TaskHead::Classify(2), &mut rng);
    let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
    let seed = 7;

    // At 1e-6 some reads of the tiny model are clean and some are not.
    let (clean, faulted) = assert_reads_match_corrupt_model(
        &model,
        &BerFaultSource::new(seed, codec, 1e-6),
        seed,
        codec,
        |_| 1e-6,
    );
    assert!(clean > 0 && faulted > 0, "{clean} clean, {faulted} faulted");
    let (clean, _) = assert_reads_match_corrupt_model(
        &model,
        &BerFaultSource::new(seed, codec, 1e-2),
        seed,
        codec,
        |_| 1e-2,
    );
    assert_eq!(clean, 0);

    // A burst at 1e-2 over requests 8..16 on a 1e-6 base.
    let burst = BurstFaultSource::new(BerFaultSource::new(seed, codec, 1e-6), 1e-2, 8..16);
    let (clean, faulted) = assert_reads_match_corrupt_model(&model, &burst, seed, codec, |r| {
        if (8..16).contains(&r) {
            1e-2
        } else {
            1e-6
        }
    });
    assert!(
        clean > 0 && faulted >= 16,
        "{clean} clean, {faulted} faulted"
    );
}
