//! Prepared frozen weights against the per-call cut they replace.
//!
//! A frozen parameter's GEMM cut is taken once per forward quantizer and
//! memoized on its `ParamStore` entry; a `TrainMode::Full` forward still
//! cuts every parameter on its own tape, so it is the reference. These
//! tests pin the two bit for bit (logits, health report, traced quant
//! sites, probe records) and pin the memo's invalidation rule: a write
//! through `get_mut`/`insert` drops that entry's cuts, clones share a memo
//! only while they share the value, and a restored snapshot serves its own
//! cuts.

use qt_autograd::Tape;
use qt_datagen::AsrTask;
use qt_quant::{ElemFormat, FakeQuant, FusionLevel, OpSet, QuantScheme};
use qt_robust::{corrupt_model, BitFlipInjector, CodeFormat};
use qt_tensor::{Tensor, TensorStats};
use qt_trace::{QuantSite, TraceSession};
use qt_train::greedy_decode;
use qt_transformer::{
    LoraConfig, Model, ProbeStore, QuantCtx, TaskHead, TensorHealth, TokenBatch, TrainMode,
    TransformerConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Everything one forward pass exposes about its quantization.
#[derive(Debug)]
struct Observed {
    logits: Vec<u32>,
    health: Vec<(String, TensorHealth)>,
    sites: BTreeMap<String, QuantSite>,
    probe: Vec<(String, TensorStats)>,
}

/// Equal when every field prints alike: corrupted weights put NaN into
/// probe stats and site amaxes, and a NaN must match a NaN here.
impl PartialEq for Observed {
    fn eq(&self, other: &Self) -> bool {
        format!("{self:?}") == format!("{other:?}")
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn schemes() -> Vec<(&'static str, QuantScheme)> {
    vec![
        ("fp32", QuantScheme::fp32()),
        ("bf16", QuantScheme::bf16()),
        ("posit8", QuantScheme::posit8()),
        ("posit8_approx", QuantScheme::posit8_approx()),
        ("fp8", QuantScheme::fp8()),
        ("P8E1", QuantScheme::uniform(ElemFormat::P8E1)),
        ("E4M3", QuantScheme::uniform(ElemFormat::E4M3)),
    ]
}

struct Case {
    model: Model,
    batch: TokenBatch,
    dec: Option<TokenBatch>,
}

fn batch(cfg: &TransformerConfig, b: usize, s: usize, rng: &mut StdRng) -> TokenBatch {
    let ids = (0..b * s).map(|_| rng.gen_range(0..cfg.vocab)).collect();
    TokenBatch::dense(ids, b, s)
}

/// Encoder (stacked FFNs, span head), decoder (tied LM head) and
/// encoder-decoder (tied LM head) models, each with a small input.
fn cases() -> Vec<(&'static str, Case)> {
    let mut rng = StdRng::seed_from_u64(17);
    let mut out = Vec::new();
    for (name, cfg, head) in [
        (
            "encoder",
            TransformerConfig::mobilebert_tiny_sim(),
            TaskHead::Span,
        ),
        (
            "decoder",
            TransformerConfig::gpt2_large_sim(),
            TaskHead::LmTied,
        ),
        (
            "encdec",
            TransformerConfig::whisper_tiny_sim(),
            TaskHead::LmTied,
        ),
    ] {
        let model = Model::new(cfg.clone(), head, &mut rng);
        let b = batch(&cfg, 2, 5, &mut rng);
        let dec = (name == "encdec").then(|| batch(&cfg, 2, 3, &mut rng));
        out.push((
            name,
            Case {
                model,
                batch: b,
                dec,
            },
        ));
    }
    out
}

/// One forward of `model` under a fresh traced, probed context built
/// from `ctx`.
fn observe(model: &Model, case: &Case, ctx: QuantCtx, mode: TrainMode) -> Observed {
    let session = TraceSession::new("prepared").handle();
    let probe = Rc::new(RefCell::new(ProbeStore::new()));
    let ctx = ctx
        .with_trace(Rc::clone(&session))
        .with_probe(Rc::clone(&probe));
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &ctx, &case.batch, case.dec.as_ref(), mode);
    let logits = bits(tape.value(out.logits));
    let sites = session.borrow().quant_sites().clone();
    let probe = probe.borrow().entries().to_vec();
    Observed {
        logits,
        health: ctx.health_report(),
        sites,
        probe,
    }
}

fn frozen(model: &Model, case: &Case, scheme: QuantScheme) -> Observed {
    observe(model, case, QuantCtx::inference(scheme), TrainMode::Frozen)
}

/// The reference: every parameter trainable, so every weight is cut on
/// the pass's own tape.
fn per_call(model: &Model, case: &Case, scheme: QuantScheme) -> Observed {
    observe(model, case, QuantCtx::inference(scheme), TrainMode::Full)
}

fn fq(scheme: QuantScheme) -> FakeQuant {
    FakeQuant::with_guard(scheme.fwd, scheme.underflow, scheme.nonfinite)
}

#[test]
fn frozen_forward_matches_the_per_call_cut_everywhere() {
    for (model_name, case) in cases() {
        for (scheme_name, scheme) in schemes() {
            for fusion in FusionLevel::ALL {
                let scheme = scheme.with_fusion(fusion);
                let reference = per_call(&case.model, &case, scheme);
                assert!(!reference.probe.is_empty());
                assert_eq!(reference.sites.is_empty(), scheme_name == "fp32");
                // First pass fills the memo, second reads it.
                for pass in ["fill", "hit"] {
                    let got = frozen(&case.model, &case, scheme);
                    assert!(
                        got == reference,
                        "{model_name} {scheme_name} {fusion:?} ({pass}): frozen forward \
                         diverged from the per-call cut"
                    );
                }
            }
        }
    }
}

#[test]
fn an_ops_override_without_gemm_reads_raw_weights() {
    let (_, case) = cases().remove(0);
    let ops = OpSet {
        gemm: false,
        ..OpSet::from_fusion(FusionLevel::None)
    };
    let scheme = QuantScheme::posit8().with_ops(ops);
    let got = frozen(&case.model, &case, scheme);
    assert_eq!(got, per_call(&case.model, &case, scheme));
    assert!(got.health.iter().all(|(site, _)| !site.ends_with(".wq")));
}

#[test]
fn lora_step_matches_the_per_call_cut_of_its_frozen_base() {
    // Under a training context, LoRA mode reads W0's memoized cut while
    // Full mode cuts W0 on the tape: forward values and the adapters'
    // gradients must agree bit for bit.
    let mut rng = StdRng::seed_from_u64(23);
    let cfg = TransformerConfig::bert_base_sim();
    let mut model = Model::new(cfg.clone(), TaskHead::Classify(2), &mut rng);
    model.add_lora(LoraConfig::roberta_default(), &mut rng);
    // Non-zero B so the merge actually moves W0.
    for name in model.params.names() {
        if name.ends_with(".lora_b") {
            model.params.get_mut(&name).map_inplace(|_| 0.01);
        }
    }
    let batch = batch(&cfg, 2, 4, &mut rng);
    for scheme in [QuantScheme::posit8(), QuantScheme::fp8()] {
        let grads = |mode| {
            let ctx = QuantCtx::training(scheme);
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &ctx, &batch, None, mode);
            let logits = bits(tape.value(out.logits));
            let loss = tape.cross_entropy(out.logits, &[0, 1]);
            let g = tape.backward(loss);
            let adapters: BTreeMap<String, Vec<u32>> = out
                .param_vars
                .iter()
                .filter(|(n, _)| n.contains(".lora_"))
                .map(|(n, v)| (n.clone(), bits(g.get(*v).expect("adapter grad"))))
                .collect();
            let forward_health: Vec<_> = ctx
                .health_report()
                .into_iter()
                .filter(|(site, _)| !site.ends_with(".grad") || site.contains(".lora_"))
                .collect();
            (logits, adapters, forward_health)
        };
        let lora = grads(TrainMode::Lora);
        assert!(!lora.1.is_empty());
        for pass in 0..2 {
            assert_eq!(grads(TrainMode::Lora), lora, "pass {pass}");
        }
        assert_eq!(grads(TrainMode::Full), lora);
    }
}

#[test]
fn greedy_decode_reuses_the_memo_and_matches_a_fresh_model() {
    let cfg = TransformerConfig::whisper_small_sim();
    let task = AsrTask::new(cfg.vocab, 10, 6);
    let examples = task.dataset(4, 3);
    let (enc, _, _) = task.batch(&examples);
    for scheme in [QuantScheme::posit8_approx(), QuantScheme::fp8()] {
        let build = || Model::new(cfg.clone(), TaskHead::LmTied, &mut StdRng::seed_from_u64(5));
        let warm = build();
        let ctx = QuantCtx::inference(scheme);
        let first = greedy_decode(&warm, &ctx, &enc, task.max_words);
        let health_once = ctx.health_report();
        let second = greedy_decode(&warm, &ctx, &enc, task.max_words);
        let fresh = greedy_decode(&build(), &QuantCtx::inference(scheme), &enc, task.max_words);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        // The shared context saw every site twice, with the same health.
        for ((site, once), (site2, twice)) in health_once.iter().zip(ctx.health_report()) {
            assert_eq!(site, &site2);
            let mut doubled = *once;
            doubled.merge(once);
            assert_eq!(doubled, twice, "{site}");
        }
    }
}

#[test]
fn repeat_lookups_share_one_cut() {
    let (_, case) = cases().remove(1);
    let scheme = QuantScheme::posit8();
    let name = "dec.0.attn.wq";
    let a = case.model.params.prepared(name, &fq(scheme));
    let b = case.model.params.prepared(name, &fq(scheme));
    assert!(Arc::ptr_eq(&a.value, &b.value));
    let (v, h) = fq(scheme).quantize_with_health(case.model.params.get(name));
    assert_eq!(bits(&a.value), bits(&v));
    assert_eq!(a.health, h);
    assert_eq!(a.amax, case.model.params.get(name).amax());
    // A forward reads that same cut.
    let _ = frozen(&case.model, &case, scheme);
    let c = case.model.params.prepared(name, &fq(scheme));
    assert!(Arc::ptr_eq(&a.value, &c.value));
}

#[test]
fn each_forward_quantizer_keeps_its_own_memo_entry() {
    let (_, case) = cases().remove(1);
    let (bf16, p8) = (QuantScheme::bf16(), QuantScheme::uniform(ElemFormat::P8E1));
    let name = "dec.1.ffn0.w1";
    let ref_bf16 = per_call(&case.model, &case, bf16);
    let ref_p8 = per_call(&case.model, &case, p8);
    assert_ne!(ref_bf16.logits, ref_p8.logits);
    assert_eq!(frozen(&case.model, &case, bf16), ref_bf16);
    let bf16_cut = case.model.params.prepared(name, &fq(bf16));
    assert_eq!(frozen(&case.model, &case, p8), ref_p8);
    let p8_cut = case.model.params.prepared(name, &fq(p8));
    assert!(!Arc::ptr_eq(&bf16_cut.value, &p8_cut.value));
    assert_ne!(bits(&bf16_cut.value), bits(&p8_cut.value));
    // Filling the P8E1 entry left the BF16 entry in place.
    let again = case.model.params.prepared(name, &fq(bf16));
    assert!(Arc::ptr_eq(&bf16_cut.value, &again.value));
    assert_eq!(frozen(&case.model, &case, bf16), ref_bf16);
}

#[test]
fn get_mut_and_insert_drop_the_memo() {
    let scheme = QuantScheme::posit8();
    for (model_name, mut case) in cases() {
        let before = frozen(&case.model, &case, scheme); // memo filled
        let name = match model_name {
            "encoder" => "enc.0.ffn1.w2",
            _ => "embed.tok", // tied LM head: the memo serves `embed.tok.lm`
        };
        case.model
            .params
            .get_mut(name)
            .map_inplace(|x| x * 1.5 + 0.01);
        let after = frozen(&case.model, &case, scheme);
        assert_ne!(
            after.logits, before.logits,
            "{model_name}: the write must matter"
        );
        assert_eq!(
            after,
            per_call(&case.model, &case, scheme),
            "{model_name} get_mut"
        );

        let shape = case.model.params.get(name).shape().to_vec();
        let n: usize = shape.iter().product();
        let t = Tensor::from_vec(
            (0..n).map(|i| (i % 7) as f32 * 0.05 - 0.15).collect(),
            &shape,
        );
        case.model.params.insert(name, t);
        let inserted = frozen(&case.model, &case, scheme);
        assert_ne!(
            inserted.logits, after.logits,
            "{model_name}: the insert must matter"
        );
        assert_eq!(
            inserted,
            per_call(&case.model, &case, scheme),
            "{model_name} insert"
        );
    }
}

#[test]
fn a_corrupted_clone_never_disturbs_the_original() {
    let scheme = QuantScheme::uniform(ElemFormat::P8E1);
    for (model_name, case) in cases() {
        let reference = per_call(&case.model, &case, scheme);
        let corrupt = |m: &Model| {
            let mut inj = BitFlipInjector::new(99);
            let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
            corrupt_model(m, codec, 1e-3, &mut inj).0
        };

        // Original warm first: the clone inherits filled memos, then
        // every corrupted tensor replaces its entry.
        let warm = frozen(&case.model, &case, scheme);
        assert_eq!(warm, reference, "{model_name}");
        let bad = corrupt(&case.model);
        let bad_reference = per_call(&bad, &case, scheme);
        assert_ne!(
            bad_reference.logits, reference.logits,
            "{model_name}: flips must matter"
        );
        assert_eq!(
            frozen(&bad, &case, scheme),
            bad_reference,
            "{model_name} clone"
        );
        assert_eq!(
            frozen(&case.model, &case, scheme),
            reference,
            "{model_name} original"
        );

        // Clone first: the corrupted model fills its memos before the
        // (cold) original reads its own.
        let cold = cases()
            .into_iter()
            .find(|(n, _)| *n == model_name)
            .unwrap()
            .1;
        let bad = corrupt(&cold.model);
        assert_eq!(
            frozen(&bad, &cold, scheme),
            bad_reference,
            "{model_name} clone first"
        );
        assert_eq!(
            frozen(&cold.model, &cold, scheme),
            reference,
            "{model_name} original after"
        );
    }
}

#[test]
fn a_clone_written_through_get_mut_keeps_the_original_memo() {
    let (_, case) = cases().remove(0);
    let scheme = QuantScheme::fp8();
    let name = "enc.1.attn.wv";
    let reference = frozen(&case.model, &case, scheme);
    let cut = case.model.params.prepared(name, &fq(scheme));
    let mut clone = case.model.clone();
    assert!(Arc::ptr_eq(
        &clone.params.prepared(name, &fq(scheme)).value,
        &cut.value
    ));
    clone.params.get_mut(name).map_inplace(|x| -x);
    assert!(!Arc::ptr_eq(
        &clone.params.prepared(name, &fq(scheme)).value,
        &cut.value
    ));
    assert_eq!(
        frozen(&clone, &case, scheme),
        per_call(&clone, &case, scheme)
    );
    assert!(Arc::ptr_eq(
        &case.model.params.prepared(name, &fq(scheme)).value,
        &cut.value
    ));
    assert_eq!(frozen(&case.model, &case, scheme), reference);
}

#[test]
fn a_restored_snapshot_serves_its_own_cuts() {
    let scheme = QuantScheme::posit8_approx();
    let (_, mut case) = cases().remove(2);
    let name = "dec.0.xattn.wk";
    let before = frozen(&case.model, &case, scheme);
    let snap = case.model.params.clone(); // as `Trainer` snapshots
    let snap_cut = snap.prepared(name, &fq(scheme));
    for n in case.model.params.names() {
        case.model.params.get_mut(&n).map_inplace(|x| x * 0.75);
    }
    let moved = frozen(&case.model, &case, scheme);
    assert_ne!(moved.logits, before.logits);
    assert_eq!(moved, per_call(&case.model, &case, scheme));
    case.model.params = snap.clone(); // as `Trainer` rolls back
    assert_eq!(frozen(&case.model, &case, scheme), before);
    let restored = case.model.params.prepared(name, &fq(scheme));
    assert!(Arc::ptr_eq(&restored.value, &snap_cut.value));
}
