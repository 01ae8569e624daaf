//! Incremental (key/value-cached) greedy decode against the padded
//! full-recompute decode it replaced: bitwise-equal logits at every step,
//! the same emitted tokens, causality where the additive mask leaks, and
//! the trace/cancellation contracts of the decode path.

use qt_autograd::Tape;
use qt_datagen::{tokens, AsrTask};
use qt_posit::approx::ExpApprox;
use qt_quant::{ElemFormat, FusionLevel, QuantScheme, SoftmaxKind};
use qt_tensor::Tensor;
use qt_trace::{CycleModel, GemmCost, TraceSession};
use qt_train::greedy_decode;
use qt_transformer::{
    CancelToken, Model, QuantCtx, TaskHead, TokenBatch, TrainMode, TransformerConfig,
};
use rand::{rngs::StdRng, SeedableRng};
use std::rc::Rc;

const MAX_LEN: usize = 6;

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |acc, (i, &x)| {
            if x > acc.1 {
                (i, x)
            } else {
                acc
            }
        })
        .0
}

/// Per step, the logits row of every row still decoding: `(row, logits)`.
type StepRows = Vec<Vec<(usize, Vec<f32>)>>;

/// The padded full-recompute decode: every step re-runs the encoder and
/// the whole `max_len + 2`-position decoder and reads row `step`.
fn padded_decode(model: &Model, qctx: &QuantCtx, enc: &TokenBatch) -> (Vec<Vec<usize>>, StepRows) {
    let (b, v, dec_len) = (enc.batch, model.cfg.vocab, MAX_LEN + 2);
    let mut generated: Vec<Vec<usize>> = vec![Vec::new(); b];
    let mut done = vec![false; b];
    let mut steps = Vec::new();
    for step in 0..MAX_LEN {
        let mut ids = Vec::with_capacity(b * dec_len);
        let mut valid = Vec::with_capacity(b * dec_len);
        for g in &generated {
            ids.push(tokens::BOS);
            ids.extend_from_slice(g);
            ids.resize(ids.len() + dec_len - 1 - g.len(), tokens::PAD);
            let mut ok = vec![true; 1 + g.len()];
            ok.resize(dec_len, false);
            valid.extend_from_slice(&ok);
        }
        let dec = TokenBatch::with_mask(ids, b, dec_len, valid);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, qctx, enc, Some(&dec), TrainMode::Frozen);
        let logits = tape.value(out.logits);
        let mut rows = Vec::new();
        for bi in 0..b {
            if done[bi] {
                continue;
            }
            let at = (bi * dec_len + step) * v;
            let row = logits.data()[at..at + v].to_vec();
            match argmax(&row) {
                tokens::EOS => done[bi] = true,
                tok => generated[bi].push(tok),
            }
            rows.push((bi, row));
        }
        steps.push(rows);
        if done.iter().all(|&d| d) {
            break;
        }
    }
    (generated, steps)
}

fn encoder_batch(cfg: &TransformerConfig, seed: u64) -> TokenBatch {
    let task = AsrTask::new(cfg.vocab, 12, MAX_LEN);
    task.batch(&task.dataset(3, seed)).0
}

fn schemes() -> Vec<QuantScheme> {
    let mut all = vec![
        QuantScheme::fp32(),
        QuantScheme::bf16(),
        QuantScheme::posit8(),
        QuantScheme::posit8_approx(),
        QuantScheme::fp8(),
    ];
    for fmt in [ElemFormat::P8E1, ElemFormat::P8E2, ElemFormat::E4M3] {
        for level in FusionLevel::ALL {
            all.push(QuantScheme::uniform(fmt).with_fusion(level));
        }
    }
    all
}

/// Every scheme of [`schemes`] on a random-init `cfg`: at each step the
/// cached logits equal row `step` of the padded pass bit for bit, and
/// `greedy_decode` emits the padded decode's tokens.
fn assert_cached_matches_padded(cfg: TransformerConfig, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
    let enc = encoder_batch(&cfg, seed);
    let v = cfg.vocab;
    for scheme in schemes() {
        let what = format!("{} {}", cfg.name, scheme.describe());
        let qctx = QuantCtx::inference(scheme);
        let (oracle_out, oracle_steps) = padded_decode(&model, &qctx, &enc);

        // Replay the oracle's tokens through the cache, step by step.
        let mut state = model.try_encode(&qctx, &enc).expect("no token attached");
        let mut last = vec![tokens::BOS; enc.batch];
        for (step, rows) in oracle_steps.iter().enumerate() {
            let logits = model
                .try_decode_step(&qctx, &mut state, &last)
                .expect("no token attached");
            assert_eq!(logits.shape(), &[enc.batch, 1, v]);
            for (bi, want) in rows {
                let got = &logits.data()[bi * v..(bi + 1) * v];
                for (j, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{what}: step {step} row {bi} logit {j}: cached {g} vs padded {w}"
                    );
                }
                if let Some(&tok) = oracle_out[*bi].get(step) {
                    last[*bi] = tok;
                }
            }
        }
        assert_eq!(
            greedy_decode(&model, &qctx, &enc, MAX_LEN),
            oracle_out,
            "{what}"
        );
    }
}

#[test]
fn cached_decode_matches_padded_recompute_bitwise_tiny() {
    assert_cached_matches_padded(TransformerConfig::whisper_tiny_sim(), 40);
}

#[test]
fn cached_decode_matches_padded_recompute_bitwise_small() {
    assert_cached_matches_padded(TransformerConfig::whisper_small_sim(), 41);
}

#[test]
fn cached_decode_matches_padded_recompute_bitwise_large() {
    assert_cached_matches_padded(TransformerConfig::whisper_large_sim(), 42);
}

/// With the raw (unthresholded) approximate exponential, masked scores
/// still get weight, so in a teacher-forced pass a later token moves the
/// logits of earlier positions. The cached decode computes position `t`
/// before any later token exists, so it cannot.
#[test]
fn cached_decode_is_causal_where_the_additive_mask_leaks() {
    let cfg = TransformerConfig::whisper_tiny_sim();
    let mut rng = StdRng::seed_from_u64(5);
    let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
    let enc = encoder_batch(&cfg, 11);
    let b = enc.batch;
    let scheme = QuantScheme::posit8().with_softmax(SoftmaxKind::PositApprox {
        approx_exp: true,
        approx_recip: false,
        exp: ExpApprox::raw(),
    });
    let qctx = QuantCtx::inference(scheme);
    let seq = 5;
    let prefix: Vec<usize> = (0..seq - 1).map(|p| 4 + p).collect();
    let dec_ids = |last: usize| -> Vec<usize> {
        (0..b)
            .flat_map(|_| prefix.iter().copied().chain([last]))
            .collect()
    };
    let (a, z) = (dec_ids(10), dec_ids(11));
    let v = cfg.vocab;
    let earlier = |l: &Tensor| -> Vec<u32> {
        let mut out = Vec::new();
        for bi in 0..b {
            let at = bi * seq * v;
            out.extend(l.data()[at..at + (seq - 1) * v].iter().map(|x| x.to_bits()));
        }
        out
    };

    let padded = |ids: Vec<usize>| {
        let dec = TokenBatch::dense(ids, b, seq);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &qctx, &enc, Some(&dec), TrainMode::Frozen);
        tape.value(out.logits).clone()
    };
    assert_ne!(
        earlier(&padded(a.clone())),
        earlier(&padded(z.clone())),
        "the additive mask should leak under the raw exponential"
    );

    let cached = |ids: Vec<usize>| {
        let mut state = model.try_encode(&qctx, &enc).expect("no token attached");
        let steps: Vec<Tensor> = (0..seq)
            .map(|p| {
                let col: Vec<usize> = (0..b).map(|bi| ids[bi * seq + p]).collect();
                model
                    .try_decode_step(&qctx, &mut state, &col)
                    .expect("no token attached")
            })
            .collect();
        // [B, 1, V] per step -> [B, S, V]
        let parts: Vec<&Tensor> = steps.iter().collect();
        Tensor::concat_lastdim(&parts).reshape(&[b, seq, v])
    };
    let (ca, cz) = (cached(a), cached(z));
    assert_eq!(
        earlier(&ca),
        earlier(&cz),
        "cached decode leaked a later token"
    );
    assert_ne!(
        ca.data(),
        cz.data(),
        "the last position must see its own token"
    );
}

struct FlatCost;

impl CycleModel for FlatCost {
    fn gemm_cost(&self, m: u64, k: u64, n: u64) -> GemmCost {
        GemmCost {
            cycles: m * k * n,
            macs: m * k * n,
            active_cycles: m * k * n,
            sram_bytes: 0,
        }
    }
    fn softmax_cycles(&self, rows: u64, width: u64) -> u64 {
        rows * width
    }
}

#[test]
fn traced_decode_runs_the_encoder_once_and_one_head_per_step() {
    let cfg = TransformerConfig::whisper_small_sim();
    let mut rng = StdRng::seed_from_u64(3);
    let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
    let enc = encoder_batch(&cfg, 3);
    let session = TraceSession::new("decode").handle();
    let qctx = QuantCtx::inference(QuantScheme::posit8_approx())
        .with_trace(Rc::clone(&session))
        .with_cycle_model(Rc::new(FlatCost));
    let out = greedy_decode(&model, &qctx, &enc, MAX_LEN);
    // This seed's random model never emits EOS: every row runs full length.
    assert!(out.iter().all(|o| o.len() == MAX_LEN), "{out:?}");

    let sess = session.borrow();
    assert_eq!(sess.open_spans(), 0, "all spans closed");
    let records = sess.records();
    let count = |cat: &str, name: &str| {
        records
            .iter()
            .filter(|r| r.cat == cat && (name.is_empty() || r.name == name))
            .count()
    };
    assert_eq!(count("block", "enc.0"), 1, "one encoder pass per call");
    assert_eq!(count("head", ""), MAX_LEN, "one head per decoder step");
    assert_eq!(count("block", "dec.0"), MAX_LEN);
    assert_eq!(count("embed", ""), 1 + MAX_LEN);
    // Roots are exactly the forward's embed/block/head spans.
    for r in records.iter().filter(|r| r.parent.is_none()) {
        assert!(
            matches!(r.cat.as_str(), "embed" | "block" | "head"),
            "{}",
            r.cat
        );
    }
    // GEMM spans at the real shapes: one query row per step.
    let b = enc.batch as u64;
    let nh = cfg.heads as u64;
    let scores = &sess.gemm_sites()["dec.0.attn.scores"];
    assert_eq!(scores.count, MAX_LEN as u64);
    let dh = cfg.head_dim() as u64;
    let kv_positions: u64 = (1..=MAX_LEN as u64).sum();
    assert_eq!(scores.macs, b * nh * dh * kv_positions);
    // Cross-attention K/V are projected once per call.
    assert_eq!(sess.gemm_sites()["dec.0.xattn.k"].count, 1);
    assert_eq!(sess.gemm_sites()["dec.0.xattn.q"].count, MAX_LEN as u64);
}

#[test]
fn decode_charges_encoder_once_and_decoder_per_step() {
    let cfg = TransformerConfig::whisper_tiny_sim();
    let mut rng = StdRng::seed_from_u64(9);
    let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
    let enc = encoder_batch(&cfg, 2);
    let layers = cfg.layers as u64;
    let steps = 3u64;
    let run = |budget: u64| {
        let token = CancelToken::with_block_budget(budget);
        let qctx = QuantCtx::inference(QuantScheme::posit8()).with_cancel(token.clone());
        let mut state = model.try_encode(&qctx, &enc)?;
        for _ in 0..steps {
            model.try_decode_step(&qctx, &mut state, &vec![tokens::BOS; enc.batch])?;
        }
        Ok::<_, qt_transformer::ForwardCancelled>(token.blocks_used())
    };
    assert_eq!(run(layers + steps * layers), Ok(layers + steps * layers));
    let err = run(layers + steps * layers - 1).unwrap_err();
    assert_eq!(err.blocks_completed, layers + steps * layers - 1);
    let err = run(layers - 1).unwrap_err();
    assert_eq!(err.blocks_completed, layers - 1);
}
