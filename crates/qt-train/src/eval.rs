//! Evaluation loops: span F1, classification accuracy, teacher-forced
//! perplexity, and greedy-decoded WER.

use crate::metrics::{accuracy, span_f1, wer, Perplexity};
use qt_autograd::Tape;
use qt_datagen::{tokens, AsrExample, AsrTask, SpanExample, SpanTask};
use qt_transformer::{Model, QuantCtx, TokenBatch, TrainMode};

/// Evaluate span-extraction F1 (in percent, like the paper's tables).
pub fn evaluate_span_f1(
    model: &Model,
    qctx: &QuantCtx,
    task: &SpanTask,
    examples: &[SpanExample],
    batch_size: usize,
) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for chunk in examples.chunks(batch_size.max(1)) {
        let (batch, gold) = task.batch(chunk);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, qctx, &batch, None, TrainMode::Frozen);
        let logits = tape.value(out.logits); // [B, S, 2]
        for (b, &(gs, ge)) in gold.iter().enumerate() {
            let pred = best_span(logits, &batch, b, task.answer_len);
            total += span_f1(pred, (gs, ge));
            n += 1;
        }
    }
    100.0 * total / n.max(1) as f64
}

/// Argmax start over valid positions, then best end in
/// `[start, start + max_len)`.
fn best_span(
    logits: &qt_tensor::Tensor,
    batch: &TokenBatch,
    b: usize,
    max_len: usize,
) -> (usize, usize) {
    let s = batch.seq;
    let at = |pos: usize, which: usize| logits.at(&[b, pos, which]);
    let mut best_start = 0;
    let mut best = f32::NEG_INFINITY;
    for pos in 0..s {
        if batch.valid[b * s + pos] && at(pos, 0) > best {
            best = at(pos, 0);
            best_start = pos;
        }
    }
    let mut best_end = best_start;
    let mut beste = f32::NEG_INFINITY;
    for pos in best_start..(best_start + max_len.max(1) + 2).min(s) {
        if batch.valid[b * s + pos] && at(pos, 1) > beste {
            beste = at(pos, 1);
            best_end = pos;
        }
    }
    (best_start, best_end)
}

/// Evaluate classification accuracy (percent).
pub fn evaluate_classify(
    model: &Model,
    qctx: &QuantCtx,
    batches: &[(TokenBatch, Vec<usize>)],
) -> f64 {
    let mut preds = Vec::new();
    let mut golds = Vec::new();
    for (batch, labels) in batches {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, qctx, batch, None, TrainMode::Frozen);
        preds.extend(tape.value(out.logits).argmax_lastdim());
        golds.extend_from_slice(labels);
    }
    100.0 * accuracy(&preds, &golds)
}

/// Teacher-forced perplexity of a causal LM over `(batch, targets)` pairs
/// (`usize::MAX` targets ignored).
pub fn evaluate_lm_perplexity(
    model: &Model,
    qctx: &QuantCtx,
    batches: &[(TokenBatch, Vec<usize>)],
) -> f64 {
    let mut ppl = Perplexity::new();
    for (batch, targets) in batches {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, qctx, batch, None, TrainMode::Frozen);
        let logits = tape.value(out.logits); // [B, S, V]
        let v = model.cfg.vocab;
        let ls = logits.log_softmax_lastdim();
        for (row, &t) in targets.iter().enumerate() {
            if t == usize::MAX {
                continue;
            }
            let nll = -(ls.data()[row * v + t] as f64);
            ppl.add(nll, 1);
        }
    }
    ppl.value()
}

/// Greedy autoregressive decode of an encoder-decoder model: returns the
/// generated token sequence (without BOS/EOS) for each encoder row.
///
/// Incremental: the encoder runs once, and step `t` feeds one token per
/// row at position `t` through the decoder's key/value caches
/// ([`Model::try_decode_step`]). A row stops at EOS or after `max_len`
/// tokens, so at most `max_len` decoder steps run.
///
/// # Panics
///
/// Panics if the context's cancellation token aborts the decode.
pub fn greedy_decode(
    model: &Model,
    qctx: &QuantCtx,
    enc: &TokenBatch,
    max_len: usize,
) -> Vec<Vec<usize>> {
    let b = enc.batch;
    let v = model.cfg.vocab;
    let mut generated: Vec<Vec<usize>> = vec![Vec::new(); b];
    let mut done = vec![false; b];
    let mut last = vec![tokens::BOS; b];
    let mut state = model.try_encode(qctx, enc).expect("decode cancelled");
    for _ in 0..max_len {
        let logits = model
            .try_decode_step(qctx, &mut state, &last)
            .expect("decode cancelled"); // [B, 1, V]
        for bi in 0..b {
            if done[bi] {
                continue;
            }
            let row = &logits.data()[bi * v..(bi + 1) * v];
            let (tok, _) =
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |acc, (i, &x)| {
                        if x > acc.1 {
                            (i, x)
                        } else {
                            acc
                        }
                    });
            if tok == tokens::EOS {
                done[bi] = true;
            } else {
                generated[bi].push(tok);
                last[bi] = tok;
            }
        }
        if done.iter().all(|&d| d) {
            break;
        }
    }
    generated
}

/// Evaluate WER (percent) of an encoder-decoder model on ASR examples.
pub fn evaluate_asr_wer(
    model: &Model,
    qctx: &QuantCtx,
    task: &AsrTask,
    examples: &[AsrExample],
    batch_size: usize,
) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for chunk in examples.chunks(batch_size.max(1)) {
        let (enc, _, _) = task.batch(chunk);
        let hyps = greedy_decode(model, qctx, &enc, task.max_words);
        for (hyp, ex) in hyps.iter().zip(chunk) {
            total += wer(hyp, &ex.transcript);
            n += 1;
        }
    }
    100.0 * total / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_datagen::{ClassifyKind, ClassifyTask, LmTask};
    use qt_quant::QuantScheme;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn span_eval_runs_and_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 1;
        let task = SpanTask::new(cfg.vocab, 16);
        let model = Model::new(cfg, TaskHead::Span, &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let data = task.dataset(8, 2);
        let f1 = evaluate_span_f1(&model, &qctx, &task, &data, 4);
        assert!((0.0..=100.0).contains(&f1));
    }

    #[test]
    fn classify_eval_untrained_near_chance() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cfg = TransformerConfig::bert_base_sim();
        cfg.layers = 1;
        let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
        let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let data = task.dataset(64, 3);
        let batches: Vec<_> = data.chunks(16).map(|c| task.batch(c)).collect();
        let acc = evaluate_classify(&model, &qctx, &batches);
        assert!((20.0..=80.0).contains(&acc), "untrained acc {acc}");
    }

    #[test]
    fn lm_perplexity_untrained_near_vocab() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = TransformerConfig::gpt2_large_sim();
        cfg.layers = 1;
        let lm = LmTask::new(cfg.vocab, 16, 0);
        let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let rows = lm.dataset(8, 1);
        let batches: Vec<_> = rows.chunks(4).map(|c| lm.batch(c)).collect();
        let ppl = evaluate_lm_perplexity(&model, &qctx, &batches);
        // untrained with tied embeddings: confidently wrong is possible,
        // so just require "far from solved" and finite
        assert!(ppl > 20.0 && ppl.is_finite(), "{ppl}");
        let _ = &cfg;
    }

    #[test]
    fn greedy_decode_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cfg = TransformerConfig::whisper_tiny_sim();
        cfg.layers = 1;
        let task = AsrTask::new(cfg.vocab, 16, 4);
        let model = Model::new(cfg, TaskHead::LmTied, &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let data = task.dataset(3, 5);
        let (enc, _, _) = task.batch(&data);
        let out = greedy_decode(&model, &qctx, &enc, task.max_words);
        assert_eq!(out.len(), 3);
        for hyp in &out {
            assert!(hyp.len() <= task.max_words);
        }
        let w = evaluate_asr_wer(&model, &qctx, &task, &data, 3);
        assert!(w >= 0.0);
    }
}
