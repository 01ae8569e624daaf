//! `asr_decode`: `qt_train::greedy_decode` of the Whisper_small-sim
//! encoder-decoder under Posit(8,1) with the approximate posit softmax.
//! Every decode step re-runs the encoder and the whole padded decoder.

use crate::bench::{closed_loop, repeat_setup, timed, Settings, MODEL_SEED, QUALITY_SEED};
use crate::layers::{count_tasks, finish, untraced_loop, Layers, OpTiming, Profile, Tracer};
use crate::report::{median_rate, min_samples, timing_check, EndToEnd, Outcome, TAIL_Q};
use crate::serve::probe_model;
use qt_datagen::{AsrExample, AsrTask};
use qt_quant::{ElemFormat, QuantScheme};
use qt_train::{greedy_decode, wer};
use qt_transformer::{Model, QuantCtx, TaskHead, TokenBatch, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

/// Utterances per `greedy_decode` call.
const BATCH: usize = 4;
/// Encoder frames per utterance.
const FRAMES: usize = 24;
/// Longest transcript the decoder may emit.
const MAX_WORDS: usize = 6;
/// Distinct utterance batches the loop cycles through.
const POOL: usize = 4;

type Utterances = (TokenBatch, Vec<Vec<usize>>);

/// The workload's generated inputs: encoder batches and transcripts.
pub fn inputs(seed: u64) -> Vec<Utterances> {
    let cfg = TransformerConfig::whisper_small_sim();
    let task = AsrTask::new(cfg.vocab, FRAMES, MAX_WORDS);
    let data: Vec<AsrExample> = task.dataset(POOL * BATCH, seed);
    data.chunks(BATCH)
        .map(|c| {
            let (enc, _, _) = task.batch(c);
            (enc, c.iter().map(|e| e.transcript.clone()).collect())
        })
        .collect()
}

struct State {
    model: Model,
    qctx: QuantCtx,
    batches: Vec<Utterances>,
    /// Outputs of the warm-up call on batch 0.
    first: Vec<Vec<usize>>,
}

fn setup(s: &Settings) -> State {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = Model::new(
        TransformerConfig::whisper_small_sim(),
        TaskHead::LmTied,
        &mut rng,
    );
    let batches = inputs(s.seed);
    let qctx = QuantCtx::inference(QuantScheme::posit8_approx());
    let first = greedy_decode(&model, &qctx, &batches[0].0, MAX_WORDS);
    State {
        model,
        qctx,
        batches,
        first,
    }
}

fn tokens(out: &[Vec<usize>]) -> usize {
    out.iter().map(Vec::len).sum()
}

/// Mean WER (percent) of `hyps` against the transcripts.
fn wer_pct(hyps: &[Vec<usize>], refs: &[Vec<usize>]) -> f64 {
    100.0 * hyps.iter().zip(refs).map(|(h, r)| wer(h, r)).sum::<f64>() / refs.len() as f64
}

/// Decode the batches in order, checking each call against the first
/// repetition of the same batch.
struct Checker {
    first: Vec<Option<Vec<Vec<usize>>>>,
    mismatches: u64,
}

impl Checker {
    fn new(st: &State) -> Self {
        let mut first = vec![None; POOL];
        first[0] = Some(st.first.clone());
        Self {
            first,
            mismatches: 0,
        }
    }

    fn check(&mut self, k: usize, out: Vec<Vec<usize>>) {
        match &self.first[k] {
            Some(f) if *f != out => self.mismatches += 1,
            Some(_) => {}
            None => self.first[k] = Some(out),
        }
    }

    fn wer_pct(&self, st: &State) -> f64 {
        let mut hyps = Vec::new();
        let mut refs = Vec::new();
        for (f, b) in self.first.iter().zip(&st.batches) {
            if let Some(f) = f {
                hyps.extend_from_slice(f);
                refs.extend_from_slice(&b.1);
            }
        }
        wer_pct(&hyps, &refs)
    }
}

/// WER (percent) of decoding `batches` once.
fn wer_of(st: &State, batches: &[Utterances]) -> f64 {
    let (hyps, refs): (Vec<_>, Vec<_>) = batches
        .iter()
        .flat_map(|(enc, refs)| {
            greedy_decode(&st.model, &st.qctx, enc, MAX_WORDS)
                .into_iter()
                .zip(refs.clone())
        })
        .unzip();
    wer_pct(&hyps, &refs)
}

pub fn end_to_end(s: &Settings) -> Outcome {
    let (st, setup_s) = repeat_setup(|| setup(s));
    let mut out = Outcome::default();
    let mut checker = Checker::new(&st);
    let mut generated = Vec::new();
    let lp = closed_loop(s.seconds, min_samples(TAIL_Q), s.seconds * 4.0, |i| {
        let k = i % POOL;
        let (o, ms) = timed(|| greedy_decode(&st.model, &st.qctx, &st.batches[k].0, MAX_WORDS));
        generated.push(tokens(&o) as f64);
        checker.check(k, o);
        ms
    });
    let n = lp.op_ms.len() as u64;
    out.attempted = n;
    out.failed = checker.mismatches;
    out.check(
        "decode.outputs_match_first_repetition",
        checker.mismatches == 0,
        format!(
            "{} of {n} calls differ from the first decode of their batch",
            checker.mismatches
        ),
    );
    let call = timing_check(&mut out, "decode_call_ms", &lp.op_ms);
    let throughput = median_rate(&generated, &lp.op_ms);
    let wer = checker.wer_pct(&st);
    let quality_wer = wer_of(&st, &inputs(QUALITY_SEED));
    out.line(format!(
        "decode_tokens_per_s {throughput:.3} tokens/s ({:.2} tokens per call)",
        generated.iter().sum::<f64>() / n as f64
    ));
    out.line(format!(
        "decode_call_ms_p50 {:.4} ms; decode_call_ms_p90 {:.4} ms (n={})",
        call.p50, call.p90, call.n
    ));
    out.line(format!("decode_wer_pct {wer:.4} % on this seed's utterances, {quality_wer:.4} % on the quality set"));
    out.metrics = EndToEnd {
        setup_s,
        throughput_per_s: throughput,
        op_ms: Some(call),
        error_pct: quality_wer,
    }
    .metrics();
    out
}

pub fn per_layer(s: &Settings) -> Outcome {
    let st = setup(s);
    qt_par::with_threads(s.pool, || traced(s, &st))
}

/// The traced run, on the run's kernel pool. The first decode of batch
/// 0 ran in set-up on one kernel thread, so the checker compares across
/// pool sizes as well as across repetitions.
fn traced(s: &Settings, st: &State) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut checker = Checker::new(st);
    let untraced = untraced_loop(s, 0.4, |i| {
        let k = i % POOL;
        let (o, ms) = timed(|| greedy_decode(&st.model, &st.qctx, &st.batches[k].0, MAX_WORDS));
        checker.check(k, o);
        ms
    });
    let n = untraced.op_ms.len();
    let tracer = Tracer::new(ElemFormat::P8E1);
    let mut prof = Profile::default();
    let mut generated = 0usize;
    let mut slots = 0usize;
    let dec_len = MAX_WORDS + 2;
    for i in 0..n {
        let k = i % POOL;
        let (tctx, h) = tracer.attach(&st.qctx);
        let ((o, ms), tasks) =
            count_tasks(|| timed(|| greedy_decode(&st.model, &tctx, &st.batches[k].0, MAX_WORDS)));
        let forwards_before = prof.forwards;
        generated += tokens(&o);
        checker.check(k, o);
        prof.absorb(
            &h.borrow(),
            OpTiming {
                op_ns: (ms * 1e6) as u64,
                fwd_ns: None,
                chunk_tasks: tasks,
            },
            true,
        );
        slots += (prof.forwards - forwards_before) as usize * BATCH;
    }
    out.attempted = 2 * n as u64;
    out.failed = checker.mismatches;
    out.check(
        "decode.outputs_match_first_repetition",
        checker.mismatches == 0,
        format!(
            "{} calls (untraced or traced, {}-thread pool) differ from the first decode",
            checker.mismatches,
            qt_par::threads()
        ),
    );
    finish(&prof, &untraced, &[ElemFormat::P8E1], &mut layers, &mut out);
    // Every forward computes the whole padded decoder for every row.
    let positions = slots * dec_len;
    layers.set(
        "op.positions_per_output",
        positions as f64 / generated.max(1) as f64,
    );
    // Row-steps that produced a token, of the row-steps computed.
    layers.set("op.useful_ratio", generated as f64 / slots.max(1) as f64);
    let request = st.batches[0].0.ids[..FRAMES].to_vec();
    probe_model(&st.model, ElemFormat::P8E1, request, &mut layers, &mut out);
    out.line(format!(
        "traced ops: {n} greedy_decode calls of {BATCH} utterances on a {}-thread kernel pool, {generated} tokens generated",
        qt_par::threads()
    ));
    out.metrics = layers.metrics();
    out
}
