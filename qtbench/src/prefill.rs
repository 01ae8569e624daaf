//! `lm_prefill`: teacher-forced forward passes of the LLaMA-2-7B-sim
//! causal decoder under Posit(8,1) with exact softmax, scored like
//! `qt_train::evaluate_lm_perplexity` (forward, log-softmax, NLL).

use crate::bench::{closed_loop, host_cores, repeat_setup, Settings, MODEL_SEED, QUALITY_SEED};
use crate::layers::{count_tasks, finish, untraced_loop, Layers, OpTiming, Profile, Tracer};
use crate::report::{
    digest, median, median_rate, min_samples, timing_check, EndToEnd, Outcome, TAIL_Q,
};
use crate::serve::probe_model;
use qt_autograd::Tape;
use qt_datagen::LmTask;
use qt_quant::{ElemFormat, QuantScheme};
use qt_train::metrics::Perplexity;
use qt_transformer::{Model, QuantCtx, TaskHead, TokenBatch, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

const BATCH: usize = 8;
const SEQ: usize = 32;
/// Distinct batches the loop cycles through.
const POOL: usize = 4;

type LmBatch = (TokenBatch, Vec<usize>);

/// The workload's generated inputs.
pub fn inputs(seed: u64) -> Vec<LmBatch> {
    let cfg = TransformerConfig::llama7b_sim();
    let task = LmTask::new(cfg.vocab, SEQ, seed ^ 0x5eed);
    let rows = task.dataset(POOL * BATCH, seed);
    rows.chunks(BATCH).map(|c| task.batch(c)).collect()
}

struct State {
    model: Model,
    qctx: QuantCtx,
    batches: Vec<LmBatch>,
}

fn setup(s: &Settings) -> State {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = Model::new(TransformerConfig::llama7b_sim(), TaskHead::LmTied, &mut rng);
    let batches = inputs(s.seed);
    let qctx = QuantCtx::inference(QuantScheme::posit8());
    // The first forward fills the context's weight-pack cache.
    run_batch(&model, &qctx, &batches[0]);
    State {
        model,
        qctx,
        batches,
    }
}

/// One scored batch: its timed part and what the checks need.
struct BatchOut {
    /// Forward + log-softmax + NLL + tape drop, ms.
    ms: f64,
    /// `Model::forward` alone, ms.
    fwd_ms: f64,
    digest: u64,
    /// Per-token NLL in target order.
    nll: Vec<f64>,
    errors: u64,
}

fn run_batch(model: &Model, qctx: &QuantCtx, (batch, targets): &LmBatch) -> BatchOut {
    let t = Instant::now();
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, qctx, batch, None, TrainMode::Frozen);
    let fwd_ms = t.elapsed().as_secs_f64() * 1e3;
    let logits = tape.value(out.logits).clone();
    drop(tape);
    let v = model.cfg.vocab;
    let ls = logits.log_softmax_lastdim();
    let nll: Vec<f64> = targets
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t != usize::MAX)
        .map(|(row, &t)| -(ls.data()[row * v + t] as f64))
        .collect();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let preds = logits.argmax_lastdim();
    let errors = targets
        .iter()
        .zip(&preds)
        .filter(|&(&t, &p)| t != usize::MAX && t != p)
        .count() as u64;
    BatchOut {
        ms,
        fwd_ms,
        digest: digest(logits.data()),
        nll,
        errors,
    }
}

fn scored(batches: &[LmBatch]) -> u64 {
    batches
        .iter()
        .flat_map(|b| &b.1)
        .filter(|&&t| t != usize::MAX)
        .count() as u64
}

/// Reference from fresh contexts (no warm pack cache) on a kernel pool
/// of `pool` threads: per-batch logits digests and the perplexity of
/// `batches`.
struct Reference {
    digests: Vec<u64>,
    ppl: f64,
    error_pct: f64,
}

fn reference(st: &State, batches: &[LmBatch], pool: usize) -> Reference {
    let outs: Vec<BatchOut> = qt_par::with_threads(pool, || {
        batches
            .iter()
            .map(|b| run_batch(&st.model, &QuantCtx::inference(QuantScheme::posit8()), b))
            .collect()
    });
    let mut ppl = Perplexity::new();
    for nll in outs.iter().flat_map(|o| &o.nll) {
        ppl.add(*nll, 1);
    }
    let errors: u64 = outs.iter().map(|o| o.errors).sum();
    Reference {
        digests: outs.iter().map(|o| o.digest).collect(),
        ppl: ppl.value(),
        error_pct: 100.0 * errors as f64 / scored(batches) as f64,
    }
}

pub fn end_to_end(s: &Settings) -> Outcome {
    let (st, setup_s) = repeat_setup(|| setup(s));
    let serial = reference(&st, &st.batches, 1);
    // The measured loop runs on one kernel thread; the threaded dispatch
    // of `qt_par` must give the same bits.
    let threaded = reference(&st, &st.batches, host_cores().max(2));
    let quality = reference(&st, &inputs(QUALITY_SEED), 1);
    let mut out = Outcome::default();
    out.check(
        "prefill.threaded_pool_matches_serial",
        threaded.digests == serial.digests && threaded.ppl.to_bits() == serial.ppl.to_bits(),
        format!(
            "{} of {POOL} batches differ on a {}-thread pool",
            threaded
                .digests
                .iter()
                .zip(&serial.digests)
                .filter(|(a, b)| a != b)
                .count(),
            host_cores().max(2)
        ),
    );
    let mut bad_digests = 0u64;
    let mut bad_ppl_cycles = 0u64;
    let mut cycle = Perplexity::new();
    let lp = closed_loop(s.seconds, min_samples(TAIL_Q), s.seconds * 4.0, |i| {
        let k = i % POOL;
        let b = run_batch(&st.model, &st.qctx, &st.batches[k]);
        if b.digest != serial.digests[k] {
            bad_digests += 1;
        }
        if k == 0 {
            cycle = Perplexity::new();
        }
        for nll in &b.nll {
            cycle.add(*nll, 1);
        }
        if k == POOL - 1 && cycle.value().to_bits() != serial.ppl.to_bits() {
            bad_ppl_cycles += 1;
        }
        b.ms
    });
    let n = lp.op_ms.len() as u64;
    out.attempted = n;
    out.failed = bad_digests;
    out.check(
        "prefill.logits_digest_matches_serial",
        bad_digests == 0,
        format!("{bad_digests} of {n} batches differ from the serial reference"),
    );
    out.check(
        "prefill.ppl_bits_match_serial",
        bad_ppl_cycles == 0,
        format!(
            "{bad_ppl_cycles} pool cycles with perplexity != serial {}",
            serial.ppl
        ),
    );
    let batch_ms = timing_check(&mut out, "prefill_batch_ms", &lp.op_ms);
    let throughput = median_rate(&vec![(BATCH * SEQ) as f64; lp.op_ms.len()], &lp.op_ms);
    out.line(format!("prefill_tokens_per_s {throughput:.3} tokens/s"));
    out.line(format!(
        "prefill_batch_ms_p50 {:.4} ms; prefill_batch_ms_p90 {:.4} ms (n={})",
        batch_ms.p50, batch_ms.p90, batch_ms.n
    ));
    out.line(format!(
        "prefill_ppl {:.6} on this seed's batches; on the quality set {:.6}, top-1 error {:.4}%",
        serial.ppl, quality.ppl, quality.error_pct
    ));
    out.metrics = EndToEnd {
        setup_s,
        throughput_per_s: throughput,
        op_ms: Some(batch_ms),
        error_pct: quality.error_pct,
    }
    .metrics();
    out
}

pub fn per_layer(s: &Settings) -> Outcome {
    let st = setup(s);
    let serial = reference(&st, &st.batches, 1);
    qt_par::with_threads(s.pool, || traced(s, &st, &serial))
}

/// The traced run, on the run's kernel pool.
fn traced(s: &Settings, st: &State, serial: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let untraced = untraced_loop(s, 0.4, |i| {
        run_batch(&st.model, &st.qctx, &st.batches[i % POOL]).ms
    });
    let n = untraced.op_ms.len();
    let tracer = Tracer::new(ElemFormat::P8E1);
    let mut prof = Profile::default();
    let mut changed = 0u64;
    for i in 0..n {
        let k = i % POOL;
        let (tctx, h) = tracer.attach(&st.qctx);
        let (b, tasks) = count_tasks(|| run_batch(&st.model, &tctx, &st.batches[k]));
        changed += u64::from(b.digest != serial.digests[k]);
        let timing = OpTiming {
            op_ns: (b.ms * 1e6) as u64,
            fwd_ns: Some((b.fwd_ms * 1e6) as u64),
            chunk_tasks: tasks,
        };
        prof.absorb(&h.borrow(), timing, true);
    }
    out.attempted = n as u64;
    out.failed = changed;
    out.check(
        "prefill.traced_pool_logits_match_serial",
        changed == 0,
        format!(
            "{changed} of {n} traced batches on a {}-thread pool differ from the serial reference",
            qt_par::threads()
        ),
    );
    finish(&prof, &untraced, &[ElemFormat::P8E1], &mut layers, &mut out);
    let positions = (BATCH * SEQ) as f64;
    let outputs = scored(&st.batches[..1]) as f64;
    layers.set("op.positions_per_output", positions / outputs);
    layers.set("op.useful_ratio", outputs / positions);
    let request = st.batches[0].0.ids[..SEQ].to_vec();
    probe_model(&st.model, ElemFormat::P8E1, request, &mut layers, &mut out);
    out.line(format!(
        "traced ops: {n} batches of {BATCH}x{SEQ} on a {}-thread kernel pool; untraced median {:.4} ms",
        qt_par::threads(),
        median(&untraced.op_ms)
    ));
    out.metrics = layers.metrics();
    out
}
