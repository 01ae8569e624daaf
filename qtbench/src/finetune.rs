//! `lora_finetune`: LoRA `Trainer::step_classify` on RoBERTa_base-sim
//! under FP8 (E4M3 forward, E5M2 backward, delayed per-tensor scaling).
//! Each repetition restarts from the same adapter initialisation and
//! runs the same batches, so its loss trajectory must repeat bit for bit.

use crate::bench::{closed_loop, repeat_setup, timed, Settings, MODEL_SEED, QUALITY_SEED};
use crate::layers::{count_tasks, finish, untraced_loop, Layers, OpTiming, Profile, Tracer};
use crate::report::{median_rate, min_samples, timing_check, EndToEnd, Outcome, TAIL_Q};
use crate::serve::probe_model;
use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::{ElemFormat, QuantScheme};
use qt_train::{evaluate_classify, AdamW, Trainer};
use qt_transformer::{
    LoraConfig, Model, QuantCtx, TaskHead, TokenBatch, TrainMode, TransformerConfig,
};
use rand::{rngs::StdRng, SeedableRng};

const BATCH: usize = 8;
const SEQ: usize = 24;
/// Steps per repetition; accuracy is taken after this many.
const STEPS: usize = 10;
/// Held-out examples scored for accuracy.
const EVAL: usize = 256;
const EVAL_BATCH: usize = 64;
const LR: f32 = 2e-3;

type Labelled = (TokenBatch, Vec<usize>);

fn task() -> ClassifyTask {
    ClassifyTask::new(
        ClassifyKind::Sst2,
        TransformerConfig::roberta_base_sim().vocab,
        SEQ,
    )
}

/// The workload's generated inputs: one repetition's training batches.
pub fn inputs(seed: u64) -> Vec<Labelled> {
    let task = task();
    let data = task.dataset(STEPS * BATCH, seed);
    data.chunks(BATCH).map(|c| task.batch(c)).collect()
}

/// Held-out batches of the quality set.
fn quality_eval() -> Vec<Labelled> {
    let task = task();
    let data = task.dataset(EVAL, QUALITY_SEED ^ 0xe7a1);
    data.chunks(EVAL_BATCH).map(|c| task.batch(c)).collect()
}

struct State {
    /// Backbone with freshly initialised adapters.
    base: Model,
    train: Vec<Labelled>,
}

fn trainer(st: &State) -> Trainer<AdamW> {
    Trainer::new(
        st.base.clone(),
        QuantCtx::training(QuantScheme::fp8()),
        TrainMode::Lora,
        AdamW::new(LR),
    )
}

fn setup(s: &Settings) -> State {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut base = Model::new(
        TransformerConfig::roberta_base_sim(),
        TaskHead::Classify(2),
        &mut rng,
    );
    base.add_lora(LoraConfig::roberta_default(), &mut rng);
    let st = State {
        base,
        train: inputs(s.seed),
    };
    // Warm-up step on a throwaway trainer.
    let (b, l) = &st.train[0];
    trainer(&st).step_classify(b, l);
    st
}

/// Repetitions of [`STEPS`] steps from the same start, with the loss
/// trajectory of the first kept as the reference.
struct Reps<'a> {
    st: &'a State,
    current: Option<Trainer<AdamW>>,
    reference: Vec<u32>,
    mismatches: u64,
    applied: usize,
    attempted: usize,
}

impl<'a> Reps<'a> {
    fn new(st: &'a State, reference: Vec<u32>) -> Self {
        Self {
            st,
            current: None,
            reference,
            mismatches: 0,
            applied: 0,
            attempted: 0,
        }
    }

    fn finish_rep(&mut self) {
        if let Some(t) = self.current.take() {
            self.applied += t.steps();
            self.attempted += t.global_step();
        }
    }

    /// Step `i` of the sequence. `attach` sees the trainer just before
    /// the step (to attach a trace); returns the step's wall time, ms.
    fn step(&mut self, i: usize, attach: impl FnOnce(&mut Trainer<AdamW>)) -> f64 {
        let step = i % STEPS;
        if step == 0 {
            self.finish_rep();
            self.current = Some(trainer(self.st));
        }
        let t = self.current.as_mut().expect("trainer for this repetition");
        attach(t);
        let (b, l) = &self.st.train[step];
        let (loss, ms) = timed(|| t.step_classify(b, l));
        let bits = loss.to_bits();
        match self.reference.get(step) {
            Some(&r) => self.mismatches += u64::from(r != bits),
            None => self.reference.push(bits),
        }
        ms
    }
}

/// Accuracy (percent) on `eval` after one repetition on `train`.
fn accuracy_after(st: &State, train: &[Labelled], eval: &[Labelled]) -> f64 {
    let mut t = trainer(st);
    for (b, l) in train {
        t.step_classify(b, l);
    }
    evaluate_classify(&t.model, &QuantCtx::inference(QuantScheme::fp8()), eval)
}

pub fn end_to_end(s: &Settings) -> Outcome {
    let (st, setup_s) = repeat_setup(|| setup(s));
    let mut out = Outcome::default();
    let mut reps = Reps::new(&st, Vec::new());
    let lp = closed_loop(s.seconds, min_samples(TAIL_Q), s.seconds * 4.0, |i| {
        reps.step(i, |_| {})
    });
    reps.finish_rep();
    let n = lp.op_ms.len() as u64;
    out.attempted = n;
    out.failed = reps.mismatches;
    out.check(
        "finetune.loss_trajectory_repeats_bitwise",
        reps.mismatches == 0,
        format!(
            "{} of {n} steps differ from the first repetition's loss ({} repetitions)",
            reps.mismatches,
            n.div_ceil(STEPS as u64)
        ),
    );
    let acc = accuracy_after(&st, &inputs(QUALITY_SEED), &quality_eval());
    let step = timing_check(&mut out, "finetune_step_ms", &lp.op_ms);
    let throughput = median_rate(&vec![BATCH as f64; lp.op_ms.len()], &lp.op_ms);
    out.line(format!("finetune_samples_per_s {throughput:.3} samples/s"));
    out.line(format!(
        "finetune_step_ms_p50 {:.4} ms; finetune_step_ms_p90 {:.4} ms (n={})",
        step.p50, step.p90, step.n
    ));
    out.line(format!(
        "finetune_acc_pct {acc:.4} % on the quality set ({STEPS} steps, {EVAL} held-out examples); {} of {} steps applied",
        reps.applied, reps.attempted
    ));
    out.metrics = EndToEnd {
        setup_s,
        throughput_per_s: throughput,
        op_ms: Some(step),
        error_pct: 100.0 - acc,
    }
    .metrics();
    out
}

pub fn per_layer(s: &Settings) -> Outcome {
    let st = setup(s);
    // The reference trajectory comes from one kernel thread; the traced
    // run's pool must retrace it bit for bit.
    let mut serial = Reps::new(&st, Vec::new());
    qt_par::serial(|| {
        for i in 0..STEPS {
            serial.step(i, |_| {});
        }
    });
    qt_par::with_threads(s.pool, || traced(s, &st, serial.reference))
}

/// The traced run, on the run's kernel pool.
fn traced(s: &Settings, st: &State, reference: Vec<u32>) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut untraced_reps = Reps::new(st, reference.clone());
    let untraced = untraced_loop(s, 0.4, |i| untraced_reps.step(i, |_| {}));
    let n = untraced.op_ms.len();
    let tracer = Tracer::new(ElemFormat::E4M3);
    let mut prof = Profile::default();
    let mut reps = Reps::new(st, reference);
    for i in 0..n {
        let mut session = None;
        let (ms, tasks) = count_tasks(|| {
            reps.step(i, |t| {
                let (tctx, h) = tracer.attach(&t.qctx);
                t.qctx = tctx;
                session = Some(h);
            })
        });
        let h = session.expect("session attached");
        let timing = OpTiming {
            op_ns: (ms * 1e6) as u64,
            fwd_ns: None,
            chunk_tasks: tasks,
        };
        prof.absorb(&h.borrow(), timing, false);
    }
    reps.finish_rep();
    let mismatches = untraced_reps.mismatches + reps.mismatches;
    out.attempted = 2 * n as u64;
    out.failed = mismatches;
    out.check(
        "finetune.traced_loss_trajectory_matches_serial",
        mismatches == 0,
        format!(
            "{mismatches} steps on a {}-thread pool differ from the one-thread loss trajectory",
            qt_par::threads()
        ),
    );
    finish(
        &prof,
        &untraced,
        &[ElemFormat::E4M3, ElemFormat::E5M2],
        &mut layers,
        &mut out,
    );
    layers.set("op.positions_per_output", SEQ as f64);
    layers.set(
        "op.useful_ratio",
        reps.applied as f64 / reps.attempted.max(1) as f64,
    );
    let request = st.train[0].0.ids[..SEQ].to_vec();
    probe_model(&st.base, ElemFormat::E4M3, request, &mut layers, &mut out);
    out.line(format!(
        "traced ops: {n} LoRA steps of batch {BATCH} on a {}-thread kernel pool; {} of {} steps applied",
        qt_par::threads(),
        reps.applied,
        reps.attempted
    ));
    out.metrics = layers.metrics();
    out
}
