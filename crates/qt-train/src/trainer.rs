//! The quantization-aware training loop.

use crate::error::TrainError;
use crate::optim::{clip_global_norm, CheckpointOptimizer, Optimizer};
use crate::scaler::LossScaler;
use qt_autograd::{Tape, Var};
use qt_ckpt::{
    AmaxState, CheckpointStore, CkptError, Counters, QuantBlob, RestoreInfo, SaveInfo,
    SnapshotState, TensorBlob, TrainState,
};
use qt_quant::{AmaxTracker, ElemFormat, ScalingMode};
use qt_tensor::Tensor;
use qt_transformer::{Model, ParamStore, QuantCtx, TokenBatch, TrainMode};
use std::collections::BTreeMap;

/// A restorable point-in-time copy of the training state.
struct Snapshot<O> {
    params: ParamStore,
    opt: O,
    tracker: AmaxTracker,
    steps: usize,
}

/// Durable-checkpoint wiring attached to a [`Trainer`] (see
/// [`Trainer::with_checkpointing`]).
struct CkptCfg {
    store: CheckpointStore,
    every: usize,
    data_seed: u64,
    meta: Vec<(String, String)>,
}

/// Drives quantized fine-tuning of a [`Model`].
///
/// Owns the model and optimizer; each `step_*` builds a fresh tape,
/// applies the loss (with loss scaling if configured), clips, and updates.
/// Steps with non-finite gradients are skipped and counted — low-precision
/// training "can sometimes lead to numerical instability and non-finite
/// gradients" (paper artifact appendix), and skipping is the standard
/// mitigation.
///
/// Two recovery mechanisms stack on top of skipping:
///
/// - [`Trainer::with_dynamic_scaling`] replaces the scheme's static loss
///   scale with an AMP-style [`LossScaler`] that backs off on overflow and
///   grows back after a window of clean steps;
/// - [`Trainer::with_snapshots`] takes periodic copies of the parameters,
///   optimizer state and amax history, and rolls back to the latest copy
///   after K consecutive skipped steps — recovering runs whose state
///   (not just whose gradients) has gone non-finite.
pub struct Trainer<O: Optimizer> {
    /// The model being trained.
    pub model: Model,
    /// Quantization context (constructed with [`QuantCtx::training`]).
    pub qctx: QuantCtx,
    /// Which parameters are trainable.
    pub mode: TrainMode,
    /// The optimizer.
    pub opt: O,
    /// Optional global-norm gradient clipping.
    pub clip_norm: Option<f32>,
    skipped: usize,
    steps: usize,
    scaler: Option<LossScaler>,
    snapshot_every: Option<usize>,
    rollback_after: Option<usize>,
    snapshot: Option<Snapshot<O>>,
    consecutive_skips: usize,
    rollbacks: usize,
    ckpt: Option<CkptCfg>,
}

impl<O: Optimizer + Clone + CheckpointOptimizer> Trainer<O> {
    /// Create a trainer.
    pub fn new(model: Model, qctx: QuantCtx, mode: TrainMode, opt: O) -> Self {
        Self {
            model,
            qctx,
            mode,
            opt,
            clip_norm: Some(1.0),
            skipped: 0,
            steps: 0,
            scaler: None,
            snapshot_every: None,
            rollback_after: None,
            snapshot: None,
            consecutive_skips: 0,
            rollbacks: 0,
            ckpt: None,
        }
    }

    /// Replace the scheme's static loss scale with a dynamic scaler.
    pub fn with_dynamic_scaling(mut self, scaler: LossScaler) -> Self {
        self.scaler = Some(scaler);
        self
    }

    /// Snapshot parameters + optimizer + amax history every `every`
    /// applied steps, and roll back to the latest snapshot after
    /// `rollback_after` consecutive skipped steps.
    pub fn with_snapshots(mut self, every: usize, rollback_after: usize) -> Self {
        self.snapshot_every = Some(every.max(1));
        self.rollback_after = Some(rollback_after.max(1));
        self
    }

    /// Persist the full training state to `store` every `every` global
    /// steps (applied + skipped). `data_seed` is recorded in each
    /// checkpoint so a resumed run can regenerate the identical data
    /// order and skip the batches already consumed
    /// ([`Trainer::global_step`] of them).
    pub fn with_checkpointing(
        mut self,
        store: CheckpointStore,
        every: usize,
        data_seed: u64,
    ) -> Self {
        self.ckpt = Some(CkptCfg {
            store,
            every: every.max(1),
            data_seed,
            meta: Vec::new(),
        });
        self
    }

    /// Annotate every subsequent checkpoint with `(key, value)` pairs
    /// (run name, scheme, task — anything useful at inspection time).
    /// No-op unless [`Trainer::with_checkpointing`] was called first.
    pub fn with_checkpoint_meta(mut self, meta: Vec<(String, String)>) -> Self {
        if let Some(cfg) = &mut self.ckpt {
            cfg.meta = meta;
        }
        self
    }

    /// The attached checkpoint store, if checkpointing is configured.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.ckpt.as_ref().map(|c| &c.store)
    }

    /// Number of optimizer steps applied.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Global step count: applied + skipped — equal to the number of
    /// batches the data iterator has consumed.
    pub fn global_step(&self) -> usize {
        self.steps + self.skipped
    }

    /// Number of steps skipped for non-finite gradients.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Consecutive skipped steps since the last applied step or rollback.
    pub fn consecutive_skips(&self) -> usize {
        self.consecutive_skips
    }

    /// Number of snapshot rollbacks performed.
    pub fn rollbacks(&self) -> usize {
        self.rollbacks
    }

    /// The dynamic scaler, if one is attached.
    pub fn scaler(&self) -> Option<&LossScaler> {
        self.scaler.as_ref()
    }

    /// The loss scale the next step will apply (dynamic scaler if
    /// attached, otherwise the scheme's static scale).
    pub fn loss_scale(&self) -> f32 {
        match &self.scaler {
            Some(s) => s.scale(),
            None => match self.qctx.scheme().scaling {
                ScalingMode::LossScale(s) => s,
                _ => 1.0,
            },
        }
    }

    /// One step on a classification batch. Returns the (unscaled) loss.
    pub fn step_classify(&mut self, batch: &TokenBatch, labels: &[usize]) -> f32 {
        let labels = labels.to_vec();
        self.step_with(batch, None, move |tape, logits| {
            tape.cross_entropy(logits, &labels)
        })
    }

    /// One step on a span-extraction batch: the `[B, S, 2]` logits are
    /// split into start/end rows and scored jointly.
    pub fn step_span(&mut self, batch: &TokenBatch, spans: &[(usize, usize)]) -> f32 {
        let seq = batch.seq;
        let b = batch.batch;
        let mut targets = Vec::with_capacity(2 * b);
        for &(s, e) in spans {
            targets.push(s);
            targets.push(e);
        }
        self.step_with(batch, None, move |tape, logits| {
            // [B, S, 2] -> [B, 2, S] -> [2B, S]
            let p = tape.permute(logits, &[0, 2, 1]);
            let r = tape.reshape(p, &[2 * b, seq]);
            tape.cross_entropy(r, &targets)
        })
    }

    /// One step of causal language modelling (`targets` length `B·S`,
    /// `usize::MAX` = ignore).
    pub fn step_lm(&mut self, batch: &TokenBatch, targets: &[usize]) -> f32 {
        let vocab = self.model.cfg.vocab;
        let rows = batch.batch * batch.seq;
        let targets = targets.to_vec();
        self.step_with(batch, None, move |tape, logits| {
            let r = tape.reshape(logits, &[rows, vocab]);
            tape.cross_entropy(r, &targets)
        })
    }

    /// One teacher-forced step of sequence-to-sequence transcription.
    pub fn step_seq2seq(&mut self, enc: &TokenBatch, dec: &TokenBatch, targets: &[usize]) -> f32 {
        let vocab = self.model.cfg.vocab;
        let rows = dec.batch * dec.seq;
        let targets = targets.to_vec();
        self.step_with(enc, Some(dec), move |tape, logits| {
            let r = tape.reshape(logits, &[rows, vocab]);
            tape.cross_entropy(r, &targets)
        })
    }

    fn step_with(
        &mut self,
        batch: &TokenBatch,
        dec: Option<&TokenBatch>,
        build_loss: impl FnOnce(&mut Tape, Var) -> Var,
    ) -> f32 {
        // Telemetry rides on the QuantCtx's session (one channel for the
        // whole stack); absent a session every emit below is a no-op.
        let step_span = self.qctx.span_begin("train.step", "train");
        let mut tape = Tape::new();
        let out = self
            .model
            .forward(&mut tape, &self.qctx, batch, dec, self.mode);
        let loss = build_loss(&mut tape, out.logits);
        let loss_value = tape.value(loss).data()[0];

        let scale = self.loss_scale();
        let scaled = if scale != 1.0 {
            tape.mul_scalar(loss, scale)
        } else {
            loss
        };
        let grads = tape.backward(scaled);

        let mut named: BTreeMap<String, Tensor> = BTreeMap::new();
        let mut finite = true;
        for (name, var) in &out.param_vars {
            if let Some(g) = grads.get(*var) {
                let g = if scale != 1.0 {
                    g.mul_scalar(1.0 / scale)
                } else {
                    g.clone()
                };
                if g.data().iter().any(|x| !x.is_finite()) {
                    finite = false;
                    break;
                }
                named.insert(name.clone(), g);
            }
        }
        // The tape shares the parameter tensors; release them so the
        // optimizer's writes update in place instead of copying on write.
        drop(tape);
        if !finite || !loss_value.is_finite() {
            self.on_skipped_step();
            self.emit_step_telemetry(loss_value, false);
            self.maybe_checkpoint_and_crash();
            self.qctx.span_end(step_span);
            return loss_value;
        }
        if let Some(c) = self.clip_norm {
            clip_global_norm(&mut named, c);
        }
        self.opt.step(&mut self.model.params, &named);
        self.steps += 1;
        self.consecutive_skips = 0;
        if let Some(sc) = &mut self.scaler {
            sc.on_clean_step();
        }
        if let Some(every) = self.snapshot_every {
            if self.steps.is_multiple_of(every) {
                self.snapshot = Some(Snapshot {
                    params: self.model.params.clone(),
                    opt: self.opt.clone(),
                    tracker: self.qctx.tracker().borrow().clone(),
                    steps: self.steps,
                });
            }
        }
        self.emit_step_telemetry(loss_value, true);
        self.maybe_checkpoint_and_crash();
        self.qctx.span_end(step_span);
        loss_value
    }

    /// Auto-checkpoint on the configured cadence, then honor the
    /// `QT_CRASH_AT_STEP` kill hook (used by the crash-recovery CI job).
    /// Both count *global* steps so skipped steps keep the data iterator
    /// and the checkpoint cadence aligned.
    fn maybe_checkpoint_and_crash(&mut self) {
        let Some(cfg) = &self.ckpt else {
            return;
        };
        let step = self.global_step();
        if step > 0 && step.is_multiple_of(cfg.every) {
            if let Err(e) = self.save_checkpoint() {
                // A failed periodic save must not kill the training run;
                // it is surfaced on the trace and stderr instead.
                eprintln!("warning: periodic checkpoint failed: {e}");
                if let Some(t) = self.qctx.trace() {
                    t.borrow_mut()
                        .metrics_mut()
                        .counter_add("ckpt.save_failed", &[], 1);
                }
            }
        }
        // The crash hook only fires on checkpoint-enabled runs, so
        // pretraining phases sharing the process are unaffected.
        if let Ok(v) = std::env::var("QT_CRASH_AT_STEP") {
            if v.parse::<usize>() == Ok(step) {
                eprintln!("QT_CRASH_AT_STEP: simulating crash at global step {step}");
                std::process::exit(42);
            }
        }
    }

    /// Capture the complete training state: exact `f32` bit patterns of
    /// every parameter (plus a compact 8-bit codes+scales export when the
    /// scheme stores sub-32-bit weights), optimizer moments, scaler and
    /// amax state, counters, and the in-memory rollback snapshot.
    pub fn capture_state(&self) -> TrainState {
        let opt = self.opt.export_state();
        let mut meta = vec![("optimizer".to_string(), opt.kind.clone())];
        if let Some(cfg) = &self.ckpt {
            meta.extend(cfg.meta.iter().cloned());
        }
        let tracker = self.qctx.tracker().borrow().clone();
        TrainState {
            meta,
            counters: Counters {
                steps: self.steps as u64,
                skipped: self.skipped as u64,
                consecutive_skips: self.consecutive_skips as u64,
                rollbacks: self.rollbacks as u64,
                data_seed: self.ckpt.as_ref().map_or(0, |c| c.data_seed),
            },
            params: params_to_blobs(&self.model.params),
            qparams: qparams_for(&self.model.params, self.qctx.scheme().fwd),
            opt,
            scaler: self.scaler.as_ref().map(LossScaler::to_ckpt),
            amax: AmaxState {
                history_len: tracker.history_len() as u64,
                entries: tracker.export_history(),
            },
            snapshot: self.snapshot.as_ref().map(|s| SnapshotState {
                params: params_to_blobs(&s.params),
                opt: s.opt.export_state(),
                amax: AmaxState {
                    history_len: s.tracker.history_len() as u64,
                    entries: s.tracker.export_history(),
                },
                steps: s.steps as u64,
            }),
        }
    }

    /// Persist the current state as a new generation in the attached
    /// store, emitting `ckpt.save` on the trace.
    ///
    /// # Errors
    ///
    /// [`TrainError::Ckpt`] when no store is attached or the write fails.
    pub fn save_checkpoint(&self) -> Result<SaveInfo, TrainError> {
        let Some(cfg) = &self.ckpt else {
            return Err(CkptError::Malformed(
                "checkpointing not configured (call with_checkpointing)".into(),
            )
            .into());
        };
        let state = self.capture_state();
        let info = cfg.store.save(&state)?;
        if let Some(t) = self.qctx.trace() {
            let mut t = t.borrow_mut();
            t.instant(
                "ckpt.save",
                "ckpt",
                vec![
                    ("generation".to_string(), info.generation as f64),
                    ("bytes".to_string(), info.bytes as f64),
                    ("global_step".to_string(), self.global_step() as f64),
                ],
            );
            t.metrics_mut().counter_add("ckpt.saves", &[], 1);
        }
        Ok(info)
    }

    /// Overwrite the trainer's state from a validated checkpoint. The
    /// trainer must have been constructed with the same model
    /// architecture and optimizer type the checkpoint was captured from.
    ///
    /// # Errors
    ///
    /// [`TrainError::Ckpt`] when the checkpoint's parameter set or the
    /// optimizer kind does not match this trainer.
    pub fn restore_state(&mut self, state: &TrainState) -> Result<(), TrainError> {
        restore_params(&mut self.model.params, &state.params)?;
        self.opt = O::import_state(&state.opt)?;
        self.steps = state.counters.steps as usize;
        self.skipped = state.counters.skipped as usize;
        self.consecutive_skips = state.counters.consecutive_skips as usize;
        self.rollbacks = state.counters.rollbacks as usize;
        self.scaler = state.scaler.as_ref().map(LossScaler::from_ckpt);
        *self.qctx.tracker().borrow_mut() = AmaxTracker::import_history(
            state.amax.history_len as usize,
            state.amax.entries.iter().cloned(),
        );
        self.snapshot = match &state.snapshot {
            None => None,
            Some(snap) => {
                let mut params = ParamStore::new();
                for b in &snap.params {
                    params.insert(
                        b.name.clone(),
                        Tensor::from_vec(b.to_f32(), &b.shape_usize()),
                    );
                }
                Some(Snapshot {
                    params,
                    opt: O::import_state(&snap.opt)?,
                    tracker: AmaxTracker::import_history(
                        snap.amax.history_len as usize,
                        snap.amax.entries.iter().cloned(),
                    ),
                    steps: snap.steps as usize,
                })
            }
        };
        Ok(())
    }

    /// Resume from the newest intact generation in `store`, falling back
    /// through corrupted generations. Emits `ckpt.restore`,
    /// `ckpt.corrupt_detected` and `ckpt.fallback_depth` on the trace.
    ///
    /// Returns `Ok(None)` when the store holds no checkpoints at all
    /// (a fresh run). When checkpoints exist but *every* generation is
    /// corrupt, this is an error — silently restarting from scratch would
    /// discard the fact that durable state existed.
    ///
    /// # Errors
    ///
    /// [`TrainError::Ckpt`] on total corruption or a state mismatch.
    pub fn resume_from(
        &mut self,
        store: &CheckpointStore,
    ) -> Result<Option<RestoreInfo>, TrainError> {
        match store.load_latest() {
            Ok((state, info)) => {
                if let Some(t) = self.qctx.trace() {
                    let mut t = t.borrow_mut();
                    for (generation, _) in &info.rejected {
                        t.instant(
                            "ckpt.corrupt_detected",
                            "ckpt",
                            vec![("generation".to_string(), *generation as f64)],
                        );
                        t.metrics_mut().counter_add("ckpt.corrupt_detected", &[], 1);
                    }
                }
                self.restore_state(&state)?;
                if let Some(t) = self.qctx.trace() {
                    let mut t = t.borrow_mut();
                    t.instant(
                        "ckpt.restore",
                        "ckpt",
                        vec![
                            ("generation".to_string(), info.generation as f64),
                            ("fallback_depth".to_string(), info.fallback_depth as f64),
                            ("global_step".to_string(), state.global_step() as f64),
                        ],
                    );
                    t.metrics_mut().gauge_set(
                        "ckpt.fallback_depth",
                        &[],
                        info.fallback_depth as f64,
                    );
                }
                Ok(Some(info))
            }
            Err(CkptError::NoCheckpoint) if store.generations().is_empty() => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// [`Trainer::resume_from`] on the store attached via
    /// [`Trainer::with_checkpointing`].
    ///
    /// # Errors
    ///
    /// [`TrainError::Ckpt`] when no store is attached, on total
    /// corruption, or on a state mismatch.
    pub fn resume_latest(&mut self) -> Result<Option<RestoreInfo>, TrainError> {
        let Some(cfg) = &self.ckpt else {
            return Err(CkptError::Malformed(
                "checkpointing not configured (call with_checkpointing)".into(),
            )
            .into());
        };
        let store = cfg.store.clone();
        self.resume_from(&store)
    }

    /// Per-step metrics and scaler transitions, onto the session attached
    /// to the QuantCtx. No-op when untraced.
    fn emit_step_telemetry(&mut self, loss_value: f32, applied: bool) {
        let Some(trace) = self.qctx.trace().cloned() else {
            return;
        };
        // Global step index: applied + skipped, counting this one.
        let step = (self.steps + self.skipped) as u64;
        let (events, events_dropped) = match &mut self.scaler {
            Some(sc) => {
                let (ev, _) = sc.drain_events();
                (ev, Some(sc.events_dropped()))
            }
            None => (Vec::new(), None),
        };
        let scale = self.loss_scale();
        let mut t = trace.borrow_mut();
        for ev in events {
            match ev {
                crate::scaler::ScalerEvent::Grow { from, to } => {
                    t.scaler_event(step, "grow", from, to)
                }
                crate::scaler::ScalerEvent::Backoff { from, to } => {
                    t.scaler_event(step, "backoff", from, to)
                }
            }
        }
        let m = t.metrics_mut();
        if let Some(dropped) = events_dropped {
            m.gauge_set("scaler.events_dropped", &[], dropped as f64);
        }
        if applied {
            m.counter_add("train.steps", &[], 1);
            m.gauge_set("train.loss", &[], loss_value as f64);
        } else {
            m.counter_add("train.skipped", &[], 1);
        }
        m.gauge_set("train.loss_scale", &[], scale as f64);
        if !applied {
            t.instant(
                "train.skip",
                "train",
                vec![("loss".to_string(), loss_value as f64)],
            );
        }
    }

    /// Bookkeeping for a skipped (non-finite) step: back the dynamic
    /// scale off, and roll back to the latest snapshot once the skip
    /// streak reaches the configured threshold.
    fn on_skipped_step(&mut self) {
        self.skipped += 1;
        self.consecutive_skips += 1;
        if let Some(sc) = &mut self.scaler {
            sc.on_overflow();
        }
        let threshold = match self.rollback_after {
            Some(k) => k,
            None => return,
        };
        if self.consecutive_skips < threshold {
            return;
        }
        if let Some(snap) = &self.snapshot {
            self.model.params = snap.params.clone();
            self.opt = snap.opt.clone();
            // Restore the amax history as of the snapshot and sweep out
            // anything non-finite that slipped in before the guard.
            let tracker = self.qctx.tracker();
            *tracker.borrow_mut() = snap.tracker.clone();
            tracker.borrow_mut().flush_poisoned();
            self.steps = snap.steps;
            self.consecutive_skips = 0;
            self.rollbacks += 1;
            if let Some(t) = self.qctx.trace() {
                let mut t = t.borrow_mut();
                t.instant(
                    "train.rollback",
                    "train",
                    vec![("to_step".to_string(), snap.steps as f64)],
                );
                t.metrics_mut().counter_add("train.rollbacks", &[], 1);
            }
        }
    }
}

/// Exact capture of every parameter, in `ParamStore`'s sorted order.
fn params_to_blobs(params: &ParamStore) -> Vec<TensorBlob> {
    params
        .iter()
        .map(|(name, t)| TensorBlob::from_f32(name, t.shape(), t.data()))
        .collect()
}

/// The deployable export: stored codes + per-tensor power-of-two scale in
/// the scheme's forward (storage) format. Empty for `Fp32` schemes, where
/// the `params` section already *is* the storage representation.
fn qparams_for(params: &ParamStore, fmt: ElemFormat) -> Vec<QuantBlob> {
    if fmt == ElemFormat::Fp32 {
        return Vec::new();
    }
    params
        .iter()
        .map(|(name, t)| {
            let scale = AmaxTracker::scale_from_amax(t.amax(), fmt);
            let codes = t
                .data()
                .iter()
                .map(|&x| fmt.encode_code(x * scale).expect("fmt is not Fp32"))
                .collect();
            QuantBlob {
                name: name.to_string(),
                shape: t.shape().iter().map(|&d| d as u32).collect(),
                format: fmt.name().to_string(),
                scale_bits: scale.to_bits(),
                codes,
            }
        })
        .collect()
}

/// Overwrite `dst` from checkpointed blobs, refusing any mismatch in the
/// parameter set or shapes — a checkpoint from a different architecture
/// must never be partially applied.
fn restore_params(dst: &mut ParamStore, blobs: &[TensorBlob]) -> Result<(), CkptError> {
    let names = dst.names();
    if blobs.len() != names.len() {
        return Err(CkptError::Malformed(format!(
            "checkpoint has {} parameters, model has {}",
            blobs.len(),
            names.len()
        )));
    }
    for b in blobs {
        if !dst.contains(&b.name) {
            return Err(CkptError::Malformed(format!(
                "checkpoint parameter {:?} not in model",
                b.name
            )));
        }
        let expect = dst.get(&b.name).shape().to_vec();
        if b.shape_usize() != expect {
            return Err(CkptError::Malformed(format!(
                "checkpoint parameter {:?} has shape {:?}, model expects {:?}",
                b.name,
                b.shape_usize(),
                expect
            )));
        }
    }
    for b in blobs {
        dst.insert(
            b.name.clone(),
            Tensor::from_vec(b.to_f32(), &b.shape_usize()),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{AdamW, Sgd};
    use qt_datagen::{ClassifyKind, ClassifyTask};
    use qt_quant::QuantScheme;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_classify_trainer(scheme: QuantScheme) -> (Trainer<AdamW>, ClassifyTask) {
        let mut rng = StdRng::seed_from_u64(10);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 2;
        let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
        let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
        let trainer = Trainer::new(
            model,
            QuantCtx::training(scheme),
            TrainMode::Full,
            AdamW::new(3e-3),
        );
        (trainer, task)
    }

    #[test]
    fn classify_loss_decreases_fp32() {
        let (mut tr, task) = tiny_classify_trainer(QuantScheme::fp32());
        let data = task.dataset(64, 1);
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..6 {
            for chunk in data.chunks(16) {
                let (batch, labels) = task.batch(chunk);
                let l = tr.step_classify(&batch, &labels);
                if epoch == 0 && first == 0.0 {
                    first = l;
                }
                last = l;
            }
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
        assert_eq!(tr.skipped(), 0);
    }

    #[test]
    fn classify_trains_under_posit8() {
        let (mut tr, task) = tiny_classify_trainer(QuantScheme::posit8());
        let data = task.dataset(64, 2);
        let mut last = f32::INFINITY;
        for _ in 0..6 {
            for chunk in data.chunks(16) {
                let (batch, labels) = task.batch(chunk);
                last = tr.step_classify(&batch, &labels);
            }
        }
        assert!(last.is_finite());
        assert!(tr.steps() > 0);
        assert!(last < 0.7, "posit8 training should make progress: {last}");
    }

    #[test]
    fn sgd_span_step_runs() {
        use qt_datagen::SpanTask;
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 1;
        let task = SpanTask::new(cfg.vocab, 16);
        let model = Model::new(cfg, TaskHead::Span, &mut rng);
        let mut tr = Trainer::new(
            model,
            QuantCtx::training(QuantScheme::bf16()),
            TrainMode::Full,
            Sgd::with_momentum(0.05, 0.9),
        );
        let data = task.dataset(8, 4);
        let (batch, spans) = task.batch(&data);
        let l1 = tr.step_span(&batch, &spans);
        for _ in 0..8 {
            tr.step_span(&batch, &spans);
        }
        let l2 = tr.step_span(&batch, &spans);
        assert!(l2 < l1, "{l1} -> {l2}");
    }

    #[test]
    fn dynamic_scaling_recovers_where_static_scale_diverges() {
        // Inject gradient overflow via an infinite loss scale: the
        // backward pass seeds every gradient with ±∞/NaN and the step is
        // skipped, deterministically.
        let data_seed = 1;
        let huge = f32::INFINITY;

        // Regression baseline: with the static scale the run "diverges" —
        // not a single optimizer step is ever applied.
        let scheme = QuantScheme::fp32().with_scaling(ScalingMode::LossScale(huge));
        let (mut tr, task) = tiny_classify_trainer(scheme);
        let data = task.dataset(32, data_seed);
        for chunk in data.chunks(16) {
            let (batch, labels) = task.batch(chunk);
            tr.step_classify(&batch, &labels);
        }
        assert_eq!(tr.steps(), 0, "static huge scale must skip everything");
        assert!(tr.skipped() > 0);

        // Same injected overflow, but with dynamic scaling: the scaler
        // backs off until gradients are finite and the run completes.
        let (tr2, task) = tiny_classify_trainer(QuantScheme::fp32());
        let mut tr2 = tr2.with_dynamic_scaling(
            LossScaler::new(huge)
                .with_backoff(1.0 / 65536.0)
                .with_growth(2.0, 8),
        );
        let data = task.dataset(32, data_seed);
        let mut last = f32::NAN;
        for _ in 0..4 {
            for chunk in data.chunks(16) {
                let (batch, labels) = task.batch(chunk);
                last = tr2.step_classify(&batch, &labels);
            }
        }
        assert!(tr2.skipped() > 0, "the overflow must actually trigger");
        assert!(tr2.steps() > 0, "dynamic scaling must recover");
        assert!(last.is_finite(), "run completes with a finite loss: {last}");
        assert!(
            tr2.scaler().unwrap().scale() < huge,
            "scale backed off from the injected overflow"
        );
    }

    #[test]
    fn rollback_recovers_from_poisoned_parameters() {
        let (tr, task) = tiny_classify_trainer(QuantScheme::fp32());
        let mut tr = tr.with_snapshots(1, 3);
        let data = task.dataset(16, 7);
        let (batch, labels) = task.batch(&data);
        for _ in 0..2 {
            tr.step_classify(&batch, &labels);
        }
        assert_eq!(tr.steps(), 2);

        // Simulate corrupted state (e.g. an undetected SRAM upset in the
        // weight buffer): skipping alone can never heal NaN parameters.
        tr.model
            .params
            .get_mut("head.cls.w")
            .map_inplace(|_| f32::NAN);
        for _ in 0..3 {
            let l = tr.step_classify(&batch, &labels);
            assert!(!l.is_finite());
        }
        assert_eq!(tr.rollbacks(), 1, "third consecutive skip rolls back");
        assert!(
            tr.model
                .params
                .get("head.cls.w")
                .data()
                .iter()
                .all(|x| x.is_finite()),
            "parameters restored from snapshot"
        );
        // Training proceeds normally after the rollback.
        let before = tr.steps();
        let l = tr.step_classify(&batch, &labels);
        assert!(l.is_finite());
        assert_eq!(tr.steps(), before + 1);
        assert_eq!(tr.consecutive_skips(), 0);
    }

    #[test]
    fn traced_trainer_emits_step_metrics_and_scaler_history() {
        use qt_trace::TraceSession;
        use std::rc::Rc;

        let mut rng = StdRng::seed_from_u64(10);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 1;
        let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 16);
        let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
        let session = TraceSession::new("train").handle();
        let qctx = QuantCtx::training(QuantScheme::fp32()).with_trace(Rc::clone(&session));
        // Infinite initial scale: the first step overflows (backoff),
        // later clean steps grow the scale back.
        let mut tr = Trainer::new(model, qctx, TrainMode::Full, AdamW::new(3e-3))
            .with_dynamic_scaling(
                LossScaler::new(f32::INFINITY)
                    .with_backoff(1.0 / 65536.0)
                    .with_growth(2.0, 2),
            );
        let data = task.dataset(16, 3);
        let (batch, labels) = task.batch(&data);
        for _ in 0..6 {
            tr.step_classify(&batch, &labels);
        }
        assert!(tr.skipped() > 0 && tr.steps() > 0);

        let sess = session.borrow();
        let m = sess.metrics();
        assert_eq!(m.counter_value("train.steps", &[]), tr.steps() as u64);
        assert_eq!(m.counter_value("train.skipped", &[]), tr.skipped() as u64);
        assert!(m.gauge_value("train.loss", &[]).unwrap().is_finite());
        assert_eq!(
            m.gauge_value("train.loss_scale", &[]),
            Some(tr.loss_scale() as f64)
        );
        // Scaler history replays the backoff-then-grow trajectory, and
        // the scaler's own log was drained into the session.
        let hist = sess.scaler_history();
        assert_eq!(hist[0].event, "backoff");
        assert!(hist.iter().any(|r| r.event == "grow"));
        assert!(tr.scaler().unwrap().events().is_empty());
        // One span per step, all closed; skips appear as instants.
        let steps = sess
            .records()
            .iter()
            .filter(|r| r.name == "train.step")
            .count();
        assert_eq!(steps, 6);
        assert_eq!(sess.open_spans(), 0);
        assert!(sess.records().iter().any(|r| r.name == "train.skip"));
    }

    #[test]
    fn checkpoint_resume_continues_bitwise_identically() {
        use qt_ckpt::CheckpointStore;

        let dir = std::env::temp_dir().join(format!("qt-train-ckpt-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir);
        let data_seed = 11u64;
        let total_steps = 8;

        // Reference: 8 uninterrupted steps under a quantized scheme.
        let (mut reference, task) = tiny_classify_trainer(QuantScheme::posit8());
        let data = task.dataset(64, data_seed);
        let chunks: Vec<_> = data.chunks(16).collect();
        let mut ref_losses = Vec::new();
        for chunk in chunks.iter().cycle().take(total_steps) {
            let (batch, labels) = task.batch(chunk);
            ref_losses.push(reference.step_classify(&batch, &labels));
        }

        // Interrupted run: checkpoint every 2 steps, "crash" after step 5.
        let (tr_a, _) = tiny_classify_trainer(QuantScheme::posit8());
        let mut tr_a = tr_a.with_checkpointing(store.clone(), 2, data_seed);
        for chunk in chunks.iter().cycle().take(5) {
            let (batch, labels) = task.batch(chunk);
            tr_a.step_classify(&batch, &labels);
        }
        drop(tr_a); // steps 1–5 ran; generations exist for steps 2 and 4

        // Fresh process stand-in: new trainer, resume, replay the tail.
        let (tr_b, _) = tiny_classify_trainer(QuantScheme::posit8());
        let mut tr_b = tr_b.with_checkpointing(store, 2, data_seed);
        let info = tr_b.resume_latest().unwrap().expect("checkpoints exist");
        assert_eq!(info.fallback_depth, 0);
        let resumed_at = tr_b.global_step();
        assert_eq!(resumed_at, 4, "newest generation is the step-4 save");
        let mut resumed_losses = Vec::new();
        for chunk in chunks
            .iter()
            .cycle()
            .skip(resumed_at)
            .take(total_steps - resumed_at)
        {
            let (batch, labels) = task.batch(chunk);
            resumed_losses.push(tr_b.step_classify(&batch, &labels));
        }

        // The resumed trajectory is bitwise-identical to the reference:
        // same losses, same final parameters, bit for bit.
        for (i, (r, c)) in ref_losses[resumed_at..]
            .iter()
            .zip(&resumed_losses)
            .enumerate()
        {
            assert_eq!(r.to_bits(), c.to_bits(), "loss diverged at tail step {i}");
        }
        for name in reference.model.params.names() {
            let a = reference.model.params.get(&name);
            let b = tr_b.model.params.get(&name);
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "param {name} diverged");
            }
        }
        // The quantized export rides along for non-FP32 schemes.
        let state = tr_b.capture_state();
        assert!(!state.qparams.is_empty());
        assert_eq!(state.qparams[0].format, "Posit(8,1)");
        let _ = std::fs::remove_dir_all(tr_b.checkpoint_store().unwrap().dir());
    }

    #[test]
    fn loss_scaling_unscales_gradients() {
        // Same data, same seed: a huge loss scale must leave updates
        // (nearly) unchanged in FP32 where no underflow occurs.
        let run = |scheme: QuantScheme| {
            let (mut tr, task) = tiny_classify_trainer(scheme);
            let data = task.dataset(16, 5);
            let (batch, labels) = task.batch(&data);
            for _ in 0..3 {
                tr.step_classify(&batch, &labels);
            }
            tr.model.params.get("head.cls.w").clone()
        };
        let a = run(QuantScheme::fp32());
        let b = run(QuantScheme::fp32().with_scaling(ScalingMode::LossScale(4096.0)));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }
}
