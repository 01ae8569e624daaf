//! [`QuantCtx`]: injects quantization at operation boundaries.
//!
//! The paper's simulation recipe (§6): *"clipping tensor values to the
//! Posit8 or FP8 representable range before and after each operation;
//! storing the value back into BFloat16"*. Here every operation input runs
//! through [`QuantCtx::cut`], which
//!
//! - **forward**: fake-quantizes the value to the forward format — unless
//!   the site’s [`OpClass`] is fused at the scheme’s fusion level;
//! - **backward**: quantizes the gradient to the backward format, applying
//!   per-tensor delayed scaling (§5.1) and recording the observed amax into
//!   the shared [`AmaxTracker`].
//!
//! A frozen parameter's GEMM cut goes through `QuantCtx::cut_frozen`
//! instead: the forward value is taken once per quantizer and memoized on
//! the [`ParamStore`] entry, and the context replays that cut's health and
//! trace event at every use.

use crate::cancel::{CancelToken, ForwardCancelled};
use crate::params::ParamStore;
use crate::probe::ProbeStore;
use crate::softmax::Softmax;
use qt_autograd::{Tape, Var};
use qt_quant::{
    AmaxTracker, ElemFormat, FakeQuant, OpClass, QuantScheme, ScalingMode, TensorHealth,
};
use qt_tensor::{Tensor, TensorStats};
use qt_trace::{CycleModel, QuantEvent, SpanId, TraceHandle};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Quantization context threaded through a model's forward pass.
#[derive(Clone)]
pub struct QuantCtx {
    scheme: QuantScheme,
    fq_fwd: Rc<FakeQuant>,
    fq_bwd: Rc<FakeQuant>,
    softmax: Rc<Softmax>,
    tracker: Rc<RefCell<AmaxTracker>>,
    health: Rc<RefCell<BTreeMap<String, TensorHealth>>>,
    probe: Option<Rc<RefCell<ProbeStore>>>,
    trace: Option<TraceHandle>,
    cycles: Option<Rc<dyn CycleModel>>,
    cancel: Option<CancelToken>,
    training: bool,
}

impl QuantCtx {
    /// Context for inference (no gradient bookkeeping).
    pub fn inference(scheme: QuantScheme) -> Self {
        Self::build(scheme, false)
    }

    /// Context for training: gradients are quantized and amax history is
    /// tracked.
    pub fn training(scheme: QuantScheme) -> Self {
        Self::build(scheme, true)
    }

    fn build(scheme: QuantScheme, training: bool) -> Self {
        let history = match scheme.scaling {
            ScalingMode::PerTensorAmax { history } => history,
            _ => 1,
        };
        Self {
            scheme,
            fq_fwd: Rc::new(FakeQuant::with_guard(
                scheme.fwd,
                scheme.underflow,
                scheme.nonfinite,
            )),
            fq_bwd: Rc::new(FakeQuant::with_guard(
                scheme.bwd,
                scheme.underflow,
                scheme.nonfinite,
            )),
            softmax: Rc::new(Softmax::new(scheme.softmax)),
            tracker: Rc::new(RefCell::new(AmaxTracker::new(history))),
            health: Rc::new(RefCell::new(BTreeMap::new())),
            probe: None,
            trace: None,
            cycles: None,
            cancel: None,
            training,
        }
    }

    /// Attach a cooperative cancellation token: the model charges one
    /// block credit per transformer block against it and
    /// [`crate::Model::try_forward`] aborts cleanly when the token
    /// cancels or its budget runs dry.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Charge one block credit against the attached token; infallible
    /// when no token is attached.
    pub fn charge_block(&self) -> Result<(), ForwardCancelled> {
        match &self.cancel {
            Some(t) => t.charge_block(),
            None => Ok(()),
        }
    }

    /// Attach a probe that records pre-quantization tensor statistics at
    /// every cut.
    pub fn with_probe(mut self, probe: Rc<RefCell<ProbeStore>>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attach a trace session: every cut emits a quantization event, the
    /// model wraps blocks/attention/FFNs in spans, and (with a cycle
    /// model) each GEMM becomes a span whose duration is simulated
    /// cycles. Without a session none of that work happens.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attach a cycle-cost oracle (e.g. `qt_accel::SystolicSim`) used to
    /// attribute simulated cycles to GEMM/softmax spans. Only consulted
    /// when a trace session is also attached.
    pub fn with_cycle_model(mut self, model: Rc<dyn CycleModel>) -> Self {
        self.cycles = Some(model);
        self
    }

    /// The attached trace session, if any.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// `true` when a trace session is attached (cheap gate for callers
    /// that would otherwise build span names for nothing).
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Open a span on the attached session; no-op (returns `None`)
    /// untraced.
    pub fn span_begin(&self, name: &str, cat: &str) -> Option<SpanId> {
        self.trace.as_ref().map(|t| t.borrow_mut().begin(name, cat))
    }

    /// Close a span opened by [`QuantCtx::span_begin`].
    pub fn span_end(&self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (&self.trace, id) {
            t.borrow_mut().end(id);
        }
    }

    /// Record a simulated-GEMM span at `site` for `x @ w` as the
    /// accelerator sees it: one `[m, k] × [k, n]` product with `k` the last
    /// axis of `x`, `m` the product of its leading axes and `n` the last
    /// axis of `w`. Attributes the simulated cycles to the active kernel
    /// backend (`gemm.backend.cycles`, labelled by the dispatch decision —
    /// deterministic, never wall time). No-op unless both a session and a
    /// cycle model are attached.
    fn gemm_span(&self, site: &str, x: &[usize], w: &[usize]) {
        if let (Some(t), Some(cm), Some((&k, lead)), Some(&n)) =
            (&self.trace, &self.cycles, x.split_last(), w.last())
        {
            let m: usize = lead.iter().product();
            let cost = cm.gemm_cost(m as u64, k as u64, n as u64);
            let mut t = t.borrow_mut();
            t.metrics_mut().counter_add(
                "gemm.backend.cycles",
                &[("backend", qt_tensor::kernels::active().name())],
                cost.cycles,
            );
            t.gemm(site, [m as u64, k as u64, n as u64], cost);
        }
    }

    /// The scheme in effect.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// Shared amax tracker (inspect after training for Figure 10).
    pub fn tracker(&self) -> Rc<RefCell<AmaxTracker>> {
        Rc::clone(&self.tracker)
    }

    /// Per-cut numerical health accumulated since the last
    /// [`QuantCtx::reset_health`], sorted by cut name. Forward cuts are
    /// keyed by their site name, gradient cuts by `"<name>.grad"`.
    pub fn health_report(&self) -> Vec<(String, TensorHealth)> {
        self.health
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Health of one cut site, if it has run.
    pub fn health_of(&self, name: &str) -> Option<TensorHealth> {
        self.health.borrow().get(name).copied()
    }

    /// All health counters folded into one summary.
    pub fn health_total(&self) -> TensorHealth {
        let mut total = TensorHealth::default();
        for h in self.health.borrow().values() {
            total.merge(h);
        }
        total
    }

    /// Clear accumulated health counters (e.g. between batches).
    pub fn reset_health(&self) {
        self.health.borrow_mut().clear();
    }

    /// Is this site quantized under the scheme?
    pub fn quantizes(&self, op: OpClass) -> bool {
        !matches!(self.scheme.fwd, ElemFormat::Fp32) && self.scheme.quantized_ops().contains(op)
    }

    /// Quantization cut: returns a [`Var`] whose forward value is the
    /// (possibly) quantized input and whose backward pass quantizes the
    /// gradient. `name` keys the probe entry and the per-tensor amax
    /// history; use stable names like `"layer2.ffn0.act"`.
    pub fn cut(&self, tape: &mut Tape, x: Var, op: OpClass, name: &str) -> Var {
        self.probe_stats(tape.value(x), name);
        let quantize_fwd = self.quantizes(op);
        let quantize_bwd = self.training && !matches!(self.scheme.bwd, ElemFormat::Fp32);
        if !quantize_fwd && !quantize_bwd {
            return x;
        }
        let fwd_value = if quantize_fwd {
            let (v, h) = self.fq_fwd.quantize_with_health(tape.value(x));
            self.record_fwd(name, || tape.value(x).amax(), &h);
            v
        } else {
            tape.value(x).clone()
        };
        let fq_bwd = Rc::clone(&self.fq_bwd);
        let tracker = Rc::clone(&self.tracker);
        let health = Rc::clone(&self.health);
        let scaling = self.scheme.scaling;
        let bwd_fmt = self.scheme.bwd;
        let key = format!("{name}.grad");
        let probe = self.probe.clone();
        let trace = self.trace.clone();
        tape.custom(
            vec![x],
            fwd_value,
            Box::new(move |g, _parents, _| {
                if !quantize_bwd {
                    return vec![g.clone()];
                }
                if let Some(p) = &probe {
                    p.borrow_mut().record(&key, g);
                }
                let (gq, h) = match scaling {
                    ScalingMode::None | ScalingMode::LossScale(_) => fq_bwd.quantize_with_health(g),
                    ScalingMode::PerTensorAmax { .. } => {
                        // Delayed scaling: use the scale predicted from
                        // history, then record this step's amax.
                        let scale = tracker.borrow().scale_for(&key, bwd_fmt);
                        let amax = g.amax();
                        tracker.borrow_mut().record(&key, amax);
                        fq_bwd.quantize_scaled_with_health(g, scale)
                    }
                };
                if let Some(t) = &trace {
                    t.borrow_mut().quant(&QuantEvent {
                        site: &key,
                        format: bwd_fmt.name(),
                        amax: g.amax(),
                        elements: h.elements,
                        saturated: h.saturated,
                        underflowed: h.underflowed,
                        nonfinite_in: h.nonfinite_in,
                        nonfinite_out: h.nonfinite_out,
                    });
                }
                health
                    .borrow_mut()
                    .entry(key.clone())
                    .or_default()
                    .merge(&h);
                vec![gq]
            }),
        )
    }

    /// GEMM-site cut of the frozen parameter `name`, whose shared raw leaf
    /// on `tape` is `w`. The forward value comes from the parameter's memo
    /// ([`ParamStore::prepared`]), filled on first use, and enters the tape
    /// as a shared leaf; the memoized health is merged under `site` and the
    /// same trace event as [`QuantCtx::cut`] is emitted, so health reports
    /// and `quant.*` counters match a per-call cut. A probe still records
    /// the raw parameter, and a site the scheme does not quantize gets `w`
    /// itself.
    ///
    /// Bitwise equivalent to [`QuantCtx::cut`] on `w`: the cut is a pure
    /// function of value and quantizer, and a frozen leaf receives no
    /// gradient, so a training context's gradient cut would never run.
    pub(crate) fn cut_frozen(
        &self,
        tape: &mut Tape,
        w: Var,
        params: &ParamStore,
        name: &str,
        site: &str,
    ) -> Var {
        self.probe_stats(tape.value(w), site);
        if !self.quantizes(OpClass::Gemm) {
            return w;
        }
        let cut = params.prepared(name, &self.fq_fwd);
        self.record_fwd(site, || cut.amax, &cut.health);
        tape.leaf_shared(cut.value, false)
    }

    /// Record pre-quantization statistics of `x` at `site` on the attached
    /// probe; no-op without one.
    fn probe_stats(&self, x: &Tensor, site: &str) {
        if let Some(p) = &self.probe {
            let stats = TensorStats::of(x);
            // Probe records also flow into the attached session's metrics
            // registry, on the same binade axis.
            if let Some(t) = &self.trace {
                let mut t = t.borrow_mut();
                let m = t.metrics_mut();
                m.merge_hist("probe.log2", &[("site", site)], &stats.log2_hist);
                m.gauge_set("probe.amax", &[("site", site)], stats.amax as f64);
            }
            p.borrow_mut().record_stats(site, stats);
        }
    }

    /// Account one forward quantization at `site`: the trace event (with
    /// the pre-cut amax, computed only when traced) and the merged health
    /// counters.
    fn record_fwd(&self, site: &str, amax: impl FnOnce() -> f32, h: &TensorHealth) {
        if let Some(t) = &self.trace {
            t.borrow_mut().quant(&QuantEvent {
                site,
                format: self.scheme.fwd.name(),
                amax: amax(),
                elements: h.elements,
                saturated: h.saturated,
                underflowed: h.underflowed,
                nonfinite_in: h.nonfinite_in,
                nonfinite_out: h.nonfinite_out,
            });
        }
        self.health
            .borrow_mut()
            .entry(site.to_string())
            .or_default()
            .merge(h);
    }

    /// The model's GEMM entry point: `x @ w` where both operands have
    /// already been cut, so the multiply itself runs on 8-bit grid values
    /// in the f32 carrier — the paper's simulation recipe — through the
    /// ordinary [`Tape::matmul`] and its exact backward.
    ///
    /// Traced, it records the GEMM span at `site` (see `gemm_span`) and
    /// counts the dispatch on `gemm.backend{backend, domain="f32"}` — the
    /// SIMD backend the kernel layer selected, a deterministic decision.
    pub fn matmul_q(&self, tape: &mut Tape, x: Var, w: Var, site: &str) -> Var {
        if let Some(t) = &self.trace {
            self.gemm_span(site, tape.value(x).shape(), tape.value(w).shape());
            t.borrow_mut().metrics_mut().counter_add(
                "gemm.backend",
                &[
                    ("backend", qt_tensor::kernels::active().name()),
                    ("domain", "f32"),
                ],
                1,
            );
        }
        tape.matmul(x, w)
    }

    /// The scheme's softmax, recorded with its custom backward. Traced with
    /// a cycle model, also attributes vector-unit cycles at `site`: rows
    /// are the product of the leading dimensions, width the trailing one —
    /// the shape the accelerator's vector unit sees.
    pub fn softmax(&self, tape: &mut Tape, scores: Var, site: &str) -> Var {
        if let (Some(t), Some(cm)) = (&self.trace, &self.cycles) {
            let shape = tape.value(scores).shape().to_vec();
            if let Some((&width, rows)) = shape.split_last() {
                let rows: usize = rows.iter().product();
                let cycles = cm.softmax_cycles(rows as u64, width as u64);
                t.borrow_mut().vector(site, cycles, (rows * width) as u64);
            }
        }
        self.softmax.apply(tape, scores)
    }

    /// `true` when constructed with [`QuantCtx::training`].
    pub fn is_training(&self) -> bool {
        self.training
    }
}

impl core::fmt::Debug for QuantCtx {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QuantCtx")
            .field("scheme", &self.scheme)
            .field("training", &self.training)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::FusionLevel;
    use qt_tensor::Tensor;

    #[test]
    fn cut_quantizes_forward_value() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.03, 9999.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        assert_eq!(tape.value(q).data(), &[1.0, 4096.0]);
    }

    #[test]
    fn fusion_skips_forward_quantization() {
        let scheme = QuantScheme::posit8().with_fusion(FusionLevel::Residual);
        let ctx = QuantCtx::inference(scheme);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.03], &[1]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Residual, "t");
        assert_eq!(tape.value(q).data(), &[1.03]); // untouched
        let g = ctx.cut(&mut tape, x, OpClass::Gemm, "t2");
        assert_eq!(tape.value(g).data(), &[1.0]); // GEMM still quantized
    }

    #[test]
    fn training_quantizes_gradients_with_scaling() {
        let ctx = QuantCtx::training(QuantScheme::posit8());
        let mut tape = Tape::new();
        // gradient magnitude ~1e-5: underflows Posit8 without scaling
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        let s = tape.sum_all(q);
        let tiny = tape.mul_scalar(s, 1e-5);
        // First backward: no history → scale derived from amax=1 (64);
        // 1e-5·64 ≈ 2^-10.6 sits at the very bottom of the posit range,
        // so the gradient survives only coarsely (> 30% error).
        let g1 = tape.backward(tiny);
        let coarse = g1.get(x).unwrap().data()[0];
        assert!(coarse > 0.0, "coarse grad lost entirely");
        assert!(
            (coarse - 1e-5).abs() / 1e-5 > 0.3,
            "first step should be coarse, got {coarse}"
        );
        // History now knows amax=1e-5 → next step's scale rescues it.
        let g2 = tape.backward(tiny);
        let gx = g2.get(x).unwrap();
        assert!(
            (gx.data()[0] - 1e-5).abs() / 1e-5 < 0.05,
            "rescued grad {:?}",
            gx.data()
        );
    }

    #[test]
    fn identity_scheme_is_transparent() {
        let ctx = QuantCtx::training(QuantScheme::fp32());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.12345], &[1]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        assert_eq!(q, x); // no node inserted at all
    }

    #[test]
    fn cut_accumulates_health_per_site() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        // One saturating and one underflowing element at site "a"; a clean
        // tensor at site "b".
        let a = tape.leaf(Tensor::from_vec(vec![1e9, 1e-9, 1.0], &[3]), false);
        let b = tape.leaf(Tensor::from_vec(vec![0.5, -0.25], &[2]), false);
        let _ = ctx.cut(&mut tape, a, OpClass::Gemm, "a");
        let _ = ctx.cut(&mut tape, b, OpClass::Gemm, "b");
        let ha = ctx.health_of("a").unwrap();
        assert_eq!(ha.elements, 3);
        assert_eq!(ha.saturated, 1);
        assert_eq!(ha.underflowed, 1);
        let hb = ctx.health_of("b").unwrap();
        assert!(hb.is_clean());
        // Second pass over the same site accumulates.
        let _ = ctx.cut(&mut tape, a, OpClass::Gemm, "a");
        assert_eq!(ctx.health_of("a").unwrap().elements, 6);
        let total = ctx.health_total();
        assert_eq!(total.elements, 8);
        assert_eq!(total.saturated, 2);
        ctx.reset_health();
        assert!(ctx.health_report().is_empty());
    }

    #[test]
    fn gradient_cut_reports_health_under_grad_key() {
        let ctx = QuantCtx::training(QuantScheme::posit8());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "t");
        let s = tape.sum_all(q);
        let _ = tape.backward(s);
        let names: Vec<String> = ctx.health_report().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"t".to_string()));
        assert!(names.contains(&"t.grad".to_string()), "{names:?}");
    }

    #[test]
    fn health_report_is_sorted_and_merges_repeat_sites() {
        let ctx = QuantCtx::training(QuantScheme::posit8());
        let mut tape = Tape::new();
        // Cut sites deliberately out of lexicographic order, one repeated.
        for (name, n) in [("z.act", 2usize), ("a.act", 3), ("m.act", 1), ("a.act", 3)] {
            let x = tape.leaf(Tensor::from_vec(vec![1.0; n], &[n]), true);
            let q = ctx.cut(&mut tape, x, OpClass::Gemm, name);
            let s = tape.sum_all(q);
            let _ = tape.backward(s);
        }
        let report = ctx.health_report();
        let names: Vec<&str> = report.iter().map(|(n, _)| n.as_str()).collect();
        // Sorted by site name, forward and ".grad" keys interleaved.
        assert_eq!(
            names,
            [
                "a.act",
                "a.act.grad",
                "m.act",
                "m.act.grad",
                "z.act",
                "z.act.grad"
            ]
        );
        // The repeated site merged both passes: 3 + 3 elements.
        let a = &report[0].1;
        assert_eq!(a.elements, 6);
        assert_eq!(ctx.health_of("a.act.grad").unwrap().elements, 6);
    }

    #[test]
    fn traced_cut_emits_quant_events_and_probe_metrics() {
        let probe = Rc::new(RefCell::new(ProbeStore::new()));
        let session = qt_trace::TraceSession::new("t").handle();
        let ctx = QuantCtx::training(QuantScheme::posit8())
            .with_probe(Rc::clone(&probe))
            .with_trace(Rc::clone(&session));
        assert!(ctx.traced());
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1e9, 1.0], &[2]), true);
        let q = ctx.cut(&mut tape, x, OpClass::Gemm, "site");
        let s = tape.sum_all(q);
        let _ = tape.backward(s);
        let sess = session.borrow();
        // Forward event carries pre-quant amax and the saturation count.
        let fwd = &sess.quant_sites()["site"];
        assert_eq!(fwd.events, 1);
        assert_eq!(fwd.saturated, 1);
        assert_eq!(fwd.amax_max, 1e9);
        assert!(fwd.formats.contains("Posit(8,1)"));
        // Backward event lands under the .grad key.
        assert_eq!(sess.quant_sites()["site.grad"].events, 1);
        // Probe records flowed into the metrics registry.
        let hist = sess
            .metrics()
            .hist("probe.log2", &[("site", "site")])
            .unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(
            sess.metrics()
                .gauge_value("probe.amax", &[("site", "site")]),
            Some(1e9)
        );
    }

    #[test]
    fn untraced_ctx_keeps_hot_path_quiet() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        assert!(!ctx.traced());
        assert!(ctx.span_begin("x", "block").is_none());
        ctx.span_end(None);
        ctx.gemm_span("g", &[4, 4], &[4, 4]); // no session/model: silently ignored
    }

    #[test]
    fn matmul_q_code_path_is_bitwise_identical_to_tape_matmul() {
        let ctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        let (b, m, k, n) = (2usize, 5, 33, 17);
        let xs: Vec<f32> = (0..b * m * k).map(|i| (i as f32) * 0.173 - 9.0).collect();
        let ws: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.031 - 4.0).collect();
        let x0 = tape.leaf(Tensor::from_vec(xs, &[b, m, k]), true);
        let w0 = tape.leaf(Tensor::from_vec(ws, &[k, n]), true);
        // Cut both operands as the model does, then multiply the grid
        // values: matmul_q must be exactly Tape::matmul, forward and
        // backward.
        let x = ctx.cut(&mut tape, x0, OpClass::Gemm, "x");
        let w = ctx.cut(&mut tape, w0, OpClass::Gemm, "w");
        let yq = ctx.matmul_q(&mut tape, x, w, "site");
        let yf = tape.matmul(x, w);
        let (qv, fv) = (tape.value(yq).clone(), tape.value(yf).clone());
        assert_eq!(qv.shape(), fv.shape());
        for (a, b) in qv.data().iter().zip(fv.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "matmul_q diverged: {a} vs {b}");
        }
        let sq = tape.sum_all(yq);
        let gq = tape.backward(sq);
        let sf = tape.sum_all(yf);
        let gf = tape.backward(sf);
        for v in [x0, w0] {
            let (a, b) = (gq.get(v).unwrap(), gf.get(v).unwrap());
            assert_eq!(a.data(), b.data(), "grad mismatch through matmul_q");
        }
    }

    /// Every GEMM a traced forward issues — inference or training, linear
    /// or batched attention — runs in the f32 domain and is counted there.
    #[test]
    fn traced_forwards_count_every_gemm_in_the_f32_domain() {
        use crate::{Model, TaskHead, TokenBatch, TrainMode, TransformerConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransformerConfig::gpt2_large_sim();
        let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
        let batch = TokenBatch::dense((0..8).map(|i| i % cfg.vocab).collect(), 2, 4);
        let backend = qt_tensor::kernels::active().name();
        for ctx in [
            QuantCtx::inference(QuantScheme::posit8()),
            QuantCtx::training(QuantScheme::posit8()),
        ] {
            let session = qt_trace::TraceSession::new("t").handle();
            let ctx = ctx.with_trace(Rc::clone(&session));
            let mut tape = Tape::new();
            let _ = model.forward(&mut tape, &ctx, &batch, None, TrainMode::Frozen);
            // Per block: q/k/v/o + scores + ctx + the FFN pair; then head.lm.
            let gemms = cfg.layers * (6 + 2 * cfg.stacked_ffn) + 1;
            let m = session.borrow();
            let count = |domain| {
                m.metrics()
                    .counter_value("gemm.backend", &[("backend", backend), ("domain", domain)])
            };
            assert_eq!(count("f32"), gemms as u64, "training={}", ctx.is_training());
            assert_eq!(count("code"), 0, "training={}", ctx.is_training());
        }
    }

    #[test]
    fn probe_records_pre_quant_stats() {
        let probe = Rc::new(RefCell::new(ProbeStore::new()));
        let ctx = QuantCtx::inference(QuantScheme::posit8()).with_probe(Rc::clone(&probe));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![123456.0], &[1]), false);
        let _ = ctx.cut(&mut tape, x, OpClass::Gemm, "site");
        let p = probe.borrow();
        let (name, stats) = &p.entries()[0];
        assert_eq!(name, "site");
        assert_eq!(stats.amax, 123456.0); // pre-quantization value
    }
}
