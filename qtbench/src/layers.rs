//! The traced run: per-layer numbers from the spans the program already
//! emits, plus the benchmark's own timed calls into single layers.
//!
//! A [`Tracer`] attaches a fresh `qt_trace::TraceSession` and a
//! `qt_accel::SystolicSim` cycle model to a clone of the workload's
//! `QuantCtx` (clones share the weight-pack cache, so tracing does not
//! repack). One session covers one operation; [`Profile::absorb`] folds
//! it into per-operation sums and drops it, which keeps memory flat.

use crate::bench::{closed_loop, Loop, Settings};
use crate::report::{mean, median, Metric, Outcome};
use qt_accel::{Accelerator, SystolicSim};
use qt_bench::datapath_for;
use qt_quant::{matmul_codes, ElemFormat, FakeQuant, PackedQuantB};
use qt_tensor::Tensor;
use qt_trace::{CycleModel, RecordKind, TraceHandle, TraceSession};
use qt_transformer::QuantCtx;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Per-layer metrics: `(name, unit)`. Every workload reports all of
/// them; a layer a workload never enters reads 0 (counts only — every
/// time below is measured on every workload).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("transformer.embed_self_ms", "ms"),
    ("transformer.attn_self_ms", "ms"),
    ("transformer.ffn_self_ms", "ms"),
    ("transformer.block_self_ms", "ms"),
    ("transformer.head_self_ms", "ms"),
    ("transformer.unspanned_ms", "ms"),
    ("transformer.forward_ms", "ms"),
    ("op.wall_ms", "ms"),
    ("op.ms_per_forward", "ms"),
    ("op.forwards", "count"),
    ("op.encoder_passes", "count"),
    ("op.positions_per_output", "ratio"),
    ("op.outside_forward_ms", "ms"),
    ("op.useful_ratio", "ratio"),
    ("quant.elements", "count"),
    ("quant.ns_per_elem", "ns"),
    ("gemm.code_share", "ratio"),
    ("gemm.calls", "count"),
    ("gemm.macs", "count"),
    ("gemm.bytes_computed", "bytes"),
    ("gemm.replay_ms", "ms"),
    ("par.chunk_tasks", "count"),
    ("par.pool_size", "count"),
    ("accel.cycles", "count"),
    ("accel.wall_ns_per_cycle.attn", "ns"),
    ("accel.wall_ns_per_cycle.ffn", "ns"),
    ("accel.wall_ns_per_cycle.block", "ns"),
    ("accel.wall_ns_per_cycle.head", "ns"),
    ("serve.engine_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.max_queue_depth", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.attempts_per_request", "count"),
    ("bench.gen_late_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Per-layer values by name; [`Layers::metrics`] emits all of
/// [`PER_LAYER`] in order.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| Metric::new(n, self.0.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

/// Attaches a per-operation trace session and cycle model to a context.
pub struct Tracer {
    cycles: Rc<dyn CycleModel>,
}

impl Tracer {
    pub fn new(fmt: ElemFormat) -> Self {
        Self {
            cycles: Rc::new(SystolicSim::new(Accelerator::new(8, datapath_for(fmt)))),
        }
    }

    /// A traced clone of `qctx` and the session it records into.
    pub fn attach(&self, qctx: &QuantCtx) -> (QuantCtx, TraceHandle) {
        let h = TraceSession::new("qtbench").handle();
        let traced = qctx
            .clone()
            .with_trace(Rc::clone(&h))
            .with_cycle_model(Rc::clone(&self.cycles));
        (traced, h)
    }
}

/// What the benchmark measured around one traced operation.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    /// Wall time of the whole operation.
    pub op_ns: u64,
    /// Wall time of the operation's forward passes, when the benchmark
    /// calls `Model::forward` itself and can time its boundary.
    pub fwd_ns: Option<u64>,
    /// `qt_par` chunk tasks the operation issued.
    pub chunk_tasks: u64,
}

/// Span self-time categories, in report order.
const SELF_CATS: [&str; 6] = ["embed", "attn", "ffn", "block", "head", "train"];
/// Categories compared against predicted cycles.
const CYCLE_CATS: [&str; 4] = ["attn", "ffn", "block", "head"];

/// Per-operation sums over every traced operation of a run.
#[derive(Debug, Default)]
pub struct Profile {
    ops: u64,
    pub forwards: u64,
    encoder_passes: u64,
    self_ns: [u64; 6],
    cat_wall_ns: [u64; 4],
    cat_cycles: [u64; 4],
    /// Forward-level spans (embed/block/head with no forward parent).
    root_ns: u64,
    unspanned_ns: u64,
    fwd_ns: u64,
    op_ns: u64,
    quant_elems: u64,
    gemm_calls: u64,
    gemm_macs: u64,
    gemm_bytes: u64,
    cycles: u64,
    code_gemms: u64,
    f32_gemms: u64,
    chunk_tasks: u64,
    /// Spans whose children's wall time exceeded their own.
    clamped: u64,
    /// Quantizer calls of the first operation: `(format, elements)`.
    quant_sizes: Vec<(String, usize)>,
    /// GEMMs of the first operation: `(code_domain, m, k, n)`.
    gemm_shapes: Vec<(bool, usize, usize, usize)>,
}

impl Profile {
    /// Fold one operation's session into the sums. `code_path` says
    /// whether weight GEMMs ran in the code domain (quantized inference).
    pub fn absorb(&mut self, s: &TraceSession, t: OpTiming, code_path: bool) {
        let recs = s.records();
        let mut child_wall = vec![0u64; recs.len()];
        for r in recs {
            if let (RecordKind::SpanClosed, Some(p)) = (r.kind, r.parent) {
                child_wall[p] += r.wall_dur_ns;
            }
        }
        let first = self.ops == 0;
        let mut train_ns = None;
        let mut root_ns = 0u64;
        for (i, r) in recs.iter().enumerate() {
            if r.kind == RecordKind::Instant && r.cat == "quant" && first {
                let elems = arg(&r.args, "elements") as usize;
                let fmt = s
                    .quant_sites()
                    .get(&r.name)
                    .and_then(|q| q.formats.iter().next().cloned())
                    .unwrap_or_default();
                self.quant_sizes.push((fmt, elems));
            }
            if r.kind != RecordKind::SpanClosed {
                continue;
            }
            if r.cat == "gemm" && first {
                let site = r.name.as_str();
                let weight_gemm = !(site.ends_with(".scores") || site.ends_with(".ctx"));
                self.gemm_shapes.push((
                    code_path && weight_gemm,
                    arg(&r.args, "m") as usize,
                    arg(&r.args, "k") as usize,
                    arg(&r.args, "n") as usize,
                ));
            }
            let Some(ci) = SELF_CATS.iter().position(|&c| c == r.cat) else {
                continue;
            };
            match r.wall_dur_ns.checked_sub(child_wall[i]) {
                Some(v) => self.self_ns[ci] += v,
                None => self.clamped += 1,
            }
            if let Some(k) = CYCLE_CATS.iter().position(|&c| c == r.cat) {
                self.cat_wall_ns[k] += r.wall_dur_ns;
                self.cat_cycles[k] += r.total_cycles();
            }
            match r.cat.as_str() {
                "head" => self.forwards += 1,
                "block" if r.name == "enc.0" => self.encoder_passes += 1,
                "train" if r.name == "train.step" => {
                    *train_ns.get_or_insert(0) += r.wall_dur_ns;
                }
                _ => {}
            }
            let forward_root = match r.parent {
                None => true,
                Some(p) => recs[p].cat == "train",
            };
            if forward_root && matches!(r.cat.as_str(), "embed" | "block" | "head") {
                root_ns += r.wall_dur_ns;
            }
        }
        let (fwd, unspanned) = match (t.fwd_ns, train_ns) {
            // The benchmark timed the forward boundary itself.
            (Some(f), _) => (f, f.saturating_sub(root_ns)),
            // Training: forward glue is train.step self time; unspanned
            // is whatever of the step lies outside train.step.
            (None, Some(tr)) => (root_ns, t.op_ns.saturating_sub(tr)),
            // Decode: everything between forward spans (tape, allocation,
            // the decode loop's own bookkeeping).
            (None, None) => (root_ns, t.op_ns.saturating_sub(root_ns)),
        };
        self.root_ns += root_ns;
        self.fwd_ns += fwd;
        self.unspanned_ns += unspanned;
        self.op_ns += t.op_ns;
        self.chunk_tasks += t.chunk_tasks;
        self.quant_elems += s.quant_sites().values().map(|q| q.elements).sum::<u64>();
        for g in s.gemm_sites().values() {
            self.gemm_calls += g.count;
            self.gemm_macs += g.macs;
            self.gemm_bytes += g.sram_bytes;
            self.cycles += g.cycles;
        }
        self.cycles += s.vector_sites().values().map(|v| v.cycles).sum::<u64>();
        let backend = qt_tensor::kernels::active().name();
        let m = s.metrics();
        self.code_gemms +=
            m.counter_value("gemm.backend", &[("backend", backend), ("domain", "code")]);
        self.f32_gemms +=
            m.counter_value("gemm.backend", &[("backend", backend), ("domain", "f32")]);
        self.ops += 1;
    }

    fn per_op(&self, v: u64) -> f64 {
        v as f64 / self.ops.max(1) as f64
    }

    fn per_fwd_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.forwards.max(1) as f64
    }

    /// Mean traced operation wall time, ms.
    pub fn op_ms(&self) -> f64 {
        self.per_op(self.op_ns) / 1e6
    }

    /// Fill the span-derived metrics, the attribution check and the
    /// measured-vs-predicted table.
    pub fn report(&self, layers: &mut Layers, out: &mut Outcome) {
        for (ci, name) in [
            "transformer.embed_self_ms",
            "transformer.attn_self_ms",
            "transformer.ffn_self_ms",
            "transformer.block_self_ms",
            "transformer.head_self_ms",
        ]
        .into_iter()
        .enumerate()
        {
            layers.set(name, self.per_fwd_ms(self.self_ns[ci]));
        }
        layers.set(
            "transformer.unspanned_ms",
            self.per_op(self.unspanned_ns) / 1e6,
        );
        layers.set("transformer.forward_ms", self.per_fwd_ms(self.fwd_ns));
        layers.set("op.wall_ms", self.op_ms());
        layers.set("op.ms_per_forward", self.per_fwd_ms(self.op_ns));
        layers.set("op.forwards", self.per_op(self.forwards));
        layers.set("op.encoder_passes", self.per_op(self.encoder_passes));
        layers.set(
            "op.outside_forward_ms",
            self.per_op(self.op_ns.saturating_sub(self.fwd_ns)) / 1e6,
        );
        layers.set("quant.elements", self.per_op(self.quant_elems));
        let gemms = self.code_gemms + self.f32_gemms;
        layers.set(
            "gemm.code_share",
            self.code_gemms as f64 / gemms.max(1) as f64,
        );
        layers.set("gemm.calls", self.per_op(self.gemm_calls));
        layers.set("gemm.macs", self.per_op(self.gemm_macs));
        layers.set("gemm.bytes_computed", self.per_op(self.gemm_bytes));
        layers.set("par.chunk_tasks", self.per_op(self.chunk_tasks));
        layers.set("accel.cycles", self.per_op(self.cycles));

        // Attribution: span self times plus the unspanned remainder
        // against the benchmark's own wall clock around each operation.
        let attributed: u64 = self.self_ns.iter().sum::<u64>() + self.unspanned_ns;
        let gap = self.op_ns as f64 - attributed as f64;
        let gap_pct = 100.0 * gap / self.op_ns.max(1) as f64;
        layers.set("trace.unattributed_pct", gap_pct);
        let verdict = if gap_pct.abs() <= 5.0 {
            "within 5%"
        } else {
            "NOT within 5%: gap reported as unattributed"
        };
        out.line(format!(
            "attribution: self times + unspanned = {:.3} ms of {:.3} ms traced wall per op ({gap_pct:+.2}% unattributed, {verdict}; {} clamped spans)",
            attributed as f64 / 1e6 / self.ops.max(1) as f64,
            self.op_ms(),
            self.clamped
        ));

        out.line("measured vs predicted per op (inclusive spans; SystolicSim 8x8):".to_string());
        out.line(format!(
            "  {:<6} {:>12} {:>16} {:>14}",
            "cat", "wall_ms", "pred_cycles", "wall_ns/cycle"
        ));
        for (k, cat) in CYCLE_CATS.iter().enumerate() {
            let ratio = self.cat_wall_ns[k] as f64 / self.cat_cycles[k].max(1) as f64;
            layers.set(
                match *cat {
                    "attn" => "accel.wall_ns_per_cycle.attn",
                    "ffn" => "accel.wall_ns_per_cycle.ffn",
                    "block" => "accel.wall_ns_per_cycle.block",
                    _ => "accel.wall_ns_per_cycle.head",
                },
                ratio,
            );
            out.line(format!(
                "  {:<6} {:>12.4} {:>16.0} {:>14.3}",
                cat,
                self.per_op(self.cat_wall_ns[k]) / 1e6,
                self.per_op(self.cat_cycles[k]),
                ratio
            ));
        }
    }
}

fn arg(args: &[(String, f64)], key: &str) -> f64 {
    args.iter().find(|(k, _)| k == key).map_or(0.0, |a| a.1)
}

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
    Tensor::from_vec(data, shape)
}

/// Median over `rounds` of the wall time of `f`, in ns.
fn median_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Wall ns per element of `FakeQuant::quantize` over one operation's
/// quantizer calls (`formats` resolves the recorded format names).
fn replay_quant_ns_per_elem(sizes: &[(String, usize)], formats: &[ElemFormat]) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x9a17);
    let work: Vec<(FakeQuant, Tensor)> = sizes
        .iter()
        .filter_map(|(name, n)| {
            let fmt = formats.iter().find(|f| f.name() == name)?;
            Some((FakeQuant::new(*fmt), random_tensor(&mut rng, &[*n])))
        })
        .collect();
    let elems: usize = work.iter().map(|(_, t)| t.data().len()).sum();
    let ns = median_ns(5, || {
        for (fq, t) in &work {
            std::hint::black_box(fq.quantize(t));
        }
    });
    ns / elems.max(1) as f64
}

/// Wall ms of replaying one operation's GEMMs at their recorded shapes
/// as 2-D products: code-domain sites through `matmul_codes` on a packed
/// `fmt` weight, the rest through `Tensor::matmul`.
fn replay_gemm_ms(shapes: &[(bool, usize, usize, usize)], fmt: ElemFormat) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x6e33);
    let fq = FakeQuant::new(fmt);
    enum Rhs {
        Codes(PackedQuantB),
        F32(Tensor),
    }
    let work: Vec<(Tensor, Rhs)> = shapes
        .iter()
        .map(|&(code, m, k, n)| {
            let a = random_tensor(&mut rng, &[m, k]);
            let b = random_tensor(&mut rng, &[k, n]);
            let rhs = match fq.quantize_to_codes(&b) {
                Some(c) if code => Rhs::Codes(PackedQuantB::pack(&c)),
                _ => Rhs::F32(b),
            };
            (a, rhs)
        })
        .collect();
    median_ns(5, || {
        for (a, rhs) in &work {
            match rhs {
                Rhs::Codes(p) => std::hint::black_box(matmul_codes(a, p)),
                Rhs::F32(b) => std::hint::black_box(a.matmul(b)),
            };
        }
    }) / 1e6
}

/// The untraced baseline of a traced run: `op` in a closed loop for
/// `share` of the window, at least 5 operations.
pub fn untraced_loop(s: &Settings, share: f64, op: impl FnMut(usize) -> f64) -> Loop {
    let budget = s.seconds * share;
    closed_loop(budget, 5, budget * 2.0, op)
}

/// The tail every traced run shares: the span report, the kernel pool,
/// the benchmark's time between operations, the trace overhead against
/// the untraced baseline, and the quantizer and GEMM timings replayed
/// from the first operation (`formats[0]` packs the GEMM weights).
pub fn finish(
    prof: &Profile,
    untraced: &Loop,
    formats: &[ElemFormat],
    layers: &mut Layers,
    out: &mut Outcome,
) {
    prof.report(layers, out);
    layers.set("par.pool_size", qt_par::threads() as f64);
    layers.set("bench.gen_late_ms", mean(&untraced.gaps_ms));
    layers.set(
        "trace.overhead_pct",
        100.0 * (prof.op_ms() / mean(&untraced.op_ms) - 1.0),
    );
    layers.set(
        "quant.ns_per_elem",
        replay_quant_ns_per_elem(&prof.quant_sizes, formats),
    );
    layers.set(
        "gemm.replay_ms",
        replay_gemm_ms(&prof.gemm_shapes, formats[0]),
    );
}

/// `qt_par` chunk tasks issued while running `f` on this thread.
pub fn count_tasks<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = qt_par::tasks_executed();
    let r = f();
    (r, qt_par::tasks_executed() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_emit_every_metric_in_order() {
        let mut l = Layers::default();
        l.set("gemm.calls", 3.0);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m
            .iter()
            .zip(PER_LAYER)
            .all(|(a, b)| a.name == b.0 && a.unit == b.1));
        assert_eq!(
            m.iter().find(|x| x.name == "gemm.calls").unwrap().value,
            3.0
        );
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn unknown_metric_names_are_refused() {
        Layers::default().set("no.such", 1.0);
    }
}
