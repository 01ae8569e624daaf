//! The trace session: hierarchical spans, instant events, and typed
//! aggregation of the telemetry the rest of the workspace produces.
//!
//! A [`TraceSession`] records two kinds of time. *Wall time* is measured
//! with a monotonic clock at span begin/end and belongs to the host that
//! ran the experiment. *Logical cycles* are attributed by the caller —
//! the accelerator simulator knows how many cycles a GEMM takes, the
//! session only book-keeps them — and accumulate up the open-span stack,
//! so a `block` span ends up carrying the simulated cost of every GEMM
//! and vector op recorded inside it. The exporters lay the two out on
//! separate tracks.
//!
//! Everything that feeds the deterministic [`crate::RunManifest`]
//! (per-site quantization health, per-GEMM utilisation, scaler history,
//! metrics) is aggregated in `BTreeMap`s keyed by site name, never by
//! wall time, so two runs with the same seed serialise byte-identically.

use crate::metrics::MetricsRegistry;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

/// Shared handle to a session, as threaded through contexts and trainers.
pub type TraceHandle = Rc<RefCell<TraceSession>>;

/// Identifier of an open span, returned by [`TraceSession::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Simulated cost of one GEMM, as attributed to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmCost {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Cycles in which the array computed (utilisation numerator).
    pub active_cycles: u64,
    /// SRAM bytes moved (reads + writes).
    pub sram_bytes: u64,
}

/// A cost oracle that converts operation shapes into simulated cycles.
///
/// Implemented by the accelerator simulator; consumed by the model-side
/// span emitters. The trait lives here so the model crate and the
/// hardware crate need not depend on each other.
pub trait CycleModel {
    /// Cost of a `[m, k] × [k, n]` GEMM.
    fn gemm_cost(&self, m: u64, k: u64, n: u64) -> GemmCost;
    /// Cycles of a numerically-stable softmax over `rows` rows of
    /// `width` elements.
    fn softmax_cycles(&self, rows: u64, width: u64) -> u64;
}

/// What a [`Record`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span that is still open (no end seen yet).
    SpanOpen,
    /// A completed span.
    SpanClosed,
    /// A zero-duration point event.
    Instant,
}

/// One event in the session's stream, in begin order.
#[derive(Debug, Clone)]
pub struct Record {
    /// Span or instant.
    pub kind: RecordKind,
    /// Event name (a site like `enc.0.attn`, or `train.step`).
    pub name: String,
    /// Category (`block`, `gemm`, `vector`, `quant`, `train`…).
    pub cat: String,
    /// Index of the enclosing span in the record stream, if any.
    pub parent: Option<usize>,
    /// Nesting depth at begin (root spans are depth 0).
    pub depth: u16,
    /// Wall-clock offset from session start at begin, in nanoseconds.
    pub t_ns: u64,
    /// Wall-clock duration, in nanoseconds (spans only).
    pub wall_dur_ns: u64,
    /// Logical cycles attributed directly to this record.
    pub cycles: u64,
    /// Logical cycles accumulated from closed children.
    pub child_cycles: u64,
    /// Free-form numeric arguments (exported under `args`).
    pub args: Vec<(String, f64)>,
}

impl Record {
    /// Own plus child cycles — the record's full logical extent.
    pub fn total_cycles(&self) -> u64 {
        self.cycles + self.child_cycles
    }
}

/// One quantization event, as emitted by a quantization cut.
#[derive(Debug, Clone, Copy)]
pub struct QuantEvent<'a> {
    /// Cut-site name (e.g. `enc.0.ffn0.gelu.in`).
    pub site: &'a str,
    /// Element format applied at the cut (e.g. `P8E1`).
    pub format: &'a str,
    /// Pre-quantization maximum absolute value.
    pub amax: f32,
    /// Elements examined.
    pub elements: u64,
    /// Elements clamped at the format's range edge.
    pub saturated: u64,
    /// Finite non-zero elements flushed to zero.
    pub underflowed: u64,
    /// Inputs that were already non-finite.
    pub nonfinite_in: u64,
    /// Outputs that left the quantizer non-finite.
    pub nonfinite_out: u64,
}

/// Aggregated quantization health of one cut site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantSite {
    /// Quantization events recorded at this site.
    pub events: u64,
    /// Elements examined.
    pub elements: u64,
    /// Elements clamped at the range edge.
    pub saturated: u64,
    /// Elements flushed to zero.
    pub underflowed: u64,
    /// Non-finite inputs.
    pub nonfinite_in: u64,
    /// Non-finite outputs.
    pub nonfinite_out: u64,
    /// Largest pre-quantization amax seen.
    pub amax_max: f32,
    /// Every element format this site was cut to.
    pub formats: BTreeSet<String>,
}

impl QuantSite {
    /// Fraction of elements clamped at the range edge.
    pub fn saturation_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.saturated as f64 / self.elements as f64
        }
    }
}

/// Aggregated simulated-GEMM statistics of one site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GemmSite {
    /// GEMMs recorded at this site.
    pub count: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total multiply-accumulates.
    pub macs: u64,
    /// Total active (computing) cycles.
    pub active_cycles: u64,
    /// Total SRAM bytes moved.
    pub sram_bytes: u64,
}

impl GemmSite {
    /// Array utilisation in `[0, 1]` across every GEMM at this site.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.active_cycles as f64 / self.cycles as f64
        }
    }
}

/// Aggregated vector-unit statistics of one site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorSite {
    /// Vector operations recorded at this site.
    pub count: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total elements processed.
    pub elements: u64,
}

/// One loss-scaler transition, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerRecord {
    /// Global step index (applied + skipped) at which it happened.
    pub step: u64,
    /// Transition kind (`grow`, `backoff`, `rollback`…).
    pub event: String,
    /// Scale before the transition.
    pub from: f32,
    /// Scale after the transition.
    pub to: f32,
}

/// A recording of one run: the event stream plus the typed aggregates
/// the manifest is built from.
#[derive(Debug)]
pub struct TraceSession {
    name: String,
    started: Instant,
    records: Vec<Record>,
    stack: Vec<usize>,
    metrics: MetricsRegistry,
    quant_sites: BTreeMap<String, QuantSite>,
    gemm_sites: BTreeMap<String, GemmSite>,
    vector_sites: BTreeMap<String, VectorSite>,
    scaler: Vec<ScalerRecord>,
    meta: BTreeMap<String, String>,
}

impl TraceSession {
    /// New session named `name` (typically the binary or test driving
    /// the run).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            started: Instant::now(),
            records: Vec::new(),
            stack: Vec::new(),
            metrics: MetricsRegistry::new(),
            quant_sites: BTreeMap::new(),
            gemm_sites: BTreeMap::new(),
            vector_sites: BTreeMap::new(),
            scaler: Vec::new(),
            meta: BTreeMap::new(),
        }
    }

    /// Wrap a session in the shared handle producers hold.
    pub fn handle(self) -> TraceHandle {
        Rc::new(RefCell::new(self))
    }

    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attach a `key = value` annotation (scheme, seed, binary…) for the
    /// manifest.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert(key.into(), value.into());
    }

    /// All annotations, sorted by key.
    pub fn meta(&self) -> &BTreeMap<String, String> {
        &self.meta
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Open a span. Spans nest: every record emitted before the matching
    /// [`TraceSession::end`] becomes a child.
    pub fn begin(&mut self, name: &str, cat: &str) -> SpanId {
        let idx = self.records.len();
        self.records.push(Record {
            kind: RecordKind::SpanOpen,
            name: name.to_string(),
            cat: cat.to_string(),
            parent: self.stack.last().copied(),
            depth: self.stack.len() as u16,
            t_ns: self.now_ns(),
            wall_dur_ns: 0,
            cycles: 0,
            child_cycles: 0,
            args: Vec::new(),
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Close a span. Any children left open are closed first (so a
    /// panicking callee cannot corrupt the stack); closing propagates the
    /// span's logical cycles into its parent.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            let total = {
                let rec = &mut self.records[top];
                rec.kind = RecordKind::SpanClosed;
                rec.wall_dur_ns = now.saturating_sub(rec.t_ns);
                rec.total_cycles()
            };
            if let Some(parent) = self.records[top].parent {
                self.records[parent].child_cycles += total;
            }
            if top == id.0 {
                break;
            }
        }
    }

    /// Record a completed leaf span with an explicit logical duration and
    /// (near-)zero wall time — how simulated work enters the stream.
    pub fn leaf_cycles(&mut self, name: &str, cat: &str, cycles: u64) {
        let parent = self.stack.last().copied();
        self.records.push(Record {
            kind: RecordKind::SpanClosed,
            name: name.to_string(),
            cat: cat.to_string(),
            parent,
            depth: self.stack.len() as u16,
            t_ns: self.now_ns(),
            wall_dur_ns: 0,
            cycles,
            child_cycles: 0,
            args: Vec::new(),
        });
        if let Some(p) = parent {
            self.records[p].child_cycles += cycles;
        }
    }

    /// Record a zero-duration point event with numeric arguments.
    pub fn instant(&mut self, name: &str, cat: &str, args: Vec<(String, f64)>) {
        self.records.push(Record {
            kind: RecordKind::Instant,
            name: name.to_string(),
            cat: cat.to_string(),
            parent: self.stack.last().copied(),
            depth: self.stack.len() as u16,
            t_ns: self.now_ns(),
            wall_dur_ns: 0,
            cycles: 0,
            child_cycles: 0,
            args,
        });
    }

    /// Record a quantization event: an instant in the stream plus the
    /// per-site aggregate the manifest reports.
    pub fn quant(&mut self, ev: &QuantEvent<'_>) {
        self.instant(
            ev.site,
            "quant",
            vec![
                ("amax".to_string(), ev.amax as f64),
                ("elements".to_string(), ev.elements as f64),
                ("saturated".to_string(), ev.saturated as f64),
                ("underflowed".to_string(), ev.underflowed as f64),
            ],
        );
        let site = self.quant_sites.entry(ev.site.to_string()).or_default();
        site.events += 1;
        site.elements += ev.elements;
        site.saturated += ev.saturated;
        site.underflowed += ev.underflowed;
        site.nonfinite_in += ev.nonfinite_in;
        site.nonfinite_out += ev.nonfinite_out;
        if ev.amax.is_finite() {
            site.amax_max = site.amax_max.max(ev.amax);
        }
        if !site.formats.contains(ev.format) {
            site.formats.insert(ev.format.to_string());
        }
    }

    /// Record one simulated GEMM: a leaf span whose duration is the
    /// simulated cycle count, plus the per-site utilisation aggregate.
    pub fn gemm(&mut self, name: &str, dims: [u64; 3], cost: GemmCost) {
        let parent = self.stack.last().copied();
        self.records.push(Record {
            kind: RecordKind::SpanClosed,
            name: name.to_string(),
            cat: "gemm".to_string(),
            parent,
            depth: self.stack.len() as u16,
            t_ns: self.now_ns(),
            wall_dur_ns: 0,
            cycles: cost.cycles,
            child_cycles: 0,
            args: vec![
                ("m".to_string(), dims[0] as f64),
                ("k".to_string(), dims[1] as f64),
                ("n".to_string(), dims[2] as f64),
                ("macs".to_string(), cost.macs as f64),
            ],
        });
        if let Some(p) = parent {
            self.records[p].child_cycles += cost.cycles;
        }
        let site = self.gemm_sites.entry(name.to_string()).or_default();
        site.count += 1;
        site.cycles += cost.cycles;
        site.macs += cost.macs;
        site.active_cycles += cost.active_cycles;
        site.sram_bytes += cost.sram_bytes;
    }

    /// Record one simulated vector-unit operation as a leaf span.
    pub fn vector(&mut self, name: &str, cycles: u64, elements: u64) {
        self.leaf_cycles(name, "vector", cycles);
        let site = self.vector_sites.entry(name.to_string()).or_default();
        site.count += 1;
        site.cycles += cycles;
        site.elements += elements;
    }

    /// Record a loss-scaler transition.
    pub fn scaler_event(&mut self, step: u64, event: &str, from: f32, to: f32) {
        self.instant(
            event,
            "scaler",
            vec![
                ("step".to_string(), step as f64),
                ("from".to_string(), from as f64),
                ("to".to_string(), to as f64),
            ],
        );
        self.scaler.push(ScalerRecord {
            step,
            event: event.to_string(),
            from,
            to,
        });
    }

    /// The event stream, in begin order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Mutable access to the metrics registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Aggregated quantization health, by site name.
    pub fn quant_sites(&self) -> &BTreeMap<String, QuantSite> {
        &self.quant_sites
    }

    /// Aggregated simulated-GEMM statistics, by site name.
    pub fn gemm_sites(&self) -> &BTreeMap<String, GemmSite> {
        &self.gemm_sites
    }

    /// Aggregated vector-unit statistics, by site name.
    pub fn vector_sites(&self) -> &BTreeMap<String, VectorSite> {
        &self.vector_sites
    }

    /// Loss-scaler history, in emission order.
    pub fn scaler_history(&self) -> &[ScalerRecord] {
        &self.scaler
    }

    /// Number of spans still open.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_accumulate_cycles() {
        let mut s = TraceSession::new("t");
        let outer = s.begin("block", "block");
        let inner = s.begin("attn", "attn");
        s.leaf_cycles("gemm0", "gemm", 100);
        s.leaf_cycles("gemm1", "gemm", 50);
        s.end(inner);
        s.leaf_cycles("gemm2", "gemm", 25);
        s.end(outer);
        let r = s.records();
        assert_eq!(r.len(), 5);
        assert_eq!(r[0].depth, 0);
        assert_eq!(r[1].depth, 1);
        assert_eq!(r[2].depth, 2);
        assert_eq!(r[2].parent, Some(1));
        assert_eq!(r[1].total_cycles(), 150);
        assert_eq!(r[0].total_cycles(), 175);
        assert_eq!(s.open_spans(), 0);
    }

    #[test]
    fn end_closes_abandoned_children() {
        let mut s = TraceSession::new("t");
        let outer = s.begin("outer", "block");
        let _leaked = s.begin("leaked", "block");
        s.end(outer); // closes both
        assert_eq!(s.open_spans(), 0);
        assert!(s.records().iter().all(|r| r.kind == RecordKind::SpanClosed));
    }

    #[test]
    fn quant_events_aggregate_per_site() {
        let mut s = TraceSession::new("t");
        let ev = QuantEvent {
            site: "enc.0.q.in",
            format: "P8E1",
            amax: 2.0,
            elements: 100,
            saturated: 3,
            underflowed: 1,
            nonfinite_in: 0,
            nonfinite_out: 0,
        };
        s.quant(&ev);
        s.quant(&QuantEvent {
            amax: 5.0,
            format: "E4M3",
            ..ev
        });
        let site = &s.quant_sites()["enc.0.q.in"];
        assert_eq!(site.events, 2);
        assert_eq!(site.elements, 200);
        assert_eq!(site.saturated, 6);
        assert_eq!(site.amax_max, 5.0);
        assert_eq!(site.formats.len(), 2);
        assert!((site.saturation_rate() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn gemm_aggregates_utilization() {
        let mut s = TraceSession::new("t");
        let cost = GemmCost {
            cycles: 200,
            macs: 1000,
            active_cycles: 150,
            sram_bytes: 4096,
        };
        s.gemm("enc.0.q", [16, 8, 8], cost);
        s.gemm("enc.0.q", [16, 8, 8], cost);
        let site = &s.gemm_sites()["enc.0.q"];
        assert_eq!(site.count, 2);
        assert_eq!(site.cycles, 400);
        assert_eq!(site.utilization(), 0.75);
    }

    #[test]
    fn scaler_history_in_order() {
        let mut s = TraceSession::new("t");
        s.scaler_event(3, "backoff", 1024.0, 512.0);
        s.scaler_event(10, "grow", 512.0, 1024.0);
        let h = s.scaler_history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].event, "backoff");
        assert_eq!(h[1].step, 10);
    }
}
