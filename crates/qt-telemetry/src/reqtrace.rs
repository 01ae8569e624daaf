//! Request-scoped tracing: one causal span tree per request.
//!
//! A [`TraceId`] is minted deterministically at admission (seed ×
//! request id through splitmix64, the same mixer the retry/fault seeds
//! use elsewhere in the workspace) and follows the request through
//! dispatch, retries, hedges, and failover. Every attempt contributes a
//! span whose parent is the request's root span, so the whole life of a
//! request — including the replica that crashed under it and the
//! replica that finally served it — reads as a single tree. Spans carry
//! *virtual* timestamps only.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// splitmix64 — the workspace's standard cheap bijective mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit request-scoped trace identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Deterministically mint the id for `req_id` under `seed`.
    pub fn mint(seed: u64, req_id: u64) -> Self {
        TraceId(splitmix64(seed ^ splitmix64(req_id)))
    }

    /// The id as fixed-width lowercase hex (the export form).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One span in a request's tree. Span ids are assigned in insertion
/// order, so a parent id is always smaller than its children's.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Id within the request's tree (root is 0).
    pub id: u32,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u32>,
    /// Span name (`request`, `dispatch`, `attempt`, …).
    pub name: String,
    /// Replica the span executed on, if any.
    pub replica: Option<u32>,
    /// Start, virtual µs.
    pub start_us: u64,
    /// End, virtual µs (>= start).
    pub end_us: u64,
    /// Numeric tags in insertion order.
    pub tags: Vec<(String, f64)>,
}

impl SpanRec {
    /// The span as a deterministic JSON object.
    pub fn to_json(&self) -> Value {
        let tags: Vec<Value> = self
            .tags
            .iter()
            .map(|(k, v)| json!([k.clone(), *v]))
            .collect();
        let parent = self.parent.map(Value::from).unwrap_or(Value::Null);
        let replica = self.replica.map(Value::from).unwrap_or(Value::Null);
        json!({
            "id": self.id,
            "parent": parent,
            "name": self.name.clone(),
            "replica": replica,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "tags": tags,
        })
    }
}

/// The span tree of one request.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The minted trace id.
    pub trace_id: TraceId,
    /// The request id the trace belongs to.
    pub req_id: u64,
    /// `true` once the terminal outcome was recorded.
    pub closed: bool,
    /// Terminal outcome name, once closed.
    pub outcome: Option<String>,
    /// All spans, id order; `spans[0]` is the root.
    pub spans: Vec<SpanRec>,
}

impl RequestTrace {
    fn new(trace_id: TraceId, req_id: u64, at_us: u64) -> Self {
        Self {
            trace_id,
            req_id,
            closed: false,
            outcome: None,
            spans: vec![SpanRec {
                id: 0,
                parent: None,
                name: "request".to_string(),
                replica: None,
                start_us: at_us,
                end_us: at_us,
                tags: Vec::new(),
            }],
        }
    }

    /// Root span (always present).
    pub fn root(&self) -> &SpanRec {
        &self.spans[0]
    }

    /// Spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Structural completeness: closed, exactly one root, every parent
    /// id resolves to an *earlier* span, and every child's interval
    /// nests inside its parent's.
    pub fn is_complete(&self) -> bool {
        if !self.closed {
            return false;
        }
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 || self.spans[0].parent.is_some() {
            return false;
        }
        for s in &self.spans[1..] {
            let Some(p) = s.parent else { return false };
            if p >= s.id {
                return false;
            }
            let parent = &self.spans[p as usize];
            if parent.id != p {
                return false;
            }
            if s.start_us < parent.start_us || s.end_us > parent.end_us {
                return false;
            }
            if s.end_us < s.start_us {
                return false;
            }
        }
        true
    }

    /// The trace as a deterministic JSON object.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self.spans.iter().map(SpanRec::to_json).collect();
        let outcome = self
            .outcome
            .as_ref()
            .map(Value::from)
            .unwrap_or(Value::Null);
        json!({
            "trace_id": self.trace_id.hex(),
            "req_id": self.req_id,
            "closed": self.closed,
            "outcome": outcome,
            "spans": spans,
        })
    }
}

/// All request traces of a run, keyed by request id.
#[derive(Debug, Clone)]
pub struct TraceBook {
    seed: u64,
    traces: BTreeMap<u64, RequestTrace>,
}

impl TraceBook {
    /// Empty book minting ids under `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            traces: BTreeMap::new(),
        }
    }

    /// Open `req_id`'s trace at admission time `at_us`; returns its
    /// minted id. Re-opening an existing trace is a no-op returning the
    /// original id.
    pub fn begin(&mut self, req_id: u64, at_us: u64) -> TraceId {
        let seed = self.seed;
        self.traces
            .entry(req_id)
            .or_insert_with(|| RequestTrace::new(TraceId::mint(seed, req_id), req_id, at_us))
            .trace_id
    }

    /// Add a span under `req_id`'s tree; returns the span id, or `None`
    /// when the trace was never opened. `parent` defaults to the root.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        req_id: u64,
        parent: Option<u32>,
        name: &str,
        replica: Option<u32>,
        start_us: u64,
        end_us: u64,
        tags: Vec<(String, f64)>,
    ) -> Option<u32> {
        let t = self.traces.get_mut(&req_id)?;
        let id = t.spans.len() as u32;
        let parent = Some(parent.unwrap_or(0).min(id.saturating_sub(1)));
        t.spans.push(SpanRec {
            id,
            parent,
            name: name.to_string(),
            replica,
            start_us,
            end_us: end_us.max(start_us),
            tags,
        });
        Some(id)
    }

    /// Close `req_id`'s trace with its terminal `outcome` at `at_us`
    /// (extends the root span to cover every recorded child).
    pub fn end(&mut self, req_id: u64, at_us: u64, outcome: &str) {
        if let Some(t) = self.traces.get_mut(&req_id) {
            let max_child_end = t.spans[1..].iter().map(|s| s.end_us).max().unwrap_or(at_us);
            t.spans[0].end_us = at_us.max(max_child_end).max(t.spans[0].start_us);
            let min_child_start = t.spans[1..].iter().map(|s| s.start_us).min();
            if let Some(lo) = min_child_start {
                t.spans[0].start_us = t.spans[0].start_us.min(lo);
            }
            t.closed = true;
            t.outcome = Some(outcome.to_string());
        }
    }

    /// A request's trace.
    pub fn get(&self, req_id: u64) -> Option<&RequestTrace> {
        self.traces.get(&req_id)
    }

    /// All traces in request-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &RequestTrace)> {
        self.traces.iter()
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` when no trace was opened.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total spans across all traces.
    pub fn span_count(&self) -> usize {
        self.traces.values().map(|t| t.spans.len()).sum()
    }

    /// Traces that pass [`RequestTrace::is_complete`].
    pub fn complete_count(&self) -> usize {
        self.traces.values().filter(|t| t.is_complete()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::mint(42, 7);
        assert_eq!(a, TraceId::mint(42, 7));
        assert_ne!(a, TraceId::mint(42, 8));
        assert_ne!(a, TraceId::mint(43, 7));
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn book_builds_a_complete_tree() {
        let mut b = TraceBook::new(1);
        let id = b.begin(5, 100);
        assert_eq!(b.begin(5, 100), id);
        let d = b
            .span(5, None, "dispatch", Some(0), 100, 100, vec![])
            .unwrap();
        let a1 = b
            .span(
                5,
                None,
                "attempt",
                Some(0),
                100,
                300,
                vec![("flagged".into(), 0.0)],
            )
            .unwrap();
        assert_eq!(d, 1);
        assert_eq!(a1, 2);
        assert!(!b.get(5).unwrap().is_complete(), "open trace incomplete");
        b.end(5, 300, "served_primary");
        let t = b.get(5).unwrap();
        assert!(t.is_complete());
        assert_eq!(t.outcome.as_deref(), Some("served_primary"));
        assert_eq!(t.root().end_us, 300);
        assert_eq!(t.spans_named("attempt").count(), 1);
    }

    #[test]
    fn root_stretches_over_children() {
        let mut b = TraceBook::new(1);
        b.begin(9, 200);
        // An attempt recorded with a finish beyond the close timestamp
        // (pickup-order emission) still nests after close.
        b.span(9, None, "attempt", Some(1), 200, 900, vec![]);
        b.end(9, 500, "served_degraded");
        let t = b.get(9).unwrap();
        assert_eq!(t.root().end_us, 900);
        assert!(t.is_complete());
    }

    #[test]
    fn span_on_unopened_request_is_none() {
        let mut b = TraceBook::new(1);
        assert_eq!(b.span(1, None, "attempt", None, 0, 1, vec![]), None);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn incomplete_shapes_are_rejected() {
        let mut b = TraceBook::new(1);
        b.begin(2, 0);
        b.end(2, 10, "shed_queue");
        let mut t = b.get(2).unwrap().clone();
        assert!(t.is_complete());
        // Forge an orphan: parent pointing at a later id.
        t.spans.push(SpanRec {
            id: 1,
            parent: Some(5),
            name: "x".into(),
            replica: None,
            start_us: 0,
            end_us: 1,
            tags: vec![],
        });
        assert!(!t.is_complete());
    }
}
