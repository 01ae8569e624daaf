//! Exporters: JSONL event stream, Chrome `trace_event` JSON, and the
//! top-K text summary.
//!
//! The Chrome export writes two tracks. Track `wall` carries every span
//! at its measured wall-clock position (µs). Track `sim-cycles` lays the
//! same hierarchy out in *logical* time — one microsecond per simulated
//! cycle — with children packed left-to-right inside their parent, so
//! Perfetto renders the accelerator's cost model as if it were a
//! profile: a `block` span exactly as wide as the GEMM and vector spans
//! it contains.

use crate::session::{RecordKind, TraceSession};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Serialize the event stream as JSON Lines: one event object per line,
/// in begin order.
///
/// Every line carries `seq`, `type` (`span` / `instant`), `name`, `cat`,
/// `depth`, `t_ns`, and for spans `wall_dur_ns`, `cycles` and
/// `cycles_total`; numeric arguments appear under `args`.
pub fn jsonl(session: &TraceSession) -> String {
    let mut out = String::new();
    for (seq, r) in session.records().iter().enumerate() {
        let mut args = BTreeMap::new();
        for (k, v) in &r.args {
            args.insert(k.clone(), Value::Number(*v));
        }
        let v = match r.kind {
            RecordKind::Instant => json!({
                "seq": seq,
                "type": "instant",
                "name": r.name.clone(),
                "cat": r.cat.clone(),
                "depth": r.depth,
                "t_ns": r.t_ns,
                "args": Value::Object(args),
            }),
            _ => json!({
                "seq": seq,
                "type": "span",
                "name": r.name.clone(),
                "cat": r.cat.clone(),
                "depth": r.depth,
                "t_ns": r.t_ns,
                "wall_dur_ns": r.wall_dur_ns,
                "cycles": r.cycles,
                "cycles_total": r.total_cycles(),
                "args": Value::Object(args),
            }),
        };
        out.push_str(&serde_json::to_string(&v).expect("serializable"));
        out.push('\n');
    }
    out
}

/// Thread id of the wall-clock track in the Chrome export.
const TID_WALL: u64 = 1;
/// Thread id of the logical-cycle track in the Chrome export.
const TID_CYCLES: u64 = 2;

fn args_object(r: &crate::session::Record) -> Value {
    let mut args = BTreeMap::new();
    for (k, v) in &r.args {
        args.insert(k.clone(), Value::Number(*v));
    }
    if r.total_cycles() > 0 {
        args.insert("cycles".to_string(), Value::Number(r.total_cycles() as f64));
    }
    Value::Object(args)
}

/// Serialize the session in Chrome `trace_event` JSON (object form),
/// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(session: &TraceSession) -> String {
    let mut events: Vec<Value> = Vec::new();
    for (tid, label) in [(TID_WALL, "wall"), (TID_CYCLES, "sim-cycles")] {
        events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": json!({"name": label}),
        }));
    }

    // Wall track: measured begin/duration in microseconds.
    for r in session.records() {
        let ts = r.t_ns as f64 / 1000.0;
        match r.kind {
            RecordKind::Instant => events.push(json!({
                "name": r.name.clone(),
                "cat": r.cat.clone(),
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": 1,
                "tid": TID_WALL,
                "args": args_object(r),
            })),
            RecordKind::SpanClosed | RecordKind::SpanOpen => events.push(json!({
                "name": r.name.clone(),
                "cat": r.cat.clone(),
                "ph": "X",
                "ts": ts,
                "dur": r.wall_dur_ns as f64 / 1000.0,
                "pid": 1,
                "tid": TID_WALL,
                "args": args_object(r),
            })),
        }
    }

    // Cycle track: spans with logical extent, children packed inside
    // their parent. Records are in begin order, so a parent's slot is
    // always assigned before its children ask for one.
    let mut root_cursor = 0u64;
    let mut child_cursor: BTreeMap<usize, u64> = BTreeMap::new();
    for (idx, r) in session.records().iter().enumerate() {
        if matches!(r.kind, RecordKind::Instant) {
            continue;
        }
        let total = r.total_cycles();
        if total == 0 {
            continue;
        }
        let ts = match r.parent {
            None => root_cursor,
            // A parent with cycle-carrying children has a slot of its
            // own (child cycles propagate upward), so the lookup holds.
            Some(p) => *child_cursor.get(&p).expect("parent placed first"),
        };
        match r.parent {
            None => root_cursor += total,
            Some(p) => *child_cursor.get_mut(&p).expect("parent placed first") += total,
        }
        child_cursor.insert(idx, ts);
        events.push(json!({
            "name": r.name.clone(),
            "cat": r.cat.clone(),
            "ph": "X",
            "ts": ts as f64,
            "dur": total as f64,
            "pid": 1,
            "tid": TID_CYCLES,
            "args": args_object(r),
        }));
    }

    let doc = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    });
    let mut s = serde_json::to_string_pretty(&doc).expect("serializable");
    s.push('\n');
    s
}

/// Render a top-`k` text summary: simulated cycles by GEMM site, vector
/// cycles by site, and quantization saturation by cut site.
pub fn trace_report(session: &TraceSession, k: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("== trace report: {} ==\n", session.name()));

    let mut gemms: Vec<_> = session.gemm_sites().iter().collect();
    gemms.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(b.0)));
    let total_gemm: u64 = gemms.iter().map(|(_, g)| g.cycles).sum();
    out.push_str(&format!(
        "-- top {k} GEMM sites by simulated cycles (total {total_gemm}) --\n"
    ));
    for (name, g) in gemms.iter().take(k) {
        out.push_str(&format!(
            "{:>12} cyc  {:>5.1}% util  x{:<5} {}\n",
            g.cycles,
            100.0 * g.utilization(),
            g.count,
            name
        ));
    }

    let mut vecs: Vec<_> = session.vector_sites().iter().collect();
    vecs.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(b.0)));
    if !vecs.is_empty() {
        out.push_str(&format!("-- top {k} vector sites by simulated cycles --\n"));
        for (name, v) in vecs.iter().take(k) {
            out.push_str(&format!(
                "{:>12} cyc  {:>12} elems  x{:<5} {}\n",
                v.cycles, v.elements, v.count, name
            ));
        }
    }

    let mut sites: Vec<_> = session.quant_sites().iter().collect();
    sites.sort_by(|a, b| {
        b.1.saturation_rate()
            .partial_cmp(&a.1.saturation_rate())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(b.0))
    });
    out.push_str(&format!("-- top {k} cut sites by saturation --\n"));
    for (name, q) in sites.iter().take(k) {
        out.push_str(&format!(
            "{:>8.3}% sat  {:>8.3}% uflow  {:>12} elems  amax {:<10.4e} {}\n",
            100.0 * q.saturation_rate(),
            100.0
                * if q.elements == 0 {
                    0.0
                } else {
                    q.underflowed as f64 / q.elements as f64
                },
            q.elements,
            q.amax_max,
            name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{GemmCost, QuantEvent};

    fn demo_session() -> TraceSession {
        let mut s = TraceSession::new("demo");
        let blk = s.begin("enc.0", "block");
        s.gemm(
            "enc.0.q",
            [16, 8, 8],
            GemmCost {
                cycles: 100,
                macs: 1024,
                active_cycles: 80,
                sram_bytes: 512,
            },
        );
        s.vector("enc.0.softmax", 40, 256);
        s.quant(&QuantEvent {
            site: "enc.0.q.in",
            format: "P8E1",
            amax: 3.5,
            elements: 128,
            saturated: 2,
            underflowed: 0,
            nonfinite_in: 0,
            nonfinite_out: 0,
        });
        s.end(blk);
        s
    }

    #[test]
    fn jsonl_lines_parse() {
        let s = demo_session();
        let text = jsonl(&s);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), s.records().len());
        for line in &lines {
            let v = serde_json::from_str(line).unwrap();
            assert!(v["name"].as_str().is_some());
            assert!(v["type"].as_str().is_some());
        }
        // the block span carries the accumulated logical extent
        let first = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["cycles_total"].as_u64(), Some(140));
    }

    #[test]
    fn chrome_trace_has_nested_cycle_track() {
        let s = demo_session();
        let doc = serde_json::from_str(&chrome_trace(&s)).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // cycle-track events: block (total 140) then gemm at ts 0, vector at 100
        let cyc: Vec<_> = events
            .iter()
            .filter(|e| e["tid"].as_u64() == Some(2) && e["ph"] == "X")
            .collect();
        assert_eq!(cyc.len(), 3);
        assert_eq!(cyc[0]["name"], "enc.0");
        assert_eq!(cyc[0]["dur"].as_f64(), Some(140.0));
        assert_eq!(cyc[1]["name"], "enc.0.q");
        assert_eq!(cyc[1]["ts"].as_f64(), Some(0.0));
        assert_eq!(cyc[2]["name"], "enc.0.softmax");
        assert_eq!(cyc[2]["ts"].as_f64(), Some(100.0));
        // wall track carries the quant instant
        assert!(events.iter().any(|e| e["ph"] == "i" && e["cat"] == "quant"));
    }

    #[test]
    fn report_mentions_hot_sites() {
        let s = demo_session();
        let r = trace_report(&s, 5);
        assert!(r.contains("enc.0.q"), "{r}");
        assert!(r.contains("softmax"), "{r}");
        assert!(r.contains("sat"), "{r}");
    }
}
