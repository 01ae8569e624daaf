//! Deterministic renderers: the telemetry scoreboard and line exports.
//!
//! [`telemetry_report`] turns a finished [`TelemetrySink`] into the
//! `BENCH_telemetry.json` scoreboard (schema `qt-telemetry/report/v1`);
//! [`timeseries_jsonl`] / [`alerts_jsonl`] render line-oriented exports
//! for plotting; [`export_to_trace`] copies the request span trees and
//! alert transitions into a `qt_trace::TraceSession`, so the existing
//! Perfetto/JSONL exporters carry the telemetry plane too. Everything
//! here is a pure function of the sink — no wall clock, no absolute
//! paths — so every artifact byte-compares across thread counts and
//! output directories.

use crate::sink::TelemetrySink;
use qt_trace::TraceSession;
use serde_json::{json, Value};

/// The run's telemetry scoreboard as a deterministic JSON document
/// (schema `qt-telemetry/report/v1`).
pub fn telemetry_report(sink: &TelemetrySink) -> Value {
    let series: Vec<Value> = sink
        .series()
        .iter()
        .map(|(key, s)| {
            let mut v = s.to_json();
            if let Value::Object(o) = &mut v {
                o.insert("name".to_string(), Value::String(key.clone()));
            }
            v
        })
        .collect();
    let slos: Vec<Value> = sink.slo().trackers().iter().map(|t| t.to_json()).collect();
    let alerts: Vec<Value> = sink.alerts().iter().map(|a| a.to_json()).collect();
    let dumps: Vec<Value> = sink
        .dumps()
        .iter()
        .map(|d| {
            let file = d.file.as_ref().map(Value::from).unwrap_or(Value::Null);
            json!({
                "replica": d.replica,
                "at_us": d.at_us,
                "reason": d.reason.clone(),
                "events": d.events.len(),
                "dropped": d.dropped,
                "file": file,
            })
        })
        .collect();
    let book = sink.book();
    json!({
        "schema": "qt-telemetry/report/v1",
        "interval_us": sink.config().interval_us,
        "end_us": sink.latest_us(),
        "series": series,
        "slos": slos,
        "alerts": alerts,
        "alert_fires": sink.slo().fires(),
        "flight": json!({
            "capacity": sink.config().flight_capacity,
            "dumps": dumps,
        }),
        "traces": json!({
            "requests": book.len(),
            "complete": book.complete_count(),
            "spans": book.span_count(),
        }),
    })
}

/// Every series window as one JSONL line
/// (`{"series":…,"kind":…,"window_us":…,"value":…}` per line, key
/// order), for plotting without loading the whole scoreboard.
pub fn timeseries_jsonl(sink: &TelemetrySink) -> String {
    let mut out = String::new();
    for (key, s) in sink.series().iter() {
        let v = s.to_json();
        if let Some(windows) = v["windows"].as_array() {
            for w in windows {
                let line = json!({
                    "series": key.clone(),
                    "kind": s.kind().name(),
                    "window_us": w[0].clone(),
                    "value": w[1].clone(),
                });
                out.push_str(&serde_json::to_string(&line).unwrap_or_default());
                out.push('\n');
            }
        }
    }
    out
}

/// Every alert transition as one JSONL line, in evaluation order.
pub fn alerts_jsonl(sink: &TelemetrySink) -> String {
    let mut out = String::new();
    for a in sink.alerts() {
        out.push_str(&serde_json::to_string(&a.to_json()).unwrap_or_default());
        out.push('\n');
    }
    out
}

/// Copy the telemetry plane into a qt-trace session so the existing
/// Perfetto/JSONL exporters carry it: one `telemetry.span` instant per
/// request span (virtual timestamps in args, trace id in the metric
/// labels' stead as a tag), one `telemetry.alert` instant per alert
/// transition, and summary counters in the metrics registry.
pub fn export_to_trace(sink: &TelemetrySink, session: &mut TraceSession) {
    for (_, t) in sink.book().iter() {
        for s in &t.spans {
            let mut args = vec![
                ("trace_id".to_string(), t.trace_id.0 as f64),
                ("req".to_string(), t.req_id as f64),
                ("span".to_string(), s.id as f64),
                (
                    "parent".to_string(),
                    s.parent.map(f64::from).unwrap_or(-1.0),
                ),
                ("start_us".to_string(), s.start_us as f64),
                ("end_us".to_string(), s.end_us as f64),
            ];
            if let Some(r) = s.replica {
                args.push(("replica".to_string(), r as f64));
            }
            session.instant(&format!("telemetry.span.{}", s.name), "telemetry", args);
        }
    }
    for a in sink.alerts() {
        session.instant(
            &format!("telemetry.alert.{}.{}", a.slo, a.rule),
            "telemetry",
            vec![
                ("at_us".to_string(), a.at_us as f64),
                ("firing".to_string(), a.firing as u64 as f64),
                ("burn_short".to_string(), a.burn_short),
                ("burn_long".to_string(), a.burn_long),
            ],
        );
    }
    let m = session.metrics_mut();
    m.counter_add(
        "telemetry.trace_spans",
        &[],
        sink.book().span_count() as u64,
    );
    m.counter_add("telemetry.alerts", &[], sink.alerts().len() as u64);
    m.counter_add("telemetry.flight_dumps", &[], sink.dumps().len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TelemetryConfig;

    fn busy_sink() -> TelemetrySink {
        let mut s = TelemetrySink::new(
            TelemetryConfig {
                interval_us: 1_000,
                seed: 3,
                ..TelemetryConfig::default()
            },
            2,
        );
        s.arrival(100, 1);
        s.dispatch(100, 1, 0, "primary");
        s.attempt(1, 0, 100, 700, false, true);
        s.outcome(700, 1, Some(0), "served_primary", true, false, 600);
        s.arrival(200, 2);
        s.outcome(200, 2, None, "shed_queue", false, true, 0);
        s.crash(900, 1);
        s
    }

    #[test]
    fn report_has_schema_and_sections() {
        let s = busy_sink();
        let r = telemetry_report(&s);
        assert_eq!(r["schema"], "qt-telemetry/report/v1");
        assert_eq!(r["end_us"], 900.0);
        assert!(!r["series"].as_array().unwrap().is_empty());
        assert_eq!(r["slos"][0]["good"], 1.0);
        assert_eq!(r["slos"][0]["bad"], 1.0);
        assert_eq!(r["traces"]["requests"], 2.0);
        assert_eq!(r["traces"]["complete"], 2.0);
        assert_eq!(r["flight"]["dumps"][0]["reason"], "crash");
    }

    #[test]
    fn report_is_deterministic() {
        let a = serde_json::to_string(&telemetry_report(&busy_sink())).unwrap();
        let b = serde_json::to_string(&telemetry_report(&busy_sink())).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn jsonl_exports_line_per_window_and_alert() {
        let s = busy_sink();
        let ts = timeseries_jsonl(&s);
        assert!(ts.lines().count() >= s.series().len());
        for line in ts.lines() {
            let v = serde_json::from_str(line).unwrap();
            assert!(v.get("series").is_some());
            assert!(v.get("window_us").is_some());
        }
        // The 50% bad fraction in this tiny run fires the fast rule.
        let al = alerts_jsonl(&s);
        assert_eq!(al.lines().count(), s.alerts().len());
        assert!(!al.is_empty());
        for line in al.lines() {
            let v = serde_json::from_str(line).unwrap();
            assert_eq!(v["slo"], "availability");
        }
    }

    #[test]
    fn trace_export_emits_instants_and_counters() {
        let s = busy_sink();
        let mut session = TraceSession::new("t");
        export_to_trace(&s, &mut session);
        assert_eq!(
            session
                .metrics()
                .counter_value("telemetry.trace_spans", &[]),
            s.book().span_count() as u64
        );
        assert_eq!(
            session
                .metrics()
                .counter_value("telemetry.flight_dumps", &[]),
            1
        );
    }
}
