//! The deterministic end-of-run manifest.
//!
//! A manifest is the machine-diffable record of *what a run computed*,
//! stripped of everything host-dependent: scheme and seed annotations,
//! per-site quantization health, per-GEMM utilisation, vector-unit
//! totals, loss-scaler history, and the metrics registry. Wall-clock
//! times never enter it, every map is a `BTreeMap`, and the vendored
//! JSON writer sorts object keys — so two runs with the same seed
//! serialise byte-identically and `diff run_a.json run_b.json` is a
//! meaningful regression check across PRs.
//!
//! The one deliberately host-dependent field is the `host` section
//! (effective `qt-par` pool size and the raw `QT_THREADS` setting),
//! recorded so a manifest says how the run was executed. Because every
//! kernel is bitwise-deterministic for any thread count, stripping that
//! section — [`RunManifest::value_deterministic`] /
//! [`RunManifest::render_deterministic`] — must yield identical bytes
//! across thread counts; the test suite enforces exactly that.

use crate::session::TraceSession;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Manifest schema version, bumped on any breaking field change.
/// Version 2 added the `host` section.
pub const MANIFEST_VERSION: u64 = 2;

/// Builder of the deterministic end-of-run manifest.
#[derive(Debug, Clone, Copy)]
pub struct RunManifest;

impl RunManifest {
    /// Assemble the manifest as a JSON value, including the `host`
    /// section.
    pub fn value(session: &TraceSession) -> Value {
        Self::assemble(session, true)
    }

    /// Assemble the manifest without the host-dependent `host` section:
    /// the bytes that must match across thread counts (and machines) for
    /// a given seed.
    pub fn value_deterministic(session: &TraceSession) -> Value {
        Self::assemble(session, false)
    }

    fn assemble(session: &TraceSession, with_host: bool) -> Value {
        let mut meta = BTreeMap::new();
        for (k, v) in session.meta() {
            meta.insert(k.clone(), Value::String(v.clone()));
        }

        let spans = session
            .records()
            .iter()
            .filter(|r| !matches!(r.kind, crate::session::RecordKind::Instant))
            .count();
        let instants = session.records().len() - spans;

        let mut quant = BTreeMap::new();
        for (site, q) in session.quant_sites() {
            let formats: Vec<Value> = q.formats.iter().map(|f| Value::String(f.clone())).collect();
            quant.insert(
                site.clone(),
                json!({
                    "events": q.events,
                    "elements": q.elements,
                    "saturated": q.saturated,
                    "underflowed": q.underflowed,
                    "nonfinite_in": q.nonfinite_in,
                    "nonfinite_out": q.nonfinite_out,
                    "amax_max": q.amax_max as f64,
                    "formats": Value::Array(formats),
                }),
            );
        }

        let mut gemm = BTreeMap::new();
        for (site, g) in session.gemm_sites() {
            gemm.insert(
                site.clone(),
                json!({
                    "count": g.count,
                    "cycles": g.cycles,
                    "macs": g.macs,
                    "active_cycles": g.active_cycles,
                    "sram_bytes": g.sram_bytes,
                    "utilization": g.utilization(),
                }),
            );
        }

        let mut vector = BTreeMap::new();
        for (site, v) in session.vector_sites() {
            vector.insert(
                site.clone(),
                json!({
                    "count": v.count,
                    "cycles": v.cycles,
                    "elements": v.elements,
                }),
            );
        }

        let scaler: Vec<Value> = session
            .scaler_history()
            .iter()
            .map(|s| {
                json!({
                    "step": s.step,
                    "event": s.event.clone(),
                    "from": s.from as f64,
                    "to": s.to as f64,
                })
            })
            .collect();

        let m = session.metrics();
        let mut counters = BTreeMap::new();
        for (k, v) in m.counters() {
            counters.insert(k.clone(), Value::from(*v));
        }
        let mut gauges = BTreeMap::new();
        for (k, v) in m.gauges() {
            gauges.insert(k.clone(), Value::from(*v));
        }
        let mut hists = BTreeMap::new();
        for (k, h) in m.hists() {
            hists.insert(
                k.clone(),
                json!({
                    "buckets": Value::from(h.buckets.clone()),
                    "zeros": h.zeros,
                    "nonfinite": h.nonfinite,
                }),
            );
        }

        let mut top = BTreeMap::new();
        top.insert("version".into(), Value::from(MANIFEST_VERSION));
        top.insert("name".into(), Value::String(session.name().to_string()));
        top.insert("meta".into(), Value::Object(meta));
        top.insert(
            "counts".into(),
            json!({"spans": spans, "instants": instants}),
        );
        top.insert("quant_sites".into(), Value::Object(quant));
        top.insert("gemm_sites".into(), Value::Object(gemm));
        top.insert("vector_sites".into(), Value::Object(vector));
        top.insert("scaler".into(), Value::Array(scaler));
        top.insert(
            "metrics".into(),
            json!({
                "counters": Value::Object(counters),
                "gauges": Value::Object(gauges),
                "hists": Value::Object(hists),
            }),
        );
        if with_host {
            top.insert(
                "host".into(),
                json!({
                    "threads": qt_par::threads() as u64,
                    "qt_threads": match qt_par::qt_threads_env() {
                        Some(s) => Value::String(s),
                        None => Value::Null,
                    },
                }),
            );
        }
        Value::Object(top)
    }

    /// Serialize the manifest, pretty-printed with a trailing newline —
    /// the exact bytes `--manifest-out` writes.
    pub fn render(session: &TraceSession) -> String {
        let mut s = serde_json::to_string_pretty(&Self::value(session)).expect("serializable");
        s.push('\n');
        s
    }

    /// [`RunManifest::render`] without the `host` section — byte-identical
    /// across thread counts for the same seeded run.
    pub fn render_deterministic(session: &TraceSession) -> String {
        let mut s = serde_json::to_string_pretty(&Self::value_deterministic(session))
            .expect("serializable");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{GemmCost, QuantEvent};

    fn run(label: &str) -> TraceSession {
        let mut s = TraceSession::new("m");
        s.set_meta("scheme", label);
        let sp = s.begin("enc.0", "block");
        s.gemm(
            "enc.0.q",
            [4, 4, 4],
            GemmCost {
                cycles: 64,
                macs: 64,
                active_cycles: 32,
                sram_bytes: 128,
            },
        );
        s.quant(&QuantEvent {
            site: "enc.0.q.in",
            format: "P8E1",
            amax: 1.5,
            elements: 16,
            saturated: 1,
            underflowed: 0,
            nonfinite_in: 0,
            nonfinite_out: 0,
        });
        s.end(sp);
        s.scaler_event(1, "backoff", 1024.0, 512.0);
        s.metrics_mut().counter_add("steps", &[], 7);
        s
    }

    #[test]
    fn manifest_contains_all_sections() {
        let v = RunManifest::value(&run("posit8"));
        assert_eq!(v["version"].as_u64(), Some(MANIFEST_VERSION));
        assert_eq!(v["meta"]["scheme"], "posit8");
        assert_eq!(v["counts"]["spans"].as_u64(), Some(2));
        assert_eq!(
            v["quant_sites"]["enc.0.q.in"]["saturated"].as_u64(),
            Some(1)
        );
        assert_eq!(
            v["gemm_sites"]["enc.0.q"]["utilization"].as_f64(),
            Some(0.5)
        );
        assert_eq!(v["scaler"][0]["event"], "backoff");
        assert_eq!(v["metrics"]["counters"]["steps"].as_u64(), Some(7));
    }

    #[test]
    fn identical_runs_render_identically() {
        // Wall time differs between the two sessions; the manifest must not.
        let a = RunManifest::render(&run("posit8"));
        let b = RunManifest::render(&run("posit8"));
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn manifest_roundtrips_through_parser() {
        let s = RunManifest::render(&run("fp8"));
        let v = serde_json::from_str(&s).unwrap();
        assert_eq!(v["name"], "m");
    }

    #[test]
    fn host_section_records_pool_and_is_stripped_deterministically() {
        let s = run("posit8");
        let v = RunManifest::value(&s);
        assert_eq!(
            v["host"]["threads"].as_u64(),
            Some(qt_par::threads() as u64)
        );
        let d = RunManifest::value_deterministic(&s);
        assert!(
            matches!(d["host"], Value::Null),
            "deterministic view must omit host"
        );
        // Stripping host is the only difference between the two renders.
        let det = RunManifest::render_deterministic(&s);
        assert!(!det.contains("\"host\""));
        assert!(RunManifest::render(&s).contains("\"host\""));
        // And the deterministic bytes do not depend on the pool size.
        let a = qt_par::with_threads(1, || RunManifest::render_deterministic(&run("posit8")));
        let b = qt_par::with_threads(3, || RunManifest::render_deterministic(&run("posit8")));
        assert_eq!(a, b);
        assert_eq!(a, det);
    }
}
