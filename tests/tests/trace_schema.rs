//! Schema checks for the qt-trace exporters.
//!
//! Two modes:
//!
//! * Always: build a traced end-to-end run in-process (model forward +
//!   a few training steps on an accelerator cycle model) and validate
//!   the three artifacts — Chrome trace, JSONL stream, manifest —
//!   against the schema rules below, plus manifest determinism.
//! * When `QT_VALIDATE_TRACE` / `QT_VALIDATE_MANIFEST` point at files
//!   (as in the CI smoke job, which runs a bench binary first), the
//!   same validators run over those files instead.

use qt_accel::{Accelerator, Datapath, SystolicSim};
use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::QuantScheme;
use qt_trace::{chrome_trace, jsonl, RunManifest, TraceSession, MANIFEST_VERSION};
use qt_train::{AdamW, LossScaler, Trainer};
use qt_transformer::{Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;
use std::rc::Rc;

/// Validate a Chrome `trace_event` document: object form, metadata
/// naming both tracks, every event carrying the required keys, and the
/// cycle track nesting at least one GEMM inside a block span.
fn validate_chrome(doc: &Value) {
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");
    let mut track_names = Vec::new();
    for e in events {
        let ph = e["ph"].as_str().expect("ph");
        assert!(e["name"].as_str().is_some(), "name: {e:?}");
        assert!(e["pid"].as_u64().is_some(), "pid: {e:?}");
        assert!(e["tid"].as_u64().is_some(), "tid: {e:?}");
        match ph {
            "M" => track_names.push(e["args"]["name"].as_str().unwrap().to_string()),
            "X" => {
                assert!(e["ts"].as_f64().is_some(), "ts: {e:?}");
                assert!(e["dur"].as_f64().unwrap_or(-1.0) >= 0.0, "dur: {e:?}");
            }
            "i" => assert!(e["ts"].as_f64().is_some(), "ts: {e:?}"),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(track_names.iter().any(|n| n == "wall"));
    assert!(track_names.iter().any(|n| n == "sim-cycles"));

    // Nesting on the cycle track: a gemm span contained in a block span.
    let cyc: Vec<&Value> = events
        .iter()
        .filter(|e| e["tid"].as_u64() == Some(2) && e["ph"] == "X")
        .collect();
    let blocks: Vec<&&Value> = cyc.iter().filter(|e| e["cat"] == "block").collect();
    let gemms: Vec<&&Value> = cyc.iter().filter(|e| e["cat"] == "gemm").collect();
    assert!(!blocks.is_empty(), "cycle track has block spans");
    assert!(!gemms.is_empty(), "cycle track has gemm spans");
    let contained = gemms.iter().any(|g| {
        let (gts, gdur) = (g["ts"].as_f64().unwrap(), g["dur"].as_f64().unwrap());
        blocks.iter().any(|b| {
            let (bts, bdur) = (b["ts"].as_f64().unwrap(), b["dur"].as_f64().unwrap());
            gts >= bts && gts + gdur <= bts + bdur
        })
    });
    assert!(contained, "a GEMM span nests inside a block span");
}

/// Validate the JSONL stream: every line parses, carries the event
/// envelope, and `seq` increments from zero.
fn validate_jsonl(text: &str) {
    let mut expected = 0u64;
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).expect("line parses");
        assert_eq!(v["seq"].as_u64(), Some(expected), "seq order");
        expected += 1;
        let ty = v["type"].as_str().expect("type");
        assert!(v["name"].as_str().is_some());
        assert!(v["cat"].as_str().is_some());
        assert!(v["t_ns"].as_u64().is_some());
        match ty {
            "span" => {
                let c = v["cycles"].as_u64().expect("cycles");
                let t = v["cycles_total"].as_u64().expect("cycles_total");
                assert!(t >= c, "total ≥ own cycles");
            }
            "instant" => assert!(v["args"].as_object().is_some()),
            other => panic!("unexpected type {other:?}"),
        }
    }
    assert!(expected > 0, "stream is non-empty");
}

/// Validate the manifest: version, required sections with the right
/// shapes, and internally-consistent site aggregates.
fn validate_manifest(v: &Value) {
    assert_eq!(v["version"].as_u64(), Some(MANIFEST_VERSION));
    assert!(v["name"].as_str().is_some());
    assert!(v["meta"].as_object().is_some());
    assert!(v["counts"]["spans"].as_u64().is_some());
    assert!(v["counts"]["instants"].as_u64().is_some());
    let quant = v["quant_sites"].as_object().expect("quant_sites");
    for (site, q) in quant {
        let elements = q["elements"].as_u64().unwrap_or_else(|| panic!("{site}"));
        for field in ["saturated", "underflowed", "nonfinite_in", "nonfinite_out"] {
            assert!(q[field].as_u64().unwrap() <= elements, "{site}.{field}");
        }
        assert!(q["events"].as_u64().unwrap() > 0, "{site}.events");
        assert!(
            !q["formats"].as_array().unwrap().is_empty(),
            "{site}.formats"
        );
    }
    let gemm = v["gemm_sites"].as_object().expect("gemm_sites");
    for (site, g) in gemm {
        assert!(g["count"].as_u64().unwrap() > 0, "{site}.count");
        let util = g["utilization"].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&util), "{site}.utilization {util}");
        assert!(
            g["active_cycles"].as_u64().unwrap() <= g["cycles"].as_u64().unwrap(),
            "{site}: active ≤ total"
        );
    }
    for s in v["scaler"].as_array().expect("scaler array") {
        assert!(s["step"].as_u64().is_some());
        assert!(s["event"].as_str().is_some());
        assert!(s["from"].as_f64().is_some() && s["to"].as_f64().is_some());
    }
    assert!(v["metrics"]["counters"].as_object().is_some());
    assert!(v["metrics"]["gauges"].as_object().is_some());
    assert!(v["metrics"]["hists"].as_object().is_some());
    // v2: the host section records the qt-par pool ("host" is absent only
    // from the deterministic view, which this validator never sees).
    let host = v["host"].as_object().expect("host section");
    assert!(
        v["host"]["threads"].as_u64().unwrap_or(0) >= 1,
        "host.threads"
    );
    assert!(host.contains_key("qt_threads"), "host.qt_threads");
}

/// A small traced run: quantized forward passes plus a few fine-tuning
/// steps with a dynamic scaler, all on one session with simulated cycles.
fn traced_run(seed: u64) -> TraceSession {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = TransformerConfig::mobilebert_tiny_sim();
    cfg.layers = 2;
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 12);
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);

    let session = TraceSession::new("trace-schema").handle();
    session.borrow_mut().set_meta("seed", seed.to_string());
    session.borrow_mut().set_meta("scheme", "posit8");
    let sim = SystolicSim::new(Accelerator::new(8, Datapath::Posit8));
    let qctx = QuantCtx::training(QuantScheme::posit8())
        .with_trace(Rc::clone(&session))
        .with_cycle_model(Rc::new(sim));
    let mut trainer = Trainer::new(model, qctx, TrainMode::Full, AdamW::new(1e-3))
        .with_dynamic_scaling(LossScaler::new(f32::MAX).with_backoff(1.0 / 65536.0));
    let data = task.dataset(8, seed ^ 0x7A);
    let (batch, labels) = task.batch(&data);
    for _ in 0..3 {
        trainer.step_classify(&batch, &labels);
    }
    drop(trainer); // releases the QuantCtx's handle clone
    Rc::try_unwrap(session).expect("sole owner").into_inner()
}

#[test]
fn in_process_artifacts_validate() {
    let session = traced_run(11);
    validate_chrome(&serde_json::from_str(&chrome_trace(&session)).unwrap());
    validate_jsonl(&jsonl(&session));
    validate_manifest(&RunManifest::value(&session));
}

#[test]
fn same_seed_manifests_are_byte_identical() {
    let a = RunManifest::render(&traced_run(7));
    let b = RunManifest::render(&traced_run(7));
    assert_eq!(a, b, "manifest must not depend on wall time");
}

#[test]
fn manifests_deterministic_across_thread_counts() {
    // The full traced run — forward, backward, optimizer, cycle model —
    // must produce byte-identical deterministic manifests whether the
    // kernels ran serially or on a pool.
    let a = qt_par::with_threads(1, || RunManifest::render_deterministic(&traced_run(7)));
    let b = qt_par::with_threads(4, || RunManifest::render_deterministic(&traced_run(7)));
    assert_eq!(
        a, b,
        "kernels must be bitwise-deterministic in thread count"
    );
    assert!(!a.contains("\"host\""));
}

#[test]
fn untraced_run_allocates_no_events() {
    // The hot path without a session: the same run must record nothing
    // and take the no-trace branches throughout.
    let mut rng = StdRng::seed_from_u64(3);
    let mut cfg = TransformerConfig::mobilebert_tiny_sim();
    cfg.layers = 1;
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 12);
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    let qctx = QuantCtx::training(QuantScheme::posit8());
    assert!(!qctx.traced());
    let mut trainer = Trainer::new(model, qctx, TrainMode::Full, AdamW::new(1e-3));
    let data = task.dataset(8, 5);
    let (batch, labels) = task.batch(&data);
    trainer.step_classify(&batch, &labels);
    assert!(trainer.steps() + trainer.skipped() == 1);
}

#[test]
fn env_named_files_validate() {
    // CI smoke: a bench binary ran with --trace-out/--manifest-out and
    // the resulting files are handed to the same validators.
    if let Some(path) = integration::validate_path("QT_VALIDATE_TRACE") {
        let text = std::fs::read_to_string(&path).expect("trace file readable");
        validate_chrome(&serde_json::from_str(&text).expect("trace parses"));
        let jsonl_path = path.with_extension("jsonl");
        if jsonl_path.exists() {
            validate_jsonl(&std::fs::read_to_string(jsonl_path).unwrap());
        }
    }
    if let Some(path) = integration::validate_path("QT_VALIDATE_MANIFEST") {
        let text = std::fs::read_to_string(&path).expect("manifest file readable");
        validate_manifest(&serde_json::from_str(&text).expect("manifest parses"));
    }
}
