//! Integration tests for the qt-telemetry observability plane.
//!
//! * The whole telemetry surface — windowed series, SLO burn-rate
//!   alerts, request span trees, flight dumps — must serialize
//!   **byte-identically** at any kernel pool size (`QT_THREADS`
//!   equivalents 1 and 4), because every timestamp lives on the
//!   simulation's virtual clock.
//! * Window aggregates are a pure function of the event *multiset*:
//!   re-ordering the event stream (any interleaving a scheduler could
//!   produce) must yield identical windows (property-based).
//! * Every request traced through a chaotic fleet run — corruption,
//!   a crash, failovers, hedges — closes into a complete span tree:
//!   exactly one root, every attempt linked, no orphans.
//! * The flight recorder honours its ring bound under any load and its
//!   dumps report truncation faithfully.
//! * When `QT_VALIDATE_TELEMETRY` names a `BENCH_telemetry.json` (CI's
//!   telemetry-smoke job runs `fleet_bench` first), its schema is
//!   validated; `QT_TELEMETRY_MODE=crash|healthy` additionally pins
//!   whether burn-rate alerts fired and a crash flight dump exists.

use proptest::prelude::*;
use qt_fleet::{
    run_fleet, ArrivalShape, FleetConfig, FleetLoadSpec, MemSnapStore, ReplicaSpec, RouterPolicy,
};
use qt_quant::ElemFormat;
use qt_robust::{BerFaultSource, CodeFormat, CrashSchedule, FaultSource, NoFaults};
use qt_telemetry::{
    alerts_jsonl, telemetry_report, timeseries_jsonl, FlightRecorder, Scope, SeriesKind, SloSpec,
    TelemetryConfig, TelemetrySink, WindowedSeries,
};
use qt_transformer::{Model, TaskHead, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

fn tiny_model() -> Model {
    static MODEL: std::sync::OnceLock<Model> = std::sync::OnceLock::new();
    MODEL
        .get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(11);
            Model::new(
                TransformerConfig::mobilebert_tiny_sim(),
                TaskHead::Classify(2),
                &mut rng,
            )
        })
        .clone()
}

/// The same 3-replica chaos fleet the qt-fleet tests use: a posit8 node
/// in a fault environment, a clean E4M3 node with a mid-run outage, and
/// a slow but immune BF16 node.
fn chaos_config() -> FleetConfig {
    let pass = 6 * ReplicaSpec::BASE_BLOCK_US;
    FleetConfig {
        replicas: vec![
            ReplicaSpec::new(ElemFormat::P8E1),
            ReplicaSpec::new(ElemFormat::E4M3)
                .with_crashes(CrashSchedule::single(8 * pass, 10 * pass)),
            ReplicaSpec::new(ElemFormat::Bf16),
        ],
        policy: RouterPolicy::HealthAware,
        snapshot_every_us: 2 * pass,
        ..FleetConfig::default()
    }
}

fn chaos_faults() -> Vec<Box<dyn FaultSource + Send + Sync>> {
    let codec = CodeFormat::new(ElemFormat::P8E1).expect("P8E1 has stored codes");
    vec![
        Box::new(BerFaultSource::new(0xfa17, codec, 2e-3)),
        Box::new(NoFaults),
        Box::new(NoFaults),
    ]
}

fn chaos_load(seed: u64, rps_passes: f64, passes: u64) -> Vec<qt_fleet::FleetRequest> {
    let pass = 6 * ReplicaSpec::BASE_BLOCK_US;
    FleetLoadSpec {
        rps: rps_passes * 1e6 / pass as f64,
        duration_us: passes * pass,
        shape: ArrivalShape::Bursty {
            burst_len_us: 4 * pass,
            burst_mult: 3.0,
        },
        period_us: 12 * pass,
        deadline_us: 6 * pass,
        seed,
        ..FleetLoadSpec::default()
    }
    .requests(tiny_model().cfg.vocab)
}

/// A telemetry sink tuned for the short chaos horizon: 10 ms windows
/// and burn-rate windows shrunk by 1e-4 so the fast rule spans ~30 ms
/// of virtual time. No flight directory — dumps stay in memory.
fn chaos_sink(flight_cap: usize) -> TelemetrySink {
    TelemetrySink::new(
        TelemetryConfig {
            interval_us: 10_000,
            slos: vec![SloSpec::availability(0.999).with_window_scale(1e-4)],
            flight_capacity: flight_cap,
            seed: 7,
            ..TelemetryConfig::default()
        },
        3,
    )
}

fn observed_chaos_run(seed: u64, flight_cap: usize) -> (qt_fleet::FleetReport, TelemetrySink) {
    let mut sink = chaos_sink(flight_cap);
    let report = run_fleet(
        &tiny_model(),
        &chaos_config(),
        &chaos_load(seed, 2.0, 24),
        chaos_faults(),
        Box::new(MemSnapStore::new()),
        &mut sink,
    );
    (report, sink)
}

/// The tentpole determinism claim for the observability plane: the
/// full telemetry surface serializes to the same bytes whether the
/// kernels underneath run on 1 thread or 4.
#[test]
fn telemetry_artifacts_are_byte_identical_across_thread_pools() {
    let run = |threads: usize| {
        qt_par::with_threads(threads, || {
            let (report, sink) = observed_chaos_run(77, 64);
            (
                serde_json::to_string(&report.to_json()).expect("serializable"),
                serde_json::to_string(&telemetry_report(&sink)).expect("serializable"),
                timeseries_jsonl(&sink),
                alerts_jsonl(&sink),
                sink.dumps()
                    .iter()
                    .map(|d| serde_json::to_string(&d.to_json()).unwrap())
                    .collect::<Vec<_>>(),
            )
        })
    };
    let single = run(1);
    let quad = run(4);
    assert_eq!(
        single.0, quad.0,
        "fleet report must not depend on QT_THREADS"
    );
    assert_eq!(
        single.1, quad.1,
        "telemetry scoreboard must not depend on QT_THREADS"
    );
    assert_eq!(
        single.2, quad.2,
        "series JSONL must not depend on QT_THREADS"
    );
    assert_eq!(
        single.3, quad.3,
        "alert stream must not depend on QT_THREADS"
    );
    assert_eq!(
        single.4, quad.4,
        "flight dumps must not depend on QT_THREADS"
    );
}

/// Every request admitted to a chaotic fleet — corruption retries,
/// a crash, failovers, hedges — must close into one complete span
/// tree, and the fleet-level counters must reconcile with the report.
#[test]
fn chaos_run_closes_every_span_tree_and_reconciles_counters() {
    let (report, sink) = observed_chaos_run(13, 64);
    assert!(report.reconciles());

    let book = sink.book();
    assert_eq!(
        book.len() as u64,
        report.offered,
        "one trace per admitted request"
    );
    assert_eq!(
        book.complete_count(),
        book.len(),
        "every trace closed with a complete span tree"
    );
    for resp in &report.responses {
        let trace = book.get(resp.id).expect("trace exists");
        assert!(trace.is_complete(), "request {}: {trace:?}", resp.id);
        let attempts = trace.spans.iter().filter(|s| s.name == "attempt").count();
        assert_eq!(
            attempts as u32, resp.attempts,
            "request {}: one attempt span per engine attempt",
            resp.id
        );
        assert_eq!(
            trace.outcome.as_deref(),
            Some(resp.outcome.name()),
            "request {}: trace closed with the report's outcome",
            resp.id
        );
    }

    let total = |name: &str| {
        sink.series_get(Scope::Fleet, name)
            .map(|s| s.counter_total())
            .unwrap_or(0)
    };
    assert_eq!(total("arrivals"), report.offered);
    assert_eq!(total("responses"), report.offered);
    assert_eq!(
        total("served"),
        report.served_primary + report.served_degraded
    );
    assert_eq!(total("crashes"), 1);
    assert_eq!(total("recoveries"), 1);
    assert!(
        sink.dumps()
            .iter()
            .any(|d| d.replica == 1 && d.reason == "crash"),
        "the crashed replica left a black box"
    );
}

/// Re-ordering the event stream must not change any window: counters
/// and histograms are commutative aggregates, and gauges resolve by
/// greatest timestamp (values here derive from the timestamp, so equal
/// times carry equal writes). This is the "any interleaving" guarantee
/// the thread-pool test samples, proven over arbitrary streams.
type Events = Vec<(u64, u8, u16)>;

fn event_stream(seed: u64, n: usize) -> (Events, Events) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let orig: Vec<(u64, u8, u16)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..200_000u64),
                rng.gen_range(0..3u8),
                rng.gen_range(1..500u16),
            )
        })
        .collect();
    let mut shuffled = orig.clone();
    for i in (1..shuffled.len()).rev() {
        let j = rng.gen_range(0..=i);
        shuffled.swap(i, j);
    }
    (orig, shuffled)
}

fn replay(evs: &Events) -> qt_telemetry::SeriesSet {
    let mut set = qt_telemetry::SeriesSet::new();
    for &(at, kind, x) in evs {
        match kind {
            0 => set.counter_add(Scope::Fleet, "c", at, x as u64, 1_000, 64),
            1 => set.observe(Scope::Fleet, "h", at, x as f32, 1_000, 64),
            _ => set.gauge_set(Scope::Fleet, "g", at, at as f64, 1_000, 64),
        }
    }
    set
}

proptest! {
    #[test]
    fn window_aggregates_are_permutation_invariant(
        seed in 0u64..1_000_000,
        n in 1usize..100,
    ) {
        let (orig, shuffled) = event_stream(seed, n);
        let a = replay(&orig);
        let b = replay(&shuffled);
        prop_assert_eq!(a.len(), b.len());
        for ((ka, sa), (kb, sb)) in a.iter().zip(b.iter()) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(
                serde_json::to_string(&sa.to_json()).unwrap(),
                serde_json::to_string(&sb.to_json()).unwrap(),
                "series {} diverged under permutation", ka
            );
        }
    }

    #[test]
    fn flight_ring_never_exceeds_capacity(
        cap in 1usize..32,
        n in 0u64..200,
    ) {
        let mut rec = FlightRecorder::new(cap);
        for t in 0..n {
            rec.record(t, "tick", vec![("n".to_string(), t as f64)]);
            prop_assert!(rec.len() <= cap);
        }
        let dump = rec.dump(0, n, "test");
        prop_assert_eq!(dump.events.len() as u64, n.min(cap as u64));
        prop_assert_eq!(dump.dropped, n.saturating_sub(cap as u64));
        // The ring keeps the *newest* events.
        if let Some(last) = dump.events.last() {
            prop_assert_eq!(last.at_us, n - 1);
        }
    }
}

/// A chaotic run with a tiny ring still bounds every recorder and
/// reports truncation in its dumps.
#[test]
fn fleet_flight_recorders_stay_bounded() {
    let (_report, sink) = observed_chaos_run(5, 4);
    for rec in sink.recorders() {
        assert!(rec.len() <= 4);
    }
    for dump in sink.dumps() {
        assert!(dump.events.len() <= 4, "dump ring bound: {dump:?}");
        assert_eq!(
            dump.dropped > 0,
            dump.events.len() == 4,
            "a full ring under chaos load must have evicted"
        );
    }
    assert!(!sink.dumps().is_empty(), "the crash took a dump");
}

/// Window series keep only `retain` windows and count evictions.
#[test]
fn windowed_series_honours_retention() {
    let mut s = WindowedSeries::new(SeriesKind::Counter, 100, 8);
    for t in 0..5_000u64 {
        s.counter_add(t, 1);
    }
    assert_eq!(s.len(), 8, "retention bound holds");
    assert_eq!(s.evicted(), 42, "50 windows touched, 8 kept");
}

/// Validate the `fleet_bench` telemetry scoreboard schema. Runs over
/// the file named by `QT_VALIDATE_TELEMETRY` (CI's telemetry-smoke job
/// runs the binary first); skips silently when the variable is unset.
/// `QT_TELEMETRY_MODE` adds the scenario contract of
/// `check_telemetry_mode`.
#[test]
fn env_named_telemetry_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_TELEMETRY") else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("BENCH_telemetry.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCH_telemetry.json parses");
    assert_eq!(v["schema"].as_str(), Some("qt-telemetry/bench/v1"));
    assert_eq!(v["bench"].as_str(), Some("fleet_bench"));
    let policies = v["policies"].as_array().expect("per-policy sections");
    assert!(!policies.is_empty(), "at least one policy section");
    for p in policies {
        let name = p["policy"].as_str().expect("policy name");
        assert_eq!(p["schema"].as_str(), Some("qt-telemetry/report/v1"));
        assert!(
            p["interval_us"].as_u64().unwrap_or(0) > 0,
            "{name}: positive window interval"
        );
        let series = p["series"].as_array().expect("series list");
        assert!(!series.is_empty(), "{name}: series were recorded");
        for s in series {
            assert!(s["name"].as_str().is_some(), "{name}: series are named");
            let kind = s["kind"].as_str().expect("series kind");
            assert!(
                ["counter", "gauge", "hist"].contains(&kind),
                "{name}: known series kind, got {kind}"
            );
            assert!(
                s["windows"].as_array().is_some(),
                "{name}: series carry windows"
            );
        }
        let traces = &p["traces"];
        assert_eq!(
            traces["requests"].as_u64(),
            traces["complete"].as_u64(),
            "{name}: every request trace is complete"
        );
        for a in p["alerts"].as_array().expect("alert list") {
            assert!(a["slo"].as_str().is_some());
            assert!(a["rule"].as_str().is_some());
            assert!(a["at_us"].as_u64().is_some());
        }
    }
    let mode = std::env::var("QT_TELEMETRY_MODE").unwrap_or_default();
    check_telemetry_mode(&v, &mode);
}

/// The scenario contract `QT_TELEMETRY_MODE` names, checked on a
/// `BENCH_telemetry.json`: `crash` requires burn-rate alert fires and a
/// crash flight dump, `healthy` zero alert fires and zero crash dumps.
/// An empty mode checks the schema alone; any other mode is a typo that
/// would otherwise pass silently, so it panics.
fn check_telemetry_mode(v: &serde_json::Value, mode: &str) {
    let policies = v["policies"].as_array().expect("per-policy sections");
    let fires = v["alert_fires"].as_u64().expect("alert fire count");
    let crash_dumps = policies
        .iter()
        .flat_map(|p| p["flight"]["dumps"].as_array().cloned().unwrap_or_default())
        .filter(|d| d["reason"].as_str() == Some("crash"))
        .count();
    match mode {
        "crash" => {
            assert!(fires > 0, "outage run must fire a burn-rate alert");
            assert!(crash_dumps > 0, "outage run must leave a crash black box");
        }
        "healthy" => {
            assert_eq!(fires, 0, "healthy run must not fire alerts");
            assert_eq!(crash_dumps, 0, "healthy run must not dump on crash");
        }
        "" => {}
        other => panic!("unknown QT_TELEMETRY_MODE {other:?}; accepted: crash, healthy"),
    }
}

#[test]
#[should_panic(expected = "unknown QT_TELEMETRY_MODE")]
fn telemetry_validator_rejects_an_unknown_mode() {
    let v = serde_json::from_str(r#"{"alert_fires": 0, "policies": []}"#);
    check_telemetry_mode(&v.unwrap(), "outage");
}
