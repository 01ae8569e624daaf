//! Chaos-style integration tests for the qt-serve resilient runtime.
//!
//! * The deterministic serving simulation must produce **byte-identical**
//!   reports at any kernel pool size (`QT_THREADS` equivalents 1 and 4).
//! * A scripted fault burst must drive the circuit breaker through its
//!   full trip → degrade → half-open → recover round trip, with **zero
//!   unflagged corrupt responses** — verified by deterministically
//!   re-running every served response's final attempt and checking its
//!   health.
//! * Deadline enforcement must never surface a partial result, for
//!   arbitrary block budgets (property-based).
//! * When `QT_VALIDATE_SERVE` names a `BENCH_serve.json` (CI's
//!   serve-smoke job runs the binary first), its schema is validated.

use proptest::prelude::*;
use qt_quant::ElemFormat;
use qt_robust::{BerFaultSource, BurstFaultSource, CodeFormat, NoFaults};
use qt_serve::{
    run_sim, BreakerState, Engine, HealthSnapshot, LoadSpec, OutcomeKind, Request, Route,
    ServeConfig,
};
use qt_transformer::{Model, TaskHead, TransformerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn tiny_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(
        TransformerConfig::mobilebert_tiny_sim(),
        TaskHead::Classify(2),
        &mut rng,
    )
}

fn p8e1() -> CodeFormat {
    CodeFormat::new(ElemFormat::P8E1).expect("P8E1 has stored codes")
}

/// The tentpole determinism claim: one simulated serving run — queueing,
/// deadlines, retries, fault injection, breaker — serializes to the same
/// bytes whether the kernels underneath run on 1 thread or 4.
#[test]
fn serve_report_is_byte_identical_across_thread_pools() {
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 4,
        ..ServeConfig::default()
    };
    let run = |threads: usize| {
        qt_par::with_threads(threads, || {
            let engine = Engine::new(
                tiny_model(11),
                &cfg,
                Box::new(BerFaultSource::new(0xfa17, p8e1(), 1e-5)),
            );
            let spec = LoadSpec {
                rps: 2.5 * 1e6 / engine.full_pass_us() as f64,
                duration_us: 30 * engine.full_pass_us(),
                deadline_us: 3 * engine.full_pass_us(),
                seq: 8,
                seed: 21,
            };
            let requests = spec.requests(engine.model().cfg.vocab);
            let report = run_sim(&engine, &cfg, &requests, None);
            serde_json::to_string(&report.to_json()).expect("serializable")
        })
    };
    let single = run(1);
    let quad = run(4);
    assert_eq!(
        single, quad,
        "serving counters must not depend on QT_THREADS"
    );
}

/// Scripted burst: healthy traffic, then a window of requests whose
/// weight reads are hammered at BER 2e-2, then healthy traffic again.
/// The breaker must trip, degrade, probe, and recover — and no response
/// served anywhere in the run may come from an unhealthy attempt.
#[test]
fn breaker_round_trips_under_fault_burst_with_no_unflagged_corruption() {
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 64,
        breaker: qt_serve::BreakerPolicy {
            min_samples: 4,
            window: 8,
            cooldown_requests: 8,
            probe_successes: 2,
            ..Default::default()
        },
        ..ServeConfig::default()
    };
    let fault = BurstFaultSource::new(BerFaultSource::new(0xb0057, p8e1(), 0.0), 2e-2, 40..110);
    let engine = Engine::new(tiny_model(11), &cfg, Box::new(fault));
    let spec = LoadSpec {
        rps: 0.9 * 1e6 / engine.full_pass_us() as f64,
        duration_us: 200 * engine.full_pass_us(),
        deadline_us: 0,
        seq: 8,
        seed: 5,
    };
    let requests = spec.requests(engine.model().cfg.vocab);
    let report = run_sim(&engine, &cfg, &requests, None);

    assert!(report.reconciles(), "counters reconcile to offered load");
    assert!(report.breaker_trips >= 1, "burst must trip the breaker");
    assert!(
        report.served_degraded > 0,
        "tripped traffic serves degraded"
    );
    let seq: Vec<(BreakerState, BreakerState)> =
        report.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert!(
        seq.contains(&(BreakerState::Closed, BreakerState::Open)),
        "trip recorded: {seq:?}"
    );
    assert!(
        seq.contains(&(BreakerState::Open, BreakerState::HalfOpen)),
        "cooldown expires into probing: {seq:?}"
    );
    assert!(
        seq.contains(&(BreakerState::HalfOpen, BreakerState::Closed)),
        "clean probes restore the 8-bit path: {seq:?}"
    );
    assert_eq!(
        report.transitions.last().map(|t| t.to),
        Some(BreakerState::Closed),
        "healthy tail traffic closes the breaker again"
    );

    // Zero unflagged corrupt responses: every served response's final
    // attempt is deterministically replayable — re-run it and assert the
    // engine saw healthy traffic. (Fault injection is a pure function of
    // (request id, attempt index), so this is exact, not statistical.)
    let by_id: std::collections::HashMap<u64, &Request> =
        requests.iter().map(|r| (r.id, r)).collect();
    let mut replayed = 0;
    for resp in &report.responses {
        if !resp.outcome.is_served() {
            continue;
        }
        let req = by_id[&resp.id];
        let primary = resp.outcome == OutcomeKind::ServedPrimary;
        let again = engine.attempt(req, resp.attempts - 1, primary, u64::MAX);
        assert!(again.completed);
        assert_eq!(
            again.health.nonfinite_in + again.health.nonfinite_out,
            0,
            "request {} was served from an unhealthy attempt",
            resp.id
        );
        assert_eq!(again.label, resp.label, "served label replays exactly");
        replayed += 1;
    }
    assert!(replayed > 0, "burst run must serve something to audit");
}

/// A crash-safe snapshot captured after the burst run reloads with the
/// same counters it was saved with.
#[test]
fn health_snapshot_survives_disk_round_trip() {
    let cfg = ServeConfig::default();
    let engine = Engine::new(tiny_model(3), &cfg, Box::new(NoFaults));
    let spec = LoadSpec {
        rps: 1e6 / (2.0 * engine.full_pass_us() as f64),
        duration_us: 10 * engine.full_pass_us(),
        deadline_us: 0,
        seq: 6,
        seed: 9,
    };
    let requests = spec.requests(engine.model().cfg.vocab);
    let report = run_sim(&engine, &cfg, &requests, None);
    let snap = HealthSnapshot {
        breaker_state: BreakerState::Closed,
        breaker_trips: report.breaker_trips,
        unhealthy_rate: 0.0,
        offered: report.offered,
        served_primary: report.served_primary,
        served_degraded: report.served_degraded,
        shed_queue_full: report.shed_queue_full,
        deadline_miss: report.deadline_miss,
    };
    let dir = std::env::temp_dir().join("qt_serving_it_snap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("health.json");
    snap.save(&path).unwrap();
    assert_eq!(HealthSnapshot::load(&path), Ok(snap));
    std::fs::remove_dir_all(&dir).ok();
}

fn shared_engine() -> &'static Engine {
    static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(tiny_model(11), &ServeConfig::default(), Box::new(NoFaults)))
}

// Deadline enforcement never surfaces a partial result: for any block
// budget, the request either completes (label present, full pass
// executed) or misses (no label at all), and a cancelled pass never
// executes more blocks than its budget.
proptest! {
    #[test]
    fn deadlines_never_yield_partial_results(
        budget_blocks in 0u64..8,
        seq in 1usize..12,
        seed in 0u64..1000,
    ) {
        let engine = shared_engine();
        let cfg = ServeConfig::default();
        let blocks = engine.model().blocks_per_forward();
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = engine.model().cfg.vocab;
        let tokens: Vec<usize> = (0..seq).map(|_| rng.gen_range(0..vocab)).collect();
        let req = Request::new(seed, tokens)
            .with_deadline(budget_blocks * cfg.per_block_us);
        let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        if budget_blocks >= blocks {
            prop_assert_eq!(out.response.outcome, OutcomeKind::ServedPrimary);
            prop_assert!(out.response.label.is_some());
            prop_assert_eq!(out.blocks, blocks);
        } else {
            prop_assert_eq!(out.response.outcome, OutcomeKind::DeadlineMiss);
            prop_assert!(out.response.label.is_none(), "no partial result");
            prop_assert!(out.blocks <= budget_blocks, "budget respected");
        }
        // Regardless of outcome: the response accounts for the request.
        prop_assert_eq!(out.response.id, req.id);
        prop_assert!(out.response.finish_us >= req.arrival_us);
    }
}

/// Validate the `serve_bench` output schema. Runs over the file named by
/// `QT_VALIDATE_SERVE` (CI's serve-smoke job runs the binary first);
/// skips silently when the variable is unset.
/// `QT_SERVE_MODE` adds the scenario contract of `check_serve_mode`.
#[test]
fn env_named_serve_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_SERVE") else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("BENCH_serve.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCH_serve.json parses");
    assert_eq!(v["schema"].as_str(), Some("qt-serve/report/v1"));
    assert_eq!(v["bench"].as_str(), Some("serve_bench"));
    assert_eq!(v["reconciles"].as_bool(), Some(true));
    let offered = v["offered"].as_u64().expect("offered");
    let served_primary = v["served_primary"].as_u64().expect("served_primary");
    let served_degraded = v["served_degraded"].as_u64().expect("served_degraded");
    let shed = v["shed_queue_full"].as_u64().expect("shed_queue_full");
    let miss = v["deadline_miss"].as_u64().expect("deadline_miss");
    assert!(offered >= 1, "bench must offer load");
    assert_eq!(
        offered,
        served_primary + served_degraded + shed + miss,
        "counters reconcile"
    );
    for k in ["goodput", "shed_rate", "miss_rate", "degraded_fraction"] {
        let x = v[k].as_f64().unwrap_or(-1.0);
        assert!((0.0..=1.0).contains(&x), "{k} in [0,1], got {x}");
    }
    for k in ["latency_p50_us", "latency_p99_us", "queue_wait_p99_us"] {
        assert!(v[k].as_f64().unwrap_or(-1.0) >= 0.0, "{k} nonnegative");
    }
    assert!(v["breaker_trips"].as_u64().is_some());
    assert!(
        v["breaker_transitions"].as_array().is_some(),
        "transition log present"
    );
    check_serve_mode(&v, &std::env::var("QT_SERVE_MODE").unwrap_or_default());
}

/// The scenario contract `QT_SERVE_MODE` names, checked on a
/// `BENCH_serve.json`: `overload` runs must both shed and miss, `light`
/// runs must do neither. An empty mode checks the schema alone; any
/// other mode is a typo that would otherwise pass silently, so it
/// panics.
fn check_serve_mode(v: &serde_json::Value, mode: &str) {
    let shed = v["shed_queue_full"].as_u64().expect("shed_queue_full");
    let miss = v["deadline_miss"].as_u64().expect("deadline_miss");
    match mode {
        "overload" => assert!(
            shed > 0 && miss > 0,
            "overload run must both shed and miss (shed {shed}, miss {miss})"
        ),
        "light" => assert_eq!((shed, miss), (0, 0), "light run must neither shed nor miss"),
        "" => {}
        other => panic!("unknown QT_SERVE_MODE {other:?}; accepted: overload, light"),
    }
}

#[test]
#[should_panic(expected = "unknown QT_SERVE_MODE")]
fn serve_validator_rejects_an_unknown_mode() {
    let v = serde_json::json!({ "shed_queue_full": 0, "deadline_miss": 0 });
    check_serve_mode(&v, "overloaded");
}
