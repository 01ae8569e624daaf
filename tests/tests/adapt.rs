//! Chaos tests for the qt-adapt adaptive control plane wired into the
//! qt-fleet simulation.
//!
//! * A **gray failure** — a replica that silently runs N× slow while
//!   passing every health gate — must be caught by the windowed
//!   latency-outlier detector and ejected within a bounded number of
//!   detection windows, after which the fleet's tail latency recovers
//!   to within 20% of a no-fault baseline.
//! * The whole adaptive surface (brownout ladder walk, CoDel drops,
//!   ejections, scale events) must serialize **byte-identically**
//!   whether the kernels underneath run on 1 thread or 4.
//! * Under sustained overload, the priority-tiered brownout ladder must
//!   deliver strictly better paid-tier availability than baseline
//!   indiscriminate shedding — while the replay audit still reports
//!   zero unflagged corruption.
//! * When `QT_VALIDATE_ADAPT` names a `BENCH_adapt.json` (CI's
//!   adapt-smoke job runs `fleet_bench` first), its schema is
//!   validated; `QT_ADAPT_MODE` selects overload/gray/quiet
//!   expectations.

use qt_adapt::{AutoscaleConfig, BrownoutConfig, CodelConfig, GrayConfig};
use qt_fleet::{
    audit_unflagged_corruption, run_fleet, ArrivalShape, FleetConfig, FleetLoadSpec, FleetReport,
    FleetRequest, MemSnapStore, ReplicaSpec,
};
use qt_quant::ElemFormat;
use qt_robust::{BerFaultSource, CodeFormat, FaultSource, NoFaults};
use qt_telemetry::{TelemetryConfig, TelemetrySink};
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

fn pass_us() -> u64 {
    tiny_model().blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US
}

fn no_faults(n: usize) -> Vec<Box<dyn FaultSource + Send + Sync>> {
    (0..n)
        .map(|_| -> Box<dyn FaultSource + Send + Sync> { Box::new(NoFaults) })
        .collect()
}

/// Exact nearest-rank p99 over served-response latencies arriving at or
/// after `from_us` (sheds excluded: they carry no latency).
fn served_p99_from(report: &FleetReport, from_us: u64) -> u64 {
    let mut lat: Vec<u64> = report
        .responses
        .iter()
        .filter(|r| r.outcome.is_served() && r.finish_us - r.latency_us >= from_us)
        .map(|r| r.latency_us)
        .collect();
    assert!(
        lat.len() >= 32,
        "need a populated tail to compare p99s, got {} samples",
        lat.len()
    );
    lat.sort_unstable();
    lat[(lat.len() - 1) * 99 / 100]
}

/// The gray-chaos fleet: three equal posit8 replicas under HealthAware
/// routing (which estimates backlog from *nominal* speed — exactly the
/// gray blind spot). Replica 1 silently runs 4× slow from `4*pass` when
/// `slow` is set. Its long breaker cooldown makes post-ejection probe
/// traffic a sub-1% trickle, so the fleet p99 genuinely reflects the
/// healthy majority.
fn gray_config(slow: bool) -> FleetConfig {
    let pass = pass_us();
    let mut straggler = ReplicaSpec::new(ElemFormat::P8E1);
    straggler.breaker.cooldown_requests = 600;
    if slow {
        straggler = straggler.with_gray_slowdown(4 * pass, 4);
    }
    FleetConfig {
        replicas: vec![
            ReplicaSpec::new(ElemFormat::P8E1),
            straggler,
            ReplicaSpec::new(ElemFormat::P8E1),
        ],
        adapt_every_us: 16 * pass,
        gray: Some(GrayConfig {
            factor: 1.5,
            min_samples: 3,
            eject_consecutive: 2,
            rejoin_consecutive: 2,
        }),
        ..FleetConfig::default()
    }
}

fn gray_load(seed: u64) -> Vec<FleetRequest> {
    let pass = pass_us();
    FleetLoadSpec {
        rps: 1.2 * 1e6 / pass as f64,
        duration_us: 160 * pass,
        shape: ArrivalShape::Constant,
        deadline_us: 0,
        seed,
        ..FleetLoadSpec::default()
    }
    .requests(tiny_model().cfg.vocab)
}

fn gray_run(slow: bool) -> FleetReport {
    run_fleet(
        &tiny_model(),
        &gray_config(slow),
        &gray_load(23),
        no_faults(3),
        Box::new(MemSnapStore::new()),
        &mut TelemetrySink::new(TelemetryConfig::default(), 3),
    )
}

/// The headline gray-failure claim: the straggler is ejected within a
/// bounded number of detection windows of the slowdown's onset, and the
/// post-ejection fleet p99 lands within 20% of a no-fault baseline over
/// the same arrival stream.
#[test]
fn gray_straggler_is_ejected_and_fleet_p99_recovers() {
    let pass = pass_us();
    let baseline = gray_run(false);
    let chaos = gray_run(true);
    assert!(baseline.reconciles() && chaos.reconciles());
    assert_eq!(baseline.gray_ejections, 0, "no-fault run must not eject");
    assert!(chaos.gray_ejections >= 1, "the straggler must be caught");
    assert_eq!(
        chaos.replicas[1].stats.gray_ejections, chaos.gray_ejections,
        "only the slow replica is ever ejected"
    );

    // Ejected within K windows: onset at 4*pass, windows every 16*pass,
    // two consecutive outlier windows to trip — allow two more for the
    // diluted onset window and sampling jitter.
    let eject_at = chaos
        .adapt_events
        .iter()
        .find(|e| e.kind == "gray_eject")
        .expect("eject recorded in the audit trail")
        .at_us;
    assert!(
        eject_at <= 4 * pass + 4 * 16 * pass,
        "ejection took too long: {eject_at}us"
    );

    // Tail recovery: compare like-for-like windows (arrivals after the
    // ejection instant) so pre-ejection damage doesn't count.
    let chaos_p99 = served_p99_from(&chaos, eject_at);
    let base_p99 = served_p99_from(&baseline, eject_at);
    assert!(
        chaos_p99 * 5 <= base_p99 * 6,
        "post-ejection p99 {chaos_p99}us not within 20% of baseline {base_p99}us"
    );
}

/// Re-running the gray chaos must reproduce the identical ejection
/// instant — the detector is driven off the virtual clock, not wall
/// time.
#[test]
fn gray_ejection_is_deterministic_across_replays() {
    let a = gray_run(true);
    let b = gray_run(true);
    let instants = |r: &FleetReport| -> Vec<(u64, &str)> {
        r.adapt_events.iter().map(|e| (e.at_us, e.kind)).collect()
    };
    assert_eq!(instants(&a), instants(&b));
    assert_eq!(a.gray_ejections, b.gray_ejections);
}

/// The full adaptive surface — ladder walk, CoDel drops, gray
/// ejections, autoscale events — serializes byte-identically at any
/// kernel pool size. Overload plus a straggler plus a cold-boot
/// exercises every adaptive code path in one run.
#[test]
fn adaptive_surface_is_byte_identical_across_thread_pools() {
    let pass = pass_us();
    let run = |threads: usize| {
        qt_par::with_threads(threads, || {
            let mut straggler = ReplicaSpec::new(ElemFormat::P8E1).with_gray_slowdown(8 * pass, 4);
            straggler.breaker.cooldown_requests = 64;
            let cfg = FleetConfig {
                replicas: vec![
                    ReplicaSpec::new(ElemFormat::P8E1),
                    straggler,
                    ReplicaSpec::new(ElemFormat::P8E1),
                ],
                adapt_every_us: 8 * pass,
                codel: Some(CodelConfig {
                    target_us: 2 * pass,
                    interval_us: 4 * pass,
                }),
                brownout: Some(BrownoutConfig::default()),
                gray: Some(GrayConfig {
                    factor: 1.5,
                    min_samples: 3,
                    eject_consecutive: 2,
                    rejoin_consecutive: 2,
                }),
                autoscale: Some(AutoscaleConfig {
                    min_replicas: 2,
                    max_replicas: 3,
                    up_consecutive: 1,
                    cold_start_us: 4 * pass,
                    ..AutoscaleConfig::default()
                }),
                ..FleetConfig::default()
            };
            let reqs = FleetLoadSpec {
                rps: 3.0 * 1e6 / pass as f64,
                duration_us: 48 * pass,
                shape: ArrivalShape::Constant,
                deadline_us: 0,
                ..FleetLoadSpec::default()
            }
            .requests(tiny_model().cfg.vocab);
            let report = run_fleet(
                &tiny_model(),
                &cfg,
                &reqs,
                no_faults(3),
                Box::new(MemSnapStore::new()),
                &mut TelemetrySink::new(TelemetryConfig::default(), 3),
            );
            assert!(report.reconciles());
            serde_json::to_string(&report.to_json()).expect("serializable")
        })
    };
    let single = run(1);
    let quad = run(4);
    assert_eq!(
        single, quad,
        "adaptive surface must not depend on QT_THREADS"
    );
}

/// The overload acceptance claim: under sustained ~4× overload with a
/// BER fault environment, the brownout ladder buys the paid tier
/// strictly better availability than baseline indiscriminate shedding —
/// and the replay audit still certifies zero unflagged corruption.
#[test]
fn brownout_beats_baseline_shedding_for_paid_tier_under_overload() {
    let pass = pass_us();
    let model = tiny_model();
    let mk_cfg = |adaptive: bool| FleetConfig {
        replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
        adapt_every_us: if adaptive { 2 * pass } else { 0 },
        codel: adaptive.then(|| CodelConfig {
            target_us: 2 * pass,
            interval_us: 4 * pass,
        }),
        brownout: adaptive.then(BrownoutConfig::default),
        ..FleetConfig::default()
    };
    let faults = || -> Vec<Box<dyn FaultSource + Send + Sync>> {
        let codec = CodeFormat::new(ElemFormat::P8E1).expect("P8E1 has stored codes");
        vec![
            Box::new(BerFaultSource::new(0xfa17, codec, 2e-3)),
            Box::new(NoFaults),
        ]
    };
    let reqs = FleetLoadSpec {
        rps: 4.0 * 1e6 / pass as f64,
        duration_us: 40 * pass,
        shape: ArrivalShape::Constant,
        deadline_us: 0,
        ..FleetLoadSpec::default()
    }
    .requests(model.cfg.vocab);
    let paid_availability = |report: &FleetReport| -> f64 {
        let paid: Vec<_> = report.responses.iter().filter(|r| r.user % 4 < 2).collect();
        assert!(!paid.is_empty());
        paid.iter().filter(|r| r.outcome.is_served()).count() as f64 / paid.len() as f64
    };

    let mut availability = [0.0f64; 2];
    for (i, adaptive) in [false, true].into_iter().enumerate() {
        let cfg = mk_cfg(adaptive);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            faults(),
            Box::new(MemSnapStore::new()),
            &mut TelemetrySink::new(TelemetryConfig::default(), cfg.replicas.len()),
        );
        assert!(report.reconciles());
        assert_eq!(
            audit_unflagged_corruption(&model, &cfg, &reqs, faults(), &report),
            0,
            "adaptive={adaptive}: overload must never smuggle corruption out"
        );
        availability[i] = paid_availability(&report);
        if adaptive {
            assert!(report.brownout_sheds > 0, "the ladder engaged");
            assert_ne!(report.brownout_peak, "normal");
        }
    }
    assert!(
        availability[1] > availability[0],
        "brownout paid availability {} must beat baseline {}",
        availability[1],
        availability[0]
    );
}

/// Validate the `fleet_bench` adaptive scoreboard schema. Runs over the
/// file named by `QT_VALIDATE_ADAPT` (CI's adapt-smoke job runs the
/// binary first); skips silently when unset. `QT_ADAPT_MODE` adds the
/// scenario contract of `check_adapt_mode`.
#[test]
fn env_named_adapt_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_ADAPT") else {
        return;
    };
    let mode = std::env::var("QT_ADAPT_MODE").unwrap_or_default();
    let text = std::fs::read_to_string(&path).expect("BENCH_adapt.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCH_adapt.json parses");
    assert_eq!(v["schema"].as_str(), Some("qt-adapt/bench/v1"));
    assert_eq!(v["bench"].as_str(), Some("fleet_bench"));
    assert!(v["adapt_interval_ms"].as_u64().unwrap_or(0) >= 1);
    let policies = v["policies"].as_array().expect("per-policy sections");
    assert!(!policies.is_empty());
    let rungs = [
        "normal",
        "shed_batch",
        "degrade_e4m3",
        "degrade_bf16",
        "reject_best_effort",
    ];
    for p in policies {
        let name = p["policy"].as_str().expect("policy name");
        assert!(p["arrival_seed"].as_u64().is_some(), "{name}: arrival seed");
        let peak = p["brownout_peak"].as_str().expect("peak rung");
        assert!(rungs.contains(&peak), "{name}: unknown rung {peak:?}");
        for k in [
            "codel_drops",
            "brownout_sheds",
            "shed_overload",
            "economy_served",
            "gray_ejections",
            "scale_ups",
            "scale_downs",
        ] {
            assert!(p[k].as_u64().is_some(), "{name}: {k} is a counter");
        }
        for tier in ["paid", "best_effort", "batch"] {
            let t = &p["tiers"][tier];
            let offered = t["offered"].as_u64().expect("offered");
            let served = t["served"].as_u64().expect("served");
            assert!(
                served <= offered,
                "{name}/{tier}: served bounded by offered"
            );
            let a = t["availability"].as_f64().unwrap_or(-1.0);
            assert!(
                (0.0..=1.0).contains(&a),
                "{name}/{tier}: availability in [0,1]"
            );
        }
        // The audit trail: monotone one-rung-at-a-time ladder walk, and
        // every event timestamped on the virtual clock in order.
        let events = p["events"].as_array().expect("adapt audit trail");
        let mut sev = 0i64;
        let mut last_at = 0u64;
        for e in events {
            let at = e["at_us"].as_u64().expect("event time");
            assert!(at >= last_at, "{name}: events in virtual-time order");
            last_at = at;
            let kind = e["kind"].as_str().expect("event kind");
            if kind.starts_with("brownout") {
                let d = e["detail"].as_f64().expect("rung severity") as i64;
                assert_eq!((d - sev).abs(), 1, "{name}: one rung per transition");
                sev = d;
            }
        }
    }
    check_adapt_mode(&v, &mode);
}

/// The scenario contract `QT_ADAPT_MODE` names, checked on every policy
/// section of a `BENCH_adapt.json`: `overload` (ladder walked, reserve
/// booted), `gray` (the slow replica ejected) or `quiet` (plane armed
/// but idle). An empty mode checks the schema alone; any other mode is
/// a typo that would otherwise pass silently, so it panics.
fn check_adapt_mode(v: &serde_json::Value, mode: &str) {
    for p in v["policies"].as_array().expect("per-policy sections") {
        let name = p["policy"].as_str().unwrap_or("?");
        let peak = p["brownout_peak"].as_str().unwrap_or("?");
        let events = p["events"].as_array().expect("adapt audit trail");
        match mode {
            "overload" => {
                assert_ne!(peak, "normal", "{name}: overload must walk the ladder");
                assert!(
                    p["brownout_sheds"].as_u64().unwrap_or(0) > 0,
                    "{name}: overload must shed via the ladder"
                );
                assert!(
                    p["scale_ups"].as_u64().unwrap_or(0) >= 1,
                    "{name}: overload must boot the reserve"
                );
                assert!(
                    events
                        .iter()
                        .any(|e| e["kind"].as_str() == Some("scale_up_done")),
                    "{name}: the reserve boot must complete"
                );
                let paid = p["tiers"]["paid"]["availability"].as_f64().unwrap_or(0.0);
                let batch = p["tiers"]["batch"]["availability"].as_f64().unwrap_or(1.0);
                assert!(
                    paid > batch,
                    "{name}: the ladder must protect paid ({paid}) over batch ({batch})"
                );
            }
            "gray" => {
                assert!(
                    p["gray_ejections"].as_u64().unwrap_or(0) >= 1,
                    "{name}: the slow replica was never ejected"
                );
            }
            "quiet" => {
                assert_eq!(peak, "normal", "{name}: healthy run stays Normal");
                for k in [
                    "codel_drops",
                    "brownout_sheds",
                    "shed_overload",
                    "gray_ejections",
                    "scale_ups",
                    "scale_downs",
                ] {
                    assert_eq!(
                        p[k].as_u64(),
                        Some(0),
                        "{name}: healthy run must keep {k} at zero"
                    );
                }
                assert!(
                    events.is_empty(),
                    "{name}: no adapt events on a healthy run"
                );
            }
            "" => {}
            other => panic!("unknown QT_ADAPT_MODE {other:?}; accepted: overload, gray, quiet"),
        }
    }
}

#[test]
#[should_panic(expected = "unknown QT_ADAPT_MODE")]
fn adapt_validator_rejects_an_unknown_mode() {
    let v = serde_json::from_str(r#"{"policies": [{"policy": "health_aware", "events": []}]}"#);
    check_adapt_mode(&v.unwrap(), "grey");
}
