//! Chaos-style integration tests for the qt-fleet multi-replica fleet.
//!
//! * The fleet simulation — routing, failover, hedging, crashes,
//!   snapshots — must produce **byte-identical** reports at any kernel
//!   pool size (`QT_THREADS` equivalents 1 and 4).
//! * Routing safety properties hold for arbitrary seeds, policies, and
//!   load levels (property-based over the dispatch audit trail): no
//!   request is ever dispatched to a replica whose breaker is Open, and
//!   a failover never re-selects a replica that already failed that
//!   request.
//! * A mid-run crash of one replica in a fleet under corruption must
//!   fail work over, recover the crashed node through its snapshot, and
//!   put it back in rotation — with zero unflagged corrupt responses,
//!   verified by deterministic replay.
//! * When `QT_VALIDATE_FLEET` names a `BENCH_fleet.json` (CI's
//!   fleet-smoke job and telemetry-smoke's outage leg run the binary
//!   first), its schema and the crash contract are validated.

use proptest::prelude::*;
use qt_fleet::{
    audit_unflagged_corruption, run_fleet, ArrivalShape, DispatchCause, FleetConfig, FleetLoadSpec,
    FleetReport, MemSnapStore, ReplicaSpec, ReplicaView, Router, RouterPolicy,
};
use qt_quant::ElemFormat;
use qt_robust::{BerFaultSource, CodeFormat, CrashSchedule, FaultSource, NoFaults};
use qt_serve::BreakerState;
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

/// A 3-replica heterogeneous fleet: a posit8 node in a fault
/// environment, a clean E4M3 node with a mid-run outage, and a slow but
/// immune BF16 node.
fn chaos_config(policy: RouterPolicy) -> FleetConfig {
    let pass = 6 * ReplicaSpec::BASE_BLOCK_US;
    FleetConfig {
        replicas: vec![
            ReplicaSpec::new(ElemFormat::P8E1),
            ReplicaSpec::new(ElemFormat::E4M3)
                .with_crashes(CrashSchedule::single(8 * pass, 10 * pass)),
            ReplicaSpec::new(ElemFormat::Bf16),
        ],
        policy,
        snapshot_every_us: 2 * pass,
        ..FleetConfig::default()
    }
}

fn chaos_faults(ber: f64) -> Vec<Box<dyn FaultSource + Send + Sync>> {
    let codec = CodeFormat::new(ElemFormat::P8E1).expect("P8E1 has stored codes");
    vec![
        Box::new(BerFaultSource::new(0xfa17, codec, ber)),
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

fn chaos_run(policy: RouterPolicy, seed: u64, rps_passes: f64, passes: u64) -> FleetReport {
    run_fleet(
        &tiny_model(),
        &chaos_config(policy),
        &chaos_load(seed, rps_passes, passes),
        chaos_faults(2e-3),
        Box::new(MemSnapStore::new()),
        &mut TelemetrySink::new(TelemetryConfig::default(), 3),
    )
}

/// The tentpole determinism claim: a full fleet run — heterogeneous
/// replicas, corruption, a crash, snapshots, failover — serializes to
/// the same bytes whether the kernels underneath run on 1 thread or 4.
#[test]
fn fleet_report_is_byte_identical_across_thread_pools() {
    let run = |threads: usize| {
        qt_par::with_threads(threads, || {
            let report = chaos_run(RouterPolicy::HealthAware, 77, 1.5, 24);
            serde_json::to_string(&report.to_json()).expect("serializable")
        })
    };
    let single = run(1);
    let quad = run(4);
    assert_eq!(single, quad, "fleet report must not depend on QT_THREADS");
}

/// Crash-recovery round trip under corruption: the E4M3 replica dies
/// mid-run and must (a) hand its in-flight/queued work to healthy
/// peers, (b) come back through its health snapshot, (c) re-earn
/// traffic, and (d) never let a corrupt response out unflagged.
#[test]
fn crash_under_corruption_fails_over_recovers_and_replays_clean() {
    let cfg = chaos_config(RouterPolicy::HealthAware);
    let requests = chaos_load(13, 2.0, 30);
    let report = run_fleet(
        &tiny_model(),
        &cfg,
        &requests,
        chaos_faults(2e-3),
        Box::new(MemSnapStore::new()),
        &mut TelemetrySink::new(TelemetryConfig::default(), cfg.replicas.len()),
    );
    assert!(report.reconciles(), "counters reconcile to offered load");
    assert!(
        report.failovers + report.requeued_on_crash > 0,
        "corruption or the crash must move work between replicas"
    );
    let crashed = &report.replicas[1];
    assert_eq!(crashed.stats.crashes, 1, "the outage fired");
    assert_eq!(crashed.stats.recoveries, 1, "the replica rebooted");
    assert!(
        crashed.stats.snapshot_resumes == 1 || crashed.stats.snapshot_corrupt > 0,
        "recovery consulted the snapshot store"
    );
    assert!(
        crashed.stats.served_after_recovery > 0,
        "the recovered replica re-earned traffic: {:?}",
        crashed.stats
    );
    assert_eq!(
        audit_unflagged_corruption(&tiny_model(), &cfg, &requests, chaos_faults(2e-3), &report),
        0,
        "every served-primary response must replay healthy"
    );
}

/// Memoized chaos runs for the routing property: cases draw from a
/// small discrete space of (seed, policy, load) so the expensive fleet
/// simulations execute once each while the invariants are re-checked
/// for every generated case over the *complete* dispatch history.
fn cached_chaos_run(policy_idx: usize, seed: u64, overload: bool) -> std::sync::Arc<FleetReport> {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex, OnceLock};
    type Cache = BTreeMap<(usize, u64, bool), Arc<FleetReport>>;
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    let policy = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::HealthAware,
    ][policy_idx];
    let rps_passes = if overload { 2.0 } else { 0.8 };
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap();
    cache
        .entry((policy_idx, seed, overload))
        .or_insert_with(|| Arc::new(chaos_run(policy, seed, rps_passes, 16)))
        .clone()
}

// Routing safety, property-based over the dispatch audit trail. Every
// routing decision the fleet ever made is in `report.dispatches`, so
// the invariants are checked against the complete history, not a
// sample: (a) no dispatch ever targets a replica whose breaker was
// Open at decision time, and (b) a failover/requeue/hedge never lands
// on a replica that already failed that request.
proptest! {
    #[test]
    fn routing_never_targets_open_breakers_or_failed_replicas(
        seed in 0u64..2,
        policy_idx in 0usize..3,
        overload_bit in 0u8..2,
    ) {
        let report = cached_chaos_run(policy_idx, seed, overload_bit == 1);
        prop_assert!(report.reconciles());
        for d in &report.dispatches {
            prop_assert_ne!(
                d.breaker,
                BreakerState::Open,
                "request {} dispatched to replica {} with an Open breaker at {}us ({:?})",
                d.req_id, d.replica, d.at_us, d.cause
            );
            prop_assert!(
                !d.excluded.contains(&d.replica),
                "request {} re-routed ({:?}) back onto failed replica {} at {}us",
                d.req_id, d.cause, d.replica, d.at_us
            );
            if d.cause.is_failover() || d.cause == DispatchCause::Requeue {
                prop_assert!(
                    !d.excluded.is_empty(),
                    "failover dispatch must record what it is failing away from"
                );
            }
        }
    }
}

// The half-open probe budget, property-based against the router
// itself: a recovering (HalfOpen) replica receives at most one pick
// per PROBE_EVERY consecutive HealthAware decisions as long as any
// Closed replica stays eligible — arbitrary queue depths (peak-arrival
// churn) must not let probe traffic exceed the quota.
proptest! {
    #[test]
    fn rejoining_replica_never_exceeds_probe_budget(
        seed in 0u64..1_000,
        n_closed in 1usize..4,
        rounds in 16usize..160,
    ) {
        let mut router = Router::new(RouterPolicy::HealthAware);
        let half_open_id = n_closed;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut probed = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut views = Vec::with_capacity(n_closed + 1);
            for id in 0..n_closed {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                views.push(ReplicaView {
                    id,
                    up: true,
                    breaker: BreakerState::Closed,
                    queued: (state >> 33) as usize % 4, // < cap: always room
                    in_service: (state >> 37) as usize % 2,
                    queue_cap: 8,
                    full_pass_us: 6_000,
                });
            }
            views.push(ReplicaView {
                id: half_open_id,
                up: true,
                breaker: BreakerState::HalfOpen,
                queued: 0,
                in_service: 0,
                queue_cap: 8,
                full_pass_us: 6_000,
            });
            probed.push(router.pick(&views, &[]) == Some(half_open_id));
        }
        let k = Router::PROBE_EVERY as usize;
        for (i, w) in probed.windows(k).enumerate() {
            let probes = w.iter().filter(|&&p| p).count();
            prop_assert!(
                probes <= 1,
                "{probes} probes in decisions [{i}, {}) — budget is 1 per {k}",
                i + k
            );
        }
        let total = probed.iter().filter(|&&p| p).count();
        prop_assert!(total <= rounds / k + 1, "total probes {total} over {rounds} decisions");
    }
}

/// Memoized gray-failure chaos runs: replica 1 silently slows 3× under
/// a spread-the-load policy, with the adaptive plane's detector armed.
fn cached_gray_run(seed: u64) -> std::sync::Arc<FleetReport> {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<BTreeMap<u64, Arc<FleetReport>>>> = OnceLock::new();
    let pass = 6 * ReplicaSpec::BASE_BLOCK_US;
    let cfg = FleetConfig {
        replicas: vec![
            ReplicaSpec::new(ElemFormat::P8E1),
            ReplicaSpec::new(ElemFormat::P8E1).with_gray_slowdown(4 * pass, 3),
            ReplicaSpec::new(ElemFormat::P8E1),
        ],
        policy: RouterPolicy::RoundRobin,
        adapt_every_us: 16 * pass,
        gray: Some(qt_adapt::GrayConfig {
            factor: 1.5,
            min_samples: 3,
            eject_consecutive: 2,
            rejoin_consecutive: 2,
        }),
        ..FleetConfig::default()
    };
    let load = FleetLoadSpec {
        rps: 2.0 * 1e6 / pass as f64,
        duration_us: 80 * pass,
        shape: ArrivalShape::Constant,
        deadline_us: 0,
        seed,
        ..FleetLoadSpec::default()
    }
    .requests(tiny_model().cfg.vocab);
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap();
    cache
        .entry(seed)
        .or_insert_with(|| {
            Arc::new(run_fleet(
                &tiny_model(),
                &cfg,
                &load,
                vec![Box::new(NoFaults), Box::new(NoFaults), Box::new(NoFaults)],
                Box::new(MemSnapStore::new()),
                &mut TelemetrySink::new(TelemetryConfig::default(), cfg.replicas.len()),
            ))
        })
        .clone()
}

// A gray-ejected replica is out of rotation for the duration of its
// ejection: between its `gray_eject` and the matching `gray_rejoin`
// (or end of run), the only dispatches it may receive are HalfOpen
// probes — routine Closed-breaker traffic never lands there, for
// every arrival seed.
proptest! {
    #[test]
    fn ejected_gray_replica_gets_probes_only(seed in 0u64..2) {
        let report = cached_gray_run(seed);
        prop_assert!(report.reconciles());
        prop_assert!(
            report.gray_ejections >= 1,
            "the 3x-slow replica must be caught: {:?}",
            report.adapt_events
        );
        // Pair each ejection with its rejoin (or end of run) per replica.
        for (i, e) in report.adapt_events.iter().enumerate() {
            if e.kind != "gray_eject" {
                continue;
            }
            let r = e.replica.expect("gray events carry a replica");
            let until = report.adapt_events[i + 1..]
                .iter()
                .find(|x| x.kind == "gray_rejoin" && x.replica == Some(r))
                .map(|x| x.at_us)
                .unwrap_or(u64::MAX);
            for d in report.dispatches.iter() {
                if d.replica == r && d.at_us > e.at_us && d.at_us < until {
                    prop_assert_eq!(
                        d.breaker,
                        BreakerState::HalfOpen,
                        "request {} landed on ejected replica {} at {}us outside the probe path",
                        d.req_id,
                        r,
                        d.at_us
                    );
                }
            }
        }
    }
}

/// Validate the `fleet_bench` output schema. Runs over the file named
/// by `QT_VALIDATE_FLEET` (CI's fleet-smoke job and telemetry-smoke's
/// outage leg run the binary first); skips silently when the variable
/// is unset.
#[test]
fn env_named_fleet_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_FLEET") else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("BENCH_fleet.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCH_fleet.json parses");
    assert_eq!(v["schema"].as_str(), Some("qt-fleet/bench/v1"));
    assert_eq!(v["bench"].as_str(), Some("fleet_bench"));
    let policies = v["policies"].as_array().expect("per-policy reports");
    assert!(!policies.is_empty(), "at least one policy report");
    let crashed: Vec<u64> = v["crashes"]
        .as_array()
        .map(|a| a.iter().filter_map(|c| c["replica"].as_u64()).collect())
        .unwrap_or_default();
    for p in policies {
        let name = p["policy"].as_str().expect("policy name");
        assert_eq!(p["schema"].as_str(), Some("qt-fleet/report/v1"));
        assert_eq!(p["reconciles"].as_bool(), Some(true), "{name} reconciles");
        assert_eq!(
            p["unflagged_corrupt"].as_u64(),
            Some(0),
            "{name}: zero unflagged corrupt responses"
        );
        let offered = p["offered"].as_u64().expect("offered");
        assert!(offered >= 1, "{name}: bench must offer load");
        let accounted = [
            "served_primary",
            "served_degraded",
            "shed_queue_full",
            "shed_quota",
            "shed_no_replica",
            "shed_overload",
            "deadline_miss",
        ]
        .iter()
        .map(|k| p[*k].as_u64().expect(k))
        .sum::<u64>();
        assert_eq!(offered, accounted, "{name}: counters reconcile");
        for k in ["goodput", "shed_rate", "miss_rate"] {
            let x = p[k].as_f64().unwrap_or(-1.0);
            assert!((0.0..=1.0).contains(&x), "{name}: {k} in [0,1], got {x}");
        }
        for k in ["latency_p50_us", "latency_p99_us", "queue_wait_p99_us"] {
            assert!(
                p[k].as_f64().unwrap_or(-1.0) >= 0.0,
                "{name}: {k} nonnegative"
            );
        }
        let replicas = p["replicas"].as_array().expect("per-replica stats");
        assert!(!replicas.is_empty());
        // The smoke contract: with a scheduled mid-run crash, work must
        // move between replicas and every crashed replica must be back
        // in rotation by the end of the run.
        if !crashed.is_empty() {
            let moved =
                p["failovers"].as_u64().unwrap_or(0) + p["requeued_on_crash"].as_u64().unwrap_or(0);
            assert!(moved > 0, "{name}: crash run must fail work over");
            for &r in &crashed {
                let rep = &replicas[r as usize];
                assert!(
                    rep["recoveries"].as_u64().unwrap_or(0) > 0,
                    "{name}: replica {r} recovered"
                );
                assert!(
                    rep["served_after_recovery"].as_u64().unwrap_or(0) > 0,
                    "{name}: replica {r} back in rotation"
                );
            }
        }
    }
}
