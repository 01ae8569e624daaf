//! **Fleet bench**: synthetic diurnal/bursty load against the qt-fleet
//! multi-replica serving fleet, comparing routing policies under
//! replica crashes, corruption, and tenant bursts.
//!
//! Drives the deterministic discrete-event fleet simulation — virtual
//! clock, heterogeneous replicas, real qt-par forward passes — so
//! `BENCH_fleet.json` is byte-identical for identical flags regardless
//! of host load or `QT_THREADS`. Each selected policy replays the same
//! request stream against a fresh fleet; the report captures shed rate,
//! deadline-miss rate, failover and hedge counts, latency percentiles,
//! and per-replica lifecycle stats. Every served-primary response is
//! then replay-audited against the fault environment — the
//! `unflagged_corrupt` count must always be zero.
//!
//! Extra flags beyond the shared harness (`--quick`, `--out`, `--seed`):
//!
//! * `--rps R` — mean offered load, requests/second of virtual time
//! * `--duration S` — virtual seconds of arrivals
//! * `--deadline-ms M` — per-request deadline budget (0 = none)
//! * `--shape constant|diurnal|bursty` — arrival-rate shape
//! * `--period-ms M` — shape period (one simulated "day" / burst cycle)
//! * `--users N` — simulated user population (default one million)
//! * `--tenants N`, `--quota Q` — tenancy shape (quota 0 = unlimited)
//! * `--replicas N`, `--formats a,b,..` — fleet shape (formats cycle)
//! * `--ber B` — bit-flip BER on replica 0's stored weight codes
//! * `--crash ID:AT_MS:DOWN_MS` — schedule an outage (repeatable)
//! * `--mtbf-ms M`, `--mttr-ms M` — seeded random outages, all replicas
//! * `--policy P` — one policy, or `all` (default) for the comparison
//! * `--no-hedge`, `--max-failovers N`, `--snapshot-ms M` — fleet knobs
//!
//! Telemetry plane (qt-telemetry) — always on; every run also writes
//! `BENCH_telemetry.json` (per-policy SLO scoreboard), per-policy
//! `telemetry_<policy>_{series,alerts}.jsonl`, and flight-recorder
//! dumps under `flight_<policy>/` on crash or breaker-open:
//!
//! * `--slo-availability A` — availability SLO target (default 0.999;
//!   0 disables)
//! * `--slo-p99-ms M` — p99 latency SLO bound in ms (default 0 = off)
//! * `--slo-window-scale F` — shrink the SRE burn-rate windows
//!   (5m/1h fast, 6h/3d slow) by F so they fit short simulated runs
//! * `--telemetry-interval-ms M` — time-series window width (default
//!   100 ms)
//! * `--flight-cap N` — flight-recorder ring capacity per replica
//!
//! Adaptive control plane (qt-adapt) — off unless requested:
//!
//! * `--adapt-interval-ms M` — control-tick width (defaults to 50 ms
//!   once any adapt flag is given); arming the plane also arms the
//!   gray-failure detector
//! * `--brownout` — CoDel admission control plus the priority-tiered
//!   brownout ladder
//! * `--autoscale MIN:MAX` — queue-driven autoscaling over the band
//! * `--gray-slow-factor ID:FROM_MS:FACTOR` — inject a gray failure:
//!   replica ID silently slows by FACTOR× from FROM_MS on (repeatable)
//!
//! With the plane armed the run also writes `BENCH_adapt.json`
//! (schema `qt-adapt/bench/v1`): ladder walk, shed/drop/ejection/scale
//! counters, and per-priority-tier availability for every policy.
//!
//! Arrival streams are decorrelated across policies: each policy run
//! draws its request stream from a splitmix64 seed derived from the
//! base seed and the policy name, so cross-policy comparisons are not
//! accidentally synchronized to one arrival pattern.
//!
//! With `--trace-out`/`--manifest-out`, artifacts are suffixed per
//! policy (`trace_health_aware.json`, ...). Each trace holds the run's
//! `fleet.sim` wall span and the telemetry span trees and alert
//! instants; the fleet's counters are in `BENCH_fleet.json` and the
//! telemetry files, not in the trace.
//!
//! An unknown flag exits with status 2. The CI scenario contracts
//! (failover and recovery, alerts, brownout, scale-up, gray ejection, a
//! quiet plane) are checked on the written JSON by the `env_named_*`
//! validators in `tests/tests/{fleet,telemetry,adapt}.rs`.
//!
//! Identical seed and flags ⇒ byte-identical `BENCH_fleet.json`,
//! `BENCH_telemetry.json`, and `BENCH_adapt.json`.

use qt_adapt::{AutoscaleConfig, BrownoutConfig, CodelConfig, GrayConfig, PriorityTier};
use qt_bench::{name_seed, parse_next, parse_next_with};
use qt_fleet::{
    audit_unflagged_corruption, run_fleet, ArrivalShape, DirSnapStore, FleetConfig, FleetLoadSpec,
    FleetReport, ReplicaSpec, RouterPolicy,
};
use qt_quant::ElemFormat;
use qt_robust::{BerFaultSource, CodeFormat, CrashSchedule, FaultSource, NoFaults};
use qt_transformer::{Model, TaskHead, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

/// Per-priority-tier offered/served/availability breakdown, keyed by
/// [`PriorityTier::name`].
fn tier_doc(report: &FleetReport) -> serde_json::Value {
    let tiers = [
        PriorityTier::Paid,
        PriorityTier::BestEffort,
        PriorityTier::Batch,
    ];
    let doc = tiers.map(|tier| {
        let mine = report
            .responses
            .iter()
            .filter(|r| PriorityTier::of_user(r.user) == tier);
        let offered = mine.clone().count() as u64;
        let served = mine.filter(|r| r.outcome.is_served()).count() as u64;
        let availability = if offered == 0 {
            1.0
        } else {
            served as f64 / offered as f64
        };
        let section = serde_json::json!({
            "offered": offered,
            "served": served,
            "availability": availability,
        });
        (tier.name().to_string(), section)
    });
    serde_json::Value::Object(doc.into_iter().collect())
}

fn main() {
    let opts = qt_bench::Opts::parse();
    let mut rps = 80.0f64;
    let mut duration_s = if opts.quick { 2.0 } else { 6.0 };
    let mut deadline_ms = 60u64;
    let mut shape = "diurnal".to_string();
    let mut period_ms = 500u64;
    let mut users = 1_000_000u64;
    let mut tenants = 4u32;
    let mut quota = 0u64;
    let mut seq = 8usize;
    let mut n_replicas = 3usize;
    let mut formats = vec![ElemFormat::P8E1, ElemFormat::E4M3, ElemFormat::Bf16];
    let mut ber = 0.0f64;
    let mut crashes: Vec<(usize, u64, u64)> = Vec::new();
    let mut mtbf_ms = 0u64;
    let mut mttr_ms = 0u64;
    let mut policy_arg = "all".to_string();
    let mut hedge = true;
    let mut max_failovers = 3u32;
    let mut snapshot_ms = 100u64;
    let mut slo_availability = 0.999f64;
    let mut slo_p99_ms = 0u64;
    let mut slo_window_scale = 1.0f64;
    let mut telemetry_interval_ms = 100u64;
    let mut flight_cap = 256usize;
    let mut adapt_interval_ms = 0u64;
    let mut brownout_flag = false;
    let mut autoscale: Option<(usize, usize)> = None;
    let mut gray_slow: Vec<(usize, u64, u64)> = Vec::new();

    let mut it = opts.extra.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rps" => parse_next(a, &mut it, &mut rps),
            "--duration" => parse_next(a, &mut it, &mut duration_s),
            "--deadline-ms" => parse_next(a, &mut it, &mut deadline_ms),
            "--shape" => parse_next(a, &mut it, &mut shape),
            "--period-ms" => parse_next(a, &mut it, &mut period_ms),
            "--users" => parse_next(a, &mut it, &mut users),
            "--tenants" => parse_next(a, &mut it, &mut tenants),
            "--quota" => parse_next(a, &mut it, &mut quota),
            "--seq" => parse_next(a, &mut it, &mut seq),
            "--replicas" => parse_next(a, &mut it, &mut n_replicas),
            "--formats" => {
                formats = parse_next_with(a, &mut it, |v| {
                    v.split(',').map(ElemFormat::parse).collect()
                })
            }
            "--ber" => parse_next(a, &mut it, &mut ber),
            "--crash" => crashes.push(parse_next_with(a, &mut it, |v| {
                let [id, at, down] = v.split(':').collect::<Vec<_>>()[..] else {
                    return None;
                };
                Some((id.parse().ok()?, at.parse().ok()?, down.parse().ok()?))
            })),
            "--mtbf-ms" => parse_next(a, &mut it, &mut mtbf_ms),
            "--mttr-ms" => parse_next(a, &mut it, &mut mttr_ms),
            "--policy" => parse_next(a, &mut it, &mut policy_arg),
            "--no-hedge" => hedge = false,
            "--max-failovers" => parse_next(a, &mut it, &mut max_failovers),
            "--snapshot-ms" => parse_next(a, &mut it, &mut snapshot_ms),
            "--slo-availability" => parse_next(a, &mut it, &mut slo_availability),
            "--slo-p99-ms" => parse_next(a, &mut it, &mut slo_p99_ms),
            "--slo-window-scale" => parse_next(a, &mut it, &mut slo_window_scale),
            "--telemetry-interval-ms" => parse_next(a, &mut it, &mut telemetry_interval_ms),
            "--flight-cap" => parse_next(a, &mut it, &mut flight_cap),
            "--adapt-interval-ms" => parse_next(a, &mut it, &mut adapt_interval_ms),
            "--brownout" => brownout_flag = true,
            "--autoscale" => {
                let (lo, hi): (usize, usize) = parse_next_with(a, &mut it, |v| {
                    let [lo, hi] = v.split(':').collect::<Vec<_>>()[..] else {
                        return None;
                    };
                    Some((lo.parse().ok()?, hi.parse().ok()?))
                });
                autoscale = Some((lo.max(1), hi.max(lo.max(1))));
            }
            "--gray-slow-factor" => gray_slow.push(parse_next_with(a, &mut it, |v| {
                let [id, from, factor] = v.split(':').collect::<Vec<_>>()[..] else {
                    return None;
                };
                Some((id.parse().ok()?, from.parse().ok()?, factor.parse().ok()?))
            })),
            other => {
                eprintln!("[fleet_bench] unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    // Any adapt flag arms the control plane (and with it the gray
    // detector); the tick interval defaults to 50 ms when unset.
    let adapt_on =
        brownout_flag || autoscale.is_some() || !gray_slow.is_empty() || adapt_interval_ms > 0;
    if adapt_on && adapt_interval_ms == 0 {
        adapt_interval_ms = 50;
    }

    let model_cfg = TransformerConfig::mobilebert_tiny_sim();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let model = Model::new(model_cfg, TaskHead::Classify(2), &mut rng);
    let vocab = model.cfg.vocab;
    let duration_us = (duration_s * 1e6) as u64;

    // Fleet shape: formats cycle across the replica count, each replica
    // gets its scheduled outages (explicit --crash windows first, then a
    // seeded MTBF/MTTR schedule if requested).
    let n_replicas = n_replicas.max(1);
    let mut specs = Vec::with_capacity(n_replicas);
    for r in 0..n_replicas {
        let mut spec = ReplicaSpec::new(formats[r % formats.len()]);
        let mut windows: Vec<_> = crashes
            .iter()
            .filter(|&&(id, _, _)| id == r)
            .map(|&(_, at, down)| (at * 1_000, down * 1_000))
            .collect();
        let sched = if mtbf_ms > 0 && mttr_ms > 0 {
            CrashSchedule::seeded(
                opts.seed ^ (0xc4a5 + r as u64),
                duration_us,
                mtbf_ms * 1_000,
                mttr_ms * 1_000,
            )
        } else if let Some((at, down)) = (windows.len() == 1).then(|| windows.remove(0)) {
            CrashSchedule::single(at, down)
        } else {
            CrashSchedule::from_windows(
                windows
                    .into_iter()
                    .map(|(at, down)| qt_robust::CrashWindow {
                        down_at_us: at,
                        up_at_us: at + down,
                    })
                    .collect(),
            )
        };
        spec = spec.with_crashes(sched);
        for &(id, from_ms, factor) in &gray_slow {
            if id == r {
                spec = spec.with_gray_slowdown(from_ms * 1_000, factor);
            }
        }
        specs.push(spec);
    }
    let autoscale = autoscale.map(|(lo, hi)| (lo.min(n_replicas), hi.min(n_replicas)));

    // Fault environment: the BER hits replica 0's stored codes (the
    // fast posit8 node lives in the fault environment; wide-format
    // replicas are immune by construction). Rebuilt fresh per policy
    // run so every policy sees identical fault draws.
    let faults_for = |specs: &[ReplicaSpec]| -> Vec<Box<dyn FaultSource + Send + Sync>> {
        specs
            .iter()
            .enumerate()
            .map(|(r, spec)| -> Box<dyn FaultSource + Send + Sync> {
                match (r == 0 && ber > 0.0, CodeFormat::new(spec.format)) {
                    (true, Some(codec)) => {
                        Box::new(BerFaultSource::new(opts.seed ^ 0xfa17, codec, ber))
                    }
                    _ => Box::new(NoFaults),
                }
            })
            .collect()
    };

    let arrival_shape = match shape.as_str() {
        "constant" => ArrivalShape::Constant,
        "bursty" => ArrivalShape::Bursty {
            burst_len_us: (period_ms * 1_000) / 5,
            burst_mult: 4.0,
        },
        _ => ArrivalShape::Diurnal { trough_ratio: 0.3 },
    };
    // Requests are generated per policy with a policy-derived seed so
    // the streams are decorrelated; count and arrival times depend only
    // on (rps, shape, duration), so the offered load stays comparable.
    let load_spec = |arrival_seed: u64| FleetLoadSpec {
        rps,
        duration_us,
        shape: arrival_shape,
        period_us: period_ms.max(1) * 1_000,
        users,
        tenants,
        deadline_us: deadline_ms.saturating_mul(1_000),
        seq,
        seed: arrival_seed,
    };
    eprintln!(
        "[fleet_bench] {rps} rps ({shape}) over {duration_s}s across {} users, \
         {n_replicas} replicas, deadline {deadline_ms} ms, ber {ber:e}, {} scheduled outages",
        users,
        crashes.len()
    );

    let policies: Vec<RouterPolicy> = if policy_arg == "all" {
        vec![
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::HealthAware,
        ]
    } else {
        vec![RouterPolicy::parse(&policy_arg).unwrap_or_else(|| {
            eprintln!("unknown policy {policy_arg:?}; using health_aware");
            RouterPolicy::HealthAware
        })]
    };

    // SLO set shared by every policy run: availability, optionally a
    // p99 latency bound, with burn-rate windows scaled down to fit the
    // short simulated horizon.
    let mut slos = Vec::new();
    if slo_availability > 0.0 {
        slos.push(
            qt_telemetry::SloSpec::availability(slo_availability)
                .with_window_scale(slo_window_scale),
        );
    }
    if slo_p99_ms > 0 {
        slos.push(
            qt_telemetry::SloSpec::latency_p99(0.99, slo_p99_ms * 1_000)
                .with_window_scale(slo_window_scale),
        );
    }

    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let mut policy_docs: Vec<serde_json::Value> = Vec::new();
    let mut telemetry_docs: Vec<serde_json::Value> = Vec::new();
    let mut total_alert_fires = 0u64;
    let mut reports: Vec<(RouterPolicy, FleetReport)> = Vec::new();
    let mut adapt_docs: Vec<serde_json::Value> = Vec::new();
    for policy in policies {
        let arrival_seed = name_seed(opts.seed, policy.name());
        let requests = load_spec(arrival_seed).requests(vocab);
        eprintln!(
            "[fleet_bench] {}: {} requests (arrival seed {arrival_seed:#018x})",
            policy.name(),
            requests.len()
        );
        let cfg = FleetConfig {
            replicas: specs.clone(),
            policy,
            tenants,
            tenant_quota: quota,
            max_failovers,
            hedge,
            snapshot_every_us: snapshot_ms * 1_000,
            retry_seed: opts.seed,
            adapt_every_us: adapt_interval_ms * 1_000,
            codel: brownout_flag.then(CodelConfig::default),
            brownout: brownout_flag.then(BrownoutConfig::default),
            gray: adapt_on.then(GrayConfig::default),
            autoscale: autoscale.map(|(lo, hi)| AutoscaleConfig {
                min_replicas: lo,
                max_replicas: hi,
                ..AutoscaleConfig::default()
            }),
            shield: None,
        };
        let snap_dir = opts.out_dir.join(format!("fleet_snaps_{}", policy.name()));
        // Start from an empty store: a replica that boots or recovers must
        // not resume from snapshots a previous run left in a reused --out.
        if let Err(e) = std::fs::remove_dir_all(&snap_dir) {
            let gone = e.kind() == std::io::ErrorKind::NotFound;
            assert!(gone, "clear {}: {e}", snap_dir.display());
        }
        let popts = opts.scoped(policy.name());
        let trace = popts.open_trace(&format!("fleet_bench_{}", policy.name()));
        let tel_cfg = qt_telemetry::TelemetryConfig {
            interval_us: telemetry_interval_ms.max(1) * 1_000,
            slos: slos.clone(),
            flight_capacity: flight_cap,
            flight_dir: Some(opts.out_dir.join(format!("flight_{}", policy.name()))),
            seed: opts.seed,
            ..qt_telemetry::TelemetryConfig::default()
        };
        let mut sink = qt_telemetry::TelemetrySink::new(tel_cfg, cfg.replicas.len());
        let span = trace
            .as_ref()
            .map(|t| t.borrow_mut().begin("fleet.sim", "fleet"));
        let (report, tasks) = qt_par::count_tasks(|| {
            run_fleet(
                &model,
                &cfg,
                &requests,
                faults_for(&specs),
                Box::new(DirSnapStore::new(&snap_dir)),
                &mut sink,
            )
        });
        if let (Some(t), Some(span)) = (trace.as_ref(), span) {
            let mut session = t.borrow_mut();
            session.end(span);
            qt_telemetry::export_to_trace(&sink, &mut session);
        }
        popts.close_trace(trace, tasks);
        assert!(
            report.reconciles(),
            "{}: outcome counters must reconcile to offered load",
            policy.name()
        );
        let unflagged =
            audit_unflagged_corruption(&model, &cfg, &requests, faults_for(&specs), &report);
        let mut doc = report.to_json();
        if let serde_json::Value::Object(map) = &mut doc {
            map.insert("unflagged_corrupt".into(), serde_json::json!(unflagged));
            map.insert("arrival_seed".into(), serde_json::json!(arrival_seed));
        }
        if adapt_on {
            adapt_docs.push(serde_json::json!({
                "policy": policy.name(),
                "arrival_seed": arrival_seed,
                "brownout_peak": report.brownout_peak.clone(),
                "codel_drops": report.codel_drops,
                "brownout_sheds": report.brownout_sheds,
                "shed_overload": report.shed_overload,
                "economy_served": report.economy_served,
                "gray_ejections": report.gray_ejections,
                "scale_ups": report.scale_ups,
                "scale_downs": report.scale_downs,
                "tiers": tier_doc(&report),
                "events": report
                    .adapt_events
                    .iter()
                    .map(|e| e.to_json())
                    .collect::<Vec<_>>(),
            }));
        }

        // Telemetry artifacts: per-policy scoreboard section plus the
        // raw series/alert streams as JSONL (all atomic writes).
        let fires = sink.slo().fires();
        total_alert_fires += fires as u64;
        let series_path = opts
            .out_dir
            .join(format!("telemetry_{}_series.jsonl", policy.name()));
        qt_ckpt::atomic_write_str(&series_path, &qt_telemetry::timeseries_jsonl(&sink))
            .unwrap_or_else(|e| eprintln!("telemetry series {}: {e}", series_path.display()));
        let alerts_path = opts
            .out_dir
            .join(format!("telemetry_{}_alerts.jsonl", policy.name()));
        qt_ckpt::atomic_write_str(&alerts_path, &qt_telemetry::alerts_jsonl(&sink))
            .unwrap_or_else(|e| eprintln!("telemetry alerts {}: {e}", alerts_path.display()));
        let mut tdoc = qt_telemetry::telemetry_report(&sink);
        if let serde_json::Value::Object(map) = &mut tdoc {
            map.insert("policy".into(), serde_json::json!(policy.name()));
        }
        telemetry_docs.push(tdoc);
        eprintln!(
            "[fleet_bench] {}: goodput {:.3}, shed {:.3}, miss {:.3}, failovers {} \
             (crash {}), hedges {}, unflagged corrupt {}, alert fires {}, flight dumps {}",
            policy.name(),
            report.goodput(),
            report.shed_rate(),
            report.miss_rate(),
            report.failovers,
            report.crash_failovers,
            report.hedges,
            unflagged,
            fires,
            sink.dumps().len()
        );
        policy_docs.push(doc);
        reports.push((policy, report));
    }

    let doc = serde_json::json!({
        "schema": "qt-fleet/bench/v1",
        "bench": "fleet_bench",
        "seed": opts.seed,
        "rps": rps,
        "duration_s": duration_s,
        "deadline_ms": deadline_ms,
        "shape": shape,
        "users": users,
        "tenants": tenants,
        "quota": quota,
        "ber": ber,
        "replicas": specs.iter().map(|s| s.format.name()).collect::<Vec<_>>(),
        "crashes": crashes
            .iter()
            .map(|&(id, at, down)| serde_json::json!({
                "replica": id, "at_ms": at, "down_ms": down,
            }))
            .collect::<Vec<_>>(),
        "hedge": hedge,
        "policies": policy_docs,
    });
    let path = opts.out_dir.join("BENCH_fleet.json");
    let mut text = serde_json::to_string_pretty(&doc).expect("serializable");
    text.push('\n');
    // Atomic write (qt-ckpt): a crash here never leaves a torn report.
    qt_ckpt::atomic_write_str(&path, &text).expect("write BENCH_fleet.json");
    eprintln!("[fleet_bench] wrote {}", path.display());

    // Telemetry scoreboard: the per-policy SLO/alert/trace/flight
    // summary, same determinism contract as BENCH_fleet.json.
    let tel_doc = serde_json::json!({
        "schema": "qt-telemetry/bench/v1",
        "bench": "fleet_bench",
        "seed": opts.seed,
        "slo_availability": slo_availability,
        "slo_p99_ms": slo_p99_ms,
        "slo_window_scale": slo_window_scale,
        "interval_ms": telemetry_interval_ms,
        "alert_fires": total_alert_fires,
        "policies": telemetry_docs,
    });
    let tel_path = opts.out_dir.join("BENCH_telemetry.json");
    let mut tel_text = serde_json::to_string_pretty(&tel_doc).expect("serializable");
    tel_text.push('\n');
    qt_ckpt::atomic_write_str(&tel_path, &tel_text).expect("write BENCH_telemetry.json");
    eprintln!("[fleet_bench] wrote {}", tel_path.display());

    // Adaptive-plane scoreboard — only when the plane is armed.
    if adapt_on {
        let adapt_doc = serde_json::json!({
            "schema": "qt-adapt/bench/v1",
            "bench": "fleet_bench",
            "seed": opts.seed,
            "adapt_interval_ms": adapt_interval_ms,
            "brownout": brownout_flag,
            "autoscale": autoscale
                .map_or(serde_json::Value::Null, |(lo, hi)| serde_json::json!([lo, hi])),
            "gray_slowdowns": gray_slow
                .iter()
                .map(|&(id, from_ms, factor)| serde_json::json!({
                    "replica": id, "from_ms": from_ms, "factor": factor,
                }))
                .collect::<Vec<_>>(),
            "policies": adapt_docs,
        });
        let adapt_path = opts.out_dir.join("BENCH_adapt.json");
        let mut adapt_text = serde_json::to_string_pretty(&adapt_doc).expect("serializable");
        adapt_text.push('\n');
        qt_ckpt::atomic_write_str(&adapt_path, &adapt_text).expect("write BENCH_adapt.json");
        eprintln!("[fleet_bench] wrote {}", adapt_path.display());
    }

    // Quick textual comparison table for humans.
    let offered = reports.first().map_or(0, |(_, r)| r.responses.len());
    println!(
        "fleet_bench (seed {}, {offered} requests/policy)",
        opts.seed
    );
    println!(
        "  {:<14} {:>8} {:>8} {:>8} {:>10} {:>8} {:>10} {:>10}",
        "policy", "goodput", "shed", "miss", "failovers", "hedges", "p50 ms", "p99 ms"
    );
    for (policy, report) in &reports {
        println!(
            "  {:<14} {:>8.3} {:>8.3} {:>8.3} {:>10} {:>8} {:>10.2} {:>10.2}",
            policy.name(),
            report.goodput(),
            report.shed_rate(),
            report.miss_rate(),
            report.failovers + report.requeued_on_crash,
            report.hedges,
            report.latency_quantile_us(0.5).unwrap_or(0.0) / 1_000.0,
            report.latency_quantile_us(0.99).unwrap_or(0.0) / 1_000.0,
        );
    }
}
