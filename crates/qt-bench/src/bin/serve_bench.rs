//! **Serving bench**: open-loop load against the qt-serve resilient
//! runtime, with optional SRAM bit-flip injection on the quantized
//! weight path.
//!
//! Drives the deterministic discrete-event simulation — virtual clock,
//! simulated workers, real qt-par forward passes — so the resulting
//! `BENCH_serve.json` is bit-identical for identical flags regardless of
//! host load or `QT_THREADS`. Reported: goodput, shed rate,
//! deadline-miss rate, degraded-mode fraction, latency percentiles,
//! breaker trips and transitions, and the reconciliation invariant
//! (offered = served + shed + missed).
//!
//! Extra flags beyond the shared harness (`--quick`, `--out`, `--seed`):
//!
//! * `--rps R` — offered load, requests/second of virtual time
//! * `--duration S` — virtual seconds of arrivals
//! * `--deadline-ms M` — per-request deadline budget (0 = none)
//! * `--ber B` — per-bit flip probability on stored 8-bit weight codes
//! * `--burst LO:HI:B` — escalate to BER `B` for request ids `LO..HI`
//!   (a scripted fault burst that exercises the breaker round trip)
//! * `--workers N`, `--queue-cap N`, `--seq N` — runtime shape
//! * `--snapshot PATH` — also write a crash-safe health snapshot
//!
//! Identical seed and flags ⇒ byte-identical `BENCH_serve.json`.

use qt_bench::{parse_next, parse_next_with, Opts};
use qt_robust::{BerFaultSource, BurstFaultSource, CodeFormat, FaultSource, NoFaults};
use qt_serve::{run_sim, BreakerState, Engine, HealthSnapshot, LoadSpec, ServeConfig};
use qt_transformer::{Model, TaskHead, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let opts = Opts::parse();
    let mut rps = 50.0f64;
    let mut duration_s = if opts.quick { 2.0 } else { 10.0 };
    let mut deadline_ms = 40u64;
    let mut ber = 0.0f64;
    let mut burst: Option<(u64, u64, f64)> = None;
    let mut cfg = ServeConfig::default();
    let mut seq = 16usize;
    let mut snapshot_path: Option<std::path::PathBuf> = None;

    let mut it = opts.extra.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rps" => parse_next(a, &mut it, &mut rps),
            "--duration" => parse_next(a, &mut it, &mut duration_s),
            "--deadline-ms" => parse_next(a, &mut it, &mut deadline_ms),
            "--ber" => parse_next(a, &mut it, &mut ber),
            "--burst" => {
                burst = Some(parse_next_with(a, &mut it, |v| {
                    let [lo, hi, b] = v.split(':').collect::<Vec<_>>()[..] else {
                        return None;
                    };
                    Some((lo.parse().ok()?, hi.parse().ok()?, b.parse().ok()?))
                }))
            }
            "--workers" => parse_next(a, &mut it, &mut cfg.workers),
            "--queue-cap" => parse_next(a, &mut it, &mut cfg.queue_cap),
            "--seq" => parse_next(a, &mut it, &mut seq),
            "--snapshot" => snapshot_path = it.next().map(Into::into),
            other => {
                eprintln!("[serve_bench] unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let model_cfg = TransformerConfig::mobilebert_tiny_sim();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let model = Model::new(model_cfg, TaskHead::Classify(2), &mut rng);
    let vocab = model.cfg.vocab;

    let codec = CodeFormat::new(cfg.primary).expect("primary format has stored codes");
    let fault: Box<dyn FaultSource + Send + Sync> = match (ber > 0.0, burst) {
        (_, Some((lo, hi, b))) => Box::new(BurstFaultSource::new(
            BerFaultSource::new(opts.seed ^ 0xfa17, codec, ber),
            b,
            lo..hi,
        )),
        (true, None) => Box::new(BerFaultSource::new(opts.seed ^ 0xfa17, codec, ber)),
        (false, None) => Box::new(NoFaults),
    };

    let engine = Engine::new(model, &cfg, fault);
    let spec = LoadSpec {
        rps,
        duration_us: (duration_s * 1e6) as u64,
        deadline_us: deadline_ms.saturating_mul(1_000),
        seq,
        seed: opts.seed,
    };
    let requests = spec.requests(vocab);
    eprintln!(
        "[serve_bench] {} requests at {rps} rps over {duration_s}s (deadline {deadline_ms} ms, \
         ber {ber:e}, {} workers, queue {})",
        requests.len(),
        cfg.workers,
        cfg.queue_cap
    );

    let trace = opts.open_trace("serve_bench");
    let (report, tasks) = qt_par::count_tasks(|| run_sim(&engine, &cfg, &requests, trace.as_ref()));
    opts.close_trace(trace, tasks);

    assert!(
        report.reconciles(),
        "outcome counters must reconcile to offered load"
    );

    let mut doc = report.to_json();
    if let serde_json::Value::Object(map) = &mut doc {
        map.insert("bench".to_string(), serde_json::json!("serve_bench"));
        map.insert("seed".to_string(), serde_json::json!(opts.seed));
        map.insert("rps".to_string(), serde_json::json!(rps));
        map.insert("deadline_ms".to_string(), serde_json::json!(deadline_ms));
        map.insert("ber".to_string(), serde_json::json!(ber));
        map.insert("workers".to_string(), serde_json::json!(cfg.workers as u64));
        map.insert(
            "queue_cap".to_string(),
            serde_json::json!(cfg.queue_cap as u64),
        );
    }

    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let path = opts.out_dir.join("BENCH_serve.json");
    let mut text = serde_json::to_string_pretty(&doc).expect("serializable");
    text.push('\n');
    // Atomic write (qt-ckpt): a crash here never leaves a torn report.
    qt_ckpt::atomic_write_str(&path, &text).expect("write BENCH_serve.json");
    eprintln!(
        "[serve_bench] goodput {:.3}, shed {:.3}, miss {:.3}, degraded {:.3}, trips {}",
        report.goodput(),
        report.shed_rate(),
        report.miss_rate(),
        report.degraded_fraction(),
        report.breaker_trips
    );
    eprintln!("[serve_bench] wrote {}", path.display());

    if let Some(p) = snapshot_path {
        // The sim consumed its breaker; the report's transition log is
        // the authoritative record of where it ended up.
        let snap = HealthSnapshot {
            breaker_state: report
                .transitions
                .last()
                .map(|t| t.to)
                .unwrap_or(BreakerState::Closed),
            breaker_trips: report.breaker_trips,
            unhealthy_rate: report
                .transitions
                .last()
                .map(|t| t.unhealthy_rate)
                .unwrap_or(0.0),
            offered: report.offered,
            served_primary: report.served_primary,
            served_degraded: report.served_degraded,
            shed_queue_full: report.shed_queue_full,
            deadline_miss: report.deadline_miss,
        };
        snap.save(&p).expect("write health snapshot");
        eprintln!("[serve_bench] wrote {}", p.display());
    }

    // Quick textual summary table for humans.
    println!("serve_bench (seed {})", opts.seed);
    println!("  offered          {:>8}", report.offered);
    println!("  served primary   {:>8}", report.served_primary);
    println!("  served degraded  {:>8}", report.served_degraded);
    println!("  shed (queue)     {:>8}", report.shed_queue_full);
    println!("  deadline miss    {:>8}", report.deadline_miss);
    println!("  flagged attempts {:>8}", report.flagged_attempts);
    println!("  bits flipped     {:>8}", report.bits_flipped);
    println!("  breaker trips    {:>8}", report.breaker_trips);
    println!(
        "  latency p50/p99  {:>8} / {} us",
        report.latency_quantile_us(0.5).unwrap_or(0.0),
        report.latency_quantile_us(0.99).unwrap_or(0.0)
    );
}
