//! **Integrity bench**: storage-rot campaign over the ECC-shielded
//! fleet, measuring silent-corruption exposure with and without the
//! qt-shield SEC-DED plane.
//!
//! Two legs run against the same deterministic discrete-event fleet
//! (virtual clock, real qt-par forward passes, no crashes — storage
//! rot is the only fault environment):
//!
//! * **protected** — every replica carries a SEC-DED parity plane over
//!   its packed quantized codes; a background scrubber injects and then
//!   corrects persistent bit flips at `--ber` per bit per scrub window.
//! * **quiet** — the same shielded fleet at BER 0: the scrubber must
//!   walk storage without ever finding (or inventing) work.
//!
//! After each leg, every served-primary response is replay-audited
//! (`audit_unflagged_corruption`) — the unflagged-corrupt count must be
//! zero. The injected-flip stream is then replayed *offline* from the
//! same `StorageFaultModel` seed to (a) prove the replay model matches
//! the simulation flip-for-flip and (b) count how many of those flips
//! landed on data bits — exactly the bits that would silently corrupt
//! an unprotected code array. A BER sweep table extends that offline
//! computation across `--bers` for the README.
//!
//! Extra flags beyond the shared harness (`--quick`, `--out`, `--seed`):
//!
//! * `--rps R`, `--duration S`, `--deadline-ms M` — offered load shape
//! * `--replicas N` — fleet width (all replicas share `--format`)
//! * `--format F` — packed element format under protection (must have
//!   a code plane; default `p8e1`)
//! * `--seq N` — tokens per request
//! * `--ber B` — storage BER per bit per scrub window (protected leg;
//!   default 1e-6)
//! * `--scrub-ms M` — scrub window width (default 5 ms)
//! * `--scrub-budget W` — words per scrub pass (0 = full pass)
//! * `--repair-us-per-word U` — repair latency model
//! * `--bers A,B,..` — offline BER sweep points for the README table
//!
//! An unknown flag exits with status 2. The CI scrub and quiet
//! contracts are checked on the written JSON by
//! `tests/tests/integrity.rs::env_named_integrity_json_validates`.
//!
//! Identical seed and flags ⇒ byte-identical `BENCH_integrity.json` at
//! any `QT_THREADS`.

use std::collections::{HashMap, HashSet};

use qt_bench::{name_seed, parse_next, parse_next_with, splitmix64};
use qt_fleet::{
    audit_unflagged_corruption, run_fleet, ArrivalShape, DirSnapStore, FleetConfig, FleetLoadSpec,
    ReplicaSpec, RouterPolicy, ShieldConfig,
};
use qt_quant::ElemFormat;
use qt_robust::{FaultSource, NoFaults, StorageFaultModel};
use qt_telemetry::Scope;
use qt_transformer::{Model, TaskHead, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

/// SEC-DED codeword width — must mirror `qt_shield::CODE_BITS`, which
/// qt-bench reaches only transitively. The offline replay asserts its
/// flip counts against the simulation, so a drift here fails loudly.
const CODE_BITS: u64 = 72;
/// Data bits per codeword (the rest are out-of-band check bits).
const DATA_BITS: u64 = 64;

/// Offline replay of one replica's persistent-rot stream: the same
/// `StorageFaultModel` windows the simulation drew, folded three ways.
#[derive(Debug, Default, Clone)]
struct RotReplay {
    /// Total flips drawn (must equal the sim's `storage_flips`).
    flips: u64,
    /// Bits left in error on an *unprotected* code array at the end of
    /// the run: cumulative XOR over all windows, data bits only (check
    /// bits do not exist without the shield).
    silent_data_bits: u64,
    /// Per-window words with exactly one bit in error — the SEC-DED
    /// scrubber corrects these in place.
    correctable_words: u64,
    /// Per-window words with two or more bits in error — detected,
    /// quarantined, and repaired from the f32 masters; never silent.
    uncorrectable_words: u64,
}

/// Replay `windows` scrub windows of rot for one replica.
fn replay_rot(seed: u64, ber: f64, replica: usize, windows: u64, total_bits: u64) -> RotReplay {
    let mut model = StorageFaultModel::new(seed, ber);
    let mut out = RotReplay::default();
    // Unprotected array: persistent flips accumulate across the whole
    // run; a bit hit twice flips back.
    let mut live: HashSet<u64> = HashSet::new();
    for w in 0..windows {
        let flips = model.window_flips(replica, w, total_bits);
        out.flips += flips.len() as u64;
        // Protected array: the scrubber cleans between windows, so each
        // window's error pattern stands alone. Group by word and count
        // bits left at odd parity.
        let mut by_word: HashMap<u64, Vec<u64>> = HashMap::new();
        for &bit in &flips {
            if bit % CODE_BITS < DATA_BITS && !live.remove(&bit) {
                live.insert(bit);
            }
            by_word.entry(bit / CODE_BITS).or_default().push(bit);
        }
        for bits in by_word.values() {
            let mut odd: HashSet<u64> = HashSet::new();
            for &b in bits {
                if !odd.remove(&b) {
                    odd.insert(b);
                }
            }
            match odd.len() {
                0 => {}
                1 => out.correctable_words += 1,
                _ => out.uncorrectable_words += 1,
            }
        }
    }
    out.silent_data_bits = live.len() as u64;
    out
}

/// Sum a fleet-scope telemetry counter over the whole run.
fn tel_total(sink: &qt_telemetry::TelemetrySink, name: &str) -> u64 {
    sink.series_get(Scope::Fleet, name)
        .map(|s| s.counter_total())
        .unwrap_or(0)
}

fn main() {
    let opts = qt_bench::Opts::parse();
    let mut rps = 60.0f64;
    let mut duration_s = if opts.quick { 1.5 } else { 4.0 };
    let mut deadline_ms = 60u64;
    let mut n_replicas = 2usize;
    let mut format = ElemFormat::P8E1;
    let mut seq = 8usize;
    let mut ber = 1e-6f64;
    let mut scrub_ms = 5u64;
    let mut scrub_budget = 0usize;
    let mut repair_us_per_word = 1u64;
    let mut sweep_bers = vec![1e-7f64, 1e-6, 1e-5, 1e-4];

    let mut it = opts.extra.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rps" => parse_next(a, &mut it, &mut rps),
            "--duration" => parse_next(a, &mut it, &mut duration_s),
            "--deadline-ms" => parse_next(a, &mut it, &mut deadline_ms),
            "--replicas" => parse_next(a, &mut it, &mut n_replicas),
            "--format" => format = parse_next_with(a, &mut it, ElemFormat::parse),
            "--seq" => parse_next(a, &mut it, &mut seq),
            "--ber" => parse_next(a, &mut it, &mut ber),
            "--scrub-ms" => parse_next(a, &mut it, &mut scrub_ms),
            "--scrub-budget" => parse_next(a, &mut it, &mut scrub_budget),
            "--repair-us-per-word" => parse_next(a, &mut it, &mut repair_us_per_word),
            "--bers" => {
                sweep_bers = parse_next_with(a, &mut it, |v| {
                    v.split(',').map(|b| b.parse().ok()).collect()
                })
            }
            other => {
                eprintln!("[integrity_bench] unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let model_cfg = TransformerConfig::mobilebert_tiny_sim();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let model = Model::new(model_cfg, TaskHead::Classify(2), &mut rng);
    let vocab = model.cfg.vocab;
    let duration_us = (duration_s * 1e6) as u64;
    let n_replicas = n_replicas.max(1);

    // Fail fast on formats without a packed code plane: there is
    // nothing for the shield to protect.
    let total_bits = qt_serve::shield_model(&model, format)
        .unwrap_or_else(|| panic!("--format {}: no packed code plane to shield", format.name()))
        .total_bits();
    let storage_seed = splitmix64(opts.seed ^ 0x0005_1e1d);
    let scrub_every_us = scrub_ms.max(1) * 1_000;
    let shield_cfg = |leg_ber: f64| ShieldConfig {
        scrub_every_us,
        scrub_budget_words: if scrub_budget == 0 {
            usize::MAX
        } else {
            scrub_budget
        },
        storage_ber: leg_ber,
        storage_seed,
        repair_us_per_word,
    };

    eprintln!(
        "[integrity_bench] {rps} rps over {duration_s}s, {n_replicas}x {} replicas, \
         {total_bits} protected bits each, scrub every {scrub_ms} ms, ber {ber:e}",
        format.name()
    );

    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let legs: [(&str, f64); 2] = [("protected", ber), ("quiet", 0.0)];
    let mut leg_docs: Vec<serde_json::Value> = Vec::new();
    let mut scrub_windows = 0u64;
    for (name, leg_ber) in legs {
        let arrival_seed = name_seed(opts.seed, name);
        let requests = FleetLoadSpec {
            rps,
            duration_us,
            shape: ArrivalShape::Constant,
            period_us: duration_us.max(1),
            users: 100_000,
            tenants: 1,
            deadline_us: deadline_ms.saturating_mul(1_000),
            seq,
            seed: arrival_seed,
        }
        .requests(vocab);
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(format); n_replicas],
            policy: RouterPolicy::HealthAware,
            tenants: 1,
            tenant_quota: 0,
            max_failovers: 3,
            hedge: true,
            snapshot_every_us: 100_000,
            retry_seed: opts.seed,
            adapt_every_us: 0,
            codel: None,
            brownout: None,
            gray: None,
            autoscale: None,
            shield: Some(shield_cfg(leg_ber)),
        };
        let faults = |n: usize| -> Vec<Box<dyn FaultSource + Send + Sync>> {
            (0..n).map(|_| Box::new(NoFaults) as _).collect()
        };
        let snap_dir = opts.out_dir.join(format!("integrity_snaps_{name}"));
        // Start from an empty store: a replica that boots or recovers must
        // not resume from snapshots a previous run left in a reused --out.
        if let Err(e) = std::fs::remove_dir_all(&snap_dir) {
            let gone = e.kind() == std::io::ErrorKind::NotFound;
            assert!(gone, "clear {}: {e}", snap_dir.display());
        }
        let lopts = opts.scoped(name);
        let trace = lopts.open_trace(&format!("integrity_bench_{name}"));
        let mut sink = qt_telemetry::TelemetrySink::new(
            qt_telemetry::TelemetryConfig {
                seed: opts.seed,
                ..qt_telemetry::TelemetryConfig::default()
            },
            cfg.replicas.len(),
        );
        let span = trace
            .as_ref()
            .map(|t| t.borrow_mut().begin("fleet.sim", "fleet"));
        let (report, tasks) = qt_par::count_tasks(|| {
            run_fleet(
                &model,
                &cfg,
                &requests,
                faults(n_replicas),
                Box::new(DirSnapStore::new(&snap_dir)),
                &mut sink,
            )
        });
        if let (Some(t), Some(span)) = (trace.as_ref(), span) {
            let mut session = t.borrow_mut();
            session.end(span);
            qt_telemetry::export_to_trace(&sink, &mut session);
        }
        lopts.close_trace(trace, tasks);
        assert!(
            report.reconciles(),
            "{name}: outcome counters must reconcile to offered load"
        );
        let unflagged =
            audit_unflagged_corruption(&model, &cfg, &requests, faults(n_replicas), &report);
        assert_eq!(
            unflagged, 0,
            "{name}: served-primary responses must replay clean — the shield \
             exists precisely so storage rot is never silent"
        );

        // Offline rot replay: same seed, same window count the DES used
        // (ticks fire every scrub window; the one at/after the last
        // arrival scrubs without injecting).
        let last_arrival = requests.last().map(|r| r.req.arrival_us).unwrap_or(0);
        let windows = if last_arrival == 0 {
            0
        } else {
            (last_arrival - 1) / scrub_every_us
        };
        scrub_windows = windows;
        let mut replay = RotReplay::default();
        for r in 0..n_replicas {
            let one = replay_rot(storage_seed, leg_ber, r, windows, total_bits);
            assert_eq!(
                one.flips, report.replicas[r].stats.storage_flips,
                "{name}: offline rot replay must match the simulation flip-for-flip \
                 (replica {r})"
            );
            replay.flips += one.flips;
            replay.silent_data_bits += one.silent_data_bits;
            replay.correctable_words += one.correctable_words;
            replay.uncorrectable_words += one.uncorrectable_words;
        }

        let tel_doc = serde_json::json!({
            "scrub.corrected": tel_total(&sink, "scrub.corrected"),
            "scrub.read_corrected": tel_total(&sink, "scrub.read_corrected"),
            "scrub.uncorrectable": tel_total(&sink, "scrub.uncorrectable"),
            "scrub.quarantines": tel_total(&sink, "scrub.quarantines"),
            "scrub.repairs": tel_total(&sink, "scrub.repairs"),
        });
        // Handled = corrected in place + the ≥2 bits of each word whose
        // double-bit detection was quarantined and repaired bit-exact.
        let handled = report.scrub_corrected + 2 * report.quarantines;
        let coverage = if report.storage_flips == 0 {
            serde_json::Value::Null
        } else {
            serde_json::json!(handled as f64 / report.storage_flips as f64)
        };
        eprintln!(
            "[integrity_bench] {name}: {} requests, flips {}, scrubbed {}, read-corrected {}, \
             quarantines {}, repairs {}, unflagged corrupt {unflagged}, \
             unprotected would hold {} silent bad bits",
            requests.len(),
            report.storage_flips,
            report.scrub_corrected,
            report.read_corrected,
            report.quarantines,
            report.repairs,
            replay.silent_data_bits,
        );
        leg_docs.push(serde_json::json!({
            "leg": name,
            "ber": leg_ber,
            "arrival_seed": arrival_seed,
            "requests": requests.len(),
            "offered": report.offered,
            "served_primary": report.served_primary,
            "served_degraded": report.served_degraded,
            "deadline_miss": report.deadline_miss,
            "storage_flips": report.storage_flips,
            "scrub_corrected": report.scrub_corrected,
            "read_corrected": report.read_corrected,
            "scrub_uncorrectable": report.scrub_uncorrectable,
            "quarantines": report.quarantines,
            "repairs": report.repairs,
            "scrub_coverage": coverage,
            "unflagged_corrupt": unflagged,
            "silent_without_protection": replay.silent_data_bits,
            "replayed_correctable_words": replay.correctable_words,
            "replayed_uncorrectable_words": replay.uncorrectable_words,
            "integrity_events": report
                .integrity_events
                .iter()
                .map(|e| e.to_json())
                .collect::<Vec<_>>(),
            "telemetry": tel_doc,
        }));
    }

    // BER sweep: the offline model across magnitudes, same seed and
    // window count as the measured legs — the README exposure table.
    let sweep: Vec<serde_json::Value> = sweep_bers
        .iter()
        .map(|&b| {
            let mut tot = RotReplay::default();
            for r in 0..n_replicas {
                let one = replay_rot(storage_seed, b, r, scrub_windows, total_bits);
                tot.flips += one.flips;
                tot.silent_data_bits += one.silent_data_bits;
                tot.correctable_words += one.correctable_words;
                tot.uncorrectable_words += one.uncorrectable_words;
            }
            serde_json::json!({
                "ber": b,
                "flips": tot.flips,
                "silent_without_protection": tot.silent_data_bits,
                "correctable_words": tot.correctable_words,
                "uncorrectable_words": tot.uncorrectable_words,
            })
        })
        .collect();

    let doc = serde_json::json!({
        "schema": "qt-shield/bench/v1",
        "bench": "integrity_bench",
        "seed": opts.seed,
        "rps": rps,
        "duration_s": duration_s,
        "deadline_ms": deadline_ms,
        "replicas": n_replicas,
        "format": format.name(),
        "seq": seq,
        "ber": ber,
        "scrub_ms": scrub_ms,
        "scrub_budget_words": scrub_budget,
        "repair_us_per_word": repair_us_per_word,
        "storage_seed": storage_seed,
        "protected_bits_per_replica": total_bits,
        "scrub_windows": scrub_windows,
        "legs": leg_docs,
        "ber_sweep": sweep,
    });
    let path = opts.out_dir.join("BENCH_integrity.json");
    let mut text = serde_json::to_string_pretty(&doc).expect("serializable");
    text.push('\n');
    // Atomic write (qt-ckpt): a crash here never leaves a torn report.
    qt_ckpt::atomic_write_str(&path, &text).expect("write BENCH_integrity.json");
    eprintln!("[integrity_bench] wrote {}", path.display());
}
