//! Memory-integrity tests: the qt-shield SEC-DED plane, alone and
//! wired into the qt-fleet simulation.
//!
//! * The (72,64) codec must **correct every possible single-bit flip**
//!   (data, Hamming check, or overall parity) and **detect — never
//!   miscorrect — every possible double-bit flip** (property-based plus
//!   an exhaustive pair sweep).
//! * A shielded fleet under persistent storage rot must serve **zero
//!   silently corrupt responses** while the background scrubber handles
//!   ≥99% of injected flips without request-visible errors.
//! * A double-bit detection must quarantine the region and the repair
//!   path must restore the codes **bit-exactly** from the f32 masters.
//! * The whole integrity surface (counters, events, report JSON) must
//!   serialize **byte-identically** at any kernel pool size.
//! * When `QT_VALIDATE_INTEGRITY` names a `BENCH_integrity.json` (CI's
//!   integrity-smoke job runs `integrity_bench` first), its schema is
//!   validated; `QT_INTEGRITY_MODE` selects scrub/quiet expectations.

use proptest::prelude::*;
use qt_fleet::{
    audit_unflagged_corruption, run_fleet, ArrivalShape, FleetConfig, FleetLoadSpec, FleetReport,
    MemSnapStore, ReplicaSpec, ShieldConfig,
};
use qt_quant::ElemFormat;
use qt_robust::{FaultSource, NoFaults};
use qt_serve::{pristine_codes, shield_model};
use qt_shield::{decode, encode, flip, Decode, CODE_BITS};
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

// ---------------------------------------------------------------------
// SEC-DED codec properties
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn secded_clean_words_decode_clean(word in 0u64..=u64::MAX) {
        prop_assert_eq!(decode(word, encode(word)), Decode::Clean);
    }

    // Every one of the 72 bit positions round-trips: flip it, decode,
    // and the codec names the exact position and restores the pair.
    #[test]
    fn secded_corrects_every_single_bit_flip(
        word in 0u64..=u64::MAX,
        bit in 0u8..CODE_BITS as u8,
    ) {
        let check = encode(word);
        let (fw, fc) = flip(word, check, bit);
        match decode(fw, fc) {
            Decode::Corrected { bit: b, word: w, check: c } => {
                prop_assert_eq!(b, bit);
                prop_assert_eq!(w, word);
                prop_assert_eq!(c, check);
            }
            other => prop_assert!(false, "bit {} decoded as {:?}", bit, other),
        }
    }

    // Any two distinct flipped bits are detected — and crucially never
    // miscorrected into a third, silently wrong, codeword.
    #[test]
    fn secded_detects_every_double_bit_flip(
        word in 0u64..=u64::MAX,
        b1 in 0u8..CODE_BITS as u8,
        off in 1u8..CODE_BITS as u8,
    ) {
        // A nonzero modular offset guarantees two distinct positions.
        let b2 = (b1 + off) % CODE_BITS as u8;
        let check = encode(word);
        let (fw, fc) = flip(word, check, b1);
        let (fw, fc) = flip(fw, fc, b2);
        prop_assert_eq!(decode(fw, fc), Decode::Uncorrectable);
    }
}

/// The proptest pair sampler is probabilistic; this sweep is not: all
/// 72·71/2 distinct bit pairs over a handful of words, every one
/// detected as uncorrectable.
#[test]
fn secded_double_flip_sweep_is_exhaustive() {
    for word in [0u64, u64::MAX, 0xdead_beef_cafe_f00d, 0x5555_5555_5555_5555] {
        let check = encode(word);
        for b1 in 0..CODE_BITS as u8 {
            for b2 in (b1 + 1)..CODE_BITS as u8 {
                let (fw, fc) = flip(word, check, b1);
                let (fw, fc) = flip(fw, fc, b2);
                assert_eq!(
                    decode(fw, fc),
                    Decode::Uncorrectable,
                    "pair ({b1},{b2}) on {word:#x} escaped detection"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quarantine and bit-exact repair (qt-serve × qt-shield × qt-quant)
// ---------------------------------------------------------------------

/// A double-bit upset quarantines its region; repairing from the f32
/// masters restores the exact codes [`shield_model`] protected — the
/// re-quantization is bit-reproducible, not merely close.
#[test]
fn double_bit_quarantine_repair_is_bit_exact() {
    let model = tiny_model();
    let mut shield = shield_model(&model, ElemFormat::P8E1).expect("posit8 has a code plane");
    let name0 = model.params.names()[0].clone();
    let pristine_all: Vec<Vec<u16>> = shield.regions().iter().map(|r| r.codes()).collect();
    let before = pristine_all[0].clone();
    assert_eq!(
        pristine_codes(&model, ElemFormat::P8E1, &name0).as_deref(),
        Some(&before[..]),
        "pristine re-quantization must reproduce the protected codes"
    );

    shield.inject(0, 0, 3);
    shield.inject(0, 0, 41);
    let out = shield.scrub(shield.total_words() as usize);
    assert_eq!(out.quarantined, vec![0], "double-bit must quarantine");
    assert!(shield.has_quarantine());

    shield.repair_region(0, &before);
    assert!(!shield.has_quarantine());
    assert!(
        shield.regions()[0].matches_exact(&before),
        "repair must be bit-exact"
    );
    assert_eq!(shield.silent_errors(|i| pristine_all[i].clone()), 0);
}

// ---------------------------------------------------------------------
// Shielded fleet under storage rot
// ---------------------------------------------------------------------

fn rot_config(ber: f64) -> FleetConfig {
    let pass = pass_us();
    FleetConfig {
        replicas: vec![
            ReplicaSpec::new(ElemFormat::P8E1),
            ReplicaSpec::new(ElemFormat::P8E1),
        ],
        shield: Some(ShieldConfig {
            scrub_every_us: 2 * pass,
            storage_ber: ber,
            storage_seed: 0x0507,
            ..ShieldConfig::default()
        }),
        ..FleetConfig::default()
    }
}

fn rot_run(ber: f64, seed: u64) -> (FleetConfig, Vec<qt_fleet::FleetRequest>, FleetReport) {
    let pass = pass_us();
    let cfg = rot_config(ber);
    let reqs = FleetLoadSpec {
        rps: 1.0 * 1e6 / pass as f64,
        duration_us: 60 * pass,
        shape: ArrivalShape::Constant,
        deadline_us: 0,
        seed,
        ..FleetLoadSpec::default()
    }
    .requests(tiny_model().cfg.vocab);
    let report = run_fleet(
        &tiny_model(),
        &cfg,
        &reqs,
        no_faults(2),
        Box::new(MemSnapStore::new()),
        &mut TelemetrySink::new(TelemetryConfig::default(), cfg.replicas.len()),
    );
    (cfg, reqs, report)
}

/// Persistent storage rot at a rate that lands tens of flips: the
/// scrubber must handle ≥99% of them (counting each quarantined word's
/// two-plus bits as handled by its repair), every request must still be
/// served, and the replay audit must find zero silently corrupt
/// primary responses.
#[test]
fn storage_rot_is_scrubbed_with_zero_silent_corruption() {
    let (cfg, reqs, report) = rot_run(2e-5, 29);
    assert!(report.reconciles());
    assert!(
        report.storage_flips > 20,
        "rot rate must actually bite: {} flips",
        report.storage_flips
    );
    assert!(report.scrub_corrected > 0);
    let handled = report.scrub_corrected + 2 * report.quarantines;
    let coverage = handled as f64 / report.storage_flips as f64;
    assert!(
        coverage >= 0.99,
        "scrub coverage {coverage:.4}: {} corrected + {} quarantines of {} flips",
        report.scrub_corrected,
        report.quarantines,
        report.storage_flips
    );
    assert_eq!(
        report.quarantines, report.repairs,
        "every quarantine must finish its repair"
    );
    assert_eq!(
        report.offered,
        report.served_primary + report.served_degraded,
        "rot must never cost a response"
    );
    assert_eq!(
        audit_unflagged_corruption(&tiny_model(), &cfg, &reqs, no_faults(2), &report),
        0,
        "no served-primary response may replay corrupt"
    );
}

/// The integrity surface — flip counts, scrub corrections, quarantine
/// and repair events, the full report JSON — is byte-identical whether
/// the kernels underneath run on 1 thread or 4.
#[test]
fn integrity_surface_is_byte_identical_across_thread_pools() {
    let run = |threads: usize| {
        qt_par::with_threads(threads, || {
            let (_, _, report) = rot_run(2e-5, 31);
            serde_json::to_string(&report.to_json()).unwrap()
        })
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a, b, "shielded fleet must not observe the pool size");
}

// ---------------------------------------------------------------------
// CI artifact validation
// ---------------------------------------------------------------------

/// Validates the `BENCH_integrity.json` schema of the artifact named by
/// `QT_VALIDATE_INTEGRITY` (CI's integrity-smoke job runs the binary
/// first); skips silently when unset. `QT_INTEGRITY_MODE` adds the
/// scenario contract of `check_integrity_mode`.
#[test]
fn env_named_integrity_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_INTEGRITY") else {
        return;
    };
    let mode = std::env::var("QT_INTEGRITY_MODE").unwrap_or_default();
    let text = std::fs::read_to_string(&path).expect("BENCH_integrity.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCH_integrity.json parses");
    assert_eq!(v["schema"].as_str(), Some("qt-shield/bench/v1"));
    assert_eq!(v["bench"].as_str(), Some("integrity_bench"));
    assert!(v["protected_bits_per_replica"].as_u64().unwrap_or(0) > 0);
    assert!(v["scrub_windows"].as_u64().unwrap_or(0) > 0);
    let sweep = v["ber_sweep"].as_array().expect("ber sweep table");
    assert!(!sweep.is_empty());
    for row in sweep {
        assert!(row["ber"].as_f64().is_some());
        assert!(row["flips"].as_u64().is_some());
        assert!(row["silent_without_protection"].as_u64().is_some());
    }
    let legs = v["legs"].as_array().expect("per-leg sections");
    assert_eq!(legs.len(), 2, "protected + quiet legs");
    for leg in legs {
        let name = leg["leg"].as_str().expect("leg name");
        assert!(leg["arrival_seed"].as_u64().is_some(), "{name}: seed");
        assert_eq!(
            leg["unflagged_corrupt"].as_u64(),
            Some(0),
            "{name}: a served-primary response replayed corrupt"
        );
        assert!(
            leg["offered"].as_u64().unwrap_or(0)
                >= leg["served_primary"].as_u64().unwrap_or(0)
                    + leg["served_degraded"].as_u64().unwrap_or(0),
            "{name}: served more than offered"
        );
        let tel = leg["telemetry"].as_object().expect("telemetry totals");
        for key in ["scrub.corrected", "scrub.quarantines", "scrub.repairs"] {
            assert!(tel.contains_key(key), "{name}: missing counter {key}");
        }
        assert_eq!(
            tel["scrub.corrected"].as_u64(),
            leg["scrub_corrected"].as_u64(),
            "{name}: telemetry and report must agree on corrections"
        );
    }
    check_integrity_mode(&v, &mode);
}

/// The scenario contract `QT_INTEGRITY_MODE` names, checked on a
/// `BENCH_integrity.json`: `scrub` (rot injected and handled) or `quiet`
/// (shield armed over clean storage, zero activity). An empty mode
/// checks the schema alone; any other mode is a typo that would
/// otherwise pass silently, so it panics.
fn check_integrity_mode(v: &serde_json::Value, mode: &str) {
    let legs = v["legs"].as_array().expect("per-leg sections");
    let protected = &legs[0];
    let quiet = &legs[1];
    assert_eq!(protected["leg"].as_str(), Some("protected"));
    assert_eq!(quiet["leg"].as_str(), Some("quiet"));
    match mode {
        "scrub" => {
            let flips = protected["storage_flips"].as_u64().unwrap_or(0);
            assert!(flips > 0, "scrub mode: no rot was injected");
            assert!(protected["scrub_corrected"].as_u64().unwrap_or(0) > 0);
            let cov = protected["scrub_coverage"].as_f64().unwrap_or(0.0);
            assert!(cov >= 0.99, "scrub mode: coverage {cov:.4} < 0.99");
            assert_eq!(
                protected["quarantines"].as_u64(),
                protected["repairs"].as_u64(),
                "scrub mode: unfinished repairs"
            );
        }
        "quiet" => {
            for key in [
                "storage_flips",
                "scrub_corrected",
                "read_corrected",
                "scrub_uncorrectable",
                "quarantines",
                "repairs",
            ] {
                assert_eq!(
                    quiet[key].as_u64(),
                    Some(0),
                    "quiet mode: {key} nonzero on a rot-free run"
                );
            }
        }
        "" => {}
        other => panic!("unknown QT_INTEGRITY_MODE {other:?}; accepted: scrub, quiet"),
    }
}

#[test]
#[should_panic(expected = "unknown QT_INTEGRITY_MODE")]
fn integrity_validator_rejects_an_unknown_mode() {
    let legs = [
        serde_json::json!({ "leg": "protected" }),
        serde_json::json!({ "leg": "quiet" }),
    ];
    let v = serde_json::json!({ "legs": legs });
    check_integrity_mode(&v, "scrubbed");
}
