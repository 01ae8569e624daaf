//! Cross-crate checkpoint/recovery properties: the qt-ckpt envelope is
//! bitwise-lossless for every storage format, every corruption is
//! detected, fallback recovers on real disks, and a killed-and-resumed
//! training run is indistinguishable from an uninterrupted one.

use proptest::prelude::*;
use qt_ckpt::{
    AmaxState, CheckpointStore, CkptError, Counters, OptState, QuantBlob, ScalerState, TensorBlob,
    TrainState,
};
use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::{ElemFormat, QuantScheme};
use qt_train::{AdamW, Trainer};
use qt_transformer::{Model, QuantCtx, TaskHead, TrainMode, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};

const CODE_FORMATS: [ElemFormat; 5] = [
    ElemFormat::P8E0,
    ElemFormat::P8E1,
    ElemFormat::P8E2,
    ElemFormat::E4M3,
    ElemFormat::E5M2,
];

/// A fully-populated state (every optional section present) whose tensor
/// payloads come from the property's random draws.
fn rich_state(values: &[f32], fmt: ElemFormat) -> TrainState {
    let shape = [values.len()];
    let scale = 0.5f32;
    TrainState {
        meta: vec![
            ("run".into(), "integration".into()),
            ("format".into(), fmt.name().to_string()),
        ],
        counters: Counters {
            steps: 7,
            skipped: 2,
            consecutive_skips: 1,
            rollbacks: 1,
            data_seed: 0xD5EED,
        },
        params: vec![TensorBlob::from_f32("w", &shape, values)],
        qparams: vec![QuantBlob {
            name: "w".into(),
            shape: vec![values.len() as u32],
            format: fmt.name().to_string(),
            scale_bits: scale.to_bits(),
            codes: values
                .iter()
                .map(|&x| fmt.encode_code(x * scale).expect("not Fp32"))
                .collect(),
        }],
        opt: OptState {
            kind: "adamw".into(),
            scalars: vec![("lr".into(), 2e-3f32.to_bits() as u64), ("t".into(), 9)],
            slots: vec![("m".into(), vec![TensorBlob::from_f32("w", &shape, values)])],
        },
        scaler: Some(ScalerState {
            scale_bits: 1024.0f32.to_bits(),
            growth_bits: 2.0f32.to_bits(),
            backoff_bits: 0.5f32.to_bits(),
            growth_interval: 100,
            min_bits: 1.0f32.to_bits(),
            max_bits: 65536.0f32.to_bits(),
            good_steps: 3,
            overflows: 1,
            event_capacity: 256,
            events_dropped: 0,
        }),
        amax: AmaxState {
            history_len: 16,
            entries: vec![("w".into(), values.iter().map(|x| x.abs()).collect())],
        },
        snapshot: None,
    }
}

proptest! {
    #[test]
    fn serialize_roundtrip_is_bitwise_lossless(
        values in prop::collection::vec(-1e4f32..1e4, 1..48),
        fmt_pick in 0usize..5,
    ) {
        let state = rich_state(&values, CODE_FORMATS[fmt_pick]);
        let bytes = state.to_bytes();
        let back = TrainState::from_bytes(&bytes).expect("clean bytes parse");
        // PartialEq on TrainState compares the stored bit patterns, so
        // equality here is bitwise, not approximate.
        prop_assert_eq!(&back, &state);
        // And a second serialization is byte-identical (canonical form).
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn every_single_bit_flip_is_detected(
        values in prop::collection::vec(-1e4f32..1e4, 1..32),
        fmt_pick in 0usize..5,
        bit_seed in 0u64..u64::MAX,
    ) {
        let state = rich_state(&values, CODE_FORMATS[fmt_pick]);
        let bytes = state.to_bytes();
        let bit = (bit_seed % (bytes.len() as u64 * 8)) as usize;
        let mut corrupt = bytes.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            TrainState::from_bytes(&corrupt).is_err(),
            "flipping bit {} of {} went undetected", bit, bytes.len() * 8
        );
    }

    #[test]
    fn every_truncation_is_detected(
        values in prop::collection::vec(-1e4f32..1e4, 1..32),
        fmt_pick in 0usize..5,
        cut_seed in 0u64..u64::MAX,
    ) {
        let state = rich_state(&values, CODE_FORMATS[fmt_pick]);
        let bytes = state.to_bytes();
        // Every proper prefix, from empty to all-but-one-byte.
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            TrainState::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {} of {} bytes went undetected", cut, bytes.len()
        );
    }
}

/// Quantized-code payloads roundtrip exactly: decode(encode(x)) is the
/// format's own quantization of x, and encode(decode(c)) is c again.
#[test]
fn code_payloads_are_lossless_for_all_formats() {
    for fmt in CODE_FORMATS {
        for raw in 0u16..=255 {
            let Some(x) = fmt.decode_code(raw) else {
                continue;
            };
            if !x.is_finite() {
                continue; // exception codes (NaR / NaN / ±inf)
            }
            let re = fmt.encode_code(x).expect("not Fp32");
            let x2 = fmt.decode_code(re).expect("valid code");
            assert_eq!(
                x.to_bits(),
                x2.to_bits(),
                "{fmt:?}: code {raw:#x} -> {x} -> code {re:#x} -> {x2}"
            );
        }
    }
}

/// On-disk fallback: corrupt the newest generation, the store restores
/// the previous one and reports the rejection; corrupt all of them, the
/// store refuses to load anything.
#[test]
fn store_falls_back_through_corrupt_generations_on_disk() {
    let dir = std::env::temp_dir().join(format!("qt-int-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).with_keep_last(3);
    for step in [10u64, 20, 30] {
        let mut state = rich_state(&[0.25, -1.5, 3.0], ElemFormat::P8E1);
        state.counters.steps = step;
        store.save(&state).expect("save generation");
    }
    // Flip one bit in the newest file.
    let gens = store.generations();
    assert_eq!(gens.len(), 3);
    let newest = store.path_for(*gens.last().unwrap());
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).unwrap();

    let (state, info) = store.load_latest().expect("fallback succeeds");
    assert_eq!(state.counters.steps, 20, "restored the previous generation");
    assert_eq!(info.fallback_depth, 1);
    assert_eq!(info.rejected.len(), 1);

    // Corrupt every remaining generation: load must fail, not fabricate.
    for g in store.generations() {
        let p = store.path_for(g);
        let mut b = std::fs::read(&p).unwrap();
        let mid = b.len() / 2;
        b[mid] ^= 0x04;
        std::fs::write(&p, &b).unwrap();
    }
    match store.load_latest() {
        Err(CkptError::NoCheckpoint) => {}
        other => panic!("expected NoCheckpoint after total corruption, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn tiny_trainer(seed: u64) -> (Trainer<AdamW>, ClassifyTask) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = TransformerConfig::mobilebert_tiny_sim();
    cfg.layers = 1;
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, 12);
    let model = Model::new(cfg, TaskHead::Classify(2), &mut rng);
    let trainer = Trainer::new(
        model,
        QuantCtx::training(QuantScheme::posit8()),
        TrainMode::Full,
        AdamW::new(1e-3),
    );
    (trainer, task)
}

/// End-to-end crash recovery: a run checkpointed and abandoned mid-way,
/// then resumed in a fresh trainer, ends bitwise-identical to a run that
/// never stopped — same losses, same parameter bits.
#[test]
fn killed_and_resumed_run_is_bitwise_identical() {
    let dir = std::env::temp_dir().join(format!("qt-int-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let total_steps = 6usize;
    let data_seed = 77u64;

    let run = |ckpt: Option<(&CheckpointStore, usize)>, stop_after: usize| {
        let (mut trainer, task) = tiny_trainer(5);
        if let Some((store, every)) = ckpt {
            trainer = trainer.with_checkpointing(store.clone(), every, data_seed);
            trainer.resume_latest().expect("resume");
        }
        let consumed = trainer.global_step();
        let data = task.dataset(total_steps * 4, data_seed);
        let mut losses = Vec::new();
        for chunk in data.chunks(4).take(stop_after).skip(consumed) {
            let (batch, labels) = task.batch(chunk);
            losses.push(trainer.step_classify(&batch, &labels));
        }
        (trainer, losses)
    };

    // Uninterrupted reference.
    let (ref_trainer, ref_losses) = run(None, total_steps);

    // Interrupted run: checkpoint every 2 steps, "die" after step 5
    // (one step past the last checkpoint), resume in a fresh trainer.
    let store = CheckpointStore::open(&dir).with_keep_last(2);
    let (_, first_losses) = run(Some((&store, 2)), 5);
    let (resumed_trainer, tail_losses) = run(Some((&store, 2)), total_steps);

    // The resumed run replays step 5 (after the step-4 checkpoint) and
    // then the sixth step; spliced at the checkpoint boundary the loss
    // series matches the reference exactly.
    let mut spliced: Vec<f32> = first_losses[..4].to_vec();
    spliced.extend_from_slice(&tail_losses);
    assert_eq!(
        spliced.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        ref_losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "loss series diverged across kill/resume"
    );
    for (name, t) in ref_trainer.model.params.iter() {
        let r = resumed_trainer.model.params.get(name);
        let a: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
        let b: Vec<u32> = r.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b, "parameter {name} not bitwise-identical after resume");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The atomic writer never exposes a partial file under a reader's feet:
/// the destination either doesn't exist or holds complete content, and
/// no temp droppings survive success.
#[test]
fn atomic_write_leaves_no_partial_files() {
    let dir = std::env::temp_dir().join(format!("qt-int-atomic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("nested/deeper/out.json");
    qt_ckpt::atomic_write_str(&path, "{\"ok\":true}\n").expect("atomic write");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
    let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Schema check for `tab09_ckpt_corruption.json`, gated on the path in
/// `QT_VALIDATE_CKPT_TABLE` (CI's crash-recovery job runs the campaign
/// first); a no-op when unset so plain `cargo test` stays hermetic.
#[test]
fn env_named_ckpt_corruption_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_CKPT_TABLE") else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("tab09_ckpt_corruption.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("JSON parses");
    let header: Vec<&str> = v["header"]
        .as_array()
        .expect("header array")
        .iter()
        .map(|h| h.as_str().expect("header strings"))
        .collect();
    assert_eq!(
        header,
        [
            "Format",
            "BER",
            "Bytes",
            "Corrupted",
            "Detected",
            "Silent",
            "Recovery",
            "Depth"
        ],
    );
    let rows = v["rows"].as_array().expect("rows array");
    assert!(!rows.is_empty(), "campaign produced no cells");
    let col = |row: &serde_json::Value, i: usize| -> String {
        row[i].as_str().unwrap_or_default().to_string()
    };
    for row in rows {
        // Absolute-integrity columns: every corrupted file detected,
        // zero silent loads, ever.
        assert_eq!(col(row, 4), "100%", "detection below 100%: {row:?}");
        assert_eq!(col(row, 5), "0", "silent corrupt load: {row:?}");
        assert!(
            col(row, 2).parse::<u64>().unwrap_or(0) > 0,
            "empty checkpoint: {row:?}"
        );
    }
}
