//! The checkpointed training state and its (de)serialization.
//!
//! `qt-ckpt` is deliberately model-agnostic: it knows nothing about
//! tensors, optimizers or quantization schemes. [`TrainState`] is a bag
//! of named blobs — exact `f32` bit patterns for everything the resumed
//! trajectory must reproduce **bitwise**, plus an optional compact
//! section of stored 8-bit codes + scales (the artifact an edge device
//! would actually flash). `qt-train` owns the conversion in both
//! directions.

use crate::error::CkptError;
use crate::format::{parse_envelope, require_section, ByteReader, ByteWriter, Envelope};

/// A named tensor stored as exact `f32` bit patterns.
///
/// Bit patterns (not values) so that serialize→deserialize is the
/// identity on every input, including negative zero and NaN payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorBlob {
    /// Parameter name (e.g. `enc.0.q.w.lora_a`).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<u32>,
    /// Element bit patterns, row-major.
    pub bits: Vec<u32>,
}

impl TensorBlob {
    /// Capture a named `f32` buffer exactly.
    pub fn from_f32(name: impl Into<String>, shape: &[usize], data: &[f32]) -> Self {
        Self {
            name: name.into(),
            shape: shape.iter().map(|&d| d as u32).collect(),
            bits: data.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// The stored values, bit-exact.
    pub fn to_f32(&self) -> Vec<f32> {
        self.bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    /// Shape as `usize` dims.
    pub fn shape_usize(&self) -> Vec<usize> {
        self.shape.iter().map(|&d| d as usize).collect()
    }
}

/// A named tensor stored as element-format codes plus one power-of-two
/// scale — the paper's deployable 8-bit form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantBlob {
    /// Parameter name.
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<u32>,
    /// Element format name (e.g. `Posit(8,1)`, `E4M3`).
    pub format: String,
    /// Bit pattern of the per-tensor scale applied before encoding.
    pub scale_bits: u32,
    /// Stored element codes (≤ 16 bits each).
    pub codes: Vec<u16>,
}

impl QuantBlob {
    /// The scale as an `f32`.
    pub fn scale(&self) -> f32 {
        f32::from_bits(self.scale_bits)
    }
}

/// Serialized optimizer state: a kind tag, named scalar bit patterns,
/// and named slots of per-parameter moment tensors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptState {
    /// Optimizer kind (`"sgd"`, `"adamw"`, …) — checked on import.
    pub kind: String,
    /// Named scalars as 64-bit patterns (`f32` scalars go in the low bits).
    pub scalars: Vec<(String, u64)>,
    /// Named tensor slots (`m`, `v`, `velocity`, …).
    pub slots: Vec<(String, Vec<TensorBlob>)>,
}

impl OptState {
    /// Look up a scalar by name.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a tensor slot by name.
    pub fn slot(&self, name: &str) -> Option<&[TensorBlob]> {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// Full dynamic-loss-scaler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalerState {
    /// Current scale (bit pattern).
    pub scale_bits: u32,
    /// Growth factor (bit pattern).
    pub growth_bits: u32,
    /// Backoff factor (bit pattern).
    pub backoff_bits: u32,
    /// Clean steps required before growing.
    pub growth_interval: u64,
    /// Lower scale bound (bit pattern).
    pub min_bits: u32,
    /// Upper scale bound (bit pattern).
    pub max_bits: u32,
    /// Clean steps since the last adjustment.
    pub good_steps: u64,
    /// Overflows seen so far.
    pub overflows: u64,
    /// Retained-event ring capacity.
    pub event_capacity: u64,
    /// Events dropped by the ring so far.
    pub events_dropped: u64,
}

/// Per-tensor amax histories (delayed-scaling state, §5.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AmaxState {
    /// History window length.
    pub history_len: u64,
    /// `(tensor name, recorded amaxes)`, sorted by name for determinism.
    pub entries: Vec<(String, Vec<f32>)>,
}

/// Step/skip/rollback counters plus the data-order seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Optimizer steps applied.
    pub steps: u64,
    /// Steps skipped for non-finite gradients.
    pub skipped: u64,
    /// Consecutive skips at capture time.
    pub consecutive_skips: u64,
    /// Snapshot rollbacks performed.
    pub rollbacks: u64,
    /// Seed that reproduces the data order (batches consumed =
    /// `steps + skipped`).
    pub data_seed: u64,
}

/// An in-memory rollback snapshot, checkpointed so a resumed run can
/// still roll back exactly like the uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// Parameters at snapshot time.
    pub params: Vec<TensorBlob>,
    /// Optimizer state at snapshot time.
    pub opt: OptState,
    /// Amax histories at snapshot time.
    pub amax: AmaxState,
    /// Applied-step count at snapshot time.
    pub steps: u64,
}

/// Everything a training run needs to continue bitwise-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainState {
    /// Free-form annotations (`run`, `scheme`, …), sorted by producer.
    pub meta: Vec<(String, String)>,
    /// Step counters and the data-order seed.
    pub counters: Counters,
    /// Model parameters, bit-exact.
    pub params: Vec<TensorBlob>,
    /// Optional compact export: stored 8-bit codes + scales.
    pub qparams: Vec<QuantBlob>,
    /// Optimizer moments and hyperparameters.
    pub opt: OptState,
    /// Dynamic loss-scaler state, when one is attached.
    pub scaler: Option<ScalerState>,
    /// Delayed-scaling amax histories.
    pub amax: AmaxState,
    /// In-memory rollback snapshot, when one exists.
    pub snapshot: Option<SnapshotState>,
}

fn put_tensors(w: &mut ByteWriter, tensors: &[TensorBlob]) {
    w.put_u32(tensors.len() as u32);
    for t in tensors {
        w.put_str(&t.name);
        w.put_u32(t.shape.len() as u32);
        for &d in &t.shape {
            w.put_u32(d);
        }
        w.put_u64(t.bits.len() as u64);
        for &b in &t.bits {
            w.put_u32(b);
        }
    }
}

fn get_tensors(r: &mut ByteReader<'_>) -> Result<Vec<TensorBlob>, CkptError> {
    let count = r.get_u32()?;
    let mut out = Vec::with_capacity(count.min(65_536) as usize);
    for _ in 0..count {
        let name = r.get_str()?;
        let ndim = r.get_u32()?;
        let mut shape = Vec::with_capacity(ndim.min(16) as usize);
        for _ in 0..ndim {
            shape.push(r.get_u32()?);
        }
        let len = r.get_u64()?;
        let declared: u64 = shape.iter().map(|&d| d as u64).product();
        if len != declared {
            return Err(CkptError::Malformed(format!(
                "tensor {name:?}: shape implies {declared} elements, payload has {len}"
            )));
        }
        let mut bits = Vec::with_capacity(len.min(1 << 24) as usize);
        for _ in 0..len {
            bits.push(r.get_u32()?);
        }
        out.push(TensorBlob { name, shape, bits });
    }
    Ok(out)
}

fn put_opt(w: &mut ByteWriter, opt: &OptState) {
    w.put_str(&opt.kind);
    w.put_u32(opt.scalars.len() as u32);
    for (name, v) in &opt.scalars {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(opt.slots.len() as u32);
    for (name, tensors) in &opt.slots {
        w.put_str(name);
        put_tensors(w, tensors);
    }
}

fn get_opt(r: &mut ByteReader<'_>) -> Result<OptState, CkptError> {
    let kind = r.get_str()?;
    let n_scalars = r.get_u32()?;
    let mut scalars = Vec::with_capacity(n_scalars.min(1024) as usize);
    for _ in 0..n_scalars {
        let name = r.get_str()?;
        scalars.push((name, r.get_u64()?));
    }
    let n_slots = r.get_u32()?;
    let mut slots = Vec::with_capacity(n_slots.min(64) as usize);
    for _ in 0..n_slots {
        let name = r.get_str()?;
        slots.push((name, get_tensors(r)?));
    }
    Ok(OptState {
        kind,
        scalars,
        slots,
    })
}

fn put_amax(w: &mut ByteWriter, amax: &AmaxState) {
    w.put_u64(amax.history_len);
    w.put_u32(amax.entries.len() as u32);
    for (name, hist) in &amax.entries {
        w.put_str(name);
        w.put_u32(hist.len() as u32);
        for &a in hist {
            w.put_f32_bits(a);
        }
    }
}

fn get_amax(r: &mut ByteReader<'_>) -> Result<AmaxState, CkptError> {
    let history_len = r.get_u64()?;
    let count = r.get_u32()?;
    let mut entries = Vec::with_capacity(count.min(65_536) as usize);
    for _ in 0..count {
        let name = r.get_str()?;
        let n = r.get_u32()?;
        let mut hist = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            hist.push(r.get_f32_bits()?);
        }
        entries.push((name, hist));
    }
    Ok(AmaxState {
        history_len,
        entries,
    })
}

impl TrainState {
    /// Look up a meta annotation.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Global step (applied + skipped) — how many batches the data
    /// iterator has consumed.
    pub fn global_step(&self) -> u64 {
        self.counters.steps + self.counters.skipped
    }

    /// Serialize into the checksummed envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut env = Envelope::new();

        let mut w = ByteWriter::new();
        w.put_u32(self.meta.len() as u32);
        for (k, v) in &self.meta {
            w.put_str(k);
            w.put_str(v);
        }
        env.section("meta", &w.into_bytes());

        let mut w = ByteWriter::new();
        let c = &self.counters;
        for v in [
            c.steps,
            c.skipped,
            c.consecutive_skips,
            c.rollbacks,
            c.data_seed,
        ] {
            w.put_u64(v);
        }
        env.section("counters", &w.into_bytes());

        let mut w = ByteWriter::new();
        put_tensors(&mut w, &self.params);
        env.section("params", &w.into_bytes());

        if !self.qparams.is_empty() {
            let mut w = ByteWriter::new();
            w.put_u32(self.qparams.len() as u32);
            for q in &self.qparams {
                w.put_str(&q.name);
                w.put_str(&q.format);
                w.put_u32(q.shape.len() as u32);
                for &d in &q.shape {
                    w.put_u32(d);
                }
                w.put_u32(q.scale_bits);
                w.put_u64(q.codes.len() as u64);
                for &code in &q.codes {
                    w.put_u16(code);
                }
            }
            env.section("qparams", &w.into_bytes());
        }

        let mut w = ByteWriter::new();
        put_opt(&mut w, &self.opt);
        env.section("opt", &w.into_bytes());

        if let Some(s) = &self.scaler {
            let mut w = ByteWriter::new();
            w.put_u32(s.scale_bits);
            w.put_u32(s.growth_bits);
            w.put_u32(s.backoff_bits);
            w.put_u64(s.growth_interval);
            w.put_u32(s.min_bits);
            w.put_u32(s.max_bits);
            w.put_u64(s.good_steps);
            w.put_u64(s.overflows);
            w.put_u64(s.event_capacity);
            w.put_u64(s.events_dropped);
            env.section("scaler", &w.into_bytes());
        }

        let mut w = ByteWriter::new();
        put_amax(&mut w, &self.amax);
        env.section("amax", &w.into_bytes());

        if let Some(snap) = &self.snapshot {
            let mut w = ByteWriter::new();
            put_tensors(&mut w, &snap.params);
            put_opt(&mut w, &snap.opt);
            put_amax(&mut w, &snap.amax);
            w.put_u64(snap.steps);
            env.section("snapshot", &w.into_bytes());
        }

        env.finish()
    }

    /// Parse and fully validate a serialized checkpoint.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`]: integrity failures from the envelope, or
    /// [`CkptError::Malformed`] / [`CkptError::MissingSection`] from the
    /// payload decoders.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let sections = parse_envelope(bytes)?;

        let mut r = ByteReader::new(require_section(&sections, "meta")?);
        let n = r.get_u32()?;
        let mut meta = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let k = r.get_str()?;
            meta.push((k, r.get_str()?));
        }

        let mut r = ByteReader::new(require_section(&sections, "counters")?);
        let counters = Counters {
            steps: r.get_u64()?,
            skipped: r.get_u64()?,
            consecutive_skips: r.get_u64()?,
            rollbacks: r.get_u64()?,
            data_seed: r.get_u64()?,
        };

        let mut r = ByteReader::new(require_section(&sections, "params")?);
        let params = get_tensors(&mut r)?;

        let qparams = match sections.iter().find(|(n, _)| n == "qparams") {
            None => Vec::new(),
            Some((_, payload)) => {
                let mut r = ByteReader::new(payload);
                let count = r.get_u32()?;
                let mut out = Vec::with_capacity(count.min(65_536) as usize);
                for _ in 0..count {
                    let name = r.get_str()?;
                    let format = r.get_str()?;
                    let ndim = r.get_u32()?;
                    let mut shape = Vec::with_capacity(ndim.min(16) as usize);
                    for _ in 0..ndim {
                        shape.push(r.get_u32()?);
                    }
                    let scale_bits = r.get_u32()?;
                    let len = r.get_u64()?;
                    let declared: u64 = shape.iter().map(|&d| d as u64).product();
                    if len != declared {
                        return Err(CkptError::Malformed(format!(
                            "qparam {name:?}: shape implies {declared} codes, payload has {len}"
                        )));
                    }
                    let mut codes = Vec::with_capacity(len.min(1 << 24) as usize);
                    for _ in 0..len {
                        codes.push(r.get_u16()?);
                    }
                    out.push(QuantBlob {
                        name,
                        shape,
                        format,
                        scale_bits,
                        codes,
                    });
                }
                out
            }
        };

        let mut r = ByteReader::new(require_section(&sections, "opt")?);
        let opt = get_opt(&mut r)?;

        let scaler = match sections.iter().find(|(n, _)| n == "scaler") {
            None => None,
            Some((_, payload)) => {
                let mut r = ByteReader::new(payload);
                Some(ScalerState {
                    scale_bits: r.get_u32()?,
                    growth_bits: r.get_u32()?,
                    backoff_bits: r.get_u32()?,
                    growth_interval: r.get_u64()?,
                    min_bits: r.get_u32()?,
                    max_bits: r.get_u32()?,
                    good_steps: r.get_u64()?,
                    overflows: r.get_u64()?,
                    event_capacity: r.get_u64()?,
                    events_dropped: r.get_u64()?,
                })
            }
        };

        let mut r = ByteReader::new(require_section(&sections, "amax")?);
        let amax = get_amax(&mut r)?;

        let snapshot = match sections.iter().find(|(n, _)| n == "snapshot") {
            None => None,
            Some((_, payload)) => {
                let mut r = ByteReader::new(payload);
                Some(SnapshotState {
                    params: get_tensors(&mut r)?,
                    opt: get_opt(&mut r)?,
                    amax: get_amax(&mut r)?,
                    steps: r.get_u64()?,
                })
            }
        };

        Ok(Self {
            meta,
            counters,
            params,
            qparams,
            opt,
            scaler,
            amax,
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainState {
        TrainState {
            meta: vec![
                ("run".into(), "test".into()),
                ("scheme".into(), "posit8".into()),
            ],
            counters: Counters {
                steps: 12,
                skipped: 3,
                consecutive_skips: 1,
                rollbacks: 2,
                data_seed: 0xDEAD_BEEF,
            },
            params: vec![
                TensorBlob::from_f32("w", &[2, 2], &[1.0, -0.0, f32::NAN, 3.5e-12]),
                TensorBlob::from_f32("b", &[2], &[f32::INFINITY, f32::MIN_POSITIVE]),
            ],
            qparams: vec![QuantBlob {
                name: "w".into(),
                shape: vec![2, 2],
                format: "Posit(8,1)".into(),
                scale_bits: 64.0f32.to_bits(),
                codes: vec![0x7F, 0x80, 0x01, 0x00],
            }],
            opt: OptState {
                kind: "adamw".into(),
                scalars: vec![("t".into(), 12), ("lr".into(), 2e-3f32.to_bits() as u64)],
                slots: vec![(
                    "m".into(),
                    vec![TensorBlob::from_f32("w", &[2, 2], &[0.1, 0.2, 0.3, 0.4])],
                )],
            },
            scaler: Some(ScalerState {
                scale_bits: 65536.0f32.to_bits(),
                growth_bits: 2.0f32.to_bits(),
                backoff_bits: 0.5f32.to_bits(),
                growth_interval: 64,
                min_bits: 1.0f32.to_bits(),
                max_bits: f32::MAX.to_bits(),
                good_steps: 7,
                overflows: 2,
                event_capacity: 256,
                events_dropped: 0,
            }),
            amax: AmaxState {
                history_len: 16,
                entries: vec![("w.grad".into(), vec![1e-4, 2e-4, f32::MIN_POSITIVE])],
            },
            snapshot: Some(SnapshotState {
                params: vec![TensorBlob::from_f32("w", &[2, 2], &[1.0; 4])],
                opt: OptState {
                    kind: "adamw".into(),
                    scalars: vec![("t".into(), 10)],
                    slots: vec![],
                },
                amax: AmaxState::default(),
                steps: 10,
            }),
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let state = sample_state();
        let bytes = state.to_bytes();
        let back = TrainState::from_bytes(&bytes).unwrap();
        // PartialEq on bit patterns: NaN-carrying tensors still compare
        // equal because we compare bits, not float values.
        assert_eq!(back, state);
        assert_eq!(back.global_step(), 15);
        assert_eq!(back.meta_value("scheme"), Some("posit8"));
    }

    #[test]
    fn optional_sections_stay_optional() {
        let state = TrainState {
            scaler: None,
            snapshot: None,
            qparams: Vec::new(),
            ..sample_state()
        };
        let back = TrainState::from_bytes(&state.to_bytes()).unwrap();
        assert!(back.scaler.is_none());
        assert!(back.snapshot.is_none());
        assert!(back.qparams.is_empty());
    }

    #[test]
    fn every_bit_flip_detected_on_state() {
        let bytes = sample_state().to_bytes();
        // Sampling stride keeps the test fast; the format test covers
        // exhaustive flips on a smaller envelope.
        for pos in (0..bytes.len() * 8).step_by(7) {
            let mut m = bytes.clone();
            m[pos / 8] ^= 1 << (pos % 8);
            assert!(
                TrainState::from_bytes(&m).is_err(),
                "bit {pos} flipped silently"
            );
        }
    }

    #[test]
    fn shape_length_mismatch_rejected() {
        // Hand-build a params section whose shape disagrees with the
        // element count — structural validation must catch it even though
        // the CRCs are valid.
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_str("w");
        w.put_u32(1);
        w.put_u32(3); // shape [3]
        w.put_u64(2); // but 2 elements
        w.put_u32(0);
        w.put_u32(0);
        let mut env = Envelope::new();
        env.section("meta", &{
            let mut m = ByteWriter::new();
            m.put_u32(0);
            m.into_bytes()
        });
        env.section("counters", &{
            let mut c = ByteWriter::new();
            for _ in 0..5 {
                c.put_u64(0);
            }
            c.into_bytes()
        });
        env.section("params", &w.into_bytes());
        let bytes = env.finish();
        assert!(matches!(
            TrainState::from_bytes(&bytes),
            Err(CkptError::Malformed(_))
        ));
    }
}
