//! Deterministic, seeded bit-flip injection into 8-/16-bit element codes.
//!
//! Models SRAM soft errors in a deployed edge accelerator (paper §6's
//! 40 nm device): each stored weight/activation word is a short bit code
//! of the element format, and a single-event upset flips individual bits.
//! The injector operates on the *encoded* representation — a flip lands
//! in regime/exponent/fraction bits of a posit or the exponent/mantissa
//! of an FP8 value, with wildly format-dependent consequences (that
//! asymmetry is what the Table 9 campaign measures).

use qt_quant::ElemFormat;
use qt_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Encode/decode between `f32` and a format's stored bit code.
///
/// This is the storage view of [`ElemFormat`]: `encode` rounds onto the
/// grid and yields the word actually held in SRAM; `decode` is what the
/// datapath reads back after a (possibly corrupted) fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeFormat {
    format: ElemFormat,
}

impl CodeFormat {
    /// Storage codec for a format.
    ///
    /// Every 8-, 9- and 16-bit format is supported; `Fp32` is not a
    /// storage format in the accelerator and returns `None`.
    pub fn new(format: ElemFormat) -> Option<Self> {
        match format {
            ElemFormat::Fp32 => None,
            _ => Some(Self { format }),
        }
    }

    /// The underlying element format.
    pub fn format(self) -> ElemFormat {
        self.format
    }

    /// Width of the stored code in bits.
    pub fn bits(self) -> u32 {
        self.format.bits()
    }

    /// Round to the grid and return the stored code.
    ///
    /// Delegates to [`ElemFormat::encode_code`] — the same codec the
    /// checkpoint `qparams` section uses, so corruption campaigns exercise
    /// exactly the bits that reach persistent storage.
    pub fn encode(self, x: f32) -> u16 {
        self.format
            .encode_code(x)
            .expect("CodeFormat excludes Fp32")
    }

    /// Decode a stored code back to the value the datapath computes with.
    /// Exception codes decode to NaN (posit NaR, FP8 NaN) or ±∞ (E5M2).
    pub fn decode(self, code: u16) -> f32 {
        self.format
            .decode_code(code)
            .expect("CodeFormat excludes Fp32")
    }

    /// `true` when a decoded code is an exception value a cheap hardware
    /// checker flags for free (NaR / NaN / ±∞).
    pub fn is_detectable(self, code: u16) -> bool {
        !self.decode(code).is_finite()
    }
}

/// Position of one flip inside a code buffer, as drawn by
/// [`BitFlipInjector`] before it is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlipPos {
    /// Index of the hit word (element) in the buffer.
    pub word: usize,
    /// Flipped bit within the stored code.
    pub bit: u8,
}

/// What one injection pass did to a buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Words (elements) in the buffer.
    pub elements: u64,
    /// Individual bits flipped.
    pub bits_flipped: u64,
    /// Distinct words that received at least one flip.
    pub words_hit: u64,
    /// Corrupted words that decode to NaR/NaN/±∞ — the corruption a
    /// zero-cost exception checker detects at read time.
    pub detectable: u64,
}

impl InjectionReport {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: &InjectionReport) {
        self.elements += other.elements;
        self.bits_flipped += other.bits_flipped;
        self.words_hit += other.words_hit;
        self.detectable += other.detectable;
    }

    /// Fraction of hit words that decode to an exception value.
    pub fn detection_rate(&self) -> f64 {
        if self.words_hit == 0 {
            return 0.0;
        }
        self.detectable as f64 / self.words_hit as f64
    }
}

/// Seeded bit-flip injector over encoded tensors.
///
/// Every corruption is two steps: the injector draws the flip positions,
/// which needs only the buffer's length and code width, then the flips
/// are applied to the stored codes. Deterministic: the same seed and call
/// sequence produce identical corruption, so campaigns are reproducible
/// run-to-run.
#[derive(Debug, Clone)]
pub struct BitFlipInjector {
    rng: StdRng,
}

impl BitFlipInjector {
    /// Injector with an explicit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw the flips of a pass over `words` codes of `bits` bits each,
    /// flipping every bit independently with probability `rate`. One
    /// `gen_bool(rate)` per bit, word by word and bit by bit, so the RNG
    /// stream depends only on the buffer's shape, and the positions come
    /// out sorted by word.
    pub(crate) fn draw(&mut self, words: usize, bits: u32, rate: f64) -> Vec<FlipPos> {
        let mut flips = Vec::new();
        for word in 0..words {
            for bit in 0..bits {
                if self.rng.gen_bool(rate) {
                    flips.push(FlipPos {
                        word,
                        bit: bit as u8,
                    });
                }
            }
        }
        flips
    }

    /// Flip each bit of a raw byte buffer independently with probability
    /// `rate`. Returns the number of bits flipped.
    ///
    /// This is the *storage-medium* corruption model for serialized
    /// checkpoints: upsets land anywhere in the file — header, section
    /// payloads, CRC trailers — and the loader's integrity checks, not an
    /// exception decoder, are what must catch them.
    pub fn corrupt_bytes(&mut self, bytes: &mut [u8], rate: f64) -> u64 {
        let flips = self.draw(bytes.len(), 8, rate);
        for f in &flips {
            bytes[f.word] ^= 1 << f.bit;
        }
        flips.len() as u64
    }

    /// Encode a tensor into `codec`'s storage codes, flip bits at `rate`,
    /// decode back. Returns the corrupted tensor and the report.
    pub fn corrupt_tensor(
        &mut self,
        t: &Tensor,
        codec: CodeFormat,
        rate: f64,
    ) -> (Tensor, InjectionReport) {
        let flips = self.draw(t.len(), codec.bits(), rate);
        apply_flips(t, codec, &flips)
    }
}

/// Encode `t` into `codec`'s storage codes, apply drawn `flips` (sorted
/// by word, as [`BitFlipInjector`] draws them), and decode back. Every
/// element round-trips through the codec, flipped or not.
pub(crate) fn apply_flips(
    t: &Tensor,
    codec: CodeFormat,
    flips: &[FlipPos],
) -> (Tensor, InjectionReport) {
    let mut codes: Vec<u16> = t.data().iter().map(|&x| codec.encode(x)).collect();
    for f in flips {
        codes[f.word] ^= 1 << f.bit;
    }
    let mut report = InjectionReport {
        elements: codes.len() as u64,
        bits_flipped: flips.len() as u64,
        ..Default::default()
    };
    let mut last = None;
    for f in flips {
        if last != Some(f.word) {
            last = Some(f.word);
            report.words_hit += 1;
            if codec.is_detectable(codes[f.word]) {
                report.detectable += 1;
            }
        }
    }
    let data = codes.iter().map(|&c| codec.decode(c)).collect();
    (Tensor::from_vec(data, t.shape()), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_without_faults() {
        for fmt in [ElemFormat::P8E1, ElemFormat::E4M3, ElemFormat::E5M2] {
            let codec = CodeFormat::new(fmt).unwrap();
            for x in [0.0f32, 1.0, -2.5, 0.00042, 300.0] {
                let grid = fmt.quantize_scalar(x);
                assert_eq!(codec.decode(codec.encode(x)), grid, "{fmt:?} {x}");
            }
        }
    }

    #[test]
    fn fp32_is_not_a_storage_format() {
        assert!(CodeFormat::new(ElemFormat::Fp32).is_none());
    }

    #[test]
    fn zero_rate_is_identity() {
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let t = Tensor::from_vec(vec![1.0, -0.5, 0.25], &[3]);
        let mut inj = BitFlipInjector::new(1);
        let (c, r) = inj.corrupt_tensor(&t, codec, 0.0);
        assert_eq!(c.data(), &[1.0, -0.5, 0.25]);
        assert_eq!(r.bits_flipped, 0);
        assert_eq!(r.words_hit, 0);
    }

    #[test]
    fn same_seed_same_corruption() {
        let codec = CodeFormat::new(ElemFormat::E4M3).unwrap();
        let t = Tensor::from_vec((0..256).map(|i| i as f32 * 0.1 - 12.0).collect(), &[256]);
        let run = || {
            let mut inj = BitFlipInjector::new(99);
            inj.corrupt_tensor(&t, codec, 0.05)
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a.data(), b.data());
        assert_eq!(ra, rb);
        assert!(ra.bits_flipped > 0);
    }

    #[test]
    fn logged_positions_match_actual_flips() {
        let codec = CodeFormat::new(ElemFormat::E4M3).unwrap();
        let t = Tensor::from_vec((0..512).map(|i| i as f32 * 0.03 - 7.0).collect(), &[512]);
        let flips = BitFlipInjector::new(42).draw(t.len(), codec.bits(), 0.01);
        assert!(!flips.is_empty());
        assert!(flips.windows(2).all(|w| w[0].word <= w[1].word));
        let (corrupted, report) = apply_flips(&t, codec, &flips);
        assert_eq!(report.bits_flipped, flips.len() as u64);
        // The corrupted tensor decodes exactly the flipped codes.
        let mut codes: Vec<u16> = t.data().iter().map(|&x| codec.encode(x)).collect();
        for f in &flips {
            codes[f.word] ^= 1 << f.bit;
        }
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|x| x.to_bits()).collect() };
        let decoded: Vec<u32> = codes.iter().map(|&c| codec.decode(c).to_bits()).collect();
        assert_eq!(bits(&corrupted), decoded);
        let mut words: Vec<usize> = flips.iter().map(|f| f.word).collect();
        words.dedup();
        assert_eq!(report.words_hit, words.len() as u64);
        // corrupt_tensor is the same draw, then the same apply.
        let (c2, r2) = BitFlipInjector::new(42).corrupt_tensor(&t, codec, 0.01);
        assert_eq!(r2, report);
        assert_eq!(bits(&c2), bits(&corrupted));
    }

    #[test]
    fn posit_sign_bit_flip_of_zero_is_nar() {
        // Flipping the MSB of the zero code (0x00) yields 0x80 = NaR: the
        // single most damaging posit upset is also the most detectable.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let code = codec.encode(0.0) ^ 0x80;
        assert!(codec.is_detectable(code));
        assert!(codec.decode(code).is_nan());
    }

    #[test]
    fn e5m2_exponent_flip_can_reach_infinity() {
        // 57344 (maxpos) with its top exponent bit pattern corrupted to
        // all-ones exponent decodes to ±∞/NaN — detectable.
        let codec = CodeFormat::new(ElemFormat::E5M2).unwrap();
        let detectable = (0u16..256).any(|c| codec.is_detectable(c));
        assert!(detectable);
    }
}
