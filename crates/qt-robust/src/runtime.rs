//! Runtime fault sources: per-request weight corruption for a serving
//! loop.
//!
//! The campaigns in [`crate::campaign`] attack a model offline, cell by
//! cell. A serving runtime needs the same physics *online*: every request
//! reads the weights out of (simulated) edge SRAM, and each read is an
//! independent opportunity for an upset. A [`FaultSource`] answers "what
//! does request `r`, attempt `a` see?" — deterministically, from seeds
//! mixed per (request, attempt) with the same SplitMix64 discipline as
//! [`crate::campaign::cell_seed`], so a serving trace replays exactly and
//! is independent of the order requests are processed in.

use crate::campaign::{apply_model_flips, cell_seed, draw_model_flips};
use crate::inject::{BitFlipInjector, CodeFormat, InjectionReport};
use qt_transformer::Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic source of per-request weight corruption.
///
/// Implementations derive all randomness from `(request_id, attempt)`,
/// never from shared mutable state, so the same request always sees the
/// same faults regardless of scheduling — the property the serving
/// chaos tests lean on.
pub trait FaultSource {
    /// The faulted view of `model` that attempt `attempt` of request
    /// `request_id` reads. `None` means the read was clean — serve the
    /// pristine model without paying for a copy.
    fn corrupt_for_request(
        &self,
        model: &Model,
        request_id: u64,
        attempt: u32,
    ) -> Option<(Model, InjectionReport)>;

    /// `true` when this source can never inject (lets a serving loop skip
    /// fault bookkeeping entirely).
    fn is_noop(&self) -> bool {
        false
    }
}

/// The healthy-hardware source: never injects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultSource for NoFaults {
    fn corrupt_for_request(
        &self,
        _model: &Model,
        _request_id: u64,
        _attempt: u32,
    ) -> Option<(Model, InjectionReport)> {
        None
    }

    fn is_noop(&self) -> bool {
        true
    }
}

/// Uniform bit-error-rate source: every attempt's weight read flips each
/// stored bit independently with probability `ber`, through the codes of
/// one storage format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerFaultSource {
    seed: u64,
    codec: CodeFormat,
    ber: f64,
}

impl BerFaultSource {
    /// Source injecting at per-bit probability `ber` into `codec`'s
    /// stored codes, all streams derived from `seed`.
    pub fn new(seed: u64, codec: CodeFormat, ber: f64) -> Self {
        Self {
            seed,
            codec,
            ber: ber.clamp(0.0, 1.0),
        }
    }

    /// The per-bit flip probability.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// The storage format whose codes are attacked.
    pub fn codec(&self) -> CodeFormat {
        self.codec
    }

    /// The weight read of attempt `attempt` of request `request_id` at
    /// per-bit rate `ber`, through this source's codec and seed. The flips
    /// are drawn first, and a read that drew none returns `None` before
    /// anything is copied or encoded. A faulted read round-trips every
    /// tensor through the codec.
    fn read(
        &self,
        model: &Model,
        ber: f64,
        request_id: u64,
        attempt: u32,
    ) -> Option<(Model, InjectionReport)> {
        if ber <= 0.0 {
            return None;
        }
        let mut inj = BitFlipInjector::new(request_seed(self.seed, request_id, attempt));
        let flips = draw_model_flips(model, self.codec, ber, &mut inj);
        if flips.iter().all(Vec::is_empty) {
            return None; // clean read: the caller keeps the pristine model
        }
        Some(apply_model_flips(model, self.codec, &flips))
    }
}

impl FaultSource for BerFaultSource {
    fn corrupt_for_request(
        &self,
        model: &Model,
        request_id: u64,
        attempt: u32,
    ) -> Option<(Model, InjectionReport)> {
        self.read(model, self.ber, request_id, attempt)
    }

    fn is_noop(&self) -> bool {
        self.ber <= 0.0
    }
}

/// A [`BerFaultSource`] with a scripted burst: requests whose id falls in
/// `burst` are attacked at `burst_ber` instead of the base rate.
///
/// This is the deterministic stand-in for a transient environmental event
/// (voltage droop, radiation burst) and the tool the breaker tests use to
/// script trip → recover without wall-clock randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstFaultSource {
    base: BerFaultSource,
    burst_ber: f64,
    burst: std::ops::Range<u64>,
}

impl BurstFaultSource {
    /// Source injecting at `burst_ber` for request ids in `burst`, and at
    /// `base`'s rate everywhere else.
    pub fn new(base: BerFaultSource, burst_ber: f64, burst: std::ops::Range<u64>) -> Self {
        Self {
            base,
            burst_ber: burst_ber.clamp(0.0, 1.0),
            burst,
        }
    }
}

impl FaultSource for BurstFaultSource {
    fn corrupt_for_request(
        &self,
        model: &Model,
        request_id: u64,
        attempt: u32,
    ) -> Option<(Model, InjectionReport)> {
        let ber = if self.burst.contains(&request_id) {
            self.burst_ber
        } else {
            self.base.ber
        };
        self.base.read(model, ber, request_id, attempt)
    }

    fn is_noop(&self) -> bool {
        self.base.ber <= 0.0 && (self.burst_ber <= 0.0 || self.burst.is_empty())
    }
}

/// Per-(request, attempt) seed, mixed with the same SplitMix64 recipe as
/// the campaign grid so streams are independent and processing order is
/// irrelevant.
fn request_seed(master: u64, request_id: u64, attempt: u32) -> u64 {
    cell_seed(master, request_id as usize, attempt as usize, 0)
}

/// Soft-error model for *persistent* protected storage.
///
/// The per-request sources above model transient read upsets: each
/// attempt sees its own faulted view and the damage vanishes with the
/// request. ECC-protected storage (qt-shield) needs the complementary
/// physics — upsets that *land and stay* in the resident code planes
/// until a scrubber or repair removes them. This model emits, per
/// (replica, scrub window), the global bit addresses hit across the
/// protected data **and** parity planes.
///
/// The expected hit count per window is `total_bits * ber`; fractional
/// remainders carry over so the long-run rate is exact even when a
/// window expects less than one flip. Each window's draws come from an
/// independent `cell_seed` stream, so campaigns replay bit-for-bit
/// regardless of scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFaultModel {
    seed: u64,
    ber: f64,
    carry: f64,
}

impl StorageFaultModel {
    /// Model upsetting each stored bit with probability `ber` per scrub
    /// window, all streams derived from `seed`.
    pub fn new(seed: u64, ber: f64) -> Self {
        Self {
            seed,
            ber: ber.clamp(0.0, 1.0),
            carry: 0.0,
        }
    }

    /// The per-bit, per-window upset probability.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Bit addresses (in `0..total_bits`) upset during one scrub window.
    /// Draws are with replacement: a bit hit twice flips back, matching
    /// independent physical upsets.
    pub fn window_flips(&mut self, replica: usize, window: u64, total_bits: u64) -> Vec<u64> {
        if self.ber <= 0.0 || total_bits == 0 {
            return Vec::new();
        }
        self.carry += total_bits as f64 * self.ber;
        let n = self.carry as u64;
        self.carry -= n as f64;
        if n == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(cell_seed(self.seed, replica, window as usize, 1));
        (0..n).map(|_| rng.gen_range(0..total_bits)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::ElemFormat;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 1;
        Model::new(cfg, TaskHead::Classify(2), &mut rng)
    }

    fn codec() -> CodeFormat {
        CodeFormat::new(ElemFormat::P8E1).unwrap()
    }

    #[test]
    fn per_request_streams_are_deterministic_and_independent() {
        let model = tiny_model();
        let src = BerFaultSource::new(7, codec(), 1e-2);
        let a = src.corrupt_for_request(&model, 3, 0).unwrap();
        let b = src.corrupt_for_request(&model, 3, 0).unwrap();
        assert_eq!(a.1, b.1, "same (request, attempt) must replay exactly");
        let name = &model.params.names()[0];
        assert_eq!(a.0.params.get(name).data(), b.0.params.get(name).data());
        // A retry of the same request is a fresh read with its own faults.
        let retry = src.corrupt_for_request(&model, 3, 1).unwrap();
        assert_ne!(a.1, retry.1);
        // A different request likewise.
        let other = src.corrupt_for_request(&model, 4, 0).unwrap();
        assert_ne!(a.1, other.1);
    }

    #[test]
    fn zero_ber_and_no_faults_are_noops() {
        let model = tiny_model();
        assert!(NoFaults.is_noop());
        assert!(NoFaults.corrupt_for_request(&model, 0, 0).is_none());
        let src = BerFaultSource::new(1, codec(), 0.0);
        assert!(src.is_noop());
        assert!(src.corrupt_for_request(&model, 0, 0).is_none());
    }

    #[test]
    fn storage_fault_model_is_deterministic_with_exact_rate() {
        let total_bits = 1_000_000u64;
        let mut a = StorageFaultModel::new(11, 2.5e-6);
        let mut b = StorageFaultModel::new(11, 2.5e-6);
        let mut total = 0usize;
        for w in 0..8 {
            let fa = a.window_flips(0, w, total_bits);
            assert_eq!(fa, b.window_flips(0, w, total_bits));
            assert!(fa.iter().all(|&p| p < total_bits));
            total += fa.len();
        }
        // 8 windows * 2.5 expected flips, carry makes the total exact.
        assert_eq!(total, 20);
        // Different replicas draw independent streams.
        let mut c = StorageFaultModel::new(11, 2.5e-6);
        assert_ne!(c.window_flips(1, 0, total_bits), {
            let mut d = StorageFaultModel::new(11, 2.5e-6);
            d.window_flips(0, 0, total_bits)
        });
        // Zero BER is silent.
        let mut z = StorageFaultModel::new(11, 0.0);
        assert!(z.window_flips(0, 0, total_bits).is_empty());
    }

    #[test]
    fn burst_window_escalates_then_subsides() {
        let model = tiny_model();
        // Base rate 0: outside the burst every read is clean.
        let base = BerFaultSource::new(9, codec(), 0.0);
        let src = BurstFaultSource::new(base, 5e-2, 10..20);
        assert!(!src.is_noop());
        assert!(src.corrupt_for_request(&model, 9, 0).is_none());
        assert!(src.corrupt_for_request(&model, 20, 0).is_none());
        let hit = src.corrupt_for_request(&model, 10, 0).unwrap();
        assert!(hit.1.bits_flipped > 0);
        // Inside the window the stream still replays exactly.
        let again = src.corrupt_for_request(&model, 10, 0).unwrap();
        assert_eq!(hit.1, again.1);
    }
}
