//! Gradient scaling (paper §5.1): loss scaling and delayed per-tensor
//! scaling from amax history.
//!
//! Activation gradients are dominated by magnitudes far below what Posit8
//! or FP8 can represent (Figure 10), so they must be rescaled before
//! quantization. A single *loss scale* suffices for most tasks; harder
//! tasks need *per-tensor* factors. Because scaling is fused with the
//! producing operation, the factor must be known before the tensor is
//! materialised: the paper (following NVIDIA's FP8 recipe) predicts this
//! step's amax as the maximum over a short history of past amaxes.

use crate::format::ElemFormat;
use std::collections::HashMap;

/// How gradients are scaled before quantization during training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingMode {
    /// No scaling: small gradients underflow (the failure §5.1 motivates).
    None,
    /// One global factor applied to the loss (and undone on weight grads).
    LossScale(f32),
    /// Delayed per-tensor scaling: each named gradient tensor gets its own
    /// factor from an amax history of the given length.
    PerTensorAmax {
        /// Number of past steps whose amax is remembered per tensor.
        history: usize,
    },
}

impl Default for ScalingMode {
    fn default() -> Self {
        ScalingMode::PerTensorAmax { history: 16 }
    }
}

/// Tracks per-tensor amax history and produces quantization scale factors
/// (delayed scaling).
///
/// # Example
///
/// ```
/// use qt_quant::{AmaxTracker, ElemFormat};
///
/// let mut tr = AmaxTracker::new(4);
/// // First step: no history yet → scale derived from a unit amax.
/// let s0 = tr.scale_for("layer0.grad", ElemFormat::P8E1);
/// tr.record("layer0.grad", 1.5e-4);
/// let s1 = tr.scale_for("layer0.grad", ElemFormat::P8E1);
/// // amax 1.5e-4 should be scaled up toward the posit amax target of 64.
/// assert!(s1 > s0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AmaxTracker {
    history_len: usize,
    history: HashMap<String, Vec<f32>>,
}

impl AmaxTracker {
    /// Tracker remembering `history_len` past amaxes per tensor.
    pub fn new(history_len: usize) -> Self {
        Self {
            history_len: history_len.max(1),
            history: HashMap::new(),
        }
    }

    /// Record the observed amax of tensor `name` for this step.
    /// Non-finite or zero amaxes are ignored (a dead gradient should not
    /// poison the scale prediction).
    pub fn record(&mut self, name: &str, amax: f32) {
        if !amax.is_finite() || amax <= 0.0 {
            return;
        }
        let h = self.history.entry(name.to_string()).or_default();
        h.push(amax);
        let len = h.len();
        if len > self.history_len {
            h.drain(..len - self.history_len);
        }
    }

    /// Predicted amax for this step: the maximum of the recorded history,
    /// or `None` with no history.
    pub fn predicted_amax(&self, name: &str) -> Option<f32> {
        self.history.get(name)?.iter().copied().reduce(f32::max)
    }

    /// Power-of-two scale factor mapping the predicted amax onto the
    /// format's amax target (§5.1). With no history the scale is derived
    /// from an assumed amax of 1.
    ///
    /// Powers of two keep the scaling exact (a pure exponent-bias shift in
    /// hardware, no precision loss in the carrier).
    pub fn scale_for(&self, name: &str, format: ElemFormat) -> f32 {
        let amax = self.predicted_amax(name).unwrap_or(1.0);
        Self::scale_from_amax(amax, format)
    }

    /// The scale used for a known amax (see [`AmaxTracker::scale_for`]).
    pub fn scale_from_amax(amax: f32, format: ElemFormat) -> f32 {
        let target = format.amax_target();
        let raw = target / amax.max(f32::MIN_POSITIVE) as f64;
        // round down to a power of two so amax never exceeds the target
        let e = libm::floor(libm::log2(raw)) as i32;
        libm::ldexp(1.0, e.clamp(-126, 126)) as f32
    }

    /// Forget one tensor's history (e.g. after a rollback invalidated it).
    pub fn flush(&mut self, name: &str) {
        self.history.remove(name);
    }

    /// Forget every tensor whose history window no longer predicts a
    /// usable scale. With [`AmaxTracker::record`] rejecting non-finite
    /// amaxes this is a belt-and-braces sweep used after a training
    /// rollback: any entry that somehow went non-finite or non-positive
    /// is dropped so the next scale is re-derived from scratch.
    pub fn flush_poisoned(&mut self) -> usize {
        let before = self.history.len();
        self.history
            .retain(|_, h| h.iter().all(|a| a.is_finite() && *a > 0.0));
        before - self.history.len()
    }

    /// Forget all history (e.g. between runs).
    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// The history window length this tracker was built with.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Export every tensor's history, sorted by name — a deterministic
    /// form suitable for checkpointing.
    pub fn export_history(&self) -> Vec<(String, Vec<f32>)> {
        let mut v: Vec<(String, Vec<f32>)> = self
            .history
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Rebuild a tracker from exported state (the inverse of
    /// [`AmaxTracker::export_history`]).
    pub fn import_history(
        history_len: usize,
        entries: impl IntoIterator<Item = (String, Vec<f32>)>,
    ) -> Self {
        Self {
            history_len: history_len.max(1),
            history: entries.into_iter().collect(),
        }
    }

    /// Number of tensors currently tracked.
    pub fn tracked(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_bounded_and_max_wins() {
        let mut tr = AmaxTracker::new(3);
        for a in [1.0, 8.0, 2.0, 4.0] {
            tr.record("t", a);
        }
        // window is the last 3 entries: 8 was evicted? No: [8,2,4] after
        // drain → max 8 evicted when the 4th arrives: history [8,2,4]→len 4
        // exceeds 3 → drop the oldest (1.0 first, then 8 stays)...
        assert_eq!(tr.predicted_amax("t"), Some(8.0));
        tr.record("t", 0.5);
        // now window [2,4,0.5] → 8 has aged out
        assert_eq!(tr.predicted_amax("t"), Some(4.0));
    }

    #[test]
    fn zero_and_nan_amaxes_ignored() {
        let mut tr = AmaxTracker::new(4);
        tr.record("t", 0.0);
        tr.record("t", f32::NAN);
        assert_eq!(tr.predicted_amax("t"), None);
        tr.record("t", 2.0);
        assert_eq!(tr.predicted_amax("t"), Some(2.0));
    }

    #[test]
    fn scale_hits_target_window() {
        // amax * scale must land in (target/2, target].
        for fmt in [ElemFormat::P8E1, ElemFormat::E5M2, ElemFormat::E4M3] {
            for amax in [1e-7f32, 3e-4, 0.11, 5.0, 300.0] {
                let s = AmaxTracker::scale_from_amax(amax, fmt);
                let scaled = (amax as f64) * (s as f64);
                let target = fmt.amax_target();
                assert!(
                    scaled <= target && scaled > target / 2.0,
                    "{fmt:?} amax={amax} scale={s} scaled={scaled}"
                );
                // power of two
                assert_eq!(s.log2().fract(), 0.0);
            }
        }
    }

    #[test]
    fn posit_scales_to_64_not_maxpos() {
        let s = AmaxTracker::scale_from_amax(1.0, ElemFormat::P8E1);
        assert_eq!(s, 64.0); // not 4096
        let s = AmaxTracker::scale_from_amax(1.0, ElemFormat::E5M2);
        assert_eq!(s, 32768.0); // 57344 rounded down to 2^15
    }

    #[test]
    fn empty_history_uses_unit_amax() {
        let tr = AmaxTracker::new(4);
        assert_eq!(tr.predicted_amax("never-seen"), None);
        // No history → scale derived from amax = 1.
        assert_eq!(
            tr.scale_for("never-seen", ElemFormat::P8E1),
            AmaxTracker::scale_from_amax(1.0, ElemFormat::P8E1)
        );
    }

    #[test]
    fn flush_forgets_one_tensor() {
        let mut tr = AmaxTracker::new(4);
        tr.record("a", 2.0);
        tr.record("b", 4.0);
        tr.flush("a");
        assert_eq!(tr.predicted_amax("a"), None);
        assert_eq!(tr.predicted_amax("b"), Some(4.0));
    }

    #[test]
    fn flush_poisoned_drops_bad_entries() {
        let mut tr = AmaxTracker::new(4);
        tr.record("good", 2.0);
        // Poison the history behind record()'s guard to model corruption.
        tr.history.insert("bad".into(), vec![1.0, f32::NAN]);
        tr.history.insert("dead".into(), vec![0.0]);
        assert_eq!(tr.flush_poisoned(), 2);
        assert_eq!(tr.tracked(), 1);
        assert_eq!(tr.predicted_amax("good"), Some(2.0));
    }

    #[test]
    fn export_import_roundtrip_preserves_predictions() {
        let mut tr = AmaxTracker::new(3);
        tr.record("b", 4.0);
        tr.record("a", 1.0);
        tr.record("a", 2.0);
        let exported = tr.export_history();
        // Sorted by name, regardless of insertion order.
        assert_eq!(exported[0].0, "a");
        assert_eq!(exported[1].0, "b");
        let back = AmaxTracker::import_history(tr.history_len(), exported);
        assert_eq!(back.history_len(), 3);
        assert_eq!(back.predicted_amax("a"), tr.predicted_amax("a"));
        assert_eq!(back.predicted_amax("b"), tr.predicted_amax("b"));
        assert_eq!(back.tracked(), tr.tracked());
    }

    #[test]
    fn independent_tensors() {
        let mut tr = AmaxTracker::new(2);
        tr.record("a", 1.0);
        tr.record("b", 100.0);
        assert!(tr.scale_for("a", ElemFormat::P8E1) > tr.scale_for("b", ElemFormat::P8E1));
        assert_eq!(tr.tracked(), 2);
        tr.reset();
        assert_eq!(tr.tracked(), 0);
    }
}
