//! Numerical guards for quantization: what to do with non-finite inputs,
//! and per-tensor health counters.
//!
//! Fake quantization silently converts "out of range" into "wrong": a
//! saturated activation or a flushed gradient looks like any other value
//! downstream. On an edge device there is no debugger attached, so the
//! quantizer itself has to keep the books — every cut counts how many
//! elements saturated, underflowed to zero, or arrived/left non-finite,
//! and [`NonFinitePolicy`] decides whether NaN/±∞ inputs propagate,
//! clamp, or zero.

use std::fmt;

/// What [`crate::FakeQuant`] does with a non-finite input (NaN or ±∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonFinitePolicy {
    /// Pass NaN through, saturate ±∞ (the seed behaviour; what real
    /// hardware without an exception checker does).
    #[default]
    Propagate,
    /// Clamp to the format's largest finite magnitude: ±∞ → ±max,
    /// NaN → +max. Keeps the datapath finite at the cost of silently
    /// injecting a large value.
    Saturate,
    /// Replace every non-finite input with 0 — the conservative choice
    /// when a poisoned element should contribute nothing downstream.
    Zero,
}

/// Per-tensor numerical health of one quantization pass.
///
/// Accumulated by [`crate::FakeQuant::quantize_with_health`] and merged
/// per cut site by the transformer's quantization context, so an
/// inference run can report, per layer, how hard each tensor pressed
/// against the format's range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TensorHealth {
    /// Elements examined.
    pub elements: u64,
    /// Finite inputs whose magnitude exceeded the format's maximum and
    /// were clamped onto the grid edge.
    pub saturated: u64,
    /// Finite non-zero inputs that quantized to exactly zero (flushed).
    pub underflowed: u64,
    /// Inputs that were already NaN or ±∞ before quantization.
    pub nonfinite_in: u64,
    /// Outputs that left the quantizer non-finite (NaN/NaR propagated
    /// through, or ±∞ emitted by a float format).
    pub nonfinite_out: u64,
}

impl TensorHealth {
    /// Fold another pass's counters into this one.
    pub fn merge(&mut self, other: &TensorHealth) {
        self.elements += other.elements;
        self.saturated += other.saturated;
        self.underflowed += other.underflowed;
        self.nonfinite_in += other.nonfinite_in;
        self.nonfinite_out += other.nonfinite_out;
    }

    /// Fraction of elements clamped at the range edge.
    pub fn saturation_rate(&self) -> f64 {
        self.rate(self.saturated)
    }

    /// Fraction of elements flushed to zero.
    pub fn underflow_rate(&self) -> f64 {
        self.rate(self.underflowed)
    }

    /// Fraction of inputs that were non-finite.
    pub fn nonfinite_rate(&self) -> f64 {
        self.rate(self.nonfinite_in)
    }

    /// `true` when every element passed through without saturation,
    /// underflow, or a non-finite encounter.
    pub fn is_clean(&self) -> bool {
        self.saturated == 0
            && self.underflowed == 0
            && self.nonfinite_in == 0
            && self.nonfinite_out == 0
    }

    fn rate(&self, n: u64) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            n as f64 / self.elements as f64
        }
    }
}

impl fmt::Display for TensorHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} elems: {:.3}% sat, {:.3}% uflow, {} NaN-in, {} NaN-out",
            self.elements,
            100.0 * self.saturation_rate(),
            100.0 * self.underflow_rate(),
            self.nonfinite_in,
            self.nonfinite_out
        )
    }
}

/// Sliding window over the last N per-request [`TensorHealth`] outcomes.
///
/// A single unhealthy forward pass says little — one NaN can be a stray
/// upset — but *rates* over a recent window are what a serving runtime's
/// circuit breaker needs: "did the non-finite rate of the posit8 path
/// exceed threshold over the last 32 requests?". The window is a fixed-
/// capacity ring; pushing the N+1-th outcome evicts the oldest, and the
/// aggregate counters always describe exactly the retained entries.
#[derive(Debug, Clone)]
pub struct HealthWindow {
    cap: usize,
    entries: std::collections::VecDeque<TensorHealth>,
    /// Retained entries with any non-finite traffic (in or out).
    unhealthy: usize,
}

impl HealthWindow {
    /// Window retaining the most recent `cap` outcomes (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            entries: std::collections::VecDeque::with_capacity(cap),
            unhealthy: 0,
        }
    }

    /// `true` when `h` carries non-finite traffic — the outcome class the
    /// breaker counts against the 8-bit path.
    pub fn is_unhealthy(h: &TensorHealth) -> bool {
        h.nonfinite_in > 0 || h.nonfinite_out > 0
    }

    /// Record one request's aggregate health, evicting the oldest entry
    /// when full. Returns whether this outcome counted as unhealthy.
    pub fn push(&mut self, h: TensorHealth) -> bool {
        if self.entries.len() == self.cap {
            if let Some(old) = self.entries.pop_front() {
                if Self::is_unhealthy(&old) {
                    self.unhealthy -= 1;
                }
            }
        }
        let bad = Self::is_unhealthy(&h);
        if bad {
            self.unhealthy += 1;
        }
        self.entries.push_back(h);
        bad
    }

    /// Outcomes currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no outcome has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// `true` once the window holds `capacity` outcomes.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.cap
    }

    /// Retained outcomes with non-finite traffic.
    pub fn unhealthy_count(&self) -> usize {
        self.unhealthy
    }

    /// Fraction of retained outcomes that were unhealthy (0 when empty).
    pub fn unhealthy_rate(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.unhealthy as f64 / self.entries.len() as f64
        }
    }

    /// Element-level counters folded over the retained outcomes.
    pub fn total(&self) -> TensorHealth {
        let mut t = TensorHealth::default();
        for h in &self.entries {
            t.merge(h);
        }
        t
    }

    /// Drop every retained outcome (e.g. when a breaker closes again, so
    /// stale fault history cannot re-trip it).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.unhealthy = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = TensorHealth {
            elements: 10,
            saturated: 1,
            underflowed: 2,
            nonfinite_in: 3,
            nonfinite_out: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.elements, 20);
        assert_eq!(a.saturated, 2);
        assert_eq!(a.underflowed, 4);
        assert_eq!(a.nonfinite_in, 6);
        assert_eq!(a.nonfinite_out, 8);
        assert!(!a.is_clean());
    }

    #[test]
    fn rates_handle_empty() {
        let h = TensorHealth::default();
        assert_eq!(h.saturation_rate(), 0.0);
        assert_eq!(h.underflow_rate(), 0.0);
        assert_eq!(h.nonfinite_rate(), 0.0);
        assert!(h.is_clean());
    }

    #[test]
    fn health_window_evicts_and_tracks_rates() {
        let clean = TensorHealth {
            elements: 10,
            ..TensorHealth::default()
        };
        let bad = TensorHealth {
            elements: 10,
            nonfinite_out: 2,
            ..TensorHealth::default()
        };
        let mut w = HealthWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.unhealthy_rate(), 0.0);
        assert!(!w.push(clean));
        assert!(w.push(bad));
        assert!(w.push(bad));
        assert!(w.is_full());
        assert_eq!(w.unhealthy_count(), 2);
        assert!((w.unhealthy_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.total().elements, 30);
        // Eviction drops the oldest (clean) entry: rate goes to 1.
        w.push(bad);
        assert_eq!(w.len(), 3);
        assert_eq!(w.unhealthy_count(), 3);
        assert_eq!(w.unhealthy_rate(), 1.0);
        // Evicting an unhealthy entry decrements the count.
        w.push(clean);
        assert_eq!(w.unhealthy_count(), 2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.unhealthy_count(), 0);
    }

    #[test]
    fn health_window_capacity_floor_is_one() {
        let mut w = HealthWindow::new(0);
        assert_eq!(w.capacity(), 1);
        w.push(TensorHealth::default());
        w.push(TensorHealth::default());
        assert_eq!(w.len(), 1);
    }
}
