//! AMP-style dynamic loss scaling.
//!
//! A static loss scale (§5.1) has to be guessed, and a wrong guess is
//! fatal in both directions: too small and activation gradients underflow
//! the 8-bit format, too large and the backward pass overflows to ±∞ and
//! every step is skipped. The dynamic scaler starts high and lets the run
//! find the ceiling itself: each overflow backs the scale off, and after
//! a window of clean steps it grows back, tracking the largest scale the
//! current loss landscape tolerates.

/// A scale adjustment the scaler made, kept in an internal log so
/// telemetry (the `Trainer`, a trace session) can replay exactly when
/// and how the scale moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalerEvent {
    /// The scale grew after a clean-step window.
    Grow {
        /// Scale before growing.
        from: f32,
        /// Scale after growing.
        to: f32,
    },
    /// The scale backed off on overflow.
    Backoff {
        /// Scale before backoff.
        from: f32,
        /// Scale after backoff.
        to: f32,
    },
}

/// Default bound on the retained event log (see
/// [`LossScaler::with_event_capacity`]).
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Dynamic loss-scale state machine (the GradScaler recipe).
#[derive(Debug, Clone)]
pub struct LossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: usize,
    min_scale: f32,
    max_scale: f32,
    good_steps: usize,
    overflows: usize,
    events: Vec<ScalerEvent>,
    event_capacity: usize,
    events_dropped: u64,
    dropped_since_drain: u64,
}

impl LossScaler {
    /// Scaler starting at `initial`, growing 2× after 64 clean steps and
    /// halving on every overflow, bounded to `[1, 2^24]` by default.
    pub fn new(initial: f32) -> Self {
        Self {
            scale: initial,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 64,
            min_scale: 1.0,
            max_scale: f32::MAX,
            good_steps: 0,
            overflows: 0,
            events: Vec::new(),
            event_capacity: DEFAULT_EVENT_CAPACITY,
            events_dropped: 0,
            dropped_since_drain: 0,
        }
    }

    /// Override the growth factor and the number of consecutive clean
    /// steps required before growing.
    pub fn with_growth(mut self, factor: f32, interval: usize) -> Self {
        self.growth_factor = factor.max(1.0);
        self.growth_interval = interval.max(1);
        self
    }

    /// Override the backoff factor applied on overflow (must be `< 1`).
    pub fn with_backoff(mut self, factor: f32) -> Self {
        self.backoff_factor = factor.clamp(f32::MIN_POSITIVE, 0.999_999);
        self
    }

    /// Bound the retained event log to `capacity` entries (minimum 1).
    ///
    /// The log is a ring: when a new event would exceed the capacity the
    /// oldest entry is dropped and counted in
    /// [`LossScaler::events_dropped`]. An unconsumed log can otherwise
    /// grow without bound over a long run — a scaler oscillating at its
    /// backoff floor emits an event *every step*, and a run that never
    /// attaches telemetry would leak them all.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity.max(1);
        let len = self.events.len();
        if len > self.event_capacity {
            self.events.drain(..len - self.event_capacity);
            self.events_dropped += (len - self.event_capacity) as u64;
            self.dropped_since_drain += (len - self.event_capacity) as u64;
        }
        self
    }

    /// Clamp every subsequent scale adjustment to `[min, max]`.
    ///
    /// The *initial* scale is deliberately left unclamped: the standard
    /// warm-start is an initial scale far above the ceiling, which
    /// overflows once and is pulled into range by the first backoff.
    pub fn with_bounds(mut self, min: f32, max: f32) -> Self {
        self.min_scale = min;
        self.max_scale = max;
        self
    }

    /// The scale to apply to the next step's loss.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Overflow events seen so far.
    pub fn overflows(&self) -> usize {
        self.overflows
    }

    /// Scale adjustments made so far, in order.
    pub fn events(&self) -> &[ScalerEvent] {
        &self.events
    }

    /// Events evicted from the bounded log before being consumed.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Drain the event log (telemetry consumers call this each step so
    /// every adjustment is reported exactly once). Discards the
    /// dropped-since-last-drain count; use [`LossScaler::drain_events`]
    /// when the consumer wants to report evictions too.
    pub fn take_events(&mut self) -> Vec<ScalerEvent> {
        self.drain_events().0
    }

    /// Drain the event log along with the number of events evicted from
    /// the ring *since the previous drain* — the count a telemetry
    /// consumer must surface so ring overflow between two drains is
    /// visible rather than silent. The cumulative
    /// [`LossScaler::events_dropped`] counter is unaffected.
    pub fn drain_events(&mut self) -> (Vec<ScalerEvent>, u64) {
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.dropped_since_drain),
        )
    }

    fn push_event(&mut self, ev: ScalerEvent) {
        if self.events.len() >= self.event_capacity {
            let excess = self.events.len() + 1 - self.event_capacity;
            self.events.drain(..excess);
            self.events_dropped += excess as u64;
            self.dropped_since_drain += excess as u64;
        }
        self.events.push(ev);
    }

    /// Record a step whose gradients were finite. Grows the scale after
    /// `growth_interval` consecutive clean steps.
    pub fn on_clean_step(&mut self) {
        self.good_steps += 1;
        if self.good_steps >= self.growth_interval {
            let from = self.scale;
            self.scale = (self.scale * self.growth_factor).min(self.max_scale);
            self.good_steps = 0;
            if self.scale != from {
                self.push_event(ScalerEvent::Grow {
                    from,
                    to: self.scale,
                });
            }
        }
    }

    /// Record an overflow (non-finite loss or gradients): back the scale
    /// off and restart the clean-step count. A non-finite scale (a
    /// mis-specified `initial`, or state corrupted by fault injection) is
    /// first pulled back to the finite ceiling so backoff can make
    /// progress.
    pub fn on_overflow(&mut self) {
        let from = self.scale;
        let base = if self.scale.is_finite() {
            self.scale
        } else {
            f32::MAX
        };
        self.scale = (base * self.backoff_factor).clamp(self.min_scale, self.max_scale);
        self.good_steps = 0;
        self.overflows += 1;
        self.push_event(ScalerEvent::Backoff {
            from,
            to: self.scale,
        });
    }

    /// Capture the full state machine for checkpointing, exact to the bit.
    ///
    /// Pending log entries are *not* part of the state: the `Trainer`
    /// drains them into the trace at every step boundary, so at a
    /// checkpoint the log is empty in the steady state — and the log never
    /// influences the scale trajectory anyway.
    pub fn to_ckpt(&self) -> qt_ckpt::ScalerState {
        qt_ckpt::ScalerState {
            scale_bits: self.scale.to_bits(),
            growth_bits: self.growth_factor.to_bits(),
            backoff_bits: self.backoff_factor.to_bits(),
            growth_interval: self.growth_interval as u64,
            min_bits: self.min_scale.to_bits(),
            max_bits: self.max_scale.to_bits(),
            good_steps: self.good_steps as u64,
            overflows: self.overflows as u64,
            event_capacity: self.event_capacity as u64,
            events_dropped: self.events_dropped,
        }
    }

    /// Rebuild a scaler from checkpointed state (inverse of
    /// [`LossScaler::to_ckpt`]; the event log restarts empty).
    pub fn from_ckpt(s: &qt_ckpt::ScalerState) -> Self {
        Self {
            scale: f32::from_bits(s.scale_bits),
            growth_factor: f32::from_bits(s.growth_bits),
            backoff_factor: f32::from_bits(s.backoff_bits),
            growth_interval: s.growth_interval.max(1) as usize,
            min_scale: f32::from_bits(s.min_bits),
            max_scale: f32::from_bits(s.max_bits),
            good_steps: s.good_steps as usize,
            overflows: s.overflows as usize,
            events: Vec::new(),
            event_capacity: (s.event_capacity as usize).max(1),
            events_dropped: s.events_dropped,
            dropped_since_drain: 0,
        }
    }
}

impl Default for LossScaler {
    fn default() -> Self {
        Self::new(65536.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_after_interval_of_clean_steps() {
        let mut s = LossScaler::new(1024.0).with_growth(2.0, 4);
        for _ in 0..3 {
            s.on_clean_step();
        }
        assert_eq!(s.scale(), 1024.0);
        s.on_clean_step();
        assert_eq!(s.scale(), 2048.0);
    }

    #[test]
    fn overflow_backs_off_and_resets_streak() {
        let mut s = LossScaler::new(1024.0).with_growth(2.0, 2);
        s.on_clean_step();
        s.on_overflow();
        assert_eq!(s.scale(), 512.0);
        assert_eq!(s.overflows(), 1);
        // The streak restarted: one clean step must not grow.
        s.on_clean_step();
        assert_eq!(s.scale(), 512.0);
        s.on_clean_step();
        assert_eq!(s.scale(), 1024.0);
    }

    #[test]
    fn infinite_scale_recovers_on_first_overflow() {
        let mut s = LossScaler::new(f32::INFINITY);
        assert!(!s.scale().is_finite());
        s.on_overflow();
        assert!(s.scale().is_finite());
        assert!(s.scale() > 0.0);
    }

    #[test]
    fn scripted_overflow_pattern_yields_exact_event_sequence() {
        // Script: 2 clean (grow), overflow (backoff), 1 clean (no event:
        // streak restarted), 1 clean (grow), overflow at the min bound
        // (backoff event still emitted, clamped in place).
        let mut s = LossScaler::new(1024.0)
            .with_growth(2.0, 2)
            .with_bounds(512.0, 4096.0);
        s.on_clean_step();
        s.on_clean_step();
        s.on_overflow();
        s.on_clean_step();
        s.on_clean_step();
        s.on_overflow();
        s.on_overflow();
        assert_eq!(
            s.events(),
            [
                ScalerEvent::Grow {
                    from: 1024.0,
                    to: 2048.0
                },
                ScalerEvent::Backoff {
                    from: 2048.0,
                    to: 1024.0
                },
                ScalerEvent::Grow {
                    from: 1024.0,
                    to: 2048.0
                },
                ScalerEvent::Backoff {
                    from: 2048.0,
                    to: 1024.0
                },
                ScalerEvent::Backoff {
                    from: 1024.0,
                    to: 512.0
                },
            ]
        );
        // Draining reports each event exactly once.
        assert_eq!(s.take_events().len(), 5);
        assert!(s.events().is_empty());
        s.on_overflow(); // clamped at min: from == to, still logged
        assert_eq!(
            s.events(),
            [ScalerEvent::Backoff {
                from: 512.0,
                to: 512.0
            }]
        );
    }

    #[test]
    fn growth_at_max_bound_emits_no_event() {
        let mut s = LossScaler::new(8.0)
            .with_bounds(1.0, 8.0)
            .with_growth(2.0, 1);
        s.on_clean_step();
        assert_eq!(s.scale(), 8.0);
        assert!(s.events().is_empty(), "no-op growth is not an event");
    }

    #[test]
    fn event_log_is_a_bounded_ring() {
        // Pinned at the min bound, every overflow emits a Backoff event;
        // with capacity 4 only the newest 4 survive.
        let mut s = LossScaler::new(2.0)
            .with_bounds(2.0, 4.0)
            .with_event_capacity(4);
        for _ in 0..10 {
            s.on_overflow();
        }
        assert_eq!(s.events().len(), 4);
        assert_eq!(s.events_dropped(), 6);
        assert_eq!(s.overflows(), 10, "the counter is not capped, only the log");
        // Draining resets the log but not the dropped count.
        assert_eq!(s.take_events().len(), 4);
        assert_eq!(s.events_dropped(), 6);
    }

    #[test]
    fn drain_reports_drops_since_previous_drain() {
        let mut s = LossScaler::new(2.0)
            .with_bounds(2.0, 4.0)
            .with_event_capacity(4);
        for _ in 0..10 {
            s.on_overflow();
        }
        let (events, dropped) = s.drain_events();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 6);
        // A clean second interval drains empty with zero drops…
        assert_eq!(s.drain_events(), (Vec::new(), 0));
        // …while the cumulative counter keeps the full history.
        assert_eq!(s.events_dropped(), 6);
        for _ in 0..5 {
            s.on_overflow();
        }
        let (events, dropped) = s.drain_events();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 1, "only the new interval's evictions");
        assert_eq!(s.events_dropped(), 7);
    }

    #[test]
    fn ckpt_roundtrip_restores_exact_state_machine() {
        let mut s = LossScaler::new(4096.0)
            .with_growth(2.0, 3)
            .with_backoff(0.5)
            .with_bounds(1.0, 65536.0)
            .with_event_capacity(8);
        s.on_clean_step();
        s.on_overflow();
        s.on_clean_step();
        let mut r = LossScaler::from_ckpt(&s.to_ckpt());
        assert_eq!(r.scale().to_bits(), s.scale().to_bits());
        assert_eq!(r.overflows(), s.overflows());
        assert!(r.events().is_empty(), "the log itself is not state");
        // The state machines continue identically from here.
        for _ in 0..5 {
            s.on_clean_step();
            r.on_clean_step();
            assert_eq!(r.scale().to_bits(), s.scale().to_bits());
        }
        s.on_overflow();
        r.on_overflow();
        assert_eq!(r.scale().to_bits(), s.scale().to_bits());
    }

    #[test]
    fn bounds_are_respected() {
        let mut s = LossScaler::new(4.0)
            .with_bounds(2.0, 8.0)
            .with_growth(2.0, 1);
        s.on_overflow();
        assert_eq!(s.scale(), 2.0);
        s.on_overflow();
        assert_eq!(s.scale(), 2.0); // clamped at min
        for _ in 0..4 {
            s.on_clean_step();
        }
        assert_eq!(s.scale(), 8.0); // clamped at max
    }
}
