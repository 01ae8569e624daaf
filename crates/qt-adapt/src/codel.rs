//! CoDel-style adaptive admission control on queue sojourn time.
//!
//! Classic tail-drop sheds only when the buffer is *full*, which is too
//! late: a standing queue one item short of capacity adds worst-case
//! latency to every admitted request while never triggering
//! backpressure. CoDel instead watches how long items *waited* — the
//! sojourn time observed at dequeue — and starts shedding from the head
//! once sojourn has exceeded a target for a full interval, because a
//! persistent standing queue means arrival rate exceeds service rate and
//! queueing is no longer absorbing a transient burst. Drops are spaced
//! `interval / √count` apart, the control law from the CoDel paper: the
//! longer the overload persists, the faster the controller sheds, and
//! the moment sojourn dips under target the state fully resets.
//!
//! Everything is integer math on the virtual clock ([`crate::isqrt`]),
//! so a simulated fleet replays the exact drop sequence at any thread
//! count.

use crate::isqrt;

/// CoDel control-law parameters (virtual µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodelConfig {
    /// Acceptable standing sojourn time. Queues that keep dequeue waits
    /// under this never shed.
    pub target_us: u64,
    /// How long sojourn must stay above target before the first drop,
    /// and the base spacing of the `interval / √count` drop law.
    pub interval_us: u64,
}

impl Default for CodelConfig {
    fn default() -> Self {
        Self {
            target_us: 20_000,
            interval_us: 100_000,
        }
    }
}

/// Verdict for one dequeued item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodelDecision {
    /// Serve it.
    Admit,
    /// Shed it (head drop) and try the next queued item.
    Drop,
}

impl CodelDecision {
    /// `true` for [`CodelDecision::Drop`].
    pub fn is_drop(self) -> bool {
        self == CodelDecision::Drop
    }
}

/// The controller: feed it `(now, sojourn)` at every queue pickup.
#[derive(Debug, Clone, PartialEq)]
pub struct CodelController {
    cfg: CodelConfig,
    /// When the current above-target excursion would earn its first
    /// drop; `None` while sojourn is below target.
    first_above_us: Option<u64>,
    /// In the dropping state (sojourn stayed above target a full
    /// interval and has not come back down).
    dropping: bool,
    /// Next scheduled drop while dropping.
    drop_next_us: u64,
    /// Drops in the current dropping episode (drives the √count law).
    drop_count: u64,
    /// Total drops over the controller's lifetime.
    drops: u64,
}

impl CodelController {
    /// Fresh controller.
    pub fn new(cfg: CodelConfig) -> Self {
        Self {
            cfg,
            first_above_us: None,
            dropping: false,
            drop_next_us: 0,
            drop_count: 0,
            drops: 0,
        }
    }

    /// Parameters in force.
    pub fn config(&self) -> CodelConfig {
        self.cfg
    }

    /// Lifetime drop count.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Observe one dequeue at virtual time `now_us` whose item waited
    /// `sojourn_us`, and decide its fate.
    pub fn on_pickup(&mut self, now_us: u64, sojourn_us: u64) -> CodelDecision {
        if sojourn_us < self.cfg.target_us {
            // Queue drained below target: the overload episode is over.
            self.first_above_us = None;
            self.dropping = false;
            return CodelDecision::Admit;
        }
        let first_above = match self.first_above_us {
            Some(t) => t,
            None => {
                // First above-target observation: arm the interval timer
                // but keep admitting — this may be a transient burst.
                let t = now_us + self.cfg.interval_us;
                self.first_above_us = Some(t);
                return CodelDecision::Admit;
            }
        };
        if self.dropping {
            if now_us >= self.drop_next_us {
                self.drop_count += 1;
                self.drops += 1;
                let spacing = self.cfg.interval_us / isqrt(self.drop_count).max(1);
                self.drop_next_us = now_us + spacing.max(1);
                return CodelDecision::Drop;
            }
            return CodelDecision::Admit;
        }
        if now_us >= first_above {
            // Above target for a full interval: a standing queue, not a
            // burst. Enter the dropping state with an immediate drop.
            self.dropping = true;
            self.drop_count = 1;
            self.drops += 1;
            self.drop_next_us = now_us + self.cfg.interval_us;
            return CodelDecision::Drop;
        }
        CodelDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CodelConfig {
        CodelConfig {
            target_us: 100,
            interval_us: 1_000,
        }
    }

    #[test]
    fn below_target_never_drops() {
        let mut c = CodelController::new(cfg());
        for t in 0..10_000u64 {
            assert_eq!(c.on_pickup(t, 50), CodelDecision::Admit);
        }
        assert_eq!(c.drops(), 0);
    }

    #[test]
    fn transient_burst_shorter_than_interval_is_admitted() {
        let mut c = CodelController::new(cfg());
        // Above target, but the excursion ends before the interval.
        assert_eq!(c.on_pickup(0, 500), CodelDecision::Admit);
        assert_eq!(c.on_pickup(500, 500), CodelDecision::Admit);
        // Back below target before t=1000: state resets.
        assert_eq!(c.on_pickup(900, 50), CodelDecision::Admit);
        assert_eq!(c.on_pickup(1_500, 500), CodelDecision::Admit);
        assert_eq!(c.drops(), 0);
    }

    #[test]
    fn standing_queue_drops_and_drop_rate_ramps() {
        let mut c = CodelController::new(cfg());
        let mut drop_times = Vec::new();
        for t in (0..40_000u64).step_by(10) {
            if c.on_pickup(t, 500).is_drop() {
                drop_times.push(t);
            }
        }
        assert!(drop_times.len() >= 4, "sustained overload must shed");
        // First drop lands one full interval after the first above-target
        // observation; the interval/√count law then shrinks the spacing
        // as the overload persists (integer isqrt makes the very first
        // few gaps plateau, so assert the trend, not strict monotony).
        assert_eq!(drop_times[0], 1_000);
        let gaps: Vec<u64> = drop_times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps[gaps.len() - 1] < gaps[0],
            "spacing must shrink: {gaps:?}"
        );
        assert!(
            gaps.iter().rev().take(5).all(|g| *g < 100),
            "late-episode drops must be much denser than the interval: {gaps:?}"
        );
    }

    #[test]
    fn recovery_resets_the_control_law() {
        let mut c = CodelController::new(cfg());
        for t in (0..5_000u64).step_by(10) {
            c.on_pickup(t, 500);
        }
        let drops_before = c.drops();
        assert!(drops_before > 0);
        // One below-target pickup ends the episode...
        assert_eq!(c.on_pickup(5_000, 10), CodelDecision::Admit);
        // ...and the next excursion must again survive a full interval
        // before shedding.
        assert_eq!(c.on_pickup(5_010, 500), CodelDecision::Admit);
        assert_eq!(c.on_pickup(5_500, 500), CodelDecision::Admit);
        assert_eq!(c.drops(), drops_before);
    }

    #[test]
    fn replays_identically() {
        let run = || {
            let mut c = CodelController::new(cfg());
            (0..20_000u64)
                .step_by(7)
                .map(|t| c.on_pickup(t, if t % 3_000 < 2_000 { 400 } else { 20 }))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
