//! Queue-driven autoscaling: spin replicas up from snapshot, drain them
//! down, on sustained queue-pressure signals.
//!
//! The policy is deliberately boring — streaks of pressure above/below
//! thresholds, a replica-count band, and a modeled cold-start delay —
//! because the interesting machinery already exists in the fleet: a
//! scale-up is exactly the crash-recovery path (load the newest health
//! snapshot, rejoin through the breaker's half-open probes) minus the
//! crash, and a scale-down is a drain (stop routing, finish the queue).
//! The policy only decides *when*; the fleet owns *how*.

/// Scaling thresholds and band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Never drain below this many active replicas.
    pub min_replicas: usize,
    /// Never boot above this many active replicas.
    pub max_replicas: usize,
    /// A tick counts toward scale-up when pressure ≥ this.
    pub up_pressure: f64,
    /// A tick counts toward scale-down when pressure ≤ this.
    pub down_pressure: f64,
    /// Consecutive hot ticks before booting a replica.
    pub up_consecutive: u32,
    /// Consecutive idle ticks before draining a replica.
    pub down_consecutive: u32,
    /// Virtual boot time: snapshot load + rejoin ramp begins this long
    /// after the scale-up decision.
    pub cold_start_us: u64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 4,
            up_pressure: 0.75,
            down_pressure: 0.10,
            up_consecutive: 2,
            down_consecutive: 6,
            cold_start_us: 50_000,
        }
    }
}

/// What the policy wants done this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current replica set.
    Hold,
    /// Boot one replica (after [`AutoscaleConfig::cold_start_us`]).
    Up,
    /// Drain one replica.
    Down,
}

/// The streak-counting state machine. Feed it one pressure observation
/// per adaptation tick.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePolicy {
    cfg: AutoscaleConfig,
    up_streak: u32,
    down_streak: u32,
    scale_ups: u64,
    scale_downs: u64,
}

impl AutoscalePolicy {
    /// Fresh policy.
    pub fn new(cfg: AutoscaleConfig) -> Self {
        Self {
            cfg,
            up_streak: 0,
            down_streak: 0,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Thresholds and band in force.
    pub fn config(&self) -> AutoscaleConfig {
        self.cfg
    }

    /// Lifetime scale-up decisions.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// Lifetime scale-down decisions.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// One tick: `active` replicas taking traffic, `pending` replicas
    /// mid-cold-start, current queue `pressure` (0.0..=1.0).
    pub fn observe(&mut self, active: usize, pending: usize, pressure: f64) -> ScaleDecision {
        if pressure >= self.cfg.up_pressure {
            self.up_streak = self.up_streak.saturating_add(1);
            self.down_streak = 0;
        } else if pressure <= self.cfg.down_pressure {
            self.down_streak = self.down_streak.saturating_add(1);
            self.up_streak = 0;
        } else {
            self.up_streak = 0;
            self.down_streak = 0;
        }
        if self.up_streak >= self.cfg.up_consecutive && active + pending < self.cfg.max_replicas {
            self.up_streak = 0;
            self.scale_ups += 1;
            return ScaleDecision::Up;
        }
        // Draining while a boot is in flight would thrash: the pending
        // replica was requested because we were hot moments ago.
        if self.down_streak >= self.cfg.down_consecutive
            && pending == 0
            && active > self.cfg.min_replicas
        {
            self.down_streak = 0;
            self.scale_downs += 1;
            return ScaleDecision::Down;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 3,
            up_consecutive: 2,
            down_consecutive: 3,
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    fn sustained_pressure_boots_up_to_the_band_ceiling() {
        let mut p = AutoscalePolicy::new(cfg());
        assert_eq!(p.observe(1, 0, 0.9), ScaleDecision::Hold);
        assert_eq!(p.observe(1, 0, 0.9), ScaleDecision::Up);
        // The booting replica counts against the ceiling immediately.
        assert_eq!(p.observe(1, 1, 0.9), ScaleDecision::Hold);
        assert_eq!(p.observe(1, 1, 0.9), ScaleDecision::Up);
        // At the ceiling (1 active + 2 pending = max 3): never Up again.
        for _ in 0..10 {
            assert_eq!(p.observe(1, 2, 0.9), ScaleDecision::Hold);
        }
        assert_eq!(p.scale_ups(), 2);
    }

    #[test]
    fn sustained_idle_drains_down_to_the_floor() {
        let mut p = AutoscalePolicy::new(cfg());
        assert_eq!(p.observe(3, 0, 0.05), ScaleDecision::Hold);
        assert_eq!(p.observe(3, 0, 0.05), ScaleDecision::Hold);
        assert_eq!(p.observe(3, 0, 0.05), ScaleDecision::Down);
        // Streak restarts after a decision.
        assert_eq!(p.observe(2, 0, 0.05), ScaleDecision::Hold);
        assert_eq!(p.observe(2, 0, 0.05), ScaleDecision::Hold);
        assert_eq!(p.observe(2, 0, 0.05), ScaleDecision::Down);
        // At the floor: hold forever.
        for _ in 0..10 {
            assert_eq!(p.observe(1, 0, 0.05), ScaleDecision::Hold);
        }
        assert_eq!(p.scale_downs(), 2);
    }

    #[test]
    fn pending_boot_vetoes_draining() {
        let mut p = AutoscalePolicy::new(cfg());
        for _ in 0..10 {
            assert_eq!(p.observe(2, 1, 0.05), ScaleDecision::Hold);
        }
    }

    #[test]
    fn dead_band_resets_both_streaks() {
        let mut p = AutoscalePolicy::new(cfg());
        assert_eq!(p.observe(1, 0, 0.9), ScaleDecision::Hold);
        assert_eq!(p.observe(1, 0, 0.5), ScaleDecision::Hold);
        assert_eq!(
            p.observe(1, 0, 0.9),
            ScaleDecision::Hold,
            "streak restarted"
        );
        assert_eq!(p.observe(1, 0, 0.9), ScaleDecision::Up);
    }
}
