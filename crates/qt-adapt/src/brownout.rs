//! Priority-tiered brownout ladder: trade precision and background work
//! for paid-tier availability before shedding paid traffic.
//!
//! Under sustained overload a fleet that sheds blindly (tail drop,
//! whoever arrives last) converts every tier's availability into a coin
//! flip. The ladder instead degrades in a fixed order of *cheapest harm
//! first*: batch work is shed, then best-effort traffic is served on the
//! economy (degraded-precision) path, then even paid traffic drops to
//! the BF16 fallback, and only at the top rung is interactive
//! best-effort traffic rejected outright — paid requests are still
//! *served* at every rung, just cheaper. This is the serving-side
//! mirror of the paper's precision story: the 8-bit primary path is the
//! thing being traded away, rung by rung, for availability.
//!
//! The ladder moves one rung at a time on a periodic evaluation tick,
//! climbing immediately when queue pressure crosses the up threshold
//! but stepping down only after `down_consecutive` calm ticks —
//! hysteresis so a sawtooth load doesn't flap the fleet between service
//! levels.

/// Request priority tiers, derived deterministically from the user id
/// so the load generator and every consumer agree without threading a
/// field through the request structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityTier {
    /// Interactive, paying traffic: protected the longest.
    Paid,
    /// Interactive free-tier traffic.
    BestEffort,
    /// Offline/background work: first against the wall.
    Batch,
}

impl PriorityTier {
    /// Tier of `user`: 50% paid, 25% best-effort, 25% batch.
    pub fn of_user(user: u64) -> Self {
        match user % 4 {
            0 | 1 => PriorityTier::Paid,
            2 => PriorityTier::BestEffort,
            _ => PriorityTier::Batch,
        }
    }

    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            PriorityTier::Paid => "paid",
            PriorityTier::BestEffort => "best_effort",
            PriorityTier::Batch => "batch",
        }
    }
}

/// The brownout rungs, in climbing order. Each rung includes every
/// degradation below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Brownout {
    /// Full service for every tier.
    Normal,
    /// Batch traffic is shed.
    ShedBatch,
    /// \+ best-effort traffic is served on the economy path (single
    /// degraded-precision attempt, no retries/failover/hedging).
    DegradeE4M3,
    /// \+ paid traffic is served on the economy (BF16 fallback) path.
    DegradeBF16,
    /// \+ best-effort traffic is rejected; paid still served (economy).
    RejectBestEffort,
}

impl Brownout {
    /// All rungs, bottom to top.
    pub const LADDER: [Brownout; 5] = [
        Brownout::Normal,
        Brownout::ShedBatch,
        Brownout::DegradeE4M3,
        Brownout::DegradeBF16,
        Brownout::RejectBestEffort,
    ];

    /// Rung index (0 = Normal), the severity scale used in telemetry.
    pub fn severity(self) -> u8 {
        match self {
            Brownout::Normal => 0,
            Brownout::ShedBatch => 1,
            Brownout::DegradeE4M3 => 2,
            Brownout::DegradeBF16 => 3,
            Brownout::RejectBestEffort => 4,
        }
    }

    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Brownout::Normal => "normal",
            Brownout::ShedBatch => "shed_batch",
            Brownout::DegradeE4M3 => "degrade_e4m3",
            Brownout::DegradeBF16 => "degrade_bf16",
            Brownout::RejectBestEffort => "reject_best_effort",
        }
    }

    /// Does this rung shed `tier` outright at admission?
    pub fn sheds(self, tier: PriorityTier) -> bool {
        match tier {
            PriorityTier::Batch => self >= Brownout::ShedBatch,
            PriorityTier::BestEffort => self >= Brownout::RejectBestEffort,
            PriorityTier::Paid => false,
        }
    }

    /// Does this rung serve `tier` on the economy path (degraded
    /// precision, no retry/failover budget)?
    pub fn economy(self, tier: PriorityTier) -> bool {
        if self.sheds(tier) {
            return false;
        }
        match tier {
            PriorityTier::Batch => false,
            PriorityTier::BestEffort => self >= Brownout::DegradeE4M3,
            PriorityTier::Paid => self >= Brownout::DegradeBF16,
        }
    }
}

/// Ladder thresholds on queue pressure (occupied fraction of total
/// queue capacity, 0.0..=1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Climb one rung when pressure is at or above this.
    pub up_pressure: f64,
    /// A tick counts as calm when pressure is at or below this.
    pub down_pressure: f64,
    /// Calm ticks required before stepping one rung down.
    pub down_consecutive: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            up_pressure: 0.75,
            down_pressure: 0.25,
            down_consecutive: 3,
        }
    }
}

/// One recorded rung change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutTransition {
    /// Virtual time of the evaluation tick.
    pub at_us: u64,
    /// Rung before.
    pub from: Brownout,
    /// Rung after.
    pub to: Brownout,
}

/// The ladder state machine. Call [`BrownoutLadder::observe`] once per
/// adaptation tick with the current queue pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutLadder {
    cfg: BrownoutConfig,
    level: Brownout,
    peak: Brownout,
    calm_streak: u32,
    transitions: Vec<BrownoutTransition>,
}

impl BrownoutLadder {
    /// Fresh ladder at [`Brownout::Normal`].
    pub fn new(cfg: BrownoutConfig) -> Self {
        Self {
            cfg,
            level: Brownout::Normal,
            peak: Brownout::Normal,
            calm_streak: 0,
            transitions: Vec::new(),
        }
    }

    /// Current rung.
    pub fn level(&self) -> Brownout {
        self.level
    }

    /// Highest rung reached over the ladder's lifetime.
    pub fn peak(&self) -> Brownout {
        self.peak
    }

    /// Every rung change, in order.
    pub fn transitions(&self) -> &[BrownoutTransition] {
        &self.transitions
    }

    /// Evaluate one tick; returns the (possibly unchanged) rung.
    pub fn observe(&mut self, at_us: u64, pressure: f64) -> Brownout {
        let idx = self.level.severity() as usize;
        if pressure >= self.cfg.up_pressure {
            self.calm_streak = 0;
            if idx + 1 < Brownout::LADDER.len() {
                self.step(at_us, Brownout::LADDER[idx + 1]);
            }
        } else if pressure <= self.cfg.down_pressure {
            self.calm_streak += 1;
            if self.calm_streak >= self.cfg.down_consecutive && idx > 0 {
                self.calm_streak = 0;
                self.step(at_us, Brownout::LADDER[idx - 1]);
            }
        } else {
            // In the dead band: hold the rung, reset the calm streak so
            // stepping down always requires *consecutive* calm ticks.
            self.calm_streak = 0;
        }
        self.level
    }

    fn step(&mut self, at_us: u64, to: Brownout) {
        self.transitions.push(BrownoutTransition {
            at_us,
            from: self.level,
            to,
        });
        self.level = to;
        self.peak = self.peak.max(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_deterministic_and_cover_all_rungs() {
        for user in 0..100 {
            assert_eq!(PriorityTier::of_user(user), PriorityTier::of_user(user));
        }
        assert_eq!(PriorityTier::of_user(0), PriorityTier::Paid);
        assert_eq!(PriorityTier::of_user(2), PriorityTier::BestEffort);
        assert_eq!(PriorityTier::of_user(3), PriorityTier::Batch);
    }

    #[test]
    fn ladder_order_matches_severity() {
        for (i, rung) in Brownout::LADDER.iter().enumerate() {
            assert_eq!(rung.severity() as usize, i);
        }
        assert!(Brownout::Normal < Brownout::RejectBestEffort);
    }

    #[test]
    fn shed_and_economy_tables() {
        use Brownout::*;
        use PriorityTier::*;
        // Paid is never shed, at any rung.
        for rung in Brownout::LADDER {
            assert!(!rung.sheds(Paid), "{rung:?}");
        }
        assert!(!Normal.sheds(Batch) && !Normal.economy(BestEffort));
        assert!(ShedBatch.sheds(Batch) && !ShedBatch.economy(BestEffort));
        assert!(DegradeE4M3.economy(BestEffort) && !DegradeE4M3.economy(Paid));
        assert!(DegradeBF16.economy(Paid));
        assert!(RejectBestEffort.sheds(BestEffort));
        assert!(!RejectBestEffort.economy(BestEffort), "shed, not served");
        assert!(RejectBestEffort.economy(Paid));
    }

    #[test]
    fn climbs_one_rung_per_tick_and_descends_with_hysteresis() {
        let mut l = BrownoutLadder::new(BrownoutConfig::default());
        // Sustained pressure walks the ladder monotonically, one rung
        // per tick, and saturates at the top.
        let mut seen = vec![l.level()];
        for t in 0..6 {
            seen.push(l.observe(t * 100, 0.9));
        }
        assert_eq!(
            &seen[..5],
            &Brownout::LADDER[..],
            "one rung per tick, in order"
        );
        assert_eq!(l.level(), Brownout::RejectBestEffort);
        assert_eq!(l.peak(), Brownout::RejectBestEffort);
        // Two calm ticks are not enough to step down...
        l.observe(700, 0.1);
        l.observe(800, 0.1);
        assert_eq!(l.level(), Brownout::RejectBestEffort);
        // ...the third is.
        l.observe(900, 0.1);
        assert_eq!(l.level(), Brownout::DegradeBF16);
        // A pressure blip inside the dead band resets the calm streak.
        l.observe(1_000, 0.1);
        l.observe(1_100, 0.1);
        l.observe(1_200, 0.5);
        l.observe(1_300, 0.1);
        l.observe(1_400, 0.1);
        assert_eq!(l.level(), Brownout::DegradeBF16, "streak must restart");
        l.observe(1_500, 0.1);
        assert_eq!(l.level(), Brownout::DegradeE4M3);
    }

    #[test]
    fn transitions_are_single_step_and_logged_in_order() {
        let mut l = BrownoutLadder::new(BrownoutConfig::default());
        let pressures = [0.9, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        for (i, p) in pressures.iter().enumerate() {
            l.observe(i as u64 * 50, *p);
        }
        let trs = l.transitions();
        assert!(!trs.is_empty());
        for w in trs.windows(2) {
            assert!(w[1].at_us >= w[0].at_us);
            assert_eq!(w[1].from, w[0].to, "transitions chain");
        }
        for tr in trs {
            let diff = tr.to.severity() as i32 - tr.from.severity() as i32;
            assert_eq!(diff.abs(), 1, "one rung at a time: {tr:?}");
        }
        assert_eq!(l.level(), Brownout::Normal, "calm tail returns to Normal");
    }
}
