//! Gray-failure detection: eject slow-but-alive replicas.
//!
//! A crashed replica is easy — it stops answering and the lifecycle
//! machinery notices. A *gray* replica is worse: it completes every
//! request, passes every health gate (its numerics are fine, its
//! breaker stays closed), and silently drags fleet p99 because it runs
//! N× slow. The detector compares each replica's windowed attempt-
//! latency p99 against the fleet *median* — a robust baseline that a
//! single straggler cannot shift — and calls a replica gray once its
//! p99 exceeds `factor ×` median for `eject_consecutive` windows in a
//! row. Ejection is delegated to the caller (the fleet forces the
//! replica's breaker open, reusing the half-open probe path as the
//! rejoin ramp); the detector keeps marking the replica until it posts
//! `rejoin_consecutive` healthy windows, so a flapping replica re-earns
//! eligibility instead of oscillating in and out of rotation.

/// Outlier-detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayConfig {
    /// A window is an outlier when replica p99 > `factor` × fleet
    /// median p99.
    pub factor: f64,
    /// Minimum attempt samples a replica needs in a window to be
    /// judged at all (too few samples → no verdict either way).
    pub min_samples: usize,
    /// Consecutive outlier windows before ejection.
    pub eject_consecutive: u32,
    /// Consecutive healthy windows before an ejected replica is
    /// considered recovered.
    pub rejoin_consecutive: u32,
}

impl Default for GrayConfig {
    fn default() -> Self {
        Self {
            factor: 2.0,
            min_samples: 4,
            eject_consecutive: 2,
            rejoin_consecutive: 2,
        }
    }
}

/// What the detector decided this window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrayEvent {
    /// Replica crossed the outlier threshold for enough consecutive
    /// windows: take it out of rotation.
    Eject {
        /// Replica id.
        replica: usize,
        /// Virtual time of the verdict.
        at_us: u64,
        /// Its p99 over the fleet median at ejection time.
        ratio: f64,
    },
    /// An ejected replica posted enough healthy windows: it may re-earn
    /// traffic through the normal (half-open) path.
    Rejoin {
        /// Replica id.
        replica: usize,
        /// Virtual time of the verdict.
        at_us: u64,
    },
}

/// Per-replica streak state over the whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayDetector {
    cfg: GrayConfig,
    outlier_streak: Vec<u32>,
    healthy_streak: Vec<u32>,
    ejected: Vec<bool>,
    ejections: u64,
}

impl GrayDetector {
    /// Detector over `replicas` replicas.
    pub fn new(cfg: GrayConfig, replicas: usize) -> Self {
        Self {
            cfg,
            outlier_streak: vec![0; replicas],
            healthy_streak: vec![0; replicas],
            ejected: vec![false; replicas],
            ejections: 0,
        }
    }

    /// Thresholds in force.
    pub fn config(&self) -> GrayConfig {
        self.cfg
    }

    /// Is `replica` currently marked ejected?
    pub fn is_ejected(&self, replica: usize) -> bool {
        self.ejected.get(replica).copied().unwrap_or(false)
    }

    /// Lifetime ejection count.
    pub fn ejections(&self) -> u64 {
        self.ejections
    }

    /// Feed one window of per-replica p99 latencies (µs); `None` for
    /// replicas with fewer than [`GrayConfig::min_samples`] samples.
    /// Returns the verdicts reached this window, in replica order.
    pub fn observe_window(&mut self, at_us: u64, p99_us: &[Option<f64>]) -> Vec<GrayEvent> {
        let mut events = Vec::new();
        let mut seen: Vec<f64> = p99_us.iter().filter_map(|p| *p).collect();
        if seen.len() < 2 {
            // One p99 has no peer group: no verdicts either way.
            return events;
        }
        seen.sort_by(|a, b| a.total_cmp(b));
        // Lower median: with an even count this biases toward the fast
        // half, which is what makes a 2-replica fleet ejectable at all.
        let median = seen[(seen.len() - 1) / 2];
        for (r, p) in p99_us.iter().enumerate() {
            let Some(p) = *p else { continue };
            let outlier = median > 0.0 && p > self.cfg.factor * median;
            if outlier {
                self.healthy_streak[r] = 0;
                self.outlier_streak[r] = self.outlier_streak[r].saturating_add(1);
                if !self.ejected[r] && self.outlier_streak[r] >= self.cfg.eject_consecutive {
                    self.ejected[r] = true;
                    self.ejections += 1;
                    events.push(GrayEvent::Eject {
                        replica: r,
                        at_us,
                        ratio: p / median,
                    });
                }
            } else {
                self.outlier_streak[r] = 0;
                if self.ejected[r] {
                    self.healthy_streak[r] += 1;
                    if self.healthy_streak[r] >= self.cfg.rejoin_consecutive {
                        self.ejected[r] = false;
                        self.healthy_streak[r] = 0;
                        events.push(GrayEvent::Rejoin { replica: r, at_us });
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> GrayDetector {
        GrayDetector::new(GrayConfig::default(), 3)
    }

    #[test]
    fn healthy_fleet_never_ejects() {
        let mut d = detector();
        for w in 0..50u64 {
            let evs = d.observe_window(w * 100, &[Some(10.0), Some(11.0), Some(12.0)]);
            assert!(evs.is_empty());
        }
        assert_eq!(d.ejections(), 0);
    }

    #[test]
    fn straggler_is_ejected_after_consecutive_outlier_windows() {
        let mut d = detector();
        // First outlier window: streak starts, no verdict yet.
        assert!(d
            .observe_window(0, &[Some(10.0), Some(80.0), Some(12.0)])
            .is_empty());
        // Second consecutive window crosses eject_consecutive = 2.
        let evs = d.observe_window(100, &[Some(10.0), Some(80.0), Some(12.0)]);
        assert_eq!(evs.len(), 1);
        match evs[0] {
            GrayEvent::Eject {
                replica,
                at_us,
                ratio,
            } => {
                assert_eq!(replica, 1);
                assert_eq!(at_us, 100);
                assert!(ratio > 2.0);
            }
            other => panic!("expected eject, got {other:?}"),
        }
        assert!(d.is_ejected(1));
        assert!(!d.is_ejected(0));
    }

    #[test]
    fn interrupted_streak_does_not_eject() {
        let mut d = detector();
        assert!(d
            .observe_window(0, &[Some(10.0), Some(80.0), Some(12.0)])
            .is_empty());
        // A healthy window resets the streak...
        assert!(d
            .observe_window(100, &[Some(10.0), Some(11.0), Some(12.0)])
            .is_empty());
        // ...so one more outlier window is still not enough.
        assert!(d
            .observe_window(200, &[Some(10.0), Some(80.0), Some(12.0)])
            .is_empty());
        assert!(!d.is_ejected(1));
    }

    #[test]
    fn ejected_replica_re_earns_eligibility_with_hysteresis() {
        let mut d = detector();
        let slow = [Some(10.0), Some(80.0), Some(12.0)];
        let fast = [Some(10.0), Some(11.0), Some(12.0)];
        d.observe_window(0, &slow);
        d.observe_window(100, &slow);
        assert!(d.is_ejected(1));
        // One healthy window is not enough to rejoin.
        assert!(d.observe_window(200, &fast).is_empty());
        assert!(d.is_ejected(1));
        // A relapse resets the healthy streak.
        assert!(d.observe_window(300, &slow).is_empty());
        assert!(d.observe_window(400, &fast).is_empty());
        // Second consecutive healthy window: rejoin.
        let evs = d.observe_window(500, &fast);
        assert_eq!(
            evs,
            vec![GrayEvent::Rejoin {
                replica: 1,
                at_us: 500
            }]
        );
        assert!(!d.is_ejected(1));
        // Going gray again after rejoin needs the full eject streak —
        // and counts a second ejection.
        d.observe_window(600, &slow);
        let evs = d.observe_window(700, &slow);
        assert!(matches!(evs[0], GrayEvent::Eject { replica: 1, .. }));
        assert_eq!(d.ejections(), 2);
    }

    #[test]
    fn missing_windows_are_no_verdict() {
        let mut d = detector();
        // Probe-starved replica (None) keeps whatever streak it had.
        d.observe_window(0, &[Some(10.0), Some(80.0), Some(12.0)]);
        d.observe_window(100, &[Some(10.0), None, Some(12.0)]);
        let evs = d.observe_window(200, &[Some(10.0), Some(80.0), Some(12.0)]);
        assert_eq!(evs.len(), 1, "streak survives a sample-less window");
        // A single reporting replica has no peer group.
        let mut d2 = detector();
        assert!(d2.observe_window(0, &[None, Some(80.0), None]).is_empty());
    }

    #[test]
    fn two_replica_fleet_uses_lower_median() {
        let mut d = GrayDetector::new(GrayConfig::default(), 2);
        d.observe_window(0, &[Some(10.0), Some(80.0)]);
        let evs = d.observe_window(100, &[Some(10.0), Some(80.0)]);
        assert!(matches!(evs[0], GrayEvent::Eject { replica: 1, .. }));
    }
}
