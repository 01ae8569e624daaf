//! Replica-lifecycle fault model: seeded crash/restart schedules.
//!
//! The injectors in [`crate::inject`] and the runtime sources in
//! [`crate::runtime`] corrupt *data*; this module corrupts
//! *availability*. A [`CrashSchedule`] is a deterministic list of
//! `[down_at, up_at)` outage windows for one replica — either written
//! out explicitly (the CI smoke job kills replica 2 at exactly 300 ms)
//! or drawn from seeded MTBF/MTTR distributions (a chaos campaign over a
//! whole fleet). Everything is denominated in virtual microseconds on
//! the discrete-event clock, so a fleet run that includes crashes still
//! replays byte-identically.
//!
//! The schedule is *passive*: it answers "is this replica up at time
//! `t`?" and "when does its next lifecycle transition happen?" — the
//! fleet simulation turns those answers into events (abort in-flight
//! work at `down_at`, reload the health snapshot and re-earn traffic at
//! `up_at`).

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One outage: the replica is down for `[down_at_us, up_at_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Instant the replica crashes (virtual µs).
    pub down_at_us: u64,
    /// Instant it has rebooted and rejoins (virtual µs, exclusive).
    pub up_at_us: u64,
}

impl CrashWindow {
    /// `true` while the replica is down.
    pub fn contains(&self, t_us: u64) -> bool {
        (self.down_at_us..self.up_at_us).contains(&t_us)
    }
}

/// A lifecycle transition the simulation must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// The replica crashes: in-flight work fails over, queued work is
    /// re-routed, unsynced health state since the last snapshot is lost.
    Crash,
    /// The replica has rebooted: it reloads its durable health snapshot
    /// and must re-earn traffic through half-open probing.
    Recover,
}

/// Deterministic crash/restart schedule for one replica.
///
/// Windows are kept sorted and non-overlapping (overlaps are merged at
/// construction), so `is_up` and `next_event_after` are simple scans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSchedule {
    windows: Vec<CrashWindow>,
}

impl CrashSchedule {
    /// A replica that never crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedule from explicit windows; sorts by start and merges any
    /// overlap or zero-length window away.
    pub fn from_windows(mut windows: Vec<CrashWindow>) -> Self {
        windows.retain(|w| w.up_at_us > w.down_at_us);
        windows.sort_by_key(|w| (w.down_at_us, w.up_at_us));
        let mut merged: Vec<CrashWindow> = Vec::with_capacity(windows.len());
        for w in windows {
            match merged.last_mut() {
                Some(last) if w.down_at_us <= last.up_at_us => {
                    last.up_at_us = last.up_at_us.max(w.up_at_us);
                }
                _ => merged.push(w),
            }
        }
        Self { windows: merged }
    }

    /// One outage of `down_for_us` starting at `down_at_us`.
    pub fn single(down_at_us: u64, down_for_us: u64) -> Self {
        Self::from_windows(vec![CrashWindow {
            down_at_us,
            up_at_us: down_at_us.saturating_add(down_for_us.max(1)),
        }])
    }

    /// Seeded random schedule over `[0, horizon_us)`: time-to-failure
    /// and time-to-repair are drawn uniformly from `[mtbf_us/2,
    /// 3·mtbf_us/2)` and `[mttr_us/2, 3·mttr_us/2)` (mean = the given
    /// MTBF/MTTR, bounded support so a pathological draw cannot swallow
    /// the whole run). `mtbf_us == 0` yields an empty schedule.
    pub fn seeded(seed: u64, horizon_us: u64, mtbf_us: u64, mttr_us: u64) -> Self {
        if mtbf_us == 0 {
            return Self::none();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut windows = Vec::new();
        let mut t = 0u64;
        loop {
            let ttf = rng
                .gen_range(mtbf_us / 2..mtbf_us.saturating_mul(3) / 2 + 1)
                .max(1);
            let down_at = t.saturating_add(ttf);
            if down_at >= horizon_us {
                break;
            }
            let ttr = rng
                .gen_range(mttr_us.max(2) / 2..mttr_us.max(2).saturating_mul(3) / 2 + 1)
                .max(1);
            let up_at = down_at.saturating_add(ttr);
            windows.push(CrashWindow {
                down_at_us: down_at,
                up_at_us: up_at,
            });
            t = up_at;
        }
        Self::from_windows(windows)
    }

    /// The outage windows, sorted and disjoint.
    pub fn windows(&self) -> &[CrashWindow] {
        &self.windows
    }

    /// `true` when the schedule contains no outages.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Is the replica up at `t_us`?
    pub fn is_up(&self, t_us: u64) -> bool {
        !self.windows.iter().any(|w| w.contains(t_us))
    }

    /// The next lifecycle transition at or after `t_us`: `(when, what)`,
    /// or `None` when the schedule has run out of transitions.
    pub fn next_event_at_or_after(&self, t_us: u64) -> Option<(u64, LifecycleEvent)> {
        for w in &self.windows {
            if t_us < w.down_at_us {
                return Some((w.down_at_us, LifecycleEvent::Crash));
            }
            if t_us < w.up_at_us {
                return Some((w.up_at_us, LifecycleEvent::Recover));
            }
        }
        None
    }

    /// When the outage covering `t_us` ends, or `None` if the replica is
    /// up at `t_us`.
    pub fn up_at(&self, t_us: u64) -> Option<u64> {
        self.windows
            .iter()
            .find(|w| w.contains(t_us))
            .map(|w| w.up_at_us)
    }

    /// The start of the first outage in `(t_us, ∞)`, i.e. how long an
    /// attempt starting now can run before the replica dies under it.
    pub fn next_down_after(&self, t_us: u64) -> Option<u64> {
        self.windows
            .iter()
            .map(|w| w.down_at_us)
            .find(|&d| d > t_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_windows_sort_merge_and_answer_queries() {
        let s = CrashSchedule::from_windows(vec![
            CrashWindow {
                down_at_us: 500,
                up_at_us: 700,
            },
            CrashWindow {
                down_at_us: 100,
                up_at_us: 300,
            },
            // Overlaps the first: merges into [500, 800).
            CrashWindow {
                down_at_us: 650,
                up_at_us: 800,
            },
            // Zero-length: dropped.
            CrashWindow {
                down_at_us: 900,
                up_at_us: 900,
            },
        ]);
        assert_eq!(s.windows().len(), 2);
        assert!(s.is_up(0));
        assert!(!s.is_up(100));
        assert!(s.is_up(300), "up boundary is exclusive");
        assert!(!s.is_up(799));
        assert!(s.is_up(800));
        assert_eq!(s.up_at(600), Some(800));
        assert_eq!(s.up_at(50), None);
        assert_eq!(
            s.next_event_at_or_after(0),
            Some((100, LifecycleEvent::Crash))
        );
        assert_eq!(
            s.next_event_at_or_after(100),
            Some((300, LifecycleEvent::Recover))
        );
        assert_eq!(
            s.next_event_at_or_after(300),
            Some((500, LifecycleEvent::Crash))
        );
        assert_eq!(s.next_event_at_or_after(800), None);
        assert_eq!(s.next_down_after(100), Some(500));
        assert_eq!(s.next_down_after(500), None);
    }

    #[test]
    fn single_outage_helper() {
        let s = CrashSchedule::single(1_000, 500);
        assert_eq!(
            s.windows(),
            &[CrashWindow {
                down_at_us: 1_000,
                up_at_us: 1_500
            }]
        );
        assert!(CrashSchedule::none().is_up(u64::MAX - 1));
    }

    #[test]
    fn seeded_schedules_replay_and_respect_bounds() {
        let a = CrashSchedule::seeded(7, 10_000_000, 500_000, 100_000);
        let b = CrashSchedule::seeded(7, 10_000_000, 500_000, 100_000);
        assert_eq!(a, b, "same seed replays the same outages");
        assert!(!a.is_empty(), "10M horizon at 500k MTBF must crash");
        let c = CrashSchedule::seeded(8, 10_000_000, 500_000, 100_000);
        assert_ne!(a, c, "different seeds draw different outages");
        for w in a.windows() {
            assert!(w.down_at_us < 10_000_000, "crashes inside the horizon");
            assert!(w.up_at_us > w.down_at_us);
            // TTR bounded by 3·MTTR/2.
            assert!(w.up_at_us - w.down_at_us <= 150_000 + 1);
        }
        // Disjoint and sorted.
        for pair in a.windows().windows(2) {
            assert!(pair[0].up_at_us < pair[1].down_at_us);
        }
        assert!(CrashSchedule::seeded(1, 1_000_000, 0, 5).is_empty());
    }
}
