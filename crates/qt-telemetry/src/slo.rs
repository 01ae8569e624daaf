//! Declarative SLOs with error budgets and multi-window burn-rate alerts.
//!
//! An [`SloSpec`] names an objective — "99.9% of requests are served"
//! (availability) or "99% of requests finish under 40 ms" (latency) —
//! and carries the burn-rate rules that alert on it. The math follows
//! the Google SRE workbook's multi-window, multi-burn-rate recipe: a
//! rule fires when the burn rate over *both* a short and a long window
//! is at least its factor, which makes alerts fast on real outages and
//! quiet on blips. All windows are in **virtual** microseconds and are
//! clipped to the start of the run, so a simulation much shorter than
//! "1 hour" of virtual time still alerts on a sustained outage.
//!
//! Events may arrive slightly out of chronological order (the fleet
//! records a response at *pickup* with its future finish timestamp);
//! the tracker therefore buckets observations by timestamp and always
//! evaluates at the latest timestamp seen so far, which makes the alert
//! sequence a pure function of the event *multiset* order the
//! deterministic event loop produces.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One µs-denominated burn-rate rule: fire when the burn rate over both
/// windows reaches `factor`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRule {
    /// Stable rule name (`fast`, `slow`, …).
    pub name: String,
    /// Short window width, virtual µs.
    pub short_us: u64,
    /// Long window width, virtual µs.
    pub long_us: u64,
    /// Burn-rate threshold both windows must reach.
    pub factor: f64,
}

const MINUTE_US: u64 = 60_000_000;
const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 86_400_000_000;

impl BurnRule {
    /// The fast-burn page: 5 m / 1 h windows at burn ≥ 14.4 (consumes
    /// 2% of a 30-day budget in an hour).
    pub fn fast() -> Self {
        Self {
            name: "fast".to_string(),
            short_us: 5 * MINUTE_US,
            long_us: HOUR_US,
            factor: 14.4,
        }
    }

    /// The slow-burn ticket: 6 h / 3 d windows at burn ≥ 6.0 (consumes
    /// 10% of a 30-day budget in 6 hours).
    pub fn slow() -> Self {
        Self {
            name: "slow".to_string(),
            short_us: 6 * HOUR_US,
            long_us: 3 * DAY_US,
            factor: 6.0,
        }
    }

    /// The same rule with both windows multiplied by `scale` (at least
    /// 1 µs each) — lets short simulations exercise the full
    /// fast-and-slow pair without simulating days of virtual time.
    pub fn scaled(&self, scale: f64) -> Self {
        let mul = |w: u64| ((w as f64 * scale) as u64).max(1);
        Self {
            name: self.name.clone(),
            short_us: mul(self.short_us),
            long_us: mul(self.long_us),
            factor: self.factor,
        }
    }
}

/// What counts as a *good* event for an objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Good = the request was served at all.
    Availability,
    /// Good = the request was served *and* finished within `target_us`.
    LatencyP99 {
        /// Latency bound a good request must meet, virtual µs.
        target_us: u64,
    },
}

impl SloKind {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            SloKind::Availability => "availability",
            SloKind::LatencyP99 { .. } => "latency_p99",
        }
    }
}

/// A named objective: a target fraction of good events, a kind, and the
/// burn-rate rules that alert on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable objective name.
    pub name: String,
    /// Target good fraction in `(0, 1)`, e.g. `0.999`.
    pub target: f64,
    /// What counts as good.
    pub kind: SloKind,
    /// Burn-rate rules (default: [`BurnRule::fast`] + [`BurnRule::slow`]).
    pub rules: Vec<BurnRule>,
}

impl SloSpec {
    /// Availability objective at `target` with the default rule pair.
    pub fn availability(target: f64) -> Self {
        Self {
            name: "availability".to_string(),
            target,
            kind: SloKind::Availability,
            rules: vec![BurnRule::fast(), BurnRule::slow()],
        }
    }

    /// Latency objective: `target` fraction of requests finish within
    /// `target_us`, with the default rule pair.
    pub fn latency_p99(target: f64, target_us: u64) -> Self {
        Self {
            name: "latency_p99".to_string(),
            target,
            kind: SloKind::LatencyP99 { target_us },
            rules: vec![BurnRule::fast(), BurnRule::slow()],
        }
    }

    /// The spec with every rule's windows multiplied by `scale`.
    pub fn with_window_scale(mut self, scale: f64) -> Self {
        self.rules = self.rules.iter().map(|r| r.scaled(scale)).collect();
        self
    }

    /// Error budget: the allowed bad fraction, floored at a tiny
    /// positive value so a `target` of exactly 1.0 cannot divide by
    /// zero.
    pub fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-12)
    }
}

/// One alert state *transition* (fire or resolve) — recorded only on
/// change, so an outage produces exactly one fire and one resolve per
/// rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Evaluation timestamp, virtual µs.
    pub at_us: u64,
    /// Objective name.
    pub slo: String,
    /// Rule name.
    pub rule: String,
    /// `true` = fired, `false` = resolved.
    pub firing: bool,
    /// Burn rate over the rule's short window at evaluation.
    pub burn_short: f64,
    /// Burn rate over the rule's long window at evaluation.
    pub burn_long: f64,
}

impl AlertEvent {
    /// The event as a deterministic JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "at_us": self.at_us,
            "slo": self.slo.clone(),
            "rule": self.rule.clone(),
            "firing": self.firing,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
        })
    }
}

/// Good/bad accounting for one objective, bucketed on the virtual
/// clock.
#[derive(Debug, Clone)]
pub struct SloTracker {
    spec: SloSpec,
    interval_us: u64,
    /// Window index → (good, bad). Kept for the whole run: the long
    /// windows need deep history and a run's bucket count is bounded by
    /// its virtual duration / interval.
    buckets: BTreeMap<u64, (u64, u64)>,
    total_good: u64,
    total_bad: u64,
    firing: Vec<bool>,
}

impl SloTracker {
    /// Fresh tracker for `spec`, bucketing at `interval_us`.
    pub fn new(spec: SloSpec, interval_us: u64) -> Self {
        let firing = vec![false; spec.rules.len()];
        Self {
            spec,
            interval_us: interval_us.max(1),
            buckets: BTreeMap::new(),
            total_good: 0,
            total_bad: 0,
            firing,
        }
    }

    /// The objective.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Whether this objective counts `(served, latency_us)` as good.
    pub fn is_good(&self, served: bool, latency_us: u64) -> bool {
        match self.spec.kind {
            SloKind::Availability => served,
            SloKind::LatencyP99 { target_us } => served && latency_us <= target_us,
        }
    }

    /// Record one event at `at_us`.
    pub fn observe(&mut self, at_us: u64, good: bool) {
        let e = self
            .buckets
            .entry(at_us / self.interval_us)
            .or_insert((0, 0));
        if good {
            e.0 += 1;
            self.total_good += 1;
        } else {
            e.1 += 1;
            self.total_bad += 1;
        }
    }

    /// (good, bad) over the window of `width_us` ending at `end_us`,
    /// clipped to the run start.
    fn window_counts(&self, end_us: u64, width_us: u64) -> (u64, u64) {
        let lo = end_us.saturating_sub(width_us) / self.interval_us;
        let hi = end_us / self.interval_us;
        let mut good = 0;
        let mut bad = 0;
        for (_, &(g, b)) in self.buckets.range(lo..=hi) {
            good += g;
            bad += b;
        }
        (good, bad)
    }

    /// Burn rate — (bad fraction over the window) / (error budget) —
    /// over the window of `width_us` ending at `end_us`. Zero when the
    /// window is empty.
    pub fn burn(&self, end_us: u64, width_us: u64) -> f64 {
        let (good, bad) = self.window_counts(end_us, width_us);
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.spec.budget()
    }

    /// Re-evaluate every rule at `eval_us`, appending one [`AlertEvent`]
    /// per rule whose firing state changed.
    pub fn evaluate(&mut self, eval_us: u64, out: &mut Vec<AlertEvent>) {
        for (i, rule) in self.spec.rules.iter().enumerate() {
            let burn_short = {
                let (good, bad) = self.window_counts(eval_us, rule.short_us);
                let total = good + bad;
                if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / self.spec.budget()
                }
            };
            let burn_long = {
                let (good, bad) = self.window_counts(eval_us, rule.long_us);
                let total = good + bad;
                if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / self.spec.budget()
                }
            };
            let now_firing = burn_short >= rule.factor && burn_long >= rule.factor;
            if now_firing != self.firing[i] {
                self.firing[i] = now_firing;
                out.push(AlertEvent {
                    at_us: eval_us,
                    slo: self.spec.name.clone(),
                    rule: rule.name.clone(),
                    firing: now_firing,
                    burn_short,
                    burn_long,
                });
            }
        }
    }

    /// Per-rule firing state, in rule order.
    pub fn firing(&self) -> &[bool] {
        &self.firing
    }

    /// Whole-run budget consumption: (overall bad fraction) / (error
    /// budget). 1.0 means the run exactly spent its budget; above 1.0
    /// the objective is violated.
    pub fn budget_consumed(&self) -> f64 {
        let total = self.total_good + self.total_bad;
        if total == 0 {
            return 0.0;
        }
        (self.total_bad as f64 / total as f64) / self.spec.budget()
    }

    /// (good, bad) totals for the whole run.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_good, self.total_bad)
    }

    /// The tracker's final state as a deterministic JSON object.
    pub fn to_json(&self) -> Value {
        let rules: Vec<Value> = self
            .spec
            .rules
            .iter()
            .zip(&self.firing)
            .map(|(r, &firing)| {
                json!({
                    "name": r.name.clone(),
                    "short_us": r.short_us,
                    "long_us": r.long_us,
                    "factor": r.factor,
                    "firing": firing,
                })
            })
            .collect();
        json!({
            "name": self.spec.name.clone(),
            "kind": self.spec.kind.name(),
            "target": self.spec.target,
            "good": self.total_good,
            "bad": self.total_bad,
            "budget_consumed": self.budget_consumed(),
            "rules": rules,
        })
    }
}

/// All of a run's objectives plus the merged, ordered alert log.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    trackers: Vec<SloTracker>,
    alerts: Vec<AlertEvent>,
    latest_us: u64,
}

impl SloEngine {
    /// Engine over `specs`, bucketing at `interval_us`.
    pub fn new(specs: Vec<SloSpec>, interval_us: u64) -> Self {
        Self {
            trackers: specs
                .into_iter()
                .map(|s| SloTracker::new(s, interval_us))
                .collect(),
            alerts: Vec::new(),
            latest_us: 0,
        }
    }

    /// Record one finished request outcome and re-evaluate every rule.
    ///
    /// Evaluation happens at `max(at_us, latest seen)` so events
    /// recorded with a future finish timestamp (the fleet records at
    /// pickup) keep the evaluation clock monotone.
    pub fn record(&mut self, at_us: u64, served: bool, latency_us: u64) {
        self.latest_us = self.latest_us.max(at_us);
        let eval_us = self.latest_us;
        for t in &mut self.trackers {
            let good = t.is_good(served, latency_us);
            t.observe(at_us, good);
            t.evaluate(eval_us, &mut self.alerts);
        }
    }

    /// All alert transitions, in evaluation order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// The trackers, in spec order.
    pub fn trackers(&self) -> &[SloTracker] {
        &self.trackers
    }

    /// Latest evaluation timestamp.
    pub fn latest_us(&self) -> u64 {
        self.latest_us
    }

    /// `true` if any rule of any objective is currently firing.
    pub fn any_firing(&self) -> bool {
        self.trackers.iter().any(|t| t.firing().iter().any(|&f| f))
    }

    /// Count of *fire* transitions (ignores resolves).
    pub fn fires(&self) -> usize {
        self.alerts.iter().filter(|a| a.firing).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail_spec() -> SloSpec {
        // 99.9% availability with tiny windows so tests run in µs.
        SloSpec {
            rules: vec![BurnRule {
                name: "fast".to_string(),
                short_us: 1_000,
                long_us: 10_000,
                factor: 14.4,
            }],
            ..SloSpec::availability(0.999)
        }
    }

    #[test]
    fn healthy_run_never_alerts() {
        let mut e = SloEngine::new(vec![avail_spec()], 100);
        for t in 0..200u64 {
            e.record(t * 50, true, 10);
        }
        assert!(e.alerts().is_empty());
        assert!(!e.any_firing());
        assert_eq!(e.trackers()[0].budget_consumed(), 0.0);
    }

    #[test]
    fn outage_fires_then_resolves_once() {
        let mut e = SloEngine::new(vec![avail_spec()], 100);
        // Healthy warmup, then a hard outage, then recovery long enough
        // for both windows to drain.
        for t in 0..20u64 {
            e.record(t * 50, true, 10);
        }
        for t in 20..60u64 {
            e.record(t * 50, false, 0);
        }
        for t in 60..600u64 {
            e.record(t * 50, true, 10);
        }
        let fires: Vec<&AlertEvent> = e.alerts().iter().filter(|a| a.firing).collect();
        let resolves: Vec<&AlertEvent> = e.alerts().iter().filter(|a| !a.firing).collect();
        assert_eq!(fires.len(), 1, "alerts: {:?}", e.alerts());
        assert_eq!(resolves.len(), 1, "alerts: {:?}", e.alerts());
        assert!(fires[0].at_us < resolves[0].at_us);
        assert!(fires[0].burn_short >= 14.4);
        assert!(!e.any_firing());
        assert!(e.trackers()[0].budget_consumed() > 1.0);
    }

    #[test]
    fn rule_needs_both_windows() {
        // Bad events confined to old buckets: short window over recent
        // time sees no badness, so no alert despite long-window burn.
        let spec = avail_spec();
        let mut t = SloTracker::new(spec, 100);
        for i in 0..10 {
            t.observe(i * 100, false);
        }
        for i in 50..100u64 {
            t.observe(i * 100, true);
        }
        let mut out = Vec::new();
        t.evaluate(10_000, &mut out);
        assert!(out.is_empty());
        assert!(t.burn(10_000, 10_000) > 14.4);
        assert_eq!(t.burn(10_000, 1_000), 0.0);
    }

    #[test]
    fn out_of_order_events_keep_eval_clock_monotone() {
        let mut a = SloEngine::new(vec![avail_spec()], 100);
        // Pickup-order recording: a later finish time arrives first.
        a.record(5_000, true, 10);
        a.record(4_900, false, 0);
        assert_eq!(a.latest_us(), 5_000);
        let mut b = SloEngine::new(vec![avail_spec()], 100);
        b.record(4_900, false, 0);
        b.record(5_000, true, 10);
        // Totals agree regardless of arrival order.
        assert_eq!(a.trackers()[0].totals(), b.trackers()[0].totals());
    }

    #[test]
    fn latency_kind_counts_slow_served_as_bad() {
        let spec = SloSpec {
            rules: vec![],
            ..SloSpec::latency_p99(0.99, 100)
        };
        let mut t = SloTracker::new(spec, 100);
        assert!(t.is_good(true, 100));
        assert!(!t.is_good(true, 101));
        assert!(!t.is_good(false, 10));
        t.observe(0, true);
        t.observe(0, false);
        assert_eq!(t.totals(), (1, 1));
        assert!((t.budget_consumed() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_scale_shrinks_rules() {
        let s = SloSpec::availability(0.999).with_window_scale(1e-6);
        assert_eq!(s.rules[0].short_us, 300); // 5 min → 300 µs
        assert_eq!(s.rules[0].long_us, 3_600);
        assert_eq!(s.rules[1].short_us, 21_600);
        assert_eq!(s.rules[1].long_us, 259_200);
    }

    #[test]
    fn target_one_does_not_divide_by_zero() {
        let spec = SloSpec {
            target: 1.0,
            rules: vec![],
            ..SloSpec::availability(1.0)
        };
        let mut t = SloTracker::new(spec, 100);
        t.observe(0, false);
        assert!(t.budget_consumed().is_finite());
    }
}
