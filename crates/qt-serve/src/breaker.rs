//! Health-driven circuit breaker over the quantized inference path.
//!
//! A single flagged forward pass is retried; a *pattern* of them means
//! the fault environment has shifted (SRAM corruption burst, failing
//! rail) and retrying every request just burns deadline budget. The
//! breaker watches a sliding [`HealthWindow`] of primary-path outcomes
//! and, once the unhealthy rate crosses threshold, trips: requests are
//! routed to the degraded BF16 reference path (pristine weights, no
//! 8-bit storage to corrupt) for a cooldown, then half-open probes test
//! the 8-bit path until enough consecutive clean probes restore it.
//!
//! Classic three-state machine, denominated in *requests* rather than
//! wall time so the whole trajectory is deterministic:
//!
//! ```text
//! Closed ──rate ≥ trip_rate──▶ Open ──cooldown requests──▶ HalfOpen
//!    ▲                          ▲                            │
//!    └──── probes all clean ────┼──── probe flagged ─────────┘
//! ```

use qt_quant::{HealthWindow, TensorHealth};

/// Breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Primary 8-bit path in service.
    Closed,
    /// Primary path out of service; everything degrades.
    Open,
    /// Probing the primary path with live requests.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (metrics labels, JSON, trace args).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Stable numeric code for trace-event args (0/1/2 in declaration
    /// order).
    pub fn code(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// When to trip, how long to stay tripped, and what it takes to close.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Sliding-window size, in primary-path outcomes.
    pub window: usize,
    /// Outcomes required in the window before the trip rate is consulted
    /// (prevents one early upset from tripping an empty window).
    pub min_samples: usize,
    /// Unhealthy fraction at or above which the breaker trips.
    pub trip_rate: f64,
    /// Requests routed degraded after a trip before probing starts.
    pub cooldown_requests: u64,
    /// Consecutive clean probes required to close again.
    pub probe_successes: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            window: 32,
            min_samples: 8,
            trip_rate: 0.5,
            cooldown_requests: 16,
            probe_successes: 3,
        }
    }
}

/// Where the breaker routes one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Quantized 8-bit path.
    Primary,
    /// BF16 reference path on pristine weights.
    Degraded,
}

/// One recorded state change, on the runtime's virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Virtual time of the change, µs.
    pub at_us: u64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Window unhealthy rate at the moment of the change.
    pub unhealthy_rate: f64,
}

/// The breaker itself: policy + window + state machine + audit log.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    window: HealthWindow,
    cooldown_left: u64,
    probes_ok: u32,
    trips: u64,
    transitions: Vec<Transition>,
}

impl CircuitBreaker {
    /// Closed breaker with an empty window.
    pub fn new(policy: BreakerPolicy) -> Self {
        Self {
            policy,
            state: BreakerState::Closed,
            window: HealthWindow::new(policy.window),
            cooldown_left: 0,
            probes_ok: 0,
            trips: 0,
            transitions: Vec::new(),
        }
    }

    /// Closed breaker that remembers `trips` prior trips — for resuming
    /// a node whose trip history was recovered from a durable
    /// [`crate::HealthSnapshot`], so monitoring counters stay continuous
    /// across a crash/restart.
    pub fn with_initial_trips(policy: BreakerPolicy, trips: u64) -> Self {
        Self {
            trips,
            ..Self::new(policy)
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped (Closed/HalfOpen → Open).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Every state change, in order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Unhealthy fraction of the current window.
    pub fn unhealthy_rate(&self) -> f64 {
        self.window.unhealthy_rate()
    }

    /// The sliding window of primary-path outcomes.
    pub fn window(&self) -> &HealthWindow {
        &self.window
    }

    /// Route the next request. Open-state calls are what count the
    /// cooldown down; the request that exhausts it becomes the first
    /// half-open probe.
    pub fn route(&mut self, now_us: u64) -> Route {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Route::Primary,
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.probes_ok = 0;
                    self.transition(now_us, BreakerState::HalfOpen);
                    Route::Primary
                } else {
                    Route::Degraded
                }
            }
        }
    }

    /// Record the health of one completed primary-path attempt. Drives
    /// trips (Closed), probe verdicts (HalfOpen), and is ignored while
    /// Open (a straggler that started before the trip).
    pub fn on_primary_outcome(&mut self, health: &TensorHealth, now_us: u64) {
        let unhealthy = HealthWindow::is_unhealthy(health);
        match self.state {
            BreakerState::Closed => {
                self.window.push(*health);
                if self.window.len() >= self.policy.min_samples.max(1)
                    && self.window.unhealthy_rate() >= self.policy.trip_rate
                {
                    self.trip(now_us);
                }
            }
            BreakerState::HalfOpen => {
                if unhealthy {
                    self.trip(now_us);
                } else {
                    self.probes_ok += 1;
                    if self.probes_ok >= self.policy.probe_successes.max(1) {
                        // Clean slate: stale fault history must not
                        // re-trip a recovered path.
                        self.window.clear();
                        self.transition(now_us, BreakerState::Closed);
                    }
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Force the breaker Open with a full cooldown, regardless of window
    /// state — the replica-lifecycle hook. A node that crashed and came
    /// back must not be trusted with primary traffic on the strength of
    /// pre-crash health: it re-earns service through the same cooldown →
    /// HalfOpen → probe path as a fault trip. Counts as a trip (any
    /// entry into Open does). No-op when already Open.
    pub fn force_open(&mut self, now_us: u64) {
        if self.state != BreakerState::Open {
            self.trip(now_us);
        }
    }

    /// Advance the Open cooldown by one notch *without* routing a
    /// request, transitioning to HalfOpen when it expires.
    ///
    /// [`CircuitBreaker::route`] counts the cooldown down as requests
    /// arrive, which is right when the breaker itself is the router. In
    /// a fleet, an Open replica receives *no* traffic at all — so the
    /// fleet's router calls this once per routing decision in which the
    /// replica was considered and skipped, keeping recovery denominated
    /// in observed demand (deterministic) rather than wall time.
    /// Returns the state after the tick.
    pub fn tick_open(&mut self, now_us: u64) -> BreakerState {
        if self.state == BreakerState::Open {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.probes_ok = 0;
                self.transition(now_us, BreakerState::HalfOpen);
            }
        }
        self.state
    }

    fn trip(&mut self, now_us: u64) {
        self.trips += 1;
        self.cooldown_left = self.policy.cooldown_requests.max(1);
        self.transition(now_us, BreakerState::Open);
    }

    fn transition(&mut self, at_us: u64, to: BreakerState) {
        self.transitions.push(Transition {
            at_us,
            from: self.state,
            to,
            unhealthy_rate: self.window.unhealthy_rate(),
        });
        self.state = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> TensorHealth {
        TensorHealth {
            elements: 8,
            ..TensorHealth::default()
        }
    }

    fn bad() -> TensorHealth {
        TensorHealth {
            elements: 8,
            nonfinite_out: 1,
            ..TensorHealth::default()
        }
    }

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            window: 8,
            min_samples: 4,
            trip_rate: 0.5,
            cooldown_requests: 3,
            probe_successes: 2,
        }
    }

    #[test]
    fn full_round_trip_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(policy());
        assert_eq!(b.state(), BreakerState::Closed);
        // Two clean, then unhealthy outcomes until the rate trips.
        b.on_primary_outcome(&clean(), 1);
        b.on_primary_outcome(&clean(), 2);
        b.on_primary_outcome(&bad(), 3);
        assert_eq!(b.state(), BreakerState::Closed, "below min_samples");
        b.on_primary_outcome(&bad(), 4);
        assert_eq!(b.state(), BreakerState::Open, "2/4 unhealthy trips at 0.5");
        assert_eq!(b.trips(), 1);
        // Cooldown: 2 degraded routes, the 3rd becomes the probe.
        assert_eq!(b.route(5), Route::Degraded);
        assert_eq!(b.route(6), Route::Degraded);
        assert_eq!(b.route(7), Route::Primary);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // One clean probe is not enough; the second closes.
        b.on_primary_outcome(&clean(), 8);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_primary_outcome(&clean(), 9);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.unhealthy_rate(), 0.0, "window cleared on close");
        let kinds: Vec<(BreakerState, BreakerState)> =
            b.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            kinds,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn flagged_probe_reopens() {
        let mut b = CircuitBreaker::new(policy());
        for t in 0..4 {
            b.on_primary_outcome(&bad(), t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        while b.route(10) == Route::Degraded {}
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_primary_outcome(&bad(), 11);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn force_open_then_tick_reaches_halfopen_and_probes_close() {
        let mut b = CircuitBreaker::with_initial_trips(policy(), 5);
        assert_eq!(b.trips(), 5, "resumed trip history");
        assert_eq!(b.state(), BreakerState::Closed);
        b.force_open(100);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 6, "forcing open counts as a trip");
        b.force_open(101);
        assert_eq!(b.trips(), 6, "idempotent while already open");
        // cooldown_requests = 3: two ticks stay Open, the third probes.
        assert_eq!(b.tick_open(102), BreakerState::Open);
        assert_eq!(b.tick_open(103), BreakerState::Open);
        assert_eq!(b.tick_open(104), BreakerState::HalfOpen);
        assert_eq!(
            b.tick_open(105),
            BreakerState::HalfOpen,
            "tick is Open-only"
        );
        b.on_primary_outcome(&clean(), 106);
        b.on_primary_outcome(&clean(), 107);
        assert_eq!(b.state(), BreakerState::Closed, "probes re-earn service");
    }

    #[test]
    fn open_ignores_straggler_outcomes() {
        let mut b = CircuitBreaker::new(policy());
        for t in 0..4 {
            b.on_primary_outcome(&bad(), t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let before = b.transitions().len();
        b.on_primary_outcome(&clean(), 5);
        b.on_primary_outcome(&bad(), 6);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().len(), before);
    }
}
