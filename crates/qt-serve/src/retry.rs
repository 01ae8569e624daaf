//! Seeded decorrelated-jitter retry backoff.
//!
//! When a request's forward pass comes back flagged (non-finite health —
//! a bit upset hit the weights it read), the right move is usually to
//! just read the weights again: soft errors are transient, and a retry
//! sees an independent draw. But retries under overload synchronise into
//! waves unless they are jittered, so each delay is drawn from the
//! *decorrelated jitter* scheme (`delay = min(cap, uniform(base,
//! prev·3))`). Every per-request sequence comes from its own seeded RNG —
//! there is no wall clock anywhere in the decision path, so a serving
//! trace replays bit-exactly.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Retry limits and backoff shape for flagged (unhealthy) attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Primary-path attempts before the request is forced onto the
    /// degraded path (minimum 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff delay, µs.
    pub base_us: u64,
    /// Upper bound every delay is clamped to, µs.
    pub cap_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_us: 500,
            cap_us: 8_000,
        }
    }
}

/// One request's backoff sequence (decorrelated jitter, seeded).
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    policy: RetryPolicy,
    rng: StdRng,
    prev_us: u64,
}

impl Backoff {
    /// Sequence for one request; `seed` should be derived from the
    /// request id so replays are exact and requests are decorrelated
    /// from each other.
    pub(crate) fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            rng: StdRng::seed_from_u64(seed),
            prev_us: policy.base_us,
        }
    }

    /// Draw the next delay: `min(cap, uniform(base, prev·3))`, never
    /// below `base` and never zero.
    pub(crate) fn next_delay_us(&mut self) -> u64 {
        let base = self.policy.base_us.max(1);
        let hi = self.prev_us.saturating_mul(3).max(base + 1);
        let d = self
            .rng
            .gen_range(base..hi)
            .min(self.policy.cap_us.max(base));
        self.prev_us = d;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_seeded_bounded_and_decorrelated() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_us: 100,
            cap_us: 2_000,
        };
        let mut a = Backoff::new(p, 7);
        let mut b = Backoff::new(p, 7);
        let da: Vec<u64> = (0..16).map(|_| a.next_delay_us()).collect();
        let db: Vec<u64> = (0..16).map(|_| b.next_delay_us()).collect();
        assert_eq!(da, db, "same seed replays the same schedule");
        for &d in &da {
            assert!(
                (p.base_us..=p.cap_us).contains(&d),
                "delay {d} out of bounds"
            );
        }
        let mut c = Backoff::new(p, 8);
        let dc: Vec<u64> = (0..16).map(|_| c.next_delay_us()).collect();
        assert_ne!(da, dc, "different requests draw different schedules");
    }

    #[test]
    fn degenerate_policy_still_makes_progress() {
        // base == cap: every delay is exactly the cap; base 0 is floored.
        let mut b = Backoff::new(
            RetryPolicy {
                max_attempts: 1,
                base_us: 0,
                cap_us: 0,
            },
            1,
        );
        for _ in 0..4 {
            assert!(b.next_delay_us() >= 1);
        }
    }
}
