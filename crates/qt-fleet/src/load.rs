//! Synthetic fleet load: open-loop arrivals with diurnal and bursty
//! shapes over a large simulated user population.
//!
//! Everything is generated from seeds on the virtual clock — floats
//! included, IEEE arithmetic is deterministic — so the same spec always
//! produces the same request stream, byte for byte, at any `QT_THREADS`.

use qt_robust::cell_seed;
use qt_serve::Request;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// How the arrival rate varies over the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Flat rate.
    Constant,
    /// Triangle-wave "day": the rate ramps linearly from
    /// `rps × trough_ratio` at the period edges to
    /// `rps × (2 − trough_ratio)` mid-period and back. The triangle
    /// averages to `rps` exactly, so mean load is shape-independent.
    Diurnal {
        /// Trough rate as a fraction of the mean, in `[0, 1]`.
        trough_ratio: f64,
    },
    /// Baseline rate with periodic bursts: for the first
    /// `burst_len_us` of every period the rate is `rps × burst_mult`.
    Bursty {
        /// Burst duration at the start of each period, µs.
        burst_len_us: u64,
        /// Rate multiplier during a burst.
        burst_mult: f64,
    },
}

impl ArrivalShape {
    /// Stable lowercase name (JSON, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalShape::Constant => "constant",
            ArrivalShape::Diurnal { .. } => "diurnal",
            ArrivalShape::Bursty { .. } => "bursty",
        }
    }
}

/// One request as the fleet sees it: the serving request plus who sent
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRequest {
    /// The underlying serving request (id, tokens, arrival, deadline).
    pub req: Request,
    /// Simulated user id, drawn from the whole population.
    pub user: u64,
    /// Tenant (`user % tenants`) — the quota-accounting key.
    pub tenant: u32,
}

/// Open-loop fleet load specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLoadSpec {
    /// Mean offered requests per second (virtual time).
    pub rps: f64,
    /// Virtual duration arrivals are generated for, µs.
    pub duration_us: u64,
    /// Rate shape over the run.
    pub shape: ArrivalShape,
    /// Shape period (one simulated "day" or burst cycle), µs.
    pub period_us: u64,
    /// Simulated user population; each request draws a uniform user id
    /// in `[0, users)`.
    pub users: u64,
    /// Tenant count (requests carry `user % tenants`).
    pub tenants: u32,
    /// Per-request deadline budget after arrival, µs (0 = none).
    pub deadline_us: u64,
    /// Tokens per request.
    pub seq: usize,
    /// Seed for user draws and token streams.
    pub seed: u64,
}

impl Default for FleetLoadSpec {
    fn default() -> Self {
        Self {
            rps: 100.0,
            duration_us: 1_000_000,
            shape: ArrivalShape::Diurnal { trough_ratio: 0.3 },
            period_us: 500_000,
            users: 1_000_000,
            tenants: 4,
            deadline_us: 0,
            seq: 8,
            seed: 0xf1ee7,
        }
    }
}

impl FleetLoadSpec {
    /// Instantaneous arrival rate at virtual time `at_us`, requests/s.
    pub fn rate_at(&self, at_us: u64) -> f64 {
        let base = self.rps.max(1e-6);
        let period = self.period_us.max(1);
        let phase = (at_us % period) as f64 / period as f64;
        match self.shape {
            ArrivalShape::Constant => base,
            ArrivalShape::Diurnal { trough_ratio } => {
                let trough = trough_ratio.clamp(0.0, 1.0);
                // Triangle in [0, 1]: 0 at the period edges, 1 mid-period.
                let tri = 1.0 - (2.0 * phase - 1.0).abs();
                base * (trough + 2.0 * (1.0 - trough) * tri)
            }
            ArrivalShape::Bursty {
                burst_len_us,
                burst_mult,
            } => {
                if at_us % period < burst_len_us.min(period) {
                    base * burst_mult.max(0.0)
                } else {
                    base
                }
            }
        }
    }

    /// Generate the arrival stream: ids in arrival order, inter-arrival
    /// gaps tracking the instantaneous rate, users drawn uniformly from
    /// the population, token streams per request.
    pub fn requests(&self, vocab: usize) -> Vec<FleetRequest> {
        let tenants = self.tenants.max(1);
        let users = self.users.max(1);
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut at = 0u64;
        while at < self.duration_us.max(1) {
            let mut rng = StdRng::seed_from_u64(cell_seed(self.seed, id as usize, 1, 0));
            let tokens = (0..self.seq.max(1))
                .map(|_| rng.gen_range(0..vocab.max(2)))
                .collect();
            let user = rng.gen_range(0..users);
            let mut req = Request::new(id, tokens).with_arrival(at);
            if self.deadline_us > 0 {
                req = req.with_deadline(self.deadline_us);
            }
            out.push(FleetRequest {
                req,
                user,
                tenant: (user % tenants as u64) as u32,
            });
            id += 1;
            at += ((1e6 / self.rate_at(at)) as u64).max(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let spec = FleetLoadSpec::default();
        let a = spec.requests(96);
        let b = spec.requests(96);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].req.arrival_us <= w[1].req.arrival_us);
            assert_eq!(w[0].req.id + 1, w[1].req.id);
        }
        for r in &a {
            assert!(r.user < spec.users);
            assert_eq!(r.tenant, (r.user % spec.tenants as u64) as u32);
        }
    }

    #[test]
    fn diurnal_peak_is_denser_than_trough() {
        let spec = FleetLoadSpec {
            shape: ArrivalShape::Diurnal { trough_ratio: 0.2 },
            period_us: 1_000_000,
            duration_us: 1_000_000,
            rps: 200.0,
            ..FleetLoadSpec::default()
        };
        let reqs = spec.requests(96);
        // Quarter around the trough (period edge) vs around the peak.
        let trough = reqs.iter().filter(|r| r.req.arrival_us < 250_000).count();
        let peak = reqs
            .iter()
            .filter(|r| (375_000..625_000).contains(&r.req.arrival_us))
            .count();
        assert!(
            peak > trough * 2,
            "mid-period should be much denser: peak={peak} trough={trough}"
        );
    }

    #[test]
    fn bursty_bursts_are_denser_than_baseline() {
        let spec = FleetLoadSpec {
            shape: ArrivalShape::Bursty {
                burst_len_us: 100_000,
                burst_mult: 5.0,
            },
            period_us: 500_000,
            duration_us: 1_000_000,
            rps: 100.0,
            ..FleetLoadSpec::default()
        };
        let reqs = spec.requests(96);
        let in_burst = reqs
            .iter()
            .filter(|r| r.req.arrival_us % 500_000 < 100_000)
            .count();
        let outside = reqs.len() - in_burst;
        // Burst covers 1/5 of the time at 5× rate → about half the load.
        assert!(in_burst > outside / 2, "in={in_burst} out={outside}");
    }

    #[test]
    fn mean_rate_is_roughly_shape_independent() {
        let base = FleetLoadSpec {
            rps: 500.0,
            duration_us: 2_000_000,
            period_us: 250_000,
            ..FleetLoadSpec::default()
        };
        let flat = FleetLoadSpec {
            shape: ArrivalShape::Constant,
            ..base.clone()
        }
        .requests(96)
        .len() as f64;
        let diurnal = FleetLoadSpec {
            shape: ArrivalShape::Diurnal { trough_ratio: 0.3 },
            ..base
        }
        .requests(96)
        .len() as f64;
        // Harmonic-vs-arithmetic mean effects keep this approximate.
        assert!(
            (diurnal / flat - 1.0).abs() < 0.35,
            "flat={flat} diurnal={diurnal}"
        );
    }
}
