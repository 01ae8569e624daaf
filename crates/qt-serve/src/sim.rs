//! Deterministic discrete-event serving simulation and its report.
//!
//! The chaos experiments need the *whole serving story* — admission,
//! queueing, deadlines, retries, breaker trips — to replay bit-exactly,
//! independent of host load and of the `QT_THREADS` kernel pool. So the
//! driver is a single-threaded discrete-event simulation on a virtual
//! microsecond clock: workers are simulated resources (their count is a
//! config knob, not a thread count), service time is blocks-executed ×
//! per-block cost plus retry backoff, and every event is processed in
//! (time, kind, sequence) order. The forward passes inside still run on
//! the real qt-par kernels, whose results are bitwise identical at any
//! pool size — which is exactly why the report's counters are too.

use crate::breaker::{CircuitBreaker, Transition};
use crate::config::ServeConfig;
use crate::engine::Engine;
use crate::request::{OutcomeKind, Request, Response};
use qt_robust::cell_seed;
use qt_trace::{LogHist, TraceHandle};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde_json::{json, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Open-loop load: arrivals at a fixed rate for a fixed duration, all
/// sharing one relative deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Offered requests per second (virtual time).
    pub rps: f64,
    /// Virtual duration arrivals are generated for, µs.
    pub duration_us: u64,
    /// Per-request deadline budget after arrival, µs (0 = no deadline).
    pub deadline_us: u64,
    /// Tokens per request.
    pub seq: usize,
    /// Seed for the token streams (per-request streams derived from it).
    pub seed: u64,
}

impl LoadSpec {
    /// Generate the arrival schedule: evenly spaced, ids in arrival
    /// order, token ids drawn per request from a seed mixed with the
    /// request id.
    pub fn requests(&self, vocab: usize) -> Vec<Request> {
        let interval = ((1e6 / self.rps.max(1e-6)) as u64).max(1);
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut at = 0u64;
        while at < self.duration_us.max(1) {
            let mut rng = StdRng::seed_from_u64(cell_seed(self.seed, id as usize, 1, 0));
            let tokens = (0..self.seq.max(1))
                .map(|_| rng.gen_range(0..vocab.max(2)))
                .collect();
            let mut req = Request::new(id, tokens).with_arrival(at);
            if self.deadline_us > 0 {
                req = req.with_deadline(self.deadline_us);
            }
            out.push(req);
            id += 1;
            at += interval;
        }
        out
    }
}

/// Everything one simulated serving run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Requests offered (arrivals).
    pub offered: u64,
    /// Served from the quantized primary path.
    pub served_primary: u64,
    /// Served from the degraded reference path.
    pub served_degraded: u64,
    /// Shed at admission (queue full).
    pub shed_queue_full: u64,
    /// Missed their deadline.
    pub deadline_miss: u64,
    /// Attempts flagged unhealthy (each retried or degraded).
    pub flagged_attempts: u64,
    /// Bits the fault source flipped across all weight reads.
    pub bits_flipped: u64,
    /// Breaker trips.
    pub breaker_trips: u64,
    /// Breaker state changes, in order, on the virtual clock.
    pub transitions: Vec<Transition>,
    /// End-to-end latency of non-shed requests, µs (log2 binades).
    pub latency: LogHist,
    /// Admission-to-service wait, µs (log2 binades).
    pub queue_wait: LogHist,
    /// High-water mark of the queue backlog.
    pub max_queue_depth: u64,
    /// Virtual time the last request finished, µs.
    pub end_us: u64,
    /// Every response, sorted by request id.
    pub responses: Vec<Response>,
}

impl ServeReport {
    /// The first invariant: every offered request ended in exactly one
    /// of the four outcome counters.
    pub fn reconciles(&self) -> bool {
        self.offered
            == self.served_primary
                + self.served_degraded
                + self.shed_queue_full
                + self.deadline_miss
    }

    /// Served fraction of offered load.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.served_primary + self.served_degraded) as f64 / self.offered as f64
    }

    /// Shed fraction of offered load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed_queue_full as f64 / self.offered as f64
    }

    /// Deadline-miss fraction of offered load.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.deadline_miss as f64 / self.offered as f64
    }

    /// Degraded fraction of *served* responses.
    pub fn degraded_fraction(&self) -> f64 {
        let served = self.served_primary + self.served_degraded;
        if served == 0 {
            return 0.0;
        }
        self.served_degraded as f64 / served as f64
    }

    /// Latency percentile in µs (binade upper edge; `None` when nothing
    /// completed).
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q)
    }

    /// The report as a deterministic JSON value — the `BENCH_serve.json`
    /// schema. Counters are exact integers; everything derived is f64.
    /// Contains no wall-clock data, so two runs with the same inputs
    /// serialize byte-identically.
    pub fn to_json(&self) -> Value {
        let transitions: Vec<Value> = self
            .transitions
            .iter()
            .map(|t| {
                json!({
                    "at_us": t.at_us,
                    "from": t.from.name(),
                    "to": t.to.name(),
                    "unhealthy_rate": t.unhealthy_rate,
                })
            })
            .collect();
        json!({
            "schema": "qt-serve/report/v1",
            "offered": self.offered,
            "served_primary": self.served_primary,
            "served_degraded": self.served_degraded,
            "shed_queue_full": self.shed_queue_full,
            "deadline_miss": self.deadline_miss,
            "reconciles": self.reconciles(),
            "flagged_attempts": self.flagged_attempts,
            "bits_flipped": self.bits_flipped,
            "goodput": self.goodput(),
            "shed_rate": self.shed_rate(),
            "miss_rate": self.miss_rate(),
            "degraded_fraction": self.degraded_fraction(),
            "latency_p50_us": self.latency_quantile_us(0.5).unwrap_or(0.0),
            "latency_p99_us": self.latency_quantile_us(0.99).unwrap_or(0.0),
            "queue_wait_p99_us": self.queue_wait.quantile(0.99).unwrap_or(0.0),
            "max_queue_depth": self.max_queue_depth,
            "breaker_trips": self.breaker_trips,
            "breaker_transitions": transitions,
            "end_us": self.end_us,
        })
    }
}

/// A simulation event kind: its rank fixes the processing order of
/// events that share a timestamp.
pub trait Ranked {
    /// Lower ranks are processed first at equal times.
    fn rank(&self) -> u8;
}

/// The discrete-event queue both the serving and the fleet simulation
/// run on: earliest time first, then lowest [`Ranked::rank`], then
/// insertion order. The sequence number is assigned on push, so every
/// key is unique, the order is total, and a run replays exactly.
#[derive(Debug)]
pub struct EventQueue<E> {
    events: BTreeMap<(u64, u8, u64), E>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            events: BTreeMap::new(),
            seq: 0,
        }
    }
}

impl<E: Ranked> EventQueue<E> {
    /// Schedule `ev` at virtual time `at`.
    pub fn push(&mut self, at: u64, ev: E) {
        self.events.insert((at, ev.rank(), self.seq), ev);
        self.seq += 1;
    }

    /// Remove and return the next event with its time.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.events.pop_first().map(|((at, _, _), ev)| (at, ev))
    }
}

/// Event kinds, ordered so that at equal timestamps a completion frees
/// its worker before a simultaneous arrival is routed.
enum Ev {
    /// Worker `usize` finished its request.
    Done(usize),
    /// A request arrives.
    Arrival(Box<Request>),
}

impl Ranked for Ev {
    fn rank(&self) -> u8 {
        match self {
            Ev::Done(_) => 0,
            Ev::Arrival(_) => 1,
        }
    }
}

/// Run the simulation: feed `requests` (sorted by arrival) through
/// `workers` simulated service resources and a bounded FIFO, processing
/// each admitted request with [`Engine::process`] under the breaker in
/// `cfg`. Emits `serve.*` spans, instants, and metrics onto `trace`
/// when given.
pub fn run_sim(
    engine: &Engine,
    cfg: &ServeConfig,
    requests: &[Request],
    trace: Option<&TraceHandle>,
) -> ServeReport {
    let cfg = cfg.clone().normalized();
    // RefCell because one `process` call consults the breaker from two
    // closures (route + record); the sim is single-threaded by design.
    let breaker = RefCell::new(CircuitBreaker::new(cfg.breaker));
    let mut events = EventQueue::default();
    for r in requests {
        events.push(r.arrival_us, Ev::Arrival(Box::new(r.clone())));
    }

    let span = trace.map(|t| t.borrow_mut().begin("serve.sim", "serve"));

    let mut idle: BTreeSet<usize> = (0..cfg.workers).collect();
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut report = ServeReport {
        offered: requests.len() as u64,
        ..ServeReport::default()
    };

    // Service `req` from time `now`; returns its completion time.
    let serve = |req: Request, now: u64, report: &mut ServeReport| -> u64 {
        report
            .queue_wait
            .observe(now.saturating_sub(req.arrival_us) as f32);
        let out = engine.process(
            &req,
            now,
            |t| breaker.borrow_mut().route(t),
            |h, t| breaker.borrow_mut().on_primary_outcome(h, t),
        );
        report.flagged_attempts += out.response.flagged as u64;
        report.bits_flipped += out.bits_flipped;
        let finish = out.response.finish_us;
        record_response(report, out.response);
        finish
    };

    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::Arrival(req) => {
                if let Some(w) = idle.pop_first() {
                    events.push(serve(*req, now, &mut report), Ev::Done(w));
                } else if queue.len() < cfg.queue_cap {
                    queue.push_back(*req);
                    report.max_queue_depth = report.max_queue_depth.max(queue.len() as u64);
                } else {
                    record_response(&mut report, Response::shed(&req));
                }
            }
            Ev::Done(w) => match queue.pop_front() {
                Some(req) => events.push(serve(req, now, &mut report), Ev::Done(w)),
                None => {
                    idle.insert(w);
                }
            },
        }
    }

    let breaker = breaker.into_inner();
    report.breaker_trips = breaker.trips();
    report.transitions = breaker.transitions().to_vec();
    report.responses.sort_by_key(|r| r.id);
    report.end_us = report
        .responses
        .iter()
        .map(|r| r.finish_us)
        .max()
        .unwrap_or(0);

    if let Some(t) = trace {
        let mut s = t.borrow_mut();
        for tr in &report.transitions {
            s.instant(
                "serve.breaker",
                "serve",
                vec![
                    ("at_us".to_string(), tr.at_us as f64),
                    ("from".to_string(), tr.from.code() as f64),
                    ("to".to_string(), tr.to.code() as f64),
                    ("unhealthy_rate".to_string(), tr.unhealthy_rate),
                ],
            );
        }
        let m = s.metrics_mut();
        m.counter_add("serve.offered", &[], report.offered);
        m.counter_add("serve.served_primary", &[], report.served_primary);
        m.counter_add("serve.served_degraded", &[], report.served_degraded);
        m.counter_add("serve.shed_queue_full", &[], report.shed_queue_full);
        m.counter_add("serve.deadline_miss", &[], report.deadline_miss);
        m.counter_add("serve.flagged_attempts", &[], report.flagged_attempts);
        m.counter_add("serve.breaker_trips", &[], report.breaker_trips);
        m.gauge_set("serve.max_queue_depth", &[], report.max_queue_depth as f64);
        // Paired with shed_queue_full this answers "full at what size?":
        // the [`Rejected::QueueFull`] context, threaded into the metrics.
        m.gauge_set("serve.queue_cap", &[], cfg.queue_cap as f64);
        m.gauge_set("serve.degraded_fraction", &[], report.degraded_fraction());
        for r in &report.responses {
            if r.outcome != OutcomeKind::ShedQueueFull {
                m.observe("serve.latency_us", &[], r.latency_us as f32);
            }
        }
        if let Some(span) = span {
            s.end(span);
        }
    }
    report
}

fn record_response(report: &mut ServeReport, resp: Response) {
    match resp.outcome {
        OutcomeKind::ServedPrimary => report.served_primary += 1,
        OutcomeKind::ServedDegraded => report.served_degraded += 1,
        OutcomeKind::ShedQueueFull => report.shed_queue_full += 1,
        OutcomeKind::DeadlineMiss => report.deadline_miss += 1,
    }
    if resp.outcome != OutcomeKind::ShedQueueFull {
        report.latency.observe(resp.latency_us as f32);
    }
    report.responses.push(resp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_robust::NoFaults;
    use qt_transformer::{Model, TaskHead, TransformerConfig};
    use rand::SeedableRng;

    fn engine(cfg: &ServeConfig) -> Engine {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let model = Model::new(
            TransformerConfig::mobilebert_tiny_sim(),
            TaskHead::Classify(2),
            &mut rng,
        );
        Engine::new(model, cfg, Box::new(NoFaults))
    }

    fn light_load(eng: &Engine) -> LoadSpec {
        // Inter-arrival far above one service time: nothing queues.
        LoadSpec {
            rps: 1e6 / (4.0 * eng.full_pass_us() as f64),
            duration_us: 60 * eng.full_pass_us(),
            deadline_us: 0,
            seq: 8,
            seed: 1,
        }
    }

    #[test]
    fn event_queue_orders_by_time_then_rank_then_push_order() {
        struct E(u8, &'static str);
        impl Ranked for E {
            fn rank(&self) -> u8 {
                self.0
            }
        }
        let mut q = EventQueue::default();
        for (at, rank, name) in [
            (5, 1, "a"),
            (5, 0, "b"),
            (3, 1, "c"),
            (5, 1, "d"),
            (5, 0, "e"),
        ] {
            q.push(at, E(rank, name));
        }
        let order: Vec<(u64, &str)> =
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at, e.1))).collect();
        assert_eq!(order, [(3, "c"), (5, "b"), (5, "e"), (5, "a"), (5, "d")]);
    }

    #[test]
    fn light_load_serves_everything_primary() {
        let cfg = ServeConfig::default();
        let eng = engine(&cfg);
        let reqs = light_load(&eng).requests(eng.model().cfg.vocab);
        let report = run_sim(&eng, &cfg, &reqs, None);
        assert!(report.reconciles());
        assert_eq!(report.served_primary, report.offered);
        assert_eq!(report.shed_queue_full, 0);
        assert_eq!(report.deadline_miss, 0);
        assert_eq!(report.breaker_trips, 0);
        assert_eq!(report.goodput(), 1.0);
    }

    #[test]
    fn overload_sheds_and_misses_but_reconciles() {
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 2,
            ..ServeConfig::default()
        };
        let eng = engine(&cfg);
        // 4× overload with deadlines of two service times.
        let spec = LoadSpec {
            rps: 4.0 * 1e6 / eng.full_pass_us() as f64,
            duration_us: 40 * eng.full_pass_us(),
            deadline_us: 2 * eng.full_pass_us(),
            seq: 8,
            seed: 2,
        };
        let reqs = spec.requests(eng.model().cfg.vocab);
        let report = run_sim(&eng, &cfg, &reqs, None);
        assert!(report.reconciles(), "counters must reconcile: {report:?}");
        assert!(report.shed_queue_full > 0, "2-deep queue under 4x load");
        assert!(report.served_primary > 0);
        assert!(report.max_queue_depth >= 1);
        assert_eq!(
            report.responses.len() as u64,
            report.offered,
            "every request has exactly one response"
        );
    }

    #[test]
    fn sim_replays_bit_exactly() {
        let cfg = ServeConfig::default();
        let eng = engine(&cfg);
        let spec = LoadSpec {
            rps: 2.0 * 1e6 / eng.full_pass_us() as f64,
            duration_us: 30 * eng.full_pass_us(),
            deadline_us: 3 * eng.full_pass_us(),
            seq: 8,
            seed: 3,
        };
        let reqs = spec.requests(eng.model().cfg.vocab);
        let a = run_sim(&eng, &cfg, &reqs, None);
        let b = run_sim(&eng, &cfg, &reqs, None);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.to_json()).unwrap(),
            serde_json::to_string(&b.to_json()).unwrap()
        );
    }
}
