//! The per-request execution engine: attempts, retries, deadline
//! enforcement, and health-driven degradation for one model.
//!
//! The engine owns the pristine master weights and two inference
//! schemes: the quantized *primary* path (8-bit storage — the thing
//! faults corrupt) and the *degraded* BF16 reference path, which reads
//! the uncorrupted master weights and therefore cannot be poisoned by
//! storage upsets. One [`Engine::episode`] takes a request from worker
//! pickup through attempts, flagged retries with backoff and breaker
//! routing to an [`EpisodeEnd`], threading a block-budget
//! [`CancelToken`] through every forward pass so a deadline (or a
//! crash boundary) aborts mid-model rather than after the fact.
//!
//! The engine is deliberately clock-free: time is a parameter (virtual
//! µs), routing decisions come from caller-supplied closures, and all
//! randomness is derived from the request id. Every serving driver is a
//! thin shell around this one state machine: [`Engine::process`] (the
//! single-server simulation and the threaded server) runs one episode
//! with no crash boundary and no failover exit; the qt-fleet simulation
//! runs one episode per replica visit and supplies both.

use crate::breaker::Route;
use crate::config::ServeConfig;
use crate::request::{OutcomeKind, Request, Response};
use crate::retry::{Backoff, RetryPolicy};
use qt_autograd::Tape;
use qt_quant::{HealthWindow, QuantScheme, TensorHealth};
use qt_robust::{cell_seed, FaultSource};
use qt_transformer::{CancelToken, Model, ModelKind, QuantCtx, TokenBatch, TrainMode};

/// Hard cap on attempts per request beyond the retry policy, counted
/// across every episode of the request, so a deadline-less request
/// against a pathological fault environment still terminates (it
/// degrades, and if even that is flagged, it misses).
const ATTEMPT_HARD_CAP: u32 = 16;

/// Where one service episode starts and what bounds it.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeSpec {
    /// Virtual time a worker picked the request up, µs.
    pub start_us: u64,
    /// Virtual cost of one transformer block in this episode, µs.
    pub per_block_us: u64,
    /// Attempts the request already ran in earlier episodes: they count
    /// toward the attempt cap and offset the fault-draw attempt index.
    pub prior_attempts: u32,
    /// Seed of this episode's retry backoff sequence.
    pub backoff_seed: u64,
    /// Virtual time the serving resource next goes down, if scheduled:
    /// no pass runs past it, and an episode that reaches it ends
    /// [`EpisodeEnd::FailoverCrash`] there.
    pub crash_at: Option<u64>,
}

/// How one service episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeEnd {
    /// Clean response.
    Served {
        /// From the quantized primary path (else the degraded one).
        primary: bool,
        /// Argmax over the logits.
        label: Option<usize>,
    },
    /// Deadline block budget or attempt cap exhausted.
    Miss,
    /// Local flagged retries exhausted, or the breaker tripped under the
    /// episode: leave for another replica.
    FailoverCorrupt,
    /// The crash boundary landed mid-episode: leave at the crash instant.
    FailoverCrash,
}

/// One forward attempt's interval within an episode, so observers can
/// hang a span per engine pass under the request's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptSpan {
    /// Virtual time the pass started, µs.
    pub start_us: u64,
    /// Virtual time the pass ended (completed or cancelled), µs.
    pub end_us: u64,
    /// The pass completed with unhealthy quantization health.
    pub flagged: bool,
    /// `false` when the block budget cancelled the pass.
    pub completed: bool,
}

/// Everything one service episode did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// How it ended.
    pub end: EpisodeEnd,
    /// Virtual time it ended (for a crash, the crash instant), µs.
    pub end_us: u64,
    /// Blocks executed across the episode's attempts.
    pub blocks: u64,
    /// Virtual time spent in retry backoff, µs.
    pub backoff_us: u64,
    /// Bits the fault source flipped into this episode's weight reads.
    pub bits_flipped: u64,
    /// A forward pass was actually cancelled by the crash boundary.
    pub crash_interrupted: bool,
    /// One entry per forward attempt, in execution order.
    pub spans: Vec<AttemptSpan>,
}

impl Episode {
    /// Forward attempts executed.
    pub fn attempts(&self) -> u32 {
        self.spans.len() as u32
    }

    /// Attempts whose health was flagged unhealthy.
    pub fn flagged(&self) -> u32 {
        self.spans.iter().filter(|s| s.flagged).count() as u32
    }
}

/// What one forward attempt produced.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// `false` when the pass was cancelled by the block budget.
    pub completed: bool,
    /// Argmax over the logits (completed attempts only).
    pub label: Option<usize>,
    /// Aggregate quantization health of the pass, including a final
    /// non-finite scan of the logits themselves.
    pub health: TensorHealth,
    /// Transformer blocks actually executed.
    pub blocks: u64,
    /// Bits the fault source flipped into this attempt's weight read.
    pub bits_flipped: u64,
}

/// Everything [`Engine::process`] learned about one request.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// The final response.
    pub response: Response,
    /// Blocks executed across all attempts (the compute actually spent).
    pub blocks: u64,
    /// Virtual time spent in retry backoff, µs.
    pub backoff_us: u64,
    /// Total service time (compute + backoff), µs.
    pub service_us: u64,
    /// Bits flipped into this request's weight reads across attempts.
    pub bits_flipped: u64,
}

/// The serving engine for one model.
pub struct Engine {
    model: Model,
    primary: QuantScheme,
    fallback: QuantScheme,
    fault: Box<dyn FaultSource + Send + Sync>,
    retry: RetryPolicy,
    retry_seed: u64,
    per_block_us: u64,
}

impl Engine {
    /// Engine serving `model` under `cfg`, reading weights through
    /// `fault` (use [`qt_robust::NoFaults`] for healthy hardware).
    pub fn new(model: Model, cfg: &ServeConfig, fault: Box<dyn FaultSource + Send + Sync>) -> Self {
        let cfg = cfg.clone().normalized();
        Self {
            model,
            primary: QuantScheme::uniform(cfg.primary),
            fallback: QuantScheme::bf16(),
            fault,
            retry: cfg.retry,
            retry_seed: cfg.retry_seed,
            per_block_us: cfg.per_block_us,
        }
    }

    /// The served model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Virtual cost of one transformer block, µs.
    pub fn per_block_us(&self) -> u64 {
        self.per_block_us
    }

    /// Virtual cost of one complete forward pass, µs.
    pub fn full_pass_us(&self) -> u64 {
        self.model.blocks_per_forward() * self.per_block_us
    }

    /// Run one forward attempt. `primary` selects the quantized path
    /// (with fault injection) or the degraded reference path (pristine
    /// weights); `block_budget` is enforced cooperatively between
    /// transformer blocks via a [`CancelToken`].
    pub fn attempt(
        &self,
        req: &Request,
        attempt_idx: u32,
        primary: bool,
        block_budget: u64,
    ) -> Attempt {
        let (faulted, bits_flipped) = if primary {
            match self
                .fault
                .corrupt_for_request(&self.model, req.id, attempt_idx)
            {
                Some((m, r)) => (Some(m), r.bits_flipped),
                None => (None, 0),
            }
        } else {
            (None, 0)
        };
        let model = faulted.as_ref().unwrap_or(&self.model);
        let scheme = if primary { self.primary } else { self.fallback };
        let token = CancelToken::with_block_budget(block_budget);
        let qctx = QuantCtx::inference(scheme).with_cancel(token.clone());
        let mut tape = Tape::new();
        let batch = TokenBatch::dense(req.tokens.clone(), 1, req.tokens.len());
        let dec = (model.cfg.kind == ModelKind::EncDec).then(|| batch.clone());
        match model.try_forward(&mut tape, &qctx, &batch, dec.as_ref(), TrainMode::Frozen) {
            Ok(out) => {
                let mut health = TensorHealth::default();
                for (_, h) in qctx.health_report() {
                    health.merge(&h);
                }
                let logits = tape.value(out.logits).data();
                // Belt and braces: even if every cut site were fused
                // away, a non-finite logit must flag the response.
                let bad_logits = logits.iter().filter(|x| !x.is_finite()).count() as u64;
                health.elements += logits.len() as u64;
                health.nonfinite_out += bad_logits;
                let label = logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                Attempt {
                    completed: true,
                    label: Some(label),
                    health,
                    blocks: model.blocks_per_forward(),
                    bits_flipped,
                }
            }
            Err(cancelled) => Attempt {
                completed: false,
                label: None,
                health: TensorHealth::default(),
                blocks: cancelled.blocks_completed,
                bits_flipped,
            },
        }
    }

    /// Run one service episode of `req`: attempts, flagged retries
    /// with seeded backoff, deadline and crash-boundary budgets, until
    /// the request is served, misses, or leaves for another replica.
    ///
    /// `route` is consulted before each attempt while the episode's
    /// attempts are below `retry.max_attempts` (the circuit breaker —
    /// qt-serve's breaker counts its Open cooldown down in `route`, so
    /// it is never called for an attempt that cannot be primary);
    /// `record` receives the health of every completed *primary*
    /// attempt. Both take the current virtual time. `failover` is
    /// `Some` when the request may leave for another replica: the
    /// episode then ends [`EpisodeEnd::FailoverCorrupt`] once the retry
    /// budget is spent or the closure reports a tripped breaker, where
    /// it would otherwise go on down the degraded path.
    ///
    /// Invariants, by construction:
    /// - an attempt whose health carries non-finite traffic is never the
    ///   served response — it is retried with backoff, degraded, failed
    ///   over, or the request misses;
    /// - a cancelled forward contributes no partial result — the
    ///   episode misses, or fails over when the crash boundary (not the
    ///   deadline) cut the pass;
    /// - attempts after `retry.max_attempts` are forced onto the
    ///   degraded path regardless of breaker state;
    /// - no pass runs past `spec.crash_at`, so the end time never lands
    ///   inside an outage.
    pub fn episode(
        &self,
        req: &Request,
        spec: EpisodeSpec,
        mut route: impl FnMut(u64) -> Route,
        mut record: impl FnMut(&TensorHealth, u64),
        failover: Option<&dyn Fn() -> bool>,
    ) -> Episode {
        let per_block = spec.per_block_us.max(1);
        let max_local = self.retry.max_attempts.max(1);
        let mut backoff = Backoff::new(self.retry, spec.backoff_seed);
        let mut ep = Episode {
            end: EpisodeEnd::Miss,
            end_us: spec.start_us,
            blocks: 0,
            backoff_us: 0,
            bits_flipped: 0,
            crash_interrupted: false,
            spans: Vec::new(),
        };
        let mut t = spec.start_us;
        (ep.end, ep.end_us) = loop {
            if let Some(c) = spec.crash_at.filter(|&c| t >= c) {
                // Backoff (or pickup) straddled the outage: the request
                // was on this resource when it died.
                break (EpisodeEnd::FailoverCrash, c);
            }
            let local = ep.spans.len() as u32;
            let deadline_blocks = if req.deadline_us == Request::NO_DEADLINE {
                u64::MAX
            } else {
                req.deadline_us.saturating_sub(t) / per_block
            };
            if deadline_blocks == 0 || spec.prior_attempts + local >= ATTEMPT_HARD_CAP {
                break (EpisodeEnd::Miss, t);
            }
            let crash_blocks = spec.crash_at.map_or(u64::MAX, |c| (c - t) / per_block);
            if let Some(c) = spec.crash_at.filter(|_| crash_blocks == 0) {
                // Not even one block fits before the outage.
                break (EpisodeEnd::FailoverCrash, c);
            }
            let primary = local < max_local && route(t) == Route::Primary;
            let a = self.attempt(
                req,
                spec.prior_attempts + local,
                primary,
                deadline_blocks.min(crash_blocks),
            );
            let start_us = t;
            t += a.blocks * per_block;
            ep.blocks += a.blocks;
            ep.bits_flipped += a.bits_flipped;
            if primary && a.completed {
                record(&a.health, t);
            }
            let flagged = a.completed && HealthWindow::is_unhealthy(&a.health);
            ep.spans.push(AttemptSpan {
                start_us,
                end_us: t,
                flagged,
                completed: a.completed,
            });
            if !a.completed {
                // The block budget ran out mid-pass: no partial result
                // exists. The crash boundary, not the deadline, cut it
                // when its budget was the smaller one.
                if let Some(c) = spec.crash_at.filter(|_| crash_blocks < deadline_blocks) {
                    ep.crash_interrupted = true;
                    break (EpisodeEnd::FailoverCrash, c);
                }
                break (EpisodeEnd::Miss, t);
            }
            if !flagged {
                let label = a.label;
                break (EpisodeEnd::Served { primary, label }, t);
            }
            // Flagged: this output never leaves the engine.
            if let Some(tripped) = failover {
                if local + 1 >= max_local || tripped() {
                    break (EpisodeEnd::FailoverCorrupt, t);
                }
            }
            let delay = backoff.next_delay_us();
            ep.backoff_us += delay;
            t += delay;
        };
        ep
    }

    /// Take `req` from service start to a final response: one episode
    /// with no crash boundary and no failover exit, its backoff seeded
    /// from the engine's retry seed and the request id.
    ///
    /// `start_us` is when a worker picked the request up (virtual clock);
    /// `route` and `record` are as in [`Engine::episode`].
    pub fn process(
        &self,
        req: &Request,
        start_us: u64,
        route: impl FnMut(u64) -> Route,
        record: impl FnMut(&TensorHealth, u64),
    ) -> ProcessOutcome {
        let spec = EpisodeSpec {
            start_us,
            per_block_us: self.per_block_us,
            prior_attempts: 0,
            backoff_seed: cell_seed(self.retry_seed, req.id as usize, 0, 0),
            crash_at: None,
        };
        let ep = self.episode(req, spec, route, record, None);
        let (outcome, label) = match ep.end {
            EpisodeEnd::Served {
                primary: true,
                label,
            } => (OutcomeKind::ServedPrimary, label),
            EpisodeEnd::Served {
                primary: false,
                label,
            } => (OutcomeKind::ServedDegraded, label),
            EpisodeEnd::Miss => (OutcomeKind::DeadlineMiss, None),
            EpisodeEnd::FailoverCorrupt | EpisodeEnd::FailoverCrash => {
                unreachable!("an episode without failover exit or crash boundary cannot leave")
            }
        };
        let finish_us = ep.end_us;
        ProcessOutcome {
            response: Response {
                id: req.id,
                outcome,
                label,
                attempts: ep.attempts(),
                flagged: ep.flagged(),
                finish_us,
                latency_us: finish_us.saturating_sub(req.arrival_us),
            },
            blocks: ep.blocks,
            backoff_us: ep.backoff_us,
            service_us: ep.blocks * self.per_block_us + ep.backoff_us,
            bits_flipped: ep.bits_flipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::ElemFormat;
    use qt_robust::{BerFaultSource, CodeFormat, InjectionReport, NoFaults};
    use qt_tensor::Tensor;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::cell::Cell;

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TransformerConfig::mobilebert_tiny_sim();
        Model::new(cfg, TaskHead::Classify(2), &mut rng)
    }

    fn request(id: u64, model: &Model) -> Request {
        let mut rng = StdRng::seed_from_u64(100 + id);
        let tokens = (0..8).map(|_| rng.gen_range(0..model.cfg.vocab)).collect();
        Request::new(id, tokens)
    }

    #[test]
    fn healthy_request_is_served_primary_in_one_attempt() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
        let req = request(0, &model);
        let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(out.response.outcome, OutcomeKind::ServedPrimary);
        assert_eq!(out.response.attempts, 1);
        assert_eq!(out.response.flagged, 0);
        assert!(out.response.label.is_some());
        assert_eq!(out.blocks, model.blocks_per_forward());
        assert_eq!(out.service_us, engine.full_pass_us());
    }

    #[test]
    fn deadline_shorter_than_one_pass_misses_without_partial_result() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
        let blocks = model.blocks_per_forward();
        // Budget for exactly one block less than a full pass.
        let req = request(1, &model).with_deadline((blocks - 1) * cfg.per_block_us);
        let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(out.response.outcome, OutcomeKind::DeadlineMiss);
        assert!(out.response.label.is_none(), "no partial result");
        assert_eq!(out.blocks, blocks - 1, "cancelled between blocks");
    }

    #[test]
    fn degraded_route_serves_from_pristine_weights() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        // A brutal fault source: the primary path would be corrupted,
        // but routing is Degraded so it is never consulted.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let fault = BerFaultSource::new(3, codec, 0.05);
        let engine = Engine::new(model.clone(), &cfg, Box::new(fault));
        let req = request(2, &model);
        let mut recorded = 0;
        let out = engine.process(&req, 0, |_| Route::Degraded, |_, _| recorded += 1);
        assert_eq!(out.response.outcome, OutcomeKind::ServedDegraded);
        assert_eq!(out.bits_flipped, 0, "degraded path reads master weights");
        assert_eq!(recorded, 0, "degraded attempts are not breaker samples");
    }

    #[test]
    fn flagged_attempts_retry_then_degrade_and_never_serve_unhealthy() {
        let model = tiny_model();
        let mut cfg = ServeConfig::default();
        cfg.retry.max_attempts = 2;
        // BER high enough that essentially every primary read is flagged.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let fault = BerFaultSource::new(5, codec, 0.05);
        let engine = Engine::new(model.clone(), &cfg, Box::new(fault));
        let mut flagged_requests = 0;
        for id in 0..6u64 {
            let req = request(10 + id, &model);
            let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
            let resp = &out.response;
            assert!(resp.outcome.is_served());
            assert!(resp.attempts <= cfg.retry.max_attempts + 1);
            if resp.flagged > 0 {
                flagged_requests += 1;
            }
            // Fault draws are keyed by (request id, attempt index), so
            // replaying the final attempt re-reads exactly the weights
            // the served pass saw.
            let primary = resp.outcome == OutcomeKind::ServedPrimary;
            let again = engine.attempt(&req, resp.attempts - 1, primary, u64::MAX);
            assert!(again.completed);
            assert!(
                !HealthWindow::is_unhealthy(&again.health),
                "request {} was served from an unhealthy attempt",
                req.id
            );
            assert_eq!(again.label, resp.label, "served label replays exactly");
        }
        assert!(flagged_requests > 0, "BER 0.05 must flag some request");
    }

    /// Every primary read is poisoned: all weights NaN, so every
    /// primary pass is flagged.
    struct PoisonEveryRead;

    impl FaultSource for PoisonEveryRead {
        fn corrupt_for_request(
            &self,
            model: &Model,
            _request_id: u64,
            _attempt: u32,
        ) -> Option<(Model, InjectionReport)> {
            let mut m = model.clone();
            for name in m.params.names() {
                let (len, shape) = {
                    let t = m.params.get(&name);
                    (t.len(), t.shape().to_vec())
                };
                m.params
                    .insert(name, Tensor::from_vec(vec![f32::NAN; len], &shape));
            }
            let report = InjectionReport {
                bits_flipped: 1,
                ..InjectionReport::default()
            };
            Some((m, report))
        }
    }

    fn spec(engine: &Engine) -> EpisodeSpec {
        EpisodeSpec {
            start_us: 0,
            per_block_us: engine.per_block_us(),
            prior_attempts: 0,
            backoff_seed: 1,
            crash_at: None,
        }
    }

    #[test]
    fn attempt_cap_counts_prior_episodes() {
        let model = tiny_model();
        let mut cfg = ServeConfig::default();
        // A retry budget above the cap: every attempt stays primary and
        // flagged, so only the cap can end a deadline-less request.
        cfg.retry.max_attempts = 64;
        let engine = Engine::new(model.clone(), &cfg, Box::new(PoisonEveryRead));
        let req = request(4, &model);
        let out = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(out.response.outcome, OutcomeKind::DeadlineMiss);
        assert_eq!(out.response.attempts, ATTEMPT_HARD_CAP);
        assert_eq!(out.response.flagged, ATTEMPT_HARD_CAP);
        assert!(out.response.label.is_none());

        let later = EpisodeSpec {
            prior_attempts: 10,
            ..spec(&engine)
        };
        let ep = engine.episode(&req, later, |_| Route::Primary, |_, _| {}, None);
        assert_eq!(ep.end, EpisodeEnd::Miss);
        assert_eq!(ep.attempts(), ATTEMPT_HARD_CAP - 10, "16 attempts in total");
    }

    #[test]
    fn crash_boundary_cuts_a_pass_unless_the_deadline_comes_first() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
        let per_block = engine.per_block_us();
        let blocks = model.blocks_per_forward();
        let req = request(5, &model);
        // The outage lands mid-way through the pass's last block.
        let crash = (blocks - 1) * per_block + per_block / 2;
        let cut = EpisodeSpec {
            crash_at: Some(crash),
            ..spec(&engine)
        };
        let ep = engine.episode(&req, cut, |_| Route::Primary, |_, _| {}, None);
        assert_eq!((ep.end, ep.end_us), (EpisodeEnd::FailoverCrash, crash));
        assert!(ep.crash_interrupted);
        assert_eq!(ep.blocks, blocks - 1, "cancelled between blocks");
        assert!(!ep.spans[0].completed);

        // The same pass with a deadline before the crash misses instead.
        let early = request(5, &model).with_deadline((blocks - 2) * per_block);
        let ep = engine.episode(&early, cut, |_| Route::Primary, |_, _| {}, None);
        assert_eq!(
            (ep.end, ep.end_us),
            (EpisodeEnd::Miss, (blocks - 2) * per_block)
        );
        assert!(!ep.crash_interrupted);

        // An outage before the first block fits ends the episode at the
        // crash instant without running anything.
        let at_pickup = EpisodeSpec {
            crash_at: Some(per_block / 2),
            ..spec(&engine)
        };
        let ep = engine.episode(&req, at_pickup, |_| Route::Primary, |_, _| {}, None);
        assert_eq!(
            (ep.end, ep.end_us),
            (EpisodeEnd::FailoverCrash, per_block / 2)
        );
        assert!(!ep.crash_interrupted);
        assert_eq!(ep.attempts(), 0);
    }

    #[test]
    fn breaker_trip_takes_the_failover_exit_only_when_offered() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        assert!(
            cfg.retry.max_attempts > 1,
            "the trip must precede the budget"
        );
        let engine = Engine::new(model.clone(), &cfg, Box::new(PoisonEveryRead));
        let req = request(6, &model);
        let full_pass = engine.full_pass_us();
        // A stand-in breaker that trips on the first flagged outcome.
        let run = |can_failover: bool| {
            let tripped = Cell::new(false);
            let is_tripped = || tripped.get();
            let route = |_| {
                if tripped.get() {
                    Route::Degraded
                } else {
                    Route::Primary
                }
            };
            let record = |h: &TensorHealth, _| tripped.set(HealthWindow::is_unhealthy(h));
            let failover = can_failover.then_some(&is_tripped as &dyn Fn() -> bool);
            engine.episode(&req, spec(&engine), route, record, failover)
        };

        let left = run(true);
        assert_eq!(
            (left.end, left.end_us),
            (EpisodeEnd::FailoverCorrupt, full_pass)
        );
        assert_eq!((left.attempts(), left.flagged()), (1, 1));
        assert_eq!(left.backoff_us, 0, "leaves before backing off");

        let stayed = run(false);
        let EpisodeEnd::Served { primary, label } = stayed.end else {
            panic!("expected a degraded serve, got {:?}", stayed.end);
        };
        assert!(!primary && label.is_some());
        assert_eq!((stayed.attempts(), stayed.flagged()), (2, 1));
        assert_eq!(stayed.end_us, 2 * full_pass + stayed.backoff_us);
    }

    #[test]
    fn process_is_deterministic_for_a_given_request() {
        let model = tiny_model();
        let cfg = ServeConfig::default();
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let engine = Engine::new(
            model.clone(),
            &cfg,
            Box::new(BerFaultSource::new(7, codec, 1e-3)),
        );
        let req = request(3, &model).with_deadline(500_000);
        let a = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        let b = engine.process(&req, 0, |_| Route::Primary, |_, _| {});
        assert_eq!(a.response, b.response);
        assert_eq!(a.bits_flipped, b.bits_flipped);
        assert_eq!(a.service_us, b.service_us);
    }
}
