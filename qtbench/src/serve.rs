//! `serve_classify`: open-loop Poisson arrivals into the threaded
//! `qt_serve::Server` (2 workers, kernel pool 1, P8E1 primary path, no
//! faults), in two phases at fixed absolute rates: about 60% and 170%
//! of the server's capacity on the reference machine (2-vCPU Xeon VM,
//! AVX2, 97 to 120 req/s measured).
//!
//! `Server` reports no per-request completion time, so the benchmark
//! measures what it can from outside: a pass-through `FaultSource`
//! ([`Probe`]) injects nothing and records which worker starts which
//! attempt when.
//!
//! - Queue wait is attempt start minus the time the request was *due*
//!   (not when the generator got round to submitting it), so a stalled
//!   generator shows up as wait.
//! - Service time is exact whenever a worker's next request was already
//!   queued when its current one started: the worker then took the next
//!   one the moment it finished. In the over-capacity phase that holds
//!   for every request.
//! - Goodput is first attempts started per second while the backlog
//!   keeps both workers busy (the over-capacity phase and the drain
//!   after it), as the median over short windows so a burst of load from
//!   outside the benchmark moves it less.

use crate::bench::{repeat_setup, timed, Settings, MODEL_SEED, QUALITY_SEED};
use crate::layers::{count_tasks, finish, untraced_loop, Layers, OpTiming, Profile, Tracer};
use crate::report::{
    mean, median, min_samples, summarize, timing_check, EndToEnd, Outcome, TAIL_Q,
};
use qt_autograd::Tape;
use qt_datagen::{ClassifyKind, ClassifyTask};
use qt_quant::{ElemFormat, QuantScheme, TensorHealth};
use qt_robust::{FaultSource, InjectionReport, NoFaults};
use qt_serve::{Engine, Request, Route, ServeConfig, Server, ServerStats};
use qt_transformer::{
    CancelToken, Model, ModelKind, QuantCtx, TaskHead, TokenBatch, TrainMode, TransformerConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Request length, tokens.
const SEQ: usize = 24;
/// Distinct requests the generator draws from.
const POOL: usize = 32;
/// Serving worker threads.
pub const WORKERS: usize = 2;
/// Offered rate of the under-capacity phase, req/s.
const UNDER_RPS: f64 = 70.0;
/// Offered rate of the over-capacity phase, req/s.
const OVER_RPS: f64 = 185.0;
/// Share of the window the under-capacity phase takes.
const UNDER_SHARE: f64 = 0.65;
/// Start of the over-capacity phase ignored for goodput, while the
/// backlog builds, seconds.
const RAMP_S: f64 = 0.5;
/// Window of the goodput median, seconds.
const WINDOW_S: f64 = 0.5;
/// Admission queue capacity: deep enough that the over-capacity
/// backlog is never shed, so every request is served.
const QUEUE_CAP: usize = 1 << 14;

const PRIMARY: ElemFormat = ElemFormat::P8E1;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        primary: PRIMARY,
        ..ServeConfig::default()
    }
}

/// The pooled requests: `(tokens, true label)`.
pub fn inputs(seed: u64) -> Vec<(Vec<usize>, usize)> {
    let cfg = TransformerConfig::roberta_base_sim();
    let task = ClassifyTask::new(ClassifyKind::Sst2, cfg.vocab, SEQ);
    task.dataset(POOL, seed)
        .into_iter()
        .map(|(ids, _, label)| (ids, label))
        .collect()
}

/// Arrival schedule: `(due, pool index)` in due order, Poisson at
/// [`UNDER_RPS`] for `t_under` seconds, then at [`OVER_RPS`] for `t_over`.
pub fn schedule(seed: u64, t_under: f64, t_over: f64) -> Vec<(Duration, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa771);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for (rate, end) in [(UNDER_RPS, t_under), (OVER_RPS, t_under + t_over)] {
        loop {
            let u: f64 = rng.gen();
            let next = t - (1.0 - u).ln() / rate;
            if next >= end {
                t = end;
                break;
            }
            t = next;
            out.push((Duration::from_secs_f64(t), rng.gen_range(0..POOL)));
        }
    }
    out
}

/// Time source of the open-loop generator (a fake one in tests).
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

struct Wall(Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// Submit request `j` once `due[j]` has come, never earlier; returns
/// when each was actually submitted.
pub fn open_loop(
    clock: &impl Clock,
    due: &[Duration],
    mut submit: impl FnMut(usize),
) -> Vec<Duration> {
    due.iter()
        .enumerate()
        .map(|(j, &d)| {
            clock.sleep_until(d);
            let at = clock.now();
            submit(j);
            at
        })
        .collect()
}

/// One attempt start, as the [`Probe`] saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Start {
    pub worker: ThreadId,
    pub id: u64,
    pub at: Duration,
}

/// Each request's earliest attempt start (`None` if it never started).
fn first_starts(requests: usize, starts: &[Start]) -> Vec<Option<Duration>> {
    let mut first: Vec<Option<Duration>> = vec![None; requests];
    for &Start { id, at, .. } in starts {
        let f = &mut first[id as usize];
        *f = Some(f.map_or(at, |f| f.min(at)));
    }
    first
}

/// Queue wait of each request, ms: its first attempt start minus when
/// it was due (`None` for requests that never started).
pub fn waits_from_due(due: &[Duration], starts: &[Start]) -> Vec<Option<f64>> {
    first_starts(due.len(), starts)
        .iter()
        .zip(due)
        .map(|(s, &d)| s.map(|s| s.saturating_sub(d).as_secs_f64() * 1e3))
        .collect()
}

/// Exact service times, ms, by request: the gap between a worker's
/// consecutive starts when the second request had been submitted before
/// the first one started (so the worker never idled in between).
pub fn exact_service_ms(starts: &[Start], submitted: &[Duration]) -> Vec<(u64, f64)> {
    let mut workers: Vec<(ThreadId, Vec<&Start>)> = Vec::new();
    for s in starts {
        match workers.iter_mut().find(|(w, _)| *w == s.worker) {
            Some((_, v)) => v.push(s),
            None => workers.push((s.worker, vec![s])),
        }
    }
    let mut out = Vec::new();
    for (_, mut v) in workers {
        v.sort_by_key(|s| s.at);
        out.extend(
            v.windows(2)
                .filter(|w| w[0].id != w[1].id && submitted[w[1].id as usize] <= w[0].at)
                .map(|w| (w[0].id, (w[1].at - w[0].at).as_secs_f64() * 1e3)),
        );
    }
    out
}

/// Pass-through fault source: injects nothing, records attempt starts.
struct Probe {
    t0: Instant,
    starts: Arc<Mutex<Vec<Start>>>,
}

impl FaultSource for Probe {
    fn corrupt_for_request(
        &self,
        _m: &Model,
        request_id: u64,
        _attempt: u32,
    ) -> Option<(Model, InjectionReport)> {
        let start = Start {
            worker: std::thread::current().id(),
            id: request_id,
            at: self.t0.elapsed(),
        };
        // Pushing never leaves the log half-updated, so a poisoned lock
        // still holds a valid log.
        self.starts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(start);
        None
    }
}

struct State {
    model: Model,
    requests: Vec<(Vec<usize>, usize)>,
    /// Label of a serial `Engine::process` of each pooled request.
    reference: Vec<usize>,
    /// Serial `Engine::process` time of each pooled request, ms.
    engine_ms: Vec<f64>,
}

fn serve_one(engine: &Engine, id: u64, tokens: &[usize]) -> (qt_serve::Response, f64) {
    let req = Request::new(id, tokens.to_vec());
    let (o, ms) = timed(|| engine.process(&req, 0, |_| Route::Primary, |_, _| {}));
    (o.response, ms)
}

fn setup(s: &Settings) -> State {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = Model::new(
        TransformerConfig::roberta_base_sim(),
        TaskHead::Classify(2),
        &mut rng,
    );
    let requests = inputs(s.seed);
    let engine = Engine::new(model.clone(), &serve_config(), Box::new(NoFaults));
    let (reference, engine_ms) = qt_par::serial(|| {
        requests
            .iter()
            .enumerate()
            .map(|(i, (tokens, _))| {
                let (r, ms) = serve_one(&engine, i as u64, tokens);
                (r.label.unwrap_or(usize::MAX), ms)
            })
            .unzip()
    });
    State {
        model,
        requests,
        reference,
        engine_ms,
    }
}

/// One run of both phases through a fresh server.
struct Leg {
    due: Vec<Duration>,
    pool_idx: Vec<usize>,
    submitted: Vec<Duration>,
    starts: Vec<Start>,
    stats: ServerStats,
    t_under: f64,
}

/// A server over `model` whose engine reads weights through a [`Probe`],
/// the probe's log, and the log's time origin.
fn probed_server(model: &Model, cfg: &ServeConfig) -> (Server, Arc<Mutex<Vec<Start>>>, Instant) {
    let starts = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let probe = Probe {
        t0,
        starts: Arc::clone(&starts),
    };
    let server = Server::start(Engine::new(model.clone(), cfg, Box::new(probe)), cfg);
    (server, starts, t0)
}

/// Submit `tokens(j)` as request `j` at `due[j]`; shut the server down
/// and return when each request was submitted, the server's stats and
/// the probe's attempt starts.
fn drive(
    (server, starts, t0): (Server, Arc<Mutex<Vec<Start>>>, Instant),
    due: &[Duration],
    tokens: impl Fn(usize) -> Vec<usize>,
) -> (Vec<Duration>, ServerStats, Vec<Start>) {
    let submitted = open_loop(&Wall(t0), due, |j| {
        let req = Request::new(j as u64, tokens(j)).with_arrival(due[j].as_micros() as u64);
        // A full queue records a shed response, counted by the caller.
        let _ = server.submit(req);
    });
    let stats = server.shutdown();
    let starts = std::mem::take(&mut *starts.lock().unwrap_or_else(|e| e.into_inner()));
    (submitted, stats, starts)
}

fn serve_leg(st: &State, seed: u64, seconds: f64) -> Leg {
    let t_under = seconds * UNDER_SHARE;
    let t_over = seconds - t_under;
    let (due, pool_idx): (Vec<_>, Vec<_>) = schedule(seed, t_under, t_over).into_iter().unzip();
    let cfg = serve_config();
    let (submitted, stats, starts) = drive(probed_server(&st.model, &cfg), &due, |j| {
        st.requests[pool_idx[j]].0.clone()
    });
    Leg {
        due,
        pool_idx,
        submitted,
        starts,
        stats,
        t_under,
    }
}

impl Leg {
    fn under(&self, j: usize) -> bool {
        self.due[j].as_secs_f64() < self.t_under
    }

    /// Queue waits of the under-capacity phase, ms.
    fn under_waits(&self) -> Vec<f64> {
        waits_from_due(&self.due, &self.starts)
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| self.under(j))
            .filter_map(|(_, w)| w)
            .collect()
    }

    /// First attempts started per second while the backlog keeps both
    /// workers busy: from [`RAMP_S`] into the over-capacity phase until
    /// the backlog has drained. The median over [`WINDOW_S`] windows,
    /// each window's rate taken between its first and last start.
    fn goodput_rps(&self) -> f64 {
        let first: Vec<f64> = first_starts(self.due.len(), &self.starts)
            .into_iter()
            .flatten()
            .map(|t| t.as_secs_f64())
            .collect();
        let lo = self.t_under + RAMP_S;
        let hi = first.iter().copied().fold(lo, f64::max);
        let windows = (((hi - lo) / WINDOW_S).floor() as usize).max(1);
        let mut in_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &t in &first {
            let w = (t - lo) / WINDOW_S;
            if w >= 0.0 && (w as usize) < windows {
                in_window[w as usize].push(t);
            }
        }
        let rates: Vec<f64> = in_window
            .iter_mut()
            .filter(|v| v.len() >= 2)
            .map(|v| {
                v.sort_by(f64::total_cmp);
                (v.len() - 1) as f64 / (v[v.len() - 1] - v[0])
            })
            .collect();
        median(&rates)
    }

    /// Exact service times of the over-capacity phase's requests, ms.
    fn over_service_ms(&self) -> Vec<f64> {
        exact_service_ms(&self.starts, &self.submitted)
            .into_iter()
            .filter(|&(id, _)| !self.under(id as usize))
            .map(|(_, ms)| ms)
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.submitted
            .iter()
            .zip(&self.due)
            .map(|(s, d)| s.saturating_sub(*d).as_secs_f64() * 1e3)
            .collect()
    }

    /// Per phase: `(attempted, shed or missed, wrong label)`.
    fn outcomes(&self, st: &State) -> [(u64, u64, u64); 2] {
        let mut phases = [(0u64, 0u64, 0u64); 2];
        for r in &self.stats.responses {
            let j = r.id as usize;
            let p = &mut phases[usize::from(!self.under(j))];
            p.0 += 1;
            let k = self.pool_idx[j];
            match r.label {
                Some(l) if r.outcome.is_served() => p.2 += u64::from(l != st.reference[k]),
                _ => p.1 += 1,
            }
        }
        phases
    }
}

pub fn end_to_end(s: &Settings) -> Outcome {
    let (st, setup_s) = repeat_setup(|| setup(s));
    let leg = serve_leg(&st, s.seed, s.seconds);
    let mut out = Outcome::default();
    let phases = leg.outcomes(&st);
    let missing = leg.due.len() as u64 - leg.stats.responses.len() as u64;
    out.attempted = leg.due.len() as u64;
    out.failed = phases.iter().map(|p| p.1 + p.2).sum::<u64>() + missing;
    for (name, p) in ["under", "over"].iter().zip(phases) {
        out.line(format!(
            "serve phase {name}: attempted {} shed_or_missed {} wrong_label {}",
            p.0, p.1, p.2
        ));
        out.check(
            &format!("serve.{name}.all_served"),
            p.1 == 0,
            format!("{} of {} requests shed or missed", p.1, p.0),
        );
        out.check(
            &format!("serve.{name}.labels_match_serial_engine"),
            p.2 == 0,
            format!(
                "{} of {} served labels differ from serial Engine::process",
                p.2, p.0
            ),
        );
    }
    out.check(
        "serve.every_request_answered",
        missing == 0,
        format!("{missing} requests have no response"),
    );
    let wait = summarize(&leg.under_waits());
    let service = timing_check(&mut out, "serve_service_ms", &leg.over_service_ms());
    let goodput = leg.goodput_rps();
    let late = leg.late_ms();
    out.line(format!(
        "serve_capacity_rps {goodput:.3} req/s (offered {OVER_RPS} req/s; serial Engine::process median {:.3} ms)",
        median(&st.engine_ms)
    ));
    out.line(format!(
        "serve_service_ms_p50 {:.4} ms; serve_service_ms_p90 {:.4} ms (n={}, over-capacity phase)",
        service.p50, service.p90, service.n
    ));
    out.line(format!(
        "serve_wait_ms_p50 {:.4} ms; serve_wait_ms_p90 {:.4} ms (n={}, offered {UNDER_RPS} req/s)",
        wait.p50, wait.p90, wait.n
    ));
    out.line(format!(
        "generator lateness: mean {:.4} ms, max {:.4} ms; max queue depth {}; breaker trips {}",
        mean(&late),
        late.iter().copied().fold(0.0, f64::max),
        leg.stats.max_queue_depth,
        leg.stats.breaker_trips
    ));
    let quality = inputs(QUALITY_SEED);
    let engine = Engine::new(st.model.clone(), &serve_config(), Box::new(NoFaults));
    let wrong = quality
        .iter()
        .enumerate()
        .filter(|(i, (tokens, label))| {
            serve_one(&engine, *i as u64, tokens).0.label != Some(*label)
        })
        .count();
    let error_pct = 100.0 * wrong as f64 / quality.len() as f64;
    out.line(format!(
        "serve label error {error_pct:.4} % on the quality set"
    ));
    out.metrics = EndToEnd {
        setup_s,
        throughput_per_s: goodput,
        op_ms: Some(service),
        error_pct,
    }
    .metrics();
    out
}

/// Time `Engine::process` (primary path, no faults) on `requests`:
/// `serve.engine_ms` and `serve.attempts_per_request`. Returns the
/// median time, ms.
pub fn engine_probe(
    model: &Model,
    fmt: ElemFormat,
    requests: &[Vec<usize>],
    layers: &mut Layers,
    out: &mut Outcome,
) -> f64 {
    let cfg = ServeConfig {
        primary: fmt,
        ..ServeConfig::default()
    };
    let engine = Engine::new(model.clone(), &cfg, Box::new(NoFaults));
    let calls = requests.len().max(10);
    let (ms, attempts): (Vec<f64>, Vec<f64>) = (0..calls)
        .map(|i| {
            let (r, ms) = serve_one(&engine, i as u64, &requests[i % requests.len()]);
            (ms, f64::from(r.attempts))
        })
        .unzip();
    out.line(format!(
        "Engine::process batch-1 {fmt:?}: median {:.4} ms over {calls} calls",
        median(&ms)
    ));
    layers.set("serve.engine_ms", median(&ms));
    layers.set("serve.attempts_per_request", mean(&attempts));
    median(&ms)
}

/// The serving layer on a batch workload's model: [`engine_probe`] on
/// `request`, then `serve.queue_wait_ms` at light load, the p90 wait
/// (due time to attempt start) of a one-worker `Server` fed a copy of
/// `request` every two median service times.
pub fn probe_model(
    model: &Model,
    fmt: ElemFormat,
    request: Vec<usize>,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let service_ms = engine_probe(model, fmt, std::slice::from_ref(&request), layers, out);
    let cfg = ServeConfig {
        workers: 1,
        primary: fmt,
        ..ServeConfig::default()
    };
    let gap = Duration::from_secs_f64(2.0 * service_ms / 1e3);
    let due: Vec<Duration> = (1..=min_samples(TAIL_Q) as u32).map(|j| gap * j).collect();
    let (_, stats, starts) = drive(probed_server(model, &cfg), &due, |_| request.clone());
    let wait = summarize(
        &waits_from_due(&due, &starts)
            .into_iter()
            .flatten()
            .collect::<Vec<_>>(),
    );
    out.line(format!(
        "light-load queue wait: p50 {:.4} ms, p90 {:.4} ms (n={}, one worker, a request every {:.3} ms)",
        wait.p50,
        wait.p90,
        wait.n,
        gap.as_secs_f64() * 1e3
    ));
    let served = stats
        .responses
        .iter()
        .filter(|r| r.outcome.is_served())
        .count();
    out.check(
        "serve.light_load_all_served",
        served == due.len(),
        format!("{served} of {} light-load requests served", due.len()),
    );
    layers.set("serve.queue_wait_ms", wait.p90);
}

/// One primary-path attempt of a batch-1 request, made the way
/// `Engine::attempt` makes it but on a context `make_ctx` builds (so the
/// caller can trace it): the fault-source call, a fresh context with an
/// unlimited block budget, the forward, the health merge, the non-finite
/// logit scan, the argmax and dropping the tape and context. Returns
/// `(label, ms)`.
fn attempt_replica(
    model: &Model,
    id: u64,
    tokens: &[usize],
    make_ctx: impl FnOnce(QuantCtx) -> QuantCtx,
) -> (Option<usize>, f64) {
    let t = Instant::now();
    let faulted = NoFaults.corrupt_for_request(model, id, 0).map(|f| f.0);
    let model = faulted.as_ref().unwrap_or(model);
    let token = CancelToken::with_block_budget(u64::MAX);
    let qctx = make_ctx(QuantCtx::inference(QuantScheme::uniform(PRIMARY)).with_cancel(token));
    let mut tape = Tape::new();
    let batch = TokenBatch::dense(tokens.to_vec(), 1, tokens.len());
    let dec = (model.cfg.kind == ModelKind::EncDec).then(|| batch.clone());
    let fwd = model.try_forward(&mut tape, &qctx, &batch, dec.as_ref(), TrainMode::Frozen);
    let label = fwd.ok().map(|out| {
        let mut health = TensorHealth::default();
        for (_, h) in qctx.health_report() {
            health.merge(&h);
        }
        let logits = tape.value(out.logits).data();
        health.elements += logits.len() as u64;
        health.nonfinite_out += logits.iter().filter(|x| !x.is_finite()).count() as u64;
        std::hint::black_box(health);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |m| m.0)
    });
    drop((tape, qctx));
    (label, t.elapsed().as_secs_f64() * 1e3)
}

pub fn per_layer(s: &Settings) -> Outcome {
    let st = setup(s);
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let leg = serve_leg(&st, s.seed, s.seconds * 0.4);
    let phases = leg.outcomes(&st);
    let reqs = leg.due.len() as u64;
    let attempts: u64 = leg
        .stats
        .responses
        .iter()
        .map(|r| u64::from(r.attempts))
        .sum();
    let wait = summarize(&leg.under_waits());
    out.line(format!(
        "serve_wait_ms_p50 {:.4} ms; serve_wait_ms_p90 {:.4} ms (n={}, offered {UNDER_RPS} req/s)",
        wait.p50, wait.p90, wait.n
    ));

    // Untraced: the program's own `Engine::attempt`. Traced: the replica
    // of it, so a gap between the two shows in `trace.overhead_pct`.
    let engine = Engine::new(st.model.clone(), &serve_config(), Box::new(NoFaults));
    let mut bad_attempts = 0u64;
    let untraced = untraced_loop(s, 0.2, |i| {
        let k = i % POOL;
        let req = Request::new(i as u64, st.requests[k].0.clone());
        let (a, ms) = timed(|| engine.attempt(&req, 0, true, u64::MAX));
        bad_attempts += u64::from(a.label != Some(st.reference[k]));
        ms
    });
    let n = untraced.op_ms.len();
    let tracer = Tracer::new(PRIMARY);
    let mut prof = Profile::default();
    let mut changed = 0u64;
    for i in 0..n {
        let k = i % POOL;
        let mut session = None;
        let ((label, ms), tasks) = count_tasks(|| {
            attempt_replica(&st.model, i as u64, &st.requests[k].0, |q| {
                let (tctx, h) = tracer.attach(&q);
                session = Some(h);
                tctx
            })
        });
        changed += u64::from(label != Some(st.reference[k]));
        // Per-call overhead outside the forward spans (context set-up
        // and teardown, tape) counts as unspanned.
        let timing = OpTiming {
            op_ns: (ms * 1e6) as u64,
            fwd_ns: None,
            chunk_tasks: tasks,
        };
        prof.absorb(&session.expect("session attached").borrow(), timing, true);
    }
    let wrong: u64 = phases.iter().map(|p| p.1 + p.2).sum();
    out.attempted = reqs + 2 * n as u64;
    out.failed = wrong + changed + bad_attempts;
    out.check(
        "serve.attempt_labels_match_serial_engine",
        changed + bad_attempts == 0,
        format!(
            "{bad_attempts} of {n} Engine::attempt calls and {changed} of {n} traced replicas disagree with Engine::process"
        ),
    );
    out.check(
        "serve.leg_all_served_correctly",
        wrong == 0,
        format!("{wrong} of {reqs} requests shed, missed or mislabelled"),
    );
    finish(&prof, &untraced, &[PRIMARY], &mut layers, &mut out);
    layers.set("op.positions_per_output", SEQ as f64);
    layers.set("op.useful_ratio", reqs as f64 / attempts.max(1) as f64);
    layers.set("serve.max_queue_depth", leg.stats.max_queue_depth as f64);
    layers.set("serve.breaker_trips", leg.stats.breaker_trips as f64);
    layers.set("serve.queue_wait_ms", wait.p90);
    // Open loop: how late the generator submitted, not the closed-loop
    // gap `finish` records.
    layers.set("bench.gen_late_ms", mean(&leg.late_ms()));
    let pool: Vec<Vec<usize>> = st.requests.iter().map(|r| r.0.clone()).collect();
    engine_probe(&st.model, PRIMARY, &pool, &mut layers, &mut out);
    out.line(format!(
        "traced ops: {n} batch-1 attempts; server leg {reqs} requests, {attempts} attempts"
    ));
    out.metrics = layers.metrics();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct Fake(Cell<Duration>);

    impl Clock for Fake {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        let ms = Duration::from_millis;
        let clock = Fake(Cell::new(Duration::ZERO));
        let due = [ms(0), ms(1), ms(2), ms(50)];
        // The generator stalls 10 ms on every submission.
        let submitted = open_loop(&clock, &due, |_| clock.0.set(clock.0.get() + ms(10)));
        assert_eq!(submitted, vec![ms(0), ms(10), ms(20), ms(50)]);
        // Each request starts 1 ms after it is submitted.
        let worker = std::thread::current().id();
        let starts: Vec<Start> = submitted
            .iter()
            .enumerate()
            .map(|(j, &s)| Start {
                worker,
                id: j as u64,
                at: s + ms(1),
            })
            .collect();
        let waits = waits_from_due(&due, &starts);
        // The stall counts as wait: 1, 10, 19 ms, not 1 ms each.
        assert_eq!(waits, vec![Some(1.0), Some(10.0), Some(19.0), Some(1.0)]);
        // A retry's later attempt does not replace the first start.
        let mut retried = starts.clone();
        retried.push(Start {
            worker,
            id: 0,
            at: ms(99),
        });
        assert_eq!(waits_from_due(&due, &retried)[0], Some(1.0));
    }

    #[test]
    fn service_time_is_exact_only_when_the_next_request_waited() {
        let ms = Duration::from_millis;
        let (a, b) = (
            std::thread::current().id(),
            std::thread::spawn(|| std::thread::current().id())
                .join()
                .unwrap(),
        );
        let starts = [
            Start {
                worker: a,
                id: 0,
                at: ms(0),
            },
            Start {
                worker: b,
                id: 1,
                at: ms(1),
            },
            // Request 2 was queued before request 0 started: 0 took 20 ms.
            Start {
                worker: a,
                id: 2,
                at: ms(20),
            },
            // Request 3 arrived after request 1 started: worker b may
            // have idled, so request 1's service time is unknown.
            Start {
                worker: b,
                id: 3,
                at: ms(30),
            },
        ];
        let submitted = [ms(0), ms(1), ms(0), ms(29)];
        assert_eq!(exact_service_ms(&starts, &submitted), vec![(0, 20.0)]);
    }

    #[test]
    fn schedule_is_seeded_and_phased() {
        let a = schedule(5, 2.0, 1.0);
        assert_eq!(a, schedule(5, 2.0, 1.0));
        assert_ne!(a, schedule(6, 2.0, 1.0));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let under = a.iter().filter(|x| x.0.as_secs_f64() < 2.0).count() as f64;
        let over = a.len() as f64 - under;
        // Poisson counts near 70*2 and 185*1.
        assert!(
            (under - 140.0).abs() < 45.0 && (over - 185.0).abs() < 50.0,
            "{under} {over}"
        );
    }
}
