//! The deterministic multi-replica fleet simulation.
//!
//! One single-threaded discrete-event loop on a virtual microsecond
//! clock drives every replica: arrivals are routed by the fleet
//! [`Router`], each service pickup runs one episode of the clock-free
//! qt-serve [`qt_serve::Engine::episode`] state machine, crashes
//! truncate in-flight work at the exact outage instant, and recovered
//! replicas re-earn traffic through half-open probing. The forward
//! passes inside execute on the real qt-par kernels, whose results are
//! bitwise identical at any `QT_THREADS` — so the whole [`FleetReport`]
//! is too.
//!
//! Events run on [`qt_serve::EventQueue`]. Ordering at equal timestamps
//! is fixed by kind rank: completions free workers first, then failed
//! requests re-route, then lifecycle transitions fire, then storage
//! repairs land, then autoscale boots complete, then new arrivals are
//! admitted, then the adaptive control plane evaluates, then scrub
//! windows run, then snapshots are written. Ties within a kind break by
//! insertion sequence. This total order is what makes crash-instant
//! races (a pass finishing at exactly `down_at`, a failover leaving as
//! the queue drains) deterministic instead of racy.
//!
//! Every run reports into a [`TelemetrySink`]. The sink only listens:
//! nothing in the loop reads it back, so the report is independent of
//! the telemetry config. The adaptive control plane (qt-adapt) hangs
//! off the same loop: a periodic `AdaptTick` reads only sim-internal
//! state (queue depths, attempt durations), never telemetry.
//!
//! Crash truncation is computed *synchronously* at pickup: the episode's
//! crash boundary is the replica's next scheduled outage, so each pass's
//! block budget is the minimum of its deadline budget and the blocks
//! that fit before that outage. No completion event ever lands on a
//! dead replica, and the simulation needs no event cancellation
//! machinery.

use crate::config::FleetConfig;
use crate::load::FleetRequest;
use crate::replica::{Replica, ReplicaStats, SnapStore};
use crate::report::{
    AdaptEvent, Dispatch, DispatchCause, FleetOutcome, FleetReport, FleetResponse, ReplicaReport,
};
use crate::router::{ReplicaView, Router};
use crate::tenant::TenantBook;
use qt_adapt::{
    AutoscalePolicy, Brownout, BrownoutLadder, CodelController, GrayDetector, GrayEvent,
    PriorityTier, ScaleDecision,
};
use qt_quant::HealthWindow;
use qt_robust::{cell_seed, FaultSource, LifecycleEvent, NoFaults};
use qt_serve::{
    integrity_health, BreakerState, Episode, EpisodeEnd, EpisodeSpec, EventQueue, Ranked, Request,
    Route,
};
use qt_telemetry::TelemetrySink;
use qt_transformer::Model;
use std::collections::VecDeque;

/// One request's mutable fleet-side state as it moves between replicas.
#[derive(Debug, Clone)]
struct Job {
    freq: FleetRequest,
    /// Forward attempts executed so far, across replicas.
    attempts: u32,
    /// Flagged attempts so far, across replicas.
    flagged: u32,
    /// Fleet-level failovers so far.
    failovers: u32,
    hedged: bool,
    /// Replicas this request must never land on again (each one failed
    /// it: corrupted its attempts or crashed under it).
    excluded: Vec<usize>,
    /// First service pickup already recorded in the queue-wait histogram.
    waited: bool,
    /// Brownout economy service: a single degraded-precision attempt,
    /// no retry/failover/hedge budget.
    economy: bool,
}

impl Job {
    fn new(freq: FleetRequest) -> Self {
        Self {
            freq,
            attempts: 0,
            flagged: 0,
            failovers: 0,
            hedged: false,
            excluded: Vec::new(),
            waited: false,
            economy: false,
        }
    }
}

/// Event kinds; rank fixes processing order at equal timestamps.
enum Ev {
    /// A worker on replica `.0` finished; `.1` releases that tenant's
    /// quota slot (set for final outcomes, not failovers).
    Done(usize, Option<u32>),
    /// A request leaves its failed replica and re-routes.
    Failover(Box<Job>, DispatchCause),
    /// A replica crashes or finishes rebooting.
    Lifecycle(usize, LifecycleEvent),
    /// A quarantined storage region's repair completes on replica `.0`,
    /// region index `.1`: the plane is rebuilt from the f32 masters.
    Repair(usize, usize),
    /// An autoscale boot completes: replica `.0` comes out of reserve
    /// through the snapshot-recovery path.
    Scale(usize),
    /// A request arrives at the fleet edge.
    Arrival(Box<FleetRequest>),
    /// Periodic adaptive-control evaluation.
    AdaptTick,
    /// Periodic background scrub window on replica `.0`.
    ScrubTick(usize),
    /// Periodic health-snapshot persistence.
    SnapshotTick,
}

impl Ranked for Ev {
    fn rank(&self) -> u8 {
        match self {
            Ev::Done(..) => 0,
            Ev::Failover(..) => 1,
            Ev::Lifecycle(..) => 2,
            Ev::Repair(..) => 3,
            Ev::Scale(..) => 4,
            Ev::Arrival(..) => 5,
            Ev::AdaptTick => 6,
            Ev::ScrubTick(..) => 7,
            Ev::SnapshotTick => 8,
        }
    }
}

/// Run one service episode of `job` on `r` starting at `start_us`.
///
/// An adapter over the shared [`qt_serve::Engine::episode`]: the fleet
/// supplies the gray-slowed block cost, the replica's next scheduled
/// outage as the crash boundary, the request's fleet-wide attempt count
/// and per-replica backoff stream, and — when the request may still
/// fail over — the exit that leaves a tripped replica.
fn run_episode(r: &Replica, job: &Job, start_us: u64, can_failover: bool, seed: u64) -> Episode {
    let mut per_block = r.spec.per_block_us.max(1);
    if let Some(g) = r.spec.gray_slowdown {
        if start_us >= g.from_us {
            // Gray failure: service runs slow, but every health gate
            // (routing, hedging) still sees the nominal full_pass_us.
            per_block *= g.factor.max(1);
        }
    }
    let spec = EpisodeSpec {
        start_us,
        per_block_us: per_block,
        prior_attempts: job.attempts,
        // A request that fails over must not replay the same backoff
        // schedule on its new home.
        backoff_seed: cell_seed(seed, job.freq.req.id as usize, r.id, job.failovers as usize),
        crash_at: r.spec.crashes.next_down_after(start_us.saturating_sub(1)),
    };
    // Neither the episode nor anything it calls moves a breaker out of
    // Open, so a trip mid-episode keeps every later attempt degraded.
    let tripped = || r.breaker.borrow().state() == BreakerState::Open;
    let route = |_| {
        // Economy jobs get degraded service only. A quarantined storage
        // region forces the degraded path too: the quantized plane is
        // known-bad until repair re-quantizes it, and the BF16 path
        // reads the untouched f32 masters.
        if job.economy || r.shield_quarantined() || tripped() {
            Route::Degraded
        } else {
            Route::Primary
        }
    };
    r.engine().episode(
        &job.freq.req,
        spec,
        route,
        |h, t| r.breaker.borrow_mut().on_primary_outcome(h, t),
        can_failover.then_some(&tripped as &dyn Fn() -> bool),
    )
}

/// The adaptive control plane's sim-side state: the qt-adapt decision
/// machines plus the fleet-owned signals and actuator state they drive.
/// Everything here is derived from the virtual clock and sim-internal
/// counters — never from telemetry — so observation stays inert.
struct AdaptState {
    every_us: u64,
    codel: Option<CodelController>,
    ladder: Option<BrownoutLadder>,
    gray: Option<GrayDetector>,
    autoscale: Option<AutoscalePolicy>,
    /// Administratively out of rotation (reserve capacity, or drained).
    admin_down: Vec<bool>,
    /// Draining toward admin-down: no new routing, queue finishes.
    draining: Vec<bool>,
    /// Boots in flight (scale-up decided, cold start not yet elapsed).
    pending_up: usize,
    /// Per-replica boot-in-flight flag, so concurrent scale-ups pick
    /// distinct reserve replicas.
    booting: Vec<bool>,
    /// Per-replica completed-attempt durations in the current window,
    /// the gray detector's signal. Cleared every tick.
    window_lat: Vec<Vec<u64>>,
    /// Decision audit trail, in virtual-time order.
    events: Vec<AdaptEvent>,
    /// Boots completed.
    scale_ups: u64,
    /// Drains started.
    scale_downs: u64,
}

impl AdaptState {
    /// The plane for `cfg` over `n` replicas. With `adapt_every_us` 0
    /// the whole plane is off: no sub-policy is built and no replica is
    /// held in reserve, whatever the sub-policy configs say.
    fn new(cfg: &FleetConfig, n: usize) -> Self {
        let on = cfg.adapt_every_us > 0;
        let mut admin_down = vec![false; n];
        if let Some(a) = cfg.autoscale.filter(|_| on) {
            // Hold everything above the floor in reserve; pressure has
            // to earn the rest of the band.
            for slot in admin_down.iter_mut().skip(a.min_replicas.max(1)) {
                *slot = true;
            }
        }
        Self {
            every_us: cfg.adapt_every_us,
            codel: cfg.codel.filter(|_| on).map(CodelController::new),
            ladder: cfg.brownout.filter(|_| on).map(BrownoutLadder::new),
            gray: cfg.gray.filter(|_| on).map(|g| GrayDetector::new(g, n)),
            autoscale: cfg.autoscale.filter(|_| on).map(AutoscalePolicy::new),
            admin_down,
            draining: vec![false; n],
            pending_up: 0,
            booting: vec![false; n],
            window_lat: vec![Vec::new(); n],
            events: Vec::new(),
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Whether any sub-policy is built: only then does the plane tick.
    fn armed(&self) -> bool {
        self.codel.is_some()
            || self.ladder.is_some()
            || self.gray.is_some()
            || self.autoscale.is_some()
    }

    /// `r` takes traffic: neither in reserve nor draining.
    fn routable(&self, r: usize) -> bool {
        !self.admin_down[r] && !self.draining[r]
    }

    /// Replicas taking traffic.
    fn active(&self) -> usize {
        (0..self.admin_down.len())
            .filter(|&r| self.routable(r))
            .count()
    }

    /// Log one scale move on `r` to the audit trail and telemetry;
    /// `active` is the replica count the move leaves taking traffic.
    fn record_scale(
        &mut self,
        now: u64,
        r: usize,
        kind: &'static str,
        active: usize,
        tel: &mut TelemetrySink,
    ) {
        self.events.push(AdaptEvent {
            at_us: now,
            kind,
            replica: Some(r),
            detail: active as f64,
        });
        tel.scale(now, r, kind, active);
    }

    /// Complete `r`'s scale-down if it is draining and `idle` (nothing
    /// in service or queued): it stays out of rotation until a boot.
    fn finish_drain(&mut self, r: usize, now: u64, idle: bool, tel: &mut TelemetrySink) {
        if idle && self.draining[r] {
            self.draining[r] = false;
            self.admin_down[r] = true;
            self.record_scale(now, r, "scale_down_done", self.active(), tel);
        }
    }

    /// Complete `r`'s boot: it joins the rotation.
    fn finish_boot(&mut self, r: usize, now: u64, tel: &mut TelemetrySink) {
        self.pending_up = self.pending_up.saturating_sub(1);
        self.booting[r] = false;
        self.admin_down[r] = false;
        self.scale_ups += 1;
        self.record_scale(now, r, "scale_up_done", self.active(), tel);
    }
}

/// One replica per spec in the normalized `cfg`, paired with `faults` by
/// index; missing entries get [`NoFaults`] (healthy hardware).
fn build_replicas(
    model: &Model,
    cfg: &FleetConfig,
    faults: Vec<Box<dyn FaultSource + Send + Sync>>,
) -> Vec<Replica> {
    let mut faults = faults.into_iter();
    let mut replicas = Vec::with_capacity(cfg.replicas.len());
    for (id, spec) in cfg.replicas.iter().cloned().enumerate() {
        let fault = faults.next().unwrap_or_else(|| Box::new(NoFaults));
        replicas.push(Replica::new(id, model.clone(), spec, fault, cfg.retry_seed));
    }
    replicas
}

/// The fleet: replicas, router, tenant book, snapshot store, and the
/// event loop state. Build one with [`Fleet::new`], run it once with
/// [`Fleet::run`]; [`run_fleet`] does both.
pub(crate) struct Fleet<'t> {
    cfg: FleetConfig,
    replicas: Vec<Replica>,
    queues: Vec<VecDeque<Job>>,
    busy: Vec<usize>,
    router: Router,
    book: TenantBook,
    store: Box<dyn SnapStore>,
    events: EventQueue<Ev>,
    /// The report, accumulated in place as the run executes.
    report: FleetReport,
    tel: &'t mut TelemetrySink,
    /// Per-replica cursor into the breaker's transition log, so new
    /// transitions stream to telemetry exactly once.
    breaker_seen: Vec<usize>,
    /// Adaptive control plane; inert when no sub-policy is armed.
    adapt: AdaptState,
}

impl<'t> Fleet<'t> {
    /// Build a fleet serving `model` on every replica in `cfg`; the
    /// arguments are [`run_fleet`]'s.
    pub(crate) fn new(
        model: &Model,
        cfg: FleetConfig,
        faults: Vec<Box<dyn FaultSource + Send + Sync>>,
        store: Box<dyn SnapStore>,
        tel: &'t mut TelemetrySink,
    ) -> Self {
        let cfg = cfg.normalized();
        let replicas: Vec<Replica> = build_replicas(model, &cfg, faults)
            .into_iter()
            .map(|r| match &cfg.shield {
                Some(sc) => r.with_shield(sc),
                None => r,
            })
            .collect();
        let n = replicas.len();
        let adapt = AdaptState::new(&cfg, n);
        Self {
            router: Router::new(cfg.policy),
            book: TenantBook::new(cfg.tenant_quota),
            queues: vec![VecDeque::new(); n],
            busy: vec![0; n],
            replicas,
            store,
            events: EventQueue::default(),
            report: FleetReport::default(),
            cfg,
            tel,
            breaker_seen: vec![0; n],
            adapt,
        }
    }

    /// Stream breaker transitions recorded since the last drain into
    /// the telemetry sink (state gauge, transition counters, flight
    /// ring — an Open transition freezes the replica's black box).
    fn drain_breaker_transitions(&mut self) {
        for r in &self.replicas {
            let seen = &mut self.breaker_seen[r.id];
            let b = r.breaker.borrow();
            let trs = b.transitions();
            for tr in &trs[*seen..] {
                self.tel.breaker(
                    tr.at_us,
                    r.id,
                    tr.from.name(),
                    tr.to.name(),
                    tr.to.code() as f64,
                    tr.unhealthy_rate,
                );
            }
            *seen = trs.len();
        }
    }

    /// Count one Open-cooldown notch on every up-but-Open replica: the
    /// fleet equivalent of qt-serve's request-denominated cooldown. An
    /// Open replica receives no traffic, so its recovery clock is the
    /// demand it *would have seen* — one notch per routing decision.
    fn tick_open_breakers(&mut self, now: u64) {
        for r in &mut self.replicas {
            if r.is_up(now) && r.breaker_state() == BreakerState::Open {
                r.breaker.get_mut().tick_open(now);
            }
        }
    }

    fn views(&self, now: u64) -> Vec<ReplicaView> {
        self.replicas
            .iter()
            .map(|r| ReplicaView {
                id: r.id,
                // Autoscale overlay: reserve and draining replicas are
                // routing-invisible, though a draining one still
                // finishes its queue (`kick` only checks the crash
                // schedule).
                up: r.is_up(now) && self.adapt.routable(r.id),
                breaker: r.breaker_state(),
                queued: self.queues[r.id].len(),
                in_service: self.busy[r.id],
                queue_cap: r.spec.queue_cap,
                full_pass_us: r.full_pass_us(),
            })
            .collect()
    }

    /// Which shed outcome honestly describes "the router found nothing":
    /// if some replica was healthy but full, admission capacity was the
    /// binding constraint; otherwise there was no healthy replica at all.
    fn shed_kind(views: &[ReplicaView], excluded: &[usize]) -> FleetOutcome {
        let healthy_but_full = views.iter().any(|v| {
            v.up && v.breaker != BreakerState::Open && !excluded.contains(&v.id) && !v.has_room()
        });
        if healthy_but_full {
            FleetOutcome::ShedQueueFull
        } else {
            FleetOutcome::ShedNoReplica
        }
    }

    fn respond(
        &mut self,
        job: &Job,
        outcome: FleetOutcome,
        replica: Option<usize>,
        label: Option<usize>,
        finish_us: u64,
    ) {
        let rep = &mut self.report;
        match outcome {
            FleetOutcome::ServedPrimary => rep.served_primary += 1,
            FleetOutcome::ServedDegraded => rep.served_degraded += 1,
            FleetOutcome::ShedQueueFull => rep.shed_queue_full += 1,
            FleetOutcome::ShedQuota => rep.shed_quota += 1,
            FleetOutcome::ShedNoReplica => rep.shed_no_replica += 1,
            FleetOutcome::ShedOverload => rep.shed_overload += 1,
            FleetOutcome::DeadlineMiss => rep.deadline_miss += 1,
        }
        if job.economy && outcome.is_served() {
            rep.economy_served += 1;
        }
        let latency_us = if outcome.is_shed() {
            0
        } else {
            finish_us.saturating_sub(job.freq.req.arrival_us)
        };
        if !outcome.is_shed() {
            rep.latency.observe(latency_us as f32);
        }
        rep.end_us = rep.end_us.max(finish_us);
        self.tel.outcome(
            finish_us,
            job.freq.req.id,
            replica,
            outcome.name(),
            outcome.is_served(),
            outcome.is_shed(),
            latency_us,
        );
        rep.responses.push(FleetResponse {
            id: job.freq.req.id,
            user: job.freq.user,
            tenant: job.freq.tenant,
            outcome,
            label,
            replica,
            attempts: job.attempts,
            flagged: job.flagged,
            failovers: job.failovers,
            hedged: job.hedged,
            finish_us,
            latency_us,
        });
    }

    /// Route `job` at `now` (logging the decision) and either start
    /// service or enqueue it; on no eligible replica, shed. Returns
    /// `true` when the job found a replica.
    fn dispatch_or_shed(&mut self, job: Job, now: u64, cause: DispatchCause) -> bool {
        self.tick_open_breakers(now);
        let views = self.views(now);
        match self.router.pick(&views, &job.excluded) {
            Some(target) => {
                self.report.dispatches.push(Dispatch {
                    req_id: job.freq.req.id,
                    at_us: now,
                    replica: target,
                    breaker: views[target].breaker,
                    cause,
                    excluded: job.excluded.clone(),
                });
                self.tel
                    .dispatch(now, job.freq.req.id, target, cause.name());
                self.place(target, job, now);
                true
            }
            None => {
                let kind = Self::shed_kind(&views, &job.excluded);
                self.book.release(job.freq.tenant);
                self.respond(&job, kind, None, None, now);
                false
            }
        }
    }

    /// Hand `job` to `target`: start service if a worker is idle and no
    /// one is ahead of it, else queue it (the router only returns
    /// replicas with room) and drain.
    fn place(&mut self, target: usize, job: Job, now: u64) {
        if self.busy[target] < self.replicas[target].spec.workers && self.queues[target].is_empty()
        {
            self.start_service(target, job, now);
        } else {
            self.queues[target].push_back(job);
            let depth = self.queues[target].len() as u64;
            let stats = &mut self.replicas[target].stats;
            stats.max_queue_depth = stats.max_queue_depth.max(depth);
            self.tel.queue_depth(now, target, depth as usize);
            self.kick(target, now);
        }
    }

    /// Start queued work on every idle worker of `r`. A hedge can move a
    /// popped job to another replica *without* occupying the local
    /// worker, so one freed worker may drain several queue entries —
    /// hence a loop, not a single pop.
    fn kick(&mut self, r: usize, now: u64) {
        while self.busy[r] < self.replicas[r].spec.workers && self.replicas[r].is_up(now) {
            match self.queues[r].pop_front() {
                Some(job) => self.start_service(r, job, now),
                None => break,
            }
        }
    }

    /// Begin (or hedge away) one service episode on `r` at `now`.
    fn start_service(&mut self, r: usize, mut job: Job, now: u64) {
        let deadline = job.freq.req.deadline_us;
        // Hedge: the remaining budget cannot fit a pass here, but fits on
        // another eligible replica — re-route instead of burning the
        // budget on a doomed attempt.
        if self.cfg.hedge
            && !job.economy
            && deadline != Request::NO_DEADLINE
            && now + self.replicas[r].full_pass_us() > deadline
        {
            let mut views = self.views(now);
            for v in views.iter_mut() {
                // A hedge target must actually fit the remaining budget;
                // everything else (and the doomed home) drops out. A
                // fitting target never re-hedges at this instant, so
                // hedges cannot ping-pong.
                if v.id == r || now + v.full_pass_us > deadline {
                    v.up = false;
                }
            }
            if let Some(target) = self.router.pick(&views, &job.excluded) {
                self.report.hedges += 1;
                job.hedged = true;
                self.report.dispatches.push(Dispatch {
                    req_id: job.freq.req.id,
                    at_us: now,
                    replica: target,
                    breaker: views[target].breaker,
                    cause: DispatchCause::Hedge,
                    excluded: job.excluded.clone(),
                });
                self.tel.hedge(now, job.freq.req.id, target);
                self.place(target, job, now);
                return;
            }
        }
        // CoDel admission: judge the first pickup by its sojourn time.
        // A head drop sheds without occupying the worker, so the kick
        // loop keeps draining — exactly the standing-queue cure.
        if !job.waited {
            let sojourn = now.saturating_sub(job.freq.req.arrival_us);
            let dropped = self
                .adapt
                .codel
                .as_mut()
                .is_some_and(|c| c.on_pickup(now, sojourn).is_drop());
            if dropped {
                self.book.release(job.freq.tenant);
                self.respond(&job, FleetOutcome::ShedOverload, None, None, now);
                return;
            }
        }
        self.busy[r] += 1;
        if !job.waited {
            job.waited = true;
            let wait = now.saturating_sub(job.freq.req.arrival_us);
            self.report.queue_wait.observe(wait as f32);
            self.tel.queue_wait(now, r, wait);
        }
        // Read-path integrity check before the engine fetches weights:
        // single-bit rot is corrected transiently (the scrubber owns the
        // in-place fix); a double-bit detection quarantines *now*, so
        // this very episode already routes down the degraded path.
        if let Some(s) = self.replicas[r].shield.as_mut() {
            let out = s.shield.verify_reads();
            let hits: Vec<_> = out
                .quarantined
                .iter()
                .map(|&g| (g, s.region_cost(g)))
                .collect();
            if out.corrected > 0 {
                self.replicas[r].stats.read_corrected += out.corrected;
                self.tel.read_corrected(now, r, out.corrected);
            }
            for (region, cost) in hits {
                self.on_quarantine(r, region, cost, now);
            }
        }
        let can_failover =
            self.replicas.len() > 1 && job.failovers < self.cfg.max_failovers && !job.economy;
        let ep = run_episode(
            &self.replicas[r],
            &job,
            now,
            can_failover,
            self.cfg.retry_seed,
        );
        for a in &ep.spans {
            let id = job.freq.req.id;
            self.tel
                .attempt(id, r, a.start_us, a.end_us, a.flagged, a.completed);
        }
        if self.adapt.gray.is_some() {
            // Gray signal: completed-attempt durations (pure service
            // time, backoff excluded) in this detector window.
            for sp in ep.spans.iter().filter(|sp| sp.completed) {
                self.adapt.window_lat[r].push(sp.end_us - sp.start_us);
            }
        }
        // Ejection enforcement at the only point a breaker can close:
        // clean half-open probes on a still-ejected replica must not
        // let routine traffic back in before the *detector* clears it.
        let still_ejected = self.adapt.gray.as_ref().is_some_and(|g| g.is_ejected(r));
        if still_ejected && self.replicas[r].breaker_state() == BreakerState::Closed {
            let at = ep.spans.last().map_or(now, |sp| sp.end_us);
            self.replicas[r].breaker.get_mut().force_open(at);
        }
        let flagged = ep.flagged();
        job.attempts += ep.attempts();
        job.flagged += flagged;
        {
            let stats = &mut self.replicas[r].stats;
            stats.flagged_attempts += flagged as u64;
            stats.bits_flipped += ep.bits_flipped;
            if ep.crash_interrupted {
                stats.crash_interrupted += 1;
            }
        }
        let at = ep.end_us;
        let tenant = job.freq.tenant;
        match ep.end {
            EpisodeEnd::Served { primary, label } => {
                {
                    let recovered = self.replicas[r].last_recovery_us.is_some();
                    let stats = &mut self.replicas[r].stats;
                    if primary {
                        stats.served_primary += 1;
                    } else {
                        stats.served_degraded += 1;
                    }
                    if recovered {
                        stats.served_after_recovery += 1;
                    }
                }
                let outcome = if primary {
                    FleetOutcome::ServedPrimary
                } else {
                    FleetOutcome::ServedDegraded
                };
                self.respond(&job, outcome, Some(r), label, at);
                self.events.push(at, Ev::Done(r, Some(tenant)));
            }
            EpisodeEnd::Miss => {
                self.respond(&job, FleetOutcome::DeadlineMiss, Some(r), None, at);
                self.events.push(at, Ev::Done(r, Some(tenant)));
            }
            EpisodeEnd::FailoverCorrupt | EpisodeEnd::FailoverCrash => {
                let crash = ep.end == EpisodeEnd::FailoverCrash;
                job.excluded.push(r);
                job.failovers += 1;
                self.report.failovers += 1;
                let why = if crash { "crash" } else { "corrupt" };
                self.tel.failover(at, job.freq.req.id, r, why);
                let cause = if crash {
                    // No Done: this worker dies with the replica; the crash
                    // lifecycle event resets the whole replica's busy count.
                    self.report.crash_failovers += 1;
                    DispatchCause::FailoverCrash
                } else {
                    // The worker frees when the request leaves.
                    self.events.push(at, Ev::Done(r, None));
                    DispatchCause::FailoverCorrupt
                };
                self.events.push(at, Ev::Failover(Box::new(job), cause));
            }
        }
    }

    /// Bring `r` back at `now` through the crash-recovery path: newest
    /// snapshot loaded, breaker forced Open, traffic re-earned through
    /// half-open probes.
    fn rejoin(&mut self, r: usize, now: u64) {
        let loaded = self.store.load(r);
        let corrupt = matches!(&loaded, Err(qt_serve::SnapshotError::Corrupt(_)));
        self.replicas[r].recover(loaded, now);
        // recover() swaps in a fresh breaker with an empty transition
        // log; restart the telemetry cursor so the new log streams from
        // its beginning.
        self.breaker_seen[r] = 0;
        self.tel.recover(now, r, corrupt);
    }

    /// One adaptive-control evaluation at `now`: brownout ladder, gray
    /// detection, autoscale — all from sim-internal signals only.
    fn adapt_tick(&mut self, now: u64) {
        let a = &mut self.adapt;
        // Queue pressure over the replicas currently taking traffic.
        // With nothing routable, pressure saturates: that *is* overload.
        let mut cap = 0usize;
        let mut used = 0usize;
        for r in &self.replicas {
            if r.is_up(now) && a.routable(r.id) {
                cap += r.spec.queue_cap;
                used += self.queues[r.id].len();
            }
        }
        let pressure = if cap == 0 {
            1.0
        } else {
            used as f64 / cap as f64
        };

        // Disjoint borrows: the ladder is read while events are pushed.
        let (ladder, events) = (&mut a.ladder, &mut a.events);
        if let Some(l) = ladder.as_mut() {
            let seen = l.transitions().len();
            l.observe(now, pressure);
            for tr in &l.transitions()[seen..] {
                let kind = if tr.to > tr.from {
                    "brownout_up"
                } else {
                    "brownout_down"
                };
                events.push(AdaptEvent {
                    at_us: now,
                    kind,
                    replica: None,
                    detail: tr.to.severity() as f64,
                });
                self.tel
                    .brownout(now, tr.from.name(), tr.to.name(), tr.to.severity());
            }
        }

        if let Some(g) = a.gray.as_mut() {
            let min = g.config().min_samples;
            let p99s: Vec<Option<f64>> = a
                .window_lat
                .iter()
                .map(|w| {
                    if w.len() < min {
                        return None;
                    }
                    let mut s = w.clone();
                    s.sort_unstable();
                    // Exact sorted p99 (nearest-rank): bit-stable, unlike
                    // a binade histogram quantile.
                    Some(s[(s.len() - 1) * 99 / 100] as f64)
                })
                .collect();
            for ev in g.observe_window(now, &p99s) {
                match ev {
                    GrayEvent::Eject { replica, ratio, .. } => {
                        self.replicas[replica].breaker.get_mut().force_open(now);
                        self.replicas[replica].stats.gray_ejections += 1;
                        a.events.push(AdaptEvent {
                            at_us: now,
                            kind: "gray_eject",
                            replica: Some(replica),
                            detail: ratio,
                        });
                        self.tel.gray_eject(now, replica, ratio);
                    }
                    GrayEvent::Rejoin { replica, .. } => {
                        a.events.push(AdaptEvent {
                            at_us: now,
                            kind: "gray_rejoin",
                            replica: Some(replica),
                            detail: 0.0,
                        });
                        self.tel.gray_rejoin(now, replica);
                    }
                }
            }
            // Enforcement: a still-ejected replica that probed its way
            // back to Closed goes straight back Open — it only truly
            // rejoins once the *detector* clears it (healthy windows),
            // not once the breaker's probe quota is satisfied.
            for r in &mut self.replicas {
                if g.is_ejected(r.id) && r.is_up(now) && r.breaker_state() == BreakerState::Closed {
                    r.breaker.get_mut().force_open(now);
                }
            }
            for w in a.window_lat.iter_mut() {
                w.clear();
            }
        }

        let active = a.active();
        let decision = a.autoscale.as_mut().map(|p| {
            (
                p.observe(active, a.pending_up, pressure),
                p.config().cold_start_us,
            )
        });
        match decision {
            Some((ScaleDecision::Up, cold_start_us)) => {
                // Boot the lowest-id reserve replica; the cold start is a
                // virtual delay, then Ev::Scale lands it on the
                // snapshot-recovery rejoin path.
                if let Some(r) =
                    (0..self.replicas.len()).find(|&r| a.admin_down[r] && !a.booting[r])
                {
                    a.booting[r] = true;
                    a.pending_up += 1;
                    a.record_scale(now, r, "scale_up_start", active + a.pending_up, self.tel);
                    self.events.push(now + cold_start_us, Ev::Scale(r));
                }
            }
            Some((ScaleDecision::Down, _)) => {
                // Drain the highest-id active replica: stop routing to
                // it, let its queue finish.
                if let Some(r) = (0..self.replicas.len()).rev().find(|&r| a.routable(r)) {
                    a.draining[r] = true;
                    a.scale_downs += 1;
                    a.record_scale(now, r, "scale_down_start", active - 1, self.tel);
                    let idle = self.busy[r] == 0 && self.queues[r].is_empty();
                    a.finish_drain(r, now, idle, self.tel);
                }
            }
            _ => {}
        }
    }

    /// Record a newly quarantined region on `r`: counters, the breaker
    /// signal (uncorrectable storage is fed to the breaker as the
    /// non-finite read it would eventually become), telemetry, the audit
    /// trail, and the scheduled repair completion. `(codes, repair_us)`
    /// is the region's [`crate::ShieldState::region_cost`].
    fn on_quarantine(&mut self, r: usize, region: usize, (codes, repair_us): (u64, u64), now: u64) {
        {
            let stats = &mut self.replicas[r].stats;
            stats.scrub_uncorrectable += 1;
            stats.quarantines += 1;
        }
        self.replicas[r]
            .breaker
            .get_mut()
            .on_primary_outcome(&integrity_health(codes, 1), now);
        self.report.integrity_events.push(AdaptEvent {
            at_us: now,
            kind: "quarantine",
            replica: Some(r),
            detail: region as f64,
        });
        self.tel.quarantine(now, r, region);
        self.events.push(now + repair_us, Ev::Repair(r, region));
    }

    /// One background scrub window on `r`: decode under the bandwidth
    /// budget (correcting single-bit rot in place), quarantine double-bit
    /// detections, and — when another window follows — land the next
    /// window's storage faults, so every injected fault gets exactly one
    /// later pass to be caught by. A replica without a code plane has no
    /// shield, and its ticks are no-ops.
    fn scrub_tick(&mut self, r: usize, now: u64, inject_next: bool) {
        let rep = &mut self.replicas[r];
        // A down replica's storage is moot: the reboot reloads the plane
        // from the f32 masters anyway (see Replica::recover).
        if !rep.is_up(now) {
            return;
        }
        let Some(state) = rep.shield.as_mut() else {
            return;
        };
        let out = state.shield.scrub(state.cfg.scrub_budget_words);
        let hits: Vec<_> = out
            .quarantined
            .iter()
            .map(|&g| (g, state.region_cost(g)))
            .collect();
        let corrected = out.corrected.len() as u64;
        rep.stats.scrub_corrected += corrected;
        if corrected > 0 || !hits.is_empty() {
            self.tel.scrub(now, r, corrected, hits.len() as u64);
        }
        if inject_next {
            let total_bits = state.shield.total_bits();
            let flips = state.faults.window_flips(r, state.window, total_bits);
            state.window += 1;
            for &bit in &flips {
                state.shield.inject_global_bit(bit);
            }
            rep.stats.storage_flips += flips.len() as u64;
        }
        for (region, cost) in hits {
            self.on_quarantine(r, region, cost, now);
        }
    }

    /// A quarantined region's repair completes: re-quantize the pristine
    /// f32 masters and swap the plane back in, bit-exact. A repair
    /// landing while the replica is down is moot, since the reboot
    /// reloads everything.
    fn finish_repair(&mut self, r: usize, region: usize, now: u64) {
        let rep = &mut self.replicas[r];
        if !rep.is_up(now) {
            return;
        }
        let Some(repair_us) = rep.repair(region) else {
            return;
        };
        self.report.integrity_events.push(AdaptEvent {
            at_us: now,
            kind: "repair",
            replica: Some(r),
            detail: region as f64,
        });
        self.tel.repair(now, r, region, repair_us);
    }

    /// A request reaches the fleet edge: the brownout gate, then the
    /// tenant quota, then routing.
    fn admit(&mut self, freq: FleetRequest, now: u64) {
        self.tel.arrival(now, freq.req.id);
        // Brownout gate, before the quota book: a rung that sheds this
        // tier rejects at the door (no quota churn); a rung that
        // degrades it marks the job for economy service.
        let level = self
            .adapt
            .ladder
            .as_ref()
            .map_or(Brownout::Normal, |l| l.level());
        let tier = PriorityTier::of_user(freq.user);
        let mut job = Job::new(freq);
        if level.sheds(tier) {
            self.report.brownout_sheds += 1;
            self.respond(&job, FleetOutcome::ShedOverload, None, None, now);
        } else if !self.book.admit(job.freq.tenant) {
            self.respond(&job, FleetOutcome::ShedQuota, None, None, now);
        } else {
            job.economy = level.economy(tier);
            self.dispatch_or_shed(job, now, DispatchCause::Fresh);
        }
    }

    /// Run the fleet over `requests` (sorted by arrival). Consumes the
    /// fleet: one run per construction, so no state leaks between runs.
    fn run(mut self, requests: &[FleetRequest]) -> FleetReport {
        let last_arrival = requests.last().map(|r| r.req.arrival_us).unwrap_or(0);
        for fr in requests {
            self.events
                .push(fr.req.arrival_us, Ev::Arrival(Box::new(fr.clone())));
        }
        for id in 0..self.replicas.len() {
            for w in self.replicas[id].spec.crashes.windows().to_vec() {
                self.events
                    .push(w.down_at_us, Ev::Lifecycle(id, LifecycleEvent::Crash));
                if w.up_at_us < u64::MAX {
                    self.events
                        .push(w.up_at_us, Ev::Lifecycle(id, LifecycleEvent::Recover));
                }
            }
        }
        if self.cfg.snapshot_every_us > 0 {
            self.events
                .push(self.cfg.snapshot_every_us, Ev::SnapshotTick);
        }
        // No tick without a sub-policy: every popped event advances
        // `end_us`, so an idle train would still move the report.
        if self.adapt.armed() {
            self.events.push(self.adapt.every_us, Ev::AdaptTick);
        }
        // Every replica gets a scrub train, shielded or not.
        if let Some(sc) = self.cfg.shield {
            for r in 0..self.replicas.len() {
                self.events.push(sc.scrub_every_us, Ev::ScrubTick(r));
            }
        }

        while let Some((now, ev)) = self.events.pop() {
            self.report.end_us = self.report.end_us.max(now);
            match ev {
                Ev::Arrival(freq) => self.admit(*freq, now),
                Ev::Done(r, tenant) => {
                    if let Some(t) = tenant {
                        self.book.release(t);
                    }
                    self.busy[r] = self.busy[r].saturating_sub(1);
                    // At the exact crash instant the replica is already
                    // down; `kick` notices and the lifecycle event drains
                    // the queue instead.
                    self.kick(r, now);
                    // A draining replica whose last work just finished
                    // completes its scale-down.
                    let idle = self.busy[r] == 0 && self.queues[r].is_empty();
                    self.adapt.finish_drain(r, now, idle, self.tel);
                }
                Ev::Failover(job, cause) => {
                    self.dispatch_or_shed(*job, now, cause);
                }
                Ev::Lifecycle(r, LifecycleEvent::Crash) => {
                    self.replicas[r].stats.crashes += 1;
                    self.busy[r] = 0;
                    self.tel.crash(now, r);
                    let drained: Vec<Job> = self.queues[r].drain(..).collect();
                    for mut job in drained {
                        job.excluded.push(r);
                        if self.dispatch_or_shed(job, now, DispatchCause::Requeue) {
                            self.report.requeued_on_crash += 1;
                        }
                    }
                    // A crash empties a draining replica, and no Done will
                    // ever arrive for it: its scale-down completes now.
                    self.adapt.finish_drain(r, now, true, self.tel);
                }
                Ev::Lifecycle(r, LifecycleEvent::Recover) => self.rejoin(r, now),
                Ev::Scale(r) => {
                    // Cold start elapsed: the booted replica joins via
                    // the exact crash-recovery path.
                    self.rejoin(r, now);
                    self.adapt.finish_boot(r, now, self.tel);
                }
                Ev::AdaptTick => {
                    self.adapt_tick(now);
                    if now < last_arrival {
                        self.events.push(now + self.adapt.every_us, Ev::AdaptTick);
                    }
                }
                Ev::Repair(r, region) => {
                    self.finish_repair(r, region, now);
                }
                Ev::ScrubTick(r) => {
                    // The final window scrubs without injecting, so every
                    // injected fault sees at least one later pass.
                    let more = now < last_arrival;
                    self.scrub_tick(r, now, more);
                    if let (true, Some(sc)) = (more, self.cfg.shield) {
                        self.events.push(now + sc.scrub_every_us, Ev::ScrubTick(r));
                    }
                }
                Ev::SnapshotTick => {
                    for id in 0..self.replicas.len() {
                        if self.replicas[id].is_up(now) {
                            let snap = self.replicas[id].snapshot();
                            if self.store.save(id, &snap).is_ok() {
                                self.replicas[id].stats.snapshot_saves += 1;
                                self.tel.snapshot_save(now, id);
                            }
                        }
                    }
                    let next = now + self.cfg.snapshot_every_us;
                    if now < last_arrival {
                        self.events.push(next, Ev::SnapshotTick);
                    }
                }
            }
            self.drain_breaker_transitions();
        }

        // What only exists at the end: replica sections, denials, the
        // adaptive plane's totals, and sums over the replica counters.
        let mut report = std::mem::take(&mut self.report);
        report.responses.sort_by_key(|r| r.id);
        report.policy = self.cfg.policy.name().to_string();
        report.offered = requests.len() as u64;
        report.tenant_denials = self.book.denials().collect();
        let a = self.adapt;
        report.brownout_peak = a
            .ladder
            .as_ref()
            .map_or(Brownout::Normal, |l| l.peak())
            .name()
            .to_string();
        report.codel_drops = a.codel.as_ref().map_or(0, |c| c.drops());
        report.gray_ejections = a.gray.as_ref().map_or(0, |g| g.ejections());
        report.scale_ups = a.scale_ups;
        report.scale_downs = a.scale_downs;
        report.adapt_events = a.events;
        let sum = |f: fn(&ReplicaStats) -> u64| self.replicas.iter().map(|r| f(&r.stats)).sum();
        report.flagged_attempts = sum(|s| s.flagged_attempts);
        report.bits_flipped = sum(|s| s.bits_flipped);
        report.storage_flips = sum(|s| s.storage_flips);
        report.scrub_corrected = sum(|s| s.scrub_corrected);
        report.read_corrected = sum(|s| s.read_corrected);
        report.scrub_uncorrectable = sum(|s| s.scrub_uncorrectable);
        report.quarantines = sum(|s| s.quarantines);
        report.repairs = sum(|s| s.repairs);
        report.replicas = self
            .replicas
            .iter()
            .map(|r| ReplicaReport {
                id: r.id,
                format: r.spec.format.name().to_string(),
                per_block_us: r.spec.per_block_us,
                stats: r.stats,
                breaker_trips: r.breaker.borrow().trips(),
                final_breaker: r.breaker_state(),
            })
            .collect();
        report
    }
}

/// Run `requests` (sorted by arrival) through a fleet serving `model`
/// on every replica in `cfg`, and return its report.
///
/// `faults` pairs with the replica list by index; missing entries get
/// [`NoFaults`] (healthy hardware). `store` is where replicas persist
/// and recover their health snapshots. Every fleet event (arrival,
/// dispatch, attempt, outcome, breaker transition, crash, recovery,
/// snapshot, adaptive decision, scrub) is reported into `tel` — live
/// time-series, SLO burn-rate evaluation, request span trees, flight
/// recorders — which should be built for the same replica count.
pub fn run_fleet(
    model: &Model,
    cfg: &FleetConfig,
    requests: &[FleetRequest],
    faults: Vec<Box<dyn FaultSource + Send + Sync>>,
    store: Box<dyn SnapStore>,
    tel: &mut TelemetrySink,
) -> FleetReport {
    Fleet::new(model, cfg.clone(), faults, store, tel).run(requests)
}

/// Replay audit: re-execute the *final* attempt of every served-primary
/// response against a fresh copy of its replica's engine and fault
/// environment, and count responses whose replayed pass is unhealthy.
///
/// Fault draws are keyed by `(request id, attempt index)` alone, so the
/// replay reproduces exactly the weights the serving attempt saw. A
/// served-primary response whose replay trips the health gate would have
/// been a silently corrupt answer — the count must be zero, and the CI
/// smoke job asserts exactly that.
pub fn audit_unflagged_corruption(
    model: &Model,
    cfg: &FleetConfig,
    requests: &[FleetRequest],
    faults: Vec<Box<dyn FaultSource + Send + Sync>>,
    report: &FleetReport,
) -> u64 {
    // No shields: the replay judges the fault environment alone.
    let replicas = build_replicas(model, &cfg.clone().normalized(), faults);
    let by_id: std::collections::BTreeMap<u64, &FleetRequest> =
        requests.iter().map(|r| (r.req.id, r)).collect();
    let mut bad = 0u64;
    for resp in &report.responses {
        if resp.outcome != FleetOutcome::ServedPrimary || resp.attempts == 0 {
            continue;
        }
        let (Some(r), Some(req)) = (resp.replica, by_id.get(&resp.id)) else {
            continue;
        };
        let a = replicas[r]
            .engine()
            .attempt(&req.req, resp.attempts - 1, true, u64::MAX);
        if !a.completed || HealthWindow::is_unhealthy(&a.health) {
            bad += 1;
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicaSpec;
    use crate::load::{ArrivalShape, FleetLoadSpec};
    use crate::replica::MemSnapStore;
    use crate::router::RouterPolicy;
    use qt_quant::ElemFormat;
    use qt_robust::{BerFaultSource, CodeFormat, CrashSchedule};
    use qt_telemetry::TelemetryConfig;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, SeedableRng};

    /// A default-config sink for runs whose telemetry the test ignores.
    fn sink(replicas: usize) -> TelemetrySink {
        TelemetrySink::new(TelemetryConfig::default(), replicas)
    }

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        Model::new(
            TransformerConfig::mobilebert_tiny_sim(),
            TaskHead::Classify(2),
            &mut rng,
        )
    }

    fn light_load(model: &Model, n_passes_apart: u64, count: usize) -> Vec<FleetRequest> {
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        FleetLoadSpec {
            rps: 1e6 / (n_passes_apart * pass) as f64,
            duration_us: count as u64 * n_passes_apart * pass,
            shape: ArrivalShape::Constant,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab)
    }

    #[test]
    fn healthy_fleet_serves_everything_primary() {
        let model = tiny_model();
        let cfg = FleetConfig::default();
        let reqs = light_load(&model, 3, 20);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.served_primary, report.offered);
        assert_eq!(report.failovers, 0);
        assert_eq!(report.hedges, 0);
        // Every dispatch in the audit log respected the breaker gate.
        for d in &report.dispatches {
            assert_ne!(d.breaker, BreakerState::Open);
        }
    }

    #[test]
    fn crash_mid_run_fails_over_and_replica_rejoins() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let mut cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
            snapshot_every_us: 5 * pass,
            ..FleetConfig::default()
        };
        // Replica 1 dies mid-run, long enough for in-flight + queued work
        // to fail over, and comes back while load is still arriving.
        cfg.replicas[1] = ReplicaSpec::new(ElemFormat::P8E1)
            .with_crashes(CrashSchedule::single(10 * pass + pass / 2, 20 * pass));
        // Dense enough that both replicas hold work at the crash instant.
        let reqs = FleetLoadSpec {
            rps: 2.2 * 1e6 / pass as f64,
            duration_us: 120 * pass,
            shape: ArrivalShape::Constant,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert!(report.crash_failovers >= 1, "in-flight work failed over");
        let r1 = &report.replicas[1];
        assert_eq!(r1.stats.crashes, 1);
        assert_eq!(r1.stats.recoveries, 1);
        assert!(
            r1.stats.snapshot_saves > 0,
            "snapshots written before death"
        );
        assert_eq!(r1.stats.snapshot_resumes, 1, "recovered from its snapshot");
        assert!(
            r1.stats.served_after_recovery > 0,
            "replica re-earned traffic after rejoining: {r1:?}"
        );
        // The failed-over requests never went back to the dead replica.
        for d in &report.dispatches {
            if d.cause.is_failover() || d.cause == DispatchCause::Requeue {
                assert!(!d.excluded.contains(&d.replica));
            }
        }
    }

    #[test]
    fn corrupting_replica_fails_over_to_healthy_one() {
        let model = tiny_model();
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
            ..FleetConfig::default()
        };
        // Replica 0: essentially every primary read flagged. Replica 1:
        // healthy.
        let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
        let faults: Vec<Box<dyn FaultSource + Send + Sync>> = vec![
            Box::new(BerFaultSource::new(5, codec, 0.05)),
            Box::new(NoFaults),
        ];
        let reqs = light_load(&model, 4, 16);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            faults,
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert!(report.failovers >= 1, "corrupt replica pushed work away");
        assert_eq!(
            report.served_primary + report.served_degraded,
            report.offered,
            "everything still served: {report:?}"
        );
        // A served response with flagged attempts must have ended on a
        // clean path — the flagged output itself never leaves the fleet.
        for r in &report.responses {
            if r.outcome.is_served() {
                assert!(r.label.is_some());
            }
        }
    }

    #[test]
    fn tenant_quota_sheds_only_the_bursting_tenant() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1)],
            tenants: 2,
            tenant_quota: 2,
            ..FleetConfig::default()
        };
        // Hand-built burst: tenant 0 fires 6 requests at t=0, tenant 1
        // sends one comfortably later.
        let mut reqs: Vec<FleetRequest> = (0..6)
            .map(|i| FleetRequest {
                req: Request::new(i, vec![1, 2, 3, 4]),
                user: 2 * i,
                tenant: 0,
            })
            .collect();
        reqs.push(FleetRequest {
            req: Request::new(6, vec![1, 2, 3, 4]).with_arrival(40 * pass),
            user: 1,
            tenant: 1,
        });
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.shed_quota, 4, "6 offered, 2 outstanding allowed");
        assert_eq!(report.tenant_denials, vec![(0, 4)]);
        let t1: Vec<_> = report.responses.iter().filter(|r| r.tenant == 1).collect();
        assert_eq!(t1.len(), 1);
        assert!(t1[0].outcome.is_served(), "tenant 1 unaffected");
    }

    #[test]
    fn overload_climbs_ladder_boots_reserve_and_protects_paid() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 3],
            adapt_every_us: 2 * pass,
            brownout: Some(qt_adapt::BrownoutConfig::default()),
            autoscale: Some(qt_adapt::AutoscaleConfig {
                min_replicas: 1,
                max_replicas: 3,
                up_consecutive: 1,
                cold_start_us: pass,
                ..qt_adapt::AutoscaleConfig::default()
            }),
            ..FleetConfig::default()
        };
        // 4× the single active replica's capacity, sustained.
        let reqs = FleetLoadSpec {
            rps: 4.0 * 1e6 / pass as f64,
            duration_us: 60 * pass,
            shape: ArrivalShape::Constant,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert!(report.brownout_sheds > 0, "ladder must shed: {report:?}");
        assert_ne!(report.brownout_peak, "normal");
        assert!(report.scale_ups >= 1, "pressure must boot the reserve");
        assert!(
            report.economy_served > 0,
            "degrade rungs serve on the economy path: {report:?}"
        );
        // The ladder walks one rung at a time, from Normal.
        let mut sev = 0i64;
        for e in report
            .adapt_events
            .iter()
            .filter(|e| e.kind.starts_with("brownout"))
        {
            let d = e.detail as i64;
            assert_eq!(
                (d - sev).abs(),
                1,
                "single-step walk: {:?}",
                report.adapt_events
            );
            sev = d;
        }
        // Brownout never rejects paid traffic (users 0,1 mod 4).
        for r in &report.responses {
            if r.outcome == FleetOutcome::ShedOverload {
                assert!(r.user % 4 >= 2, "paid user {} overload-shed", r.user);
            }
        }
        // Booted replicas joined through the recovery path: forced Open,
        // then re-earned traffic via half-open probes.
        for e in report
            .adapt_events
            .iter()
            .filter(|e| e.kind == "scale_up_done")
        {
            let r = e.replica.unwrap();
            assert!(report.replicas[r].stats.recoveries >= 1);
        }
    }

    #[test]
    fn codel_sheds_standing_queue_from_the_head() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1)],
            adapt_every_us: pass,
            codel: Some(qt_adapt::CodelConfig {
                target_us: pass,
                interval_us: 2 * pass,
            }),
            ..FleetConfig::default()
        };
        let reqs = FleetLoadSpec {
            rps: 3.0 * 1e6 / pass as f64,
            duration_us: 40 * pass,
            shape: ArrivalShape::Constant,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert!(
            report.codel_drops > 0,
            "standing queue must shed: {report:?}"
        );
        // Without a brownout ladder every overload shed is a CoDel drop.
        assert_eq!(report.shed_overload, report.codel_drops);
        // Dropped requests were picked up, never served, zero attempts.
        for r in &report.responses {
            if r.outcome == FleetOutcome::ShedOverload {
                assert_eq!(r.attempts, 0);
            }
        }
    }

    #[test]
    fn autoscale_boots_on_pressure_and_drains_when_calm() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
            adapt_every_us: 2 * pass,
            autoscale: Some(qt_adapt::AutoscaleConfig {
                min_replicas: 1,
                max_replicas: 2,
                up_consecutive: 1,
                down_consecutive: 2,
                cold_start_us: pass,
                ..qt_adapt::AutoscaleConfig::default()
            }),
            ..FleetConfig::default()
        };
        // A hot burst up front, then a long sparse tail: pressure boots
        // the reserve, calm drains it again.
        let reqs = FleetLoadSpec {
            rps: 0.4 * 1e6 / pass as f64,
            duration_us: 100 * pass,
            shape: ArrivalShape::Bursty {
                burst_len_us: 15 * pass,
                burst_mult: 10.0,
            },
            period_us: 200 * pass,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let report = run_fleet(
            &model,
            &cfg,
            &reqs,
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut sink(cfg.replicas.len()),
        );
        assert!(report.reconciles(), "{report:?}");
        assert!(
            report.scale_ups >= 1,
            "burst must boot: {:?}",
            report.adapt_events
        );
        assert!(
            report.scale_downs >= 1,
            "calm must drain: {:?}",
            report.adapt_events
        );
        let kinds: Vec<&str> = report.adapt_events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"scale_up_done"));
        assert!(kinds.contains(&"scale_down_done"));
        // No dispatch ever lands on the drained replica while it is out
        // of rotation (between scale_down_done and any later boot).
        let down_at = report
            .adapt_events
            .iter()
            .find(|e| e.kind == "scale_down_done")
            .unwrap()
            .at_us;
        let rebooted_at = report
            .adapt_events
            .iter()
            .find(|e| e.kind == "scale_up_done" && e.at_us > down_at)
            .map(|e| e.at_us)
            .unwrap_or(u64::MAX);
        let drained = report
            .adapt_events
            .iter()
            .find(|e| e.kind == "scale_down_done")
            .unwrap()
            .replica
            .unwrap();
        for d in &report.dispatches {
            if d.replica == drained {
                assert!(
                    d.at_us <= down_at || d.at_us >= rebooted_at,
                    "dispatch to drained replica at {}",
                    d.at_us
                );
            }
        }
    }

    #[test]
    fn draining_replica_that_crashes_finishes_its_drain() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = |crash_at: Option<u64>| {
            let mut cfg = FleetConfig {
                replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
                adapt_every_us: 2 * pass,
                autoscale: Some(qt_adapt::AutoscaleConfig {
                    min_replicas: 1,
                    max_replicas: 2,
                    up_consecutive: 1,
                    down_consecutive: 2,
                    cold_start_us: pass,
                    ..qt_adapt::AutoscaleConfig::default()
                }),
                ..FleetConfig::default()
            };
            if let Some(at) = crash_at {
                cfg.replicas[1] = ReplicaSpec::new(ElemFormat::P8E1)
                    .with_crashes(CrashSchedule::single(at, 3 * pass));
            }
            cfg
        };
        // Two bursts 200 passes apart: the first boots replica 1, the
        // calm drains it, the second must boot it again.
        let reqs = FleetLoadSpec {
            rps: 0.8 * 1e6 / pass as f64,
            duration_us: 260 * pass,
            shape: ArrivalShape::Bursty {
                burst_len_us: 15 * pass,
                burst_mult: 2.5,
            },
            period_us: 200 * pass,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let run = |cfg: &FleetConfig| {
            let store = Box::new(MemSnapStore::new());
            run_fleet(&model, cfg, &reqs, Vec::new(), store, &mut sink(2))
        };
        let first = |r: &FleetReport, kind: &str| {
            r.adapt_events
                .iter()
                .find(|e| e.kind == kind)
                .map(|e| (e.at_us, e.replica))
        };
        let calm = run(&cfg(None));
        let (start, _) = first(&calm, "scale_down_start").unwrap();
        let (done, _) = first(&calm, "scale_down_done").unwrap();
        assert!(
            done > start,
            "replica 1 still had work when its drain began"
        );
        assert_eq!(calm.scale_ups, 2, "{:?}", calm.adapt_events);
        // Crash replica 1 mid-drain: no Done will ever arrive for it.
        let crash_at = start + (done - start) / 2;
        let report = run(&cfg(Some(crash_at)));
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(first(&report, "scale_down_start"), Some((start, Some(1))));
        assert_eq!(first(&report, "scale_down_done"), Some((crash_at, Some(1))));
        assert_eq!(report.scale_ups, 2, "{:?}", report.adapt_events);
        assert!(
            report
                .dispatches
                .iter()
                .any(|d| d.replica == 1 && d.at_us > crash_at),
            "replica 1 takes traffic again after its second boot"
        );
    }

    #[test]
    fn adapt_plane_off_or_empty_leaves_the_report_alone() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        // 4× one replica's capacity: an armed ladder, CoDel or
        // autoscaler would each change this run.
        let reqs = FleetLoadSpec {
            rps: 4.0 * 1e6 / pass as f64,
            duration_us: 30 * pass,
            shape: ArrivalShape::Constant,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let base = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 3],
            ..FleetConfig::default()
        };
        let run = |cfg: &FleetConfig| {
            let store = Box::new(MemSnapStore::new());
            run_fleet(&model, cfg, &reqs, Vec::new(), store, &mut sink(3))
        };
        let plain = run(&base);
        // Period 0 switches the whole plane off, sub-policies included.
        let off = FleetConfig {
            adapt_every_us: 0,
            codel: Some(qt_adapt::CodelConfig::default()),
            brownout: Some(qt_adapt::BrownoutConfig::default()),
            autoscale: Some(qt_adapt::AutoscaleConfig {
                min_replicas: 1,
                max_replicas: 3,
                ..qt_adapt::AutoscaleConfig::default()
            }),
            ..base.clone()
        };
        assert_eq!(run(&off), plain);
        assert_ne!(
            run(&FleetConfig {
                adapt_every_us: 2 * pass,
                ..off
            }),
            plain,
            "the same sub-policies act once the plane ticks"
        );
        // A period with no sub-policy schedules no tick: one landing
        // after the last event would move `end_us`.
        let empty = FleetConfig {
            adapt_every_us: plain.end_us + 1,
            ..base
        };
        assert_eq!(run(&empty), plain);
    }

    #[test]
    fn observed_run_agrees_with_report() {
        use qt_telemetry::{Scope, SloSpec};
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let mut cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
            snapshot_every_us: 5 * pass,
            ..FleetConfig::default()
        };
        cfg.replicas[1] = ReplicaSpec::new(ElemFormat::P8E1)
            .with_crashes(CrashSchedule::single(10 * pass + pass / 2, 20 * pass));
        let reqs = FleetLoadSpec {
            rps: 2.2 * 1e6 / pass as f64,
            duration_us: 80 * pass,
            shape: ArrivalShape::Constant,
            deadline_us: 0,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        // Two sinks that differ in every knob that could plausibly leak
        // back into the run: window width and retention, request
        // tracing, flight-ring size, objectives and seed.
        let mut tel = TelemetrySink::new(
            TelemetryConfig {
                interval_us: pass,
                seed: cfg.retry_seed,
                ..TelemetryConfig::default()
            },
            cfg.replicas.len(),
        );
        let mut other = TelemetrySink::new(
            TelemetryConfig {
                interval_us: 7 * pass + 3,
                retain_windows: 2,
                slos: vec![SloSpec::latency_p99(0.5, pass)],
                flight_capacity: 1,
                trace_requests: false,
                seed: 99,
                ..TelemetryConfig::default()
            },
            cfg.replicas.len(),
        );
        let run = |tel: &mut TelemetrySink| {
            let store = Box::new(MemSnapStore::new());
            run_fleet(&model, &cfg, &reqs, Vec::new(), store, tel)
        };
        let observed = run(&mut tel);
        // The telemetry config changes nothing about the run itself.
        assert_eq!(observed, run(&mut other));
        let sink = &tel;
        // Counters reconcile with the report.
        assert_eq!(
            sink.series_get(Scope::Fleet, "arrivals")
                .unwrap()
                .counter_total(),
            observed.offered
        );
        assert_eq!(
            sink.series_get(Scope::Fleet, "responses")
                .unwrap()
                .counter_total(),
            observed.offered
        );
        assert_eq!(
            sink.series_get(Scope::Fleet, "served")
                .unwrap()
                .counter_total(),
            observed.served_primary + observed.served_degraded
        );
        assert_eq!(
            sink.series_get(Scope::Fleet, "crashes")
                .unwrap()
                .counter_total(),
            1
        );
        // The crash froze replica 1's flight ring.
        assert!(sink
            .dumps()
            .iter()
            .any(|d| d.replica == 1 && d.reason == "crash"));
        // Every request has a closed, structurally complete span tree,
        // and attempt spans reconcile with per-response attempt counts.
        assert_eq!(sink.book().len(), observed.offered as usize);
        assert_eq!(sink.book().complete_count(), sink.book().len());
        for resp in &observed.responses {
            let t = sink.book().get(resp.id).unwrap();
            assert_eq!(
                t.spans_named("attempt").count() as u32,
                resp.attempts,
                "req {}: {t:?}",
                resp.id
            );
            assert_eq!(t.outcome.as_deref(), Some(resp.outcome.name()));
        }
    }

    #[test]
    fn shielded_fleet_scrubs_storage_rot_without_losing_service() {
        use crate::config::ShieldConfig;
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = FleetConfig {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
            shield: Some(ShieldConfig {
                scrub_every_us: 2 * pass,
                scrub_budget_words: usize::MAX,
                storage_ber: 2e-5,
                storage_seed: 77,
                repair_us_per_word: 1,
            }),
            ..FleetConfig::default()
        };
        let reqs = light_load(&model, 2, 30);
        let mk = || {
            run_fleet(
                &model,
                &cfg,
                &reqs,
                Vec::new(),
                Box::new(MemSnapStore::new()),
                &mut sink(cfg.replicas.len()),
            )
        };
        let a = mk();
        assert!(a.reconciles(), "{a:?}");
        assert!(a.storage_flips > 0, "fault model must land rot");
        assert!(a.scrub_corrected > 0, "scrubber must correct in place");
        // Every uncorrectable detection quarantined exactly one region.
        assert_eq!(a.quarantines, a.scrub_uncorrectable);
        // Storage rot never cost a response: everything still served.
        assert_eq!(a.served_primary + a.served_degraded, a.offered);
        // Deterministic replay, down to the JSON bytes.
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.to_json()).unwrap(),
            serde_json::to_string(&b.to_json()).unwrap()
        );
    }

    #[test]
    fn double_bit_rot_quarantines_degrades_then_repairs() {
        use crate::config::ShieldConfig;
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let cfg = FleetConfig {
            // One replica, no failover target: quarantine must force the
            // local degraded path, not a re-route.
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1)],
            shield: Some(ShieldConfig {
                scrub_every_us: 4 * pass,
                scrub_budget_words: usize::MAX,
                storage_ber: 0.0,
                storage_seed: 1,
                repair_us_per_word: 1,
            }),
            ..FleetConfig::default()
        };
        let reqs = light_load(&model, 3, 12);
        let mut tel = sink(1);
        let mut fleet = Fleet::new(
            &model,
            cfg.clone(),
            Vec::new(),
            Box::new(MemSnapStore::new()),
            &mut tel,
        );
        // Scripted double-bit rot in region 0 before any service: the
        // first read-path verification must quarantine it.
        let st = fleet.replicas[0].shield.as_mut().unwrap();
        st.shield.inject(0, 1, 7);
        st.shield.inject(0, 1, 52);
        let report = fleet.run(&reqs);
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.quarantines, 1, "{report:?}");
        assert_eq!(report.repairs, 1, "repair restored the region");
        assert!(
            report.served_degraded >= 1,
            "quarantine forced degraded service: {report:?}"
        );
        assert_eq!(
            report.served_primary + report.served_degraded,
            report.offered
        );
        // Audit trail: the quarantine precedes its repair, same region.
        let kinds: Vec<&str> = report.integrity_events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["quarantine", "repair"]);
        assert_eq!(report.integrity_events[0].detail, 0.0);
        assert_eq!(report.integrity_events[1].detail, 0.0);
        assert!(report.integrity_events[0].at_us <= report.integrity_events[1].at_us);
        // After the repair lands, later responses are primary again.
        let last = report.responses.iter().max_by_key(|r| r.finish_us).unwrap();
        assert_eq!(last.outcome, FleetOutcome::ServedPrimary, "{report:?}");
    }

    #[test]
    fn fleet_run_replays_byte_identically() {
        let model = tiny_model();
        let pass = model.blocks_per_forward() * ReplicaSpec::BASE_BLOCK_US;
        let mut cfg = FleetConfig {
            replicas: vec![
                ReplicaSpec::new(ElemFormat::P8E1),
                ReplicaSpec::new(ElemFormat::E4M3),
                ReplicaSpec::new(ElemFormat::Bf16),
            ],
            policy: RouterPolicy::HealthAware,
            tenant_quota: 8,
            snapshot_every_us: 7 * pass,
            ..FleetConfig::default()
        };
        cfg.replicas[0] = cfg.replicas[0]
            .clone()
            .with_crashes(CrashSchedule::single(9 * pass, 11 * pass));
        let reqs = FleetLoadSpec {
            rps: 2.0 * 1e6 / pass as f64,
            duration_us: 60 * pass,
            shape: ArrivalShape::Bursty {
                burst_len_us: 5 * pass,
                burst_mult: 3.0,
            },
            period_us: 20 * pass,
            deadline_us: 8 * pass,
            ..FleetLoadSpec::default()
        }
        .requests(model.cfg.vocab);
        let mk = || {
            let codec = CodeFormat::new(ElemFormat::P8E1).unwrap();
            let faults: Vec<Box<dyn FaultSource + Send + Sync>> =
                vec![Box::new(BerFaultSource::new(9, codec, 2e-3))];
            run_fleet(
                &model,
                &cfg,
                &reqs,
                faults,
                Box::new(MemSnapStore::new()),
                &mut sink(cfg.replicas.len()),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.to_json()).unwrap(),
            serde_json::to_string(&b.to_json()).unwrap()
        );
        assert!(a.reconciles(), "{a:?}");
    }
}
