//! The telemetry sink: one object every producer reports into.
//!
//! A [`TelemetrySink`] owns the windowed series, the SLO engine, the
//! per-replica flight recorders, and the request trace book, and
//! exposes one named method per event the serving stack produces
//! (arrival, dispatch, outcome, breaker transition, crash, …). Each
//! method fans the event out to every subsystem that cares: an outcome
//! bumps fleet and replica counters, feeds the latency histogram,
//! updates every SLO, lands in the replica's flight ring, and closes
//! the request's trace.
//!
//! A fleet run always reports into one sink, borrowed mutably for the
//! run. The sink only listens: nothing it records feeds back into the
//! run. All timestamps are virtual µs; the sink records no wall-clock
//! data, so everything it exports is byte-identical at any
//! `QT_THREADS`.

use crate::flight::{FlightDump, FlightRecorder};
use crate::reqtrace::{TraceBook, TraceId};
use crate::series::{Scope, SeriesSet, WindowedSeries};
use crate::slo::{AlertEvent, SloEngine, SloSpec};
use std::path::PathBuf;

/// How a sink is put together.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window width for every series and SLO bucket, virtual µs.
    pub interval_us: u64,
    /// Windows retained per series (the ring bound).
    pub retain_windows: usize,
    /// Objectives to track (empty = no SLO accounting).
    pub slos: Vec<SloSpec>,
    /// Flight-recorder ring capacity per replica.
    pub flight_capacity: usize,
    /// Where to write flight dumps; `None` keeps them in memory only.
    pub flight_dir: Option<PathBuf>,
    /// Mint a [`TraceId`] and build a span tree per request.
    pub trace_requests: bool,
    /// Seed for trace-id minting.
    pub seed: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            interval_us: 100_000,
            retain_windows: 512,
            slos: vec![SloSpec::availability(0.999)],
            flight_capacity: 256,
            flight_dir: None,
            trace_requests: true,
            seed: 0,
        }
    }
}

/// The telemetry plane of one run.
#[derive(Debug)]
pub struct TelemetrySink {
    cfg: TelemetryConfig,
    series: SeriesSet,
    slo: SloEngine,
    flight: Vec<FlightRecorder>,
    dumps: Vec<FlightDump>,
    book: TraceBook,
    latest_us: u64,
}

impl TelemetrySink {
    /// Sink for `replicas` replicas under `cfg`.
    pub fn new(cfg: TelemetryConfig, replicas: usize) -> Self {
        let slo = SloEngine::new(cfg.slos.clone(), cfg.interval_us);
        let flight = (0..replicas.max(1))
            .map(|_| FlightRecorder::new(cfg.flight_capacity))
            .collect();
        let book = TraceBook::new(cfg.seed);
        Self {
            cfg,
            series: SeriesSet::new(),
            slo,
            flight,
            dumps: Vec::new(),
            book,
            latest_us: 0,
        }
    }

    /// The config the sink was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Latest event timestamp seen, virtual µs.
    pub fn latest_us(&self) -> u64 {
        self.latest_us
    }

    fn touch(&mut self, at_us: u64) {
        self.latest_us = self.latest_us.max(at_us);
    }

    fn counter(&mut self, scope: Scope, name: &str, at_us: u64, delta: u64) {
        self.series.counter_add(
            scope,
            name,
            at_us,
            delta,
            self.cfg.interval_us,
            self.cfg.retain_windows,
        );
    }

    fn gauge(&mut self, scope: Scope, name: &str, at_us: u64, value: f64) {
        self.series.gauge_set(
            scope,
            name,
            at_us,
            value,
            self.cfg.interval_us,
            self.cfg.retain_windows,
        );
    }

    fn hist(&mut self, scope: Scope, name: &str, at_us: u64, x: f32) {
        self.series.observe(
            scope,
            name,
            at_us,
            x,
            self.cfg.interval_us,
            self.cfg.retain_windows,
        );
    }

    fn black_box(&mut self, replica: usize, at_us: u64, kind: &str, detail: Vec<(String, f64)>) {
        if let Some(r) = self.flight.get_mut(replica) {
            r.record(at_us, kind, detail);
        }
    }

    // ---- event surface -------------------------------------------------

    /// A request was admitted at `at_us`; opens its trace when request
    /// tracing is on. Returns the minted trace id, if any.
    pub fn arrival(&mut self, at_us: u64, req_id: u64) -> Option<TraceId> {
        self.touch(at_us);
        self.counter(Scope::Fleet, "arrivals", at_us, 1);
        if self.cfg.trace_requests {
            Some(self.book.begin(req_id, at_us))
        } else {
            None
        }
    }

    /// A request was dispatched to `replica` (`cause` is the dispatch
    /// cause name). Adds a point-span to the request trace.
    pub fn dispatch(&mut self, at_us: u64, req_id: u64, replica: usize, cause: &str) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "dispatch", at_us, 1);
        self.counter(Scope::Replica(replica), "dispatch", at_us, 1);
        self.counter(
            Scope::Replica(replica),
            &format!("dispatch.{cause}"),
            at_us,
            1,
        );
        self.black_box(
            replica,
            at_us,
            &format!("dispatch.{cause}"),
            vec![("req".to_string(), req_id as f64)],
        );
        if self.cfg.trace_requests {
            self.book.span(
                req_id,
                None,
                "dispatch",
                Some(replica as u32),
                at_us,
                at_us,
                vec![],
            );
        }
    }

    /// One service attempt on `replica` spanning
    /// `[start_us, end_us]`; `completed` is false for attempts cut short
    /// by a crash or a lost hedge.
    pub fn attempt(
        &mut self,
        req_id: u64,
        replica: usize,
        start_us: u64,
        end_us: u64,
        flagged: bool,
        completed: bool,
    ) {
        self.touch(end_us.max(start_us));
        if flagged {
            self.counter(Scope::Fleet, "flagged_attempts", start_us, 1);
            self.counter(Scope::Replica(replica), "flagged_attempts", start_us, 1);
        }
        self.black_box(
            replica,
            start_us,
            "attempt",
            vec![
                ("req".to_string(), req_id as f64),
                ("flagged".to_string(), flagged as u64 as f64),
                ("completed".to_string(), completed as u64 as f64),
            ],
        );
        if self.cfg.trace_requests {
            self.book.span(
                req_id,
                None,
                "attempt",
                Some(replica as u32),
                start_us,
                end_us,
                vec![
                    ("flagged".to_string(), flagged as u64 as f64),
                    ("completed".to_string(), completed as u64 as f64),
                ],
            );
        }
    }

    /// A request reached its terminal outcome. `replica` is the serving
    /// replica (None for sheds that never dispatched), `outcome` its
    /// stable name, `served` whether a real answer went out, `shed`
    /// whether it was load-shed, `latency_us` the admission→finish
    /// latency. Feeds counters, the latency histogram, every SLO, the
    /// flight ring, and closes the request trace.
    #[allow(clippy::too_many_arguments)]
    pub fn outcome(
        &mut self,
        at_us: u64,
        req_id: u64,
        replica: Option<usize>,
        outcome: &str,
        served: bool,
        shed: bool,
        latency_us: u64,
    ) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "responses", at_us, 1);
        self.counter(Scope::Fleet, &format!("outcome.{outcome}"), at_us, 1);
        if served {
            self.counter(Scope::Fleet, "served", at_us, 1);
            self.hist(Scope::Fleet, "latency_us", at_us, latency_us as f32);
        } else if shed {
            self.counter(Scope::Fleet, "shed", at_us, 1);
        } else {
            self.counter(Scope::Fleet, "failed", at_us, 1);
        }
        if let Some(r) = replica {
            let scope = Scope::Replica(r);
            self.counter(scope, &format!("outcome.{outcome}"), at_us, 1);
            if served {
                self.counter(scope, "served", at_us, 1);
                self.hist(scope, "latency_us", at_us, latency_us as f32);
            }
            self.black_box(
                r,
                at_us,
                &format!("outcome.{outcome}"),
                vec![
                    ("req".to_string(), req_id as f64),
                    ("latency_us".to_string(), latency_us as f64),
                ],
            );
        }
        self.slo.record(at_us, served, latency_us);
        if self.cfg.trace_requests {
            self.book.end(req_id, at_us, outcome);
        }
    }

    /// A replica's queue depth changed.
    pub fn queue_depth(&mut self, at_us: u64, replica: usize, depth: usize) {
        self.touch(at_us);
        self.gauge(Scope::Replica(replica), "queue_depth", at_us, depth as f64);
    }

    /// Time a request spent queued before pickup.
    pub fn queue_wait(&mut self, at_us: u64, replica: usize, wait_us: u64) {
        self.touch(at_us);
        self.hist(Scope::Fleet, "queue_wait_us", at_us, wait_us as f32);
        self.hist(
            Scope::Replica(replica),
            "queue_wait_us",
            at_us,
            wait_us as f32,
        );
    }

    /// A replica's circuit breaker transitioned `from` → `to`
    /// (`to_code` is the state's numeric code, `unhealthy_rate` the
    /// window rate that drove it). A transition *into* Open freezes the
    /// replica's flight ring.
    #[allow(clippy::too_many_arguments)]
    pub fn breaker(
        &mut self,
        at_us: u64,
        replica: usize,
        from: &str,
        to: &str,
        to_code: f64,
        unhealthy_rate: f64,
    ) {
        self.touch(at_us);
        self.gauge(Scope::Replica(replica), "breaker_state", at_us, to_code);
        self.counter(Scope::Replica(replica), &format!("breaker.{to}"), at_us, 1);
        self.black_box(
            replica,
            at_us,
            &format!("breaker.{from}->{to}"),
            vec![("unhealthy_rate".to_string(), unhealthy_rate)],
        );
        if to == "open" {
            self.take_dump(replica, at_us, "breaker_open");
        }
    }

    /// A replica crashed; freezes its flight ring.
    pub fn crash(&mut self, at_us: u64, replica: usize) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "crashes", at_us, 1);
        self.counter(Scope::Replica(replica), "crashes", at_us, 1);
        self.black_box(replica, at_us, "crash", vec![]);
        self.take_dump(replica, at_us, "crash");
    }

    /// A replica recovered; `corrupt` marks a snapshot that failed its
    /// CRC on load.
    pub fn recover(&mut self, at_us: u64, replica: usize, corrupt: bool) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "recoveries", at_us, 1);
        self.counter(Scope::Replica(replica), "recoveries", at_us, 1);
        if corrupt {
            self.counter(Scope::Fleet, "snapshot_corrupt", at_us, 1);
            self.counter(Scope::Replica(replica), "snapshot_corrupt", at_us, 1);
        }
        self.black_box(
            replica,
            at_us,
            "recover",
            vec![("corrupt".to_string(), corrupt as u64 as f64)],
        );
    }

    /// A replica saved a snapshot.
    pub fn snapshot_save(&mut self, at_us: u64, replica: usize) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "snapshot_saves", at_us, 1);
        self.counter(Scope::Replica(replica), "snapshot_saves", at_us, 1);
        self.black_box(replica, at_us, "snapshot_save", vec![]);
    }

    /// A request failed over off `replica`.
    pub fn failover(&mut self, at_us: u64, req_id: u64, replica: usize, cause: &str) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "failovers", at_us, 1);
        self.counter(Scope::Replica(replica), "failovers", at_us, 1);
        self.black_box(
            replica,
            at_us,
            &format!("failover.{cause}"),
            vec![("req".to_string(), req_id as f64)],
        );
        if self.cfg.trace_requests {
            self.book.span(
                req_id,
                None,
                &format!("failover.{cause}"),
                Some(replica as u32),
                at_us,
                at_us,
                vec![],
            );
        }
    }

    /// A hedged duplicate of `req_id` was launched on `replica`.
    pub fn hedge(&mut self, at_us: u64, req_id: u64, replica: usize) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "hedges", at_us, 1);
        self.counter(Scope::Replica(replica), "hedges", at_us, 1);
        self.black_box(
            replica,
            at_us,
            "hedge",
            vec![("req".to_string(), req_id as f64)],
        );
        if self.cfg.trace_requests {
            self.book.span(
                req_id,
                None,
                "hedge",
                Some(replica as u32),
                at_us,
                at_us,
                vec![],
            );
        }
    }

    /// The brownout ladder moved `from` → `to` (`severity` is the
    /// destination rung's 0-based index).
    pub fn brownout(&mut self, at_us: u64, from: &str, to: &str, severity: u8) {
        self.touch(at_us);
        self.gauge(Scope::Fleet, "adapt.brownout_level", at_us, severity as f64);
        self.counter(Scope::Fleet, "adapt.brownout_transitions", at_us, 1);
        self.counter(
            Scope::Fleet,
            &format!("adapt.brownout.{from}->{to}"),
            at_us,
            1,
        );
    }

    /// The gray detector ejected `replica` (its windowed p99 ran
    /// `ratio`× the fleet median). The forced breaker-open that follows
    /// freezes the flight ring via [`TelemetrySink::breaker`]; here we
    /// only record *why*.
    pub fn gray_eject(&mut self, at_us: u64, replica: usize, ratio: f64) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "adapt.gray_ejections", at_us, 1);
        self.counter(Scope::Replica(replica), "adapt.gray_ejections", at_us, 1);
        self.black_box(
            replica,
            at_us,
            "gray_eject",
            vec![("ratio".to_string(), ratio)],
        );
    }

    /// An ejected replica posted enough healthy windows to rejoin.
    pub fn gray_rejoin(&mut self, at_us: u64, replica: usize) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "adapt.gray_rejoins", at_us, 1);
        self.counter(Scope::Replica(replica), "adapt.gray_rejoins", at_us, 1);
        self.black_box(replica, at_us, "gray_rejoin", vec![]);
    }

    /// An autoscale lifecycle edge on `replica` (`kind` is one of
    /// `scale_up_start`, `scale_up_done`, `scale_down_start`,
    /// `scale_down_done`; `active` the routable replica count after it).
    pub fn scale(&mut self, at_us: u64, replica: usize, kind: &str, active: usize) {
        self.touch(at_us);
        self.counter(Scope::Fleet, &format!("adapt.{kind}"), at_us, 1);
        self.gauge(Scope::Fleet, "adapt.active_replicas", at_us, active as f64);
        self.black_box(
            replica,
            at_us,
            kind,
            vec![("active".to_string(), active as f64)],
        );
    }

    /// A scrub pass finished on `replica`: `corrected` single-bit
    /// errors fixed in place, `uncorrectable` double-bit detections.
    /// Quiet passes (both zero) are not recorded — a healthy scrubber
    /// is silent in the telemetry plane.
    pub fn scrub(&mut self, at_us: u64, replica: usize, corrected: u64, uncorrectable: u64) {
        if corrected == 0 && uncorrectable == 0 {
            return;
        }
        self.touch(at_us);
        if corrected > 0 {
            self.counter(Scope::Fleet, "scrub.corrected", at_us, corrected);
            self.counter(Scope::Replica(replica), "scrub.corrected", at_us, corrected);
        }
        if uncorrectable > 0 {
            self.counter(Scope::Fleet, "scrub.uncorrectable", at_us, uncorrectable);
            self.counter(
                Scope::Replica(replica),
                "scrub.uncorrectable",
                at_us,
                uncorrectable,
            );
        }
        self.black_box(
            replica,
            at_us,
            "scrub",
            vec![
                ("corrected".to_string(), corrected as f64),
                ("uncorrectable".to_string(), uncorrectable as f64),
            ],
        );
    }

    /// The request read path corrected storage faults transiently while
    /// serving (counted separately from scrubber corrections: these are
    /// faults the scrubber hadn't reached yet).
    pub fn read_corrected(&mut self, at_us: u64, replica: usize, corrected: u64) {
        if corrected == 0 {
            return;
        }
        self.touch(at_us);
        self.counter(Scope::Fleet, "scrub.read_corrected", at_us, corrected);
        self.counter(
            Scope::Replica(replica),
            "scrub.read_corrected",
            at_us,
            corrected,
        );
    }

    /// A double-bit detection quarantined region `region` on `replica`;
    /// primary serving routes around it until repair completes.
    pub fn quarantine(&mut self, at_us: u64, replica: usize, region: usize) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "scrub.quarantines", at_us, 1);
        self.counter(Scope::Replica(replica), "scrub.quarantines", at_us, 1);
        self.black_box(
            replica,
            at_us,
            "quarantine",
            vec![("region".to_string(), region as f64)],
        );
        self.take_dump(replica, at_us, "quarantine");
    }

    /// A quarantined region was repaired from pristine master weights
    /// after `latency_us` of degraded service.
    pub fn repair(&mut self, at_us: u64, replica: usize, region: usize, latency_us: u64) {
        self.touch(at_us);
        self.counter(Scope::Fleet, "scrub.repairs", at_us, 1);
        self.counter(Scope::Replica(replica), "scrub.repairs", at_us, 1);
        self.hist(Scope::Fleet, "scrub.repair_us", at_us, latency_us as f32);
        self.hist(
            Scope::Replica(replica),
            "scrub.repair_us",
            at_us,
            latency_us as f32,
        );
        self.black_box(
            replica,
            at_us,
            "repair",
            vec![
                ("region".to_string(), region as f64),
                ("latency_us".to_string(), latency_us as f64),
            ],
        );
    }

    // ---- flight dumps --------------------------------------------------

    /// Freeze `replica`'s flight ring now, writing the dump atomically
    /// when a `flight_dir` is configured (write errors are reported to
    /// stderr, never fatal — telemetry must not kill the fleet).
    pub fn take_dump(&mut self, replica: usize, at_us: u64, reason: &str) {
        let Some(rec) = self.flight.get(replica) else {
            return;
        };
        let mut dump = rec.dump(replica, at_us, reason);
        if let Some(dir) = &self.cfg.flight_dir {
            let name = format!("flight_r{replica}_{:03}.json", self.dumps.len());
            let path = dir.join(&name);
            dump.file = Some(name);
            let doc = serde_json::to_string_pretty(&dump.to_json()).unwrap_or_default();
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| qt_ckpt::atomic_write_str(&path, &doc))
            {
                eprintln!("qt-telemetry: flight dump {} failed: {e}", path.display());
            }
        }
        self.dumps.push(dump);
    }

    // ---- accessors -----------------------------------------------------

    /// Every windowed series.
    pub fn series(&self) -> &SeriesSet {
        &self.series
    }

    /// One series by scope + name.
    pub fn series_get(&self, scope: Scope, name: &str) -> Option<&WindowedSeries> {
        self.series.get(scope, name)
    }

    /// The SLO engine.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// All alert transitions so far.
    pub fn alerts(&self) -> &[AlertEvent] {
        self.slo.alerts()
    }

    /// The request trace book.
    pub fn book(&self) -> &TraceBook {
        &self.book
    }

    /// All flight dumps taken, in order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Per-replica flight recorders.
    pub fn recorders(&self) -> &[FlightRecorder] {
        &self.flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> TelemetrySink {
        TelemetrySink::new(
            TelemetryConfig {
                interval_us: 1_000,
                seed: 7,
                ..TelemetryConfig::default()
            },
            2,
        )
    }

    #[test]
    fn outcome_fans_out_to_every_subsystem() {
        let mut s = sink();
        s.arrival(100, 1);
        s.dispatch(100, 1, 0, "primary");
        s.attempt(1, 0, 100, 600, false, true);
        s.outcome(600, 1, Some(0), "served_primary", true, false, 500);
        assert_eq!(
            s.series_get(Scope::Fleet, "served")
                .unwrap()
                .counter_total(),
            1
        );
        assert_eq!(
            s.series_get(Scope::Replica(0), "served")
                .unwrap()
                .counter_total(),
            1
        );
        assert!(s
            .series_get(Scope::Fleet, "latency_us")
            .unwrap()
            .hist_at(600)
            .is_some());
        assert_eq!(s.slo().trackers()[0].totals(), (1, 0));
        let t = s.book().get(1).unwrap();
        assert!(t.is_complete());
        assert_eq!(t.spans_named("attempt").count(), 1);
        assert!(s.recorders()[0].len() >= 2);
        assert_eq!(s.latest_us(), 600);
    }

    #[test]
    fn crash_and_breaker_open_take_dumps() {
        let mut s = sink();
        s.dispatch(10, 1, 1, "primary");
        s.crash(20, 1);
        s.breaker(30, 1, "closed", "open", 1.0, 0.9);
        assert_eq!(s.dumps().len(), 2);
        assert_eq!(s.dumps()[0].reason, "crash");
        assert_eq!(s.dumps()[1].reason, "breaker_open");
        // The crash dump holds the replica's final events.
        assert!(s.dumps()[0]
            .events
            .iter()
            .any(|e| e.kind == "dispatch.primary"));
        assert!(s.dumps()[0].events.iter().any(|e| e.kind == "crash"));
        assert_eq!(s.dumps()[0].file, None);
    }

    #[test]
    fn dump_writes_relative_file_when_dir_set() {
        let dir = std::env::temp_dir().join("qt_telemetry_sink_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TelemetrySink::new(
            TelemetryConfig {
                flight_dir: Some(dir.clone()),
                ..TelemetryConfig::default()
            },
            1,
        );
        s.crash(5, 0);
        let f = s.dumps()[0].file.clone().unwrap();
        assert_eq!(f, "flight_r0_000.json");
        let doc = std::fs::read_to_string(dir.join(&f)).unwrap();
        let v = serde_json::from_str(&doc).unwrap();
        assert_eq!(v["schema"], "qt-telemetry/flight/v1");
        assert_eq!(v["reason"], "crash");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_without_replica_counts_and_closes_trace() {
        let mut s = sink();
        s.arrival(50, 9);
        s.outcome(50, 9, None, "shed_queue", false, true, 0);
        assert_eq!(
            s.series_get(Scope::Fleet, "shed").unwrap().counter_total(),
            1
        );
        assert_eq!(s.slo().trackers()[0].totals(), (0, 1));
        assert!(s.book().get(9).unwrap().is_complete());
    }
}
