//! qt-telemetry: the fleet-wide SLO telemetry plane.
//!
//! qt-trace (spans, metrics, manifests) observes a single run *after the
//! fact*; the serving fleet needs to be *watched while it runs*: live
//! time-series per replica, service-level objectives with error budgets,
//! a causal trace for every request across router → replica → engine
//! hops, and enough recent history around a crash to reconstruct what
//! the dying replica was doing. This crate is that layer:
//!
//! - **Windowed time-series** ([`series`]) — fixed-interval windows
//!   keyed on the discrete-event simulation's *virtual* clock, holding
//!   counter-rates, gauges, and log2 histograms per replica and
//!   fleet-wide. Nothing in a window derives from wall time, so every
//!   export is byte-identical at any `QT_THREADS`.
//! - **SLO engine** ([`slo`]) — declarative objectives (availability,
//!   latency bound) with error-budget accounting and Google-SRE-style
//!   multi-window burn-rate alerts (fast 5m/1h and slow 6h/3d windows in
//!   virtual time, both clipped to the run so short simulations still
//!   alert). Alert transitions are recorded as deterministic events.
//! - **Request-scoped tracing** ([`reqtrace`]) — a [`TraceId`] minted at
//!   admission and propagated through dispatch, retries, hedges, and
//!   failover, so every attempt's span links causally into one
//!   per-request tree; exportable through the existing qt-trace
//!   Perfetto/JSONL exporters.
//! - **Flight recorder** ([`flight`]) — a bounded ring of recent
//!   telemetry events per replica, dumped atomically (qt-ckpt) on crash
//!   or breaker-open for post-mortem analysis.
//!
//! Every fleet run reports into a [`TelemetrySink`] it borrows mutably.
//! The sink only listens, so a run's report is independent of the
//! telemetry config. [`report::telemetry_report`] turns a finished sink
//! into the deterministic `BENCH_telemetry.json` scoreboard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod report;
pub mod reqtrace;
pub mod series;
pub mod sink;
pub mod slo;

pub use flight::{FlightDump, FlightEvent, FlightRecorder};
pub use report::{alerts_jsonl, export_to_trace, telemetry_report, timeseries_jsonl};
pub use reqtrace::{RequestTrace, SpanRec, TraceBook, TraceId};
pub use series::{Scope, SeriesKind, SeriesSet, WindowedSeries};
pub use sink::{TelemetryConfig, TelemetrySink};
pub use slo::{AlertEvent, BurnRule, SloEngine, SloKind, SloSpec, SloTracker};
