//! qt-serve: resilient inference serving for quantized edge models.
//!
//! Serving an 8-bit model on edge hardware means serving it through an
//! environment that sheds load, misses deadlines, and flips bits. This
//! crate is the runtime that makes those failures *governed* instead of
//! emergent:
//!
//! - **Admission control** — a bounded queue ([`BoundedQueue`]) that
//!   says [`Rejected::QueueFull`] out loud instead of queueing without
//!   bound ([`queue`]).
//! - **Deadlines** — per-request budgets enforced *between transformer
//!   blocks* with a cooperative cancel token, so a doomed request stops
//!   mid-model and a cancelled pass never yields a partial result
//!   ([`engine`]).
//! - **Retries** — flagged (non-finite-health) attempts re-read the
//!   weights under seeded decorrelated-jitter backoff ([`retry`]), all
//!   inside one episode state machine, [`Engine::episode`], that also
//!   takes an optional crash boundary and failover exit (qt-fleet plugs
//!   both in).
//! - **Graceful degradation** — a circuit breaker over a sliding window
//!   of [`qt_quant::TensorHealth`] outcomes trips the quantized path to
//!   a BF16 reference path on pristine weights, then probes its way back
//!   ([`breaker`]).
//! - **Observability** — `serve.*` spans, instants, and metrics through
//!   qt-trace; crash-safe health snapshots through qt-ckpt ([`snapshot`]).
//!
//! Two drivers share the one engine code path, [`Engine::process`]:
//! [`sim::run_sim`], a single-threaded discrete-event simulation on a
//! virtual clock (the [`EventQueue`] qt-fleet's loop runs on too) whose
//! reports replay bit-exactly (and identically at any `QT_THREADS`), and
//! [`Server`], the same machinery on real OS threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod config;
pub mod engine;
pub mod queue;
pub mod request;
pub mod retry;
pub mod server;
pub mod shield;
pub mod sim;
pub mod snapshot;

pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker, Route, Transition};
pub use config::ServeConfig;
pub use engine::{Attempt, AttemptSpan, Engine, Episode, EpisodeEnd, EpisodeSpec, ProcessOutcome};
pub use queue::{BoundedQueue, Rejected};
pub use request::{OutcomeKind, Request, Response};
pub use retry::RetryPolicy;
pub use server::{Server, ServerStats};
pub use shield::{integrity_health, pristine_codes, pristine_codes_for_region, shield_model};
pub use sim::{run_sim, EventQueue, LoadSpec, Ranked, ServeReport};
pub use snapshot::{HealthSnapshot, SnapshotError, SNAPSHOT_SCHEMA};
