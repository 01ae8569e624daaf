//! qt-fleet: a fault-tolerant multi-replica serving fleet over the
//! qt-serve engine.
//!
//! One replica with a circuit breaker degrades gracefully; a *fleet* of
//! them can do better — route around a corrupting replica entirely,
//! absorb a crash by failing in-flight work over to healthy peers, and
//! let the crashed node rejoin by re-earning traffic through half-open
//! probing. This crate is that layer:
//!
//! - **Replicas** ([`replica`]) — each with its own element format,
//!   service speed, admission queue, circuit breaker, fault environment,
//!   and crash/restart schedule ([`qt_robust::CrashSchedule`]). Health
//!   state persists through a [`SnapStore`] so a rebooted replica
//!   resumes its trip history — and a corrupt snapshot is surfaced,
//!   never silently replaced by a fresh boot.
//! - **Routing** ([`router`]) — pluggable policies (round-robin,
//!   least-loaded, health-aware with an explicit probe quota) over a
//!   shared eligibility gate: a replica that is down, breaker-Open,
//!   full, or that already failed this request is never selected.
//! - **Failover** ([`sim`]) — a request that exhausts its flagged-
//!   attempt retries on one replica, or whose replica crashes under it,
//!   moves to a different healthy replica; deadline-doomed pickups hedge
//!   to a replica that still fits the budget.
//! - **Tenancy** ([`tenant`]) — per-tenant outstanding-request quotas so
//!   one tenant's burst sheds its own overflow.
//! - **Load** ([`load`]) — synthetic diurnal/bursty open-loop arrivals
//!   over a million-user population.
//! - **Adaptation** ([`sim`] + [`qt_adapt`]) — an optional control
//!   plane ticking on the virtual clock: CoDel head-drop admission, a
//!   priority-tiered brownout ladder, windowed-p99 gray-failure
//!   ejection (with probe-gated rejoin), and queue-pressure autoscaling
//!   that boots reserves through the snapshot-recovery path. Every
//!   decision lands in the [`report::AdaptEvent`] audit trail.
//! - **Memory integrity** ([`config::ShieldConfig`] + [`qt_shield`]) —
//!   an optional SEC-DED parity plane over each replica's resident
//!   quantized codes: a background scrubber on the virtual clock
//!   corrects single-bit storage rot in place, double-bit detections
//!   quarantine the region (forcing the degraded path) and schedule a
//!   bit-exact repair from the f32 master weights, and every event flows
//!   into the report and telemetry.
//! - **Telemetry** ([`qt_telemetry`]) — every run reports each event
//!   into a [`qt_telemetry::TelemetrySink`] it borrows for the run. The
//!   sink only listens, so the report is independent of its config.
//!   The [`FleetReport`] and the sink are a run's only outputs, and
//!   [`run_fleet`] is its one entry point.
//!
//! Everything runs in a single-threaded discrete-event simulation on a
//! virtual microsecond clock, over qt-serve's [`qt_serve::EventQueue`];
//! every service episode is one run of the qt-serve
//! [`qt_serve::Engine::episode`] state machine, with the replica's crash
//! boundary and the failover exit plugged in. The forward passes inside
//! run on the real
//! qt-par kernels, which are bitwise deterministic at any `QT_THREADS` —
//! so a [`FleetReport`] (and its JSON) is byte-identical across thread
//! counts and replays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod load;
pub mod replica;
pub mod report;
pub mod router;
pub mod sim;
pub mod tenant;

pub use config::{FleetConfig, GraySlowdown, ReplicaSpec, ShieldConfig};
pub use load::{ArrivalShape, FleetLoadSpec, FleetRequest};
pub use replica::{DirSnapStore, MemSnapStore, Replica, ReplicaStats, ShieldState, SnapStore};
pub use report::{
    AdaptEvent, Dispatch, DispatchCause, FleetOutcome, FleetReport, FleetResponse, ReplicaReport,
};
pub use router::{ReplicaView, Router, RouterPolicy};
pub use sim::{audit_unflagged_corruption, run_fleet};
pub use tenant::TenantBook;
