//! Crash-safe health snapshots.
//!
//! An edge deployment that reboots mid-incident should come back knowing
//! it was degraded — otherwise it re-learns the fault environment from
//! scratch, serving corrupt-prone traffic through the whole re-learning
//! window. The snapshot is a small JSON document (breaker state, trip
//! count, outcome counters) written with the same write-temp → fsync →
//! rename discipline as qt-ckpt checkpoints: a crash mid-write leaves
//! the previous snapshot intact, never a torn file.
//!
//! Loading distinguishes the two failure modes a recovering node must
//! treat differently: a **missing** snapshot is a normal first boot
//! (start fresh, silently), while a **corrupt** one means the durable
//! state the operator relies on was damaged — [`SnapshotError::Corrupt`]
//! carries the reason, and [`HealthSnapshot::load_traced`] bumps the
//! `serve.snapshot_corrupt` counter so the incident is never silent.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::sim::ServeReport;
use qt_trace::TraceHandle;
use serde_json::{json, Value};
use std::path::Path;

/// Schema tag written into every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "qt-serve/health/v1";

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// No snapshot file exists at the path — a normal first boot.
    Missing,
    /// A file exists but is not a valid snapshot (torn write survived a
    /// non-atomic copy, bit rot, wrong schema). The payload says what
    /// was wrong; callers must surface this, never silently start fresh.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "snapshot missing"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A durable point-in-time summary of serving health.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Breaker state at capture.
    pub breaker_state: BreakerState,
    /// Breaker trips so far.
    pub breaker_trips: u64,
    /// Unhealthy fraction of the breaker window at capture.
    pub unhealthy_rate: f64,
    /// Requests offered so far.
    pub offered: u64,
    /// Served from the primary path.
    pub served_primary: u64,
    /// Served degraded.
    pub served_degraded: u64,
    /// Shed at admission.
    pub shed_queue_full: u64,
    /// Deadline misses.
    pub deadline_miss: u64,
}

impl HealthSnapshot {
    /// Capture from a finished (or in-progress) report and its breaker.
    pub fn capture(report: &ServeReport, breaker: &CircuitBreaker) -> Self {
        Self {
            breaker_state: breaker.state(),
            breaker_trips: breaker.trips(),
            unhealthy_rate: breaker.unhealthy_rate(),
            offered: report.offered,
            served_primary: report.served_primary,
            served_degraded: report.served_degraded,
            shed_queue_full: report.shed_queue_full,
            deadline_miss: report.deadline_miss,
        }
    }

    /// The snapshot as JSON.
    pub fn to_json(&self) -> Value {
        json!({
            "schema": SNAPSHOT_SCHEMA,
            "breaker_state": self.breaker_state.name(),
            "breaker_trips": self.breaker_trips,
            "unhealthy_rate": self.unhealthy_rate,
            "offered": self.offered,
            "served_primary": self.served_primary,
            "served_degraded": self.served_degraded,
            "shed_queue_full": self.shed_queue_full,
            "deadline_miss": self.deadline_miss,
        })
    }

    /// Write atomically (temp file + fsync + rename): readers see either
    /// the old snapshot or the new one, never a torn file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let text = serde_json::to_string(&self.to_json()).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("serialize: {e}"))
        })?;
        qt_ckpt::atomic_write_str(path, &text)
    }

    /// Read a snapshot back, distinguishing "nothing there" from
    /// "something there, but damaged".
    ///
    /// - [`SnapshotError::Missing`] — no file: a first boot, safe to
    ///   start fresh.
    /// - [`SnapshotError::Corrupt`] — unreadable, not JSON, wrong
    ///   schema, or missing fields: the durable record was damaged.
    ///   Callers deciding to proceed anyway must do so *loudly* (see
    ///   [`HealthSnapshot::load_traced`]).
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SnapshotError::Missing)
            }
            Err(e) => return Err(SnapshotError::Corrupt(format!("unreadable: {e}"))),
        };
        let v: Value = serde_json::from_str(&text)
            .map_err(|e| SnapshotError::Corrupt(format!("not JSON: {e}")))?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| SnapshotError::Corrupt("no schema tag".to_string()))?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::Corrupt(format!(
                "schema {schema:?}, expected {SNAPSHOT_SCHEMA:?}"
            )));
        }
        let state = match v.get("breaker_state").and_then(Value::as_str) {
            Some("closed") => BreakerState::Closed,
            Some("open") => BreakerState::Open,
            Some("half_open") => BreakerState::HalfOpen,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "bad breaker_state {other:?}"
                )))
            }
        };
        let u64_field = |k: &str| -> Result<u64, SnapshotError> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| SnapshotError::Corrupt(format!("missing/invalid field {k:?}")))
        };
        let unhealthy_rate = v
            .get("unhealthy_rate")
            .and_then(Value::as_f64)
            .ok_or_else(|| {
                SnapshotError::Corrupt("missing/invalid field \"unhealthy_rate\"".to_string())
            })?;
        Ok(Self {
            breaker_state: state,
            breaker_trips: u64_field("breaker_trips")?,
            unhealthy_rate,
            offered: u64_field("offered")?,
            served_primary: u64_field("served_primary")?,
            served_degraded: u64_field("served_degraded")?,
            shed_queue_full: u64_field("shed_queue_full")?,
            deadline_miss: u64_field("deadline_miss")?,
        })
    }

    /// [`HealthSnapshot::load`] with the corruption path made loud: a
    /// corrupt snapshot bumps the `serve.snapshot_corrupt` counter on
    /// `trace` (when given) and logs the reason to stderr before the
    /// error is returned. Missing files stay silent — that is a normal
    /// first boot.
    pub fn load_traced(path: &Path, trace: Option<&TraceHandle>) -> Result<Self, SnapshotError> {
        let out = Self::load(path);
        if let Err(SnapshotError::Corrupt(why)) = &out {
            eprintln!(
                "[qt-serve] corrupt health snapshot at {}: {why}",
                path.display()
            );
            if let Some(t) = trace {
                t.borrow_mut()
                    .metrics_mut()
                    .counter_add("serve.snapshot_corrupt", &[], 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerPolicy;
    use qt_trace::LogHist;

    fn report() -> ServeReport {
        ServeReport {
            offered: 10,
            served_primary: 6,
            served_degraded: 2,
            shed_queue_full: 1,
            deadline_miss: 1,
            flagged_attempts: 3,
            bits_flipped: 5,
            breaker_trips: 0,
            transitions: Vec::new(),
            latency: LogHist::default(),
            queue_wait: LogHist::default(),
            max_queue_depth: 2,
            end_us: 123,
            responses: Vec::new(),
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("qt_serve_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("health.json");
        let breaker = CircuitBreaker::new(BreakerPolicy::default());
        let snap = HealthSnapshot::capture(&report(), &breaker);
        snap.save(&path).unwrap();
        let loaded = HealthSnapshot::load(&path).expect("snapshot loads");
        assert_eq!(loaded, snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_are_distinguished() {
        let dir = std::env::temp_dir().join("qt_serve_snap_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert_eq!(
            HealthSnapshot::load(&missing),
            Err(SnapshotError::Missing),
            "no file is a first boot, not corruption"
        );
        let torn = dir.join("torn.json");
        std::fs::write(&torn, "{\"schema\": \"qt-serve/heal").unwrap();
        assert!(matches!(
            HealthSnapshot::load(&torn),
            Err(SnapshotError::Corrupt(_))
        ));
        let wrong = dir.join("wrong.json");
        std::fs::write(&wrong, "{\"schema\": \"other/v9\"}").unwrap();
        assert!(matches!(
            HealthSnapshot::load(&wrong),
            Err(SnapshotError::Corrupt(_))
        ));
        // Valid schema but a counter missing: still corrupt, with the
        // field named in the reason.
        let partial = dir.join("partial.json");
        std::fs::write(
            &partial,
            format!("{{\"schema\": \"{SNAPSHOT_SCHEMA}\", \"breaker_state\": \"closed\"}}"),
        )
        .unwrap();
        match HealthSnapshot::load(&partial) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(
                    why.contains("missing/invalid field"),
                    "reason names the field: {why}"
                )
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_load_bumps_counter_on_trace() {
        let dir = std::env::temp_dir().join("qt_serve_snap_traced");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json at all").unwrap();
        let trace = qt_trace::TraceSession::new("snap-test").handle();
        assert!(HealthSnapshot::load_traced(&bad, Some(&trace)).is_err());
        assert_eq!(
            trace
                .borrow_mut()
                .metrics_mut()
                .counter_value("serve.snapshot_corrupt", &[]),
            1
        );
        // Missing file: silent, no counter.
        let gone = dir.join("gone.json");
        assert_eq!(
            HealthSnapshot::load_traced(&gone, Some(&trace)),
            Err(SnapshotError::Missing)
        );
        assert_eq!(
            trace
                .borrow_mut()
                .metrics_mut()
                .counter_value("serve.snapshot_corrupt", &[]),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
