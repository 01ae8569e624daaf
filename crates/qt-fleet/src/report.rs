//! Fleet outcomes, the routing audit log, and the run report.

use crate::replica::ReplicaStats;
use qt_serve::BreakerState;
use qt_trace::LogHist;
use serde_json::{json, Value};

/// How one fleet request's story ended.
///
/// The fleet adds two shed reasons qt-serve does not have: quota sheds
/// (per-tenant fairness) and no-replica sheds (every replica down, Open,
/// or full at arrival).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOutcome {
    /// Served from some replica's quantized primary path, clean health.
    ServedPrimary,
    /// Served from some replica's degraded BF16 path.
    ServedDegraded,
    /// Shed: the selected replica's queue was full... and so was every
    /// alternative's (the router only returns replicas with room, so
    /// this means no eligible replica had a slot).
    ShedQueueFull,
    /// Shed at admission: the tenant was over its outstanding quota.
    ShedQuota,
    /// Shed at admission or re-route: no replica was eligible (down,
    /// breaker Open, or excluded).
    ShedNoReplica,
    /// Shed by the adaptive control plane: the brownout ladder rejected
    /// this tier at admission, or CoDel head-dropped it at pickup.
    ShedOverload,
    /// The deadline's block budget ran out before a clean response
    /// existed anywhere in the fleet.
    DeadlineMiss,
}

impl FleetOutcome {
    /// Stable lowercase name (metrics labels, JSON).
    pub fn name(self) -> &'static str {
        match self {
            FleetOutcome::ServedPrimary => "served_primary",
            FleetOutcome::ServedDegraded => "served_degraded",
            FleetOutcome::ShedQueueFull => "shed_queue_full",
            FleetOutcome::ShedQuota => "shed_quota",
            FleetOutcome::ShedNoReplica => "shed_no_replica",
            FleetOutcome::ShedOverload => "shed_overload",
            FleetOutcome::DeadlineMiss => "deadline_miss",
        }
    }

    /// `true` when the caller got a usable result.
    pub fn is_served(self) -> bool {
        matches!(
            self,
            FleetOutcome::ServedPrimary | FleetOutcome::ServedDegraded
        )
    }

    /// `true` for any of the shed variants.
    pub fn is_shed(self) -> bool {
        matches!(
            self,
            FleetOutcome::ShedQueueFull
                | FleetOutcome::ShedQuota
                | FleetOutcome::ShedNoReplica
                | FleetOutcome::ShedOverload
        )
    }
}

/// Why a request was (re-)routed at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchCause {
    /// First routing decision at admission.
    Fresh,
    /// Re-routed after exhausting flagged-attempt retries on a replica.
    FailoverCorrupt,
    /// Re-routed because its replica crashed under it.
    FailoverCrash,
    /// Re-queued at crash time while still waiting in the dead
    /// replica's queue.
    Requeue,
    /// Hedged away at pickup: the remaining deadline budget could not
    /// fit a pass on the assigned replica but fit elsewhere.
    Hedge,
}

impl DispatchCause {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DispatchCause::Fresh => "fresh",
            DispatchCause::FailoverCorrupt => "failover_corrupt",
            DispatchCause::FailoverCrash => "failover_crash",
            DispatchCause::Requeue => "requeue",
            DispatchCause::Hedge => "hedge",
        }
    }

    /// `true` for the two mid-flight failover causes.
    pub fn is_failover(self) -> bool {
        matches!(
            self,
            DispatchCause::FailoverCorrupt | DispatchCause::FailoverCrash
        )
    }
}

/// One routing decision, recorded at decision time — the audit trail the
/// fleet invariants are checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatch {
    /// The request routed.
    pub req_id: u64,
    /// Virtual time of the decision, µs.
    pub at_us: u64,
    /// Replica selected.
    pub replica: usize,
    /// That replica's breaker state *at selection* (never `Open`).
    pub breaker: BreakerState,
    /// Why this decision happened.
    pub cause: DispatchCause,
    /// Replicas this decision was required to avoid (prior failures of
    /// this request).
    pub excluded: Vec<usize>,
}

/// The fleet's answer for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetResponse {
    /// Request id.
    pub id: u64,
    /// Simulated user.
    pub user: u64,
    /// Tenant.
    pub tenant: u32,
    /// How it ended.
    pub outcome: FleetOutcome,
    /// Argmax label for served outcomes.
    pub label: Option<usize>,
    /// Replica that produced the final outcome (None for sheds).
    pub replica: Option<usize>,
    /// Forward attempts across all replicas.
    pub attempts: u32,
    /// Attempts flagged unhealthy (each retried, failed over, or
    /// degraded — never returned).
    pub flagged: u32,
    /// Fleet-level failovers (replica changes after a failure).
    pub failovers: u32,
    /// `true` when a hedge re-route happened.
    pub hedged: bool,
    /// Completion time on the virtual clock, µs.
    pub finish_us: u64,
    /// `finish_us − arrival_us` (0 for sheds).
    pub latency_us: u64,
}

/// One decision the adaptive control plane made during the run —
/// brownout rung changes, gray ejections/rejoins, and scale events, in
/// virtual-time order. The audit trail the adapt invariants (monotone
/// ladder walk, deterministic ejection) are checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptEvent {
    /// Virtual time of the decision, µs.
    pub at_us: u64,
    /// Stable kind label: `brownout_up`, `brownout_down`, `gray_eject`,
    /// `gray_rejoin`, `scale_up_start`, `scale_up_done`,
    /// `scale_down_start`, `scale_down_done`.
    pub kind: &'static str,
    /// Replica the decision targeted (None for fleet-wide decisions).
    pub replica: Option<usize>,
    /// Kind-specific magnitude: destination rung severity for brownout
    /// moves, p99/median ratio for ejections, active-replica count after
    /// the move for scale events.
    pub detail: f64,
}

impl AdaptEvent {
    /// The event as JSON.
    pub fn to_json(&self) -> Value {
        json!({
            "at_us": self.at_us,
            "kind": self.kind,
            "replica": self.replica.map_or(Value::Null, |r| Value::from(r as u64)),
            "detail": self.detail,
        })
    }
}

/// Per-replica section of the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Replica id.
    pub id: usize,
    /// Element format name of its primary path.
    pub format: String,
    /// Per-block cost, µs.
    pub per_block_us: u64,
    /// Counters.
    pub stats: ReplicaStats,
    /// Breaker trips over the run.
    pub breaker_trips: u64,
    /// Breaker state at the end of the run.
    pub final_breaker: BreakerState,
}

impl ReplicaReport {
    /// The section as JSON.
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "format": self.format.clone(),
            "per_block_us": self.per_block_us,
            "served_primary": self.stats.served_primary,
            "served_degraded": self.stats.served_degraded,
            "served_after_recovery": self.stats.served_after_recovery,
            "flagged_attempts": self.stats.flagged_attempts,
            "bits_flipped": self.stats.bits_flipped,
            "crashes": self.stats.crashes,
            "recoveries": self.stats.recoveries,
            "crash_interrupted": self.stats.crash_interrupted,
            "snapshot_saves": self.stats.snapshot_saves,
            "snapshot_resumes": self.stats.snapshot_resumes,
            "snapshot_corrupt": self.stats.snapshot_corrupt,
            "max_queue_depth": self.stats.max_queue_depth,
            "gray_ejections": self.stats.gray_ejections,
            "storage_flips": self.stats.storage_flips,
            "scrub_corrected": self.stats.scrub_corrected,
            "read_corrected": self.stats.read_corrected,
            "scrub_uncorrectable": self.stats.scrub_uncorrectable,
            "quarantines": self.stats.quarantines,
            "repairs": self.stats.repairs,
            "breaker_trips": self.breaker_trips,
            "final_breaker": self.final_breaker.name(),
        })
    }
}

/// Everything one fleet run produced. The simulation accumulates into
/// a default report as it runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetReport {
    /// Routing policy name.
    pub policy: String,
    /// Requests offered.
    pub offered: u64,
    /// Served on some primary path.
    pub served_primary: u64,
    /// Served degraded.
    pub served_degraded: u64,
    /// Shed: no queue slot anywhere eligible.
    pub shed_queue_full: u64,
    /// Shed: tenant over quota.
    pub shed_quota: u64,
    /// Shed: no eligible replica.
    pub shed_no_replica: u64,
    /// Shed by the adaptive control plane (brownout + CoDel).
    pub shed_overload: u64,
    /// Deadline misses.
    pub deadline_miss: u64,
    /// Fleet-level failovers (corrupt + crash).
    pub failovers: u64,
    /// Of those, failovers caused by replica crashes.
    pub crash_failovers: u64,
    /// Hedge re-routes.
    pub hedges: u64,
    /// Requests re-queued out of a crashing replica's queue.
    pub requeued_on_crash: u64,
    /// Attempts flagged unhealthy fleet-wide.
    pub flagged_attempts: u64,
    /// Bits flipped into weight reads fleet-wide.
    pub bits_flipped: u64,
    /// Tenant quota denials as (tenant, count), tenant order.
    pub tenant_denials: Vec<(u32, u64)>,
    /// End-to-end latency of non-shed requests, µs (log2 binades).
    pub latency: LogHist,
    /// Admission-to-first-service wait, µs.
    pub queue_wait: LogHist,
    /// Per-replica sections, id order.
    pub replicas: Vec<ReplicaReport>,
    /// Virtual end of run, µs.
    pub end_us: u64,
    /// Every routing decision, in decision order.
    pub dispatches: Vec<Dispatch>,
    /// Every response, sorted by request id.
    pub responses: Vec<FleetResponse>,
    /// Of `shed_overload`, sheds decided by CoDel head drops at pickup.
    pub codel_drops: u64,
    /// Of `shed_overload`, sheds decided by the brownout ladder at
    /// admission.
    pub brownout_sheds: u64,
    /// Requests served on the brownout economy path (single degraded
    /// attempt, no retry/failover budget).
    pub economy_served: u64,
    /// Gray-failure ejections fleet-wide.
    pub gray_ejections: u64,
    /// Autoscale boots completed.
    pub scale_ups: u64,
    /// Autoscale drains started.
    pub scale_downs: u64,
    /// Highest brownout rung reached ([`qt_adapt::Brownout::name`]).
    pub brownout_peak: String,
    /// Every adaptive-control decision, in virtual-time order.
    pub adapt_events: Vec<AdaptEvent>,
    /// Persistent storage bit flips landed on protected code planes.
    pub storage_flips: u64,
    /// Single-bit storage errors corrected in place by scrubbers.
    pub scrub_corrected: u64,
    /// Single-bit storage errors corrected transiently on read paths.
    pub read_corrected: u64,
    /// Uncorrectable (double-bit) storage detections fleet-wide.
    pub scrub_uncorrectable: u64,
    /// Storage regions quarantined.
    pub quarantines: u64,
    /// Quarantined regions repaired from the f32 masters.
    pub repairs: u64,
    /// Every quarantine/repair decision, in virtual-time order (kinds
    /// `quarantine` and `repair`, detail = region index).
    pub integrity_events: Vec<AdaptEvent>,
}

impl FleetReport {
    /// First invariant: every offered request ended in exactly one
    /// outcome counter.
    pub fn reconciles(&self) -> bool {
        self.offered
            == self.served_primary
                + self.served_degraded
                + self.shed_queue_full
                + self.shed_quota
                + self.shed_no_replica
                + self.shed_overload
                + self.deadline_miss
    }

    /// All sheds combined.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_quota + self.shed_no_replica + self.shed_overload
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
        self.shed_total() as f64 / self.offered as f64
    }

    /// Deadline-miss fraction of offered load.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.deadline_miss as f64 / self.offered as f64
    }

    /// Latency percentile in µs (binade upper edge).
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q)
    }

    /// The report as a deterministic JSON value — the `BENCH_fleet.json`
    /// per-policy schema. No wall-clock data, so identical runs
    /// serialize byte-identically.
    pub fn to_json(&self) -> Value {
        let denials: Vec<Value> = self
            .tenant_denials
            .iter()
            .map(|&(t, n)| json!({"tenant": t, "denied": n}))
            .collect();
        let replicas: Vec<Value> = self.replicas.iter().map(|r| r.to_json()).collect();
        json!({
            "schema": "qt-fleet/report/v1",
            "policy": self.policy.clone(),
            "offered": self.offered,
            "served_primary": self.served_primary,
            "served_degraded": self.served_degraded,
            "shed_queue_full": self.shed_queue_full,
            "shed_quota": self.shed_quota,
            "shed_no_replica": self.shed_no_replica,
            "shed_overload": self.shed_overload,
            "deadline_miss": self.deadline_miss,
            "reconciles": self.reconciles(),
            "goodput": self.goodput(),
            "shed_rate": self.shed_rate(),
            "miss_rate": self.miss_rate(),
            "failovers": self.failovers,
            "crash_failovers": self.crash_failovers,
            "hedges": self.hedges,
            "requeued_on_crash": self.requeued_on_crash,
            "flagged_attempts": self.flagged_attempts,
            "bits_flipped": self.bits_flipped,
            "dispatches": self.dispatches.len() as u64,
            "tenant_denials": denials,
            "latency_p50_us": self.latency_quantile_us(0.5).unwrap_or(0.0),
            "latency_p99_us": self.latency_quantile_us(0.99).unwrap_or(0.0),
            "queue_wait_p99_us": self.queue_wait.quantile(0.99).unwrap_or(0.0),
            "codel_drops": self.codel_drops,
            "brownout_sheds": self.brownout_sheds,
            "economy_served": self.economy_served,
            "gray_ejections": self.gray_ejections,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "brownout_peak": self.brownout_peak.clone(),
            "adapt_events": self.adapt_events.iter().map(|e| e.to_json()).collect::<Vec<_>>(),
            "storage_flips": self.storage_flips,
            "scrub_corrected": self.scrub_corrected,
            "read_corrected": self.read_corrected,
            "scrub_uncorrectable": self.scrub_uncorrectable,
            "quarantines": self.quarantines,
            "repairs": self.repairs,
            "integrity_events": self.integrity_events.iter().map(|e| e.to_json()).collect::<Vec<_>>(),
            "replicas": replicas,
            "end_us": self.end_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_names_are_stable_and_classified() {
        let all = [
            FleetOutcome::ServedPrimary,
            FleetOutcome::ServedDegraded,
            FleetOutcome::ShedQueueFull,
            FleetOutcome::ShedQuota,
            FleetOutcome::ShedNoReplica,
            FleetOutcome::ShedOverload,
            FleetOutcome::DeadlineMiss,
        ];
        let names: Vec<_> = all.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec![
                "served_primary",
                "served_degraded",
                "shed_queue_full",
                "shed_quota",
                "shed_no_replica",
                "shed_overload",
                "deadline_miss"
            ]
        );
        assert!(FleetOutcome::ServedDegraded.is_served());
        assert!(FleetOutcome::ShedQuota.is_shed());
        assert!(FleetOutcome::ShedOverload.is_shed());
        assert!(!FleetOutcome::DeadlineMiss.is_shed());
        assert!(DispatchCause::FailoverCrash.is_failover());
        assert!(!DispatchCause::Hedge.is_failover());
    }

    #[test]
    fn reconciliation_counts_all_seven_outcomes() {
        let report = FleetReport {
            policy: "health_aware".to_string(),
            offered: 14,
            served_primary: 4,
            served_degraded: 2,
            shed_queue_full: 1,
            shed_quota: 2,
            shed_no_replica: 1,
            shed_overload: 2,
            deadline_miss: 2,
            failovers: 3,
            crash_failovers: 1,
            hedges: 0,
            requeued_on_crash: 1,
            flagged_attempts: 5,
            bits_flipped: 9,
            tenant_denials: vec![(0, 2)],
            latency: LogHist::default(),
            queue_wait: LogHist::default(),
            replicas: Vec::new(),
            end_us: 99,
            dispatches: Vec::new(),
            responses: Vec::new(),
            codel_drops: 1,
            brownout_sheds: 1,
            economy_served: 1,
            gray_ejections: 1,
            scale_ups: 1,
            scale_downs: 0,
            brownout_peak: "shed_batch".to_string(),
            adapt_events: vec![AdaptEvent {
                at_us: 10,
                kind: "brownout_up",
                replica: None,
                detail: 1.0,
            }],
            storage_flips: 3,
            scrub_corrected: 2,
            read_corrected: 1,
            scrub_uncorrectable: 1,
            quarantines: 1,
            repairs: 1,
            integrity_events: vec![AdaptEvent {
                at_us: 20,
                kind: "quarantine",
                replica: Some(0),
                detail: 4.0,
            }],
        };
        assert!(report.reconciles());
        assert_eq!(report.shed_total(), 6);
        let j = report.to_json();
        assert_eq!(j["schema"], "qt-fleet/report/v1");
        assert_eq!(j["reconciles"].as_bool(), Some(true));
        assert_eq!(j["failovers"].as_u64(), Some(3));
        assert_eq!(j["shed_overload"].as_u64(), Some(2));
        assert_eq!(j["brownout_peak"], "shed_batch");
        assert_eq!(j["adapt_events"][0]["kind"], "brownout_up");
        assert_eq!(j["scrub_corrected"].as_u64(), Some(2));
        assert_eq!(j["integrity_events"][0]["kind"], "quarantine");
        assert_eq!(j["integrity_events"][0]["detail"].as_f64(), Some(4.0));
    }
}
