//! Fleet configuration: per-replica shape and fleet-wide policy.

use crate::router::RouterPolicy;
use qt_adapt::{AutoscaleConfig, BrownoutConfig, CodelConfig, GrayConfig};
use qt_quant::ElemFormat;
use qt_robust::CrashSchedule;
use qt_serve::{BreakerPolicy, RetryPolicy};

/// A scripted gray failure: from `from_us` on, every service attempt on
/// this replica runs `factor`× slow — while the replica keeps passing
/// every health gate (numerics fine, breaker closed, crash schedule
/// clean). Routing still uses the replica's *nominal* speed, exactly the
/// blind spot that makes gray failures dangerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraySlowdown {
    /// Virtual onset time, µs.
    pub from_us: u64,
    /// Service-time multiplier (≥ 1).
    pub factor: u64,
}

/// Everything that makes one replica what it is: its storage format,
/// its speed, its local admission shape, and its failure schedule.
///
/// Heterogeneous fleets are the point — a BF16 replica is slower (wider
/// fetches) but immune to 8-bit code corruption, a posit8 replica is
/// fast but lives in the fault environment. Per-replica format is a
/// real capacity knob, and the router gets to exploit it.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Element format of this replica's primary quantized path.
    pub format: ElemFormat,
    /// Virtual service cost of one transformer block on this replica,
    /// µs. Defaults scale with the format's storage width.
    pub per_block_us: u64,
    /// Simulated service workers on this replica.
    pub workers: usize,
    /// Local admission-queue capacity.
    pub queue_cap: usize,
    /// Retry limits for flagged attempts *on this replica* (exhausting
    /// them triggers fleet-level failover, not local degradation).
    pub retry: RetryPolicy,
    /// Circuit-breaker policy over this replica's primary-path health.
    pub breaker: BreakerPolicy,
    /// Crash/restart schedule (empty = never crashes).
    pub crashes: CrashSchedule,
    /// Scripted gray failure (None = always nominal speed).
    pub gray_slowdown: Option<GraySlowdown>,
}

impl ReplicaSpec {
    /// Base per-block cost of an 8-bit replica, µs.
    pub const BASE_BLOCK_US: u64 = 1_000;

    /// Spec for `format` with the default shape: one worker, an 8-deep
    /// queue, per-block cost scaled by storage width (a BF16 replica
    /// moves twice the bytes of a posit8 one).
    pub fn new(format: ElemFormat) -> Self {
        Self {
            format,
            per_block_us: Self::BASE_BLOCK_US * format.bits() as u64 / 8,
            workers: 1,
            queue_cap: 8,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            crashes: CrashSchedule::none(),
            gray_slowdown: None,
        }
    }

    /// Attach a crash schedule.
    pub fn with_crashes(mut self, crashes: CrashSchedule) -> Self {
        self.crashes = crashes;
        self
    }

    /// Attach a scripted gray failure.
    pub fn with_gray_slowdown(mut self, from_us: u64, factor: u64) -> Self {
        self.gray_slowdown = Some(GraySlowdown {
            from_us,
            factor: factor.max(1),
        });
        self
    }

    /// Clamp structural knobs to their minimums.
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_cap = self.queue_cap.max(1);
        self.per_block_us = self.per_block_us.max(1);
        self
    }
}

/// Memory-integrity protection over each replica's resident quantized
/// code storage (DESIGN.md §16): a qt-shield SEC-DED parity plane, a
/// background scrubber on the virtual clock, and quarantine → repair
/// from the pristine f32 master weights when a double-bit detection
/// proves a region unrecoverable in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShieldConfig {
    /// Scrub pass period per replica, virtual µs.
    pub scrub_every_us: u64,
    /// Scrubber bandwidth budget: ECC words decoded per pass.
    pub scrub_budget_words: usize,
    /// Persistent storage bit-error rate, flips per protected bit per
    /// scrub window (0 = pristine hardware, the control leg).
    pub storage_ber: f64,
    /// Seed for the per-replica, per-window storage fault streams.
    pub storage_seed: u64,
    /// Virtual repair cost per ECC word of the quarantined region, µs —
    /// the time to re-quantize that parameter from the f32 masters.
    pub repair_us_per_word: u64,
}

impl Default for ShieldConfig {
    fn default() -> Self {
        Self {
            scrub_every_us: 10_000,
            scrub_budget_words: usize::MAX,
            storage_ber: 0.0,
            storage_seed: 0x5_1e1d,
            repair_us_per_word: 1,
        }
    }
}

impl ShieldConfig {
    /// Clamp knobs to their minimums.
    pub fn normalized(mut self) -> Self {
        self.scrub_every_us = self.scrub_every_us.max(1);
        self.scrub_budget_words = self.scrub_budget_words.max(1);
        self.storage_ber = self.storage_ber.max(0.0);
        self
    }
}

/// Fleet-wide policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The replicas, in id order.
    pub replicas: Vec<ReplicaSpec>,
    /// Routing policy.
    pub policy: RouterPolicy,
    /// Tenant count (requests carry `user % tenants`).
    pub tenants: u32,
    /// Max outstanding (queued + in service) requests per tenant across
    /// the fleet; 0 = unlimited. The admission-side fairness knob: one
    /// tenant's burst sheds as [`crate::FleetOutcome::ShedQuota`]
    /// instead of starving everyone else's queue slots.
    pub tenant_quota: u64,
    /// Max fleet-level failovers per request before it is forced onto
    /// the degraded path of wherever it last ran.
    pub max_failovers: u32,
    /// Hedge deadline-risky dispatches: when a worker picks up a request
    /// whose remaining budget cannot fit a full pass *here* but fits on
    /// another eligible replica, re-route it there instead of burning
    /// the budget on a doomed attempt.
    pub hedge: bool,
    /// Write each up replica's health snapshot every this many virtual
    /// µs (0 = never). Crash recovery reloads the last written snapshot
    /// — state since it is lost, exactly like a real reboot.
    pub snapshot_every_us: u64,
    /// Master seed for retry-backoff jitter streams.
    pub retry_seed: u64,
    /// Adaptive control plane evaluation period, virtual µs (0 = the
    /// whole plane is off regardless of the knobs below).
    pub adapt_every_us: u64,
    /// CoDel admission control over queue sojourn time.
    pub codel: Option<CodelConfig>,
    /// Priority-tiered brownout ladder.
    pub brownout: Option<BrownoutConfig>,
    /// Gray-failure (latency outlier) ejection.
    pub gray: Option<GrayConfig>,
    /// Queue-driven autoscaling. When set, only
    /// [`AutoscaleConfig::min_replicas`] replicas start active; the rest
    /// are held in reserve until pressure boots them.
    pub autoscale: Option<AutoscaleConfig>,
    /// ECC protection + background scrubbing of each replica's quantized
    /// code storage (None = unprotected storage, the historical shape).
    pub shield: Option<ShieldConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            replicas: vec![ReplicaSpec::new(ElemFormat::P8E1); 2],
            policy: RouterPolicy::HealthAware,
            tenants: 4,
            tenant_quota: 0,
            max_failovers: 3,
            hedge: true,
            snapshot_every_us: 100_000,
            retry_seed: 0xf1ee7,
            adapt_every_us: 0,
            codel: None,
            brownout: None,
            gray: None,
            autoscale: None,
            shield: None,
        }
    }
}

impl FleetConfig {
    /// Normalize every replica and clamp fleet knobs.
    pub fn normalized(mut self) -> Self {
        if self.replicas.is_empty() {
            self.replicas.push(ReplicaSpec::new(ElemFormat::P8E1));
        }
        self.replicas = self
            .replicas
            .into_iter()
            .map(ReplicaSpec::normalized)
            .collect();
        self.tenants = self.tenants.max(1);
        self.shield = self.shield.map(ShieldConfig::normalized);
        self
    }
}
