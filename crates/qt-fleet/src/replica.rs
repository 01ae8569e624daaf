//! One replica: a qt-serve [`Engine`] plus its breaker, lifecycle
//! schedule, counters, and durable snapshot store.

use crate::config::{ReplicaSpec, ShieldConfig};
use qt_robust::{cell_seed, FaultSource, StorageFaultModel};
use qt_serve::{BreakerState, CircuitBreaker, Engine, HealthSnapshot, ServeConfig, SnapshotError};
use qt_shield::Shield;
use qt_transformer::Model;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Mutable per-replica counters the fleet report aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Served from this replica's quantized primary path.
    pub served_primary: u64,
    /// Served from this replica's degraded BF16 path.
    pub served_degraded: u64,
    /// Of the served totals, responses finished after this replica's
    /// most recent crash recovery — the "back in rotation" signal.
    pub served_after_recovery: u64,
    /// Attempts flagged unhealthy on this replica.
    pub flagged_attempts: u64,
    /// Bits flipped into weight reads on this replica.
    pub bits_flipped: u64,
    /// Lifecycle crashes.
    pub crashes: u64,
    /// Lifecycle recoveries.
    pub recoveries: u64,
    /// Attempts cut short by a crash landing mid-service.
    pub crash_interrupted: u64,
    /// Health snapshots written.
    pub snapshot_saves: u64,
    /// Recoveries that resumed from an intact snapshot.
    pub snapshot_resumes: u64,
    /// Recoveries that found a *corrupt* snapshot (always surfaced,
    /// never silently treated as a fresh boot).
    pub snapshot_corrupt: u64,
    /// High-water mark of the local admission queue.
    pub max_queue_depth: u64,
    /// Times the adaptive control plane ejected this replica as a gray
    /// (slow-but-alive) failure.
    pub gray_ejections: u64,
    /// Persistent storage bit flips landed on this replica's protected
    /// code plane by the shield fault model.
    pub storage_flips: u64,
    /// Single-bit storage errors the background scrubber corrected in
    /// place.
    pub scrub_corrected: u64,
    /// Single-bit storage errors corrected transiently on the request
    /// read path (the scrubber still owns the in-place fix).
    pub read_corrected: u64,
    /// Uncorrectable (double-bit) storage detections.
    pub scrub_uncorrectable: u64,
    /// Regions quarantined by an uncorrectable detection.
    pub quarantines: u64,
    /// Quarantined regions repaired bit-exactly from the f32 masters.
    pub repairs: u64,
}

/// Per-replica shield runtime: the parity plane over this replica's
/// resident quantized codes, the persistent storage-fault stream that
/// rots it, the scrub-window cursor tying the two together, and the
/// config they were built from.
pub struct ShieldState {
    /// Parity plane + scrub cursor + integrity counters.
    pub shield: Shield,
    /// Persistent storage fault stream (deterministic per replica/window).
    pub faults: StorageFaultModel,
    /// Next scrub window index — each window's faults are injected after
    /// the pass that would have corrected the previous window's.
    pub window: u64,
    /// The normalized config this state was built from.
    pub(crate) cfg: ShieldConfig,
}

impl ShieldState {
    /// Protect `model`'s parameters as `spec.format` codes. `None` when
    /// the format has no code plane to protect (f32 carrier).
    pub fn build(model: &Model, spec: &ReplicaSpec, cfg: &ShieldConfig) -> Option<Self> {
        Some(Self {
            shield: qt_serve::shield_model(model, spec.format)?,
            faults: StorageFaultModel::new(cfg.storage_seed, cfg.storage_ber),
            window: 0,
            cfg: *cfg,
        })
    }

    /// What quarantining `region` costs: its code count (the breaker's
    /// unhealthy-element weight) and its repair time from the f32
    /// masters, µs.
    pub(crate) fn region_cost(&self, region: usize) -> (u64, u64) {
        let reg = &self.shield.regions()[region];
        let repair_us = reg.words() as u64 * self.cfg.repair_us_per_word;
        (reg.codes_len() as u64, repair_us)
    }
}

/// One serving replica.
pub struct Replica {
    /// Fleet-assigned id (index in the fleet vec).
    pub id: usize,
    /// The spec it was built from.
    pub spec: ReplicaSpec,
    engine: Engine,
    /// Health breaker; `RefCell` because one engine call consults it
    /// from two closures — the sim is single-threaded by design.
    pub breaker: RefCell<CircuitBreaker>,
    /// Counters.
    pub stats: ReplicaStats,
    /// Virtual time of the most recent recovery, if any.
    pub last_recovery_us: Option<u64>,
    /// ECC shield over this replica's quantized storage (None =
    /// unprotected, the historical shape).
    pub shield: Option<ShieldState>,
}

impl Replica {
    /// Build replica `id` serving `model` through `fault`.
    pub fn new(
        id: usize,
        model: Model,
        spec: ReplicaSpec,
        fault: Box<dyn FaultSource + Send + Sync>,
        retry_seed: u64,
    ) -> Self {
        let spec = spec.normalized();
        let serve_cfg = ServeConfig {
            workers: spec.workers,
            queue_cap: spec.queue_cap,
            per_block_us: spec.per_block_us,
            primary: spec.format,
            retry: spec.retry,
            breaker: spec.breaker,
            // Per-replica jitter streams: a request that fails over must
            // not replay the same backoff schedule on its new home.
            retry_seed: cell_seed(retry_seed, id, 0, 0),
        };
        let engine = Engine::new(model, &serve_cfg, fault);
        Self {
            id,
            breaker: RefCell::new(CircuitBreaker::new(spec.breaker)),
            engine,
            spec,
            stats: ReplicaStats::default(),
            last_recovery_us: None,
            shield: None,
        }
    }

    /// Attach an ECC shield over this replica's quantized code storage.
    /// A no-op for formats without a code plane (f32 carrier).
    pub fn with_shield(mut self, cfg: &ShieldConfig) -> Self {
        self.shield = ShieldState::build(self.engine.model(), &self.spec, cfg);
        self
    }

    /// Whether any protected region is currently quarantined — primary
    /// serving must route down the degraded path until repair lands.
    pub fn shield_quarantined(&self) -> bool {
        self.shield
            .as_ref()
            .is_some_and(|s| s.shield.has_quarantine())
    }

    /// Rebuild quarantined `region` bit-exact from the f32 masters and
    /// return its repair time, µs. `None` when there is nothing to
    /// repair: no shield, or a reboot already reloaded the plane.
    pub(crate) fn repair(&mut self, region: usize) -> Option<u64> {
        let state = self.shield.as_mut()?;
        if !state
            .shield
            .regions()
            .get(region)
            .is_some_and(|g| g.is_quarantined())
        {
            return None;
        }
        let codes = qt_serve::pristine_codes_for_region(&self.engine, self.spec.format, region)?;
        state.shield.repair_region(region, &codes);
        self.stats.repairs += 1;
        Some(state.region_cost(region).1)
    }

    /// The serving engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Virtual cost of one full forward pass here, µs.
    pub fn full_pass_us(&self) -> u64 {
        self.engine.full_pass_us()
    }

    /// Is this replica up at `t_us` (per its crash schedule)?
    pub fn is_up(&self, t_us: u64) -> bool {
        self.spec.crashes.is_up(t_us)
    }

    /// Durable health snapshot of this replica right now.
    pub fn snapshot(&self) -> HealthSnapshot {
        let b = self.breaker.borrow();
        HealthSnapshot {
            breaker_state: b.state(),
            breaker_trips: b.trips(),
            unhealthy_rate: b.unhealthy_rate(),
            offered: 0, // admission is fleet-level; replica counters below
            served_primary: self.stats.served_primary,
            served_degraded: self.stats.served_degraded,
            shed_queue_full: 0,
            deadline_miss: 0,
        }
    }

    /// Rebuild lifecycle state after a reboot at `now_us`.
    ///
    /// `loaded` is what the snapshot store found. An intact snapshot
    /// restores trip-history continuity; a missing one is a fresh boot;
    /// a corrupt one is *counted and surfaced* (never silently fresh).
    /// In every case the breaker is then forced Open: a replica that
    /// just crashed re-earns traffic through cooldown → HalfOpen
    /// probing, no matter how healthy it looked before it died.
    pub fn recover(&mut self, loaded: Result<HealthSnapshot, SnapshotError>, now_us: u64) {
        let trips = match loaded {
            Ok(snap) => {
                self.stats.snapshot_resumes += 1;
                snap.breaker_trips
            }
            Err(SnapshotError::Missing) => 0,
            Err(SnapshotError::Corrupt(_)) => {
                self.stats.snapshot_corrupt += 1;
                0
            }
        };
        let mut b = CircuitBreaker::with_initial_trips(self.spec.breaker, trips);
        b.force_open(now_us);
        self.breaker.replace(b);
        // A reboot reloads the quantized plane from the f32 masters:
        // pristine codes, fresh parity, quarantines gone. The storage
        // fault *stream* continues — rot is a property of the hardware,
        // not of the data it damaged.
        if let Some(s) = self.shield.as_mut() {
            if let Some(fresh) = qt_serve::shield_model(self.engine.model(), self.spec.format) {
                s.shield = fresh;
            }
        }
        self.stats.recoveries += 1;
        self.last_recovery_us = Some(now_us);
    }

    /// Current breaker state (convenience for router views).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.borrow().state()
    }
}

/// Where replicas persist their health snapshots.
///
/// The disk-backed store is the deployment shape (qt-ckpt atomic
/// writes, real files a rebooted process can find); the in-memory store
/// keeps unit tests hermetic and lets them script corruption.
pub trait SnapStore {
    /// Persist `snap` for `replica`.
    fn save(&mut self, replica: usize, snap: &HealthSnapshot) -> std::io::Result<()>;
    /// Load the last snapshot persisted for `replica`.
    fn load(&self, replica: usize) -> Result<HealthSnapshot, SnapshotError>;
}

/// In-memory snapshot store (tests; scripted corruption).
#[derive(Debug, Default)]
pub struct MemSnapStore {
    snaps: BTreeMap<usize, HealthSnapshot>,
    corrupt: BTreeSet<usize>,
}

impl MemSnapStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `replica`'s stored snapshot as corrupt: subsequent loads
    /// fail with [`SnapshotError::Corrupt`] (the bit-rot scenario).
    pub fn corrupt(&mut self, replica: usize) {
        self.corrupt.insert(replica);
    }

    /// Number of snapshots currently held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// `true` when nothing has been saved yet.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

impl SnapStore for MemSnapStore {
    fn save(&mut self, replica: usize, snap: &HealthSnapshot) -> std::io::Result<()> {
        self.corrupt.remove(&replica);
        self.snaps.insert(replica, snap.clone());
        Ok(())
    }

    fn load(&self, replica: usize) -> Result<HealthSnapshot, SnapshotError> {
        if self.corrupt.contains(&replica) {
            return Err(SnapshotError::Corrupt("scripted corruption".to_string()));
        }
        self.snaps
            .get(&replica)
            .cloned()
            .ok_or(SnapshotError::Missing)
    }
}

/// Disk-backed snapshot store: one `replica<id>.json` per replica under
/// a directory, written atomically through qt-ckpt.
#[derive(Debug, Clone)]
pub struct DirSnapStore {
    dir: PathBuf,
}

impl DirSnapStore {
    /// Store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The snapshot path for `replica`.
    pub fn path(&self, replica: usize) -> PathBuf {
        self.dir.join(format!("replica{replica}.json"))
    }

    /// The SEC-DED parity sidecar guarding `replica`'s snapshot bytes.
    pub fn ecc_path(&self, replica: usize) -> PathBuf {
        self.dir.join(format!("replica{replica}.json.ecc"))
    }
}

impl SnapStore for DirSnapStore {
    fn save(&mut self, replica: usize, snap: &HealthSnapshot) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path(replica);
        snap.save(&path)?;
        let bytes = std::fs::read(&path)?;
        qt_ckpt::atomic_write(&self.ecc_path(replica), &qt_ckpt::ecc_plane(&bytes))
    }

    fn load(&self, replica: usize) -> Result<HealthSnapshot, SnapshotError> {
        let path = self.path(replica);
        // Parity sidecar first: a single flipped storage bit is corrected
        // (and healed on disk) before the JSON parse would reject the
        // snapshot as corrupt. Anything worse still fails loudly below.
        if let (Ok(mut bytes), Ok(plane)) =
            (std::fs::read(&path), std::fs::read(self.ecc_path(replica)))
        {
            if let qt_ckpt::EccOutcome::Corrected(_) = qt_ckpt::ecc_verify(&mut bytes, &plane) {
                let _ = qt_ckpt::atomic_write(&path, &bytes);
            }
        }
        HealthSnapshot::load(&path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicaSpec;
    use qt_quant::ElemFormat;
    use qt_robust::NoFaults;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        Model::new(
            TransformerConfig::mobilebert_tiny_sim(),
            TaskHead::Classify(2),
            &mut rng,
        )
    }

    fn snap_with_trips(trips: u64) -> HealthSnapshot {
        HealthSnapshot {
            breaker_state: BreakerState::Closed,
            breaker_trips: trips,
            unhealthy_rate: 0.0,
            offered: 0,
            served_primary: 0,
            served_degraded: 0,
            shed_queue_full: 0,
            deadline_miss: 0,
        }
    }

    #[test]
    fn recovery_forces_open_and_keeps_trip_continuity() {
        let spec = ReplicaSpec::new(ElemFormat::P8E1);
        let mut r = Replica::new(0, tiny_model(), spec, Box::new(NoFaults), 1);
        assert_eq!(r.breaker_state(), BreakerState::Closed);
        // Intact snapshot: trip history resumes, breaker forced Open.
        r.recover(Ok(snap_with_trips(4)), 50);
        assert_eq!(r.breaker_state(), BreakerState::Open);
        assert_eq!(r.breaker.borrow().trips(), 5, "4 resumed + forced trip");
        assert_eq!(r.stats.recoveries, 1);
        assert_eq!(r.stats.snapshot_resumes, 1);
        assert_eq!(r.last_recovery_us, Some(50));
        // Corrupt snapshot: counted loudly, fresh history, still Open.
        r.recover(Err(SnapshotError::Corrupt("bit rot".to_string())), 60);
        assert_eq!(r.stats.snapshot_corrupt, 1);
        assert_eq!(r.breaker.borrow().trips(), 1, "no silent resume from rot");
        assert_eq!(r.breaker_state(), BreakerState::Open);
        // Missing snapshot: silent fresh boot, still re-earns traffic.
        r.recover(Err(SnapshotError::Missing), 70);
        assert_eq!(r.stats.snapshot_corrupt, 1, "missing is not corrupt");
        assert_eq!(r.stats.recoveries, 3);
        assert_eq!(r.breaker_state(), BreakerState::Open);
    }

    #[test]
    fn mem_store_scripts_corruption_until_next_save() {
        let mut s = MemSnapStore::new();
        assert!(s.is_empty());
        assert_eq!(s.load(0), Err(SnapshotError::Missing));
        s.save(0, &snap_with_trips(2)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.load(0).unwrap().breaker_trips, 2);
        s.corrupt(0);
        assert!(matches!(s.load(0), Err(SnapshotError::Corrupt(_))));
        // A fresh save heals the scripted rot.
        s.save(0, &snap_with_trips(3)).unwrap();
        assert_eq!(s.load(0).unwrap().breaker_trips, 3);
    }

    #[test]
    fn dir_store_round_trips_real_files() {
        let dir = std::env::temp_dir().join("qt_fleet_dirsnap_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut s = DirSnapStore::new(&dir);
        assert_eq!(s.load(1), Err(SnapshotError::Missing));
        s.save(1, &snap_with_trips(7)).unwrap();
        assert_eq!(s.load(1).unwrap().breaker_trips, 7);
        std::fs::write(s.path(1), "not json").unwrap();
        assert!(matches!(s.load(1), Err(SnapshotError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_store_sidecar_heals_single_bit_rot() {
        let dir = std::env::temp_dir().join("qt_fleet_dirsnap_ecc_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut s = DirSnapStore::new(&dir);
        s.save(2, &snap_with_trips(9)).unwrap();
        assert!(s.ecc_path(2).exists(), "parity sidecar written");
        // Flip one storage bit mid-file: plain JSON+schema validation
        // would reject this as corrupt; the sidecar corrects it.
        let mut bytes = std::fs::read(s.path(2)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(s.path(2), &bytes).unwrap();
        assert_eq!(s.load(2).unwrap().breaker_trips, 9, "rot corrected");
        // And the correction was healed back onto disk.
        let healed = std::fs::read(s.path(2)).unwrap();
        assert_eq!(healed[mid], bytes[mid] ^ 0x10);
        // Two flipped bits in one 8-byte word exceed SEC-DED: loud corrupt
        // (byte 2 mangles the `schema` key, so the parse must reject).
        let mut bytes = std::fs::read(s.path(2)).unwrap();
        bytes[2] ^= 0x21;
        std::fs::write(s.path(2), &bytes).unwrap();
        assert!(matches!(s.load(2), Err(SnapshotError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shield_attaches_and_recovery_rebuilds_pristine() {
        use crate::config::ShieldConfig;
        let spec = ReplicaSpec::new(ElemFormat::P8E1);
        let mut r = Replica::new(0, tiny_model(), spec, Box::new(NoFaults), 1)
            .with_shield(&ShieldConfig::default());
        assert!(r.shield.is_some());
        assert!(!r.shield_quarantined());
        // Double-bit rot quarantines a region...
        let st = r.shield.as_mut().unwrap();
        st.shield.inject(0, 0, 2);
        st.shield.inject(0, 0, 44);
        st.shield.verify_reads();
        assert!(r.shield_quarantined());
        // ...and a reboot reloads the plane from the masters: pristine.
        r.recover(Err(SnapshotError::Missing), 10);
        assert!(!r.shield_quarantined());
        assert_eq!(r.shield.as_ref().unwrap().shield.stats().flips_injected, 0);
    }
}
