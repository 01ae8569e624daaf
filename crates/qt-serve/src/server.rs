//! The threaded serving runtime: real workers over the bounded
//! admission queue.
//!
//! This is the deployment shape of the same machinery the deterministic
//! simulation drives: `workers` OS threads pull from a [`BoundedQueue`],
//! run requests through one shared [`Engine`], and coordinate
//! degradation through a mutex-guarded [`CircuitBreaker`]. The breaker
//! lock is held only for the route/record calls — never across a forward
//! pass — so workers contend for microseconds, not model latency.
//!
//! Two semantics differ from the simulation, deliberately:
//!
//! - **Time** is a logical tick (one per breaker interaction), not
//!   virtual µs — real threads have no deterministic clock, and the
//!   breaker only needs ordering.
//! - **Deadlines** are enforced as service budgets from the moment a
//!   worker picks the request up: the block-budget token still cancels
//!   mid-model, but queue wait is not counted against it.
//!
//! Aggregate counters from a threaded run match the simulation's
//! *reconciliation invariant* (every submission ends in exactly one
//! outcome), but ordering-dependent details (which request trips the
//! breaker) are scheduling-dependent — that is what the simulation is
//! for.

use crate::breaker::{CircuitBreaker, Transition};
use crate::config::ServeConfig;
use crate::engine::Engine;
use crate::queue::{BoundedQueue, Rejected};
use crate::request::{Request, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

struct Shared {
    engine: Engine,
    breaker: Mutex<CircuitBreaker>,
    queue: BoundedQueue<Request>,
    responses: Mutex<Vec<Response>>,
    clock: AtomicU64,
}

impl Shared {
    /// Breaker lock with poison recovery: if a worker panicked holding
    /// it, the breaker inside is still a coherent state machine (its
    /// methods never leave it half-updated across an unwind point), and
    /// losing one health sample is strictly better than every remaining
    /// worker panicking on `PoisonError` — one bad attempt must degrade,
    /// not take down the fleet.
    fn breaker(&self) -> MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Response-log lock, same poison-recovery rationale: `push` either
    /// appends or doesn't, so the vec behind a poisoned lock is intact.
    fn responses(&self) -> MutexGuard<'_, Vec<Response>> {
        self.responses.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running pool of serving workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// What a server run produced, available after [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Every response (served, shed, and missed), sorted by request id.
    pub responses: Vec<Response>,
    /// Breaker trips over the run.
    pub breaker_trips: u64,
    /// Breaker state changes, timestamped with the logical tick.
    pub transitions: Vec<Transition>,
    /// High-water mark of the admission queue.
    pub max_queue_depth: u64,
}

impl Server {
    /// Spawn `cfg.workers` threads serving `engine`.
    pub fn start(engine: Engine, cfg: &ServeConfig) -> Self {
        let cfg = cfg.clone().normalized();
        let shared = Arc::new(Shared {
            engine,
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            queue: BoundedQueue::new(cfg.queue_cap),
            responses: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Self { shared, workers }
    }

    /// Submit one request. A full queue sheds it immediately: the shed
    /// response is recorded and `Err(Rejected::QueueFull)` tells the
    /// caller backpressure is in effect.
    pub fn submit(&self, req: Request) -> Result<(), Rejected> {
        match self.shared.queue.try_push(req) {
            Ok(()) => Ok(()),
            Err((req, why)) => {
                if matches!(why, Rejected::QueueFull { .. }) {
                    self.shared.responses().push(Response::shed(&req));
                }
                Err(why)
            }
        }
    }

    /// Close admission, drain the queue, join every worker, and return
    /// the run's outcomes.
    pub fn shutdown(self) -> ServerStats {
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        let breaker = self.shared.breaker();
        let mut responses = std::mem::take(&mut *self.shared.responses());
        responses.sort_by_key(|r| r.id);
        ServerStats {
            responses,
            breaker_trips: breaker.trips(),
            transitions: breaker.transitions().to_vec(),
            max_queue_depth: self.shared.queue.max_depth() as u64,
        }
    }
}

fn worker_loop(sh: &Shared) {
    while let Some(req) = sh.queue.pop() {
        let out = sh.engine.process(
            &req,
            req.arrival_us,
            |_| {
                let t = sh.clock.fetch_add(1, Ordering::Relaxed);
                sh.breaker().route(t)
            },
            |h, _| {
                let t = sh.clock.fetch_add(1, Ordering::Relaxed);
                sh.breaker().on_primary_outcome(h, t)
            },
        );
        sh.responses().push(out.response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OutcomeKind;
    use qt_robust::NoFaults;
    use qt_transformer::{Model, TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn engine(cfg: &ServeConfig) -> Engine {
        let mut rng = StdRng::seed_from_u64(11);
        let model = Model::new(
            TransformerConfig::mobilebert_tiny_sim(),
            TaskHead::Classify(2),
            &mut rng,
        );
        Engine::new(model, cfg, Box::new(NoFaults))
    }

    fn request(id: u64, vocab: usize) -> Request {
        let mut rng = StdRng::seed_from_u64(500 + id);
        Request::new(id, (0..8).map(|_| rng.gen_range(0..vocab)).collect())
    }

    #[test]
    fn threaded_server_serves_all_and_reconciles() {
        let cfg = ServeConfig {
            workers: 3,
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let eng = engine(&cfg);
        let vocab = eng.model().cfg.vocab;
        let server = Server::start(eng, &cfg);
        let offered = 24u64;
        let mut shed = 0u64;
        for id in 0..offered {
            if server.submit(request(id, vocab)).is_err() {
                shed += 1;
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.responses.len() as u64, offered);
        let served = stats
            .responses
            .iter()
            .filter(|r| r.outcome.is_served())
            .count() as u64;
        let recorded_shed = stats
            .responses
            .iter()
            .filter(|r| r.outcome == OutcomeKind::ShedQueueFull)
            .count() as u64;
        assert_eq!(recorded_shed, shed);
        assert_eq!(
            served + recorded_shed,
            offered,
            "no deadline set: all else serves"
        );
        // Every response id is unique and in range.
        let mut ids: Vec<u64> = stats.responses.iter().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(ids.len() as u64, offered);
    }

    /// A worker that panics while holding the coordination locks must
    /// not take the rest of the fleet with it: the poisoned locks are
    /// recovered and a fresh worker keeps serving.
    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 8,
            ..ServeConfig::default()
        }
        .normalized();
        let eng = engine(&cfg);
        let vocab = eng.model().cfg.vocab;
        let shared = Arc::new(Shared {
            engine: eng,
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            queue: BoundedQueue::new(cfg.queue_cap),
            responses: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
        });
        // Induce the failure mode: a thread panics while holding both
        // coordination locks, poisoning them for everyone else.
        let sh = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _breaker = sh.breaker.lock().unwrap();
            let _responses = sh.responses.lock().unwrap();
            panic!("induced worker panic");
        })
        .join();
        assert!(shared.breaker.lock().is_err(), "breaker lock is poisoned");
        assert!(
            shared.responses.lock().is_err(),
            "response lock is poisoned"
        );
        // A fresh worker must still serve through the poisoned locks.
        shared
            .queue
            .try_push(request(0, vocab))
            .expect("queue admits");
        shared.queue.close();
        worker_loop(&shared);
        let responses = shared.responses();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].outcome.is_served());
    }

    #[test]
    fn tiny_queue_sheds_with_backpressure_error() {
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let eng = engine(&cfg);
        let vocab = eng.model().cfg.vocab;
        let server = Server::start(eng, &cfg);
        let offered = 32u64;
        let mut rejected = 0u64;
        for id in 0..offered {
            if let Err(e) = server.submit(request(id, vocab)) {
                assert!(matches!(
                    e,
                    Rejected::QueueFull {
                        depth: 1,
                        capacity: 1
                    }
                ));
                rejected += 1;
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.responses.len() as u64, offered);
        let shed = stats
            .responses
            .iter()
            .filter(|r| r.outcome == OutcomeKind::ShedQueueFull)
            .count() as u64;
        assert_eq!(shed, rejected, "every rejection has a shed response");
    }
}
