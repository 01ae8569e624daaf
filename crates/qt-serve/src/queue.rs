//! Bounded MPMC admission queue with explicit backpressure.
//!
//! Admission control is the first line of overload defence: a server that
//! accepts everything converts overload into unbounded latency for
//! *every* request, while a bounded queue converts it into fast, explicit
//! [`Rejected::QueueFull`] rejections for the excess — the callers that
//! are rejected know immediately, and the callers that are admitted still
//! get bounded queueing delay. Producers never block; consumers block
//! until work arrives or the queue is closed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why an offered item was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The queue already holds `capacity` items — shed the request
    /// instead of growing the backlog. Carries the observed backlog so
    /// overload controllers and telemetry can distinguish "full at 8"
    /// from "full at 4096" without re-querying the queue.
    QueueFull {
        /// Items waiting when the push was rejected.
        depth: usize,
        /// Admission capacity of the rejecting queue.
        capacity: usize,
    },
    /// The queue was closed (server shutting down).
    Closed,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            Rejected::Closed => write!(f, "queue closed"),
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// A fixed-capacity multi-producer multi-consumer FIFO on
/// `Mutex` + `Condvar` (no external dependencies).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Take the queue lock, recovering from poison. A worker that panics
    /// while holding this lock poisons it for every *other* worker and
    /// producer; every critical section here either completes its
    /// mutation or leaves the deque untouched, so the state behind a
    /// poisoned lock is still coherent — recovering keeps the rest of
    /// the fleet serving instead of cascading one panic into a total
    /// outage.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue admitting at most `capacity` waiting items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer an item without blocking. Full or closed queues reject —
    /// the item comes back with the reason so the caller can account for
    /// the shed.
    pub fn try_push(&self, item: T) -> Result<(), (T, Rejected)> {
        let mut g = self.lock();
        if g.closed {
            return Err((item, Rejected::Closed));
        }
        if g.items.len() >= self.capacity {
            let why = Rejected::QueueFull {
                depth: g.items.len(),
                capacity: self.capacity,
            };
            return Err((item, why));
        }
        g.items.push_back(item);
        g.max_depth = g.max_depth.max(g.items.len());
        drop(g);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the next item, blocking until one arrives. `None` once the
    /// queue is closed *and* drained — the consumer's shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: producers are rejected from now on, consumers
    /// drain the backlog and then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the backlog since construction.
    pub fn max_depth(&self) -> usize {
        self.lock().max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_when_closed() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (item, why) = q.try_push(3).unwrap_err();
        assert_eq!(
            (item, why),
            (
                3,
                Rejected::QueueFull {
                    depth: 2,
                    capacity: 2
                }
            )
        );
        assert_eq!(why.to_string(), "queue full (2/2)");
        assert_eq!(q.max_depth(), 2);
        q.close();
        let (_, why) = q.try_push(4).unwrap_err();
        assert_eq!(why, Rejected::Closed);
        // The backlog still drains after close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_err());
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for i in 0..200u64 {
            // Retry QueueFull a few times so consumers make progress;
            // count what is ultimately shed.
            let mut item = i;
            let mut ok = false;
            for _ in 0..50 {
                match q.try_push(item) {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err((back, Rejected::QueueFull { .. })) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err((_, Rejected::Closed)) => unreachable!(),
                }
            }
            if ok {
                admitted += 1;
            } else {
                shed += 1;
            }
        }
        q.close();
        let total: u64 = consumers
            .into_iter()
            .map(|h| h.join().unwrap().len() as u64)
            .sum();
        assert_eq!(total, admitted);
        assert_eq!(admitted + shed, 200);
    }
}
