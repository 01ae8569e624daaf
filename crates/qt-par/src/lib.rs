//! Zero-dependency data parallelism on scoped threads.
//!
//! The workspace builds offline, so there is no rayon; this crate provides
//! the small slice-parallel surface the kernels need, built entirely on
//! [`std::thread::scope`]:
//!
//! - [`parallel_for`] — run a closure over unit indices `0..units`;
//! - [`parallel_map_slices`] — map fixed-size chunks of a slice to values,
//!   returned in chunk order;
//! - [`parallel_for_slices_mut`] / [`parallel_map_slices_mut`] — hand out
//!   disjoint mutable chunks (safe: the slice is carved with
//!   `split_at_mut`, no aliasing is possible);
//! - [`parallel_for_parts_mut`] — the same with caller-chosen part lengths
//!   (the GEMM uses this to align parts to `batch × row-block` units).
//!
//! # Determinism contract
//!
//! Every function in this crate partitions work by *fixed* chunk
//! boundaries that depend only on the input length and the caller's chunk
//! size — never on the thread count. Each chunk is computed independently
//! and lands in its own disjoint output region, so results (and the
//! [`tasks_executed`] counter) are **bitwise identical for any thread
//! count**, including fully serial execution. Callers must follow the same
//! rule: never branch on [`threads`] when choosing chunk sizes.
//!
//! # Pool sizing
//!
//! The process-global pool size comes from the `QT_THREADS` environment
//! variable, read once (0 or unset → [`std::thread::available_parallelism`]).
//! Tests and benchmarks override it for the current thread with
//! [`with_threads`] / [`serial`].

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-global pool size, parsed from `QT_THREADS` exactly once.
static CONFIGURED: OnceLock<usize> = OnceLock::new();

/// Total chunk tasks dispatched through this crate (monotonic; feeds the
/// `par.chunk_tasks` metric). Deterministic across thread counts because
/// chunk boundaries are.
static TASKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Innermost [`count_tasks`] scope active on this thread (inherited
    /// by the workers this crate spawns).
    static SCOPE: RefCell<Option<Arc<TaskScope>>> = const { RefCell::new(None) };
}

/// One [`count_tasks`] counter, chained to the scope it is nested in.
struct TaskScope {
    tasks: AtomicU64,
    parent: Option<Arc<TaskScope>>,
}

/// Run `f` with `scope` as this thread's innermost task scope, restoring
/// the previous one on exit (including on panic).
fn in_scope<R>(scope: Option<Arc<TaskScope>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<TaskScope>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
    let _restore = Restore(SCOPE.with(|s| s.replace(scope)));
    f()
}

fn current_scope() -> Option<Arc<TaskScope>> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Count `n` dispatched chunk tasks: process-wide and in every
/// [`count_tasks`] scope enclosing the issuing thread.
fn note_tasks(n: u64) {
    TASKS.fetch_add(n, Ordering::Relaxed);
    let mut scope = current_scope();
    while let Some(s) = scope {
        s.tasks.fetch_add(n, Ordering::Relaxed);
        scope = s.parent.clone();
    }
}

/// The `QT_THREADS` value this process was configured with, if set.
pub fn qt_threads_env() -> Option<String> {
    std::env::var("QT_THREADS").ok()
}

fn configured() -> usize {
    *CONFIGURED.get_or_init(|| {
        match qt_threads_env().and_then(|s| s.trim().parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// Effective pool size for work issued from the current thread: the
/// [`with_threads`] override if one is active, else the process-global
/// `QT_THREADS` configuration. Always ≥ 1.
pub fn threads() -> usize {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(configured).max(1)
}

/// Run `f` with the pool size pinned to `n` on the current thread.
///
/// Scoped and re-entrant: the previous override (if any) is restored on
/// exit, including on panic. This is how the determinism tests sweep
/// thread counts within one process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            OVERRIDE.with(|o| o.set(prev));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Escape hatch: run `f` with all qt-par work on the calling thread.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    with_threads(1, f)
}

/// Chunk tasks dispatched so far, process-wide. Same value for the same
/// workload at any thread count.
pub fn tasks_executed() -> u64 {
    TASKS.load(Ordering::Relaxed)
}

/// Run `f` and return its result with the number of chunk tasks it
/// issued: from the calling thread and from the worker threads this crate
/// spawns on its behalf, at any nesting depth. Work issued concurrently by
/// other threads is not counted, so the count is the same whether or not
/// other workloads run alongside. Nested scopes also count towards the
/// enclosing ones.
pub fn count_tasks<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let scope = Arc::new(TaskScope {
        tasks: AtomicU64::new(0),
        parent: current_scope(),
    });
    let r = in_scope(Some(Arc::clone(&scope)), f);
    (r, scope.tasks.load(Ordering::Relaxed))
}

/// Run `f(u)` for every `u in 0..units`, distributing contiguous index
/// ranges over the pool. `f` must only touch state disjoint per unit.
pub fn parallel_for(units: usize, f: impl Fn(usize) + Sync) {
    if units == 0 {
        return;
    }
    note_tasks(units as u64);
    let t = threads().min(units);
    if t <= 1 {
        for u in 0..units {
            f(u);
        }
        return;
    }
    let scope = current_scope();
    std::thread::scope(|s| {
        for (lo, hi) in ranges(units, t) {
            let f = &f;
            let scope = scope.clone();
            s.spawn(move || {
                in_scope(scope, || {
                    for u in lo..hi {
                        f(u);
                    }
                })
            });
        }
    });
}

/// Map chunks of `chunk_len` elements of `data` through `f(chunk_index,
/// element_offset, chunk)`, returning the results in chunk order. The last
/// chunk may be short; `chunk_len` is clamped to ≥ 1.
pub fn parallel_map_slices<T: Sync, R: Send>(
    data: &[T],
    chunk_len: usize,
    f: impl Fn(usize, usize, &[T]) -> R + Sync,
) -> Vec<R> {
    let chunk_len = chunk_len.max(1);
    let nchunks = data.len().div_ceil(chunk_len);
    if nchunks == 0 {
        return Vec::new();
    }
    note_tasks(nchunks as u64);
    let t = threads().min(nchunks);
    let run = |c: usize| {
        let off = c * chunk_len;
        let end = (off + chunk_len).min(data.len());
        f(c, off, &data[off..end])
    };
    if t <= 1 {
        return (0..nchunks).map(run).collect();
    }
    let scope = current_scope();
    let mut out: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges(nchunks, t)
            .into_iter()
            .map(|(lo, hi)| {
                let run = &run;
                let scope = scope.clone();
                s.spawn(move || in_scope(scope, || (lo..hi).map(run).collect::<Vec<R>>()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let mut all = Vec::with_capacity(nchunks);
    for part in out.drain(..) {
        all.extend(part);
    }
    all
}

/// Run `f(chunk_index, element_offset, chunk)` over disjoint mutable
/// chunks of `chunk_len` elements.
pub fn parallel_for_slices_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let _: Vec<()> = parallel_map_slices_mut(data, chunk_len, |c, off, ch| f(c, off, ch));
}

/// [`parallel_for_slices_mut`] that also collects one `R` per chunk, in
/// chunk order — how per-chunk health-counter-style partials come back.
pub fn parallel_map_slices_mut<T: Send, R: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let chunk_len = chunk_len.max(1);
    let n = data.len();
    let lens: Vec<usize> = (0..n.div_ceil(chunk_len))
        .map(|c| chunk_len.min(n - c * chunk_len))
        .collect();
    parallel_for_parts_mut(data, &lens, f)
}

/// Run `f(part_index, element_offset, part)` over disjoint mutable parts
/// whose lengths the caller supplies (`part_lens` must sum to
/// `data.len()`). Parts are assigned to threads in contiguous runs; the
/// returned values are in part order regardless of thread count.
///
/// # Panics
///
/// Panics if `part_lens` does not sum to `data.len()`.
pub fn parallel_for_parts_mut<T: Send, R: Send>(
    data: &mut [T],
    part_lens: &[usize],
    f: impl Fn(usize, usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let total: usize = part_lens.iter().sum();
    assert_eq!(total, data.len(), "part lengths must cover the slice");
    let nparts = part_lens.len();
    if nparts == 0 {
        return Vec::new();
    }
    note_tasks(nparts as u64);
    let t = threads().min(nparts);
    if t <= 1 {
        let mut out = Vec::with_capacity(nparts);
        let mut rest = data;
        let mut off = 0;
        for (p, &len) in part_lens.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(len);
            out.push(f(p, off, head));
            off += len;
            rest = tail;
        }
        return out;
    }
    let scope = current_scope();
    let mut out: Vec<Vec<R>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(t);
        let mut rest = data;
        let mut off = 0;
        let mut part = 0;
        for (lo, hi) in ranges(nparts, t) {
            let span: usize = part_lens[lo..hi].iter().sum();
            let (head, tail) = rest.split_at_mut(span);
            rest = tail;
            let base_off = off;
            off += span;
            debug_assert_eq!(part, lo);
            part = hi;
            let f = &f;
            let scope = scope.clone();
            handles.push(s.spawn(move || {
                in_scope(scope, || {
                    let mut local = Vec::with_capacity(hi - lo);
                    let mut rest = head;
                    let mut off = base_off;
                    for (p, &len) in part_lens.iter().enumerate().take(hi).skip(lo) {
                        let (chunk, tail) = rest.split_at_mut(len);
                        local.push(f(p, off, chunk));
                        off += len;
                        rest = tail;
                    }
                    local
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let mut all = Vec::with_capacity(nparts);
    for p in out.drain(..) {
        all.extend(p);
    }
    all
}

/// Split `0..n` into `t` contiguous ranges whose sizes differ by ≤ 1.
fn ranges(n: usize, t: usize) -> Vec<(usize, usize)> {
    let base = n / t;
    let extra = n % t;
    let mut out = Vec::with_capacity(t);
    let mut lo = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly() {
        for n in [0usize, 1, 2, 5, 7, 16, 100] {
            for t in 1..=9 {
                let r = ranges(n, t);
                let mut expect = 0;
                for &(lo, hi) in &r {
                    assert_eq!(lo, expect);
                    assert!(hi > lo);
                    expect = hi;
                }
                assert_eq!(expect, n.min(expect.max(n)));
                assert_eq!(r.iter().map(|(l, h)| h - l).sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn parallel_for_touches_every_unit_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
        for t in [1, 2, 4, 8] {
            with_threads(t, || {
                parallel_for(hits.len(), |u| {
                    hits[u].fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn map_slices_in_chunk_order_for_any_thread_count() {
        let data: Vec<u32> = (0..103).collect();
        let expect: Vec<u64> = parallel_map_slices(&data, 10, |c, off, ch| {
            c as u64 * 1000 + off as u64 + ch.iter().map(|&x| x as u64).sum::<u64>()
        });
        for t in [1, 2, 3, 8] {
            let got = with_threads(t, || {
                parallel_map_slices(&data, 10, |c, off, ch| {
                    c as u64 * 1000 + off as u64 + ch.iter().map(|&x| x as u64).sum::<u64>()
                })
            });
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn mut_chunks_are_disjoint_and_ordered() {
        for t in [1, 2, 5] {
            let mut data = vec![0u32; 23];
            with_threads(t, || {
                parallel_for_slices_mut(&mut data, 4, |c, off, ch| {
                    for (i, x) in ch.iter_mut().enumerate() {
                        *x = (c * 100 + off + i) as u32;
                    }
                });
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, ((i / 4) * 100 + i) as u32, "threads={t}");
            }
        }
    }

    #[test]
    fn parts_respect_custom_lengths() {
        let mut data = vec![0u8; 10];
        let sums = parallel_for_parts_mut(&mut data, &[3, 1, 6], |p, off, part| {
            for x in part.iter_mut() {
                *x = p as u8 + 1;
            }
            off
        });
        assert_eq!(sums, vec![0, 3, 4]);
        assert_eq!(data, vec![1, 1, 1, 2, 3, 3, 3, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "cover the slice")]
    fn parts_must_cover() {
        let mut d = vec![0u8; 4];
        let _ = parallel_for_parts_mut(&mut d, &[1, 2], |_, _, _| ());
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn task_counter_is_thread_count_invariant() {
        let data = vec![1.0f32; 100];
        let count_at = |t: usize| {
            count_tasks(|| {
                with_threads(t, || {
                    let _ = parallel_map_slices(&data, 16, |_, _, c| c.len());
                })
            })
            .1
        };
        assert_eq!(count_at(1), 7); // ceil(100 / 16)
        assert_eq!(count_at(7), 7);
    }

    #[test]
    fn count_tasks_includes_nested_worker_calls() {
        // 4 outer units on 4 threads, each issuing a 3-chunk inner map on
        // its worker thread: 4 + 4·3 tasks, all attributed to this scope.
        let data = [0u8; 30];
        for t in [1, 4] {
            let ((), n) = count_tasks(|| {
                with_threads(t, || {
                    parallel_for(4, |_| {
                        let _ = parallel_map_slices(&data, 10, |_, _, c| c.len());
                    })
                })
            });
            assert_eq!(n, 16, "threads={t}");
        }
    }

    #[test]
    fn count_tasks_nests_and_ignores_other_threads() {
        let data = [0u8; 8];
        let (inner, outer) = count_tasks(|| {
            let _ = parallel_map_slices(&data, 4, |_, _, c| c.len());
            // A thread outside qt-par issues work that is not this scope's.
            std::thread::spawn(move || {
                let _ = parallel_map_slices(&data, 1, |_, _, c| c.len());
            })
            .join()
            .expect("outside thread");
            count_tasks(|| parallel_for(3, |_| {})).1
        });
        assert_eq!(inner, 3);
        assert_eq!(outer, 2 + 3);
    }
}
