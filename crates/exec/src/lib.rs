//! # mawilab-exec
//!
//! The workspace's single fan-out idiom: scoped-thread data
//! parallelism with one global thread-count policy.
//!
//! Every parallel stage of the pipeline — detector execution, the
//! sharded similarity-graph build — goes through [`par_map`] / [`par_for_each_mut`], so one environment
//! variable controls them all:
//!
//! * `MAWILAB_THREADS=<n>` caps the worker count (`1` forces fully
//!   sequential, in-line execution);
//! * unset (or unparsable), the hardware parallelism reported by
//!   [`std::thread::available_parallelism`] is used.
//!
//! All helpers are **deterministic**: results are returned in input
//! order regardless of the number of workers, so any stage built on
//! them produces identical output at any thread count. There is no
//! long-lived pool — workers are `std::thread::scope` threads, which
//! keeps the helpers dependency-free and lets them borrow from the
//! caller's stack.
//!
//! ## One fan-out level (the shared-pool policy)
//!
//! Helpers called from *inside* an exec worker run **inline** on that
//! worker. The outermost fan-out therefore owns the whole thread
//! budget: a day-level driver that maps whole pipelines over N days
//! uses `thread_count()` workers total, not `thread_count()` workers
//! each running another `thread_count()` detector/graph workers —
//! nesting never multiplies into `threads²` live threads. Because
//! every helper is deterministic at any worker count, inlining a
//! nested stage cannot change its output, only its schedule.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// True on threads spawned by these helpers: nested fan-outs from
    /// such a thread run inline instead of spawning another level.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as an exec worker for its lifetime;
/// restores the previous state on drop (the inline path reuses the
/// caller's thread, which may itself already be a worker).
struct WorkerGuard {
    was: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        let was = IN_WORKER.with(|f| f.replace(true));
        WorkerGuard { was }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_WORKER.with(|f| f.set(was));
    }
}

/// True when the calling thread is one of these helpers' workers — a
/// fan-out started here would run inline (see the module docs on the
/// one-fan-out-level policy).
fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Worker count for a fan-out over `n_items` under `cap`: the global
/// [`thread_count`] policy at the top level, always 1 (inline) inside
/// an existing worker.
fn fanout_width(n_items: usize, cap: usize) -> usize {
    if in_worker() {
        1
    } else {
        thread_count().min(cap).min(n_items)
    }
}

/// Number of worker threads the fan-out helpers use: the
/// `MAWILAB_THREADS` override when set to a positive integer,
/// otherwise the hardware parallelism (1 when unknown).
pub fn thread_count() -> usize {
    match std::env::var("MAWILAB_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => hardware_parallelism(),
        },
        Err(_) => hardware_parallelism(),
    }
}

fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`thread_count`] scoped threads,
/// returning the results in input order.
///
/// Work is distributed by atomic index pulling, so uneven per-item
/// cost balances automatically. With one worker (or one item) the map
/// runs in-line on the caller's thread — no spawn overhead on the
/// sequential path.
///
/// # Panics
/// Propagates a panic from `f` (the worker's panic aborts the map).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_capped(items, usize::MAX, f)
}

/// [`par_map`] with an explicit worker cap (`min(thread_count(),
/// cap)`). For outer-level drivers whose per-item work itself fans
/// out through these helpers — e.g. the bench day harness runs whole
/// pipelines per item — an uncapped outer map would multiply the two
/// levels into `threads²` live workers on big machines.
///
/// # Panics
/// Propagates a panic from `f` (the worker's panic aborts the map).
pub fn par_map_capped<T, R, F>(items: &[T], cap: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = fanout_width(items.len(), cap);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let _guard = WorkerGuard::enter();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    for (i, r) in parts.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("par_map worker skipped an item"))
        .collect()
}

/// Maps `f` over mutable items, splitting the slice into up to
/// [`thread_count`] contiguous chunks (one scoped thread per chunk);
/// results come back in input order. With one worker the map runs
/// in-line.
///
/// # Panics
/// Propagates a panic from `f`.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let workers = fanout_width(items.len(), usize::MAX);
    if workers <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    let parts: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| {
                s.spawn(move || {
                    let _guard = WorkerGuard::enter();
                    part.iter_mut().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map_mut worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// Runs `f` on every element of `items` in place, splitting the slice
/// into up to [`thread_count`] contiguous chunks (one scoped thread
/// per chunk). With one worker the loop runs in-line.
///
/// # Panics
/// Propagates a panic from `f`.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = fanout_width(items.len(), usize::MAX);
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|s| {
        for part in items.chunks_mut(chunk) {
            s.spawn(move || {
                let _guard = WorkerGuard::enter();
                for item in part {
                    f(item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_mut_preserves_order() {
        let mut items: Vec<usize> = (0..301).collect();
        let out = par_map_mut(&mut items, |x| {
            *x += 1;
            *x * 10
        });
        assert_eq!(out, (1..=301).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(items[0], 1);
    }

    #[test]
    fn par_for_each_mut_touches_every_item() {
        let mut items: Vec<usize> = vec![0; 257];
        par_for_each_mut(&mut items, |x| *x += 1);
        assert!(items.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_for_each_mut_is_inline_inside_a_worker() {
        let _guard = WorkerGuard::enter();
        let me = std::thread::current().id();
        let mut items: Vec<usize> = vec![0; 64];
        par_for_each_mut(&mut items, |x| {
            assert_eq!(
                std::thread::current().id(),
                me,
                "a nested loop must not spawn"
            );
            *x += 1;
        });
        assert!(items.iter().all(|&x| x == 1));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn nested_fanout_runs_inline() {
        // From inside a worker context, every helper must stay on the
        // calling thread — one fan-out level, no threads² nesting.
        let _guard = WorkerGuard::enter();
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let ids = par_map(&items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
        let mut muts: Vec<u32> = (0..64).collect();
        let ids = par_map_mut(&mut muts, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
        assert!(in_worker());
    }

    #[test]
    fn worker_guard_restores_state() {
        assert!(!in_worker());
        {
            let _outer = WorkerGuard::enter();
            assert!(in_worker());
            {
                let _inner = WorkerGuard::enter();
                assert!(in_worker());
            }
            assert!(in_worker(), "inner guard must restore, not clear");
        }
        assert!(!in_worker());
    }

    #[test]
    fn nested_results_are_still_correct() {
        let outer: Vec<usize> = (0..9).collect();
        let got = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..100).collect();
            par_map(&inner, |&j| i * j).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..9).map(|i| i * 4950).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // The determinism contract: same output at any worker count.
        // Swept via the cap (not the env override — mutating the
        // process environment would race with sibling tests; the
        // env path itself is covered by tests/thread_determinism.rs,
        // isolated in its own binary).
        let items: Vec<u64> = (0..503).map(|i| i * 17 % 101).collect();
        let expect: Vec<u64> = items.iter().map(|&i| i * i).collect();
        for cap in [1, 2, 7, usize::MAX] {
            assert_eq!(par_map_capped(&items, cap, |&i| i * i), expect, "cap {cap}");
        }
    }
}
