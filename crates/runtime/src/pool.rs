//! The scoped fork/join loop and the deterministic-merge parallel primitives.
//!
//! # Execution model
//!
//! Every `par_*` call is one structured fork/join region. The index space
//! `0..len` is cut into contiguous chunks, several per worker so uneven
//! per-item cost still balances. `threads() − 1` workers are spawned with
//! [`std::thread::scope`] (they borrow the caller's data directly) and the
//! calling thread works alongside them. Each worker claims the next chunk
//! with one [`AtomicUsize::fetch_add`] on a shared cursor until the cursor
//! passes `len`, and tags each output with its chunk's start index; after
//! the join the outputs are merged in index order, so the result is
//! **exactly** the sequential left-to-right result.
//!
//! A panic inside the mapped closure is caught per chunk and raises a stop
//! flag that keeps every worker from claiming further chunks; the original
//! payload is re-raised on the calling thread once every worker has joined.
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in order: the calling thread's [`set_threads`]
//! override, the `LPH_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. A resolved count of `1` (in
//! particular `LPH_THREADS=1`) makes every primitive run its plain
//! sequential loop on the calling thread — no pool, no catch boundary —
//! which is the mode to use under a debugger.
//!
//! # Observability
//!
//! When the global [`lph_trace`] recorder is enabled, every region reports
//! a `pool/region` span, `pool/regions` and `pool/workers_spawned`
//! counters, a `pool/chunks` counter with a `pool/chunk_ns` histogram per
//! executed chunk, and `pool/chunks_per_worker`. All of it is
//! scheduling-dependent, which is why the `pool/` namespace is excluded
//! from [`lph_trace::Snapshot`]'s deterministic fingerprint.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

type PanicPayload = Box<dyn Any + Send + 'static>;

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Overrides the worker count used by the `par_*` primitives **for the
/// calling thread**; `0` clears the override. Being thread-local,
/// concurrent tests (or nested pools) cannot race each other's settings.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.with(|o| o.set(n));
}

/// The worker count the `par_*` primitives will use: the calling thread's
/// [`set_threads`] override if set, else `LPH_THREADS` if set and positive,
/// else the machine's available parallelism.
pub fn threads() -> usize {
    let overridden = THREAD_OVERRIDE.with(Cell::get);
    if overridden > 0 {
        // The override decides alone: skip the environment lookup and the
        // hardware probe (cgroup reads on Linux).
        return overridden;
    }
    resolve_threads(
        0,
        std::env::var("LPH_THREADS").ok().as_deref(),
        thread::available_parallelism().map_or(1, usize::from),
    )
}

/// Pure resolution order: override, then environment, then hardware.
fn resolve_threads(overridden: usize, env: Option<&str>, available: usize) -> usize {
    if overridden > 0 {
        return overridden;
    }
    if let Some(n) = env.and_then(|v| v.trim().parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    available.max(1)
}

/// Chunk size targeting several chunks per worker for load balance.
fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.saturating_mul(8).max(1)).max(1)
}

/// The one fork/join loop: runs `chunk` over the contiguous chunks of
/// `0..len` on [`threads`] workers, the calling thread being one of them,
/// and concatenates the chunk outputs in index order. At width 1 it is the
/// plain `chunk(0..len)` on the calling thread.
fn fork_join<U, C>(len: usize, chunk: C) -> Vec<U>
where
    U: Send,
    C: Fn(Range<usize>) -> Vec<U> + Sync,
{
    // Fewer than two items cannot be split: skip resolving the width (and
    // its hardware probe).
    let workers = if len < 2 { 1 } else { threads().min(len) };
    if workers <= 1 {
        return chunk(0..len);
    }
    let _span = lph_trace::span("pool/region");
    lph_trace::add("pool/regions", 1);
    lph_trace::add("pool/workers_spawned", workers as u64 - 1);
    let step = chunk_len(len, workers);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    let worker = || -> Result<Vec<(usize, Vec<U>)>, PanicPayload> {
        let mut local = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let start = cursor.fetch_add(step, Ordering::Relaxed);
            if start >= len {
                break;
            }
            let range = start..(start + step).min(len);
            let t0 = lph_trace::enabled().then(Instant::now);
            match catch_unwind(AssertUnwindSafe(|| chunk(range))) {
                Ok(out) => local.push((start, out)),
                Err(payload) => {
                    stop.store(true, Ordering::Relaxed);
                    return Err(payload);
                }
            }
            if let Some(t0) = t0 {
                lph_trace::add("pool/chunks", 1);
                lph_trace::observe(
                    "pool/chunk_ns",
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
        }
        lph_trace::observe("pool/chunks_per_worker", local.len() as u64);
        Ok(local)
    };

    let joined = thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        let mut joined = vec![worker()];
        joined.extend(handles.into_iter().map(|h| {
            h.join()
                .expect("worker panicked outside the catch boundary")
        }));
        joined
    });

    let mut parts = Vec::new();
    for outcome in joined {
        match outcome {
            Ok(local) => parts.extend(local),
            Err(payload) => resume_unwind(payload),
        }
    }
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(parts.iter().map(|(_, part)| part.len()).sum());
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// Maps `f` over `0..len`, returning the results in index order — exactly
/// `(0..len).map(f).collect()`, computed on [`threads`] workers.
pub fn par_map_index<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    fork_join(len, |range| range.map(&f).collect())
}

/// Maps `f` over a slice, returning the results in input order — exactly
/// `items.iter().map(f).collect()`, computed on [`threads`] workers.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_index(items.len(), |i| f(&items[i]))
}

/// Filter-maps `f` over `0..len`, keeping survivors in index order —
/// exactly `(0..len).filter_map(f).collect()`. Memory stays proportional
/// to the *kept* results, which is what makes it the right shape for
/// sparse sweeps like connected-graph enumeration over all edge masks.
pub fn par_filter_map_index<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> Option<U> + Sync,
{
    fork_join(len, |range| range.filter_map(&f).collect())
}

/// Flat-maps `f` over a slice, concatenating the per-item vectors in input
/// order — exactly `items.iter().flat_map(f).collect()`.
pub fn par_flat_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Vec<U> + Sync,
{
    fork_join(items.len(), |range| {
        items[range].iter().flat_map(&f).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_precedence() {
        assert_eq!(resolve_threads(3, Some("8"), 16), 3, "override wins");
        assert_eq!(resolve_threads(0, Some("8"), 16), 8, "env next");
        assert_eq!(resolve_threads(0, Some(" 2 "), 16), 2, "env is trimmed");
        assert_eq!(resolve_threads(0, Some("0"), 16), 16, "zero env ignored");
        assert_eq!(resolve_threads(0, Some("no"), 16), 16, "bad env ignored");
        assert_eq!(resolve_threads(0, None, 16), 16, "hardware last");
        assert_eq!(resolve_threads(0, None, 0), 1, "at least one worker");
        assert_eq!(resolve_threads(0, Some("1"), 16), 1, "LPH_THREADS=1");
    }

    #[test]
    fn every_primitive_matches_its_sequential_loop_at_every_width() {
        let items: Vec<usize> = (0..997).collect();
        let map: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        let kept: Vec<usize> = (0..997).filter(|i| i % 7 == 0).collect();
        let flat: Vec<usize> = items.iter().flat_map(|&i| vec![i; i % 3]).collect();
        for workers in [1, 2, 3, 4, 7, 64] {
            set_threads(workers);
            assert_eq!(par_map(&items, |&x| x * x + 1), map);
            assert_eq!(par_map_index(997, |x| x * x + 1), map);
            let par = par_filter_map_index(997, |i| (i % 7 == 0).then_some(i));
            assert_eq!(par, kept);
            assert_eq!(par_flat_map(&items, |&i| vec![i; i % 3]), flat);
            assert_eq!(par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
            assert_eq!(par_flat_map(&[9u8], |&x| vec![x, x]), vec![9, 9]);
        }
        set_threads(0);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..256).collect();
        set_threads(4);
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&i| {
                assert!(i != 97, "poisoned item {i}");
                i
            })
        });
        set_threads(0);
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().cloned();
        let msg = msg.unwrap_or_default();
        assert!(msg.contains("poisoned item 97"), "payload kept: {msg}");
    }

    #[test]
    fn slow_items_spread_over_the_workers_and_still_merge_in_order() {
        // Slow items make several workers claim chunks, so the merge has
        // interleaved outputs to put back in order; every chunk runs on the
        // caller or on one of the `workers - 1` spawned threads.
        let caller = thread::current().id();
        for workers in [2, 3, 4, 7] {
            set_threads(workers);
            let out = par_map_index(64, |i| {
                thread::sleep(std::time::Duration::from_micros(200));
                (i, thread::current().id())
            });
            assert!(
                out.iter().map(|&(i, _)| i).eq(0..64),
                "order at width {workers}"
            );
            let spawned: std::collections::HashSet<_> = out
                .iter()
                .map(|&(_, id)| id)
                .filter(|&id| id != caller)
                .collect();
            assert!(spawned.len() < workers, "at most workers - 1 spawned");
        }
        set_threads(0);
    }

    #[test]
    fn thread_override_is_thread_local() {
        set_threads(5);
        assert_eq!(threads(), 5);
        let other = thread::spawn(threads).join().expect("spawned thread");
        // The spawned thread sees its own (unset) override, not ours.
        assert_ne!(other, 0);
        set_threads(0);
    }
}
