//! Integration-test-only crate; see `tests/` directory.
//!
//! It holds the deterministic fault-injection harness [`chaos`]: scheduled
//! failures, panicking and corrupting pipeline expressions, checkpoint kill
//! switches, on-disk record damage and a flaky cleaning oracle.
//!
//! It also holds the reference implementations the integration tests check
//! production code against: the scoped-spawn worker map below, the
//! `Value`-per-cell [`table::RefTable`], the recursive provenance tree
//! [`provenance::ProvExpr`], the per-query 1-NN certain-prediction check
//! [`certain_knn::certain_prediction_1nn`], and the refit-per-world KNN
//! template [`worlds::RefitKnn`]. The scalar-`Interval` references read a
//! symbolic matrix through [`interval_rows`].

pub mod certain_knn;
pub mod chaos;
pub mod provenance;
pub mod table;
pub mod worlds;

use nde_data::par::{panic_message, WorkerFailure};
use nde_uncertain::{Interval, SymbolicMatrix};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The cells of `x` as one `Vec<Interval>` per row: the array-of-structs
/// layout the scalar-[`Interval`] references compute over.
pub fn interval_rows(x: &SymbolicMatrix) -> Vec<Vec<Interval>> {
    (0..x.len())
        .map(|r| (0..x.cols()).map(|c| x.get(r, c)).collect())
        .collect()
}

/// The original scoped-spawn implementation of
/// [`nde_data::pool::WorkerPool::map_indexed_scratch`], the differential
/// reference the resident worker pool is tested against.
///
/// Spawns `threads` fresh scoped workers per call, clamped to the item
/// count (single-item claims, no chunking, no resident pool). Same
/// determinism, failure, and stop contract as the pooled path.
pub fn par_map_indexed_scratch_scoped<S, T, E, I, F>(
    threads: usize,
    range: Range<u64>,
    stop: &AtomicBool,
    init: I,
    f: F,
) -> Result<Vec<(u64, T)>, WorkerFailure<E>>
where
    T: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Result<T, E> + Sync,
{
    let items = range.end.saturating_sub(range.start);
    let threads = (threads as u64).clamp(1, items.max(1)) as usize;
    let next = AtomicU64::new(range.start);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<WorkerFailure<E>>> = Mutex::new(None);

    let worker = |out: &mut Vec<(u64, T)>| {
        let mut scratch = init();
        loop {
            if stop.load(Ordering::Relaxed) || failed.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= range.end {
                break;
            }
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i)));
            let fail = match outcome {
                Ok(Ok(v)) => {
                    out.push((i, v));
                    continue;
                }
                Ok(Err(e)) => WorkerFailure::Err(i, e),
                Err(payload) => WorkerFailure::Panic(i, panic_message(payload)),
            };
            failed.store(true, Ordering::Relaxed);
            let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
            if slot.as_ref().is_none_or(|prev| fail.index() < prev.index()) {
                *slot = Some(fail);
            }
            break;
        }
    };

    let mut results: Vec<(u64, T)> = Vec::with_capacity(items as usize);
    if threads == 1 {
        worker(&mut results);
    } else {
        let collected: Vec<Vec<(u64, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        worker(&mut local);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker closures catch their own panics"))
                .collect()
        });
        for local in collected {
            results.extend(local);
        }
        results.sort_unstable_by_key(|&(i, _)| i);
    }

    match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some(fail) => Err(fail),
        None => Ok(results),
    }
}

/// [`par_map_indexed_scratch_scoped`] without per-worker scratch state.
pub fn par_map_indexed_scoped<T, E, F>(
    threads: usize,
    range: Range<u64>,
    stop: &AtomicBool,
    f: F,
) -> Result<Vec<(u64, T)>, WorkerFailure<E>>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
{
    par_map_indexed_scratch_scoped(threads, range, stop, || (), |(), i| f(i))
}
