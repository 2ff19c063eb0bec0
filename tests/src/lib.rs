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
//! [`certain_knn::certain_prediction_1nn`], the plain possible-worlds
//! ensemble [`worlds::refit_shares`], and the hookless KNN template
//! [`RefitKnn`]. The scalar-`Interval` references read a symbolic matrix
//! through [`interval_rows`].

pub mod certain_knn;
pub mod chaos;
pub mod provenance;
pub mod table;
pub mod worlds;

use nde_data::par::{panic_message, WorkerFailure};
use nde_ml::models::knn::KnnClassifier;
use nde_ml::{Classifier, Dataset};
use nde_uncertain::{Interval, SymbolicMatrix};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// [`KnnClassifier`] without any of its model hooks: it offers none of
/// [`Classifier::coalition_scorer`], [`Classifier::try_incremental_eval`]
/// and [`Classifier::world_voter`], so every computation run with it takes
/// the refit path — one fit per coalition, per cleaning round, per
/// submission or per possible world. It is the one reference every hook is
/// checked against; it must keep no delegating hook, or the reference
/// would become the code it checks.
#[derive(Debug, Clone)]
pub struct RefitKnn(pub KnnClassifier);

impl Classifier for RefitKnn {
    fn config_tag(&self) -> String {
        format!("refit-{}", self.0.config_tag())
    }

    fn fit(&mut self, data: &Dataset) -> nde_ml::Result<()> {
        self.0.fit(data)
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        self.0.predict_one(x)
    }

    fn n_classes(&self) -> usize {
        self.0.n_classes()
    }

    fn is_fitted(&self) -> bool {
        self.0.is_fitted()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use nde_ml::linalg::Matrix;

    /// The reference offers no hook, while the KNN it wraps offers all
    /// three on the same inputs.
    #[test]
    fn refit_knn_offers_no_hooks() {
        let rows = vec![
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 2.0],
            vec![3.0, 1.0],
        ];
        let fixed: Vec<f64> = rows.concat();
        let train = Dataset::from_rows(rows, vec![0, 1, 0, 1], 2).unwrap();
        let test = Matrix::from_rows(vec![vec![0.5, 0.5], vec![2.5, 1.5]]).unwrap();
        let valid =
            Dataset::from_rows(vec![vec![0.5, 0.5], vec![2.5, 1.5]], vec![0, 1], 2).unwrap();
        let varying = vec![2; train.len()];
        let knn = KnnClassifier::new(1);
        let refit = RefitKnn(knn.clone());

        assert!(knn.coalition_scorer(&train, &valid).is_some());
        assert!(refit.coalition_scorer(&train, &valid).is_none());
        assert!(knn.try_incremental_eval(&train, &valid).unwrap().is_some());
        assert!(refit
            .try_incremental_eval(&train, &valid)
            .unwrap()
            .is_none());
        assert!(knn
            .world_voter(&fixed, 2, &train.y, 2, &varying, &test, 1)
            .is_some());
        assert!(refit
            .world_voter(&fixed, 2, &train.y, 2, &varying, &test, 1)
            .is_none());
    }
}
