//! Cross-crate guarantees of the deterministic parallel substrate: every
//! estimator and the pipeline executor must produce bit-identical output
//! for every thread count — with and without a tripped budget, across a
//! checkpoint/resume cycle, and with the utility memo cache attached.
//!
//! Exercised through the unified [`ImportanceRun`] entry points.

use nde_data::generate::blobs::two_gaussians;
use nde_importance::{
    knn_shapley, tmc_shapley, EstimatorCheckpoint, ImportanceRun, McCheckpoint, TmcParams,
};
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::par::MemoCache;
use nde_robust::RunBudget;

fn workload(n: usize, n_valid: usize, seed: u64) -> (Dataset, Dataset) {
    let nd = two_gaussians(n + n_valid, 3, 4.0, seed);
    let all = Dataset::try_from(&nd).expect("blob data is well-formed");
    let mut train = all.subset(&(0..n).collect::<Vec<_>>());
    let valid = all.subset(&(n..n + n_valid).collect::<Vec<_>>());
    // A few label flips so values have spread.
    for f in [2, 7, 11] {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid)
}

fn tmc_state(snapshot: &Option<EstimatorCheckpoint>) -> &McCheckpoint {
    match snapshot {
        Some(EstimatorCheckpoint::Tmc(c)) => c,
        other => panic!("expected a TMC snapshot, got {other:?}"),
    }
}

fn params() -> TmcParams {
    TmcParams {
        permutations: 12,
        truncation_tolerance: 0.0,
    }
}

#[test]
fn budgeted_shapley_is_thread_invariant_without_budget() {
    let (train, valid) = workload(24, 12, 3);
    let seq = tmc_shapley(
        &ImportanceRun::new(41),
        &KnnClassifier::new(1),
        &train,
        &valid,
        &params(),
    )
    .unwrap();
    let seq_diag = seq.report.diagnostics.as_ref().unwrap();
    assert!(seq_diag.completed());
    for threads in [2, 4] {
        let par = tmc_shapley(
            &ImportanceRun::new(41).with_threads(threads),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params(),
        )
        .unwrap();
        assert_eq!(seq.scores, par.scores, "threads={threads}");
        assert_eq!(
            seq.report.utility_calls, par.report.utility_calls,
            "threads={threads}"
        );
    }
}

#[test]
fn budgeted_shapley_is_thread_invariant_with_tripped_budget() {
    let (train, valid) = workload(24, 12, 3);
    // Trips mid-permutation: utility-call budgets stop between coalition
    // evaluations, so the checkpoint carries in-flight state.
    let budget = RunBudget::unlimited().with_max_utility_calls(100);
    let seq = tmc_shapley(
        &ImportanceRun::new(41).with_budget(budget.clone()),
        &KnnClassifier::new(1),
        &train,
        &valid,
        &params(),
    )
    .unwrap();
    assert!(!seq.report.diagnostics.as_ref().unwrap().completed());
    assert_eq!(seq.report.utility_calls, 100);
    let seq_ckpt = tmc_state(&seq.report.snapshot);
    for threads in [2, 4] {
        let par = tmc_shapley(
            &ImportanceRun::new(41)
                .with_threads(threads)
                .with_budget(budget.clone()),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params(),
        )
        .unwrap();
        assert_eq!(seq.scores, par.scores, "threads={threads}");
        let par_ckpt = tmc_state(&par.report.snapshot);
        assert_eq!(seq_ckpt.cursor, par_ckpt.cursor);
        assert_eq!(seq_ckpt.inflight.is_some(), par_ckpt.inflight.is_some());
        assert_eq!(seq.report.utility_calls, par.report.utility_calls);
    }
}

#[test]
fn parallel_interrupt_resume_matches_sequential_uninterrupted() {
    let (train, valid) = workload(24, 12, 3);
    // Authoritative answer: sequential, never interrupted.
    let unbudgeted = tmc_shapley(
        &ImportanceRun::new(41),
        &KnnClassifier::new(1),
        &train,
        &valid,
        &params(),
    )
    .unwrap();
    // Parallel run tripped mid-permutation, then resumed in parallel.
    for threads in [1, 4] {
        let tripped = tmc_shapley(
            &ImportanceRun::new(41)
                .with_threads(threads)
                .with_budget(RunBudget::unlimited().with_max_utility_calls(90)),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params(),
        )
        .unwrap();
        assert!(!tripped.report.diagnostics.as_ref().unwrap().completed());
        let snap = tripped.report.snapshot.unwrap();
        let resumed = tmc_shapley(
            &ImportanceRun::new(41)
                .with_threads(threads)
                .with_resume(&snap),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params(),
        )
        .unwrap();
        assert_eq!(
            unbudgeted.scores, resumed.scores,
            "threads={threads}: parallel interrupt+resume must be bit-identical"
        );
        assert!(tmc_state(&resumed.report.snapshot).inflight.is_none());
    }
}

#[test]
fn memo_cache_is_transparent_and_hits_across_a_resume_cycle() {
    let (train, valid) = workload(20, 10, 5);
    let params = TmcParams {
        permutations: 25,
        truncation_tolerance: 0.0,
    };
    let uncached = tmc_shapley(
        &ImportanceRun::new(8).with_threads(4),
        &KnnClassifier::new(1),
        &train,
        &valid,
        &params,
    )
    .unwrap();
    // One shared cache across interrupt + resume: the resumed leg replays
    // coalitions the first leg already evaluated. Sequential and parallel
    // legs must agree on the scores and on every logical count.
    for threads in [1, 4] {
        let cache = MemoCache::new();
        let tripped = tmc_shapley(
            &ImportanceRun::new(8)
                .with_threads(threads)
                .with_cache(&cache)
                .with_budget(RunBudget::unlimited().with_max_utility_calls(120)),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert!(!tripped.report.diagnostics.as_ref().unwrap().completed());
        assert_eq!(tripped.report.utility_calls, 120, "threads={threads}");
        let snap = tripped.report.snapshot.unwrap();
        let resumed = tmc_shapley(
            &ImportanceRun::new(8)
                .with_threads(threads)
                .with_cache(&cache)
                .with_resume(&snap),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(uncached.scores, resumed.scores, "threads={threads}");
        assert!(
            cache.hits() > 0,
            "threads={threads}: repeated coalitions must hit the cache"
        );
        // Logical budget accounting is cache-independent: the resumed run's
        // total matches the uninterrupted one, plus the one extra U(D) call
        // the resume re-primes with.
        assert_eq!(
            resumed.report.utility_calls,
            uncached.report.utility_calls + 1,
            "threads={threads}"
        );
    }
}

#[test]
fn knn_shapley_parallel_matches_sequential_across_thread_counts() {
    let (train, valid) = workload(60, 40, 7);
    let seq = knn_shapley(&ImportanceRun::new(0), &train, &valid, 3).unwrap();
    for threads in [2, 4, 8] {
        let par = knn_shapley(
            &ImportanceRun::new(0).with_threads(threads),
            &train,
            &valid,
            3,
        )
        .unwrap();
        assert_eq!(seq.scores, par.scores, "threads={threads}");
    }
}
