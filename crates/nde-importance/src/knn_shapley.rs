//! Exact, closed-form KNN-Shapley (Jia et al., VLDB'19).
//!
//! For a K-nearest-neighbor utility, the Shapley value of every training
//! point has a closed form computable in `O(n log n)` per validation point —
//! the efficiency trick highlighted in §2.1 of the paper and the workhorse
//! of the Fig. 2 hands-on demo.

use crate::common::ImportanceScores;
use crate::{ImportanceError, Result};
use nde_ml::batch::DistanceTable;
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::neighbor_order;
use nde_robust::par::{CostHint, WorkerFailure, WorkerPool};
use std::sync::atomic::AtomicBool;

/// Validation points are processed in fixed-size chunks whose partial sums
/// are folded in chunk order — the chunking (and therefore the float
/// accumulation tree) is independent of the thread count, so scores are
/// bit-identical for every `threads` value.
const VALID_CHUNK: usize = 32;

/// Per-worker reusable buffers (ordering, recursion values) — allocated
/// once per worker instead of once per validation point. Distances live in
/// the run-wide shared [`DistanceTable`], so workers no longer carry a
/// per-chunk distance buffer.
struct KnnScratch {
    order: Vec<usize>,
    s: Vec<f64>,
}

/// The closed-form KNN-Shapley engine behind the
/// [`knn_shapley()`](crate::run::knn_shapley) entry point: exact values of
/// all training examples with respect to the K-NN utility (probability of
/// the correct label among the K neighbors), averaged over all validation
/// points.
///
/// The per-validation-point recursion (training points sorted by distance,
/// nearest first, 1-indexed):
///
/// ```text
/// s[n]   = 1[y_n = y] / n
/// s[i]   = s[i+1] + (1[y_i = y] − 1[y_{i+1} = y]) / K · min(K, i) / i
/// ```
///
/// The train→valid squared distances are computed **once per run** into a
/// shared [`DistanceTable`] (the same matrix the batched KNN utility
/// scorer uses); worker chunks borrow their rows instead of recomputing
/// distances into per-worker buffers. Per validation point, the distance
/// ordering uses `select_nth_unstable` to split the training points at the
/// k-boundary first and then orders the two partitions — an in-place
/// partial ordering instead of the allocating stable sort, with the
/// identical final order (the comparator is total, ties broken by index).
pub(crate) fn knn_engine(
    train: &Dataset,
    valid: &Dataset,
    k: usize,
    threads: usize,
    pool: &WorkerPool,
) -> Result<ImportanceScores> {
    if k == 0 {
        return Err(ImportanceError::InvalidArgument("k must be >= 1".into()));
    }
    if train.is_empty() || valid.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "train and valid must be non-empty".into(),
        ));
    }
    if train.dim() != valid.dim() {
        return Err(ImportanceError::InvalidArgument(format!(
            "dimension mismatch: train {} vs valid {}",
            train.dim(),
            valid.dim()
        )));
    }
    let n = train.len();
    let m = valid.len();
    let kf = k as f64;
    let chunks = m.div_ceil(VALID_CHUNK) as u64;
    let stop = AtomicBool::new(false);
    // One chunk ranks every training row for VALID_CHUNK validation points.
    let cost = CostHint::PerItemNanos((VALID_CHUNK * n.max(1)) as u64 * 100);
    // One distance matrix for the whole run, built on the run's pool and
    // shared read-only by every worker (row floats are exactly
    // `squared_distance`'s, so the ordering is unchanged from the
    // per-chunk computation this replaces).
    let table = DistanceTable::build(train, valid, pool, threads);

    let chunk_totals = pool
        .map_indexed_scratch(
            threads,
            0..chunks,
            &stop,
            cost,
            || KnnScratch {
                order: Vec::with_capacity(n),
                s: vec![0.0; n],
            },
            |scratch, c| {
                let mut totals = vec![0.0; n];
                let start = c as usize * VALID_CHUNK;
                let end = (start + VALID_CHUNK).min(m);
                for v in start..end {
                    let vy = valid.y[v];
                    let dists = table.row(v);
                    let by_distance = |&a: &usize, &b: &usize| neighbor_order(dists, a, b);
                    scratch.order.clear();
                    scratch.order.extend(0..n);
                    if k < n {
                        // Partition at the k-boundary, then order each side.
                        let (near, _, far) = scratch.order.select_nth_unstable_by(k, by_distance);
                        near.sort_unstable_by(by_distance);
                        far.sort_unstable_by(by_distance);
                    } else {
                        scratch.order.sort_unstable_by(by_distance);
                    }
                    // Recursion over the sorted order (position p is 1-indexed
                    // as p+1).
                    let order = &scratch.order;
                    let matches = |p: usize| -> f64 {
                        if train.y[order[p]] == vy {
                            1.0
                        } else {
                            0.0
                        }
                    };
                    scratch.s[n - 1] = matches(n - 1) / n as f64;
                    for p in (0..n - 1).rev() {
                        let i = (p + 1) as f64; // 1-indexed position
                        scratch.s[p] =
                            scratch.s[p + 1] + (matches(p) - matches(p + 1)) / kf * kf.min(i) / i;
                    }
                    for p in 0..n {
                        totals[order[p]] += scratch.s[p];
                    }
                }
                Ok::<_, ImportanceError>(totals)
            },
        )
        .map_err(|fail| match fail {
            WorkerFailure::Err(_, e) => e,
            WorkerFailure::Panic(_, msg) => ImportanceError::WorkerPanic(msg),
        })?;

    // Fold partial sums in chunk order (schedule-independent).
    let mut totals = vec![0.0; n];
    for (_, chunk) in &chunk_totals {
        for (t, v) in totals.iter_mut().zip(chunk) {
            *t += v;
        }
    }
    let values = totals.into_iter().map(|v| v / m as f64).collect();
    Ok(ImportanceScores::new("knn-shapley", values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{tmc_shapley, ImportanceRun, TmcParams};
    use nde_data::generate::blobs::two_gaussians;
    use nde_ml::models::knn::KnnClassifier;

    // The behavioral suite pins the engine through a thin wrapper matching
    // the removed free functions' signature.
    fn knn_shapley(train: &Dataset, valid: &Dataset, k: usize) -> Result<ImportanceScores> {
        knn_engine(train, valid, k, 1, &WorkerPool::shared())
    }

    fn toy() -> (Dataset, Dataset) {
        let train = Dataset::from_rows(
            vec![
                vec![0.0],
                vec![0.2],
                vec![10.0],
                vec![10.2],
                vec![0.1], // mislabelled
            ],
            vec![0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let valid = Dataset::from_rows(
            vec![vec![0.04], vec![0.12], vec![10.14], vec![9.93]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        (train, valid)
    }

    #[test]
    fn efficiency_axiom_exact() {
        // Shapley values must sum to U(D) − U(∅). For the KNN utility used
        // here, U(D) is the mean correct-neighbor fraction and U(∅) = 0.
        let (train, valid) = toy();
        let k = 2;
        let scores = knn_shapley(&train, &valid, k).unwrap();
        let sum: f64 = scores.values.iter().sum();
        // Compute U(D) directly: mean over valid of (#correct among k nn)/k.
        let mut knn = KnnClassifier::new(k);
        use nde_ml::model::Classifier;
        knn.fit(&train).unwrap();
        let mut u = 0.0;
        for (vx, &vy) in valid.x.iter_rows().zip(&valid.y) {
            let nb = knn.neighbors(vx);
            let correct = nb.iter().filter(|&&i| train.y[i] == vy).count();
            u += correct as f64 / k as f64;
        }
        u /= valid.len() as f64;
        assert!((sum - u).abs() < 1e-9, "sum={sum} u={u}");
    }

    #[test]
    fn mislabelled_point_ranked_last() {
        let (train, valid) = toy();
        let scores = knn_shapley(&train, &valid, 1).unwrap();
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
    }

    #[test]
    fn agrees_with_monte_carlo_on_ranking() {
        // TMC-Shapley with a 1-NN model should produce a similar ranking.
        let (train, valid) = toy();
        let exact = knn_shapley(&train, &valid, 1).unwrap();
        let mc = tmc_shapley(
            &ImportanceRun::new(5),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &TmcParams {
                permutations: 400,
                truncation_tolerance: 0.0,
            },
        )
        .unwrap()
        .scores;
        let corr = exact.rank_correlation(&mc);
        assert!(corr > 0.6, "rank correlation {corr}");
    }

    #[test]
    fn scales_to_moderate_data() {
        let nd = two_gaussians(600, 4, 4.0, 9);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..500).collect::<Vec<_>>());
        let valid = all.subset(&(500..600).collect::<Vec<_>>());
        let scores = knn_shapley(&train, &valid, 5).unwrap();
        assert_eq!(scores.len(), 500);
        assert!(scores.values.iter().all(|v| v.is_finite()));
        // Average value should be positive (data is clean and useful).
        let mean: f64 = scores.values.iter().sum::<f64>() / 500.0;
        assert!(mean > 0.0);
    }

    #[test]
    fn validates_arguments() {
        let (train, valid) = toy();
        assert!(knn_shapley(&train, &valid, 0).is_err());
        let empty = train.subset(&[]);
        assert!(knn_shapley(&empty, &valid, 1).is_err());
        assert!(knn_shapley(&train, &empty, 1).is_err());
        let wrong_dim = Dataset::from_rows(vec![vec![0.0, 1.0]], vec![0], 2).unwrap();
        assert!(knn_shapley(&train, &wrong_dim, 1).is_err());
    }

    #[test]
    fn k_equal_n_still_finite() {
        let (train, valid) = toy();
        let scores = knn_shapley(&train, &valid, train.len()).unwrap();
        assert!(scores.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // More validation points than one chunk, so several chunks race.
        let nd = two_gaussians(300, 3, 3.0, 17);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..150).collect::<Vec<_>>());
        let valid = all.subset(&(150..300).collect::<Vec<_>>());
        let seq = knn_shapley(&train, &valid, 5).unwrap();
        for threads in [2, 4, 7] {
            let par = knn_engine(&train, &valid, 5, threads, &WorkerPool::shared()).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}
