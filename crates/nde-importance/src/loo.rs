//! Leave-one-out (LOO) importance: the simplest data valuation.

use crate::batch::{BatchPolicy, BatchStats, UtilityBatcher};
use crate::common::ImportanceScores;
use crate::Result;
use nde_ml::batch::CoalitionChain;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::par::MemoCache;

/// LOO importance of every training example:
/// `score(i) = U(train) − U(train \ {i})`, where `U` is validation accuracy
/// of a fresh clone of `template` trained on the given subset.
///
/// Positive scores mean the example helps; harmful (e.g. mislabelled)
/// examples get negative scores. Cost: `n + 1` utility evaluations — for
/// utilities with a batched [`nde_ml::batch::CoalitionScorer`] (KNN) all
/// `n + 1` coalitions are scored against one shared distance matrix.
pub fn loo_importance<C: Classifier + Send + Sync>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
) -> Result<ImportanceScores> {
    let (scores, _) = loo_engine(template, train, valid, None, BatchPolicy::default())?;
    Ok(scores)
}

/// The batch-capable LOO engine. All `n + 1` coalitions (the full set plus
/// every leave-one-out subset) are pushed through one [`UtilityBatcher`];
/// scores are bit-identical for every [`BatchPolicy`] because coalition
/// utilities are pure values and the subtraction order is fixed.
pub(crate) fn loo_engine<C: Classifier + Send + Sync>(
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    cache: Option<&MemoCache>,
    policy: BatchPolicy,
) -> Result<(ImportanceScores, BatchStats)> {
    let n = train.len();
    let batcher = UtilityBatcher::new(template, train, valid, cache, policy);
    let all: Vec<usize> = (0..n).collect();
    let full = batcher.eval_one(&all)?;
    let mut values = Vec::with_capacity(n);
    let mut wave: Vec<Vec<usize>> = Vec::with_capacity(batcher.width());
    let mut chain = CoalitionChain::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + batcher.width()).min(n);
        wave.clear();
        for i in start..end {
            let mut without = all.clone();
            without.remove(i);
            wave.push(without);
        }
        let utilities = batcher.eval_batch(&mut chain, &wave)?;
        values.extend(utilities.into_iter().map(|u| full - u));
        start = end;
    }
    Ok((ImportanceScores::new("loo", values), batcher.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_ml::models::knn::KnnClassifier;

    /// A tiny dataset where one training point is clearly mislabelled.
    fn toy_with_error() -> (Dataset, Dataset) {
        let train = Dataset::from_rows(
            vec![
                vec![0.0],
                vec![0.2],
                vec![0.4],
                vec![10.0],
                vec![10.2],
                vec![0.3], // mislabelled: sits in the class-0 cluster
            ],
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let valid = Dataset::from_rows(
            vec![vec![0.04], vec![0.26], vec![9.93], vec![10.13]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        (train, valid)
    }

    #[test]
    fn mislabelled_point_gets_lowest_score() {
        let (train, valid) = toy_with_error();
        let scores = loo_importance(&KnnClassifier::new(1), &train, &valid).unwrap();
        assert_eq!(scores.len(), 6);
        assert_eq!(scores.bottom_k(1), vec![5]);
        assert!(scores.values[5] < 0.0);
    }

    #[test]
    fn clean_redundant_points_score_near_zero() {
        let (train, valid) = toy_with_error();
        let scores = loo_importance(&KnnClassifier::new(1), &train, &valid).unwrap();
        // Points 0..3 are redundant cluster members; removing one changes little.
        for i in 0..3 {
            assert!(scores.values[i].abs() <= 0.25, "i={i} {:?}", scores.values);
        }
    }

    #[test]
    fn works_with_single_example_train() {
        let train = Dataset::from_rows(vec![vec![0.0], vec![5.0]], vec![0, 1], 2).unwrap();
        let valid = Dataset::from_rows(vec![vec![0.0]], vec![0], 2).unwrap();
        let scores = loo_importance(&KnnClassifier::new(1), &train, &valid).unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batched_matches_unbatched_bit_for_bit() {
        let (train, valid) = toy_with_error();
        let knn = KnnClassifier::new(1);
        let (plain, _) = loo_engine(&knn, &train, &valid, None, BatchPolicy::Unbatched).unwrap();
        for size in [1, 2, 4, 100] {
            let (batched, stats) =
                loo_engine(&knn, &train, &valid, None, BatchPolicy::Grouped { size }).unwrap();
            assert_eq!(plain, batched, "size={size}");
            assert!(stats.batched_evals > 0);
            // n + 1 coalitions, all non-empty here.
            assert_eq!(stats.evals(), 7);
        }
    }
}
