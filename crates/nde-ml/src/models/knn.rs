//! K-nearest-neighbors classification.
//!
//! KNN plays a double role in the toolkit: it is both a baseline classifier
//! and the *proxy model* that makes Shapley-based data importance tractable
//! (KNN-Shapley, paper §2.1; Datascope, §2.2).

use crate::dataset::Dataset;
use crate::linalg::squared_distances;
use crate::model::Classifier;
use crate::{MlError, Result};
use std::cmp::Ordering;

/// The neighbor order over one point's squared distances `dists`: nearer
/// first, exact distance ties broken by training index.
///
/// Indices are distinct, so this is a strict total order and every
/// selection or sort by it yields the same neighbor list.
///
/// # Panics
///
/// If either distance is NaN.
#[inline]
pub fn neighbor_order(dists: &[f64], a: usize, b: usize) -> Ordering {
    dists[a]
        .partial_cmp(&dists[b])
        .expect("finite distances")
        .then(a.cmp(&b))
}

/// Write into `nearest` the indices of the `k` nearest entries of `dists`
/// in [`neighbor_order`] (all of them when `k >= dists.len()`).
///
/// Partial selection splits off the `k` nearest in linear time and only
/// that prefix is sorted, giving exactly the first `k` of a full sort.
/// `nearest` is scratch the caller may reuse: it is cleared, then filled.
pub fn k_nearest(dists: &[f64], k: usize, nearest: &mut Vec<usize>) {
    let by_distance = |&a: &usize, &b: &usize| neighbor_order(dists, a, b);
    nearest.clear();
    nearest.extend(0..dists.len());
    if k < nearest.len() {
        nearest.select_nth_unstable_by(k, by_distance);
        nearest.truncate(k);
    }
    nearest.sort_unstable_by(by_distance);
}

/// Majority label among the training rows `neighbors`, ties toward the
/// smaller class id; `votes` (one slot per class) is counting scratch.
pub(crate) fn majority_vote(neighbors: &[usize], labels: &[usize], votes: &mut [usize]) -> usize {
    votes.fill(0);
    for &i in neighbors {
        votes[labels[i]] += 1;
    }
    votes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// A K-nearest-neighbors classifier with Euclidean distance and majority
/// voting (ties broken toward the smaller class id).
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    train: Option<Dataset>,
}

impl KnnClassifier {
    /// Create an unfitted KNN classifier with the given `k` (≥ 1).
    pub fn new(k: usize) -> KnnClassifier {
        KnnClassifier {
            k: k.max(1),
            train: None,
        }
    }

    /// The configured number of neighbors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The remembered training data, if fitted (KNN is instance-based).
    pub fn training_data(&self) -> Option<&Dataset> {
        self.train.as_ref()
    }

    /// Indices of the `k` nearest training examples to `x`, closest first.
    /// Distance ties are broken by index for determinism
    /// ([`neighbor_order`]).
    ///
    /// # Panics
    ///
    /// If the model is unfitted or `x` is not as wide as the training rows.
    pub fn neighbors(&self, x: &[f64]) -> Vec<usize> {
        let train = self.train.as_ref().expect("model must be fitted");
        let mut dists = vec![0.0; train.len()];
        squared_distances(&train.x, x, &mut dists);
        let mut nearest = Vec::with_capacity(train.len());
        k_nearest(&dists, self.k, &mut nearest);
        nearest
    }
}

impl Classifier for KnnClassifier {
    fn config_tag(&self) -> String {
        format!("knn(k={})", self.k)
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        self.train = Some(data.clone());
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        let train = self.train.as_ref().expect("model must be fitted");
        let mut votes = vec![0usize; train.n_classes];
        majority_vote(&self.neighbors(x), &train.y, &mut votes)
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        let train = self.train.as_ref().expect("model must be fitted");
        let neighbors = self.neighbors(x);
        let mut p = vec![0.0; train.n_classes];
        for &i in &neighbors {
            p[train.y[i]] += 1.0;
        }
        let total = neighbors.len().max(1) as f64;
        for v in &mut p {
            *v /= total;
        }
        p
    }

    fn n_classes(&self) -> usize {
        self.train.as_ref().map_or(0, |t| t.n_classes)
    }

    fn is_fitted(&self) -> bool {
        self.train.is_some()
    }

    fn coalition_scorer(
        &self,
        train: &Dataset,
        valid: &Dataset,
    ) -> Option<Box<dyn crate::batch::CoalitionScorer>> {
        Some(Box::new(crate::batch::KnnCoalitionScorer::new(
            self.k, train, valid,
        )))
    }

    fn world_voter<'a>(
        &self,
        fixed: &[f64],
        width: usize,
        labels: &'a [usize],
        n_classes: usize,
        varying_from: &[usize],
        test: &'a crate::linalg::Matrix,
        threads: usize,
    ) -> Option<crate::batch::KnnWorldVoter<'a>> {
        crate::batch::KnnWorldVoter::new(
            self.k,
            fixed,
            width,
            labels,
            n_classes,
            varying_from,
            test,
            threads,
        )
    }

    fn try_incremental_eval(
        &self,
        train: &Dataset,
        valid: &Dataset,
    ) -> Result<Option<Box<dyn crate::batch::IncrementalLabelEval>>> {
        let eval = crate::batch::IncrementalKnnEval::new(self.k, train, valid)?;
        Ok(Some(Box::new(eval)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![0.5, 0.0],
                vec![10.0, 10.0],
                vec![10.5, 10.0],
            ],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap()
    }

    #[test]
    fn one_nn_predicts_nearest_label() {
        let mut knn = KnnClassifier::new(1);
        knn.fit(&toy()).unwrap();
        assert_eq!(knn.predict_one(&[0.1, 0.1]), 0);
        assert_eq!(knn.predict_one(&[9.0, 9.0]), 1);
    }

    #[test]
    fn proba_reflects_vote_shares() {
        let mut knn = KnnClassifier::new(3);
        knn.fit(&toy()).unwrap();
        let p = knn.predict_proba_one(&[0.2, 0.0]);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let mut knn = KnnClassifier::new(100);
        knn.fit(&toy()).unwrap();
        // All 4 points vote: tie 2-2 broken toward class 0.
        assert_eq!(knn.predict_one(&[5.0, 5.0]), 0);
    }

    #[test]
    fn neighbors_sorted_by_distance_then_index() {
        let mut knn = KnnClassifier::new(2);
        knn.fit(&toy()).unwrap();
        assert_eq!(knn.neighbors(&[0.0, 0.0]), vec![0, 1]);
        // Exactly equidistant points resolve by index.
        let d =
            Dataset::from_rows(vec![vec![1.0], vec![-1.0], vec![1.0]], vec![0, 1, 1], 2).unwrap();
        let mut knn = KnnClassifier::new(2);
        knn.fit(&d).unwrap();
        assert_eq!(knn.neighbors(&[0.0]), vec![0, 1]);
    }

    #[test]
    fn rejects_empty_training_set() {
        let mut knn = KnnClassifier::new(1);
        let empty = toy().subset(&[]);
        assert!(matches!(knn.fit(&empty), Err(MlError::EmptyTrainingSet)));
        assert!(!knn.is_fitted());
    }

    #[test]
    fn separates_gaussian_blobs() {
        let nd = two_gaussians(300, 4, 5.0, 3);
        let data = Dataset::try_from(&nd).unwrap();
        let train = data.subset(&(0..200).collect::<Vec<_>>());
        let test = data.subset(&(200..300).collect::<Vec<_>>());
        let mut knn = KnnClassifier::new(5);
        knn.fit(&train).unwrap();
        assert!(knn.accuracy(&test) > 0.95);
    }

    #[test]
    fn refit_replaces_state() {
        let mut knn = KnnClassifier::new(1);
        knn.fit(&toy()).unwrap();
        let flipped =
            Dataset::from_rows(vec![vec![0.0, 0.0], vec![10.0, 10.0]], vec![1, 0], 2).unwrap();
        knn.fit(&flipped).unwrap();
        assert_eq!(knn.predict_one(&[0.0, 0.0]), 1);
    }
}
