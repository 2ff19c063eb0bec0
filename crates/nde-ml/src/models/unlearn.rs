//! Low-latency machine unlearning (paper §2.4).
//!
//! The tutorial's open-challenges section connects data debugging to
//! *machine unlearning*: once a harmful tuple is identified, regulations
//! (GDPR, CCPA) or quality concerns may require removing its influence
//! *fast*, without retraining from scratch (cf. HedgeCut, SIGMOD'21).
//!
//! Two models here support exact, sub-retraining-cost deletion:
//!
//! * [`KnnClassifier`] — instance-based, so unlearning *is* deletion:
//!   `O(deleted)` bookkeeping instead of a full refit;
//! * [`UnlearnableGaussianNb`] — keeps per-class sufficient statistics
//!   (count, Σx, Σx²) so a tuple's contribution can be subtracted in
//!   `O(d)`, with predictions identical (up to float associativity) to a
//!   fresh retrain on the remaining data.

use crate::dataset::Dataset;
use crate::model::Classifier;
use crate::models::knn::KnnClassifier;
use crate::{MlError, Result};

/// Exact unlearning: remove training examples and update the model so its
/// predictions match a fresh retrain on the remaining data.
pub trait Unlearn: Classifier {
    /// Remove the training examples at `indices` (indices into the dataset
    /// the model was fitted on; subsequent calls use the *shrunken* index
    /// space, like `Vec::remove` repeated).
    fn forget(&mut self, indices: &[usize]) -> Result<()>;

    /// Number of training examples currently backing the model.
    fn remembered(&self) -> usize;
}

impl Unlearn for KnnClassifier {
    fn forget(&mut self, indices: &[usize]) -> Result<()> {
        let train = self.training_data().ok_or(MlError::NotFitted)?;
        let n = train.len();
        for &i in indices {
            if i >= n {
                return Err(MlError::InvalidArgument(format!(
                    "forget index {i} out of bounds for {n} examples"
                )));
            }
        }
        if indices.len() >= n {
            return Err(MlError::InvalidArgument(
                "cannot forget the entire training set".into(),
            ));
        }
        let drop: std::collections::HashSet<usize> = indices.iter().copied().collect();
        let keep: Vec<usize> = (0..n).filter(|i| !drop.contains(i)).collect();
        let remaining = train.subset(&keep);
        self.fit(&remaining)
    }

    fn remembered(&self) -> usize {
        self.training_data().map_or(0, Dataset::len)
    }
}

/// Gaussian naive Bayes over decrementable sufficient statistics.
#[derive(Debug, Clone, Default)]
pub struct UnlearnableGaussianNb {
    counts: Vec<f64>,
    sums: Vec<Vec<f64>>,
    sumsqs: Vec<Vec<f64>>,
    dim: usize,
}

const VAR_FLOOR: f64 = 1e-9;

impl UnlearnableGaussianNb {
    /// An unfitted model.
    pub fn new() -> UnlearnableGaussianNb {
        UnlearnableGaussianNb::default()
    }

    fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    fn log_likelihood(&self, x: &[f64], class: usize) -> f64 {
        let k = self.counts.len() as f64;
        let prior = (self.counts[class] + 1.0) / (self.total() + k);
        let mut ll = prior.ln();
        let c = self.counts[class].max(1.0);
        for (j, &xj) in x.iter().enumerate() {
            let mean = self.sums[class][j] / c;
            let var = (self.sumsqs[class][j] / c - mean * mean).max(VAR_FLOOR);
            let d = xj - mean;
            ll += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var);
        }
        ll
    }

    /// Exact `O(d)` unlearning of one example by subtracting its
    /// contribution from the class's sufficient statistics.
    pub fn forget_example(&mut self, x: &[f64], y: usize) -> Result<()> {
        if self.counts.is_empty() {
            return Err(MlError::NotFitted);
        }
        if y >= self.counts.len() {
            return Err(MlError::InvalidLabel {
                label: y,
                n_classes: self.counts.len(),
            });
        }
        if x.len() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        if self.counts[y] < 1.0 {
            return Err(MlError::InvalidArgument(format!(
                "class {y} has no remembered examples to forget"
            )));
        }
        self.counts[y] -= 1.0;
        for (j, &xj) in x.iter().enumerate() {
            self.sums[y][j] -= xj;
            self.sumsqs[y][j] -= xj * xj;
        }
        Ok(())
    }
}

impl Classifier for UnlearnableGaussianNb {
    fn config_tag(&self) -> String {
        "unlearnable-gaussian-nb".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let k = data.n_classes;
        let d = data.dim();
        self.counts = vec![0.0; k];
        self.sums = vec![vec![0.0; d]; k];
        self.sumsqs = vec![vec![0.0; d]; k];
        self.dim = d;
        for (x, &y) in data.x.iter_rows().zip(&data.y) {
            self.counts[y] += 1.0;
            for (j, &xj) in x.iter().enumerate() {
                self.sums[y][j] += xj;
                self.sumsqs[y][j] += xj * xj;
            }
        }
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        debug_assert!(!self.counts.is_empty(), "model must be fitted");
        (0..self.counts.len())
            .map(|c| (c, self.log_likelihood(x, c)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        let lls: Vec<f64> = (0..self.counts.len())
            .map(|c| self.log_likelihood(x, c))
            .collect();
        let max = lls.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f64> = lls.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    fn n_classes(&self) -> usize {
        self.counts.len()
    }

    fn is_fitted(&self) -> bool {
        !self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;

    fn blobs(n: usize) -> Dataset {
        Dataset::try_from(&two_gaussians(n, 3, 4.0, 71)).unwrap()
    }

    #[test]
    fn knn_forget_matches_retrain_exactly() {
        let data = blobs(80);
        let mut unlearned = KnnClassifier::new(3);
        unlearned.fit(&data).unwrap();
        unlearned.forget(&[0, 5, 17]).unwrap();
        assert_eq!(unlearned.remembered(), 77);

        let keep: Vec<usize> = (0..80).filter(|i| ![0, 5, 17].contains(i)).collect();
        let mut retrained = KnnClassifier::new(3);
        retrained.fit(&data.subset(&keep)).unwrap();

        let probe = blobs(40);
        for x in probe.x.iter_rows() {
            assert_eq!(unlearned.predict_one(x), retrained.predict_one(x));
        }
    }

    #[test]
    fn nb_forget_matches_retrain_predictions() {
        let data = blobs(100);
        let forget_set = [2usize, 31, 64, 65];

        let mut unlearned = UnlearnableGaussianNb::new();
        unlearned.fit(&data).unwrap();
        for &i in &forget_set {
            unlearned.forget_example(data.x.row(i), data.y[i]).unwrap();
        }

        let keep: Vec<usize> = (0..100).filter(|i| !forget_set.contains(i)).collect();
        let mut retrained = UnlearnableGaussianNb::new();
        retrained.fit(&data.subset(&keep)).unwrap();

        let probe = blobs(60);
        for x in probe.x.iter_rows() {
            assert_eq!(unlearned.predict_one(x), retrained.predict_one(x));
            let pu = unlearned.predict_proba_one(x);
            let pr = retrained.predict_proba_one(x);
            for (a, b) in pu.iter().zip(&pr) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn forgetting_a_poisoned_point_fixes_its_region() {
        let mut data = blobs(60);
        // Poison one example: flip its label.
        data.y[7] = 1 - data.y[7];
        let mut model = KnnClassifier::new(1);
        model.fit(&data).unwrap();
        let poisoned_x: Vec<f64> = data.x.row(7).to_vec();
        assert_eq!(model.predict_one(&poisoned_x), data.y[7]);
        model.forget(&[7]).unwrap();
        // After unlearning, the region reverts to the true class.
        assert_eq!(model.predict_one(&poisoned_x), 1 - data.y[7]);
    }

    #[test]
    fn validates_arguments() {
        let data = blobs(10);
        let mut knn = KnnClassifier::new(1);
        assert!(knn.forget(&[0]).is_err()); // not fitted
        knn.fit(&data).unwrap();
        assert!(knn.forget(&[99]).is_err());
        assert!(knn.forget(&(0..10).collect::<Vec<_>>()).is_err());

        let mut nb = UnlearnableGaussianNb::new();
        assert!(nb.forget_example(&[0.0; 3], 0).is_err()); // not fitted
        nb.fit(&data).unwrap();
        assert!(nb.forget_example(&[0.0; 2], 0).is_err()); // wrong dim
        assert!(nb.forget_example(&[0.0; 3], 9).is_err()); // bad class
    }

    #[test]
    fn nb_cannot_underflow_a_class() {
        let tiny = Dataset::from_rows(vec![vec![0.0], vec![10.0]], vec![0, 1], 2).unwrap();
        let mut nb = UnlearnableGaussianNb::new();
        nb.fit(&tiny).unwrap();
        nb.forget_example(&[0.0], 0).unwrap();
        assert!(nb.forget_example(&[0.0], 0).is_err());
    }
}
