//! Linear support-vector machine trained with SGD on the hinge loss
//! (Pegasos-style). Included because several §2.3 frameworks (certain and
//! approximately-certain models, Zhen et al. '24) are stated for SVMs as
//! well as linear regression.

use crate::dataset::Dataset;
use crate::linalg::dot;
use crate::model::Classifier;
use crate::{MlError, Result};
use nde_data::rng::{permutation, seeded};

/// Binary linear SVM: `min λ/2 ||w||² + mean(hinge(y w·x))`, labels 0/1
/// mapped internally to ∓1. The bias is folded into the weight vector as a
/// constant-1 feature (and therefore lightly regularized) — this keeps the
/// Pegasos step-size schedule stable, at a negligible cost in expressivity.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// Training epochs.
    pub epochs: usize,
    /// Regularization strength λ.
    pub lambda: f64,
    /// Shuffle seed.
    pub seed: u64,
    weights: Option<Vec<f64>>, // d + 1, bias last
}

impl Default for LinearSvm {
    fn default() -> Self {
        LinearSvm::new(60, 1e-3, 0)
    }
}

impl LinearSvm {
    /// Create an unfitted SVM.
    pub fn new(epochs: usize, lambda: f64, seed: u64) -> LinearSvm {
        LinearSvm {
            epochs,
            lambda,
            seed,
            weights: None,
        }
    }

    /// Signed decision value `w·x + b` (positive ⇒ class 1).
    pub fn decision(&self, x: &[f64]) -> f64 {
        let w = self.weights.as_ref().expect("model must be fitted");
        debug_assert_eq!(x.len() + 1, w.len());
        dot(&w[..x.len()], x) + w[x.len()]
    }

    /// The learned `(weights, bias)`, if fitted.
    pub fn coefficients(&self) -> Option<(&[f64], f64)> {
        self.weights
            .as_ref()
            .map(|w| (&w[..w.len() - 1], w[w.len() - 1]))
    }
}

impl Classifier for LinearSvm {
    fn config_tag(&self) -> String {
        format!(
            "linear-svm(epochs={};lambda={};seed={})",
            self.epochs, self.lambda, self.seed
        )
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if data.n_classes != 2 {
            return Err(MlError::InvalidArgument(
                "LinearSvm supports binary classification only".into(),
            ));
        }
        if self.epochs == 0 || self.lambda <= 0.0 {
            return Err(MlError::InvalidArgument(
                "epochs must be > 0 and lambda > 0".into(),
            ));
        }
        let n = data.len();
        let d = data.dim();
        let mut w = vec![0.0; d + 1];
        let mut rng = seeded(self.seed);
        let mut t = 0usize;
        for _ in 0..self.epochs {
            for &i in &permutation(n, &mut rng) {
                t += 1;
                let eta = 1.0 / (self.lambda * t as f64);
                let x = data.x.row(i);
                let y = if data.y[i] == 1 { 1.0 } else { -1.0 };
                let margin = y * (dot(&w[..d], x) + w[d]);
                // Pegasos update: shrink all weights (bias included), add
                // the subgradient if inside the margin.
                for wj in w.iter_mut() {
                    *wj *= 1.0 - eta * self.lambda;
                }
                if margin < 1.0 {
                    for (wj, &xj) in w[..d].iter_mut().zip(x) {
                        *wj += eta * y * xj;
                    }
                    w[d] += eta * y;
                }
            }
        }
        self.weights = Some(w);
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        usize::from(self.decision(x) > 0.0)
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        // Platt-style squashing of the margin; a calibration convenience,
        // not a true probability.
        let p = 1.0 / (1.0 + (-self.decision(x)).exp());
        vec![1.0 - p, p]
    }

    fn n_classes(&self) -> usize {
        if self.weights.is_some() {
            2
        } else {
            0
        }
    }

    fn is_fitted(&self) -> bool {
        self.weights.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;

    fn blobs() -> (Dataset, Dataset) {
        let nd = two_gaussians(300, 3, 4.0, 81);
        let all = Dataset::try_from(&nd).unwrap();
        (
            all.subset(&(0..200).collect::<Vec<_>>()),
            all.subset(&(200..300).collect::<Vec<_>>()),
        )
    }

    #[test]
    fn separates_blobs() {
        let (train, test) = blobs();
        let mut svm = LinearSvm::default();
        svm.fit(&train).unwrap();
        assert!(svm.accuracy(&test) > 0.95, "acc={}", svm.accuracy(&test));
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let (train, test) = blobs();
        let mut svm = LinearSvm::default();
        svm.fit(&train).unwrap();
        for x in test.x.iter_rows() {
            let pred = svm.predict_one(x);
            assert_eq!(pred == 1, svm.decision(x) > 0.0);
            let p = svm.predict_proba_one(x);
            assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
            assert_eq!(p[1] > 0.5, pred == 1);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let (train, _) = blobs();
        let mut a = LinearSvm::new(20, 1e-3, 5);
        let mut b = LinearSvm::new(20, 1e-3, 5);
        a.fit(&train).unwrap();
        b.fit(&train).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
    }

    #[test]
    fn validates_inputs() {
        let (train, _) = blobs();
        assert!(LinearSvm::new(0, 1e-3, 0).fit(&train).is_err());
        assert!(LinearSvm::new(5, 0.0, 0).fit(&train).is_err());
        let three =
            Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]], vec![0, 1, 2], 3).unwrap();
        assert!(LinearSvm::default().fit(&three).is_err());
        assert!(LinearSvm::default().fit(&train.subset(&[])).is_err());
    }

    #[test]
    fn works_as_importance_utility_model() {
        // SVM is Clone + Classifier, so it plugs into the utility machinery.
        let (train, valid) = blobs();
        let u = crate::model::utility(&LinearSvm::new(10, 1e-3, 1), &train, &valid).unwrap();
        assert!(u > 0.9);
    }
}
