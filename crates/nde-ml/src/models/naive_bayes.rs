//! Gaussian naive Bayes.

use crate::dataset::Dataset;
use crate::model::Classifier;
use crate::{MlError, Result};

/// Gaussian naive Bayes classifier: per-class feature means/variances with a
/// variance floor for numerical stability.
#[derive(Debug, Clone, Default)]
pub struct GaussianNb {
    /// Per-class log prior.
    log_priors: Vec<f64>,
    /// Per-class per-feature mean.
    means: Vec<Vec<f64>>,
    /// Per-class per-feature variance (floored).
    vars: Vec<Vec<f64>>,
    dim: usize,
}

const VAR_FLOOR: f64 = 1e-9;

impl GaussianNb {
    /// Create an unfitted model.
    pub fn new() -> GaussianNb {
        GaussianNb::default()
    }

    fn log_likelihood(&self, x: &[f64], class: usize) -> f64 {
        let mut ll = self.log_priors[class];
        let means = &self.means[class];
        let vars = &self.vars[class];
        for ((xi, mu), var) in x.iter().zip(means).zip(vars) {
            let d = xi - mu;
            ll += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var);
        }
        ll
    }
}

impl Classifier for GaussianNb {
    fn config_tag(&self) -> String {
        "gaussian-nb".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let k = data.n_classes;
        let d = data.dim();
        let n = data.len() as f64;
        let mut counts = vec![0usize; k];
        let mut means = vec![vec![0.0; d]; k];
        for (x, &y) in data.x.iter_rows().zip(&data.y) {
            counts[y] += 1;
            for (m, xi) in means[y].iter_mut().zip(x) {
                *m += xi;
            }
        }
        for (c, m) in means.iter_mut().enumerate() {
            let cnt = counts[c].max(1) as f64;
            for v in m.iter_mut() {
                *v /= cnt;
            }
        }
        let mut vars = vec![vec![0.0; d]; k];
        for (x, &y) in data.x.iter_rows().zip(&data.y) {
            for ((v, xi), mu) in vars[y].iter_mut().zip(x).zip(&means[y]) {
                let diff = xi - mu;
                *v += diff * diff;
            }
        }
        for (c, v) in vars.iter_mut().enumerate() {
            let cnt = counts[c].max(1) as f64;
            for var in v.iter_mut() {
                *var = (*var / cnt).max(VAR_FLOOR);
            }
        }
        // Laplace-smoothed priors so empty classes don't produce -inf.
        self.log_priors = counts
            .iter()
            .map(|&c| ((c as f64 + 1.0) / (n + k as f64)).ln())
            .collect();
        self.means = means;
        self.vars = vars;
        self.dim = d;
        Ok(())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        debug_assert!(!self.means.is_empty(), "model must be fitted");
        debug_assert_eq!(x.len(), self.dim);
        (0..self.means.len())
            .map(|c| (c, self.log_likelihood(x, c)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        let lls: Vec<f64> = (0..self.means.len())
            .map(|c| self.log_likelihood(x, c))
            .collect();
        let max = lls.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f64> = lls.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    fn n_classes(&self) -> usize {
        self.means.len()
    }

    fn is_fitted(&self) -> bool {
        !self.means.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;

    #[test]
    fn separates_blobs() {
        let nd = two_gaussians(400, 3, 4.0, 5);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..300).collect::<Vec<_>>());
        let test = all.subset(&(300..400).collect::<Vec<_>>());
        let mut nb = GaussianNb::new();
        nb.fit(&train).unwrap();
        assert!(nb.accuracy(&test) > 0.95);
    }

    #[test]
    fn probabilities_normalized() {
        let nd = two_gaussians(100, 2, 3.0, 6);
        let data = Dataset::try_from(&nd).unwrap();
        let mut nb = GaussianNb::new();
        nb.fit(&data).unwrap();
        let p = nb.predict_proba_one(data.x.row(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn zero_variance_feature_is_floored() {
        let data = Dataset::from_rows(
            vec![
                vec![1.0, 5.0],
                vec![1.0, 6.0],
                vec![2.0, -5.0],
                vec![2.0, -6.0],
            ],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let mut nb = GaussianNb::new();
        nb.fit(&data).unwrap();
        // Constant-per-class feature must not yield NaN.
        let p = nb.predict_proba_one(&[1.0, 5.5]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict_one(&[1.0, 5.5]), 0);
    }

    #[test]
    fn handles_class_absent_from_training() {
        // n_classes=3 but only classes 0 and 1 appear.
        let data = Dataset::from_rows(
            vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]],
            vec![0, 0, 1, 1],
            3,
        )
        .unwrap();
        let mut nb = GaussianNb::new();
        nb.fit(&data).unwrap();
        let p = nb.predict_proba_one(&[0.0]);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_training_rejected() {
        let d = Dataset::from_rows(vec![vec![1.0]], vec![0], 2).unwrap();
        let mut nb = GaussianNb::new();
        assert!(nb.fit(&d.subset(&[])).is_err());
    }
}
