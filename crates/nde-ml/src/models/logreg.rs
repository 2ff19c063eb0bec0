//! Multinomial logistic regression trained with mini-batch SGD.
//!
//! Exposes the internals the importance crate needs: learned weights (for
//! influence functions) and per-epoch margin histories (for the
//! area-under-the-margin method, paper §2.1).

use crate::dataset::Dataset;
use crate::linalg::{dot, Matrix};
use crate::model::Classifier;
use crate::{MlError, Result};
use nde_data::rng::{permutation, seeded};

/// Multinomial (softmax) logistic regression.
///
/// Weights are stored per class as `d + 1` values, the last being the bias.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Number of full passes over the data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Seed controlling example shuffling.
    pub seed: u64,
    weights: Option<Matrix>, // n_classes x (d + 1)
    n_classes: usize,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression::new(40, 0.3, 1e-4, 0)
    }
}

impl LogisticRegression {
    /// Create an unfitted model with the given hyperparameters.
    pub fn new(epochs: usize, learning_rate: f64, l2: f64, seed: u64) -> LogisticRegression {
        LogisticRegression {
            epochs,
            learning_rate,
            l2,
            seed,
            weights: None,
            n_classes: 0,
        }
    }

    /// The learned weight matrix (`n_classes x (d+1)`, bias last), if fitted.
    pub fn weights(&self) -> Option<&Matrix> {
        self.weights.as_ref()
    }

    /// Class logits for a feature vector.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        let w = self.weights.as_ref().expect("model must be fitted");
        debug_assert_eq!(x.len() + 1, w.cols());
        (0..w.rows())
            .map(|c| {
                let row = w.row(c);
                dot(&row[..x.len()], x) + row[x.len()]
            })
            .collect()
    }

    /// Train and additionally record, per epoch, the *margin* of every
    /// training example: logit of its assigned label minus the largest other
    /// logit. Mislabelled examples tend to have persistently low margins,
    /// which is what the AUM detector exploits.
    pub fn fit_tracking(&mut self, data: &Dataset) -> Result<Vec<Vec<f64>>> {
        self.fit_impl(data, true)
    }

    #[allow(clippy::needless_range_loop)] // per-class softmax/gradient kernels
    fn fit_impl(&mut self, data: &Dataset, track: bool) -> Result<Vec<Vec<f64>>> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if self.epochs == 0 || self.learning_rate <= 0.0 {
            return Err(MlError::InvalidArgument(
                "epochs must be > 0 and learning_rate > 0".into(),
            ));
        }
        let n = data.len();
        let d = data.dim();
        let k = data.n_classes;
        let mut w = Matrix::zeros(k, d + 1);
        let mut rng = seeded(self.seed);
        let mut history = Vec::new();
        let mut probs = vec![0.0; k];

        for _epoch in 0..self.epochs {
            let order = permutation(n, &mut rng);
            for &i in &order {
                let x = data.x.row(i);
                let y = data.y[i];
                // Softmax probabilities.
                let mut max_logit = f64::NEG_INFINITY;
                for c in 0..k {
                    let row = w.row(c);
                    probs[c] = dot(&row[..d], x) + row[d];
                    max_logit = max_logit.max(probs[c]);
                }
                let mut z = 0.0;
                for p in probs.iter_mut() {
                    *p = (*p - max_logit).exp();
                    z += *p;
                }
                for p in probs.iter_mut() {
                    *p /= z;
                }
                // Gradient step: dL/dw_c = (p_c - [c==y]) * x, plus L2.
                for c in 0..k {
                    let err = probs[c] - if c == y { 1.0 } else { 0.0 };
                    let row = w.row_mut(c);
                    for j in 0..d {
                        row[j] -= self.learning_rate * (err * x[j] + self.l2 * row[j]);
                    }
                    row[d] -= self.learning_rate * err;
                }
            }
            if track {
                self.weights = Some(w.clone());
                self.n_classes = k;
                let margins: Vec<f64> = (0..n)
                    .map(|i| {
                        let logits = self.logits(data.x.row(i));
                        let own = logits[data.y[i]];
                        let other = logits
                            .iter()
                            .enumerate()
                            .filter(|(c, _)| *c != data.y[i])
                            .map(|(_, &l)| l)
                            .fold(f64::NEG_INFINITY, f64::max);
                        own - other
                    })
                    .collect();
                history.push(margins);
            }
        }
        self.weights = Some(w);
        self.n_classes = k;
        Ok(history)
    }
}

impl Classifier for LogisticRegression {
    fn config_tag(&self) -> String {
        format!(
            "logreg(epochs={};learning_rate={};l2={};seed={})",
            self.epochs, self.learning_rate, self.l2, self.seed
        )
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.fit_impl(data, false).map(|_| ())
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        let logits = self.logits(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite").then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        let logits = self.logits(x);
        let max = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
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
        let nd = two_gaussians(300, 3, 4.0, 7);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..200).collect::<Vec<_>>());
        let test = all.subset(&(200..300).collect::<Vec<_>>());
        (train, test)
    }

    #[test]
    fn learns_separable_blobs() {
        let (train, test) = blobs();
        let mut lr = LogisticRegression::default();
        lr.fit(&train).unwrap();
        assert!(lr.accuracy(&test) > 0.95, "acc={}", lr.accuracy(&test));
    }

    #[test]
    fn probabilities_sum_to_one_and_match_argmax() {
        let (train, _) = blobs();
        let mut lr = LogisticRegression::default();
        lr.fit(&train).unwrap();
        let x = train.x.row(0);
        let p = lr.predict_proba_one(x);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, lr.predict_one(x));
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) = blobs();
        let mut a = LogisticRegression::new(10, 0.2, 1e-4, 3);
        let mut b = LogisticRegression::new(10, 0.2, 1e-4, 3);
        a.fit(&train).unwrap();
        b.fit(&train).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.accuracy(&test), b.accuracy(&test));
    }

    #[test]
    fn tracking_produces_margin_history() {
        let (train, _) = blobs();
        let mut lr = LogisticRegression::new(5, 0.2, 1e-4, 1);
        let history = lr.fit_tracking(&train).unwrap();
        assert_eq!(history.len(), 5);
        assert_eq!(history[0].len(), train.len());
        // Later epochs should have larger average margins on clean data.
        let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&history[4]) > avg(&history[0]));
    }

    #[test]
    fn multiclass_works() {
        // Three well-separated clusters on a line.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let c = i % 3;
            xs.push(vec![c as f64 * 10.0 + (i as f64 % 5.0) * 0.1]);
            ys.push(c);
        }
        let data = Dataset::from_rows(xs, ys, 3).unwrap();
        let mut lr = LogisticRegression::new(80, 0.5, 1e-4, 2);
        lr.fit(&data).unwrap();
        assert!(lr.accuracy(&data) > 0.95);
        assert_eq!(lr.predict_proba_one(&[0.0]).len(), 3);
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let (train, _) = blobs();
        assert!(LogisticRegression::new(0, 0.1, 0.0, 0).fit(&train).is_err());
        assert!(LogisticRegression::new(5, 0.0, 0.0, 0).fit(&train).is_err());
        let empty = train.subset(&[]);
        assert!(LogisticRegression::default().fit(&empty).is_err());
    }
}
