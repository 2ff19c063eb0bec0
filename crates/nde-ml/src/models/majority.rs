//! Majority-class baseline classifier.

use crate::dataset::Dataset;
use crate::model::Classifier;
use crate::{MlError, Result};

/// Predicts the majority class of the training data; the canonical "empty
/// coalition" model used by Shapley utilities and a sanity baseline.
#[derive(Debug, Clone, Default)]
pub struct MajorityClassifier {
    class: Option<usize>,
    dist: Vec<f64>,
}

impl MajorityClassifier {
    /// Create an unfitted baseline.
    pub fn new() -> MajorityClassifier {
        MajorityClassifier::default()
    }
}

impl Classifier for MajorityClassifier {
    fn config_tag(&self) -> String {
        "majority".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut counts = vec![0usize; data.n_classes];
        for &y in &data.y {
            counts[y] += 1;
        }
        self.class = Some(data.majority_class());
        self.dist = counts
            .iter()
            .map(|&c| c as f64 / data.len() as f64)
            .collect();
        Ok(())
    }

    fn predict_one(&self, _x: &[f64]) -> usize {
        self.class.expect("model must be fitted")
    }

    fn predict_proba_one(&self, _x: &[f64]) -> Vec<f64> {
        self.dist.clone()
    }

    fn n_classes(&self) -> usize {
        self.dist.len()
    }

    fn is_fitted(&self) -> bool {
        self.class.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_majority_everywhere() {
        let data =
            Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1, 1, 0], 2).unwrap();
        let mut m = MajorityClassifier::new();
        m.fit(&data).unwrap();
        assert_eq!(m.predict_one(&[42.0]), 1);
        assert_eq!(m.predict_proba_one(&[0.0]), vec![1.0 / 3.0, 2.0 / 3.0]);
        assert!((m.accuracy(&data) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rejected() {
        let data = Dataset::from_rows(vec![vec![0.0]], vec![0], 2).unwrap();
        let mut m = MajorityClassifier::new();
        assert!(m.fit(&data.subset(&[])).is_err());
        assert!(!m.is_fitted());
    }
}
