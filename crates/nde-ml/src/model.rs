//! The classifier abstraction shared by models, importance methods and
//! cleaning strategies.

use crate::dataset::Dataset;
use crate::Result;

/// A trainable classifier.
///
/// Importance methods (LOO, Shapley, ...) retrain models on many data
/// subsets; they do so by cloning an *unfitted configuration* of the model
/// and calling [`Classifier::fit`] on each subset, which is why the trait
/// requires `Clone`. Implementations must make `fit` fully reset any previous
/// state.
pub trait Classifier: Clone {
    /// Train on the dataset, replacing any previously learned state.
    fn fit(&mut self, data: &Dataset) -> Result<()>;

    /// Canonical rendering of the hyper-parameters that decide what
    /// [`Classifier::fit`] learns (e.g. `"knn(k=5)"`), never of learned
    /// state: two templates with equal tags train identically on every
    /// dataset, so resumable runs key their stored state on it.
    fn config_tag(&self) -> String;

    /// Predict the class of a single feature vector.
    ///
    /// # Panics
    /// May panic (in debug builds) if called before [`Classifier::fit`] or
    /// with the wrong dimensionality; use [`Classifier::is_fitted`] to guard.
    fn predict_one(&self, x: &[f64]) -> usize;

    /// Class-probability estimates for a single feature vector.
    /// The default derives a one-hot distribution from [`Classifier::predict_one`].
    fn predict_proba_one(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes().max(1)];
        let c = self.predict_one(x);
        if c < p.len() {
            p[c] = 1.0;
        }
        p
    }

    /// Number of classes the fitted model distinguishes (0 before `fit`).
    fn n_classes(&self) -> usize;

    /// `true` once `fit` has succeeded.
    fn is_fitted(&self) -> bool;

    /// Predict classes for many feature vectors.
    fn predict(&self, xs: &crate::linalg::Matrix) -> Vec<usize> {
        xs.iter_rows().map(|r| self.predict_one(r)).collect()
    }

    /// A prepared one-pass batch scorer for coalition utilities, if this
    /// model supports one (see [`crate::batch::CoalitionScorer`]).
    ///
    /// The default returns `None`: generic classifiers are evaluated one
    /// coalition at a time via [`utility`]. Models that override this (KNN)
    /// must return a scorer that is **bit-identical** to the per-coalition
    /// retraining path — batching may change the cost of a utility call,
    /// never its value.
    fn coalition_scorer(
        &self,
        _train: &Dataset,
        _valid: &Dataset,
    ) -> Option<Box<dyn crate::batch::CoalitionScorer>> {
        None
    }

    /// A prepared incremental evaluator for this model over `(train,
    /// valid)` (see [`crate::batch::IncrementalLabelEval`]): `Ok(None)` when
    /// the model has none, `Err` when it has one that this data rejects
    /// (e.g. a non-finite feature).
    ///
    /// The default returns `Ok(None)`: generic classifiers are refit from
    /// scratch after every accepted fix. Models that override this (KNN)
    /// must return an evaluator whose maintained accuracy is
    /// **bit-identical** to the refit-and-evaluate path.
    fn try_incremental_eval(
        &self,
        _train: &Dataset,
        _valid: &Dataset,
    ) -> Result<Option<Box<dyn crate::batch::IncrementalLabelEval>>> {
        Ok(None)
    }

    /// [`Classifier::try_incremental_eval`], with an evaluator the data
    /// rejects read as none: for callers that refit whenever there is no
    /// evaluator. Override `try_incremental_eval`, not this.
    fn incremental_eval(
        &self,
        train: &Dataset,
        valid: &Dataset,
    ) -> Option<Box<dyn crate::batch::IncrementalLabelEval>> {
        self.try_incremental_eval(train, valid).ok().flatten()
    }

    /// A prepared voter for possible worlds of a training set labeled
    /// `labels` (in `0..n_classes`) whose rows vary between worlds from
    /// column `varying_from[r]` on (`width` for a row that never varies),
    /// predicting every row of `test`, if this model supports one (see
    /// [`crate::batch::KnnWorldVoter`]). `fixed` holds every training cell
    /// at its value in the worlds where it is fixed, row-major in rows of
    /// `width` cells; the voter reads it in place, with no copy.
    ///
    /// The default returns `None`: generic classifiers are refit on every
    /// world. Models that override this (KNN) must vote **bit-identically**
    /// to fitting a fresh clone on each world and predicting `test`, and
    /// return `None` wherever that fit or prediction would fail, or where
    /// `fixed` is not one row of `width` cells per `varying_from` entry.
    #[allow(clippy::too_many_arguments)]
    fn world_voter<'a>(
        &self,
        _fixed: &[f64],
        _width: usize,
        _labels: &'a [usize],
        _n_classes: usize,
        _varying_from: &[usize],
        _test: &'a crate::linalg::Matrix,
        _threads: usize,
    ) -> Option<crate::batch::KnnWorldVoter<'a>> {
        None
    }

    /// Accuracy on a labeled dataset.
    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .x
            .iter_rows()
            .zip(&data.y)
            .filter(|(x, &y)| self.predict_one(x) == y)
            .count();
        correct as f64 / data.len() as f64
    }
}

/// Train a fresh clone of `template` on `train` and return its accuracy on
/// `eval`: the utility function `U(S)` used throughout the importance crate.
pub fn utility<C: Classifier>(template: &C, train: &Dataset, eval: &Dataset) -> Result<f64> {
    let mut model = template.clone();
    model.fit(train)?;
    Ok(model.accuracy(eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// A constant classifier for exercising trait defaults.
    #[derive(Clone)]
    struct Always(usize, usize);

    impl Classifier for Always {
        fn config_tag(&self) -> String {
            format!("always({})", self.0)
        }
        fn fit(&mut self, data: &Dataset) -> Result<()> {
            self.1 = data.n_classes;
            Ok(())
        }
        fn predict_one(&self, _x: &[f64]) -> usize {
            self.0
        }
        fn n_classes(&self) -> usize {
            self.1
        }
        fn is_fitted(&self) -> bool {
            self.1 > 0
        }
    }

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap()
    }

    #[test]
    fn default_proba_is_one_hot() {
        let mut m = Always(1, 0);
        m.fit(&toy()).unwrap();
        assert_eq!(m.predict_proba_one(&[0.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut m = Always(0, 0);
        m.fit(&toy()).unwrap();
        assert_eq!(m.accuracy(&toy()), 0.5);
        let empty = toy().subset(&[]);
        assert_eq!(m.accuracy(&empty), 0.0);
    }

    #[test]
    fn utility_trains_a_fresh_clone() {
        let template = Always(1, 0);
        let u = utility(&template, &toy(), &toy()).unwrap();
        assert_eq!(u, 0.5);
        // Template itself stays unfitted.
        assert!(!template.is_fitted());
    }

    #[test]
    fn batch_predict_uses_predict_one() {
        let mut m = Always(1, 0);
        m.fit(&toy()).unwrap();
        assert_eq!(m.predict(&toy().x), vec![1, 1, 1, 1]);
    }
}
