//! Certain and approximately-certain models (Zhen, Aryal, Termehchy &
//! Chabada, SIGMOD'24): *do we even need to impute?*
//!
//! A **certain model** exists when one parameter vector is optimal for every
//! imputation of the missing cells — then imputation (and cleaning) is
//! provably unnecessary. We implement:
//!
//! * an **exact certificate** for ridge regression in the special case where
//!   rows with missing features have zero residual under the model trained
//!   on the complete rows (the paper's key sufficient condition: if the
//!   complete-data model fits every incomplete row perfectly regardless of
//!   the missing values — possible when the missing feature's weight is 0 —
//!   the model is certain);
//! * a **corner-sampling refutation/diameter check** for the general case:
//!   training on extreme imputations either *disproves* certainty (models
//!   disagree) or bounds the parameter diameter, certifying an
//!   **approximately-certain model** within tolerance `eps`.

use crate::interval::Interval;
use crate::symbolic::SymbolicMatrix;
use crate::{Result, UncertainError};
use nde_data::rng::seeded;
use nde_data::rng::Rng;
use nde_ml::linalg::Matrix;
use nde_ml::models::linreg::RidgeRegression;

/// Verdict of the certain-model check.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelCertainty {
    /// One model is provably optimal for all imputations.
    Certain {
        /// The certain parameter vector (weights then intercept).
        params: Vec<f64>,
    },
    /// All sampled corner imputations agree within `diameter <= eps`.
    ApproximatelyCertain {
        /// Maximum pairwise L∞ parameter distance observed.
        diameter: f64,
        /// Midpoint-imputation parameters (a representative model).
        params: Vec<f64>,
    },
    /// Two imputations provably yield different models.
    NotCertain {
        /// Maximum pairwise L∞ parameter distance observed.
        diameter: f64,
    },
}

impl ModelCertainty {
    /// `true` unless the verdict is [`ModelCertainty::NotCertain`].
    pub fn usable_without_imputation(&self) -> bool {
        !matches!(self, ModelCertainty::NotCertain { .. })
    }
}

/// Configuration for the certain-model check.
#[derive(Debug, Clone)]
pub struct CertainModelConfig {
    /// Ridge regularization.
    pub lambda: f64,
    /// Tolerance for the approximately-certain verdict (L∞ on parameters).
    pub eps: f64,
    /// Number of random corner imputations sampled (besides lo/hi/mid).
    pub corner_samples: usize,
    /// RNG seed for corner sampling.
    pub seed: u64,
    /// Residual tolerance for the exact certificate.
    pub residual_tol: f64,
}

impl Default for CertainModelConfig {
    fn default() -> Self {
        CertainModelConfig {
            lambda: 1e-6,
            eps: 1e-3,
            corner_samples: 8,
            seed: 0,
            residual_tol: 1e-8,
        }
    }
}

/// Check whether a (approximately) certain ridge-regression model exists for
/// symbolic features `x` and concrete targets `y`.
pub fn certain_model_check(
    x: &SymbolicMatrix,
    y: &[f64],
    config: &CertainModelConfig,
) -> Result<ModelCertainty> {
    if x.is_empty() || x.len() != y.len() {
        return Err(UncertainError::InvalidArgument(
            "empty data or row/target mismatch".into(),
        ));
    }

    // Partition rows into complete and incomplete.
    let (complete, incomplete): (Vec<usize>, Vec<usize>) =
        (0..x.len()).partition(|&i| x.first_open_column(i) == x.cols());

    // Fast path: no uncertainty at all.
    if incomplete.is_empty() {
        let (m, t) = materialize(x, y, &|_r, _c, iv| iv.lo);
        let params = fit(&m, &t, config.lambda)?;
        return Ok(ModelCertainty::Certain { params });
    }

    // Exact certificate: train on the complete rows only. If that model has
    // weight ~0 on every uncertain feature of every incomplete row AND fits
    // each incomplete row's target exactly (residual ≤ tol for any choice of
    // the missing values), it is optimal for the full data in every world.
    if !complete.is_empty() {
        let rows: Vec<Vec<f64>> = complete.iter().map(|&i| x.row_lo(i).to_vec()).collect();
        let targets: Vec<f64> = complete.iter().map(|&i| y[i]).collect();
        let m = Matrix::from_rows(rows).map_err(|e| UncertainError::Ml(e.to_string()))?;
        let params = fit(&m, &targets, config.lambda)?;
        if certifies(x, y, &incomplete, &params, config.residual_tol) {
            return Ok(ModelCertainty::Certain { params });
        }
    }

    // General case: corner sampling. Deterministic corners first (all-lo,
    // all-hi, mid), then random corners.
    let mut models: Vec<Vec<f64>> = Vec::new();
    for choice in [CornerChoice::Lo, CornerChoice::Hi, CornerChoice::Mid] {
        let (m, t) = materialize(x, y, &|_r, _c, iv| choice.pick(iv));
        models.push(fit(&m, &t, config.lambda)?);
    }
    let mid_params = models[2].clone();
    let mut rng = seeded(config.seed);
    for _ in 0..config.corner_samples {
        let picks: Vec<bool> = (0..x.len() * x.cols()).map(|_| rng.gen()).collect();
        let cols = x.cols();
        let (m, t) = materialize(x, y, &|r, c, iv| {
            if picks[r * cols + c] {
                iv.hi
            } else {
                iv.lo
            }
        });
        models.push(fit(&m, &t, config.lambda)?);
    }

    let mut diameter = 0.0f64;
    for i in 0..models.len() {
        for j in i + 1..models.len() {
            let dist = models[i]
                .iter()
                .zip(&models[j])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            diameter = diameter.max(dist);
        }
    }
    if diameter <= config.eps {
        Ok(ModelCertainty::ApproximatelyCertain {
            diameter,
            params: mid_params,
        })
    } else {
        Ok(ModelCertainty::NotCertain { diameter })
    }
}

#[derive(Clone, Copy)]
enum CornerChoice {
    Lo,
    Hi,
    Mid,
}

impl CornerChoice {
    fn pick(self, iv: &Interval) -> f64 {
        match self {
            CornerChoice::Lo => iv.lo,
            CornerChoice::Hi => iv.hi,
            CornerChoice::Mid => iv.mid(),
        }
    }
}

fn materialize(
    x: &SymbolicMatrix,
    y: &[f64],
    pick: &dyn Fn(usize, usize, &Interval) -> f64,
) -> (Matrix, Vec<f64>) {
    let mut m = Matrix::zeros(x.len(), x.cols());
    for r in 0..x.len() {
        for c in 0..x.cols() {
            m.set(r, c, pick(r, c, &x.get(r, c)));
        }
    }
    (m, y.to_vec())
}

fn fit(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>> {
    let mut model = RidgeRegression::new(lambda);
    model.fit(x, y)?;
    let (w, b) = model.coefficients().expect("just fitted");
    let mut params = w.to_vec();
    params.push(b);
    Ok(params)
}

/// Does `params` (trained on complete rows) provably stay optimal in every
/// world? Sufficient condition: every incomplete row has (a) weight ≤ tol on
/// each of its uncertain features and (b) residual ≤ tol at interval bounds.
fn certifies(
    x: &SymbolicMatrix,
    y: &[f64],
    incomplete: &[usize],
    params: &[f64],
    tol: f64,
) -> bool {
    let d = x.cols();
    for &i in incomplete {
        // Residual as an interval.
        let mut pred = Interval::point(params[d]);
        for (c, &w) in params[..d].iter().enumerate() {
            pred = pred + x.get(i, c).scale(w);
        }
        let resid = pred - Interval::point(y[i]);
        if resid.abs_max() > tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y depends only on feature 0; feature 1 is irrelevant (weight 0).
    fn irrelevant_feature_data() -> (SymbolicMatrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let x0 = i as f64 * 0.1;
            let x1 = (i % 5) as f64;
            rows.push(vec![Interval::point(x0), Interval::point(x1)]);
            y.push(2.0 * x0 + 1.0);
        }
        // Two rows with the *irrelevant* feature missing.
        rows[3][1] = Interval::new(-10.0, 10.0);
        rows[7][1] = Interval::new(-10.0, 10.0);
        (SymbolicMatrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn no_missing_is_trivially_certain() {
        let x = Matrix::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let sym = SymbolicMatrix::from_exact(&x);
        let verdict =
            certain_model_check(&sym, &[1.0, 3.0, 5.0], &CertainModelConfig::default()).unwrap();
        assert!(matches!(verdict, ModelCertainty::Certain { .. }));
    }

    #[test]
    fn missing_irrelevant_feature_is_approximately_certain() {
        let (sym, y) = irrelevant_feature_data();
        let cfg = CertainModelConfig {
            eps: 1e-2,
            ..Default::default()
        };
        let verdict = certain_model_check(&sym, &y, &cfg).unwrap();
        assert!(
            verdict.usable_without_imputation(),
            "verdict was {verdict:?}"
        );
    }

    #[test]
    fn missing_relevant_feature_is_not_certain() {
        // y = 2 x0 + 1 with x0 missing on rows that matter.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let x0 = i as f64 * 0.1;
            rows.push(vec![Interval::point(x0)]);
            y.push(2.0 * x0 + 1.0);
        }
        rows[0][0] = Interval::new(-5.0, 5.0);
        rows[10][0] = Interval::new(-5.0, 5.0);
        let sym = SymbolicMatrix::from_rows(rows).unwrap();
        let verdict = certain_model_check(&sym, &y, &CertainModelConfig::default()).unwrap();
        assert!(matches!(verdict, ModelCertainty::NotCertain { .. }));
        if let ModelCertainty::NotCertain { diameter } = verdict {
            assert!(diameter > 0.01);
        }
    }

    #[test]
    fn exact_certificate_fires_for_zero_weight_feature() {
        // Targets depend only on x0; the model trained on complete rows has
        // ~0 weight on x1, and incomplete rows' residuals stay ~0 for any x1.
        let (sym, y) = irrelevant_feature_data();
        let cfg = CertainModelConfig {
            lambda: 1e-9,
            residual_tol: 1e-4,
            ..Default::default()
        };
        let verdict = certain_model_check(&sym, &y, &cfg).unwrap();
        assert!(
            matches!(verdict, ModelCertainty::Certain { .. }),
            "expected the exact certificate, got {verdict:?}"
        );
        if let ModelCertainty::Certain { params } = verdict {
            assert!((params[0] - 2.0).abs() < 1e-3);
            assert!(params[1].abs() < 1e-3);
        }
    }

    #[test]
    fn validates_arguments() {
        let sym = SymbolicMatrix::from_rows(vec![vec![Interval::point(0.0)]]).unwrap();
        assert!(certain_model_check(&sym, &[], &CertainModelConfig::default()).is_err());
    }
}
