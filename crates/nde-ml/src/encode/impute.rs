//! Missing-value imputation for numeric and categorical columns.

use crate::{MlError, Result};

/// Strategy for filling missing numeric values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericImputation {
    /// Fill with the training mean.
    Mean,
    /// Fill with the training median.
    Median,
    /// Fill with a constant.
    Constant(f64),
}

/// A fitted numeric imputer.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericImputer {
    strategy: NumericImputation,
    fill: Option<f64>,
}

impl NumericImputer {
    /// Create an unfitted imputer.
    pub fn new(strategy: NumericImputation) -> NumericImputer {
        NumericImputer {
            strategy,
            fill: None,
        }
    }

    /// Learn the fill value from training values.
    pub fn fit(&mut self, values: &[Option<f64>]) -> Result<()> {
        let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
        let fill = match self.strategy {
            NumericImputation::Constant(c) => c,
            _ if present.is_empty() => {
                return Err(MlError::InvalidArgument(
                    "cannot impute a column with no observed values".into(),
                ))
            }
            NumericImputation::Mean => present.iter().sum::<f64>() / present.len() as f64,
            NumericImputation::Median => {
                let mut sorted = present.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let mid = sorted.len() / 2;
                if sorted.len().is_multiple_of(2) {
                    0.5 * (sorted[mid - 1] + sorted[mid])
                } else {
                    sorted[mid]
                }
            }
        };
        self.fill = Some(fill);
        Ok(())
    }

    /// The learned fill value.
    pub fn fill_value(&self) -> Result<f64> {
        self.fill.ok_or(MlError::NotFitted)
    }

    /// Impute a single optional value.
    pub fn transform_one(&self, v: Option<f64>) -> Result<f64> {
        Ok(v.unwrap_or(self.fill_value()?))
    }

    /// Impute a whole column.
    pub fn transform(&self, values: &[Option<f64>]) -> Result<Vec<f64>> {
        let fill = self.fill_value()?;
        Ok(values.iter().map(|v| v.unwrap_or(fill)).collect())
    }
}

/// A fitted categorical imputer (mode or constant fill).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalImputer {
    constant: Option<String>,
    fill: Option<String>,
}

impl CategoricalImputer {
    /// Impute with the most frequent training category.
    pub fn mode() -> CategoricalImputer {
        CategoricalImputer {
            constant: None,
            fill: None,
        }
    }

    /// Impute with a fixed category (e.g. `"missing"`), which also works for
    /// columns that are entirely null.
    pub fn constant(value: impl Into<String>) -> CategoricalImputer {
        CategoricalImputer {
            constant: Some(value.into()),
            fill: None,
        }
    }

    /// Learn the fill category from per-category row counts, each category
    /// named once, in any order. The mode is the most frequent category
    /// with a nonzero count, ties going to the lexicographically smaller.
    pub fn fit_counts<'a>(
        &mut self,
        counts: impl IntoIterator<Item = (&'a str, usize)>,
    ) -> Result<()> {
        if let Some(c) = &self.constant {
            self.fill = Some(c.clone());
            return Ok(());
        }
        let mode = counts
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
            .map(|(v, _)| v.to_owned())
            .ok_or_else(|| {
                MlError::InvalidArgument(
                    "cannot mode-impute a column with no observed values".into(),
                )
            })?;
        self.fill = Some(mode);
        Ok(())
    }

    /// The learned fill category.
    pub fn fill_value(&self) -> Result<&str> {
        self.fill.as_deref().ok_or(MlError::NotFitted)
    }

    /// Impute a single optional category.
    pub fn transform_one<'a>(&'a self, v: Option<&'a str>) -> Result<&'a str> {
        Ok(v.unwrap_or(self.fill_value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median() {
        let values = vec![Some(1.0), None, Some(3.0), Some(100.0)];
        let mut mean = NumericImputer::new(NumericImputation::Mean);
        mean.fit(&values).unwrap();
        assert!((mean.fill_value().unwrap() - 104.0 / 3.0).abs() < 1e-12);

        let mut median = NumericImputer::new(NumericImputation::Median);
        median.fit(&values).unwrap();
        assert_eq!(median.fill_value().unwrap(), 3.0);

        let even = vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        let mut median = NumericImputer::new(NumericImputation::Median);
        median.fit(&even).unwrap();
        assert_eq!(median.fill_value().unwrap(), 2.5);
    }

    #[test]
    fn constant_ignores_data() {
        let mut c = NumericImputer::new(NumericImputation::Constant(-1.0));
        c.fit(&[None, None]).unwrap();
        assert_eq!(c.transform(&[None, Some(5.0)]).unwrap(), vec![-1.0, 5.0]);
    }

    #[test]
    fn all_null_rejected_for_statistics() {
        let mut m = NumericImputer::new(NumericImputation::Mean);
        assert!(m.fit(&[None, None]).is_err());
        assert!(m.fill_value().is_err());
    }

    #[test]
    fn categorical_mode_prefers_most_frequent() {
        let mut imp = CategoricalImputer::mode();
        imp.fit_counts([("a", 1), ("b", 2), ("c", 0)]).unwrap();
        assert_eq!(imp.fill_value().unwrap(), "b");
        assert_eq!(imp.transform_one(None).unwrap(), "b");
        assert_eq!(imp.transform_one(Some("z")).unwrap(), "z");
    }

    #[test]
    fn categorical_mode_tie_is_deterministic() {
        // Tie broken toward the lexicographically smaller category, in
        // whatever order the counts come.
        for counts in [[("x", 1), ("y", 1)], [("y", 1), ("x", 1)]] {
            let mut imp = CategoricalImputer::mode();
            imp.fit_counts(counts).unwrap();
            assert_eq!(imp.fill_value().unwrap(), "x");
        }
    }

    #[test]
    fn categorical_constant_handles_all_null() {
        let mut imp = CategoricalImputer::constant("missing");
        imp.fit_counts([]).unwrap();
        assert_eq!(imp.fill_value().unwrap(), "missing");
        let mut mode = CategoricalImputer::mode();
        assert!(mode.fit_counts([]).is_err());
        // A category no row holds is not observed.
        assert!(mode.fit_counts([("a", 0)]).is_err());
    }
}
