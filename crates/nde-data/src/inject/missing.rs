//! Missing-value injection under MCAR / MAR / MNAR mechanisms (Fig. 4).

use super::{ErrorKind, InjectionReport};
use crate::rng::seeded;
use crate::rng::Rng;
use crate::table::Table;
use crate::value::Value;
use crate::{DataError, Result};

/// The missingness mechanism controlling *which* cells go missing.
#[derive(Debug, Clone, PartialEq)]
pub enum Missingness {
    /// Missing Completely At Random: every row equally likely.
    Mcar,
    /// Missing At Random: the missingness probability depends on another
    /// (fully observed) column — rows above that column's median are
    /// `skew`-times more likely to lose the target value.
    Mar {
        /// The observed column driving missingness.
        cond_column: String,
        /// Odds multiplier for rows above the median (≥ 1).
        skew: f64,
    },
    /// Missing Not At Random: the probability depends on the value *itself* —
    /// values above the column median are `skew`-times more likely to go
    /// missing (e.g. bad employer ratings withheld). This is the mechanism
    /// used in the paper's Fig. 4 (`missingness="MNAR"`).
    Mnar {
        /// Odds multiplier for above-median values (≥ 1).
        skew: f64,
    },
}

impl Missingness {
    /// Short display name ("MCAR"/"MAR"/"MNAR").
    pub fn name(&self) -> &'static str {
        match self {
            Missingness::Mcar => "MCAR",
            Missingness::Mar { .. } => "MAR",
            Missingness::Mnar { .. } => "MNAR",
        }
    }
}

/// Remove approximately `fraction` of the values in `column` according to the
/// given mechanism. Returns the ground-truth report of nulled rows.
///
/// The exact count is `round(n * fraction)`; the *which-rows* distribution
/// follows the mechanism by weighted sampling without replacement.
pub fn inject_missing(
    table: &mut Table,
    column: &str,
    fraction: f64,
    mechanism: Missingness,
    seed: u64,
) -> Result<InjectionReport> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(DataError::InvalidArgument(format!(
            "fraction must be in [0,1], got {fraction}"
        )));
    }
    let n = table.n_rows();
    let k = (n as f64 * fraction).round() as usize;

    // Per-row weights under the mechanism.
    let weights: Vec<f64> = match &mechanism {
        Missingness::Mcar => vec![1.0; n],
        Missingness::Mar { cond_column, skew } => {
            if *skew < 1.0 {
                return Err(DataError::InvalidArgument("MAR skew must be >= 1".into()));
            }
            weights_above_median(table, cond_column, *skew)?
        }
        Missingness::Mnar { skew } => {
            if *skew < 1.0 {
                return Err(DataError::InvalidArgument("MNAR skew must be >= 1".into()));
            }
            weights_above_median(table, column, *skew)?
        }
    };
    // Validate target column exists before mutating.
    table.schema().index_of(column)?;

    let mut rng = seeded(seed);
    let mut affected = weighted_sample_without_replacement(&weights, k, &mut rng);
    affected.sort_unstable();
    for &row in &affected {
        table.set(row, column, Value::Null)?;
    }
    Ok(InjectionReport {
        kind: ErrorKind::Missing(mechanism),
        column: Some(column.to_owned()),
        affected,
    })
}

/// Weight of `skew` for rows whose `col` value is above the column median
/// (computed over non-null numeric values), 1.0 otherwise. Null cells get the
/// baseline weight.
fn weights_above_median(table: &Table, col: &str, skew: f64) -> Result<Vec<f64>> {
    let values: Vec<Option<f64>> = table.f64_cells(col)?.collect();
    let mut present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
    if present.is_empty() {
        return Err(DataError::InvalidArgument(format!(
            "column `{col}` has no numeric values to condition on"
        )));
    }
    present.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in columns"));
    let median = present[present.len() / 2];
    Ok(values
        .iter()
        .map(|v| match v {
            Some(x) if *x > median => skew,
            _ => 1.0,
        })
        .collect())
}

/// Weighted sampling of `k` distinct indices via the Efraimidis–Spirakis
/// exponential-jitter method: key = u^(1/w), take the k largest keys.
fn weighted_sample_without_replacement(
    weights: &[f64],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            (u.powf(1.0 / w.max(f64::MIN_POSITIVE)), i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
    keyed.into_iter().take(k).map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::hiring::HiringScenario;

    #[test]
    fn mcar_nulls_exact_count() {
        let mut t = HiringScenario::generate(200, 1).letters;
        let before = t.plane("employer_rating").unwrap().null_count();
        let report = inject_missing(&mut t, "employer_rating", 0.15, Missingness::Mcar, 3).unwrap();
        assert_eq!(report.affected.len(), 30);
        let after = t.plane("employer_rating").unwrap().null_count();
        assert_eq!(after - before, 30);
        for &row in &report.affected {
            assert!(t.get(row, "employer_rating").unwrap().is_null());
        }
    }

    #[test]
    fn mnar_prefers_above_median_values() {
        let clean = HiringScenario::generate(400, 2).letters;
        let mut present: Vec<f64> = (0..clean.n_rows())
            .filter_map(|i| clean.get(i, "employer_rating").unwrap().as_float())
            .collect();
        present.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = present[present.len() / 2];

        let mut t = clean.clone();
        let report = inject_missing(
            &mut t,
            "employer_rating",
            0.2,
            Missingness::Mnar { skew: 8.0 },
            4,
        )
        .unwrap();
        let above = report
            .affected
            .iter()
            .filter(|&&row| {
                clean
                    .get(row, "employer_rating")
                    .unwrap()
                    .as_float()
                    .map(|v| v > median)
                    .unwrap_or(false)
            })
            .count();
        // With skew 8, far more than half of the nulled cells are above-median.
        assert!(
            above * 10 > report.affected.len() * 6,
            "above={above}/{}",
            report.affected.len()
        );
    }

    #[test]
    fn mar_conditions_on_other_column() {
        let clean = HiringScenario::generate(400, 5).letters;
        let mut t = clean.clone();
        let report = inject_missing(
            &mut t,
            "employer_rating",
            0.2,
            Missingness::Mar {
                cond_column: "years_experience".into(),
                skew: 8.0,
            },
            6,
        )
        .unwrap();
        let mut years: Vec<f64> = (0..clean.n_rows())
            .filter_map(|i| clean.get(i, "years_experience").unwrap().as_float())
            .collect();
        years.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = years[years.len() / 2];
        let above = report
            .affected
            .iter()
            .filter(|&&row| {
                clean
                    .get(row, "years_experience")
                    .unwrap()
                    .as_float()
                    .map(|v| v > median)
                    .unwrap_or(false)
            })
            .count();
        assert!(above * 10 > report.affected.len() * 6, "above={above}");
    }

    #[test]
    fn deterministic_and_validated() {
        let clean = HiringScenario::generate(100, 7).letters;
        let mut a = clean.clone();
        let mut b = clean.clone();
        let ra = inject_missing(&mut a, "degree", 0.1, Missingness::Mcar, 9).unwrap();
        let rb = inject_missing(&mut b, "degree", 0.1, Missingness::Mcar, 9).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a, b);

        let mut t = clean.clone();
        assert!(inject_missing(&mut t, "degree", 2.0, Missingness::Mcar, 0).is_err());
        assert!(inject_missing(&mut t, "nope", 0.1, Missingness::Mcar, 0).is_err());
        assert!(inject_missing(&mut t, "degree", 0.1, Missingness::Mnar { skew: 0.5 }, 0).is_err());
        // MNAR on a non-numeric column cannot compute a median.
        assert!(inject_missing(&mut t, "degree", 0.1, Missingness::Mnar { skew: 2.0 }, 0).is_err());
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = seeded(1);
        let weights = vec![1.0, 1.0, 100.0, 1.0];
        let mut hits = [0usize; 4];
        for _ in 0..200 {
            let s = weighted_sample_without_replacement(&weights, 1, &mut rng);
            hits[s[0]] += 1;
        }
        assert!(hits[2] > 150, "hits={hits:?}");
    }
}
