//! Numeric noise and outlier injection.

use super::{ErrorKind, InjectionReport};
use crate::rng::Rng;
use crate::rng::{normal, sample_indices, seeded};
use crate::table::Table;
use crate::value::Value;
use crate::{DataError, Result};

/// Add zero-mean Gaussian noise with standard deviation `sigma` to a random
/// `fraction` of the non-null values in a numeric column.
pub fn add_gaussian_noise(
    table: &mut Table,
    column: &str,
    fraction: f64,
    sigma: f64,
    seed: u64,
) -> Result<InjectionReport> {
    validate(table, column, fraction)?;
    if sigma < 0.0 {
        return Err(DataError::InvalidArgument("sigma must be >= 0".into()));
    }
    let candidates = non_null_rows(table, column)?;
    let k = (candidates.len() as f64 * fraction).round() as usize;
    let mut rng = seeded(seed);
    let picked = sample_indices(candidates.len(), k, &mut rng);
    let mut affected: Vec<usize> = picked.iter().map(|&i| candidates[i]).collect();
    affected.sort_unstable();
    for &row in &affected {
        let v = table
            .get(row, column)?
            .as_float()
            .expect("candidates are non-null numeric");
        table.set(row, column, Value::Float(v + sigma * normal(&mut rng)))?;
    }
    Ok(InjectionReport {
        kind: ErrorKind::Noise { sigma },
        column: Some(column.to_owned()),
        affected,
    })
}

/// Replace a random `fraction` of the non-null values in a numeric column by
/// extreme outliers: `median ± scale * IQR-ish spread`, sign chosen randomly.
pub fn inject_outliers(
    table: &mut Table,
    column: &str,
    fraction: f64,
    scale: f64,
    seed: u64,
) -> Result<InjectionReport> {
    validate(table, column, fraction)?;
    if scale <= 0.0 {
        return Err(DataError::InvalidArgument("scale must be > 0".into()));
    }
    let candidates = non_null_rows(table, column)?;
    let mut values: Vec<f64> = candidates
        .iter()
        .map(|&r| {
            table
                .get(r, column)
                .expect("row in bounds")
                .as_float()
                .expect("non-null numeric")
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = values[values.len() / 2];
    let spread = (values[values.len() * 3 / 4] - values[values.len() / 4]).max(1e-9);

    let k = (candidates.len() as f64 * fraction).round() as usize;
    let mut rng = seeded(seed);
    let picked = sample_indices(candidates.len(), k, &mut rng);
    let mut affected: Vec<usize> = picked.iter().map(|&i| candidates[i]).collect();
    affected.sort_unstable();
    for &row in &affected {
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        let magnitude = scale * spread * (1.0 + rng.gen::<f64>());
        table.set(row, column, Value::Float(median + sign * magnitude))?;
    }
    Ok(InjectionReport {
        kind: ErrorKind::Outlier,
        column: Some(column.to_owned()),
        affected,
    })
}

fn validate(table: &Table, column: &str, fraction: f64) -> Result<()> {
    table.schema().index_of(column)?;
    if !(0.0..=1.0).contains(&fraction) {
        return Err(DataError::InvalidArgument(format!(
            "fraction must be in [0,1], got {fraction}"
        )));
    }
    Ok(())
}

fn non_null_rows(table: &Table, column: &str) -> Result<Vec<usize>> {
    let rows: Vec<usize> = table
        .f64_cells(column)?
        .enumerate()
        .filter_map(|(i, v)| v.map(|_| i))
        .collect();
    if rows.is_empty() {
        return Err(DataError::InvalidArgument(format!(
            "column `{column}` has no non-null numeric values"
        )));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::hiring::HiringScenario;

    #[test]
    fn noise_changes_only_reported_rows() {
        let clean = HiringScenario::generate(150, 1).letters;
        let mut t = clean.clone();
        let report = add_gaussian_noise(&mut t, "employer_rating", 0.2, 3.0, 5).unwrap();
        assert_eq!(report.affected.len(), 30);
        for i in 0..t.n_rows() {
            let a = clean.get(i, "employer_rating").unwrap();
            let b = t.get(i, "employer_rating").unwrap();
            if report.is_affected(i) {
                assert_ne!(a, b, "row {i} should have been perturbed");
            } else {
                assert_eq!(a, b, "row {i} should be untouched");
            }
        }
    }

    #[test]
    fn outliers_are_extreme() {
        let clean = HiringScenario::generate(200, 2).letters;
        let mut t = clean.clone();
        let report = inject_outliers(&mut t, "employer_rating", 0.1, 10.0, 6).unwrap();
        // Clean ratings live in [0, 10]; scale-10 outliers must leave that range.
        for &row in &report.affected {
            let v = t.get(row, "employer_rating").unwrap().as_float().unwrap();
            assert!(!(0.0..=10.0).contains(&v), "outlier {v} not extreme");
        }
    }

    #[test]
    fn zero_sigma_noise_keeps_values() {
        let clean = HiringScenario::generate(50, 3).letters;
        let mut t = clean.clone();
        add_gaussian_noise(&mut t, "employer_rating", 0.5, 0.0, 7).unwrap();
        for i in 0..t.n_rows() {
            assert_eq!(
                t.get(i, "employer_rating").unwrap(),
                clean.get(i, "employer_rating").unwrap()
            );
        }
    }

    #[test]
    fn arguments_validated() {
        let mut t = HiringScenario::generate(20, 4).letters;
        assert!(add_gaussian_noise(&mut t, "employer_rating", -0.1, 1.0, 0).is_err());
        assert!(add_gaussian_noise(&mut t, "employer_rating", 0.1, -1.0, 0).is_err());
        assert!(add_gaussian_noise(&mut t, "nope", 0.1, 1.0, 0).is_err());
        assert!(inject_outliers(&mut t, "employer_rating", 0.1, 0.0, 0).is_err());
        // String columns have no numeric values.
        assert!(add_gaussian_noise(&mut t, "letter_text", 0.1, 1.0, 0).is_err());
    }

    #[test]
    fn deterministic_by_seed() {
        let clean = HiringScenario::generate(80, 5).letters;
        let mut a = clean.clone();
        let mut b = clean.clone();
        let ra = inject_outliers(&mut a, "years_experience", 0.2, 5.0, 11).unwrap();
        let rb = inject_outliers(&mut b, "years_experience", 0.2, 5.0, 11).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }
}
