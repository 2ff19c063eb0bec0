//! Out-of-distribution row injection: shift numeric features of some rows.

use super::{ErrorKind, InjectionReport};
use crate::rng::{sample_indices, seeded};
use crate::schema::DataType;
use crate::table::Table;
use crate::value::Value;
use crate::{DataError, Result};

/// Shift every numeric (Float) cell of a random `fraction` of rows by
/// `delta` standard deviations of the respective column. This simulates
/// out-of-distribution values (e.g. records from a different population or a
/// unit-conversion bug affecting whole rows).
pub fn shift_rows(
    table: &mut Table,
    fraction: f64,
    delta: f64,
    seed: u64,
) -> Result<InjectionReport> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(DataError::InvalidArgument(format!(
            "fraction must be in [0,1], got {fraction}"
        )));
    }
    let float_cols: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .filter(|f| f.dtype == DataType::Float)
        .map(|f| f.name.clone())
        .collect();
    if float_cols.is_empty() {
        return Err(DataError::InvalidArgument(
            "table has no Float columns to shift".into(),
        ));
    }

    // Column standard deviations over non-null values.
    let mut sds = Vec::with_capacity(float_cols.len());
    for name in &float_cols {
        let vals: Vec<f64> = table.f64_cells(name)?.flatten().collect();
        let sd = if vals.len() < 2 {
            1.0
        } else {
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64)
                .sqrt()
                .max(1e-9)
        };
        sds.push(sd);
    }

    let n = table.n_rows();
    let k = (n as f64 * fraction).round() as usize;
    let mut rng = seeded(seed);
    let mut affected = sample_indices(n, k, &mut rng);
    affected.sort_unstable();
    for &row in &affected {
        for (name, sd) in float_cols.iter().zip(&sds) {
            if let Some(v) = table.get(row, name)?.as_float() {
                table.set(row, name, Value::Float(v + delta * sd))?;
            }
        }
    }
    Ok(InjectionReport {
        kind: ErrorKind::OutOfDistribution,
        column: None,
        affected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::hiring::HiringScenario;

    #[test]
    fn shifts_all_float_columns_of_affected_rows() {
        let clean = HiringScenario::generate(100, 1).letters;
        let mut t = clean.clone();
        let report = shift_rows(&mut t, 0.1, 5.0, 2).unwrap();
        assert_eq!(report.affected.len(), 10);
        for &row in &report.affected {
            for col in ["employer_rating", "years_experience"] {
                let a = clean.get(row, col).unwrap().as_float();
                let b = t.get(row, col).unwrap().as_float();
                if let (Some(a), Some(b)) = (a, b) {
                    assert!(b > a, "row {row} col {col} not shifted up");
                }
            }
        }
        // Untouched rows are bit-identical.
        for row in 0..clean.n_rows() {
            if !report.is_affected(row) {
                assert_eq!(t.row(row).unwrap(), clean.row(row).unwrap());
            }
        }
    }

    #[test]
    fn preserves_nulls() {
        let mut t = HiringScenario::generate(50, 3).letters;
        t.set(0, "employer_rating", Value::Null).unwrap();
        // Force row 0 into the affected set by shifting everything.
        let report = shift_rows(&mut t, 1.0, 3.0, 4).unwrap();
        assert!(report.is_affected(0));
        assert!(t.get(0, "employer_rating").unwrap().is_null());
    }

    #[test]
    fn validates() {
        let mut t = HiringScenario::generate(10, 5).letters;
        assert!(shift_rows(&mut t, -0.5, 1.0, 0).is_err());
        let mut no_floats = t.select(&["person_id", "letter_text"]).unwrap();
        assert!(shift_rows(&mut no_floats, 0.1, 1.0, 0).is_err());
    }
}
