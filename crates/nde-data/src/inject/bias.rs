//! Selection-bias injection: biased subsampling of a table.

use super::{ErrorKind, InjectionReport};
use crate::rng::seeded;
use crate::rng::Rng;
use crate::table::Table;
use crate::value::{Value, ValueRef};
use crate::{DataError, Result};

/// Produce a biased subsample of `table`: rows whose `group_col` equals
/// `group_value` are kept only with probability `keep_prob` (others always
/// kept). This models the under-representation biases of §2.3 (e.g. a
/// demographic group undersampled in training data).
///
/// Returns the biased table, the kept original row indices, and a report
/// whose `affected` lists the *dropped* original rows.
pub fn selection_bias(
    table: &Table,
    group_col: &str,
    group_value: &Value,
    keep_prob: f64,
    seed: u64,
) -> Result<(Table, Vec<usize>, InjectionReport)> {
    if !(0.0..=1.0).contains(&keep_prob) {
        return Err(DataError::InvalidArgument(format!(
            "keep_prob must be in [0,1], got {keep_prob}"
        )));
    }
    let group = ValueRef::from_value(group_value);
    table.plane(group_col)?; // an unknown column fails even with no rows
    let mut rng = seeded(seed);
    let mut kept = Vec::with_capacity(table.n_rows());
    let mut dropped = Vec::new();
    for row in 0..table.n_rows() {
        let v = table.get_ref(row, group_col)?;
        let in_group = v.total_cmp(&group) == std::cmp::Ordering::Equal
            && std::mem::discriminant(&v) == std::mem::discriminant(&group);
        if in_group && rng.gen::<f64>() >= keep_prob {
            dropped.push(row);
        } else {
            kept.push(row);
        }
    }
    let biased = table.take(&kept)?;
    Ok((
        biased,
        kept,
        InjectionReport {
            kind: ErrorKind::SelectionBias,
            column: Some(group_col.to_owned()),
            affected: dropped,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::hiring::{HiringScenario, LABEL_COLUMN};

    #[test]
    fn drops_only_group_rows() {
        let t = HiringScenario::generate(300, 1).letters;
        let (biased, kept, report) =
            selection_bias(&t, LABEL_COLUMN, &Value::Str("negative".into()), 0.3, 2).unwrap();
        assert_eq!(biased.n_rows(), kept.len());
        assert_eq!(kept.len() + report.affected.len(), t.n_rows());
        for &row in &report.affected {
            assert_eq!(
                t.get(row, LABEL_COLUMN).unwrap(),
                Value::Str("negative".into())
            );
        }
        // The negative class is now under-represented.
        let neg_before = t
            .value_counts(LABEL_COLUMN)
            .unwrap()
            .iter()
            .find(|(v, _)| v.as_str() == Some("negative"))
            .map(|(_, c)| *c)
            .unwrap();
        let neg_after = biased
            .value_counts(LABEL_COLUMN)
            .unwrap()
            .iter()
            .find(|(v, _)| v.as_str() == Some("negative"))
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(neg_after * 2 < neg_before, "{neg_after} vs {neg_before}");
    }

    #[test]
    fn keep_prob_one_is_identity() {
        let t = HiringScenario::generate(50, 3).letters;
        let (biased, kept, report) =
            selection_bias(&t, LABEL_COLUMN, &Value::Str("positive".into()), 1.0, 4).unwrap();
        assert_eq!(biased.n_rows(), t.n_rows());
        assert_eq!(kept, (0..t.n_rows()).collect::<Vec<_>>());
        assert!(report.affected.is_empty());
    }

    #[test]
    fn keep_prob_zero_removes_group_entirely() {
        let t = HiringScenario::generate(80, 5).letters;
        let (biased, _, _) =
            selection_bias(&t, LABEL_COLUMN, &Value::Str("positive".into()), 0.0, 6).unwrap();
        for i in 0..biased.n_rows() {
            assert_eq!(
                biased.get(i, LABEL_COLUMN).unwrap(),
                Value::Str("negative".into())
            );
        }
    }

    #[test]
    fn validates_arguments() {
        let t = HiringScenario::generate(10, 7).letters;
        assert!(selection_bias(&t, LABEL_COLUMN, &Value::Str("x".into()), 1.5, 0).is_err());
        assert!(selection_bias(&t, "nope", &Value::Str("x".into()), 0.5, 0).is_err());
    }
}
