//! Cleaning oracles: ground-truth repair of labels or whole rows.
//!
//! The hands-on session hands attendees an "oracle" function that repairs
//! the tuples they select (paper §3.1–3.2). The oracle owns the clean ground
//! truth; callers only see the effect of their chosen repairs.

use crate::{CleaningError, Result};
use nde_data::Table;

/// Anything that can repair class labels for selected rows.
///
/// Abstracts over the in-process [`LabelOracle`] and any substitute a
/// caller supplies (a remote labelling service, or a test double that
/// fails on a schedule), so the cleaning loop runs against unreliable
/// oracles without changing its code.
pub trait CleaningOracle {
    /// Number of examples covered.
    fn len(&self) -> usize;

    /// `true` if the oracle covers no examples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Repair the labels at `rows` in place; returns how many actually
    /// changed (i.e. were dirty).
    fn repair(&self, labels: &mut [usize], rows: &[usize]) -> Result<usize>;
}

/// Repairs class labels against a ground-truth label vector.
#[derive(Debug, Clone)]
pub struct LabelOracle {
    truth: Vec<usize>,
}

impl LabelOracle {
    /// Create an oracle from the true labels.
    pub fn new(truth: Vec<usize>) -> LabelOracle {
        LabelOracle { truth }
    }

    /// Number of examples covered.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// `true` if the oracle covers no examples.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Repair the labels at `rows` in place; returns how many actually
    /// changed (i.e. were dirty).
    pub fn repair(&self, labels: &mut [usize], rows: &[usize]) -> Result<usize> {
        if labels.len() != self.truth.len() {
            return Err(CleaningError::InvalidArgument(format!(
                "oracle covers {} examples, got {}",
                self.truth.len(),
                labels.len()
            )));
        }
        let mut changed = 0;
        for &r in rows {
            if r >= labels.len() {
                return Err(CleaningError::InvalidArgument(format!(
                    "row {r} out of bounds"
                )));
            }
            if labels[r] != self.truth[r] {
                labels[r] = self.truth[r];
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// How many of the given labels currently disagree with the truth.
    pub fn dirty_count(&self, labels: &[usize]) -> usize {
        labels
            .iter()
            .zip(&self.truth)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl CleaningOracle for LabelOracle {
    fn len(&self) -> usize {
        LabelOracle::len(self)
    }

    fn repair(&self, labels: &mut [usize], rows: &[usize]) -> Result<usize> {
        LabelOracle::repair(self, labels, rows)
    }
}

/// Repairs whole rows of a table against a clean ground-truth copy
/// (for pipeline scenarios where errors live in source tables).
#[derive(Debug, Clone)]
pub struct TableOracle {
    clean: Table,
}

impl TableOracle {
    /// Create an oracle holding the clean table.
    pub fn new(clean: Table) -> TableOracle {
        TableOracle { clean }
    }

    /// Replace the given rows of `dirty` with their clean versions; returns
    /// how many actually changed. Schemas and row counts must match.
    pub fn repair_rows(&self, dirty: &mut Table, rows: &[usize]) -> Result<usize> {
        if dirty.schema() != self.clean.schema() || dirty.n_rows() != self.clean.n_rows() {
            return Err(CleaningError::InvalidArgument(
                "dirty table does not match the oracle's schema/shape".into(),
            ));
        }
        let mut changed = 0;
        let names: Vec<String> = dirty
            .schema()
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        for &r in rows {
            let clean_row = self.clean.row(r)?;
            let dirty_row = dirty.row(r)?;
            if clean_row != dirty_row {
                for (name, value) in names.iter().zip(clean_row) {
                    dirty.set(r, name, value)?;
                }
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Rows of `dirty` that differ from the clean table.
    pub fn dirty_rows(&self, dirty: &Table) -> Result<Vec<usize>> {
        if dirty.n_rows() != self.clean.n_rows() {
            return Err(CleaningError::InvalidArgument(
                "dirty table does not match the oracle's shape".into(),
            ));
        }
        let mut out = Vec::new();
        for r in 0..dirty.n_rows() {
            if dirty.row(r)? != self.clean.row(r)? {
                out.push(r);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::hiring::{HiringScenario, LABEL_COLUMN};
    use nde_data::inject::flip_labels;

    #[test]
    fn label_oracle_repairs_only_requested_rows() {
        let oracle = LabelOracle::new(vec![0, 1, 0, 1]);
        let mut labels = vec![1, 1, 1, 1]; // rows 0 and 2 dirty
        assert_eq!(oracle.dirty_count(&labels), 2);
        let changed = oracle.repair(&mut labels, &[0]).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(labels, vec![0, 1, 1, 1]);
        // Repairing a clean row is a no-op.
        let changed = oracle.repair(&mut labels, &[1]).unwrap();
        assert_eq!(changed, 0);
        assert_eq!(oracle.dirty_count(&labels), 1);
    }

    #[test]
    fn label_oracle_validates() {
        let oracle = LabelOracle::new(vec![0, 1]);
        let mut labels = vec![0, 1, 0];
        assert!(oracle.repair(&mut labels, &[0]).is_err());
        let mut ok = vec![0, 1];
        assert!(oracle.repair(&mut ok, &[5]).is_err());
    }

    #[test]
    fn table_oracle_restores_flipped_rows() {
        let clean = HiringScenario::generate(60, 1).letters;
        let mut dirty = clean.clone();
        let report = flip_labels(&mut dirty, LABEL_COLUMN, 0.2, 2).unwrap();
        let oracle = TableOracle::new(clean.clone());
        assert_eq!(oracle.dirty_rows(&dirty).unwrap(), report.affected);
        let changed = oracle.repair_rows(&mut dirty, &report.affected).unwrap();
        assert_eq!(changed, report.affected.len());
        assert_eq!(dirty, clean);
        assert!(oracle.dirty_rows(&dirty).unwrap().is_empty());
    }

    #[test]
    fn table_oracle_validates_shape() {
        let clean = HiringScenario::generate(10, 3).letters;
        let oracle = TableOracle::new(clean.clone());
        let mut smaller = clean.take(&(0..5).collect::<Vec<_>>()).unwrap();
        assert!(oracle.repair_rows(&mut smaller, &[0]).is_err());
        assert!(oracle.dirty_rows(&smaller).is_err());
    }
}
