//! Gopher-style fairness debugging (Pradhan, Zhu, Glavic & Salimi,
//! SIGMOD'22): *interpretable, data-based explanations* for fairness
//! violations.
//!
//! Instead of scoring individual tuples, Gopher searches for **predicates**
//! over the training table (e.g. `annotator = c AND degree = phd`) whose
//! matching subset, when removed, most reduces a group-fairness violation of
//! the retrained model. The output is a ranked list of human-readable
//! explanations — "this slice of your data is responsible for the bias".

use crate::common::ImportanceScores;
use crate::{ImportanceError, Result};
use nde_data::{DataType, Table, Value};
use nde_ml::dataset::Dataset;
use nde_ml::metrics::equalized_odds;
use nde_ml::model::Classifier;

/// One equality condition of a pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Table column the condition tests.
    pub column: String,
    /// Value the column must equal (numeric columns are bucketed to
    /// `Bool`: above/below median, encoded as `Value::Bool`).
    pub value: Value,
}

impl Condition {
    fn describe(&self) -> String {
        format!("{} = {}", self.column, self.value)
    }
}

/// A conjunctive pattern over the training table.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// All conditions must hold (conjunction).
    pub conditions: Vec<Condition>,
}

impl Pattern {
    /// Human-readable rendering, e.g. `degree = phd AND sector = tech`.
    pub fn describe(&self) -> String {
        self.conditions
            .iter()
            .map(Condition::describe)
            .collect::<Vec<_>>()
            .join(" AND ")
    }
}

/// One ranked explanation: a pattern and its effect on the violation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The responsible data slice.
    pub pattern: Pattern,
    /// Number of training rows the pattern matches.
    pub support: usize,
    /// Fairness violation (1 − equalized-odds score) with all data.
    pub violation_before: f64,
    /// Violation after removing the matching rows and retraining.
    pub violation_after: f64,
}

impl Explanation {
    /// Improvement from removing the slice (positive = fairer).
    pub fn improvement(&self) -> f64 {
        self.violation_before - self.violation_after
    }
}

/// Configuration of the pattern search.
#[derive(Debug, Clone)]
pub struct FairnessDebugConfig {
    /// Columns of the table to build conditions from (categorical strings,
    /// booleans, or numerics — numerics are bucketed at their median).
    pub pattern_columns: Vec<String>,
    /// Maximum conditions per pattern (1 = single conditions, 2 = pairs).
    pub max_conditions: usize,
    /// Minimum matching rows for a pattern to be considered.
    pub min_support: usize,
    /// Maximum fraction of the training data a pattern may cover.
    pub max_support_fraction: f64,
    /// How many top explanations to return.
    pub top_k: usize,
}

impl Default for FairnessDebugConfig {
    fn default() -> Self {
        FairnessDebugConfig {
            pattern_columns: Vec::new(),
            max_conditions: 2,
            min_support: 3,
            max_support_fraction: 0.5,
            top_k: 5,
        }
    }
}

/// Find the training-data slices most responsible for an equalized-odds
/// violation.
///
/// * `table` — the raw training table patterns are built over;
/// * `train` — the encoded dataset, **row-aligned** with `table`;
/// * `valid`, `valid_groups` — labeled evaluation data with sensitive-group
///   assignments, on which the violation is measured.
pub fn fairness_explanations<C: Classifier>(
    template: &C,
    table: &Table,
    train: &Dataset,
    valid: &Dataset,
    valid_groups: &[usize],
    config: &FairnessDebugConfig,
) -> Result<Vec<Explanation>> {
    if table.n_rows() != train.len() {
        return Err(ImportanceError::InvalidArgument(format!(
            "table has {} rows but dataset has {}",
            table.n_rows(),
            train.len()
        )));
    }
    if config.pattern_columns.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "no pattern columns configured".into(),
        ));
    }
    if !(1..=2).contains(&config.max_conditions) {
        return Err(ImportanceError::InvalidArgument(
            "max_conditions must be 1 or 2".into(),
        ));
    }

    let violation = |data: &Dataset| -> Result<f64> {
        let mut model = template.clone();
        model.fit(data)?;
        let preds: Vec<usize> = valid.x.iter_rows().map(|r| model.predict_one(r)).collect();
        Ok(1.0 - equalized_odds(&valid.y, &preds, valid_groups)?)
    };
    let violation_before = violation(train)?;

    // Candidate single conditions with their matching row sets.
    let singles = candidate_conditions(table, &config.pattern_columns)?;

    // Enumerate patterns: singles, then pairs of compatible singles.
    let n = table.n_rows();
    let max_rows = (n as f64 * config.max_support_fraction) as usize;
    let mut explanations: Vec<Explanation> = Vec::new();
    let mut consider = |conditions: Vec<Condition>, rows: Vec<usize>| -> Result<()> {
        if rows.len() < config.min_support || rows.len() > max_rows {
            return Ok(());
        }
        let keep: Vec<usize> = (0..n).filter(|i| !rows.contains(i)).collect();
        let violation_after = violation(&train.subset(&keep))?;
        explanations.push(Explanation {
            pattern: Pattern { conditions },
            support: rows.len(),
            violation_before,
            violation_after,
        });
        Ok(())
    };

    for (cond, rows) in &singles {
        consider(vec![cond.clone()], rows.clone())?;
    }
    if config.max_conditions >= 2 {
        for i in 0..singles.len() {
            for j in i + 1..singles.len() {
                let (ca, ra) = &singles[i];
                let (cb, rb) = &singles[j];
                if ca.column == cb.column {
                    continue; // same-column equality conjunction is empty
                }
                let rb_set: std::collections::HashSet<usize> = rb.iter().copied().collect();
                let rows: Vec<usize> = ra.iter().copied().filter(|r| rb_set.contains(r)).collect();
                consider(vec![ca.clone(), cb.clone()], rows)?;
            }
        }
    }

    explanations.sort_by(|a, b| {
        b.improvement()
            .partial_cmp(&a.improvement())
            .expect("finite improvements")
            .then(a.support.cmp(&b.support))
    });
    explanations.truncate(config.top_k);
    Ok(explanations)
}

/// All single equality conditions over the chosen columns, with row sets.
fn candidate_conditions(table: &Table, columns: &[String]) -> Result<Vec<(Condition, Vec<usize>)>> {
    let mut out = Vec::new();
    for col_name in columns {
        let field = table.schema().field(col_name)?;
        match field.dtype {
            DataType::Str | DataType::Bool | DataType::Int => {
                for (value, _) in table.value_counts(col_name)? {
                    if value.is_null() {
                        continue;
                    }
                    let rows: Vec<usize> = (0..table.n_rows())
                        .filter(|&r| {
                            table
                                .get(r, col_name)
                                .map(|v| {
                                    v.total_cmp(&value) == std::cmp::Ordering::Equal
                                        && v.data_type() == value.data_type()
                                })
                                .unwrap_or(false)
                        })
                        .collect();
                    out.push((
                        Condition {
                            column: col_name.clone(),
                            value,
                        },
                        rows,
                    ));
                }
            }
            DataType::Float => {
                // Bucket numerics at the median: two boolean conditions.
                let values: Vec<Option<f64>> = table.f64_cells(col_name)?.collect();
                let mut present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
                if present.is_empty() {
                    continue;
                }
                present.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let median = present[present.len() / 2];
                for above in [true, false] {
                    let rows: Vec<usize> = values
                        .iter()
                        .enumerate()
                        .filter_map(|(r, v)| v.and_then(|x| ((x > median) == above).then_some(r)))
                        .collect();
                    out.push((
                        Condition {
                            column: format!("{col_name} > median"),
                            value: Value::Bool(above),
                        },
                        rows,
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// Distribute an explanation's improvement over its member tuples — lets the
/// Gopher view interoperate with per-tuple rankers and cleaning strategies.
#[allow(clippy::needless_range_loop)] // membership recomputed per table row
pub fn explanation_scores(
    table_rows: usize,
    explanations: &[Explanation],
    table: &Table,
) -> ImportanceScores {
    let mut values = vec![0.0; table_rows];
    for e in explanations {
        // Recompute membership from the pattern (equality conditions only).
        for r in 0..table_rows {
            let matches = e.pattern.conditions.iter().all(|c| {
                if let Ok(v) = table.get(r, &c.column) {
                    v.total_cmp(&c.value) == std::cmp::Ordering::Equal
                        && v.data_type() == c.value.data_type()
                } else {
                    false
                }
            });
            if matches && e.support > 0 {
                // Harmful slices (positive improvement on removal) push
                // their members' scores down.
                values[r] -= e.improvement() / e.support as f64;
            }
        }
    }
    ImportanceScores::new("gopher", values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::{Field, Schema};
    use nde_ml::models::knn::KnnClassifier;

    /// Two sensitive groups at feature ranges [0,10] and [20,30]; training
    /// rows annotated by `annotator`; annotator "c" systematically flips
    /// group-1 labels, creating an equalized-odds violation.
    fn biased_scenario() -> (Table, Dataset, Dataset, Vec<usize>) {
        let mut table = Table::empty(
            "train",
            Schema::new(vec![
                Field::new("annotator", DataType::Str),
                Field::new("batch", DataType::Int),
            ])
            .unwrap(),
        );
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        // 48 training points: 24 per group, half per class.
        for i in 0..48 {
            let group = i % 2; // 0 or 1
            let class = (i / 2) % 2;
            let base = group as f64 * 20.0 + class as f64 * 10.0;
            let x = base + (i as f64 * 0.13) % 2.0;
            let annotator = match i % 3 {
                0 => "a",
                1 => "b",
                _ => "c",
            };
            let mut label = class;
            if annotator == "c" && group == 1 {
                label = 1 - label; // the biased annotator
            }
            table
                .push_row(vec![annotator.into(), ((i / 12) as i64).into()])
                .unwrap();
            rows.push(vec![x]);
            labels.push(label);
        }
        let train = Dataset::from_rows(rows, labels, 2).unwrap();

        // Clean validation data with group assignments.
        let mut vx = Vec::new();
        let mut vy = Vec::new();
        let mut groups = Vec::new();
        for i in 0..40 {
            let group = i % 2;
            let class = (i / 2) % 2;
            let base = group as f64 * 20.0 + class as f64 * 10.0;
            vx.push(vec![base + 0.5 + (i as f64 * 0.07) % 1.0]);
            vy.push(class);
            groups.push(group);
        }
        let valid = Dataset::from_rows(vx, vy, 2).unwrap();
        (table, train, valid, groups)
    }

    #[test]
    fn finds_the_biased_annotator() {
        let (table, train, valid, groups) = biased_scenario();
        let cfg = FairnessDebugConfig {
            pattern_columns: vec!["annotator".into(), "batch".into()],
            max_conditions: 1,
            min_support: 3,
            max_support_fraction: 0.5,
            top_k: 3,
        };
        let explanations = fairness_explanations(
            &KnnClassifier::new(1),
            &table,
            &train,
            &valid,
            &groups,
            &cfg,
        )
        .unwrap();
        assert!(!explanations.is_empty());
        let top = &explanations[0];
        assert!(
            top.violation_before > 0.2,
            "no violation to explain: {top:?}"
        );
        assert_eq!(top.pattern.describe(), "annotator = c");
        assert!(top.improvement() > 0.2, "{top:?}");
        assert!(top.violation_after < top.violation_before);
    }

    #[test]
    fn pairs_are_searched_and_described() {
        let (table, train, valid, groups) = biased_scenario();
        let cfg = FairnessDebugConfig {
            pattern_columns: vec!["annotator".into(), "batch".into()],
            max_conditions: 2,
            min_support: 2,
            max_support_fraction: 0.5,
            top_k: 10,
        };
        let explanations = fairness_explanations(
            &KnnClassifier::new(1),
            &table,
            &train,
            &valid,
            &groups,
            &cfg,
        )
        .unwrap();
        assert!(explanations.iter().any(|e| e.pattern.conditions.len() == 2));
        let pair = explanations
            .iter()
            .find(|e| e.pattern.conditions.len() == 2)
            .unwrap();
        assert!(pair.pattern.describe().contains(" AND "));
        // The single-condition "annotator = c" should still be on top (or
        // tied with a pair subsuming most of it).
        assert!(explanations[0].improvement() >= pair.improvement() - 1e-9);
    }

    #[test]
    fn scores_push_members_down() {
        let (table, train, valid, groups) = biased_scenario();
        let cfg = FairnessDebugConfig {
            pattern_columns: vec!["annotator".into()],
            max_conditions: 1,
            min_support: 3,
            max_support_fraction: 0.5,
            top_k: 1,
        };
        let explanations = fairness_explanations(
            &KnnClassifier::new(1),
            &table,
            &train,
            &valid,
            &groups,
            &cfg,
        )
        .unwrap();
        let scores = explanation_scores(train.len(), &explanations, &table);
        // The bottom-ranked tuples are exactly annotator-c rows.
        let bottom = scores.bottom_k(5);
        for &r in &bottom {
            assert_eq!(
                table.get(r, "annotator").unwrap(),
                Value::Str("c".into()),
                "non-member ranked among the worst"
            );
        }
    }

    #[test]
    fn validates_arguments() {
        let (table, train, valid, groups) = biased_scenario();
        let knn = KnnClassifier::new(1);
        let mut cfg = FairnessDebugConfig {
            pattern_columns: vec![],
            ..Default::default()
        };
        assert!(fairness_explanations(&knn, &table, &train, &valid, &groups, &cfg).is_err());
        cfg.pattern_columns = vec!["annotator".into()];
        cfg.max_conditions = 3;
        assert!(fairness_explanations(&knn, &table, &train, &valid, &groups, &cfg).is_err());
        cfg.max_conditions = 1;
        let short = train.subset(&[0, 1]);
        assert!(fairness_explanations(&knn, &table, &short, &valid, &groups, &cfg).is_err());
    }
}
