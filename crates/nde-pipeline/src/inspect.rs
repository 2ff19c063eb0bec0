//! Pipeline inspections, in the spirit of mlinspect / ArgusEyes (paper §2.2):
//! screen pipeline inputs and outputs for data-distribution issues, leakage
//! between train and test, and group-coverage problems.

use crate::provenance::Lineage;
use crate::Result;
use nde_data::fxhash::FxHashSet;
use nde_data::{Table, Value, ValueRef};

/// Severity of an inspection finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Likely problem worth reviewing.
    Warning,
    /// Almost certainly breaks the downstream model or its evaluation.
    Error,
}

/// A single inspection finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which check produced this finding.
    pub check: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

/// Check missing-value fractions; columns above `threshold` produce warnings.
pub fn check_missing_values(table: &Table, threshold: f64) -> Vec<Finding> {
    table
        .missing_profile()
        .into_iter()
        .filter(|(_, frac)| *frac > threshold)
        .map(|(col, frac)| Finding {
            check: "missing_values",
            severity: if frac > 0.5 {
                Severity::Error
            } else {
                Severity::Warning
            },
            message: format!(
                "column `{col}` is {:.1}% missing (threshold {:.1}%)",
                frac * 100.0,
                threshold * 100.0
            ),
        })
        .collect()
}

/// Check class balance of a label column: warn when the minority share drops
/// below `min_share`.
pub fn check_class_balance(table: &Table, label_col: &str, min_share: f64) -> Result<Vec<Finding>> {
    let counts = table.value_counts(label_col)?;
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    let mut findings = Vec::new();
    if total == 0 {
        return Ok(findings);
    }
    for (value, count) in &counts {
        let share = *count as f64 / total as f64;
        if share < min_share {
            findings.push(Finding {
                check: "class_balance",
                severity: Severity::Warning,
                message: format!(
                    "class `{value}` of `{label_col}` holds only {:.1}% of rows",
                    share * 100.0
                ),
            });
        }
    }
    Ok(findings)
}

/// Detect train/test leakage: rows of `test` whose `key` also appears in
/// `train`. Any overlap is an error — the model would be evaluated on data it
/// saw during training (one of the issues ArgusEyes screens for).
pub fn check_leakage(train: &Table, test: &Table, key: &str) -> Result<Vec<Finding>> {
    let train_keys: FxHashSet<String> = collect_keys(train, key)?;
    let mut overlap = 0usize;
    for row in 0..test.n_rows() {
        // Borrowed cells: string keys probe the set without cloning.
        let hit = match test.get_ref(row, key)? {
            ValueRef::Null => false,
            ValueRef::Str(s) => train_keys.contains(s),
            v => train_keys.contains(&v.to_string()),
        };
        if hit {
            overlap += 1;
        }
    }
    let mut findings = Vec::new();
    if overlap > 0 {
        findings.push(Finding {
            check: "leakage",
            severity: Severity::Error,
            message: format!(
                "{overlap} of {} test rows share `{key}` with training rows",
                test.n_rows()
            ),
        });
    }
    Ok(findings)
}

/// Check that every group of `group_col` has at least `min_count` rows
/// (coverage of demographic groups after filters/joins).
pub fn check_coverage(table: &Table, group_col: &str, min_count: usize) -> Result<Vec<Finding>> {
    let counts = table.value_counts(group_col)?;
    Ok(counts
        .into_iter()
        .filter(|(_, c)| *c < min_count)
        .map(|(value, count)| Finding {
            check: "coverage",
            severity: Severity::Warning,
            message: format!(
                "group `{value}` of `{group_col}` has only {count} rows (minimum {min_count})"
            ),
        })
        .collect())
}

/// Compare the share of a class between two tables (e.g. pipeline input vs.
/// output): a shift larger than `max_shift` indicates the preprocessing
/// changed the label distribution (the "data distribution debugging" check).
pub fn check_distribution_shift(
    before: &Table,
    after: &Table,
    column: &str,
    class: &Value,
    max_shift: f64,
) -> Result<Vec<Finding>> {
    let share = |t: &Table| -> Result<f64> {
        if t.n_rows() == 0 {
            return Ok(0.0);
        }
        let counts = t.value_counts(column)?;
        let hits = counts
            .iter()
            .find(|(v, _)| {
                v.total_cmp(class) == std::cmp::Ordering::Equal
                    && v.data_type() == class.data_type()
            })
            .map(|(_, c)| *c)
            .unwrap_or(0);
        Ok(hits as f64 / t.n_rows() as f64)
    };
    let b = share(before)?;
    let a = share(after)?;
    let shift = (a - b).abs();
    let mut findings = Vec::new();
    if shift > max_shift {
        findings.push(Finding {
            check: "distribution_shift",
            severity: Severity::Warning,
            message: format!(
                "share of `{class}` in `{column}` moved from {:.1}% to {:.1}% across the pipeline",
                b * 100.0,
                a * 100.0
            ),
        });
    }
    Ok(findings)
}

/// Provenance coverage: how much of source `source_name` (with `source_len`
/// rows) actually reaches the pipeline output. Reads the lineage's memoized
/// `(source row, output row)` pairs, sorted by source row, so the cost is
/// one arena pass regardless of how many output rows reference the source.
/// Warns when more than `max_unused_fraction` of the source's rows
/// contribute to no output row — the typical symptom of an over-selective
/// filter or a join dropping data.
///
/// Fails if the lineage references a row at or past `source_len`: the
/// caller's source is shorter than the one the pipeline ran on.
pub fn check_provenance_coverage(
    lineage: &Lineage,
    source_name: &str,
    source_len: usize,
    max_unused_fraction: f64,
) -> Result<Vec<Finding>> {
    let src = lineage.source_index(source_name).ok_or_else(|| {
        crate::PipelineError::InvalidPlan(format!(
            "source `{source_name}` not in lineage (sources: {:?})",
            lineage.sources
        ))
    })?;
    let pairs = lineage
        .inverted_pairs()
        .get(src as usize)
        .map_or(&[][..], Vec::as_slice);
    if let Some(&(row, _)) = pairs.last().filter(|&&(row, _)| row as usize >= source_len) {
        return Err(crate::PipelineError::InvalidPlan(format!(
            "source `{source_name}` row {row} is referenced by the lineage \
             but source_len is {source_len}"
        )));
    }
    let mut findings = Vec::new();
    if source_len == 0 {
        return Ok(findings);
    }
    let used = pairs.chunk_by(|a, b| a.0 == b.0).count();
    let unused = source_len - used;
    let frac = unused as f64 / source_len as f64;
    if frac > max_unused_fraction {
        findings.push(Finding {
            check: "provenance_coverage",
            severity: if frac >= 1.0 {
                Severity::Error
            } else {
                Severity::Warning
            },
            message: format!(
                "{unused} of {source_len} rows of `{source_name}` ({:.1}%) reach no output row",
                frac * 100.0
            ),
        });
    }
    Ok(findings)
}

fn collect_keys(table: &Table, key: &str) -> Result<FxHashSet<String>> {
    let mut set = FxHashSet::default();
    for row in 0..table.n_rows() {
        let v = table.get_ref(row, key)?;
        if !v.is_null() {
            set.insert(v.to_string());
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::hiring::{HiringScenario, LABEL_COLUMN};
    use nde_data::inject::{inject_missing, selection_bias, Missingness};

    #[test]
    fn missing_values_flagged_above_threshold() {
        let mut t = HiringScenario::generate(200, 1).letters;
        inject_missing(&mut t, "employer_rating", 0.3, Missingness::Mcar, 2).unwrap();
        let findings = check_missing_values(&t, 0.2);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("employer_rating"));
        assert_eq!(findings[0].severity, Severity::Warning);
        // 60% missing escalates to Error.
        inject_missing(&mut t, "employer_rating", 0.5, Missingness::Mcar, 3).unwrap();
        let findings = check_missing_values(&t, 0.2);
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn clean_table_produces_no_missing_findings() {
        let t = HiringScenario::generate(100, 2).letters;
        // degree has ~8% natural missingness; threshold 0.2 passes.
        assert!(check_missing_values(&t, 0.2).is_empty());
    }

    #[test]
    fn class_balance_detects_biased_sampling() {
        let t = HiringScenario::generate(400, 3).letters;
        assert!(check_class_balance(&t, LABEL_COLUMN, 0.3)
            .unwrap()
            .is_empty());
        let (biased, _, _) =
            selection_bias(&t, LABEL_COLUMN, &Value::Str("negative".into()), 0.15, 4).unwrap();
        let findings = check_class_balance(&biased, LABEL_COLUMN, 0.3).unwrap();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("negative"));
    }

    #[test]
    fn leakage_detected_via_key_overlap() {
        let s = HiringScenario::generate(100, 5);
        let train = s.letters.take(&(0..80).collect::<Vec<_>>()).unwrap();
        let clean_test = s.letters.take(&(80..100).collect::<Vec<_>>()).unwrap();
        assert!(check_leakage(&train, &clean_test, "person_id")
            .unwrap()
            .is_empty());
        let leaky_test = s.letters.take(&(70..90).collect::<Vec<_>>()).unwrap();
        let findings = check_leakage(&train, &leaky_test, "person_id").unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("10 of 20"));
    }

    #[test]
    fn coverage_flags_small_groups() {
        let t = HiringScenario::generate(50, 6).job_details;
        let findings = check_coverage(&t, "sector", 1000).unwrap();
        assert!(!findings.is_empty());
        let ok = check_coverage(&t, "sector", 1).unwrap();
        assert!(ok.is_empty());
    }

    #[test]
    fn provenance_coverage_flags_filtered_out_sources() {
        use crate::exec::Executor;
        use crate::plan::Plan;
        let s = HiringScenario::generate(120, 9);
        let (plan, root) = Plan::hiring_pipeline();
        let out = Executor::new()
            .with_provenance(true)
            .run(
                &plan,
                root,
                &[
                    ("train_df", &s.letters),
                    ("jobdetail_df", &s.job_details),
                    ("social_df", &s.social),
                ],
            )
            .unwrap();
        let lineage = out.provenance.unwrap();
        // The healthcare-only filter drops most letters rows: a tight
        // threshold fires, a permissive one stays silent.
        let strict =
            check_provenance_coverage(&lineage, "train_df", s.letters.n_rows(), 0.0).unwrap();
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].check, "provenance_coverage");
        assert!(strict[0].message.contains("train_df"));
        let lax = check_provenance_coverage(&lineage, "train_df", s.letters.n_rows(), 1.0).unwrap();
        assert!(lax.is_empty());
        // Unknown sources are rejected.
        assert!(check_provenance_coverage(&lineage, "nope", 10, 0.5).is_err());
    }

    /// A source shorter than the rows its lineage references is an error
    /// naming the row, not a count of the rows under `source_len`.
    #[test]
    fn provenance_coverage_rejects_a_source_len_below_a_referenced_row() {
        use crate::exec::Executor;
        use crate::plan::Plan;
        let s = HiringScenario::generate(200, 5);
        let (plan, root) = Plan::hiring_pipeline();
        let out = Executor::new()
            .with_provenance(true)
            .run(
                &plan,
                root,
                &[
                    ("train_df", &s.letters),
                    ("jobdetail_df", &s.job_details),
                    ("social_df", &s.social),
                ],
            )
            .unwrap();
        let lineage = out.provenance.unwrap();
        let src = lineage.source_index("train_df").unwrap();
        let last = (0..lineage.n_rows())
            .flat_map(|row| lineage.row_tuples(row))
            .filter(|t| t.source == src)
            .map(|t| t.row)
            .max()
            .unwrap();
        assert_eq!(last, 197);
        for source_len in [0, 10, 197] {
            match check_provenance_coverage(&lineage, "train_df", source_len, 0.5) {
                Err(crate::PipelineError::InvalidPlan(msg)) => {
                    assert!(msg.contains("row 197"), "{msg}")
                }
                other => panic!("source_len {source_len}: {other:?}"),
            }
        }
        let full = check_provenance_coverage(&lineage, "train_df", 198, 0.0).unwrap();
        assert_eq!(full.len(), 1, "{full:?}");
        assert!(check_provenance_coverage(&lineage, "train_df", 200, 1.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn distribution_shift_detected_after_biased_filter() {
        let t = HiringScenario::generate(300, 7).letters;
        let (biased, _, _) =
            selection_bias(&t, LABEL_COLUMN, &Value::Str("positive".into()), 0.2, 8).unwrap();
        let findings = check_distribution_shift(
            &t,
            &biased,
            LABEL_COLUMN,
            &Value::Str("positive".into()),
            0.1,
        )
        .unwrap();
        assert_eq!(findings.len(), 1);
        // Identity comparison raises nothing.
        let none =
            check_distribution_shift(&t, &t, LABEL_COLUMN, &Value::Str("positive".into()), 0.1)
                .unwrap();
        assert!(none.is_empty());
    }
}
