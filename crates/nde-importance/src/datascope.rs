//! Datascope: data importance *over ML pipelines* (Karlaš et al., ICLR'23).
//!
//! Importance methods score the rows of the *encoded training matrix* — but
//! errors live in the pipeline's *source tables*, upstream of joins, filters
//! and encoders (paper §2.2, Fig. 3). Datascope bridges the gap: compute
//! KNN-Shapley over the pipeline output, then push the scores back through
//! the provenance mapping. Each source tuple's importance is the sum of the
//! importances of the output rows that depend on it.
//!
//! The entry point is [`datascope()`], which takes its thread count
//! (`run.threads`, at least 1) and worker pool from an [`ImportanceRun`]
//! like every other method. The KNN-Shapley pass folds its validation
//! points in fixed chunks, so the scores are the same bits at every thread
//! count and on every pool.
//!
//! # When the sum is exact
//!
//! The summed score is that tuple's Shapley value only when each tuple of
//! the ranked source reaches at most one output row, as in the hiring
//! pipeline's `train_df`. For a source that fans out, such as
//! `jobdetail_df` or `social_df`, deleting one tuple removes all its output
//! rows together, so the sum is not that tuple's Shapley value; exact group
//! Shapley over such sources is ROADMAP item 9, step 2.

use crate::common::ImportanceScores;
use crate::run::{datascope, ImportanceRun};
use crate::Result;
use nde_ml::dataset::Dataset;
use nde_pipeline::feature::FeatureOutput;
use nde_robust::par::WorkerPool;

/// [`datascope()`] on the shared worker pool at its full width
/// (`WorkerPool::shared().workers() + 1` threads), the same convention as
/// `DistanceTable::new`.
///
/// Only the benchmark harness still calls this form; it goes once that
/// harness passes an [`ImportanceRun`] (ROADMAP items 1 and 6).
pub fn datascope_importance(
    train_output: &FeatureOutput,
    valid: &Dataset,
    source_name: &str,
    source_len: usize,
    k: usize,
) -> Result<ImportanceScores> {
    let run = ImportanceRun::new(0).with_threads(WorkerPool::shared().workers() + 1);
    Ok(datascope(&run, train_output, valid, source_name, source_len, k)?.scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::TmcParams;
    use crate::snapshot::{EstimatorCheckpoint, McCheckpoint};
    use crate::ImportanceError;
    use nde_data::generate::hiring::{HiringScenario, LABEL_COLUMN};
    use nde_data::inject::flip_labels;
    use nde_data::Table;
    use nde_pipeline::feature::FeaturePipeline;
    use nde_robust::{RunBudget, RunStore};
    use std::sync::Arc;

    fn inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
        vec![
            ("train_df", &s.letters),
            ("jobdetail_df", &s.job_details),
            ("social_df", &s.social),
        ]
    }

    #[test]
    fn source_rows_dropped_by_filter_get_zero() {
        let s = HiringScenario::generate(150, 21);
        let valid_s = HiringScenario::generate(60, 22);
        let mut fp = FeaturePipeline::hiring(16);
        let train_out = fp.fit_run(&inputs(&s), true).unwrap();
        let valid_out = fp.transform_run(&inputs(&valid_s), false).unwrap();
        let scores = datascope_importance(
            &train_out,
            &valid_out.dataset,
            "train_df",
            s.letters.n_rows(),
            1,
        )
        .unwrap();
        assert_eq!(scores.len(), s.letters.n_rows());
        // Letters whose job is not healthcare never reach the output.
        let lineage = train_out.lineage.as_ref().unwrap();
        let src = lineage.source_index("train_df").unwrap();
        let reached: std::collections::HashSet<u32> = (0..lineage.n_rows())
            .flat_map(|row| lineage.row_tuples(row))
            .filter(|t| t.source == src)
            .map(|t| t.row)
            .collect();
        for row in 0..s.letters.n_rows() {
            if !reached.contains(&(row as u32)) {
                assert_eq!(
                    scores.values[row].to_bits(),
                    (-0.0_f64).to_bits(),
                    "dropped row {row} must score -0.0"
                );
            }
        }
        // At least one reached row has nonzero importance.
        assert!(scores.values.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn flipped_source_labels_rank_low() {
        let clean = HiringScenario::generate(200, 23);
        let valid_s = HiringScenario::generate(80, 24);
        let mut dirty = clean.letters.clone();
        let report = flip_labels(&mut dirty, LABEL_COLUMN, 0.1, 25).unwrap();
        let dirty_scenario = HiringScenario {
            letters: dirty,
            job_details: clean.job_details.clone(),
            social: clean.social.clone(),
        };
        let mut fp = FeaturePipeline::hiring(24);
        let train_out = fp.fit_run(&inputs(&dirty_scenario), true).unwrap();
        let valid_out = fp.transform_run(&inputs(&valid_s), false).unwrap();
        let scores = datascope_importance(
            &train_out,
            &valid_out.dataset,
            "train_df",
            dirty_scenario.letters.n_rows(),
            1,
        )
        .unwrap();
        // Among flipped rows that actually reached the output, most should
        // score below the median of reached rows.
        let lineage = train_out.lineage.as_ref().unwrap();
        let src = lineage.source_index("train_df").unwrap();
        let reached: std::collections::HashSet<usize> = (0..lineage.n_rows())
            .flat_map(|row| lineage.row_tuples(row))
            .filter(|t| t.source == src)
            .map(|t| t.row as usize)
            .collect();
        let mut reached_scores: Vec<f64> = reached.iter().map(|&r| scores.values[r]).collect();
        reached_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = reached_scores[reached_scores.len() / 2];
        let flipped_reached: Vec<usize> = report
            .affected
            .iter()
            .copied()
            .filter(|r| reached.contains(r))
            .collect();
        assert!(!flipped_reached.is_empty());
        let below = flipped_reached
            .iter()
            .filter(|&&r| scores.values[r] <= median)
            .count();
        assert!(
            below * 10 >= flipped_reached.len() * 6,
            "{below}/{} flipped rows below median",
            flipped_reached.len()
        );
    }

    #[test]
    fn requires_lineage_and_known_source() {
        let s = HiringScenario::generate(60, 26);
        let mut fp = FeaturePipeline::hiring(8);
        let no_lineage = fp.fit_run(&inputs(&s), false).unwrap();
        let valid = no_lineage.dataset.clone();
        assert!(datascope_importance(&no_lineage, &valid, "train_df", 60, 1).is_err());
        let with_lineage = fp.fit_run(&inputs(&s), true).unwrap();
        assert!(datascope_importance(&with_lineage, &valid, "no_such_source", 60, 1).is_err());
    }

    #[test]
    fn side_table_importance_also_computable() {
        let s = HiringScenario::generate(100, 27);
        let valid_s = HiringScenario::generate(50, 28);
        let mut fp = FeaturePipeline::hiring(8);
        let train_out = fp.fit_run(&inputs(&s), true).unwrap();
        let valid_out = fp.transform_run(&inputs(&valid_s), false).unwrap();
        // Importance of jobdetail rows: a job hosting many letters aggregates
        // the importance of all of them.
        let scores = datascope_importance(
            &train_out,
            &valid_out.dataset,
            "jobdetail_df",
            s.job_details.n_rows(),
            1,
        )
        .unwrap();
        assert_eq!(scores.len(), s.job_details.n_rows());
        assert!(scores.values.iter().any(|&v| v != 0.0));
    }

    /// A tracked hiring training run and its validation features.
    fn tracked(n: usize, seed: u64) -> (HiringScenario, FeatureOutput, Dataset) {
        let s = HiringScenario::generate(n, seed);
        let valid_s = HiringScenario::generate(n / 2, seed + 1);
        let mut fp = FeaturePipeline::hiring(8);
        let train_out = fp.fit_run(&inputs(&s), true).unwrap();
        let valid = fp.transform_run(&inputs(&valid_s), false).unwrap().dataset;
        (s, train_out, valid)
    }

    fn bits(scores: &ImportanceScores) -> Vec<u64> {
        scores.values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn scores_are_the_same_bits_at_every_thread_count_and_in_the_wrapper() {
        let (s, train_out, valid) = tracked(160, 30);
        let n = s.letters.n_rows();
        let at = |threads: usize| {
            let run = ImportanceRun::new(0)
                .with_threads(threads)
                .with_pool(Arc::new(WorkerPool::new(threads - 1)));
            let outcome = datascope(&run, &train_out, &valid, "train_df", n, 3).unwrap();
            assert_eq!(outcome.report.utility_calls, 0);
            assert!(outcome.report.snapshot.is_none());
            bits(&outcome.scores)
        };
        let reference = at(1);
        assert!(reference.iter().any(|&b| f64::from_bits(b) != 0.0));
        for threads in [2, 4, 7] {
            assert_eq!(at(threads), reference, "{threads} threads");
        }
        let wrapped = datascope_importance(&train_out, &valid, "train_df", n, 3).unwrap();
        assert_eq!(wrapped.method, "datascope");
        assert_eq!(bits(&wrapped), reference);
    }

    #[test]
    fn budgets_resume_and_stores_are_unsupported() {
        let (s, train_out, valid) = tracked(60, 32);
        let n = s.letters.n_rows();
        let unsupported = |run: &ImportanceRun| {
            matches!(
                datascope(run, &train_out, &valid, "train_df", n, 1),
                Err(ImportanceError::Unsupported(_))
            )
        };
        let budgeted = ImportanceRun::new(0).with_budget(RunBudget::unlimited());
        assert!(unsupported(&budgeted));
        let ckpt = EstimatorCheckpoint::Tmc(McCheckpoint::fresh(
            &TmcParams::default(),
            0,
            train_out.dataset.len(),
        ));
        assert!(unsupported(&ImportanceRun::new(0).with_resume(&ckpt)));
        let dir = std::env::temp_dir().join(format!("nde-datascope-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = RunStore::open(&dir).unwrap();
        assert!(unsupported(&ImportanceRun::new(0).with_store(&store)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lineage_that_does_not_cover_the_dataset_is_rejected() {
        let (s, train_out, valid) = tracked(60, 34);
        let n = s.letters.n_rows();
        let mut longer = train_out.clone();
        let lineage = longer.lineage.as_mut().unwrap();
        lineage.rows.push(lineage.rows[0]);
        let mut shorter = train_out.clone();
        shorter.lineage.as_mut().unwrap().rows.pop();
        for out in [&longer, &shorter] {
            assert!(matches!(
                datascope_importance(out, &valid, "train_df", n, 1),
                Err(ImportanceError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn a_source_len_below_a_referenced_row_is_rejected() {
        let (_, train_out, valid) = tracked(60, 36);
        let lineage = train_out.lineage.as_ref().unwrap();
        let src = lineage.source_index("train_df").unwrap();
        let last = (0..lineage.n_rows())
            .flat_map(|row| lineage.row_tuples(row))
            .filter(|t| t.source == src)
            .map(|t| t.row as usize)
            .max()
            .unwrap();
        assert!(datascope_importance(&train_out, &valid, "train_df", last + 1, 1).is_ok());
        assert!(matches!(
            datascope_importance(&train_out, &valid, "train_df", last, 1),
            Err(ImportanceError::InvalidArgument(_))
        ));
    }
}
