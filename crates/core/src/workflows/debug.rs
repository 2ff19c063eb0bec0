//! Fig. 3 — *Debug*: incorporating preprocessing pipelines.
//!
//! Run the hiring pipeline (two joins, a sector filter, a `has_twitter`
//! projection, feature encoders) with provenance, compute Datascope
//! importance for the *source* letters, remove the lowest-ranked source
//! tuples, and measure the accuracy change (the paper's snippet prints
//! `Removal changed accuracy by 0.027`).

use crate::scenario::LettersScenario;
use crate::Result;
use nde_importance::{datascope, ImportanceRun};
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::render::render_plan;
use nde_robust::par::WorkerPool;

/// Configuration of the Fig. 3 workflow.
#[derive(Debug, Clone)]
pub struct DebugConfig {
    /// Text-hash embedding width.
    pub text_dims: usize,
    /// How many lowest-importance source tuples to remove.
    pub remove_count: usize,
    /// KNN neighborhood for both the Shapley proxy and the final model.
    pub k: usize,
}

impl Default for DebugConfig {
    fn default() -> Self {
        DebugConfig {
            text_dims: 32,
            remove_count: 25,
            k: 5,
        }
    }
}

/// Outcome of the Fig. 3 workflow.
#[derive(Debug, Clone)]
pub struct DebugOutcome {
    /// ASCII rendering of the pipeline plan.
    pub plan: String,
    /// Rows of the pipeline's training output.
    pub pipeline_rows: usize,
    /// Validation accuracy before any intervention.
    pub acc_before: f64,
    /// Validation accuracy after removing the lowest-importance source tuples.
    pub acc_after: f64,
    /// `acc_after − acc_before`.
    pub accuracy_delta: f64,
    /// The removed source-row indices (into the training letters table).
    pub removed_rows: Vec<usize>,
    /// Importance of every source letters row (0 for rows the pipeline drops).
    pub source_importance: Vec<f64>,
}

/// Run the Fig. 3 workflow.
pub fn run(scenario: &LettersScenario, config: &DebugConfig) -> Result<DebugOutcome> {
    let mut fp = FeaturePipeline::hiring(config.text_dims);
    let plan = render_plan(&fp.plan, fp.root)?;

    // Training run with provenance; validation run with the fitted encoders.
    let train_out = fp.fit_run(&scenario.pipeline_inputs(&scenario.train), true)?;
    let valid_out = fp.transform_run(&scenario.pipeline_inputs(&scenario.valid), false)?;

    let eval = |train: &nde_ml::dataset::Dataset| -> Result<f64> {
        let mut model = KnnClassifier::new(config.k);
        model.fit(train)?;
        Ok(model.accuracy(&valid_out.dataset))
    };
    let acc_before = eval(&train_out.dataset)?;

    // Datascope: importance of the source letters via provenance pushback,
    // at the shared pool's full width.
    let run = ImportanceRun::new(0).with_threads(WorkerPool::shared().workers() + 1);
    let scores = datascope(
        &run,
        &train_out,
        &valid_out.dataset,
        "train_df",
        scenario.train.n_rows(),
        config.k,
    )?
    .scores;
    let removed_rows = scores.bottom_k(config.remove_count);

    // Remove those source tuples and re-run the pipeline end to end.
    let keep: Vec<usize> = (0..scenario.train.n_rows())
        .filter(|r| !removed_rows.contains(r))
        .collect();
    let train_removed = scenario.train.take(&keep)?;
    let mut fp2 = FeaturePipeline::hiring(config.text_dims);
    let train_out2 = fp2.fit_run(&scenario.pipeline_inputs(&train_removed), false)?;
    let valid_out2 = fp2.transform_run(&scenario.pipeline_inputs(&scenario.valid), false)?;
    let mut model = KnnClassifier::new(config.k);
    model.fit(&train_out2.dataset)?;
    let acc_after = model.accuracy(&valid_out2.dataset);

    Ok(DebugOutcome {
        plan,
        pipeline_rows: train_out.dataset.len(),
        acc_before,
        acc_after,
        accuracy_delta: acc_after - acc_before,
        removed_rows,
        source_importance: scores.values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::inject_label_errors;
    use crate::scenario::load_recommendation_letters;

    #[test]
    fn workflow_runs_and_reports_plan() {
        let scenario = load_recommendation_letters(300, 31);
        let outcome = run(&scenario, &DebugConfig::default()).unwrap();
        assert!(outcome.plan.contains("Join"));
        assert!(outcome.pipeline_rows > 0);
        assert_eq!(outcome.removed_rows.len(), 25);
        assert_eq!(outcome.source_importance.len(), scenario.train.n_rows());
        assert!((outcome.accuracy_delta - (outcome.acc_after - outcome.acc_before)).abs() < 1e-12);
    }

    #[test]
    fn removing_harmful_source_tuples_helps_on_dirty_data() {
        let mut scenario = load_recommendation_letters(400, 32);
        inject_label_errors(&mut scenario.train, 0.25, 33).unwrap();
        let outcome = run(&scenario, &DebugConfig::default()).unwrap();
        assert!(
            outcome.accuracy_delta >= -0.02,
            "removal should not clearly hurt: {outcome:?}"
        );
    }
}
