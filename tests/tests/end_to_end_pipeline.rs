//! End-to-end integration of the *Debug* pillar: pipeline execution,
//! provenance, Datascope pushback, and source-level cleaning.

use nde::api::inject_label_errors;
use nde::scenario::load_recommendation_letters;
use nde_cleaning::oracle::TableOracle;
use nde_importance::{datascope, ImportanceRun};
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::inspect::{check_class_balance, check_leakage, check_missing_values};
use nde_pipeline::semiring::{BoolSemiring, Semiring};

#[test]
fn provenance_supports_deletion_propagation() {
    // Deleting a source tuple must kill exactly the output rows whose
    // provenance mentions it — checked via Boolean-semiring evaluation.
    let s = load_recommendation_letters(200, 11);
    let mut fp = FeaturePipeline::hiring(8);
    let out = fp
        .fit_run(&s.pipeline_inputs(&s.train), true)
        .expect("pipeline runs");
    let lineage = out.lineage.expect("provenance tracked");
    let src = lineage.source_index("train_df").expect("letters source");

    // Pick a source row that actually reaches the output.
    let reached: Vec<u32> = (0..lineage.n_rows())
        .flat_map(|row| lineage.row_tuples(row))
        .filter(|t| t.source == src)
        .map(|t| t.row)
        .collect();
    let victim = reached[0];

    // Boolean semiring, one pass over the whole arena: alive iff not the
    // victim.
    let alive: Vec<bool> =
        lineage.eval_rows::<BoolSemiring>(&|t| !(t.source == src && t.row == victim));
    let killed: Vec<usize> = alive
        .iter()
        .enumerate()
        .filter(|(_, &a)| !a)
        .map(|(i, _)| i)
        .collect();
    assert!(!killed.is_empty(), "victim row never reached the output");

    // Re-run the pipeline without the victim: output must shrink by the
    // number of killed rows.
    let keep: Vec<usize> = (0..s.train.n_rows())
        .filter(|&r| r != victim as usize)
        .collect();
    let train_removed = s.train.take(&keep).expect("take");
    let mut fp2 = FeaturePipeline::hiring(8);
    let out2 = fp2
        .fit_run(&s.pipeline_inputs(&train_removed), false)
        .expect("pipeline runs");
    assert_eq!(out2.dataset.len(), out.dataset.len() - killed.len());

    // Sanity: the semiring's one/zero behave.
    assert!(BoolSemiring::one());
    assert!(!BoolSemiring::zero());
}

#[test]
fn datascope_guided_source_cleaning_improves_pipeline_model() {
    let clean = load_recommendation_letters(500, 12);
    let mut s = clean.clone();
    inject_label_errors(&mut s.train, 0.2, 13).expect("injection");

    let mut fp = FeaturePipeline::hiring(24);
    let train_out = fp
        .fit_run(&s.pipeline_inputs(&s.train), true)
        .expect("pipeline runs");
    let valid_out = fp
        .transform_run(&s.pipeline_inputs(&s.valid), false)
        .expect("pipeline transforms");

    let eval = |train: &nde_ml::dataset::Dataset| {
        let mut m = KnnClassifier::new(5);
        m.fit(train).expect("fits");
        m.accuracy(&valid_out.dataset)
    };
    let acc_dirty = eval(&train_out.dataset);

    // Clean the 30 lowest-importance SOURCE tuples with the oracle, then
    // re-run the pipeline from the repaired sources.
    let scores = datascope(
        &ImportanceRun::new(0).with_threads(2),
        &train_out,
        &valid_out.dataset,
        "train_df",
        s.train.n_rows(),
        5,
    )
    .expect("datascope")
    .scores;
    let picks = scores.bottom_k(30);
    let oracle = TableOracle::new(clean.train.clone());
    let mut repaired = s.train.clone();
    oracle.repair_rows(&mut repaired, &picks).expect("repairs");

    let mut fp2 = FeaturePipeline::hiring(24);
    let train_out2 = fp2
        .fit_run(&s.pipeline_inputs(&repaired), false)
        .expect("pipeline runs");
    let valid_out2 = fp2
        .transform_run(&s.pipeline_inputs(&s.valid), false)
        .expect("pipeline transforms");
    let mut m = KnnClassifier::new(5);
    m.fit(&train_out2.dataset).expect("fits");
    let acc_cleaned = m.accuracy(&valid_out2.dataset);

    assert!(
        acc_cleaned >= acc_dirty - 0.02,
        "source cleaning hurt: {acc_dirty} -> {acc_cleaned}"
    );
}

#[test]
fn inspections_flag_real_issues_and_pass_clean_data() {
    let s = load_recommendation_letters(300, 14);
    // Clean data passes.
    assert!(check_missing_values(&s.train, 0.2).is_empty());
    assert!(check_class_balance(&s.train, "sentiment", 0.25)
        .expect("check runs")
        .is_empty());
    assert!(check_leakage(&s.train, &s.test, "person_id")
        .expect("check runs")
        .is_empty());
    // A leaky split is caught.
    let leaky = s.train.take(&(0..50).collect::<Vec<_>>()).expect("take");
    let findings = check_leakage(&s.train, &leaky, "person_id").expect("check runs");
    assert_eq!(findings.len(), 1);
}
