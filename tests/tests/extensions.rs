//! Integration tests for the extension features: what-if deletion
//! propagation + Datascope interplay, unlearning as a cleaning mechanism,
//! fuzzy joins inside executed plans, and Gopher on encoded pipelines.

use nde::api::inject_label_errors;
use nde::scenario::load_recommendation_letters;
use nde_importance::{datascope, knn_shapley, ImportanceRun};
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_ml::models::unlearn::Unlearn;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::whatif::{apply_deletion, delete_source_rows};

#[test]
fn whatif_predicts_the_effect_of_datascope_removal() {
    // The Fig. 3 flow re-runs the pipeline after removing low-importance
    // source tuples; what-if deletion propagation predicts the surviving
    // output rows without re-execution. The two must agree on row count for
    // the primary source.
    let mut s = load_recommendation_letters(300, 71);
    inject_label_errors(&mut s.train, 0.15, 72).expect("injects");

    let mut fp = FeaturePipeline::hiring(16);
    let train_out = fp
        .fit_run(&s.pipeline_inputs(&s.train), true)
        .expect("pipeline runs");
    let valid_out = fp
        .transform_run(&s.pipeline_inputs(&s.valid), false)
        .expect("pipeline transforms");
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
    let removed = scores.bottom_k(25);

    // Prediction via provenance.
    let lineage = train_out.lineage.as_ref().expect("tracked");
    let effect = delete_source_rows(lineage, "train_df", &removed).expect("predicts");
    let predicted = apply_deletion(&train_out.table, &effect).expect("applies");

    // Ground truth via re-execution.
    let keep: Vec<usize> = (0..s.train.n_rows())
        .filter(|r| !removed.contains(r))
        .collect();
    let reduced = s.train.take(&keep).expect("takes");
    let mut fp2 = FeaturePipeline::hiring(16);
    let actual = fp2
        .fit_run(&s.pipeline_inputs(&reduced), false)
        .expect("pipeline runs");

    assert_eq!(predicted.n_rows(), actual.table.n_rows());
}

#[test]
fn unlearning_the_lowest_shapley_tuples_improves_accuracy() {
    // §2.4's debugging-unlearning connection, end to end: identify harmful
    // tuples with KNN-Shapley, *forget* them (no retraining API needed),
    // and watch validation accuracy recover.
    let mut s = load_recommendation_letters(400, 73);
    inject_label_errors(&mut s.train, 0.2, 74).expect("injects");

    let enc = nde::api::LettersEncoding::fit(&s.train).expect("fits");
    let train = enc.dataset(&s.train).expect("encodes");
    let valid = enc.dataset(&s.valid).expect("encodes");

    let mut model = KnnClassifier::new(5);
    model.fit(&train).expect("fits");
    let acc_dirty = model.accuracy(&valid);

    let scores = knn_shapley(&ImportanceRun::new(0), &train, &valid, 5)
        .expect("scores")
        .scores;
    let harmful = scores.bottom_k(40);
    model.forget(&harmful).expect("forgets");
    assert_eq!(model.remembered(), train.len() - 40);
    let acc_after = model.accuracy(&valid);
    assert!(
        acc_after >= acc_dirty - 0.02,
        "forgetting harmful tuples should not hurt: {acc_dirty} -> {acc_after}"
    );
}

#[test]
fn fuzzy_join_pipeline_supports_datascope() {
    // A pipeline whose integration step is a *fuzzy* join still yields
    // provenance usable for source attribution.
    use nde_data::{DataType, Field, Schema, Table, Value};
    use nde_pipeline::exec::Executor;
    use nde_pipeline::plan::Plan;

    // Letters reference employers by free-text name with typos.
    let mut letters = Table::empty(
        "letters",
        Schema::new(vec![
            Field::new("employer", DataType::Str),
            Field::new("score", DataType::Float),
        ])
        .unwrap(),
    );
    let employers = ["acme corp", "globex", "initech", "umbrella co"];
    for i in 0..40 {
        let base = employers[i % 4];
        let name = if i % 3 == 0 {
            format!("{base}.") // light typo
        } else {
            base.to_uppercase()
        };
        letters
            .push_row(vec![name.into(), ((i % 10) as f64).into()])
            .unwrap();
    }
    let mut companies = Table::empty(
        "companies",
        Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("sector", DataType::Str),
        ])
        .unwrap(),
    );
    for (n, s) in [
        ("Acme Corp", "healthcare"),
        ("Globex", "tech"),
        ("Initech", "healthcare"),
        ("Umbrella Co", "biotech"),
    ] {
        companies.push_row(vec![n.into(), s.into()]).unwrap();
    }

    let mut plan = Plan::new();
    let l = plan.source("letters");
    let c = plan.source("companies");
    let joined = plan.fuzzy_join(l, c, "employer", "name", 0.8);
    let filtered = plan.filter(
        joined,
        nde_pipeline::expr::Expr::col("sector").eq(nde_pipeline::expr::Expr::str("healthcare")),
    );
    let out = Executor::new()
        .with_provenance(true)
        .run(
            &plan,
            filtered,
            &[("letters", &letters), ("companies", &companies)],
        )
        .unwrap();
    // Acme + Initech letters survive: 20 rows.
    assert_eq!(out.table.n_rows(), 20);
    let lineage = out.provenance.unwrap();
    // Every output row traces to exactly one letter and one company.
    let company_src = lineage.source_index("companies").unwrap();
    for row in 0..lineage.n_rows() {
        let tuples = lineage.row_tuples(row);
        assert_eq!(tuples.len(), 2);
        let company_row = tuples.iter().find(|t| t.source == company_src).unwrap();
        let sector = companies.get(company_row.row as usize, "sector").unwrap();
        assert_eq!(sector, Value::Str("healthcare".into()));
    }
    // The inverted index attributes output rows per company.
    let per_company = lineage.outputs_per_source_row(company_src, companies.n_rows());
    assert_eq!(per_company[0].len(), 10); // acme
    assert_eq!(per_company[1].len(), 0); // globex filtered out
    assert_eq!(per_company[2].len(), 10); // initech
}
