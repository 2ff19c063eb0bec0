//! Whole-stack determinism: every workflow is exactly reproducible from its
//! seeds, across crate boundaries.

use nde::scenario::load_recommendation_letters;
use nde::workflows::{debug, identify, learn};
use nde_data::inject::Missingness;

#[test]
fn identify_workflow_is_bit_reproducible() {
    let cfg = identify::IdentifyConfig {
        error_fraction: 0.1,
        clean_count: 20,
        seed: 9,
    };
    let run = || {
        let s = load_recommendation_letters(200, 33);
        identify::run(&s, &cfg).expect("runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.acc_clean, b.acc_clean);
    assert_eq!(a.acc_dirty, b.acc_dirty);
    assert_eq!(a.acc_cleaned, b.acc_cleaned);
    assert_eq!(a.cleaned_rows, b.cleaned_rows);
    assert_eq!(a.detection_precision, b.detection_precision);
}

#[test]
fn debug_workflow_is_bit_reproducible() {
    let cfg = debug::DebugConfig::default();
    let run = || {
        let s = load_recommendation_letters(250, 34);
        debug::run(&s, &cfg).expect("runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.acc_before, b.acc_before);
    assert_eq!(a.acc_after, b.acc_after);
    assert_eq!(a.removed_rows, b.removed_rows);
    assert_eq!(a.source_importance, b.source_importance);
    assert_eq!(a.plan, b.plan);
}

#[test]
fn learn_workflow_is_bit_reproducible() {
    let cfg = learn::LearnConfig {
        percentages: vec![10.0, 20.0],
        mechanism: Missingness::Mnar { skew: 4.0 },
        seed: 5,
        ..Default::default()
    };
    let run = || {
        let s = load_recommendation_letters(200, 35);
        learn::run(&s, &cfg).expect("runs")
    };
    let a = run();
    let b = run();
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.max_worst_case_loss, pb.max_worst_case_loss);
        assert_eq!(pa.baseline_mse, pb.baseline_mse);
    }
}

#[test]
fn interrupted_shapley_resumes_bit_identically() {
    use nde_data::generate::blobs::two_gaussians;
    use nde_importance::{tmc_shapley, EstimatorCheckpoint, ImportanceRun, TmcParams};
    use nde_ml::dataset::Dataset;
    use nde_ml::models::knn::KnnClassifier;
    use nde_robust::{RunBudget, RunFingerprint, RunStore};

    let tmc_state = |snapshot: Option<EstimatorCheckpoint>| match snapshot {
        Some(EstimatorCheckpoint::Tmc(c)) => c,
        other => panic!("expected a TMC snapshot, got {other:?}"),
    };

    let nd = two_gaussians(80, 3, 1.5, 21);
    let all = Dataset::try_from(&nd).unwrap();
    let train = all.subset(&(0..60).collect::<Vec<_>>());
    let valid = all.subset(&(60..80).collect::<Vec<_>>());
    let params = TmcParams {
        permutations: 24,
        truncation_tolerance: 0.0,
    };
    let knn = KnnClassifier::new(3);
    let full = tmc_shapley(&ImportanceRun::new(3), &knn, &train, &valid, &params)
        .expect("uninterrupted run");
    assert!(full.report.diagnostics.as_ref().unwrap().completed());
    let full_ckpt = tmc_state(full.report.snapshot.clone());

    // Interrupt after k permutations, persist the checkpoint as a durable
    // store record (a simulated crash + restart), read it back, resume, and
    // demand the *exact* floats the uninterrupted run produced.
    let dir = std::env::temp_dir().join(format!("nde-determinism-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = RunStore::open(&dir).expect("open store");
    for k in [1u64, 7, 23] {
        let partial = tmc_shapley(
            &ImportanceRun::new(3).with_budget(RunBudget::unlimited().with_max_iterations(k)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .expect("interrupted run");
        let snapshot = partial.report.snapshot.expect("TMC runs snapshot");
        let partial_ckpt = tmc_state(Some(snapshot.clone()));
        assert_eq!(partial_ckpt.cursor, k);
        let fp = RunFingerprint::new("tmc-shapley", 3, format!("k={k}"), 0);
        store
            .save_checkpoint(&fp, snapshot.step(), &snapshot.to_payload())
            .expect("save checkpoint");
        let record = store
            .latest_valid(&fp)
            .expect("read store")
            .expect("record survives");
        let restored = EstimatorCheckpoint::from_payload(&record.payload).expect("parse record");
        assert_eq!(restored, snapshot);
        let resumed = tmc_shapley(
            &ImportanceRun::new(3).with_resume(&restored),
            &knn,
            &train,
            &valid,
            &params,
        )
        .expect("resumed run");
        assert_eq!(
            resumed.scores.values, full.scores.values,
            "resume after {k} permutations must be bit-identical"
        );
        let resumed_ckpt = tmc_state(resumed.report.snapshot);
        assert_eq!(resumed_ckpt.totals, full_ckpt.totals);
        assert_eq!(resumed_ckpt.totals_sq, full_ckpt.totals_sq);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_seeds_actually_differ() {
    let s1 = load_recommendation_letters(100, 1);
    let s2 = load_recommendation_letters(100, 2);
    assert_ne!(s1.train, s2.train);
    let cfg = identify::IdentifyConfig::default();
    let a = identify::run(&s1, &cfg).expect("runs");
    let b = identify::run(&s2, &cfg).expect("runs");
    // Outcomes should not be identical across different data seeds.
    assert!(
        a.acc_dirty != b.acc_dirty
            || a.acc_cleaned != b.acc_cleaned
            || a.cleaned_rows != b.cleaned_rows
    );
}
