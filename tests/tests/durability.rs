//! Durability chaos tests: supervised estimation loops are killed at
//! chaos-scheduled checkpoint saves, their on-disk records are torn,
//! checksum-corrupted, and version-staled — and every workflow (TMC-Shapley,
//! Banzhaf, Beta-Shapley, the Zorro interval fit, and the prioritized
//! cleaning loop) must still finish **bit-identical** to an uninterrupted
//! run.

use nde_cleaning::{
    prioritized_cleaning, prioritized_cleaning_resumable, CleaningCheckpoint, CleaningError,
    LabelOracle, MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::{linear_regression, two_gaussians};
use nde_importance::{
    banzhaf, beta_shapley, tmc_shapley, BanzhafParams, BetaShapleyParams, EstimatorCheckpoint,
    ImportanceError, ImportanceOutcome, ImportanceRun, TmcParams,
};
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::{supervise, RetryPolicy, RunBudget, RunFingerprint, RunStore, SuperviseCtx};
use nde_tests::chaos::{
    corrupt_record_checksum, stale_record_version, truncate_record, CheckpointKillSwitch,
    FaultSchedule, CHAOS_PANIC_PREFIX,
};
use nde_uncertain::symbolic::column_bounds_from_observed;
use nde_uncertain::zorro::{ZorroCheckpoint, ZorroConfig, ZorroRegressor};
use nde_uncertain::{Interval, SymbolicMatrix, UncertainError};

fn temp_store(tag: &str) -> RunStore {
    let dir = std::env::temp_dir().join(format!("nde-durability-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    RunStore::open(dir).unwrap()
}

fn gaussian_split() -> (Dataset, Dataset) {
    let nd = two_gaussians(80, 3, 1.5, 51);
    let all = Dataset::try_from(&nd).unwrap();
    (
        all.subset(&(0..60).collect::<Vec<_>>()),
        all.subset(&(60..80).collect::<Vec<_>>()),
    )
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value {i} differs ({x} vs {y})"
        );
    }
}

/// A supervised TMC-Shapley sweep killed right after its 2nd and 4th
/// checkpoint saves restarts, resumes from the store, and ends with scores
/// bit-identical to an uninterrupted run.
#[test]
fn supervised_tmc_shapley_rides_out_chaos_kills_bit_identically() {
    const PERMS: u64 = 12;
    const SEGMENT: u64 = 3;
    let (train, valid) = gaussian_split();
    let knn = KnnClassifier::new(3);
    let params = TmcParams {
        permutations: PERMS as usize,
        truncation_tolerance: 0.0,
    };
    let full = tmc_shapley(&ImportanceRun::new(11), &knn, &train, &valid, &params).unwrap();

    let store = temp_store("tmc");
    let fp = RunFingerprint::new("tmc-shapley", 11, "perms=12;tol=0", 0xC0FFEE);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[1, 3]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(8),
        |ctx: &SuperviseCtx<'_>| -> Result<ImportanceOutcome, ImportanceError> {
            loop {
                // Resume from the newest valid record, advance one segment,
                // persist, and maybe get killed right after the save.
                let resume = match ctx.latest()? {
                    Some(r) => Some(EstimatorCheckpoint::from_payload(&r.payload)?),
                    None => None,
                };
                let done = resume.as_ref().map_or(0, EstimatorCheckpoint::step);
                let target = (done + SEGMENT).min(PERMS);
                let mut opts = ImportanceRun::new(11)
                    .with_budget(RunBudget::unlimited().with_max_iterations(target));
                if let Some(snap) = resume.as_ref() {
                    opts = opts.with_resume(snap);
                }
                let out = tmc_shapley(&opts, &knn, &train, &valid, &params)?;
                let snap = out
                    .report
                    .snapshot
                    .clone()
                    .expect("MC runs always snapshot");
                ctx.checkpoint(snap.step(), &snap.to_payload())?;
                kill.observe();
                if snap.step() >= PERMS {
                    return Ok(out);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 3, "two kills cost two restarts");
    assert_eq!(sup.crashes.len(), 2);
    assert!(sup
        .crashes
        .iter()
        .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
    assert_bits_eq(
        &sup.value.scores.values,
        &full.scores.values,
        "supervised TMC scores",
    );
    assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, PERMS);
    std::fs::remove_dir_all(store.root()).ok();
}

/// Runs `method` ("banzhaf", "beta-shapley" or "tmc-shapley") for 10
/// steps under `run`. Beta-Shapley's steps are points, so it scores the
/// first 10 training rows.
fn estimate(
    method: &str,
    run: &ImportanceRun,
    train: &Dataset,
    valid: &Dataset,
) -> ImportanceOutcome {
    let knn = KnnClassifier::new(3);
    match method {
        "banzhaf" => banzhaf(run, &knn, train, valid, &BanzhafParams { samples: 10 }),
        "beta-shapley" => beta_shapley(
            run,
            &knn,
            &train.subset(&(0..10).collect::<Vec<_>>()),
            valid,
            &BetaShapleyParams {
                samples_per_point: 4,
                ..BetaShapleyParams::default()
            },
        ),
        _ => tmc_shapley(
            run,
            &knn,
            train,
            valid,
            &TmcParams {
                permutations: 10,
                truncation_tolerance: 0.0,
            },
        ),
    }
    .unwrap()
}

/// Torn and checksum-corrupted records cost at most one checkpoint
/// interval: a store-driven Banzhaf, Beta-Shapley or TMC-Shapley run falls
/// back to the last intact record and still completes bit-identical to an
/// uninterrupted run. An uncut store-driven run matches it too.
#[test]
fn banzhaf_recovers_from_torn_and_corrupt_records_bit_identically() {
    let (train, valid) = gaussian_split();
    for method in ["banzhaf", "beta-shapley", "tmc-shapley"] {
        let full = estimate(method, &ImportanceRun::new(5), &train, &valid);

        // Checkpointing every 2 steps never changes the answer.
        let store = temp_store(&format!("{method}-uncut"));
        let uncut = estimate(
            method,
            &ImportanceRun::new(5)
                .with_store(&store)
                .with_auto_checkpoint(2),
            &train,
            &valid,
        );
        assert_bits_eq(
            &uncut.scores.values,
            &full.scores.values,
            &format!("{method} scores with a store"),
        );
        let fp = uncut.report.fingerprint.expect("store runs report it");
        let steps: Vec<u64> = store
            .record_paths(&fp)
            .unwrap()
            .iter()
            .map(|&(s, _)| s)
            .collect();
        assert_eq!(steps, vec![2, 4, 6, 8, 10], "{method}");
        std::fs::remove_dir_all(store.root()).ok();

        // Phase 1: a store-backed run stops after 6 of 10 steps, leaving
        // records at steps 2, 4, 6.
        let store = temp_store(method);
        let cut = estimate(
            method,
            &ImportanceRun::new(5)
                .with_store(&store)
                .with_auto_checkpoint(2)
                .with_budget(RunBudget::unlimited().with_max_iterations(6)),
            &train,
            &valid,
        );
        let fp = cut
            .report
            .fingerprint
            .clone()
            .expect("store runs report it");
        let records = store.record_paths(&fp).unwrap();
        assert_eq!(
            records.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![2, 4, 6],
            "{method}"
        );

        // Chaos: the newest record is torn mid-write, the next one suffers a
        // checksum bit-flip. Recovery must fall back to step 2.
        let torn = std::fs::metadata(&records[2].1).unwrap().len() as usize / 2;
        truncate_record(&records[2].1, torn).unwrap();
        corrupt_record_checksum(&records[1].1).unwrap();
        assert_eq!(
            store.latest_valid(&fp).unwrap().unwrap().step,
            2,
            "{method}"
        );

        // Phase 2: a fresh process re-opens the store and auto-resumes from
        // the surviving record to completion — bit-identical to the uncut
        // run.
        let reopened = RunStore::open(store.root()).unwrap();
        let resumed = estimate(
            method,
            &ImportanceRun::new(5).with_store(&reopened),
            &train,
            &valid,
        );
        assert_bits_eq(
            &resumed.scores.values,
            &full.scores.values,
            &format!("{method} scores after record damage"),
        );
        let diag = resumed.report.diagnostics.as_ref().unwrap();
        assert!(diag.completed(), "{method}");
        assert_eq!(diag.iterations, 10, "{method}");

        // Format drift: staling the final record's version makes recovery
        // skip it — it is never read back into a current-version process.
        let records = store.record_paths(&fp).unwrap();
        let (last_step, last_path) = records.last().unwrap();
        assert_eq!(*last_step, 10, "{method}");
        stale_record_version(last_path, 0).unwrap();
        assert!(
            store.latest_valid(&fp).unwrap().unwrap().step < 10,
            "{method}"
        );
        std::fs::remove_dir_all(store.root()).ok();
    }
}

/// A supervised Zorro interval fit killed mid-training resumes at epoch
/// granularity and converges to bit-identical weight planes.
#[test]
fn supervised_zorro_fit_resumes_bit_identically_after_a_kill() {
    const EPOCHS: u64 = 30;
    const SEGMENT: u64 = 8;
    let (xs, ys, _, _) = linear_regression(50, 2, 0.05, 7);
    let x = Matrix::from_rows(xs).unwrap();
    let bounds = column_bounds_from_observed(&x);
    let missing = [(3, 0), (11, 1), (20, 0), (37, 1), (44, 0)];
    let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
    let targets: Vec<Interval> = ys.iter().map(|&v| Interval::point(v)).collect();
    let cfg = ZorroConfig {
        epochs: EPOCHS as usize,
        ..Default::default()
    };

    let mut reference = ZorroRegressor::new(cfg.clone());
    let (_, uncut) = reference
        .fit_uncertain_resumable(&sym, &targets, &RunBudget::unlimited(), None)
        .unwrap();
    assert_eq!(uncut.epochs_done, EPOCHS);

    let store = temp_store("zorro");
    let fp = RunFingerprint::new("zorro-fit", 7, "epochs=30", 0x5EED);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[1]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(4),
        |ctx: &SuperviseCtx<'_>| -> Result<ZorroCheckpoint, UncertainError> {
            loop {
                let resume = match ctx.latest()? {
                    Some(r) => Some(ZorroCheckpoint::from_payload(&r.payload)?),
                    None => None,
                };
                let done = resume.as_ref().map_or(0, |s| s.epochs_done);
                let budget =
                    RunBudget::unlimited().with_max_iterations((done + SEGMENT).min(EPOCHS));
                let mut zorro = ZorroRegressor::new(cfg.clone());
                let (_, snap) =
                    zorro.fit_uncertain_resumable(&sym, &targets, &budget, resume.as_ref())?;
                ctx.checkpoint(snap.epochs_done, &snap.to_payload())?;
                kill.observe();
                if snap.epochs_done >= EPOCHS {
                    return Ok(snap);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 2, "one kill costs one restart");
    assert_eq!(sup.value.epochs_done, EPOCHS);
    assert_bits_eq(&sup.value.lo, &uncut.lo, "zorro lo plane");
    assert_bits_eq(&sup.value.hi, &uncut.hi, "zorro hi plane");
    std::fs::remove_dir_all(store.root()).ok();
}

/// A supervised prioritized-cleaning loop killed between rounds resumes at
/// accepted-fix granularity: same repairs, same trace, bit-identical
/// accuracies.
#[test]
fn supervised_cleaning_loop_resumes_bit_identically_after_kills() {
    const ROUNDS: u64 = 4;
    let nd = two_gaussians(200, 3, 2.0, 43);
    let all = Dataset::try_from(&nd).unwrap();
    let mut train = all.subset(&(0..150).collect::<Vec<_>>());
    let valid = all.subset(&(150..200).collect::<Vec<_>>());
    let truth = train.y.clone();
    for f in [5, 17, 29, 38, 51, 66, 84, 99, 111, 120, 133, 140, 147] {
        train.y[f] = 1 - train.y[f];
    }
    let oracle = LabelOracle::new(truth);
    let knn = KnnClassifier::new(3);
    let strategy = Strategy::KnnShapley { k: 3 };
    let reference = prioritized_cleaning(
        &knn,
        &train,
        &oracle,
        &valid,
        &strategy,
        5,
        ROUNDS as usize,
        false,
        MaintenanceMode::Rerun,
    )
    .unwrap();

    let store = temp_store("cleaning");
    let fp = RunFingerprint::new("prioritized-cleaning", 43, "batch=5;rounds=4", 0xC1EA);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[0, 2]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(8),
        |ctx: &SuperviseCtx<'_>| -> Result<CleaningCheckpoint, CleaningError> {
            loop {
                // One cleaning round per segment: resume, advance, persist.
                let resume = match ctx.latest()? {
                    Some(r) => Some(CleaningCheckpoint::from_payload(&r.payload)?),
                    None => None,
                };
                let done = resume.as_ref().map_or(0, |s| s.rounds_done);
                let budget = RunBudget::unlimited().with_max_iterations((done + 1).min(ROUNDS));
                let (_, snap) = prioritized_cleaning_resumable(
                    &knn,
                    &train,
                    &oracle,
                    &valid,
                    &strategy,
                    5,
                    ROUNDS as usize,
                    false,
                    MaintenanceMode::Rerun,
                    &budget,
                    &RetryPolicy::none(),
                    resume.as_ref(),
                )?;
                ctx.checkpoint(snap.rounds_done, &snap.to_payload())?;
                kill.observe();
                if snap.rounds_done >= ROUNDS {
                    return Ok(snap);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 3, "two kills cost two restarts");
    assert!(sup
        .crashes
        .iter()
        .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
    assert_eq!(sup.value.rounds_done, ROUNDS);
    assert_eq!(sup.value.cleaned, reference.cleaned);
    assert_bits_eq(
        &sup.value.accuracy,
        &reference.accuracy,
        "cleaning accuracy trace",
    );
    // The repaired labels themselves match an uninterrupted loop's.
    let (uncut, _) = prioritized_cleaning_resumable(
        &knn,
        &train,
        &oracle,
        &valid,
        &strategy,
        5,
        ROUNDS as usize,
        false,
        MaintenanceMode::Rerun,
        &RunBudget::unlimited(),
        &RetryPolicy::none(),
        None,
    )
    .unwrap();
    assert_eq!(uncut.run, reference);
    std::fs::remove_dir_all(store.root()).ok();
}
