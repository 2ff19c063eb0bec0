//! Durability chaos tests: supervised estimation loops are killed at
//! chaos-scheduled checkpoint saves, their on-disk records are torn,
//! checksum-corrupted, and version-staled — and every workflow (TMC-Shapley,
//! Banzhaf, Beta-Shapley, the Zorro interval fit, and the prioritized
//! cleaning loop) must still finish **bit-identical** to an uninterrupted
//! run. The memo-log tests tear, pad, compact and count the append-only
//! `memo.log`; records of the previous store format and runs of other
//! models must never be resumed.

use nde_cleaning::{
    prioritized_cleaning, prioritized_cleaning_resumable, CleaningCheckpoint, CleaningError,
    LabelOracle, MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::{linear_regression, two_gaussians};
use nde_data::json::Json;
use nde_importance::{
    banzhaf, beta_shapley, tmc_shapley, BanzhafParams, BetaShapleyParams, EstimatorCheckpoint,
    ImportanceError, ImportanceOutcome, ImportanceRun, TmcParams,
};
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_ml::models::naive_bayes::GaussianNb;
use nde_robust::durable::payload_checksum;
use nde_robust::par::MemoCache;
use nde_robust::{supervise, RetryPolicy, RunBudget, RunFingerprint, RunStore, SuperviseCtx};
use nde_tests::chaos::{
    corrupt_record_checksum, stale_record_version, truncate_record, CheckpointKillSwitch,
    FaultSchedule, CHAOS_PANIC_PREFIX,
};
use nde_tests::RefitKnn;
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
/// accuracies. The template is [`RefitKnn`], so this is the refit path; the
/// KNN hook's kill/resume test is in `incremental_delta.rs`.
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
    let knn = RefitKnn(KnnClassifier::new(3));
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
                    MaintenanceMode::Incremental,
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
        MaintenanceMode::Incremental,
        &RunBudget::unlimited(),
        &RetryPolicy::none(),
        None,
    )
    .unwrap();
    assert_eq!(uncut.run, reference);
    std::fs::remove_dir_all(store.root()).ok();
}

/// A TMC-Shapley run over [`gaussian_split`] with a memo cache, recording
/// every 2 permutations, cut after 6 of 10: its store holds records at
/// steps 2, 4 and 6 and a memo log of three records (the compaction at the
/// first save, then two appends). Returns the store and the fingerprint.
fn memo_logged_cut(tag: &str, train: &Dataset, valid: &Dataset) -> (RunStore, RunFingerprint) {
    let store = temp_store(tag);
    let cache = MemoCache::new();
    let cut = estimate(
        "tmc-shapley",
        &ImportanceRun::new(5)
            .with_store(&store)
            .with_cache(&cache)
            .with_auto_checkpoint(2)
            .with_budget(RunBudget::unlimited().with_max_iterations(6)),
        train,
        valid,
    );
    let fp = cut.report.fingerprint.expect("store runs report it");
    let log = memo_log(&store, &fp);
    assert_eq!(log.len(), 3, "a compaction and two appends");
    assert_eq!(
        merged(&log),
        bits(&cache.entries()),
        "the log holds the cache"
    );
    (store, fp)
}

/// Each record of a run's memo log: its `(fingerprint, utility bits)`
/// entries, in record order.
fn memo_log(store: &RunStore, fp: &RunFingerprint) -> Vec<Vec<(u64, u64)>> {
    let text = std::fs::read_to_string(store.memo_path(fp)).unwrap();
    text.lines()
        .map(|line| {
            let record = Json::parse(line).unwrap();
            let entries = record.get("payload").and_then(|p| p.get("entries"));
            entries
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().unwrap();
                    let v = pair[1].as_f64().unwrap();
                    (pair[0].as_u64().unwrap(), v.to_bits())
                })
                .collect()
        })
        .collect()
}

/// The entries of several records, sorted by fingerprint, asserting that
/// no fingerprint is logged twice.
fn merged(records: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = records.concat();
    all.sort_unstable();
    let before = all.len();
    all.dedup_by_key(|e| e.0);
    assert_eq!(all.len(), before, "an entry is logged twice");
    all
}

fn bits(entries: &[(u64, f64)]) -> Vec<(u64, u64)> {
    entries.iter().map(|&(k, v)| (k, v.to_bits())).collect()
}

/// Finish the run [`memo_logged_cut`] started, in a "new process": a fresh
/// cache, recording every `every` permutations.
fn resume_logged(store: &RunStore, cache: &MemoCache, every: Option<u64>) -> ImportanceOutcome {
    let (train, valid) = gaussian_split();
    let mut run = ImportanceRun::new(5).with_store(store).with_cache(cache);
    run.auto_checkpoint_every = every;
    estimate("tmc-shapley", &run, &train, &valid)
}

/// A memo log torn in the middle of its last record restores every earlier
/// record's entries, and the run resumed over it is bit-identical.
#[test]
fn a_memo_log_torn_mid_record_restores_every_earlier_record() {
    let (train, valid) = gaussian_split();
    let full = estimate("tmc-shapley", &ImportanceRun::new(5), &train, &valid);
    let (store, fp) = memo_logged_cut("memo-torn", &train, &valid);
    let log = memo_log(&store, &fp);
    let path = store.memo_path(&fp);
    let text = std::fs::read_to_string(&path).unwrap();
    let last = text.lines().last().unwrap().len() + 1;
    truncate_record(&path, text.len() - last / 2).unwrap();

    let warmed = MemoCache::new();
    let earlier = merged(&log[..2]);
    assert_eq!(store.load_memo(&fp, &warmed).unwrap(), earlier.len());
    assert_eq!(bits(&warmed.entries()), earlier);

    let cache = MemoCache::new();
    let resumed = resume_logged(&store, &cache, Some(2));
    assert_bits_eq(
        &resumed.scores.values,
        &full.scores.values,
        "TMC scores over a torn memo log",
    );
    assert!(resumed.report.cache_hits > 0, "restored entries are served");
    std::fs::remove_dir_all(store.root()).ok();
}

/// Bytes appended after the last good record are ignored: the load and the
/// resumed run are those of the intact log.
#[test]
fn garbage_after_a_good_memo_record_is_ignored() {
    let (train, valid) = gaussian_split();
    let (store, fp) = memo_logged_cut("memo-garbage", &train, &valid);
    let intact = MemoCache::new();
    let restored = store.load_memo(&fp, &intact).unwrap();
    assert_eq!(restored, merged(&memo_log(&store, &fp)).len());

    let path = store.memo_path(&fp);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("{\"format_version\":2,\"fingerprint\":\ngarbage [[1,0.5]]\n");
    std::fs::write(&path, text).unwrap();
    let warmed = MemoCache::new();
    assert_eq!(store.load_memo(&fp, &warmed).unwrap(), restored);
    assert_eq!(bits(&warmed.entries()), bits(&intact.entries()));

    let full = estimate("tmc-shapley", &ImportanceRun::new(5), &train, &valid);
    let resumed = resume_logged(&store, &MemoCache::new(), Some(2));
    assert_bits_eq(
        &resumed.scores.values,
        &full.scores.values,
        "TMC scores over a memo log with a garbage tail",
    );
    std::fs::remove_dir_all(store.root()).ok();
}

/// A resume's first save compacts the log: one record holding every live
/// entry of the cache.
#[test]
fn a_resume_compacts_the_memo_log_to_one_record() {
    let (train, valid) = gaussian_split();
    let (store, fp) = memo_logged_cut("memo-compact", &train, &valid);
    let before = merged(&memo_log(&store, &fp));
    // One segment: the resume saves once.
    let cache = MemoCache::new();
    let resumed = resume_logged(&store, &cache, None);
    assert!(resumed.report.diagnostics.unwrap().completed());
    let log = memo_log(&store, &fp);
    assert_eq!(log.len(), 1, "compacted to one record");
    let after = merged(&log);
    assert_eq!(after, bits(&cache.entries()), "every live entry");
    assert!(before.iter().all(|e| after.binary_search(e).is_ok()));
    assert!(after.len() > before.len(), "and the resume's new ones");
    std::fs::remove_dir_all(store.root()).ok();
}

/// Within one `tmc_shapley` call the log holds each entry once: the first
/// save writes the cache, every later one only what was inserted since.
#[test]
fn the_memo_log_holds_each_entry_once_per_call() {
    let (train, valid) = gaussian_split();
    // The cut call: three records, no fingerprint twice (checked inside).
    let (store, fp) = memo_logged_cut("memo-once", &train, &valid);
    // The resumed call, recording every permutation: a compaction holding
    // the restored entries and the first segment's, then one append per
    // later segment that inserted anything.
    let cache = MemoCache::new();
    resume_logged(&store, &cache, Some(1));
    let log = memo_log(&store, &fp);
    assert!(log.len() > 2, "{} records", log.len());
    assert!(log[1..].iter().all(|record| !record.is_empty()));
    assert_eq!(merged(&log), bits(&cache.entries()));
    std::fs::remove_dir_all(store.root()).ok();
}

/// A checkpoint record and a `memo.json` written in store format version 1
/// (pretty-printed envelopes, the checksum over the pretty payload, the
/// whole cache in one file) are refused: the run starts cold and is
/// bit-identical to one on an empty store, cache traffic included.
#[test]
fn version_1_records_are_refused_and_the_run_starts_cold() {
    let (train, valid) = gaussian_split();
    let run = |store, cache| {
        ImportanceRun::new(5)
            .with_store(store)
            .with_cache(cache)
            .with_auto_checkpoint(2)
    };
    let fresh_store = temp_store("v1-fresh");
    let fresh_cache = MemoCache::new();
    let fresh = estimate(
        "tmc-shapley",
        &run(&fresh_store, &fresh_cache),
        &train,
        &valid,
    );
    let fp = fresh.report.fingerprint.clone().unwrap();

    // A genuine resumable state and cache, cut after 6 permutations.
    let cut_store = temp_store("v1-cut");
    let cut_cache = MemoCache::new();
    let cut = estimate(
        "tmc-shapley",
        &run(&cut_store, &cut_cache).with_budget(RunBudget::unlimited().with_max_iterations(6)),
        &train,
        &valid,
    );
    let snapshot = cut.report.snapshot.unwrap();
    let v1 = |step: u64, payload: Json| {
        Json::Obj(vec![
            ("format_version".into(), Json::UInt(1)),
            ("fingerprint".into(), Json::Str(fp.key())),
            ("step".into(), Json::UInt(step)),
            (
                "checksum".into(),
                Json::UInt(payload_checksum(&payload.to_string_pretty())),
            ),
            ("payload".into(), payload),
        ])
        .to_string_pretty()
    };
    let store = temp_store("v1");
    let dir = store.run_dir(&fp);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(format!("ckpt-{:020}.json", snapshot.step())),
        v1(snapshot.step(), snapshot.to_payload()),
    )
    .unwrap();
    let entries = cut_cache.entries();
    let pairs = entries
        .iter()
        .map(|&(k, v)| Json::Arr(vec![Json::UInt(k), Json::Float(v)]))
        .collect();
    std::fs::write(
        dir.join("memo.json"),
        v1(
            entries.len() as u64,
            Json::Obj(vec![("entries".into(), Json::Arr(pairs))]),
        ),
    )
    .unwrap();
    assert!(store.latest_valid(&fp).unwrap().is_none(), "v1 is refused");

    let cache = MemoCache::new();
    let cold = estimate("tmc-shapley", &run(&store, &cache), &train, &valid);
    assert_bits_eq(&cold.scores.values, &fresh.scores.values, "cold TMC scores");
    assert_eq!(cold.report.snapshot, fresh.report.snapshot);
    let (a, b) = (&cold.report, &fresh.report);
    assert_eq!(
        (a.utility_calls, a.cache_hits, a.batched_evals),
        (b.utility_calls, b.cache_hits, b.batched_evals),
        "no resumed call, no restored entry"
    );
    assert_eq!(bits(&cache.entries()), bits(&fresh_cache.entries()));
    for s in [&fresh_store, &cut_store, &store] {
        std::fs::remove_dir_all(s.root()).ok();
    }
}

/// The run fingerprint names the model template: a store filled by a k = 1
/// KNN run serves neither a k = 7 run nor a Gaussian naive Bayes run, which
/// both return their fresh scores, while the k = 1 run itself resumes.
#[test]
fn a_store_never_serves_one_models_run_to_another() {
    let params = TmcParams {
        permutations: 6,
        truncation_tolerance: 0.0,
    };
    fn tmc_on<C: Classifier + Send + Sync>(
        model: &C,
        store: Option<&RunStore>,
        params: &TmcParams,
    ) -> ImportanceOutcome {
        let (train, valid) = gaussian_split();
        let cache = MemoCache::new();
        let mut run = ImportanceRun::new(9)
            .with_cache(&cache)
            .with_auto_checkpoint(2);
        run.store = store;
        tmc_shapley(&run, model, &train, &valid, params).unwrap()
    }
    let store = temp_store("models");
    let k1 = tmc_on(&KnnClassifier::new(1), Some(&store), &params);
    let k1_again = tmc_on(&KnnClassifier::new(1), Some(&store), &params);
    assert_eq!(k1_again.scores, k1.scores);
    assert_eq!(
        k1_again.report.utility_calls,
        k1.report.utility_calls + 1,
        "the same model resumes its finished run"
    );
    let k7 = tmc_on(&KnnClassifier::new(7), Some(&store), &params);
    let k7_fresh = tmc_on(&KnnClassifier::new(7), None, &params);
    assert_bits_eq(&k7.scores.values, &k7_fresh.scores.values, "k = 7 scores");
    assert_eq!(k7.report.utility_calls, k7_fresh.report.utility_calls);
    assert_ne!(k7.scores, k1.scores);
    let nb = tmc_on(&GaussianNb::new(), Some(&store), &params);
    let nb_fresh = tmc_on(&GaussianNb::new(), None, &params);
    assert_bits_eq(
        &nb.scores.values,
        &nb_fresh.scores.values,
        "GaussianNb scores",
    );
    assert_eq!(nb.report.utility_calls, nb_fresh.report.utility_calls);
    let keys: std::collections::HashSet<String> = [&k1, &k7, &nb]
        .iter()
        .map(|out| out.report.fingerprint.as_ref().unwrap().key())
        .collect();
    assert_eq!(keys.len(), 3, "{keys:?}");
    std::fs::remove_dir_all(store.root()).ok();
}
