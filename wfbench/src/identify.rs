//! `identify` — Fig. 2 at scale: label flips → KNN-Shapley ranking →
//! re-ranked cleaning rounds → TMC-Shapley cross-check.
//!
//! Each round hands the oracle the next `BATCH` suspects of the current
//! ranking, patches the repaired labels into the incremental evaluator,
//! reads the accuracy back and refreshes the ranking — the steps
//! `prioritized_cleaning(rescore = true, Incremental)` takes, which is what
//! the gate compares against.

use crate::trace::span;
use crate::{peak_rss_mb, Ctx, Ctxt, Outcome};
use nde::api::{KNN_K, TEXT_DIMS};
use nde::scenario::load_recommendation_letters;
use nde_cleaning::oracle::LabelOracle;
use nde_cleaning::strategy::Strategy;
use nde_cleaning::{prioritized_cleaning_resumable, MaintenanceMode};
use nde_data::generate::hiring::LABEL_COLUMN;
use nde_data::inject::flip_labels;
use nde_importance::batch::BatchPolicy;
use nde_importance::{knn_shapley, tmc_shapley, ImportanceRun, TmcParams};
use nde_ml::batch::{DistanceTable, IncrementalLabelEval};
use nde_ml::dataset::{Dataset, LabelEncoder};
use nde_ml::encode::TableEncoder;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::durable::RunStore;
use nde_robust::par::MemoCache;
use nde_robust::{RetryPolicy, RunBudget};

/// Applicants generated (60 % train, 20 % validation).
const APPLICANTS: usize = 1500;
/// Fraction of training labels flipped.
const FLIP_FRACTION: f64 = 0.1;
/// Cleaning rounds per process; a run pools the rounds of all its
/// processes (≥ 100, so p90 has ≥ 10 samples beyond it).
const ROUNDS: usize = 25;
/// Suspects handed to the oracle per round.
const BATCH: usize = 4;
/// TMC cross-check: training/validation rows of the fixed subsample.
const TMC_TRAIN: usize = 160;
const TMC_VALID: usize = 80;
const TMC_PERMUTATIONS: usize = 48;
const TMC_CHECKPOINT_EVERY: u64 = 8;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // ---- set-up: data, injected errors, fitted encoders ----
    let (scenario, dirty_table) = span("data.generate", || {
        let scenario = load_recommendation_letters(APPLICANTS, ctx.seed);
        let mut dirty = scenario.train.clone();
        flip_labels(&mut dirty, LABEL_COLUMN, FLIP_FRACTION, ctx.seed ^ 0x1d)
            .map(|_| (scenario, dirty))
    })
    .ctx("inject label flips")?;
    let (dirty, valid, truth) = span("ml.encode", || -> Result<_, String> {
        let mut encoder = TableEncoder::for_letters(TEXT_DIMS);
        encoder.fit(&dirty_table).ctx("fit encoder")?;
        let labels = LabelEncoder::fit(&dirty_table, LABEL_COLUMN).ctx("fit labels")?;
        let encode = |t| -> Result<Dataset, String> {
            let x = encoder.transform(t).ctx("encode")?;
            let y = labels.encode_column(t, LABEL_COLUMN).ctx("encode labels")?;
            Dataset::new(x, y, labels.n_classes()).ctx("dataset")
        };
        let truth = labels
            .encode_column(&scenario.train, LABEL_COLUMN)
            .ctx("encode truth")?;
        Ok((encode(&dirty_table)?, encode(&scenario.valid)?, truth))
    })?;
    let oracle = LabelOracle::new(truth);
    let t_setup = ctx.elapsed_s();
    out.setup_s = t_setup;
    let pool_before = ctx.pool_stats();

    // ---- first answer: the KNN-Shapley ranking ----
    let run = ImportanceRun::new(0)
        .with_threads(ctx.threads)
        .with_pool(ctx.pool.clone());
    let mut order = span("importance.knn_shapley", || {
        knn_shapley(&run, &dirty, &valid, KNN_K).map(|o| o.scores.ascending_indices())
    })
    .ctx("first ranking")?;
    out.attempted += 1;
    out.first_answer_s = ctx.elapsed_s() - t_setup;
    out.answers
        .push(Ctx::digest(order.iter().map(|&i| i as u64)));
    if ctx.short {
        return Ok(out);
    }

    // ---- cleaning rounds ----
    let template = KnnClassifier::new(KNN_K);
    let strategy = Strategy::KnnShapley { k: KNN_K };
    let mut current = dirty.clone();
    let mut hook: Box<dyn IncrementalLabelEval> = span("ml.eval_rebuild", || {
        template.incremental_eval(&current, &valid)
    })
    .ok_or("KNN has an incremental evaluator")?;
    let mut cleaned_set = vec![false; current.len()];
    let mut cleaned_total = 0usize;
    let mut cleaned = vec![0usize];
    out.answers.push(span("ml.eval_patch", || hook.accuracy()));
    for _ in 0..ROUNDS {
        let picks: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| !cleaned_set[i])
            .take(BATCH)
            .collect();
        let t = std::time::Instant::now();
        let acc = span("cleaning.round", || -> Result<f64, String> {
            let before: Vec<usize> = picks.iter().map(|&i| current.y[i]).collect();
            span("cleaning.oracle", || oracle.repair(&mut current.y, &picks)).ctx("oracle")?;
            let acc = span("ml.eval_patch", || -> Result<f64, String> {
                for (&i, &old) in picks.iter().zip(&before) {
                    if current.y[i] != old {
                        hook.set_label(i, current.y[i]).ctx("set_label")?;
                    }
                }
                Ok(hook.accuracy())
            })?;
            order = span("importance.knn_shapley", || strategy.rank(&current, &valid))
                .ctx("re-rank")?;
            Ok(acc)
        })?;
        out.rounds_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.round_paths.push("label".into());
        out.attempted += 1;
        for &i in &picks {
            cleaned_set[i] = true;
        }
        cleaned_total += picks.len();
        cleaned.push(cleaned_total);
        out.answers.push(acc);
    }

    // ---- TMC-Shapley cross-check on a fixed subsample ----
    let sub_train = current.subset(&(0..TMC_TRAIN).collect::<Vec<_>>());
    let sub_valid = valid.subset(&(0..TMC_VALID).collect::<Vec<_>>());
    let store_dir = ctx.scratch.join("identify-store");
    let memo = MemoCache::new();
    let store = RunStore::open(&store_dir).ctx("open run store")?;
    let tmc_run = ImportanceRun::new(ctx.seed)
        .with_threads(ctx.threads)
        .with_pool(ctx.pool.clone())
        .with_cache(&memo)
        .with_batch(BatchPolicy::Grouped { size: 16 })
        .with_store(&store)
        .with_auto_checkpoint(TMC_CHECKPOINT_EVERY);
    let params = TmcParams {
        permutations: TMC_PERMUTATIONS,
        truncation_tolerance: 0.0,
    };
    let tmc = span("importance.tmc", || {
        tmc_shapley(&tmc_run, &template, &sub_train, &sub_valid, &params)
    })
    .ctx("tmc cross-check")?;
    out.attempted += 1;
    out.workflow_s = ctx.elapsed_s() - t_setup;
    out.peak_rss_mb = peak_rss_mb();
    let pool_after = ctx.pool_stats();

    // ---- counts (exact) ----
    let r = &tmc.report;
    out.count("importance.utility_calls", r.utility_calls as f64);
    out.count("importance.cache_hits", r.cache_hits as f64);
    out.count(
        "importance.cache_hit_ratio",
        r.cache_hits as f64 / r.utility_calls.max(1) as f64,
    );
    out.count("importance.batches", r.batches_formed as f64);
    out.count("importance.batched_evals", r.batched_evals as f64);
    out.count("importance.fallback_evals", r.fallback_evals as f64);
    let (saves, bytes) = store_files(&store_dir);
    out.count("robust.ckpt_saves", saves);
    out.count("robust.ckpt_bytes", bytes);
    out.count(
        "data.pool_jobs",
        (pool_after.jobs - pool_before.jobs) as f64,
    );
    out.count(
        "data.pool_chunks",
        (pool_after.chunks - pool_before.chunks) as f64,
    );
    out.count(
        "data.pool_parks",
        (pool_after.parks - pool_before.parks) as f64,
    );
    out.count(
        "importance.tmc_knn_agreement",
        bottom_overlap(&tmc.scores.ascending_indices(), &sub_train, &sub_valid)?,
    );
    // Standalone probe: the distance table every KNN-Shapley call builds.
    if crate::trace::enabled() {
        span("ml.distance_table", || DistanceTable::new(&dirty, &valid));
    }
    std::fs::remove_dir_all(&store_dir).ctx("remove run store")?;

    if !ctx.gate {
        return Ok(out);
    }
    // ---- gate (untimed): one prioritized_cleaning call, bit for bit ----
    let (reference, snapshot) = prioritized_cleaning_resumable(
        &template,
        &dirty,
        &oracle,
        &valid,
        &strategy,
        BATCH,
        ROUNDS,
        true,
        MaintenanceMode::Incremental,
        &RunBudget::unlimited(),
        &RetryPolicy::none(),
        None,
    )
    .ctx("reference prioritized_cleaning")?;
    let ours = out.answers[1..].to_vec();
    let same_acc = reference.run.accuracy.len() == ours.len()
        && reference
            .run
            .accuracy
            .iter()
            .zip(&ours)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(same_acc, || {
        format!(
            "round accuracies differ from prioritized_cleaning: {:?} vs {ours:?}",
            reference.run.accuracy
        )
    });
    out.check(reference.run.cleaned == cleaned, || {
        "cleaned counts differ from prioritized_cleaning".into()
    });
    out.check(snapshot.y == current.y, || {
        "repaired labels differ from prioritized_cleaning".into()
    });
    out.check(snapshot.cleaned_set == cleaned_set, || {
        "cleaned set differs from prioritized_cleaning".into()
    });
    out.check(
        tmc.scores.values.iter().all(|v| v.is_finite()) && r.utility_calls > 0 && saves >= 1.0,
        || {
            format!(
                "tmc run incomplete: calls {} saves {saves}",
                r.utility_calls
            )
        },
    );
    Ok(out)
}

/// Share of the TMC bottom quarter that the exact KNN-Shapley ranking of the
/// same subsample also puts in its bottom quarter (informational).
fn bottom_overlap(tmc_order: &[usize], train: &Dataset, valid: &Dataset) -> Result<f64, String> {
    let knn = knn_shapley(&ImportanceRun::new(0), train, valid, KNN_K)
        .ctx("subsample knn-shapley")?
        .scores
        .ascending_indices();
    let q = train.len() / 4;
    let bottom: std::collections::HashSet<usize> = knn[..q].iter().copied().collect();
    Ok(tmc_order[..q].iter().filter(|i| bottom.contains(i)).count() as f64 / q as f64)
}

/// `(record files, total bytes)` under a run store directory.
fn store_files(dir: &std::path::Path) -> (f64, f64) {
    fn walk(dir: &std::path::Path, acc: &mut (f64, f64)) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, acc);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
            {
                acc.0 += 1.0;
                acc.1 += e.metadata().map_or(0, |m| m.len()) as f64;
            }
        }
    }
    let mut acc = (0.0, 0.0);
    walk(dir, &mut acc);
    acc
}
