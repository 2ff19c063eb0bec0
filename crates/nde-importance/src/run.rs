//! The unified importance-run entry point.
//!
//! Every Monte-Carlo and closed-form importance method used to grow its own
//! cross-product of free-function variants (`*_budgeted`, `*_cached`,
//! `*_par`, …). [`ImportanceRun`] collapses that explosion: one options
//! struct carries the run-wide knobs (seed, threads, budget, memo cache,
//! resume snapshot, durable store, batch policy) and each method exposes
//! exactly one entry point taking `&ImportanceRun` plus its method-specific
//! parameters:
//!
//! ```
//! use nde_importance::prelude::*;
//! use nde_ml::dataset::Dataset;
//! use nde_ml::models::knn::KnnClassifier;
//!
//! let train = Dataset::from_rows(
//!     vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )
//! .unwrap();
//! let valid = train.clone();
//!
//! let run = ImportanceRun::new(42).with_threads(2);
//! let exact = knn_shapley(&run, &train, &valid, 1).unwrap();
//! let mc = tmc_shapley(
//!     &run,
//!     &KnnClassifier::new(1),
//!     &train,
//!     &valid,
//!     &TmcParams::default(),
//! )
//! .unwrap();
//! assert_eq!(exact.scores.len(), train.len());
//! assert!(exact.scores.values.iter().all(|v| *v >= 0.0));
//! assert_eq!(mc.scores.len(), train.len());
//! assert!(mc.report.utility_calls > 0);
//! ```
//!
//! The entry points are [`tmc_shapley`], [`banzhaf`] and [`beta_shapley`]
//! (Monte-Carlo), and [`knn_shapley`] and [`datascope`] (closed-form; the
//! latter scores a pipeline's source tuples through provenance).
//!
//! All entry points return an [`ImportanceOutcome`]: the scores plus a
//! [`RunReport`] with uniform accounting (logical utility calls, cache
//! hits, batches formed, convergence diagnostics and a resume snapshot
//! where the method supports them).
//!
//! # Budgets, resume, and the durable store
//!
//! The three Monte-Carlo methods (TMC-Shapley, Banzhaf, Beta Shapley) all
//! honor [`with_budget`](ImportanceRun::with_budget) and resume
//! bit-identically from the [`EstimatorCheckpoint`] returned in
//! `report.snapshot` (pass it back via
//! [`with_resume`](ImportanceRun::with_resume)). Attaching a
//! [`RunStore`] via [`with_store`](ImportanceRun::with_store) makes the
//! run *crash-safe*: checkpoints are written as checksummed on-disk records
//! keyed by the run's [`RunFingerprint`] (method, seed, the method's and
//! the model template's configuration, data), and
//! a re-run with the same options silently resumes from the latest valid
//! record — after a crash, a torn write, or a corrupted record, whatever
//! state survives validation is picked up and the rest is recomputed,
//! bit-identically. [`with_auto_checkpoint`](ImportanceRun::with_auto_checkpoint)
//! sets how many estimator steps may elapse between records.
//!
//! The Monte-Carlo entry points are thin wrappers over one crate-private
//! driver: it fingerprints the run, resolves the resume snapshot, warms the
//! memo cache, drives the method's segments under the budget and the store,
//! and assembles the report. Each method module supplies only what is its
//! own — tag, fingerprint config, step count, snapshot shape and segment
//! loop. The run API is the only public surface.

use crate::batch::{BatchPolicy, UtilityBatcher};
use crate::common::ImportanceScores;
use crate::knn_shapley::knn_engine;
use crate::snapshot::EstimatorCheckpoint;
use crate::{ImportanceError, Result};
use nde_data::fxhash::FxHasher;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_pipeline::feature::FeatureOutput;
use nde_robust::par::{MemoCache, WorkerPool};
use nde_robust::{BudgetClock, ConvergenceDiagnostics, RunBudget, RunFingerprint, RunStore};
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

pub use crate::banzhaf::BanzhafParams;
pub use crate::beta_shapley::BetaShapleyParams;
pub use crate::shapley_mc::TmcParams;

/// Run-wide options shared by every importance method.
///
/// Construct with [`ImportanceRun::new`] and chain `with_*` builders; the
/// defaults (single thread, no budget, no cache, no resume state, no store,
/// the default grouped [`BatchPolicy`]) suit one-shot runs.
///
/// Methods that cannot honor an option reject the run with
/// [`ImportanceError::Unsupported`] instead of silently ignoring it; the
/// only such methods are the closed-form `knn_shapley` and `datascope`,
/// which have no Monte-Carlo state to budget, checkpoint, or persist.
#[derive(Debug, Clone, Default)]
pub struct ImportanceRun<'a> {
    /// Base seed; methods derive per-permutation/per-sample child seeds.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential). Scores are bit-identical for
    /// every thread count.
    pub threads: usize,
    /// Optional resource budget. Budget trip points are deterministic:
    /// independent of caching, batching, and thread count.
    pub budget: Option<RunBudget>,
    /// Optional utility memo cache, dedicated to one
    /// `(model, train, valid)` triple. Hits still count as logical utility
    /// calls, so budget trip points are cache-independent.
    pub cache: Option<&'a MemoCache>,
    /// Optional snapshot to resume from (any Monte-Carlo method).
    /// Resuming is bit-identical to never stopping.
    pub resume: Option<&'a EstimatorCheckpoint>,
    /// Optional durable store. When set, checkpoints are persisted as
    /// crash-safe records under the run's [`RunFingerprint`] and the run
    /// auto-resumes from the latest valid record (unless an explicit
    /// `resume` is given, which wins).
    pub store: Option<&'a RunStore>,
    /// Cut the run into segments of this-many estimator steps
    /// (permutations / subset samples / points), with a store attached
    /// writing a record after each. `None` runs one segment, whose record
    /// is written when the run finishes or its budget trips.
    pub auto_checkpoint_every: Option<u64>,
    /// How many coalitions an estimator queues per wave. Purely physical:
    /// scores are bit-identical at every width.
    pub batch: BatchPolicy,
    /// Worker pool the engines run on; `None` uses the resident
    /// process-wide pool ([`WorkerPool::shared`]). Purely physical:
    /// scores are bit-identical under every pool.
    pub pool: Option<Arc<WorkerPool>>,
}

impl<'a> ImportanceRun<'a> {
    /// A fresh single-threaded, unbudgeted run with the default batch
    /// policy.
    pub fn new(seed: u64) -> ImportanceRun<'a> {
        ImportanceRun {
            seed,
            threads: 1,
            budget: None,
            cache: None,
            resume: None,
            store: None,
            auto_checkpoint_every: None,
            batch: BatchPolicy::default(),
            pool: None,
        }
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> ImportanceRun<'a> {
        self.threads = threads;
        self
    }

    /// Run the engines on a dedicated [`WorkerPool`] instead of the
    /// process-wide shared one. Scheduling only — scores are bit-identical
    /// under every pool.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> ImportanceRun<'a> {
        self.pool = Some(pool);
        self
    }

    /// The pool this run's engines execute on.
    pub(crate) fn pool_handle(&self) -> Arc<WorkerPool> {
        self.pool.clone().unwrap_or_else(WorkerPool::shared)
    }

    /// Set a resource budget.
    pub fn with_budget(mut self, budget: RunBudget) -> ImportanceRun<'a> {
        self.budget = Some(budget);
        self
    }

    /// Attach a utility memo cache.
    pub fn with_cache(mut self, cache: &'a MemoCache) -> ImportanceRun<'a> {
        self.cache = Some(cache);
        self
    }

    /// Resume from the snapshot of an earlier, interrupted run
    /// (`report.snapshot`). Resuming is bit-identical to never
    /// stopping; a snapshot written by a different method or run shape is
    /// rejected with [`ImportanceError::Checkpoint`].
    pub fn with_resume(mut self, snapshot: &'a EstimatorCheckpoint) -> ImportanceRun<'a> {
        self.resume = Some(snapshot);
        self
    }

    /// Attach a durable on-disk store: checkpoints (and the memo cache, if
    /// any) persist across processes, and the run auto-resumes from the
    /// latest valid record.
    pub fn with_store(mut self, store: &'a RunStore) -> ImportanceRun<'a> {
        self.store = Some(store);
        self
    }

    /// Cut the run into segments of `every` estimator steps (clamped to at
    /// least 1) and, when a [`with_store`](ImportanceRun::with_store) is
    /// attached, write a durable record after each. Without a store the
    /// run is still cut. The cadence is durability only: scores,
    /// `utility_calls` and budget trip points are the same for every
    /// cadence.
    pub fn with_auto_checkpoint(mut self, every: u64) -> ImportanceRun<'a> {
        self.auto_checkpoint_every = Some(every.max(1));
        self
    }

    /// Set the batch policy (the wave width; purely physical).
    pub fn with_batch(mut self, batch: BatchPolicy) -> ImportanceRun<'a> {
        self.batch = batch;
        self
    }

    fn reject_resumability(&self, method: &str) -> Result<()> {
        let offending = if self.budget.is_some() {
            Some("budgets")
        } else if self.resume.is_some() {
            Some("checkpoint resume")
        } else if self.store.is_some() || self.auto_checkpoint_every.is_some() {
            Some("a durable store")
        } else {
            None
        };
        match offending {
            Some(option) => Err(ImportanceError::Unsupported(format!(
                "{method} is closed-form and does not support {option}"
            ))),
            None => Ok(()),
        }
    }
}

/// Uniform accounting attached to every [`ImportanceOutcome`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Logical utility evaluations the estimate is built from (cache hits
    /// included; for the Monte-Carlo methods this is the authoritative
    /// budget-clock count, for closed-form methods it is 0).
    pub utility_calls: u64,
    /// Coalitions answered from the memo cache (physical count).
    pub cache_hits: u64,
    /// Grouped passes submitted to the batched scorer.
    pub batches_formed: u64,
    /// Coalitions evaluated through the batched scorer.
    pub batched_evals: u64,
    /// Coalitions evaluated through per-coalition retraining.
    pub fallback_evals: u64,
    /// Convergence diagnostics (methods with a budget clock).
    pub diagnostics: Option<ConvergenceDiagnostics>,
    /// Snapshot to pass to [`ImportanceRun::with_resume`] to continue this
    /// estimation (every Monte-Carlo method).
    pub snapshot: Option<EstimatorCheckpoint>,
    /// Identity the durable records were stored under (runs with a store).
    pub fingerprint: Option<RunFingerprint>,
}

/// What every importance entry point returns: the scores plus a uniform
/// [`RunReport`].
#[derive(Debug, Clone)]
pub struct ImportanceOutcome {
    /// Importance estimates (higher = more valuable).
    pub scores: ImportanceScores,
    /// How the run got there.
    pub report: RunReport,
}

/// 64-bit identity of the run's input data: both datasets' fingerprints
/// folded together. Part of the [`RunFingerprint`] store key.
fn data_fingerprint(train: &Dataset, valid: &Dataset) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(train.fingerprint());
    h.write_u64(valid.fingerprint());
    h.finish()
}

/// Resolve what the run resumes from: the explicit snapshot if any, else
/// the store's latest valid record. A snapshot written by a different
/// method is a typed [`ImportanceError::Checkpoint`] — never silently
/// ignored.
fn resolve_resume(
    run: &ImportanceRun,
    fingerprint: Option<&RunFingerprint>,
    method: &str,
) -> Result<Option<EstimatorCheckpoint>> {
    let snap = match (run.resume, run.store, fingerprint) {
        (Some(snap), _, _) => snap.clone(),
        (None, Some(store), Some(fp)) => match store.latest_valid(fp)? {
            Some(record) => EstimatorCheckpoint::from_payload(&record.payload)?,
            None => return Ok(None),
        },
        _ => return Ok(None),
    };
    if snap.method() != method {
        return Err(ImportanceError::Checkpoint(format!(
            "resume snapshot was written by `{}` but this run is `{method}`",
            snap.method()
        )));
    }
    Ok(Some(snap))
}

/// Warm the memo cache from the store's persisted copy (corrupt or missing
/// copies degrade to a cold cache inside [`RunStore::load_memo`]).
fn preload_memo(run: &ImportanceRun, fingerprint: Option<&RunFingerprint>) -> Result<()> {
    if let (Some(store), Some(cache), Some(fp)) = (run.store, run.cache, fingerprint) {
        store.load_memo(fp, cache)?;
    }
    Ok(())
}

/// What one Monte-Carlo estimator supplies to the shared driver: its method
/// tag, fingerprint config, step count, snapshot shape and segment loop.
/// Implemented by each method's parameter struct, in the method's module.
pub(crate) trait Estimator {
    /// Method tag carried by the scores, the fingerprint and the snapshot.
    const METHOD: &'static str;
    /// The method's own state inside an [`EstimatorCheckpoint`].
    type State;
    /// Every parameter that changes the trajectory, for the fingerprint.
    fn config(&self) -> String;
    /// Steps in a complete run over `n` training points.
    fn steps(&self, n: usize) -> u64;
    /// Reject parameters (or data) the method cannot run on.
    fn check(&self, train: &Dataset, valid: &Dataset) -> Result<()>;
    /// A zeroed snapshot for this run shape.
    fn fresh(&self, seed: u64, n: usize) -> EstimatorCheckpoint;
    /// Reject a snapshot written by a differently-shaped run.
    fn validate(&self, state: &Self::State, seed: u64, n: usize) -> Result<()>;
    /// The method's state, if `snapshot` was written by this method.
    fn state(snapshot: &mut EstimatorCheckpoint) -> Option<&mut Self::State>;
    /// Advance `state` until its step reaches `seg.until` or `clock` trips.
    /// Returns the best-so-far values and, where the method tracks it, the
    /// largest per-example marginal standard error.
    fn segment<C: Classifier + Send + Sync>(
        &self,
        seg: &Segment<'_, C>,
        state: &mut Self::State,
        clock: &mut BudgetClock,
    ) -> Result<(Vec<f64>, Option<f64>)>;
}

/// What one segment runs against: the run's batcher and worker pool, its
/// seed and thread count, and the step the segment stops at.
pub(crate) struct Segment<'a, C: Classifier> {
    pub batcher: &'a UtilityBatcher<'a, C>,
    pub pool: &'a WorkerPool,
    pub seed: u64,
    pub threads: usize,
    /// The step at which the segment stops: the smallest of the method's
    /// step count, the cursor plus the checkpoint cadence and the budget's
    /// `max_iterations`.
    pub until: u64,
    /// The full-data utility U(full), evaluated by the call's first segment
    /// that needs it and reused by every later one, so the call pays for it
    /// once whatever its checkpoint cadence.
    pub full_utility: &'a OnceLock<f64>,
}

/// The method's own state inside a snapshot the driver holds.
fn state_of<E: Estimator>(snapshot: &mut EstimatorCheckpoint) -> &mut E::State {
    E::state(snapshot).expect("the driver only holds snapshots of the run's own method")
}

/// The one driver behind every Monte-Carlo entry point.
///
/// Fingerprints the run (the model template's
/// [`Classifier::config_tag`] included), resolves its resume snapshot and
/// warms the memo cache, then runs the method in durable segments. One
/// [`BudgetClock`] over the caller's budget spans the whole call; each
/// segment runs under it until its step reaches [`Segment::until`] (at most
/// `auto_checkpoint_every` steps past the segment's start) or the clock
/// trips, and its state is persisted to the store before the next starts:
/// the memo log is compacted at the call's first save, and every later
/// save appends only the new entries. Without a cadence one segment runs
/// and its final state is persisted. The report's diagnostics are the
/// clock's. Termination: each segment reaches its `until` or trips the
/// clock, and `until` lies past the segment's start unless the run is
/// complete or its iteration budget spent, both of which end the loop.
fn estimate<E, C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &E,
) -> Result<ImportanceOutcome>
where
    E: Estimator,
    C: Classifier + Send + Sync,
{
    let fp = run.store.map(|_| {
        RunFingerprint::new(
            E::METHOD,
            run.seed,
            format!("{};model={}", params.config(), template.config_tag()),
            data_fingerprint(train, valid),
        )
    });
    let resume = resolve_resume(run, fp.as_ref(), E::METHOD)?;
    preload_memo(run, fp.as_ref())?;
    params.check(train, valid)?;
    if train.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "empty training set".into(),
        ));
    }
    let n = train.len();
    let mut snapshot = match resume {
        Some(mut snapshot) => {
            params.validate(state_of::<E>(&mut snapshot), run.seed, n)?;
            snapshot
        }
        None => params.fresh(run.seed, n),
    };
    let batcher = UtilityBatcher::new(template, train, valid, run.cache, run.batch);
    let pool = run.pool_handle();
    let total = params.steps(n);
    let budget = run.budget.clone().unwrap_or_default();
    let mut clock = budget.resume(snapshot.step(), snapshot.utility_calls());
    // The memo log's mark after this call's last save; `None` before the
    // first, which compacts the log.
    let mut memo_mark = None;
    let full_utility = OnceLock::new();
    loop {
        let mut until = total.min(budget.max_iterations.unwrap_or(u64::MAX));
        if let Some(every) = run.auto_checkpoint_every {
            until = until.min(snapshot.step().saturating_add(every.max(1)));
        }
        let seg = Segment {
            batcher: &batcher,
            pool: &pool,
            seed: run.seed,
            threads: run.threads,
            until,
            full_utility: &full_utility,
        };
        let (values, max_se) = params.segment(&seg, state_of::<E>(&mut snapshot), &mut clock)?;
        if let (Some(store), Some(fp)) = (run.store, fp.as_ref()) {
            store.save_checkpoint(fp, snapshot.step(), &snapshot.to_payload())?;
            if let Some(cache) = run.cache {
                memo_mark = Some(match memo_mark {
                    None => store.save_memo(fp, cache)?,
                    Some(mark) => store.append_memo(fp, cache, mark)?,
                });
            }
        }
        let diagnostics = clock.diagnostics(max_se);
        if snapshot.step() >= total
            || diagnostics.exhausted.is_some()
            || run.auto_checkpoint_every.is_none()
        {
            let stats = batcher.stats();
            let report = RunReport {
                utility_calls: diagnostics.utility_calls,
                cache_hits: stats.cache_hits,
                batches_formed: stats.batches_formed,
                batched_evals: stats.batched_evals,
                fallback_evals: stats.fallback_evals,
                diagnostics: Some(diagnostics),
                snapshot: Some(snapshot),
                fingerprint: fp,
            };
            return Ok(ImportanceOutcome {
                scores: ImportanceScores::new(E::METHOD, values),
                report,
            });
        }
    }
}

/// Truncated Monte-Carlo Data Shapley through the unified run options.
///
/// Honors every [`ImportanceRun`] option: budgets stop the run per utility
/// call, `report.snapshot` resumes it bit-identically, a store makes it
/// crash-safe, and `report.diagnostics` carries the authoritative clock
/// counters.
pub fn tmc_shapley<C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &TmcParams,
) -> Result<ImportanceOutcome>
where
    C: Classifier + Send + Sync,
{
    estimate(run, template, train, valid, params)
}

/// Data Banzhaf (maximum-sample-reuse estimator) through the unified run
/// options. Budgets stop the run at sample granularity, `report.snapshot`
/// resumes it bit-identically, and a store makes it crash-safe.
pub fn banzhaf<C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &BanzhafParams,
) -> Result<ImportanceOutcome>
where
    C: Classifier + Send + Sync,
{
    estimate(run, template, train, valid, params)
}

/// Beta(α, β) semivalues through the unified run options. Budgets stop the
/// run at point granularity, `report.snapshot` resumes it bit-identically,
/// and a store makes it crash-safe.
pub fn beta_shapley<C>(
    run: &ImportanceRun,
    template: &C,
    train: &Dataset,
    valid: &Dataset,
    params: &BetaShapleyParams,
) -> Result<ImportanceOutcome>
where
    C: Classifier + Send + Sync,
{
    estimate(run, template, train, valid, params)
}

/// Exact, closed-form KNN-Shapley through the unified run options.
///
/// Closed-form: no utility calls are made, so `run.cache`, `run.batch` and
/// `run.seed` are irrelevant (the result is deterministic); only
/// `run.threads` matters. Budgets, resume state, and durable stores are
/// rejected with [`ImportanceError::Unsupported`] — there is no
/// Monte-Carlo state to stop, checkpoint, or persist.
pub fn knn_shapley(
    run: &ImportanceRun,
    train: &Dataset,
    valid: &Dataset,
    k: usize,
) -> Result<ImportanceOutcome> {
    run.reject_resumability("knn_shapley")?;
    let scores = knn_engine(train, valid, k, run.threads.max(1), &run.pool_handle())?;
    Ok(ImportanceOutcome {
        scores,
        report: RunReport::default(),
    })
}

/// Datascope: closed-form KNN-Shapley over a pipeline's output, pushed back
/// to the rows of source table `source_name` through the output's lineage
/// (see [`mod@crate::datascope`]).
///
/// * `train_output` — the training-side pipeline output **with lineage**
///   (run the pipeline with provenance tracking enabled);
/// * `valid` — encoded validation data (same feature space);
/// * `source_name` — which source table to attribute to (e.g. `"train_df"`);
/// * `source_len` — number of rows in that source table;
/// * `k` — the KNN-Shapley neighborhood size.
///
/// Source rows that never reach the pipeline output (dropped by filters or
/// unmatched joins) score `-0.0`: removing them cannot change the model.
/// A source tuple's score is the sum over the output rows it reaches, which
/// is its Shapley value only when it reaches at most one (as `train_df`
/// does in the hiring pipeline; see the module docs for sources that fan
/// out). Like [`knn_shapley`], it runs at `run.threads` (at least 1) on the run's
/// pool, is the same bits at every thread count, and rejects budgets,
/// resume state and durable stores with [`ImportanceError::Unsupported`].
/// A missing lineage or source, a lineage that does not cover exactly the
/// dataset's rows, or a lineage row at or past `source_len` is
/// [`ImportanceError::InvalidArgument`].
pub fn datascope(
    run: &ImportanceRun,
    train_output: &FeatureOutput,
    valid: &Dataset,
    source_name: &str,
    source_len: usize,
    k: usize,
) -> Result<ImportanceOutcome> {
    run.reject_resumability("datascope")?;
    let lineage = train_output.lineage.as_ref().ok_or_else(|| {
        ImportanceError::InvalidArgument(
            "pipeline output has no lineage; run with provenance tracking".into(),
        )
    })?;
    let source_idx = lineage.source_index(source_name).ok_or_else(|| {
        ImportanceError::InvalidArgument(format!(
            "source `{source_name}` not found in lineage (sources: {:?})",
            lineage.sources
        ))
    })?;
    if lineage.rows.len() != train_output.dataset.len() {
        return Err(ImportanceError::InvalidArgument(format!(
            "lineage covers {} output rows but the dataset has {}",
            lineage.rows.len(),
            train_output.dataset.len()
        )));
    }
    let output_scores = knn_engine(
        &train_output.dataset,
        valid,
        k,
        run.threads.max(1),
        &run.pool_handle(),
    )?;

    // One pass over the output rows, ascending: each row's score goes to
    // every tuple of the source it depends on. `-0.0` is the neutral
    // element of `f64` addition, so unreached rows score `-0.0`.
    let index = lineage.tuple_index();
    let mut values = vec![-0.0_f64; source_len];
    for (&id, &score) in lineage.rows.iter().zip(&output_scores.values) {
        for t in index.of(id).iter().filter(|t| t.source == source_idx) {
            let value = values.get_mut(t.row as usize).ok_or_else(|| {
                ImportanceError::InvalidArgument(format!(
                    "source `{source_name}` row {} is referenced by the lineage \
                     but source_len is {source_len}",
                    t.row
                ))
            })?;
            *value += score;
        }
    }
    let scores = ImportanceScores::new("datascope", values);
    Ok(ImportanceOutcome {
        scores,
        report: RunReport::default(),
    })
}

#[cfg(test)]
mod tests {
    // The equivalence tests pin the default (wide-wave, multi-threaded) run
    // against a one-thread, one-coalition-per-wave run bit-for-bit; the
    // comparisons with a model that offers no batched scorer live in
    // `tests/tests/batched_utility.rs`.
    use super::*;
    use crate::shapley_mc::TMC_METHOD;
    use crate::snapshot::McCheckpoint;
    use nde_ml::models::knn::KnnClassifier;
    use nde_robust::Exhaustion;
    use std::time::Duration;

    fn toy() -> (Dataset, Dataset) {
        let train = Dataset::from_rows(
            vec![
                vec![0.0],
                vec![0.2],
                vec![10.0],
                vec![10.2],
                vec![0.1], // mislabelled
            ],
            vec![0, 0, 1, 1, 1],
            2,
        )
        .unwrap();
        let valid = Dataset::from_rows(
            vec![vec![0.04], vec![0.12], vec![10.14], vec![9.93]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        (train, valid)
    }

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("nde-run-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RunStore::open(dir).unwrap()
    }

    #[test]
    fn tmc_matches_engine_bit_for_bit() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let params = TmcParams {
            permutations: 40,
            truncation_tolerance: 0.0,
        };
        let narrow = tmc_shapley(
            &ImportanceRun::new(9).with_batch(BatchPolicy::Grouped { size: 1 }),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        let run = ImportanceRun::new(9).with_threads(4);
        let unified = tmc_shapley(&run, &knn, &train, &valid, &params).unwrap();
        assert_eq!(unified.scores, narrow.scores);
        assert_eq!(unified.report.utility_calls, narrow.report.utility_calls);
        assert_eq!(unified.report.snapshot, narrow.report.snapshot);
    }

    #[test]
    fn tmc_budget_and_resume_through_run_options() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let params = TmcParams {
            permutations: 12,
            truncation_tolerance: 0.0,
        };
        let full = tmc_shapley(&ImportanceRun::new(3), &knn, &train, &valid, &params).unwrap();
        let cut = tmc_shapley(
            &ImportanceRun::new(3).with_budget(RunBudget::unlimited().with_max_utility_calls(17)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(cut.report.utility_calls, 17);
        let snap = cut.report.snapshot.unwrap();
        assert_eq!(snap.method(), TMC_METHOD);
        let resumed = tmc_shapley(
            &ImportanceRun::new(3).with_resume(&snap),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);
    }

    #[test]
    fn banzhaf_and_beta_budget_and_resume_through_run_options() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let run = ImportanceRun::new(7).with_threads(2);

        let narrow = ImportanceRun::new(7).with_batch(BatchPolicy::Grouped { size: 1 });
        let params = BanzhafParams { samples: 100 };
        let reference = banzhaf(&narrow, &knn, &train, &valid, &params)
            .unwrap()
            .scores;
        let full = banzhaf(&run, &knn, &train, &valid, &params).unwrap();
        assert_eq!(full.scores, reference);
        assert!(full.report.utility_calls > 0);
        // Budget cut: Banzhaf's unit cost is 0/1 per sample, so the trip
        // point is exact; resuming from the snapshot is bit-identical.
        let cut = banzhaf(
            &run.clone()
                .with_budget(RunBudget::unlimited().with_max_utility_calls(40)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(cut.report.utility_calls, 40);
        let snap = cut.report.snapshot.unwrap();
        assert!(snap.step() < 100);
        let resumed = banzhaf(
            &run.clone().with_resume(&snap),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);

        let params = BetaShapleyParams {
            samples_per_point: 20,
            ..BetaShapleyParams::default()
        };
        let reference = beta_shapley(&narrow, &knn, &train, &valid, &params)
            .unwrap()
            .scores;
        let full = beta_shapley(&run, &knn, &train, &valid, &params).unwrap();
        assert_eq!(full.scores, reference);
        // Point-granular cut after 2 of 5 points, then a bit-identical
        // resume through the method-erased snapshot.
        let cut = beta_shapley(
            &run.clone()
                .with_budget(RunBudget::unlimited().with_max_iterations(2)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        let snap = cut.report.snapshot.unwrap();
        assert_eq!(snap.step(), 2);
        let resumed = beta_shapley(
            &run.clone().with_resume(&snap),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);

        // A snapshot can never cross methods: the Banzhaf run's snapshot is
        // rejected by beta_shapley, and a TMC snapshot by banzhaf.
        let banzhaf_snap = full_banzhaf_snapshot(&run, &knn, &train, &valid);
        assert!(matches!(
            beta_shapley(
                &run.clone().with_resume(&banzhaf_snap),
                &knn,
                &train,
                &valid,
                &params
            ),
            Err(ImportanceError::Checkpoint(_))
        ));
        let tmc =
            EstimatorCheckpoint::Tmc(McCheckpoint::fresh(&TmcParams::default(), 7, train.len()));
        assert!(matches!(
            banzhaf(
                &run.clone().with_resume(&tmc),
                &knn,
                &train,
                &valid,
                &BanzhafParams { samples: 100 }
            ),
            Err(ImportanceError::Checkpoint(_))
        ));
    }

    fn full_banzhaf_snapshot(
        run: &ImportanceRun,
        knn: &KnnClassifier,
        train: &Dataset,
        valid: &Dataset,
    ) -> EstimatorCheckpoint {
        banzhaf(run, knn, train, valid, &BanzhafParams { samples: 100 })
            .unwrap()
            .report
            .snapshot
            .unwrap()
    }

    #[test]
    fn store_persists_and_auto_resumes_runs() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let store = temp_store("auto-resume");
        let params = TmcParams {
            permutations: 12,
            truncation_tolerance: 0.0,
        };
        let full = tmc_shapley(&ImportanceRun::new(5), &knn, &train, &valid, &params).unwrap();

        // Segmented, budget-cut run: records land every 3 permutations.
        let cut = tmc_shapley(
            &ImportanceRun::new(5)
                .with_store(&store)
                .with_auto_checkpoint(3)
                .with_budget(RunBudget::unlimited().with_max_iterations(7)),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        let fp = cut.report.fingerprint.clone().unwrap();
        assert_eq!(fp.method, TMC_METHOD);
        assert!(cut.report.diagnostics.as_ref().unwrap().iterations < 12);
        assert!(!store.record_paths(&fp).unwrap().is_empty());

        // Same options, no explicit resume: picks up the latest record and
        // finishes bit-identically to the uninterrupted run.
        let resumed = tmc_shapley(
            &ImportanceRun::new(5).with_store(&store),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(resumed.scores, full.scores);
        assert_eq!(resumed.report.diagnostics.unwrap().iterations, 12);

        // Banzhaf shares the store root under its own fingerprint, and a
        // fully segmented run still matches the one-shot scores bit-for-bit.
        let plain = banzhaf(
            &ImportanceRun::new(5),
            &knn,
            &train,
            &valid,
            &BanzhafParams { samples: 50 },
        )
        .unwrap();
        let segmented = banzhaf(
            &ImportanceRun::new(5)
                .with_store(&store)
                .with_auto_checkpoint(10),
            &knn,
            &train,
            &valid,
            &BanzhafParams { samples: 50 },
        )
        .unwrap();
        assert_eq!(segmented.scores, plain.scores);
        let bfp = segmented.report.fingerprint.unwrap();
        assert_ne!(bfp.key(), fp.key());
        assert!(!store.record_paths(&bfp).unwrap().is_empty());

        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn store_persists_the_memo_cache_across_runs() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let store = temp_store("memo");
        let params = BanzhafParams { samples: 60 };

        let warm_cache = MemoCache::new();
        let first = banzhaf(
            &ImportanceRun::new(2)
                .with_store(&store)
                .with_cache(&warm_cache),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        // The first run retrains for real (repeat subsets may hit in-run).
        assert!(first.report.batched_evals + first.report.fallback_evals > 0);

        // Simulate a crash that wiped the checkpoint records but left the
        // memo file: the re-run recomputes every sample, yet a fresh cache
        // in the "new process" is preloaded from the store, so every
        // logical call is answered without retraining.
        let fp = first.report.fingerprint.unwrap();
        for (_, path) in store.record_paths(&fp).unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        let cold_cache = MemoCache::new();
        let second = banzhaf(
            &ImportanceRun::new(2)
                .with_store(&store)
                .with_cache(&cold_cache),
            &knn,
            &train,
            &valid,
            &params,
        )
        .unwrap();
        assert_eq!(second.scores, first.scores);
        assert_eq!(second.report.cache_hits, second.report.utility_calls);
        assert_eq!(
            second.report.batched_evals + second.report.fallback_evals,
            0
        );

        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn a_zero_deadline_stops_every_estimator_cleanly() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let tmc = TmcParams {
            permutations: 6,
            truncation_tolerance: 0.0,
        };
        let samples = BanzhafParams { samples: 30 };
        let beta = BetaShapleyParams {
            samples_per_point: 4,
            ..BetaShapleyParams::default()
        };
        type Method<'m> = &'m dyn Fn(&ImportanceRun) -> Result<ImportanceOutcome>;
        let methods: [(&str, Method); 3] = [
            ("tmc", &|run| tmc_shapley(run, &knn, &train, &valid, &tmc)),
            ("banzhaf", &|run| {
                banzhaf(run, &knn, &train, &valid, &samples)
            }),
            ("beta", &|run| {
                beta_shapley(run, &knn, &train, &valid, &beta)
            }),
        ];
        let bits = |out: &ImportanceOutcome| -> Vec<u64> {
            out.scores.values.iter().map(|v| v.to_bits()).collect()
        };
        let zero = RunBudget::unlimited().with_wall_clock(Duration::ZERO);
        for (name, method) in methods {
            let whole = method(&ImportanceRun::new(13)).unwrap();
            for threads in [1, 2, 4, 7] {
                for (stored, every) in [
                    (false, None),
                    (false, Some(2)),
                    (true, None),
                    (true, Some(2)),
                ] {
                    let store = temp_store(&format!("deadline-{name}-{threads}-{every:?}"));
                    let mut run = ImportanceRun::new(13)
                        .with_threads(threads)
                        .with_budget(zero.clone());
                    run.store = stored.then_some(&store);
                    run.auto_checkpoint_every = every;
                    let case =
                        format!("{name}, {threads} threads, store {stored}, every {every:?}");
                    let cut = method(&run).unwrap();
                    let d = cut.report.diagnostics.as_ref().unwrap();
                    assert_eq!(d.exhausted, Some(Exhaustion::Deadline), "{case}");
                    assert_eq!(d.iterations, 0, "{case}");
                    let snapshot = cut.report.snapshot.unwrap();
                    let resumed = method(
                        &ImportanceRun::new(13)
                            .with_threads(threads)
                            .with_resume(&snapshot),
                    )
                    .unwrap();
                    assert_eq!(bits(&resumed), bits(&whole), "{case}");
                    std::fs::remove_dir_all(store.root()).ok();
                }
            }
        }
    }

    #[test]
    fn knn_matches_engine_and_reports_no_calls() {
        let (train, valid) = toy();
        let legacy =
            crate::knn_shapley::knn_engine(&train, &valid, 2, 3, &WorkerPool::shared()).unwrap();
        let unified =
            knn_shapley(&ImportanceRun::new(0).with_threads(3), &train, &valid, 2).unwrap();
        assert_eq!(unified.scores, legacy);
        assert_eq!(unified.report.utility_calls, 0);
        assert!(unified.report.snapshot.is_none());

        let ckpt =
            EstimatorCheckpoint::Tmc(McCheckpoint::fresh(&TmcParams::default(), 0, train.len()));
        let resuming = ImportanceRun::new(0).with_resume(&ckpt);
        assert!(matches!(
            knn_shapley(&resuming, &train, &valid, 2),
            Err(ImportanceError::Unsupported(_))
        ));
        let store = temp_store("knn-reject");
        let stored = ImportanceRun::new(0).with_store(&store);
        assert!(matches!(
            knn_shapley(&stored, &train, &valid, 2),
            Err(ImportanceError::Unsupported(_))
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn cache_is_shared_across_methods_through_the_run() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let cache = MemoCache::new();
        let run = ImportanceRun::new(11).with_cache(&cache);
        let plain = banzhaf(
            &ImportanceRun::new(11),
            &knn,
            &train,
            &valid,
            &BanzhafParams { samples: 120 },
        )
        .unwrap();
        let warm = banzhaf(&run, &knn, &train, &valid, &BanzhafParams { samples: 120 }).unwrap();
        let rerun = banzhaf(&run, &knn, &train, &valid, &BanzhafParams { samples: 120 }).unwrap();
        assert_eq!(plain.scores, warm.scores);
        assert_eq!(warm.scores, rerun.scores);
        // Second pass answers everything from the cache.
        assert_eq!(rerun.report.cache_hits, rerun.report.utility_calls);
        assert_eq!(rerun.report.batched_evals + rerun.report.fallback_evals, 0);
    }
}
