//! The iterative prioritized-cleaning loop (the attendees' task in §3.1):
//! score → clean a batch → retrain → measure → repeat.
//!
//! Two entry points share one implementation: [`prioritized_cleaning`] is
//! the simple loop, and [`prioritized_cleaning_robust`] additionally threads
//! a [`RunBudget`] (graceful stop with [`ConvergenceDiagnostics`]) and a
//! [`RetryPolicy`] (bounded backoff against flaky oracles) through it.
//!
//! Every round's accuracy comes from the template's
//! [`IncrementalLabelEval`] hook when the model offers one, patched with
//! the labels the round repaired; a model without a hook is refitted. The
//! hook is bit-identical to refitting, so traces and checkpoints do not
//! depend on which path ran.

use crate::oracle::{CleaningOracle, LabelOracle};
use crate::strategy::Strategy;
use crate::{CleaningError, Result};
use nde_data::json::{array, check_method, finite_vec, text, uint, uint_vec, Json, ToJson};
use nde_ml::batch::IncrementalLabelEval;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::{retry_with_backoff, ConvergenceDiagnostics, RetryPolicy, RunBudget};

/// The maintenance argument of [`prioritized_cleaning_resumable`]. It
/// selects nothing: every cleaning loop scores its rounds through the
/// template's [`IncrementalLabelEval`] hook when the model offers one and
/// refits only when it offers none. The type stays only because the
/// workflow benchmark (`wfbench`) still names it; it goes once that
/// harness stops doing so (ROADMAP item 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// The only behavior: patch the hook per repaired label, refit models
    /// without one.
    #[default]
    Incremental,
}

/// Trace of an iterative cleaning run.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningRun {
    /// Strategy name.
    pub strategy: &'static str,
    /// Cumulative number of rows sent to the oracle after each round
    /// (first entry is 0 = the dirty baseline).
    pub cleaned: Vec<usize>,
    /// Validation accuracy after each round (aligned with `cleaned`).
    pub accuracy: Vec<f64>,
}

impl CleaningRun {
    /// Accuracy before any cleaning. `NaN` for a run with no recorded
    /// rounds (the constructors here always record the dirty baseline, so
    /// this only triggers on hand-built traces).
    pub fn dirty_accuracy(&self) -> f64 {
        self.accuracy.first().copied().unwrap_or(f64::NAN)
    }

    /// Accuracy after the final round (`NaN` on an empty trace, as for
    /// [`CleaningRun::dirty_accuracy`]).
    pub fn final_accuracy(&self) -> f64 {
        self.accuracy.last().copied().unwrap_or(f64::NAN)
    }
}

/// Durable snapshot of an interrupted cleaning loop, at **accepted-fix
/// granularity**: every completed round's repairs, trace entries, and the
/// cleaning order are captured, so
/// [`prioritized_cleaning_resumable`] continues with the next round exactly
/// as if the run had never stopped. The order must be persisted — with
/// `rescore = false` it was ranked on the *initial* dirty data, which no
/// longer exists once repairs have been applied in place.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningCheckpoint {
    /// Name of the strategy that wrote the snapshot.
    pub strategy: String,
    /// Completed cleaning rounds (budget iterations).
    pub rounds_done: u64,
    /// Cumulative logical utility calls (baseline + one per round).
    pub utility_calls: u64,
    /// Oracle retries performed beyond first attempts.
    pub oracle_retries: u64,
    /// The working labels, with every accepted fix applied.
    pub y: Vec<usize>,
    /// Which rows have been sent to the oracle.
    pub cleaned_set: Vec<bool>,
    /// The cleaning order being consumed (front to back).
    pub order: Vec<usize>,
    /// Trace: cumulative rows cleaned after each round (starts at 0).
    pub cleaned: Vec<usize>,
    /// Trace: validation accuracy after each round.
    pub accuracy: Vec<f64>,
}

impl CleaningCheckpoint {
    /// Internal consistency: aligned trace lengths, a round count matching
    /// the trace, monotone cleaned counts agreeing with the cleaned-set,
    /// an order that is a permutation, and finite accuracies.
    pub fn validate(&self) -> Result<()> {
        let n = self.y.len();
        if self.cleaned_set.len() != n || self.order.len() != n {
            return Err(CleaningError::Checkpoint(format!(
                "snapshot holds {} labels but {} cleaned flags and {} order entries",
                n,
                self.cleaned_set.len(),
                self.order.len()
            )));
        }
        let mut seen = vec![false; n];
        for &i in &self.order {
            if i >= n || seen[i] {
                return Err(CleaningError::Checkpoint(
                    "cleaning order is not a permutation of the rows".into(),
                ));
            }
            seen[i] = true;
        }
        if self.cleaned.len() != self.accuracy.len() || self.cleaned.is_empty() {
            return Err(CleaningError::Checkpoint(format!(
                "trace holds {} cleaned counts but {} accuracies",
                self.cleaned.len(),
                self.accuracy.len()
            )));
        }
        if self.rounds_done as usize != self.cleaned.len() - 1 {
            return Err(CleaningError::Checkpoint(format!(
                "{} rounds done but the trace has {} entries",
                self.rounds_done,
                self.cleaned.len()
            )));
        }
        if self.cleaned[0] != 0 || self.cleaned.windows(2).any(|w| w[1] < w[0]) {
            return Err(CleaningError::Checkpoint(
                "cleaned counts must start at 0 and be non-decreasing".into(),
            ));
        }
        let flagged = self.cleaned_set.iter().filter(|&&c| c).count();
        if *self.cleaned.last().expect("validated non-empty") != flagged {
            return Err(CleaningError::Checkpoint(format!(
                "trace claims {} rows cleaned but {flagged} are flagged",
                self.cleaned.last().expect("validated non-empty")
            )));
        }
        if let Some(i) = self.accuracy.iter().position(|a| !a.is_finite()) {
            return Err(CleaningError::Checkpoint(format!(
                "`accuracy[{i}]` is not a finite number"
            )));
        }
        Ok(())
    }

    /// Reject a snapshot that was written by a differently-shaped run.
    pub fn validate_against(&self, strategy: &str, dirty: &Dataset) -> Result<()> {
        self.validate()?;
        if self.strategy != strategy {
            return Err(CleaningError::Checkpoint(format!(
                "snapshot written by strategy `{}`, this run uses `{strategy}`",
                self.strategy
            )));
        }
        if self.y.len() != dirty.len() {
            return Err(CleaningError::Checkpoint(format!(
                "snapshot covers {} rows, dataset has {}",
                self.y.len(),
                dirty.len()
            )));
        }
        if let Some(&bad) = self.y.iter().find(|&&l| l >= dirty.n_classes) {
            return Err(CleaningError::Checkpoint(format!(
                "snapshot label {bad} outside 0..{}",
                dirty.n_classes
            )));
        }
        Ok(())
    }

    /// The snapshot as a durable-store payload.
    pub fn to_payload(&self) -> Json {
        let uints = |v: &[usize]| Json::Arr(v.iter().map(|&u| Json::UInt(u as u64)).collect());
        Json::Obj(vec![
            ("method".into(), Json::Str("prioritized-cleaning".into())),
            ("strategy".into(), Json::Str(self.strategy.clone())),
            ("rounds_done".into(), Json::UInt(self.rounds_done)),
            ("utility_calls".into(), Json::UInt(self.utility_calls)),
            ("oracle_retries".into(), Json::UInt(self.oracle_retries)),
            ("y".into(), uints(&self.y)),
            (
                "cleaned_set".into(),
                Json::Arr(self.cleaned_set.iter().map(|&b| Json::Bool(b)).collect()),
            ),
            ("order".into(), uints(&self.order)),
            ("cleaned".into(), uints(&self.cleaned)),
            ("accuracy".into(), self.accuracy.to_json()),
        ])
    }

    /// Reconstruct and validate a snapshot from a durable-store payload.
    pub fn from_payload(doc: &Json) -> Result<CleaningCheckpoint> {
        let indices = |name: &str| -> std::result::Result<Vec<usize>, String> {
            Ok(uint_vec(doc, name)?
                .into_iter()
                .map(|u| u as usize)
                .collect())
        };
        let read = || -> std::result::Result<CleaningCheckpoint, String> {
            check_method(doc, "prioritized-cleaning")?;
            Ok(CleaningCheckpoint {
                strategy: text(doc, "strategy")?.to_string(),
                rounds_done: uint(doc, "rounds_done")?,
                utility_calls: uint(doc, "utility_calls")?,
                oracle_retries: uint(doc, "oracle_retries")?,
                y: indices("y")?,
                cleaned_set: array(doc, "cleaned_set")?
                    .iter()
                    .map(|v| v.as_bool().ok_or("`cleaned_set` holds a non-boolean"))
                    .collect::<std::result::Result<_, _>>()?,
                order: indices("order")?,
                cleaned: indices("cleaned")?,
                accuracy: finite_vec(doc, "accuracy")?,
            })
        };
        let ckpt = read().map_err(CleaningError::Checkpoint)?;
        ckpt.validate()?;
        Ok(ckpt)
    }
}

/// A [`CleaningRun`] plus how much budget it consumed and whether it was
/// cut short — the robust variant's graceful-degradation envelope.
#[derive(Debug, Clone)]
pub struct RobustCleaningRun {
    /// The (possibly partial) cleaning trace.
    pub run: CleaningRun,
    /// Budget consumption and the limit that tripped, if any.
    pub diagnostics: ConvergenceDiagnostics,
    /// Oracle retries performed beyond first attempts (0 with a healthy
    /// oracle).
    pub oracle_retries: u64,
}

/// Run the iterative cleaning loop on label-corrupted data.
///
/// Each round sends the next `batch` rows of the strategy's cleaning order
/// to the oracle, repairs their labels in place, retrains a fresh clone of
/// `template` and records validation accuracy. When `rescore` is true the
/// strategy is re-ranked after every round (scores change as data is
/// repaired); otherwise the initial ranking is consumed front to back.
///
/// The post-round accuracy comes from the template's
/// [`IncrementalLabelEval`] hook, built once and patched with only the
/// labels each round actually repaired; by the hook's contract it is
/// **bit-identical** to refitting. A model that offers no hook is refitted
/// from scratch every round, and a hook that rejects the data (a non-finite
/// feature) fails the run with its `InvalidArgument`.
#[allow(clippy::too_many_arguments)] // the loop’s knobs are individually meaningful
pub fn prioritized_cleaning<C: Classifier>(
    template: &C,
    dirty: &Dataset,
    oracle: &LabelOracle,
    valid: &Dataset,
    strategy: &Strategy,
    batch: usize,
    rounds: usize,
    rescore: bool,
) -> Result<CleaningRun> {
    prioritized_cleaning_robust(
        template,
        dirty,
        oracle,
        valid,
        strategy,
        batch,
        rounds,
        rescore,
        &RunBudget::unlimited(),
        &RetryPolicy::none(),
    )
    .map(|r| r.run)
}

/// The fault-tolerant cleaning loop: [`prioritized_cleaning`] plus a
/// [`RunBudget`] and oracle retries.
///
/// * Each cleaning round counts as one budget iteration; each model
///   retrain + score counts as one utility call. When the budget trips, the
///   loop stops **between rounds** and returns the best-so-far trace with
///   [`ConvergenceDiagnostics`] saying which limit tripped — never a panic
///   or an error.
/// * Oracle calls that fail with [`CleaningError::OracleUnavailable`] are
///   retried under `retry` (exponential backoff). A call that still fails
///   after the policy's attempts becomes [`CleaningError::OracleFailed`];
///   any other oracle error propagates immediately.
#[allow(clippy::too_many_arguments)] // the loop’s knobs are individually meaningful
pub fn prioritized_cleaning_robust<C: Classifier>(
    template: &C,
    dirty: &Dataset,
    oracle: &impl CleaningOracle,
    valid: &Dataset,
    strategy: &Strategy,
    batch: usize,
    rounds: usize,
    rescore: bool,
    budget: &RunBudget,
    retry: &RetryPolicy,
) -> Result<RobustCleaningRun> {
    prioritized_cleaning_resumable(
        template,
        dirty,
        oracle,
        valid,
        strategy,
        batch,
        rounds,
        rescore,
        MaintenanceMode::Incremental,
        budget,
        retry,
        None,
    )
    .map(|(run, _)| run)
}

/// [`prioritized_cleaning_robust`] that can also **resume** a loop cut
/// short by an earlier budget trip (or crash): pass the
/// [`CleaningCheckpoint`] the interrupted call returned and cleaning
/// continues with the next round — same repairs, same trace, same oracle
/// picks — exactly as if the run had never stopped. A snapshot from a
/// different strategy or dataset shape is rejected with
/// [`CleaningError::Checkpoint`]. Always pass the *original* dirty
/// dataset; the snapshot carries the repairs. The [`MaintenanceMode`]
/// argument selects nothing (see its doc).
#[allow(clippy::too_many_arguments)] // the loop’s knobs are individually meaningful
pub fn prioritized_cleaning_resumable<C: Classifier>(
    template: &C,
    dirty: &Dataset,
    oracle: &impl CleaningOracle,
    valid: &Dataset,
    strategy: &Strategy,
    batch: usize,
    rounds: usize,
    rescore: bool,
    _mode: MaintenanceMode,
    budget: &RunBudget,
    retry: &RetryPolicy,
    resume: Option<&CleaningCheckpoint>,
) -> Result<(RobustCleaningRun, CleaningCheckpoint)> {
    if batch == 0 || rounds == 0 {
        return Err(CleaningError::InvalidArgument(
            "batch and rounds must be > 0".into(),
        ));
    }
    if oracle.len() != dirty.len() {
        return Err(CleaningError::InvalidArgument(format!(
            "oracle covers {} examples, dataset has {}",
            oracle.len(),
            dirty.len()
        )));
    }
    let mut current = dirty.clone();

    let eval = |data: &Dataset| -> Result<f64> {
        let mut model = template.clone();
        model.fit(data)?;
        Ok(model.accuracy(valid))
    };

    let (mut clock, mut run, mut cleaned_set, mut order, mut cleaned_total, mut oracle_retries);
    match resume {
        Some(cp) => {
            cp.validate_against(strategy.name(), dirty)?;
            current.y = cp.y.clone();
            clock = budget.resume(cp.rounds_done, cp.utility_calls);
            run = CleaningRun {
                strategy: strategy.name(),
                cleaned: cp.cleaned.clone(),
                accuracy: cp.accuracy.clone(),
            };
            cleaned_set = cp.cleaned_set.clone();
            order = cp.order.clone();
            cleaned_total = *cp.cleaned.last().expect("validated non-empty");
            oracle_retries = cp.oracle_retries;
        }
        None => {
            clock = budget.start();
            cleaned_set = vec![false; current.len()];
            cleaned_total = 0;
            oracle_retries = 0;
            run = CleaningRun {
                strategy: strategy.name(),
                cleaned: vec![],
                accuracy: vec![],
            };
            order = strategy.rank(&current, valid)?;
        }
    }

    // Build the hook once over the working labels (after any resumed
    // repairs are applied) and patch it per round. The hook's contract is
    // that its accuracy is always bit-identical to refitting `template` on
    // the same labels, so checkpoints do not record whether a hook was
    // used. A `None` hook (model without incremental support) falls back to
    // refitting; a hook that rejects the data (a non-finite feature) fails
    // the run.
    let mut incremental: Option<Box<dyn IncrementalLabelEval>> =
        template.try_incremental_eval(&current, valid)?;
    if run.accuracy.is_empty() {
        // Fresh run: record the dirty baseline.
        clock.record_utility_calls(1);
        let baseline = match incremental.as_ref() {
            Some(hook) => hook.accuracy(),
            None => eval(&current)?,
        };
        run.cleaned.push(0);
        run.accuracy.push(baseline);
    }

    let start_round = run.cleaned.len() - 1;
    for _round in start_round..rounds {
        if clock.exhausted().is_some() {
            break; // budget tripped: return the best-so-far trace
        }
        if rescore {
            order = strategy.rank(&current, valid)?;
        }
        let picks: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| !cleaned_set[i])
            .take(batch)
            .collect();
        if picks.is_empty() {
            break; // everything has been cleaned
        }
        let before: Vec<usize> = picks.iter().map(|&i| current.y[i]).collect();
        let outcome = retry_with_backoff(
            retry,
            |e| matches!(e, CleaningError::OracleUnavailable { .. }),
            || oracle.repair(&mut current.y, &picks),
        );
        oracle_retries += u64::from(outcome.attempts.saturating_sub(1));
        match outcome.result {
            Ok(_) => {}
            Err(e @ CleaningError::OracleUnavailable { .. }) => {
                return Err(CleaningError::OracleFailed {
                    attempts: outcome.attempts,
                    last: e.to_string(),
                })
            }
            Err(e) => return Err(e),
        }
        for &i in &picks {
            cleaned_set[i] = true;
        }
        cleaned_total += picks.len();
        run.cleaned.push(cleaned_total);
        clock.record_utility_calls(1);
        let accuracy = match incremental.as_mut() {
            Some(hook) => {
                // Only the labels the oracle actually changed need work.
                for (&i, &old) in picks.iter().zip(&before) {
                    if current.y[i] != old {
                        hook.set_label(i, current.y[i])?;
                    }
                }
                hook.accuracy()
            }
            None => eval(&current)?,
        };
        run.accuracy.push(accuracy);
        clock.record_iteration();
    }
    let diagnostics = clock.diagnostics(None);
    let snapshot = CleaningCheckpoint {
        strategy: strategy.name().to_string(),
        rounds_done: clock.iterations(),
        utility_calls: clock.utility_calls(),
        oracle_retries,
        y: current.y.clone(),
        cleaned_set,
        order,
        cleaned: run.cleaned.clone(),
        accuracy: run.accuracy.clone(),
    };
    Ok((
        RobustCleaningRun {
            run,
            diagnostics,
            oracle_retries,
        },
        snapshot,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;
    use nde_ml::models::knn::KnnClassifier;

    fn setup() -> (Dataset, Dataset, LabelOracle) {
        let nd = two_gaussians(200, 3, 2.0, 43);
        let all = Dataset::try_from(&nd).unwrap();
        let mut train = all.subset(&(0..150).collect::<Vec<_>>());
        let valid = all.subset(&(150..200).collect::<Vec<_>>());
        let truth = train.y.clone();
        // 10% label errors.
        for f in [
            5, 17, 29, 38, 51, 66, 84, 99, 111, 120, 133, 140, 147, 148, 149,
        ] {
            train.y[f] = 1 - train.y[f];
        }
        (train, valid, LabelOracle::new(truth))
    }

    #[test]
    fn importance_cleaning_recovers_accuracy() {
        let (dirty, valid, oracle) = setup();
        let run = prioritized_cleaning(
            &KnnClassifier::new(3),
            &dirty,
            &oracle,
            &valid,
            &Strategy::KnnShapley { k: 3 },
            5,
            4,
            false,
        )
        .unwrap();
        assert_eq!(run.cleaned, vec![0, 5, 10, 15, 20]);
        assert_eq!(run.accuracy.len(), 5);
        assert!(
            run.final_accuracy() >= run.dirty_accuracy(),
            "cleaning must not hurt: {run:?}"
        );
        assert!(
            run.final_accuracy() > run.dirty_accuracy() + 0.01,
            "prioritized cleaning should visibly improve accuracy: {run:?}"
        );
    }

    #[test]
    fn beats_random_cleaning_at_same_budget() {
        let (dirty, valid, oracle) = setup();
        let knn = KnnClassifier::new(3);
        let smart = prioritized_cleaning(
            &knn,
            &dirty,
            &oracle,
            &valid,
            &Strategy::KnnShapley { k: 3 },
            10,
            2,
            false,
        )
        .unwrap();
        // Average random over seeds to dodge luck.
        let mut random_final = 0.0;
        for seed in 0..4 {
            let run = prioritized_cleaning(
                &knn,
                &dirty,
                &oracle,
                &valid,
                &Strategy::Random { seed },
                10,
                2,
                false,
            )
            .unwrap();
            random_final += run.final_accuracy();
        }
        random_final /= 4.0;
        assert!(
            smart.final_accuracy() >= random_final,
            "smart {} vs random {random_final}",
            smart.final_accuracy()
        );
    }

    #[test]
    fn stops_when_everything_is_cleaned() {
        let (dirty, valid, oracle) = setup();
        let run = prioritized_cleaning(
            &KnnClassifier::new(1),
            &dirty,
            &oracle,
            &valid,
            &Strategy::Random { seed: 0 },
            100,
            10,
            false,
        )
        .unwrap();
        // 150 rows / batch 100 ⇒ two rounds, then exhaustion.
        assert_eq!(run.cleaned, vec![0, 100, 150]);
    }

    #[test]
    fn rescoring_variant_runs() {
        let (dirty, valid, oracle) = setup();
        let run = prioritized_cleaning(
            &KnnClassifier::new(1),
            &dirty,
            &oracle,
            &valid,
            &Strategy::KnnShapley { k: 1 },
            5,
            2,
            true,
        )
        .unwrap();
        assert_eq!(run.cleaned.last(), Some(&10));
    }

    #[test]
    fn robust_with_unlimited_budget_matches_plain_loop() {
        let (dirty, valid, oracle) = setup();
        let knn = KnnClassifier::new(3);
        let strategy = Strategy::KnnShapley { k: 3 };
        let plain =
            prioritized_cleaning(&knn, &dirty, &oracle, &valid, &strategy, 5, 4, false).unwrap();
        let robust = prioritized_cleaning_robust(
            &knn,
            &dirty,
            &oracle,
            &valid,
            &strategy,
            5,
            4,
            false,
            &RunBudget::unlimited(),
            &RetryPolicy::none(),
        )
        .unwrap();
        assert_eq!(robust.run, plain);
        assert!(robust.diagnostics.completed());
        assert_eq!(robust.diagnostics.iterations, 4);
        // Baseline + one eval per round.
        assert_eq!(robust.diagnostics.utility_calls, 5);
        assert_eq!(robust.oracle_retries, 0);
    }

    #[test]
    fn budget_exhaustion_returns_partial_trace() {
        let (dirty, valid, oracle) = setup();
        let robust = prioritized_cleaning_robust(
            &KnnClassifier::new(3),
            &dirty,
            &oracle,
            &valid,
            &Strategy::Random { seed: 0 },
            5,
            10,
            false,
            &RunBudget::unlimited().with_max_iterations(2),
            &RetryPolicy::none(),
        )
        .unwrap();
        assert_eq!(robust.run.cleaned, vec![0, 5, 10]);
        assert_eq!(
            robust.diagnostics.exhausted,
            Some(nde_robust::Exhaustion::Iterations)
        );
        assert!(robust.run.final_accuracy().is_finite());
    }

    #[test]
    fn cut_and_resume_is_bit_identical_to_the_uncut_run() {
        let (dirty, valid, oracle) = setup();
        let knn = KnnClassifier::new(3);
        let strategy = Strategy::KnnShapley { k: 3 };
        let plain =
            prioritized_cleaning(&knn, &dirty, &oracle, &valid, &strategy, 5, 4, false).unwrap();

        // Cut the loop after 2 of 4 rounds.
        let (partial, snap) = prioritized_cleaning_resumable(
            &knn,
            &dirty,
            &oracle,
            &valid,
            &strategy,
            5,
            4,
            false,
            MaintenanceMode::Incremental,
            &RunBudget::unlimited().with_max_iterations(2),
            &RetryPolicy::none(),
            None,
        )
        .unwrap();
        assert_eq!(partial.run.cleaned, vec![0, 5, 10]);
        assert_eq!(snap.rounds_done, 2);
        assert_eq!(snap.utility_calls, 3);

        // Round-trip the snapshot through its durable-store payload.
        let text = snap.to_payload().to_string_pretty();
        let snap = CleaningCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();

        // Resume against the ORIGINAL dirty data: the snapshot carries the
        // repairs, the order, and the trace.
        let (resumed, done) = prioritized_cleaning_resumable(
            &knn,
            &dirty,
            &oracle,
            &valid,
            &strategy,
            5,
            4,
            false,
            MaintenanceMode::Incremental,
            &RunBudget::unlimited(),
            &RetryPolicy::none(),
            Some(&snap),
        )
        .unwrap();
        assert_eq!(resumed.run, plain, "resume must be bit-identical");
        assert!(resumed.diagnostics.completed());
        assert_eq!(resumed.diagnostics.iterations, 4);
        assert_eq!(resumed.diagnostics.utility_calls, 5);
        assert_eq!(done.rounds_done, 4);
        assert_eq!(*done.cleaned.last().unwrap(), 20);

        // Resuming a finished run is a no-op that returns the same trace.
        let (idem, _) = prioritized_cleaning_resumable(
            &knn,
            &dirty,
            &oracle,
            &valid,
            &strategy,
            5,
            4,
            false,
            MaintenanceMode::Incremental,
            &RunBudget::unlimited(),
            &RetryPolicy::none(),
            Some(&done),
        )
        .unwrap();
        assert_eq!(idem.run, plain);
    }

    #[test]
    fn snapshot_mismatches_and_torn_payloads_are_rejected() {
        let (dirty, valid, oracle) = setup();
        let knn = KnnClassifier::new(3);
        let strategy = Strategy::KnnShapley { k: 3 };
        let (_, snap) = prioritized_cleaning_resumable(
            &knn,
            &dirty,
            &oracle,
            &valid,
            &strategy,
            5,
            4,
            false,
            MaintenanceMode::Incremental,
            &RunBudget::unlimited().with_max_iterations(2),
            &RetryPolicy::none(),
            None,
        )
        .unwrap();

        let reject = |snap: &CleaningCheckpoint| {
            let err = prioritized_cleaning_resumable(
                &knn,
                &dirty,
                &oracle,
                &valid,
                &strategy,
                5,
                4,
                false,
                MaintenanceMode::Incremental,
                &RunBudget::unlimited(),
                &RetryPolicy::none(),
                Some(snap),
            )
            .unwrap_err();
            assert!(matches!(err, CleaningError::Checkpoint(_)), "{err}");
        };

        // Written by a different strategy.
        let mut bad = snap.clone();
        bad.strategy = "random".into();
        reject(&bad);
        // Wrong dataset shape.
        let mut bad = snap.clone();
        bad.y.pop();
        bad.cleaned_set.pop();
        bad.order.retain(|&i| i != dirty.len() - 1);
        reject(&bad);
        // Round count disagreeing with the trace.
        let mut bad = snap.clone();
        bad.rounds_done = 99;
        reject(&bad);
        // Order that is not a permutation.
        let mut bad = snap.clone();
        bad.order[0] = bad.order[1];
        reject(&bad);
        // Label outside the class range.
        let mut bad = snap.clone();
        bad.y[0] = dirty.n_classes;
        reject(&bad);

        // Torn payload: every strict prefix must fail to parse or validate.
        let text = snap.to_payload().to_string_pretty();
        for cut in (0..text.len()).step_by(97) {
            if let Ok(doc) = Json::parse(&text[..cut]) {
                assert!(
                    CleaningCheckpoint::from_payload(&doc).is_err(),
                    "torn prefix of {cut} bytes must not validate"
                );
            }
        }
        // Non-finite accuracy smuggled through JSON (`1e999` parses to inf).
        let poisoned = text.replacen(&format!("{}", snap.accuracy[0]), "1e999", 1);
        assert!(
            CleaningCheckpoint::from_payload(&Json::parse(&poisoned).unwrap()).is_err(),
            "non-finite accuracy must be rejected"
        );
    }

    #[test]
    fn empty_traces_report_nan_instead_of_panicking() {
        let empty = CleaningRun {
            strategy: "hand-built",
            cleaned: vec![],
            accuracy: vec![],
        };
        assert!(empty.dirty_accuracy().is_nan());
        assert!(empty.final_accuracy().is_nan());
    }

    #[test]
    fn validates_arguments() {
        let (dirty, valid, oracle) = setup();
        let knn = KnnClassifier::new(1);
        let s = Strategy::Random { seed: 0 };
        assert!(prioritized_cleaning(&knn, &dirty, &oracle, &valid, &s, 0, 1, false).is_err());
        assert!(prioritized_cleaning(&knn, &dirty, &oracle, &valid, &s, 1, 0, false).is_err());
        let wrong_oracle = LabelOracle::new(vec![0; 3]);
        assert!(
            prioritized_cleaning(&knn, &dirty, &wrong_oracle, &valid, &s, 1, 1, false).is_err()
        );
    }
}
