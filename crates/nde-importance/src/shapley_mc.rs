//! Truncated Monte-Carlo Data Shapley (Ghorbani & Zou, ICML'19).
//!
//! Samples random permutations of the training data and accumulates the
//! marginal utility of adding each example to the prefix before it.
//! Truncation skips the tail of a permutation once the prefix utility is
//! within `truncation_tolerance` of the full-data utility (the marginal
//! contributions there are ≈ 0).
//!
//! # Determinism
//!
//! Permutation `p` depends only on `child_seed(seed, p)`, and every
//! coalition is evaluated in **sorted index order**, so its utility is a
//! pure function of the index set. The folded scores, diagnostics
//! counters, and checkpoints are bit-identical for every thread count,
//! with or without a tripped budget, and across checkpoint/resume cycles.
//!
//! # Speculative rounds, sequential settlement
//!
//! Budgets and parallelism pull in opposite directions: a budget wants a
//! deterministic stopping point, a worker pool finishes items in arbitrary
//! order. A segment reconciles them in rounds:
//!
//! 1. Workers claim permutation indices `cursor..until`, up to the step
//!    the segment ends at, and walk them without a clock. They stop claiming
//!    once the round's walks have spent the calls the budget has left, or
//!    the clock's [`deadline`](BudgetClock::deadline) has passed. This
//!    only bounds overshoot; it decides nothing.
//! 2. The segment then folds the index-sorted results front-to-back through
//!    the run's one [`BudgetClock`], applying exactly the stopping rule a
//!    single-threaded run would. A permutation the utility budget cuts is
//!    walked again under the clock; results past the stopping point, or
//!    after a gap an early stop left, are discarded (the next round claims
//!    the gap again).
//!
//! Without a utility or wall-clock budget no worker stops early, so every
//! permutation of the segment is walked exactly once, whatever the thread
//! count.
//!
//! # Batched waves
//!
//! A permutation walk queues up to
//! [`BatchPolicy::width`](crate::batch::BatchPolicy::width) consecutive
//! prefix coalitions as one *wave* and evaluates them through the
//! [`UtilityBatcher`](crate::batch::UtilityBatcher) in a single validation
//! pass (for the KNN utility this reuses one shared train→valid distance
//! matrix per run). Each worker's walk owns one
//! [`CoalitionChain`]: the scorer continues it from wave to wave, so every
//! prefix after a permutation's first costs only the one member it adds,
//! whatever the wave width. The wave is then
//! folded **sequentially**: the truncation rule and the per-call budget
//! accounting fire in exactly the order the unbatched walk would, so
//! batching changes physical cost only — scores, trip points and
//! checkpoints are bit-identical under every policy. A wave past a
//! truncation point may physically evaluate (and cache) a few coalitions
//! the logical walk discards; values are pure, so this is unobservable in
//! the results.
//!
//! # Budget granularity
//!
//! The utility-call budget is enforced **per call**: a run can stop partway
//! through a permutation, recording an [`InflightPermutation`] in its
//! checkpoint so resume continues the walk mid-permutation instead of
//! redoing it. Budget-enforced walks clamp their wave width to
//! [`BudgetClock::remaining_utility_calls`] so a tripping budget never pays
//! for evaluations the stopping rule will discard. Iteration and wall-clock
//! budgets stop at permutation boundaries (a wall-clock cut is inherently
//! schedule-dependent, so it is never allowed to decide a mid-permutation
//! split).

use crate::run::{Estimator, Segment};
use crate::snapshot::{EstimatorCheckpoint, InflightPermutation, McCheckpoint};
use crate::{ImportanceError, Result};
use nde_data::rng::SliceRandom;
use nde_data::rng::{child_seed, seeded};
use nde_ml::batch::CoalitionChain;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::BudgetClock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Method parameters for TMC-Shapley (run-wide knobs live on
/// [`ImportanceRun`](crate::run::ImportanceRun)).
#[derive(Debug, Clone)]
pub struct TmcParams {
    /// Number of sampled permutations.
    pub permutations: usize,
    /// Truncate a permutation once `|U(prefix) − U(full)|` falls below this.
    pub truncation_tolerance: f64,
}

impl Default for TmcParams {
    fn default() -> Self {
        TmcParams {
            permutations: 100,
            truncation_tolerance: 0.01,
        }
    }
}

/// Method tag of TMC-Shapley scores, fingerprints and snapshots.
pub(crate) const TMC_METHOD: &str = "tmc-shapley";

/// TMC-Shapley under the shared driver behind
/// [`tmc_shapley()`](crate::run::tmc_shapley).
///
/// On exhaustion it **degrades gracefully**: the scores averaged over the
/// permutations finished so far are returned with the largest per-example
/// marginal standard error, and the [`McCheckpoint`] resumes the run —
/// including mid-permutation, via its in-flight state.
///
/// Cache hits still count as (logical) utility calls against the budget, so
/// a cached run trips its budget at exactly the same point as an uncached
/// one and stays bit-identical to it — the cache only removes *physical*
/// model retrains.
impl Estimator for TmcParams {
    const METHOD: &'static str = TMC_METHOD;
    type State = McCheckpoint;

    fn config(&self) -> String {
        format!(
            "permutations={};truncation_tolerance={}",
            self.permutations, self.truncation_tolerance
        )
    }

    fn steps(&self, _n: usize) -> u64 {
        self.permutations as u64
    }

    fn check(&self, train: &Dataset, valid: &Dataset) -> Result<()> {
        if self.permutations == 0 {
            return Err(ImportanceError::InvalidArgument(
                "need at least one permutation".into(),
            ));
        }
        // Corrupt features would silently poison every marginal; fail with
        // the offending cell before spending any budget.
        for (name, data) in [("training", train), ("validation", valid)] {
            if let Some((row, col)) = data.first_non_finite() {
                return Err(ImportanceError::Ml(format!(
                    "{name} data holds a non-finite feature at row {row}, column {col}"
                )));
            }
        }
        Ok(())
    }

    fn fresh(&self, seed: u64, n: usize) -> EstimatorCheckpoint {
        EstimatorCheckpoint::Tmc(McCheckpoint::fresh(self, seed, n))
    }

    fn validate(&self, state: &McCheckpoint, seed: u64, n: usize) -> Result<()> {
        state.validate_against(self, seed, n)
    }

    fn state(snapshot: &mut EstimatorCheckpoint) -> Option<&mut McCheckpoint> {
        match snapshot {
            EstimatorCheckpoint::Tmc(state) => Some(state),
            _ => None,
        }
    }

    fn segment<C: Classifier + Send + Sync>(
        &self,
        seg: &Segment<'_, C>,
        state: &mut McCheckpoint,
        clock: &mut BudgetClock,
    ) -> Result<(Vec<f64>, Option<f64>)> {
        let n = state.n;
        if clock.exhausted().is_none() {
            // Prime the full-data utility once per call (one honestly
            // accounted call; a cache hit on resume still counts).
            let full_utility = match seg.full_utility.get() {
                Some(&u) => u,
                None => {
                    let all: Vec<usize> = (0..n).collect();
                    let u = seg.batcher.eval_one(&all)?;
                    clock.record_utility_calls(1);
                    *seg.full_utility.get_or_init(|| u)
                }
            };
            let mut scratch = WalkScratch::new(n);

            // Finish an interrupted permutation walk before anything else.
            if let Some(inflight) = state.inflight.take() {
                let expected_rng = state.rng_state.take();
                let outcome = walk_permutation(
                    seg,
                    self,
                    full_utility,
                    state.cursor,
                    &mut scratch,
                    Some(&inflight),
                    expected_rng,
                    Some(clock),
                )?;
                settle(state, clock, outcome);
            }

            // Speculative parallel rounds + authoritative sequential
            // settlement (see the module docs).
            let deadline = clock.deadline();
            while state.inflight.is_none()
                && state.cursor < seg.until
                && clock.exhausted().is_none()
            {
                let affordable = clock.remaining_utility_calls();
                let spent = AtomicU64::new(0);
                let stop = AtomicBool::new(false);
                let round = seg.pool.map_indexed_scratch(
                    seg.threads,
                    state.cursor..seg.until,
                    &stop,
                    || WalkScratch::new(n),
                    |ws, p| -> Result<(Vec<f64>, u64)> {
                        let WalkOutcome::Complete { marginals, calls } =
                            walk_permutation(seg, self, full_utility, p, ws, None, None, None)?
                        else {
                            unreachable!("speculative walks run without a clock")
                        };
                        let spent = spent.fetch_add(calls, Ordering::Relaxed) + calls;
                        if affordable.is_some_and(|a| spent >= a)
                            || deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            stop.store(true, Ordering::Relaxed);
                        }
                        Ok((marginals, calls))
                    },
                )?;

                for (p, (marginals, calls)) in round {
                    if p != state.cursor || clock.exhausted().is_some() {
                        // A gap after an early stop (the next round re-claims
                        // it), or a boundary-granular budget stop.
                        break;
                    }
                    if clock.would_exceed_utility(calls) {
                        // The deterministic stopping point is inside this
                        // permutation: re-walk it under the authoritative
                        // clock to construct the exact mid-permutation state
                        // (served from cache when one is attached).
                        let outcome = walk_permutation(
                            seg,
                            self,
                            full_utility,
                            p,
                            &mut scratch,
                            None,
                            None,
                            Some(clock),
                        )?;
                        settle(state, clock, outcome);
                        break;
                    }
                    fold_marginals(state, &marginals);
                    state.cursor += 1;
                    clock.record_iteration();
                    clock.record_utility_calls(calls);
                }
            }
        }
        state.utility_calls = clock.utility_calls();

        // Scores average only fully-folded permutations; in-flight partial
        // marginals live solely in the checkpoint.
        let done = state.cursor;
        if done == 0 {
            return Ok((vec![0.0; n], None));
        }
        let p = done as f64;
        let values = state.totals.iter().map(|t| t / p).collect();
        let max_se = state
            .totals
            .iter()
            .zip(&state.totals_sq)
            .map(|(&t, &sq)| {
                let mean = t / p;
                let var = (sq / p - mean * mean).max(0.0);
                (var / p).sqrt()
            })
            .fold(None, |acc: Option<f64>, se| {
                Some(acc.map_or(se, |a| a.max(se)))
            });
        Ok((values, max_se))
    }
}

/// Fold one permutation's marginals into the running checkpoint sums.
fn fold_marginals(state: &mut McCheckpoint, marginals: &[f64]) {
    for (i, &m) in marginals.iter().enumerate() {
        state.totals[i] += m;
        state.totals_sq[i] += m * m;
    }
}

/// Apply a budget-enforced walk's outcome to the checkpoint state.
fn settle(state: &mut McCheckpoint, clock: &mut BudgetClock, outcome: WalkOutcome) {
    match outcome {
        WalkOutcome::Complete { marginals, .. } => {
            // Per-call walks already recorded their utility calls.
            fold_marginals(state, &marginals);
            state.cursor += 1;
            clock.record_iteration();
        }
        WalkOutcome::Tripped {
            inflight,
            rng_state,
        } => {
            state.inflight = Some(inflight);
            state.rng_state = Some(rng_state);
        }
    }
}

/// Per-worker reusable buffers for permutation walks.
struct WalkScratch {
    order: Vec<usize>,
    prefix: Vec<usize>,
    /// Sorted prefix copies queued as one batched wave.
    wave: Vec<Vec<usize>>,
    /// The scorer's selection state, continued across this worker's waves
    /// and permutations.
    chain: CoalitionChain,
}

impl WalkScratch {
    fn new(n: usize) -> WalkScratch {
        WalkScratch {
            order: Vec::with_capacity(n),
            prefix: Vec::with_capacity(n),
            wave: Vec::new(),
            chain: CoalitionChain::new(),
        }
    }
}

/// How a permutation walk ended.
enum WalkOutcome {
    /// All positions folded (or truncated); `calls` utility evaluations.
    Complete { marginals: Vec<f64>, calls: u64 },
    /// The per-call utility budget tripped mid-walk.
    Tripped {
        inflight: InflightPermutation,
        rng_state: [u64; 4],
    },
}

/// Walk one permutation's prefix chain, from scratch or resumed from an
/// in-flight snapshot. Permutation `p` depends only on
/// `child_seed(seg.seed, p)`; coalitions are evaluated in sorted index
/// order, queued in waves of up to `batcher.width()` consecutive prefixes
/// and scored per wave. Waves are *folded* strictly sequentially, so
/// truncation and budget enforcement behave exactly as in a one-at-a-time
/// walk. With `clock` attached, the utility-call budget is enforced before
/// every logical evaluation (wave width is clamped to the remaining budget)
/// and consumed calls are recorded on the spot; without it, the walk runs
/// to completion and reports its call count.
#[allow(clippy::too_many_arguments)]
fn walk_permutation<C: Classifier>(
    seg: &Segment<'_, C>,
    params: &TmcParams,
    full_utility: f64,
    p: u64,
    scratch: &mut WalkScratch,
    resume_from: Option<&InflightPermutation>,
    expected_rng: Option<[u64; 4]>,
    mut clock: Option<&mut BudgetClock>,
) -> Result<WalkOutcome> {
    let batcher = seg.batcher;
    let n = batcher.train_len();
    let mut rng = seeded(child_seed(seg.seed, p));
    scratch.order.clear();
    scratch.order.extend(0..n);
    scratch.order.shuffle(&mut rng);
    let rng_state = rng.state();
    if let Some(expected) = expected_rng {
        if expected != rng_state {
            return Err(ImportanceError::Checkpoint(format!(
                "checkpoint rng_state does not match permutation {p} of seed {}",
                seg.seed
            )));
        }
    }
    let (start, mut prev_u, mut marginals) = match resume_from {
        Some(inflight) => (
            inflight.pos as usize,
            inflight.prev_u,
            inflight.marginals.clone(),
        ),
        None => (0, 0.0, vec![0.0; n]),
    };
    scratch.prefix.clear();
    scratch.prefix.extend_from_slice(&scratch.order[..start]);
    scratch.prefix.sort_unstable();
    let mut calls = 0u64;
    let mut pos = start;
    while pos < n {
        if let Some(clock) = clock.as_deref_mut() {
            if clock.would_exceed_utility(1) {
                return Ok(WalkOutcome::Tripped {
                    inflight: InflightPermutation {
                        pos: pos as u64,
                        prev_u,
                        marginals,
                    },
                    rng_state,
                });
            }
        }
        // Queue the next wave of prefix coalitions. A budget-enforced walk
        // clamps the wave to the calls the budget can still pay for (≥ 1
        // here, since the pre-check above passed).
        let mut width = batcher.width().min(n - pos);
        if let Some(clock) = clock.as_deref() {
            if let Some(remaining) = clock.remaining_utility_calls() {
                width = width.min(remaining.max(1) as usize);
            }
        }
        for j in 0..width {
            let i = scratch.order[pos + j];
            let at = scratch.prefix.partition_point(|&x| x < i);
            scratch.prefix.insert(at, i);
            if scratch.wave.len() <= j {
                scratch.wave.push(Vec::with_capacity(n));
            }
            scratch.wave[j].clear();
            scratch.wave[j].extend_from_slice(&scratch.prefix);
        }
        let utilities = batcher.eval_batch(&mut scratch.chain, &scratch.wave[..width])?;
        // Fold the wave sequentially: logical call order, truncation and
        // budget accounting are exactly the unbatched walk's.
        for (j, &u) in utilities.iter().enumerate() {
            let i = scratch.order[pos + j];
            calls += 1;
            if let Some(clock) = clock.as_deref_mut() {
                clock.record_utility_calls(1);
            }
            marginals[i] = u - prev_u;
            prev_u = u;
            if (full_utility - u).abs() < params.truncation_tolerance {
                // Remaining marginals stay 0; any already-evaluated wave
                // tail is discarded (its values are pure, so the physical
                // overshoot is unobservable).
                return Ok(WalkOutcome::Complete { marginals, calls });
            }
        }
        pos += width;
    }
    Ok(WalkOutcome::Complete { marginals, calls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::run::{tmc_shapley, ImportanceOutcome, ImportanceRun};
    use nde_data::json::Json;
    use nde_ml::models::knn::KnnClassifier;
    use nde_robust::par::MemoCache;
    use nde_robust::RunBudget;

    // The behavioral suite pins the estimator through the public entry
    // point, one coalition per wave unless a test sets another batch
    // policy. The comparisons against a model without a batched scorer
    // live in `tests/tests/batched_utility.rs`.
    fn run(seed: u64) -> ImportanceRun<'static> {
        ImportanceRun::new(seed).with_batch(BatchPolicy::Grouped { size: 1 })
    }

    fn params(permutations: usize, truncation_tolerance: f64) -> TmcParams {
        TmcParams {
            permutations,
            truncation_tolerance,
        }
    }

    fn tmc(
        run: &ImportanceRun,
        train: &Dataset,
        valid: &Dataset,
        params: &TmcParams,
    ) -> ImportanceOutcome {
        tmc_shapley(run, &KnnClassifier::new(1), train, valid, params).unwrap()
    }

    fn state(out: &ImportanceOutcome) -> &McCheckpoint {
        match &out.report.snapshot {
            Some(EstimatorCheckpoint::Tmc(state)) => state,
            other => panic!("expected a TMC snapshot, got {other:?}"),
        }
    }

    /// Round-trip a snapshot through its JSON text, as a store record does.
    fn through_json(out: &ImportanceOutcome) -> EstimatorCheckpoint {
        let text = out
            .report
            .snapshot
            .as_ref()
            .unwrap()
            .to_payload()
            .to_string_pretty();
        EstimatorCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap()
    }

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

    #[test]
    fn mislabelled_point_has_lowest_shapley_value() {
        let (train, valid) = toy();
        let scores = tmc(&run(1), &train, &valid, &params(200, 0.0)).scores;
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
        // Clean points have positive value.
        assert!(scores.values[0] > 0.0);
        assert!(scores.values[2] > 0.0);
    }

    #[test]
    fn efficiency_axiom_approximately_holds() {
        // Sum of Shapley values = U(full) − U(∅) = U(full).
        let (train, valid) = toy();
        let scores = tmc(&run(2), &train, &valid, &params(500, 0.0)).scores;
        let sum: f64 = scores.values.iter().sum();
        let full = nde_ml::model::utility(&KnnClassifier::new(1), &train, &valid).unwrap();
        // With no truncation, every permutation's marginals telescope to
        // exactly U(full), so this holds to floating-point error.
        assert!((sum - full).abs() < 1e-9, "sum={sum} full={full}");
    }

    #[test]
    fn deterministic_and_parallel_bit_identical() {
        let (train, valid) = toy();
        let p = params(60, 0.0);
        let a = tmc(&run(3), &train, &valid, &p).scores;
        let b = tmc(&run(3), &train, &valid, &p).scores;
        assert_eq!(a, b);
        // Bit-identical regardless of thread count (work is seed-partitioned
        // and settled in index order).
        let c = tmc(&run(3).with_threads(4), &train, &valid, &p).scores;
        assert_eq!(a, c);
    }

    #[test]
    fn truncation_reduces_no_worse_than_tolerance() {
        let (train, valid) = toy();
        let exact = tmc(&run(4), &train, &valid, &params(300, 0.0)).scores;
        let trunc = tmc(&run(4), &train, &valid, &params(300, 0.05)).scores;
        // Rankings agree on the harmful point.
        assert_eq!(exact.bottom_k(1), trunc.bottom_k(1));
    }

    #[test]
    fn validates_arguments() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        assert!(tmc_shapley(&run(0), &knn, &train, &valid, &params(0, 0.01)).is_err());
        let empty = train.subset(&[]);
        assert!(tmc_shapley(&run(0), &knn, &empty, &valid, &TmcParams::default()).is_err());
    }

    #[test]
    fn budgeted_with_unlimited_budget_matches_plain_tmc() {
        let (train, valid) = toy();
        let p = params(40, 0.0);
        let plain = tmc(&run(7), &train, &valid, &p);
        let out = tmc(
            &run(7).with_budget(RunBudget::unlimited()),
            &train,
            &valid,
            &p,
        );
        let diagnostics = out.report.diagnostics.as_ref().unwrap();
        assert_eq!(out.scores.values, plain.scores.values);
        assert!(diagnostics.completed());
        assert_eq!(diagnostics.iterations, 40);
        assert_eq!(state(&out).cursor, 40);
        assert!(state(&out).inflight.is_none());
        assert!(diagnostics.max_marginal_std_error.unwrap() >= 0.0);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let (train, valid) = toy();
        let p = params(50, 0.0);
        let budget = RunBudget::unlimited().with_max_iterations(5);
        let out = tmc(&run(7).with_budget(budget), &train, &valid, &p);
        let diagnostics = out.report.diagnostics.as_ref().unwrap();
        assert!(!diagnostics.completed());
        assert_eq!(
            diagnostics.exhausted,
            Some(nde_robust::Exhaustion::Iterations)
        );
        assert_eq!(state(&out).cursor, 5);
        // Iteration budgets stop on permutation boundaries.
        assert!(state(&out).inflight.is_none());
        // Best-so-far estimate is still a usable average.
        assert!(out.scores.values.iter().all(|v| v.is_finite()));
        let budget = RunBudget::unlimited().with_max_utility_calls(8);
        let out = tmc(&run(7).with_budget(budget), &train, &valid, &p);
        assert_eq!(
            out.report.diagnostics.as_ref().unwrap().exhausted,
            Some(nde_robust::Exhaustion::UtilityCalls)
        );
        let checkpoint = state(&out);
        assert!(checkpoint.cursor < 50);
        assert_eq!(checkpoint.utility_calls, 8);
        // n=5 per permutation: 1 (full) + 5 (perm 0) + 2 = 8 calls puts the
        // deterministic stopping point two positions into permutation 1.
        assert_eq!(checkpoint.cursor, 1);
        let inflight = checkpoint.inflight.as_ref().unwrap();
        assert_eq!(inflight.pos, 2);
        assert!(checkpoint.rng_state.is_some());
    }

    #[test]
    fn interrupted_plus_resumed_is_bit_identical_to_uninterrupted() {
        let (train, valid) = toy();
        let p = params(30, 0.0);
        let uninterrupted = tmc(&run(7), &train, &valid, &p);
        // Stop after 11 permutations, round-trip the checkpoint through
        // JSON, then finish the remaining 19.
        let first = tmc(
            &run(7).with_budget(RunBudget::unlimited().with_max_iterations(11)),
            &train,
            &valid,
            &p,
        );
        assert_eq!(state(&first).cursor, 11);
        let restored = through_json(&first);
        assert_eq!(Some(&restored), first.report.snapshot.as_ref());
        let resumed = tmc(&run(7).with_resume(&restored), &train, &valid, &p);
        assert_eq!(resumed.scores.values, uninterrupted.scores.values);
        let (resumed, uninterrupted) = (state(&resumed), state(&uninterrupted));
        assert_eq!(resumed.cursor, uninterrupted.cursor);
        assert_eq!(resumed.totals, uninterrupted.totals);
        assert_eq!(resumed.totals_sq, uninterrupted.totals_sq);
        // Resuming re-primes the full-utility value, so the resumed run
        // honestly accounts one extra utility call.
        assert_eq!(resumed.utility_calls, uninterrupted.utility_calls + 1);
    }

    #[test]
    fn mid_permutation_resume_is_bit_identical() {
        let (train, valid) = toy();
        let p = params(12, 0.0);
        let uninterrupted = tmc(&run(7), &train, &valid, &p);
        let full_calls = state(&uninterrupted).utility_calls;
        // Trip the utility budget at every possible call count; each stop
        // lands at a different mid-permutation position. Resume must always
        // reconverge to the exact uninterrupted floats.
        for max_calls in 2..full_calls {
            let partial = tmc(
                &run(7).with_budget(RunBudget::unlimited().with_max_utility_calls(max_calls)),
                &train,
                &valid,
                &p,
            );
            assert_eq!(state(&partial).utility_calls, max_calls);
            let restored = through_json(&partial);
            let resumed = tmc(&run(7).with_resume(&restored), &train, &valid, &p);
            assert_eq!(
                resumed.scores.values, uninterrupted.scores.values,
                "resume after {max_calls} utility calls must be bit-identical"
            );
            assert_eq!(state(&resumed).totals, state(&uninterrupted).totals);
            assert_eq!(state(&resumed).totals_sq, state(&uninterrupted).totals_sq);
            assert!(state(&resumed).inflight.is_none());
        }
    }

    #[test]
    fn checkpoint_cadence_leaves_budgeted_runs_unchanged() {
        // U(full) is primed once per call, so the cadence, a durability
        // setting, moves neither the scores nor the utility calls nor the
        // budget's trip point.
        let (train, valid) = toy();
        let p = params(12, 0.0);
        let outcome = |every: Option<u64>| {
            let mut run = run(7).with_budget(RunBudget::unlimited().with_max_utility_calls(33));
            run.auto_checkpoint_every = every;
            tmc(&run, &train, &valid, &p)
        };
        let want = outcome(None);
        // 1 (full) + 6 permutations of 5 + 2: the trip lands mid-permutation.
        assert_eq!(state(&want).utility_calls, 33);
        assert_eq!(state(&want).cursor, 6);
        assert!(state(&want).inflight.is_some());
        for every in [1, 3, 8] {
            let got = outcome(Some(every));
            assert_eq!(got.scores, want.scores, "every={every}");
            assert_eq!(
                got.report.utility_calls, want.report.utility_calls,
                "every={every}"
            );
            assert_eq!(state(&got).cursor, state(&want).cursor, "every={every}");
            assert_eq!(state(&got), state(&want), "every={every}");
        }
    }

    #[test]
    fn memoized_run_is_bit_identical_and_hits() {
        let (train, valid) = toy();
        let p = params(25, 0.0);
        let plain = tmc(&run(7), &train, &valid, &p);
        let cache = MemoCache::new();
        let cached = tmc(&run(7).with_cache(&cache), &train, &valid, &p);
        assert_eq!(cached.scores.values, plain.scores.values);
        // Logical budget accounting is cache-independent.
        assert_eq!(state(&cached).utility_calls, state(&plain).utility_calls);
        // 25 permutations over 5 examples revisit coalitions constantly.
        assert!(cache.hits() > 0, "expected repeated coalitions to hit");
        assert!(cache.len() as u64 <= state(&plain).utility_calls);
    }

    #[test]
    fn rejects_mismatched_checkpoints_and_corrupt_features() {
        let (train, valid) = toy();
        let p = params(10, 0.0);
        let knn = KnnClassifier::new(1);
        let rejected = |resume: &EstimatorCheckpoint| {
            matches!(
                tmc_shapley(&run(7).with_resume(resume), &knn, &train, &valid, &p),
                Err(ImportanceError::Checkpoint(_))
            )
        };
        let other = EstimatorCheckpoint::Tmc(McCheckpoint::fresh(&p, 999, train.len()));
        assert!(rejected(&other));
        let wrong_method = EstimatorCheckpoint::Banzhaf(crate::snapshot::BanzhafCheckpoint::fresh(
            &crate::banzhaf::BanzhafParams::default(),
            7,
            train.len(),
        ));
        assert!(rejected(&wrong_method));
        // An in-flight snapshot whose rng_state does not belong to the run's
        // seed is refused instead of silently corrupting the estimate.
        let trip = tmc(
            &run(7).with_budget(RunBudget::unlimited().with_max_utility_calls(8)),
            &train,
            &valid,
            &p,
        );
        let mut forged = state(&trip).clone();
        forged.rng_state = Some([1, 2, 3, 4]);
        assert!(rejected(&EstimatorCheckpoint::Tmc(forged)));
        let mut poisoned = train.clone();
        poisoned.x.set(1, 0, f64::NAN);
        let err = tmc_shapley(&run(7), &knn, &poisoned, &valid, &p);
        assert!(matches!(err, Err(ImportanceError::Ml(m)) if m.contains("row 1")));
    }
}
