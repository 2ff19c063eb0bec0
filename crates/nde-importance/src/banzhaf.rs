//! Data Banzhaf values via the Maximum-Sample-Reuse estimator
//! (Wang & Jia, AISTATS'23).
//!
//! The Banzhaf value weighs all subsets equally, which makes it provably more
//! robust to noisy utility functions than the Shapley value. The MSR
//! estimator reuses every sampled subset for *all* points:
//! `φ_i = mean(U(S) | i ∈ S) − mean(U(S) | i ∉ S)`.
//!
//! Subset sample `s` is drawn from `child_seed(seed, s)` and samples are
//! folded in index order, so scores are bit-identical for every thread
//! count (the [`nde_robust::par`] determinism contract). Under a grouped
//! [`BatchPolicy`](crate::batch::BatchPolicy) the samples are evaluated in
//! **blocks**: each worker claims a block of consecutive sample indices and
//! scores the whole block through the
//! [`UtilityBatcher`](crate::batch::UtilityBatcher) in one validation pass — block
//! boundaries are a pure function of the sample index, so the fold order
//! (and therefore every float) is unchanged.

use crate::run::{Estimator, Segment};
use crate::snapshot::{BanzhafCheckpoint, EstimatorCheckpoint};
use crate::{ImportanceError, Result};
use nde_data::rng::Rng;
use nde_data::rng::{child_seed, seeded};
use nde_ml::batch::CoalitionChain;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::BudgetClock;
use std::sync::atomic::AtomicBool;

/// Method parameters for the Banzhaf MSR estimator.
#[derive(Debug, Clone)]
pub struct BanzhafParams {
    /// Number of sampled subsets (each point included with probability 1/2).
    pub samples: usize,
}

impl Default for BanzhafParams {
    fn default() -> Self {
        BanzhafParams { samples: 200 }
    }
}

/// One sample's logical utility cost: 1 unless the sampled subset is empty
/// (`U(∅) = 0` is a convention, not an evaluation). A pure RNG replay, so
/// budget trip points are independent of caching, batching, and threads.
fn sample_cost(seed: u64, s: u64, n: usize) -> u64 {
    let mut rng = seeded(child_seed(seed, s));
    u64::from((0..n).any(|_| rng.gen::<bool>()))
}

/// Banzhaf MSR under the shared driver behind
/// [`banzhaf()`](crate::run::banzhaf). Empty sampled subsets have utility
/// 0 by convention.
///
/// Budgeting is **sample-granular**: whole subset samples are folded until a
/// limit trips (one iteration = one sample; the wall clock is consulted at
/// the same boundaries), and the [`BanzhafCheckpoint`] restores the exact
/// conditional sums, so continuing a tripped run — in this process or
/// after a crash — is bit-identical to never having stopped.
impl Estimator for BanzhafParams {
    const METHOD: &'static str = "banzhaf";
    type State = BanzhafCheckpoint;

    fn config(&self) -> String {
        format!("samples={}", self.samples)
    }

    fn steps(&self, _n: usize) -> u64 {
        self.samples as u64
    }

    fn check(&self, _train: &Dataset, _valid: &Dataset) -> Result<()> {
        if self.samples == 0 {
            return Err(ImportanceError::InvalidArgument(
                "need at least one sample".into(),
            ));
        }
        Ok(())
    }

    fn fresh(&self, seed: u64, n: usize) -> EstimatorCheckpoint {
        EstimatorCheckpoint::Banzhaf(BanzhafCheckpoint::fresh(self, seed, n))
    }

    fn validate(&self, state: &BanzhafCheckpoint, seed: u64, n: usize) -> Result<()> {
        state.validate_against(self, seed, n)
    }

    fn state(snapshot: &mut EstimatorCheckpoint) -> Option<&mut BanzhafCheckpoint> {
        match snapshot {
            EstimatorCheckpoint::Banzhaf(state) => Some(state),
            _ => None,
        }
    }

    fn segment<C: Classifier + Send + Sync>(
        &self,
        seg: &Segment<'_, C>,
        state: &mut BanzhafCheckpoint,
        clock: &mut BudgetClock,
    ) -> Result<(Vec<f64>, Option<f64>)> {
        let n = state.n;
        // Plan the segment deterministically before evaluating anything:
        // walk whole samples, charging each sample's replayed cost, until a
        // limit trips or the segment ends.
        let start = state.cursor;
        let mut end = start;
        while end < seg.until && clock.exhausted().is_none() {
            clock.record_iteration();
            clock.record_utility_calls(sample_cost(seg.seed, end, n));
            end += 1;
        }
        if end > start {
            let width = seg.batcher.width() as u64;
            let blocks = (end - start).div_ceil(width);
            let stop = AtomicBool::new(false);
            // Subset sample `s` is a pure function of `child_seed(seed, s)`;
            // members come out already sorted, so the utility cache key is
            // ready-made. Block `b` covers samples [start + b·width,
            // start + (b+1)·width): also schedule-independent.
            let sample_blocks = seg.pool.map_indexed(seg.threads, 0..blocks, &stop, |b| {
                let lo = start + b * width;
                let hi = (start + (b + 1) * width).min(end);
                let mut block: Vec<Vec<usize>> = Vec::with_capacity((hi - lo) as usize);
                for s in lo..hi {
                    let mut rng = seeded(child_seed(seg.seed, s));
                    let mut members: Vec<usize> = Vec::with_capacity(n);
                    for i in 0..n {
                        if rng.gen::<bool>() {
                            members.push(i);
                        }
                    }
                    block.push(members);
                }
                let utilities = seg.batcher.eval_batch(&mut CoalitionChain::new(), &block)?;
                Ok::<_, ImportanceError>((block, utilities))
            })?;

            // Fold in sample-index order (blocks are index-sorted, samples
            // are in order within a block) — float sums independent of the
            // schedule.
            for (_, (block, utilities)) in &sample_blocks {
                for (members, &u) in block.iter().zip(utilities) {
                    let mut next = members.iter().peekable();
                    for i in 0..n {
                        if next.peek() == Some(&&i) {
                            next.next();
                            state.with_sum[i] += u;
                            state.with_count[i] += 1;
                        } else {
                            state.without_sum[i] += u;
                            state.without_count[i] += 1;
                        }
                    }
                }
            }
            state.cursor = end;
            state.utility_calls = clock.utility_calls();
        }
        Ok((state.values(), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::common::ImportanceScores;
    use crate::run::{banzhaf, ImportanceOutcome, ImportanceRun};
    use nde_ml::models::knn::KnnClassifier;
    use nde_robust::par::MemoCache;
    use nde_robust::RunBudget;

    // The behavioral suite pins the estimator through the public entry
    // point, scoring one coalition at a time unless a test sets another
    // batch policy.
    fn run(seed: u64, threads: usize) -> ImportanceRun<'static> {
        ImportanceRun::new(seed)
            .with_threads(threads)
            .with_batch(BatchPolicy::Unbatched)
    }

    fn estimate(
        run: &ImportanceRun,
        train: &Dataset,
        valid: &Dataset,
        samples: usize,
    ) -> ImportanceOutcome {
        banzhaf(
            run,
            &KnnClassifier::new(1),
            train,
            valid,
            &BanzhafParams { samples },
        )
        .unwrap()
    }

    fn scores(
        run: &ImportanceRun,
        train: &Dataset,
        valid: &Dataset,
        samples: usize,
    ) -> ImportanceScores {
        estimate(run, train, valid, samples).scores
    }

    fn state(out: &ImportanceOutcome) -> &BanzhafCheckpoint {
        match &out.report.snapshot {
            Some(EstimatorCheckpoint::Banzhaf(state)) => state,
            other => panic!("expected a Banzhaf snapshot, got {other:?}"),
        }
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
    fn mislabelled_point_has_lowest_banzhaf_value() {
        let (train, valid) = toy();
        let scores = scores(&run(1, 1), &train, &valid, 600);
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
        assert!(scores.values[0] > 0.0);
    }

    #[test]
    fn deterministic_by_seed_and_thread_invariant() {
        let (train, valid) = toy();
        let a = scores(&run(7, 1), &train, &valid, 100);
        let b = scores(&run(7, 1), &train, &valid, 100);
        assert_eq!(a, b);
        let c = scores(&run(7, 4), &train, &valid, 100);
        assert_eq!(a, c);
    }

    #[test]
    fn batched_blocks_are_bit_identical_to_unbatched() {
        let (train, valid) = toy();
        for threads in [1, 4] {
            let plain = scores(&run(5, threads), &train, &valid, 150);
            for size in [1, 2, 7, 32, 1000] {
                let batched = estimate(
                    &run(5, threads).with_batch(BatchPolicy::Grouped { size }),
                    &train,
                    &valid,
                    150,
                );
                assert_eq!(batched.scores, plain, "threads={threads} size={size}");
                let report = &batched.report;
                assert!(report.batched_evals > 0);
                // Every non-empty sample is answered exactly once.
                assert_eq!(
                    report.batched_evals + report.fallback_evals + report.cache_hits,
                    150 - empty_samples(5, 150)
                );
            }
        }
    }

    fn empty_samples(seed: u64, samples: u64) -> u64 {
        (0..samples)
            .filter(|&s| {
                let mut rng = seeded(child_seed(seed, s));
                (0..5).all(|_| !rng.gen::<bool>())
            })
            .count() as u64
    }

    #[test]
    fn memoized_run_is_bit_identical_and_hits() {
        let (train, valid) = toy();
        let plain = scores(&run(3, 2), &train, &valid, 200);
        let cache = MemoCache::new();
        let cached = scores(&run(3, 2).with_cache(&cache), &train, &valid, 200);
        assert_eq!(plain, cached);
        // Only 2^5 possible coalitions over 5 points: 200 samples must hit.
        assert!(cache.hits() > 0);
        assert!(cache.len() <= 31, "at most 2^5 - 1 non-empty coalitions");
    }

    #[test]
    fn budgeted_cut_and_resume_is_bit_identical() {
        let (train, valid) = toy();
        let run = || ImportanceRun::new(9).with_threads(2);
        let full = scores(&run(), &train, &valid, 60);
        // Trip the utility budget mid-run, then resume without limits.
        let budget = RunBudget::unlimited().with_max_utility_calls(25);
        let cut = estimate(&run().with_budget(budget), &train, &valid, 60);
        assert!(!cut.report.diagnostics.as_ref().unwrap().completed());
        assert_eq!(state(&cut).utility_calls, 25);
        assert!(state(&cut).cursor < 60);
        let snapshot = cut.report.snapshot.clone().unwrap();
        let resumed = estimate(&run().with_resume(&snapshot), &train, &valid, 60);
        assert!(resumed.report.diagnostics.as_ref().unwrap().completed());
        assert_eq!(state(&resumed).cursor, 60);
        for (a, b) in full.values.iter().zip(&resumed.scores.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A checkpoint from a different run shape is refused.
        let other = ImportanceRun::new(10)
            .with_threads(2)
            .with_resume(&snapshot);
        assert!(banzhaf(
            &other,
            &KnnClassifier::new(1),
            &train,
            &valid,
            &BanzhafParams { samples: 60 }
        )
        .is_err());
    }

    #[test]
    fn validates_arguments() {
        let (train, valid) = toy();
        let knn = KnnClassifier::new(1);
        let zero = BanzhafParams { samples: 0 };
        assert!(banzhaf(&run(0, 1), &knn, &train, &valid, &zero).is_err());
        let empty = train.subset(&[]);
        assert!(banzhaf(&run(0, 1), &knn, &empty, &valid, &BanzhafParams::default()).is_err());
    }
}
