//! The batched utility evaluation engine.
//!
//! [`UtilityBatcher`] is the funnel every Monte-Carlo estimator pushes its
//! coalition evaluations through. It groups pending coalitions (a
//! permutation wave in TMC, a block of subset samples in Banzhaf, a point's
//! draws in Beta-Shapley) and evaluates the whole group against the
//! validation set in **one pass** when the model offers a batched scorer
//! ([`nde_ml::batch::CoalitionScorer`] — the KNN utility does, via its
//! shared train→valid distance matrix). The batcher asks every model for
//! that scorer and retrains per coalition only when the model offers none;
//! no option selects the retraining path for a model that has a scorer.
//!
//! # Contract
//!
//! Batching is a *physical* optimization with no logical surface:
//!
//! - **Values** — for every coalition, the batcher returns exactly the
//!   `f64` that [`coalition_utility`] would (`U(∅) = 0` included), so an
//!   estimator's scores are bit-identical for every wave width and equal
//!   to a model's that offers no scorer.
//! - **Cache first** — batch lookups consult the [`MemoCache`] before
//!   evaluating; hits still count as logical budget calls (the caller's
//!   clock accounting never consults the cache), so budget trip points are
//!   cache-independent.
//! - **Budgets** — callers clamp wave width with
//!   [`nde_robust::BudgetClock::remaining_utility_calls`]; the batcher
//!   itself never makes stopping decisions.
//! - **Chains** — each caller owns a [`CoalitionChain`] per walk and hands
//!   it to every [`UtilityBatcher::eval_batch`]; the scorer continues it
//!   across calls (a TMC permutation's waves), so a coalition that contains
//!   the chain's last one costs only its added members.
//!
//! The batcher is `Sync` (atomic counters only), so speculative parallel
//! workers share one instance — and one distance matrix — per run.

use crate::common::{coalition_utility, ImportanceError};
use nde_ml::batch::{CoalitionChain, CoalitionScorer};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::par::{subset_fingerprint_sorted, MemoCache};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many coalitions an estimator queues per wave. The width is purely
/// physical: whether a wave is scored in one pass or retrained coalition by
/// coalition depends only on the model (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Queue up to `size` pending coalitions per wave.
    Grouped {
        /// Maximum coalitions per wave (clamped to ≥ 1).
        size: usize,
    },
}

impl BatchPolicy {
    /// The default grouped width: big enough to amortize a validation pass,
    /// small enough that budget-clamped waves rarely shrink it.
    pub const DEFAULT_GROUP: usize = 32;

    /// Maximum number of coalitions an estimator should queue per wave.
    pub fn width(&self) -> usize {
        let BatchPolicy::Grouped { size } = self;
        (*size).max(1)
    }
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy::Grouped {
            size: BatchPolicy::DEFAULT_GROUP,
        }
    }
}

/// Counters describing what a batcher physically did during a run.
///
/// These describe *physical* evaluation work, not logical budget
/// accounting: under speculative parallel execution a coalition can be
/// evaluated (or hit the cache) more than once before the sequential
/// settlement pass decides which results count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Grouped passes submitted to the batched scorer.
    pub batches_formed: u64,
    /// Coalitions evaluated through the batched scorer.
    pub batched_evals: u64,
    /// Coalitions evaluated through per-coalition retraining.
    pub fallback_evals: u64,
    /// Coalitions served from the memo cache.
    pub cache_hits: u64,
}

impl BatchStats {
    /// Total coalition evaluations answered (cache hits included).
    pub fn evals(&self) -> u64 {
        self.batched_evals + self.fallback_evals + self.cache_hits
    }
}

/// Groups coalition evaluations and answers them cache-first, batched when
/// the model supports it, per-coalition otherwise.
///
/// Built once per estimator run; shared by reference across worker threads.
pub struct UtilityBatcher<'a, C: Classifier> {
    template: &'a C,
    train: &'a Dataset,
    valid: &'a Dataset,
    cache: Option<&'a MemoCache>,
    scorer: Option<Box<dyn CoalitionScorer>>,
    policy: BatchPolicy,
    batches_formed: AtomicU64,
    batched_evals: AtomicU64,
    fallback_evals: AtomicU64,
    cache_hits: AtomicU64,
}

impl<'a, C: Classifier> UtilityBatcher<'a, C> {
    /// Prepare a batcher for one `(template, train, valid)` triple.
    ///
    /// Asks the model for its batched scorer once — for KNN that computes
    /// the shared distance matrix here, up front.
    pub fn new(
        template: &'a C,
        train: &'a Dataset,
        valid: &'a Dataset,
        cache: Option<&'a MemoCache>,
        policy: BatchPolicy,
    ) -> UtilityBatcher<'a, C> {
        UtilityBatcher {
            template,
            train,
            valid,
            cache,
            scorer: template.coalition_scorer(train, valid),
            policy,
            batches_formed: AtomicU64::new(0),
            batched_evals: AtomicU64::new(0),
            fallback_evals: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// The maximum wave width estimators should queue before evaluating.
    pub fn width(&self) -> usize {
        self.policy.width()
    }

    /// Number of training examples coalitions index into.
    pub fn train_len(&self) -> usize {
        self.train.len()
    }

    /// Snapshot the physical-work counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches_formed: self.batches_formed.load(Ordering::Relaxed),
            batched_evals: self.batched_evals.load(Ordering::Relaxed),
            fallback_evals: self.fallback_evals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Utility of a single **sorted** coalition (`U(∅) = 0`), on a chain of
    /// its own.
    pub fn eval_one(&self, sorted: &[usize]) -> Result<f64, ImportanceError> {
        Ok(self.eval_batch(&mut CoalitionChain::new(), std::slice::from_ref(&sorted))?[0])
    }

    /// Utilities of a wave of **sorted** coalitions, in order.
    ///
    /// Cache hits are filled first; the misses go to the batched scorer in
    /// one pass that continues `chain` (or to the per-coalition fallback)
    /// and are inserted into the cache afterwards. Values are bit-identical to
    /// calling [`coalition_utility`] on each coalition separately.
    pub fn eval_batch<S: AsRef<[usize]>>(
        &self,
        chain: &mut CoalitionChain,
        coalitions: &[S],
    ) -> Result<Vec<f64>, ImportanceError> {
        let mut out = vec![0.0; coalitions.len()];
        let mut miss_slots: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<u64> = Vec::new();
        let mut misses: Vec<&[usize]> = Vec::new();
        for (slot, c) in coalitions.iter().enumerate() {
            let c = c.as_ref();
            if c.is_empty() {
                // U(∅) = 0 by convention, never evaluated or cached.
                continue;
            }
            if let Some(cache) = self.cache {
                let key = subset_fingerprint_sorted(c);
                if let Some(v) = cache.get(key) {
                    out[slot] = v;
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                miss_keys.push(key);
            }
            miss_slots.push(slot);
            misses.push(c);
        }
        if misses.is_empty() {
            return Ok(out);
        }
        let values: Vec<f64> = match &self.scorer {
            Some(scorer) => {
                self.batches_formed.fetch_add(1, Ordering::Relaxed);
                self.batched_evals
                    .fetch_add(misses.len() as u64, Ordering::Relaxed);
                scorer.score_batch(chain, &misses)
            }
            None => {
                self.fallback_evals
                    .fetch_add(misses.len() as u64, Ordering::Relaxed);
                misses
                    .iter()
                    .map(|c| coalition_utility(self.template, self.train, self.valid, c))
                    .collect::<Result<_, _>>()?
            }
        };
        for (pos, (&slot, &v)) in miss_slots.iter().zip(&values).enumerate() {
            out[slot] = v;
            if let Some(cache) = self.cache {
                // Membership-tagged, so cleaning fixes can invalidate only
                // the coalitions that contain a repaired row.
                cache.insert_with_members(miss_keys[pos], v, misses[pos]);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;
    use nde_ml::models::knn::KnnClassifier;
    use nde_ml::models::majority::MajorityClassifier;

    fn workload(n: usize, m: usize, seed: u64) -> (Dataset, Dataset) {
        let nd = two_gaussians(n + m, 3, 3.0, seed);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..n).collect::<Vec<_>>());
        let valid = all.subset(&(n..n + m).collect::<Vec<_>>());
        (train, valid)
    }

    fn coalitions(n: usize) -> Vec<Vec<usize>> {
        vec![
            vec![],
            vec![0],
            vec![1, 3, 5],
            (0..n).collect(),
            vec![2, 4],
            vec![1, 3, 5],
        ]
    }

    #[test]
    fn batched_matches_coalition_utility_exactly() {
        let (train, valid) = workload(14, 7, 1);
        let knn = KnnClassifier::new(3);
        for policy in [
            BatchPolicy::Grouped { size: 1 },
            BatchPolicy::Grouped { size: 4 },
            BatchPolicy::default(),
        ] {
            let batcher = UtilityBatcher::new(&knn, &train, &valid, None, policy);
            let got = batcher
                .eval_batch(&mut CoalitionChain::new(), &coalitions(14))
                .unwrap();
            for (c, &g) in coalitions(14).iter().zip(&got) {
                let want = coalition_utility(&knn, &train, &valid, c).unwrap();
                assert_eq!(g, want, "policy={policy:?} coalition={c:?}");
            }
        }
    }

    #[test]
    fn grouped_policy_uses_the_batched_scorer() {
        let (train, valid) = workload(10, 5, 2);
        let knn = KnnClassifier::new(1);
        let batcher =
            UtilityBatcher::new(&knn, &train, &valid, None, BatchPolicy::Grouped { size: 8 });
        batcher
            .eval_batch(&mut CoalitionChain::new(), &coalitions(10))
            .unwrap();
        let stats = batcher.stats();
        assert_eq!(stats.batches_formed, 1);
        assert_eq!(stats.batched_evals, 5, "empty coalition never evaluated");
        assert_eq!(stats.fallback_evals, 0);
    }

    #[test]
    fn generic_classifiers_fall_back_per_coalition() {
        let (train, valid) = workload(10, 5, 3);
        let majority = MajorityClassifier::new();
        let batcher = UtilityBatcher::new(&majority, &train, &valid, None, BatchPolicy::default());
        let got = batcher
            .eval_batch(&mut CoalitionChain::new(), &coalitions(10))
            .unwrap();
        for (c, &g) in coalitions(10).iter().zip(&got) {
            let want = coalition_utility(&majority, &train, &valid, c).unwrap();
            assert_eq!(g, want);
        }
        assert_eq!(batcher.stats().fallback_evals, 5);
        assert_eq!(batcher.stats().batches_formed, 0);
    }

    #[test]
    fn cache_is_consulted_first_and_filled_after() {
        let (train, valid) = workload(12, 6, 4);
        let knn = KnnClassifier::new(1);
        let cache = MemoCache::new();
        let batcher = UtilityBatcher::new(
            &knn,
            &train,
            &valid,
            Some(&cache),
            BatchPolicy::Grouped { size: 8 },
        );
        let first = batcher
            .eval_batch(&mut CoalitionChain::new(), &coalitions(12))
            .unwrap();
        // The duplicate coalition [1,3,5] appears twice in one wave: the
        // second occurrence misses (both were queued before insertion) but
        // the whole wave is still one batch.
        let after_first = batcher.stats();
        assert_eq!(after_first.batches_formed, 1);
        let second = batcher
            .eval_batch(&mut CoalitionChain::new(), &coalitions(12))
            .unwrap();
        assert_eq!(first, second);
        let after_second = batcher.stats();
        // Second wave: all five non-empty coalitions hit.
        assert_eq!(after_second.cache_hits - after_first.cache_hits, 5);
        assert_eq!(after_second.batched_evals, after_first.batched_evals);
        assert_eq!(cache.len(), 4, "four distinct non-empty coalitions");
    }

    #[test]
    fn eval_one_matches_batch_of_one() {
        let (train, valid) = workload(9, 4, 5);
        let knn = KnnClassifier::new(2);
        let batcher = UtilityBatcher::new(&knn, &train, &valid, None, BatchPolicy::default());
        assert_eq!(batcher.eval_one(&[]).unwrap(), 0.0);
        let v = batcher.eval_one(&[0, 4, 8]).unwrap();
        let want = coalition_utility(&knn, &train, &valid, &[0, 4, 8]).unwrap();
        assert_eq!(v, want);
    }
}
