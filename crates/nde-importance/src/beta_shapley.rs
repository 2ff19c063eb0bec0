//! Beta Shapley: Beta(α, β)-weighted semivalues (Kwon & Zou, AISTATS'22).
//!
//! The Shapley value weights marginal contributions at all coalition sizes
//! equally; Beta Shapley re-weights them with a Beta(α, β) profile. Large β
//! emphasizes *small* coalitions (where signal about mislabeled points is
//! strongest and noise lowest); `Beta(1, 1)` recovers the Shapley value.
//!
//! We estimate with size-stratified Monte Carlo: draw a coalition size `j`
//! from the normalized Beta weights, draw a random subset of that size not
//! containing `i`, and average the marginal contribution `U(S ∪ i) − U(S)`.

use crate::run::{Estimator, Segment};
use crate::snapshot::{BetaShapleyCheckpoint, EstimatorCheckpoint};
use crate::{ImportanceError, Result};
use nde_data::rng::Rng;
use nde_data::rng::SliceRandom;
use nde_data::rng::{child_seed, seeded};
use nde_ml::batch::CoalitionChain;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_robust::BudgetClock;
use std::sync::atomic::AtomicBool;

/// Method parameters for the Beta(α, β) semivalue estimator.
#[derive(Debug, Clone)]
pub struct BetaShapleyParams {
    /// Beta distribution α parameter (> 0).
    pub alpha: f64,
    /// Beta distribution β parameter (> 0). β > α emphasizes small
    /// coalitions.
    pub beta: f64,
    /// Monte-Carlo samples *per training example*.
    pub samples_per_point: usize,
}

impl Default for BetaShapleyParams {
    fn default() -> Self {
        BetaShapleyParams {
            alpha: 1.0,
            beta: 16.0,
            samples_per_point: 50,
        }
    }
}

/// Normalized probability of each coalition size `j ∈ 0..n` under the
/// Beta(α, β) semivalue, *including* the count of subsets of that size.
///
/// The per-subset weight of a coalition `S` with `|S| = j` (out of the
/// `n − 1` points other than the one being valued) is
/// `∫ t^j (1−t)^{n−1−j} dBeta(t) ∝ B(j + α, n − 1 − j + β)`, so the per-size
/// sampling probability is `C(n−1, j) · B(j + α, n − 1 − j + β)`. β > α
/// shifts the Beta mass toward `t = 0`, i.e. toward *small* coalitions;
/// `Beta(1, 1)` gives the uniform size distribution of the Shapley value.
/// Computed in log space and normalized, so only relative weights matter.
pub fn beta_size_weights(n: usize, alpha: f64, beta: f64) -> Vec<f64> {
    debug_assert!(n >= 1);
    let mut logw = Vec::with_capacity(n);
    let ln_choose = |n: f64, k: f64| ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0);
    for j in 0..n {
        let a = j as f64 + alpha;
        let b = (n - 1 - j) as f64 + beta;
        logw.push(
            ln_choose((n - 1) as f64, j as f64) + ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b),
        );
    }
    let max = logw.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let mut w: Vec<f64> = logw.into_iter().map(|v| (v - max).exp()).collect();
    let sum: f64 = w.iter().sum();
    for v in &mut w {
        *v /= sum;
    }
    w
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
#[allow(clippy::inconsistent_digit_grouping)] // literal Lanczos coefficients
fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7, n = 9 (standard Lanczos).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// One point's logical utility cost, by pure RNG replay of its sampling
/// stream: every sample's `S ∪ i` coalition costs one call; its `S` costs
/// one more unless the drawn size is 0 (`U(∅) = 0` is free). The replay
/// shuffles a dummy pool because a Fisher-Yates shuffle consumes RNG draws
/// as a function of length only — keeping later size draws stream-aligned.
fn point_cost(samples_per_point: usize, seed: u64, idx: u64, n: usize, cdf: &[f64]) -> u64 {
    let mut rng = seeded(child_seed(seed, idx));
    let mut pool: Vec<usize> = (0..n.saturating_sub(1)).collect();
    let mut cost = 0;
    for _ in 0..samples_per_point {
        let u: f64 = rng.gen();
        let j = cdf.partition_point(|&c| c < u).min(n - 1);
        pool.shuffle(&mut rng);
        cost += 1 + u64::from(j > 0);
    }
    cost
}

/// Beta Shapley under the shared driver behind
/// [`beta_shapley()`](crate::run::beta_shapley).
///
/// Each example's sampling stream is `child_seed(seed, i)` and the
/// per-example values are written back by index, so scores are bit-identical
/// for every thread count (and with or without a memo cache).
///
/// A point's random draws never depend on utility values, so a point's
/// `(S, S ∪ i)` coalition pairs are all materialized up front (preserving
/// the exact RNG stream of the legacy one-at-a-time loop) and evaluated in
/// waves of up to [`BatchPolicy::width`](crate::batch::BatchPolicy::width)
/// coalitions. Marginals are folded in sample order, so every float is
/// independent of the batching policy.
///
/// Budgeting is **point-granular**: whole points are scored until a limit
/// trips (one iteration = one point; the utility budget may overshoot by at
/// most the final point's cost, and the wall clock is consulted at point
/// boundaries). Each point's draws come from an independent child-seeded
/// stream, so a resumed run picks up at [`BetaShapleyCheckpoint::cursor`]
/// and is bit-identical to an uninterrupted one.
impl Estimator for BetaShapleyParams {
    const METHOD: &'static str = "beta-shapley";
    type State = BetaShapleyCheckpoint;

    fn config(&self) -> String {
        format!(
            "alpha={};beta={};samples_per_point={}",
            self.alpha, self.beta, self.samples_per_point
        )
    }

    fn steps(&self, n: usize) -> u64 {
        n as u64
    }

    fn check(&self, _train: &Dataset, _valid: &Dataset) -> Result<()> {
        if self.alpha <= 0.0 || self.beta <= 0.0 {
            return Err(ImportanceError::InvalidArgument(
                "alpha and beta must be > 0".into(),
            ));
        }
        if self.samples_per_point == 0 {
            return Err(ImportanceError::InvalidArgument(
                "need at least one sample per point".into(),
            ));
        }
        Ok(())
    }

    fn fresh(&self, seed: u64, n: usize) -> EstimatorCheckpoint {
        EstimatorCheckpoint::BetaShapley(BetaShapleyCheckpoint::fresh(self, seed, n))
    }

    fn validate(&self, state: &BetaShapleyCheckpoint, seed: u64, n: usize) -> Result<()> {
        state.validate_against(self, seed, n)
    }

    fn state(snapshot: &mut EstimatorCheckpoint) -> Option<&mut BetaShapleyCheckpoint> {
        match snapshot {
            EstimatorCheckpoint::BetaShapley(state) => Some(state),
            _ => None,
        }
    }

    fn segment<C: Classifier + Send + Sync>(
        &self,
        seg: &Segment<'_, C>,
        state: &mut BetaShapleyCheckpoint,
        clock: &mut BudgetClock,
    ) -> Result<(Vec<f64>, Option<f64>)> {
        let n = state.n;
        let spp = self.samples_per_point;
        let weights = beta_size_weights(n, self.alpha, self.beta);
        // Cumulative distribution for size sampling.
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cdf.push(acc);
        }
        // Plan the segment deterministically before evaluating anything:
        // walk whole points, charging each point's replayed cost, until a
        // limit trips or the segment ends.
        let start = state.cursor;
        let mut end = start;
        while end < seg.until && clock.exhausted().is_none() {
            clock.record_iteration();
            clock.record_utility_calls(point_cost(spp, seg.seed, end, n, &cdf));
            end += 1;
        }
        if end > start {
            // Per-worker reusable buffers: the candidate pool and the queued
            // coalition pairs (without, with) for one point.
            struct Scratch {
                pool: Vec<usize>,
                pairs: Vec<Vec<usize>>,
                utilities: Vec<f64>,
                chain: CoalitionChain,
            }
            let stop = AtomicBool::new(false);
            let per_point = seg.pool.map_indexed_scratch(
                seg.threads,
                start..end,
                &stop,
                || Scratch {
                    pool: Vec::with_capacity(n),
                    pairs: Vec::new(),
                    utilities: Vec::new(),
                    chain: CoalitionChain::new(),
                },
                |scratch, idx| {
                    let i = idx as usize;
                    let mut rng = seeded(child_seed(seg.seed, idx));
                    scratch.pool.clear();
                    scratch.pool.extend((0..n).filter(|&j| j != i));
                    // Draw every sample first (the RNG stream never depends
                    // on utilities, so this consumes exactly the legacy draw
                    // order), queueing each sample's (S, S ∪ i) pair back to
                    // back.
                    let total_coalitions = 2 * spp;
                    while scratch.pairs.len() < total_coalitions {
                        scratch.pairs.push(Vec::with_capacity(n));
                    }
                    for s in 0..spp {
                        // Sample coalition size j from the Beta weights.
                        let u: f64 = rng.gen();
                        let j = cdf.partition_point(|&c| c < u).min(n - 1);
                        scratch.pool.shuffle(&mut rng);
                        let subset = &scratch.pool[..j.min(n - 1)];
                        let (head, tail) = scratch.pairs.split_at_mut(2 * s + 1);
                        let without = &mut head[2 * s];
                        let with = &mut tail[0];
                        without.clear();
                        without.extend_from_slice(subset);
                        without.sort_unstable();
                        let at = without.partition_point(|&x| x < i);
                        with.clear();
                        with.extend_from_slice(without);
                        with.insert(at, i);
                    }
                    // Evaluate in waves, then fold marginals in sample order.
                    scratch.utilities.clear();
                    for chunk in scratch.pairs[..total_coalitions].chunks(seg.batcher.width()) {
                        scratch
                            .utilities
                            .extend(seg.batcher.eval_batch(&mut scratch.chain, chunk)?);
                    }
                    let mut total = 0.0;
                    for s in 0..spp {
                        total += scratch.utilities[2 * s + 1] - scratch.utilities[2 * s];
                    }
                    Ok::<_, ImportanceError>(total / spp as f64)
                },
            )?;

            for (idx, v) in per_point {
                state.values[idx as usize] = v;
            }
            state.cursor = end;
            state.utility_calls = clock.utility_calls();
        }
        Ok((state.values.clone(), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::common::ImportanceScores;
    use crate::run::{beta_shapley, ImportanceOutcome, ImportanceRun};
    use nde_ml::models::knn::KnnClassifier;
    use nde_robust::par::MemoCache;
    use nde_robust::RunBudget;

    // The behavioral suite pins the estimator through the public entry
    // point, one coalition per wave unless a test sets another batch
    // policy. The comparisons against a model without a batched scorer
    // live in `tests/tests/batched_utility.rs`.
    fn run(seed: u64, threads: usize) -> ImportanceRun<'static> {
        ImportanceRun::new(seed)
            .with_threads(threads)
            .with_batch(BatchPolicy::Grouped { size: 1 })
    }

    fn spp(samples_per_point: usize) -> BetaShapleyParams {
        BetaShapleyParams {
            samples_per_point,
            ..Default::default()
        }
    }

    fn estimate(
        run: &ImportanceRun,
        train: &Dataset,
        valid: &Dataset,
        params: &BetaShapleyParams,
    ) -> ImportanceOutcome {
        beta_shapley(run, &KnnClassifier::new(1), train, valid, params).unwrap()
    }

    fn scores(
        run: &ImportanceRun,
        train: &Dataset,
        valid: &Dataset,
        params: &BetaShapleyParams,
    ) -> ImportanceScores {
        estimate(run, train, valid, params).scores
    }

    fn state(out: &ImportanceOutcome) -> &BetaShapleyCheckpoint {
        match &out.report.snapshot {
            Some(EstimatorCheckpoint::BetaShapley(state)) => state,
            other => panic!("expected a Beta Shapley snapshot, got {other:?}"),
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
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-9);
        assert!(ln_gamma(2.0).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn weights_normalize_and_skew_small_with_large_beta() {
        let w = beta_size_weights(20, 1.0, 16.0);
        assert_eq!(w.len(), 20);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass concentrates on small coalition sizes.
        let small: f64 = w[..5].iter().sum();
        assert!(small > 0.8, "small mass {small}");
        // Beta(1,1) is uniform over sizes.
        let uniform = beta_size_weights(10, 1.0, 1.0);
        for v in &uniform {
            assert!((v - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn mislabelled_point_detected() {
        let (train, valid) = toy();
        let scores = scores(&run(2, 1), &train, &valid, &spp(80));
        assert_eq!(scores.bottom_k(1), vec![4]);
    }

    #[test]
    fn budgeted_cut_and_resume_is_bit_identical() {
        let (train, valid) = toy();
        let run = || ImportanceRun::new(13).with_threads(2);
        let full = scores(&run(), &train, &valid, &spp(20));
        // Trip the iteration (= point) budget mid-run, then resume.
        let budget = RunBudget::unlimited().with_max_iterations(2);
        let cut = estimate(&run().with_budget(budget), &train, &valid, &spp(20));
        assert!(!cut.report.diagnostics.as_ref().unwrap().completed());
        assert_eq!(state(&cut).cursor, 2);
        assert_eq!(cut.scores.values[3], 0.0, "unscored points stay zero");
        let snapshot = cut.report.snapshot.clone().unwrap();
        let resumed = estimate(&run().with_resume(&snapshot), &train, &valid, &spp(20));
        assert!(resumed.report.diagnostics.as_ref().unwrap().completed());
        assert_eq!(state(&resumed).cursor, 5);
        for (a, b) in full.values.iter().zip(&resumed.scores.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A checkpoint from a differently-parameterized run is refused.
        let other = BetaShapleyParams {
            beta: 8.0,
            ..spp(20)
        };
        assert!(beta_shapley(
            &run().with_resume(&snapshot),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &other
        )
        .is_err());
    }

    #[test]
    fn deterministic_and_validated() {
        let (train, valid) = toy();
        let a = scores(&run(3, 1), &train, &valid, &spp(20));
        let b = scores(&run(3, 1), &train, &valid, &spp(20));
        assert_eq!(a, b);
        // Thread-count invariance and cache transparency.
        let cache = MemoCache::new();
        let c = scores(&run(3, 4).with_cache(&cache), &train, &valid, &spp(20));
        assert_eq!(a, c);
        assert!(cache.hits() > 0);
        let knn = KnnClassifier::new(1);
        let bad = BetaShapleyParams {
            alpha: 0.0,
            ..Default::default()
        };
        assert!(beta_shapley(&run(0, 1), &knn, &train, &valid, &bad).is_err());
        assert!(beta_shapley(&run(0, 1), &knn, &train, &valid, &spp(0)).is_err());
    }
}
