//! E6 — §2.1 "Overcoming Computational Challenges": runtime scaling of
//! Shapley computation, and Monte-Carlo error vs permutation budget.
//!
//! Expected shape: exact KNN-Shapley is orders of magnitude faster than
//! TMC-Shapley at the same `n` (closed form vs `O(permutations · n)`
//! retrainings), and the TMC estimate converges toward the exact KNN values
//! as the permutation budget grows.

use nde::data::generate::blobs::two_gaussians;
use nde::importance::loo::loo_importance;
use nde::importance::{knn_shapley, tmc_shapley, ImportanceRun, TmcParams};
use nde::ml::dataset::Dataset;
use nde::ml::models::knn::KnnClassifier;
use nde::NdeError;
use std::time::Instant;

/// Timings at one training-set size.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Training-set size.
    pub n: usize,
    /// Exact KNN-Shapley wall time (seconds).
    pub knn_shapley_secs: f64,
    /// Leave-one-out wall time (seconds).
    pub loo_secs: f64,
    /// TMC-Shapley wall time (seconds), with the configured budget.
    pub tmc_secs: f64,
    /// Rank correlation between TMC and exact KNN-Shapley values.
    pub tmc_vs_exact_rank_corr: f64,
}

nde_data::json_struct!(ScalingPoint {
    n,
    knn_shapley_secs,
    loo_secs,
    tmc_secs,
    tmc_vs_exact_rank_corr
});

/// Report for E6.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// TMC permutation budget used at every size.
    pub permutations: usize,
    /// One point per swept size.
    pub points: Vec<ScalingPoint>,
}

nde_data::json_struct!(ScalingReport {
    permutations,
    points
});

/// Workload with 10% label flips so importance values have real spread —
/// on perfectly clean data all values are ≈0 and rankings are pure noise.
fn blobs(n: usize, seed: u64) -> (Dataset, Dataset) {
    let nd = two_gaussians(n + 50, 4, 4.0, seed);
    let all = Dataset::try_from(&nd).expect("blob data is well-formed");
    let mut train = all.subset(&(0..n).collect::<Vec<_>>());
    let valid = all.subset(&(n..n + 50).collect::<Vec<_>>());
    let mut rng = nde::data::rng::seeded(seed ^ 0xf11b);
    for f in nde::data::rng::sample_indices(n, n / 10, &mut rng) {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid)
}

/// Run E6 over the given training sizes.
pub fn run(sizes: &[usize], permutations: usize, seed: u64) -> Result<ScalingReport, NdeError> {
    let mut points = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let (train, valid) = blobs(n, seed);

        let t0 = Instant::now();
        let exact = knn_shapley(&ImportanceRun::new(seed), &train, &valid, 1)?.scores;
        let knn_shapley_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _loo = loo_importance(&KnnClassifier::new(1), &train, &valid)?;
        let loo_secs = t0.elapsed().as_secs_f64();

        let params = TmcParams {
            permutations,
            truncation_tolerance: 0.01,
        };
        let t0 = Instant::now();
        let tmc = tmc_shapley(
            &ImportanceRun::new(seed),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &params,
        )?
        .scores;
        let tmc_secs = t0.elapsed().as_secs_f64();

        points.push(ScalingPoint {
            n,
            knn_shapley_secs,
            loo_secs,
            tmc_secs,
            tmc_vs_exact_rank_corr: exact.rank_correlation(&tmc),
        });
    }
    Ok(ScalingReport {
        permutations,
        points,
    })
}

/// Monte-Carlo convergence: self-consistency of TMC-Shapley as the budget
/// grows — the rank correlation between two *independent* TMC runs at the
/// same budget. Low budgets give noisy, poorly reproducible rankings; the
/// correlation approaches 1 as the estimator converges.
pub fn convergence(n: usize, budgets: &[usize], seed: u64) -> Result<Vec<(usize, f64)>, NdeError> {
    let (train, valid) = blobs(n, seed);
    let mut out = Vec::with_capacity(budgets.len());
    for &b in budgets {
        let params = TmcParams {
            permutations: b,
            truncation_tolerance: 0.0,
        };
        let knn = KnnClassifier::new(1);
        let a = tmc_shapley(&ImportanceRun::new(seed), &knn, &train, &valid, &params)?.scores;
        let c = tmc_shapley(
            &ImportanceRun::new(seed ^ 0xdead),
            &knn,
            &train,
            &valid,
            &params,
        )?
        .scores;
        out.push((b, a.rank_correlation(&c)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_shapley_is_much_faster_than_tmc() {
        let r = run(&[80], 30, 13).unwrap();
        let p = &r.points[0];
        // Debug builds compress the gap; release shows orders of magnitude.
        assert!(
            p.knn_shapley_secs * 2.0 < p.tmc_secs,
            "knn {} vs tmc {}",
            p.knn_shapley_secs,
            p.tmc_secs
        );
        assert!(p.tmc_vs_exact_rank_corr > 0.1, "{p:?}");
    }

    #[test]
    fn convergence_improves_with_budget() {
        let curve = convergence(40, &[5, 120], 14).unwrap();
        assert_eq!(curve.len(), 2);
        assert!(
            curve[1].1 > curve[0].1,
            "self-consistency should grow with budget: {curve:?}"
        );
        // Absolute level stays modest at this tiny scale: the many clean,
        // near-zero-valued points keep their relative order noisy. The
        // *growth* with budget is the claim under test.
        assert!(curve[1].1 > 0.35, "{curve:?}");
    }
}
