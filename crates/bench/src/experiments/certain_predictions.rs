//! E8 — §2.3 (Karlaš et al. VLDB'20): certain-prediction coverage of a
//! 1-NN classifier as training-feature missingness grows.
//!
//! Expected shape: coverage (fraction of test queries whose prediction is
//! identical in every possible world) decreases monotonically with the
//! missing rate, while accuracy *on the certain subset* stays high.

use nde::data::generate::blobs::two_gaussians;
use nde::data::rng::{sample_indices, seeded};
use nde::ml::dataset::Dataset;
use nde::uncertain::certain_knn::CertainKnnIndex;
use nde::uncertain::symbolic::{column_bounds_from_observed, SymbolicMatrix};
use nde::NdeError;
use nde_data::rng::Rng;

/// One point of the coverage curve.
#[derive(Debug, Clone)]
pub struct CoveragePoint {
    /// Fraction of training cells made missing.
    pub missing_fraction: f64,
    /// Certain-prediction coverage on the test queries.
    pub coverage: f64,
    /// Accuracy of the certain predictions (against true labels).
    pub certain_accuracy: f64,
}

nde_data::json_struct!(CoveragePoint {
    missing_fraction,
    coverage,
    certain_accuracy
});

/// Report for E8.
#[derive(Debug, Clone)]
pub struct CertainPredictionReport {
    /// The curve, in sweep order.
    pub points: Vec<CoveragePoint>,
}

nde_data::json_struct!(CertainPredictionReport { points });

/// Run E8 over the given missing fractions.
pub fn run(
    n_train: usize,
    n_test: usize,
    fractions: &[f64],
    seed: u64,
) -> Result<CertainPredictionReport, NdeError> {
    let nd = two_gaussians(n_train + n_test, 3, 4.0, seed);
    let all = Dataset::try_from(&nd)?;
    let train = all.subset(&(0..n_train).collect::<Vec<_>>());
    let test = all.subset(&(n_train..n_train + n_test).collect::<Vec<_>>());
    let bounds = column_bounds_from_observed(&train.x);
    let d = train.dim();

    // Nested missing-cell sets so the sweep is monotone by construction.
    let total_cells = n_train * d;
    let max_missing =
        (fractions.iter().fold(0.0f64, |a, &b| a.max(b)) * total_cells as f64).round() as usize;
    let mut rng = seeded(seed ^ 0xe8);
    let all_missing: Vec<(usize, usize)> = sample_indices(total_cells, max_missing, &mut rng)
        .into_iter()
        .map(|flat| (flat / d, flat % d))
        .collect();

    let mut points = Vec::with_capacity(fractions.len());
    for &frac in fractions {
        let k = (frac * total_cells as f64).round() as usize;
        let missing = &all_missing[..k.min(all_missing.len())];
        let sym = SymbolicMatrix::from_matrix_with_missing(&train.x, missing, &bounds)?;
        let (coverage, outcomes) = CertainKnnIndex::new(&sym, &train.y)?.coverage(&test.x, 1)?;
        let mut certain_correct = 0usize;
        let mut certain_total = 0usize;
        for (o, &truth) in outcomes.iter().zip(&test.y) {
            if o.is_certain() {
                certain_total += 1;
                if o.label() == truth {
                    certain_correct += 1;
                }
            }
        }
        points.push(CoveragePoint {
            missing_fraction: frac,
            coverage,
            certain_accuracy: if certain_total > 0 {
                certain_correct as f64 / certain_total as f64
            } else {
                0.0
            },
        });
    }
    // A world-sampling check is done in tests; a wide missing-cell budget is
    // deliberately allowed to drive coverage to 0 at the high end.
    Ok(CertainPredictionReport { points })
}

/// Sanity cross-check used by tests and the binary: a certain verdict must
/// agree with predictions in randomly sampled worlds.
pub fn sampled_world_agreement(
    n_train: usize,
    missing_fraction: f64,
    seed: u64,
) -> Result<f64, NdeError> {
    let nd = two_gaussians(n_train + 20, 3, 4.0, seed);
    let all = Dataset::try_from(&nd)?;
    let train = all.subset(&(0..n_train).collect::<Vec<_>>());
    let test = all.subset(&(n_train..n_train + 20).collect::<Vec<_>>());
    let bounds = column_bounds_from_observed(&train.x);
    let d = train.dim();
    let total = n_train * d;
    let mut rng = seeded(seed ^ 0xa9);
    let missing: Vec<(usize, usize)> = sample_indices(
        total,
        (missing_fraction * total as f64).round() as usize,
        &mut rng,
    )
    .into_iter()
    .map(|flat| (flat / d, flat % d))
    .collect();
    let sym = SymbolicMatrix::from_matrix_with_missing(&train.x, &missing, &bounds)?;
    let (_, outcomes) = CertainKnnIndex::new(&sym, &train.y)?.coverage(&test.x, 1)?;

    // For each certain test point, sample imputations and check agreement.
    let mut agreements = 0usize;
    let mut checks = 0usize;
    for _ in 0..5 {
        let mut world = train.x.clone();
        for &(r, c) in &missing {
            let b = bounds[c];
            world.set(r, c, b.lo + rng.gen::<f64>() * b.width());
        }
        let world_ds = Dataset::new(world, train.y.clone(), 2)?;
        let mut knn = nde::ml::models::knn::KnnClassifier::new(1);
        use nde::ml::model::Classifier;
        knn.fit(&world_ds)?;
        for (t, o) in outcomes.iter().enumerate() {
            if o.is_certain() {
                checks += 1;
                if knn.predict_one(test.x.row(t)) == o.label() {
                    agreements += 1;
                }
            }
        }
    }
    Ok(if checks == 0 {
        1.0
    } else {
        agreements as f64 / checks as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_decreases_and_certain_subset_is_accurate() {
        let r = run(120, 60, &[0.0, 0.05, 0.15, 0.3], 19).unwrap();
        assert_eq!(r.points.len(), 4);
        assert!(r.points[0].coverage > 0.95, "{:?}", r.points);
        for w in r.points.windows(2) {
            assert!(
                w[1].coverage <= w[0].coverage + 1e-9,
                "coverage not monotone: {:?}",
                r.points
            );
        }
        assert!(r.points[3].coverage < r.points[0].coverage);
        // Certain predictions on clean blobs should be highly accurate.
        assert!(r.points[0].certain_accuracy > 0.9);
    }

    #[test]
    fn certain_verdicts_agree_with_sampled_worlds() {
        let agreement = sampled_world_agreement(80, 0.1, 20).unwrap();
        assert!(
            (agreement - 1.0).abs() < 1e-12,
            "certain predictions disagreed with a sampled world: {agreement}"
        );
    }
}
