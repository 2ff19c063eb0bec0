//! E7 — §3.2: cleaning-budget curves per strategy, and the challenge
//! leaderboard.
//!
//! Expected shape: importance-guided strategies dominate random cleaning at
//! every budget; all strategies converge to the clean-data accuracy once the
//! whole dirty set is repaired.

use crate::experiments::importance_compare::workload;
use nde::cleaning::challenge::DebugChallenge;
use nde::cleaning::iterative::prioritized_cleaning;
use nde::cleaning::oracle::LabelOracle;
use nde::cleaning::strategy::Strategy;
use nde::importance::aum::AumConfig;
use nde::importance::confident::ConfidentConfig;
use nde::ml::models::knn::KnnClassifier;
use nde::NdeError;

/// One strategy's cleaning curve.
#[derive(Debug, Clone)]
pub struct CleaningCurve {
    /// Strategy name.
    pub strategy: String,
    /// Cumulative tuples cleaned at each step (starting at 0).
    pub cleaned: Vec<usize>,
    /// Validation accuracy at each step.
    pub accuracy: Vec<f64>,
}

nde_data::json_struct!(CleaningCurve {
    strategy,
    cleaned,
    accuracy
});

/// Report for E7.
#[derive(Debug, Clone)]
pub struct CleaningReport {
    /// Curves per strategy.
    pub curves: Vec<CleaningCurve>,
    /// Rendered challenge leaderboard (hidden-test scores).
    pub leaderboard: String,
}

nde_data::json_struct!(CleaningReport {
    curves,
    leaderboard
});

/// The strategies compared by E7.
pub fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Random { seed: 5 },
        Strategy::KnnShapley { k: 3 },
        Strategy::Aum(AumConfig::default()),
        Strategy::ConfidentLearning(ConfidentConfig::default()),
    ]
}

/// Run E7: cleaning curves on a corrupted blob workload plus a three-way
/// challenge over the hidden test set.
pub fn run(n_train: usize, error_fraction: f64, seed: u64) -> Result<CleaningReport, NdeError> {
    let (train, valid, flipped) = workload(n_train, n_train / 3, error_fraction, seed);
    let mut truth = train.y.clone();
    for &f in &flipped {
        truth[f] = 1 - truth[f];
    }
    let oracle = LabelOracle::new(truth.clone());
    let template = KnnClassifier::new(3);
    let batch = (n_train / 15).max(1);

    let mut curves = Vec::new();
    for strategy in strategies() {
        let run = prioritized_cleaning(
            &template, &train, &oracle, &valid, &strategy, batch, 5, false,
        )?;
        curves.push(CleaningCurve {
            strategy: run.strategy.to_string(),
            cleaned: run.cleaned,
            accuracy: run.accuracy,
        });
    }

    // Challenge: same workload, hidden test = a fresh blob sample.
    let (test, _, _) = workload(n_train / 2, 10, 0.0, seed ^ 0xc7a);
    let mut challenge = DebugChallenge::new(
        template,
        train.clone(),
        LabelOracle::new(truth),
        test,
        batch * 3,
    )
    .map_err(NdeError::from)?;
    for strategy in strategies() {
        let order = strategy.rank(challenge.dirty_data(), &valid)?;
        let picks: Vec<usize> = order.into_iter().take(challenge.budget()).collect();
        challenge.submit(strategy.name(), &picks)?;
    }
    Ok(CleaningReport {
        curves,
        leaderboard: challenge.leaderboard().render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapley_curve_dominates_random_midway() {
        let r = run(150, 0.15, 17).unwrap();
        let curve = |name: &str| {
            r.curves
                .iter()
                .find(|c| c.strategy == name)
                .unwrap()
                .accuracy
                .clone()
        };
        let shapley = curve("knn-shapley");
        let random = curve("random");
        // At the mid-budget point, importance-guided cleaning is ahead (or
        // tied when random gets lucky).
        let mid = shapley.len() / 2;
        assert!(
            shapley[mid] >= random[mid] - 0.02,
            "shapley {shapley:?} vs random {random:?}"
        );
        // Final accuracies improve on the dirty baseline.
        assert!(shapley.last().unwrap() >= &shapley[0]);
        assert!(r.leaderboard.contains("knn-shapley"));
    }
}
