//! Cleaning strategies: who gets cleaned first?
//!
//! Each strategy produces a *cleaning order* over the training examples
//! (most suspicious first). Importance-based strategies are the tutorial's
//! core message: cleaning the lowest-valued tuples first recovers model
//! quality far faster than random cleaning (Fig. 2, §3.2).

use crate::Result;
use nde_data::rng::{permutation, seeded};
use nde_importance::aum::{aum_importance, AumConfig};
use nde_importance::confident::{confident_learning, ConfidentConfig};
use nde_importance::influence::{influence_importance, InfluenceConfig};
use nde_importance::loo::loo_importance;
use nde_importance::{
    banzhaf, beta_shapley, knn_shapley, tmc_shapley, BanzhafParams, BetaShapleyParams,
    ImportanceRun, TmcParams,
};
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::KnnClassifier;
use nde_ml::models::naive_bayes::GaussianNb;

/// A prioritized-cleaning strategy.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Uniformly random order (the baseline every importance method must beat).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Exact KNN-Shapley with the given neighborhood size.
    KnnShapley {
        /// Number of neighbors.
        k: usize,
    },
    /// Leave-one-out with a 1-NN utility model.
    Loo,
    /// Truncated Monte-Carlo Shapley with a 1-NN utility model.
    TmcShapley {
        /// Base seed of the run.
        seed: u64,
        /// Estimator parameters.
        params: TmcParams,
    },
    /// Data Banzhaf (MSR) with a 1-NN utility model.
    Banzhaf {
        /// Base seed of the run.
        seed: u64,
        /// Estimator parameters.
        params: BanzhafParams,
    },
    /// Beta Shapley with a 1-NN utility model.
    BetaShapley {
        /// Base seed of the run.
        seed: u64,
        /// Estimator parameters.
        params: BetaShapleyParams,
    },
    /// Area-under-the-margin (logistic regression margins).
    Aum(AumConfig),
    /// Confident learning with a Gaussian naive Bayes probe model.
    ConfidentLearning(ConfidentConfig),
    /// Influence functions (binary logistic regression).
    Influence(InfluenceConfig),
}

impl Strategy {
    /// Short display name for reports and leaderboards.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Random { .. } => "random",
            Strategy::KnnShapley { .. } => "knn-shapley",
            Strategy::Loo => "loo",
            Strategy::TmcShapley { .. } => "tmc-shapley",
            Strategy::Banzhaf { .. } => "banzhaf",
            Strategy::BetaShapley { .. } => "beta-shapley",
            Strategy::Aum(_) => "aum",
            Strategy::ConfidentLearning(_) => "confident-learning",
            Strategy::Influence(_) => "influence",
        }
    }

    /// Rank the training examples: indices in cleaning order (clean first).
    pub fn rank(&self, train: &Dataset, valid: &Dataset) -> Result<Vec<usize>> {
        let order = match self {
            Strategy::Random { seed } => {
                let mut rng = seeded(*seed);
                permutation(train.len(), &mut rng)
            }
            Strategy::KnnShapley { k } => knn_shapley(&ImportanceRun::new(0), train, valid, *k)?
                .scores
                .ascending_indices(),
            Strategy::Loo => {
                loo_importance(&KnnClassifier::new(1), train, valid)?.ascending_indices()
            }
            Strategy::TmcShapley { seed, params } => tmc_shapley(
                &ImportanceRun::new(*seed),
                &KnnClassifier::new(1),
                train,
                valid,
                params,
            )?
            .scores
            .ascending_indices(),
            Strategy::Banzhaf { seed, params } => banzhaf(
                &ImportanceRun::new(*seed),
                &KnnClassifier::new(1),
                train,
                valid,
                params,
            )?
            .scores
            .ascending_indices(),
            Strategy::BetaShapley { seed, params } => beta_shapley(
                &ImportanceRun::new(*seed),
                &KnnClassifier::new(1),
                train,
                valid,
                params,
            )?
            .scores
            .ascending_indices(),
            Strategy::Aum(cfg) => aum_importance(train, cfg)?.ascending_indices(),
            Strategy::ConfidentLearning(cfg) => confident_learning(&GaussianNb::new(), train, cfg)?
                .scores
                .ascending_indices(),
            Strategy::Influence(cfg) => {
                influence_importance(train, valid, cfg)?.ascending_indices()
            }
        };
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;

    fn dirty_blobs() -> (Dataset, Dataset, Vec<usize>) {
        let nd = two_gaussians(160, 3, 5.0, 31);
        let all = Dataset::try_from(&nd).unwrap();
        let mut train = all.subset(&(0..120).collect::<Vec<_>>());
        let valid = all.subset(&(120..160).collect::<Vec<_>>());
        let flips = vec![3, 19, 44, 61, 87, 102];
        for &f in &flips {
            train.y[f] = 1 - train.y[f];
        }
        (train, valid, flips)
    }

    #[test]
    fn every_strategy_returns_a_permutation() {
        let (train, valid, _) = dirty_blobs();
        let strategies = vec![
            Strategy::Random { seed: 1 },
            Strategy::KnnShapley { k: 1 },
            Strategy::Loo,
            Strategy::Aum(AumConfig::default()),
            Strategy::ConfidentLearning(ConfidentConfig::default()),
            Strategy::Influence(InfluenceConfig::default()),
            Strategy::Banzhaf {
                seed: 2,
                params: BanzhafParams { samples: 50 },
            },
            Strategy::BetaShapley {
                seed: 0,
                params: BetaShapleyParams {
                    samples_per_point: 5,
                    ..Default::default()
                },
            },
            Strategy::TmcShapley {
                seed: 0,
                params: TmcParams {
                    permutations: 10,
                    ..Default::default()
                },
            },
        ];
        for s in strategies {
            let order = s.rank(&train, &valid).unwrap();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..train.len()).collect::<Vec<_>>(), "{}", s.name());
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn knn_shapley_finds_flips_faster_than_random() {
        let (train, valid, flips) = dirty_blobs();
        let hits_in_prefix =
            |order: &[usize], k: usize| order[..k].iter().filter(|i| flips.contains(i)).count();
        let shapley_order = Strategy::KnnShapley { k: 1 }.rank(&train, &valid).unwrap();
        // Average random performance over several seeds.
        let mut random_hits = 0;
        for seed in 0..5 {
            let order = Strategy::Random { seed }.rank(&train, &valid).unwrap();
            random_hits += hits_in_prefix(&order, 12);
        }
        let shapley_hits = hits_in_prefix(&shapley_order, 12);
        assert!(
            shapley_hits * 5 > random_hits,
            "shapley {shapley_hits} vs random {random_hits}/5"
        );
        assert!(
            shapley_hits >= 4,
            "shapley found only {shapley_hits}/6 flips"
        );
    }

    #[test]
    fn random_is_deterministic_by_seed() {
        let (train, valid, _) = dirty_blobs();
        let a = Strategy::Random { seed: 9 }.rank(&train, &valid).unwrap();
        let b = Strategy::Random { seed: 9 }.rank(&train, &valid).unwrap();
        let c = Strategy::Random { seed: 10 }.rank(&train, &valid).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
