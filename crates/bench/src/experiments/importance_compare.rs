//! E5 — §2.1 survey claim: how well do the importance methods *detect*
//! injected label errors?
//!
//! Metric: precision@k (k = number of injected errors) of the bottom-k
//! ranking, per method, on the same corrupted blob dataset. Expected shape:
//! every importance method ≫ random; KNN-Shapley and confident learning are
//! among the strongest; Beta-Shapley (small-coalition weighting) beats plain
//! Monte-Carlo Shapley at equal budget.

use nde::cleaning::strategy::Strategy;
use nde::data::generate::blobs::two_gaussians;
use nde::importance::aum::AumConfig;
use nde::importance::confident::ConfidentConfig;
use nde::importance::influence::InfluenceConfig;
use nde::importance::{BanzhafParams, BetaShapleyParams, TmcParams};
use nde::ml::dataset::Dataset;
use nde::NdeError;

/// Detection quality of one method.
#[derive(Debug, Clone)]
pub struct MethodScore {
    /// Method name.
    pub method: String,
    /// Precision@k with k = number of injected errors.
    pub precision_at_k: f64,
}

nde_data::json_struct!(MethodScore {
    method,
    precision_at_k
});

/// Report for E5.
#[derive(Debug, Clone)]
pub struct ImportanceCompareReport {
    /// Number of training points.
    pub n_train: usize,
    /// Number of injected label errors.
    pub n_errors: usize,
    /// Per-method detection quality, in the evaluation order.
    pub methods: Vec<MethodScore>,
}

nde_data::json_struct!(ImportanceCompareReport {
    n_train,
    n_errors,
    methods
});

/// The method lineup evaluated by E5.
pub fn lineup() -> Vec<Strategy> {
    vec![
        Strategy::Random { seed: 77 },
        Strategy::Loo,
        Strategy::KnnShapley { k: 1 },
        Strategy::TmcShapley {
            seed: 1,
            params: TmcParams {
                permutations: 60,
                truncation_tolerance: 0.01,
            },
        },
        Strategy::Banzhaf {
            seed: 2,
            params: BanzhafParams { samples: 120 },
        },
        Strategy::BetaShapley {
            seed: 3,
            params: BetaShapleyParams {
                samples_per_point: 12,
                ..Default::default()
            },
        },
        Strategy::Aum(AumConfig::default()),
        Strategy::ConfidentLearning(ConfidentConfig::default()),
        Strategy::Influence(InfluenceConfig::default()),
    ]
}

/// Build the corrupted workload: Gaussian blobs with `error_fraction`
/// flipped labels. Returns `(train, valid, flipped_indices)`.
pub fn workload(
    n_train: usize,
    n_valid: usize,
    error_fraction: f64,
    seed: u64,
) -> (Dataset, Dataset, Vec<usize>) {
    let nd = two_gaussians(n_train + n_valid, 4, 4.0, seed);
    let all = Dataset::try_from(&nd).expect("blob data is well-formed");
    let mut train = all.subset(&(0..n_train).collect::<Vec<_>>());
    let valid = all.subset(&(n_train..n_train + n_valid).collect::<Vec<_>>());
    let k = (n_train as f64 * error_fraction).round() as usize;
    let mut rng = nde::data::rng::seeded(seed ^ 0xe5);
    let flipped = nde::data::rng::sample_indices(n_train, k, &mut rng);
    for &f in &flipped {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid, flipped)
}

/// Run E5.
pub fn run(
    n_train: usize,
    error_fraction: f64,
    seed: u64,
) -> Result<ImportanceCompareReport, NdeError> {
    let (train, valid, flipped) = workload(n_train, n_train / 3, error_fraction, seed);
    let truth: std::collections::HashSet<usize> = flipped.iter().copied().collect();
    let k = flipped.len();
    let mut methods = Vec::new();
    for strategy in lineup() {
        let order = strategy.rank(&train, &valid)?;
        let hits = order[..k].iter().filter(|i| truth.contains(i)).count();
        methods.push(MethodScore {
            method: strategy.name().to_string(),
            precision_at_k: hits as f64 / k.max(1) as f64,
        });
    }
    Ok(ImportanceCompareReport {
        n_train,
        n_errors: k,
        methods,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_methods_beat_random() {
        let r = run(120, 0.1, 11).unwrap();
        assert_eq!(r.n_errors, 12);
        let get = |name: &str| {
            r.methods
                .iter()
                .find(|m| m.method == name)
                .map(|m| m.precision_at_k)
                .unwrap()
        };
        let random = get("random");
        for name in ["knn-shapley", "confident-learning", "aum"] {
            assert!(
                get(name) > random,
                "{name} ({}) should beat random ({random})",
                get(name)
            );
        }
        // LOO is known to be noisy under redundancy (many zero marginals with
        // a 1-NN utility) — the survey's own motivation for Shapley values.
        // It must still not be *worse* than random.
        assert!(
            get("loo") >= random,
            "loo ({}) below random ({random})",
            get("loo")
        );
        assert!(get("knn-shapley") >= 0.5);
    }
}
