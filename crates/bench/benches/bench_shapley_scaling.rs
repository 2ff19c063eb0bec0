//! Bench for E6: exact KNN-Shapley vs TMC-Shapley vs LOO at the same n —
//! the §2.1 "overcoming computational challenges" comparison. Threads,
//! batching, the memo cache and budgets are measured end to end by
//! `wfbench identify`.

use nde::data::generate::blobs::two_gaussians;
use nde::importance::loo::loo_importance;
use nde::importance::{knn_shapley, tmc_shapley, ImportanceRun, TmcParams};
use nde::ml::dataset::Dataset;
use nde::ml::models::knn::KnnClassifier;
use nde_bench::timing::bench;

fn main() {
    for n in [50usize, 100, 200] {
        let nd = two_gaussians(n + 40, 4, 4.0, 5);
        let all = Dataset::try_from(&nd).expect("blob data");
        let train = all.subset(&(0..n).collect::<Vec<_>>());
        let valid = all.subset(&(n..n + 40).collect::<Vec<_>>());

        bench(&format!("shapley_scaling/knn_shapley_exact/{n}"), || {
            knn_shapley(&ImportanceRun::new(1), &train, &valid, 1).expect("scores")
        });
        bench(&format!("shapley_scaling/loo/{n}"), || {
            loo_importance(&KnnClassifier::new(1), &train, &valid).expect("scores")
        });
        let params = TmcParams {
            permutations: 10,
            truncation_tolerance: 0.01,
        };
        bench(&format!("shapley_scaling/tmc_shapley_10perm/{n}"), || {
            tmc_shapley(
                &ImportanceRun::new(1),
                &KnnClassifier::new(1),
                &train,
                &valid,
                &params,
            )
            .expect("scores")
        });
    }
}
