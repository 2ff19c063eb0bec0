//! The batched utility engine's cross-crate contract: batching is a
//! purely *physical* optimization. For every estimator, thread count,
//! budget and [`BatchPolicy`] wave width, a run through the KNN batched
//! scorer must produce bit-identical scores, reports and checkpoints to a
//! run of [`RefitKnn`], which offers no scorer and so retrains per
//! coalition (at one coalition per wave, the unbatched schedule) —
//! including when a budget trips mid-wave and when a run resumes from a
//! mid-permutation checkpoint.

use nde_data::generate::blobs::two_gaussians;
use nde_data::rng::{child_seed, seeded, Rng};
use nde_importance::batch::UtilityBatcher;
use nde_importance::{
    banzhaf, beta_shapley, coalition_utility, tmc_shapley, BanzhafParams, BatchPolicy,
    BetaShapleyParams, EstimatorCheckpoint, ImportanceOutcome, ImportanceRun, McCheckpoint,
    TmcParams,
};
use nde_ml::batch::CoalitionChain;
use nde_ml::dataset::Dataset;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::par::MemoCache;
use nde_robust::RunBudget;
use nde_tests::RefitKnn;

/// One coalition per wave: with [`RefitKnn`], the unbatched reference.
const UNBATCHED: BatchPolicy = BatchPolicy::Grouped { size: 1 };

fn workload(n: usize, n_valid: usize, seed: u64) -> (Dataset, Dataset) {
    let nd = two_gaussians(n + n_valid, 3, 4.0, seed);
    let all = Dataset::try_from(&nd).expect("blob data is well-formed");
    let mut train = all.subset(&(0..n).collect::<Vec<_>>());
    let valid = all.subset(&(n..n + n_valid).collect::<Vec<_>>());
    for f in [1, 6, 13] {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid)
}

/// Five one-dimensional training points, one of them mislabelled.
fn toy() -> (Dataset, Dataset) {
    let train = Dataset::from_rows(
        vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2], vec![0.1]],
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

fn tmc_params() -> TmcParams {
    TmcParams {
        permutations: 10,
        truncation_tolerance: 0.01,
    }
}

/// TMC-Shapley of a 1-NN under `run`: through the KNN scorer, or with
/// `refit` through [`RefitKnn`]'s per-coalition fits.
fn tmc(
    run: &ImportanceRun,
    refit: bool,
    train: &Dataset,
    valid: &Dataset,
    params: &TmcParams,
) -> ImportanceOutcome {
    let knn = KnnClassifier::new(1);
    if refit {
        tmc_shapley(run, &RefitKnn(knn), train, valid, params)
    } else {
        tmc_shapley(run, &knn, train, valid, params)
    }
    .unwrap()
}

fn tmc_state(out: &ImportanceOutcome) -> &McCheckpoint {
    match &out.report.snapshot {
        Some(EstimatorCheckpoint::Tmc(state)) => state,
        other => panic!("expected a TMC snapshot, got {other:?}"),
    }
}

#[test]
fn batched_tmc_is_bit_identical_across_threads_without_budget() {
    let (train, valid) = workload(22, 12, 9);
    let baseline = tmc(
        &ImportanceRun::new(5).with_batch(UNBATCHED),
        true,
        &train,
        &valid,
        &tmc_params(),
    );
    assert_eq!(
        baseline.report.batches_formed, 0,
        "a model without a scorer forms no batch"
    );
    for threads in [1, 4] {
        for size in [1, 4, 32] {
            let batched = tmc(
                &ImportanceRun::new(5)
                    .with_threads(threads)
                    .with_batch(BatchPolicy::Grouped { size }),
                false,
                &train,
                &valid,
                &tmc_params(),
            );
            assert_eq!(
                baseline.scores, batched.scores,
                "threads={threads} size={size}"
            );
            assert_eq!(baseline.report.utility_calls, batched.report.utility_calls);
            assert!(batched.report.batched_evals > 0, "scorer must be used");
            assert!(
                batched.report.batches_formed > 0,
                "threads={threads} size={size}"
            );
        }
    }
}

#[test]
fn batched_tmc_trips_budget_at_the_same_point_across_threads() {
    let (train, valid) = workload(22, 12, 9);
    // Trips mid-permutation, so the checkpoint carries in-flight state.
    let budget = RunBudget::unlimited().with_max_utility_calls(75);
    let baseline = tmc(
        &ImportanceRun::new(5)
            .with_budget(budget.clone())
            .with_batch(UNBATCHED),
        true,
        &train,
        &valid,
        &tmc_params(),
    );
    assert!(!baseline.report.diagnostics.as_ref().unwrap().completed());
    let base_ckpt = baseline.report.snapshot.as_ref().unwrap();
    for threads in [1, 4] {
        let batched = tmc(
            &ImportanceRun::new(5)
                .with_threads(threads)
                .with_budget(budget.clone())
                .with_batch(BatchPolicy::Grouped { size: 8 }),
            false,
            &train,
            &valid,
            &tmc_params(),
        );
        assert_eq!(baseline.scores, batched.scores, "threads={threads}");
        assert_eq!(baseline.report.utility_calls, 75);
        assert_eq!(batched.report.utility_calls, 75);
        // The entire checkpoint — cursor, rng state, in-flight walk, float
        // totals — must match the refitting run's exactly.
        assert_eq!(base_ckpt, batched.report.snapshot.as_ref().unwrap());
    }
}

#[test]
fn batched_run_resumes_from_an_unbatched_mid_permutation_checkpoint() {
    let (train, valid) = workload(22, 12, 9);
    let full = tmc(&ImportanceRun::new(6), false, &train, &valid, &tmc_params());
    // Interrupt a refitting run mid-permutation, resume through the scorer
    // (and vice versa): checkpoints are interchangeable because batching
    // never leaks into the logical walk.
    for (first, second) in [
        ((true, UNBATCHED), (false, BatchPolicy::Grouped { size: 8 })),
        ((false, BatchPolicy::Grouped { size: 8 }), (true, UNBATCHED)),
    ] {
        let tripped = tmc(
            &ImportanceRun::new(6)
                .with_budget(RunBudget::unlimited().with_max_utility_calls(60))
                .with_batch(first.1),
            first.0,
            &train,
            &valid,
            &tmc_params(),
        );
        let snap = tripped.report.snapshot.unwrap();
        let EstimatorCheckpoint::Tmc(ckpt) = &snap else {
            panic!("TMC runs snapshot TMC state, got {snap:?}");
        };
        assert!(
            ckpt.inflight.is_some(),
            "budget must trip mid-permutation for this test to bite"
        );
        let resumed = tmc(
            &ImportanceRun::new(6)
                .with_resume(&snap)
                .with_batch(second.1),
            second.0,
            &train,
            &valid,
            &tmc_params(),
        );
        assert_eq!(
            full.scores, resumed.scores,
            "refit {first:?} then {second:?} must equal the uninterrupted run"
        );
    }
}

#[test]
fn batched_banzhaf_and_beta_match_unbatched_at_every_thread_count() {
    let (train, valid) = workload(16, 10, 4);
    let knn = KnnClassifier::new(1);
    let refit = RefitKnn(knn.clone());
    let beta_params = BetaShapleyParams {
        samples_per_point: 10,
        ..BetaShapleyParams::default()
    };
    let reference = ImportanceRun::new(2).with_batch(UNBATCHED);
    let banzhaf_base = banzhaf(
        &reference,
        &refit,
        &train,
        &valid,
        &BanzhafParams { samples: 80 },
    )
    .unwrap();
    let beta_base = beta_shapley(&reference, &refit, &train, &valid, &beta_params).unwrap();
    for threads in [1, 4] {
        let run = ImportanceRun::new(2)
            .with_threads(threads)
            .with_batch(BatchPolicy::Grouped { size: 16 });
        let bz = banzhaf(&run, &knn, &train, &valid, &BanzhafParams { samples: 80 }).unwrap();
        assert_eq!(banzhaf_base.scores, bz.scores, "threads={threads}");
        assert!(bz.report.batched_evals > 0);
        let bs = beta_shapley(&run, &knn, &train, &valid, &beta_params).unwrap();
        assert_eq!(beta_base.scores, bs.scores, "threads={threads}");
        assert!(bs.report.batched_evals > 0);
    }
}

#[test]
fn cache_and_batching_compose_without_changing_scores_or_trip_points() {
    let (train, valid) = workload(18, 10, 7);
    let budget = RunBudget::unlimited().with_max_utility_calls(110);
    let params = TmcParams {
        permutations: 20,
        truncation_tolerance: 0.0,
    };
    let plain = tmc(
        &ImportanceRun::new(12)
            .with_budget(budget.clone())
            .with_batch(UNBATCHED),
        true,
        &train,
        &valid,
        &params,
    );
    let cache = MemoCache::new();
    let cached = tmc(
        &ImportanceRun::new(12)
            .with_threads(4)
            .with_budget(budget)
            .with_cache(&cache)
            .with_batch(BatchPolicy::Grouped { size: 8 }),
        false,
        &train,
        &valid,
        &params,
    );
    assert_eq!(plain.scores, cached.scores);
    // Cache hits still count as logical calls: identical trip point.
    assert_eq!(plain.report.utility_calls, cached.report.utility_calls);
    assert!(cached.report.cache_hits > 0);
    assert_eq!(
        plain.report.snapshot.unwrap().step(),
        cached.report.snapshot.unwrap().step()
    );
}

/// TMC waves of every width (truncation firing mid-wave) equal the
/// refitting run: scores, checkpoint state and logical utility calls.
#[test]
fn tmc_waves_match_refit_at_every_width() {
    let (train, valid) = toy();
    let params = TmcParams {
        permutations: 40,
        truncation_tolerance: 0.02,
    };
    let run = || ImportanceRun::new(9).with_batch(UNBATCHED);
    let plain = tmc(&run(), true, &train, &valid, &params);
    assert_eq!(plain.report.batched_evals, 0);
    for size in [1, 2, 3, 8, 64] {
        let batched = tmc(
            &run().with_batch(BatchPolicy::Grouped { size }),
            false,
            &train,
            &valid,
            &params,
        );
        assert_eq!(batched.scores, plain.scores, "size={size}");
        assert_eq!(tmc_state(&batched), tmc_state(&plain), "size={size}");
        assert_eq!(
            batched.report.utility_calls, plain.report.utility_calls,
            "size={size}"
        );
        assert!(
            batched.report.batched_evals > 0,
            "size={size} must use the scorer"
        );
    }
}

/// The wave walk reproduces the refitting run's trip points exactly at
/// every utility budget: same checkpoint cursor, in-flight position and
/// floats.
#[test]
fn tmc_budget_trips_at_the_same_call_counts_as_refit() {
    let (train, valid) = toy();
    let params = TmcParams {
        permutations: 6,
        truncation_tolerance: 0.0,
    };
    let run = || ImportanceRun::new(7).with_batch(UNBATCHED);
    let full_calls = tmc_state(&tmc(&run(), true, &train, &valid, &params)).utility_calls;
    for max_calls in 2..full_calls {
        let budget = RunBudget::unlimited().with_max_utility_calls(max_calls);
        let plain = tmc(
            &run().with_budget(budget.clone()),
            true,
            &train,
            &valid,
            &params,
        );
        let batched = tmc(
            &run()
                .with_budget(budget)
                .with_batch(BatchPolicy::Grouped { size: 4 }),
            false,
            &train,
            &valid,
            &params,
        );
        assert_eq!(
            tmc_state(&batched),
            tmc_state(&plain),
            "trip state at max_calls={max_calls}"
        );
        assert_eq!(batched.scores, plain.scores);
    }
}

/// Banzhaf samples with no member: never evaluated.
fn empty_banzhaf_samples(seed: u64, samples: u64, n: usize) -> u64 {
    (0..samples)
        .filter(|&s| {
            let mut rng = seeded(child_seed(seed, s));
            (0..n).all(|_| !rng.gen::<bool>())
        })
        .count() as u64
}

/// Banzhaf blocks of every width equal the refitting run, and every
/// non-empty sample is answered exactly once.
#[test]
fn banzhaf_blocks_match_refit_at_every_width() {
    let (train, valid) = toy();
    let knn = KnnClassifier::new(1);
    let params = BanzhafParams { samples: 150 };
    for threads in [1, 4] {
        let run = || ImportanceRun::new(5).with_threads(threads);
        let plain = banzhaf(
            &run().with_batch(UNBATCHED),
            &RefitKnn(knn.clone()),
            &train,
            &valid,
            &params,
        )
        .unwrap()
        .scores;
        for size in [1, 2, 7, 32, 1000] {
            let batched = banzhaf(
                &run().with_batch(BatchPolicy::Grouped { size }),
                &knn,
                &train,
                &valid,
                &params,
            )
            .unwrap();
            assert_eq!(batched.scores, plain, "threads={threads} size={size}");
            let report = &batched.report;
            assert!(report.batched_evals > 0);
            assert_eq!(
                report.batched_evals + report.fallback_evals + report.cache_hits,
                150 - empty_banzhaf_samples(5, 150, train.len())
            );
        }
    }
}

/// Beta-Shapley waves of every width equal the refitting run.
#[test]
fn beta_waves_match_refit_at_every_width() {
    let (train, valid) = toy();
    let knn = KnnClassifier::new(1);
    let params = BetaShapleyParams {
        samples_per_point: 30,
        ..BetaShapleyParams::default()
    };
    for threads in [1, 4] {
        let run = || ImportanceRun::new(11).with_threads(threads);
        let plain = beta_shapley(
            &run().with_batch(UNBATCHED),
            &RefitKnn(knn.clone()),
            &train,
            &valid,
            &params,
        )
        .unwrap()
        .scores;
        for size in [1, 2, 5, 64] {
            let batched = beta_shapley(
                &run().with_batch(BatchPolicy::Grouped { size }),
                &knn,
                &train,
                &valid,
                &params,
            )
            .unwrap();
            assert_eq!(batched.scores, plain, "threads={threads} size={size}");
            assert!(batched.report.batched_evals > 0);
        }
    }
}

/// A template without a scorer is answered per coalition, with the KNN
/// scorer's values; no batch is ever formed.
#[test]
fn hookless_template_never_builds_a_scorer() {
    let (train, valid) = workload(14, 5, 2);
    let knn = KnnClassifier::new(1);
    let refit = RefitKnn(knn.clone());
    let coalitions: Vec<Vec<usize>> = vec![
        vec![],
        vec![0],
        vec![1, 3, 5],
        (0..14).collect(),
        vec![2, 4],
        vec![1, 3, 5],
    ];
    let batcher = UtilityBatcher::new(&refit, &train, &valid, None, BatchPolicy::default());
    let got = batcher
        .eval_batch(&mut CoalitionChain::new(), &coalitions)
        .unwrap();
    let stats = batcher.stats();
    assert_eq!(stats.batches_formed, 0);
    assert_eq!(stats.batched_evals, 0);
    assert_eq!(stats.fallback_evals, 5, "empty coalition never evaluated");
    let scored = UtilityBatcher::new(&knn, &train, &valid, None, BatchPolicy::default())
        .eval_batch(&mut CoalitionChain::new(), &coalitions)
        .unwrap();
    assert_eq!(got, scored);
    for (c, &g) in coalitions.iter().zip(&got) {
        assert_eq!(g, coalition_utility(&knn, &train, &valid, c).unwrap());
    }
}
