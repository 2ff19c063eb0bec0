//! The TMC chain grid: a permutation walk carries each validation point's
//! k nearest from wave to wave in a `CoalitionChain`, and that must never
//! show. Scores, diagnostics and checkpoint payloads of TMC-Shapley equal
//! the one-coalition-at-a-time `BatchPolicy::Unbatched` run bit for bit at
//! every wave width (1, 16, 32, n, n + 1), every thread count (1, 2, 4, 7),
//! with and without a memo cache, and through a utility-call budget that
//! trips mid-permutation followed by a resume. A checkpointed run's
//! physical work (coalition lookups, memo entries) is the same at every
//! thread count.

use nde_data::generate::blobs::two_gaussians;
use nde_data::rng::SliceRandom;
use nde_importance::{
    tmc_shapley, BatchPolicy, EstimatorCheckpoint, ImportanceOutcome, ImportanceRun, TmcParams,
};
use nde_ml::batch::{CoalitionChain, CoalitionScorer, KnnCoalitionScorer};
use nde_ml::dataset::Dataset;
use nde_ml::model::utility;
use nde_ml::models::knn::KnnClassifier;
use nde_robust::par::MemoCache;
use nde_robust::{RunBudget, RunStore};

const N: usize = 40;
const K: usize = 3;

fn workload() -> (Dataset, Dataset) {
    let nd = two_gaussians(N + 14, 3, 1.5, 77);
    let all = Dataset::try_from(&nd).expect("blob data is well-formed");
    let mut train = all.subset(&(0..N).collect::<Vec<_>>());
    for f in [2, 9, 17, 30] {
        train.y[f] = 1 - train.y[f];
    }
    (train, all.subset(&(N..N + 14).collect::<Vec<_>>()))
}

fn params() -> TmcParams {
    TmcParams {
        permutations: 6,
        truncation_tolerance: 0.0,
    }
}

/// Everything a run reports that must not depend on how it was batched:
/// score bits, the diagnostics without their wall time, and the compact
/// checkpoint payload.
fn digest(out: &ImportanceOutcome) -> (Vec<u64>, String, String) {
    let d = out
        .report
        .diagnostics
        .as_ref()
        .expect("TMC has diagnostics");
    let diagnostics = format!(
        "iterations={} calls={} max_se={:?} exhausted={:?} report_calls={}",
        d.iterations,
        d.utility_calls,
        d.max_marginal_std_error.map(f64::to_bits),
        d.exhausted,
        out.report.utility_calls,
    );
    let snapshot = out.report.snapshot.as_ref().expect("TMC snapshots");
    (
        out.scores.values.iter().map(|v| v.to_bits()).collect(),
        diagnostics,
        snapshot.to_payload().to_string_compact(),
    )
}

/// Run `tmc_shapley` under `batch`, `threads` and an optional cache: the
/// whole run, then a run cut by `budget` and its resume.
fn runs(
    train: &Dataset,
    valid: &Dataset,
    batch: BatchPolicy,
    threads: usize,
    cache: Option<&MemoCache>,
    budget: &RunBudget,
) -> [ImportanceOutcome; 3] {
    let knn = KnnClassifier::new(K);
    let mut run = ImportanceRun::new(3)
        .with_batch(batch)
        .with_threads(threads);
    run.cache = cache;
    let whole = tmc_shapley(&run, &knn, train, valid, &params()).unwrap();
    let cut = tmc_shapley(
        &run.clone().with_budget(budget.clone()),
        &knn,
        train,
        valid,
        &params(),
    )
    .unwrap();
    let snapshot = cut.report.snapshot.clone().unwrap();
    let resumed = tmc_shapley(
        &run.clone().with_resume(&snapshot),
        &knn,
        train,
        valid,
        &params(),
    )
    .unwrap();
    [whole, cut, resumed]
}

#[test]
fn tmc_chain_grid_is_bit_identical_to_unbatched() {
    let (train, valid) = workload();
    // One full call, 2 permutations and 17 prefixes of the third.
    let budget = RunBudget::unlimited().with_max_utility_calls(1 + 2 * N as u64 + 17);
    let want = runs(&train, &valid, BatchPolicy::Unbatched, 1, None, &budget);
    let EstimatorCheckpoint::Tmc(cut) = want[1].report.snapshot.as_ref().unwrap() else {
        panic!("TMC runs snapshot TMC state");
    };
    assert_eq!(cut.inflight.as_ref().map(|p| p.pos), Some(17));
    assert_eq!(want[0].scores, want[2].scores, "the resume reconverges");
    let want: Vec<_> = want.iter().map(digest).collect();
    for size in [1, 16, 32, N, N + 1] {
        for threads in [1, 2, 4, 7] {
            for cached in [false, true] {
                let cache = MemoCache::new();
                let got = runs(
                    &train,
                    &valid,
                    BatchPolicy::Grouped { size },
                    threads,
                    cached.then_some(&cache),
                    &budget,
                );
                for (run, (got, want)) in ["whole", "cut", "resumed"]
                    .iter()
                    .zip(got.iter().map(digest).zip(&want))
                {
                    assert!(
                        &got == want,
                        "{run} run differs at width {size}, {threads} threads, cache {cached}"
                    );
                }
                assert!(got[0].report.batched_evals > 0, "the scorer must be used");
                if cached {
                    assert!(
                        got[2].report.cache_hits > 0,
                        "the resume re-serves prefixes"
                    );
                }
            }
        }
    }
}

/// Coalitions a run looked up: scored by the batched scorer or the
/// per-coalition fallback, or served from the memo cache.
fn lookups(out: &ImportanceOutcome) -> u64 {
    let r = &out.report;
    r.batched_evals + r.fallback_evals + r.cache_hits
}

#[test]
fn physical_work_is_thread_invariant() {
    // A checkpointed, cached run (whole, and cut at 20 of 48 permutations)
    // walks each permutation once at every thread count: no worker walks
    // past its segment's end. The scored/served split is not pinned, since
    // two workers may race to score the same coalition.
    let (train, valid) = workload();
    let params = TmcParams {
        permutations: 48,
        truncation_tolerance: 0.0,
    };
    for budget in [None, Some(RunBudget::unlimited().with_max_iterations(20))] {
        let mut want = None;
        for threads in [1, 2, 4, 7] {
            let dir = std::env::temp_dir().join(format!(
                "nde-tmc-chain-work-{threads}-{}-{}",
                budget.is_some(),
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let store = RunStore::open(&dir).unwrap();
            let cache = MemoCache::new();
            let mut run = ImportanceRun::new(3)
                .with_threads(threads)
                .with_batch(BatchPolicy::Grouped { size: 16 })
                .with_cache(&cache)
                .with_store(&store)
                .with_auto_checkpoint(8);
            run.budget = budget.clone();
            let out = tmc_shapley(&run, &KnnClassifier::new(K), &train, &valid, &params).unwrap();
            let case = format!("{threads} threads, budget {budget:?}");
            // With no truncation every lookup is a logical utility call.
            assert_eq!(lookups(&out), out.report.utility_calls, "{case}");
            let got = (lookups(&out), cache.len());
            assert_eq!(*want.get_or_insert(got), got, "{case}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The sorted prefixes of a seeded permutation of `0..n`, as a TMC walk
/// queues them.
fn prefixes(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut nde_data::rng::seeded(seed));
    (1..=n)
        .map(|len| {
            let mut prefix = order[..len].to_vec();
            prefix.sort_unstable();
            prefix
        })
        .collect()
}

#[test]
fn a_chain_serves_a_superset_from_another_permutation() {
    // A chain left by one permutation's prefix is continued by a prefix of
    // a different permutation that contains it (inserting only the added
    // members), and restarted by coalitions that do not contain it.
    let (train, valid) = workload();
    for k in [1, 3, 5] {
        let scorer = KnnCoalitionScorer::new(k, &train, &valid);
        let refit = |c: &[usize]| {
            utility(&KnnClassifier::new(k), &train.subset(c), &valid)
                .unwrap()
                .to_bits()
        };
        let a = prefixes(N, 100 + k as u64);
        let b = prefixes(N, 200 + k as u64);
        let mut chain = CoalitionChain::new();
        let first = scorer.score_batch(&mut chain, &[&a[9]]);
        assert_eq!(first[0].to_bits(), refit(&a[9]));
        let at = b
            .iter()
            .position(|c| a[9].iter().all(|i| c.binary_search(i).is_ok()))
            .expect("the full set contains every prefix");
        let superset = &b[at];
        assert!(superset.len() > a[9].len() && superset != &a[9]);
        let batch: [&[usize]; 4] = [superset, &b[N - 1], &a[2], &a[4]];
        let got: Vec<u64> = scorer
            .score_batch(&mut chain, &batch)
            .iter()
            .map(|u| u.to_bits())
            .collect();
        let want: Vec<u64> = batch.iter().map(|c| refit(c)).collect();
        assert_eq!(got, want, "k={k}");
        // The chain now describes `a[4]`: it continues into `a[5]`.
        let next = scorer.score_batch(&mut chain, &[&a[5]]);
        assert_eq!(next[0].to_bits(), refit(&a[5]), "k={k}");
    }
}
