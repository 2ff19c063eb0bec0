//! Exact, closed-form KNN-Shapley (Jia et al., VLDB'19).
//!
//! For a K-nearest-neighbor utility, the Shapley value of every training
//! point has a closed form: one recursion over the training points in
//! distance order per validation point — the efficiency trick highlighted
//! in §2.1 of the paper and the workhorse of the Fig. 2 hands-on demo.
//!
//! The recursion sees distances only through that order, and the order
//! depends on neither the labels nor `k`. Orders are therefore prepared
//! once per (train, valid) feature pair — an `O(n log n)` sort per
//! validation point — and a call that changed only labels (the Fig. 2 loop
//! re-ranks after every label repair) or `k` costs `O(n)` per validation
//! point.
//!
//! Once a pair is kept, a call costs one branch-free `O(n)` fold per
//! validation point, plus one bit comparison of the features against the
//! kept copies. The fold adds `(1[y_i = y] − 1[y_{i+1} = y]) · step` as an
//! integer difference times the precomputed step instead of branching on
//! the two labels. It adds the same floats in the same order as the
//! recursion written out on `knn_engine`, so the scores are the same bits.
//!
//! # The order memo
//!
//! Prepared orders live in a process-wide memo with **one slot**, keyed by
//! the shapes and the exact feature bits of `train.x` and `valid.x`:
//!
//! - **Admission on second sighting.** A pair's first call records only a
//!   64-bit fingerprint of its features. The next call with the same
//!   fingerprint computes the orders and keeps them in the slot, replacing
//!   whatever it held, together with bit copies of both feature matrices. A
//!   one-shot call (such as Datascope's single scoring pass) never keeps
//!   anything.
//! - **Verified hits.** A call is served from the slot only after all of
//!   its feature bits compare equal to the kept copies — never on the
//!   fingerprint alone.
//! - **Finite scan only on a miss.** NaN and infinite features are rejected
//!   with their row and column before a missed pair is fingerprinted or
//!   sorted. A hit skips the scan: its features equal the kept copies,
//!   which passed it when they were admitted, so a non-finite input can
//!   never hit.
//! - **Memory bound.** The slot holds `m · n` training indices, as `u16`
//!   when `n ≤ 65,536` and as `u32` otherwise, plus `8 · (n + m) · d` bytes
//!   of feature copies — about 1.2 MB for 900 × 300 rows of 70 features.
//!   Nothing else is kept, whatever the number of calls.

use crate::common::ImportanceScores;
use crate::{ImportanceError, Result};
use nde_data::fxhash::FxHasher;
use nde_ml::batch::{neighbor_orders, OrderIndex};
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_robust::par::WorkerPool;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Validation points are processed in fixed-size chunks whose partial sums
/// are folded in chunk order — the chunking (and therefore the float
/// accumulation tree) is independent of the thread count, so scores are
/// bit-identical for every `threads` value.
const VALID_CHUNK: usize = 32;

/// Every validation point's training rows, nearest first
/// ([`neighbor_orders`]), in the narrowest index type that holds `n`.
enum Orders {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Orders {
    fn compute(train: &Dataset, valid: &Dataset, pool: &WorkerPool, threads: usize) -> Orders {
        if train.len() <= u16::MAX_LEN {
            Orders::Narrow(neighbor_orders(train, valid, pool, threads))
        } else {
            Orders::Wide(neighbor_orders(train, valid, pool, threads))
        }
    }
}

/// The kept orders of one feature pair, with bit copies of its features.
struct Slot {
    train_x: Matrix,
    valid_x: Matrix,
    orders: Arc<Orders>,
}

impl Slot {
    /// Whether `train` and `valid` have exactly the kept features, bit for
    /// bit.
    fn holds(&self, train: &Dataset, valid: &Dataset) -> bool {
        same_bits(&self.train_x, &train.x) && same_bits(&self.valid_x, &valid.x)
    }
}

/// Whether `a` and `b` have the same shape and every feature bit equal:
/// row by row, each row OR-ing the XOR of its cells' bits over the whole
/// slice (which the compiler vectorizes) before the next row is read.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|r| {
            a.row(r)
                .iter()
                .zip(b.row(r))
                .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()))
                == 0
        })
}

/// 64-bit fingerprint of the shapes and feature bits of a pair. Unlike
/// [`Dataset::fingerprint`] it leaves out the labels, which the orders do
/// not depend on.
fn fingerprint(train: &Dataset, valid: &Dataset) -> u64 {
    let mut h = FxHasher::default();
    for x in [&train.x, &valid.x] {
        h.write_usize(x.rows());
        h.write_usize(x.cols());
        for v in x.iter_rows().flatten() {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

struct MemoState {
    /// Fingerprint of the latest pair that missed the slot.
    seen: Option<u64>,
    slot: Option<Arc<Slot>>,
}

/// The one-slot neighbor-order memo (see the module docs).
struct OrderMemo {
    state: Mutex<MemoState>,
    /// Calls served from the slot.
    hits: AtomicU64,
    /// Pairs admitted into the slot.
    admits: AtomicU64,
}

/// The memo behind every [`knn_engine`] call in the process.
static ORDER_MEMO: OrderMemo = OrderMemo::new();

impl OrderMemo {
    const fn new() -> OrderMemo {
        OrderMemo {
            state: Mutex::new(MemoState {
                seen: None,
                slot: None,
            }),
            hits: AtomicU64::new(0),
            admits: AtomicU64::new(0),
        }
    }

    fn state(&self) -> MutexGuard<'_, MemoState> {
        // The state is replaced whole under the lock, so a panic elsewhere
        // cannot leave it half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The neighbor orders of `(train, valid)`: from the slot when it holds
    /// exactly these features, otherwise computed on `pool` (and kept when
    /// this fingerprint missed just before).
    ///
    /// Only a miss scans the features for NaN or infinite values: a hit's
    /// features equal the kept copies, which were scanned when they were
    /// admitted. A rejected call leaves the memo as it was.
    fn orders(
        &self,
        train: &Dataset,
        valid: &Dataset,
        pool: &WorkerPool,
        threads: usize,
    ) -> Result<Arc<Orders>> {
        let slot = self.state().slot.clone();
        if let Some(slot) = slot.filter(|s| s.holds(train, valid)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&slot.orders));
        }
        for (name, data) in [("training", train), ("validation", valid)] {
            if let Some((row, col)) = data.first_non_finite() {
                return Err(ImportanceError::InvalidArgument(format!(
                    "{name} data holds a non-finite feature at row {row}, column {col}"
                )));
            }
        }
        let key = fingerprint(train, valid);
        let admit = self.state().seen.replace(key) == Some(key);
        let orders = Arc::new(Orders::compute(train, valid, pool, threads));
        if admit {
            let slot = Slot {
                train_x: train.x.clone(),
                valid_x: valid.x.clone(),
                orders: Arc::clone(&orders),
            };
            self.state().slot = Some(Arc::new(slot));
            self.admits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(orders)
    }
}

/// The closed-form KNN-Shapley engine behind the
/// [`knn_shapley()`](crate::run::knn_shapley) entry point: exact values of
/// all training examples with respect to the K-NN utility (probability of
/// the correct label among the K neighbors), averaged over all validation
/// points.
///
/// The per-validation-point recursion (training points sorted by distance,
/// nearest first, 1-indexed):
///
/// ```text
/// s[n]   = 1[y_n = y] / max(K, n)
/// s[i]   = s[i+1] + (1[y_i = y] − 1[y_{i+1} = y]) / K · min(K, i) / i
/// ```
///
/// The farthest point adds `1[y_n = y] / K` exactly when fewer than `K`
/// points precede it, which a random permutation gives with probability
/// `min(K, n) / n`; so `s[n] = 1[y_n = y] / K · min(K, n) / n`, computed
/// as `1[y_n = y] / max(K, n)`. For `K ≤ n` that is Jia et al.'s
/// `1[y_n = y] / n`; for `K > n` every point is always among the `K`
/// nearest and `s[i] = 1[y_i = y] / K`.
///
/// The distance orders come from the process-wide order memo (see the
/// module docs), so only the recursion runs per call once a feature pair
/// is kept. NaN or infinite features are rejected with the offending row
/// and column (by the memo, on a miss).
pub(crate) fn knn_engine(
    train: &Dataset,
    valid: &Dataset,
    k: usize,
    threads: usize,
    pool: &WorkerPool,
) -> Result<ImportanceScores> {
    knn_engine_in(&ORDER_MEMO, train, valid, k, threads, pool)
}

/// [`knn_engine`] over the given memo (the tests use private ones).
fn knn_engine_in(
    memo: &OrderMemo,
    train: &Dataset,
    valid: &Dataset,
    k: usize,
    threads: usize,
    pool: &WorkerPool,
) -> Result<ImportanceScores> {
    if k == 0 {
        return Err(ImportanceError::InvalidArgument("k must be >= 1".into()));
    }
    if train.is_empty() || valid.is_empty() {
        return Err(ImportanceError::InvalidArgument(
            "train and valid must be non-empty".into(),
        ));
    }
    if train.dim() != valid.dim() {
        return Err(ImportanceError::InvalidArgument(format!(
            "dimension mismatch: train {} vs valid {}",
            train.dim(),
            valid.dim()
        )));
    }
    let orders = memo.orders(train, valid, pool, threads)?;
    let totals = match &*orders {
        Orders::Narrow(orders) => shapley_totals(orders, train, valid, k, threads, pool),
        Orders::Wide(orders) => shapley_totals(orders, train, valid, k, threads, pool),
    }?;
    let m = valid.len() as f64;
    let values = totals.into_iter().map(|v| v / m).collect();
    Ok(ImportanceScores::new("knn-shapley", values))
}

/// Sum over validation points of the recursion's values per training
/// point, given every point's full neighbor order (`orders`, rows of
/// `train.len()`).
fn shapley_totals<T: OrderIndex>(
    orders: &[T],
    train: &Dataset,
    valid: &Dataset,
    k: usize,
    threads: usize,
    pool: &WorkerPool,
) -> Result<Vec<f64>> {
    let n = train.len();
    let m = valid.len();
    let kf = k as f64;
    // The recursion's increment at 0-indexed position p is
    // `(1[y_p = y] − 1[y_{p+1} = y]) / K · min(K, i) / i` with i = p + 1:
    // the difference is exactly 1.0, −1.0 or 0.0, and IEEE arithmetic is
    // sign-symmetric, so the increment is `step[p]`, its negation, or
    // `0.0 / K · min(K, i) / i = +0.0` — the same floats, computed once.
    let step: Vec<f64> = (1..n)
        .map(|i| {
            let i = i as f64;
            1.0 / kf * kf.min(i) / i
        })
        .collect();
    let chunks = m.div_ceil(VALID_CHUNK) as u64;
    let stop = AtomicBool::new(false);
    let chunk_totals = pool.map_indexed(threads, 0..chunks, &stop, |c| {
        let mut totals = vec![0.0; n];
        let start = c as usize * VALID_CHUNK;
        let end = (start + VALID_CHUNK).min(m);
        for v in start..end {
            let vy = valid.y[v];
            let order = &orders[v * n..(v + 1) * n];
            // Walk from the farthest point inward. Each training point
            // gets exactly one addition per validation point, so adding
            // while walking sums the same floats as a second pass.
            let last = order[n - 1].index();
            let mut hit = i32::from(train.y[last] == vy);
            let mut s = f64::from(hit) / n.max(k) as f64;
            totals[last] += s;
            for p in (0..n - 1).rev() {
                let i = order[p].index();
                let next = hit;
                hit = i32::from(train.y[i] == vy);
                // Branch-free: `hit - next` is 1, −1 or 0, so the product
                // is `step[p]`, `-step[p]` or `+0.0`, and `s` (never
                // `-0.0`) keeps its bits when `+0.0` is added.
                s += f64::from(hit - next) * step[p];
                totals[i] += s;
            }
        }
        Ok::<_, ImportanceError>(totals)
    })?;

    // Fold partial sums in chunk order (schedule-independent).
    let mut totals = vec![0.0; n];
    for (_, chunk) in &chunk_totals {
        for (t, v) in totals.iter_mut().zip(chunk) {
            *t += v;
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{tmc_shapley, ImportanceRun, TmcParams};
    use nde_data::generate::blobs::two_gaussians;
    use nde_ml::models::knn::KnnClassifier;

    // The behavioral suite pins the engine through a thin wrapper matching
    // the removed free functions' signature.
    fn knn_shapley(train: &Dataset, valid: &Dataset, k: usize) -> Result<ImportanceScores> {
        knn_engine(train, valid, k, 1, &WorkerPool::shared())
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
    fn efficiency_axiom_exact() {
        // Shapley values must sum to U(D) − U(∅). For the KNN utility used
        // here, U(D) is the mean correct-neighbor fraction and U(∅) = 0.
        let (train, valid) = toy();
        let k = 2;
        let scores = knn_shapley(&train, &valid, k).unwrap();
        let sum: f64 = scores.values.iter().sum();
        // Compute U(D) directly: mean over valid of (#correct among k nn)/k.
        let mut knn = KnnClassifier::new(k);
        use nde_ml::model::Classifier;
        knn.fit(&train).unwrap();
        let mut u = 0.0;
        for (vx, &vy) in valid.x.iter_rows().zip(&valid.y) {
            let nb = knn.neighbors(vx);
            let correct = nb.iter().filter(|&&i| train.y[i] == vy).count();
            u += correct as f64 / k as f64;
        }
        u /= valid.len() as f64;
        assert!((sum - u).abs() < 1e-9, "sum={sum} u={u}");
    }

    #[test]
    fn mislabelled_point_ranked_last() {
        let (train, valid) = toy();
        let scores = knn_shapley(&train, &valid, 1).unwrap();
        assert_eq!(scores.bottom_k(1), vec![4]);
        assert!(scores.values[4] < 0.0);
    }

    #[test]
    fn agrees_with_monte_carlo_on_ranking() {
        // TMC-Shapley with a 1-NN model should produce a similar ranking.
        let (train, valid) = toy();
        let exact = knn_shapley(&train, &valid, 1).unwrap();
        let mc = tmc_shapley(
            &ImportanceRun::new(5),
            &KnnClassifier::new(1),
            &train,
            &valid,
            &TmcParams {
                permutations: 400,
                truncation_tolerance: 0.0,
            },
        )
        .unwrap()
        .scores;
        let corr = exact.rank_correlation(&mc);
        assert!(corr > 0.6, "rank correlation {corr}");
    }

    #[test]
    fn scales_to_moderate_data() {
        let nd = two_gaussians(600, 4, 4.0, 9);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..500).collect::<Vec<_>>());
        let valid = all.subset(&(500..600).collect::<Vec<_>>());
        let scores = knn_shapley(&train, &valid, 5).unwrap();
        assert_eq!(scores.len(), 500);
        assert!(scores.values.iter().all(|v| v.is_finite()));
        // Average value should be positive (data is clean and useful).
        let mean: f64 = scores.values.iter().sum::<f64>() / 500.0;
        assert!(mean > 0.0);
    }

    #[test]
    fn validates_arguments() {
        let (train, valid) = toy();
        assert!(knn_shapley(&train, &valid, 0).is_err());
        let empty = train.subset(&[]);
        assert!(knn_shapley(&empty, &valid, 1).is_err());
        assert!(knn_shapley(&train, &empty, 1).is_err());
        let wrong_dim = Dataset::from_rows(vec![vec![0.0, 1.0]], vec![0], 2).unwrap();
        assert!(knn_shapley(&train, &wrong_dim, 1).is_err());
    }

    #[test]
    fn k_equal_n_still_finite() {
        let (train, valid) = toy();
        let scores = knn_shapley(&train, &valid, train.len()).unwrap();
        assert!(scores.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // More validation points than one chunk, so several chunks race.
        let nd = two_gaussians(300, 3, 3.0, 17);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..150).collect::<Vec<_>>());
        let valid = all.subset(&(150..300).collect::<Vec<_>>());
        let seq = knn_shapley(&train, &valid, 5).unwrap();
        for threads in [2, 4, 7] {
            let par = knn_engine(&train, &valid, 5, threads, &WorkerPool::shared()).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    fn blobs(n: usize, m: usize, seed: u64) -> (Dataset, Dataset) {
        let nd = two_gaussians(n + m, 3, 3.0, seed);
        let all = Dataset::try_from(&nd).unwrap();
        let train = all.subset(&(0..n).collect::<Vec<_>>());
        let valid = all.subset(&(n..n + m).collect::<Vec<_>>());
        (train, valid)
    }

    /// A memo-less run: a fresh memo never hits.
    fn cold(train: &Dataset, valid: &Dataset, k: usize, threads: usize) -> ImportanceScores {
        knn_engine_in(
            &OrderMemo::new(),
            train,
            valid,
            k,
            threads,
            &WorkerPool::shared(),
        )
        .unwrap()
    }

    fn warm(memo: &OrderMemo, train: &Dataset, valid: &Dataset, k: usize) -> ImportanceScores {
        knn_engine_in(memo, train, valid, k, 1, &WorkerPool::shared()).unwrap()
    }

    fn counts(memo: &OrderMemo) -> (u64, u64) {
        (
            memo.hits.load(Ordering::Relaxed),
            memo.admits.load(Ordering::Relaxed),
        )
    }

    fn bits(scores: &ImportanceScores) -> Vec<u64> {
        scores.values.iter().map(|v| v.to_bits()).collect()
    }

    /// The engine as it was before neighbor orders were kept: a full
    /// distance table, each row sorted by (distance, index), the same
    /// recursion and the same chunk-ordered fold.
    fn table_reference(train: &Dataset, valid: &Dataset, k: usize) -> Vec<f64> {
        use nde_ml::batch::DistanceTable;
        use nde_ml::models::knn::k_nearest;
        let table = DistanceTable::new(train, valid);
        let (n, kf) = (train.len(), k as f64);
        let mut totals = vec![0.0; n];
        let mut order = Vec::new();
        let mut s = vec![0.0; n];
        for start in (0..valid.len()).step_by(VALID_CHUNK) {
            let mut chunk = vec![0.0; n];
            for v in start..(start + VALID_CHUNK).min(valid.len()) {
                k_nearest(table.row(v), n, &mut order);
                let hit = |p: usize| f64::from(u8::from(train.y[order[p]] == valid.y[v]));
                s[n - 1] = hit(n - 1) / n.max(k) as f64;
                for p in (0..n - 1).rev() {
                    let i = (p + 1) as f64;
                    s[p] = s[p + 1] + (hit(p) - hit(p + 1)) / kf * kf.min(i) / i;
                }
                for p in 0..n {
                    chunk[order[p]] += s[p];
                }
            }
            for (t, c) in totals.iter_mut().zip(&chunk) {
                *t += c;
            }
        }
        totals.iter().map(|t| t / valid.len() as f64).collect()
    }

    /// [`blobs`] with three classes, where every fifth training row is a
    /// copy of the row before it (exact distance ties, sometimes between
    /// different labels).
    fn three_class_with_duplicates(n: usize, m: usize, seed: u64) -> (Dataset, Dataset) {
        let (train, mut valid) = blobs(n, m, seed);
        let rows: Vec<usize> = (0..n).map(|i| if i % 5 == 4 { i - 1 } else { i }).collect();
        let mut train = train.subset(&rows);
        for (i, y) in train.y.iter_mut().enumerate() {
            if i % 7 == 0 {
                *y = 2;
            }
        }
        for (v, y) in valid.y.iter_mut().enumerate() {
            if v % 5 == 0 {
                *y = 2;
            }
        }
        train.n_classes = 3;
        valid.n_classes = 3;
        (train, valid)
    }

    #[test]
    fn matches_the_distance_table_reference_bit_for_bit() {
        let two_class = blobs(150, 70, 3);
        let three_class = three_class_with_duplicates(150, 70, 3);
        assert!(three_class.0.y.contains(&2) && three_class.1.y.contains(&2));
        assert_eq!(three_class.0.x.row(3), three_class.0.x.row(4));
        for (name, (train, valid)) in [("2-class", two_class), ("3-class", three_class)] {
            for k in [1, 5, 149, 150, 400] {
                let want: Vec<u64> = table_reference(&train, &valid, k)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(bits(&cold(&train, &valid, k, 1)), want, "{name} k={k}");
            }
        }
    }

    #[test]
    fn warm_calls_after_three_class_flips_match_cold_calls_at_every_thread_count() {
        let (mut train, valid) = three_class_with_duplicates(150, 70, 27);
        let pool = WorkerPool::new(6);
        let memo = OrderMemo::new();
        for (round, row) in [0usize, 4, 4, 41, 98, 149].into_iter().enumerate() {
            let want = bits(&cold(&train, &valid, 5, 1));
            for threads in [1, 2, 4, 7] {
                let got = knn_engine_in(&memo, &train, &valid, 5, threads, &pool).unwrap();
                assert_eq!(bits(&got), want, "round {round} threads={threads}");
            }
            train.y[row] = (train.y[row] + 1) % 3;
        }
        // The first call records the pair, the second admits it, and the
        // other 22 of the 24 calls hit.
        assert_eq!(counts(&memo), (22, 1));
    }

    #[test]
    fn a_non_finite_call_after_a_kept_pair_is_rejected_and_changes_nothing() {
        let memo = OrderMemo::new();
        let (train, valid) = blobs(40, 12, 28);
        warm(&memo, &train, &valid, 3);
        warm(&memo, &train, &valid, 3);
        assert_eq!(counts(&memo), (0, 1));
        let seen = memo.state().seen;
        let kept = memo.state().slot.clone().expect("the pair is kept");
        let cases = [
            (true, 7, 1, f64::NAN),
            (false, 3, 2, f64::INFINITY),
            (true, 39, 0, f64::NEG_INFINITY),
        ];
        for (in_train, row, col, value) in cases {
            let (mut t, mut v) = (train.clone(), valid.clone());
            let name = if in_train {
                t.x.set(row, col, value);
                "training"
            } else {
                v.x.set(row, col, value);
                "validation"
            };
            let err = knn_engine_in(&memo, &t, &v, 3, 1, &WorkerPool::shared()).unwrap_err();
            assert_eq!(
                err,
                ImportanceError::InvalidArgument(format!(
                    "{name} data holds a non-finite feature at row {row}, column {col}"
                ))
            );
            assert_eq!(counts(&memo), (0, 1), "{name} ({row},{col})");
            let state = memo.state();
            assert_eq!(state.seen, seen);
            assert!(Arc::ptr_eq(state.slot.as_ref().unwrap(), &kept));
        }
        warm(&memo, &train, &valid, 3);
        assert_eq!(counts(&memo), (1, 1));
    }

    #[test]
    fn warm_calls_after_label_flips_match_cold_calls() {
        let memo = OrderMemo::new();
        let (mut train, valid) = blobs(120, 50, 21);
        for (round, row) in [0usize, 7, 7, 33, 90, 119].into_iter().enumerate() {
            let got = warm(&memo, &train, &valid, 5);
            assert_eq!(
                bits(&got),
                bits(&cold(&train, &valid, 5, 1)),
                "round {round}"
            );
            // Round 0 records the pair, round 1 admits it, later rounds hit.
            let hits = round.saturating_sub(1) as u64;
            assert_eq!(
                counts(&memo),
                (hits, u64::from(round >= 1)),
                "round {round}"
            );
            train.y[row] = 1 - train.y[row];
        }
    }

    #[test]
    fn another_k_reuses_the_orders() {
        let memo = OrderMemo::new();
        let (train, valid) = blobs(80, 40, 22);
        warm(&memo, &train, &valid, 3);
        warm(&memo, &train, &valid, 3);
        for (i, k) in [1, 2, 7, 80, 200].into_iter().enumerate() {
            let got = warm(&memo, &train, &valid, k);
            assert_eq!(bits(&got), bits(&cold(&train, &valid, k, 1)), "k={k}");
            assert_eq!(counts(&memo), (i as u64 + 1, 1), "k={k}");
        }
    }

    #[test]
    fn a_one_ulp_change_to_any_feature_misses() {
        let memo = OrderMemo::new();
        let (train, valid) = blobs(9, 4, 23);
        warm(&memo, &train, &valid, 2);
        warm(&memo, &train, &valid, 2);
        assert_eq!(counts(&memo), (0, 1));
        let bump = |x: &Matrix, r: usize, c: usize| {
            let mut x = x.clone();
            x.set(r, c, f64::from_bits(x.get(r, c).to_bits() + 1));
            x
        };
        let mut cells = 0;
        for in_train in [true, false] {
            let shape = if in_train { &train.x } else { &valid.x };
            for r in 0..shape.rows() {
                for c in 0..shape.cols() {
                    let (mut t, mut v) = (train.clone(), valid.clone());
                    if in_train {
                        t.x = bump(&train.x, r, c);
                    } else {
                        v.x = bump(&valid.x, r, c);
                    }
                    let got = warm(&memo, &t, &v, 2);
                    assert_eq!(bits(&got), bits(&cold(&t, &v, 2, 1)));
                    // Seen once: neither a hit nor an admission.
                    assert_eq!(counts(&memo), (0, 1), "train={in_train} cell ({r},{c})");
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, (9 + 4) * 3);
        // The kept pair is still served.
        warm(&memo, &train, &valid, 2);
        assert_eq!(counts(&memo), (1, 1));
    }

    #[test]
    fn one_shot_calls_never_admit() {
        let memo = OrderMemo::new();
        for seed in 0..6 {
            let (train, valid) = blobs(30, 10, 40 + seed);
            warm(&memo, &train, &valid, 3);
        }
        assert_eq!(counts(&memo), (0, 0));
        assert!(memo.state().slot.is_none());
    }

    #[test]
    fn warm_and_cold_agree_at_every_thread_count() {
        let (mut train, valid) = blobs(150, 150, 24);
        let pool = WorkerPool::new(6);
        let memo = OrderMemo::new();
        let reference = cold(&train, &valid, 5, 1);
        for threads in [1, 2, 4, 7] {
            let got = knn_engine_in(&memo, &train, &valid, 5, threads, &pool).unwrap();
            assert_eq!(bits(&got), bits(&reference), "threads={threads}");
            assert_eq!(bits(&cold(&train, &valid, 5, threads)), bits(&reference));
        }
        assert_eq!(counts(&memo), (2, 1));
        train.y[3] = 1 - train.y[3];
        let flipped = cold(&train, &valid, 5, 1);
        for threads in [1, 2, 4, 7] {
            let got = knn_engine_in(&memo, &train, &valid, 5, threads, &pool).unwrap();
            assert_eq!(bits(&got), bits(&flipped), "threads={threads}");
        }
    }

    #[test]
    fn two_threads_alternating_between_pairs_get_their_own_scores() {
        let pairs = [blobs(60, 30, 25), blobs(60, 30, 26)];
        let want: Vec<Vec<u64>> = pairs.iter().map(|(t, v)| bits(&cold(t, v, 3, 1))).collect();
        let private = OrderMemo::new();
        // Keep pair 0, so the first step hits it while pair 1 misses.
        let (train, valid) = &pairs[0];
        warm(&private, train, valid, 3);
        warm(&private, train, valid, 3);
        for memo in [&ORDER_MEMO, &private] {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for worker in 0..2 {
                    let (pairs, want, barrier) = (&pairs, &want, &barrier);
                    scope.spawn(move || {
                        // In lockstep, each thread on the pair the other
                        // is not on, switching every two calls, so pairs
                        // are hit, seen, admitted and replaced concurrently.
                        for call in 0..16 {
                            let p = (call / 2 + worker) % 2;
                            let (train, valid) = &pairs[p];
                            barrier.wait();
                            let got =
                                knn_engine_in(memo, train, valid, 3, 1, &WorkerPool::shared());
                            assert_eq!(bits(&got.unwrap()), want[p], "worker {worker} call {call}");
                        }
                    });
                }
            });
        }
        assert!(counts(&private).0 >= 1);
    }

    #[test]
    fn non_finite_features_are_rejected_with_their_cell() {
        let (train, valid) = toy();
        let run = ImportanceRun::new(0);
        for (bad_train, value) in [(true, f64::NAN), (false, f64::INFINITY)] {
            let (mut t, mut v) = (train.clone(), valid.clone());
            if bad_train {
                t.x.set(3, 0, value);
            } else {
                v.x.set(2, 0, value);
            }
            let err = crate::run::knn_shapley(&run, &t, &v, 2).unwrap_err();
            let ImportanceError::InvalidArgument(msg) = err else {
                panic!("unexpected error {err:?}");
            };
            let cell = if bad_train {
                "row 3, column 0"
            } else {
                "row 2, column 0"
            };
            assert!(msg.contains(cell), "{msg}");
        }
    }
}
