//! Batched coalition scoring: evaluate many training-subset utilities in
//! one pass over the validation set.
//!
//! Every importance method bottoms out in the same operation — compute the
//! utility `U(S)` of a coalition `S ⊆ train` — and the naive route pays one
//! full retrain + validation sweep per coalition. For instance-based models
//! the retrain is a fiction: a KNN "fit" only remembers the subset, and the
//! expensive part (train→valid distances) is *identical across coalitions*.
//! [`DistanceTable`] computes that train→valid distance matrix once per
//! run, and [`KnnCoalitionScorer`] then scores a whole batch of coalitions
//! by masked partial selection over the shared matrix (KNN-Shapley, Jia et
//! al., PVLDB 2019; Datascope's KNN proxy, Karlaš et al., PVLDB 2022).
//! Closed-form KNN-Shapley needs only each validation point's full
//! neighbor order, which [`neighbor_orders`] writes without building the
//! matrix. [`KnnWorldVoter`] applies the same idea to possible worlds that
//! differ in a few training cells: the distances that no world changes are
//! computed once (certain KNN, Karlaš et al., PVLDB 2020).
//!
//! The [`CoalitionScorer`] trait is the hook the importance crate batches
//! through: [`crate::model::Classifier::coalition_scorer`] returns a
//! prepared scorer for models that support one-pass batch scoring, and
//! `None` for generic classifiers, which then fall back to per-coalition
//! [`crate::model::utility`] behind the same interface.
//!
//! # Bit-identity contract
//!
//! For every coalition `S` (given as a **sorted** list of training-set
//! indices), a scorer must return *exactly* the `f64` that
//! `utility(template, &train.subset(S), valid)` would: same distance
//! floats, same `(distance, index)` neighbor ordering, same vote
//! tie-breaking, same `correct / m` division. Batching is a physical
//! optimization only — it must never be observable in the scores.

use crate::dataset::Dataset;
use crate::linalg::{
    continue_squared_distance, squared_distance, squared_distances, Matrix, PrefixSplit,
};
use crate::models::knn::{k_nearest, majority_vote, neighbor_order};
use crate::{MlError, Result};
use nde_data::par::WorkerFailure;
use nde_data::pool::WorkerPool;
use std::convert::Infallible;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

/// Scores batches of coalitions against a fixed (train, valid) pair in one
/// validation pass, bit-identical to per-coalition retraining.
///
/// Implementations are built once per run (capturing whatever shared state
/// makes batching cheap — e.g. a distance matrix) and shared across worker
/// threads, hence the `Send + Sync` bound. Per-walk state lives in a
/// [`CoalitionChain`] the caller owns, so the scorer itself stays `&self`.
pub trait CoalitionScorer: Send + Sync {
    /// Utility of each coalition, in order, continuing `chain`.
    ///
    /// Each coalition is a non-empty, strictly ascending list of indices
    /// into the training set the scorer was prepared for. `chain` carries
    /// selection state from the caller's previous call (or is fresh); it
    /// may only make a coalition cheaper, never change its value, and it
    /// is left describing the last coalition.
    fn score_batch(&self, chain: &mut CoalitionChain, coalitions: &[&[usize]]) -> Vec<f64>;

    /// Number of training points the scorer was prepared for (coalition
    /// indices must stay below this).
    fn n_train(&self) -> usize;
}

/// Selection state one walk over coalitions carries from each coalition to
/// the next, across [`CoalitionScorer::score_batch`] calls.
///
/// For [`KnnCoalitionScorer`] it holds the last coalition scored and, per
/// validation point, that coalition's k nearest members in
/// [`neighbor_order`] and whether their vote is right. A chain is private
/// to one walk (one worker) and one scorer; a fresh chain holds nothing and
/// makes the next coalition take a full selection.
#[derive(Debug, Clone, Default)]
pub struct CoalitionChain {
    /// The coalition the state describes, ascending; empty for none.
    members: Vec<usize>,
    /// Row-major [n_valid × k]: each row's first `min(k, |members|)` slots
    /// are the point's nearest members, closest first.
    nearest: Vec<usize>,
    /// Per validation point: does the vote of its nearest members hit.
    correct: Vec<bool>,
}

impl CoalitionChain {
    /// A chain holding no state.
    pub fn new() -> CoalitionChain {
        CoalitionChain::default()
    }
}

/// Fill `out`, cut into rows of `width` (`width > 0`), on `pool` with up
/// to `threads` threads: `fill(scratch, v, row)` writes row `v` in place,
/// and each worker builds one `scratch` with `init` and reuses it for all
/// its rows. Row `v`'s content may depend only on `v`, which makes the
/// result identical for every thread count.
fn fill_rows<T: Send, S>(
    pool: &WorkerPool,
    threads: usize,
    out: &mut [T],
    width: usize,
    init: impl Fn() -> S + Sync,
    fill: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    let rows: Vec<Mutex<&mut [T]>> = out.chunks_mut(width).map(Mutex::new).collect();
    let stop = AtomicBool::new(false);
    let filled =
        pool.map_indexed_scratch(threads, 0..rows.len() as u64, &stop, init, |scratch, v| {
            // Each row is claimed by exactly one item, so its lock is never
            // contended and never seen poisoned.
            let mut row = rows[v as usize].lock().expect("a row is filled once");
            fill(scratch, v as usize, &mut row);
            Ok::<(), Infallible>(())
        });
    match filled {
        Ok(_) => {}
        Err(WorkerFailure::Panic(v, msg)) => panic!("filling row {v} panicked: {msg}"),
        Err(WorkerFailure::Err(_, never)) => match never {},
    }
}

/// The train→valid squared-distance matrix, computed once per run.
///
/// Row `v` holds the squared Euclidean distance from validation point `v`
/// to every training point, with exactly the floats
/// [`squared_distance`] produces — so selection over a row reproduces the
/// neighbor order a fresh [`crate::models::knn::KnnClassifier`] would see.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    n_train: usize,
    n_valid: usize,
    // Row-major [n_valid × n_train].
    dists: Vec<f64>,
}

impl DistanceTable {
    /// Compute all `train.len() × valid.len()` squared distances on the
    /// shared [`WorkerPool`] at full width; see [`DistanceTable::build`].
    ///
    /// # Panics
    ///
    /// If `train` and `valid` differ in width ([`Dataset::dim`]).
    pub fn new(train: &Dataset, valid: &Dataset) -> DistanceTable {
        let pool = WorkerPool::shared();
        DistanceTable::build(train, valid, &pool, pool.workers() + 1)
    }

    /// Compute all `train.len() × valid.len()` squared distances on `pool`
    /// with up to `threads` threads.
    ///
    /// Validation rows are split over the threads and each is written in
    /// place by [`squared_distances`], so every cell is exactly the float
    /// [`squared_distance`] gives, whatever `threads` is.
    ///
    /// # Panics
    ///
    /// If `train` and `valid` differ in width ([`Dataset::dim`]): the
    /// kernel indexes both rows, so mismatched data would otherwise not be
    /// caught.
    pub fn build(
        train: &Dataset,
        valid: &Dataset,
        pool: &WorkerPool,
        threads: usize,
    ) -> DistanceTable {
        assert_eq!(
            train.dim(),
            valid.dim(),
            "distance table over train and valid of different widths"
        );
        let n_train = train.len();
        let n_valid = valid.len();
        let mut dists = vec![0.0; n_train * n_valid];
        if n_train > 0 {
            fill_rows(
                pool,
                threads,
                &mut dists,
                n_train,
                || (),
                |(), v, row| squared_distances(&train.x, valid.x.row(v), row),
            );
        }
        DistanceTable {
            n_train,
            n_valid,
            dists,
        }
    }

    /// Renumber the training columns in place after rows were removed,
    /// inserted or moved: new column `i` is old column `map[i]`, or, for
    /// `None` (a *fresh* row), is computed from `train.x.row(i)` with
    /// [`squared_distance`].
    ///
    /// `train` is the new training set (`map.len()` rows) and `valid` the
    /// set the table was built from. A surviving row must be bit-identical
    /// to the old row it maps from; then the result is **bit-identical** to
    /// a fresh [`DistanceTable::new(train, valid)`](DistanceTable::new).
    ///
    /// No second table is built: each validation row is copied into one
    /// row of scratch and rewritten at its new width, in ascending order
    /// when the table shrinks and in descending order when it grows, so a
    /// row never overwrites a row not yet read.
    pub fn remap_columns(
        &mut self,
        map: &[Option<usize>],
        train: &Dataset,
        valid: &Dataset,
    ) -> Result<()> {
        let (n_old, n_new, m) = (self.n_train, map.len(), self.n_valid);
        if train.len() != n_new || valid.len() != m {
            return Err(MlError::InvalidArgument(format!(
                "remapping a {m}x{n_old} distance table to {n_new} columns but got {} train / {} valid rows",
                train.len(),
                valid.len()
            )));
        }
        if let Some(&bad) = map.iter().flatten().find(|&&o| o >= n_old) {
            return Err(MlError::InvalidArgument(format!(
                "row map names old row {bad} of {n_old}"
            )));
        }
        // `(new column, length, old column)`: maximal runs of new columns
        // that copy consecutive old ones, and each fresh column alone.
        let mut runs: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for (i, &from) in map.iter().enumerate() {
            match (runs.last_mut(), from) {
                (Some((_, len, Some(o))), Some(f)) if *o + *len == f => *len += 1,
                _ => runs.push((i, 1, from)),
            }
        }
        let mut scratch = vec![0.0; n_old];
        let mut remap_row = |dists: &mut [f64], v: usize| {
            scratch.copy_from_slice(&dists[v * n_old..(v + 1) * n_old]);
            let vx = valid.x.row(v);
            let row = &mut dists[v * n_new..(v + 1) * n_new];
            for &(i, len, from) in &runs {
                match from {
                    Some(o) => row[i..i + len].copy_from_slice(&scratch[o..o + len]),
                    None => row[i] = squared_distance(train.x.row(i), vx),
                }
            }
        };
        if n_new > n_old {
            self.dists.resize(m * n_new, 0.0);
            (0..m).rev().for_each(|v| remap_row(&mut self.dists, v));
        } else {
            (0..m).for_each(|v| remap_row(&mut self.dists, v));
            self.dists.truncate(m * n_new);
        }
        self.n_train = n_new;
        Ok(())
    }

    /// Squared distances from validation point `v` to every training point.
    pub fn row(&self, v: usize) -> &[f64] {
        &self.dists[v * self.n_train..(v + 1) * self.n_train]
    }

    /// Number of training points (row width).
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Number of validation points (row count).
    pub fn n_valid(&self) -> usize {
        self.n_valid
    }
}

/// A KNN model's votes on a fixed test set across *possible worlds* of one
/// training set: worlds that agree on every training cell except a
/// trailing run of columns in some rows.
///
/// A training row is *fixed* when it is the same in every world, and
/// *varying* from its first varying column `c0` on. Distances to fixed
/// rows, and each varying row's [`squared_distance`] fold over its columns
/// `0..c0`, are world-invariant, so [`KnnWorldVoter::new`] computes them
/// once, in one pooled pass over the test points: a [`PrefixSplit`]'s
/// exact pass up to the first column `w` any row varies in, continued
/// per varying row to its own `c0`. That pass reads the rows as 8-row
/// column-interleaved panels and folds each panel's rows in SIMD lanes
/// (AVX2 where the CPU reports it); each lane adds its own row's terms in
/// column order from `-0.0`, so every distance and prefix has
/// [`squared_distance`]'s bits. Per test point the voter keeps only the
/// `k` nearest fixed rows and the varying rows' prefixes; no test × train
/// table stays resident. A world then costs the varying rows' remaining
/// columns: [`KnnWorldVoter::vote`] continues each prefix with
/// `continue_squared_distance`, which adds the same terms in the same
/// order as one fold over the world's whole row.
///
/// # Bit-identity contract
///
/// The votes equal fitting a fresh [`crate::models::knn::KnnClassifier`]
/// on each world and predicting every test point. Distances are the same
/// floats, and `(distance, index)` is a strict total order, so a fixed row
/// among a world's k nearest is also among the k nearest fixed rows:
/// selecting k from those plus every varying row gives the same k-set as a
/// full [`k_nearest`]. The vote over that set is `KnnClassifier`'s
/// majority, ties toward the smaller class id.
#[derive(Debug)]
pub struct KnnWorldVoter<'a> {
    k: usize,
    labels: &'a [usize],
    n_classes: usize,
    test: &'a Matrix,
    /// `(row, c0)` of every varying row, rows ascending.
    varying: Vec<(usize, usize)>,
    /// Per test point: [`order_key`]s of its k nearest fixed rows, and the
    /// prefix of every varying row in `varying` order.
    points: Vec<(Vec<u128>, Vec<f64>)>,
}

impl<'a> KnnWorldVoter<'a> {
    /// Prepare the world-invariant part for `k` (≥ 1) neighbors on up to
    /// `threads` threads of the shared [`WorkerPool`].
    ///
    /// `fixed` holds every training cell's value in the worlds where it is
    /// fixed, in rows of `width` cells, and is read only here;
    /// `varying_from[r]` is row `r`'s first varying column (`width` for a
    /// fixed row). Returns `None` where fitting and predicting would fail
    /// or could meet a NaN distance (an empty training set, a plane that is
    /// not one row per `varying_from` entry, a label count other than the
    /// row count, fewer than 2 classes, a label out of range, a test width
    /// other than `width`, or a non-finite cell), so the caller's refit
    /// path reports exactly its own error.
    ///
    /// # Panics
    ///
    /// If a `varying_from` entry exceeds `width`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        k: usize,
        fixed: &[f64],
        width: usize,
        labels: &'a [usize],
        n_classes: usize,
        varying_from: &[usize],
        test: &'a Matrix,
        threads: usize,
    ) -> Option<KnnWorldVoter<'a>> {
        let n = varying_from.len();
        assert!(
            varying_from.iter().all(|&c| c <= width),
            "varying column past the width"
        );
        let finite = |cells: &[f64]| cells.iter().all(|v| v.is_finite());
        if n == 0
            || n.checked_mul(width) != Some(fixed.len())
            || labels.len() != n
            || n_classes < 2
            || labels.iter().any(|&l| l >= n_classes)
            || test.cols() != width
            || !finite(fixed)
            || !test.iter_rows().all(finite)
        {
            return None;
        }
        let k = k.max(1);
        let split = PrefixSplit::new(fixed, width, varying_from);
        let (complete, w) = (split.complete_rows(), split.shared_width());
        let varying: Vec<(usize, usize)> = split
            .open_rows()
            .iter()
            .map(|&r| (r, varying_from[r]))
            .collect();
        let stop = AtomicBool::new(false);
        let points = WorkerPool::shared().map_indexed_scratch(
            threads,
            0..test.rows() as u64,
            &stop,
            || (vec![0.0; n], Vec::with_capacity(complete.len())),
            |(dists, keys), t| {
                let x = test.row(t as usize);
                split.distances(x, dists);
                let (near, prefixes) = dists.split_at(complete.len());
                keys.clear();
                keys.extend(complete.iter().zip(near).map(|(&r, &d)| order_key(d, r)));
                retain_nearest(keys, k);
                let nearest = keys.to_vec();
                let prefixes = varying
                    .iter()
                    .zip(prefixes)
                    .map(|(&(r, c0), &p)| {
                        continue_squared_distance(p, &fixed[r * width..][w..c0], &x[w..c0])
                    })
                    .collect();
                Ok::<_, Infallible>((nearest, prefixes))
            },
        );
        let points = match points {
            Ok(points) => points.into_iter().map(|(_, point)| point).collect(),
            Err(WorkerFailure::Panic(t, msg)) => panic!("test point {t} panicked: {msg}"),
            Err(WorkerFailure::Err(_, never)) => match never {},
        };
        Some(KnnWorldVoter {
            k,
            labels,
            n_classes,
            test,
            varying,
            points,
        })
    }

    /// `(row, c0)` of every varying training row, rows ascending: the
    /// layout [`KnnWorldVoter::vote`] reads a world's cells in.
    pub fn varying_rows(&self) -> &[(usize, usize)] {
        &self.varying
    }

    /// One world's predictions as flat vote counts: entry
    /// `t * n_classes + c` is 1 if the world predicts class `c` for test
    /// point `t`, else 0.
    ///
    /// `cells` holds the world's values of each varying row's columns
    /// `c0..dim`, concatenated in [`KnnWorldVoter::varying_rows`] order.
    ///
    /// # Panics
    ///
    /// If `cells` is shorter than that layout.
    pub fn vote(&self, cells: &[f64]) -> Vec<usize> {
        let nc = self.n_classes;
        let mut votes = vec![0usize; self.points.len() * nc];
        let mut candidates: Vec<u128> = Vec::new();
        let mut neighbors: Vec<usize> = Vec::with_capacity(self.k);
        let mut counts = vec![0usize; nc];
        for (t, (nearest, prefixes)) in self.points.iter().enumerate() {
            let x = self.test.row(t);
            candidates.clear();
            candidates.extend_from_slice(nearest);
            let mut at = 0;
            for (&(r, c0), &prefix) in self.varying.iter().zip(prefixes) {
                let tail = &x[c0..];
                let d = continue_squared_distance(prefix, &cells[at..at + tail.len()], tail);
                at += tail.len();
                candidates.push(order_key(d, r));
            }
            retain_nearest(&mut candidates, self.k);
            neighbors.clear();
            neighbors.extend(candidates.iter().map(|&key| key as u64 as usize));
            votes[t * nc + majority_vote(&neighbors, self.labels, &mut counts)] += 1;
        }
        votes
    }
}

/// Keep in `keys` its `k` smallest [`order_key`]s, in no particular order:
/// the k-set [`k_nearest`] selects.
fn retain_nearest(keys: &mut Vec<u128>, k: usize) {
    if k < keys.len() {
        keys.select_nth_unstable(k);
        keys.truncate(k);
    }
}

/// An unsigned integer type that can hold a training-row index inside a
/// neighbor order (see [`neighbor_orders`]); narrower types halve the
/// memory of a kept order.
pub trait OrderIndex: Copy + Send + Sync + 'static {
    /// The largest training set whose every index fits.
    const MAX_LEN: usize;

    /// The cell for training row `i` (`i < MAX_LEN`).
    fn from_index(i: usize) -> Self;

    /// The training row this cell names.
    fn index(self) -> usize;
}

impl OrderIndex for u16 {
    const MAX_LEN: usize = u16::MAX as usize + 1;

    #[inline]
    fn from_index(i: usize) -> u16 {
        i as u16
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl OrderIndex for u32 {
    const MAX_LEN: usize = u32::MAX as usize + 1;

    #[inline]
    fn from_index(i: usize) -> u32 {
        i as u32
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Every training row in [`neighbor_order`] per validation point, computed
/// on `pool` with up to `threads` threads.
///
/// Row `v` of the result (`train.len()` cells, row-major) lists all
/// training indices nearest first, exact distance ties by index — the full
/// order whose `k`-prefix is [`k_nearest`] for every `k`. Each worker
/// computes one validation row's distances at a time into its own scratch
/// row with [`squared_distances`], so the cells order exactly the floats a
/// [`DistanceTable`] holds, but no `m × n` table is ever built. The result
/// is the same for every `threads` value.
///
/// # Panics
///
/// If `train` and `valid` differ in width, if `train` has more than
/// `T::MAX_LEN` rows, or if a distance is NaN (reject non-finite features
/// first, e.g. with [`Dataset::first_non_finite`]).
pub fn neighbor_orders<T: OrderIndex>(
    train: &Dataset,
    valid: &Dataset,
    pool: &WorkerPool,
    threads: usize,
) -> Vec<T> {
    assert_eq!(
        train.dim(),
        valid.dim(),
        "neighbor orders over train and valid of different widths"
    );
    let n = train.len();
    assert!(n <= T::MAX_LEN, "{n} training rows overflow the index type");
    let mut orders = vec![T::from_index(0); n * valid.len()];
    if n > 0 {
        fill_rows(
            pool,
            threads,
            &mut orders,
            n,
            || (vec![0.0; n], vec![0u128; n]),
            |(dists, keys), v, row| {
                squared_distances(&train.x, valid.x.row(v), dists);
                for (i, (key, &d)) in keys.iter_mut().zip(dists.iter()).enumerate() {
                    *key = order_key(d, i);
                }
                keys.sort_unstable();
                for (cell, &key) in row.iter_mut().zip(keys.iter()) {
                    *cell = T::from_index(key as u64 as usize);
                }
            },
        );
    }
    orders
}

/// A key whose integer order is [`neighbor_order`] for squared distance
/// `d` of training row `i`: the distance's bits above the index.
///
/// Squared distances are `+0.0`, positive or `+∞` — plus `−0.0`, the empty
/// sum of zero-width rows, which `d + 0.0` turns into the `+0.0` it equals
/// — and the bits of such floats order as the floats do.
///
/// # Panics
///
/// If `d` is NaN, like [`neighbor_order`].
#[inline]
fn order_key(d: f64, i: usize) -> u128 {
    assert!(!d.is_nan(), "finite distances");
    (u128::from((d + 0.0).to_bits()) << 64) | i as u128
}

/// Append to `added` the members `cur` adds to `prev` when `prev ⊆ cur`
/// (both strictly ascending), found by one merge walk; `false` (with
/// `added` in an unspecified state) when `prev` holds a row `cur` lacks.
fn added_members(prev: &[usize], cur: &[usize], added: &mut Vec<usize>) -> bool {
    let mut rest = cur.iter();
    for &p in prev {
        loop {
            match rest.next() {
                Some(&c) if c < p => added.push(c),
                Some(&c) if c == p => break,
                _ => return false,
            }
        }
    }
    added.extend(rest);
    true
}

/// Insert training row `i` into `nearest[..*len]`, a point's nearest rows
/// so far sorted in [`neighbor_order`] over `dists`, keeping at most
/// `nearest.len()` (= k) of the grown set. Returns whether the set changed.
#[inline]
fn insert_nearest(nearest: &mut [usize], len: &mut usize, i: usize, dists: &[f64]) -> bool {
    let k = nearest.len();
    if *len == k && neighbor_order(dists, nearest[k - 1], i).is_lt() {
        return false;
    }
    let at = nearest[..*len].partition_point(|&j| neighbor_order(dists, j, i).is_lt());
    let end = (*len).min(k - 1);
    nearest.copy_within(at..end, at + 1);
    nearest[at] = i;
    *len = (*len + 1).min(k);
    true
}

/// One-pass batch scorer for the KNN utility.
///
/// Reproduces `utility(&KnnClassifier::new(k), &train.subset(S), valid)`
/// for every coalition `S`: because `S` is sorted, partial selection by
/// `(distance, global index)` over the shared [`DistanceTable`] row visits
/// members in the same order a subset-local sort would, and majority voting
/// with ties toward the smaller class id matches
/// [`crate::models::knn::KnnClassifier`]'s per-point prediction exactly.
///
/// **The chain contract.** A coalition that contains the one before it —
/// the [`CoalitionChain`]'s recorded coalition for the first of a call —
/// is scored by inserting only the added members into each validation
/// point's sorted k nearest, O(k) per member (one comparison with the k-th
/// when the member does not enter), and a point is re-voted only when its
/// k nearest changed. Any other coalition (the first of a fresh chain, a
/// permutation's first prefix, one that dropped a member) takes a full
/// selection and restarts the chain. Under `(distance, index)` the k
/// nearest of a set are one set however they were reached, and the vote
/// ignores their order, so a chain serves any coalition that contains its
/// recorded set — even one from another walk — and the utilities are
/// bit-identical to a fresh selection. A TMC permutation therefore pays one
/// full selection, of one member, whatever the batch width.
#[derive(Debug)]
pub struct KnnCoalitionScorer {
    table: DistanceTable,
    k: usize,
    train_y: Vec<usize>,
    valid_y: Vec<usize>,
    n_classes: usize,
}

impl KnnCoalitionScorer {
    /// Precompute the distance table for `(train, valid)` with `k` (≥ 1)
    /// neighbors.
    pub fn new(k: usize, train: &Dataset, valid: &Dataset) -> KnnCoalitionScorer {
        KnnCoalitionScorer {
            table: DistanceTable::new(train, valid),
            k: k.max(1),
            train_y: train.y.clone(),
            valid_y: valid.y.clone(),
            n_classes: train.n_classes,
        }
    }

    /// The shared distance table.
    pub fn table(&self) -> &DistanceTable {
        &self.table
    }
}

impl CoalitionScorer for KnnCoalitionScorer {
    fn score_batch(&self, chain: &mut CoalitionChain, coalitions: &[&[usize]]) -> Vec<f64> {
        let m = self.table.n_valid();
        let Some(&last) = coalitions.last() else {
            return Vec::new();
        };
        if m == 0 {
            // `Classifier::accuracy` returns 0.0 on an empty eval set.
            return vec![0.0; coalitions.len()];
        }
        let k = self.k;
        if chain.nearest.len() != m * k {
            // A fresh chain: no state to continue.
            chain.members.clear();
            chain.nearest.resize(m * k, 0);
            chain.correct.resize(m, false);
        }
        // Per coalition, the members it adds to its predecessor (the
        // chain's coalition for the first) as a range of `added`, or `None`
        // for a full selection.
        let mut added: Vec<usize> = Vec::new();
        let steps: Vec<Option<(usize, usize)>> = coalitions
            .iter()
            .enumerate()
            .map(|(c, &cur)| {
                let prev = match c.checked_sub(1) {
                    Some(p) => coalitions[p],
                    None => &chain.members,
                };
                let from = added.len();
                if !prev.is_empty() && added_members(prev, cur, &mut added) {
                    Some((from, added.len()))
                } else {
                    added.truncate(from);
                    None
                }
            })
            .collect();
        let mut correct = vec![0usize; coalitions.len()];
        let mut sel: Vec<usize> = Vec::new();
        let mut votes = vec![0usize; self.n_classes];
        let held = chain.members.len().min(k);
        // Outer loop over validation points: each distance row is read once
        // and scores every coalition in the batch before moving on.
        for v in 0..m {
            let row = self.table.row(v);
            let truth = self.valid_y[v];
            let nearest = &mut chain.nearest[v * k..(v + 1) * k];
            let mut len = held;
            let mut hit = chain.correct[v];
            for (ci, (&members, step)) in coalitions.iter().zip(&steps).enumerate() {
                let moved = match *step {
                    Some((from, to)) => {
                        let mut moved = false;
                        for &i in &added[from..to] {
                            moved |= insert_nearest(nearest, &mut len, i, row);
                        }
                        moved
                    }
                    None => {
                        sel.clear();
                        sel.extend_from_slice(members);
                        let by_distance = |&a: &usize, &b: &usize| neighbor_order(row, a, b);
                        if k < sel.len() {
                            // Partial selection of the k nearest members;
                            // ties break by global index, which equals the
                            // subset-local order because `members` is
                            // ascending.
                            sel.select_nth_unstable_by(k, by_distance);
                            sel.truncate(k);
                        }
                        // Sorted, so a nested successor can insert into it.
                        sel.sort_unstable_by(by_distance);
                        len = sel.len();
                        nearest[..len].copy_from_slice(&sel);
                        true
                    }
                };
                if moved {
                    hit = majority_vote(&nearest[..len], &self.train_y, &mut votes) == truth;
                }
                correct[ci] += usize::from(hit);
            }
            chain.correct[v] = hit;
        }
        chain.members.clear();
        chain.members.extend_from_slice(last);
        correct.iter().map(|&c| c as f64 / m as f64).collect()
    }

    fn n_train(&self) -> usize {
        self.table.n_train()
    }
}

/// Maintains a model's validation accuracy across single-example edits to
/// the training data, without refitting from scratch.
///
/// This is the model-side half of incremental cleaning: the iterative loop
/// accepts one fix at a time (a label flip, a feature repair), and a
/// prepared evaluator folds that fix into its cached state instead of
/// re-paying the full fit + evaluation sweep.
///
/// # Bit-identity contract
///
/// After any sequence of [`set_label`](IncrementalLabelEval::set_label) /
/// [`update_features`](IncrementalLabelEval::update_features) /
/// [`remap_rows`](IncrementalLabelEval::remap_rows) calls,
/// [`accuracy`](IncrementalLabelEval::accuracy) must return *exactly* the
/// `f64` that fitting a fresh clone of the model on the current training
/// data and calling [`crate::model::Classifier::accuracy`] on the
/// evaluation set would — incremental maintenance is a physical
/// optimization only, never observable in the score.
pub trait IncrementalLabelEval: Send {
    /// Accuracy on the evaluation set under the current training data.
    fn accuracy(&self) -> f64;

    /// Record a label change for one training example and refresh only the
    /// evaluation points that can see it.
    fn set_label(&mut self, row: usize, label: usize) -> Result<()>;

    /// Record feature changes: `train` is the full updated training
    /// dataset (same shape and labels as currently held), `changed` the
    /// rows whose feature vectors moved.
    fn update_features(&mut self, changed: &[usize], train: &Dataset) -> Result<()>;

    /// Record a change of the training rows themselves: `train` is the new
    /// training set, and row `i` of it is the old row `map[i]` (its
    /// features and label bit-identical to that row's), or a *fresh* row
    /// when `map[i]` is `None`. Old rows no entry names were removed.
    fn remap_rows(&mut self, map: &[Option<usize>], train: &Dataset) -> Result<()>;
}

/// `InvalidArgument` naming the first NaN or infinite feature of `data`:
/// its distances could not be ordered.
fn reject_non_finite(name: &str, data: &Dataset) -> Result<()> {
    match data.first_non_finite() {
        Some((row, col)) => Err(MlError::InvalidArgument(format!(
            "{name} has a non-finite feature at row {row}, column {col}"
        ))),
        None => Ok(()),
    }
}

/// [`IncrementalLabelEval`] for KNN.
///
/// KNN's "fit" only remembers the training set, so its accuracy sweep is
/// dominated by the train→valid distance computation — which label fixes
/// never touch. The evaluator keeps the [`DistanceTable`], each validation
/// point's k-nearest neighbor list, and an inverted index (training row →
/// validation points holding it among their neighbors):
///
/// - a **label** fix re-votes only the validation points in the inverted
///   index entry — O(k) each, microseconds against the full sweep's
///   O(m·n·d);
/// - a **row** change (rows removed, inserted or renumbered) gathers the
///   surviving distance columns in place via
///   [`DistanceTable::remap_columns`], computes only the fresh rows'
///   columns, and re-selects only the validation points whose neighbor
///   list it can change (see [`IncrementalLabelEval::remap_rows`] below);
/// - a **feature** fix is the row change that keeps every row in place
///   and treats the moved rows as fresh.
///
/// Building it (and re-selecting after a row change) takes the k nearest
/// per validation point by linear-time partial selection, split over the
/// shared [`WorkerPool`]; the lists are the same for every thread count.
#[derive(Debug, Clone)]
pub struct IncrementalKnnEval {
    table: DistanceTable,
    /// The k the evaluator was built with.
    configured_k: usize,
    /// Neighbors per validation point: `configured_k` clamped to
    /// `1..=train.len()`.
    k: usize,
    /// The current training labels.
    labels: Vec<usize>,
    /// Training feature width and class count.
    dim: usize,
    n_classes: usize,
    valid: Dataset,
    /// Row-major [n_valid × k]: per validation point the k nearest
    /// training rows, closest first, ties by index — exactly
    /// `KnnClassifier::neighbors`.
    neighbors: Vec<usize>,
    /// Inverted index: the validation points with training row `i` among
    /// their neighbors are `viewers[viewers_at[i]..viewers_at[i + 1]]`.
    viewers: Vec<usize>,
    viewers_at: Vec<usize>,
    correct: Vec<bool>,
    n_correct: usize,
    pool: Arc<WorkerPool>,
    threads: usize,
}

impl IncrementalKnnEval {
    /// Prepare the evaluator (computes the distance table and all neighbor
    /// lists once, on the shared [`WorkerPool`]). Rejects an empty training
    /// set, matching [`crate::model::Classifier::fit`] for KNN, a
    /// validation set whose width differs from the training set's, and a
    /// NaN or infinite feature in either set (naming its row and column).
    pub fn new(k: usize, train: &Dataset, valid: &Dataset) -> Result<IncrementalKnnEval> {
        let pool = WorkerPool::shared();
        let threads = pool.workers() + 1;
        IncrementalKnnEval::on_pool(k, train, valid, pool, threads)
    }

    /// [`IncrementalKnnEval::new`] on `pool` with up to `threads` threads
    /// (the tests pin both to prove thread invariance).
    fn on_pool(
        k: usize,
        train: &Dataset,
        valid: &Dataset,
        pool: Arc<WorkerPool>,
        threads: usize,
    ) -> Result<IncrementalKnnEval> {
        if train.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if train.dim() != valid.dim() {
            return Err(MlError::InvalidArgument(format!(
                "train has {} features but valid has {}",
                train.dim(),
                valid.dim()
            )));
        }
        reject_non_finite("train", train)?;
        reject_non_finite("valid", valid)?;
        let mut eval = IncrementalKnnEval {
            table: DistanceTable::build(train, valid, &pool, threads),
            configured_k: k,
            k: k.clamp(1, train.len()),
            labels: train.y.clone(),
            dim: train.dim(),
            n_classes: train.n_classes,
            valid: valid.clone(),
            neighbors: Vec::new(),
            viewers: Vec::new(),
            viewers_at: Vec::new(),
            correct: vec![false; valid.len()],
            n_correct: 0,
            pool,
            threads,
        };
        eval.reselect_all();
        Ok(eval)
    }

    /// Re-derive neighbor lists, the inverted index, and every vote from
    /// the (current) distance table.
    fn reselect_all(&mut self) {
        let n = self.labels.len();
        let k = self.k;
        let table = &self.table;
        self.neighbors.resize(self.valid.len() * k, 0);
        fill_rows(
            &self.pool,
            self.threads,
            &mut self.neighbors,
            k,
            || Vec::with_capacity(n),
            |nearest, v, row| {
                k_nearest(table.row(v), k, nearest);
                row.copy_from_slice(nearest);
            },
        );
        self.index_and_vote();
    }

    /// Re-derive the inverted index and every vote from the neighbor
    /// lists, in O(m·k).
    fn index_and_vote(&mut self) {
        let n = self.labels.len();
        let k = self.k;
        // Inverted index by counting sort: count each row's viewers, turn
        // the counts into start offsets, place the viewers (ascending `v`)
        // while advancing each offset to its end, then shift back.
        self.viewers_at.clear();
        self.viewers_at.resize(n + 1, 0);
        for &i in &self.neighbors {
            self.viewers_at[i] += 1;
        }
        let mut start = 0;
        for at in &mut self.viewers_at {
            let count = *at;
            *at = start;
            start += count;
        }
        self.viewers.resize(self.neighbors.len(), 0);
        for (v, nb) in self.neighbors.chunks_exact(k).enumerate() {
            for &i in nb {
                self.viewers[self.viewers_at[i]] = v;
                self.viewers_at[i] += 1;
            }
        }
        self.viewers_at.copy_within(0..n, 1);
        self.viewers_at[0] = 0;
        let mut votes = vec![0; self.n_classes];
        self.n_correct = 0;
        for (v, nb) in self.neighbors.chunks_exact(k).enumerate() {
            let ok = majority_vote(nb, &self.labels, &mut votes) == self.valid.y[v];
            self.correct[v] = ok;
            self.n_correct += usize::from(ok);
        }
    }

    /// Validation point `v`'s neighbors, closest first.
    fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[v * self.k..(v + 1) * self.k]
    }

    /// Re-vote validation point `v` (ties toward the smaller class id,
    /// like `KnnClassifier::predict_one`) and update the correct count.
    fn revote(&mut self, v: usize, votes: &mut [usize]) {
        let now = majority_vote(self.neighbors(v), &self.labels, votes) == self.valid.y[v];
        if now != self.correct[v] {
            self.correct[v] = now;
            if now {
                self.n_correct += 1;
            } else {
                self.n_correct -= 1;
            }
        }
    }

    /// The maintained distance table.
    pub fn table(&self) -> &DistanceTable {
        &self.table
    }

    /// The current training labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

impl IncrementalLabelEval for IncrementalKnnEval {
    fn accuracy(&self) -> f64 {
        if self.valid.is_empty() {
            return 0.0;
        }
        self.n_correct as f64 / self.valid.len() as f64
    }

    fn set_label(&mut self, row: usize, label: usize) -> Result<()> {
        if row >= self.labels.len() {
            return Err(MlError::InvalidArgument(format!(
                "label fix row {row} out of bounds for {} training rows",
                self.labels.len()
            )));
        }
        if label >= self.n_classes {
            return Err(MlError::InvalidLabel {
                label,
                n_classes: self.n_classes,
            });
        }
        if self.labels[row] == label {
            return Ok(());
        }
        self.labels[row] = label;
        // Distances are untouched, so neighbor sets are untouched: only
        // the votes of validation points seeing this row can change.
        let mut votes = vec![0; self.n_classes];
        for p in self.viewers_at[row]..self.viewers_at[row + 1] {
            self.revote(self.viewers[p], &mut votes);
        }
        Ok(())
    }

    /// A row remap with every row in place and the `changed` rows fresh:
    /// only their distance columns are recomputed, and only the validation
    /// points they can enter or leave are re-selected.
    fn update_features(&mut self, changed: &[usize], train: &Dataset) -> Result<()> {
        let n = self.labels.len();
        if train.len() != n || train.dim() != self.dim || train.n_classes != self.n_classes {
            return Err(MlError::InvalidArgument(
                "feature update must keep the training set's shape".into(),
            ));
        }
        if let Some(&bad) = changed.iter().find(|&&i| i >= n) {
            return Err(MlError::InvalidArgument(format!(
                "changed row {bad} out of bounds for {n} training rows"
            )));
        }
        let mut map: Vec<Option<usize>> = (0..n).map(Some).collect();
        for &i in changed {
            map[i] = None;
        }
        self.remap_rows(&map, train)
    }

    /// Gathers the surviving distance columns and computes the fresh ones
    /// ([`DistanceTable::remap_columns`]). A validation point none of whose
    /// k nearest was removed keeps its neighbor list, renamed through
    /// `map`, with the fresh rows that come before its k-th in `(distance,
    /// new index)` order merged in and the list cut back to k: every other
    /// surviving row came after the old k-th, so the merged list is exactly
    /// the new k nearest. A point that lost a neighbor is re-selected from
    /// the table. Renaming preserves the order only when `map` is strictly
    /// increasing on the survivors, and the list length only when the
    /// clamped k stays put, so otherwise every point is re-selected (still
    /// without recomputing a distance).
    fn remap_rows(&mut self, map: &[Option<usize>], train: &Dataset) -> Result<()> {
        if train.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if train.len() != map.len() || train.dim() != self.dim || train.n_classes != self.n_classes
        {
            return Err(MlError::InvalidArgument(format!(
                "a row remap needs one training row per map entry ({} for {}) and must keep \
                 the training set's width and classes",
                train.len(),
                map.len()
            )));
        }
        reject_non_finite("train", train)?;
        self.table.remap_columns(map, train, &self.valid)?;
        let n_old = self.labels.len();
        self.labels.clone_from(&train.y);
        let k = self.configured_k.clamp(1, train.len());
        let increasing = map.iter().flatten().is_sorted_by(|a, b| a < b);
        if !increasing || k != self.k {
            self.k = k;
            self.reselect_all();
            return Ok(());
        }
        // The new index of every surviving old row.
        let mut renamed = vec![None; n_old];
        for (i, from) in map.iter().enumerate() {
            if let Some(o) = *from {
                renamed[o] = Some(i);
            }
        }
        let fresh: Vec<usize> = (0..map.len()).filter(|&i| map[i].is_none()).collect();
        let (mut nearest, mut ahead) = (Vec::new(), Vec::new());
        for (v, nb) in self.neighbors.chunks_exact_mut(k).enumerate() {
            let row = self.table.row(v);
            let kept = nb.iter_mut().all(|i| match renamed[*i] {
                Some(j) => {
                    *i = j;
                    true
                }
                None => false,
            });
            if !kept {
                k_nearest(row, k, &mut nearest);
                nb.copy_from_slice(&nearest);
                continue;
            }
            ahead.clear();
            ahead.extend(
                fresh
                    .iter()
                    .copied()
                    .filter(|&f| neighbor_order(row, f, nb[k - 1]).is_lt()),
            );
            if ahead.is_empty() {
                continue;
            }
            ahead.sort_unstable_by(|&a, &b| neighbor_order(row, a, b));
            // Merge the two ordered lists, keeping the first k.
            nearest.clear();
            let (mut a, mut b) = (0, 0);
            while nearest.len() < k {
                // `a < k`: fewer than k entries are taken so far.
                let take_fresh = b < ahead.len() && neighbor_order(row, ahead[b], nb[a]).is_lt();
                if take_fresh {
                    nearest.push(ahead[b]);
                    b += 1;
                } else {
                    nearest.push(nb[a]);
                    a += 1;
                }
            }
            nb.copy_from_slice(&nearest);
        }
        self.index_and_vote();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{utility, Classifier};
    use crate::models::knn::KnnClassifier;
    use nde_data::generate::blobs::two_gaussians;
    use nde_data::rng::Rng;

    fn workload(n: usize, m: usize, seed: u64) -> (Dataset, Dataset) {
        let nd = two_gaussians(n + m, 3, 3.0, seed);
        let all = Dataset::try_from(&nd).unwrap();
        let mut train = all.subset(&(0..n).collect::<Vec<_>>());
        let valid = all.subset(&(n..n + m).collect::<Vec<_>>());
        for f in [1, 4, 9] {
            if f < train.len() {
                train.y[f] = 1 - train.y[f];
            }
        }
        (train, valid)
    }

    /// Integer-grid features over a few labels with every row duplicated
    /// at least once: most distances tie exactly with several others.
    fn tie_heavy(n: usize, seed: u64) -> Dataset {
        let mut rng = nde_data::rng::seeded(seed);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        while rows.len() < n {
            let row: Vec<f64> = (0..2).map(|_| rng.gen_range(-2i64..3) as f64).collect();
            let label = rng.gen_range(0..3usize);
            for _ in 0..rng.gen_range(1..4usize).min(n - rows.len()) {
                rows.push(row.clone());
                y.push(label);
            }
        }
        Dataset::from_rows(rows, y, 3).unwrap()
    }

    /// The neighbor lists by the definition: every training row sorted by
    /// (distance, index), first `k` kept.
    fn full_sort_neighbors(train: &Dataset, x: &[f64], k: usize) -> Vec<usize> {
        let mut all: Vec<(f64, usize)> = train
            .x
            .iter_rows()
            .enumerate()
            .map(|(i, r)| (squared_distance(r, x), i))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn selection_matches_the_full_sort_under_ties() {
        for n in [1, 4, 5, 37] {
            let train = tie_heavy(n, n as u64);
            let valid = tie_heavy(11, 100 + n as u64);
            let table = DistanceTable::new(&train, &valid);
            for k in [1, 3, n - 1, n, n + 5] {
                let mut knn = KnnClassifier::new(k);
                knn.fit(&train).unwrap();
                let eval = IncrementalKnnEval::new(k, &train, &valid).unwrap();
                let mut nearest = Vec::new();
                for (v, x) in valid.x.iter_rows().enumerate() {
                    let want = full_sort_neighbors(&train, x, k);
                    k_nearest(table.row(v), k, &mut nearest);
                    assert_eq!(nearest, want, "k_nearest n={n} k={k} v={v}");
                    // Both models clamp k to at least 1.
                    let want = full_sort_neighbors(&train, x, k.max(1));
                    assert_eq!(knn.neighbors(x), want, "classifier n={n} k={k} v={v}");
                    assert_eq!(eval.neighbors(v), want, "evaluator n={n} k={k} v={v}");
                }
                assert_eq!(eval.accuracy(), knn.accuracy(&valid), "n={n} k={k}");
                // No validation points: nothing to select, accuracy 0.0.
                let empty = valid.subset(&[]);
                let eval = IncrementalKnnEval::new(k, &train, &empty).unwrap();
                assert!(eval.neighbors.is_empty());
                assert_eq!(eval.accuracy(), 0.0);
            }
        }
    }

    #[test]
    fn build_and_selection_are_thread_invariant() {
        // Enough rows that the fills span several pool claims.
        let (train, valid) = workload(240, 120, 11);
        let (mut moved, _) = workload(240, 120, 12);
        moved.y = train.y.clone();
        let changed: Vec<usize> = (0..240).step_by(7).collect();
        let mut rows: Vec<Vec<f64>> = train.x.iter_rows().map(<[f64]>::to_vec).collect();
        for &i in &changed {
            rows[i] = moved.x.row(i).to_vec();
        }
        moved.x = crate::linalg::Matrix::from_rows(rows).unwrap();
        let run = |workers: usize| {
            let pool = Arc::new(WorkerPool::new(workers));
            let threads = workers + 1;
            let table = DistanceTable::build(&train, &valid, &pool, threads);
            let mut eval =
                IncrementalKnnEval::on_pool(5, &train, &valid, Arc::clone(&pool), threads).unwrap();
            let built = (eval.neighbors.clone(), eval.accuracy().to_bits());
            eval.update_features(&changed, &moved).unwrap();
            if workers > 0 {
                assert!(
                    pool.stats().jobs > 0,
                    "{threads} threads never used the pool"
                );
            }
            let bits: Vec<u64> = table.dists.iter().map(|d| d.to_bits()).collect();
            (
                bits,
                built,
                eval.neighbors.clone(),
                eval.accuracy().to_bits(),
            )
        };
        let inline = run(0);
        let refit = |train: &Dataset| utility(&KnnClassifier::new(5), train, &valid).unwrap();
        assert_eq!(f64::from_bits(inline.1 .1), refit(&train));
        assert_eq!(f64::from_bits(inline.3), refit(&moved));
        for workers in [1, 3, 6] {
            assert!(
                run(workers) == inline,
                "{} threads differ from 1",
                workers + 1
            );
        }
    }

    #[test]
    fn mismatched_widths_are_rejected() {
        let (train, valid) = workload(8, 4, 13);
        let narrow = Dataset::from_rows(vec![vec![0.0, 1.0]; 4], vec![0, 1, 0, 1], 2).unwrap();
        assert!(matches!(
            IncrementalKnnEval::new(3, &train, &narrow),
            Err(MlError::InvalidArgument(_))
        ));
        assert!(matches!(
            IncrementalKnnEval::new(3, &narrow, &valid),
            Err(MlError::InvalidArgument(_))
        ));
        assert!(KnnClassifier::new(3)
            .incremental_eval(&train, &narrow)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn distance_table_panics_on_mismatched_widths() {
        let (train, _) = workload(8, 4, 14);
        let narrow = Dataset::from_rows(vec![vec![0.0, 1.0]; 4], vec![0, 1, 0, 1], 2).unwrap();
        DistanceTable::new(&train, &narrow);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn distance_table_build_panics_on_mismatched_widths() {
        let (train, _) = workload(8, 4, 15);
        let narrow = Dataset::from_rows(vec![vec![0.0, 1.0]; 4], vec![0, 1, 0, 1], 2).unwrap();
        DistanceTable::build(&narrow, &train, &WorkerPool::new(0), 1);
    }

    #[test]
    fn distance_table_matches_squared_distance() {
        let (train, valid) = workload(12, 6, 1);
        let table = DistanceTable::new(&train, &valid);
        assert_eq!(table.n_train(), 12);
        assert_eq!(table.n_valid(), 6);
        for (v, vx) in valid.x.iter_rows().enumerate() {
            for (i, tx) in train.x.iter_rows().enumerate() {
                assert_eq!(table.row(v)[i], squared_distance(tx, vx));
            }
        }
    }

    #[test]
    fn knn_scorer_is_bit_identical_to_retraining() {
        let (train, valid) = workload(16, 8, 2);
        for k in [1, 3, 5, 100] {
            let scorer = KnnCoalitionScorer::new(k, &train, &valid);
            let coalitions: Vec<Vec<usize>> = vec![
                vec![0],
                vec![3, 7],
                vec![0, 1, 2, 3, 4],
                (0..16).collect(),
                vec![2, 5, 11, 15],
            ];
            let refs: Vec<&[usize]> = coalitions.iter().map(|c| c.as_slice()).collect();
            let batched = scorer.score_batch(&mut CoalitionChain::new(), &refs);
            for (c, &got) in coalitions.iter().zip(&batched) {
                let want = utility(&KnnClassifier::new(k), &train.subset(c), &valid).unwrap();
                assert_eq!(got, want, "k={k} coalition={c:?}");
            }
        }
    }

    /// `score_batch` against a `utility` refit per coalition, bit for bit:
    /// the batch in one call on a fresh chain, and in calls of `width`
    /// coalitions continuing one chain.
    fn assert_batch_matches_refit(
        train: &Dataset,
        valid: &Dataset,
        k: usize,
        batch: &[Vec<usize>],
    ) {
        let scorer = KnnCoalitionScorer::new(k, train, valid);
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let want: Vec<u64> = batch
            .iter()
            .map(|c| {
                let u = utility(&KnnClassifier::new(k), &train.subset(c), valid).unwrap();
                u.to_bits()
            })
            .collect();
        for width in [refs.len().max(1), 1, 3, 16] {
            let mut chain = CoalitionChain::new();
            let got: Vec<u64> = refs
                .chunks(width)
                .flat_map(|wave| scorer.score_batch(&mut chain, wave))
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, want, "k={k} width={width} batch={batch:?}");
        }
    }

    /// The sorted prefixes of a seeded permutation of `0..n`, as a TMC
    /// permutation walk queues them.
    fn prefixes(n: usize, seed: u64) -> Vec<Vec<usize>> {
        use nde_data::rng::SliceRandom;
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
    fn consecutive_prefixes_match_refits() {
        let (train, valid) = workload(40, 15, 31);
        for k in [1, 3, 5] {
            let all = prefixes(40, k as u64);
            // A whole walk in one batch, and as TMC waves of 16.
            assert_batch_matches_refit(&train, &valid, k, &all);
            for wave in all.chunks(16) {
                assert_batch_matches_refit(&train, &valid, k, wave);
            }
        }
    }

    #[test]
    fn prefixes_with_gaps_match_refits() {
        // Prefixes a memo already served are missing from the batch, so a
        // coalition can add several members to its predecessor.
        let (train, valid) = workload(30, 12, 32);
        let all = prefixes(30, 7);
        let gapped: Vec<Vec<usize>> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| !matches!(i % 7, 2 | 3 | 5))
            .map(|(_, c)| c.clone())
            .collect();
        for k in [1, 4] {
            assert_batch_matches_refit(&train, &valid, k, &gapped);
        }
    }

    #[test]
    fn non_nested_and_repeated_coalitions_match_refits() {
        let (train, valid) = workload(20, 10, 33);
        let batch = vec![
            vec![0, 4, 9, 13],
            vec![0, 4, 9, 13],
            vec![0, 4, 9, 13, 17],
            vec![1, 2, 3],
            vec![0, 1, 2, 3, 19],
            vec![1, 2, 3],
            vec![2, 3],
            vec![2, 3, 5, 6, 7, 8, 10, 11, 12],
            vec![2, 3, 5, 6, 7, 8, 10, 11, 12],
        ];
        for k in [1, 2, 3] {
            assert_batch_matches_refit(&train, &valid, k, &batch);
        }
    }

    #[test]
    fn k_at_least_the_coalition_size_matches_refits() {
        let (train, valid) = workload(12, 8, 34);
        let all = prefixes(12, 3);
        for k in [5, 12, 50] {
            assert_batch_matches_refit(&train, &valid, k, &all);
        }
    }

    #[test]
    fn nested_batches_match_refits_under_ties() {
        let train = tie_heavy(48, 35);
        let valid = tie_heavy(17, 36);
        for k in [1, 2, 3, 5] {
            let all = prefixes(48, 10 + k as u64);
            assert_batch_matches_refit(&train, &valid, k, &all);
            let gapped: Vec<Vec<usize>> = all.iter().step_by(3).cloned().collect();
            assert_batch_matches_refit(&train, &valid, k, &gapped);
        }
    }

    #[test]
    fn added_members_is_the_difference_of_a_superset() {
        let added_members = |prev: &[usize], cur: &[usize]| {
            let mut added = Vec::new();
            super::added_members(prev, cur, &mut added).then_some(added)
        };
        assert_eq!(added_members(&[], &[1, 2]), Some(vec![1, 2]));
        assert_eq!(
            added_members(&[2, 5], &[1, 2, 3, 5, 8]),
            Some(vec![1, 3, 8])
        );
        assert_eq!(added_members(&[2, 5], &[2, 5]), Some(vec![]));
        assert_eq!(added_members(&[2, 5], &[2, 4]), None);
        assert_eq!(added_members(&[2, 5], &[1, 2]), None);
        assert_eq!(added_members(&[0], &[1, 2]), None);
    }

    #[test]
    fn neighbor_orders_are_full_sorts_at_every_thread_count() {
        let train = tie_heavy(37, 37);
        let valid = tie_heavy(40, 38);
        let mut want = Vec::new();
        for x in valid.x.iter_rows() {
            want.extend(full_sort_neighbors(&train, x, train.len()));
        }
        for workers in [0, 1, 3, 6] {
            let pool = WorkerPool::new(workers);
            let narrow: Vec<u16> = neighbor_orders(&train, &valid, &pool, workers + 1);
            let wide: Vec<u32> = neighbor_orders(&train, &valid, &pool, workers + 1);
            assert!(narrow.iter().map(|&i| i.index()).eq(want.iter().copied()));
            assert!(wide.iter().map(|&i| i.index()).eq(want.iter().copied()));
        }
        let empty: Vec<u16> = neighbor_orders(&train.subset(&[]), &valid, &WorkerPool::new(0), 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn order_keys_sort_as_the_neighbor_order() {
        let dists = [
            1.0,
            -0.0,
            f64::INFINITY,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            f64::MAX,
            0.25,
        ];
        let mut by_key: Vec<usize> = (0..dists.len()).collect();
        by_key.sort_by_key(|&i| order_key(dists[i], i));
        let mut by_order = by_key.clone();
        by_order.sort_by(|&a, &b| neighbor_order(&dists, a, b));
        assert_eq!(by_key, by_order);
        assert_eq!(by_key, vec![1, 3, 4, 7, 0, 5, 6, 2]);
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn order_keys_reject_nan() {
        order_key(f64::NAN, 0);
    }

    #[test]
    fn non_finite_features_are_rejected_with_their_cell() {
        let (train, valid) = workload(8, 4, 16);
        let knn = KnnClassifier::new(3);
        for (bad_train, value) in [(true, f64::NAN), (false, f64::NEG_INFINITY)] {
            let (mut t, mut v) = (train.clone(), valid.clone());
            if bad_train {
                t.x.set(5, 2, value);
            } else {
                v.x.set(1, 2, value);
            }
            let err = IncrementalKnnEval::new(3, &t, &v).unwrap_err();
            let cell = if bad_train {
                "row 5, column 2"
            } else {
                "row 1, column 2"
            };
            assert!(
                matches!(&err, MlError::InvalidArgument(msg) if msg.contains(cell)),
                "{err}"
            );
            assert!(knn.incremental_eval(&t, &v).is_none());
        }
        // A feature fix that writes a NaN is rejected the same way.
        let mut eval = IncrementalKnnEval::new(3, &train, &valid).unwrap();
        let mut moved = train.clone();
        moved.x.set(6, 0, f64::NAN);
        assert!(matches!(
            eval.update_features(&[6], &moved),
            Err(MlError::InvalidArgument(_))
        ));
        assert_eq!(eval.accuracy(), utility(&knn, &train, &valid).unwrap());
    }

    #[test]
    fn update_rows_matches_fresh_table_bit_for_bit() {
        let (mut train, valid) = workload(20, 9, 7);
        let mut table = DistanceTable::new(&train, &valid);
        // Move a few training points, patch them in as the holes of the
        // identity map, and compare to a fresh build.
        let changed = [0usize, 7, 13, 19];
        let mut rows: Vec<Vec<f64>> = train.x.iter_rows().map(<[f64]>::to_vec).collect();
        for &i in &changed {
            for v in &mut rows[i] {
                *v = *v * 1.5 + 0.25;
            }
        }
        train.x = crate::linalg::Matrix::from_rows(rows).unwrap();
        let map: Vec<Option<usize>> = (0..train.len())
            .map(|i| (!changed.contains(&i)).then_some(i))
            .collect();
        table.remap_columns(&map, &train, &valid).unwrap();
        let fresh = DistanceTable::new(&train, &valid);
        for v in 0..valid.len() {
            for i in 0..train.len() {
                assert_eq!(
                    table.row(v)[i].to_bits(),
                    fresh.row(v)[i].to_bits(),
                    "cell ({v},{i})"
                );
            }
        }
        // Shape and bounds are validated.
        let mut bad = map.clone();
        bad[3] = Some(99);
        assert!(table.remap_columns(&bad, &train, &valid).is_err());
        let short = train.subset(&(0..5).collect::<Vec<_>>());
        assert!(table.remap_columns(&map, &short, &valid).is_err());
    }

    #[test]
    fn incremental_knn_eval_matches_refit_exactly() {
        let (mut train, valid) = workload(24, 11, 5);
        let mut eval = IncrementalKnnEval::new(3, &train, &valid).unwrap();
        let refit = |train: &Dataset| utility(&KnnClassifier::new(3), train, &valid).unwrap();
        assert_eq!(eval.accuracy(), refit(&train));
        // A sequence of label fixes, each checked bit-identical to refit.
        for row in [0, 5, 9, 5, 17, 23] {
            let new_label = 1 - train.y[row];
            train.y[row] = new_label;
            eval.set_label(row, new_label).unwrap();
            assert_eq!(eval.accuracy(), refit(&train), "after fixing row {row}");
        }
        // Feature fixes route through the row remap.
        let moved = [2usize, 11, 20];
        let mut rows: Vec<Vec<f64>> = train.x.iter_rows().map(<[f64]>::to_vec).collect();
        for &i in &moved {
            for v in &mut rows[i] {
                *v = -*v;
            }
        }
        train.x = crate::linalg::Matrix::from_rows(rows).unwrap();
        eval.update_features(&moved, &train).unwrap();
        assert_eq!(eval.accuracy(), refit(&train), "after feature update");
        // And label fixes keep working on the patched geometry.
        train.y[2] = 1 - train.y[2];
        eval.set_label(2, train.y[2]).unwrap();
        assert_eq!(eval.accuracy(), refit(&train));
        // Redundant fix is a no-op.
        eval.set_label(2, train.y[2]).unwrap();
        assert_eq!(eval.accuracy(), refit(&train));
    }

    /// Row `i` of the result is `old` row `map[i]`, or the next row of
    /// `fresh` for `None`.
    fn remapped(old: &Dataset, map: &[Option<usize>], fresh: &Dataset) -> Dataset {
        let mut next = 0..;
        let (rows, y): (Vec<Vec<f64>>, Vec<usize>) = map
            .iter()
            .map(|from| {
                let (data, r) = match *from {
                    Some(o) => (old, o),
                    None => (fresh, next.next().unwrap()),
                };
                (data.x.row(r).to_vec(), data.y[r])
            })
            .collect();
        Dataset::from_rows(rows, y, old.n_classes).unwrap()
    }

    /// `eval` holds exactly what a fresh evaluator over `train` would:
    /// distances, neighbor lists, inverted index, votes and accuracy.
    fn assert_as_built(eval: &IncrementalKnnEval, k: usize, train: &Dataset, valid: &Dataset) {
        let fresh =
            IncrementalKnnEval::on_pool(k, train, valid, Arc::new(WorkerPool::new(0)), 1).unwrap();
        let bits = |t: &DistanceTable| t.dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(eval.table.n_train(), train.len());
        assert!(bits(&eval.table) == bits(&fresh.table), "distance table");
        assert_eq!(eval.k, fresh.k);
        assert_eq!(eval.neighbors, fresh.neighbors, "neighbor lists");
        assert_eq!(eval.viewers_at, fresh.viewers_at, "inverted index");
        assert_eq!(eval.viewers, fresh.viewers, "inverted index");
        assert_eq!(eval.correct, fresh.correct);
        assert_eq!(eval.accuracy().to_bits(), fresh.accuracy().to_bits());
        let refit = utility(&KnnClassifier::new(k), train, valid).unwrap();
        assert_eq!(eval.accuracy().to_bits(), refit.to_bits());
    }

    /// A row map over `n_old` rows: each row survives with probability
    /// about 3/4, a fresh row goes in front of a row with probability
    /// about 1/4 (and after the last, once in two), and when `shuffle` two
    /// survivors trade places.
    fn random_map(n_old: usize, shuffle: bool, rng: &mut impl Rng) -> Vec<Option<usize>> {
        let mut map = Vec::new();
        for o in 0..n_old {
            if rng.gen_range(0..4usize) == 0 {
                map.push(None);
            }
            if rng.gen_range(0..4usize) != 0 {
                map.push(Some(o));
            }
        }
        if rng.gen_range(0..2usize) == 0 {
            map.push(None);
        }
        let kept: Vec<usize> = (0..map.len()).filter(|&i| map[i].is_some()).collect();
        if shuffle && kept.len() >= 2 {
            let a = kept[rng.gen_range(0..kept.len())];
            let b = kept[rng.gen_range(0..kept.len())];
            map.swap(a, b);
        }
        if map.is_empty() {
            map.push(None);
        }
        map
    }

    #[test]
    fn remap_rows_matches_a_fresh_evaluator_under_ties() {
        let valid = tie_heavy(23, 90);
        let pool_of = |workers: usize| (Arc::new(WorkerPool::new(workers)), workers + 1);
        for workers in [0, 1, 3, 6] {
            for k in [1, 3, 5] {
                let (pool, threads) = pool_of(workers);
                let mut train = tie_heavy(40, 91);
                let mut eval =
                    IncrementalKnnEval::on_pool(k, &train, &valid, pool, threads).unwrap();
                let mut rng = nde_data::rng::seeded(92 + k as u64);
                for step in 0..24 {
                    let map = random_map(train.len(), step % 4 == 3, &mut rng);
                    let fresh = tie_heavy(map.len(), 1000 + step);
                    let next = remapped(&train, &map, &fresh);
                    eval.remap_rows(&map, &next).unwrap();
                    assert_as_built(&eval, k, &next, &valid);
                    // The identity map with holes: a feature fix moves
                    // every third row in place and keeps every label.
                    let holes: Vec<usize> = (step as usize % 3..next.len()).step_by(3).collect();
                    let map: Vec<Option<usize>> = (0..next.len())
                        .map(|i| (!holes.contains(&i)).then_some(i))
                        .collect();
                    let mut moved = remapped(&next, &map, &tie_heavy(holes.len(), 3000 + step));
                    moved.y.clone_from(&next.y);
                    eval.update_features(&holes, &moved).unwrap();
                    assert_as_built(&eval, k, &moved, &valid);
                    let next = moved;
                    // Grow back from small sets so the walk never dies out.
                    train = if next.len() < 8 {
                        let grow: Vec<Option<usize>> =
                            (0..next.len()).map(Some).chain([None; 30]).collect();
                        let grown = remapped(&next, &grow, &tie_heavy(30, 2000 + step));
                        eval.remap_rows(&grow, &grown).unwrap();
                        assert_as_built(&eval, k, &grown, &valid);
                        grown
                    } else {
                        next
                    };
                }
            }
        }
    }

    #[test]
    fn remap_rows_merges_fresh_rows_around_the_kth_neighbor() {
        let data = |xs: &[f64]| {
            let rows = xs.iter().map(|&x| vec![x]).collect();
            Dataset::from_rows(rows, (0..xs.len()).map(|i| i % 2).collect(), 2).unwrap()
        };
        let train = data(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // With k = 3 the point at 0 has the row at 3.0 (old row 2, distance
        // 9) as its k-th neighbor; -3.0 and 3.0 tie with it there. The
        // point at 0.25 sees no tie.
        let valid = data(&[0.0, 0.25]);
        let k = 3;
        // Fresh rows before, tied with and after the k-th neighbor, placed
        // at lower and higher indices than it: in front, right before and
        // right after old row 2, and at the end.
        let mut cases: Vec<(Vec<usize>, Vec<f64>)> = Vec::new();
        for x in [1.5, 3.0, -3.0, 10.0] {
            for at in [0, 2, 3, 6] {
                cases.push((vec![at], vec![x]));
            }
        }
        // Several at once (in index order unlike their distance order), and
        // more fresh rows ahead of the k-th than k.
        cases.push((vec![0, 3, 6], vec![2.5, 3.0, -3.0]));
        cases.push((vec![0, 6], vec![2.9, 1.1]));
        cases.push((vec![0, 1, 4, 6], vec![0.5, 0.6, 0.7, 0.8]));
        for (at, xs) in cases {
            let mut map: Vec<Option<usize>> = (0..train.len()).map(Some).collect();
            for &i in at.iter().rev() {
                map.insert(i, None);
            }
            let next = remapped(&train, &map, &data(&xs));
            let pool = Arc::new(WorkerPool::new(0));
            let mut eval = IncrementalKnnEval::on_pool(k, &train, &valid, pool, 1).unwrap();
            eval.remap_rows(&map, &next).unwrap();
            assert_as_built(&eval, k, &next, &valid);
        }
    }

    #[test]
    fn remap_rows_follows_the_clamped_k_down_and_back_up() {
        let valid = tie_heavy(19, 93);
        let train = tie_heavy(9, 94);
        let mut eval = IncrementalKnnEval::new(5, &train, &valid).unwrap();
        // Shrink below k: the lists get shorter.
        let map = [Some(1), None, Some(6)];
        let small = remapped(&train, &map, &tie_heavy(1, 95));
        eval.remap_rows(&map, &small).unwrap();
        assert_eq!(eval.k, 3);
        assert_as_built(&eval, 5, &small, &valid);
        // Grow past k again: the configured 5, not the clamped 3.
        let map: Vec<Option<usize>> = [None, Some(0), Some(1), Some(2), None, None, None]
            .into_iter()
            .collect();
        let big = remapped(&small, &map, &tie_heavy(4, 96));
        eval.remap_rows(&map, &big).unwrap();
        assert_eq!(eval.k, 5);
        assert_as_built(&eval, 5, &big, &valid);
        // A non-monotone map over a set that keeps k.
        let map = [Some(6), Some(0), Some(3), None, Some(2), Some(5), Some(4)];
        let swapped = remapped(&big, &map, &tie_heavy(1, 97));
        eval.remap_rows(&map, &swapped).unwrap();
        assert_as_built(&eval, 5, &swapped, &valid);
    }

    #[test]
    fn remap_rows_validates() {
        let (train, valid) = workload(8, 4, 17);
        let mut eval = IncrementalKnnEval::new(3, &train, &valid).unwrap();
        let keep: Vec<Option<usize>> = (0..8).map(Some).collect();
        // Length, bounds, emptiness and width are checked.
        assert!(eval.remap_rows(&keep[..7], &train).is_err());
        let mut beyond = keep.clone();
        beyond[2] = Some(8);
        assert!(eval.remap_rows(&beyond, &train).is_err());
        assert!(matches!(
            eval.remap_rows(&[], &train.subset(&[])),
            Err(MlError::EmptyTrainingSet)
        ));
        let narrow = Dataset::from_rows(vec![vec![0.0]; 8], train.y.clone(), 2).unwrap();
        assert!(eval.remap_rows(&keep, &narrow).is_err());
        // A fresh row with an infinite feature is rejected with its cell.
        let mut bad = train.clone();
        bad.x.set(4, 1, f64::INFINITY);
        let mut map = keep.clone();
        map[4] = None;
        let err = eval.remap_rows(&map, &bad).unwrap_err();
        assert!(
            matches!(&err, MlError::InvalidArgument(m) if m.contains("row 4, column 1")),
            "{err}"
        );
        // A feature fix checks its rows and shape the same way.
        assert!(eval.update_features(&[99], &train).is_err());
        assert!(eval.update_features(&[0], &narrow).is_err());
        assert!(eval.update_features(&[4], &bad).is_err());
        // Nothing above touched the evaluator.
        assert_as_built(&eval, 3, &train, &valid);
    }

    #[test]
    fn incremental_knn_eval_validates() {
        let (train, valid) = workload(8, 4, 9);
        assert!(IncrementalKnnEval::new(1, &train.subset(&[]), &valid).is_err());
        let mut eval = IncrementalKnnEval::new(1, &train, &valid).unwrap();
        assert!(eval.set_label(99, 0).is_err());
        assert!(eval.set_label(0, 99).is_err());
        let short = train.subset(&(0..4).collect::<Vec<_>>());
        assert!(eval.update_features(&[0], &short).is_err());
        // Empty eval set scores 0.0, like `Classifier::accuracy`.
        let empty = valid.subset(&[]);
        let eval = IncrementalKnnEval::new(1, &train, &empty).unwrap();
        assert_eq!(eval.accuracy(), 0.0);
    }

    #[test]
    fn incremental_hook_returns_evaluator_for_knn_only() {
        let (train, valid) = workload(8, 4, 6);
        let knn = KnnClassifier::new(2);
        assert!(knn.incremental_eval(&train, &valid).is_some());
        let majority = crate::models::majority::MajorityClassifier::new();
        assert!(majority.incremental_eval(&train, &valid).is_none());
    }

    #[test]
    fn empty_validation_set_scores_zero() {
        let (train, valid) = workload(8, 4, 3);
        let empty = valid.subset(&[]);
        let scorer = KnnCoalitionScorer::new(1, &train, &empty);
        let mut chain = CoalitionChain::new();
        assert_eq!(scorer.score_batch(&mut chain, &[&[0, 1][..]]), vec![0.0]);
    }

    #[test]
    fn classifier_hook_returns_scorer_for_knn_only() {
        let (train, valid) = workload(8, 4, 4);
        let knn = KnnClassifier::new(2);
        let scorer = knn.coalition_scorer(&train, &valid);
        assert!(scorer.is_some());
        assert_eq!(scorer.unwrap().n_train(), 8);
        // A generic classifier keeps the default (no batched path).
        let majority = crate::models::majority::MajorityClassifier::new();
        assert!(majority.coalition_scorer(&train, &valid).is_none());
    }
}
