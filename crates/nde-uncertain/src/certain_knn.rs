//! Certain predictions for nearest-neighbor classifiers over incomplete data
//! (Karlaš et al., "Nearest Neighbor Classifiers over Incomplete
//! Information: From Certain Answers to Certain Predictions", VLDB'20).
//!
//! A prediction is **certain** when it is identical in *every* possible
//! world, i.e. under every imputation of the missing training cells. Because
//! each training row's missing cells are imputed independently, certainty of
//! a 1-NN prediction has an exact characterization via per-row distance
//! bounds — no world enumeration needed: the prediction is certain with
//! label `L` iff the smallest *max*-distance among rows labeled `L` is
//! strictly below the smallest *min*-distance among rows with any other
//! label. (If some wrong-label row can get at least as close as every
//! right-label row must be, there is a world where it wins.)

use crate::soa;
use crate::symbolic::SymbolicMatrix;
use crate::{Result, UncertainError};
use nde_data::par::WorkerFailure;
use nde_data::pool::WorkerPool;
use nde_ml::linalg::{Matrix, PrefixSplit};
use std::sync::atomic::AtomicBool;

/// Outcome of a certain-prediction query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertainOutcome {
    /// The same label wins in every possible world.
    Certain(usize),
    /// Different worlds can produce different labels; the payload is the
    /// label of the midpoint world (a best guess, *not* certain).
    Uncertain(usize),
}

impl CertainOutcome {
    /// The label, certain or not.
    pub fn label(self) -> usize {
        match self {
            CertainOutcome::Certain(l) | CertainOutcome::Uncertain(l) => l,
        }
    }

    /// `true` iff the prediction is certain.
    pub fn is_certain(self) -> bool {
        matches!(self, CertainOutcome::Certain(_))
    }
}

/// A reusable certain-1-NN classifier: build it once per training set,
/// then classify single queries or batches
/// ([`CertainKnnIndex::coverage`] gives the "coverage" metric of the CP
/// paper).
///
/// # Exact rows, pruned open rows
///
/// Only a row with a missing cell has an uncertain distance, which is the
/// split the certain-prediction check rests on. A row is *exact* when its
/// cells are all point intervals (complete by
/// [`SymbolicMatrix::first_open_column`]) and *open* otherwise; every
/// row's columns before `w`, the smallest first open column of an open
/// row, are points. A [`PrefixSplit`] of the `lo` plane holds the exact
/// rows and the open rows' columns `0..w`, each part in 8-row
/// column-interleaved panels, and a smaller [`SymbolicMatrix`]
/// ([`SymbolicMatrix::take`]) the open rows' columns `w..`.
///
/// Per query, [`CertainKnnIndex::classify`] computes every exact row's
/// distance and every open row's prefix over `0..w` in one pass of the
/// panel kernel, which folds a panel's 8 rows in SIMD lanes (AVX2 where
/// the CPU reports it). Each lane adds its own row's terms in column order
/// from `-0.0`, the float sequence of `squared_distance`, so the buffered
/// distances have `squared_distance`'s bits. It then scans the open rows
/// with **candidate pruning**: an open row whose
/// running distance *lower* bound, prefix included, exceeds the best
/// distance *upper* bound seen so far is abandoned
/// ([`soa::sq_dist_bounds_pruned`], continued from the prefix). The open
/// scan starts from the exact rows' best upper bound, not from `∞`.
///
/// # Why the verdicts are those of a full interval scan
///
/// - On a point cell, both bounds of the interval term `(x − q)²` are
///   `squared_distance`'s `d * d`, bit for bit, and both kernels add the
///   terms in column order. Their folds start from `0.0` and `-0.0`, which
///   give the same float once a term is added and otherwise compare equal.
///   So an exact row's distance *is* both bounds of its interval, and an
///   open row's fold continued from its exact prefix has the one-pass bits.
/// - The candidate (smallest upper bound) and the midpoint guess (smallest
///   midpoint) are minima under the strict `(value, row index)` order, so
///   scanning exact rows before open rows picks the row a single scan in
///   row order picks. The two smallest lower bounds over distinct labels
///   (`lo1` with its label, `lo2` over rows labeled differently from
///   `lo1`'s owner) give
///   `min_other_dmin = if lo1_label == candidate { lo2 } else { lo1 }`
///   without a second pass, in any scan order.
/// - Pruning is exact. Partial lower bounds are monotone, so pruning on
///   the prefix prunes what the one-pass scan prunes. The best
///   upper bound `best_hi` only decreases, so a pruned row's lower bound is
///   **strictly** above the final `best_hi`. Such a row can neither own the
///   smallest upper bound (it cannot be the candidate) nor have
///   `d.lo ≤ best_hi` (it cannot break certainty, whose test is
///   `best_hi < min_other_dmin`). Seeding the cutoff with the exact rows'
///   best upper bound is the same argument: that bound is an upper bound
///   seen earlier in the scan.
/// - An uncertain query's midpoint guess needs every row's midpoint. An
///   exact row's interval midpoint is `0.5 * (d + d)` of its buffered
///   distance, and each open row continues [`soa::sq_dist_bounds`] from
///   its buffered prefix, so only the columns `w..` are bounded again.
///
/// `tests/uncertain_soa.rs` asserts that each verdict equals the per-query
/// scalar-[`Interval`] check of the `nde-tests` crate.
///
/// [`Interval`]: crate::interval::Interval
#[derive(Debug, Clone)]
pub struct CertainKnnIndex {
    /// Exact rows whole and the open rows' point prefixes.
    split: PrefixSplit,
    /// Columns `w..` of each open row.
    open: SymbolicMatrix,
    /// Label of every training row, by original row index.
    labels: Vec<usize>,
}

/// `true` iff `a` comes before `b` in the strict `(value, row index)` order.
#[inline]
fn precedes(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The running minima of one query's scan.
struct Scan {
    /// Smallest upper bound and its row, in `(value, row index)` order.
    best: (f64, usize),
    best_label: usize,
    /// Smallest lower bound, one label owning it, and the smallest lower
    /// bound over rows with any other label.
    lo1: f64,
    lo1_label: usize,
    lo2: f64,
}

impl Scan {
    fn new() -> Scan {
        Scan {
            best: (f64::INFINITY, usize::MAX),
            best_label: usize::MAX,
            lo1: f64::INFINITY,
            lo1_label: usize::MAX,
            lo2: f64::INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, row: usize, label: usize, d_lo: f64, d_hi: f64) {
        if precedes((d_hi, row), self.best) {
            self.best = (d_hi, row);
            self.best_label = label;
        }
        if d_lo < self.lo1 {
            if label != self.lo1_label {
                self.lo2 = self.lo1;
            }
            self.lo1 = d_lo;
            self.lo1_label = label;
        } else if label != self.lo1_label && d_lo < self.lo2 {
            self.lo2 = d_lo;
        }
    }

    /// The candidate's label if no other label can get as close.
    fn certain_label(&self) -> Option<usize> {
        let min_other_dmin = if self.lo1_label != self.best_label {
            self.lo1
        } else {
            self.lo2
        };
        (self.best.0 < min_other_dmin).then_some(self.best_label)
    }
}

impl CertainKnnIndex {
    /// Split a symbolic training set into exact rows, open rows' point
    /// prefixes and open rows' remaining planes.
    ///
    /// Infinite bounds (unbounded cells) are valid; a NaN bound is not.
    pub fn new(train: &SymbolicMatrix, labels: &[usize]) -> Result<CertainKnnIndex> {
        if train.is_empty() {
            return Err(UncertainError::InvalidArgument("empty training set".into()));
        }
        if train.len() != labels.len() {
            return Err(UncertainError::InvalidArgument(format!(
                "{} rows but {} labels",
                train.len(),
                labels.len()
            )));
        }
        if let Some(r) = (0..train.len()).find(|&r| {
            let mut bounds = train.row_lo(r).iter().chain(train.row_hi(r));
            bounds.any(|v| v.is_nan())
        }) {
            return Err(UncertainError::InvalidArgument(format!(
                "training row {r} has a NaN bound"
            )));
        }
        let open_from: Vec<usize> = (0..train.len())
            .map(|r| train.first_open_column(r))
            .collect();
        let split = PrefixSplit::new(train.lo(), train.cols(), &open_from);
        Ok(CertainKnnIndex {
            open: train.take(split.open_rows(), split.shared_width()),
            split,
            labels: labels.to_vec(),
        })
    }

    /// Number of training rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff the index holds no rows (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Certain-prediction verdict for one query.
    ///
    /// Errors if the query's width differs from the training data's or a
    /// query cell is NaN or infinite.
    pub fn classify(&self, query: &[f64]) -> Result<CertainOutcome> {
        self.classify_into(query, &mut vec![0.0; self.len()])
    }

    /// [`CertainKnnIndex::classify`] with `dist` (one entry per training
    /// row) as the buffer for the exact rows' distances and the open rows'
    /// prefixes.
    fn classify_into(&self, query: &[f64], dist: &mut [f64]) -> Result<CertainOutcome> {
        if self.split.width() != query.len() {
            return Err(UncertainError::InvalidArgument(format!(
                "query has {} features, training data has {}",
                query.len(),
                self.split.width()
            )));
        }
        if let Some(j) = query.iter().position(|v| !v.is_finite()) {
            return Err(UncertainError::InvalidArgument(format!(
                "query feature {j} is {}",
                query[j]
            )));
        }
        self.split.distances(query, dist);
        let (exact, prefixes) = dist.split_at(self.split.complete_rows().len());
        let suffix = &query[self.split.shared_width()..];
        let open = || self.split.open_rows().iter().zip(prefixes).enumerate();
        let mut scan = Scan::new();
        for (&r, &d) in self.split.complete_rows().iter().zip(exact) {
            scan.push(r, self.labels[r], d, d);
        }
        for (i, (&r, &p)) in open() {
            let (x_lo, x_hi) = (self.open.row_lo(i), self.open.row_hi(i));
            let Some((d_lo, d_hi)) = soa::sq_dist_bounds_pruned(p, suffix, x_lo, x_hi, scan.best.0)
            else {
                continue; // pruned: d_lo > best_hi, provably irrelevant
            };
            scan.push(r, self.labels[r], d_lo, d_hi);
        }
        if let Some(label) = scan.certain_label() {
            return Ok(CertainOutcome::Certain(label));
        }
        // Uncertain: the midpoint-world guess (cold path — certainty
        // already failed for this query).
        let exact_mids = self
            .split
            .complete_rows()
            .iter()
            .zip(exact)
            .map(|(&r, &d)| (0.5 * (d + d), r));
        let open_mids = open().map(|(i, (&r, &p))| {
            let (x_lo, x_hi) = (self.open.row_lo(i), self.open.row_hi(i));
            let (d_lo, d_hi) = soa::sq_dist_bounds(p, suffix, x_lo, x_hi);
            (0.5 * (d_lo + d_hi), r)
        });
        let mut guess = (f64::INFINITY, usize::MAX);
        for mid in exact_mids.chain(open_mids) {
            if precedes(mid, guess) {
                guess = mid;
            }
        }
        Ok(CertainOutcome::Uncertain(self.labels[guess.1]))
    }

    /// Classify a batch of queries on `threads` workers, each with its own
    /// distance buffer. Queries are independent, so the outcome vector is
    /// bit-identical at every thread count (the pooled map returns results
    /// sorted by query index). Errors as [`CertainKnnIndex::classify`]
    /// does, for the first bad query.
    pub fn classify_batch(&self, queries: &Matrix, threads: usize) -> Result<Vec<CertainOutcome>> {
        let stop = AtomicBool::new(false);
        let out = WorkerPool::shared()
            .map_indexed_scratch::<Vec<f64>, CertainOutcome, UncertainError, _, _>(
                threads,
                0..queries.rows() as u64,
                &stop,
                || vec![0.0; self.len()],
                |dist, q| self.classify_into(queries.row(q as usize), dist),
            )
            .map_err(|fail| match fail {
                WorkerFailure::Err(_, e) => e,
                WorkerFailure::Panic(q, msg) => {
                    panic!("certain-KNN worker panicked at query {q}: {msg}")
                }
            })?;
        Ok(out.into_iter().map(|(_, o)| o).collect())
    }

    /// Fraction of queries with a certain verdict, plus per-query outcomes.
    pub fn coverage(&self, queries: &Matrix, threads: usize) -> Result<(f64, Vec<CertainOutcome>)> {
        let outcomes = self.classify_batch(queries, threads)?;
        if outcomes.is_empty() {
            return Ok((0.0, outcomes));
        }
        let certain = outcomes.iter().filter(|o| o.is_certain()).count();
        Ok((certain as f64 / outcomes.len() as f64, outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::symbolic::column_bounds_from_observed;
    use nde_ml::linalg::Matrix;

    fn exact_train() -> (SymbolicMatrix, Vec<usize>) {
        let x = Matrix::from_rows(vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
        (SymbolicMatrix::from_exact(&x), vec![0, 0, 1, 1])
    }

    #[test]
    fn coverage_decreases_with_missing_fraction() {
        // 40 points, two clusters; progressively widen more rows.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 * 0.05]);
            labels.push(0);
            rows.push(vec![10.0 + i as f64 * 0.05]);
            labels.push(1);
        }
        let x = Matrix::from_rows(rows).unwrap();
        let bounds = column_bounds_from_observed(&x);
        let queries = Matrix::from_rows((0..10).map(|i| vec![i as f64 * 1.1]).collect()).unwrap();
        let mut coverages = Vec::new();
        for k in [0usize, 8, 20, 36] {
            let missing: Vec<(usize, usize)> = (0..k).map(|r| (r, 0)).collect();
            let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
            let (cov, outcomes) = CertainKnnIndex::new(&sym, &labels)
                .unwrap()
                .coverage(&queries, 1)
                .unwrap();
            assert_eq!(outcomes.len(), 10);
            coverages.push(cov);
        }
        assert_eq!(coverages[0], 1.0);
        for w in coverages.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "coverage not decreasing: {coverages:?}"
            );
        }
        assert!(coverages[3] < 1.0);
    }

    #[test]
    fn validates_arguments() {
        let (train, labels) = exact_train();
        let empty = SymbolicMatrix::from_rows(vec![]).unwrap();
        assert!(CertainKnnIndex::new(&train, &labels[..2]).is_err());
        assert!(CertainKnnIndex::new(&empty, &[]).is_err());
        let index = CertainKnnIndex::new(&train, &labels).unwrap();
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());
        assert!(index.classify(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn non_finite_query_is_rejected() {
        let (train, labels) = exact_train();
        let index = CertainKnnIndex::new(&train, &labels).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                index.classify(&[bad]),
                Err(UncertainError::InvalidArgument(_))
            ));
            let queries = Matrix::from_rows(vec![vec![0.5], vec![bad], vec![3.0]]).unwrap();
            for threads in [1usize, 2] {
                assert!(matches!(
                    index.classify_batch(&queries, threads),
                    Err(UncertainError::InvalidArgument(_))
                ));
            }
            assert!(matches!(
                index.coverage(&queries, 1),
                Err(UncertainError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn zero_column_rows_tie_at_zero() {
        // Every distance is the exact kernel's -0.0; the interval fold
        // would give 0.0. Either way all rows tie, so the first row is the
        // candidate and the guess, and certainty needs a single label.
        let train = SymbolicMatrix::from_rows(vec![vec![]; 3]).unwrap();
        let index = CertainKnnIndex::new(&train, &[1, 0, 1]).unwrap();
        assert_eq!(index.classify(&[]).unwrap(), CertainOutcome::Uncertain(1));
        let index = CertainKnnIndex::new(&train, &[2, 2, 2]).unwrap();
        assert_eq!(index.classify(&[]).unwrap(), CertainOutcome::Certain(2));
    }

    #[test]
    fn nan_training_cell_is_rejected() {
        let labels = [0, 1];
        for cell in [
            Interval::point(f64::NAN),
            Interval {
                lo: 0.0,
                hi: f64::NAN,
            },
            Interval {
                lo: f64::NAN,
                hi: 1.0,
            },
        ] {
            let train = SymbolicMatrix::from_rows(vec![
                vec![Interval::point(0.0), Interval::point(1.0)],
                vec![Interval::point(2.0), cell],
            ])
            .unwrap();
            assert!(matches!(
                CertainKnnIndex::new(&train, &labels),
                Err(UncertainError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn infinite_training_bounds_are_valid() {
        // An unbounded cell can put its row anywhere on that axis: the row
        // labeled 1 may always come closest, so nothing is certain.
        let train = SymbolicMatrix::from_rows(vec![
            vec![Interval::point(0.0)],
            vec![Interval::new(f64::NEG_INFINITY, f64::INFINITY)],
        ])
        .unwrap();
        let index = CertainKnnIndex::new(&train, &[0, 1]).unwrap();
        assert_eq!(
            index.classify(&[0.2]).unwrap(),
            CertainOutcome::Uncertain(0)
        );
        // A half-unbounded cell only reaches one way, and an infinite point
        // cell is a complete row infinitely far off.
        let train = SymbolicMatrix::from_rows(vec![
            vec![Interval::point(0.0)],
            vec![Interval::new(5.0, f64::INFINITY)],
            vec![Interval::point(f64::INFINITY)],
        ])
        .unwrap();
        let index = CertainKnnIndex::new(&train, &[0, 1, 1]).unwrap();
        assert_eq!(index.classify(&[1.0]).unwrap(), CertainOutcome::Certain(0));
        assert_eq!(
            index.classify(&[4.0]).unwrap(),
            CertainOutcome::Uncertain(0)
        );
        assert_eq!(
            index.classify(&[9.0]).unwrap(),
            CertainOutcome::Uncertain(0)
        );
    }

    /// Random two-cluster data with missing cells widened to intervals.
    fn random_symbolic(
        rows: usize,
        dims: usize,
        missing: usize,
        seed: u64,
    ) -> (SymbolicMatrix, Vec<usize>, Matrix) {
        use nde_data::rng::{sample_indices, seeded, Rng};
        let mut rng = seeded(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..rows {
            let center = if i % 2 == 0 { -1.0 } else { 1.0 };
            data.push(
                (0..dims)
                    .map(|_| center + rng.gen_range(-0.8..0.8))
                    .collect::<Vec<f64>>(),
            );
            labels.push(i % 2);
        }
        let x = Matrix::from_rows(data).unwrap();
        let bounds = column_bounds_from_observed(&x);
        let cells: Vec<(usize, usize)> = sample_indices(rows, missing, &mut rng)
            .into_iter()
            .map(|r| (r, rng.gen_range(0..dims)))
            .collect();
        let sym = SymbolicMatrix::from_matrix_with_missing(&x, &cells, &bounds).unwrap();
        let queries = Matrix::from_rows(
            (0..40)
                .map(|_| (0..dims).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect(),
        )
        .unwrap();
        (sym, labels, queries)
    }

    #[test]
    fn batch_is_thread_invariant_and_matches_coverage() {
        let (sym, labels, queries) = random_symbolic(100, 3, 25, 41);
        let index = CertainKnnIndex::new(&sym, &labels).unwrap();
        let seq = index.classify_batch(&queries, 1).unwrap();
        assert_eq!(seq.len(), queries.rows());
        for threads in [2usize, 4, 7] {
            assert_eq!(
                index.classify_batch(&queries, threads).unwrap(),
                seq,
                "threads={threads}"
            );
        }
        let (cov, outcomes) = CertainKnnIndex::new(&sym, &labels)
            .unwrap()
            .coverage(&queries, 1)
            .unwrap();
        assert_eq!(outcomes, seq);
        let certain = seq.iter().filter(|o| o.is_certain()).count();
        assert!((cov - certain as f64 / seq.len() as f64).abs() < 1e-15);
        assert!(cov > 0.0 && cov < 1.0, "coverage {cov} not discriminative");
    }
}
