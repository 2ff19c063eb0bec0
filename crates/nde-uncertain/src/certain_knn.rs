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

use crate::soa::{self, IntervalMatrix};
use crate::symbolic::SymbolicMatrix;
use crate::{Result, UncertainError};
use nde_data::par::WorkerFailure;
use nde_data::pool::WorkerPool;
use nde_ml::linalg::Matrix;
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

/// A reusable certain-1-NN classifier over SoA distance planes: the hot
/// path behind [`certain_coverage`].
///
/// Construction re-lays the symbolic training matrix into contiguous
/// `lo`/`hi` planes once; each [`CertainKnnIndex::classify`] then runs a
/// single streaming scan with **candidate pruning** — a row whose running
/// distance *lower* bound exceeds the best distance *upper* bound seen so
/// far is skipped mid-row ([`soa::sq_dist_bounds_pruned`]).
///
/// # Why pruning is exact
///
/// The best upper bound `best_hi` only decreases during the scan, so a
/// pruned row's final lower bound is **strictly** above the final
/// `best_hi`. Such a row can neither own the smallest upper bound (it
/// cannot be the candidate) nor have `d.lo ≤ best_hi` (it cannot break
/// certainty, whose test is `best_hi < min_other_dmin`). Every verdict is
/// therefore identical to a scan without pruning. `tests/uncertain_soa.rs`
/// asserts that each verdict equals the per-query scalar-[`Interval`] check
/// of the `nde-tests` crate.
///
/// [`Interval`]: crate::interval::Interval
///
/// The scan also tracks the two smallest lower bounds over *distinct
/// labels* (`lo1` with its label, and `lo2` over rows labeled differently
/// from `lo1`'s owner), which yields the exact
/// `min_other_dmin = if lo1_label == candidate { lo2 } else { lo1 }`
/// without a second pass. The midpoint-world guess needs a full unpruned
/// scan, so it is computed lazily — only for uncertain outcomes.
#[derive(Debug, Clone)]
pub struct CertainKnnIndex {
    planes: IntervalMatrix,
    labels: Vec<usize>,
}

impl CertainKnnIndex {
    /// Build the SoA planes for a symbolic training set.
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
        Ok(CertainKnnIndex {
            planes: IntervalMatrix::from_symbolic(train),
            labels: labels.to_vec(),
        })
    }

    /// Number of training rows.
    pub fn len(&self) -> usize {
        self.planes.rows()
    }

    /// `true` iff the index holds no rows (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// Certain-prediction verdict for one query (pruned scan).
    pub fn classify(&self, query: &[f64]) -> Result<CertainOutcome> {
        if self.planes.cols() != query.len() {
            return Err(UncertainError::InvalidArgument(format!(
                "query has {} features, training data has {}",
                query.len(),
                self.planes.cols()
            )));
        }
        let mut best_hi = f64::INFINITY;
        let mut best_label = usize::MAX;
        let mut lo1 = f64::INFINITY;
        let mut lo1_label = usize::MAX;
        let mut lo2 = f64::INFINITY;
        for r in 0..self.planes.rows() {
            let (x_lo, x_hi) = (self.planes.row_lo(r), self.planes.row_hi(r));
            let Some((d_lo, d_hi)) = soa::sq_dist_bounds_pruned(query, x_lo, x_hi, best_hi) else {
                continue; // pruned: d_lo > best_hi, provably irrelevant
            };
            let label = self.labels[r];
            if d_hi < best_hi {
                best_hi = d_hi;
                best_label = label;
            }
            if d_lo < lo1 {
                if label != lo1_label {
                    lo2 = lo1;
                }
                lo1 = d_lo;
                lo1_label = label;
            } else if label != lo1_label && d_lo < lo2 {
                lo2 = d_lo;
            }
        }
        let min_other_dmin = if lo1_label != best_label { lo1 } else { lo2 };
        if best_hi < min_other_dmin {
            return Ok(CertainOutcome::Certain(best_label));
        }
        // Uncertain: compute the midpoint-world guess with a full scan
        // (cold path — certainty already failed for this query).
        let mut guess = usize::MAX;
        let mut best_mid = f64::INFINITY;
        for r in 0..self.planes.rows() {
            let (d_lo, d_hi) =
                soa::sq_dist_bounds(query, self.planes.row_lo(r), self.planes.row_hi(r));
            let mid = 0.5 * (d_lo + d_hi);
            if mid < best_mid {
                best_mid = mid;
                guess = self.labels[r];
            }
        }
        Ok(CertainOutcome::Uncertain(guess))
    }

    /// Classify a batch of queries on `threads` workers. Queries are
    /// independent, so the outcome vector is bit-identical at every thread
    /// count (the pooled map returns results sorted by query index).
    pub fn classify_batch(&self, queries: &Matrix, threads: usize) -> Result<Vec<CertainOutcome>> {
        let stop = AtomicBool::new(false);
        let out = WorkerPool::shared()
            .map_indexed::<CertainOutcome, UncertainError, _>(
                threads,
                0..queries.rows() as u64,
                &stop,
                |q| self.classify(queries.row(q as usize)),
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

/// Fraction of queries whose 1-NN prediction is certain (the "coverage"
/// metric of the CP paper), plus per-query outcomes.
///
/// Builds a [`CertainKnnIndex`] and runs the pruned SoA scan sequentially;
/// use the index directly to reuse the planes across batches or to spread
/// queries over threads. The training set is validated even when `queries`
/// is empty.
pub fn certain_coverage(
    train: &SymbolicMatrix,
    labels: &[usize],
    queries: &Matrix,
) -> Result<(f64, Vec<CertainOutcome>)> {
    CertainKnnIndex::new(train, labels)?.coverage(queries, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let (cov, outcomes) = certain_coverage(&sym, &labels, &queries).unwrap();
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
        let (cov, outcomes) = certain_coverage(&sym, &labels, &queries).unwrap();
        assert_eq!(outcomes, seq);
        let certain = seq.iter().filter(|o| o.is_certain()).count();
        assert!((cov - certain as f64 / seq.len() as f64).abs() < 1e-15);
        assert!(cov > 0.0 && cov < 1.0, "coverage {cov} not discriminative");
    }
}
