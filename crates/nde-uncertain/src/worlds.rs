//! Possible-worlds sampling for missing *features*: impute, retrain,
//! aggregate, and make robust (abstaining) predictions.

use crate::symbolic::SymbolicMatrix;
use crate::{Result, UncertainError};
use nde_data::par::WorkerFailure;
use nde_data::pool::WorkerPool;
use nde_data::rng::{child_seed, seeded, Rng};
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_ml::model::Classifier;
use std::sync::atomic::AtomicBool;

/// Aggregated predictions across sampled worlds.
#[derive(Debug, Clone)]
pub struct WorldEnsemble {
    /// `shares[t][c]`: fraction of worlds predicting class `c` for test `t`.
    pub shares: Vec<Vec<f64>>,
    /// Number of sampled worlds.
    pub worlds: usize,
}

impl WorldEnsemble {
    /// Robust prediction for test point `t`: the majority class if its world
    /// share reaches `threshold`, otherwise `None` (abstain).
    pub fn robust_prediction(&self, t: usize, threshold: f64) -> Option<usize> {
        let shares = &self.shares[t];
        let (best, &share) = shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite").then(b.0.cmp(&a.0)))?;
        (share >= threshold).then_some(best)
    }

    /// Fraction of test points with a robust prediction at `threshold`.
    pub fn coverage(&self, threshold: f64) -> f64 {
        if self.shares.is_empty() {
            return 0.0;
        }
        let covered = (0..self.shares.len())
            .filter(|&t| self.robust_prediction(t, threshold).is_some())
            .count();
        covered as f64 / self.shares.len() as f64
    }
}

/// Sample `worlds` imputations of the symbolic training features (uniform
/// within each cell's interval), retrain a fresh clone of `template` per
/// world, and aggregate predictions on `test_x`, on up to `threads`
/// workers.
///
/// Each world's imputation stream is `child_seed(seed, w)` and the
/// per-world vote counts are integers summed over the sorted world indices,
/// so the ensemble is bit-identical for every thread count.
///
/// A template that offers a [`Classifier::world_voter`] (KNN) is not refit:
/// a row's cells before its first non-point cell are the same in every
/// world, so the voter folds them once per call, reading the training
/// `lo` plane in place, and each world only draws its non-point cells and
/// continues the fold over the rows that have them. The draws are the
/// refit path's, in the same row-major order from the same stream, and the
/// voter's votes are bit-identical to refitting.
/// Every other template, or input the voter declines, is refit per world.
#[allow(clippy::too_many_arguments)]
pub fn sample_worlds_par<C>(
    template: &C,
    train_x: &SymbolicMatrix,
    train_y: &[usize],
    n_classes: usize,
    test_x: &Matrix,
    worlds: usize,
    seed: u64,
    threads: usize,
) -> Result<WorldEnsemble>
where
    C: Classifier + Send + Sync,
{
    if worlds == 0 {
        return Err(UncertainError::InvalidArgument("worlds must be > 0".into()));
    }
    if train_x.len() != train_y.len() {
        return Err(UncertainError::InvalidArgument(format!(
            "{} rows but {} labels",
            train_x.len(),
            train_y.len()
        )));
    }
    let (rows, cols) = (train_x.len(), train_x.cols());
    let varying_from: Vec<usize> = (0..rows).map(|r| train_x.first_open_column(r)).collect();
    // A draw whose width `hi - lo` is not finite can be NaN (`0 · ∞`); such
    // input keeps the refit path, which meets it the way it always has.
    let finite_draws = (0..rows).all(|r| {
        let (lo, hi) = (train_x.row_lo(r), train_x.row_hi(r));
        lo.iter()
            .zip(hi)
            .all(|(&l, &h)| l == h || (h - l).is_finite())
    });
    // Labels and class count are the voter's to check, and the refit
    // path's `Dataset` checks them as it always has.
    let voter = if finite_draws {
        template.world_voter(
            train_x.lo(),
            cols,
            train_y,
            n_classes,
            &varying_from,
            test_x,
            threads,
        )
    } else {
        None
    };
    let stop = AtomicBool::new(false);
    let pool = WorkerPool::shared();
    let per_world = match voter {
        Some(voter) => pool.map_indexed_scratch(
            threads,
            0..worlds as u64,
            &stop,
            Vec::new,
            |cells: &mut Vec<f64>, w| {
                // Columns before a row's `c0` are point cells and rows
                // without a varying column have none, so these are all of
                // the world's draws, in the refit path's order.
                let mut rng = seeded(child_seed(seed, w));
                cells.clear();
                for &(r, c0) in voter.varying_rows() {
                    let (lo, hi) = (train_x.row_lo(r), train_x.row_hi(r));
                    cells.extend((c0..cols).map(|c| draw(lo[c], hi[c], &mut rng)));
                }
                Ok::<_, UncertainError>(voter.vote(cells))
            },
        ),
        None => pool.map_indexed_scratch(
            threads,
            0..worlds as u64,
            &stop,
            || Matrix::zeros(rows, cols),
            |world_x, w| {
                let mut rng = seeded(child_seed(seed, w));
                for r in 0..rows {
                    let (lo, hi) = (train_x.row_lo(r), train_x.row_hi(r));
                    for c in 0..cols {
                        world_x.set(r, c, draw(lo[c], hi[c], &mut rng));
                    }
                }
                let data = Dataset::new(world_x.clone(), train_y.to_vec(), n_classes)?;
                let mut model = template.clone();
                model.fit(&data)?;
                // Flat per-world vote counts: `votes[t * n_classes + p]`.
                let mut votes = vec![0usize; test_x.rows() * n_classes];
                for (t, row) in test_x.iter_rows().enumerate() {
                    let p = model.predict_one(row);
                    if p < n_classes {
                        votes[t * n_classes + p] += 1;
                    }
                }
                Ok(votes)
            },
        ),
    }
    .map_err(|fail| match fail {
        WorkerFailure::Err(_, e) => e,
        WorkerFailure::Panic(_, msg) => {
            UncertainError::InvalidArgument(format!("world sampling worker panicked: {msg}"))
        }
    })?;

    let mut counts = vec![vec![0usize; n_classes]; test_x.rows()];
    for (_, votes) in &per_world {
        for t in 0..test_x.rows() {
            for c in 0..n_classes {
                counts[t][c] += votes[t * n_classes + c];
            }
        }
    }
    let shares = counts
        .into_iter()
        .map(|c| c.into_iter().map(|v| v as f64 / worlds as f64).collect())
        .collect();
    Ok(WorldEnsemble { shares, worlds })
}

/// One world's value of a cell: a point cell's value, otherwise a uniform
/// draw from its interval.
fn draw(lo: f64, hi: f64, rng: &mut impl Rng) -> f64 {
    if lo == hi {
        lo
    } else {
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use nde_ml::models::knn::KnnClassifier;

    fn symbolic_train() -> (SymbolicMatrix, Vec<usize>) {
        // Two clusters; one label-1 row has a feature spanning both clusters.
        let rows = vec![
            vec![Interval::point(0.0)],
            vec![Interval::point(0.5)],
            vec![Interval::point(10.0)],
            vec![Interval::new(-2.0, 12.0)],
        ];
        (SymbolicMatrix::from_rows(rows).unwrap(), vec![0, 0, 1, 1])
    }

    #[test]
    fn point_worlds_are_deterministic() {
        let x = Matrix::from_rows(vec![vec![0.0], vec![10.0]]).unwrap();
        let sym = SymbolicMatrix::from_exact(&x);
        let test = Matrix::from_rows(vec![vec![0.1], vec![9.9]]).unwrap();
        let ens =
            sample_worlds_par(&KnnClassifier::new(1), &sym, &[0, 1], 2, &test, 8, 1, 1).unwrap();
        assert_eq!(ens.shares[0], vec![1.0, 0.0]);
        assert_eq!(ens.shares[1], vec![0.0, 1.0]);
        assert_eq!(ens.coverage(1.0), 1.0);
    }

    #[test]
    fn uncertain_row_splits_world_votes() {
        let (sym, y) = symbolic_train();
        let test = Matrix::from_rows(vec![vec![0.2], vec![9.8]]).unwrap();
        let ens = sample_worlds_par(&KnnClassifier::new(1), &sym, &y, 2, &test, 200, 2, 1).unwrap();
        // Query near the 0-cluster: the wide label-1 row sometimes lands
        // closer, so votes split.
        // The wide row lands within 0.2 of the query with probability
        // 0.4 / 14 ≈ 3%, so a small-but-nonzero vote share is expected.
        assert!(ens.shares[0][1] > 0.005, "{:?}", ens.shares[0]);
        assert!(ens.shares[0][0] > 0.5, "{:?}", ens.shares[0]);
        // Robust at 0.5, abstains at 0.99.
        assert_eq!(ens.robust_prediction(0, 0.5), Some(0));
        assert_eq!(ens.robust_prediction(0, 0.99), None);
        // Far query is stable.
        assert_eq!(ens.robust_prediction(1, 0.95), Some(1));
        assert!(ens.coverage(0.99) < 1.0);
        assert_eq!(ens.coverage(0.5), 1.0);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let (sym, y) = symbolic_train();
        let test = Matrix::from_rows(vec![vec![0.2], vec![9.8]]).unwrap();
        let seq = sample_worlds_par(&KnnClassifier::new(1), &sym, &y, 2, &test, 100, 7, 1).unwrap();
        for threads in [2, 4, 7] {
            let par =
                sample_worlds_par(&KnnClassifier::new(1), &sym, &y, 2, &test, 100, 7, threads)
                    .unwrap();
            assert_eq!(seq.shares, par.shares, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_by_seed_and_validated() {
        let (sym, y) = symbolic_train();
        let test = Matrix::from_rows(vec![vec![0.2]]).unwrap();
        let a = sample_worlds_par(&KnnClassifier::new(1), &sym, &y, 2, &test, 50, 3, 1).unwrap();
        let b = sample_worlds_par(&KnnClassifier::new(1), &sym, &y, 2, &test, 50, 3, 1).unwrap();
        assert_eq!(a.shares, b.shares);
        assert!(sample_worlds_par(&KnnClassifier::new(1), &sym, &y, 2, &test, 0, 0, 1).is_err());
        assert!(
            sample_worlds_par(&KnnClassifier::new(1), &sym, &y[..2], 2, &test, 5, 0, 1).is_err()
        );
    }
}
