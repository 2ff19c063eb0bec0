//! The per-query certain-prediction check for 1-NN over incomplete data,
//! the reference the pruned SoA scan of
//! [`nde_uncertain::certain_knn::CertainKnnIndex`] is checked against.
//!
//! It computes every training row's squared-distance interval with scalar
//! [`Interval`] arithmetic, then applies the exact criterion directly: no
//! planes, no pruning, no incremental bookkeeping.

use nde_uncertain::certain_knn::CertainOutcome;
use nde_uncertain::{Interval, Result, SymbolicMatrix, UncertainError};

/// Interval of possible squared distances between a concrete query and a
/// symbolic (interval) training row.
fn distance_interval(query: &[f64], row: &[Interval]) -> Interval {
    debug_assert_eq!(query.len(), row.len());
    let mut d = Interval::point(0.0);
    for (&q, &iv) in query.iter().zip(row) {
        d = d + (iv - Interval::point(q)).square();
    }
    d
}

/// Certain-prediction check for a 1-NN classifier over incomplete training
/// data, one query at a time over scalar [`Interval`] rows. `labels[i]` is
/// the label of symbolic training row `i`.
///
/// The check is **exact** (sound and complete) for 1-NN: the prediction is
/// certain with label `L` iff the smallest *max*-distance among rows labeled
/// `L` is strictly below the smallest *min*-distance among rows with any
/// other label. (If some wrong-label row can get at least as close as every
/// right-label row must be, there is a world where it wins.)
pub fn certain_prediction_1nn(
    train: &SymbolicMatrix,
    labels: &[usize],
    query: &[f64],
) -> Result<CertainOutcome> {
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
    if train.cols() != query.len() {
        return Err(UncertainError::InvalidArgument(format!(
            "query has {} features, training data has {}",
            query.len(),
            train.cols()
        )));
    }

    let dists: Vec<Interval> = crate::interval_rows(train)
        .iter()
        .map(|row| distance_interval(query, row))
        .collect();

    // Midpoint-world best guess.
    let guess = dists
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.mid()
                .partial_cmp(&b.1.mid())
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
        })
        .map(|(i, _)| labels[i])
        .expect("non-empty");

    // Candidate label: the owner of the globally smallest max-distance is the
    // only label that can be certain, since a certain label's best
    // max-distance lies below every other row's min-distance and so below
    // every other row's max-distance.
    let (cand_idx, cand_dmax) = dists
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.hi
                .partial_cmp(&b.1.hi)
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
        })
        .map(|(i, d)| (i, d.hi))
        .expect("non-empty");
    let label = labels[cand_idx];

    // Tightest guaranteed radius for the candidate label.
    let best_same_dmax = dists
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l == label)
        .map(|(d, _)| d.hi)
        .fold(f64::INFINITY, f64::min);
    debug_assert_eq!(best_same_dmax, cand_dmax);

    // Can any differently-labeled row ever get at least as close?
    let min_other_dmin = dists
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l != label)
        .map(|(d, _)| d.lo)
        .fold(f64::INFINITY, f64::min);

    if best_same_dmax < min_other_dmin {
        Ok(CertainOutcome::Certain(label))
    } else {
        Ok(CertainOutcome::Uncertain(guess))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_ml::linalg::Matrix;
    use nde_uncertain::certain_knn::CertainKnnIndex;
    use nde_uncertain::symbolic::column_bounds_from_observed;

    fn exact_train() -> (SymbolicMatrix, Vec<usize>) {
        let x = Matrix::from_rows(vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
        (SymbolicMatrix::from_exact(&x), vec![0, 0, 1, 1])
    }

    #[test]
    fn complete_data_is_always_certain() {
        let (train, labels) = exact_train();
        let out = certain_prediction_1nn(&train, &labels, &[0.4]).unwrap();
        assert_eq!(out, CertainOutcome::Certain(0));
        let out = certain_prediction_1nn(&train, &labels, &[10.6]).unwrap();
        assert_eq!(out, CertainOutcome::Certain(1));
    }

    #[test]
    fn wide_uncertainty_breaks_certainty() {
        // Row 1 (label 0) has an interval spanning the whole axis: it could
        // sit right next to the query or far away — but it shares the
        // candidate label, so certainty survives. Make a *label-1* row wide
        // instead: then the prediction near the 0-cluster becomes uncertain.
        let rows = vec![
            vec![Interval::point(0.0)],
            vec![Interval::point(1.0)],
            vec![Interval::new(-20.0, 20.0)], // label 1, could come anywhere
            vec![Interval::point(11.0)],
        ];
        let train = SymbolicMatrix::from_rows(rows).unwrap();
        let labels = vec![0, 0, 1, 1];
        let out = certain_prediction_1nn(&train, &labels, &[0.4]).unwrap();
        assert!(!out.is_certain());
        // Far from everything but closest to the certain 1-cluster, and the
        // wide row is also label 1 ⇒ certain.
        let out = certain_prediction_1nn(&train, &labels, &[11.2]).unwrap();
        assert_eq!(out, CertainOutcome::Certain(1));
    }

    #[test]
    fn same_label_uncertainty_is_harmless() {
        // A wide interval on a row that shares the winning label cannot
        // change the prediction.
        let rows = vec![
            vec![Interval::point(0.0)],
            vec![Interval::new(-50.0, 50.0)], // label 0, wide
            vec![Interval::point(10.0)],
        ];
        let train = SymbolicMatrix::from_rows(rows).unwrap();
        let labels = vec![0, 0, 1];
        let out = certain_prediction_1nn(&train, &labels, &[0.3]).unwrap();
        assert_eq!(out, CertainOutcome::Certain(0));
    }

    #[test]
    fn certainty_check_is_exact_vs_grid_enumeration() {
        // One missing cell: enumerate a fine grid of worlds and verify the
        // analytic verdict matches brute force.
        let rows = vec![
            vec![Interval::point(0.0)],
            vec![Interval::new(0.0, 6.0)], // label 1, uncertain cell
            vec![Interval::point(10.0)],
        ];
        let train = SymbolicMatrix::from_rows(rows.clone()).unwrap();
        let labels = vec![0, 1, 1];
        for q in [1.0f64, 4.0, 8.0] {
            let verdict = certain_prediction_1nn(&train, &labels, &[q]).unwrap();
            // Brute force over the single uncertain cell.
            let mut seen = std::collections::HashSet::new();
            for step in 0..=600 {
                let v = 6.0 * step as f64 / 600.0;
                let dists = [
                    (q - 0.0) * (q - 0.0),
                    (q - v) * (q - v),
                    (q - 10.0) * (q - 10.0),
                ];
                let mut best = 0;
                for i in 1..3 {
                    if dists[i] < dists[best] {
                        best = i;
                    }
                }
                seen.insert(labels[best]);
            }
            assert_eq!(
                verdict.is_certain(),
                seen.len() == 1,
                "query {q}: verdict {verdict:?}, brute-force labels {seen:?}"
            );
        }
    }

    #[test]
    fn index_matches_aos_reference() {
        for (missing, seed) in [(0usize, 31), (10, 32), (40, 33)] {
            let (sym, labels, queries) = random_symbolic(120, 4, missing, seed);
            let index = CertainKnnIndex::new(&sym, &labels).unwrap();
            let mut some_certain = false;
            for q in queries.iter_rows() {
                let reference = certain_prediction_1nn(&sym, &labels, q).unwrap();
                assert_eq!(index.classify(q).unwrap(), reference);
                some_certain |= reference.is_certain();
            }
            assert!(some_certain, "degenerate test data (missing={missing})");
        }
    }

    #[test]
    fn rejects_invalid_arguments() {
        let (train, labels) = exact_train();
        assert!(certain_prediction_1nn(&train, &labels[..2], &[0.0]).is_err());
        assert!(certain_prediction_1nn(&train, &labels, &[0.0, 1.0]).is_err());
        let empty = SymbolicMatrix::from_rows(vec![]).unwrap();
        assert!(certain_prediction_1nn(&empty, &[], &[0.0]).is_err());
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
}
