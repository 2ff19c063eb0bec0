//! Property tests for the SoA certain-KNN scan: across many seeded random
//! matrices, missing-cell fractions, and thread counts, its verdicts must
//! equal the per-query scalar-`Interval` 1-NN check of this crate. (The
//! Zorro engine's AoS cross-check lives with the crate-private trainer
//! helpers it needs, in `nde_uncertain::zorro`'s unit tests.)
//!
//! All randomness is seeded through the in-tree `nde_data::rng`, so every
//! run checks exactly the same matrices.

use nde_data::rng::{sample_indices, seeded, Rng};
use nde_ml::linalg::Matrix;
use nde_tests::certain_knn::certain_prediction_1nn;
use nde_uncertain::certain_knn::CertainKnnIndex;
use nde_uncertain::symbolic::column_bounds_from_observed;
use nde_uncertain::SymbolicMatrix;

/// Random concrete matrix with `missing` cells widened to column bounds.
fn random_symbolic(
    rows: usize,
    cols: usize,
    missing: usize,
    seed: u64,
) -> (SymbolicMatrix, Matrix) {
    let mut rng = seeded(seed);
    let x = Matrix::from_rows(
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect(),
    )
    .expect("rectangular");
    let bounds = column_bounds_from_observed(&x);
    let cells: Vec<(usize, usize)> = sample_indices(rows * cols, missing, &mut rng)
        .into_iter()
        .map(|i| (i / cols, i % cols))
        .collect();
    let sym = SymbolicMatrix::from_matrix_with_missing(&x, &cells, &bounds).expect("valid cells");
    (sym, x)
}

/// Certain-KNN: the pruned SoA verdicts match the AoS per-query scan
/// exactly, on every query, across missing fractions.
#[test]
fn knn_soa_verdicts_equal_aos_reference() {
    for (seed, rows, cols, missing) in [
        (21u64, 80usize, 3usize, 0usize),
        (22, 150, 4, 20),
        (23, 120, 5, 90),
    ] {
        let (sym, _) = random_symbolic(rows, cols, missing, seed);
        let mut rng = seeded(seed ^ 0xab);
        let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..3usize)).collect();
        let queries: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..cols).map(|_| rng.gen_range(-2.5..2.5)).collect())
            .collect();
        let index = CertainKnnIndex::new(&sym, &labels).expect("index");
        for q in &queries {
            let reference = certain_prediction_1nn(&sym, &labels, q).expect("aos");
            let pruned = index.classify(q).expect("pruned");
            assert_eq!(pruned, reference, "pruned verdict differs (seed {seed})");
        }
    }
}

/// Batched classification is invariant to the thread count and equal to
/// the sequential per-query loop.
#[test]
fn knn_batch_is_thread_invariant() {
    let (sym, _) = random_symbolic(110, 4, 33, 31);
    let mut rng = seeded(99);
    let labels: Vec<usize> = (0..110).map(|_| rng.gen_range(0..2usize)).collect();
    let queries = Matrix::from_rows(
        (0..48)
            .map(|_| (0..4).map(|_| rng.gen_range(-2.5..2.5)).collect())
            .collect(),
    )
    .expect("rectangular");
    let index = CertainKnnIndex::new(&sym, &labels).expect("index");
    let sequential: Vec<_> = queries
        .iter_rows()
        .map(|q| index.classify(q).expect("classify"))
        .collect();
    for threads in [1usize, 2, 4, 7] {
        let batched = index.classify_batch(&queries, threads).expect("batch");
        assert_eq!(batched, sequential, "batch differs at {threads} threads");
    }
}
