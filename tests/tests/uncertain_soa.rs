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
use nde_tests::interval_rows;
use nde_uncertain::certain_knn::{CertainKnnIndex, CertainOutcome};
use nde_uncertain::symbolic::column_bounds_from_observed;
use nde_uncertain::{Interval, SymbolicMatrix};

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

/// Every training row has an unbounded cell, so every distance upper bound
/// and midpoint is infinite: the candidate and the guess are the first
/// row, by the `(value, row index)` order.
#[test]
fn knn_all_rows_unbounded_matches_oracle() {
    let wide = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
    let sym = SymbolicMatrix::from_rows(vec![
        vec![wide, Interval::point(0.0)],
        vec![wide, Interval::point(1.0)],
    ])
    .expect("rectangular");
    let labels = [1, 0];
    let index = CertainKnnIndex::new(&sym, &labels).expect("index");
    for q in [[0.5, 0.5], [0.0, 0.0], [-3.0, 7.0]] {
        let reference = certain_prediction_1nn(&sym, &labels, &q).expect("oracle");
        assert_eq!(reference, CertainOutcome::Uncertain(1), "query {q:?}");
        assert_eq!(index.classify(&q).expect("classify"), reference);
    }
}

/// One tie-heavy case: `rows` rows on the integer grid `[-2, 2]^cols`,
/// `open_pct` percent of them with a cell widened to an integer column
/// domain. With `cols ≥ 2` the last column's domain is a single point and
/// random cells of every row are "missing" there, which leaves those rows
/// complete. Queries are every training row's concrete values plus random
/// half-integer points.
fn grid_case(
    seed: u64,
    rows: usize,
    cols: usize,
    classes: usize,
    open_pct: usize,
) -> (SymbolicMatrix, Vec<usize>, Matrix) {
    let mut rng = seeded(seed);
    let x = Matrix::from_rows(
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-2i64..=2) as f64).collect())
            .collect(),
    )
    .expect("rectangular");
    let point_col = (cols >= 2).then_some(cols - 1);
    let wide_cols = cols - usize::from(point_col.is_some());
    let bounds: Vec<Interval> = (0..cols)
        .map(|c| {
            let lo = rng.gen_range(-3i64..=1) as f64;
            if Some(c) == point_col {
                Interval::point(lo)
            } else {
                Interval::new(lo, lo + rng.gen_range(1i64..=3) as f64)
            }
        })
        .collect();
    let mut missing = Vec::new();
    for r in 0..rows {
        if rng.gen_range(0..100usize) < open_pct {
            missing.push((r, rng.gen_range(0..wide_cols)));
        }
        if let Some(c) = point_col.filter(|_| rng.gen_bool(0.5)) {
            missing.push((r, c));
        }
    }
    let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).expect("cells");
    let labels = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
    let mut queries: Vec<Vec<f64>> = x.iter_rows().map(<[f64]>::to_vec).collect();
    queries.extend((0..24).map(|_| {
        (0..cols)
            .map(|_| rng.gen_range(-6i64..=6) as f64 * 0.5)
            .collect()
    }));
    (
        sym,
        labels,
        Matrix::from_rows(queries).expect("rectangular"),
    )
}

/// Certain-KNN on small integer grids, where distances, upper bounds and
/// midpoints tie exactly between complete and open rows: `classify` and
/// `classify_batch` at 1/2/4/7 threads equal the oracle on every query,
/// with all rows complete, all rows open and mixes, over 2 and 3 classes.
#[test]
fn knn_grid_ties_match_oracle_at_every_thread_count() {
    let (mut certain, mut uncertain) = (0, 0);
    for seed in 0..72u64 {
        let cols = 1 + (seed % 3) as usize;
        let classes = 2 + (seed / 3 % 2) as usize;
        let open_pct = [0, 35, 70, 100][(seed / 6 % 4) as usize];
        let rows = 3 + (seed as usize * 7) % 22;
        let (sym, labels, queries) = grid_case(seed ^ 0x6e1d, rows, cols, classes, open_pct);
        let open_rows = interval_rows(&sym)
            .iter()
            .filter(|row| row.iter().any(|iv| !iv.is_point()))
            .count();
        match open_pct {
            0 => assert_eq!(open_rows, 0, "seed {seed}"),
            100 => assert_eq!(open_rows, rows, "seed {seed}"),
            _ => {}
        }
        let expect: Vec<CertainOutcome> = queries
            .iter_rows()
            .map(|q| certain_prediction_1nn(&sym, &labels, q).expect("oracle"))
            .collect();
        let index = CertainKnnIndex::new(&sym, &labels).expect("index");
        for (q, want) in queries.iter_rows().zip(&expect) {
            assert_eq!(
                index.classify(q).expect("classify"),
                *want,
                "seed {seed}, query {q:?}"
            );
        }
        for threads in [1usize, 2, 4, 7] {
            let batch = index.classify_batch(&queries, threads).expect("batch");
            assert_eq!(batch, expect, "seed {seed}, {threads} threads");
        }
        certain += expect.iter().filter(|o| o.is_certain()).count();
        uncertain += expect.iter().filter(|o| !o.is_certain()).count();
    }
    assert!(
        certain > 100 && uncertain > 100,
        "{certain} certain, {uncertain} uncertain"
    );
}

/// The columns a row leaves open, by row index.
type OpenColumns = fn(usize) -> Vec<usize>;

/// `rows` rows on the integer grid `[-2, 2]^cols`, labels in `0..3`, with
/// row `r` missing the columns `open(r)` (widened to the observed column
/// domain); queries are every training row's values plus random
/// half-integer points.
fn open_at(
    seed: u64,
    rows: usize,
    cols: usize,
    open: OpenColumns,
) -> (SymbolicMatrix, Vec<usize>, Matrix) {
    let mut rng = seeded(seed);
    let x = Matrix::from_rows(
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-2i64..=2) as f64).collect())
            .collect(),
    )
    .expect("rectangular");
    let missing: Vec<(usize, usize)> = (0..rows)
        .flat_map(|r| open(r).into_iter().map(move |c| (r, c)))
        .collect();
    let bounds = column_bounds_from_observed(&x);
    let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).expect("cells");
    let labels = (0..rows).map(|_| rng.gen_range(0..3usize)).collect();
    let mut queries: Vec<Vec<f64>> = x.iter_rows().map(<[f64]>::to_vec).collect();
    queries.extend((0..30).map(|_| {
        (0..cols)
            .map(|_| rng.gen_range(-6i64..=6) as f64 * 0.5)
            .collect()
    }));
    (
        sym,
        labels,
        Matrix::from_rows(queries).expect("rectangular"),
    )
}

/// Certain-KNN over open rows whose first open columns differ: a row open
/// at column 0 (every row's shared point prefix is empty), open rows that
/// are all open only in the last column, and rows with point cells
/// between the shared prefix and their own first open column. Verdicts
/// equal the oracle at 1/2/4/7 threads.
#[test]
fn knn_mixed_first_open_columns_match_oracle() {
    let cols = 6;
    // (what, first open column the rows share, row r's open columns)
    let cases: [(&str, usize, OpenColumns); 3] = [
        ("a row open at column 0", 0, |r| match r % 5 {
            0 => vec![4],
            1 if r == 6 => vec![0, 3],
            2 => vec![2, 5],
            _ => vec![],
        }),
        ("open only in the last column", 5, |r| {
            if r % 3 == 0 {
                vec![5]
            } else {
                vec![]
            }
        }),
        ("point cells past the shared prefix", 2, |r| match r % 4 {
            0 => vec![2],
            1 => vec![3, 5],
            2 => vec![5],
            _ => vec![],
        }),
    ];
    let (mut certain, mut uncertain) = (0, 0);
    for (what, shared, open) in cases {
        for seed in 0..6u64 {
            let (sym, labels, queries) = open_at(seed ^ 0x51f, 30, cols, open);
            let first_open = (0..sym.len())
                .map(|r| sym.first_open_column(r))
                .filter(|&c| c < cols)
                .min();
            assert_eq!(first_open, Some(shared), "{what}, seed {seed}");
            let expect: Vec<CertainOutcome> = queries
                .iter_rows()
                .map(|q| certain_prediction_1nn(&sym, &labels, q).expect("oracle"))
                .collect();
            let index = CertainKnnIndex::new(&sym, &labels).expect("index");
            for (q, want) in queries.iter_rows().zip(&expect) {
                let got = index.classify(q).expect("classify");
                assert_eq!(got, *want, "{what}, seed {seed}, query {q:?}");
            }
            for threads in [1usize, 2, 4, 7] {
                let batch = index.classify_batch(&queries, threads).expect("batch");
                assert_eq!(batch, expect, "{what}, seed {seed}, {threads} threads");
            }
            certain += expect.iter().filter(|o| o.is_certain()).count();
            uncertain += expect.iter().filter(|o| !o.is_certain()).count();
        }
    }
    assert!(
        certain > 50 && uncertain > 50,
        "{certain} certain, {uncertain} uncertain"
    );
}

/// Certain-KNN across the exact pass's 8-row panels: 29 exact rows (three
/// panels and a tail of 5) and 11 open rows (one panel and a tail of 3)
/// whose first open columns differ. Verdicts equal the oracle at 1/2/4/7
/// threads.
#[test]
fn knn_rows_across_panel_boundaries_match_oracle() {
    let (rows, cols) = (40, 9);
    let open: OpenColumns = |r| match r {
        38 => vec![8],
        _ if r % 4 == 1 => vec![2 + r % 3, 7],
        _ => vec![],
    };
    let (mut certain, mut uncertain) = (0, 0);
    for seed in 0..4u64 {
        let (sym, labels, queries) = open_at(seed ^ 0x8a, rows, cols, open);
        let open_rows = (0..rows)
            .filter(|&r| sym.first_open_column(r) < cols)
            .count();
        assert_eq!(open_rows, 11, "seed {seed}");
        let expect: Vec<CertainOutcome> = queries
            .iter_rows()
            .map(|q| certain_prediction_1nn(&sym, &labels, q).expect("oracle"))
            .collect();
        let index = CertainKnnIndex::new(&sym, &labels).expect("index");
        for threads in [1usize, 2, 4, 7] {
            let batch = index.classify_batch(&queries, threads).expect("batch");
            assert_eq!(batch, expect, "seed {seed}, {threads} threads");
        }
        certain += expect.iter().filter(|o| o.is_certain()).count();
        uncertain += expect.iter().filter(|o| !o.is_certain()).count();
    }
    assert!(
        certain > 20 && uncertain > 20,
        "{certain} certain, {uncertain} uncertain"
    );
}
