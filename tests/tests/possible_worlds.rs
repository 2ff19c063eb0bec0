//! Possible worlds: KNN's world voter (world-invariant distances folded
//! once, only the varying cells recomputed per world) against refitting a
//! `KnnClassifier` on every world, bit for bit, over random masks at 1, 2,
//! 4 and 7 threads; error parity for every validation error; and the
//! unchanged refit path of a model without a voter.
//!
//! Training values sit on a half-integer grid, so duplicate rows and exact
//! distance ties are common. All randomness is seeded through the in-tree
//! `nde_data::rng`, so every run checks exactly the same inputs.

use nde_data::rng::{sample_indices, seeded, Rng, StdRng};
use nde_ml::linalg::Matrix;
use nde_ml::models::knn::KnnClassifier;
use nde_ml::models::naive_bayes::GaussianNb;
use nde_ml::{Classifier, Dataset, MlError, Result};
use nde_tests::interval_rows;
use nde_tests::worlds::{refit_shares, RefitKnn};
use nde_uncertain::worlds::sample_worlds_par;
use nde_uncertain::{Interval, SymbolicMatrix};

const THREADS: [usize; 4] = [1, 2, 4, 7];
const WORLDS: usize = 12;

/// KNN that can only vote through its world voter: a refit fails, so a
/// run that silently fell back to refitting would be an error.
#[derive(Debug, Clone)]
struct VoterOnly(KnnClassifier);

impl Classifier for VoterOnly {
    fn config_tag(&self) -> String {
        format!("voter-only-{}", self.0.config_tag())
    }

    fn fit(&mut self, _data: &Dataset) -> Result<()> {
        Err(MlError::InvalidArgument("refit path taken".into()))
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        self.0.predict_one(x)
    }

    fn n_classes(&self) -> usize {
        self.0.n_classes()
    }

    fn is_fitted(&self) -> bool {
        self.0.is_fitted()
    }

    fn world_voter<'a>(
        &self,
        fixed: &[f64],
        width: usize,
        labels: &'a [usize],
        n_classes: usize,
        varying_from: &[usize],
        test: &'a Matrix,
        threads: usize,
    ) -> Option<nde_ml::batch::KnnWorldVoter<'a>> {
        self.0
            .world_voter(fixed, width, labels, n_classes, varying_from, test, threads)
    }
}

fn grid(rng: &mut StdRng) -> f64 {
    f64::from(rng.gen_range(-4i32..5)) * 0.5
}

/// A training set on the grid whose `missing` cells widen to random
/// non-degenerate grid intervals, with labels in
/// `0..n_classes`, and `queries` test rows, half of them copies of
/// training rows' point values.
fn case(
    rows: usize,
    cols: usize,
    n_classes: usize,
    missing: &[(usize, usize)],
    queries: usize,
    seed: u64,
) -> (SymbolicMatrix, Vec<usize>, Matrix) {
    let mut rng = seeded(seed);
    let x: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| grid(&mut rng)).collect())
        .collect();
    let mut sym: Vec<Vec<Interval>> = x
        .iter()
        .map(|r| r.iter().map(|&v| Interval::point(v)).collect())
        .collect();
    for &(r, c) in missing {
        let lo = grid(&mut rng);
        sym[r][c] = Interval::new(lo, lo + f64::from(rng.gen_range(1i32..5)) * 0.5);
    }
    let y = (0..rows).map(|_| rng.gen_range(0..n_classes)).collect();
    let test = (0..queries)
        .map(|q| {
            if q % 2 == 0 {
                x[rng.gen_range(0..rows)].clone()
            } else {
                (0..cols).map(|_| grid(&mut rng)).collect()
            }
        })
        .collect();
    let sym = SymbolicMatrix::from_rows(sym).expect("rectangular");
    (sym, y, Matrix::from_rows(test).expect("rectangular"))
}

/// `count` distinct random rows, each missing the cells at `cols`.
fn rows_missing(rows: usize, count: usize, cols: &[usize], seed: u64) -> Vec<(usize, usize)> {
    let mut rng = seeded(seed);
    sample_indices(rows, count, &mut rng)
        .into_iter()
        .flat_map(|r| cols.iter().map(move |&c| (r, c)))
        .collect()
}

fn bits(shares: &[Vec<f64>]) -> Vec<Vec<u64>> {
    shares
        .iter()
        .map(|s| s.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The world voter's ensemble equals the refit path's bit for bit at
/// every thread count.
fn assert_voter_equals_refit(
    what: &str,
    k: usize,
    (sym, y, test): &(SymbolicMatrix, Vec<usize>, Matrix),
    n_classes: usize,
    seed: u64,
) {
    let refit = RefitKnn(KnnClassifier::new(k));
    let want = sample_worlds_par(&refit, sym, y, n_classes, test, WORLDS, seed, 1)
        .unwrap_or_else(|e| panic!("{what}: refit: {e}"));
    for threads in THREADS {
        let voter = VoterOnly(KnnClassifier::new(k));
        let got = sample_worlds_par(&voter, sym, y, n_classes, test, WORLDS, seed, threads)
            .unwrap_or_else(|e| panic!("{what}: voter at {threads} threads: {e}"));
        assert_eq!(
            bits(&got.shares),
            bits(&want.shares),
            "{what}, k={k}, threads={threads}"
        );
        assert_eq!(got.worlds, WORLDS);
    }
}

#[test]
fn uncertain_column_first_middle_and_last() {
    let (rows, cols) = (40, 6);
    for (c, label) in [(0, "first"), (3, "middle"), (cols - 1, "last")] {
        for mask in 0..3u64 {
            let missing = rows_missing(rows, 12, &[c], 100 + mask);
            let data = case(rows, cols, 2, &missing, 15, 200 + mask);
            for k in [1, 5] {
                assert_voter_equals_refit(
                    &format!("column {label}, mask {mask}"),
                    k,
                    &data,
                    2,
                    mask,
                );
            }
        }
    }
}

#[test]
fn several_uncertain_cells_per_row_and_degenerate_bounds() {
    let (rows, cols) = (36, 7);
    for mask in 0..4u64 {
        let mut missing = rows_missing(rows, 10, &[1, 4, 6], 300 + mask);
        missing.extend(rows_missing(rows, 8, &[2], 400 + mask));
        let (mut sym_rows, y, test) = {
            let (sym, y, test) = case(rows, cols, 2, &missing, 12, 500 + mask);
            (interval_rows(&sym), y, test)
        };
        // Missing cells whose bounds coincide: a lone one (the row stays
        // fixed) and one before a wide cell of the same row.
        sym_rows[0][3] = Interval::new(1.5, 1.5);
        sym_rows[1][0] = Interval::new(-0.5, -0.5);
        sym_rows[1][5] = Interval::new(-2.0, 2.0);
        let sym = SymbolicMatrix::from_rows(sym_rows).expect("rectangular");
        for k in [1, 3, 5] {
            assert_voter_equals_refit(
                &format!("several cells, mask {mask}"),
                k,
                &(sym.clone(), y.clone(), test.clone()),
                2,
                mask,
            );
        }
    }
}

/// Varying rows whose first varying columns differ: a row varying from
/// column 0 (the prefix every row shares is empty), and rows with point
/// cells between the shared prefix and their own first varying column.
#[test]
fn mixed_first_varying_columns() {
    let (rows, cols) = (36, 6);
    for mask in 0..3u64 {
        // Shared prefix 0: one row from column 0, others from 2, 4 and 5.
        let mut from_zero = vec![(5, 0), (5, 3)];
        from_zero.extend(rows_missing(rows, 6, &[4], 1300 + mask));
        from_zero.extend(rows_missing(rows, 5, &[2, 5], 1310 + mask));
        // Shared prefix 2: rows from 2, 3 and 5.
        let mut from_two = rows_missing(rows, 4, &[2], 1320 + mask);
        from_two.extend(rows_missing(rows, 6, &[3, 5], 1330 + mask));
        from_two.extend(rows_missing(rows, 6, &[5], 1340 + mask));
        for (what, missing, shared) in [("w = 0", from_zero, 0), ("w = 2", from_two, 2)] {
            let data = case(rows, cols, 3, &missing, 14, 1350 + mask);
            let sym = &data.0;
            let first = (0..rows).map(|r| sym.first_open_column(r)).min();
            assert_eq!(first, Some(shared), "{what}, mask {mask}");
            for k in [1, 3, 5] {
                assert_voter_equals_refit(&format!("{what}, mask {mask}"), k, &data, 3, mask);
            }
        }
    }
}

/// Rows across the exact pass's 8-row panels: 29 fixed rows (three panels
/// and a tail of 5) and 11 varying rows (one panel and a tail of 3) whose
/// first varying columns differ.
#[test]
fn rows_across_panel_boundaries() {
    let (rows, cols) = (40, 9);
    let missing: Vec<(usize, usize)> = (0..rows)
        .filter(|r| r % 4 == 1)
        .flat_map(|r| [(r, 2 + r % 3), (r, 7)])
        .chain([(38, 8)])
        .collect();
    for mask in 0..3u64 {
        let data = case(rows, cols, 3, &missing, 16, 1400 + mask);
        let sym = &data.0;
        let varying = (0..rows)
            .filter(|&r| sym.first_open_column(r) < cols)
            .count();
        assert_eq!(varying, 11, "mask {mask}");
        for k in [1, 3, 5] {
            assert_voter_equals_refit(&format!("panels, mask {mask}"), k, &data, 3, mask);
        }
    }
}

/// The voter reads the training plane in place: a plane that is not one
/// row of `width` cells per row makes it decline, as does a width other
/// than the test points'.
#[test]
fn a_plane_of_the_wrong_shape_declines() {
    let (rows, cols) = (12, 3);
    let (sym, y, test) = case(rows, cols, 2, &rows_missing(rows, 4, &[1], 1400), 5, 1401);
    let varying: Vec<usize> = (0..rows).map(|r| sym.first_open_column(r)).collect();
    let knn = KnnClassifier::new(3);
    let voter = |plane: &[f64], width: usize, test: &Matrix| {
        knn.world_voter(plane, width, &y, 2, &varying, test, 2)
            .is_some()
    };
    let mut longer = sym.lo().to_vec();
    longer.push(0.0);
    let wider = Matrix::from_rows(vec![vec![0.5; cols + 1]; 2]).expect("rectangular");
    assert!(voter(sym.lo(), cols, &test));
    assert!(!voter(&sym.lo()[1..], cols, &test), "one cell short");
    assert!(!voter(&longer, cols, &test), "one cell over");
    assert!(
        !voter(sym.lo(), cols + 1, &wider),
        "rows × width is not the plane"
    );
    assert!(!voter(sym.lo(), cols, &wider), "test width");
}

#[test]
fn k_at_and_beyond_the_training_size() {
    let (rows, cols) = (9, 4);
    let missing = rows_missing(rows, 4, &[2], 600);
    let data = case(rows, cols, 2, &missing, 10, 601);
    for k in [rows - 1, rows, rows + 1, 50] {
        assert_voter_equals_refit("k >= rows", k, &data, 2, 7);
    }
}

#[test]
fn no_row_and_every_row_incomplete() {
    let (rows, cols) = (30, 5);
    let none = case(rows, cols, 2, &[], 12, 700);
    let every = case(rows, cols, 2, &rows_missing(rows, rows, &[3], 701), 12, 702);
    for k in [1, 5, rows] {
        assert_voter_equals_refit("no incomplete row", k, &none, 2, 3);
        assert_voter_equals_refit("every row incomplete", k, &every, 2, 3);
    }
}

#[test]
fn duplicate_rows_tie_by_index() {
    let (rows, cols) = (24, 3);
    let (sym, mut y, test) = case(rows, cols, 2, &rows_missing(rows, 6, &[1], 800), 16, 801);
    // Every row twice, the copy labelled the other way: each world's k
    // nearest are decided by the index tie-break among equal distances.
    let mut doubled = interval_rows(&sym);
    doubled.extend(interval_rows(&sym));
    y.extend(y.clone().into_iter().map(|l| 1 - l));
    let sym = SymbolicMatrix::from_rows(doubled).expect("rectangular");
    for k in [1, 2, 4, 5] {
        assert_voter_equals_refit(
            "duplicate rows",
            k,
            &(sym.clone(), y.clone(), test.clone()),
            2,
            9,
        );
    }
}

#[test]
fn three_classes() {
    let (rows, cols) = (45, 5);
    for mask in 0..3u64 {
        let missing = rows_missing(rows, 15, &[2, 4], 900 + mask);
        let data = case(rows, cols, 3, &missing, 20, 950 + mask);
        for k in [1, 3, 5] {
            assert_voter_equals_refit(&format!("three classes, mask {mask}"), k, &data, 3, mask);
        }
    }
}

/// Cells whose draws are not finite numbers keep the refit path, and its
/// outcome.
#[test]
fn unbounded_cells_keep_the_refit_outcome() {
    let (sym, y, test) = case(10, 3, 2, &[], 4, 1000);
    let mut sym_rows = interval_rows(&sym);
    sym_rows[2][1] = Interval::new(0.0, f64::INFINITY);
    sym_rows[5][2] = Interval::new(f64::NEG_INFINITY, f64::INFINITY);
    let sym = SymbolicMatrix::from_rows(sym_rows).expect("rectangular");
    let refit = sample_worlds_par(
        &RefitKnn(KnnClassifier::new(3)),
        &sym,
        &y,
        2,
        &test,
        4,
        1,
        1,
    )
    .map(|e| bits(&e.shares));
    let knn = sample_worlds_par(&KnnClassifier::new(3), &sym, &y, 2, &test, 4, 1, 2)
        .map(|e| bits(&e.shares));
    assert_eq!(knn, refit);
}

#[test]
fn validation_errors_match_the_refit_path() {
    let (sym, y, test) = case(12, 3, 2, &rows_missing(12, 4, &[1], 1100), 5, 1101);
    let empty = SymbolicMatrix::from_rows(Vec::new()).expect("empty");
    let narrow = Matrix::from_rows(vec![vec![0.0, 1.0]; 3]).expect("rectangular");
    let mut bad_label = y.clone();
    bad_label[7] = 2;
    let cases: [(&str, &SymbolicMatrix, &[usize], usize, &Matrix); 4] = [
        ("too few classes", &sym, &y, 1, &test),
        ("bad label", &sym, &bad_label, 2, &test),
        ("empty training set", &empty, &[], 2, &test),
        ("width mismatch", &sym, &y, 2, &narrow),
    ];
    for (what, train, labels, n_classes, test) in cases {
        for threads in THREADS {
            let knn = sample_worlds_par(
                &KnnClassifier::new(3),
                train,
                labels,
                n_classes,
                test,
                WORLDS,
                5,
                threads,
            )
            .expect_err(what);
            let refit = sample_worlds_par(
                &RefitKnn(KnnClassifier::new(3)),
                train,
                labels,
                n_classes,
                test,
                WORLDS,
                5,
                threads,
            )
            .expect_err(what);
            assert_eq!(knn, refit, "{what}, threads={threads}");
        }
    }
}

/// A model without a world voter is refit on every world, with the
/// ensemble the plain sequential definition gives.
#[test]
fn models_without_a_voter_are_refit_unchanged() {
    let (rows, cols) = (40, 4);
    let missing = rows_missing(rows, 14, &[1, 3], 1200);
    let (sym, y, test) = case(rows, cols, 3, &missing, 15, 1201);
    let varying = vec![0; rows];
    assert!(GaussianNb::new()
        .world_voter(sym.lo(), cols, &y, 3, &varying, &test, 1)
        .is_none());
    let want = refit_shares(&GaussianNb::new(), &sym, &y, 3, &test, WORLDS, 11);
    for threads in THREADS {
        let got =
            sample_worlds_par(&GaussianNb::new(), &sym, &y, 3, &test, WORLDS, 11, threads).unwrap();
        assert_eq!(bits(&got.shares), bits(&want), "threads={threads}");
    }
    // The KNN reference agrees with the plain definition too.
    let knn = refit_shares(&KnnClassifier::new(5), &sym, &y, 3, &test, WORLDS, 11);
    let refit = sample_worlds_par(
        &RefitKnn(KnnClassifier::new(5)),
        &sym,
        &y,
        3,
        &test,
        WORLDS,
        11,
        4,
    )
    .unwrap();
    assert_eq!(bits(&refit.shares), bits(&knn));
}
