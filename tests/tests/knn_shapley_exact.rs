//! Ground truth for closed-form KNN-Shapley: on training sets of at most
//! ten rows, `knn_shapley` must equal the Shapley values of the soft KNN
//! utility computed from its definition, by enumerating all 2^n subsets.
//!
//! The utility of a subset `S` of training rows is the mean over validation
//! points of `(1/K) · #{rows with the validation label among the min(K, |S|)
//! nearest in S}`, nearest by squared Euclidean distance with ties broken by
//! row index, and `U(∅) = 0`. Row `i`'s Shapley value is
//! `Σ_{S ⊆ N∖{i}} |S|! (n − |S| − 1)! / n! · (U(S ∪ {i}) − U(S))`.

use nde_importance::run::{knn_shapley, ImportanceRun};
use nde_ml::dataset::Dataset;

/// Largest gap allowed between the closed form and the enumeration.
const TOLERANCE: f64 = 1e-12;

/// Squared Euclidean distance, summed in column order.
fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Every validation point's training rows, nearest first, ties by index.
fn orders(train: &Dataset, valid: &Dataset) -> Vec<Vec<usize>> {
    valid
        .x
        .iter_rows()
        .map(|v| {
            let dist: Vec<f64> = train
                .x
                .iter_rows()
                .map(|t| squared_distance(t, v))
                .collect();
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.sort_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
            order
        })
        .collect()
}

/// `U(S)` for the subset whose members are the set bits of `mask`.
fn utility(train: &Dataset, valid: &Dataset, orders: &[Vec<usize>], k: usize, mask: usize) -> f64 {
    let size = mask.count_ones() as usize;
    if size == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (order, &label) in orders.iter().zip(&valid.y) {
        let nearest = order.iter().filter(|&&i| mask & (1 << i) != 0);
        let hits = nearest
            .take(k.min(size))
            .filter(|&&i| train.y[i] == label)
            .count();
        total += hits as f64 / k as f64;
    }
    total / valid.len() as f64
}

/// Shapley values of every training row under [`utility`], by enumeration,
/// and `U(D)`.
fn enumerated_shapley(train: &Dataset, valid: &Dataset, k: usize) -> (Vec<f64>, f64) {
    let n = train.len();
    assert!(n <= 10, "enumeration is for at most ten rows");
    let orders = orders(train, valid);
    let u: Vec<f64> = (0..1usize << n)
        .map(|mask| utility(train, valid, &orders, k, mask))
        .collect();
    // weight[s] = s! (n − s − 1)! / n!
    let factorial = |x: usize| (1..=x).map(|v| v as f64).product::<f64>();
    let weight: Vec<f64> = (0..n)
        .map(|s| factorial(s) * factorial(n - s - 1) / factorial(n))
        .collect();
    let values = (0..n)
        .map(|i| {
            (0..1usize << n)
                .filter(|mask| mask & (1 << i) == 0)
                .map(|mask| weight[mask.count_ones() as usize] * (u[mask | (1 << i)] - u[mask]))
                .sum()
        })
        .collect();
    (values, u[(1 << n) - 1])
}

fn dataset(rows: &[&[f64]], y: &[usize], n_classes: usize) -> Dataset {
    let rows = rows.iter().map(|r| r.to_vec()).collect();
    Dataset::from_rows(rows, y.to_vec(), n_classes).unwrap()
}

/// Ten rows of two features in two overlapping clusters, three of them
/// mislabelled.
fn two_class() -> (Dataset, Dataset) {
    let train = dataset(
        &[
            &[0.1, 0.3],
            &[0.4, -0.2],
            &[-0.3, 0.1],
            &[0.8, 0.9],
            &[1.9, 2.2],
            &[2.3, 1.7],
            &[2.0, 2.6],
            &[1.1, 1.4],
            &[0.2, 0.0],
            &[2.6, 2.1],
        ],
        &[0, 0, 0, 1, 1, 1, 1, 0, 1, 0],
        2,
    );
    let valid = dataset(
        &[
            &[0.0, 0.2],
            &[2.1, 2.0],
            &[1.0, 1.1],
            &[0.5, 0.4],
            &[2.4, 2.5],
            &[-0.1, -0.3],
        ],
        &[0, 1, 1, 0, 1, 0],
        2,
    );
    (train, valid)
}

/// Nine rows of three classes where rows 1, 4 and 7 copy rows 0, 3 and 6
/// (row 4 with another label), so distances tie exactly.
fn three_class_with_duplicates() -> (Dataset, Dataset) {
    let train = dataset(
        &[
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.5, -0.4],
            &[3.0, 0.2],
            &[3.0, 0.2],
            &[2.6, -0.3],
            &[1.4, 2.8],
            &[1.4, 2.8],
            &[1.9, 2.1],
        ],
        &[0, 0, 1, 1, 2, 1, 2, 2, 0],
        3,
    );
    let valid = dataset(
        &[
            &[0.2, 0.1],
            &[2.8, 0.0],
            &[1.5, 2.5],
            &[1.6, 1.0],
            &[3.1, 0.3],
        ],
        &[0, 1, 2, 1, 2],
        3,
    );
    (train, valid)
}

/// Seven one-feature rows with validation points exactly between two
/// training rows of different labels (distances 1.0 and 1.0, 0.25 and
/// 0.25), so the tie between them decides the nearest neighbour.
fn equidistant() -> (Dataset, Dataset) {
    let train = dataset(
        &[&[0.0], &[2.0], &[5.0], &[6.0], &[9.0], &[-3.0], &[4.0]],
        &[0, 1, 1, 0, 2, 0, 2],
        3,
    );
    let valid = dataset(&[&[1.0], &[5.5], &[7.5], &[-1.0]], &[1, 0, 2, 0], 3);
    (train, valid)
}

fn check(name: &str, train: &Dataset, valid: &Dataset) {
    let n = train.len();
    for k in [1, 2, 3, n, n + 3] {
        let (want, full) = enumerated_shapley(train, valid, k);
        let sum: f64 = want.iter().sum();
        assert!(
            (sum - full).abs() <= TOLERANCE,
            "{name} k={k}: enumeration sums to {sum}, U(D) = {full}"
        );
        for threads in [1, 4] {
            let run = ImportanceRun::new(0).with_threads(threads);
            let got = knn_shapley(&run, train, valid, k).unwrap().scores.values;
            assert_eq!(got.len(), n);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= TOLERANCE,
                    "{name} k={k} threads={threads} row {i}: closed form {g}, enumeration {w}"
                );
            }
            let sum: f64 = got.iter().sum();
            assert!(
                (sum - full).abs() <= TOLERANCE,
                "{name} k={k} threads={threads}: values sum to {sum}, U(D) = {full}"
            );
        }
    }
}

#[test]
fn two_class_values_equal_the_enumeration() {
    let (train, valid) = two_class();
    check("2-class", &train, &valid);
}

#[test]
fn three_class_values_with_duplicated_rows_equal_the_enumeration() {
    let (train, valid) = three_class_with_duplicates();
    check("3-class duplicates", &train, &valid);
}

#[test]
fn equidistant_rows_break_ties_by_index() {
    let (train, valid) = equidistant();
    check("equidistant", &train, &valid);
    // With k = 1 only the nearer row (by index, on a tie) scores for the
    // first validation point: row 0 (label 0) shadows row 1 (label 1), so
    // U({0, 1}) − U({0}) is 0 for that point. Swapping the two rows' order
    // in the training set swaps which one scores.
    let (values, _) = enumerated_shapley(&train, &valid, 1);
    let mut swapped = train.clone();
    swapped.x = nde_ml::linalg::Matrix::from_rows(
        [1usize, 0, 2, 3, 4, 5, 6]
            .iter()
            .map(|&i| train.x.row(i).to_vec())
            .collect(),
    )
    .unwrap();
    swapped.y.swap(0, 1);
    let (swapped_values, _) = enumerated_shapley(&swapped, &valid, 1);
    assert_ne!(values[1], swapped_values[0]);
    check("equidistant swapped", &swapped, &valid);
}
