//! Randomized-property tests for encoders and metrics invariants, driven by
//! the in-tree seeded PRNG so every failure reproduces exactly.

use nde_data::rng::{seeded, Rng, StdRng};
use nde_ml::encode::{
    CategoricalImputer, HashedTextEncoder, NumericImputation, NumericImputer, OneHotEncoder,
    StandardScaler,
};
use nde_ml::metrics::{accuracy, f1_score, prediction_entropy};

const CASES: usize = 200;

fn random_string(rng: &mut StdRng, alphabet: &str, max_len: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// `Some(category)` with probability 3/4, where the category is a single
/// letter drawn from `alphabet`.
fn random_opt_cat(rng: &mut StdRng, alphabet: &str) -> Option<String> {
    if rng.gen_bool(0.25) {
        None
    } else {
        Some(random_string(rng, alphabet, 1).chars().take(1).collect())
    }
}

#[test]
fn scaler_roundtrips_and_standardizes() {
    let mut rng = seeded(21);
    for _ in 0..CASES {
        let n = rng.gen_range(2..50usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let s = StandardScaler::fit(&values).expect("fits");
        let (_, sd) = s.params();
        for &v in &values {
            let z = s.transform_one(v);
            if sd > 1e-9 {
                let back = s.inverse_one(z);
                assert!((back - v).abs() < 1e-6 * v.abs().max(1.0));
            } else {
                assert_eq!(z, 0.0);
            }
        }
    }
}

#[test]
fn numeric_imputer_fill_is_within_range() {
    let mut rng = seeded(22);
    for _ in 0..CASES {
        let n = rng.gen_range(1..40usize);
        let mut values: Vec<Option<f64>> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    None
                } else {
                    Some(rng.gen_range(-1e3..1e3))
                }
            })
            .collect();
        if !values.iter().any(Option::is_some) {
            values[0] = Some(rng.gen_range(-1e3..1e3));
        }
        for strategy in [NumericImputation::Mean, NumericImputation::Median] {
            let mut imp = NumericImputer::new(strategy);
            imp.fit(&values).expect("fits");
            let fill = imp.fill_value().expect("fitted");
            let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
            let min = present.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = present.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            assert!(fill >= min - 1e-9 && fill <= max + 1e-9);
            // Transform leaves observed values untouched.
            let out = imp.transform(&values).expect("transforms");
            for (o, v) in out.iter().zip(&values) {
                if let Some(v) = v {
                    assert_eq!(o, v);
                }
            }
        }
    }
}

#[test]
fn one_hot_outputs_are_one_hot_or_zero() {
    let mut rng = seeded(23);
    for _ in 0..CASES {
        let n = rng.gen_range(1..30usize);
        let mut cats: Vec<Option<String>> =
            (0..n).map(|_| random_opt_cat(&mut rng, "abcde")).collect();
        if !cats.iter().any(Option::is_some) {
            cats[0] = Some("a".into());
        }
        let query = random_string(&mut rng, "abcdefgh", 1);
        let enc = OneHotEncoder::from_categories(cats.iter().flatten().map(String::as_str))
            .expect("fits");
        let v = enc.encode(&query);
        let sum: f64 = v.iter().sum();
        assert!(sum == 0.0 || sum == 1.0);
        let known = enc.categories().iter().any(|c| c == &query);
        assert_eq!(sum == 1.0, known);
    }
}

#[test]
fn categorical_mode_fill_is_an_observed_category() {
    let mut rng = seeded(24);
    for _ in 0..CASES {
        let n = rng.gen_range(1..30usize);
        let mut cats: Vec<Option<String>> =
            (0..n).map(|_| random_opt_cat(&mut rng, "abcd")).collect();
        if !cats.iter().any(Option::is_some) {
            cats[0] = Some("a".into());
        }
        let mut counts = std::collections::BTreeMap::new();
        for c in cats.iter().flatten() {
            *counts.entry(c.as_str()).or_insert(0) += 1;
        }
        let mut imp = CategoricalImputer::mode();
        imp.fit_counts(counts).expect("fits");
        let fill = imp.fill_value().expect("fitted").to_owned();
        assert!(cats.iter().flatten().any(|c| c == &fill));
    }
}

#[test]
fn hashed_text_is_deterministic_and_bounded() {
    let mut rng = seeded(25);
    for _ in 0..CASES {
        let text = random_string(&mut rng, "abcdefghijklmnopqrstuvwxyz ", 60);
        let dims = rng.gen_range(1..128usize);
        let enc = HashedTextEncoder::new(dims);
        let a = enc.encode(&text);
        let b = enc.encode(&text);
        assert_eq!(&a, &b);
        assert_eq!(a.len(), dims);
        let norm: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 1.0 + 1e-9);
        assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-9);
    }
}

#[test]
fn accuracy_and_f1_are_bounded_and_consistent() {
    let mut rng = seeded(26);
    for _ in 0..CASES {
        let labels: Vec<usize> = (0..rng.gen_range(1..40usize))
            .map(|_| rng.gen_range(0..2usize))
            .collect();
        let preds: Vec<usize> = (0..rng.gen_range(1..40usize))
            .map(|_| rng.gen_range(0..2usize))
            .collect();
        let n = labels.len().min(preds.len());
        let y = &labels[..n];
        let p = &preds[..n];
        let acc = accuracy(y, p).expect("valid");
        assert!((0.0..=1.0).contains(&acc));
        let f1 = f1_score(y, p, 1).expect("valid");
        assert!((0.0..=1.0).contains(&f1));
        // Perfect predictions pin both to 1.
        assert_eq!(accuracy(y, y).expect("valid"), 1.0);
    }
}

#[test]
fn entropy_bounded_and_extremal() {
    let mut rng = seeded(27);
    for _ in 0..CASES {
        let k = rng.gen_range(2..6usize);
        let raw: Vec<f64> = (0..k).map(|_| rng.gen_range(0.001..1.0)).collect();
        let n_rows = rng.gen_range(1..10usize);
        let sum: f64 = raw.iter().sum();
        let dist: Vec<f64> = raw.iter().map(|v| v / sum).collect();
        let rows = vec![dist.clone(); n_rows];
        let h = prediction_entropy(&rows).expect("valid distribution");
        assert!((0.0..=1.0 + 1e-9).contains(&h));
        // One-hot rows give exactly zero.
        let mut onehot = vec![0.0; dist.len()];
        onehot[0] = 1.0;
        let h0 = prediction_entropy(&vec![onehot; n_rows]).expect("valid");
        assert_eq!(h0, 0.0);
    }
}
