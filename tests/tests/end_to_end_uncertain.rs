//! End-to-end integration of the *Learn* pillar: symbolic encoding, Zorro
//! bounds, certain predictions, dataset multiplicity and possible worlds
//! working together over the shared scenario.

use nde::api::{encode_symbolic, estimate_with_zorro, zorro_config};
use nde::scenario::load_recommendation_letters;
use nde_data::inject::Missingness;
use nde_data::rng::seeded;
use nde_data::rng::Rng;
use nde_ml::models::knn::KnnClassifier;
use nde_tests::interval_rows;
use nde_uncertain::certain_knn::CertainKnnIndex;
use nde_uncertain::worlds::sample_worlds_par;
use nde_uncertain::zorro::{train_concrete_gd, ZorroRegressor};

#[test]
fn zorro_bound_contains_many_sampled_worlds() {
    let s = load_recommendation_letters(250, 21);
    let enc =
        encode_symbolic(&s.train, "employer_rating", 0.15, Missingness::Mcar, 22).expect("encodes");
    let cfg = zorro_config();
    let mut zorro = ZorroRegressor::new(cfg.clone());
    zorro.fit(&enc.x, &enc.y).expect("fits");
    let (tx, ty) = enc.encode_test(&s.test).expect("test encodes");
    let bound = zorro.max_worst_case_loss(&tx, &ty).expect("bound");

    // Ten random imputations: their concrete max loss must stay below the bound.
    let mut rng = seeded(23);
    for _ in 0..10 {
        let mut world = enc.x.midpoint_world();
        for (r, row) in interval_rows(&enc.x).iter().enumerate() {
            for (c, iv) in row.iter().enumerate() {
                if !iv.is_point() {
                    world.set(r, c, iv.lo + rng.gen::<f64>() * iv.width());
                }
            }
        }
        let w = train_concrete_gd(&world, &enc.y, &cfg).expect("trains");
        let max_loss = tx
            .iter_rows()
            .zip(&ty)
            .map(|(row, &t)| {
                let pred: f64 = row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + w[row.len()];
                (pred - t) * (pred - t)
            })
            .fold(0.0, f64::max);
        assert!(
            max_loss <= bound + 1e-6,
            "sampled world loss {max_loss} exceeds bound {bound}"
        );
    }
}

#[test]
fn certain_predictions_and_world_sampling_are_consistent() {
    // If a 1-NN prediction is certain, sampled worlds must agree with it
    // (100% share); uncertain ones may split.
    let s = load_recommendation_letters(150, 24);
    let enc =
        encode_symbolic(&s.train, "employer_rating", 0.2, Missingness::Mcar, 25).expect("encodes");
    let labels: Vec<usize> = enc.y.iter().map(|&v| usize::from(v > 0.0)).collect();
    let (tx, _) = enc.encode_test(&s.test).expect("test encodes");
    let (coverage, outcomes) = CertainKnnIndex::new(&enc.x, &labels)
        .and_then(|i| i.coverage(&tx, 1))
        .expect("coverage");
    assert!((0.0..=1.0).contains(&coverage));

    let ensemble = sample_worlds_par(&KnnClassifier::new(1), &enc.x, &labels, 2, &tx, 40, 26, 1)
        .expect("worlds sample");
    for (t, o) in outcomes.iter().enumerate() {
        if o.is_certain() {
            let share = ensemble.shares[t][o.label()];
            assert!(
                (share - 1.0).abs() < 1e-12,
                "certain point {t} got share {share} in sampled worlds"
            );
        }
    }
}

#[test]
fn more_missingness_weakly_reduces_certainty_and_raises_bounds() {
    let s = load_recommendation_letters(200, 27);
    let mut last_bound = 0.0;
    let mut last_coverage = 1.0 + 1e-9;
    for pct in [0.05, 0.15, 0.3] {
        let enc = encode_symbolic(&s.train, "employer_rating", pct, Missingness::Mcar, 28)
            .expect("encodes");
        let bound = estimate_with_zorro(&enc, &s.test).expect("bound");
        assert!(
            bound >= last_bound - 1e-9,
            "bound shrank: {bound} < {last_bound}"
        );
        last_bound = bound;

        let labels: Vec<usize> = enc.y.iter().map(|&v| usize::from(v > 0.0)).collect();
        let (tx, _) = enc.encode_test(&s.test).expect("test encodes");
        let (coverage, _) = CertainKnnIndex::new(&enc.x, &labels)
            .and_then(|i| i.coverage(&tx, 1))
            .expect("coverage");
        assert!(
            coverage <= last_coverage + 1e-9,
            "coverage grew with more missingness: {coverage} > {last_coverage}"
        );
        last_coverage = coverage;
    }
}
