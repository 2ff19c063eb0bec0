//! The reference for possible-worlds sampling: the plain sequential
//! definition of the ensemble, whose KNN template is [`crate::RefitKnn`].

use nde_data::rng::{child_seed, seeded, Rng};
use nde_ml::linalg::Matrix;
use nde_ml::{Classifier, Dataset};
use nde_uncertain::SymbolicMatrix;

/// World shares by definition, one world after another: world `w` draws
/// every non-point cell uniformly, row-major, from `child_seed(seed, w)`,
/// fits a fresh clone of `template` and predicts every test row; entry
/// `[t][c]` is the fraction of worlds predicting `c` for test row `t`.
///
/// # Panics
///
/// If a world's dataset or fit is rejected.
pub fn refit_shares<C: Classifier>(
    template: &C,
    train_x: &SymbolicMatrix,
    train_y: &[usize],
    n_classes: usize,
    test_x: &Matrix,
    worlds: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut counts = vec![vec![0usize; n_classes]; test_x.rows()];
    for w in 0..worlds as u64 {
        let mut rng = seeded(child_seed(seed, w));
        let rows: Vec<Vec<f64>> = crate::interval_rows(train_x)
            .iter()
            .map(|row| {
                row.iter()
                    .map(|iv| {
                        if iv.lo == iv.hi {
                            iv.lo
                        } else {
                            iv.lo + rng.gen::<f64>() * (iv.hi - iv.lo)
                        }
                    })
                    .collect()
            })
            .collect();
        let data = Dataset::from_rows(rows, train_y.to_vec(), n_classes).expect("valid world");
        let mut model = template.clone();
        model.fit(&data).expect("fit");
        for (t, row) in test_x.iter_rows().enumerate() {
            counts[t][model.predict_one(row)] += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c.into_iter().map(|v| v as f64 / worlds as f64).collect())
        .collect()
}
