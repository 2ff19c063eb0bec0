//! E17 — ablations over the design choices DESIGN.md calls out:
//!
//! * **Text-embedding width**: how does the hashed-embedding dimensionality
//!   affect model accuracy and error-detection quality? (The substitution
//!   for SentenceBERT must be wide enough to separate sentiments.)
//! * **KNN-Shapley `k`**: detection precision across neighborhood sizes.
//! * **TMC truncation tolerance**: the speed/quality trade-off of
//!   truncating Monte-Carlo permutations.

use nde::api::inject_label_errors;
use nde::data::generate::hiring::LABEL_COLUMN;
use nde::importance::{
    detection_precision_at_k, knn_shapley, tmc_shapley, ImportanceRun, TmcParams,
};
use nde::ml::dataset::{Dataset, LabelEncoder};
use nde::ml::encode::TableEncoder;
use nde::ml::model::Classifier;
use nde::ml::models::knn::KnnClassifier;
use nde::scenario::load_recommendation_letters;
use nde::NdeError;
use std::time::Instant;

/// One text-width ablation point.
#[derive(Debug, Clone)]
pub struct TextDimPoint {
    /// Hashed embedding width.
    pub dims: usize,
    /// Validation accuracy of the reference KNN model.
    pub accuracy: f64,
    /// Detection precision@k for injected label errors.
    pub detection_precision: f64,
}

nde_data::json_struct!(TextDimPoint {
    dims,
    accuracy,
    detection_precision
});

/// One `k` ablation point.
#[derive(Debug, Clone)]
pub struct KPoint {
    /// KNN-Shapley neighborhood size.
    pub k: usize,
    /// Detection precision@k(=#errors).
    pub detection_precision: f64,
}

nde_data::json_struct!(KPoint {
    k,
    detection_precision
});

/// One truncation-tolerance ablation point.
#[derive(Debug, Clone)]
pub struct TruncationPoint {
    /// Truncation tolerance.
    pub tolerance: f64,
    /// Wall seconds for the TMC run.
    pub secs: f64,
    /// Rank correlation with the untruncated run.
    pub rank_corr_vs_exact: f64,
}

nde_data::json_struct!(TruncationPoint {
    tolerance,
    secs,
    rank_corr_vs_exact
});

/// Report for E17.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Text-width sweep.
    pub text_dims: Vec<TextDimPoint>,
    /// Neighborhood-size sweep.
    pub shapley_k: Vec<KPoint>,
    /// Truncation sweep.
    pub truncation: Vec<TruncationPoint>,
}

nde_data::json_struct!(AblationReport {
    text_dims,
    shapley_k,
    truncation
});

fn encode(
    train: &nde::data::Table,
    valid: &nde::data::Table,
    dims: usize,
) -> Result<(Dataset, Dataset), NdeError> {
    let mut enc = TableEncoder::for_letters(dims);
    let labels = LabelEncoder::fit(train, LABEL_COLUMN)?;
    let x = enc.fit_transform(train)?;
    let y = labels.encode_column(train, LABEL_COLUMN)?;
    let train_ds = Dataset::new(x, y, labels.n_classes())?;
    let vx = enc.transform(valid)?;
    let vy = labels.encode_column(valid, LABEL_COLUMN)?;
    Ok((train_ds, Dataset::new(vx, vy, labels.n_classes())?))
}

/// Run E17.
pub fn run(n: usize, seed: u64) -> Result<AblationReport, NdeError> {
    let scenario = load_recommendation_letters(n, seed);
    let mut dirty = scenario.train.clone();
    let report = inject_label_errors(&mut dirty, 0.1, seed ^ 0xab1)?;
    let k_errors = report.affected.len();

    // --- Text width sweep ------------------------------------------------
    let mut text_dims = Vec::new();
    for dims in [4usize, 16, 64, 256] {
        let (train_ds, valid_ds) = encode(&dirty, &scenario.valid, dims)?;
        let mut model = KnnClassifier::new(5);
        model.fit(&train_ds)?;
        let accuracy = model.accuracy(&valid_ds);
        let scores = knn_shapley(&ImportanceRun::new(seed), &train_ds, &valid_ds, 5)?.scores;
        let detection_precision = detection_precision_at_k(&scores, &report.affected, k_errors);
        text_dims.push(TextDimPoint {
            dims,
            accuracy,
            detection_precision,
        });
    }

    // --- KNN-Shapley k sweep ---------------------------------------------
    let (train_ds, valid_ds) = encode(&dirty, &scenario.valid, 64)?;
    let mut shapley_k = Vec::new();
    for k in [1usize, 3, 5, 11, 25] {
        let scores = knn_shapley(&ImportanceRun::new(seed), &train_ds, &valid_ds, k)?.scores;
        shapley_k.push(KPoint {
            k,
            detection_precision: detection_precision_at_k(&scores, &report.affected, k_errors),
        });
    }

    // --- TMC truncation sweep (on a smaller subset for tractability) -----
    let small_rows: Vec<usize> = (0..train_ds.len().min(60)).collect();
    let small_train = train_ds.subset(&small_rows);
    let run = ImportanceRun::new(seed);
    let exact_params = TmcParams {
        permutations: 40,
        truncation_tolerance: 0.0,
    };
    let exact = tmc_shapley(
        &run,
        &KnnClassifier::new(1),
        &small_train,
        &valid_ds,
        &exact_params,
    )?
    .scores;
    let mut truncation = Vec::new();
    for tolerance in [0.0, 0.01, 0.05, 0.2] {
        let params = TmcParams {
            truncation_tolerance: tolerance,
            ..exact_params.clone()
        };
        let t0 = Instant::now();
        let scores = tmc_shapley(
            &run,
            &KnnClassifier::new(1),
            &small_train,
            &valid_ds,
            &params,
        )?
        .scores;
        truncation.push(TruncationPoint {
            tolerance,
            secs: t0.elapsed().as_secs_f64(),
            rank_corr_vs_exact: exact.rank_correlation(&scores),
        });
    }

    Ok(AblationReport {
        text_dims,
        shapley_k,
        truncation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_text_embeddings_help_until_saturation() {
        let r = run(150, 51).unwrap();
        let first = &r.text_dims[0]; // 4 dims
        let best_acc = r
            .text_dims
            .iter()
            .map(|p| p.accuracy)
            .fold(0.0f64, f64::max);
        assert!(
            best_acc >= first.accuracy,
            "wider embeddings never helped: {:?}",
            r.text_dims
        );
        // All sweeps produced full curves.
        assert_eq!(r.text_dims.len(), 4);
        assert_eq!(r.shapley_k.len(), 5);
        assert_eq!(r.truncation.len(), 4);
    }

    #[test]
    fn zero_tolerance_truncation_is_exact() {
        let r = run(100, 52).unwrap();
        let zero = &r.truncation[0];
        assert_eq!(zero.tolerance, 0.0);
        assert!((zero.rank_corr_vs_exact - 1.0).abs() < 1e-9);
        // Aggressive truncation cannot beat exact correlation.
        for p in &r.truncation {
            assert!(p.rank_corr_vs_exact <= 1.0 + 1e-9);
        }
    }
}
