//! The data debugging challenge (paper §3.2): a dirty training set, a
//! cleaning budget of 25 tuples, a hidden test set behind an oracle, and a
//! live leaderboard. Three "participants" compete: random cleaning,
//! AUM-guided cleaning, and KNN-Shapley-guided cleaning.
//!
//! The KNN model offers an incremental evaluator, so each submission
//! patches only the labels it changes into a cached evaluator instead of
//! refitting from scratch — bit-identical scores (verified against a
//! refit of every submission at the end), just faster.
//!
//! Run with: `cargo run --release --example cleaning_challenge`

use nde::cleaning::challenge::DebugChallenge;
use nde::cleaning::oracle::LabelOracle;
use nde::cleaning::strategy::Strategy;
use nde::data::generate::blobs::two_gaussians;
use nde::importance::aum::AumConfig;
use nde::ml::dataset::Dataset;
use nde::ml::model::Classifier;
use nde::ml::models::knn::KnnClassifier;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the hidden challenge data: 240 train / 80 valid / 80 test points
    // with 15% label noise in the training part.
    let nd = two_gaussians(400, 4, 3.5, 2025);
    let all = Dataset::try_from(&nd)?;
    let mut train = all.subset(&(0..240).collect::<Vec<_>>());
    let valid = all.subset(&(240..320).collect::<Vec<_>>());
    let test = all.subset(&(320..400).collect::<Vec<_>>());
    let truth = train.y.clone();
    for i in 0..train.len() {
        if i % 7 == 3 {
            // ~14% systematic label corruption, unknown to participants.
            train.y[i] = 1 - train.y[i];
        }
    }

    let budget = 25;
    let mut challenge = DebugChallenge::new(
        KnnClassifier::new(3),
        train.clone(),
        LabelOracle::new(truth.clone()),
        test.clone(),
        budget,
    )?;
    println!(
        "Challenge: {} dirty training points, budget {} repairs, hidden test set.",
        train.len(),
        budget
    );
    println!("Baseline (no cleaning): {:.4}\n", challenge.baseline()?);

    // Each participant picks which tuples to clean, using only train + valid.
    let participants: Vec<(&str, Strategy)> = vec![
        ("random-rita", Strategy::Random { seed: 11 }),
        ("aum-ahmed", Strategy::Aum(AumConfig::default())),
        ("shapley-shen", Strategy::KnnShapley { k: 3 }),
    ];
    let oracle = LabelOracle::new(truth);
    for (name, strategy) in participants {
        let order = strategy.rank(challenge.dirty_data(), &valid)?;
        let picks: Vec<usize> = order.into_iter().take(budget).collect();
        let score = challenge.submit(name, &picks)?;
        println!("{name:<14} cleaned {budget} tuples -> hidden-test accuracy {score:.4}");

        // Incremental scoring is an optimization, never a different answer:
        // refit the submission from scratch and check the score bit for bit.
        let mut repaired = train.clone();
        oracle.repair(&mut repaired.y, &picks)?;
        let mut model = KnnClassifier::new(3);
        model.fit(&repaired)?;
        assert_eq!(model.accuracy(&test).to_bits(), score.to_bits(), "{name}");
    }
    println!("\n(incremental scores verified bit-identical to refitting)");

    println!("\nFinal leaderboard:\n{}", challenge.leaderboard().render());
    println!("Leaderboard JSON:\n{}", challenge.leaderboard().to_json()?);
    Ok(())
}
