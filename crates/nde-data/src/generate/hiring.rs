//! The tutorial's hiring scenario: recommendation letters plus side tables.
//!
//! Reproduces the data layout of the hands-on session (paper §3.1, Figs. 2–3):
//!
//! * `letters` — the main training table with one recommendation letter per
//!   applicant and the sentiment label to predict;
//! * `job_details` — a side table keyed by `job_id` with the job's `sector`
//!   (the Fig. 3 pipeline filters on `sector == "healthcare"`);
//! * `social` — a side table keyed by `person_id` with an optional Twitter
//!   handle (the Fig. 3 pipeline derives `has_twitter` from its nullness).

use super::letters::{generate_letter, Sentiment};
use crate::rng::Rng;
use crate::rng::SliceRandom;
use crate::rng::{normal_with, seeded};
use crate::schema::{DataType, Field, Schema};
use crate::table::Table;
use crate::value::Value;

/// Degrees appearing in the `degree` column (which also has natural nulls).
pub const DEGREES: &[&str] = &["bachelor", "master", "phd"];
/// Sectors appearing in `job_details.sector`.
pub const SECTORS: &[&str] = &["healthcare", "tech", "finance", "education"];
/// Seniority levels in `job_details.seniority`.
pub const SENIORITIES: &[&str] = &["junior", "mid", "senior"];

/// Name of the label column in the letters table.
pub const LABEL_COLUMN: &str = "sentiment";

/// The complete synthetic hiring scenario.
#[derive(Debug, Clone)]
pub struct HiringScenario {
    /// Main table: one row per applicant/letter.
    ///
    /// Columns: `person_id: Int`, `job_id: Int`, `letter_text: Str`,
    /// `degree: Str?`, `employer_rating: Float`, `years_experience: Float`,
    /// `sentiment: Str` (the label).
    pub letters: Table,
    /// Side table keyed by `job_id`: `sector: Str`, `salary_band: Int`,
    /// `seniority: Str`.
    pub job_details: Table,
    /// Side table keyed by `person_id`: `twitter: Str?`, `followers: Int`.
    pub social: Table,
}

/// Tunable knobs for scenario generation; [`Default`] matches the tutorial.
#[derive(Debug, Clone)]
pub struct HiringConfig {
    /// Fraction of positive-sentiment letters.
    pub positive_fraction: f64,
    /// Phrase purity passed to the letter generator (see [`generate_letter`]).
    pub letter_purity: f64,
    /// Fraction of naturally missing `degree` values.
    pub degree_missing_fraction: f64,
    /// Probability that an applicant has a Twitter handle.
    pub twitter_presence: f64,
    /// Number of distinct jobs the applicants are spread over.
    pub n_jobs: usize,
}

impl Default for HiringConfig {
    fn default() -> Self {
        HiringConfig {
            positive_fraction: 0.5,
            letter_purity: 0.88,
            degree_missing_fraction: 0.08,
            twitter_presence: 0.6,
            n_jobs: 40,
        }
    }
}

impl HiringScenario {
    /// Generate a scenario with `n` applicants, deterministically from `seed`.
    pub fn generate(n: usize, seed: u64) -> HiringScenario {
        Self::generate_with(n, seed, &HiringConfig::default())
    }

    /// Generate with explicit configuration.
    pub fn generate_with(n: usize, seed: u64, cfg: &HiringConfig) -> HiringScenario {
        let mut rng = seeded(seed);
        let n_jobs = cfg.n_jobs.max(1);

        // --- job_details -------------------------------------------------
        let mut job_details = Table::empty(
            "jobdetail_df",
            Schema::new(vec![
                Field::new("job_id", DataType::Int),
                Field::new("sector", DataType::Str),
                Field::new("salary_band", DataType::Int),
                Field::new("seniority", DataType::Str),
            ])
            .expect("static schema is valid"),
        );
        for job_id in 0..n_jobs as i64 {
            // Oversample healthcare so the Fig. 3 filter keeps a healthy subset.
            let sector = if rng.gen::<f64>() < 0.4 {
                "healthcare"
            } else {
                *SECTORS[1..].choose(&mut rng).expect("non-empty")
            };
            let band = rng.gen_range(1..=6);
            let seniority = *SENIORITIES.choose(&mut rng).expect("non-empty");
            job_details
                .push_row(vec![
                    job_id.into(),
                    sector.into(),
                    Value::Int(band),
                    seniority.into(),
                ])
                .expect("row matches schema");
        }

        // --- letters (main table) ----------------------------------------
        let mut letters = Table::empty(
            "train_df",
            Schema::new(vec![
                Field::new("person_id", DataType::Int),
                Field::new("job_id", DataType::Int),
                Field::new("letter_text", DataType::Str),
                Field::new("degree", DataType::Str),
                Field::new("employer_rating", DataType::Float),
                Field::new("years_experience", DataType::Float),
                Field::new(LABEL_COLUMN, DataType::Str),
            ])
            .expect("static schema is valid"),
        );
        let mut sentiments = Vec::with_capacity(n);
        for person_id in 0..n as i64 {
            let sentiment = if rng.gen::<f64>() < cfg.positive_fraction {
                Sentiment::Positive
            } else {
                Sentiment::Negative
            };
            sentiments.push(sentiment);
            let job_id = rng.gen_range(0..n_jobs as i64);
            let text = generate_letter(sentiment, cfg.letter_purity, &mut rng);
            let degree: Value = if rng.gen::<f64>() < cfg.degree_missing_fraction {
                Value::Null
            } else {
                (*DEGREES.choose(&mut rng).expect("non-empty")).into()
            };
            // employer_rating correlates with sentiment: positive letters come
            // from better-rated employments (makes it informative for Zorro).
            let rating_mean = match sentiment {
                Sentiment::Positive => 7.5,
                Sentiment::Negative => 4.5,
            };
            let rating = normal_with(rating_mean, 1.5, &mut rng).clamp(0.0, 10.0);
            let years = normal_with(8.0, 4.0, &mut rng).clamp(0.0, 40.0);
            letters
                .push_row(vec![
                    person_id.into(),
                    job_id.into(),
                    text.into(),
                    degree,
                    rating.into(),
                    years.into(),
                    sentiment.label().into(),
                ])
                .expect("row matches schema");
        }

        // --- social -------------------------------------------------------
        let mut social = Table::empty(
            "social_df",
            Schema::new(vec![
                Field::new("person_id", DataType::Int),
                Field::new("twitter", DataType::Str),
                Field::new("followers", DataType::Int),
            ])
            .expect("static schema is valid"),
        );
        for person_id in 0..n as i64 {
            let has_twitter = rng.gen::<f64>() < cfg.twitter_presence;
            let handle: Value = if has_twitter {
                format!("@applicant_{person_id}").into()
            } else {
                Value::Null
            };
            let followers = if has_twitter {
                rng.gen_range(10..5_000)
            } else {
                0
            };
            social
                .push_row(vec![person_id.into(), handle, Value::Int(followers)])
                .expect("row matches schema");
        }

        HiringScenario {
            letters,
            job_details,
            social,
        }
    }

    /// Ground-truth sentiment of each letter row (useful for oracles).
    pub fn labels(&self) -> Vec<Sentiment> {
        (0..self.letters.n_rows())
            .map(|i| {
                let v = self
                    .letters
                    .get(i, LABEL_COLUMN)
                    .expect("label column exists");
                Sentiment::parse(v.as_str().expect("labels are strings"))
                    .expect("labels are canonical")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_keys() {
        let s = HiringScenario::generate(120, 9);
        assert_eq!(s.letters.n_rows(), 120);
        assert_eq!(s.social.n_rows(), 120);
        assert_eq!(s.job_details.n_rows(), HiringConfig::default().n_jobs);
        // Every letter's job_id exists in job_details.
        let (joined, _) = s
            .letters
            .hash_join(&s.job_details, "job_id", "job_id")
            .unwrap();
        assert_eq!(joined.n_rows(), 120);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = HiringScenario::generate(50, 1);
        let b = HiringScenario::generate(50, 1);
        assert_eq!(a.letters, b.letters);
        assert_eq!(a.job_details, b.job_details);
        assert_eq!(a.social, b.social);
        let c = HiringScenario::generate(50, 2);
        assert_ne!(a.letters, c.letters);
    }

    #[test]
    fn label_balance_and_rating_correlation() {
        let s = HiringScenario::generate(400, 3);
        let labels = s.labels();
        let pos = labels.iter().filter(|&&l| l == Sentiment::Positive).count();
        assert!(pos > 140 && pos < 260, "pos={pos}");
        // Positive letters have visibly higher mean employer_rating.
        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;
        let (mut np, mut nn) = (0.0, 0.0);
        for (i, l) in labels.iter().enumerate() {
            let r = s
                .letters
                .get(i, "employer_rating")
                .unwrap()
                .as_float()
                .unwrap();
            match l {
                Sentiment::Positive => {
                    pos_sum += r;
                    np += 1.0;
                }
                Sentiment::Negative => {
                    neg_sum += r;
                    nn += 1.0;
                }
            }
        }
        assert!(pos_sum / np > neg_sum / nn + 1.0);
    }

    #[test]
    fn degree_has_natural_missingness() {
        let s = HiringScenario::generate(500, 4);
        let nulls = s.letters.plane("degree").unwrap().null_count();
        assert!(nulls > 10 && nulls < 100, "nulls={nulls}");
    }

    #[test]
    fn some_applicants_lack_twitter() {
        let s = HiringScenario::generate(300, 5);
        let nulls = s.social.plane("twitter").unwrap().null_count();
        assert!(nulls > 60 && nulls < 240, "nulls={nulls}");
    }

    #[test]
    fn healthcare_is_well_represented() {
        let s = HiringScenario::generate(10, 6);
        let counts = s.job_details.value_counts("sector").unwrap();
        let healthcare = counts
            .iter()
            .find(|(v, _)| v.as_str() == Some("healthcare"))
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(healthcare >= 5, "healthcare={healthcare}");
    }
}
