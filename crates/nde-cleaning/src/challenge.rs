//! The data debugging challenge (paper §3.2): a dirty training set, a
//! limited cleaning budget, an oracle that evaluates on a **hidden test
//! set**, and a live leaderboard.

use crate::oracle::LabelOracle;
use crate::MaintenanceMode;
use crate::{CleaningError, Result};
use nde_data::json::{Json, ToJson};
use nde_ml::batch::IncrementalLabelEval;
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use std::fmt;

/// One scored submission.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardEntry {
    /// Submitting participant.
    pub name: String,
    /// Hidden-test accuracy achieved.
    pub score: f64,
    /// How many rows the submission cleaned.
    pub cleaned: usize,
}

nde_data::json_struct!(LeaderboardEntry {
    name,
    score,
    cleaned
});

/// The challenge leaderboard, best score first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Leaderboard {
    entries: Vec<LeaderboardEntry>,
}

impl Leaderboard {
    /// Record a submission (re-sorts: best score, then fewest cleaned rows).
    pub fn record(&mut self, entry: LeaderboardEntry) {
        self.entries.push(entry);
        self.entries.sort_by(rank_order);
    }

    /// Entries, best first.
    pub fn entries(&self) -> &[LeaderboardEntry] {
        &self.entries
    }

    /// The current leader, if any.
    pub fn leader(&self) -> Option<&LeaderboardEntry> {
        self.entries.first()
    }

    /// Serialize to pretty JSON (for persistence / the "live leaderboard").
    pub fn to_json(&self) -> Result<String> {
        let doc = Json::Obj(vec![("entries".into(), self.entries.to_json())]);
        Ok(doc.to_string_pretty())
    }

    /// Restore from JSON, ranked as [`Leaderboard::record`] ranks. A score
    /// is a hidden-test accuracy, so one outside `[0, 1]` (or non-finite)
    /// is rejected.
    pub fn from_json(json: &str) -> Result<Leaderboard> {
        let serde = |msg: String| CleaningError::Serde(msg);
        let doc = Json::parse(json).map_err(|e| serde(e.to_string()))?;
        let mut entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| serde("missing `entries` array".into()))?
            .iter()
            .map(|e| {
                Some(LeaderboardEntry {
                    name: e.get("name")?.as_str()?.to_owned(),
                    score: e.get("score")?.as_f64()?,
                    cleaned: e.get("cleaned")?.as_usize()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| serde("malformed leaderboard entry".into()))?;
        if let Some(bad) = entries.iter().find(|e| !(0.0..=1.0).contains(&e.score)) {
            return Err(serde(format!(
                "score {} of `{}` is not an accuracy in [0, 1]",
                bad.score, bad.name
            )));
        }
        entries.sort_by(rank_order);
        Ok(Leaderboard { entries })
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("rank | name                 | score  | cleaned\n");
        out.push_str("-----+----------------------+--------+--------\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "{:>4} | {:<20} | {:.4} | {:>7}\n",
                i + 1,
                e.name,
                e.score,
                e.cleaned
            ));
        }
        out
    }
}

/// Leaderboard order: best score first, then fewest cleaned rows, then name.
fn rank_order(a: &LeaderboardEntry, b: &LeaderboardEntry) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("finite scores")
        .then(a.cleaned.cmp(&b.cleaned))
        .then(a.name.cmp(&b.name))
}

/// The challenge harness: owns the dirty data, the hidden test set, the
/// ground-truth oracle and the budget. Participants see only validation data
/// and submission feedback.
pub struct DebugChallenge<C: Classifier> {
    template: C,
    dirty: Dataset,
    hidden_test: Dataset,
    oracle: LabelOracle,
    budget: usize,
    leaderboard: Leaderboard,
    maintenance: MaintenanceMode,
    /// Lazily-built incremental evaluator over the *pristine* dirty labels;
    /// every submission applies its fixes, reads the score, and reverts
    /// them, so submissions stay independent exactly as in rerun mode.
    evaluator: Option<Box<dyn IncrementalLabelEval>>,
}

impl<C: Classifier + fmt::Debug> fmt::Debug for DebugChallenge<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DebugChallenge")
            .field("template", &self.template)
            .field("dirty", &self.dirty)
            .field("hidden_test", &self.hidden_test)
            .field("oracle", &self.oracle)
            .field("budget", &self.budget)
            .field("leaderboard", &self.leaderboard)
            .field("maintenance", &self.maintenance)
            .field("evaluator", &self.evaluator.as_ref().map(|_| "<built>"))
            .finish()
    }
}

impl<C: Classifier> Clone for DebugChallenge<C> {
    fn clone(&self) -> Self {
        DebugChallenge {
            template: self.template.clone(),
            dirty: self.dirty.clone(),
            hidden_test: self.hidden_test.clone(),
            oracle: self.oracle.clone(),
            budget: self.budget,
            leaderboard: self.leaderboard.clone(),
            maintenance: self.maintenance,
            // The evaluator is a cache; the clone rebuilds it on demand.
            evaluator: None,
        }
    }
}

impl<C: Classifier> DebugChallenge<C> {
    /// Set up a challenge.
    pub fn new(
        template: C,
        dirty: Dataset,
        oracle: LabelOracle,
        hidden_test: Dataset,
        budget: usize,
    ) -> Result<DebugChallenge<C>> {
        if oracle.len() != dirty.len() {
            return Err(CleaningError::InvalidArgument(
                "oracle does not cover the dirty dataset".into(),
            ));
        }
        if budget == 0 {
            return Err(CleaningError::InvalidArgument("budget must be > 0".into()));
        }
        Ok(DebugChallenge {
            template,
            dirty,
            hidden_test,
            oracle,
            budget,
            leaderboard: Leaderboard::default(),
            maintenance: MaintenanceMode::Rerun,
            evaluator: None,
        })
    }

    /// Select how submissions are scored: [`MaintenanceMode::Rerun`] refits
    /// the template per submission; [`MaintenanceMode::Incremental`] keeps
    /// one incremental evaluator and patches only the submitted labels
    /// (apply → score → revert). Scores are **bit-identical** either way;
    /// models without an incremental hook silently fall back to refitting,
    /// and a hook that rejects the data (a non-finite feature) fails each
    /// submission with its `InvalidArgument`.
    pub fn with_maintenance(mut self, mode: MaintenanceMode) -> DebugChallenge<C> {
        self.maintenance = mode;
        self
    }

    /// The active maintenance mode.
    pub fn maintenance(&self) -> MaintenanceMode {
        self.maintenance
    }

    /// The cleaning budget per submission.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// A participant's view of the dirty training data (labels included —
    /// they just may be wrong).
    pub fn dirty_data(&self) -> &Dataset {
        &self.dirty
    }

    /// Baseline hidden-test accuracy with no cleaning at all.
    pub fn baseline(&self) -> Result<f64> {
        let mut model = self.template.clone();
        model.fit(&self.dirty)?;
        Ok(model.accuracy(&self.hidden_test))
    }

    /// Submit up to `budget` row ids to clean. The oracle repairs them, the
    /// model is retrained on the partially-cleaned data, and the hidden-test
    /// accuracy is returned and recorded on the leaderboard. The challenge's
    /// own dirty data is *not* mutated — every submission starts fresh.
    pub fn submit(&mut self, name: &str, rows: &[usize]) -> Result<f64> {
        if rows.len() > self.budget {
            return Err(CleaningError::BudgetExceeded {
                requested: rows.len(),
                budget: self.budget,
            });
        }
        let mut repaired_y = self.dirty.y.clone();
        self.oracle.repair(&mut repaired_y, rows)?;
        let score = match self.incremental_score(&repaired_y, rows)? {
            Some(score) => score,
            None => {
                let mut repaired = self.dirty.clone();
                repaired.y = repaired_y;
                let mut model = self.template.clone();
                model.fit(&repaired)?;
                model.accuracy(&self.hidden_test)
            }
        };
        self.leaderboard.record(LeaderboardEntry {
            name: name.to_owned(),
            score,
            cleaned: rows.len(),
        });
        Ok(score)
    }

    /// Score a submission through the incremental evaluator: apply the
    /// changed labels, read the accuracy, revert. Returns `None` when the
    /// rerun path must be used (mode off, or no hook for this model).
    fn incremental_score(&mut self, repaired_y: &[usize], rows: &[usize]) -> Result<Option<f64>> {
        if self.maintenance != MaintenanceMode::Incremental {
            return Ok(None);
        }
        if self.evaluator.is_none() {
            self.evaluator = self
                .template
                .try_incremental_eval(&self.dirty, &self.hidden_test)?;
        }
        if self.evaluator.is_none() {
            return Ok(None);
        }
        let changed: Vec<usize> = rows
            .iter()
            .copied()
            .filter(|&i| repaired_y[i] != self.dirty.y[i])
            .collect();
        let scored = (|| -> Result<f64> {
            let hook = self.evaluator.as_mut().expect("checked above");
            for &i in &changed {
                hook.set_label(i, repaired_y[i])?;
            }
            let score = hook.accuracy();
            for &i in &changed {
                hook.set_label(i, self.dirty.y[i])?;
            }
            Ok(score)
        })();
        match scored {
            Ok(score) => Ok(Some(score)),
            Err(e) => {
                // A failed patch leaves the hook half-applied; drop it so
                // the next submission rebuilds from the pristine labels.
                self.evaluator = None;
                Err(e)
            }
        }
    }

    /// The live leaderboard.
    pub fn leaderboard(&self) -> &Leaderboard {
        &self.leaderboard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;
    use nde_importance::{knn_shapley, ImportanceRun};
    use nde_ml::models::knn::KnnClassifier;

    fn challenge() -> (DebugChallenge<KnnClassifier>, Vec<usize>, Dataset) {
        let nd = two_gaussians(260, 3, 5.0, 51);
        let all = Dataset::try_from(&nd).unwrap();
        let mut train = all.subset(&(0..180).collect::<Vec<_>>());
        let valid = all.subset(&(180..220).collect::<Vec<_>>());
        let test = all.subset(&(220..260).collect::<Vec<_>>());
        let truth = train.y.clone();
        let flips: Vec<usize> = vec![
            2, 9, 25, 31, 47, 58, 72, 88, 95, 104, 119, 127, 142, 155, 166, 171, 13, 64, 99, 150,
        ];
        for &f in &flips {
            train.y[f] = 1 - train.y[f];
        }
        let ch = DebugChallenge::new(
            KnnClassifier::new(3),
            train,
            LabelOracle::new(truth),
            test,
            25,
        )
        .unwrap();
        (ch, flips, valid)
    }

    #[test]
    fn good_submission_beats_baseline_and_random() {
        let (mut ch, _flips, valid) = challenge();
        let baseline = ch.baseline().unwrap();
        // Importance-guided submission within budget.
        let scores = knn_shapley(&ImportanceRun::new(0), ch.dirty_data(), &valid, 3)
            .unwrap()
            .scores;
        let picks = scores.bottom_k(25);
        let smart = ch.submit("smart", &picks).unwrap();
        // Random submission.
        let random_picks: Vec<usize> = (0..25).map(|i| i * 7 % 180).collect();
        let random = ch.submit("random", &random_picks).unwrap();
        assert!(smart >= baseline, "smart {smart} vs baseline {baseline}");
        assert!(smart >= random, "smart {smart} vs random {random}");
        // Leaderboard ordered best-first.
        let lb = ch.leaderboard();
        assert_eq!(lb.entries().len(), 2);
        assert!(lb.leader().unwrap().score >= lb.entries()[1].score);
    }

    #[test]
    fn budget_enforced_and_submissions_independent() {
        let (mut ch, _, _) = challenge();
        let too_many: Vec<usize> = (0..26).collect();
        assert!(matches!(
            ch.submit("greedy", &too_many),
            Err(CleaningError::BudgetExceeded { .. })
        ));
        // Two identical submissions give identical scores (no state leaks).
        let picks: Vec<usize> = (0..25).collect();
        let a = ch.submit("a", &picks).unwrap();
        let b = ch.submit("b", &picks).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_submissions_match_rerun_bit_for_bit() {
        let (ch, flips, valid) = challenge();
        let mut rerun = ch.clone();
        let mut inc = ch.with_maintenance(MaintenanceMode::Incremental);
        assert_eq!(inc.maintenance(), MaintenanceMode::Incremental);
        let scores = knn_shapley(&ImportanceRun::new(0), inc.dirty_data(), &valid, 3)
            .unwrap()
            .scores;
        let submissions: Vec<Vec<usize>> = vec![
            scores.bottom_k(25),
            (0..25).map(|i| i * 7 % 180).collect(),
            flips.iter().copied().take(20).collect(),
            vec![],              // empty submission
            scores.bottom_k(25), // repeat: must be independent
            vec![3, 3, 3],       // duplicate rows
        ];
        for (s, rows) in submissions.iter().enumerate() {
            let a = rerun.submit(&format!("s{s}"), rows).unwrap();
            let b = inc.submit(&format!("s{s}"), rows).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "submission {s}");
        }
        assert_eq!(rerun.leaderboard(), inc.leaderboard());
        // Cloning resets the cached evaluator but not the semantics.
        let mut cloned = inc.clone();
        let a = cloned.submit("clone", &submissions[0]).unwrap();
        let b = inc.submit("clone", &submissions[0]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn leaderboard_json_roundtrip_and_render() {
        let mut lb = Leaderboard::default();
        lb.record(LeaderboardEntry {
            name: "ada".into(),
            score: 0.91,
            cleaned: 20,
        });
        lb.record(LeaderboardEntry {
            name: "bob".into(),
            score: 0.95,
            cleaned: 25,
        });
        lb.record(LeaderboardEntry {
            name: "eve".into(),
            score: 0.95,
            cleaned: 10,
        });
        assert_eq!(lb.leader().unwrap().name, "eve"); // same score, fewer rows
        let json = lb.to_json().unwrap();
        let back = Leaderboard::from_json(&json).unwrap();
        assert_eq!(back, lb);
        let rendered = lb.render();
        assert!(rendered.contains("eve"));
        assert!(rendered.lines().count() >= 5);
        assert!(Leaderboard::from_json("not json").is_err());
    }

    #[test]
    fn leaderboard_from_json_ranks_entries_and_rejects_bad_scores() {
        let entry =
            |name: &str, score: &str| format!(r#"{{"name":"{name}","score":{score},"cleaned":3}}"#);
        let board = |entries: &[String]| format!(r#"{{"entries":[{}]}}"#, entries.join(","));
        // File order is not rank order: the restored board is re-ranked.
        let lb = Leaderboard::from_json(&board(&[entry("b", "0.5"), entry("a", "0.9")])).unwrap();
        assert_eq!(lb.leader().unwrap().name, "a");
        let names: Vec<&str> = lb.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        // Scores are accuracies: non-finite or outside [0, 1] is an error.
        for bad in ["1e999", "-1e999", "-0.5", "1.5"] {
            let err = Leaderboard::from_json(&board(&[entry("a", "0.9"), entry("x", bad)]));
            assert!(
                matches!(err, Err(CleaningError::Serde(_))),
                "score {bad} accepted: {err:?}"
            );
        }
        // The bounds themselves are valid accuracies.
        let lb = Leaderboard::from_json(&board(&[entry("lo", "0"), entry("hi", "1")])).unwrap();
        assert_eq!(lb.leader().unwrap().name, "hi");
    }

    #[test]
    fn construction_validated() {
        let nd = two_gaussians(20, 2, 3.0, 52);
        let data = Dataset::try_from(&nd).unwrap();
        let bad_oracle = LabelOracle::new(vec![0; 3]);
        assert!(DebugChallenge::new(
            KnnClassifier::new(1),
            data.clone(),
            bad_oracle,
            data.clone(),
            10
        )
        .is_err());
        let oracle = LabelOracle::new(data.y.clone());
        assert!(DebugChallenge::new(KnnClassifier::new(1), data.clone(), oracle, data, 0).is_err());
    }
}
