//! End-to-end incremental debugging: accepted fixes flow from a **source
//! table** through the captured pipeline run, the feature encoders, the
//! model evaluator, and the memoized-utility cache — without re-running
//! anything the fix did not touch.
//!
//! [`IncrementalDebugSession`] glues four incremental layers together:
//!
//! 1. [`PipelineSession`] (nde-pipeline) propagates a [`Delta`] through the
//!    relational operators and reports which **output rows** changed and,
//!    after a splice or a rerun, which old output row each new one is
//!    ([`nde_pipeline::DeltaOutcome::row_map`]).
//! 2. [`FeaturePipeline::encode_rows`] re-encodes only the changed or fresh
//!    rows with the already-fitted encoders (row-wise, so bit-identical to
//!    a full transform); surviving rows are copied bit for bit.
//! 3. The model's [`IncrementalLabelEval`] hook patches the affected labels
//!    / feature rows, or remaps its rows, instead of refitting
//!    (bit-identical by contract).
//! 4. [`MemoCache::invalidate_members`] evicts exactly the memoized
//!    coalition utilities whose subsets touch a changed row, so importance
//!    estimators never serve a stale score.
//!
//! Every layer is differentially guaranteed: after any sequence of fixes
//! the session's table, dataset and accuracy are bit-identical to
//! re-executing the plan over the mutated sources and re-encoding with the
//! **already-fitted** encoders (featurization is part of the model spec; a
//! debugging session never refits it per accepted fix).

use crate::{CleaningError, Result};
use nde_data::Table;
use nde_ml::batch::IncrementalLabelEval;
use nde_ml::dataset::Dataset;
use nde_ml::linalg::Matrix;
use nde_ml::model::Classifier;
use nde_pipeline::exec::Executor;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::{Delta, DeltaPath, PipelineSession};
use nde_robust::par::MemoCache;

/// What one accepted fix did to the session.
#[derive(Debug, Clone)]
pub struct FixReport {
    /// The propagation path the pipeline layer took:
    /// [`DeltaPath::CellPatch`], [`DeltaPath::Splice`] (a delete dropped
    /// along the row maps, no operator re-executed) or [`DeltaPath::Rerun`]
    /// (re-executed from one plan node on; see
    /// [`IncrementalDebugSession::apply_fix`]).
    pub path: DeltaPath,
    /// Output rows this fix re-encoded, ascending: after a cell patch the
    /// rows whose cells changed, after a rerun the *fresh* rows (those with
    /// no old row of the same identity), after a splice none. Every other
    /// row was copied.
    pub affected_rows: Vec<usize>,
    /// `true` when the fix re-encoded every output row (no row survived
    /// it); `false` when at least one row was kept as it was.
    pub reencoded_all: bool,
    /// Memoized coalition utilities evicted by this fix.
    pub cache_evictions: usize,
    /// Validation accuracy after the fix (bit-identical to a refit).
    pub accuracy: f64,
}

/// A live debugging session over a provenance-tracked pipeline run:
/// accepted source-level fixes are applied incrementally end to end.
pub struct IncrementalDebugSession<C: Classifier> {
    template: C,
    pipeline: FeaturePipeline,
    session: PipelineSession,
    valid: Dataset,
    dataset: Dataset,
    evaluator: Option<Box<dyn IncrementalLabelEval>>,
    memo: MemoCache,
    fixes_applied: usize,
    full_reencodes: usize,
    rows_reencoded: usize,
    /// Set when a fix failed after the pipeline layer had accepted it: the
    /// encoded state no longer matches the maintained table, so further
    /// fixes are refused.
    poisoned: bool,
}

impl<C: Classifier> IncrementalDebugSession<C> {
    /// Capture a provenance-tracked run of `pipeline`'s plan over `inputs`
    /// for delta propagation, fit the pipeline's encoders on that run's
    /// output (the plan runs once), and build the model's incremental
    /// evaluator against `valid`.
    ///
    /// Models without an [`IncrementalLabelEval`] hook still work — the
    /// accuracy falls back to refitting `template` (the pipeline and cache
    /// layers stay incremental either way). A model whose evaluator rejects
    /// the data (e.g. a non-finite feature) fails the build.
    pub fn build(
        template: C,
        mut pipeline: FeaturePipeline,
        inputs: &[(&str, &Table)],
        valid: Dataset,
    ) -> Result<IncrementalDebugSession<C>> {
        let session =
            PipelineSession::build(&Executor::new(), &pipeline.plan, pipeline.root, inputs)?;
        let dataset = pipeline.fit_table(session.table())?;
        let evaluator = template.try_incremental_eval(&dataset, &valid)?;
        Ok(IncrementalDebugSession {
            template,
            pipeline,
            session,
            valid,
            dataset,
            evaluator,
            memo: MemoCache::new(),
            fixes_applied: 0,
            full_reencodes: 0,
            rows_reencoded: 0,
            poisoned: false,
        })
    }

    /// Apply one accepted fix end to end and return what it touched.
    ///
    /// The pipeline layer takes one of three paths, and on each only the
    /// rows in [`FixReport::affected_rows`] are encoded:
    ///
    /// - a non-structural cell fix is a **cell patch**: the affected output
    ///   rows are re-encoded in place and the evaluator patched
    ///   ([`IncrementalLabelEval::set_label`],
    ///   [`IncrementalLabelEval::update_features`]);
    /// - a delete whose rows the plan drops along its row maps is a
    ///   **splice**, and everything else — an insert, another delete, or
    ///   an update to a routing column — **reruns** the pipeline from one
    ///   node on. Either way the new dataset is gathered from the old one
    ///   through the outcome's row map (surviving rows copied bit for bit,
    ///   fresh rows encoded), and the evaluator remaps its rows in place
    ///   ([`IncrementalLabelEval::remap_rows`]).
    ///
    /// The memo cache keys coalitions by a fingerprint of their row
    /// indices, so it survives a splice or a rerun only when every surviving row kept
    /// its index; then the entries touching a fresh or removed row are
    /// evicted. Otherwise it is cleared.
    ///
    /// A fix the pipeline layer rejects leaves the session as it was. A fix
    /// that fails in a later layer (re-encode, evaluator patch or remap, a
    /// fix that removes every row) leaves those layers behind the
    /// maintained table, so every later call returns an error; build a new
    /// session to continue.
    pub fn apply_fix(&mut self, delta: &Delta) -> Result<FixReport> {
        if self.poisoned {
            return Err(CleaningError::Pipeline(
                "session out of sync after a failed fix; rebuild it".into(),
            ));
        }
        let outcome = self.session.apply(delta)?;
        // The later layers lag behind the maintained table until this fix
        // completes: an early return on error leaves the session poisoned.
        self.poisoned = true;
        let rows = outcome.affected_rows;
        let evictions = if outcome.path == DeltaPath::CellPatch {
            self.patch_rows(&rows)?
        } else {
            self.gather_rows(&outcome.row_map, &rows)?
        };
        let report = FixReport {
            path: outcome.path,
            reencoded_all: rows.len() == self.dataset.len(),
            affected_rows: rows,
            cache_evictions: evictions,
            accuracy: self.accuracy()?,
        };
        self.poisoned = false;
        self.fixes_applied += 1;
        self.full_reencodes += usize::from(report.reencoded_all);
        self.rows_reencoded += report.affected_rows.len();
        Ok(report)
    }

    /// Re-encode `rows` of the maintained table and push label / feature
    /// changes into the dataset, the evaluator, and the memo cache.
    fn patch_rows(&mut self, rows: &[usize]) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0); // the fix never reached the output
        }
        let (x, y) = self.pipeline.encode_rows(self.session.table(), rows)?;
        let mut feature_changed = Vec::new();
        for (j, &r) in rows.iter().enumerate() {
            if self.dataset.y[r] != y[j] {
                self.dataset.y[r] = y[j];
                if let Some(hook) = self.evaluator.as_mut() {
                    hook.set_label(r, y[j])?;
                }
            }
            let fresh = x.row(j);
            let stale = self.dataset.x.row(r);
            if fresh
                .iter()
                .zip(stale)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                self.dataset.x.row_mut(r).copy_from_slice(fresh);
                feature_changed.push(r);
            }
        }
        if !feature_changed.is_empty() {
            if let Some(hook) = self.evaluator.as_mut() {
                hook.update_features(&feature_changed, &self.dataset)?;
            }
        }
        Ok(self.memo.invalidate_members(rows))
    }

    /// After a rerun: gather the new dataset through `row_map` (old rows
    /// copied, the `fresh` rows encoded), remap the evaluator, and evict
    /// the memo entries the renumbering stales. Returns the evictions.
    fn gather_rows(&mut self, row_map: &[Option<usize>], fresh: &[usize]) -> Result<usize> {
        let table = self.session.table();
        if table.n_rows() == 0 {
            return Err(CleaningError::InvalidArgument(
                "fix removed every training row".into(),
            ));
        }
        let mut x = Matrix::zeros(row_map.len(), self.dataset.dim());
        let mut y = vec![0; row_map.len()];
        for (r, from) in row_map.iter().enumerate() {
            if let Some(o) = *from {
                x.row_mut(r).copy_from_slice(self.dataset.x.row(o));
                y[r] = self.dataset.y[o];
            }
        }
        if !fresh.is_empty() {
            let (fx, fy) = self.pipeline.encode_rows(table, fresh)?;
            for (j, &r) in fresh.iter().enumerate() {
                x.row_mut(r).copy_from_slice(fx.row(j));
                y[r] = fy[j];
            }
        }
        let old_len = self.dataset.len();
        self.dataset = Dataset::new(x, y, self.dataset.n_classes)?;
        if let Some(hook) = self.evaluator.as_mut() {
            hook.remap_rows(row_map, &self.dataset)?;
        }
        let in_place = row_map
            .iter()
            .enumerate()
            .all(|(r, from)| from.is_none_or(|o| o == r));
        if !in_place {
            let evicted = self.memo.len();
            self.memo.clear();
            return Ok(evicted);
        }
        // Indices that now hold a different row, or none: the fresh rows
        // and the old rows that did not survive.
        let stale: Vec<usize> = (0..old_len.max(row_map.len()))
            .filter(|&i| row_map.get(i) != Some(&Some(i)))
            .collect();
        Ok(self.memo.invalidate_members(&stale))
    }

    /// Current validation accuracy — from the incremental evaluator when
    /// the model has one, otherwise by refitting the template.
    pub fn accuracy(&self) -> Result<f64> {
        match self.evaluator.as_ref() {
            Some(hook) => Ok(hook.accuracy()),
            None => {
                let mut model = self.template.clone();
                model.fit(&self.dataset)?;
                Ok(model.accuracy(&self.valid))
            }
        }
    }

    /// The maintained encoded training dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The maintained relational output table.
    pub fn table(&self) -> &Table {
        self.session.table()
    }

    /// The underlying pipeline session (lineage, source tables, stats).
    pub fn session(&self) -> &PipelineSession {
        &self.session
    }

    /// The memoized coalition-utility cache importance estimators should
    /// share; accepted fixes evict exactly the entries they stale.
    pub fn memo(&self) -> &MemoCache {
        &self.memo
    }

    /// `(fixes applied, full re-encodes, rows re-encoded)` — the work
    /// accounting of one session, over the fixes that completed. A full
    /// re-encode is a fix after which no output row survived
    /// ([`FixReport::reencoded_all`]); rows re-encoded sums
    /// [`FixReport::affected_rows`].
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.fixes_applied, self.full_reencodes, self.rows_reencoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::Value;
    use nde_importance::batch::UtilityBatcher;
    use nde_importance::{coalition_utility, BatchPolicy};
    use nde_ml::models::knn::KnnClassifier;

    fn inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
        vec![
            ("train_df", &s.letters),
            ("jobdetail_df", &s.job_details),
            ("social_df", &s.social),
        ]
    }

    /// The utility of `coal`, served from and stored in the session's memo.
    fn memoized(
        knn: &KnnClassifier,
        session: &IncrementalDebugSession<KnnClassifier>,
        valid: &Dataset,
        coal: &[usize],
    ) -> f64 {
        let memo = Some(session.memo());
        UtilityBatcher::new(knn, session.dataset(), valid, memo, BatchPolicy::Unbatched)
            .eval_one(coal)
            .unwrap()
    }

    fn valid_set(seed: u64) -> Dataset {
        // A clean hiring sample pushed through a freshly fitted pipeline
        // serves as the validation set for the session under test.
        let s = HiringScenario::generate(60, seed);
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&inputs(&s), false).unwrap().dataset
    }

    /// A pipeline fitted on the original (pre-fix) sources, for ground truth.
    fn truth_pipeline(s: &HiringScenario) -> FeaturePipeline {
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&inputs(s), false).unwrap();
        fp
    }

    /// The ground truth: re-execute the plan over the mutated sources and
    /// re-encode with the **originally fitted** encoders — exactly what the
    /// session maintains incrementally (featurization is part of the model
    /// spec and does not refit per accepted fix).
    fn fresh_accuracy(
        template: &KnnClassifier,
        fp: &FeaturePipeline,
        sources: &[(&str, &Table)],
        valid: &Dataset,
    ) -> (f64, Dataset) {
        let out = fp.transform_run(sources, false).unwrap();
        let mut model = template.clone();
        model.fit(&out.dataset).unwrap();
        (model.accuracy(valid), out.dataset)
    }

    fn assert_dataset_bits_eq(a: &Dataset, b: &Dataset) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.y, b.y);
        for i in 0..a.len() {
            for (p, q) in a.x.row(i).iter().zip(b.x.row(i)) {
                assert_eq!(p.to_bits(), q.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn label_fix_patches_in_place_and_matches_full_rebuild() {
        let mut s = HiringScenario::generate(90, 11);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(12);
        let truth = truth_pipeline(&s);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();
        // Flip the sentiment of a letter that survives the pipeline filter:
        // output row 0's person_id names its letters row.
        let out_row0 = 0usize;
        let pid = session.table().get(out_row0, "person_id").unwrap();
        let src_row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let old = s.letters.get(src_row, "sentiment").unwrap();
        let flipped = if old.as_str().unwrap() == "positive" {
            "negative"
        } else {
            "positive"
        };
        let fix = Delta::Update {
            source: "train_df".into(),
            row: src_row,
            column: "sentiment".into(),
            value: Value::Str(flipped.into()),
        };
        let report = session.apply_fix(&fix).unwrap();
        assert_eq!(report.path, DeltaPath::CellPatch);
        assert!(!report.reencoded_all);
        assert!(report.affected_rows.contains(&out_row0));

        s.letters
            .set(src_row, "sentiment", Value::Str(flipped.into()))
            .unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);
        let _ = session.session().lineage(); // lineage stays materializable
    }

    #[test]
    fn feature_fix_and_structural_fix_match_full_rebuild() {
        let mut s = HiringScenario::generate(80, 21);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(22);
        let truth = truth_pipeline(&s);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();

        // A numeric feature fix: a letter's years_experience outlier.
        let fix = Delta::Update {
            source: "train_df".into(),
            row: 3,
            column: "years_experience".into(),
            value: Value::Float(40.0),
        };
        let report = session.apply_fix(&fix).unwrap();
        let patched = report.affected_rows.len();
        s.letters
            .set(3, "years_experience", Value::Float(40.0))
            .unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);

        // A structural fix: delete a letter outright.
        let report = session
            .apply_fix(&Delta::Delete {
                source: "train_df".into(),
                row: 5,
            })
            .unwrap();
        // A delete leaves no fresh row: nothing is re-encoded.
        assert_eq!(report.path, DeltaPath::Splice);
        assert!(report.affected_rows.is_empty(), "{report:?}");
        assert!(!report.reencoded_all);
        s.letters = s
            .letters
            .take(
                &(0..s.letters.n_rows())
                    .filter(|&r| r != 5)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let (want, want_ds) = fresh_accuracy(&knn, &truth, &inputs(&s), &valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits());
        assert_dataset_bits_eq(session.dataset(), &want_ds);
        let (fixes, full, rows) = session.stats();
        assert_eq!(fixes, 2);
        assert_eq!(full, 0);
        assert_eq!(rows, patched);
    }

    #[test]
    fn a_fix_failing_after_the_pipeline_layer_poisons_the_session() {
        let s = HiringScenario::generate(60, 41);
        let mut session = IncrementalDebugSession::build(
            KnnClassifier::new(3),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid_set(42),
        )
        .unwrap();
        let pid = session.table().get(0, "person_id").unwrap();
        let row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let fix = |label: &str| Delta::Update {
            source: "train_df".into(),
            row,
            column: "sentiment".into(),
            value: Value::Str(label.into()),
        };
        // The pipeline accepts the update, but the label encoder has never
        // seen "neutral": the re-encode fails.
        assert!(session.apply_fix(&fix("neutral")).is_err());
        assert_eq!(session.stats(), (0, 0, 0));
        // The dataset is now behind `table()`: a valid fix must be refused.
        assert!(matches!(
            session.apply_fix(&fix("positive")),
            Err(CleaningError::Pipeline(_))
        ));
        assert_eq!(session.stats(), (0, 0, 0));
    }

    #[test]
    fn memo_cache_serves_only_fresh_utilities_across_fixes() {
        let s = HiringScenario::generate(70, 31);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(32);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();

        // Memoize two coalitions: one touching output row 0, one not.
        let n = session.dataset().len();
        let with_zero: Vec<usize> = (0..n.min(6)).collect();
        let without_zero: Vec<usize> = (1..n.min(7)).collect();
        for coal in [&with_zero, &without_zero] {
            memoized(&knn, &session, &valid, coal);
        }
        assert_eq!(session.memo().len(), 2);

        // Fix whose cell patch touches output row 0 (its letter's sentiment).
        let pid = session.table().get(0, "person_id").unwrap();
        let src_row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let old = s.letters.get(src_row, "sentiment").unwrap();
        let flipped = if old.as_str().unwrap() == "positive" {
            "negative"
        } else {
            "positive"
        };
        let report = session
            .apply_fix(&Delta::Update {
                source: "train_df".into(),
                row: src_row,
                column: "sentiment".into(),
                value: Value::Str(flipped.into()),
            })
            .unwrap();
        assert!(report.affected_rows.contains(&0));
        assert!(report.cache_evictions >= 1, "{report:?}");

        // Whatever survived must still be bit-correct: recompute every
        // memoized coalition from scratch and compare.
        for coal in [&with_zero, &without_zero] {
            let cached = memoized(&knn, &session, &valid, coal);
            let fresh = coalition_utility(&knn, session.dataset(), &valid, coal).unwrap();
            assert_eq!(cached.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn build_runs_the_plan_once_and_matches_fit_run() {
        let s = HiringScenario::generate(90, 51);
        let mut fp = FeaturePipeline::hiring(8);
        let want = fp.fit_run(&inputs(&s), false).unwrap();
        let session = IncrementalDebugSession::build(
            KnnClassifier::new(3),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid_set(52),
        )
        .unwrap();
        assert_dataset_bits_eq(session.dataset(), &want.dataset);
        assert_eq!(session.dataset().n_classes, want.dataset.n_classes);
        assert_eq!(session.table(), &want.table);
    }

    /// A letter that reaches the output, and its source row.
    fn output_letter(
        session: &IncrementalDebugSession<KnnClassifier>,
        s: &HiringScenario,
    ) -> usize {
        let pid = session.table().get(0, "person_id").unwrap();
        (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap()
    }

    #[test]
    fn a_non_finite_feature_fails_and_poisons_on_both_fix_paths() {
        let s = HiringScenario::generate(60, 61);
        let build = || {
            IncrementalDebugSession::build(
                KnnClassifier::new(3),
                FeaturePipeline::hiring(8),
                &inputs(&s),
                valid_set(62),
            )
            .unwrap()
        };
        let row = output_letter(&build(), &s);
        let mut letter = s.letters.row(row).unwrap();
        letter[5] = Value::Float(f64::INFINITY); // years_experience
        let fixes = [
            Delta::Update {
                source: "train_df".into(),
                row,
                column: "years_experience".into(),
                value: Value::Float(f64::INFINITY),
            },
            Delta::Insert {
                source: "train_df".into(),
                values: letter,
            },
        ];
        for (fix, path) in fixes.iter().zip([DeltaPath::CellPatch, DeltaPath::Rerun]) {
            let mut session = build();
            // The pipeline layer accepts the fix on the expected path...
            let mut probe = session.session().clone();
            assert_eq!(probe.apply(fix).unwrap().path, path);
            // ...and the evaluator rejects the infinite feature it encodes.
            let err = session.apply_fix(fix).unwrap_err();
            assert!(
                matches!(&err, CleaningError::Ml(msg) if msg.contains("non-finite feature")),
                "{fix:?}: {err}"
            );
            assert_eq!(session.stats(), (0, 0, 0));
            let label = Delta::Update {
                source: "train_df".into(),
                row,
                column: "sentiment".into(),
                value: Value::Str("positive".into()),
            };
            assert!(matches!(
                session.apply_fix(&label),
                Err(CleaningError::Pipeline(_))
            ));
        }
        // The same feature in the build's own data fails the build.
        let mut bad = HiringScenario::generate(60, 61);
        bad.letters
            .set(row, "years_experience", Value::Float(f64::INFINITY))
            .unwrap();
        let built = IncrementalDebugSession::build(
            KnnClassifier::new(3),
            FeaturePipeline::hiring(8),
            &inputs(&bad),
            valid_set(62),
        );
        assert!(matches!(&built, Err(CleaningError::Ml(_))));
    }

    #[test]
    fn memo_survives_a_rerun_that_keeps_every_index() {
        let s = HiringScenario::generate(70, 71);
        let knn = KnnClassifier::new(3);
        let valid = valid_set(72);
        let mut session = IncrementalDebugSession::build(
            knn.clone(),
            FeaturePipeline::hiring(8),
            &inputs(&s),
            valid.clone(),
        )
        .unwrap();
        let n = session.dataset().len();
        let head: Vec<usize> = (0..n.min(6)).collect();
        let tail: Vec<usize> = (n - 3..n).collect();
        for coal in [&head, &tail] {
            memoized(&knn, &session, &valid, coal);
        }
        // Re-inserting the letter of output row 0 appends one fresh row
        // at the end; every other row keeps its index.
        let letter = s.letters.row(output_letter(&session, &s)).unwrap();
        let report = session
            .apply_fix(&Delta::Insert {
                source: "train_df".into(),
                values: letter,
            })
            .unwrap();
        assert_eq!(report.path, DeltaPath::Rerun);
        assert_eq!(report.affected_rows, vec![n]);
        // Only coalitions that may hold index n go: `tail` never does, and
        // `head` only when the cache's membership signature (one bit per
        // index mod 64) cannot tell n from its members.
        let collides = usize::from(n % 64 < head.len());
        assert_eq!(report.cache_evictions, collides);
        assert_eq!(session.memo().len(), 2 - collides);
        // Deleting the last letter removes that appended row again.
        let last = s.letters.n_rows();
        let report = session
            .apply_fix(&Delta::Delete {
                source: "train_df".into(),
                row: last,
            })
            .unwrap();
        assert!(report.affected_rows.is_empty());
        assert_eq!(report.cache_evictions, 0);
        assert_eq!(session.memo().len(), 2 - collides);
        for coal in [&head, &tail] {
            let cached = memoized(&knn, &session, &valid, coal);
            let fresh = coalition_utility(&knn, session.dataset(), &valid, coal).unwrap();
            assert_eq!(cached.to_bits(), fresh.to_bits());
        }
        // Deleting the first output row's letter renumbers every later row:
        // the memo is cleared.
        let report = session
            .apply_fix(&Delta::Delete {
                source: "train_df".into(),
                row: output_letter(&session, &s),
            })
            .unwrap();
        assert_eq!(report.cache_evictions, 2);
        assert!(session.memo().is_empty());
    }
}
