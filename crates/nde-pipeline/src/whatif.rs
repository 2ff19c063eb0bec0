//! Provenance-based what-if analysis (paper §2.2).
//!
//! The tutorial highlights "the connection to related areas such as
//! incremental view maintenance of the pipeline outputs based on changes in
//! their inputs" and cites data-centric what-if analyses (Grafberger et al.
//! '23). Given an executed pipeline *with provenance*, this module answers
//! **"what would the output be if these source tuples were deleted?"**
//! without re-running the pipeline: evaluate every output row's provenance
//! polynomial in the Boolean semiring and keep the rows that remain
//! derivable.
//!
//! Evaluation runs on the hash-consed [`crate::provenance::ProvArena`]:
//! one forward pass over the interned node table answers a single deletion
//! set ([`predict_deletion`]), and the bitset evaluator answers **64
//! deletion sets per pass** ([`predict_deletions_batch`]) — no recursion,
//! no per-row tree walks.
//!
//! ## Exactness
//!
//! The prediction is exact for *monotone* pipelines (sources, inner joins,
//! fuzzy joins matching by best candidate, filters, projections, selects,
//! concat, distinct) **when the deletion touches only sources that the kept
//! rows depend on conjunctively** — e.g. the primary table of the hiring
//! pipeline. Two caveats, both detected by the accompanying tests:
//!
//! * deleting tuples of the *right side of a left join* pads the re-executed
//!   row with nulls instead of deleting it, so the prediction is
//!   conservative there;
//! * deleting the best candidate of a *fuzzy join* can promote the
//!   second-best match on re-execution, which deletion propagation cannot
//!   see.

use crate::provenance::{Lineage, TupleId};
use crate::Result;
use nde_data::fxhash::{FxHashMap, FxHashSet};
use nde_data::Table;

/// The predicted effect of deleting source tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletionEffect {
    /// Output rows (indices into the original output) that survive.
    pub surviving_rows: Vec<usize>,
    /// Output rows that would disappear.
    pub deleted_rows: Vec<usize>,
}

impl DeletionEffect {
    /// Number of output rows the prediction covers.
    pub fn total_rows(&self) -> usize {
        self.surviving_rows.len() + self.deleted_rows.len()
    }

    /// Fraction of output rows lost.
    pub fn loss_fraction(&self) -> f64 {
        let total = self.total_rows();
        if total == 0 {
            return 0.0;
        }
        self.deleted_rows.len() as f64 / total as f64
    }
}

/// Predict which output rows survive deleting `deleted` source tuples:
/// one Boolean-semiring pass over the provenance arena.
pub fn predict_deletion(lineage: &Lineage, deleted: &[TupleId]) -> DeletionEffect {
    let dead: FxHashSet<TupleId> = deleted.iter().copied().collect();
    let truth = lineage.arena.eval_bool(&|t| !dead.contains(&t));
    let mut surviving_rows = Vec::new();
    let mut deleted_rows = Vec::new();
    for (row, id) in lineage.rows.iter().enumerate() {
        if truth[id.index()] {
            surviving_rows.push(row);
        } else {
            deleted_rows.push(row);
        }
    }
    DeletionEffect {
        surviving_rows,
        deleted_rows,
    }
}

/// Predict the effect of *many* deletion sets at once via the bitset
/// evaluator: scenarios are packed 64 per `u64` lane, so `k` deletion sets
/// cost `ceil(k / 64)` arena passes instead of `k`. Returns one
/// [`DeletionEffect`] per input set, identical to calling
/// [`predict_deletion`] on each set individually.
pub fn predict_deletions_batch(
    lineage: &Lineage,
    deletions: &[Vec<TupleId>],
) -> Vec<DeletionEffect> {
    predict_deletions_batch_threaded(lineage, deletions, 1)
}

/// [`predict_deletions_batch`] with the 64-lane chunks spread over
/// `threads` workers. Chunks are fully independent arena passes and
/// results come back sorted by chunk index, so the output is bit-identical
/// at every thread count (including 1, which runs inline).
pub fn predict_deletions_batch_threaded(
    lineage: &Lineage,
    deletions: &[Vec<TupleId>],
    threads: usize,
) -> Vec<DeletionEffect> {
    use nde_data::par::WorkerFailure;
    use nde_data::pool::WorkerPool;
    use std::sync::atomic::AtomicBool;

    let chunks: Vec<&[Vec<TupleId>]> = deletions.chunks(64).collect();
    let stop = AtomicBool::new(false);
    let per_chunk = WorkerPool::shared()
        .map_indexed::<Vec<DeletionEffect>, (), _>(threads, 0..chunks.len() as u64, &stop, |i| {
            let chunk = chunks[i as usize];
            // dead_mask[t] bit j set = tuple t is deleted in scenario j.
            let mut dead_mask: FxHashMap<TupleId, u64> = FxHashMap::default();
            for (j, set) in chunk.iter().enumerate() {
                for t in set {
                    *dead_mask.entry(*t).or_insert(0) |= 1u64 << j;
                }
            }
            let lanes = lineage
                .arena
                .eval_bool_lanes(&|t| !dead_mask.get(&t).copied().unwrap_or(0));
            let mut effects = Vec::with_capacity(chunk.len());
            for (j, _) in chunk.iter().enumerate() {
                let mut surviving_rows = Vec::new();
                let mut deleted_rows = Vec::new();
                for (row, id) in lineage.rows.iter().enumerate() {
                    if (lanes[id.index()] >> j) & 1 == 1 {
                        surviving_rows.push(row);
                    } else {
                        deleted_rows.push(row);
                    }
                }
                effects.push(DeletionEffect {
                    surviving_rows,
                    deleted_rows,
                });
            }
            Ok(effects)
        })
        .unwrap_or_else(|fail| match fail {
            WorkerFailure::Err(..) => unreachable!("chunk evaluation is infallible"),
            WorkerFailure::Panic(i, msg) => panic!("what-if worker panicked at chunk {i}: {msg}"),
        });
    per_chunk.into_iter().flat_map(|(_, e)| e).collect()
}

/// Materialize the predicted post-deletion output table from the original
/// output (no pipeline re-execution).
pub fn apply_deletion(output: &Table, effect: &DeletionEffect) -> Result<Table> {
    Ok(output.take(&effect.surviving_rows)?)
}

/// Convenience: delete rows of one named source.
pub fn delete_source_rows(
    lineage: &Lineage,
    source_name: &str,
    rows: &[usize],
) -> Result<DeletionEffect> {
    let src = lineage.source_index(source_name).ok_or_else(|| {
        crate::PipelineError::InvalidPlan(format!(
            "source `{source_name}` not in lineage (sources: {:?})",
            lineage.sources
        ))
    })?;
    let deleted: Vec<TupleId> = rows.iter().map(|&r| TupleId::new(src, r as u32)).collect();
    Ok(predict_deletion(lineage, &deleted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::plan::Plan;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::{DataType, Field, Schema, Value};

    fn run_pipeline(s: &HiringScenario) -> (Table, Lineage) {
        let (plan, root) = Plan::hiring_pipeline();
        let out = Executor::new()
            .with_provenance(true)
            .run(
                &plan,
                root,
                &[
                    ("train_df", &s.letters),
                    ("jobdetail_df", &s.job_details),
                    ("social_df", &s.social),
                ],
            )
            .unwrap();
        (out.table, out.provenance.unwrap())
    }

    #[test]
    fn predicted_deletion_matches_reexecution_for_primary_source() {
        let s = HiringScenario::generate(150, 91);
        let (output, lineage) = run_pipeline(&s);

        // Delete 20 letters rows; predict, then re-execute for ground truth.
        let victims: Vec<usize> = (0..20).map(|i| i * 7 % s.letters.n_rows()).collect();
        let mut victims = victims;
        victims.sort_unstable();
        victims.dedup();
        let effect = delete_source_rows(&lineage, "train_df", &victims).unwrap();
        let predicted = apply_deletion(&output, &effect).unwrap();

        let keep: Vec<usize> = (0..s.letters.n_rows())
            .filter(|r| !victims.contains(r))
            .collect();
        let reduced = HiringScenario {
            letters: s.letters.take(&keep).unwrap(),
            job_details: s.job_details.clone(),
            social: s.social.clone(),
        };
        let (actual, _) = run_pipeline(&reduced);

        assert_eq!(predicted.n_rows(), actual.n_rows());
        for r in 0..actual.n_rows() {
            assert_eq!(predicted.row(r).unwrap(), actual.row(r).unwrap());
        }
    }

    #[test]
    fn deleting_a_job_kills_all_its_letters_rows() {
        let s = HiringScenario::generate(120, 92);
        let (output, lineage) = run_pipeline(&s);
        // Pick the job of the first output row.
        let job = output.get(0, "job_id").unwrap().as_int().unwrap();
        let job_row = (0..s.job_details.n_rows())
            .find(|&r| s.job_details.get(r, "job_id").unwrap().as_int() == Some(job))
            .unwrap();
        let effect = delete_source_rows(&lineage, "jobdetail_df", &[job_row]).unwrap();
        // Every output row with this job must disappear; no others from the
        // inner-join path.
        for r in 0..output.n_rows() {
            let has_job = output.get(r, "job_id").unwrap().as_int() == Some(job);
            assert_eq!(effect.deleted_rows.contains(&r), has_job, "row {r}");
        }
        assert!(!effect.deleted_rows.is_empty());
        assert_eq!(effect.total_rows(), output.n_rows());
        assert!(effect.loss_fraction() > 0.0);
    }

    #[test]
    fn empty_deletion_is_identity() {
        let s = HiringScenario::generate(60, 93);
        let (output, lineage) = run_pipeline(&s);
        let effect = predict_deletion(&lineage, &[]);
        assert_eq!(effect.surviving_rows.len(), output.n_rows());
        assert!(effect.deleted_rows.is_empty());
        assert_eq!(effect.loss_fraction(), 0.0);
        let predicted = apply_deletion(&output, &effect).unwrap();
        assert_eq!(predicted, output);
    }

    #[test]
    fn batch_prediction_matches_one_by_one() {
        let s = HiringScenario::generate(120, 96);
        let (_, lineage) = run_pipeline(&s);
        // 70 deletion sets — crosses the 64-lane boundary on purpose.
        let sets: Vec<Vec<TupleId>> = (0..70)
            .map(|k| {
                (0..=(k % 5))
                    .map(|j| TupleId::new(0, ((k * 13 + j * 7) % s.letters.n_rows()) as u32))
                    .collect()
            })
            .collect();
        let batched = predict_deletions_batch(&lineage, &sets);
        assert_eq!(batched.len(), sets.len());
        for (k, set) in sets.iter().enumerate() {
            assert_eq!(batched[k], predict_deletion(&lineage, set), "set {k}");
        }
    }

    #[test]
    fn left_join_caveat_is_conservative() {
        // Deleting a social row kills the joined output row in the
        // prediction, while re-execution null-pads it: the prediction is a
        // conservative subset.
        let s = HiringScenario::generate(100, 94);
        let (output, lineage) = run_pipeline(&s);
        let src = lineage.source_index("social_df").unwrap();
        // Find an output row depending on some social tuple.
        let (out_row, social_row) = (0..lineage.n_rows())
            .find_map(|r| {
                lineage
                    .row_tuples(r)
                    .into_iter()
                    .find(|t| t.source == src)
                    .map(|t| (r, t.row as usize))
            })
            .expect("some row joined social data");
        let effect = delete_source_rows(&lineage, "social_df", &[social_row]).unwrap();
        assert!(effect.deleted_rows.contains(&out_row));
        // Re-execution keeps the row (null-padded): prediction ⊆ actual.
        let keep: Vec<usize> = (0..s.social.n_rows())
            .filter(|&r| r != social_row)
            .collect();
        let reduced = HiringScenario {
            letters: s.letters.clone(),
            job_details: s.job_details.clone(),
            social: s.social.take(&keep).unwrap(),
        };
        let (actual, _) = run_pipeline(&reduced);
        assert!(actual.n_rows() >= effect.surviving_rows.len());
        // Every person has one social row, so the left join keeps one row
        // per joined letter and the rows line up: the deleted row is still
        // there, with null social columns.
        assert_eq!(actual.n_rows(), output.n_rows());
        assert_eq!(
            actual.get(out_row, "person_id").unwrap(),
            output.get(out_row, "person_id").unwrap()
        );
        for column in ["twitter", "followers"] {
            assert_eq!(actual.get(out_row, column).unwrap(), Value::Null);
        }
        assert_eq!(
            actual.get(out_row, "has_twitter").unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn fuzzy_join_caveat_misses_the_second_best_match() {
        // Deleting a row's best fuzzy candidate drops the row in the
        // prediction, while re-execution falls back to the second-best
        // candidate above the threshold.
        let str_table = |name: &str, key: &str, other: Field, rows: Vec<(&str, Value)>| {
            let schema = Schema::new(vec![Field::new(key, DataType::Str), other]).unwrap();
            let mut t = Table::empty(name, schema);
            for (k, v) in rows {
                t.push_row(vec![k.into(), v]).unwrap();
            }
            t
        };
        let mentions = str_table(
            "mentions",
            "employer",
            Field::new("person", DataType::Int),
            vec![("acme corp", Value::Int(1))],
        );
        let companies = |rows| {
            str_table(
                "companies",
                "name",
                Field::new("rating", DataType::Float),
                rows,
            )
        };
        let both = companies(vec![
            ("Acme Corp", Value::Float(4.5)),
            ("Acme Corps", Value::Float(3.0)),
        ]);
        let mut plan = Plan::new();
        let m = plan.source("mentions");
        let c = plan.source("companies");
        let root = plan.fuzzy_join(m, c, "employer", "name", 0.8);
        let run = |companies: &Table| {
            Executor::new()
                .with_provenance(true)
                .run(
                    &plan,
                    root,
                    &[("mentions", &mentions), ("companies", companies)],
                )
                .unwrap()
        };
        let out = run(&both);
        assert_eq!(out.table.get(0, "rating").unwrap(), Value::Float(4.5));
        let effect =
            delete_source_rows(out.provenance.as_ref().unwrap(), "companies", &[0]).unwrap();
        assert_eq!(effect.deleted_rows, vec![0]);
        assert!(effect.surviving_rows.is_empty());
        let actual = run(&companies(vec![("Acme Corps", Value::Float(3.0))])).table;
        assert_eq!(actual.n_rows(), 1);
        assert_eq!(actual.get(0, "rating").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn unknown_source_rejected() {
        let s = HiringScenario::generate(30, 95);
        let (_, lineage) = run_pipeline(&s);
        assert!(delete_source_rows(&lineage, "nope", &[0]).is_err());
    }
}
