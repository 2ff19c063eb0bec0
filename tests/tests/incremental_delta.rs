//! Differential property suite for incremental maintenance: both fix paths — cell patch and rerun — must be
//! **bit-identical** to full re-execution (table *and* lineage) at every
//! thread count; incremental cleaning must produce the same scores and
//! challenge verdicts as refitting; and a chaos-killed incremental cleaning
//! loop must resume through a durable [`RunStore`] to the same trace.

use nde_cleaning::{
    prioritized_cleaning, prioritized_cleaning_resumable, CleaningCheckpoint, CleaningError,
    DebugChallenge, FixReport, IncrementalDebugSession, LabelOracle, MaintenanceMode, Strategy,
};
use nde_data::generate::blobs::two_gaussians;
use nde_data::generate::hiring::HiringScenario;
use nde_data::{Table, Value};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::exec::Executor;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::{Delta, DeltaPath, PipelineSession, Plan};
use nde_robust::{supervise, RetryPolicy, RunBudget, RunFingerprint, RunStore, SuperviseCtx};
use nde_tests::chaos::{CheckpointKillSwitch, FaultSchedule, CHAOS_PANIC_PREFIX};

fn hiring_inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
    vec![
        ("train_df", &s.letters),
        ("jobdetail_df", &s.job_details),
        ("social_df", &s.social),
    ]
}

/// A mixed fix sequence covering both propagation paths: non-routing cell
/// updates (patch), and insert/delete plus a routing update on the filter
/// column (rerun).
fn fix_sequence() -> Vec<Delta> {
    vec![
        Delta::Update {
            source: "train_df".into(),
            row: 2,
            column: "sentiment".into(),
            value: Value::Str("negative".into()),
        },
        Delta::Update {
            source: "train_df".into(),
            row: 4,
            column: "years_experience".into(),
            value: Value::Float(33.0),
        },
        Delta::Insert {
            source: "train_df".into(),
            values: vec![
                Value::Int(600),
                Value::Int(0),
                Value::Str("wonderful fantastic team".into()),
                Value::Str("msc".into()),
                Value::Float(4.0),
                Value::Float(6.0),
                Value::Str("positive".into()),
            ],
        },
        Delta::Delete {
            source: "social_df".into(),
            row: 0,
        },
        Delta::Update {
            source: "jobdetail_df".into(),
            row: 0,
            column: "sector".into(),
            value: Value::Str("tech".into()),
        },
        Delta::Delete {
            source: "train_df".into(),
            row: 1,
        },
    ]
}

/// After every fix, the maintained table and lineage are bit-identical to a
/// fresh provenance-tracked execution over the mutated sources — at 1, 2, 4
/// and 7 threads — and all thread counts agree with each other.
#[test]
fn fix_sequences_match_full_reexecution_at_every_thread_count() {
    let (plan, root) = Plan::hiring_pipeline();
    let mut baseline: Vec<(Table, nde_pipeline::Lineage)> = Vec::new();
    for threads in [1usize, 2, 4, 7] {
        let s = HiringScenario::generate(60, 9);
        let executor = Executor::new().with_threads(threads);
        let mut session =
            PipelineSession::build(&executor, &plan, root, &hiring_inputs(&s)).unwrap();
        for (step, delta) in fix_sequence().iter().enumerate() {
            session.apply(delta).unwrap();
            // Ground truth: re-execute from the session's mutated sources.
            let mutated: Vec<(&str, &Table)> = session
                .source_names()
                .iter()
                .map(|n| (n.as_str(), session.input(n).unwrap()))
                .collect();
            let fresh = executor
                .clone()
                .with_provenance(true)
                .run(&plan, root, &mutated)
                .unwrap();
            assert_eq!(
                session.table(),
                &fresh.table,
                "threads={threads} step={step}: table"
            );
            let lineage = session.lineage();
            assert_eq!(
                lineage,
                fresh.provenance.unwrap(),
                "threads={threads} step={step}: lineage"
            );
            if threads == 1 {
                baseline.push((session.table().clone(), lineage));
            } else {
                let (t, l) = &baseline[step];
                assert_eq!(session.table(), t, "threads={threads} step={step}");
                assert_eq!(&session.lineage(), l, "threads={threads} step={step}");
            }
        }
        // Every path was exercised: the insert, the social delete and the
        // sector update rerun, the letters delete splices.
        let stats = session.stats();
        assert!(stats.cell_patches >= 2, "{stats:?}");
        assert_eq!(stats.reruns, 3, "{stats:?}");
        assert_eq!(stats.splices, 1, "{stats:?}");
    }
}

fn blob_workload() -> (Dataset, Dataset, LabelOracle) {
    let nd = two_gaussians(200, 3, 2.0, 77);
    let all = Dataset::try_from(&nd).unwrap();
    let mut train = all.subset(&(0..150).collect::<Vec<_>>());
    let valid = all.subset(&(150..200).collect::<Vec<_>>());
    let truth = train.y.clone();
    for f in [4, 16, 28, 39, 52, 67, 83, 98, 112, 121, 134, 141, 148] {
        train.y[f] = 1 - train.y[f];
    }
    (train, valid, LabelOracle::new(truth))
}

/// The cleaning loop's scores and the challenge's leaderboard verdicts are
/// bit-identical between `Rerun` and `Incremental` maintenance.
#[test]
fn incremental_scores_and_verdicts_match_rerun() {
    let (dirty, valid, oracle) = blob_workload();
    let knn = KnnClassifier::new(3);
    let strategy = Strategy::KnnShapley { k: 3 };
    let run = |mode| {
        prioritized_cleaning(&knn, &dirty, &oracle, &valid, &strategy, 6, 4, false, mode).unwrap()
    };
    let rerun = run(MaintenanceMode::Rerun);
    let inc = run(MaintenanceMode::Incremental);
    assert_eq!(rerun.cleaned, inc.cleaned);
    for (a, b) in rerun.accuracy.iter().zip(&inc.accuracy) {
        assert_eq!(a.to_bits(), b.to_bits(), "{rerun:?} vs {inc:?}");
    }

    // Challenge verdicts: identical scores, identical leaderboard order.
    let hidden = valid.clone();
    let make = || {
        DebugChallenge::new(
            knn.clone(),
            dirty.clone(),
            oracle.clone(),
            hidden.clone(),
            20,
        )
        .unwrap()
    };
    let mut by_rerun = make();
    let mut by_inc = make().with_maintenance(MaintenanceMode::Incremental);
    let submissions: Vec<Vec<usize>> = vec![
        (0..20).collect(),
        vec![4, 16, 28, 39, 52, 67, 83, 98, 112, 121],
        vec![],
        (0..20).map(|i| i * 7 % 150).collect(),
    ];
    for (i, rows) in submissions.iter().enumerate() {
        let a = by_rerun.submit(&format!("s{i}"), rows).unwrap();
        let b = by_inc.submit(&format!("s{i}"), rows).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "submission {i}");
    }
    assert_eq!(by_rerun.leaderboard(), by_inc.leaderboard());
}

/// End-to-end: source-level fixes through an [`IncrementalDebugSession`]
/// produce the same dataset and accuracy as re-executing the pipeline and
/// re-encoding with the fitted encoders.
#[test]
fn debug_session_fixes_match_transform_rerun() {
    let s = HiringScenario::generate(80, 13);
    let knn = KnnClassifier::new(3);
    let valid = {
        let vs = HiringScenario::generate(50, 14);
        let mut fp = FeaturePipeline::hiring(8);
        fp.fit_run(&hiring_inputs(&vs), false).unwrap().dataset
    };
    let mut truth_fp = FeaturePipeline::hiring(8);
    truth_fp.fit_run(&hiring_inputs(&s), false).unwrap();
    let mut session = IncrementalDebugSession::build(
        knn.clone(),
        FeaturePipeline::hiring(8),
        &hiring_inputs(&s),
        valid.clone(),
    )
    .unwrap();
    for delta in fix_sequence() {
        let report = session.apply_fix(&delta).unwrap();
        let mutated: Vec<(&str, &Table)> = session
            .session()
            .source_names()
            .iter()
            .map(|n| (n.as_str(), session.session().input(n).unwrap()))
            .collect();
        let out = truth_fp.transform_run(&mutated, false).unwrap();
        let mut model = knn.clone();
        model.fit(&out.dataset).unwrap();
        let want = model.accuracy(&valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits(), "{delta:?}");
        assert_eq!(session.dataset().y, out.dataset.y);
        for r in 0..out.dataset.len() {
            for (a, b) in session.dataset().x.row(r).iter().zip(out.dataset.x.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} after {delta:?}");
            }
        }
    }
}

/// An incremental cleaning loop killed at chaos-scheduled checkpoint saves
/// resumes through a durable [`RunStore`] and finishes bit-identical to an
/// uninterrupted rerun-mode loop.
#[test]
fn chaos_killed_incremental_cleaning_resumes_bit_identically() {
    const ROUNDS: u64 = 4;
    let (train, valid, oracle) = blob_workload();
    let knn = KnnClassifier::new(3);
    let strategy = Strategy::KnnShapley { k: 3 };
    let reference = prioritized_cleaning(
        &knn,
        &train,
        &oracle,
        &valid,
        &strategy,
        5,
        ROUNDS as usize,
        false,
        MaintenanceMode::Rerun,
    )
    .unwrap();

    let dir = std::env::temp_dir().join(format!("nde-incremental-cleaning-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = RunStore::open(dir).unwrap();
    let fp = RunFingerprint::new("incremental-cleaning", 77, "batch=5;rounds=4", 0x16E);
    let kill = CheckpointKillSwitch::new(FaultSchedule::at(&[0, 2]));
    let sup = supervise(
        &store,
        &fp,
        &RetryPolicy::immediate(8),
        |ctx: &SuperviseCtx<'_>| -> Result<CleaningCheckpoint, CleaningError> {
            loop {
                let resume = match ctx.latest()? {
                    Some(r) => Some(CleaningCheckpoint::from_payload(&r.payload)?),
                    None => None,
                };
                let done = resume.as_ref().map_or(0, |s| s.rounds_done);
                let budget = RunBudget::unlimited().with_max_iterations((done + 1).min(ROUNDS));
                let (_, snap) = prioritized_cleaning_resumable(
                    &knn,
                    &train,
                    &oracle,
                    &valid,
                    &strategy,
                    5,
                    ROUNDS as usize,
                    false,
                    MaintenanceMode::Incremental,
                    &budget,
                    &RetryPolicy::none(),
                    resume.as_ref(),
                )?;
                ctx.checkpoint(snap.rounds_done, &snap.to_payload())?;
                kill.observe();
                if snap.rounds_done >= ROUNDS {
                    return Ok(snap);
                }
            }
        },
    )
    .unwrap();

    assert_eq!(sup.attempts, 3, "two kills cost two restarts");
    assert!(sup
        .crashes
        .iter()
        .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
    assert_eq!(sup.value.rounds_done, ROUNDS);
    assert_eq!(sup.value.cleaned, reference.cleaned);
    for (a, b) in sup.value.accuracy.iter().zip(&reference.accuracy) {
        assert_eq!(a.to_bits(), b.to_bits(), "accuracy trace");
    }
}

/// An [`IncrementalDebugSession`] beside a [`PipelineSession`] run at a
/// given thread count, fed the same fixes, and the ground truth both are
/// held to.
struct Twin {
    debug: IncrementalDebugSession<KnnClassifier>,
    pipeline: PipelineSession,
    truth: FeaturePipeline,
    knn: KnnClassifier,
    valid: Dataset,
}

impl Twin {
    fn new(s: &HiringScenario, k: usize, threads: usize) -> Twin {
        let mut truth = FeaturePipeline::hiring(8);
        truth.fit_run(&hiring_inputs(s), false).unwrap();
        let vs = HiringScenario::generate(50, 99);
        let valid = truth
            .transform_run(&hiring_inputs(&vs), false)
            .unwrap()
            .dataset;
        let (plan, root) = Plan::hiring_pipeline();
        let executor = Executor::new().with_threads(threads);
        Twin {
            debug: IncrementalDebugSession::build(
                KnnClassifier::new(k),
                FeaturePipeline::hiring(8),
                &hiring_inputs(s),
                valid.clone(),
            )
            .unwrap(),
            pipeline: PipelineSession::build(&executor, &plan, root, &hiring_inputs(s)).unwrap(),
            truth,
            knn: KnnClassifier::new(k),
            valid,
        }
    }

    /// Apply `delta` to both sessions and check the debug session against
    /// a fresh `transform_run` plus refit over its mutated sources: dataset
    /// bits, labels and accuracy. Its re-encoded rows must be exactly the
    /// pipeline layer's fresh rows, and no surviving row is re-encoded.
    fn fix(&mut self, delta: &Delta) -> FixReport {
        let outcome = self.pipeline.apply(delta).unwrap();
        let (_, full_before, rows_before) = self.debug.stats();
        let report = self.debug.apply_fix(delta).unwrap();
        assert_eq!(report.path, outcome.path, "{delta:?}");
        assert_eq!(report.affected_rows, outcome.affected_rows, "{delta:?}");
        assert_eq!(self.debug.table(), self.pipeline.table(), "{delta:?}");
        let (_, full, rows) = self.debug.stats();
        assert_eq!(rows - rows_before, report.affected_rows.len(), "{delta:?}");
        assert_eq!(full, full_before, "{delta:?}: a full re-encode");
        let session = self.debug.session();
        let mutated: Vec<(&str, &Table)> = session
            .source_names()
            .iter()
            .map(|n| (n.as_str(), session.input(n).unwrap()))
            .collect();
        let out = self.truth.transform_run(&mutated, false).unwrap();
        let mut model = self.knn.clone();
        model.fit(&out.dataset).unwrap();
        let want = model.accuracy(&self.valid);
        assert_eq!(report.accuracy.to_bits(), want.to_bits(), "{delta:?}");
        let ds = self.debug.dataset();
        assert_eq!(ds.y, out.dataset.y, "{delta:?}");
        assert_eq!(ds.len(), out.dataset.len(), "{delta:?}");
        for r in 0..ds.len() {
            for (a, b) in ds.x.row(r).iter().zip(out.dataset.x.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} after {delta:?}");
            }
        }
        report
    }
}

/// The letters row of output row `out`'s person.
fn letter_of(table: &Table, letters: &Table, out: usize) -> usize {
    let person = table.get(out, "person_id").unwrap();
    (0..letters.n_rows())
        .find(|&r| letters.get(r, "person_id").unwrap() == person)
        .unwrap()
}

fn is_healthcare(s: &HiringScenario, job: usize) -> bool {
    s.job_details.get(job, "sector").unwrap() == Value::Str("healthcare".into())
}

/// The job of letters row `row` (job ids are job-table rows).
fn job_of(s: &HiringScenario, row: usize) -> usize {
    s.letters.get(row, "job_id").unwrap().as_int().unwrap() as usize
}

/// One structural fix of every kind, each from a fresh session, at 1, 2,
/// 4 and 7 pipeline threads: `(delta, path, fresh rows, output rows
/// after)`. Letters deletes splice; everything else reruns.
#[test]
fn each_structural_fix_kind_remaps_and_matches_a_fresh_run() {
    let s = HiringScenario::generate(90, 23);
    let base = Twin::new(&s, 3, 1);
    let table = base.debug.table().clone();
    let n = table.n_rows();
    let inside = letter_of(&table, &s.letters, 2);
    let outside = (0..s.letters.n_rows())
        .find(|&r| !is_healthcare(&s, job_of(&s, r)))
        .unwrap();
    let person = s
        .letters
        .get(letter_of(&table, &s.letters, 0), "person_id")
        .unwrap();
    let social_row = (0..s.social.n_rows())
        .find(|&r| s.social.get(r, "person_id").unwrap() == person)
        .unwrap();
    let job_in = job_of(&s, inside);
    let letters_of = |job: usize| {
        (0..s.letters.n_rows())
            .filter(|&r| job_of(&s, r) == job)
            .count()
    };
    let job_out = (0..s.job_details.n_rows())
        .find(|&j| !is_healthcare(&s, j) && letters_of(j) > 0)
        .unwrap();
    let other_job = (0..s.job_details.n_rows())
        .find(|&j| is_healthcare(&s, j) && j != job_in)
        .unwrap();
    let sector = |row: usize, to: &str| Delta::Update {
        source: "jobdetail_df".into(),
        row,
        column: "sector".into(),
        value: Value::Str(to.into()),
    };
    let (splice, rerun) = (DeltaPath::Splice, DeltaPath::Rerun);
    let cases: Vec<(Delta, DeltaPath, usize, usize)> = vec![
        (
            Delta::Insert {
                source: "train_df".into(),
                values: s.letters.row(inside).unwrap(),
            },
            rerun,
            1,
            n + 1,
        ),
        (
            Delta::Delete {
                source: "train_df".into(),
                row: inside,
            },
            splice,
            0,
            n - 1,
        ),
        (
            Delta::Delete {
                source: "train_df".into(),
                row: outside,
            },
            splice,
            0,
            n,
        ),
        (
            Delta::Delete {
                source: "social_df".into(),
                row: social_row,
            },
            rerun,
            1,
            n,
        ),
        (sector(job_in, "tech"), rerun, 0, n - letters_of(job_in)),
        (
            sector(job_out, "healthcare"),
            rerun,
            letters_of(job_out),
            n + letters_of(job_out),
        ),
        (
            Delta::Update {
                source: "train_df".into(),
                row: inside,
                column: "job_id".into(),
                value: Value::Int(other_job as i64),
            },
            rerun,
            1,
            n,
        ),
    ];
    for threads in [1, 2, 4, 7] {
        for (delta, path, fresh, rows) in &cases {
            let mut twin = Twin::new(&s, 3, threads);
            let report = twin.fix(delta);
            assert_eq!(report.path, *path, "{delta:?}");
            assert_eq!(report.affected_rows.len(), *fresh, "{delta:?}");
            assert_eq!(twin.debug.dataset().len(), *rows, "{delta:?}");
            assert!(!report.reencoded_all, "{delta:?}");
            // A label fix after the remap still patches in place.
            let row = letter_of(
                twin.debug.table(),
                twin.pipeline.input("train_df").unwrap(),
                0,
            );
            let label = Delta::Update {
                source: "train_df".into(),
                row,
                column: "sentiment".into(),
                value: Value::Str("negative".into()),
            };
            assert_eq!(twin.fix(&label).path, DeltaPath::CellPatch);
        }
    }
}

/// A small pipeline output shrinks below k and grows back past it: the
/// evaluator follows the clamped k both ways, and every step matches a
/// fresh run.
#[test]
fn a_fix_sequence_below_k_and_back_matches_a_fresh_run() {
    let s = HiringScenario::generate(24, 31);
    for threads in [1, 2, 4, 7] {
        let mut twin = Twin::new(&s, 5, threads);
        let n = twin.debug.dataset().len();
        assert!(n > 5, "{n} output rows");
        let mut removed = Vec::new();
        while twin.debug.dataset().len() > 2 {
            let letters = twin.pipeline.input("train_df").unwrap();
            let row = letter_of(twin.debug.table(), letters, 0);
            removed.push(letters.row(row).unwrap());
            twin.fix(&Delta::Delete {
                source: "train_df".into(),
                row,
            });
        }
        for values in removed {
            let report = twin.fix(&Delta::Insert {
                source: "train_df".into(),
                values,
            });
            assert_eq!(report.affected_rows.len(), 1);
        }
        assert_eq!(twin.debug.dataset().len(), n);
    }
}

/// A delete that empties the output keeps the error-and-poison contract:
/// the fix fails, and every later fix is refused.
#[test]
fn a_delete_that_empties_the_output_fails_and_poisons() {
    let s = HiringScenario::generate(16, 37);
    for threads in [1, 2, 4, 7] {
        let mut twin = Twin::new(&s, 3, threads);
        while twin.debug.dataset().len() > 1 {
            let row = letter_of(
                twin.debug.table(),
                twin.pipeline.input("train_df").unwrap(),
                0,
            );
            twin.fix(&Delta::Delete {
                source: "train_df".into(),
                row,
            });
        }
        let row = letter_of(
            twin.debug.table(),
            twin.pipeline.input("train_df").unwrap(),
            0,
        );
        let last = Delta::Delete {
            source: "train_df".into(),
            row,
        };
        let before = twin.debug.stats();
        assert!(matches!(
            twin.debug.apply_fix(&last),
            Err(CleaningError::InvalidArgument(_))
        ));
        assert_eq!(twin.debug.stats(), before);
        assert!(matches!(
            twin.debug.apply_fix(&Delta::Delete {
                source: "train_df".into(),
                row: 0,
            }),
            Err(CleaningError::Pipeline(_))
        ));
    }
}
