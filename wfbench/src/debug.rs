//! `debug` — Fig. 3 at scale: three dirty source tables → provenance-tracked
//! pipeline run → Datascope source ranking → closed-loop oracle rounds of
//! source fixes through `IncrementalDebugSession::apply_fix`, with a batch
//! of what-if deletions answered every `WHATIF_EVERY` rounds.
//!
//! The round mix is fixed: of every five rounds, three are label-only
//! (cell patch), one contains a duplicate delete (splice) and one a
//! `sector` correction — the filter's routing column, so it takes the rerun
//! fallback. The traced run replays the same stream through the layers'
//! public functions (`PipelineSession::apply`, `FeaturePipeline::encode_rows`,
//! `Classifier::incremental_eval`, `IncrementalLabelEval`) so the time
//! `apply_fix` hides can be split by layer.

use crate::trace::{span, span_named};
use crate::{peak_rss_mb, Ctx, Ctxt, Outcome};
use nde::scenario::load_with_config;
use nde_cleaning::IncrementalDebugSession;
use nde_data::generate::hiring::{HiringConfig, LABEL_COLUMN, SECTORS};
use nde_data::inject::{duplicate_rows, flip_labels};
use nde_data::rng::{permutation, seeded, Rng};
use nde_data::{Table, Value};
use nde_importance::datascope::datascope_importance;
use nde_ml::batch::{DistanceTable, IncrementalLabelEval};
use nde_ml::dataset::Dataset;
use nde_ml::model::Classifier;
use nde_ml::models::knn::KnnClassifier;
use nde_pipeline::exec::Executor;
use nde_pipeline::feature::FeaturePipeline;
use nde_pipeline::whatif::{predict_deletions_batch, predict_deletions_batch_threaded};
use nde_pipeline::{Delta, DeltaPath, PipelineSession, TupleId};
use nde_robust::par::MemoCache;

const APPLICANTS: usize = 5000;
const JOBS: usize = 200;
const TEXT_DIMS: usize = 32;
const K: usize = 5;
/// Fraction of training labels flipped.
const FLIP_FRACTION: f64 = 0.1;
/// Fraction of training rows appended again as duplicates.
const DUP_FRACTION: f64 = 0.01;
/// Job rows whose `sector` is corrupted (half into, half out of the
/// filter's sector).
const SECTOR_ERRORS: usize = 10;
/// Share of jobs in the filter's sector, made exact for every seed (the
/// generator's rate) so the pipeline output has the same size everywhere.
const HEALTHCARE_SHARE: f64 = 0.4;
/// Rounds per process; a run pools the rounds of all its processes.
const ROUNDS: usize = 30;
const FIXES_PER_ROUND: usize = 8;
const WHATIF_EVERY: usize = 10;
const WHATIF_SCENARIOS: usize = 128;
const SOURCES: [&str; 3] = ["train_df", "jobdetail_df", "social_df"];

/// The three kinds of round, by position in each block of five.
fn round_kind(r: usize) -> DeltaPath {
    match r % 5 {
        3 => DeltaPath::Splice,
        4 => DeltaPath::Rerun,
        _ => DeltaPath::CellPatch,
    }
}

fn path_name(p: DeltaPath) -> &'static str {
    match p {
        DeltaPath::CellPatch => "cell_patch",
        DeltaPath::Splice => "splice",
        DeltaPath::Rerun => "rerun",
    }
}

/// Where accepted fixes go: the library's glue, or the traced replay of it.
trait FixSink {
    /// Apply one fix; returns the path it took and the accuracy after it.
    fn apply(&mut self, delta: &Delta) -> Result<(DeltaPath, f64), String>;
    fn session(&self) -> &PipelineSession;
    fn dataset(&self) -> &Dataset;
    fn rows_reencoded(&self) -> usize;
    fn evictions(&self) -> usize;
}

struct Library {
    inner: IncrementalDebugSession<KnnClassifier>,
    evictions: usize,
}

impl FixSink for Library {
    fn apply(&mut self, delta: &Delta) -> Result<(DeltaPath, f64), String> {
        let report = self.inner.apply_fix(delta).ctx("apply_fix")?;
        self.evictions += report.cache_evictions;
        Ok((report.path, report.accuracy))
    }
    fn session(&self) -> &PipelineSession {
        self.inner.session()
    }
    fn dataset(&self) -> &Dataset {
        self.inner.dataset()
    }
    fn rows_reencoded(&self) -> usize {
        self.inner.stats().2
    }
    fn evictions(&self) -> usize {
        self.evictions
    }
}

/// `IncrementalDebugSession::apply_fix` spelled out through the layers'
/// public functions, one span per layer call.
struct Replay {
    template: KnnClassifier,
    pipeline: FeaturePipeline,
    session: PipelineSession,
    valid: Dataset,
    dataset: Dataset,
    evaluator: Box<dyn IncrementalLabelEval>,
    memo: MemoCache,
    rows_reencoded: usize,
    evictions: usize,
}

impl Replay {
    fn patch_rows(&mut self, rows: &[usize]) -> Result<(), String> {
        if rows.is_empty() {
            return Ok(());
        }
        self.rows_reencoded += rows.len();
        let (x, y) = span("pipeline.reencode", || {
            self.pipeline.encode_rows(self.session.table(), rows)
        })
        .ctx("encode_rows")?;
        span("ml.eval_patch", || -> Result<(), String> {
            let mut feature_changed = Vec::new();
            for (j, &r) in rows.iter().enumerate() {
                if self.dataset.y[r] != y[j] {
                    self.dataset.y[r] = y[j];
                    self.evaluator.set_label(r, y[j]).ctx("set_label")?;
                }
                let fresh = x.row(j);
                if fresh
                    .iter()
                    .zip(self.dataset.x.row(r))
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    self.dataset.x.row_mut(r).copy_from_slice(fresh);
                    feature_changed.push(r);
                }
            }
            if !feature_changed.is_empty() {
                self.evaluator
                    .update_features(&feature_changed, &self.dataset)
                    .ctx("update_features")?;
            }
            Ok(())
        })?;
        self.evictions += self.memo.invalidate_members(rows);
        Ok(())
    }

    fn rebuild(&mut self) -> Result<(), String> {
        self.evictions += self.memo.len();
        let rows: Vec<usize> = (0..self.session.table().n_rows()).collect();
        self.rows_reencoded += rows.len();
        let (x, y) = span("pipeline.reencode", || {
            self.pipeline.encode_rows(self.session.table(), &rows)
        })
        .ctx("encode_rows")?;
        let n_classes = self.pipeline.label_encoder().ctx("labels")?.n_classes();
        self.dataset = Dataset::new(x, y, n_classes).ctx("dataset")?;
        self.evaluator = span("ml.eval_rebuild", || {
            self.template.incremental_eval(&self.dataset, &self.valid)
        })
        .ok_or("KNN has an incremental evaluator")?;
        self.memo = MemoCache::new();
        Ok(())
    }
}

impl FixSink for Replay {
    fn apply(&mut self, delta: &Delta) -> Result<(DeltaPath, f64), String> {
        span("cleaning.apply_fix", || {
            let outcome = span_named(
                || self.session.apply(delta),
                |o| match o.as_ref().map(|o| o.path) {
                    Ok(DeltaPath::CellPatch) => "pipeline.delta.cell_patch",
                    Ok(DeltaPath::Splice) => "pipeline.delta.splice",
                    Ok(DeltaPath::Rerun) => "pipeline.delta.rerun",
                    Err(_) => "pipeline.delta.failed",
                },
            )
            .ctx("PipelineSession::apply")?;
            if outcome.path == DeltaPath::CellPatch {
                self.patch_rows(&outcome.affected_rows)?;
            } else {
                self.rebuild()?;
            }
            let acc = span("ml.eval_patch", || self.evaluator.accuracy());
            Ok((outcome.path, acc))
        })
    }
    fn session(&self) -> &PipelineSession {
        &self.session
    }
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }
    fn rows_reencoded(&self) -> usize {
        self.rows_reencoded
    }
    fn evictions(&self) -> usize {
        self.evictions
    }
}

/// The dirty sources plus what the oracle knows.
struct Sources {
    train: Table,
    jobs: Table,
    social: Table,
    valid: Table,
    clean_jobs: Table,
    /// True label of every original training row.
    truth: Vec<String>,
    flipped: Vec<usize>,
    duplicates: Vec<usize>,
    /// `(job row, true sector)` of every corrupted job.
    sector_errors: Vec<(usize, String)>,
}

fn make_sources(seed: u64) -> Result<Sources, String> {
    let cfg = HiringConfig {
        n_jobs: JOBS,
        ..HiringConfig::default()
    };
    let scenario = load_with_config(APPLICANTS, seed, &cfg);
    let mut train = scenario.train.clone();
    let truth = (0..train.n_rows())
        .map(|r| {
            train
                .get(r, LABEL_COLUMN)
                .ok()
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| format!("training row {r} has no label"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let flipped = flip_labels(&mut train, LABEL_COLUMN, FLIP_FRACTION, seed ^ 0xf1)
        .ctx("flip labels")?
        .affected;
    let duplicates = duplicate_rows(&mut train, DUP_FRACTION, seed ^ 0xd0)
        .ctx("duplicate rows")?
        .affected;
    // Exactly HEALTHCARE_SHARE of the jobs pass the pipeline's filter.
    let mut jobs = scenario.job_details.clone();
    let sector_of = |jobs: &Table, row: usize| {
        jobs.get(row, "sector")
            .ok()
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or_else(|| format!("job row {row} has no sector"))
    };
    let mut rng = seeded(seed ^ 0x5ec);
    let target = (jobs.n_rows() as f64 * HEALTHCARE_SHARE).round() as usize;
    let mut in_sector = (0..jobs.n_rows())
        .map(|r| sector_of(&jobs, r).map(|s| usize::from(s == SECTORS[0])))
        .sum::<Result<usize, String>>()?;
    for row in permutation(jobs.n_rows(), &mut rng) {
        let is_inside = sector_of(&jobs, row)? == SECTORS[0];
        let new = if in_sector > target && is_inside {
            in_sector -= 1;
            SECTORS[1 + rng.gen_range(0..SECTORS.len() - 1)]
        } else if in_sector < target && !is_inside {
            in_sector += 1;
            SECTORS[0]
        } else {
            continue;
        };
        jobs.set(row, "sector", Value::Str(new.into()))
            .ctx("rebalance sectors")?;
    }
    let clean_jobs = jobs.clone();
    // Half the corrupted jobs leave the filter's sector, half enter it, so
    // every correction re-routes its letters and the output size stays put.
    let order = permutation(jobs.n_rows(), &mut rng);
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for row in order {
        let sector = sector_of(&jobs, row)?;
        if sector == SECTORS[0] {
            inside.push((row, sector));
        } else {
            outside.push((row, sector));
        }
    }
    if inside.len() < SECTOR_ERRORS / 2 || outside.len() < SECTOR_ERRORS / 2 {
        return Err("too few jobs on one side of the sector filter".into());
    }
    let mut sector_errors = Vec::with_capacity(SECTOR_ERRORS);
    for (a, b) in inside.into_iter().zip(outside).take(SECTOR_ERRORS / 2) {
        sector_errors.push(a);
        sector_errors.push(b);
    }
    for (row, true_sector) in &sector_errors {
        let wrong = if true_sector == SECTORS[0] {
            SECTORS[1 + rng.gen_range(0..SECTORS.len() - 1)]
        } else {
            SECTORS[0]
        };
        jobs.set(*row, "sector", Value::Str(wrong.into()))
            .ctx("corrupt sector")?;
    }
    Ok(Sources {
        train,
        jobs,
        social: scenario.social,
        valid: scenario.valid,
        clean_jobs,
        truth,
        flipped,
        duplicates,
        sector_errors,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let traced = crate::trace::enabled();
    let mut out = Outcome::default();

    // ---- set-up ----
    let src = span("data.generate", || make_sources(ctx.seed))?;
    let inputs: Vec<(&str, &Table)> = vec![
        (SOURCES[0], &src.train),
        (SOURCES[1], &src.jobs),
        (SOURCES[2], &src.social),
    ];
    let valid_inputs: Vec<(&str, &Table)> = vec![
        (SOURCES[0], &src.valid),
        (SOURCES[1], &src.clean_jobs),
        (SOURCES[2], &src.social),
    ];
    let mut fp = FeaturePipeline::hiring(TEXT_DIMS);
    let (train_out, valid) = span("pipeline.exec", || -> Result<_, String> {
        let train_out = fp.fit_run(&inputs, true).ctx("provenance-tracked run")?;
        let valid_out = fp
            .transform_run(&valid_inputs, false)
            .ctx("validation run")?;
        Ok((train_out, valid_out.dataset))
    })?;
    let arena_nodes = train_out.lineage.as_ref().map_or(0, |l| l.arena.len());
    let template = KnnClassifier::new(K);
    let mut sink: Box<dyn FixSink> = if traced {
        // `IncrementalDebugSession::build` re-fits the pipeline, captures the
        // run for delta propagation and builds the evaluator.
        let mut pipeline = fp.clone();
        span("pipeline.exec", || pipeline.fit_run(&inputs, false)).ctx("session fit")?;
        let session = span("pipeline.session_build", || {
            PipelineSession::build(&Executor::new(), &pipeline.plan, pipeline.root, &inputs)
        })
        .ctx("PipelineSession::build")?;
        let dataset = train_out.dataset.clone();
        let evaluator = span("ml.eval_rebuild", || {
            template.incremental_eval(&dataset, &valid)
        })
        .ok_or("KNN has an incremental evaluator")?;
        Box::new(Replay {
            template: template.clone(),
            pipeline,
            session,
            valid: valid.clone(),
            dataset,
            evaluator,
            memo: MemoCache::new(),
            rows_reencoded: 0,
            evictions: 0,
        })
    } else {
        let inner =
            IncrementalDebugSession::build(template.clone(), fp.clone(), &inputs, valid.clone())
                .ctx("IncrementalDebugSession::build")?;
        Box::new(Library {
            inner,
            evictions: 0,
        })
    };
    let t_setup = ctx.elapsed_s();
    out.setup_s = t_setup;

    // ---- first answer: the Datascope source ranking ----
    let scores = span("importance.datascope", || {
        datascope_importance(&train_out, &valid, SOURCES[0], src.train.n_rows(), K)
    })
    .ctx("datascope")?;
    out.attempted += 1;
    out.first_answer_s = ctx.elapsed_s() - t_setup;
    out.answers
        .push(Ctx::digest(scores.values.iter().map(|v| v.to_bits())));
    if ctx.short {
        return Ok(out);
    }

    // ---- oracle rounds ----
    // The analyst works down the ranking: lowest-scored suspects first.
    let mut ranked: Vec<usize> = (0..scores.values.len()).collect();
    ranked.sort_by(|&a, &b| {
        scores.values[a]
            .total_cmp(&scores.values[b])
            .then(a.cmp(&b))
    });
    let rank_of = {
        let mut r = vec![0usize; ranked.len()];
        for (pos, &row) in ranked.iter().enumerate() {
            r[row] = pos;
        }
        r
    };
    let by_rank = |mut rows: Vec<usize>| {
        rows.sort_by_key(|&r| rank_of[r]);
        rows.into_iter()
    };
    let mut label_fixes = by_rank(src.flipped.clone());
    let mut dup_fixes = by_rank(src.duplicates.clone());
    let mut sector_fixes = src.sector_errors.iter();
    // Original training row ids in their current order (deletes shift rows).
    let mut alive: Vec<usize> = (0..src.train.n_rows()).collect();
    let position = |alive: &[usize], orig: usize| {
        alive
            .binary_search(&orig)
            .map_err(|_| format!("training row {orig} already deleted"))
    };
    let train_idx = sink
        .session()
        .source_names()
        .iter()
        .position(|s| s == SOURCES[0])
        .ok_or("train_df in lineage")? as u32;
    let mut whatif_scenarios = 0usize;
    let mut last_whatif = None;
    for r in 0..ROUNDS {
        let kind = round_kind(r);
        let labels = if kind == DeltaPath::CellPatch {
            FIXES_PER_ROUND
        } else {
            FIXES_PER_ROUND - 1
        };
        let mut deltas = Vec::with_capacity(FIXES_PER_ROUND);
        for _ in 0..labels {
            let orig = label_fixes.next().ok_or("ran out of label errors")?;
            deltas.push(Delta::Update {
                source: SOURCES[0].into(),
                row: position(&alive, orig)?,
                column: LABEL_COLUMN.into(),
                value: Value::Str(src.truth[orig].clone()),
            });
        }
        match kind {
            DeltaPath::Splice => {
                let orig = dup_fixes.next().ok_or("ran out of duplicates")?;
                let row = position(&alive, orig)?;
                alive.remove(row);
                deltas.push(Delta::Delete {
                    source: SOURCES[0].into(),
                    row,
                });
            }
            DeltaPath::Rerun => {
                let (row, sector) = sector_fixes.next().ok_or("ran out of sector errors")?;
                deltas.push(Delta::Update {
                    source: SOURCES[1].into(),
                    row: *row,
                    column: "sector".into(),
                    value: Value::Str(sector.clone()),
                });
            }
            DeltaPath::CellPatch => {}
        }

        let t = std::time::Instant::now();
        let (paths, acc) = span("cleaning.round", || -> Result<_, String> {
            let mut paths = Vec::with_capacity(deltas.len());
            let mut acc = f64::NAN;
            for d in &deltas {
                let (path, a) = sink.apply(d)?;
                paths.push(path);
                acc = a;
            }
            Ok((paths, acc))
        })?;
        out.rounds_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += deltas.len() as u64;
        // A round is named after the costliest path it took.
        let worst = if paths.contains(&DeltaPath::Rerun) {
            DeltaPath::Rerun
        } else if paths.contains(&DeltaPath::Splice) {
            DeltaPath::Splice
        } else {
            DeltaPath::CellPatch
        };
        out.round_paths.push(path_name(worst).into());
        out.answers.push(acc);

        if (r + 1) % WHATIF_EVERY == 0 {
            let scenarios: Vec<Vec<TupleId>> = ranked
                .iter()
                .filter_map(|&orig| alive.binary_search(&orig).ok())
                .take(WHATIF_SCENARIOS)
                .map(|pos| vec![TupleId::new(train_idx, pos as u32)])
                .collect();
            let (lineage, effects) = span("pipeline.whatif", || {
                let lineage = sink.session().lineage();
                let effects = predict_deletions_batch_threaded(&lineage, &scenarios, ctx.threads);
                (lineage, effects)
            });
            out.attempted += 1;
            whatif_scenarios += scenarios.len();
            last_whatif = Some((lineage, scenarios, effects));
        }
    }
    out.workflow_s = ctx.elapsed_s() - t_setup;
    out.peak_rss_mb = peak_rss_mb();

    // ---- counts (exact) ----
    let stats = *sink.session().stats();
    out.count("pipeline.arena_nodes", arena_nodes as f64);
    out.count("pipeline.delta_n.cell_patch", stats.cell_patches as f64);
    out.count("pipeline.delta_n.splice", stats.splices as f64);
    out.count("pipeline.delta_n.rerun", stats.reruns as f64);
    out.count("pipeline.rows_reencoded", sink.rows_reencoded() as f64);
    out.count("pipeline.whatif_scenarios", whatif_scenarios as f64);
    out.count("cleaning.cache_evictions", sink.evictions() as f64);
    if traced {
        span("ml.distance_table", || {
            DistanceTable::new(&train_out.dataset, &valid)
        });
    }

    if !ctx.gate {
        return Ok(out);
    }
    // ---- gate (untimed): fresh provenance-tracked re-execution ----
    let session = sink.session();
    let mutated: Vec<(&str, &Table)> = SOURCES
        .iter()
        .map(|&n| {
            session
                .input(n)
                .map(|t| (n, t))
                .ok_or(format!("source {n}"))
        })
        .collect::<Result<_, _>>()?;
    let fresh = Executor::new()
        .with_provenance(true)
        .run(&fp.plan, fp.root, &mutated)
        .ctx("fresh re-execution")?;
    out.check(fresh.table == *session.table(), || {
        "maintained table differs from a fresh re-execution".into()
    });
    let fresh_lineage = fresh.provenance.as_ref().ok_or("fresh lineage")?;
    let kept = session.lineage();
    out.check(
        fresh_lineage.rows == kept.rows && fresh_lineage.arena.len() == kept.arena.len(),
        || "maintained lineage differs from a fresh re-execution".into(),
    );
    let all: Vec<usize> = (0..fresh.table.n_rows()).collect();
    let (x, y) = fp.encode_rows(&fresh.table, &all).ctx("re-encode")?;
    let ds = sink.dataset();
    let same_x = x.rows() == ds.x.rows()
        && (0..x.rows()).all(|r| {
            x.row(r)
                .iter()
                .zip(ds.x.row(r))
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    out.check(same_x && y == ds.y, || {
        "maintained dataset differs from a fresh re-encode".into()
    });
    let fresh_ds = Dataset::new(x, y, ds.n_classes).ctx("fresh dataset")?;
    let mut model = template.clone();
    model.fit(&fresh_ds).ctx("refit")?;
    let acc = model.accuracy(&valid);
    let last = out.answers.last().copied().unwrap_or(f64::NAN);
    out.check(acc.to_bits() == last.to_bits(), || {
        format!("session accuracy {last} differs from a refit's {acc}")
    });
    if let Some((lineage, scenarios, effects)) = &last_whatif {
        let single = predict_deletions_batch(lineage, scenarios);
        out.check(
            single.iter().zip(effects).all(|(a, b)| {
                a.surviving_rows == b.surviving_rows && a.deleted_rows == b.deleted_rows
            }),
            || "what-if answers differ between 1 and N threads".into(),
        );
    }
    Ok(out)
}
