//! E16 — incremental maintenance: what delta propagation buys over rerun.
//!
//! * **Per-fix propagation** — single-tuple fixes applied to an executed
//!   hiring pipeline through a [`PipelineSession`], one series per
//!   propagation path (cell patch, rerun), timed against
//!   full provenance-tracked re-execution of the same mutated sources.
//!   Every maintained table *and* lineage is asserted bit-identical to the
//!   fresh run before anything is timed — the speedup buys latency, never a
//!   different answer.
//! * **Cleaning-loop maintenance** — the same prioritized-cleaning run
//!   under `MaintenanceMode::Rerun` (refit + re-evaluate per round) vs
//!   `MaintenanceMode::Incremental` (label patches into a cached
//!   evaluator), with the score traces asserted bit-identical.
//!
//! Expected shape: cell patches beat re-execution by an order of magnitude
//! (they touch only affected rows); the rerun path tracks full
//! re-execution (it *is* one, plus bookkeeping); incremental cleaning
//! beats rerun cleaning because per-round evaluation stops scaling with
//! the training-set size.

use crate::experiments::importance_compare::workload;
use nde::cleaning::{prioritized_cleaning, LabelOracle, MaintenanceMode, Strategy};
use nde::ml::models::knn::KnnClassifier;
use nde::pipeline::exec::Executor;
use nde::pipeline::{Delta, PipelineSession, Plan};
use nde::NdeError;
use nde_data::generate::hiring::HiringScenario;
use nde_data::{Table, Value};
use std::time::Instant;

/// Timing for one propagation path's fix series.
#[derive(Debug, Clone)]
pub struct FixPathPoint {
    /// Propagation path ("cell-patch", "rerun").
    pub path: String,
    /// Fixes applied in the series.
    pub fixes: usize,
    /// Best-of-`reps` µs per fix through `PipelineSession::apply`.
    pub incremental_us: f64,
    /// Best-of-`reps` µs per fix via full provenance-tracked re-execution.
    pub rerun_us: f64,
    /// `rerun_us / incremental_us`.
    pub speedup: f64,
}

nde_data::json_struct!(FixPathPoint {
    path,
    fixes,
    incremental_us,
    rerun_us,
    speedup
});

/// Timing for the cleaning loop under both maintenance modes.
#[derive(Debug, Clone)]
pub struct CleaningPoint {
    /// Training rows (validation set is the same size).
    pub rows: usize,
    /// Cleaning rounds.
    pub rounds: usize,
    /// Best-of-`reps` ms under `MaintenanceMode::Rerun`.
    pub rerun_ms: f64,
    /// Best-of-`reps` ms under `MaintenanceMode::Incremental`.
    pub incremental_ms: f64,
    /// `rerun_ms / incremental_ms`.
    pub speedup: f64,
}

nde_data::json_struct!(CleaningPoint {
    rows,
    rounds,
    rerun_ms,
    incremental_ms,
    speedup
});

/// Report for E16.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Rows per hiring source table.
    pub rows: usize,
    /// Repetitions per cell (best-of).
    pub reps: usize,
    /// One point per propagation path.
    pub fix_paths: Vec<FixPathPoint>,
    /// Cleaning-loop comparison.
    pub cleaning: CleaningPoint,
}

nde_data::json_struct!(IncrementalReport {
    rows,
    reps,
    fix_paths,
    cleaning
});

fn inputs(s: &HiringScenario) -> Vec<(&str, &Table)> {
    vec![
        ("train_df", &s.letters),
        ("jobdetail_df", &s.job_details),
        ("social_df", &s.social),
    ]
}

/// A fix series that stays on one propagation path for its whole length.
fn series(path: &str, fixes: usize, s: &HiringScenario) -> Vec<Delta> {
    // For the rerun path the engine must not be able to prove the update
    // harmless: only job rows some letter actually joins to, with the
    // sector flipped across the filter predicate, force a re-run (an
    // unreferenced row's taint dies at the join and is patched in place).
    let jobs = s.job_details.n_rows();
    let referenced: Vec<usize> = (0..jobs)
        .filter(|&r| {
            let id = s.job_details.get(r, "job_id").unwrap();
            (0..s.letters.n_rows()).any(|l| s.letters.get(l, "job_id").unwrap() == id)
        })
        .collect();
    assert!(!referenced.is_empty(), "no job row is referenced");
    let mut sector: Vec<String> = (0..jobs)
        .map(|r| match s.job_details.get(r, "sector").unwrap() {
            Value::Str(v) => v,
            other => unreachable!("sector is a string column, got {other:?}"),
        })
        .collect();
    (0..fixes)
        .map(|i| match path {
            // Non-routing numeric cell: patched in place.
            "cell-patch" => Delta::Update {
                source: "train_df".into(),
                row: i,
                column: "years_experience".into(),
                value: Value::Float(i as f64 + 0.5),
            },
            // The filter column routes rows, so propagation falls back to a
            // full re-run — the honest baseline for the cell patch.
            "rerun" => {
                let row = referenced[i % referenced.len()];
                let next = if sector[row] == "healthcare" {
                    "tech".to_string()
                } else {
                    "healthcare".to_string()
                };
                sector[row] = next.clone();
                Delta::Update {
                    source: "jobdetail_df".into(),
                    row,
                    column: "sector".into(),
                    value: Value::Str(next),
                }
            }
            other => unreachable!("unknown path {other}"),
        })
        .collect()
}

/// Time one propagation path: verify bit-identity stepwise (untimed), then
/// race `PipelineSession::apply` against full re-execution.
fn time_path(
    path: &str,
    s: &HiringScenario,
    fixes: usize,
    reps: usize,
) -> Result<FixPathPoint, NdeError> {
    let (plan, root) = Plan::hiring_pipeline();
    let deltas = series(path, fixes, s);
    let tracked = Executor::new().with_provenance(true);

    // --- untimed differential pass: capture per-step source states and
    // assert the maintained table and lineage match a fresh execution ---
    let mut session = PipelineSession::build(&Executor::new(), &plan, root, &inputs(s))?;
    let mut states: Vec<Vec<(String, Table)>> = Vec::with_capacity(fixes);
    for (step, delta) in deltas.iter().enumerate() {
        session.apply(delta)?;
        let state: Vec<(String, Table)> = session
            .source_names()
            .iter()
            .map(|n| (n.clone(), session.input(n).unwrap().clone()))
            .collect();
        let refs: Vec<(&str, &Table)> = state.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let fresh = tracked.run(&plan, root, &refs)?;
        assert_eq!(session.table(), &fresh.table, "{path} step {step}: table");
        assert_eq!(
            session.lineage(),
            fresh.provenance.expect("provenance tracked"),
            "{path} step {step}: lineage"
        );
        states.push(state);
    }
    let stats = session.stats();
    match path {
        "cell-patch" => assert_eq!(stats.cell_patches, fixes, "{stats:?}"),
        "rerun" => assert_eq!(stats.reruns, fixes, "{stats:?}"),
        _ => unreachable!(),
    }

    // --- timed: incremental apply (session build excluded) ---
    let mut incremental = f64::INFINITY;
    for _ in 0..reps {
        let mut session = PipelineSession::build(&Executor::new(), &plan, root, &inputs(s))?;
        let t0 = Instant::now();
        for delta in &deltas {
            session.apply(delta)?;
        }
        incremental = incremental.min(t0.elapsed().as_secs_f64());
    }

    // --- timed: full provenance-tracked re-execution per fix ---
    let mut rerun = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for state in &states {
            let refs: Vec<(&str, &Table)> = state.iter().map(|(n, t)| (n.as_str(), t)).collect();
            tracked.run(&plan, root, &refs)?;
        }
        rerun = rerun.min(t0.elapsed().as_secs_f64());
    }

    let incremental_us = incremental * 1e6 / fixes as f64;
    let rerun_us = rerun * 1e6 / fixes as f64;
    Ok(FixPathPoint {
        path: path.to_string(),
        fixes,
        incremental_us,
        rerun_us,
        speedup: rerun_us / incremental_us.max(1e-9),
    })
}

/// Time the cleaning loop under both maintenance modes and assert the
/// traces are bit-identical.
fn time_cleaning(
    rows: usize,
    rounds: usize,
    reps: usize,
    seed: u64,
) -> Result<CleaningPoint, NdeError> {
    let (train, valid, flipped) = workload(rows, rows, 0.12, seed);
    let mut truth = train.y.clone();
    for &f in &flipped {
        truth[f] = 1 - truth[f];
    }
    let oracle = LabelOracle::new(truth);
    let template = KnnClassifier::new(3);
    // Random order isolates maintenance cost: ranking is O(n), so the
    // per-round evaluation dominates and the mode difference is what's
    // being measured.
    let strategy = Strategy::Random { seed: seed ^ 0x51 };
    let batch = (rows / 20).max(1);

    let time_mode = |mode: MaintenanceMode| -> Result<(f64, _), NdeError> {
        let mut best = f64::INFINITY;
        let mut run = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = prioritized_cleaning(
                &template, &train, &oracle, &valid, &strategy, batch, rounds, false, mode,
            )?;
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            run = Some(r);
        }
        Ok((best, run.expect("reps >= 1")))
    };
    let (rerun_ms, by_rerun) = time_mode(MaintenanceMode::Rerun)?;
    let (incremental_ms, by_inc) = time_mode(MaintenanceMode::Incremental)?;

    assert_eq!(by_rerun.cleaned, by_inc.cleaned, "cleaned-count trace");
    for (i, (a, b)) in by_rerun.accuracy.iter().zip(&by_inc.accuracy).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "accuracy trace diverges at {i}");
    }

    Ok(CleaningPoint {
        rows,
        rounds,
        rerun_ms,
        incremental_ms,
        speedup: rerun_ms / incremental_ms.max(1e-9),
    })
}

/// Run E16: per-path fix propagation timings plus the cleaning-loop
/// comparison. All differential assertions run before any timing.
pub fn run(
    rows: usize,
    fixes: usize,
    rounds: usize,
    reps: usize,
    seed: u64,
) -> Result<IncrementalReport, NdeError> {
    assert!(rows >= 20 && fixes >= 2 && rounds >= 2 && reps >= 1);
    let s = HiringScenario::generate(rows, seed);
    let mut fix_paths = Vec::new();
    for path in ["cell-patch", "rerun"] {
        fix_paths.push(time_path(path, &s, fixes, reps)?);
    }
    let cleaning = time_cleaning(rows.max(100), rounds, reps, seed)?;
    Ok(IncrementalReport {
        rows,
        reps,
        fix_paths,
        cleaning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::json::ToJson;

    #[test]
    fn report_covers_all_paths_and_cleaning_matches() {
        let r = run(40, 3, 3, 1, 5).unwrap();
        let paths: Vec<&str> = r.fix_paths.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, ["cell-patch", "rerun"]);
        assert!(r.fix_paths.iter().all(|p| p.incremental_us > 0.0));
        assert!(r.cleaning.rerun_ms > 0.0 && r.cleaning.incremental_ms > 0.0);
        let json = r.to_json().to_string();
        assert!(json.contains("fix_paths") && json.contains("incremental_ms"));
    }
}
