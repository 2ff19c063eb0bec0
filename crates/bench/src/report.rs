//! Plain-text table rendering and JSON persistence for experiment reports,
//! plus the append-only bench trajectory: every bench run appends a
//! `{git_commit, timestamp, results}` record to its `BENCH_*.json` file so
//! regressions show up as a last-vs-previous delta instead of silently
//! overwriting history.

use nde_data::json::{Json, ToJson};
use nde_data::pool::{PoolStats, WorkerPool};

/// A simple aligned text table builder for experiment output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Serialize an experiment report as pretty JSON (for archival in CI).
pub fn to_json<T: ToJson>(report: &T) -> String {
    report.to_json().to_string_pretty()
}

/// Format a float with 4 decimals (the convention across experiment tables).
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// Stdout of a successful `git` invocation; `None` when git is missing,
/// fails, or this is not a repository.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
}

/// The short hash of `HEAD`, or `"unknown"` outside a repository (bench
/// records must never fail just because git is unavailable). On its own
/// this names the last commit, not necessarily the code that ran: see
/// [`git_dirty`].
pub fn git_commit() -> String {
    git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether tracked files differ from `HEAD`, so a record measured
/// uncommitted changes on top of [`git_commit`]. The `BENCH_*.json`
/// trajectories the benches append to are ignored. `None` outside a
/// repository.
pub fn git_dirty() -> Option<bool> {
    let status = git(&["status", "--porcelain", "--untracked-files=no"])?;
    Some(status.lines().any(|line| {
        let path = line.get(3..).unwrap_or_default();
        let name = path.rsplit('/').next().unwrap_or_default();
        !(name.starts_with("BENCH_") && name.ends_with(".json"))
    }))
}

/// A record's commit for reports: its `git_commit`, marked when the
/// record was measured on a dirty tree.
fn commit_label(record: &Json) -> String {
    let commit = record
        .get("git_commit")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    match record.get("git_dirty").and_then(Json::as_bool) {
        Some(true) => format!("{commit}+dirty"),
        _ => commit.to_string(),
    }
}

/// The runner class this bench is executing on: `NDE_RUNNER_CLASS` when
/// set (CI exports it per runner pool), otherwise `{os}-{arch}`. Timings
/// are only comparable within one class, so the regression gate
/// ([`check_trajectory`]) never diffs records across classes.
pub fn runner_class() -> String {
    std::env::var("NDE_RUNNER_CLASS")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH))
}

/// Hardware threads visible to this process (1 when unknown). Recorded in
/// bench results so trajectory records are interpretable: a 4-thread
/// timing from a single-core runner is an overhead measurement, not a
/// scaling measurement.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Resident [`WorkerPool`] activity over a bench run, plus the hardware
/// context needed to interpret thread-scaling numbers. Serialized into
/// bench JSON so trajectory records show *how* the pool was exercised
/// (jobs dispatched, chunks claimed, park/wake churn), not just how long
/// the run took.
#[derive(Debug, Clone)]
pub struct PoolActivity {
    /// Jobs submitted to the shared pool during the run.
    pub jobs: u64,
    /// Adaptive chunks claimed from job cursors.
    pub chunks: u64,
    /// Times a worker parked waiting for work.
    pub parks: u64,
    /// Times a parked worker woke up.
    pub wakes: u64,
    /// Hardware threads on the machine that produced the record.
    pub hw_threads: u64,
}

nde_data::json_struct!(PoolActivity {
    jobs,
    chunks,
    parks,
    wakes,
    hw_threads
});

impl PoolActivity {
    /// Snapshot the shared pool's counters before a run (pair with
    /// [`PoolActivity::since`]).
    pub fn snapshot() -> PoolStats {
        WorkerPool::shared().stats()
    }

    /// The shared pool's activity since `before`, tagged with this
    /// machine's hardware thread count.
    pub fn since(before: PoolStats) -> PoolActivity {
        let now = WorkerPool::shared().stats();
        PoolActivity {
            jobs: now.jobs.saturating_sub(before.jobs),
            chunks: now.chunks.saturating_sub(before.chunks),
            parks: now.parks.saturating_sub(before.parks),
            wakes: now.wakes.saturating_sub(before.wakes),
            hw_threads: hardware_threads() as u64,
        }
    }
}

/// The thread-scaling gate for the engine smoke benches (E13 pipeline
/// exec, E14 Zorro fit): with `hw_threads >= 2` the multi-thread timing
/// must **strictly beat** the single-thread timing — a resident pool that
/// loses on real cores is a regression, full stop. On a single-core
/// runner a parallel win is physically impossible, so the gate degrades
/// to a bounded-overhead check: `multi_ms <= single_ms * (1 +
/// single_core_tolerance_pct/100)` (the pool may not *cost* much either).
///
/// Returns a greppable `scaling gate OK (...)` summary, or an `Err`
/// report the bench binaries print before exiting non-zero.
pub fn check_scaling_win(
    label: &str,
    single_ms: f64,
    multi_ms: f64,
    hw_threads: usize,
    single_core_tolerance_pct: f64,
) -> Result<String, String> {
    if hw_threads >= 2 {
        if multi_ms < single_ms {
            Ok(format!(
                "scaling gate OK ({label}): multi-thread {multi_ms:.3} ms beats \
                 single-thread {single_ms:.3} ms on {hw_threads} hardware threads"
            ))
        } else {
            Err(format!(
                "scaling gate FAILED ({label}): multi-thread {multi_ms:.3} ms does not beat \
                 single-thread {single_ms:.3} ms on {hw_threads} hardware threads"
            ))
        }
    } else {
        let bound = single_ms * (1.0 + single_core_tolerance_pct / 100.0);
        if multi_ms <= bound {
            Ok(format!(
                "scaling gate OK ({label}): single-core runner, multi-thread {multi_ms:.3} ms \
                 within +{single_core_tolerance_pct:.0}% of single-thread {single_ms:.3} ms"
            ))
        } else {
            Err(format!(
                "scaling gate FAILED ({label}): single-core runner, multi-thread {multi_ms:.3} ms \
                 exceeds single-thread {single_ms:.3} ms by more than \
                 {single_core_tolerance_pct:.0}% (bound {bound:.3} ms)"
            ))
        }
    }
}

/// The storage-backend gate for the E13 smoke bench: the typed columnar
/// backend must **strictly beat** the Value-per-cell reference backend on
/// exec ms/output-row for the same (bit-identical) workload. Unlike
/// [`check_scaling_win`] this holds on any core count — the plane kernels
/// and dictionary fast paths win sequentially, not just in parallel.
pub fn check_backend_win(
    label: &str,
    reference_ms: f64,
    columnar_ms: f64,
) -> Result<String, String> {
    if columnar_ms < reference_ms {
        Ok(format!(
            "backend gate OK ({label}): columnar {columnar_ms:.5} ms/row beats reference \
             {reference_ms:.5} ms/row ({:.2}x)",
            reference_ms / columnar_ms.max(1e-12)
        ))
    } else {
        Err(format!(
            "backend gate FAILED ({label}): columnar {columnar_ms:.5} ms/row does not beat \
             reference {reference_ms:.5} ms/row"
        ))
    }
}

fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Is this JSON object already a trajectory record?
fn is_record(v: &Json) -> bool {
    v.get("git_commit").is_some() && v.get("timestamp").is_some() && v.get("results").is_some()
}

/// Append one `{git_commit, git_dirty, timestamp, runner, results}` record
/// to the append-only trajectory file at `path` and return the full record
/// list (oldest first). A pre-trajectory file holding a bare results object
/// is wrapped as the first record (commit/timestamp unknown) instead of
/// being thrown away; unparseable files are replaced.
pub fn append_trajectory<T: ToJson>(path: &str, results: &T) -> std::io::Result<Vec<Json>> {
    let mut records: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Arr(items)) => items.into_iter().filter(is_record).collect(),
            Ok(legacy @ Json::Obj(_)) if !is_record(&legacy) => vec![Json::Obj(vec![
                ("git_commit".into(), Json::Str("unknown".into())),
                ("timestamp".into(), Json::UInt(0)),
                ("results".into(), legacy),
            ])],
            Ok(record @ Json::Obj(_)) => vec![record],
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    let mut record = vec![("git_commit".into(), Json::Str(git_commit()))];
    if let Some(dirty) = git_dirty() {
        record.push(("git_dirty".into(), Json::Bool(dirty)));
    }
    record.extend([
        ("timestamp".into(), Json::UInt(unix_timestamp())),
        ("runner".into(), Json::Str(runner_class())),
        ("results".into(), results.to_json()),
    ]);
    records.push(Json::Obj(record));
    std::fs::write(path, Json::Arr(records.clone()).to_string_pretty())?;
    Ok(records)
}

/// Flatten every numeric leaf of a JSON tree into `(dotted.path, value)`
/// pairs. Array elements are keyed by position (`xs[0]`).
fn numeric_leaves(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::UInt(_) | Json::Float(_) => {
            out.push((prefix.to_string(), v.as_f64().unwrap_or(0.0)));
        }
        Json::Obj(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(&path, child, out);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                numeric_leaves(&format!("{prefix}[{i}]"), child, out);
            }
        }
        _ => {}
    }
}

/// Render the last-vs-previous delta of a trajectory (one line per numeric
/// leaf present in both records). `None` with fewer than two records —
/// nothing to compare against yet.
pub fn trajectory_delta(records: &[Json]) -> Option<String> {
    let [.., prev, last] = records else {
        return None;
    };
    let mut prev_leaves = Vec::new();
    let mut last_leaves = Vec::new();
    numeric_leaves("", prev.get("results")?, &mut prev_leaves);
    numeric_leaves("", last.get("results")?, &mut last_leaves);
    let prev_map: std::collections::BTreeMap<&str, f64> =
        prev_leaves.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut out = format!(
        "bench delta {} -> {}:\n",
        commit_label(prev),
        commit_label(last)
    );
    let mut any = false;
    for (key, cur) in &last_leaves {
        let Some(&old) = prev_map.get(key.as_str()) else {
            continue;
        };
        any = true;
        let pct = if old.abs() > 1e-12 {
            format!(" ({:+.1}%)", (cur - old) / old * 100.0)
        } else {
            String::new()
        };
        out.push_str(&format!("  {key}: {old} -> {cur}{pct}\n"));
    }
    any.then_some(out)
}

/// The CI bench tolerance gate: compare the newest trajectory record
/// against the most recent **older record from the same runner class** and
/// flag every tracked metric that regressed by more than
/// `max_regression_pct` percent.
///
/// A metric is tracked when its dotted leaf path ends with one of
/// `tracked_suffixes` (e.g. `"ms_per_row"` matches both
/// `seq_tree_ms_per_row` and `par_arena_ms_per_row`); tracked metrics are
/// assumed lower-is-better. Returns:
///
/// * `Ok(None)` — nothing to compare: fewer than two records, or no older
///   record from the same runner class (cross-runner timings are not
///   comparable, and pre-gate records carry no runner tag);
/// * `Ok(Some(summary))` — every tracked metric is within tolerance;
/// * `Err(report)` — at least one metric regressed; the report lists each
///   violation. Bench binaries exit non-zero on this, which is what fails
///   the CI bench-smoke job.
pub fn check_trajectory(
    records: &[Json],
    tracked_suffixes: &[&str],
    max_regression_pct: f64,
) -> Result<Option<String>, String> {
    let Some((last, older)) = records.split_last() else {
        return Ok(None);
    };
    let runner_of = |r: &Json| -> String {
        r.get("runner")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    // Option-level comparison: a record predating the runner tag (None)
    // only ever matches another untagged record.
    let Some(baseline) = older.iter().rev().find(|r| {
        r.get("runner").and_then(Json::as_str) == last.get("runner").and_then(Json::as_str)
    }) else {
        return Ok(None);
    };
    let (Some(base_results), Some(last_results)) = (baseline.get("results"), last.get("results"))
    else {
        return Ok(None);
    };
    let mut base_leaves = Vec::new();
    let mut last_leaves = Vec::new();
    numeric_leaves("", base_results, &mut base_leaves);
    numeric_leaves("", last_results, &mut last_leaves);
    let base_map: std::collections::BTreeMap<&str, f64> =
        base_leaves.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    let mut compared = 0usize;
    let mut violations = Vec::new();
    for (key, cur) in &last_leaves {
        if !tracked_suffixes.iter().any(|s| key.ends_with(s)) {
            continue;
        }
        let Some(&old) = base_map.get(key.as_str()) else {
            continue;
        };
        if old <= 0.0 {
            continue; // can't express a percentage budget over a zero base
        }
        compared += 1;
        let pct = (cur - old) / old * 100.0;
        if pct > max_regression_pct {
            violations.push(format!(
                "  {key}: {old:.5} -> {cur:.5} ({pct:+.1}%) exceeds +{max_regression_pct:.0}%"
            ));
        }
    }
    if !violations.is_empty() {
        return Err(format!(
            "bench regression gate FAILED vs {} on {}:\n{}",
            commit_label(baseline),
            runner_of(last),
            violations.join("\n")
        ));
    }
    Ok(Some(format!(
        "bench gate: {} tracked metric(s) within +{:.0}% of {} on {}",
        compared,
        max_regression_pct,
        commit_label(baseline),
        runner_of(last)
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(&["method", "acc"]);
        t.row(vec!["knn-shapley".into(), f(0.79)]);
        t.row(vec!["random".into(), f(0.7612345)]);
        let s = t.render();
        assert!(s.contains("method"));
        assert!(s.contains("0.7900"));
        assert!(s.contains("0.7612"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows align to the same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn json_serializes() {
        struct R {
            x: f64,
        }
        nde_data::json_struct!(R { x });
        let s = to_json(&R { x: 1.5 });
        assert!(s.contains("1.5"));
    }

    struct Point {
        ms: f64,
        rows: u64,
    }
    nde_data::json_struct!(Point { ms, rows });

    #[test]
    fn trajectory_appends_records_and_reports_deltas() {
        let dir = std::env::temp_dir().join(format!("nde_traj_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let first = append_trajectory(path, &Point { ms: 10.0, rows: 5 }).unwrap();
        assert_eq!(first.len(), 1);
        // One record: nothing to diff yet.
        assert!(trajectory_delta(&first).is_none());

        let second = append_trajectory(path, &Point { ms: 5.0, rows: 5 }).unwrap();
        assert_eq!(second.len(), 2);
        let delta = trajectory_delta(&second).unwrap();
        assert!(delta.contains("ms: 10 -> 5"), "{delta}");
        assert!(delta.contains("-50.0%"), "{delta}");
        assert!(delta.contains("rows: 5 -> 5"), "{delta}");

        // The on-disk file is a well-formed array of records.
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(on_disk.as_arr().unwrap().len(), 2);
        for r in on_disk.as_arr().unwrap() {
            assert!(r.get("git_commit").is_some());
            assert!(r.get("timestamp").is_some());
            assert!(r.get("results").and_then(|v| v.get("ms")).is_some());
        }
        let _ = std::fs::remove_file(path);

        // Array elements are keyed by their index.
        let mut leaves = Vec::new();
        numeric_leaves("xs", &Json::Arr(vec![Json::UInt(3)]), &mut leaves);
        assert_eq!(leaves, [("xs[0]".to_string(), 3.0)]);
    }

    fn record(commit: &str, runner: Option<&str>, ms_per_row: f64) -> Json {
        let mut fields = vec![
            ("git_commit".to_string(), Json::Str(commit.into())),
            ("timestamp".to_string(), Json::UInt(1)),
        ];
        if let Some(r) = runner {
            fields.push(("runner".to_string(), Json::Str(r.into())));
        }
        fields.push((
            "results".to_string(),
            Json::Obj(vec![
                ("soa_ms_per_row".to_string(), Json::Float(ms_per_row)),
                ("rows".to_string(), Json::UInt(100)),
            ]),
        ));
        Json::Obj(fields)
    }

    #[test]
    fn check_trajectory_gates_regressions_per_runner() {
        let suffixes = &["ms_per_row"];
        // Fewer than two records: nothing to compare.
        assert_eq!(check_trajectory(&[], suffixes, 40.0), Ok(None));
        assert_eq!(
            check_trajectory(&[record("a", Some("ci"), 1.0)], suffixes, 40.0),
            Ok(None)
        );
        // Within tolerance (+20% < +40%): passes and reports the baseline.
        let ok = check_trajectory(
            &[record("a", Some("ci"), 1.0), record("b", Some("ci"), 1.2)],
            suffixes,
            40.0,
        )
        .unwrap()
        .unwrap();
        assert!(ok.contains("1 tracked metric"), "{ok}");
        assert!(ok.contains("of a on ci"), "{ok}");
        // Beyond tolerance: fails with the offending metric named.
        let err = check_trajectory(
            &[record("a", Some("ci"), 1.0), record("b", Some("ci"), 1.5)],
            suffixes,
            40.0,
        )
        .unwrap_err();
        assert!(err.contains("soa_ms_per_row"), "{err}");
        assert!(err.contains("+50.0%"), "{err}");
        // Untracked leaves (rows) are ignored even when they jump.
        assert!(check_trajectory(
            &[record("a", Some("ci"), 1.0), record("b", Some("ci"), 1.0)],
            &["nothing_matches"],
            0.0,
        )
        .unwrap()
        .unwrap()
        .contains("0 tracked"));
        // A different runner class is never used as baseline; the most
        // recent *matching* one is.
        let mixed = [
            record("a", Some("ci"), 1.0),
            record("b", Some("laptop"), 0.1),
            record("c", Some("ci"), 1.3),
        ];
        let ok = check_trajectory(&mixed, suffixes, 40.0).unwrap().unwrap();
        assert!(ok.contains("of a on ci"), "{ok}");
        // Untagged history never matches a tagged record (and vice versa).
        assert_eq!(
            check_trajectory(
                &[record("a", None, 1.0), record("b", Some("ci"), 99.0)],
                suffixes,
                40.0
            ),
            Ok(None)
        );
        // Faster is always fine.
        assert!(check_trajectory(
            &[record("a", Some("ci"), 1.0), record("b", Some("ci"), 0.2)],
            suffixes,
            0.0,
        )
        .is_ok());
    }

    #[test]
    fn records_name_their_commit_and_dirty_state() {
        let mut r = record("abc1234", Some("ci"), 1.0);
        assert_eq!(commit_label(&r), "abc1234");
        if let Json::Obj(fields) = &mut r {
            fields.push(("git_dirty".to_string(), Json::Bool(true)));
        }
        assert_eq!(commit_label(&r), "abc1234+dirty");
        let err = check_trajectory(
            &[r, record("def5678", Some("ci"), 9.0)],
            &["ms_per_row"],
            40.0,
        )
        .unwrap_err();
        assert!(err.contains("vs abc1234+dirty"), "{err}");

        let dir = std::env::temp_dir().join(format!("nde_traj_dirty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_dirty.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let records = append_trajectory(path, &Point { ms: 1.0, rows: 1 }).unwrap();
        assert_eq!(
            records[0].get("git_dirty").and_then(Json::as_bool),
            git_dirty()
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scaling_gate_is_strict_on_multicore_and_bounded_on_single_core() {
        // Multi-core: a strict win passes, a tie or loss fails, tolerance
        // is ignored.
        let ok = check_scaling_win("exec", 10.0, 8.0, 4, 0.0).unwrap();
        assert!(ok.contains("scaling gate OK"), "{ok}");
        assert!(ok.contains("4 hardware threads"), "{ok}");
        let err = check_scaling_win("exec", 10.0, 10.0, 4, 100.0).unwrap_err();
        assert!(err.contains("scaling gate FAILED"), "{err}");
        assert!(check_scaling_win("exec", 10.0, 12.0, 2, 100.0).is_err());

        // Single-core: winning is not required, but overhead is bounded.
        let ok = check_scaling_win("fit", 10.0, 11.0, 1, 25.0).unwrap();
        assert!(ok.contains("single-core"), "{ok}");
        assert!(check_scaling_win("fit", 10.0, 12.49, 1, 25.0).is_ok());
        let err = check_scaling_win("fit", 10.0, 13.0, 1, 25.0).unwrap_err();
        assert!(err.contains("scaling gate FAILED"), "{err}");
    }

    #[test]
    fn pool_activity_counts_shared_pool_jobs() {
        let before = PoolActivity::snapshot();
        // Drive a map through the shared pool.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let out = WorkerPool::shared()
            .map_indexed::<u64, (), _>(4, 0..64, &stop, Ok)
            .unwrap();
        assert_eq!(out.len(), 64);
        let activity = PoolActivity::since(before);
        if WorkerPool::shared().workers() > 0 {
            assert!(activity.jobs >= 1, "{activity:?}");
            assert!(activity.chunks >= 1, "{activity:?}");
        }
        assert_eq!(activity.hw_threads, hardware_threads() as u64);
        // Serializes with every counter as a numeric leaf.
        let json = activity.to_json();
        for key in ["jobs", "chunks", "parks", "wakes", "hw_threads"] {
            assert!(json.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
    }

    #[test]
    fn appended_records_carry_the_runner_class() {
        let dir = std::env::temp_dir().join(format!("nde_traj_runner_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_runner.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let records = append_trajectory(path, &Point { ms: 1.0, rows: 1 }).unwrap();
        assert_eq!(
            records[0].get("runner").and_then(Json::as_str),
            Some(runner_class().as_str())
        );
        assert!(!runner_class().is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trajectory_wraps_legacy_single_object_files() {
        let dir = std::env::temp_dir().join(format!("nde_traj_legacy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_legacy.json");
        let path = path.to_str().unwrap();
        // A pre-trajectory bench file: a bare results object.
        std::fs::write(path, "{\"ms\": 20.0, \"rows\": 5}").unwrap();

        let records = append_trajectory(path, &Point { ms: 10.0, rows: 5 }).unwrap();
        assert_eq!(records.len(), 2, "legacy object becomes record 0");
        assert_eq!(
            records[0].get("git_commit").and_then(Json::as_str),
            Some("unknown")
        );
        let delta = trajectory_delta(&records).unwrap();
        assert!(delta.contains("ms: 20 -> 10"), "{delta}");
        let _ = std::fs::remove_file(path);
    }
}
