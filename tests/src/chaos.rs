//! Deterministic fault injection ("chaos") harness.
//!
//! The integration tests and the `fault_tolerance` example use these
//! helpers to prove that every workflow survives each fault class the
//! tutorial's long-running computations are exposed to:
//!
//! - **operator panics** — [`panicking_predicate`] / [`panicking_projection`]
//!   build pipeline expressions that panic on a chosen row, exercising the
//!   executor's `catch_unwind` isolation;
//! - **corrupt / NaN feature values** — [`corrupt_features`] poisons chosen
//!   dataset cells, [`corrupting_projection`] emits NaN mid-pipeline;
//! - **flaky dependencies** — [`FaultSchedule`] decides deterministically
//!   which call indices fail, and [`FlakyOracle`] fails a cleaning oracle
//!   on such a schedule so [`nde_robust::retry_with_backoff`] has something
//!   to ride out;
//! - **durability faults** — [`CheckpointKillSwitch`] crashes a supervised
//!   run at scheduled checkpoint saves, while [`truncate_record`],
//!   [`corrupt_record_checksum`], and [`stale_record_version`] damage
//!   on-disk [`nde_robust::RunStore`] records the way torn writes,
//!   bit-rot, and format drift would.
//!
//! Everything here is deterministic: a fault plan is a pure function of its
//! configuration (and, for sampled plans, a seed), so a failing chaos test
//! reproduces exactly.

use nde_cleaning::{CleaningError, CleaningOracle};
use nde_data::json::Json;
use nde_data::rng::{seeded, Rng};
use nde_data::{DataType, Value};
use nde_ml::dataset::Dataset;
use nde_pipeline::expr::Expr;
use nde_robust::{Result, RobustError};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic schedule of which calls to an injected-fault site fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    plan: Plan,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Plan {
    Never,
    Always,
    /// Fail exactly these 0-based call indices.
    At(BTreeSet<u64>),
    /// Fail the first `k` calls (then recover) — the classic
    /// "service warms up" shape that retries must ride out.
    FirstN(u64),
    /// Fail every `n`-th call (indices n-1, 2n-1, ...).
    EveryNth(u64),
}

impl FaultSchedule {
    /// Never fail (the no-op schedule).
    pub fn never() -> FaultSchedule {
        FaultSchedule { plan: Plan::Never }
    }

    /// Fail every call (a hard outage).
    pub fn always() -> FaultSchedule {
        FaultSchedule { plan: Plan::Always }
    }

    /// Fail exactly the given 0-based call indices.
    pub fn at(indices: &[u64]) -> FaultSchedule {
        FaultSchedule {
            plan: Plan::At(indices.iter().copied().collect()),
        }
    }

    /// Fail the first `k` calls, then succeed forever.
    pub fn first_n(k: u64) -> FaultSchedule {
        FaultSchedule {
            plan: Plan::FirstN(k),
        }
    }

    /// Fail every `n`-th call (`n ≥ 1`).
    pub fn every_nth(n: u64) -> FaultSchedule {
        FaultSchedule {
            plan: Plan::EveryNth(n.max(1)),
        }
    }

    /// Sample a schedule failing each of the first `horizon` calls
    /// independently with probability `rate` — deterministic in `seed`.
    pub fn sampled(rate: f64, horizon: u64, seed: u64) -> FaultSchedule {
        let mut rng = seeded(seed);
        let fails = (0..horizon)
            .filter(|_| rng.gen_bool(rate))
            .collect::<BTreeSet<u64>>();
        FaultSchedule {
            plan: Plan::At(fails),
        }
    }

    /// Should the `call`-th invocation (0-based) fail?
    pub fn should_fail(&self, call: u64) -> bool {
        match &self.plan {
            Plan::Never => false,
            Plan::Always => true,
            Plan::At(set) => set.contains(&call),
            Plan::FirstN(k) => call < *k,
            Plan::EveryNth(n) => (call + 1).is_multiple_of(*n),
        }
    }
}

/// A [`CleaningOracle`] that fails on a deterministic [`FaultSchedule`] —
/// the cleaning-side chaos hook.
///
/// Scheduled failures return [`CleaningError::OracleUnavailable`] *before*
/// touching any labels, modelling a dependency outage rather than a partial
/// write. Pair with [`nde_robust::retry_with_backoff`] (see
/// `prioritized_cleaning_robust`) to ride out transient outages.
#[derive(Debug, Clone)]
pub struct FlakyOracle<O> {
    inner: O,
    schedule: FaultSchedule,
    calls: Cell<u64>,
}

impl<O: CleaningOracle> FlakyOracle<O> {
    /// Wrap `inner`, failing the calls picked by `schedule`.
    pub fn new(inner: O, schedule: FaultSchedule) -> FlakyOracle<O> {
        FlakyOracle {
            inner,
            schedule,
            calls: Cell::new(0),
        }
    }

    /// Total repair calls observed so far (successful or failed).
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl<O: CleaningOracle> CleaningOracle for FlakyOracle<O> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn repair(&self, labels: &mut [usize], rows: &[usize]) -> nde_cleaning::Result<usize> {
        let call = self.calls.get();
        self.calls.set(call + 1);
        if self.schedule.should_fail(call) {
            return Err(CleaningError::OracleUnavailable { call });
        }
        self.inner.repair(labels, rows)
    }
}

/// The panic payload prefix used by injected operator panics, so tests can
/// assert the failure they observe is the one they injected.
pub const CHAOS_PANIC_PREFIX: &str = "chaos: injected operator panic";

/// A boolean pipeline predicate (for `Filter` nodes) that returns `true`
/// for every row except `panic_row`, where it panics.
pub fn panicking_predicate(panic_row: usize) -> Expr {
    Expr::udf(
        format!("chaos_panic_predicate_row_{panic_row}"),
        DataType::Bool,
        &[],
        move |_table, row| {
            if row == panic_row {
                panic!("{CHAOS_PANIC_PREFIX} at row {row}");
            }
            Ok(Value::Bool(true))
        },
    )
}

/// A float projection UDF that returns `1.0` for every row except
/// `panic_row`, where it panics.
pub fn panicking_projection(panic_row: usize) -> Expr {
    Expr::udf(
        format!("chaos_panic_projection_row_{panic_row}"),
        DataType::Float,
        &[],
        move |_table, row| {
            if row == panic_row {
                panic!("{CHAOS_PANIC_PREFIX} at row {row}");
            }
            Ok(Value::Float(1.0))
        },
    )
}

/// A float projection UDF that emits `NaN` on the chosen row and `1.0`
/// elsewhere — a corrupt tuple flowing through an otherwise healthy
/// pipeline.
pub fn corrupting_projection(nan_row: usize) -> Expr {
    Expr::udf(
        format!("chaos_nan_projection_row_{nan_row}"),
        DataType::Float,
        &[],
        move |_table, row| Ok(Value::Float(if row == nan_row { f64::NAN } else { 1.0 })),
    )
}

/// Poison `n_cells` distinct feature cells of `data` with NaN, chosen
/// deterministically from `seed`. Returns the poisoned `(row, col)` cells.
pub fn corrupt_features(data: &mut Dataset, n_cells: usize, seed: u64) -> Vec<(usize, usize)> {
    let rows = data.len();
    let cols = data.dim();
    if rows == 0 || cols == 0 || n_cells == 0 {
        return Vec::new();
    }
    let total = rows * cols;
    let cells = nde_data::rng::sample_indices(total, n_cells.min(total), &mut seeded(seed));
    let mut out: Vec<(usize, usize)> = cells.into_iter().map(|c| (c / cols, c % cols)).collect();
    out.sort_unstable();
    for &(r, c) in &out {
        data.x.set(r, c, f64::NAN);
    }
    out
}

/// Crashes a supervised run at scheduled checkpoint saves.
///
/// Call [`CheckpointKillSwitch::observe`] right after each durable
/// checkpoint write; the switch counts invocations across restarts and
/// panics (with [`CHAOS_PANIC_PREFIX`]) whenever the [`FaultSchedule`]
/// fires for the current count — "the process died immediately after
/// persisting checkpoint k".
#[derive(Debug)]
pub struct CheckpointKillSwitch {
    schedule: FaultSchedule,
    saves: AtomicU64,
}

impl CheckpointKillSwitch {
    /// A switch that fires per the schedule (indices are cumulative
    /// checkpoint saves, 0-based, counted across restarts).
    pub fn new(schedule: FaultSchedule) -> CheckpointKillSwitch {
        CheckpointKillSwitch {
            schedule,
            saves: AtomicU64::new(0),
        }
    }

    /// Checkpoint saves observed so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Record one checkpoint save; panics if the schedule kills this one.
    pub fn observe(&self) {
        let k = self.saves.fetch_add(1, Ordering::Relaxed);
        if self.schedule.should_fail(k) {
            panic!("{CHAOS_PANIC_PREFIX}: process killed after checkpoint save {k}");
        }
    }
}

/// Torn write: truncate an on-disk record to its first `keep` bytes (a
/// crash mid-write under a non-atomic writer). `keep` past the end is a
/// no-op.
pub fn truncate_record(path: impl AsRef<Path>, keep: usize) -> Result<()> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| RobustError::Io(format!("reading {}: {e}", path.display())))?;
    let keep = keep.min(text.len());
    // Cutting mid-UTF-8 can't happen for ASCII JSON, but stay safe anyway.
    let cut = (0..=keep)
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    std::fs::write(path, &text[..cut])
        .map_err(|e| RobustError::Io(format!("truncating {}: {e}", path.display())))
}

/// Rewrite one top-level field of a JSON record in place, as one compact
/// line like the store writes, so every other field keeps its bytes (shared
/// plumbing for the corruption helpers below).
fn rewrite_field(path: &Path, field: &str, value: Json) -> Result<()> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RobustError::Io(format!("reading {}: {e}", path.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| RobustError::Io(format!("parsing {}: {e}", path.display())))?;
    let Json::Obj(mut fields) = doc else {
        return Err(RobustError::Io(format!(
            "{} is not a JSON object",
            path.display()
        )));
    };
    match fields.iter_mut().find(|(name, _)| name == field) {
        Some(slot) => slot.1 = value,
        None => fields.push((field.to_string(), value)),
    }
    std::fs::write(path, Json::Obj(fields).to_string_compact() + "\n")
        .map_err(|e| RobustError::Io(format!("rewriting {}: {e}", path.display())))
}

/// Bit-rot: flip the stored checksum of a record so it no longer matches
/// its payload. The payload itself is left untouched — exactly the failure
/// a flipped disk bit in the checksum field produces.
pub fn corrupt_record_checksum(path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| RobustError::Io(format!("reading {}: {e}", path.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| RobustError::Io(format!("parsing {}: {e}", path.display())))?;
    let stored = doc
        .get("checksum")
        .and_then(Json::as_u64)
        .ok_or_else(|| RobustError::Io(format!("{} has no integer checksum", path.display())))?;
    rewrite_field(path, "checksum", Json::UInt(stored.wrapping_add(1)))
}

/// Format drift: stamp a record with a different (stale) format version so
/// readers from the current version must skip it.
pub fn stale_record_version(path: impl AsRef<Path>, version: u64) -> Result<()> {
    rewrite_field(path.as_ref(), "format_version", Json::UInt(version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic() {
        let s = FaultSchedule::at(&[0, 3]);
        assert!(s.should_fail(0));
        assert!(!s.should_fail(1));
        assert!(s.should_fail(3));
        let f = FaultSchedule::first_n(2);
        assert!(f.should_fail(0) && f.should_fail(1) && !f.should_fail(2));
        let e = FaultSchedule::every_nth(3);
        assert!(!e.should_fail(0) && !e.should_fail(1) && e.should_fail(2));
        assert!(e.should_fail(5) && !e.should_fail(6));
        assert!(!FaultSchedule::never().should_fail(0));
        assert!(FaultSchedule::always().should_fail(7));
        assert_eq!(
            FaultSchedule::sampled(0.5, 100, 9),
            FaultSchedule::sampled(0.5, 100, 9)
        );
    }

    #[test]
    fn sampled_rate_is_roughly_respected() {
        let s = FaultSchedule::sampled(0.3, 1000, 4);
        let fails = (0..1000).filter(|&c| s.should_fail(c)).count();
        assert!((200..400).contains(&fails), "fails={fails}");
    }

    #[test]
    fn corrupt_features_poisons_exactly_the_reported_cells() {
        let mut data = Dataset::from_rows(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![0, 1, 0],
            2,
        )
        .unwrap();
        let cells = corrupt_features(&mut data, 2, 7);
        assert_eq!(cells.len(), 2);
        for r in 0..3 {
            for c in 0..2 {
                let poisoned = cells.contains(&(r, c));
                assert_eq!(data.x.get(r, c).is_nan(), poisoned, "cell ({r}, {c})");
            }
        }
        // Deterministic in the seed.
        let mut again = Dataset::from_rows(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![0, 1, 0],
            2,
        )
        .unwrap();
        assert_eq!(corrupt_features(&mut again, 2, 7), cells);
        // Degenerate inputs are no-ops.
        assert!(corrupt_features(&mut again, 0, 7).is_empty());
    }

    #[test]
    fn kill_switch_fires_on_schedule() {
        let ks = CheckpointKillSwitch::new(FaultSchedule::at(&[2]));
        ks.observe();
        ks.observe();
        assert_eq!(ks.saves(), 2);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ks.observe()));
        let msg = *died.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.starts_with(CHAOS_PANIC_PREFIX), "{msg}");
        assert!(msg.contains("checkpoint save 2"), "{msg}");
        // The schedule has passed; later saves survive.
        ks.observe();
        assert_eq!(ks.saves(), 4);
    }

    #[test]
    fn record_corruption_helpers_damage_files_as_advertised() {
        let dir = std::env::temp_dir().join(format!("nde-chaos-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = Json::Obj(vec![
            ("format_version".into(), Json::UInt(1)),
            ("checksum".into(), Json::UInt(77)),
            ("payload".into(), Json::Str("data".into())),
        ])
        .to_string_pretty();

        let p = dir.join("torn.json");
        std::fs::write(&p, &record).unwrap();
        truncate_record(&p, record.len() / 2).unwrap();
        let torn = std::fs::read_to_string(&p).unwrap();
        assert_eq!(torn.len(), record.len() / 2);
        assert!(Json::parse(&torn).is_err());

        let p = dir.join("rot.json");
        std::fs::write(&p, &record).unwrap();
        corrupt_record_checksum(&p).unwrap();
        let rotten = Json::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(rotten.get("checksum").unwrap().as_u64(), Some(78));
        assert_eq!(rotten.get("payload").unwrap().as_str(), Some("data"));

        let p = dir.join("stale.json");
        std::fs::write(&p, &record).unwrap();
        stale_record_version(&p, 0).unwrap();
        let stale = Json::parse(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(stale.get("format_version").unwrap().as_u64(), Some(0));

        std::fs::remove_dir_all(&dir).ok();
    }
}
