//! Fault-tolerant execution foundation for the nde workspace.
//!
//! The paper's three pillars — Identify (Monte-Carlo Shapley sweeps), Debug
//! (multi-operator pipeline execution), and Learn (iterative training under
//! uncertainty) — all rest on long-running, failure-prone computations. This
//! crate provides the shared machinery to keep those computations **bounded,
//! resumable, and crash-isolated**:
//!
//! - [`budget`] — [`RunBudget`]: wall-clock deadlines plus iteration and
//!   utility-call budgets, with [`ConvergenceDiagnostics`] so a run that
//!   exhausts its budget degrades to a tagged best-so-far result instead of
//!   running forever or aborting.
//! - [`retry`] — [`RetryPolicy`]: bounded retries with exponential backoff
//!   for flaky external dependencies (e.g. cleaning oracles).
//! - [`durable`] — the crash-safe on-disk [`RunStore`]: checksummed,
//!   versioned checkpoint records written atomically under run-fingerprint
//!   keys, cross-process [`MemoCache`] persistence as an append-only log,
//!   and [`supervise`] to
//!   restart a crashed computation from its latest valid record.
//! - [`par`] — the deterministic-parallelism substrate: seed-partitioned
//!   worker pools and a subset-fingerprint memo cache for utility calls.
//!   A budgeted parallel run folds its workers' results in index order
//!   through one [`BudgetClock`], so it stops where a sequential run would.
//!
//! The fault-injection harness that proves each workflow survives these
//! faults is test code and lives in the `nde-tests` crate.

pub mod budget;
pub mod durable;
pub mod error;
pub mod par;
pub mod retry;

pub use budget::{BudgetClock, ConvergenceDiagnostics, Exhaustion, RunBudget};
pub use durable::{
    supervise, CheckpointRecord, RunFingerprint, RunStore, SuperviseCtx, Supervised,
};
pub use error::RobustError;
pub use par::MemoCache;
pub use retry::{retry_with_backoff, RetryPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RobustError>;
