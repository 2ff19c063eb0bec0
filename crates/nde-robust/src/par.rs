//! The deterministic-parallelism substrate.
//!
//! The worker pool ([`WorkerPool`], which sizes its chunks from the item
//! cost it measures) and the caching primitives live in [`nde_data::pool`]
//! and [`nde_data::par`] (the bottom of the crate stack, so `nde-pipeline`
//! can use them too) and are re-exported here under the crate that owns
//! the execution-robustness story.
//!
//! A budgeted parallel run keeps one [`crate::BudgetClock`]: its workers
//! may only *stop claiming* work early (on a shared call counter or the
//! clock's [`deadline`](crate::BudgetClock::deadline)), and the caller
//! folds the index-sorted results through the clock in order, so where a
//! budget stops the run never depends on the schedule. TMC-Shapley's
//! speculative rounds (`nde_importance::shapley_mc`) are the example.

pub use nde_data::par::{
    member_signature, panic_message, subset_fingerprint, subset_fingerprint_sorted, tree_reduce,
    MemoCache, WorkerFailure,
};
pub use nde_data::pool::{PoolStats, WorkerPool};
