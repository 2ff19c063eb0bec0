//! The deterministic-parallelism substrate, plus budget accounting that is
//! safe to share across workers.
//!
//! The worker pool ([`WorkerPool`], which sizes its chunks from the item
//! cost it measures) and the caching primitives live in [`nde_data::pool`]
//! and [`nde_data::par`] (the bottom of the crate stack, so `nde-pipeline`
//! can use them too) and are re-exported here under the crate that owns
//! the execution-robustness story. This module adds [`AtomicBudgetClock`],
//! the lock-free sibling of [`crate::BudgetClock`].
//!
//! # How a budgeted parallel run stays bit-identical
//!
//! Budgets and parallelism pull in opposite directions: a budget wants a
//! deterministic stopping point, a worker pool finishes items in arbitrary
//! order. The substrate reconciles them with **speculative execution +
//! sequential settlement**:
//!
//! 1. Workers claim item indices from an atomic cursor and evaluate them
//!    speculatively, recording progress in an [`AtomicBudgetClock`]. When
//!    the clock trips, workers stop claiming (via the shared stop flag) —
//!    this only *bounds overshoot*, it decides nothing.
//! 2. The caller then folds the index-sorted results front-to-back through
//!    a plain sequential [`crate::BudgetClock`], applying exactly the
//!    stopping rule a single-threaded run would. Speculative results past
//!    the deterministic stopping point are discarded.
//!
//! The folded state (sums, cursors, checkpoints) is therefore a pure
//! function of the budget and the per-item costs — never of the schedule —
//! which is what makes parallel + budgeted + resumed runs bit-identical to
//! the sequential unbudgeted ones.

pub use nde_data::par::{
    member_signature, panic_message, subset_fingerprint, subset_fingerprint_sorted, tree_reduce,
    MemoCache, WorkerFailure,
};
pub use nde_data::pool::{PoolStats, WorkerPool};

use crate::budget::{Exhaustion, RunBudget};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Lock-free budget accounting shared by a worker pool.
///
/// Tracks the same quantities as [`crate::BudgetClock`] but with atomic
/// counters, so every worker can record progress and probe for exhaustion
/// without serializing. Because workers race, the moment the clock trips is
/// schedule-dependent — treat it as a **heuristic** that bounds speculative
/// overshoot, and settle the authoritative budget by folding results
/// through a sequential [`crate::BudgetClock`] (see the module docs).
#[derive(Debug)]
pub struct AtomicBudgetClock {
    budget: RunBudget,
    started: Instant,
    iterations: AtomicU64,
    utility_calls: AtomicU64,
}

impl AtomicBudgetClock {
    /// Start a shared clock with progress carried over from a resumed run.
    pub fn resume(budget: &RunBudget, iterations: u64, utility_calls: u64) -> AtomicBudgetClock {
        AtomicBudgetClock {
            budget: budget.clone(),
            started: Instant::now(),
            iterations: AtomicU64::new(iterations),
            utility_calls: AtomicU64::new(utility_calls),
        }
    }

    /// Start a fresh shared clock.
    pub fn start(budget: &RunBudget) -> AtomicBudgetClock {
        AtomicBudgetClock::resume(budget, 0, 0)
    }

    /// Record one completed iteration.
    pub fn record_iteration(&self) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` utility evaluations.
    pub fn record_utility_calls(&self, n: u64) {
        self.utility_calls.fetch_add(n, Ordering::Relaxed);
    }

    /// The first limit that has tripped, if any (same order as
    /// [`crate::BudgetClock::exhausted`]).
    pub fn exhausted(&self) -> Option<Exhaustion> {
        if let Some(max) = self.budget.max_iterations {
            if self.iterations.load(Ordering::Relaxed) >= max {
                return Some(Exhaustion::Iterations);
            }
        }
        if let Some(max) = self.budget.max_utility_calls {
            if self.utility_calls.load(Ordering::Relaxed) >= max {
                return Some(Exhaustion::UtilityCalls);
            }
        }
        if let Some(limit) = self.budget.wall_clock {
            if self.started.elapsed() >= limit {
                return Some(Exhaustion::Deadline);
            }
        }
        None
    }

    /// Heuristic count of utility calls left before the utility budget
    /// trips (`None` if unlimited). Like [`AtomicBudgetClock::exhausted`]
    /// this races with other workers — use it to bound the width of a
    /// speculative batch, never to decide the authoritative stopping point
    /// (that is the sequential [`crate::BudgetClock`]'s job).
    pub fn remaining_utility_calls(&self) -> Option<u64> {
        self.budget
            .max_utility_calls
            .map(|max| max.saturating_sub(self.utility_calls.load(Ordering::Relaxed)))
    }

    /// If the clock has tripped, raise `stop` so workers cease claiming new
    /// items. Returns `true` if the clock is (now) exhausted.
    pub fn arm_stop(&self, stop: &AtomicBool) -> bool {
        if self.exhausted().is_some() {
            stop.store(true, Ordering::Relaxed);
            true
        } else {
            stop.load(Ordering::Relaxed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn atomic_clock_trips_like_sequential() {
        let budget = RunBudget::unlimited()
            .with_max_iterations(3)
            .with_max_utility_calls(10);
        let clock = AtomicBudgetClock::start(&budget);
        clock.record_iteration();
        clock.record_utility_calls(9);
        assert_eq!(clock.exhausted(), None);
        clock.record_utility_calls(1);
        assert_eq!(clock.exhausted(), Some(Exhaustion::UtilityCalls));
    }

    #[test]
    fn iteration_limit_checked_first() {
        let budget = RunBudget::unlimited()
            .with_max_iterations(1)
            .with_max_utility_calls(1);
        let clock = AtomicBudgetClock::resume(&budget, 1, 1);
        assert_eq!(clock.exhausted(), Some(Exhaustion::Iterations));
    }

    #[test]
    fn arm_stop_raises_flag_on_exhaustion() {
        let stop = AtomicBool::new(false);
        let clock = AtomicBudgetClock::start(&RunBudget::unlimited().with_max_iterations(1));
        assert!(!clock.arm_stop(&stop));
        assert!(!stop.load(Ordering::Relaxed));
        clock.record_iteration();
        assert!(clock.arm_stop(&stop));
        assert!(stop.load(Ordering::Relaxed));
        // Once raised, it stays raised even for a fresh unlimited clock.
        let fresh = AtomicBudgetClock::start(&RunBudget::unlimited());
        assert!(fresh.arm_stop(&stop));
    }

    #[test]
    fn deadline_trips() {
        let clock =
            AtomicBudgetClock::start(&RunBudget::unlimited().with_wall_clock(Duration::ZERO));
        assert_eq!(clock.exhausted(), Some(Exhaustion::Deadline));
    }

    #[test]
    fn workers_share_one_clock() {
        let clock = AtomicBudgetClock::start(&RunBudget::unlimited().with_max_utility_calls(64));
        let stop = AtomicBool::new(false);
        let out = WorkerPool::shared()
            .map_indexed::<u64, (), _>(4, 0..1000, &stop, |i| {
                clock.record_utility_calls(1);
                clock.arm_stop(&stop);
                Ok(i)
            })
            .unwrap();
        // The heuristic stop bounds overshoot: far fewer than 1000 ran.
        assert!(out.len() >= 64 && out.len() < 200, "{} ran", out.len());
    }
}
