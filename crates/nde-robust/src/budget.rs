//! Run budgets: wall-clock deadlines plus iteration and utility-call
//! budgets, threaded through the workspace's long-running estimators.
//!
//! A budgeted runner checks its [`BudgetClock`] at iteration boundaries and,
//! on exhaustion, **degrades gracefully**: it returns the best-so-far
//! estimate tagged with [`ConvergenceDiagnostics`] (iterations done, maximum
//! marginal standard error, which limit tripped) instead of running forever
//! or aborting the process.

use std::fmt;
use std::time::{Duration, Instant};

/// Limits on a long-running estimation. All limits are optional; the
/// default budget is unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline, measured from [`RunBudget::start`].
    pub wall_clock: Option<Duration>,
    /// Maximum number of iterations (permutations, rounds, epochs — the
    /// runner's natural unit of progress).
    pub max_iterations: Option<u64>,
    /// Maximum number of utility evaluations (model retrain + score), the
    /// dominant cost of Shapley-style estimators.
    pub max_utility_calls: Option<u64>,
}

impl RunBudget {
    /// A budget with no limits.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Set a wall-clock deadline.
    pub fn with_wall_clock(mut self, limit: Duration) -> RunBudget {
        self.wall_clock = Some(limit);
        self
    }

    /// Set an iteration budget.
    pub fn with_max_iterations(mut self, limit: u64) -> RunBudget {
        self.max_iterations = Some(limit);
        self
    }

    /// Set a utility-call budget.
    pub fn with_max_utility_calls(mut self, limit: u64) -> RunBudget {
        self.max_utility_calls = Some(limit);
        self
    }

    /// Start the clock on this budget.
    pub fn start(&self) -> BudgetClock {
        BudgetClock {
            budget: self.clone(),
            started: Instant::now(),
            iterations: 0,
            utility_calls: 0,
        }
    }

    /// Start the clock with progress carried over from a resumed checkpoint,
    /// so budgets count *total* work across interruptions.
    pub fn resume(&self, iterations: u64, utility_calls: u64) -> BudgetClock {
        BudgetClock {
            budget: self.clone(),
            started: Instant::now(),
            iterations,
            utility_calls,
        }
    }
}

/// Which budget limit tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Deadline,
    /// The iteration budget was consumed.
    Iterations,
    /// The utility-call budget was consumed.
    UtilityCalls,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhaustion::Deadline => write!(f, "wall-clock deadline reached"),
            Exhaustion::Iterations => write!(f, "iteration budget exhausted"),
            Exhaustion::UtilityCalls => write!(f, "utility-call budget exhausted"),
        }
    }
}

/// Tracks consumption against a [`RunBudget`].
#[derive(Debug, Clone)]
pub struct BudgetClock {
    budget: RunBudget,
    started: Instant,
    iterations: u64,
    utility_calls: u64,
}

impl BudgetClock {
    /// Record one completed iteration.
    pub fn record_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Record `n` utility evaluations.
    pub fn record_utility_calls(&mut self, n: u64) {
        self.utility_calls += n;
    }

    /// Iterations recorded so far (including any resumed base).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Utility calls recorded so far (including any resumed base).
    pub fn utility_calls(&self) -> u64 {
        self.utility_calls
    }

    /// Wall-clock time since the clock started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The instant the wall-clock budget runs out, or `None` without one
    /// (or when it lies beyond what an `Instant` can hold). Parallel workers
    /// read it to stop claiming work once it passes.
    pub fn deadline(&self) -> Option<Instant> {
        self.budget
            .wall_clock
            .and_then(|limit| self.started.checked_add(limit))
    }

    /// The first limit that has tripped, if any. Checked in a fixed order
    /// (iterations, utility calls, deadline) so tests are deterministic.
    pub fn exhausted(&self) -> Option<Exhaustion> {
        if let Some(max) = self.budget.max_iterations {
            if self.iterations >= max {
                return Some(Exhaustion::Iterations);
            }
        }
        if let Some(max) = self.budget.max_utility_calls {
            if self.utility_calls >= max {
                return Some(Exhaustion::UtilityCalls);
            }
        }
        if let Some(deadline) = self.deadline() {
            if Instant::now() >= deadline {
                return Some(Exhaustion::Deadline);
            }
        }
        None
    }

    /// Whether `n` further utility calls would exceed the utility budget.
    pub fn would_exceed_utility(&self, n: u64) -> bool {
        match self.budget.max_utility_calls {
            Some(max) => self.utility_calls.saturating_add(n) > max,
            None => false,
        }
    }

    /// How many utility calls remain before the utility budget trips, or
    /// `None` if unlimited. Batched evaluators clamp their wave width to
    /// this so a tripping budget never pays for evaluations the sequential
    /// stopping rule will discard.
    pub fn remaining_utility_calls(&self) -> Option<u64> {
        self.budget
            .max_utility_calls
            .map(|max| max.saturating_sub(self.utility_calls))
    }

    /// Snapshot diagnostics for a finished (or interrupted) run.
    pub fn diagnostics(&self, max_marginal_std_error: Option<f64>) -> ConvergenceDiagnostics {
        ConvergenceDiagnostics {
            iterations: self.iterations,
            utility_calls: self.utility_calls,
            elapsed: self.started.elapsed(),
            max_marginal_std_error,
            exhausted: self.exhausted(),
        }
    }
}

/// How far a budgeted estimation got, and how trustworthy its output is.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceDiagnostics {
    /// Iterations completed (permutations, rounds, epochs).
    pub iterations: u64,
    /// Utility evaluations performed.
    pub utility_calls: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The largest standard error of any per-example marginal estimate,
    /// when the estimator tracks one (Monte-Carlo Shapley does).
    pub max_marginal_std_error: Option<f64>,
    /// `Some` iff the run stopped because a budget limit tripped; the
    /// result is then a best-so-far estimate, not a converged one.
    pub exhausted: Option<Exhaustion>,
}

impl ConvergenceDiagnostics {
    /// `true` if the run finished its planned work without hitting a limit.
    pub fn completed(&self) -> bool {
        self.exhausted.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut clock = RunBudget::unlimited().start();
        for _ in 0..10_000 {
            clock.record_iteration();
            clock.record_utility_calls(5);
        }
        assert_eq!(clock.exhausted(), None);
        assert!(clock.diagnostics(None).completed());
    }

    #[test]
    fn iteration_budget_trips() {
        let mut clock = RunBudget::unlimited().with_max_iterations(3).start();
        clock.record_iteration();
        clock.record_iteration();
        assert_eq!(clock.exhausted(), None);
        clock.record_iteration();
        assert_eq!(clock.exhausted(), Some(Exhaustion::Iterations));
        let d = clock.diagnostics(Some(0.25));
        assert!(!d.completed());
        assert_eq!(d.iterations, 3);
        assert_eq!(d.max_marginal_std_error, Some(0.25));
    }

    #[test]
    fn utility_budget_trips_and_predicts() {
        let mut clock = RunBudget::unlimited().with_max_utility_calls(10).start();
        clock.record_utility_calls(8);
        assert_eq!(clock.exhausted(), None);
        assert!(!clock.would_exceed_utility(2));
        assert!(clock.would_exceed_utility(3));
        assert_eq!(clock.remaining_utility_calls(), Some(2));
        clock.record_utility_calls(2);
        assert_eq!(clock.exhausted(), Some(Exhaustion::UtilityCalls));
        assert_eq!(clock.remaining_utility_calls(), Some(0));
        clock.record_utility_calls(5);
        // Overshoot saturates rather than wrapping.
        assert_eq!(clock.remaining_utility_calls(), Some(0));
    }

    #[test]
    fn unlimited_budget_has_no_remaining_count() {
        let clock = RunBudget::unlimited().start();
        assert_eq!(clock.remaining_utility_calls(), None);
    }

    #[test]
    fn deadline_trips() {
        let clock = RunBudget::unlimited()
            .with_wall_clock(Duration::ZERO)
            .start();
        assert_eq!(clock.exhausted(), Some(Exhaustion::Deadline));
        assert!(clock.deadline().is_some_and(|d| d <= Instant::now()));
        assert_eq!(RunBudget::unlimited().start().deadline(), None);
        // A deadline past what an `Instant` can hold never trips.
        let far = RunBudget::unlimited()
            .with_wall_clock(Duration::MAX)
            .start();
        assert_eq!((far.deadline(), far.exhausted()), (None, None));
    }

    #[test]
    fn resume_carries_prior_progress() {
        let clock = RunBudget::unlimited()
            .with_max_iterations(10)
            .resume(10, 100);
        assert_eq!(clock.exhausted(), Some(Exhaustion::Iterations));
        assert_eq!(clock.iterations(), 10);
        assert_eq!(clock.utility_calls(), 100);
    }

    #[test]
    fn exhaustion_displays() {
        assert!(Exhaustion::Deadline.to_string().contains("deadline"));
        assert!(Exhaustion::Iterations.to_string().contains("iteration"));
        assert!(Exhaustion::UtilityCalls.to_string().contains("utility"));
    }
}
