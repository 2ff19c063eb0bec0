//! # nde-cleaning
//!
//! Prioritized data cleaning (paper §3.1, Fig. 2) and the DataPerf-style
//! **data debugging challenge** (§3.2): cleaning oracles, importance-ranked
//! cleaning strategies, the iterative cleaning loop, and a challenge harness
//! with a hidden test set and a live leaderboard.
//!
//! The cleaning loop and the challenge rescore through the model's
//! [`IncrementalLabelEval`](nde_ml::batch::IncrementalLabelEval) hook
//! whenever the model offers one, and refit only when it offers none; the
//! hook is bit-identical to refitting, so no option selects between them.

pub mod challenge;
pub mod error;
pub mod incremental;
pub mod iterative;
pub mod oracle;
pub mod strategy;

pub use challenge::{DebugChallenge, Leaderboard, LeaderboardEntry};
pub use error::CleaningError;
pub use incremental::{FixReport, IncrementalDebugSession};
pub use iterative::{
    prioritized_cleaning, prioritized_cleaning_resumable, prioritized_cleaning_robust,
    CleaningCheckpoint, CleaningRun, MaintenanceMode, RobustCleaningRun,
};
pub use oracle::{CleaningOracle, LabelOracle, TableOracle};
pub use strategy::Strategy;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CleaningError>;
