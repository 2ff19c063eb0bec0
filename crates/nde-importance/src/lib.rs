//! # nde-importance
//!
//! Data-importance methods for identifying harmful training examples
//! (paper §2.1), plus the pipeline-aware Datascope method (§2.2).
//!
//! Implemented methods:
//!
//! * [`loo`] — leave-one-out scores;
//! * [`shapley_mc`] — truncated Monte-Carlo Data Shapley (Ghorbani & Zou '19);
//! * [`mod@knn_shapley`] — exact, closed-form KNN-Shapley (Jia et al. '19);
//! * [`mod@banzhaf`] — Data Banzhaf with the maximum-sample-reuse estimator
//!   (Wang & Jia '23);
//! * [`mod@beta_shapley`] — Beta(α,β)-weighted semivalues (Kwon & Zou '21);
//! * [`influence`] — influence functions for logistic regression
//!   (Koh & Liang '17);
//! * [`aum`] — area-under-the-margin mislabel detection (Pleiss et al. '20);
//! * [`confident`] — confident learning (Northcutt et al. '21);
//! * [`group`] — group Shapley over data partitions;
//! * [`mod@datascope`] — KNN-Shapley over ML pipelines, pushed back to pipeline
//!   *source* tuples via provenance (Karlaš et al. '23);
//! * [`fairness_debug`] — Gopher-style interpretable fairness explanations
//!   (Pradhan et al. '22).
//!
//! Scores follow one convention throughout: **higher = more valuable**;
//! injected errors concentrate at the *bottom* of the ranking.
//!
//! # The unified run API
//!
//! The Monte-Carlo and closed-form valuation methods share one entry-point
//! shape (see [`run`]): build an [`ImportanceRun`] with the run-wide
//! options (seed, threads, budget, memo cache, resume checkpoint, batch
//! policy), then call [`tmc_shapley`], [`banzhaf()`](run::banzhaf),
//! [`beta_shapley()`](run::beta_shapley) or
//! [`knn_shapley()`](run::knn_shapley) (or, over a pipeline's source
//! tuples, [`datascope()`](run::datascope)) with the method-specific
//! parameters. Each returns [`ImportanceOutcome`]: scores plus a uniform
//! [`RunReport`]. The run API is the only entry point — the legacy free
//! functions (`tmc_shapley_budgeted`, `banzhaf_msr`, `knn_shapley_par`, …)
//! went through one deprecation cycle and have been removed.
//!
//! Coalition evaluations funnel through the batched utility engine
//! ([`batch::UtilityBatcher`]): with the KNN utility the train→valid
//! distance matrix is computed once per run and whole waves of coalitions
//! are scored against it in one validation pass. The batcher uses a
//! model's batched scorer whenever the model offers one and retrains per
//! coalition only when it offers none. Batching is purely physical —
//! scores, budget trip points and checkpoints are bit-identical to
//! retraining, at every [`BatchPolicy`] wave width, every thread count,
//! and across checkpoint/resume cycles.

pub mod aum;
pub mod banzhaf;
pub mod batch;
pub mod beta_shapley;
pub mod common;
pub mod confident;
pub mod datascope;
pub mod fairness_debug;
pub mod group;
pub mod influence;
pub mod knn_shapley;
pub mod loo;
pub mod run;
pub mod shapley_mc;
pub mod snapshot;

pub use batch::{BatchPolicy, BatchStats};
pub use common::{
    bottom_k, coalition_utility, detection_precision_at_k, ImportanceError, ImportanceScores,
};
pub use run::{
    banzhaf, beta_shapley, datascope, knn_shapley, tmc_shapley, BanzhafParams, BetaShapleyParams,
    ImportanceOutcome, ImportanceRun, RunReport, TmcParams,
};
pub use snapshot::{
    BanzhafCheckpoint, BetaShapleyCheckpoint, EstimatorCheckpoint, InflightPermutation,
    McCheckpoint,
};

/// Everything needed to run an importance method, in one import.
pub mod prelude {
    pub use crate::batch::{BatchPolicy, BatchStats};
    pub use crate::common::{
        bottom_k, coalition_utility, detection_precision_at_k, ImportanceError, ImportanceScores,
    };
    pub use crate::loo::loo_importance;
    pub use crate::run::{
        banzhaf, beta_shapley, datascope, knn_shapley, tmc_shapley, BanzhafParams,
        BetaShapleyParams, ImportanceOutcome, ImportanceRun, RunReport, TmcParams,
    };
    pub use crate::snapshot::{EstimatorCheckpoint, McCheckpoint};
    pub use crate::Result;
    pub use nde_robust::par::MemoCache;
    pub use nde_robust::{ConvergenceDiagnostics, RunBudget, RunFingerprint, RunStore};
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ImportanceError>;
