//! # nde-pipeline
//!
//! ML preprocessing pipelines with **fine-grained provenance**, in the style
//! of mlinspect / Datascope / ArgusEyes (paper §2.2, Fig. 3).
//!
//! A [`plan::Plan`] is a DAG of relational operators (sources, joins, filters,
//! derived-column projections, concat) terminating in a feature-encoding
//! step. The [`exec::Executor`] evaluates the plan over named input tables
//! and — when asked — tracks a provenance polynomial (Green et al.'s
//! semiring provenance) for every output row, mapping it back to the exact
//! source tuples it was derived from. Polynomials are hash-consed into a
//! flat [`provenance::ProvArena`] (identical subexpressions interned once,
//! rows are 4-byte node ids), so semiring evaluation and deletion what-ifs
//! are single forward passes over the node table (the `nde-tests` crate
//! checks them against the recursive-tree form). That mapping is what lets
//! data-importance methods
//! computed on the *pipeline output* be pushed back to the *pipeline
//! inputs*.
//!
//! ```
//! use nde_pipeline::plan::{Plan, JoinType};
//! use nde_pipeline::expr::Expr;
//! use nde_pipeline::exec::Executor;
//! use nde_data::generate::hiring::HiringScenario;
//!
//! let s = HiringScenario::generate(50, 0);
//! let mut plan = Plan::new();
//! let letters = plan.source("train_df");
//! let jobs = plan.source("jobdetail_df");
//! let joined = plan.join(letters, jobs, "job_id", "job_id", JoinType::Inner);
//! let filtered = plan.filter(joined, Expr::col("sector").eq(Expr::str("healthcare")));
//! let out = Executor::new()
//!     .with_provenance(true)
//!     .run(&plan, filtered, &[("train_df", &s.letters), ("jobdetail_df", &s.job_details)])
//!     .unwrap();
//! assert_eq!(out.table.n_rows(), out.provenance.as_ref().unwrap().rows.len());
//! ```

pub mod delta;
pub mod error;
pub mod exec;
pub mod expr;
pub mod feature;
pub mod fuzzy;
pub mod inspect;
pub mod plan;
pub mod provenance;
pub mod render;
pub mod semiring;
pub mod whatif;

pub use delta::{Delta, DeltaOutcome, DeltaPath, DeltaStats, PipelineSession};
pub use error::PipelineError;
pub use exec::{ExecOutput, Executor};
pub use plan::{JoinType, NodeId, Plan};
pub use provenance::{Lineage, ProvArena, ProvId, TupleId};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, PipelineError>;
