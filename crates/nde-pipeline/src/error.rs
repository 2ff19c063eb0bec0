//! Error type for pipeline construction and execution.

use std::fmt;

/// Errors from building, executing or inspecting pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A plan node id did not exist in the plan.
    UnknownNode(usize),
    /// A named source table was not supplied to the executor.
    MissingInput(String),
    /// An expression failed to evaluate (type error, unknown column).
    Expr(String),
    /// A wrapped data-substrate error.
    Data(String),
    /// A wrapped ML-substrate error (feature encoding).
    Ml(String),
    /// The plan was structurally invalid (cycle, wrong arity, ...).
    InvalidPlan(String),
    /// An incremental-maintenance request could not be applied to a
    /// [`crate::delta::PipelineSession`] (unknown source, row out of
    /// bounds, unsupported session configuration).
    Delta(String),
    /// A user-defined operator panicked while processing a tuple. The
    /// executor converts the panic into this typed error (fail-fast policy)
    /// or a quarantine record (skip-and-record policy) instead of letting
    /// it abort the pipeline.
    OperatorPanic {
        /// Plan node id of the panicking operator.
        node: usize,
        /// Operator description (e.g. `filter(parse_salary(...))` for a UDF predicate).
        operator: String,
        /// Input row index the operator was processing.
        row: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnknownNode(id) => write!(f, "unknown plan node {id}"),
            PipelineError::MissingInput(name) => {
                write!(f, "no input table named `{name}` was provided")
            }
            PipelineError::Expr(msg) => write!(f, "expression error: {msg}"),
            PipelineError::Data(msg) => write!(f, "data error: {msg}"),
            PipelineError::Ml(msg) => write!(f, "ml error: {msg}"),
            PipelineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            PipelineError::Delta(msg) => write!(f, "delta maintenance error: {msg}"),
            PipelineError::OperatorPanic {
                node,
                operator,
                row,
                message,
            } => write!(
                f,
                "operator `{operator}` (node {node}) panicked on row {row}: {message}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<nde_data::DataError> for PipelineError {
    fn from(e: nde_data::DataError) -> Self {
        PipelineError::Data(e.to_string())
    }
}

impl From<nde_ml::MlError> for PipelineError {
    fn from(e: nde_ml::MlError) -> Self {
        PipelineError::Ml(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        assert!(PipelineError::MissingInput("t".into())
            .to_string()
            .contains("`t`"));
        let e: PipelineError = nde_data::DataError::UnknownColumn("c".into()).into();
        assert!(matches!(e, PipelineError::Data(_)));
        let e: PipelineError = nde_ml::MlError::NotFitted.into();
        assert!(matches!(e, PipelineError::Ml(_)));
    }
}
