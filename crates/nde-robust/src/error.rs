//! Error type for the robustness foundation.

use std::fmt;

/// Errors from budgets, retries and checkpoint records.
#[derive(Debug, Clone, PartialEq)]
pub enum RobustError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// A checkpoint file could not be parsed or is inconsistent.
    Checkpoint(String),
    /// A filesystem operation on a checkpoint file failed.
    Io(String),
    /// A supervised computation crashed (panicked) and exhausted its
    /// retry policy; the last panic payload is preserved.
    Crash(String),
}

impl fmt::Display for RobustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            RobustError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            RobustError::Io(msg) => write!(f, "io error: {msg}"),
            RobustError::Crash(msg) => write!(f, "supervised run crashed: {msg}"),
        }
    }
}

impl std::error::Error for RobustError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(RobustError::Checkpoint("bad".into())
            .to_string()
            .contains("checkpoint"));
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RobustError::Io("x".into()));
    }
}
