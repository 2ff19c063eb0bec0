//! Synthetic data-error injection.
//!
//! The hands-on session injects *known* errors (label flips, missing values,
//! noise) into clean data and then measures how well the debugging tools find
//! them (paper §3.1, Figs. 2 & 4). Every injector here returns an
//! [`InjectionReport`] recording exactly which rows were corrupted so that
//! detection quality (precision@k etc.) can be evaluated against ground truth.

pub mod bias;
pub mod duplicates;
pub mod labels;
pub mod missing;
pub mod noise;
pub mod ood;

pub use bias::selection_bias;
pub use duplicates::duplicate_rows;
pub use labels::flip_labels;
pub use missing::{inject_missing, Missingness};
pub use noise::{add_gaussian_noise, inject_outliers};
pub use ood::shift_rows;

/// The kind of error an injector introduced.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    /// Class labels replaced by a wrong class.
    LabelFlip,
    /// Values removed under a missingness mechanism.
    Missing(Missingness),
    /// Gaussian noise added to numeric values.
    Noise {
        /// Standard deviation of the added noise.
        sigma: f64,
    },
    /// Values replaced by extreme outliers.
    Outlier,
    /// Rows dropped according to a biased sampling rule.
    SelectionBias,
    /// Rows duplicated.
    Duplicate,
    /// Rows shifted out of distribution.
    OutOfDistribution,
}

/// Ground-truth record of an injection: which rows were touched and how.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionReport {
    /// What was injected.
    pub kind: ErrorKind,
    /// Column affected, if the error is column-scoped.
    pub column: Option<String>,
    /// Row indices (in the *output* table) that carry the error. For
    /// [`ErrorKind::SelectionBias`] these are the rows that were *dropped*
    /// (indices into the input table).
    pub affected: Vec<usize>,
}

impl InjectionReport {
    /// `true` iff `row` carries the injected error.
    pub fn is_affected(&self, row: usize) -> bool {
        self.affected.contains(&row)
    }
}
