//! # nde-data
//!
//! Data substrate for the *navigating-data-errors* toolkit: a small columnar
//! table engine, deterministic synthetic data generators for the tutorial's
//! hiring scenario, and a library of **data error injectors** (label flips,
//! MCAR/MAR/MNAR missingness, noise, outliers, selection bias, duplicates,
//! out-of-distribution rows).
//!
//! A column has one representation: a typed [`planes::Plane`] owned by its
//! [`Table`]. Cells cross the API as [`Value`] (owned) or [`ValueRef`]
//! (borrowed); numeric readers take a column widened to `f64` through
//! [`Table::f64_cells`].
//!
//! Everything is deterministic: every stochastic routine takes an explicit
//! seed, so experiments are exactly reproducible.
//!
//! ```
//! use nde_data::generate::hiring::HiringScenario;
//! let scenario = HiringScenario::generate(200, 42);
//! assert_eq!(scenario.letters.n_rows(), 200);
//! ```

pub mod csvio;
pub mod dict;
pub mod error;
pub mod fxhash;
pub mod generate;
pub mod inject;
pub mod json;
pub mod par;
pub mod planes;
pub mod pool;
pub mod rng;
pub mod schema;
pub mod table;
pub mod value;

pub use dict::Dict;
pub use error::DataError;
pub use schema::{DataType, Field, Schema};
pub use table::Table;
pub use value::{Value, ValueRef};

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, DataError>;
