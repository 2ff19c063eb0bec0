//! # nde-uncertain
//!
//! Learning from uncertain and incomplete data (paper §2.3, Fig. 4):
//!
//! * [`interval`] — interval arithmetic, the symbolic substrate;
//! * [`symbolic`] — symbolic feature matrices where missing cells become
//!   intervals over their column domain (`encode_symbolic` in the
//!   tutorial), stored as `lo`/`hi` planes;
//! * [`zorro`] — Zorro-style symbolic training of linear models under
//!   missing-value uncertainty, yielding **worst-case loss bounds** and
//!   **prediction ranges** (Zhu et al., NeurIPS'24);
//! * [`certain_knn`] — certain predictions for nearest-neighbor classifiers
//!   over incomplete data (Karlaš et al., VLDB'20);
//! * [`certain_models`] — certain / approximately-certain model checks
//!   (Zhen et al., SIGMOD'24);
//! * [`multiplicity`] — the dataset-multiplicity problem for uncertain
//!   labels (Meyer et al., FAccT'23);
//! * [`worlds`] — possible-worlds sampling and robust (abstaining)
//!   aggregation;
//! * [`soa`] — structure-of-arrays interval kernels (fused
//!   dot/axpy/distance-bound loops over `lo`/`hi` slices), the engine the
//!   Zorro and certain-KNN hot paths run over [`SymbolicMatrix`]'s planes,
//!   bit-identical to the scalar [`Interval`] computations that tests keep
//!   as references.

pub mod certain_knn;
pub mod certain_models;
pub mod error;
pub mod interval;
pub mod multiplicity;
pub mod soa;
pub mod symbolic;
pub mod worlds;
pub mod zorro;

pub use error::UncertainError;
pub use interval::Interval;
pub use soa::IntervalVec;
pub use symbolic::SymbolicMatrix;
pub use zorro::{ZorroCheckpoint, ZorroConfig, ZorroRegressor};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, UncertainError>;
