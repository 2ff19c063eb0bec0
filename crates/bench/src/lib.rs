//! # nde-bench
//!
//! Experiment harness regenerating **every figure and table** of the
//! tutorial (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results). Each experiment lives in
//! [`experiments`] as a pure function returning a typed report; the binaries
//! in `src/bin/` are thin wrappers that print the same rows/series the paper
//! shows, and the wall-clock benches in `benches/` measure the runtime
//! claims (KNN-Shapley vs Monte-Carlo scaling, provenance overhead).
//! End-to-end timings of the Identify, Debug and Learn workflows live in
//! `wfbench/`, not here.

pub mod experiments;
pub mod report;
pub mod timing;
