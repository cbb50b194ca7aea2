//! Experiment implementations for the `selfstab` reproduction.
//!
//! Every claim of the paper with measurable content maps to one experiment
//! module (the per-experiment index lives in DESIGN.md; results in
//! EXPERIMENTS.md). The `harness` binary runs them and prints the Markdown
//! tables; wall-clock benchmarking lives in the repository's `benchmark/`
//! package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod suite;

pub use suite::{Instance, Suite};
