//! Experiment support for the `selfstab` workspace.
//!
//! Small, dependency-light building blocks the harness and the CLI share:
//! descriptive [`stats`], ordinary least squares in [`regression`] (used to
//! check the *shape* of round-complexity claims, e.g. SMI's `O(n)`),
//! [`table`] rendering for EXPERIMENTS.md, deterministic [`seeds`]
//! spreading so every experiment cell is reproducible in isolation, and
//! [`skew`] aggregation of per-shard profile samples for the offline
//! `analyze` report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod regression;
pub mod seeds;
pub mod skew;
pub mod stats;
pub mod table;

pub use histogram::Histogram;
pub use regression::linear_fit;
pub use skew::{LaneTotals, SkewAccumulator};
pub use stats::Summary;
pub use table::Table;
