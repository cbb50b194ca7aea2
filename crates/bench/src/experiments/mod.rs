//! One module per experiment (IDs match DESIGN.md / EXPERIMENTS.md).

pub mod e01_smm_rounds;
pub mod e02_smi_rounds;
pub mod e03_transitions;
pub mod e04_growth;
pub mod e05_counterexample;
pub mod e06_baseline;
pub mod e07_faults;
pub mod e08_adhoc;
pub mod e09_mobility;
pub mod e10_exhaustive;
pub mod e11_quality;
pub mod e13_coloring;
pub mod e14_anonymous;
pub mod e15_bfs_tree;
pub mod e16_contention;
pub mod e17_observability;
pub mod e18_runtime_scaling;
pub mod e19_active_schedule;
pub mod e20_chaos;
pub mod e21_shard_skew;
pub mod e22_service;
pub mod e24_byzantine;
pub mod e25_telemetry;

/// An experiment's rendered report section.
pub struct Report {
    /// Experiment ID, e.g. `E1`.
    pub id: &'static str,
    /// Title line.
    pub title: &'static str,
    /// Markdown body (tables + commentary).
    pub body: String,
}

impl Report {
    /// Render the full Markdown section.
    pub fn to_markdown(&self) -> String {
        format!("## {} — {}\n\n{}\n", self.id, self.title, self.body)
    }
}
