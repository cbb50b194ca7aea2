//! # selfstab
//!
//! A faithful, production-quality reproduction of
//! *"Self-Stabilizing Protocols for Maximal Matching and Maximal Independent
//! Sets for Ad Hoc Networks"* (W. Goddard, S. T. Hedetniemi, D. P. Jacobs,
//! P. K. Srimani, IPDPS 2003).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — topology substrate (generators, predicates, churn),
//! * [`engine`] — self-stabilization execution engine (daemons, traces,
//!   fault injection, exhaustive verification, parallel executor),
//! * [`core`] — the paper's protocols: [`core::smm`] (Algorithm SMM,
//!   Fig. 1) and [`core::smi`] (Algorithm SMI, Fig. 4), plus ablation
//!   variants, the Hsu–Huang baseline and its synchronous transformation,
//!   greedy oracles, derived applications, and the extension protocols
//!   ([`core::coloring`], [`core::anonymous`], [`core::bfs_tree`]),
//! * [`runtime`] — sharded message-passing runtime: mailbox worker per
//!   shard, boundary states as beacon wire frames between shard mailboxes,
//!   per-round barrier = the paper's synchronous round
//!   ([`runtime::RuntimeExecutor`] is state-identical to the serial
//!   executor at any shard count),
//! * [`adhoc`] — discrete-event beacon/mobility simulator (the ad hoc
//!   network model of Section 2),
//! * [`analysis`] — statistics and table rendering for the experiment
//!   harness.
//!
//! ## Quickstart
//!
//! ```
//! use selfstab::graph::{generators, predicates, Ids};
//! use selfstab::core::smm::Smm;
//! use selfstab::engine::sync::SyncExecutor;
//! use selfstab::engine::InitialState;
//!
//! let g = generators::cycle(8);
//! let smm = Smm::paper(Ids::identity(8));
//! let exec = SyncExecutor::new(&g, &smm);
//! // Start from an arbitrary (seeded random) state, as self-stabilization demands.
//! let run = exec.run(InitialState::Random { seed: 42 }, 8 + 1);
//! assert!(run.stabilized());            // Theorem 1: at most n + 1 rounds
//! let matching = Smm::matched_edges(&g, &run.final_states);
//! assert!(predicates::is_maximal_matching(&g, &matching));
//! ```

pub use selfstab_adhoc as adhoc;
pub use selfstab_analysis as analysis;
pub use selfstab_core as core;
pub use selfstab_engine as engine;
pub use selfstab_graph as graph;
pub use selfstab_runtime as runtime;
