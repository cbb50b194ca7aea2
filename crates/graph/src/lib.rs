//! Graph substrate for the `selfstab` workspace.
//!
//! The protocols of Goddard–Hedetniemi–Jacobs–Srimani (IPDPS 2003) run on an
//! undirected system graph `G = (V, E)` whose node set is fixed and whose
//! edge set changes with host mobility (Section 2 of the paper). This crate
//! provides:
//!
//! * a compact undirected [`Graph`]: sorted adjacency lists in one CSR
//!   array, with per-node slack for link churn,
//! * unique comparable node identifiers ([`Ids`]) decoupled from positional
//!   indices, so adversarial ID orders can be tested,
//! * the topology [`generators`] used by the experiment suite,
//! * the global [`predicates`] the protocols must establish (matching,
//!   maximal matching, independence, maximal independent set, domination),
//! * connectivity-aware [`mutate`] operations modelling link churn, and
//! * [`traversal`] utilities (BFS, components, diameter) plus
//!   [`dot`] export for debugging.
//!
//! Everything is deterministic given a seeded RNG; no global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dimacs;
pub mod dot;
pub mod generators;
pub mod graph;
pub mod graph6;
pub mod ids;
pub mod mutate;
pub mod predicates;
pub mod traversal;

pub use graph::{Edge, Graph, Node};
pub use ids::Ids;
