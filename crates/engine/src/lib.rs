//! Execution engine for self-stabilizing guarded-rule protocols.
//!
//! A self-stabilizing protocol (Dijkstra 1974) is a set of guarded rules
//! `guard(local view) → assignment` per node. Which privileged (rule-enabled)
//! nodes actually move at each instant is decided by a *daemon*:
//!
//! * the **synchronous daemon** ([`sync`]) moves *every* privileged node
//!   simultaneously — this is the beacon-driven model of the paper, where a
//!   round ends once every node has heard every neighbor's state;
//! * the **central daemon** ([`central`]) moves exactly one privileged node
//!   per step — the classical adversarial model the Hsu–Huang baseline was
//!   designed for;
//! * the **distributed daemon** ([`distributed`]) moves an arbitrary
//!   non-empty subset per step, interpolating between the two.
//!
//! On top of the executors the crate provides oscillation detection
//! (non-stabilizing executions provably cycle, because the system is
//! deterministic and finite — [`sync`] catches that), fault injection
//! ([`faults`]), brute-force verification over *all* initial states and all
//! small connected topologies ([`exhaustive`]), and the synchronous round
//! step itself ([`kernel`]), shared by every in-process synchronous round loop.
//!
//! Every executor also has an observed entry point
//! (e.g. [`sync::SyncExecutor::run_observed`]) threading the zero-cost
//! [`obs::Observer`] hooks through the loop; [`obs`] ships observers for
//! convergence metrics, Chrome-trace timelines, and JSONL event logs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod adversary;
pub mod central;
pub mod chaos;
pub mod compose;
pub mod distributed;
pub mod exhaustive;
pub mod faults;
pub mod kernel;
pub mod obs;
pub mod potential;
pub mod protocol;
pub mod record;
pub mod sync;
#[cfg(test)]
pub(crate) mod testutil;

pub use active::{ActiveSet, Schedule};
pub use adversary::{AsymPlan, ByzPlan, ByzStrategy, Perception};
pub use chaos::{ChaosRun, ChurnFeed, ChurnSchedule};
pub use obs::{Observer, RoundStats, RuntimeCounters};
pub use protocol::{InitialState, Move, Protocol, View, WireError, WireState};
pub use sync::{Outcome, Run, SyncExecutor};
