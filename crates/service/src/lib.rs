//! Resident overlay-maintenance service.
//!
//! The paper's protocols were built for networks that *keep changing*:
//! self-stabilization means any perturbation — a link flap, a node joining
//! or leaving — is repaired by the same rules that built the structure,
//! starting from wherever the failure left the state. This crate turns
//! that property into a long-lived daemon: a live graph plus protocol
//! state, ingesting a stream of topology mutations, kept continuously
//! legitimate by re-running the active-set scheduler over just the
//! perturbed closed neighborhoods, and answering membership/census/status
//! queries between events.
//!
//! The subsystem is layered so the *same* serve loop runs everywhere:
//!
//! - [`mod@env`] — the swappable environment: [`env::Clock`] with simulated
//!   and real backends, plus the cooperative [`env::ShutdownFlag`].
//! - [`transport`] — the swappable I/O: a scripted [`transport::SimTransport`]
//!   and a Unix-domain-socket [`transport::UdsTransport`] behind one
//!   [`transport::Transport`] trait.
//! - [`proto`] — the line-delimited JSON wire protocol.
//! - [`overlay`] — per-protocol query semantics (SMM matching, SMI set).
//! - [`service`] — the resident engine: mutation ingest, incremental
//!   re-convergence, per-event recovery metrics.
//! - [`daemon`] — the environment-generic serve loop.
//! - [`snapshot`] — durable state: a restarted daemon resumes from a
//!   legitimate configuration and re-stabilizes in zero rounds; the
//!   [`snapshot::SnapshotScheduler`] writes such snapshots in the
//!   background on the service clock.
//! - [`telemetry`] — the live registry: counters, gauges, rolling-window
//!   quantiles, shared between the serve loop and every export path.
//! - [`scrape`] — the std-only TCP listener rendering the registry in
//!   Prometheus text exposition format.
//!
//! `unsafe` is denied crate-wide except the single FFI seam in [`signal`]
//! (POSIX `signal(2)` registration for graceful Ctrl-C).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod env;
pub mod overlay;
pub mod proto;
pub mod scrape;
pub mod service;
pub mod signal;
pub mod snapshot;
pub mod telemetry;
pub mod transport;

pub use daemon::{serve, serve_with, ServeHooks, ServeOutcome, ServeSummary};
pub use env::{Clock, RealClock, ShutdownFlag, SimClock};
pub use overlay::OverlayProtocol;
pub use proto::{Mutation, QueryKind, Request};
pub use scrape::{scrape_once, ScrapeServer};
pub use service::{EventRecord, OverlayService};
pub use snapshot::{Snapshot, SnapshotCadence, SnapshotScheduler};
pub use telemetry::Telemetry;
pub use transport::{Polled, SimTransport, Transport};

#[cfg(unix)]
pub use transport::{uds_client_session, UdsTransport};
