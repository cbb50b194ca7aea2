//! Sharded message-passing runtime for self-stabilizing protocols.
//!
//! The in-process executors of `selfstab-engine` evaluate every node
//! against one shared state vector. That is faithful to the paper's
//! synchronous model but caps a run at what one memory bus serves. This
//! crate re-introduces the paper's *messages*: the graph is partitioned
//! into K shards ([`selfstab_core::partition`]), one mailbox worker per
//! shard owns its nodes' states, and neighbor states cross shard
//! boundaries as compact binary [`wire::Beacon`] frames through per-shard
//! [`channel`] mailboxes. The round protocol bounds every mailbox by
//! construction, so they need no capacity: a worker sends each round's
//! batches, then blocks until its expected batches have arrived.
//!
//! The centerpiece is [`RuntimeExecutor`]: for any
//! [`Protocol`](selfstab_engine::protocol::Protocol) whose state is
//! [`WireState`](selfstab_engine::protocol::WireState)-encodable it
//! produces the *same states, round for round*, as the serial
//! [`SyncExecutor`](selfstab_engine::sync::SyncExecutor) — the per-round
//! barrier is exactly the paper's "every node has heard every neighbor"
//! round boundary — while scaling rule evaluation across worker threads.
//! Observer hooks (`run_observed`) report per-shard move counts, frames
//! and bytes on the wire, and channel-depth gauges through
//! [`RoundStats::runtime`](selfstab_engine::obs::RoundStats::runtime).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod channel;
pub mod chaos;
pub mod executor;
pub mod wire;

pub use barrier::{PoisonBarrier, Poisoned};
pub use chaos::{run_churned_sharded, CrashSpec, FaultPlan, FrameFate};
pub use executor::{RuntimeError, RuntimeExecutor};
pub use wire::{frame_extent, Beacon, HEADER_LEN, WIRE_VERSION};
