//! Round-level observability: zero-cost-when-disabled execution hooks.
//!
//! Every executor in this crate (and the beacon simulator in
//! `selfstab-adhoc`) exposes a `run_observed` entry point that threads an
//! [`Observer`] through the execution loop. The hooks fire once per round
//! (per *move* under the central daemon, per *beacon period* in the
//! simulator) and expose exactly the quantities the paper reasons about:
//! the privileged count, the per-rule move counts, and — through pluggable
//! [`Gauge`]s — protocol-level summaries such as the SMM node-type census
//! of Fig. 2 or the SMI set size.
//!
//! **Zero cost when disabled.** The associated constant
//! [`Observer::ENABLED`] is `false` for the unit observer `()`, and every
//! executor guards its bookkeeping (timers, per-round vectors, hook calls)
//! behind `if O::ENABLED`. Because executors are monomorphized per observer
//! type, `run(..)` — which delegates to `run_observed(.., &mut ())` —
//! compiles to the same loop as before the hooks existed.
//!
//! Three observers ship built in:
//!
//! * [`MetricsCollector`] — per-round convergence metrics and gauges,
//! * [`ChromeTraceWriter`] — a `chrome://tracing` / Perfetto JSON timeline,
//! * [`JsonlEventLog`] — one JSON event per line, round-trippable into the
//!   [`crate::record`] types for offline validation.
//!
//! Observers compose: `(A, B)` runs both, `Option<O>` runs the `Some`
//! variant, and `&mut O` forwards (so an observer can be inspected after
//! the run without being consumed by it).

#![deny(missing_docs)]

use crate::sync::Outcome;
use selfstab_graph::Node;

pub mod chrome;
pub mod jsonl;
pub mod metrics;
pub mod profile;
pub mod window;

pub use chrome::ChromeTraceWriter;
pub use jsonl::{trace_from_jsonl, JsonlEventLog};
pub use metrics::{profile_json, Gauge, MetricsCollector, RoundRecord};
pub use profile::{Phase, PhaseSpans, RoundProfile, ShardProfile, PHASES};
pub use window::{RateWindow, RollingWindow};

/// Beacon-layer counters for one observation period, reported only by the
/// `selfstab-adhoc` beacon simulator (`None` in [`RoundStats::beacon`] for
/// the abstract executors).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BeaconCounters {
    /// Beacon frames delivered to a receiver this period.
    pub deliveries: u64,
    /// Beacon frames lost to the channel this period.
    pub losses: u64,
    /// Beacon frames destroyed by medium contention this period.
    pub collisions: u64,
    /// Neighbor-table entries older than one beacon interval observed at
    /// rule-evaluation time this period (a measure of how stale the local
    /// views driving the moves were).
    pub stale_views: u64,
    /// Sum of absolute beacon-scheduling jitter drawn this period, in
    /// microseconds.
    pub jitter_abs_sum_micros: u64,
}

/// Shard/wire-layer counters for one round, reported only by the sharded
/// message-passing runtime (`selfstab-runtime`); `None` in
/// [`RoundStats::runtime`] for the in-process executors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Moves applied this round, per shard (index = shard id).
    pub shard_moves: Vec<u64>,
    /// Beacon frames that crossed a shard boundary this round.
    pub frames: u64,
    /// Total encoded frame bytes that crossed a shard boundary this round
    /// (header + payload).
    pub bytes_on_wire: u64,
    /// The deepest any shard's mailbox got this round, in batches. At most
    /// one round is in flight, so it never exceeds the receiving shard's
    /// number of neighbouring shards (≤ K − 1).
    pub max_channel_depth: u64,
    /// Boundary beacons *not* sent this round because the node's state did
    /// not change (delta-beacon suppression under the active schedule; 0
    /// under the full schedule, which re-broadcasts every boundary state).
    pub frames_suppressed: u64,
    /// Beacon frames dropped by chaos injection this round (the receiver
    /// keeps its last cached ghost — a stale-view transient fault).
    pub frames_dropped: u64,
    /// Beacon frames duplicated by chaos injection this round (both copies
    /// travel and decode; the second overwrite is idempotent).
    pub frames_duped: u64,
    /// Beacon frames delayed by chaos injection this round (re-delivered k
    /// rounds later, tagged with the delivery round).
    pub frames_delayed: u64,
    /// Beacon frames bit-corrupted by chaos injection and *detected* by the
    /// receiver's wire decode this round (discarded; cached ghost kept).
    pub frames_corrupted: u64,
    /// Shard workers that crashed and restarted with arbitrary rehydrated
    /// state this round (chaos injection only).
    pub restarts: u64,
    /// Byzantine state rewrites applied this round (one per compromised
    /// node per hot round; see `selfstab_engine::adversary::ByzPlan`).
    pub byz_rewrites: u64,
    /// Directed links whose inbound delivery was down this round under the
    /// asymmetric-link model (each leaves a stale perceived state; see
    /// `selfstab_engine::adversary::AsymPlan`).
    pub asym_links_down: u64,
}

impl RuntimeCounters {
    /// Total chaos-injected fault events this round: dropped + duplicated +
    /// delayed + corrupted frames, worker restarts, Byzantine rewrites, and
    /// downed link directions. Zero for every round of a run with no chaos
    /// plan.
    pub fn faults(&self) -> u64 {
        self.frames_dropped
            + self.frames_duped
            + self.frames_delayed
            + self.frames_corrupted
            + self.restarts
            + self.byz_rewrites
            + self.asym_links_down
    }
}

/// What happened in one observed round.
///
/// Under the synchronous daemon a round is one simultaneous firing of all
/// privileged nodes; under the central daemon it is a single move; in the
/// beacon simulator it is one beacon period.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// 1-based index of the round that was just applied.
    pub round: usize,
    /// Number of privileged nodes at the start of the round (under the
    /// synchronous daemon every one of them moved; in the beacon simulator
    /// this counts the nodes that changed state during the period).
    pub privileged: usize,
    /// Number of guard evaluations the round cost: `n` under the full
    /// sweep, the active-set size under active scheduling (in the beacon
    /// simulator, the rule evaluations performed during the period). The
    /// decay of this count is the frontier of Lemmas 9–10.
    pub evaluated: usize,
    /// Moves applied **in this round only**, indexed like
    /// [`crate::protocol::Protocol::rule_names`].
    pub moves_per_rule: Vec<u64>,
    /// Wall-clock time the round took (simulated time, one beacon
    /// interval, for the beacon simulator).
    pub duration_micros: u64,
    /// Beacon-layer counters (simulator only).
    pub beacon: Option<BeaconCounters>,
    /// Shard/wire counters (sharded runtime only).
    pub runtime: Option<RuntimeCounters>,
    /// Intra-round phase profile, one [`ShardProfile`] per executor lane
    /// (executors that profile their rounds only; `None` elsewhere).
    pub profile: Option<RoundProfile>,
}

/// Execution hooks, called by `run_observed` on every executor.
///
/// All methods default to no-ops so an observer implements only what it
/// needs. The call order per round is `on_round_start` → `on_move` (once
/// per applied move) → `on_round_end`; `on_finish` fires exactly once, when
/// the execution ends for any reason (including immediately, at a
/// fixpoint, in which case no round hooks fire at all).
pub trait Observer<S> {
    /// Whether the executor should spend cycles on observation. Executors
    /// test this *compile-time* constant before timing rounds, assembling
    /// [`RoundStats`], or invoking any hook — the unit observer `()` sets
    /// it to `false`, making the unobserved path cost-free.
    const ENABLED: bool = true;

    /// A round is about to be applied. `round` is 1-based; `states` is the
    /// global state *before* the round.
    fn on_round_start(&mut self, round: usize, states: &[S]) {
        let _ = (round, states);
    }

    /// A node fired rule `rule` and its state is now `next`.
    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        let _ = (node, rule, next);
    }

    /// A round was applied. `states` is the global state *after* it.
    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        let _ = (stats, states);
    }

    /// The execution ended with `outcome`; `states` is the final state.
    fn on_finish(&mut self, outcome: &Outcome, states: &[S]) {
        let _ = (outcome, states);
    }
}

/// The disabled observer: all hooks compile away.
impl<S> Observer<S> for () {
    const ENABLED: bool = false;
}

/// Forwarding, so an observer owned by the caller can be passed by mutable
/// reference and inspected after the run.
impl<S, O: Observer<S>> Observer<S> for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn on_round_start(&mut self, round: usize, states: &[S]) {
        (**self).on_round_start(round, states);
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        (**self).on_move(node, rule, next);
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        (**self).on_round_end(stats, states);
    }

    fn on_finish(&mut self, outcome: &Outcome, states: &[S]) {
        (**self).on_finish(outcome, states);
    }
}

/// Fan-out to two observers (nest tuples for more).
impl<S, A: Observer<S>, B: Observer<S>> Observer<S> for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_round_start(&mut self, round: usize, states: &[S]) {
        self.0.on_round_start(round, states);
        self.1.on_round_start(round, states);
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        self.0.on_move(node, rule, next);
        self.1.on_move(node, rule, next);
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        self.0.on_round_end(stats, states);
        self.1.on_round_end(stats, states);
    }

    fn on_finish(&mut self, outcome: &Outcome, states: &[S]) {
        self.0.on_finish(outcome, states);
        self.1.on_finish(outcome, states);
    }
}

/// A run-time-optional observer: `None` observes nothing (but, unlike
/// `()`, still pays the `ENABLED` bookkeeping — use it to toggle
/// observation from configuration, not to disable it statically).
impl<S, O: Observer<S>> Observer<S> for Option<O> {
    const ENABLED: bool = O::ENABLED;

    fn on_round_start(&mut self, round: usize, states: &[S]) {
        if let Some(o) = self {
            o.on_round_start(round, states);
        }
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        if let Some(o) = self {
            o.on_move(node, rule, next);
        }
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        if let Some(o) = self {
            o.on_round_end(stats, states);
        }
    }

    fn on_finish(&mut self, outcome: &Outcome, states: &[S]) {
        if let Some(o) = self {
            o.on_finish(outcome, states);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_propagates_through_combinators() {
        struct Probe;
        impl Observer<u8> for Probe {}
        const { assert!(!<() as Observer<u8>>::ENABLED) };
        const { assert!(<Probe as Observer<u8>>::ENABLED) };
        const { assert!(<&mut Probe as Observer<u8>>::ENABLED) };
        const { assert!(<Option<Probe> as Observer<u8>>::ENABLED) };
        const { assert!(<(Probe, Probe) as Observer<u8>>::ENABLED) };
        const { assert!(<((), Probe) as Observer<u8>>::ENABLED) };
        const { assert!(!<((), ()) as Observer<u8>>::ENABLED) };
    }

    #[test]
    fn tuple_fans_out_and_option_gates() {
        #[derive(Default)]
        struct Count {
            starts: usize,
            moves: usize,
            ends: usize,
            finishes: usize,
        }
        impl Observer<u8> for Count {
            fn on_round_start(&mut self, _: usize, _: &[u8]) {
                self.starts += 1;
            }
            fn on_move(&mut self, _: Node, _: usize, _: &u8) {
                self.moves += 1;
            }
            fn on_round_end(&mut self, _: &RoundStats, _: &[u8]) {
                self.ends += 1;
            }
            fn on_finish(&mut self, _: &Outcome, _: &[u8]) {
                self.finishes += 1;
            }
        }
        let stats = RoundStats {
            round: 1,
            privileged: 1,
            evaluated: 1,
            moves_per_rule: vec![1],
            duration_micros: 0,
            beacon: None,
            runtime: None,
            profile: None,
        };
        let mut pair = (Count::default(), Some(Count::default()));
        let mut none: Option<Count> = None;
        let states = [0u8];
        pair.on_round_start(1, &states);
        pair.on_move(Node(0), 0, &1);
        pair.on_round_end(&stats, &states);
        pair.on_finish(&Outcome::Stabilized, &states);
        none.on_round_start(1, &states);
        assert_eq!(
            pair.0.starts + pair.0.moves + pair.0.ends + pair.0.finishes,
            4
        );
        let inner = pair.1.unwrap();
        assert_eq!(inner.starts + inner.moves + inner.ends + inner.finishes, 4);
        assert!(none.is_none());
    }
}
