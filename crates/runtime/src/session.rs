//! A resident sharded session: graph, states, and partition survive
//! between mutation epochs instead of being torn down per run.
//!
//! [`crate::chaos::run_churned_sharded`] — and any driver that interleaves
//! topology mutations with convergence waves — needs to run the sharded
//! executor repeatedly on an *evolving* graph while the protocol state
//! carries over. Naively that means re-partitioning (O(n+m) coarsening)
//! and re-materializing states at every churn boundary. A
//! [`ResidentSession`] owns all three resident pieces:
//!
//! * the **live graph**, mutated in place between waves;
//! * the **state vector**, carried explicitly from wave to wave;
//! * the **partition**, computed once — the node→shard map is a function
//!   of node identity only, so edge churn on a fixed node set never
//!   invalidates it (send/receive plans *are* re-derived from the current
//!   adjacency each wave, which is O(boundary), not O(n+m)).
//!
//! The session also owns the **absolute round clock**: observer hooks and
//! fault-plan round offsets are shifted so a segmented execution reports
//! one continuous timeline, indistinguishable from a single long run.
//! Worker threads themselves are scoped per wave (they borrow the mutated
//! graph), so "resident" here means resident *state*, not parked threads —
//! the costs that scale with n stay amortized.

use selfstab_core::partition::Partition;
use selfstab_engine::active::Schedule;
use selfstab_engine::obs::{Observer, RoundStats};
use selfstab_engine::protocol::{InitialState, Protocol, WireState};
use selfstab_engine::sync::Outcome;
use selfstab_graph::{Graph, Node};

use crate::chaos::FaultPlan;
use crate::executor::{RuntimeError, RuntimeExecutor};

/// Forwards observer hooks with the round index shifted by the absolute
/// round of the current convergence wave, and swallows per-wave
/// `on_finish` calls (the driver fires the real one once, at the end).
struct OffsetObserver<'a, O> {
    inner: &'a mut O,
    base: usize,
}

impl<S, O: Observer<S>> Observer<S> for OffsetObserver<'_, O> {
    const ENABLED: bool = O::ENABLED;

    fn on_round_start(&mut self, round: usize, states: &[S]) {
        self.inner.on_round_start(self.base + round, states);
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        self.inner.on_move(node, rule, next);
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        let mut shifted = stats.clone();
        shifted.round += self.base;
        self.inner.on_round_end(&shifted, states);
    }

    fn on_finish(&mut self, _outcome: &Outcome, _states: &[S]) {}
}

/// A sharded execution session that persists across mutation epochs.
pub struct ResidentSession<'a, P: Protocol>
where
    P::State: WireState,
{
    graph: Graph,
    proto: &'a P,
    partition: Partition,
    schedule: Schedule,
    channel_cap: Option<usize>,
    states: Vec<P::State>,
    moves_per_rule: Vec<u64>,
    clock: usize,
}

impl<'a, P: Protocol> ResidentSession<'a, P>
where
    P::State: WireState,
{
    /// Open a session: clones the graph, materializes the initial states,
    /// and computes the partition once.
    ///
    /// # Panics
    /// Panics if `shards == 0` (same contract as [`RuntimeExecutor::new`]).
    pub fn new(
        graph: &Graph,
        proto: &'a P,
        shards: usize,
        schedule: Schedule,
        channel_cap: Option<usize>,
        init: InitialState<P::State>,
    ) -> Self {
        let graph = graph.clone();
        let states = init.materialize(&graph, proto);
        let partition = Partition::coarsened(&graph, shards);
        let moves_per_rule = vec![0u64; proto.rule_names().len()];
        ResidentSession {
            graph,
            proto,
            partition,
            schedule,
            channel_cap,
            states,
            moves_per_rule,
            clock: 0,
        }
    }

    /// The live topology (mutate between waves via [`Self::graph_mut`]).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the live topology. Edge mutations only — the
    /// partition is built for this node set and is reused across waves.
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The current protocol states (one per node).
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The absolute round clock: total rounds elapsed across all waves,
    /// including fast-forwarded quiescent gaps.
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Total moves per rule accumulated across all waves.
    pub fn moves_per_rule(&self) -> &[u64] {
        &self.moves_per_rule
    }

    /// Fast-forward the clock over a quiescent gap (rounds in which no
    /// node is privileged are move-free by definition).
    ///
    /// # Panics
    /// Panics if `round` is behind the current clock.
    pub fn advance_clock_to(&mut self, round: usize) {
        assert!(round >= self.clock, "clock may only advance");
        self.clock = round;
    }

    /// Run one convergence wave of at most `budget` rounds on the current
    /// graph from the current states. States, clock, and move totals are
    /// updated in place; observer hooks fire on the absolute round clock
    /// (per-wave `on_finish` is swallowed — fire the real one yourself when
    /// the session ends). The fault plan, if any, is re-anchored at the
    /// current clock so its absolute round fields keep meaning.
    pub fn converge<O: Observer<P::State>>(
        &mut self,
        budget: usize,
        fault: Option<&FaultPlan>,
        obs: &mut O,
    ) -> Result<Outcome, RuntimeError> {
        let mut exec =
            RuntimeExecutor::from_partition(&self.graph, self.proto, self.partition.clone())
                .with_schedule(self.schedule);
        if let Some(cap) = self.channel_cap {
            exec = exec.with_channel_cap(cap);
        }
        if let Some(f) = fault {
            exec = exec.with_chaos(f.clone().with_round_offset(self.clock));
        }
        let mut wave_obs = OffsetObserver {
            inner: obs,
            base: self.clock,
        };
        let states = std::mem::take(&mut self.states);
        let run = exec.run_observed(InitialState::Explicit(states), budget, &mut wave_obs)?;
        for (acc, &m) in self.moves_per_rule.iter_mut().zip(&run.moves_per_rule) {
            *acc += m;
        }
        self.states = run.final_states;
        self.clock += run.rounds;
        Ok(run.outcome)
    }

    /// Close the session, yielding `(graph, states, moves_per_rule, clock)`.
    pub fn into_parts(self) -> (Graph, Vec<P::State>, Vec<u64>, usize) {
        (self.graph, self.states, self.moves_per_rule, self.clock)
    }
}
