//! [`RuntimeExecutor`]: the sharded mailbox runtime.
//!
//! The graph is partitioned into K shards
//! ([`selfstab_core::partition::Partition::coarsened`]); one worker thread
//! owns each shard's node states. Every worker keeps a full-length state
//! vector, but only its *owned* entries are authoritative — entries for
//! boundary neighbors in other shards are ghosts, refreshed by [`Beacon`]
//! frames arriving through per-shard mailboxes. Interior entries of other
//! shards go stale, which is harmless: a guard only ever reads the node
//! itself (owned) and its neighbors (owned or ghost).
//!
//! **A runtime round is exactly a paper round.** Per iteration every worker
//! (1) evaluates the guards of its owned nodes against its current view,
//! (2) publishes its move count into a parity-indexed atomic and crosses a
//! barrier, so all workers agree on the *global* move count, (3) takes the
//! same termination decision [`SyncExecutor`] would — stabilized when no
//! node moved anywhere, round limit before applying the would-be moves —
//! and otherwise (4) applies its own moves and exchanges boundary beacons.
//! Rule evaluation order inside a shard is node order, and applications are
//! per-node disjoint, so the post-round global state is *identical* to the
//! serial executor's, round for round, for any shard count.
//!
//! **The round itself is the engine's kernel.** Each worker drives a
//! [`Kernel::for_shard`] over its owned nodes: the kernel evaluates the
//! guards, applies the moves and Byzantine rewrites, and keeps the
//! dirty-node worklist (see [`selfstab_engine::active`]) exactly as it does
//! for the serial executor. The worker adds only what distribution needs:
//! the termination vote, the beacon exchange, chaos and crash rehydration,
//! and the observer journal.
//!
//! **Active scheduling becomes delta beacons.** Under the default
//! [`Schedule::Active`] the wire protocol turns the worklist invariant into
//! bandwidth: a boundary node's beacon is sent only in rounds where the
//! node *moved*. Ghost entries are seeded from the shared initial state, so
//! an unsent beacon means — and only ever means — "unchanged", and each
//! received beacon is [`Kernel::seed`]ed, marking the sender's closed
//! neighborhood dirty on the receiving side. One batch message still
//! travels per neighbor-shard pair per round (possibly empty), so every
//! shard receives the same static `expected_in` batches per round under
//! either schedule.
//!
//! **The exchange is straight-line.** Beacons bound for the same shard are
//! batched into one message per round. Each worker encodes and sends every
//! batch of its plan, in order, then blocks on its own mailbox until exactly
//! `expected_in` batches (a static property of the partition) have arrived.
//! Mailboxes are unbounded, so a send never blocks and no worker waits on
//! another's receive: every worker finishes its sends, so every expected
//! batch arrives. The mailbox wakes the receiver on every send.
//!
//! **At most one round of frames is ever in flight.** A worker sends round
//! r+1 frames only after the round-(r+1) barriers, which every peer reaches
//! only after completely draining its round-r frames. So a mailbox never
//! holds more than `expected_in ≤ K − 1` batches, which is why it needs no
//! capacity (each exchange `debug_assert!`s it on the inbox high-water
//! mark). The round tag in each frame turns this invariant into a checked
//! [`RuntimeError::RoundTag`] instead of silent state corruption.
//!
//! **Failures propagate; they do not hang or abort.** A worker that fails
//! — a wire error returned from its loop, or a panic caught by its drop
//! guard — poisons the shared [`PoisonBarrier`], waking peers parked on it,
//! and closes every shard's mailbox, waking peers blocked in a receive on
//! the batch it will never send and failing their later sends. Peers fold
//! into [`RuntimeError::Aborted`], the coordinator joins everyone, and
//! [`RuntimeExecutor::run`] returns the most informative error; a panic
//! surfaces as [`RuntimeError::WorkerPanic`].
//!
//! [`SyncExecutor`]: selfstab_engine::sync::SyncExecutor

use crate::barrier::PoisonBarrier;
use crate::channel::{mailbox, Receiver, Sender};
use crate::chaos::{FaultPlan, FrameFate};
use crate::wire::{frame_extent, Beacon};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::partition::Partition;
use selfstab_engine::active::Schedule;
use selfstab_engine::adversary::{AsymPlan, ByzPlan, Perception};
use selfstab_engine::kernel::Kernel;
use selfstab_engine::obs::{
    Observer, Phase, PhaseSpans, RoundProfile, RoundStats, RuntimeCounters, ShardProfile,
};
use selfstab_engine::protocol::{InitialState, Protocol, WireError, WireState};
use selfstab_engine::sync::{Outcome, Run};
use selfstab_graph::{Graph, Node};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a sharded run failed. The runtime returns errors instead of
/// panicking worker threads: a malformed frame or an overflowing encode
/// surfaces here, with every worker joined and no thread left behind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A beacon failed to encode or decode on a shard boundary.
    Wire {
        /// Shard that hit the error.
        shard: usize,
        /// The underlying wire-format error.
        error: WireError,
    },
    /// A beacon carried a round tag other than the round being exchanged —
    /// the "at most one round in flight" invariant was violated.
    RoundTag {
        /// Shard that received the frame.
        shard: usize,
        /// Round tag carried by the frame.
        got: u32,
        /// Round tag the exchange expected.
        expected: u32,
    },
    /// `max_rounds` exceeds the `u32` beacon round-tag range.
    MaxRoundsOverflow {
        /// The requested round limit.
        max_rounds: usize,
    },
    /// A worker thread panicked (the panic payload goes to stderr; the run
    /// is torn down via the poisoned barrier).
    WorkerPanic {
        /// Shard whose worker panicked.
        shard: usize,
    },
    /// A worker shut down because a peer failed first; the peer's error is
    /// reported instead of this one whenever the coordinator has it.
    Aborted {
        /// Shard that observed the teardown.
        shard: usize,
    },
    /// The configured [`FaultPlan`] is inconsistent with this executor
    /// (out-of-range probabilities or a crash aimed at a nonexistent
    /// shard); rejected before any worker spawns.
    InvalidPlan {
        /// What was wrong with the plan.
        reason: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Wire { shard, error } => {
                write!(f, "shard {shard}: beacon wire error: {error}")
            }
            RuntimeError::RoundTag {
                shard,
                got,
                expected,
            } => write!(
                f,
                "shard {shard}: beacon round tag {got} arrived during round {expected}"
            ),
            RuntimeError::MaxRoundsOverflow { max_rounds } => write!(
                f,
                "max_rounds {max_rounds} exceeds the u32 beacon round-tag range"
            ),
            RuntimeError::WorkerPanic { shard } => write!(f, "shard {shard}: worker panicked"),
            RuntimeError::Aborted { shard } => {
                write!(f, "shard {shard}: aborted after a peer shard failed")
            }
            RuntimeError::InvalidPlan { reason } => write!(f, "invalid fault plan: {reason}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Wire { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// How much a worker's error explains about the root cause; the
/// coordinator reports the highest-ranked one.
fn error_rank(e: &RuntimeError) -> u8 {
    match e {
        RuntimeError::Wire { .. }
        | RuntimeError::RoundTag { .. }
        | RuntimeError::InvalidPlan { .. } => 3,
        RuntimeError::MaxRoundsOverflow { .. } => 2,
        RuntimeError::WorkerPanic { .. } => 1,
        RuntimeError::Aborted { .. } => 0,
    }
}

/// Sharded message-passing executor with [`SyncExecutor`]-identical
/// synchronous-round semantics.
///
/// [`SyncExecutor`]: selfstab_engine::sync::SyncExecutor
pub struct RuntimeExecutor<'a, P: Protocol>
where
    P::State: WireState,
{
    graph: &'a Graph,
    proto: &'a P,
    partition: Partition,
    schedule: Schedule,
    chaos: Option<FaultPlan>,
}

/// Everything a worker thread needs to run its shard.
struct ShardPlan {
    owned: Vec<Node>,
    /// Per neighbor shard, the boundary nodes whose beacons it needs. All
    /// of a target's frames travel as one concatenated batch message per
    /// round, in deterministic (shard, node) order.
    sends: Vec<(usize, Vec<Node>)>,
    /// Batch messages this shard receives per round (= number of shards
    /// with an edge into it; static for a fixed partition, under either
    /// schedule — delta rounds send empty batches rather than none).
    expected_in: usize,
}

/// One applied round as journaled by a worker (observer replay input).
struct RoundJournal<S> {
    moves: Vec<(Node, usize, S)>,
    moves_per_rule: Vec<u64>,
    evaluated: usize,
    /// This round's exchange counters.
    xch: ExchangeStats,
    duration_micros: u64,
    /// Byzantine rewrites this worker's owned nodes took this round,
    /// applied *after* `moves` (replay applies them in the same order).
    byz: Vec<(Node, S)>,
    /// Inbound directions the asymmetric-link model held down this round.
    asym_down: u64,
    /// The rehydrated owned states, when this worker crash-restarted at the
    /// top of this round (replay applies them before the round's moves).
    restart: Option<Vec<(Node, S)>>,
    /// Phase spans for this round (compute / encode / send / recv_wait /
    /// barrier_wait / rehydrate).
    spans: PhaseSpans,
}

/// What a worker hands back to the coordinator.
struct WorkerOut<S> {
    shard: usize,
    owned_final: Vec<(Node, S)>,
    moves_per_rule: Vec<u64>,
    rounds: usize,
    outcome: Outcome,
    journal: Vec<RoundJournal<S>>,
}

impl<'a, P: Protocol> RuntimeExecutor<'a, P>
where
    P::State: WireState,
{
    /// New executor over `shards` worker shards (coarsening-based
    /// partition, [`Schedule::Active`] delta beacons).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(graph: &'a Graph, proto: &'a P, shards: usize) -> Self {
        Self::from_partition(graph, proto, Partition::coarsened(graph, shards))
    }

    /// New executor over a precomputed shard assignment, skipping the
    /// O(n+m) coarsening run entirely. The node→shard map is a function of
    /// node identity only, so a partition stays valid across edge churn on
    /// a fixed node set — `run_churned_sharded` reuses one across many waves
    /// (send/receive plans are still re-derived from the current graph
    /// each run).
    ///
    /// # Panics
    /// Panics if the partition was built for a different node count.
    pub fn from_partition(graph: &'a Graph, proto: &'a P, partition: Partition) -> Self {
        assert_eq!(
            partition.shard_of.len(),
            graph.n(),
            "partition covers a different node set"
        );
        RuntimeExecutor {
            graph,
            proto,
            partition,
            schedule: Schedule::default(),
            chaos: None,
        }
    }

    /// Choose between full per-round re-evaluation/re-broadcast and the
    /// active schedule (dirty-node evaluation + delta beacons). Results are
    /// identical; only evaluations and wire traffic differ.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Install a deterministic chaos [`FaultPlan`]: dropped / duplicated /
    /// delayed / bit-corrupted boundary beacons and scheduled shard
    /// crash-restarts. With no plan the executor is byte-for-byte the clean
    /// runtime (no per-frame decision is ever consulted); with a plan the
    /// run stays fully deterministic in the plan's seed. The plan is
    /// validated by [`RuntimeExecutor::run`], which returns
    /// [`RuntimeError::InvalidPlan`] for out-of-range probabilities or a
    /// crash aimed at a nonexistent shard.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The topology this executor runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The shard assignment in use.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of shards (= worker threads).
    pub fn shards(&self) -> usize {
        self.partition.k()
    }

    /// Per-shard send/receive plans, derived once from the partition.
    fn plans(&self) -> Vec<ShardPlan> {
        let k = self.partition.k();
        let shard_of = &self.partition.shard_of;
        let mut plans: Vec<ShardPlan> = self
            .partition
            .shards
            .iter()
            .map(|owned| ShardPlan {
                owned: owned.clone(),
                sends: Vec::new(),
                expected_in: 0,
            })
            .collect();
        let mut pairs: Vec<Vec<(usize, Node)>> = vec![Vec::new(); k];
        for v in self.graph.nodes() {
            let s = shard_of[v.index()] as usize;
            let mut targets: Vec<usize> = self
                .graph
                .neighbors(v)
                .iter()
                .map(|w| shard_of[w.index()] as usize)
                .filter(|&t| t != s)
                .collect();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                pairs[s].push((t, v));
            }
        }
        for (s, mut list) in pairs.into_iter().enumerate() {
            list.sort_unstable();
            for (t, v) in list {
                let appended = match plans[s].sends.last_mut() {
                    Some((last, nodes)) if *last == t => {
                        nodes.push(v);
                        true
                    }
                    _ => false,
                };
                if !appended {
                    plans[s].sends.push((t, vec![v]));
                    plans[t].expected_in += 1;
                }
            }
        }
        debug_assert_eq!(k, plans.len());
        plans
    }

    /// Execute from `init` for at most `max_rounds` rounds.
    pub fn run(
        &self,
        init: InitialState<P::State>,
        max_rounds: usize,
    ) -> Result<Run<P::State>, RuntimeError> {
        self.run_observed(init, max_rounds, &mut ())
    }

    /// Execute, firing [`Observer`] hooks with the same call pattern as
    /// [`SyncExecutor::run_observed`] (moves reported in global node order)
    /// plus per-round [`RuntimeCounters`] in [`RoundStats::runtime`].
    ///
    /// Unlike the serial executor there is no cycle detection: a
    /// non-stabilizing execution ends with [`Outcome::RoundLimit`]. Workers
    /// journal their rounds locally (only when `O::ENABLED`) and the hooks
    /// replay on the calling thread after the workers join, so observers
    /// need not be `Send`.
    ///
    /// [`SyncExecutor::run_observed`]: selfstab_engine::sync::SyncExecutor::run_observed
    pub fn run_observed<O: Observer<P::State>>(
        &self,
        init: InitialState<P::State>,
        max_rounds: usize,
        obs: &mut O,
    ) -> Result<Run<P::State>, RuntimeError> {
        // Beacon round tags are u32; rounds never exceed max_rounds, so
        // checking the limit once makes every later cast exact.
        if u32::try_from(max_rounds).is_err() {
            return Err(RuntimeError::MaxRoundsOverflow { max_rounds });
        }
        let k = self.partition.k();
        if let Some(fault) = &self.chaos {
            fault
                .check_probabilities()
                .map_err(|reason| RuntimeError::InvalidPlan { reason })?;
            if let Some(c) = fault.crashes.iter().find(|c| c.shard >= k) {
                return Err(RuntimeError::InvalidPlan {
                    reason: format!("crash shard {} out of range (shards = {k})", c.shard),
                });
            }
            if let Some(b) = fault.byz.iter().find(|b| b.index() >= self.graph.n()) {
                return Err(RuntimeError::InvalidPlan {
                    reason: format!(
                        "byzantine node {} out of range (n = {})",
                        b.0,
                        self.graph.n()
                    ),
                });
            }
        }
        let initial = init.materialize(self.graph, self.proto);
        let plans = self.plans();

        // One mailbox per shard; every worker can send to every shard's
        // mailbox.
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..k).map(|_| mailbox::<Vec<u8>>()).unzip();

        let barrier = PoisonBarrier::new(k);
        // Parity-indexed global move accumulators: round r adds to slot
        // r % 2; the slot is re-zeroed (by the second barrier's leader)
        // only after every worker has read it.
        let accum = [AtomicU64::new(0), AtomicU64::new(0)];
        let journal_enabled = O::ENABLED;
        let schedule = self.schedule;
        let fault = self.chaos.as_ref();

        let results: Vec<Result<WorkerOut<P::State>, RuntimeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .into_iter()
                .zip(receivers)
                .enumerate()
                .map(|(shard, (plan, mailbox))| {
                    let senders = &senders[..];
                    let states = initial.clone();
                    let barrier = &barrier;
                    let accum = &accum;
                    scope.spawn(move || {
                        run_shard(
                            ShardCtx {
                                shard,
                                graph: self.graph,
                                proto: self.proto,
                                plan,
                                senders,
                                mailbox,
                                barrier,
                                accum,
                                max_rounds,
                                schedule,
                                journal_enabled,
                                fault,
                            },
                            states,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(shard, h)| match h.join() {
                    Ok(result) => result,
                    // The drop guard already released the peers.
                    Err(_) => Err(RuntimeError::WorkerPanic { shard }),
                })
                .collect()
        });

        let mut outs: Vec<WorkerOut<P::State>> = Vec::with_capacity(k);
        let mut error: Option<RuntimeError> = None;
        for result in results {
            match result {
                Ok(out) => outs.push(out),
                Err(e) => {
                    error = Some(match error.take() {
                        Some(prev) if error_rank(&prev) >= error_rank(&e) => prev,
                        _ => e,
                    })
                }
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        outs.sort_by_key(|o| o.shard);

        // All workers take identical termination decisions.
        let rounds = outs[0].rounds;
        let outcome = outs[0].outcome.clone();
        debug_assert!(outs
            .iter()
            .all(|o| o.rounds == rounds && o.outcome == outcome));

        let mut moves_per_rule = vec![0u64; self.proto.rule_names().len()];
        let mut final_states = initial.clone();
        for out in &outs {
            for (acc, &m) in moves_per_rule.iter_mut().zip(&out.moves_per_rule) {
                *acc += m;
            }
            for (v, s) in &out.owned_final {
                final_states[v.index()] = s.clone();
            }
        }

        if O::ENABLED {
            replay_journals(obs, &initial, &final_states, &outcome, rounds, &outs);
        }

        Ok(Run {
            final_states,
            rounds,
            moves_per_rule,
            outcome,
            trace: None,
        })
    }
}

/// Borrowed context for one shard worker.
struct ShardCtx<'scope, P: Protocol> {
    shard: usize,
    graph: &'scope Graph,
    proto: &'scope P,
    plan: ShardPlan,
    senders: &'scope [Sender<Vec<u8>>],
    mailbox: Receiver<Vec<u8>>,
    barrier: &'scope PoisonBarrier,
    accum: &'scope [AtomicU64; 2],
    max_rounds: usize,
    schedule: Schedule,
    journal_enabled: bool,
    fault: Option<&'scope FaultPlan>,
}

/// A delayed beacon buffered sender-side by chaos injection.
struct DelayedFrame<S> {
    deliver_round: usize,
    /// Index into `ShardPlan::sends`.
    slot: usize,
    /// Index of the node within that send entry's node list.
    pos: usize,
    node: Node,
    state: S,
}

/// Per-worker chaos bookkeeping, allocated only when a plan is installed.
///
/// `acked[slot][pos]` models the value the target shard's ghost of that
/// boundary node *actually* holds, maintained from the sender-side fate
/// decisions (which are deterministic, so the model is exact): delivered
/// and duplicated frames update it, dropped and corrupted frames leave it,
/// delayed frames update it at delivery. `None` means unknown (the target
/// crashed and rehydrated arbitrary ghosts). A boundary beacon is
/// (re-)sent whenever the model disagrees with the node's current state,
/// which is what repairs chaos losses; and the run may not report
/// `Stabilized` while any entry disagrees — that is the signal preventing
/// false stabilization on stale ghosts.
struct ChaosState<S> {
    acked: Vec<Vec<Option<S>>>,
    delayed: Vec<DelayedFrame<S>>,
    /// Whether the last exchange left any `acked` entry out of sync.
    lagging: bool,
}

/// Releases every peer of a failing worker, so each fails over to
/// [`RuntimeError::Aborted`] instead of hanging: poisoning the barrier wakes
/// peers parked on it, and closing every mailbox wakes peers blocked in a
/// receive. Fires on an error return and, from `drop`, on a panic.
struct FailGuard<'a> {
    barrier: &'a PoisonBarrier,
    senders: &'a [Sender<Vec<u8>>],
}

impl FailGuard<'_> {
    fn fail(&self) {
        self.barrier.poison();
        for tx in self.senders {
            tx.close();
        }
    }
}

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.fail();
        }
    }
}

/// The worker entry point: run the loop, and on *any* failure release every
/// peer before returning so none is left waiting.
fn run_shard<P: Protocol>(
    ctx: ShardCtx<'_, P>,
    states: Vec<P::State>,
) -> Result<WorkerOut<P::State>, RuntimeError>
where
    P::State: WireState,
{
    let guard = FailGuard {
        barrier: ctx.barrier,
        senders: ctx.senders,
    };
    let result = shard_loop(ctx, states);
    if let Err(e) = &result {
        guard.fail();
        debug_assert!(!matches!(e, RuntimeError::WorkerPanic { .. }));
    }
    result
}

/// The worker loop: evaluate → agree on the global move count → decide →
/// apply → exchange. Evaluation and application are one [`Kernel`] step
/// over the owned nodes; the rest of the loop is the distribution.
fn shard_loop<P: Protocol>(
    ctx: ShardCtx<'_, P>,
    mut states: Vec<P::State>,
) -> Result<WorkerOut<P::State>, RuntimeError>
where
    P::State: WireState,
{
    let ShardCtx {
        shard,
        graph,
        proto,
        plan,
        senders,
        mailbox,
        barrier,
        accum,
        max_rounds,
        schedule,
        journal_enabled,
        fault,
    } = ctx;
    let n = states.len();
    let rules = proto.rule_names().len();
    // Chaos bookkeeping; ghosts are seeded from the shared initial state,
    // so every modeled ghost starts in sync.
    let mut chaos: Option<ChaosState<P::State>> = fault.map(|_| ChaosState {
        acked: plan
            .sends
            .iter()
            .map(|(_, nodes)| {
                nodes
                    .iter()
                    .map(|&v| Some(states[v.index()].clone()))
                    .collect()
            })
            .collect(),
        delayed: Vec::new(),
        lagging: false,
    });
    // Adversarial sub-plans. Hashes are keyed on node identity and the
    // round — never on shards — so every worker takes the same decisions
    // the serial executor would.
    let byz: Option<ByzPlan> = fault.and_then(|f| f.byz_plan());
    let asym: Option<AsymPlan> = fault.and_then(|f| f.asym_plan());
    // Perceived-neighbor-state rows for this worker's owned nodes. The
    // neighbor entries read during refresh are owned states or ghosts,
    // which (absent frame chaos) equal the serial executor's states at
    // every round start — so the perceived views match serially too.
    let mut perception: Option<Perception<P::State>> = asym
        .as_ref()
        .map(|_| Perception::new(graph, &plan.owned, &states));
    // The round step over the owned nodes. Its worklists span all n nodes:
    // seeding a received beacon's node is how it dirties its owned
    // neighbors. Every worker starts from the full set, so the owned parts
    // of the per-worker worklists split the serial worklist in every round.
    let mut kernel = Kernel::for_shard(schedule, n, rules, &plan.owned);
    // Under the active schedule, the round's movers as a mask (only their
    // boundary beacons are sent), and as the list that clears it.
    let mut moved = (schedule == Schedule::Active).then(|| vec![false; n]);
    let mut movers: Vec<Node> = Vec::new();
    let mut arrived: Vec<Node> = Vec::new();

    let mut moves_per_rule = vec![0u64; rules];
    let mut journal = Vec::new();
    let mut round = 0usize;
    let abort = |shard| RuntimeError::Aborted { shard };
    let outcome = loop {
        let timer = journal_enabled.then(std::time::Instant::now);
        let mut spans = journal_enabled.then(PhaseSpans::new);

        // Injected crash-restarts fire at the top of the round, before
        // evaluation. Every worker consults the same plan, so the peers of
        // a crashed shard know to distrust their model of its ghosts. An
        // injected crash never touches the barrier: the round protocol
        // resumes with the rehydrated worker, while a *real* panic still
        // poisons the barrier through the PanicGuard.
        let mut pending_restart: Option<Vec<(Node, P::State)>> = None;
        let t_rehydrate = journal_enabled.then(std::time::Instant::now);
        let mut rehydrated = false;
        if let (Some(f), Some(ch)) = (fault, chaos.as_mut()) {
            if round < max_rounds {
                for crashed in f.crashes_at(round) {
                    if crashed == shard {
                        // This worker "crashes": it loses every state entry
                        // — owned and ghost — and rehydrates arbitrarily,
                        // exactly the adversarial restart of the paper's
                        // fault model.
                        let mut rng = StdRng::seed_from_u64(f.restart_seed(shard, round));
                        for v in graph.nodes() {
                            states[v.index()] =
                                proto.arbitrary_state(v, graph.neighbors(v), &mut rng);
                        }
                        // A restarted node has no memory of who it told
                        // what: rebroadcast everything until re-acked.
                        for row in &mut ch.acked {
                            row.fill(None);
                        }
                        ch.delayed.clear();
                        ch.lagging = true;
                        // Every owned node must re-enter evaluation.
                        kernel.seed(graph, plan.owned.iter().copied());
                        rehydrated = true;
                        if journal_enabled {
                            pending_restart = Some(
                                plan.owned
                                    .iter()
                                    .map(|&v| (v, states[v.index()].clone()))
                                    .collect(),
                            );
                        }
                    } else {
                        // A peer crashed: its ghosts of our boundary nodes
                        // are garbage now, whatever we delivered before.
                        for (si, (t, _)) in plan.sends.iter().enumerate() {
                            if *t == crashed {
                                ch.acked[si].fill(None);
                                ch.lagging = true;
                            }
                        }
                    }
                }
            }
        }

        if rehydrated {
            if let (Some(t0), Some(sp)) = (t_rehydrate, spans.as_mut()) {
                sp.add_nanos(Phase::Rehydrate, t0.elapsed().as_nanos() as u64);
            }
        }

        let byz_hot = byz.as_ref().is_some_and(|b| b.hot(round));
        let asym_live = asym.as_ref().is_some_and(|a| a.hot(round));
        let asym_sweep = asym.as_ref().is_some_and(|a| a.sweep(round));
        // Deliver this round's inbound beacons under the asymmetric-link
        // model (after any crash rehydration, mirroring the serial order).
        // Evaluation then runs on the perceived views (worklist pruning is
        // unsound while links fail — see `AsymPlan::sweep`).
        let mut asym_down = 0u64;
        if asym_live {
            if let (Some(a), Some(per)) = (asym.as_ref(), perception.as_mut()) {
                asym_down = per.refresh(graph, a, round, &states);
            }
        } else if asym_sweep {
            // Catch-up round after the window closes: true views, but every
            // owned node — perception may have just caught up, changing
            // views without any neighbor moving.
            kernel.seed(graph, plan.owned.iter().copied());
        }
        let perceived = perception.as_ref().filter(|_| asym_live);
        let privileged = span(spans.as_mut(), Phase::Compute, || {
            kernel.evaluate(graph, proto, &states, perceived, false)
        });

        // Under a chaos plan a worker must keep the run alive — even with
        // zero privileged nodes anywhere — while a receiver's ghost is
        // known-stale (lost frames awaiting re-broadcast), a delayed frame
        // is still buffered, or a crash is still scheduled. Otherwise the
        // run could report `Stabilized` from views the faults made stale.
        // A hot Byzantine adversary will keep rewriting states, and a
        // lagging perception can still surface moves once missed beacons
        // land: both also keep the run alive (the serial executor's
        // `byz_hot` / `asym_keep` terms in its stabilization check).
        let asym_keep = perceived.is_some_and(|p| p.lagging());
        let signal = byz_hot
            || asym_keep
            || match (fault, chaos.as_ref()) {
                (Some(f), Some(ch)) => {
                    ch.lagging || !ch.delayed.is_empty() || f.crash_pending(round)
                }
                _ => false,
            };
        let slot = &accum[round % 2];
        slot.fetch_add(privileged as u64 + u64::from(signal), Ordering::SeqCst);
        span(spans.as_mut(), Phase::BarrierWait, || barrier.wait()).map_err(|_| abort(shard))?;
        let total = slot.load(Ordering::SeqCst);
        if span(spans.as_mut(), Phase::BarrierWait, || barrier.wait()).map_err(|_| abort(shard))? {
            // Safe: every worker has read `slot`, and its next write is two
            // rounds away, behind the next barrier.
            slot.store(0, Ordering::SeqCst);
        }

        if total == 0 {
            break Outcome::Stabilized;
        }
        if round >= max_rounds {
            // Mirror SyncExecutor: the computed moves are NOT applied.
            break Outcome::RoundLimit;
        }

        // Byzantine writes for this worker's owned compromised nodes,
        // computed from the round's *pre-apply* snapshot (the states every
        // node evaluated on) and applied after the honest moves — "as if
        // the node moved". Keyed on (seed, round, node) only, and a node's
        // neighbors are owned states or ghosts equal to the serial
        // executor's, so every shard count produces the serial writes.
        let mut byz_writes: Vec<(Node, P::State)> = if byz_hot {
            let bp = byz.as_ref().expect("byz_hot implies a plan");
            plan.owned
                .iter()
                .filter(|&&v| bp.is_byz(v))
                .map(|&b| (b, bp.state_for(proto, graph, b, round, &states)))
                .collect()
        } else {
            Vec::new()
        };

        // The movers drive the journal and delta-beacon suppression; read
        // them before `apply` consumes the buffer.
        let journal_moves: Option<Vec<_>> = journal_enabled.then(|| {
            let pending = kernel.pending().iter();
            pending.map(|(v, m)| (*v, m.rule, m.next.clone())).collect()
        });
        if let Some(moved) = moved.as_mut() {
            for &(v, _) in kernel.pending() {
                moved[v.index()] = true;
                movers.push(v);
            }
        }
        round += 1;
        // The kernel skips (and drops from `byz_writes`) a rewrite matching
        // the node's current state, as the serial executor does.
        let stats = kernel.apply(round, graph, &mut states, &mut byz_writes, &mut ());
        for (total, k) in moves_per_rule.iter_mut().zip(&stats.moves_per_rule) {
            *total += k;
        }
        if let Some(ch) = chaos.as_mut() {
            // Receivers dirty on beacon arrival, so invalidate a rewritten
            // node's acked entries to force its beacon out — the value
            // alone can't drive the send, because a rewrite may land back
            // on the value the receivers' ghosts already hold (honest move
            // reverted within the same round).
            for (b, _) in &byz_writes {
                for (si, (_, nodes)) in plan.sends.iter().enumerate() {
                    if let Ok(j) = nodes.binary_search(b) {
                        ch.acked[si][j] = None;
                    }
                }
            }
        }

        let xch = exchange::<P>(
            shard,
            round,
            &plan,
            senders,
            &mailbox,
            &mut states,
            moved.as_deref(),
            &mut arrived,
            fault,
            chaos.as_mut(),
            spans.as_mut(),
        )?;
        // A received beacon means its sender changed this round: its
        // closed neighborhood (our side of it) is dirty for the next.
        kernel.seed(graph, arrived.drain(..));
        if let Some(moved) = moved.as_mut() {
            for v in movers.drain(..) {
                moved[v.index()] = false;
            }
        }

        if journal_enabled {
            journal.push(RoundJournal {
                moves: journal_moves.unwrap_or_default(),
                moves_per_rule: stats.moves_per_rule,
                evaluated: stats.evaluated,
                xch,
                duration_micros: timer.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0),
                byz: byz_writes,
                asym_down,
                restart: pending_restart,
                spans: spans.unwrap_or_default(),
            });
        }
    };

    Ok(WorkerOut {
        shard,
        owned_final: plan
            .owned
            .iter()
            .map(|&v| (v, states[v.index()].clone()))
            .collect(),
        moves_per_rule,
        rounds: round,
        outcome,
        journal,
    })
}

/// One worker's counters for one round's exchange.
#[derive(Default)]
struct ExchangeStats {
    frames: u64,
    suppressed: u64,
    bytes: u64,
    max_depth: u64,
    /// Chaos counters (all zero without a plan).
    dropped: u64,
    duped: u64,
    delayed: u64,
    corrupted: u64,
    /// This worker's mailbox high-water mark for the round (consumed and
    /// reset at the round boundary via `Receiver::take_max_depth`).
    inbox_max_depth: u64,
    /// Mailbox depth left after the round's exchange drained (normally 0).
    inbox_depth: u64,
}

/// Run `f`, attributing its wall-clock to `phase` when profiling is on
/// (`spans` is `Some` exactly when the observer is enabled — the
/// unobserved path takes the `None` arm and never reads a clock).
#[inline]
fn span<T>(spans: Option<&mut PhaseSpans>, phase: Phase, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => {
            let t0 = std::time::Instant::now();
            let out = f();
            spans.add_nanos(phase, t0.elapsed().as_nanos() as u64);
            out
        }
        None => f(),
    }
}

/// Send the post-round boundary states out, then take the neighbors' in:
/// encode and send every batch of `plan.sends` in order, then block on the
/// mailbox for exactly `plan.expected_in` batches. When `moved` is given
/// (active schedule), unmoved boundary nodes are suppressed from the batch
/// — an empty batch still travels, so `expected_in` stays static. Every
/// received beacon's node is pushed onto `arrived`.
#[allow(clippy::too_many_arguments)]
fn exchange<P: Protocol>(
    shard: usize,
    round: usize,
    plan: &ShardPlan,
    senders: &[Sender<Vec<u8>>],
    mailbox: &Receiver<Vec<u8>>,
    states: &mut [P::State],
    moved: Option<&[bool]>,
    arrived: &mut Vec<Node>,
    fault: Option<&FaultPlan>,
    mut chaos: Option<&mut ChaosState<P::State>>,
    mut prof: Option<&mut PhaseSpans>,
) -> Result<ExchangeStats, RuntimeError>
where
    P::State: WireState,
{
    let mut stats = ExchangeStats::default();
    // Exact: run_observed rejects max_rounds beyond u32 up front.
    let round_tag = round as u32;
    for (si, (t, nodes)) in plan.sends.iter().enumerate() {
        let t_enc = prof.is_some().then(std::time::Instant::now);
        // Batch every beacon bound for shard `t` into one message.
        let mut batch = Vec::with_capacity(nodes.len() * (crate::wire::HEADER_LEN + 8));
        let mut frames = 0u64;
        if let (Some(f), Some(ch)) = (fault, chaos.as_deref_mut()) {
            // Chaos path. First re-deliver any frames whose delay
            // expires this round, *before* fresh frames, so a fresh
            // value for the same node deterministically wins.
            let mut di = 0;
            while di < ch.delayed.len() {
                if ch.delayed[di].slot == si && ch.delayed[di].deliver_round == round {
                    let d = ch.delayed.remove(di);
                    Beacon {
                        // Tagged with the *delivery* round: the staleness
                        // is in the value, the frame itself obeys the
                        // one-round-in-flight invariant.
                        round: round_tag,
                        node: d.node,
                        state: d.state.clone(),
                    }
                    .encode_into(&mut batch)
                    .map_err(|error| RuntimeError::Wire { shard, error })?;
                    frames += 1;
                    ch.acked[si][d.pos] = Some(d.state);
                } else {
                    di += 1;
                }
            }
            // Fresh frames: under the active schedule, a beacon is sent
            // iff the modeled receiver ghost disagrees with the current
            // state — which both restores delta suppression *and*
            // re-broadcasts anything chaos lost until it lands. The
            // full schedule stays paper-literal and sends everything.
            for (j, &v) in nodes.iter().enumerate() {
                let cur = &states[v.index()];
                if moved.is_some() && ch.acked[si][j].as_ref() == Some(cur) {
                    stats.suppressed += 1;
                    continue;
                }
                match f.fate(round, v, *t) {
                    FrameFate::Drop => stats.dropped += 1,
                    FrameFate::Delay => {
                        ch.delayed.push(DelayedFrame {
                            deliver_round: round + f.delay_rounds,
                            slot: si,
                            pos: j,
                            node: v,
                            state: cur.clone(),
                        });
                        stats.delayed += 1;
                    }
                    fate @ (FrameFate::Deliver | FrameFate::Duplicate) => {
                        let copies = if fate == FrameFate::Duplicate { 2 } else { 1 };
                        for _ in 0..copies {
                            Beacon {
                                round: round_tag,
                                node: v,
                                state: cur.clone(),
                            }
                            .encode_into(&mut batch)
                            .map_err(|error| RuntimeError::Wire { shard, error })?;
                            frames += 1;
                        }
                        if copies == 2 {
                            stats.duped += 1;
                        }
                        ch.acked[si][j] = Some(cur.clone());
                    }
                    FrameFate::Corrupt => {
                        let start = batch.len();
                        Beacon {
                            round: round_tag,
                            node: v,
                            state: cur.clone(),
                        }
                        .encode_into(&mut batch)
                        .map_err(|error| RuntimeError::Wire { shard, error })?;
                        f.corrupt_frame(round, v, &mut batch[start..]);
                        frames += 1;
                        // The receiver detects and discards the frame;
                        // `acked` stays stale, forcing a re-broadcast.
                    }
                }
            }
        } else {
            for &v in nodes {
                if let Some(moved) = moved {
                    if !moved[v.index()] {
                        stats.suppressed += 1;
                        continue;
                    }
                }
                Beacon {
                    round: round_tag,
                    node: v,
                    state: states[v.index()].clone(),
                }
                .encode_into(&mut batch)
                .map_err(|error| RuntimeError::Wire { shard, error })?;
                frames += 1;
            }
        }
        if let (Some(t0), Some(sp)) = (t_enc, prof.as_mut()) {
            sp.add_nanos(Phase::Encode, t0.elapsed().as_nanos() as u64);
        }
        let t_send = prof.is_some().then(std::time::Instant::now);
        let len = batch.len() as u64;
        // A closed mailbox means a peer failed; fold into the abort path
        // (the peer's own error outranks ours).
        let depth = senders[*t]
            .send(batch)
            .map_err(|_| RuntimeError::Aborted { shard })?;
        stats.frames += frames;
        stats.bytes += len;
        stats.max_depth = stats.max_depth.max(depth as u64);
        if let (Some(t0), Some(sp)) = (t_send, prof.as_mut()) {
            sp.add_nanos(Phase::Send, t0.elapsed().as_nanos() as u64);
        }
    }

    // Waiting and decoding both bill to `recv_wait`: from the shard's point
    // of view it is the time spent waiting on (or absorbing) the rest of
    // the cluster.
    let t_recv = prof.is_some().then(std::time::Instant::now);
    for _ in 0..plan.expected_in {
        // `None` means a failing peer closed the mailbox.
        let bytes = mailbox.recv().ok_or(RuntimeError::Aborted { shard })?;
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let (beacon, used) = match Beacon::<P::State>::decode_prefix(rest) {
                Ok(decoded) => decoded,
                Err(error) => {
                    // Under a fault plan a bit-corrupted frame is an
                    // *expected* event: strict decoding is the detection
                    // mechanism, and the untouched length field lets us
                    // discard exactly the bad frame and keep walking the
                    // batch. Without a plan (or if the extent itself is
                    // gone) a malformed frame is still fatal.
                    if fault.is_some() {
                        if let Some(extent) = frame_extent(rest) {
                            stats.corrupted += 1;
                            rest = &rest[extent..];
                            continue;
                        }
                    }
                    return Err(RuntimeError::Wire { shard, error });
                }
            };
            if beacon.round != round_tag {
                return Err(RuntimeError::RoundTag {
                    shard,
                    got: beacon.round,
                    expected: round_tag,
                });
            }
            states[beacon.node.index()] = beacon.state;
            arrived.push(beacon.node);
            rest = &rest[used..];
        }
    }
    if let (Some(t0), Some(sp)) = (t_recv, prof.as_mut()) {
        sp.add_nanos(Phase::RecvWait, t0.elapsed().as_nanos() as u64);
    }
    if let (Some(_), Some(ch)) = (fault, chaos) {
        // A ghost we model as stale (or unknown, after a crash) means the
        // global state is not yet coherent: raise the lagging signal so
        // this round cannot report stabilization. Receiving beacons above
        // only wrote *ghost* entries, never this worker's owned boundary
        // states, so the `acked` rows compared here are still current.
        ch.lagging = plan.sends.iter().enumerate().any(|(si, (_, nodes))| {
            nodes
                .iter()
                .enumerate()
                .any(|(j, &v)| ch.acked[si][j].as_ref() != Some(&states[v.index()]))
        });
    }
    // Consume (and re-arm) the inbox high-water mark so each round's gauge
    // reflects that round alone. With at most one round in flight it never
    // exceeds the batches this shard expects, which is why the mailbox
    // needs no capacity.
    let inbox_max_depth = mailbox.take_max_depth();
    debug_assert!(
        inbox_max_depth <= plan.expected_in,
        "shard {shard}: inbox held {inbox_max_depth} batches, expected at most {}",
        plan.expected_in
    );
    if prof.is_some() {
        stats.inbox_max_depth = inbox_max_depth as u64;
        stats.inbox_depth = mailbox.depth() as u64;
    }
    Ok(stats)
}

/// Re-fire the observer hooks on the coordinator from the workers'
/// journals, in the serial executor's order: per round, moves sorted by
/// node.
fn replay_journals<S: Clone + PartialEq + std::fmt::Debug, O: Observer<S>>(
    obs: &mut O,
    initial: &[S],
    final_states: &[S],
    outcome: &Outcome,
    rounds: usize,
    outs: &[WorkerOut<S>],
) {
    let n_rules = outs
        .iter()
        .map(|o| o.moves_per_rule.len())
        .max()
        .unwrap_or(0);
    let mut states = initial.to_vec();
    for r in 0..rounds {
        obs.on_round_start(r + 1, &states);
        // An injected crash rehydrated the shard's owned states to
        // arbitrary values *before* this round's evaluation; the journal
        // carries them so the replayed trajectory matches the run.
        for out in outs {
            if let Some(rehydrated) = &out.journal[r].restart {
                for (v, s) in rehydrated {
                    states[v.index()] = s.clone();
                }
            }
        }
        let mut moves: Vec<&(Node, usize, S)> = outs
            .iter()
            .flat_map(|o| o.journal[r].moves.iter())
            .collect();
        moves.sort_by_key(|(v, _, _)| *v);
        let privileged = moves.len();
        for &(v, rule, ref next) in moves {
            states[v.index()] = next.clone();
            obs.on_move(v, rule, &states[v.index()]);
        }
        // Byzantine rewrites land after the honest moves (the workers'
        // apply order); they are not moves, so no on_move hook fires.
        for out in outs {
            for (b, s) in &out.journal[r].byz {
                states[b.index()] = s.clone();
            }
        }
        let mut moves_per_rule = vec![0u64; n_rules];
        let mut evaluated = 0usize;
        let mut runtime = RuntimeCounters {
            shard_moves: vec![0; outs.len()],
            ..RuntimeCounters::default()
        };
        let mut duration = 0u64;
        let mut profile = RoundProfile {
            shards: Vec::with_capacity(outs.len()),
        };
        for out in outs {
            let j = &out.journal[r];
            for (acc, &m) in moves_per_rule.iter_mut().zip(&j.moves_per_rule) {
                *acc += m;
            }
            evaluated += j.evaluated;
            runtime.shard_moves[out.shard] = j.moves_per_rule.iter().sum();
            runtime.frames += j.xch.frames;
            runtime.frames_suppressed += j.xch.suppressed;
            runtime.bytes_on_wire += j.xch.bytes;
            runtime.max_channel_depth = runtime.max_channel_depth.max(j.xch.max_depth);
            runtime.frames_dropped += j.xch.dropped;
            runtime.frames_duped += j.xch.duped;
            runtime.frames_delayed += j.xch.delayed;
            runtime.frames_corrupted += j.xch.corrupted;
            runtime.restarts += u64::from(j.restart.is_some());
            runtime.byz_rewrites += j.byz.len() as u64;
            runtime.asym_links_down += j.asym_down;
            duration = duration.max(j.duration_micros);
            profile.shards.push(ShardProfile {
                shard: out.shard,
                spans: j.spans.clone(),
                round_micros: j.duration_micros,
                inbox_max_depth: j.xch.inbox_max_depth,
                inbox_depth: j.xch.inbox_depth,
            });
        }
        profile.shards.sort_by_key(|s| s.shard);
        obs.on_round_end(
            &RoundStats {
                round: r + 1,
                privileged,
                evaluated,
                moves_per_rule,
                duration_micros: duration,
                beacon: None,
                runtime: Some(runtime),
                profile: Some(profile),
            },
            &states,
        );
    }
    debug_assert_eq!(states, final_states, "journal replay reproduces the run");
    obs.on_finish(outcome, final_states);
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_core::smi::Smi;
    use selfstab_core::smm::{SelectPolicy, Smm};
    use selfstab_engine::obs::{JsonlEventLog, MetricsCollector};
    use selfstab_engine::sync::SyncExecutor;
    use selfstab_graph::{generators, Ids};
    use selfstab_json::Json;

    /// Assert a runtime run matches the serial executor on the same inputs.
    /// The serial run is done under both schedules and the runtime under its
    /// default (active) schedule, so a pass pins all three to the same
    /// execution.
    fn assert_matches_sync<P: Protocol>(
        graph: &Graph,
        proto: &P,
        init: InitialState<P::State>,
        max_rounds: usize,
        shards: usize,
    ) where
        P::State: WireState,
    {
        let serial = SyncExecutor::new(graph, proto)
            .with_schedule(Schedule::Full)
            .run(init.clone(), max_rounds);
        let serial_active = SyncExecutor::new(graph, proto)
            .with_schedule(Schedule::Active)
            .run(init.clone(), max_rounds);
        assert_eq!(serial.outcome, serial_active.outcome, "outcome (schedule)");
        assert_eq!(serial.rounds, serial_active.rounds, "rounds (schedule)");
        assert_eq!(
            serial.final_states, serial_active.final_states,
            "final states (schedule)"
        );
        let sharded = RuntimeExecutor::new(graph, proto, shards)
            .run(init, max_rounds)
            .expect("runtime run failed");
        assert_eq!(serial.outcome, sharded.outcome, "outcome (shards={shards})");
        assert_eq!(serial.rounds, sharded.rounds, "rounds (shards={shards})");
        assert_eq!(
            serial.moves_per_rule, sharded.moves_per_rule,
            "moves per rule (shards={shards})"
        );
        assert_eq!(
            serial.final_states, sharded.final_states,
            "final states (shards={shards})"
        );
    }

    #[test]
    fn matches_sync_executor_on_smm() {
        let g = generators::grid(6, 5);
        let smm = Smm::paper(Ids::identity(g.n()));
        for shards in [1, 2, 4, 8] {
            for seed in 0..3 {
                assert_matches_sync(&g, &smm, InitialState::Random { seed }, g.n() + 1, shards);
            }
        }
    }

    #[test]
    fn matches_sync_executor_on_smi() {
        let g = generators::petersen();
        let smi = Smi::new(Ids::identity(g.n()));
        for shards in [1, 2, 4, 8] {
            assert_matches_sync(&g, &smi, InitialState::Random { seed: 11 }, 100, shards);
        }
    }

    #[test]
    fn full_schedule_matches_active_schedule() {
        let g = generators::grid(6, 6);
        let smm = Smm::paper(Ids::identity(g.n()));
        for seed in 0..3 {
            let init = InitialState::Random { seed };
            let full = RuntimeExecutor::new(&g, &smm, 4)
                .with_schedule(Schedule::Full)
                .run(init.clone(), g.n() + 1)
                .unwrap();
            let active = RuntimeExecutor::new(&g, &smm, 4)
                .with_schedule(Schedule::Active)
                .run(init, g.n() + 1)
                .unwrap();
            assert_eq!(full.final_states, active.final_states);
            assert_eq!(full.rounds, active.rounds);
            assert_eq!(full.moves_per_rule, active.moves_per_rule);
        }
    }

    #[test]
    fn active_schedule_suppresses_beacons_and_matches_serial_evaluated() {
        let g = generators::grid(8, 8);
        let smm = Smm::paper(Ids::identity(g.n()));
        let init = InitialState::Random { seed: 9 };

        let mut serial_m = MetricsCollector::new();
        SyncExecutor::new(&g, &smm).run_observed(init.clone(), g.n() + 1, &mut serial_m);

        let mut full_m = MetricsCollector::new();
        RuntimeExecutor::new(&g, &smm, 4)
            .with_schedule(Schedule::Full)
            .run_observed(init.clone(), g.n() + 1, &mut full_m)
            .unwrap();
        let mut active_m = MetricsCollector::new();
        RuntimeExecutor::new(&g, &smm, 4)
            .with_schedule(Schedule::Active)
            .run_observed(init, g.n() + 1, &mut active_m)
            .unwrap();

        assert_eq!(serial_m.rounds().len(), active_m.rounds().len());
        for ((s, f), a) in serial_m
            .rounds()
            .iter()
            .zip(full_m.rounds())
            .zip(active_m.rounds())
        {
            // The sharded active worklists partition the serial one.
            assert_eq!(a.evaluated, s.evaluated, "round {}", s.round);
            assert_eq!(f.evaluated, g.n(), "full schedule sweeps all nodes");
            let frt = f.runtime.as_ref().unwrap();
            let art = a.runtime.as_ref().unwrap();
            assert_eq!(frt.frames_suppressed, 0);
            assert_eq!(
                art.frames + art.frames_suppressed,
                frt.frames,
                "every boundary beacon is either sent or suppressed"
            );
            assert!(art.bytes_on_wire <= frt.bytes_on_wire);
        }
        // Convergence tail: some rounds must actually suppress traffic.
        assert!(
            active_m
                .rounds()
                .iter()
                .any(|r| r.runtime.as_ref().unwrap().frames_suppressed > 0),
            "active schedule never suppressed a beacon"
        );
    }

    #[test]
    fn fixpoint_start_is_zero_rounds() {
        let g = generators::path(8);
        let smi = Smi::new(Ids::identity(g.n()));
        // All-true on a path is not independent; all nodes in with no
        // neighbors out — use a stabilized state instead.
        let stable = SyncExecutor::new(&g, &smi).run_random(1, 100).final_states;
        let run = RuntimeExecutor::new(&g, &smi, 4)
            .run(InitialState::Explicit(stable), 100)
            .unwrap();
        assert!(run.stabilized());
        assert_eq!(run.rounds, 0);
        assert_eq!(run.total_moves(), 0);
    }

    #[test]
    fn round_limit_mirrors_sync_semantics() {
        // C4 under arbitrary-choice R2 (clockwise) oscillates forever; with
        // a round limit both executors must stop at the same (unapplied)
        // point.
        let g = generators::cycle(4);
        let smm = Smm::with_policies(
            Ids::identity(g.n()),
            SelectPolicy::Clockwise,
            SelectPolicy::Clockwise,
        );
        for shards in [1, 2, 4] {
            assert_matches_sync(&g, &smm, InitialState::Default, 13, shards);
        }
    }

    #[test]
    fn max_rounds_beyond_round_tag_range_is_rejected() {
        if usize::BITS <= 32 {
            return; // the overflow cannot be expressed on this target
        }
        let g = generators::path(4);
        let smi = Smi::new(Ids::identity(g.n()));
        let err = RuntimeExecutor::new(&g, &smi, 2)
            .run(InitialState::Default, (u32::MAX as usize) + 1)
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::MaxRoundsOverflow {
                max_rounds: (u32::MAX as usize) + 1
            }
        );
        // The boundary itself is fine.
        assert!(RuntimeExecutor::new(&g, &smi, 2)
            .run(InitialState::Random { seed: 1 }, u32::MAX as usize)
            .is_ok());
    }

    #[test]
    fn observer_replay_matches_serial_hooks() {
        let g = generators::grid(4, 4);
        let smm = Smm::paper(Ids::identity(g.n()));
        let init = InitialState::Random { seed: 3 };

        let mut serial_m = MetricsCollector::new();
        let serial =
            SyncExecutor::new(&g, &smm).run_observed(init.clone(), g.n() + 1, &mut serial_m);
        let mut sharded_m = MetricsCollector::new();
        let sharded = RuntimeExecutor::new(&g, &smm, 4)
            .run_observed(init, g.n() + 1, &mut sharded_m)
            .unwrap();

        assert_eq!(serial.final_states, sharded.final_states);
        assert_eq!(serial_m.rounds().len(), sharded_m.rounds().len());
        for (a, b) in serial_m.rounds().iter().zip(sharded_m.rounds()) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.privileged, b.privileged);
            assert_eq!(a.evaluated, b.evaluated);
            assert_eq!(a.moves_per_rule, b.moves_per_rule);
            let rt = b.runtime.as_ref().expect("runtime counters present");
            assert_eq!(
                rt.shard_moves.iter().sum::<u64>(),
                a.moves_per_rule.iter().sum::<u64>(),
                "shard moves partition the round's moves"
            );
        }
        assert_eq!(serial_m.outcome(), sharded_m.outcome());
    }

    #[test]
    fn mailbox_depth_never_exceeds_the_neighbouring_shards() {
        // One batch per directed shard pair per round and at most one round
        // in flight: no mailbox ever holds more than K − 1 batches, clean or
        // under frame chaos. That bound is why the mailbox has no capacity.
        // On the complete graph every shard sends every other one a batch,
        // so the bound is reachable.
        for g in [generators::grid(6, 6), generators::complete(12)] {
            let smm = Smm::paper(Ids::identity(g.n()));
            for shards in [2, 4, 8] {
                let plans = [
                    None,
                    Some(FaultPlan::parse_spec("drop=0.2,dup=0.2,delay=2", 7).unwrap()),
                ];
                for plan in plans {
                    let mut exec = RuntimeExecutor::new(&g, &smm, shards);
                    if let Some(plan) = plan {
                        exec = exec.with_chaos(plan);
                    }
                    let mut m = MetricsCollector::new();
                    exec.run_observed(InitialState::Random { seed: 3 }, 200, &mut m)
                        .unwrap();
                    assert!(!m.rounds().is_empty());
                    let bound = shards as u64 - 1;
                    for r in m.rounds() {
                        let rt = r.runtime.as_ref().unwrap();
                        assert!(rt.max_channel_depth <= bound, "round {}", r.round);
                        for lane in &r.profile.as_ref().unwrap().shards {
                            assert!(lane.inbox_max_depth <= bound, "round {}", r.round);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn jsonl_round_end_renders_the_collectors_runtime_object() {
        let g = generators::grid(6, 6);
        let smm = Smm::paper(Ids::identity(g.n()));
        let mut m = MetricsCollector::new();
        let mut log = JsonlEventLog::new();
        RuntimeExecutor::new(&g, &smm, 3)
            .run_observed(
                InitialState::Random { seed: 4 },
                g.n() + 1,
                &mut (&mut m, &mut log),
            )
            .unwrap();
        let collected = m.to_json();
        let collected = collected.get("rounds").and_then(Json::as_array).unwrap();
        let logged: Vec<Json> = log
            .lines()
            .iter()
            .map(|line| Json::parse(line).unwrap())
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("round_end"))
            .collect();
        assert!(!logged.is_empty());
        assert_eq!(logged.len(), collected.len());
        for (line, round) in logged.iter().zip(collected) {
            assert_eq!(line.get("runtime"), round.get("runtime"));
            assert!(line.get("runtime").is_some());
        }
    }

    #[test]
    fn more_shards_than_nodes() {
        let g = generators::path(3);
        let smi = Smi::new(Ids::identity(g.n()));
        assert_matches_sync(&g, &smi, InitialState::Random { seed: 2 }, 50, 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let g = generators::path(3);
        let smi = Smi::new(Ids::identity(g.n()));
        let _ = RuntimeExecutor::new(&g, &smi, 0);
    }
}
