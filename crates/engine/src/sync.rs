//! The synchronous daemon: the execution model of the paper.
//!
//! In each *round* every node has received beacons (states) from all its
//! neighbors and every privileged node fires its enabled rule
//! simultaneously. The executor applies rounds until a fixpoint, a detected
//! oscillation, or a round limit.
//!
//! Because the composed system is deterministic and the state space finite,
//! an execution either reaches a fixpoint or enters a cycle; with
//! [`SyncExecutor::with_cycle_detection`] enabled the executor distinguishes the
//! two exactly (used to *prove* the paper's C₄ counterexample oscillates
//! rather than merely time out).

use crate::active::Schedule;
use crate::adversary::{AsymPlan, ByzPlan, Perception};
use crate::faults::CrashAt;
use crate::kernel::Kernel;
use crate::obs::{Observer, Phase, RoundStats};
use crate::protocol::{InitialState, Move, Protocol};
use selfstab_graph::{Graph, Node};
use std::collections::HashMap;
use std::time::Instant;

/// Why an execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No node was privileged: a fixpoint was reached.
    Stabilized,
    /// The global state repeated: the execution oscillates forever.
    Cycle {
        /// Round at which the repeated state was first seen.
        first_seen: usize,
        /// Cycle length in rounds.
        period: usize,
    },
    /// The round limit was hit without fixpoint or (detected) cycle.
    RoundLimit,
}

/// The result of one synchronous execution.
#[derive(Clone, Debug)]
pub struct Run<S> {
    /// Global state when the execution ended.
    pub final_states: Vec<S>,
    /// Number of rounds in which at least one node moved.
    pub rounds: usize,
    /// Moves per rule (indexed like [`Protocol::rule_names`]).
    pub moves_per_rule: Vec<u64>,
    /// Why the execution ended.
    pub outcome: Outcome,
    /// Recorded state history (`trace[t]` = global state at time `t`,
    /// `trace[0]` = initial), present iff tracing was enabled.
    pub trace: Option<Vec<Vec<S>>>,
}

impl<S> Run<S> {
    /// Whether the run reached a fixpoint.
    pub fn stabilized(&self) -> bool {
        self.outcome == Outcome::Stabilized
    }

    /// Rounds until stabilization (the paper's complexity measure).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total moves across all rules.
    pub fn total_moves(&self) -> u64 {
        self.moves_per_rule.iter().sum()
    }
}

/// Synchronous-model executor for a protocol on a fixed topology.
pub struct SyncExecutor<'a, P: Protocol> {
    graph: &'a Graph,
    proto: &'a P,
    trace: bool,
    detect_cycles: bool,
    schedule: Schedule,
    crash: Option<CrashAt>,
    byz: Option<ByzPlan>,
    asym: Option<AsymPlan>,
}

impl<'a, P: Protocol> SyncExecutor<'a, P> {
    /// New executor with tracing and cycle detection disabled and the
    /// default [`Schedule::Active`] evaluation pruning (identical results
    /// to the full sweep; see [`crate::active`]).
    pub fn new(graph: &'a Graph, proto: &'a P) -> Self {
        SyncExecutor {
            graph,
            proto,
            trace: false,
            detect_cycles: false,
            schedule: Schedule::default(),
            crash: None,
            byz: None,
            asym: None,
        }
    }

    /// Choose between the full per-round sweep and active-set evaluation
    /// pruning. Results are identical either way; only the number of guard
    /// evaluations ([`RoundStats::evaluated`]) differs.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Schedule a mid-run crash-restart ([`CrashAt`]): at the top of the
    /// crash round a fraction of the nodes rehydrate with arbitrary
    /// states, and the run is kept alive up to that round even if the
    /// protocol has already quiesced — mirroring the sharded runtime's
    /// `CrashSpec` semantics, so the equivalence suite can pin the two
    /// against each other at 1 shard.
    pub fn with_crash(mut self, crash: CrashAt) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Attach a Byzantine adversary ([`ByzPlan`]): each hot round, after
    /// the honest moves are applied, every compromised node's state is
    /// overwritten with the plan's adversarial pick — exactly the sharded
    /// runtime's semantics, so the serial ≡ runtime equivalence oracle
    /// extends to adversarial runs.
    pub fn with_adversary(mut self, byz: ByzPlan) -> Self {
        self.byz = Some(byz);
        self
    }

    /// Attach an asymmetric-link model ([`AsymPlan`]): evaluation runs on
    /// what each node last *heard* from each neighbor (a [`Perception`]
    /// overlay), with per-direction per-round fate hashing — again
    /// mirroring the sharded runtime exactly.
    pub fn with_asym(mut self, asym: AsymPlan) -> Self {
        self.asym = Some(asym);
        self
    }

    /// Record the full state history in the returned [`Run`].
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Detect repeated global states (memory: one copy of every distinct
    /// visited state).
    pub fn with_cycle_detection(mut self) -> Self {
        self.detect_cycles = true;
        self
    }

    /// The topology this executor runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Execute synchronously from `init` for at most `max_rounds` rounds.
    pub fn run(&self, init: InitialState<P::State>, max_rounds: usize) -> Run<P::State> {
        // `()` has `ENABLED == false`: monomorphization removes every
        // observation branch, so this is the same loop as before the
        // hooks existed.
        self.run_observed(init, max_rounds, &mut ())
    }

    /// Execute synchronously, firing the [`Observer`] hooks: per round,
    /// `on_round_start` (pre-round states) → `on_move` per applied move →
    /// `on_round_end` ([`RoundStats`] + post-round states); `on_finish`
    /// once, with the final outcome. Timing and per-round bookkeeping are
    /// guarded by [`Observer::ENABLED`], so a disabled observer costs
    /// nothing.
    ///
    /// Each round is one [`Kernel`] step; this loop only seeds it (crash
    /// victims, the catch-up sweep after an asymmetric-link window), hands
    /// it the Byzantine rewrites, and decides termination.
    pub fn run_observed<O: Observer<P::State>>(
        &self,
        init: InitialState<P::State>,
        max_rounds: usize,
        obs: &mut O,
    ) -> Run<P::State> {
        let graph = self.graph;
        let mut states = init.materialize(graph, self.proto);
        let mut moves_per_rule = vec![0u64; self.proto.rule_names().len()];
        let mut trace = self.trace.then(|| vec![states.clone()]);
        let mut seen: Option<HashMap<Vec<P::State>, usize>> = self.detect_cycles.then(HashMap::new);
        let mut kernel = Kernel::new(self.schedule, states.len(), moves_per_rule.len());
        // Perception rows for the asymmetric-link model: what each node
        // last heard from each neighbor, seeded from the boot states.
        let mut perception = self.asym.as_ref().map(|_| {
            let tracked: Vec<Node> = graph.nodes().collect();
            Perception::new(graph, &tracked, &states)
        });

        let mut round = 0usize;
        let outcome = loop {
            // A scheduled crash keeps the run alive through its round — the
            // sharded runtime does the same (`FaultPlan::crash_pending`) —
            // so a quiesced pre-crash configuration cannot report
            // `Stabilized` before the fault actually fires.
            let crash_pending = self.crash.as_ref().is_some_and(|c| round <= c.round);
            // A hot Byzantine adversary rewrites states every round, and a
            // hot asymmetric-link plan makes the round transition depend on
            // the round number: both keep the run alive and invalidate
            // cycle-detection history exactly like a pending crash.
            let byz_hot = self.byz.as_ref().is_some_and(|b| b.hot(round));
            let asym_live = self.asym.as_ref().is_some_and(|a| a.hot(round));
            let asym_sweep = self.asym.as_ref().is_some_and(|a| a.sweep(round));
            if let Some(seen) = seen.as_mut() {
                if crash_pending || byz_hot || asym_live {
                    // The crash mutates state outside the transition
                    // function: a repeat before it is a keep-alive round,
                    // not an oscillation, and history crossing the crash
                    // proves nothing. Detection restarts after it fires.
                    // (Same argument for adversarial rewrites and
                    // round-dependent link fates.)
                    seen.clear();
                }
                if let Some(&first_seen) = seen.get(&states) {
                    break Outcome::Cycle {
                        first_seen,
                        period: round - first_seen,
                    };
                }
                seen.insert(states.clone(), round);
            }

            // An injected crash fires at the top of its round, before
            // evaluation, exactly like the runtime's worker crash-restart.
            // Every victim's closed neighborhood re-enters evaluation: the
            // rehydrated state changes its own guards and its neighbors'.
            if let Some(c) = self.crash.as_ref() {
                if c.round == round && round < max_rounds {
                    let t0 = O::ENABLED.then(Instant::now);
                    let victims = c.apply(self.proto, graph, &mut states);
                    kernel.seed(graph, victims);
                    if let Some(t0) = t0 {
                        kernel.record(Phase::Rehydrate, t0.elapsed().as_nanos() as u64);
                    }
                }
            }

            if asym_live {
                // Deliver this round's inbound beacons: up directions copy
                // the sender's current state, down directions keep the last
                // heard value. Evaluation then runs on the perceived views
                // (worklist pruning is unsound while links fail — see
                // `AsymPlan::sweep`).
                if let (Some(plan), Some(per)) = (self.asym.as_ref(), perception.as_mut()) {
                    per.refresh(graph, plan, round, &states);
                }
            } else if asym_sweep {
                // Catch-up round after the window closes: true views, but
                // everyone — perception may have just caught up, changing
                // views without any neighbor moving.
                kernel.seed(graph, graph.nodes());
            }
            let perceived = perception.as_ref().filter(|_| asym_live);
            let privileged = kernel.evaluate(graph, self.proto, &states, perceived, O::ENABLED);
            // A lagging perception can still surface moves once the missed
            // beacons land, and a hot adversary will keep rewriting states:
            // neither may report stabilization yet.
            let asym_keep = perceived.is_some_and(|p| p.lagging());
            if privileged == 0 && !crash_pending && !byz_hot && !asym_keep {
                break Outcome::Stabilized;
            }
            if round >= max_rounds {
                break Outcome::RoundLimit;
            }
            // Byzantine writes are computed from the round's *pre-apply*
            // snapshot (the states every node evaluated on) and applied
            // after the honest moves — "as if the node moved". The sharded
            // runtime does exactly the same, owner-side.
            let mut byz_writes = match self.byz.as_ref() {
                Some(plan) if byz_hot => plan.writes_for(self.proto, graph, round, &states),
                _ => Vec::new(),
            };
            round += 1;
            let stats = kernel.apply(round, graph, &mut states, &mut byz_writes, obs);
            for (total, k) in moves_per_rule.iter_mut().zip(&stats.moves_per_rule) {
                *total += k;
            }
            if let Some(trace) = trace.as_mut() {
                trace.push(states.clone());
            }
            if O::ENABLED {
                obs.on_round_end(&stats, &states);
            }
        };
        if O::ENABLED {
            obs.on_finish(&outcome, &states);
        }
        Run {
            final_states: states,
            rounds: round,
            moves_per_rule,
            outcome,
            trace,
        }
    }

    /// Convenience: run from a random initial state.
    pub fn run_random(&self, seed: u64, max_rounds: usize) -> Run<P::State> {
        self.run(InitialState::Random { seed }, max_rounds)
    }

    /// Execute synchronously, invoking `observer` after every applied round
    /// with the round index (1-based: the round that was just applied), the
    /// moves of that round, and the resulting global state. Useful for
    /// streaming metrics without the memory cost of a full trace.
    ///
    /// A convenience adapter over [`SyncExecutor::run_observed`]; the typed
    /// [`Observer`] interface is richer (per-move hooks, [`RoundStats`],
    /// finish notification) and avoids buffering the round's moves.
    pub fn run_with_observer<F>(
        &self,
        init: InitialState<P::State>,
        max_rounds: usize,
        observer: F,
    ) -> Run<P::State>
    where
        F: FnMut(usize, &[(Node, Move<P::State>)], &[P::State]),
    {
        let mut adapter = ClosureObserver {
            moves: Vec::new(),
            f: observer,
        };
        self.run_observed(init, max_rounds, &mut adapter)
    }
}

/// Buffers the current round's moves to feed the legacy closure interface
/// of [`SyncExecutor::run_with_observer`].
struct ClosureObserver<S, F> {
    moves: Vec<(Node, Move<S>)>,
    f: F,
}

impl<S: Clone, F: FnMut(usize, &[(Node, Move<S>)], &[S])> Observer<S> for ClosureObserver<S, F> {
    fn on_round_start(&mut self, _round: usize, _states: &[S]) {
        self.moves.clear();
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        self.moves.push((
            node,
            Move {
                rule,
                next: next.clone(),
            },
        ));
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        (self.f)(stats.round, &self.moves, states);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::View;
    use crate::testutil::MaxProto;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfstab_graph::generators;

    #[test]
    fn max_protocol_stabilizes_to_global_max() {
        let g = generators::path(10);
        let exec = SyncExecutor::new(&g, &MaxProto);
        let run = exec.run(
            InitialState::Explicit(vec![0, 0, 3, 0, 0, 0, 0, 1, 0, 0]),
            100,
        );
        assert!(run.stabilized());
        assert!(run.final_states.iter().all(|&s| s == 3));
        // Value 3 sits at index 2; farthest node is index 9, distance 7.
        assert_eq!(run.rounds(), 7);
        assert_eq!(run.total_moves() as usize, run.moves_per_rule[0] as usize);
    }

    #[test]
    fn fixpoint_is_zero_rounds() {
        let g = generators::cycle(5);
        let exec = SyncExecutor::new(&g, &MaxProto);
        let run = exec.run(InitialState::Default, 10);
        assert!(run.stabilized());
        assert_eq!(run.rounds(), 0);
        assert_eq!(run.total_moves(), 0);
    }

    #[test]
    fn trace_records_every_round() {
        let g = generators::path(4);
        let exec = SyncExecutor::new(&g, &MaxProto).with_trace();
        let run = exec.run(InitialState::Explicit(vec![2, 0, 0, 0]), 100);
        let trace = run.trace.as_ref().expect("tracing enabled");
        assert_eq!(trace.len(), run.rounds() + 1);
        assert_eq!(trace[0], vec![2, 0, 0, 0]);
        assert_eq!(trace.last().unwrap(), &run.final_states);
    }

    /// A protocol that oscillates: two states, every node always flips.
    struct Blinker;
    impl Protocol for Blinker {
        type State = bool;
        fn rule_names(&self) -> &'static [&'static str] {
            &["flip"]
        }
        fn default_state(&self) -> bool {
            false
        }
        fn arbitrary_state(&self, _: Node, _: &[Node], rng: &mut StdRng) -> bool {
            use rand::RngExt;
            rng.random_bool(0.5)
        }
        fn enumerate_states(&self, _: Node, _: &[Node]) -> Vec<bool> {
            vec![false, true]
        }
        fn step(&self, view: View<'_, bool>) -> Option<Move<bool>> {
            Some(Move {
                rule: 0,
                next: !view.own(),
            })
        }
    }

    #[test]
    fn cycle_detection_catches_oscillation() {
        let g = generators::cycle(3);
        let exec = SyncExecutor::new(&g, &Blinker).with_cycle_detection();
        let run = exec.run(InitialState::Default, 1000);
        assert_eq!(
            run.outcome,
            Outcome::Cycle {
                first_seen: 0,
                period: 2
            }
        );
        assert!(!run.stabilized());
    }

    #[test]
    fn round_limit_without_cycle_detection() {
        let g = generators::cycle(3);
        let exec = SyncExecutor::new(&g, &Blinker);
        let run = exec.run(InitialState::Default, 17);
        assert_eq!(run.outcome, Outcome::RoundLimit);
        assert_eq!(run.rounds(), 17);
    }

    #[test]
    fn active_schedule_matches_full_sweep() {
        let g = generators::erdos_renyi_connected(24, 0.15, &mut StdRng::seed_from_u64(7));
        let full = SyncExecutor::new(&g, &MaxProto).with_schedule(Schedule::Full);
        let act = SyncExecutor::new(&g, &MaxProto).with_schedule(Schedule::Active);
        for seed in 0..5 {
            let a = full.run_random(seed, 200);
            let b = act.run_random(seed, 200);
            assert_eq!(a.final_states, b.final_states);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.moves_per_rule, b.moves_per_rule);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn active_schedule_evaluated_decays_on_path() {
        use crate::obs::MetricsCollector;
        let g = generators::path(16);
        let exec = SyncExecutor::new(&g, &MaxProto); // active by default
        let mut m = MetricsCollector::new();
        let mut init = vec![0u8; 16];
        init[0] = 9;
        let run = exec.run_observed(InitialState::Explicit(init), 100, &mut m);
        assert!(run.stabilized());
        let rounds = m.rounds();
        assert_eq!(rounds[0].evaluated, 16, "round 1 is a full sweep");
        // A single rightward-moving wave: the frontier is a closed
        // neighborhood of the one mover, so at most 3 nodes after round 2.
        assert!(rounds[2..].iter().all(|r| r.evaluated <= 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::erdos_renyi_connected(20, 0.2, &mut StdRng::seed_from_u64(0));
        let exec = SyncExecutor::new(&g, &MaxProto);
        let a = exec.run_random(99, 100);
        let b = exec.run_random(99, 100);
        assert_eq!(a.final_states, b.final_states);
        assert_eq!(a.rounds, b.rounds);
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    #[test]
    fn observer_sees_every_round_and_matches_plain_run() {
        let g = generators::path(10);
        let exec = SyncExecutor::new(&g, &MaxProto);
        let init = InitialState::Explicit(vec![0u8, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
        let mut rounds_seen = Vec::new();
        let mut total_moves = 0usize;
        let observed = exec.run_with_observer(init.clone(), 100, |round, moves, states| {
            rounds_seen.push(round);
            total_moves += moves.len();
            assert!(!moves.is_empty());
            assert_eq!(states.len(), 10);
        });
        let plain = exec.run(init, 100);
        assert_eq!(observed.final_states, plain.final_states);
        assert_eq!(observed.rounds, plain.rounds);
        assert_eq!(observed.moves_per_rule, plain.moves_per_rule);
        assert_eq!(rounds_seen, (1..=plain.rounds()).collect::<Vec<_>>());
        assert_eq!(total_moves as u64, plain.total_moves());
    }

    #[test]
    fn observer_not_called_at_fixpoint() {
        let g = generators::cycle(4);
        let exec = SyncExecutor::new(&g, &MaxProto);
        let mut called = false;
        let run = exec.run_with_observer(InitialState::Default, 10, |_, _, _| called = true);
        assert!(run.stabilized());
        assert!(!called);
    }

    #[test]
    fn metrics_collector_matches_plain_run() {
        use crate::obs::MetricsCollector;
        let g = generators::path(10);
        let exec = SyncExecutor::new(&g, &MaxProto);
        let init = InitialState::Explicit(vec![0u8, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
        let mut metrics = MetricsCollector::new().with_gauge("maxed", |s: &[u8]| {
            s.iter().filter(|&&x| x == 3).count() as u64
        });
        let observed = exec.run_observed(init.clone(), 100, &mut metrics);
        let plain = exec.run(init, 100);
        assert_eq!(observed.final_states, plain.final_states);
        assert_eq!(metrics.rounds().len(), plain.rounds());
        assert_eq!(metrics.outcome(), Some(&Outcome::Stabilized));
        // Per-round move counts sum to the run totals.
        let mut summed = vec![0u64; plain.moves_per_rule.len()];
        for r in metrics.rounds() {
            assert!(r.privileged > 0);
            assert_eq!(r.round, metrics.rounds()[r.round - 1].round);
            for (acc, &k) in summed.iter_mut().zip(&r.moves_per_rule) {
                *acc += k;
            }
        }
        assert_eq!(summed, plain.moves_per_rule);
        // The gauge series is monotone for MaxProto and ends at n.
        let series = metrics.gauge_series("maxed").unwrap();
        assert_eq!(series.first(), Some(&1));
        assert_eq!(series.last(), Some(&10));
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(metrics.latency_histogram().total(), plain.rounds() as u64);
    }

    #[test]
    fn jsonl_log_roundtrips_through_record_and_validates() {
        use crate::obs::{trace_from_jsonl, JsonlEventLog};
        use crate::record::{record, validate_trace};
        let g = generators::grid(3, 3);
        let exec = SyncExecutor::new(&g, &MaxProto).with_trace();
        let mut log = JsonlEventLog::new();
        let run = exec.run_observed(InitialState::Random { seed: 4 }, 100, &mut log);
        assert!(run.stabilized());
        let (trace, stabilized) = trace_from_jsonl::<u8>(&log.to_jsonl()).unwrap();
        assert_eq!(
            Some(&trace),
            run.trace.as_ref(),
            "JSONL log equals the recorded trace"
        );
        assert!(stabilized);
        let rec = record(&g, &MaxProto, trace, stabilized);
        assert_eq!(validate_trace(&MaxProto, &rec), Ok(()));
    }

    #[test]
    fn observers_compose_and_finish_fires_on_every_outcome() {
        use crate::obs::{ChromeTraceWriter, MetricsCollector};
        let g = generators::path(6);
        let exec = SyncExecutor::new(&g, &MaxProto);
        let init = InitialState::Explicit(vec![3u8, 0, 0, 0, 0, 0]);
        let mut pair = (MetricsCollector::new(), ChromeTraceWriter::new());
        let run = exec.run_observed(init, 100, &mut pair);
        assert!(run.stabilized());
        let (metrics, chrome) = pair;
        assert_eq!(metrics.rounds().len(), run.rounds());
        // 2 aggregate events per round + 2 finish events, plus the serial
        // lane's profile track (metadata + B/E spans, whose count depends
        // on how many sub-µs phases round up to a visible width).
        assert!(chrome.len() >= 2 * run.rounds() + 2);
        let doc = chrome.to_json();
        let events = doc
            .get("traceEvents")
            .and_then(selfstab_json::Json::as_array)
            .unwrap();
        let ph_count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(selfstab_json::Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(ph_count("X"), run.rounds());
        assert_eq!(ph_count("i"), 1);
        assert_eq!(ph_count("M"), 1, "serial lane named once");
        // RoundLimit also notifies.
        let mut m = MetricsCollector::new();
        let limited =
            exec.run_observed(InitialState::Explicit(vec![3u8, 0, 0, 0, 0, 0]), 2, &mut m);
        assert_eq!(limited.outcome, Outcome::RoundLimit);
        assert_eq!(m.outcome(), Some(&Outcome::RoundLimit));
        // A fixpoint start fires on_finish without any round hooks.
        let mut m = MetricsCollector::new();
        let quiet = exec.run_observed(InitialState::Default, 10, &mut m);
        assert!(quiet.stabilized());
        assert!(m.rounds().is_empty());
        assert!(m.initial_gauges().is_none());
        assert_eq!(m.outcome(), Some(&Outcome::Stabilized));
    }
}
