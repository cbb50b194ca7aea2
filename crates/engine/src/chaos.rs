//! Live mid-run topology churn: the paper's mobility fault model applied
//! *while the protocol executes*, not just between runs.
//!
//! [`crate::faults::churn_and_recover`] perturbs a stabilized configuration
//! once and then measures recovery on a frozen graph. This module instead
//! drives a [`ChurnSchedule`]: every `every` rounds a batch of
//! connectivity-preserving [`TopologyEvent`]s is applied to the live graph
//! and execution continues on the mutated topology — the self-stabilization
//! claim under test is that the protocol re-converges *through* the churn,
//! not merely after it.
//!
//! Semantics at a churn boundary (entering round `k·every`):
//!
//! * the events are drawn from the schedule's own seeded RNG, so a run is
//!   reproducible from `(graph, init, schedule)`;
//! * both endpoints of every churned edge re-enter the active worklist with
//!   their *closed neighborhoods* (on the mutated graph) — a link change
//!   can newly privilege the endpoints or any of their neighbors, exactly
//!   the active-set invariant of [`crate::active`];
//! * if the run stabilizes before the next boundary with epochs still
//!   pending, the quiescent gap is fast-forwarded (no node is privileged,
//!   so those rounds are move-free by definition) and churn fires at the
//!   boundary round.
//!
//! The sharded runtime applies the same schedule by segmenting the run at
//! churn boundaries (see `selfstab-runtime`); the serial core here is the
//! reference semantics its equivalence tests compare against.

use crate::active::Schedule;
use crate::kernel::Kernel;
use crate::obs::Observer;
use crate::protocol::{InitialState, Protocol};
use crate::sync::{Outcome, Run};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::mutate::{Churn, TopologyEvent};
use selfstab_graph::Graph;

/// A seeded schedule of live topology churn: `events` connectivity-
/// preserving edge changes every `every` rounds, for `epochs` batches.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    /// Rounds between churn batches (a batch fires entering round
    /// `k·every`, `k = 1..=epochs`). Must be ≥ 1.
    pub every: usize,
    /// Edge changes per batch. Must be ≥ 1.
    pub events: usize,
    /// Number of batches.
    pub epochs: usize,
    /// The event generator (link-failure probability, etc.).
    pub churn: Churn,
    /// Seed of the schedule's private RNG.
    pub seed: u64,
}

impl ChurnSchedule {
    /// A schedule of one single-event batch every `every` rounds.
    pub fn new(every: usize, seed: u64) -> Self {
        ChurnSchedule {
            every,
            events: 1,
            epochs: 1,
            churn: Churn::default(),
            seed,
        }
    }

    /// Set the number of edge changes per batch.
    pub fn with_events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }

    /// Set the number of batches.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Check the schedule is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.every == 0 {
            return Err("churn interval (every) must be >= 1".into());
        }
        if self.events == 0 {
            return Err("churn batch size (events) must be >= 1".into());
        }
        Ok(())
    }

    /// Open an incremental cursor over this schedule (validates first).
    ///
    /// The feed is the *online* form of the batch plan: callers pull the
    /// next batch boundary with [`ChurnFeed::next_boundary`] and apply the
    /// batch with [`ChurnFeed::next_events`] when their round clock reaches
    /// it. Both the serial churned loop and the sharded segmented driver run
    /// on this cursor, so the boundary arithmetic lives in exactly one
    /// place.
    pub fn feed(&self) -> Result<ChurnFeed<'_>, String> {
        self.validate()?;
        Ok(ChurnFeed {
            plan: self,
            rng: StdRng::seed_from_u64(self.seed),
            epochs_done: 0,
            events: Vec::new(),
            last_fault_round: 0,
        })
    }
}

/// An incremental cursor over a [`ChurnSchedule`]: yields churn batches one
/// boundary at a time against a live graph, recording what fired where.
///
/// Invariant: boundaries fire in order (`every`, `2·every`, …,
/// `epochs·every`) and each fires at most once; the RNG draw order is
/// identical to the original batch loop, so a feed-driven run is
/// event-for-event reproducible from `(graph, schedule)` alone.
#[derive(Clone, Debug)]
pub struct ChurnFeed<'a> {
    plan: &'a ChurnSchedule,
    rng: StdRng,
    epochs_done: usize,
    events: Vec<(usize, TopologyEvent)>,
    last_fault_round: usize,
}

impl ChurnFeed<'_> {
    /// The next round a churn batch fires entering, or `None` when every
    /// epoch has fired.
    pub fn next_boundary(&self) -> Option<usize> {
        (self.epochs_done < self.plan.epochs).then(|| (self.epochs_done + 1) * self.plan.every)
    }

    /// Fire the batch scheduled for `round`, mutating `graph` in place, and
    /// return the applied events. A no-op (empty vec) unless `round` is
    /// exactly the pending boundary — callers may poll every round.
    pub fn next_events(&mut self, round: usize, graph: &mut Graph) -> Vec<TopologyEvent> {
        if self.next_boundary() != Some(round) {
            return Vec::new();
        }
        let applied = self
            .plan
            .churn
            .apply(graph, self.plan.events, &mut self.rng);
        self.epochs_done += 1;
        if !applied.is_empty() {
            self.last_fault_round = round;
        }
        for &ev in &applied {
            self.events.push((round, ev));
        }
        applied
    }

    /// Consume the feed, returning the applied-event log.
    pub fn into_events(self) -> Vec<(usize, TopologyEvent)> {
        self.events
    }

    /// The round the last non-empty batch fired at (0 when none fired).
    pub fn last_fault_round(&self) -> usize {
        self.last_fault_round
    }
}

/// The result of a churned execution: the run, the *final* (mutated)
/// topology, and the applied events with the round each fired at.
#[derive(Clone, Debug)]
pub struct ChaosRun<S> {
    /// The execution outcome, rounds, moves and final states.
    pub run: Run<S>,
    /// The topology after all churn (legitimacy of `run.final_states` must
    /// be judged against *this* graph, not the starting one).
    pub graph: Graph,
    /// Applied topology events, tagged with the round they fired entering.
    pub events: Vec<(usize, TopologyEvent)>,
    /// The round the last fault event fired at (0 when none fired).
    pub last_fault_round: usize,
}

impl<S> ChaosRun<S> {
    /// Rounds between the last applied fault and stabilization — the
    /// re-stabilization time. `None` if the run did not stabilize or no
    /// event was ever applied.
    pub fn recovery_rounds(&self) -> Option<usize> {
        (self.run.outcome == Outcome::Stabilized && !self.events.is_empty())
            .then(|| self.run.rounds - self.last_fault_round)
    }
}

/// Serial churned execution (reference semantics).
pub fn run_churned_serial<P: Protocol>(
    graph: &Graph,
    proto: &P,
    schedule: Schedule,
    plan: &ChurnSchedule,
    init: InitialState<P::State>,
    max_rounds: usize,
) -> Result<ChaosRun<P::State>, String> {
    run_churned_serial_observed(graph, proto, schedule, plan, init, max_rounds, &mut ())
}

/// Serial churned execution with [`Observer`] hooks: the same per-round
/// hook sequence and phase spans as
/// [`crate::sync::SyncExecutor::run_observed`], on the live (mutating)
/// graph.
///
/// Each round is one [`Kernel`] step; this loop seeds the churned edges'
/// endpoints and decides termination, fast-forwarding quiescent gaps to the
/// next churn boundary.
pub fn run_churned_serial_observed<P: Protocol, O: Observer<P::State>>(
    graph: &Graph,
    proto: &P,
    schedule: Schedule,
    plan: &ChurnSchedule,
    init: InitialState<P::State>,
    max_rounds: usize,
    obs: &mut O,
) -> Result<ChaosRun<P::State>, String> {
    let mut feed = plan.feed()?;
    let mut graph = graph.clone();
    let mut states = init.materialize(&graph, proto);
    let mut moves_per_rule = vec![0u64; proto.rule_names().len()];
    let mut kernel = Kernel::new(schedule, states.len(), moves_per_rule.len());
    let mut round = 0usize;

    let outcome = loop {
        // A link change can newly privilege either endpoint or any
        // neighbor of one: dirty both closed neighborhoods on the
        // *mutated* graph. (For a removed edge the two closed
        // neighborhoods no longer overlap — that is the point.)
        let events = feed.next_events(round, &mut graph);
        kernel.seed(
            &graph,
            events.iter().flat_map(|ev| {
                let e = ev.edge();
                [e.a, e.b]
            }),
        );
        if kernel.evaluate(&graph, proto, &states, None, O::ENABLED) == 0 {
            // Stabilized with churn still scheduled: fast-forward the
            // quiescent gap to the next boundary (those rounds are
            // move-free by definition, no node being privileged). When
            // the remaining epochs cannot fire within the budget, the
            // run is over.
            match feed.next_boundary().filter(|&b| b <= max_rounds) {
                Some(boundary) => {
                    round = boundary;
                    continue;
                }
                None => break Outcome::Stabilized,
            }
        }
        if round >= max_rounds {
            break Outcome::RoundLimit;
        }
        round += 1;
        let stats = kernel.apply(round, &graph, &mut states, &mut Vec::new(), obs);
        for (total, k) in moves_per_rule.iter_mut().zip(&stats.moves_per_rule) {
            *total += k;
        }
        if O::ENABLED {
            obs.on_round_end(&stats, &states);
        }
    };
    if O::ENABLED {
        obs.on_finish(&outcome, &states);
    }
    let last_fault_round = feed.last_fault_round();
    Ok(ChaosRun {
        run: Run {
            final_states: states,
            rounds: round,
            moves_per_rule,
            outcome,
            trace: None,
        },
        graph,
        events: feed.into_events(),
        last_fault_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::ActiveSet;
    use crate::obs::{MetricsCollector, Phase};
    use crate::protocol::{Move, View};
    use crate::testutil::MaxProto;
    use selfstab_graph::traversal::is_connected;
    use selfstab_graph::{generators, Node};

    #[test]
    fn churned_run_is_deterministic_and_stays_connected() {
        let g = generators::cycle(24);
        let plan = ChurnSchedule::new(4, 9).with_events(2).with_epochs(3);
        let a = run_churned_serial(
            &g,
            &MaxProto,
            Schedule::Active,
            &plan,
            InitialState::Random { seed: 1 },
            500,
        )
        .unwrap();
        let b = run_churned_serial(
            &g,
            &MaxProto,
            Schedule::Active,
            &plan,
            InitialState::Random { seed: 1 },
            500,
        )
        .unwrap();
        assert_eq!(a.run.final_states, b.run.final_states);
        assert_eq!(a.run.rounds, b.run.rounds);
        assert_eq!(a.events, b.events);
        assert!(is_connected(&a.graph));
        assert!(a.run.stabilized());
        // MaxProto's fixpoint is everyone at the max — churn cannot change
        // that, but the run must end on the *mutated* graph.
        let max = a.run.final_states.iter().max().copied().unwrap();
        assert!(a.run.final_states.iter().all(|&s| s == max));
    }

    #[test]
    fn schedules_agree() {
        let g = generators::grid(6, 6);
        let plan = ChurnSchedule::new(3, 17).with_events(2).with_epochs(4);
        let run = |schedule| {
            run_churned_serial(
                &g,
                &MaxProto,
                schedule,
                &plan,
                InitialState::Random { seed: 7 },
                500,
            )
            .unwrap()
        };
        let (active, full) = (run(Schedule::Active), run(Schedule::Full));
        assert_eq!(active.run.final_states, full.run.final_states);
        assert_eq!(active.run.rounds, full.run.rounds);
        assert_eq!(active.run.moves_per_rule, full.run.moves_per_rule);
        assert_eq!(active.events, full.events);
    }

    /// A topology-sensitive toy protocol: a node's state is its degree, so
    /// a churned link privileges exactly its two endpoints.
    struct DegreeProto;

    impl Protocol for DegreeProto {
        type State = u8;

        fn rule_names(&self) -> &'static [&'static str] {
            &["count-degree"]
        }

        fn default_state(&self) -> u8 {
            0
        }

        fn arbitrary_state(&self, _: Node, _: &[Node], _: &mut StdRng) -> u8 {
            0
        }

        fn enumerate_states(&self, _: Node, neighbors: &[Node]) -> Vec<u8> {
            (0..=neighbors.len() as u8).collect()
        }

        fn step(&self, view: View<'_, u8>) -> Option<Move<u8>> {
            let degree = view.neighbor_states().count() as u8;
            (degree != *view.own()).then_some(Move {
                rule: 0,
                next: degree,
            })
        }
    }

    #[test]
    fn churn_after_a_quiet_gap_evaluates_only_the_churned_neighborhoods() {
        // Round 1 moves every node of the path, so round 2's worklist is
        // all of V and finds nothing; the run then fast-forwards to the
        // boundary at round 5. The first round after the churn must
        // evaluate N[a] ∪ N[b] of the new link a–b, not the stale V.
        let g = Graph::from_edges(12, (0..11).map(|i| (i, i + 1)));
        let plan = ChurnSchedule::new(5, 3);
        let run = |schedule, obs: &mut MetricsCollector<u8>| {
            run_churned_serial_observed(
                &g,
                &DegreeProto,
                schedule,
                &plan,
                InitialState::Default,
                100,
                obs,
            )
            .unwrap()
        };
        let (mut active_m, mut full_m) = (MetricsCollector::new(), MetricsCollector::new());
        let active = run(Schedule::Active, &mut active_m);
        let full = run(Schedule::Full, &mut full_m);
        assert_eq!(active.run.final_states, full.run.final_states);
        assert_eq!(active.run.rounds, full.run.rounds);
        assert_eq!(active.run.rounds, 6);
        let [(5, event)] = active.events[..] else {
            panic!("one churn event at round 5, got {:?}", active.events);
        };
        let e = event.edge();
        let mut seeded = ActiveSet::empty(g.n());
        seeded.insert_closed(&active.graph, e.a);
        seeded.insert_closed(&active.graph, e.b);
        seeded.seal();
        let rounds = active_m.rounds();
        assert_eq!(rounds.iter().map(|r| r.round).collect::<Vec<_>>(), [1, 6]);
        assert_eq!(rounds[1].evaluated, seeded.len());
        assert_eq!(rounds[1].privileged, 2);
        assert!(full_m.rounds().iter().all(|r| r.evaluated == g.n()));
    }

    #[test]
    fn observed_churned_rounds_carry_the_serial_lane_profile() {
        let g = generators::grid(5, 5);
        let plan = ChurnSchedule::new(3, 5).with_events(2).with_epochs(2);
        let mut m = MetricsCollector::new();
        let out = run_churned_serial_observed(
            &g,
            &MaxProto,
            Schedule::Active,
            &plan,
            InitialState::Random { seed: 4 },
            500,
            &mut m,
        )
        .unwrap();
        // Fast-forwarded quiet gaps apply no rounds, so there may be fewer
        // records than the final round clock.
        assert!(!m.rounds().is_empty() && m.rounds().len() <= out.run.rounds);
        for r in m.rounds() {
            let lanes = &r.profile.as_ref().expect("every round is profiled").shards;
            assert_eq!(lanes.len(), 1, "round {}", r.round);
            assert_eq!(lanes[0].spans.count(Phase::GuardEval), 1);
            assert_eq!(lanes[0].spans.count(Phase::Apply), 1);
        }
    }

    #[test]
    fn early_stabilization_fast_forwards_to_pending_epochs() {
        // MaxProto on a path stabilizes quickly; with a late churn boundary
        // the run must still fire every epoch (quiescent gap skipped).
        let g = generators::path(8);
        let plan = ChurnSchedule::new(50, 3).with_epochs(2);
        let out = run_churned_serial(
            &g,
            &MaxProto,
            Schedule::Active,
            &plan,
            InitialState::Random { seed: 2 },
            1_000,
        )
        .unwrap();
        assert!(out.run.stabilized());
        assert_eq!(
            out.events.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![50, 100],
            "both epochs fired at their boundaries"
        );
        assert!(out.recovery_rounds().is_some());
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let g = generators::path(4);
        let bad = ChurnSchedule::new(0, 1);
        assert!(run_churned_serial(
            &g,
            &MaxProto,
            Schedule::Active,
            &bad,
            InitialState::Default,
            10,
        )
        .is_err());
        let bad = ChurnSchedule::new(2, 1).with_events(0);
        assert!(run_churned_serial(
            &g,
            &MaxProto,
            Schedule::Active,
            &bad,
            InitialState::Default,
            10,
        )
        .is_err());
    }
}
