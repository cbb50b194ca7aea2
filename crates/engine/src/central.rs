//! The central daemon: the classical adversarial scheduler.
//!
//! At each step exactly one privileged node fires. The Hsu–Huang maximal
//! matching baseline (Inform. Process. Lett. 43, 1992) is proved correct
//! under this model; the paper observes it can be converted to the
//! synchronous model but "the resulting protocol is not as fast" — this
//! module provides the central-daemon reference execution, and
//! `selfstab-core::transformer` provides the conversion.
//!
//! The daemon's node-selection policy is pluggable so experiments can probe
//! adversarial schedules; complexity is measured in *moves* (rounds are not
//! meaningful under a central daemon).

use crate::kernel::privileged_moves;
use crate::obs::{Observer, RoundStats};
use crate::protocol::{InitialState, Protocol};
use crate::sync::Outcome;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_graph::{Graph, Ids, Node};

/// An adversary callback: picks the index of the node to fire from the
/// privileged list.
pub type AdversaryFn = Box<dyn FnMut(&[Node]) -> usize + Send>;

/// Node-selection policy for the central daemon.
// One Scheduler exists per execution; variant size skew is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum Scheduler {
    /// Always the privileged node with the smallest index.
    First,
    /// Always the privileged node with the largest index.
    Last,
    /// Uniformly random among privileged nodes (seeded).
    Random(StdRng),
    /// Round-robin: the next privileged node at or after a rotating cursor —
    /// a weakly fair schedule.
    RoundRobin {
        /// Current cursor position (next index to consider).
        cursor: usize,
    },
    /// Minimum protocol ID among privileged nodes.
    MinId(Ids),
    /// Maximum protocol ID among privileged nodes.
    MaxId(Ids),
    /// Arbitrary adversary: a user closure picks the index into the
    /// privileged list.
    Adversary(AdversaryFn),
}

impl Scheduler {
    /// A seeded random scheduler.
    pub fn random(seed: u64) -> Self {
        Scheduler::Random(StdRng::seed_from_u64(seed))
    }

    /// Pick one node from the (non-empty) privileged list.
    fn pick(&mut self, privileged: &[Node]) -> Node {
        debug_assert!(!privileged.is_empty());
        match self {
            Scheduler::First => privileged[0],
            Scheduler::Last => *privileged.last().expect("non-empty"),
            Scheduler::Random(rng) => privileged[rng.random_range(0..privileged.len())],
            Scheduler::RoundRobin { cursor } => {
                let chosen = privileged
                    .iter()
                    .copied()
                    .find(|v| v.index() >= *cursor)
                    .unwrap_or(privileged[0]);
                *cursor = chosen.index() + 1;
                chosen
            }
            Scheduler::MinId(ids) => ids
                .min_by_id(privileged.iter().copied())
                .expect("non-empty"),
            Scheduler::MaxId(ids) => ids
                .max_by_id(privileged.iter().copied())
                .expect("non-empty"),
            Scheduler::Adversary(f) => {
                let i = f(privileged);
                privileged[i.min(privileged.len() - 1)]
            }
        }
    }
}

/// Result of a central-daemon execution.
#[derive(Clone, Debug)]
pub struct CentralRun<S> {
    /// Global state when the execution ended.
    pub final_states: Vec<S>,
    /// Total individual moves executed.
    pub moves: u64,
    /// Moves per rule.
    pub moves_per_rule: Vec<u64>,
    /// Whether a fixpoint was reached within the move budget.
    pub stabilized: bool,
}

/// Central-daemon executor.
pub struct CentralExecutor<'a, P: Protocol> {
    graph: &'a Graph,
    proto: &'a P,
}

impl<'a, P: Protocol> CentralExecutor<'a, P> {
    /// New executor on `graph` for `proto`.
    pub fn new(graph: &'a Graph, proto: &'a P) -> Self {
        CentralExecutor { graph, proto }
    }

    /// Run under the central daemon until fixpoint or `max_moves`.
    pub fn run(
        &self,
        init: InitialState<P::State>,
        scheduler: &mut Scheduler,
        max_moves: u64,
    ) -> CentralRun<P::State> {
        self.run_observed(init, scheduler, max_moves, &mut ())
    }

    /// Run under the central daemon, firing the [`Observer`] hooks. Each
    /// daemon step is reported as a one-move round: `on_round_start` sees
    /// the pre-step state, `on_move` the single firing, and `on_round_end`
    /// a [`RoundStats`] whose `privileged` field is the size of the
    /// privileged set the scheduler chose from. `on_finish` reports
    /// [`Outcome::Stabilized`] or — when the move budget ran out —
    /// [`Outcome::RoundLimit`].
    pub fn run_observed<O: Observer<P::State>>(
        &self,
        init: InitialState<P::State>,
        scheduler: &mut Scheduler,
        max_moves: u64,
        obs: &mut O,
    ) -> CentralRun<P::State> {
        let mut states = init.materialize(self.graph, self.proto);
        let mut moves_per_rule = vec![0u64; self.proto.rule_names().len()];
        let mut moves = 0u64;
        loop {
            let privileged = privileged_moves(self.graph, self.proto, &states);
            if privileged.is_empty() {
                if O::ENABLED {
                    obs.on_finish(&Outcome::Stabilized, &states);
                }
                return CentralRun {
                    final_states: states,
                    moves,
                    moves_per_rule,
                    stabilized: true,
                };
            }
            if moves >= max_moves {
                if O::ENABLED {
                    obs.on_finish(&Outcome::RoundLimit, &states);
                }
                return CentralRun {
                    final_states: states,
                    moves,
                    moves_per_rule,
                    stabilized: false,
                };
            }
            let timer = O::ENABLED.then(std::time::Instant::now);
            if O::ENABLED {
                obs.on_round_start(moves as usize + 1, &states);
            }
            let nodes: Vec<Node> = privileged.iter().map(|&(v, _)| v).collect();
            let chosen = scheduler.pick(&nodes);
            let (_, mv) = privileged
                .into_iter()
                .find(|&(v, _)| v == chosen)
                .expect("scheduler picked a privileged node");
            let rule = mv.rule;
            moves_per_rule[rule] += 1;
            states[chosen.index()] = mv.next;
            moves += 1;
            if O::ENABLED {
                obs.on_move(chosen, rule, &states[chosen.index()]);
                let mut round_moves = vec![0u64; moves_per_rule.len()];
                round_moves[rule] = 1;
                let stats = RoundStats {
                    round: moves as usize,
                    privileged: nodes.len(),
                    // The central daemon sweeps every node to find the
                    // privileged set before each move.
                    evaluated: states.len(),
                    moves_per_rule: round_moves,
                    duration_micros: timer.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0),
                    beacon: None,
                    runtime: None,
                    profile: None,
                };
                obs.on_round_end(&stats, &states);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    #[test]
    fn central_max_stabilizes_under_all_schedulers() {
        let g = generators::path(8);
        let exec = CentralExecutor::new(&g, &MaxProto);
        let init = vec![0u8, 0, 0, 3, 0, 0, 0, 1];
        let mut scheds = vec![
            Scheduler::First,
            Scheduler::Last,
            Scheduler::random(5),
            Scheduler::RoundRobin { cursor: 0 },
            Scheduler::MinId(Ids::reversed(8)),
            Scheduler::MaxId(Ids::identity(8)),
            Scheduler::Adversary(Box::new(|p| p.len() / 2)),
        ];
        for sched in &mut scheds {
            let run = exec.run(InitialState::Explicit(init.clone()), sched, 10_000);
            assert!(run.stabilized);
            assert!(run.final_states.iter().all(|&s| s == 3));
            assert_eq!(run.moves, run.moves_per_rule.iter().sum::<u64>());
        }
    }

    #[test]
    fn move_budget_respected() {
        let g = generators::path(64);
        let exec = CentralExecutor::new(&g, &MaxProto);
        let mut init = vec![0u8; 64];
        init[0] = 3;
        let run = exec.run(InitialState::Explicit(init), &mut Scheduler::First, 5);
        assert!(!run.stabilized);
        assert_eq!(run.moves, 5);
    }

    #[test]
    fn observed_central_run_reports_each_move_as_a_round() {
        use crate::obs::MetricsCollector;
        let g = generators::path(8);
        let exec = CentralExecutor::new(&g, &MaxProto);
        let init = vec![0u8, 0, 0, 3, 0, 0, 0, 1];
        let mut metrics = MetricsCollector::new().with_gauge("maxed", |s: &[u8]| {
            s.iter().filter(|&&x| x == 3).count() as u64
        });
        let run = exec.run_observed(
            InitialState::Explicit(init),
            &mut Scheduler::RoundRobin { cursor: 0 },
            10_000,
            &mut metrics,
        );
        assert!(run.stabilized);
        assert_eq!(metrics.rounds().len() as u64, run.moves);
        assert_eq!(metrics.outcome(), Some(&Outcome::Stabilized));
        for r in metrics.rounds() {
            assert_eq!(r.moves_per_rule.iter().sum::<u64>(), 1);
            assert!(r.privileged >= 1);
        }
        let series = metrics.gauge_series("maxed").unwrap();
        assert_eq!(series.last(), Some(&8));
    }

    #[test]
    fn round_robin_is_weakly_fair() {
        // Under round-robin on a path seeded at one end, the max spreads in
        // O(n) total moves per sweep; just assert it terminates quickly.
        let g = generators::path(32);
        let exec = CentralExecutor::new(&g, &MaxProto);
        let mut init = vec![0u8; 32];
        init[31] = 2;
        let run = exec.run(
            InitialState::Explicit(init),
            &mut Scheduler::RoundRobin { cursor: 0 },
            10_000,
        );
        assert!(run.stabilized);
        assert_eq!(run.moves, 31);
    }
}
