//! In-flight chaos coverage: seeded fault plans must be exactly
//! deterministic, corrupted frames must be detected and skipped rather
//! than crash a worker, injected shard crashes must recover to a
//! legitimate configuration, and a *real* worker panic must still surface
//! as [`RuntimeError::WorkerPanic`] even while a plan is active.

use rand::rngs::StdRng;
use selfstab_core::smi::Smi;
use selfstab_core::smm::Smm;
use selfstab_engine::active::Schedule;
use selfstab_engine::chaos::{run_churned_serial, ChurnSchedule};
use selfstab_engine::obs::{MetricsCollector, Observer, RoundStats, RuntimeCounters};
use selfstab_engine::protocol::{InitialState, Move, Protocol, View};
use selfstab_engine::sync::Outcome;
use selfstab_graph::traversal::is_connected;
use selfstab_graph::{generators, Ids, Node};
use selfstab_runtime::{run_churned_sharded, FaultPlan, RuntimeError, RuntimeExecutor};

/// Records the global state after every round.
struct StateTrace<S> {
    per_round: Vec<Vec<S>>,
}

impl<S: Clone> Observer<S> for StateTrace<S> {
    fn on_round_end(&mut self, _stats: &RoundStats, states: &[S]) {
        self.per_round.push(states.to_vec());
    }
}

fn chaos_counters<S>(m: &MetricsCollector<S>) -> RuntimeCounters {
    let mut total = RuntimeCounters::default();
    for r in m.rounds() {
        let rt = r.runtime.as_ref().expect("runtime counters present");
        total.frames_dropped += rt.frames_dropped;
        total.frames_duped += rt.frames_duped;
        total.frames_delayed += rt.frames_delayed;
        total.frames_corrupted += rt.frames_corrupted;
        total.restarts += rt.restarts;
    }
    total
}

#[test]
fn seeded_chaos_is_fully_deterministic() {
    let g = generators::grid(6, 6);
    let smm = Smm::paper(Ids::identity(g.n()));
    let plan = FaultPlan::parse_spec("drop=0.2,dup=0.05,delay=2,corrupt=0.05", 77).unwrap();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut trace = StateTrace {
            per_round: Vec::new(),
        };
        let mut metrics = MetricsCollector::new();
        let run = RuntimeExecutor::new(&g, &smm, 4)
            .with_chaos(plan.clone())
            .run_observed(
                InitialState::Random { seed: 3 },
                8 * g.n(),
                &mut (&mut trace, &mut metrics),
            )
            .unwrap();
        runs.push((run, trace.per_round, chaos_counters(&metrics)));
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.0.outcome, b.0.outcome);
    assert_eq!(a.0.rounds, b.0.rounds);
    assert_eq!(a.0.final_states, b.0.final_states);
    assert_eq!(a.1, b.1, "identical per-round states");
    assert_eq!(a.2, b.2, "identical fault counters");
    // The plan actually fired: every frame-level fault class was exercised.
    assert!(a.2.frames_dropped > 0, "no frames dropped");
    assert!(a.2.frames_duped > 0, "no frames duplicated");
    assert!(a.2.frames_delayed > 0, "no frames delayed");
    assert!(a.2.frames_corrupted > 0, "no frames corrupted");
}

#[test]
fn smm_converges_and_is_legitimate_under_sustained_loss() {
    let g = generators::grid(8, 8);
    let smm = Smm::paper(Ids::identity(g.n()));
    for shards in [2, 4, 8] {
        let plan = FaultPlan::parse_spec("drop=0.3,dup=0.05,delay=2", 19).unwrap();
        let run = RuntimeExecutor::new(&g, &smm, shards)
            .with_chaos(plan)
            .run(InitialState::Random { seed: 5 }, 16 * g.n())
            .unwrap();
        assert_eq!(run.outcome, Outcome::Stabilized, "shards={shards}");
        assert!(
            smm.is_legitimate(&g, &run.final_states),
            "shards={shards}: final matching not maximal"
        );
    }
}

#[test]
fn smi_converges_under_chaos_on_both_schedules() {
    let g = generators::petersen();
    let smi = Smi::new(Ids::identity(g.n()));
    let plan = FaultPlan::parse_spec("drop=0.25,corrupt=0.1", 4).unwrap();
    for schedule in [Schedule::Active, Schedule::Full] {
        let run = RuntimeExecutor::new(&g, &smi, 4)
            .with_schedule(schedule)
            .with_chaos(plan.clone())
            .run(InitialState::Random { seed: 8 }, 400)
            .unwrap();
        assert_eq!(run.outcome, Outcome::Stabilized, "schedule={schedule}");
        assert!(smi.is_legitimate(&g, &run.final_states), "{schedule}");
    }
}

#[test]
fn crash_restart_recovers_to_a_legitimate_configuration() {
    let g = generators::grid(6, 6);
    let smm = Smm::paper(Ids::identity(g.n()));
    let plan = FaultPlan::new(23).with_crash(1, 3);
    let mut metrics = MetricsCollector::new();
    let run = RuntimeExecutor::new(&g, &smm, 4)
        .with_chaos(plan)
        .run_observed(InitialState::Random { seed: 2 }, 8 * g.n(), &mut metrics)
        .unwrap();
    assert_eq!(run.outcome, Outcome::Stabilized);
    assert!(smm.is_legitimate(&g, &run.final_states));
    let totals = chaos_counters(&metrics);
    assert_eq!(totals.restarts, 1, "exactly one injected restart");
    // The restart round itself carries the counter.
    let restart_round = metrics
        .rounds()
        .iter()
        .find(|r| r.runtime.as_ref().unwrap().restarts > 0)
        .expect("a round recorded the restart");
    assert_eq!(
        restart_round.round, 4,
        "crash fires entering round 3 (0-based)"
    );
}

#[test]
fn crash_restart_without_frame_chaos_keeps_other_counters_zero() {
    let g = generators::cycle(12);
    let smi = Smi::new(Ids::identity(g.n()));
    let plan = FaultPlan::new(9).with_crash(0, 2);
    let mut metrics = MetricsCollector::new();
    let run = RuntimeExecutor::new(&g, &smi, 3)
        .with_chaos(plan)
        .run_observed(InitialState::Random { seed: 6 }, 200, &mut metrics)
        .unwrap();
    assert_eq!(run.outcome, Outcome::Stabilized);
    let totals = chaos_counters(&metrics);
    assert_eq!(totals.restarts, 1);
    assert_eq!(totals.frames_dropped, 0);
    assert_eq!(totals.frames_duped, 0);
    assert_eq!(totals.frames_delayed, 0);
    assert_eq!(totals.frames_corrupted, 0);
}

#[test]
fn value_preserving_chaos_cannot_mask_the_c4_oscillation() {
    // C4 under clockwise-propose oscillates forever in lockstep. Duplicated
    // frames re-deliver the *same* value, so they cannot perturb the
    // trajectory: the runtime must still hit the round limit, chaos or not.
    let g = generators::cycle(4);
    let smm = Smm::with_policies(
        Ids::identity(g.n()),
        selfstab_core::smm::SelectPolicy::Clockwise,
        selfstab_core::smm::SelectPolicy::Clockwise,
    );
    let plan = FaultPlan::parse_spec("dup=0.3", 31).unwrap();
    let run = RuntimeExecutor::new(&g, &smm, 2)
        .with_chaos(plan)
        .run(InitialState::Default, 100)
        .unwrap();
    assert_eq!(run.outcome, Outcome::RoundLimit);
}

#[test]
fn lossy_chaos_that_breaks_the_oscillation_still_ends_legitimate() {
    // Dropped frames leave receivers evaluating against stale ghosts —
    // exactly the desynchronization that breaks the synchronous livelock
    // (the paper's oscillation needs lockstep symmetry). Whatever the
    // outcome, a reported stabilization must be a *real* matching: the
    // acked model forbids declaring victory while any ghost is stale.
    let g = generators::cycle(4);
    let smm = Smm::with_policies(
        Ids::identity(g.n()),
        selfstab_core::smm::SelectPolicy::Clockwise,
        selfstab_core::smm::SelectPolicy::Clockwise,
    );
    let plan = FaultPlan::parse_spec("drop=0.2,until=40", 31).unwrap();
    let run = RuntimeExecutor::new(&g, &smm, 2)
        .with_chaos(plan)
        .run(InitialState::Default, 100)
        .unwrap();
    if run.outcome == Outcome::Stabilized {
        assert!(smm.is_legitimate(&g, &run.final_states));
    }
}

#[test]
fn invalid_plans_are_rejected_up_front() {
    let g = generators::path(6);
    let smi = Smi::new(Ids::identity(g.n()));
    // Probabilities summing past 1.
    let bad = FaultPlan::new(1).with_drop(0.7).with_corrupt(0.5);
    let err = RuntimeExecutor::new(&g, &smi, 2)
        .with_chaos(bad)
        .run(InitialState::Default, 10)
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::InvalidPlan { .. }),
        "expected InvalidPlan, got {err:?}"
    );
    // A crash aimed at a shard the partition does not have.
    let oob = FaultPlan::new(1).with_crash(5, 1);
    let err = RuntimeExecutor::new(&g, &smi, 2)
        .with_chaos(oob)
        .run(InitialState::Default, 10)
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::InvalidPlan { .. }),
        "expected InvalidPlan, got {err:?}"
    );
}

#[test]
fn sharded_churn_matches_the_serial_reference() {
    let g = generators::grid(6, 6);
    let smm = Smm::paper(Ids::identity(g.n()));
    let churn = ChurnSchedule::new(5, 41).with_events(2).with_epochs(3);
    let init = InitialState::Random { seed: 13 };
    let serial =
        run_churned_serial(&g, &smm, Schedule::Active, &churn, init.clone(), 8 * g.n()).unwrap();
    assert!(is_connected(&serial.graph));
    for shards in [1, 2, 4, 8] {
        let sharded = run_churned_sharded(
            &g,
            &smm,
            shards,
            Schedule::Active,
            None,
            &churn,
            init.clone(),
            8 * g.n(),
            &mut (),
        )
        .unwrap();
        assert_eq!(serial.run.outcome, sharded.run.outcome, "shards={shards}");
        assert_eq!(serial.run.rounds, sharded.run.rounds, "shards={shards}");
        assert_eq!(
            serial.run.moves_per_rule, sharded.run.moves_per_rule,
            "shards={shards}"
        );
        assert_eq!(
            serial.run.final_states, sharded.run.final_states,
            "shards={shards}"
        );
        assert_eq!(serial.events, sharded.events, "shards={shards}");
        // Legitimacy is judged on the *mutated* topology.
        if sharded.run.stabilized() {
            assert!(smm.is_legitimate(&sharded.graph, &sharded.run.final_states));
        }
    }
}

#[test]
fn churn_composes_with_frame_chaos_and_stays_deterministic() {
    let g = generators::grid(6, 6);
    let smi = Smi::new(Ids::identity(g.n()));
    let churn = ChurnSchedule::new(6, 5).with_epochs(2);
    let plan = FaultPlan::parse_spec("drop=0.15,delay=1", 8).unwrap();
    let mut outs = Vec::new();
    for _ in 0..2 {
        let mut metrics = MetricsCollector::new();
        let out = run_churned_sharded(
            &g,
            &smi,
            4,
            Schedule::Active,
            Some(&plan),
            &churn,
            InitialState::Random { seed: 21 },
            16 * g.n(),
            &mut metrics,
        )
        .unwrap();
        assert_eq!(out.run.outcome, Outcome::Stabilized);
        assert!(smi.is_legitimate(&out.graph, &out.run.final_states));
        // Observer rounds are reported on the absolute clock across
        // segments: strictly increasing, ending at the total round count.
        let rounds: Vec<usize> = metrics.rounds().iter().map(|r| r.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{rounds:?}");
        assert_eq!(rounds.last().copied(), Some(out.run.rounds));
        outs.push((out, chaos_counters(&metrics)));
    }
    assert_eq!(outs[0].0.run.final_states, outs[1].0.run.final_states);
    assert_eq!(outs[0].0.run.rounds, outs[1].0.run.rounds);
    assert_eq!(outs[0].0.events, outs[1].0.events);
    assert_eq!(outs[0].1, outs[1].1, "identical fault counters");
    assert!(outs[0].1.frames_dropped > 0);
}

/// A guard with an implementation bug: panics once node 0 holds `true`.
struct PanicProto;

impl Protocol for PanicProto {
    type State = bool;
    fn rule_names(&self) -> &'static [&'static str] {
        &["flip"]
    }
    fn default_state(&self) -> bool {
        false
    }
    fn arbitrary_state(&self, _: Node, _: &[Node], _: &mut StdRng) -> bool {
        false
    }
    fn enumerate_states(&self, _: Node, _: &[Node]) -> Vec<bool> {
        vec![false, true]
    }
    fn step(&self, view: View<'_, bool>) -> Option<Move<bool>> {
        if *view.own() && view.node() == Node(0) {
            panic!("injected guard bug on node 0");
        }
        (!view.own()).then_some(Move {
            rule: 0,
            next: true,
        })
    }
}

#[test]
fn real_worker_panic_still_surfaces_while_a_plan_is_active() {
    // An injected crash-restart is routine under a plan; an actual panic in
    // a guard must NOT be mistaken for one — it still poisons the barrier
    // and reports WorkerPanic. (The panic message on stderr is expected.)
    let g = generators::grid(4, 4);
    let plan = FaultPlan::parse_spec("drop=0.1", 3).unwrap();
    let err = RuntimeExecutor::new(&g, &PanicProto, 4)
        .with_chaos(plan)
        .run(InitialState::Default, 10)
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err:?}"
    );
}
