//! Property: the active-set schedule is pure evaluation pruning.
//!
//! For any connected random graph, any arbitrary initial state, and any
//! protocol (SMM, SMI, Hsu–Huang), the engine must produce the same
//! execution — rounds, outcome, per-rule move counts, per-round states, and
//! final states — under `Schedule::Full` and `Schedule::Active`, on the
//! serial executor and the sharded mailbox runtime at every shard count. Soundness argument: the round-(r+1)
//! worklist is `⋃ N[u]` over round-r movers, and a node privileged in round
//! r+1 either moved in round r (it is in its own closed neighborhood) or
//! had its view changed by a moving neighbor — so pruning never skips a
//! privileged node (`selfstab::engine::active` module docs; the shrinking
//! frontier is the paper's Lemmas 9–10).
//!
//! The serial full sweep additionally pins `evaluated`: full = n per round,
//! active ≤ n, and the runtime's per-shard `owned ∩ active` worklists must
//! partition the serial active set exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::core::hsu_huang::HsuHuang;
use selfstab::core::smm::Smm;
use selfstab::core::Smi;
use selfstab::engine::active::Schedule;
use selfstab::engine::adversary::ByzStrategy;
use selfstab::engine::faults::CrashAt;
use selfstab::engine::obs::{
    ChromeTraceWriter, JsonlEventLog, MetricsCollector, Observer, RoundStats,
};
use selfstab::engine::protocol::{InitialState, Protocol, WireState};
use selfstab::engine::sync::{Run, SyncExecutor};
use selfstab::graph::{generators, Graph, Ids};
use selfstab::runtime::{FaultPlan, RuntimeExecutor};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Per-round states plus metrics, for exact cross-executor comparison.
struct Trace<S> {
    states: Vec<Vec<S>>,
    evaluated: Vec<usize>,
}

impl<S> Trace<S> {
    fn new() -> Self {
        Trace {
            states: Vec::new(),
            evaluated: Vec::new(),
        }
    }
}

impl<S: Clone> Observer<S> for Trace<S> {
    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        self.states.push(states.to_vec());
        self.evaluated.push(stats.evaluated);
    }
}

fn assert_same_run<S: Clone + PartialEq + std::fmt::Debug>(
    label: &str,
    a: &Run<S>,
    b: &Run<S>,
) -> TestCaseResult {
    prop_assert_eq!(a.rounds, b.rounds, "rounds differ: {}", label);
    prop_assert_eq!(&a.outcome, &b.outcome, "outcome differs: {}", label);
    prop_assert_eq!(
        &a.moves_per_rule,
        &b.moves_per_rule,
        "moves per rule differ: {}",
        label
    );
    prop_assert_eq!(
        &a.final_states,
        &b.final_states,
        "final states differ: {}",
        label
    );
    Ok(())
}

/// The full cross-product for one protocol instance on one graph: serial
/// full is the reference; serial active and the runtime under both
/// schedules at every shard count must reproduce it.
fn check<P: Protocol>(g: &Graph, proto: &P, seed: u64) -> TestCaseResult
where
    P::State: WireState,
{
    let max_rounds = 4 * g.n() + 8;
    let init = InitialState::Random { seed };

    let mut full_trace = Trace::new();
    let reference = SyncExecutor::new(g, proto)
        .with_schedule(Schedule::Full)
        .run_observed(init.clone(), max_rounds, &mut full_trace);
    let mut active_trace = Trace::new();
    let active = SyncExecutor::new(g, proto)
        .with_schedule(Schedule::Active)
        .run_observed(init.clone(), max_rounds, &mut active_trace);
    assert_same_run("serial active vs full", &reference, &active)?;
    prop_assert_eq!(
        &full_trace.states,
        &active_trace.states,
        "serial per-round states"
    );
    for (r, (&f, &a)) in full_trace
        .evaluated
        .iter()
        .zip(&active_trace.evaluated)
        .enumerate()
    {
        prop_assert_eq!(f, g.n(), "full sweep evaluates everyone (round {})", r + 1);
        prop_assert!(a <= f, "active can only shrink work (round {})", r + 1);
    }

    for shards in SHARD_COUNTS {
        for schedule in [Schedule::Full, Schedule::Active] {
            let mut rt_trace = Trace::new();
            let rt = RuntimeExecutor::new(g, proto, shards)
                .with_schedule(schedule)
                .run_observed(init.clone(), max_rounds, &mut rt_trace)
                .expect("sharded run failed");
            let label = format!("runtime {schedule} shards={shards}");
            assert_same_run(&label, &reference, &rt)?;
            prop_assert_eq!(&full_trace.states, &rt_trace.states, "states: {}", &label);
            // The per-shard owned ∩ active worklists partition the serial
            // active set: both mark v iff some u ∈ N[v] moved last round.
            let serial = match schedule {
                Schedule::Full => &full_trace.evaluated,
                Schedule::Active => &active_trace.evaluated,
            };
            prop_assert_eq!(&rt_trace.evaluated, serial, "evaluated: {}", &label);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn smm_schedules_and_executors_agree(
        n in 4usize..40,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        check(&g, &Smm::paper(Ids::identity(g.n())), state_seed)?;
    }

    #[test]
    fn smi_schedules_and_executors_agree(
        n in 4usize..40,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        check(&g, &Smi::new(Ids::identity(g.n())), state_seed)?;
    }

    #[test]
    fn hsu_huang_schedules_and_executors_agree(
        n in 4usize..32,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
    ) {
        // Hsu–Huang under the synchronous daemon may oscillate (it needs a
        // central daemon to stabilize) — equivalence must hold for
        // round-limited executions too, not just converging ones.
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        check(&g, &HsuHuang::classic(g.n()), state_seed)?;
    }
}

/// Satellite (crash-at): an injected serial full restart must be
/// byte-identical to the runtime's crash-restart of a single shard holding
/// the whole graph. `CrashAt { frac: 1.0 }` rehydrates every node in
/// ascending order from `seed`, and the runtime worker does exactly the
/// same with `FaultPlan::restart_seed(0, round)` — so seeding the serial
/// crash from the plan pins the two code paths against each other.
#[test]
fn serial_crash_at_matches_runtime_single_shard_restart() {
    let g = generators::erdos_renyi_connected(24, 0.25, &mut StdRng::seed_from_u64(1105));
    let smm = Smm::paper(Ids::identity(g.n()));
    let max_rounds = 4 * g.n() + 8;
    let init = InitialState::Random { seed: 5 };
    for crash_round in [0usize, 2, 5] {
        for schedule in [Schedule::Full, Schedule::Active] {
            let plan = FaultPlan::new(77).with_crash(0, crash_round);
            let crash = CrashAt {
                round: crash_round,
                frac: 1.0,
                seed: plan.restart_seed(0, crash_round),
            };
            let mut serial_trace = Trace::new();
            let serial = SyncExecutor::new(&g, &smm)
                .with_schedule(schedule)
                .with_crash(crash)
                .run_observed(init.clone(), max_rounds, &mut serial_trace);
            let mut rt_trace = Trace::new();
            let rt = RuntimeExecutor::new(&g, &smm, 1)
                .with_schedule(schedule)
                .with_chaos(plan)
                .run_observed(init.clone(), max_rounds, &mut rt_trace)
                .expect("sharded crash run failed");
            let label = format!("crash@{crash_round} {schedule}");
            assert_eq!(serial.rounds, rt.rounds, "rounds: {label}");
            assert_eq!(serial.outcome, rt.outcome, "outcome: {label}");
            assert_eq!(serial.moves_per_rule, rt.moves_per_rule, "moves: {label}");
            assert_eq!(
                serial.final_states, rt.final_states,
                "final states: {label}"
            );
            assert_eq!(
                serial_trace.states, rt_trace.states,
                "per-round states: {label}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite (profiling is inert): a run observed by the full profiling
    /// stack — metrics, Chrome trace, and JSONL artifact — must be
    /// state-for-state identical to an unobserved run, at every shard count
    /// and on the serial executor. Spans read clocks, never state.
    #[test]
    fn profiling_observers_do_not_perturb_execution(
        n in 4usize..32,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        let smm = Smm::paper(Ids::identity(g.n()));
        let max_rounds = 4 * g.n() + 8;
        let init = InitialState::Random { seed: state_seed };

        let serial_bare = SyncExecutor::new(&g, &smm).run(init.clone(), max_rounds);
        let mut m = MetricsCollector::new();
        let mut c = ChromeTraceWriter::new();
        let mut j = JsonlEventLog::new();
        let serial_profiled = SyncExecutor::new(&g, &smm).run_observed(
            init.clone(),
            max_rounds,
            &mut (&mut m, (&mut c, &mut j)),
        );
        prop_assert_eq!(&serial_bare.rounds, &serial_profiled.rounds, "serial rounds");
        prop_assert_eq!(&serial_bare.outcome, &serial_profiled.outcome, "serial outcome");
        prop_assert_eq!(
            &serial_bare.final_states,
            &serial_profiled.final_states,
            "serial final states"
        );

        for shards in SHARD_COUNTS {
            let bare = RuntimeExecutor::new(&g, &smm, shards)
                .run(init.clone(), max_rounds)
                .expect("unobserved run failed");
            let mut metrics = MetricsCollector::new();
            let mut chrome = ChromeTraceWriter::new();
            let mut jsonl = JsonlEventLog::new();
            let profiled = RuntimeExecutor::new(&g, &smm, shards)
                .run_observed(
                    init.clone(),
                    max_rounds,
                    &mut (&mut metrics, (&mut chrome, &mut jsonl)),
                )
                .expect("profiled run failed");
            prop_assert_eq!(&bare.rounds, &profiled.rounds, "rounds: shards={}", shards);
            prop_assert_eq!(&bare.outcome, &profiled.outcome, "outcome: shards={}", shards);
            prop_assert_eq!(
                &bare.moves_per_rule,
                &profiled.moves_per_rule,
                "moves: shards={}",
                shards
            );
            prop_assert_eq!(
                &bare.final_states,
                &profiled.final_states,
                "final states: shards={}",
                shards
            );
            // And the observed run actually carried per-lane profiles: one
            // lane per shard, every round.
            for (r, rec) in metrics.rounds().iter().enumerate() {
                let p = rec.profile.as_ref();
                prop_assert!(p.is_some(), "round {} missing profile (shards={})", r + 1, shards);
                prop_assert_eq!(
                    p.unwrap().shards.len(),
                    shards,
                    "lane count: round {} shards={}",
                    r + 1,
                    shards
                );
            }
        }
    }
}

/// Adversarial cross-check: serial (both schedules) vs the runtime at every
/// shard count, under the same derived Byzantine/asym sub-plans, comparing
/// rounds, outcome, per-rule moves, final states, per-round states, and
/// evaluation counts.
fn check_adversarial<P: Protocol>(
    g: &Graph,
    proto: &P,
    fault: &FaultPlan,
    init: InitialState<P::State>,
    max_rounds: usize,
) -> TestCaseResult
where
    P::State: WireState,
{
    let serial = |schedule| {
        let mut exec = SyncExecutor::new(g, proto).with_schedule(schedule);
        if let Some(b) = fault.byz_plan() {
            exec = exec.with_adversary(b);
        }
        if let Some(a) = fault.asym_plan() {
            exec = exec.with_asym(a);
        }
        let mut trace = Trace::new();
        let run = exec.run_observed(init.clone(), max_rounds, &mut trace);
        (run, trace)
    };
    let (reference, full_trace) = serial(Schedule::Full);
    let (active, active_trace) = serial(Schedule::Active);
    assert_same_run("adversarial serial active vs full", &reference, &active)?;
    prop_assert_eq!(
        &full_trace.states,
        &active_trace.states,
        "adversarial serial per-round states"
    );

    for shards in SHARD_COUNTS {
        for schedule in [Schedule::Full, Schedule::Active] {
            let mut rt_trace = Trace::new();
            let rt = RuntimeExecutor::new(g, proto, shards)
                .with_schedule(schedule)
                .with_chaos(fault.clone())
                .run_observed(init.clone(), max_rounds, &mut rt_trace)
                .expect("adversarial sharded run failed");
            let label = format!("adversarial runtime {schedule} shards={shards}");
            assert_same_run(&label, &reference, &rt)?;
            prop_assert_eq!(&full_trace.states, &rt_trace.states, "states: {}", &label);
            let serial_eval = match schedule {
                Schedule::Full => &full_trace.evaluated,
                Schedule::Active => &active_trace.evaluated,
            };
            prop_assert_eq!(&rt_trace.evaluated, serial_eval, "evaluated: {}", &label);
        }
    }
    Ok(())
}

/// Tentpole acceptance: serial ≡ runtime at 1/2/4/8 shards under a live
/// Byzantine plan, for every strategy, on SMM and SMI. The adversary runs
/// hot through `until` and the honest protocol must then recover — the run
/// crosses both phases, so the equality covers rewrite rounds, the frozen
/// adversary, and the recovery tail.
#[test]
fn byzantine_adversary_serial_matches_runtime() {
    let g = generators::erdos_renyi_connected(26, 0.25, &mut StdRng::seed_from_u64(2409));
    let byz_nodes = vec![selfstab::graph::Node(3), selfstab::graph::Node(17)];
    let max_rounds = 6 * g.n() + 8;
    for strat in [
        ByzStrategy::RandomPointer,
        ByzStrategy::MimicNeighbor,
        ByzStrategy::Oscillate,
    ] {
        let fault = FaultPlan::new(911)
            .with_byz(byz_nodes.clone(), strat)
            .with_until(12);
        let smm = Smm::paper(Ids::identity(g.n()));
        check_adversarial(
            &g,
            &smm,
            &fault,
            InitialState::Random { seed: 4 },
            max_rounds,
        )
        .unwrap_or_else(|e| panic!("smm byz {}: {e}", strat.name()));
        let smi = Smi::new(Ids::identity(g.n()));
        check_adversarial(
            &g,
            &smi,
            &fault,
            InitialState::Random { seed: 4 },
            max_rounds,
        )
        .unwrap_or_else(|e| panic!("smi byz {}: {e}", strat.name()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole acceptance (proptest form): random graph, random Byzantine
    /// set, random strategy and window — serial ≡ runtime at every shard
    /// count.
    #[test]
    fn byzantine_plans_preserve_equivalence(
        n in 6usize..28,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
        byz_a in 0usize..28,
        byz_b in 0usize..28,
        strat_ix in 0usize..3,
        until in 4usize..16,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        let strat = [
            ByzStrategy::RandomPointer,
            ByzStrategy::MimicNeighbor,
            ByzStrategy::Oscillate,
        ][strat_ix];
        let nodes = vec![
            selfstab::graph::Node((byz_a % n) as u32),
            selfstab::graph::Node((byz_b % n) as u32),
        ];
        let fault = FaultPlan::new(state_seed ^ 0xb12a)
            .with_byz(nodes, strat)
            .with_until(until);
        let max_rounds = 6 * g.n() + 8;
        check_adversarial(
            &g,
            &Smm::paper(Ids::identity(g.n())),
            &fault,
            InitialState::Random { seed: state_seed },
            max_rounds,
        )?;
    }

    /// Asymmetric links: per-direction fate hashing is shard-agnostic, so
    /// serial ≡ runtime holds for lossy windows too.
    #[test]
    fn asym_plans_preserve_equivalence(
        n in 6usize..28,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
        p_tenths in 1u32..9,
        until in 4usize..16,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        let fault = FaultPlan::new(state_seed ^ 0xa5e7)
            .with_asym(f64::from(p_tenths) / 10.0)
            .with_until(until);
        let max_rounds = 6 * g.n() + 8;
        check_adversarial(
            &g,
            &Smm::paper(Ids::identity(g.n())),
            &fault,
            InitialState::Random { seed: state_seed },
            max_rounds,
        )?;
        check_adversarial(
            &g,
            &Smi::new(Ids::identity(g.n())),
            &fault,
            InitialState::Random { seed: state_seed },
            max_rounds,
        )?;
    }

    /// Satellite: `asym=0` and an empty Byzantine set must leave the
    /// byte-identity of the clean equivalence suite intact — a no-op plan
    /// reproduces the plan-free run exactly, per-round states included.
    #[test]
    fn noop_adversarial_plan_is_byte_identical(
        n in 4usize..32,
        graph_seed in 0u64..1_000_000,
        state_seed in 0u64..1_000_000,
    ) {
        let g = generators::erdos_renyi_connected(n, 0.25, &mut StdRng::seed_from_u64(graph_seed));
        let smm = Smm::paper(Ids::identity(g.n()));
        let max_rounds = 4 * g.n() + 8;
        let init = InitialState::Random { seed: state_seed };
        let fault = FaultPlan::new(1234)
            .with_byz(Vec::new(), ByzStrategy::RandomPointer)
            .with_asym(0.0);
        prop_assert!(!fault.has_adversary());
        prop_assert!(fault.byz_plan().is_none());
        prop_assert!(fault.asym_plan().is_none());

        let mut clean_trace = Trace::new();
        let clean = SyncExecutor::new(&g, &smm)
            .run_observed(init.clone(), max_rounds, &mut clean_trace);
        for shards in SHARD_COUNTS {
            let mut rt_trace = Trace::new();
            let rt = RuntimeExecutor::new(&g, &smm, shards)
                .with_chaos(fault.clone())
                .run_observed(init.clone(), max_rounds, &mut rt_trace)
                .expect("noop-plan run failed");
            prop_assert_eq!(clean.rounds, rt.rounds, "rounds: shards={}", shards);
            prop_assert_eq!(&clean.outcome, &rt.outcome, "outcome: shards={}", shards);
            prop_assert_eq!(
                &clean.final_states, &rt.final_states,
                "final states: shards={}", shards
            );
            prop_assert_eq!(
                &clean_trace.states, &rt_trace.states,
                "per-round states: shards={}", shards
            );
        }
    }
}

/// Deterministic spot-check on structured topologies where the active set
/// decays fast — and a direct look at the decay itself.
#[test]
fn active_set_decays_on_structured_topologies() {
    for g in [
        generators::path(64),
        generators::star(64),
        generators::grid(8, 8),
    ] {
        let smm = Smm::paper(Ids::identity(g.n()));
        let mut m = MetricsCollector::new();
        let run = SyncExecutor::new(&g, &smm).run_observed(
            InitialState::Random { seed: 7 },
            g.n() + 2,
            &mut m,
        );
        assert!(run.stabilized());
        let evaluated: Vec<usize> = m.rounds().iter().map(|r| r.evaluated).collect();
        assert_eq!(evaluated[0], g.n(), "round 1 sweeps everyone");
        let tail_max = evaluated.iter().skip(2).max().copied().unwrap_or(0);
        assert!(
            tail_max < g.n(),
            "after two rounds the worklist must have shrunk (got {evaluated:?})"
        );
    }
}
