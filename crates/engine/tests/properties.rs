//! Property-based tests for the execution engine itself, using the paper's
//! SMM-shaped state space indirectly through a local toy protocol (the
//! engine must uphold its contracts for *any* protocol).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_engine::central::{CentralExecutor, Scheduler};
use selfstab_engine::distributed::{DistributedExecutor, SubsetPolicy};
use selfstab_engine::protocol::{InitialState, Move, Protocol, View};
use selfstab_engine::sync::SyncExecutor;
use selfstab_graph::{generators, Graph, Node};

/// The shared toy protocol: spread the maximum value.
struct MaxProto;
impl Protocol for MaxProto {
    type State = u8;
    fn rule_names(&self) -> &'static [&'static str] {
        &["copy-max"]
    }
    fn default_state(&self) -> u8 {
        0
    }
    fn arbitrary_state(&self, _: Node, _: &[Node], rng: &mut StdRng) -> u8 {
        rng.random_range(0..6)
    }
    fn enumerate_states(&self, _: Node, _: &[Node]) -> Vec<u8> {
        (0..6).collect()
    }
    fn step(&self, view: View<'_, u8>) -> Option<Move<u8>> {
        let m = view.neighbor_states().map(|(_, &s)| s).max()?;
        (m > *view.own()).then_some(Move { rule: 0, next: m })
    }
    fn is_legitimate(&self, _: &Graph, states: &[u8]) -> bool {
        states.windows(2).all(|w| w[0] == w[1])
    }
}

fn arb_connected(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::random_tree(n, &mut rng);
        for _ in 0..n {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                g.add_edge(Node::from(a), Node::from(b));
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The synchronous daemon equals the distributed daemon with the All
    /// policy, and both end legitimate.
    #[test]
    fn sync_equals_distributed_all(g in arb_connected(25), seed in any::<u64>()) {
        let a = SyncExecutor::new(&g, &MaxProto).run(InitialState::Random { seed }, 200);
        let b = DistributedExecutor::new(&g, &MaxProto)
            .run(InitialState::Random { seed }, &mut SubsetPolicy::All, 200);
        prop_assert!(a.stabilized());
        prop_assert_eq!(&a.final_states, &b.final_states);
        prop_assert!(MaxProto.is_legitimate(&g, &a.final_states));
    }

    /// All central schedulers drive MaxProto to the same fixpoint (it is
    /// confluent) within n * states moves.
    #[test]
    fn central_schedulers_confluent(g in arb_connected(15), seed in any::<u64>()) {
        let exec = CentralExecutor::new(&g, &MaxProto);
        let budget = (g.n() * 6) as u64;
        let reference = exec.run(
            InitialState::Random { seed },
            &mut Scheduler::First,
            budget,
        );
        prop_assert!(reference.stabilized);
        for mut sched in [Scheduler::Last, Scheduler::random(seed), Scheduler::RoundRobin { cursor: 0 }] {
            let run = exec.run(InitialState::Random { seed }, &mut sched, budget);
            prop_assert!(run.stabilized);
            prop_assert_eq!(&run.final_states, &reference.final_states);
        }
    }

    /// Rounds never exceed the diameter for MaxProto (information travels
    /// one hop per round).
    #[test]
    fn rounds_bounded_by_diameter(g in arb_connected(20), seed in any::<u64>()) {
        let run = SyncExecutor::new(&g, &MaxProto).run(InitialState::Random { seed }, 200);
        prop_assert!(run.stabilized());
        let dia = selfstab_graph::traversal::diameter(&g).expect("connected");
        prop_assert!(run.rounds() <= dia.max(1));
    }

    /// Traces recorded by the executor always validate, and tampering is
    /// always caught.
    #[test]
    fn trace_validation_sound_and_complete(
        g in arb_connected(12),
        seed in any::<u64>(),
        tamper in any::<u64>(),
    ) {
        use selfstab_engine::record::{record, validate_trace, TraceError};
        let run = SyncExecutor::new(&g, &MaxProto)
            .with_trace()
            .run(InitialState::Random { seed }, 200);
        let trace = run.trace.clone().unwrap();
        let rec = record(&g, &MaxProto, trace.clone(), run.stabilized());
        prop_assert_eq!(validate_trace(&MaxProto, &rec), Ok(()));
        if trace.len() >= 2 {
            let mut bad = rec.clone();
            let t = (tamper as usize) % (trace.len() - 1);
            let v = (tamper as usize / 7) % g.n();
            // Set a mid-trace cell to an impossible value.
            bad.trace[t + 1][v] = 200;
            let verdict = validate_trace(&MaxProto, &bad);
            let caught = matches!(
                verdict,
                Err(TraceError::WrongTransition { .. })
                    | Err(TraceError::UnprivilegedMove { .. })
                    | Err(TraceError::MissedMove { .. })
                    | Err(TraceError::WrongTermination { .. })
            );
            prop_assert!(caught, "tampering not caught: {verdict:?}");
        }
    }

    /// Random-priority and greedy-independent subsets always select
    /// pairwise non-adjacent nodes.
    #[test]
    fn subset_policies_select_independent_sets(g in arb_connected(20), seed in any::<u64>()) {
        let privileged: Vec<Node> = g.nodes().collect();
        for mut policy in [SubsetPolicy::IndependentGreedy, SubsetPolicy::random_priority(seed)] {
            let chosen = policy.select(&g, &privileged);
            for (i, &u) in chosen.iter().enumerate() {
                for &v in &chosen[i + 1..] {
                    prop_assert!(!g.has_edge(u, v), "{u:?}-{v:?} adjacent");
                }
            }
        }
    }
}
