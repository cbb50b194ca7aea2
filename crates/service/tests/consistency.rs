//! Property: the resident service's incremental re-convergence is
//! *observationally identical* to the serial oracle.
//!
//! For any topology, any initial state, and any interleaving of valid
//! mutations and queries:
//!
//! 1. after each event the service's states equal what a from-scratch
//!    [`SyncExecutor`] run (full restart from the pre-event states on the
//!    mutated graph) converges to, move-for-move and round-for-round —
//!    the active-set seeding over perturbed closed neighborhoods is pure
//!    evaluation pruning, not a different daemon;
//! 2. per-event recovery rounds respect the paper's Theorem 1/2 budget
//!    (`n + 2` rounds, from *any* perturbation);
//! 3. every intermediate configuration answered to queries is legitimate.

use proptest::prelude::*;
use selfstab_core::{Smi, Smm};
use selfstab_engine::protocol::{InitialState, Protocol};
use selfstab_engine::SyncExecutor;
use selfstab_graph::{generators, Graph, Ids};
use selfstab_json::Json;
use selfstab_service::{Mutation, OverlayProtocol, OverlayService, SimClock};

/// Abstract mutation script entry; concretized against the live graph so
/// every event is valid (toggle picks up/down from the current topology).
#[derive(Clone, Debug)]
enum Op {
    Toggle(usize, usize),
    Leave(usize),
    Rejoin(usize, Vec<usize>),
    Query,
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    (0u8..4, 0..n, 0..n, 0..n).prop_map(|(kind, a, b, c)| match kind {
        0 => Op::Toggle(a, b),
        1 => Op::Leave(a),
        2 => Op::Rejoin(a, vec![b, c]),
        _ => Op::Query,
    })
}

fn topology(pick: u8, n: usize) -> Graph {
    match pick % 4 {
        0 => generators::path(n),
        1 => generators::cycle(n),
        2 => generators::star(n),
        _ => generators::complete(n.min(7)),
    }
}

fn concretize(op: &Op, g: &Graph) -> Option<Mutation> {
    match op {
        Op::Toggle(a, b) if a != b => {
            if g.has_edge((*a).into(), (*b).into()) {
                Some(Mutation::EdgeDown { a: *a, b: *b })
            } else {
                Some(Mutation::EdgeUp { a: *a, b: *b })
            }
        }
        Op::Toggle(..) => None,
        Op::Leave(v) => Some(Mutation::NodeLeave { v: *v }),
        Op::Rejoin(v, attach) => {
            let attach: Vec<usize> = attach.iter().copied().filter(|w| w != v).collect();
            Some(Mutation::NodeJoin { v: *v, attach })
        }
        Op::Query => None,
    }
}

fn check_against_oracle<P: OverlayProtocol>(
    g: Graph,
    proto: &P,
    state_seed: u64,
    ops: &[Op],
) -> TestCaseResult {
    let n = g.n();
    let clock = SimClock::new();
    let mut svc = OverlayService::new(g, proto, InitialState::Random { seed: state_seed }, 0);
    let boot = svc.stabilize(&clock, &mut ());
    prop_assert!(boot.converged, "bootstrap within n + 2");
    prop_assert!(boot.recovery_rounds <= n + 2);

    for op in ops {
        if matches!(op, Op::Query) {
            // Interleaved queries observe a legitimate structure and a
            // parseable wire answer.
            prop_assert!(proto.is_legitimate(svc.graph(), svc.states()));
            let status = svc.status_json();
            prop_assert_eq!(status.get("converged").and_then(Json::as_bool), Some(true));
            prop_assert_eq!(status.get("legitimate").and_then(Json::as_bool), Some(true));
            continue;
        }
        let Some(mutation) = concretize(op, svc.graph()) else {
            continue;
        };

        // Oracle: a from-scratch synchronous run on the mutated graph,
        // starting from the exact pre-event states.
        let pre_states = svc.states().to_vec();
        svc.enqueue(mutation.clone());
        let record = svc
            .drain(&clock, &mut ())
            .pop()
            .expect("one event drained")
            .expect("concretized mutations are valid");

        let oracle =
            SyncExecutor::new(svc.graph(), proto).run(InitialState::Explicit(pre_states), n + 2);
        prop_assert!(oracle.stabilized(), "oracle converges within n + 2");
        prop_assert_eq!(
            &oracle.final_states,
            &svc.states().to_vec(),
            "incremental repair and full restart agree on the fixpoint ({:?})",
            mutation
        );
        prop_assert_eq!(
            oracle.rounds,
            record.recovery_rounds,
            "active-set seeding is round-for-round identical to the full sweep ({:?})",
            mutation
        );
        prop_assert!(record.converged);
        prop_assert!(
            record.recovery_rounds <= n + 2,
            "Theorem 1/2 budget holds per event"
        );
        prop_assert!(proto.is_legitimate(svc.graph(), svc.states()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn smm_service_matches_serial_oracle(
        pick in 0u8..4,
        n in 4usize..11,
        state_seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(10), 1..12),
    ) {
        let g = topology(pick, n);
        let n = g.n();
        let ops: Vec<Op> = ops.into_iter().filter(|op| in_range(op, n)).collect();
        let smm = Smm::paper(Ids::identity(n));
        check_against_oracle(g, &smm, state_seed, &ops)?;
    }

    #[test]
    fn smi_service_matches_serial_oracle(
        pick in 0u8..4,
        n in 4usize..11,
        state_seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(10), 1..12),
    ) {
        let g = topology(pick, n);
        let n = g.n();
        let ops: Vec<Op> = ops.into_iter().filter(|op| in_range(op, n)).collect();
        let smi = Smi::new(Ids::identity(n));
        check_against_oracle(g, &smi, state_seed, &ops)?;
    }
}

/// Budget-capped carry-over: with one round per event, hub churn on a
/// star leaves repair work pending past each event's budget. The dirty
/// frontier carries to the next event, the round clock counts exactly the
/// rounds run, and `settle` drains what is left to a legitimate fixpoint.
#[test]
fn budget_cap_carries_frontier_to_settle() {
    let n = 12;
    let g = generators::star(n);
    let smm = Smm::paper(Ids::identity(n));
    let clock = SimClock::new();
    let mut svc = OverlayService::new(g, &smm, InitialState::Random { seed: 5 }, 1);
    let mut rounds = svc.stabilize(&clock, &mut ()).recovery_rounds;

    // Hub churn on a star perturbs every node; one round per event is far
    // below the repair cost, so the frontier must carry across events.
    let script = [
        Mutation::NodeLeave { v: 0 },
        Mutation::NodeJoin {
            v: 0,
            attach: (1..n).collect(),
        },
        Mutation::EdgeDown { a: 0, b: 3 },
    ];
    let mut carried = 0;
    for mutation in script {
        svc.enqueue(mutation);
        let rec = svc.drain(&clock, &mut ()).pop().unwrap().unwrap();
        assert!(rec.recovery_rounds <= 1, "budget caps per-event rounds");
        carried += usize::from(!rec.converged);
        rounds += rec.recovery_rounds;
    }
    assert!(carried > 0, "some event must end with work carried forward");

    rounds += svc.settle(&mut ());
    assert_eq!(
        svc.clock_rounds(),
        rounds,
        "the clock counts every round run"
    );
    assert!(svc.is_converged());
    assert!(smm.is_legitimate(svc.graph(), svc.states()));
}

/// Ops are drawn over node indices 0..10 but the instance may be smaller
/// (e.g. the complete graph is capped); keep only in-range scripts.
fn in_range(op: &Op, n: usize) -> bool {
    match op {
        Op::Toggle(a, b) => *a < n && *b < n,
        Op::Leave(v) => *v < n,
        Op::Rejoin(v, attach) => *v < n && attach.iter().all(|w| *w < n),
        Op::Query => true,
    }
}
