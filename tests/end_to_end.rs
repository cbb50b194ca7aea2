//! Cross-crate end-to-end scenarios: the full stack from topology
//! generation through protocol execution, beacon simulation, and the
//! derived applications.

use selfstab::adhoc::{BeaconConfig, BeaconSim, Topology};
use selfstab::core::cluster::elect_cluster_heads;
use selfstab::core::coarsen::coarsen_by_matching;
use selfstab::core::smm::Smm;
use selfstab::core::Smi;
use selfstab::engine::central::{CentralExecutor, Scheduler};
use selfstab::engine::distributed::{DistributedExecutor, SubsetPolicy};
use selfstab::engine::exhaustive::verify_all_initial_states;
use selfstab::engine::sync::SyncExecutor;
use selfstab::engine::InitialState;
use selfstab::graph::{generators, predicates, Ids};

fn rand_seed(seed: u64) -> rand::rngs::StdRng {
    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed)
}

/// The same protocol instance driven by all three execution backends
/// (serial sync, beacon sim, distributed-All) must agree.
#[test]
fn all_backends_agree_on_smm() {
    let g = generators::grid(5, 5);
    let smm = Smm::paper(Ids::random(25, &mut rand_seed(3)));
    for seed in 0..5 {
        let init = InitialState::Random { seed };
        let serial = SyncExecutor::new(&g, &smm).run(init.clone(), 26);
        let dist = DistributedExecutor::new(&g, &smm).run(init.clone(), &mut SubsetPolicy::All, 26);
        let beacon = BeaconSim::new(
            &smm,
            Topology::Static(g.clone()),
            init,
            BeaconConfig {
                seed,
                ..BeaconConfig::default()
            },
        )
        .run(5, 3_600_000_000);
        assert!(serial.stabilized());
        assert_eq!(serial.final_states, dist.final_states);
        assert_eq!(serial.final_states, beacon.final_states);
        assert_eq!(serial.rounds, dist.rounds);
    }
}

/// SMI under every daemon the engine offers still reaches a maximal
/// independent set (SMI tolerates weaker daemons than SMM because members
/// only retreat before *bigger* members).
#[test]
fn smi_under_many_daemons() {
    let g = generators::erdos_renyi_connected(30, 0.15, &mut rand_seed(1));
    let smi = Smi::new(Ids::identity(30));
    // Central daemon, several schedulers.
    for mut sched in [
        Scheduler::First,
        Scheduler::Last,
        Scheduler::random(3),
        Scheduler::RoundRobin { cursor: 0 },
    ] {
        let run = CentralExecutor::new(&g, &smi).run(
            InitialState::Random { seed: 11 },
            &mut sched,
            100_000,
        );
        assert!(run.stabilized);
        assert!(predicates::is_maximal_independent_set(
            &g,
            &run.final_states
        ));
    }
    // Distributed daemon.
    for mut policy in [
        SubsetPolicy::All,
        SubsetPolicy::bernoulli(0.4, 9),
        SubsetPolicy::IndependentGreedy,
        SubsetPolicy::random_priority(5),
    ] {
        let run = DistributedExecutor::new(&g, &smi).run(
            InitialState::Random { seed: 11 },
            &mut policy,
            100_000,
        );
        assert!(run.stabilized());
        assert!(predicates::is_maximal_independent_set(
            &g,
            &run.final_states
        ));
    }
}

/// Pipeline: elect cluster heads with SMI, then coarsen the graph with SMM,
/// then re-elect on the coarse graph — everything stays consistent.
#[test]
fn clustering_then_coarsening_pipeline() {
    let g = generators::random_geometric_connected(40, 0.3, &mut rand_seed(8));
    let ids = Ids::identity(40);
    let (clustering, rounds) =
        elect_cluster_heads(&g, ids.clone(), InitialState::Random { seed: 4 }, 42)
            .expect("Theorem 2");
    assert!(rounds <= 42);
    assert!(predicates::is_minimal_dominating_set(&g, &clustering.head));

    let smm = Smm::paper(ids);
    let run = SyncExecutor::new(&g, &smm).run(InitialState::Random { seed: 4 }, 41);
    assert!(run.stabilized());
    let c = coarsen_by_matching(&g, &run.final_states);
    assert!(c.coarse.n() < g.n());

    // Re-run SMI on the coarse graph.
    let coarse_ids = Ids::identity(c.coarse.n());
    let (coarse_clustering, _) = elect_cluster_heads(
        &c.coarse,
        coarse_ids,
        InitialState::Default,
        c.coarse.n() + 2,
    )
    .expect("Theorem 2 on coarse graph");
    assert!(predicates::is_maximal_independent_set(
        &c.coarse,
        &coarse_clustering.head
    ));
}

/// Exhaustive cross-check through the facade on a fixed small graph:
/// every SMM initial state on the bull graph stabilizes to a maximal
/// matching within n+1 rounds.
#[test]
fn exhaustive_bull_graph() {
    // Bull: triangle 0-1-2 with horns 3 (on 1) and 4 (on 2).
    let g = selfstab::graph::Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]);
    let smm = Smm::paper(Ids::identity(5));
    let report = verify_all_initial_states(&g, &smm, 6, |g, states| {
        predicates::is_maximal_matching(g, &Smm::matched_edges(g, states))
    });
    assert!(report.all_ok(), "{report:?}");
    // State space: (2+1)(3+1)(3+1)(1+1)(1+1) = 192.
    assert_eq!(report.states_checked, 192);
    let smi = Smi::new(Ids::identity(5));
    let report = verify_all_initial_states(&g, &smi, 7, |g, states| {
        predicates::is_maximal_independent_set(g, states)
    });
    assert!(report.all_ok());
    assert_eq!(report.states_checked, 32);
}

/// Determinism contract across the whole stack: identical seeds give
/// identical outcomes, different seeds (almost always) differ somewhere.
#[test]
fn reproducibility_contract() {
    let g = generators::wheel(12);
    let smm = Smm::paper(Ids::identity(12));
    let a = SyncExecutor::new(&g, &smm).run(InitialState::Random { seed: 1 }, 13);
    let b = SyncExecutor::new(&g, &smm).run(InitialState::Random { seed: 1 }, 13);
    assert_eq!(a.final_states, b.final_states);
    assert_eq!(a.moves_per_rule, b.moves_per_rule);
    let sim_a = BeaconSim::new(
        &smm,
        Topology::Static(g.clone()),
        InitialState::Random { seed: 1 },
        BeaconConfig::default().with_jitter(0.05),
    )
    .run(5, 3_600_000_000);
    let sim_b = BeaconSim::new(
        &smm,
        Topology::Static(g.clone()),
        InitialState::Random { seed: 1 },
        BeaconConfig::default().with_jitter(0.05),
    )
    .run(5, 3_600_000_000);
    assert_eq!(sim_a.final_states, sim_b.final_states);
    assert_eq!(sim_a.deliveries, sim_b.deliveries);
}
