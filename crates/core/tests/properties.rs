//! Property-based tests for the paper's theorems on random graphs, random
//! initial states, and random ID orders.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::smm::types::{check_trace, classify, NodeType};
use selfstab_core::smm::{SelectPolicy, Smm};
use selfstab_core::Smi;
use selfstab_engine::protocol::{InitialState, Protocol};
use selfstab_engine::sync::SyncExecutor;
use selfstab_graph::predicates::{is_maximal_independent_set, is_maximal_matching};
use selfstab_graph::{Graph, Ids, Node};

/// A connected random graph plus a random ID permutation.
fn arb_instance(max_n: usize) -> impl Strategy<Value = (Graph, Ids)> {
    (2..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random spanning tree + random extra edges keeps it connected.
        let mut g = selfstab_graph::generators::random_tree(n, &mut rng);
        let extra = n / 2;
        for _ in 0..extra {
            use rand::RngExt;
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                g.add_edge(Node::from(a), Node::from(b));
            }
        }
        let ids = Ids::random(n, &mut rng);
        (g, ids)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: SMM stabilizes within n + 1 rounds from any initial state
    /// and the result is a maximal matching with all unmatched nodes null.
    #[test]
    fn smm_theorem_1((g, ids) in arb_instance(24), seed in any::<u64>()) {
        let n = g.n();
        let smm = Smm::paper(ids);
        let exec = SyncExecutor::new(&g, &smm);
        let run = exec.run(InitialState::Random { seed }, n + 1);
        prop_assert!(run.stabilized(), "not stabilized in n+1 rounds");
        let matching = Smm::matched_edges(&g, &run.final_states);
        prop_assert!(is_maximal_matching(&g, &matching));
        prop_assert!(smm.is_legitimate(&g, &run.final_states));
    }

    /// The accept-policy choice in R1 is free: Theorem 1 must hold for all
    /// of them. R2 may propose by any total order on the nodes: max-ID is
    /// min-ID under the reversed order, first-index under node indices.
    #[test]
    fn smm_accept_policy_is_free((g, ids) in arb_instance(16), seed in any::<u64>()) {
        let n = g.n();
        for accept in [
            SelectPolicy::MinId,
            SelectPolicy::MaxId,
            SelectPolicy::FirstIndex,
            SelectPolicy::Hashed,
        ] {
            for propose in [SelectPolicy::MinId, SelectPolicy::MaxId, SelectPolicy::FirstIndex] {
                let smm = Smm::with_policies(ids.clone(), accept, propose);
                let run = SyncExecutor::new(&g, &smm).run(InitialState::Random { seed }, n + 1);
                prop_assert!(run.stabilized(), "accept={accept:?} propose={propose:?}");
                prop_assert!(smm.is_legitimate(&g, &run.final_states));
            }
        }
    }

    /// Figure 3: every executed transition is an arrow of the diagram, and
    /// A1 / PA are empty from round 1 (Lemma 7).
    #[test]
    fn smm_figure_3((g, ids) in arb_instance(16), seed in any::<u64>()) {
        let n = g.n();
        let smm = Smm::paper(ids);
        let run = SyncExecutor::new(&g, &smm).with_trace().run(InitialState::Random { seed }, n + 1);
        prop_assert!(run.stabilized());
        let trace = run.trace.as_ref().expect("traced");
        prop_assert!(check_trace(&g, trace).is_ok());
        for states in &trace[1..] {
            for ty in classify(&g, states) {
                prop_assert!(ty != NodeType::A1 && ty != NodeType::Pa, "Lemma 7");
            }
        }
    }

    /// Lemma 1: the matched-node set only grows along any execution.
    #[test]
    fn smm_matching_monotone((g, ids) in arb_instance(16), seed in any::<u64>()) {
        let n = g.n();
        let smm = Smm::paper(ids);
        let run = SyncExecutor::new(&g, &smm).with_trace().run(InitialState::Random { seed }, n + 1);
        let trace = run.trace.as_ref().expect("traced");
        let mut prev = vec![false; n];
        for states in trace {
            let cur = Smm::matched_nodes(&g, states);
            for i in 0..n {
                prop_assert!(!prev[i] || cur[i]);
            }
            prev = cur;
        }
    }

    /// Theorem 2: SMI stabilizes within ~n rounds from any initial state and
    /// the stabilized set is a maximal independent set.
    #[test]
    fn smi_theorem_2((g, ids) in arb_instance(24), seed in any::<u64>()) {
        let n = g.n();
        let smi = Smi::new(ids);
        let run = SyncExecutor::new(&g, &smi).run(InitialState::Random { seed }, n + 2);
        prop_assert!(run.stabilized(), "not stabilized in n+2 rounds");
        prop_assert!(is_maximal_independent_set(&g, &run.final_states));
    }

    /// SMI members after stabilization never include two adjacent nodes even
    /// mid-execution *once stabilized* — and the run is deterministic.
    #[test]
    fn smi_deterministic((g, ids) in arb_instance(12), seed in any::<u64>()) {
        let smi = Smi::new(ids);
        let a = SyncExecutor::new(&g, &smi).run(InitialState::Random { seed }, 100);
        let b = SyncExecutor::new(&g, &smi).run(InitialState::Random { seed }, 100);
        prop_assert_eq!(a.final_states, b.final_states);
        prop_assert_eq!(a.rounds, b.rounds);
    }

    /// Matched pairs survive arbitrary *other* corruption: corrupt any one
    /// non-matched node and re-run — previously matched pairs stay matched
    /// (Lemma 1 applies from the corrupted state too).
    #[test]
    fn smm_matched_pairs_resist_third_party_corruption(
        (g, ids) in arb_instance(12),
        seed in any::<u64>(),
        victim_raw in any::<usize>(),
    ) {
        let n = g.n();
        let smm = Smm::paper(ids);
        let exec = SyncExecutor::new(&g, &smm);
        let stable = exec.run(InitialState::Random { seed }, n + 1);
        prop_assert!(stable.stabilized());
        let matched_before = Smm::matched_nodes(&g, &stable.final_states);
        let victim = Node::from(victim_raw % n);
        if matched_before[victim.index()] {
            return Ok(()); // only third-party corruption in this property
        }
        let mut corrupted = stable.final_states.clone();
        // Point the victim somewhere arbitrary (worst case: at a matched node).
        let target = g.neighbors(victim).first().copied();
        corrupted[victim.index()] = selfstab_core::Pointer(target);
        let rerun = exec.run(InitialState::Explicit(corrupted), n + 1);
        prop_assert!(rerun.stabilized());
        let matched_after = Smm::matched_nodes(&g, &rerun.final_states);
        for i in 0..n {
            prop_assert!(!matched_before[i] || matched_after[i], "pair broken at {i}");
        }
    }
}
