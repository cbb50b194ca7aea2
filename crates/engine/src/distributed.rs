//! The distributed daemon: an arbitrary non-empty subset of privileged
//! nodes fires at each step.
//!
//! This interpolates between the central daemon (singleton subsets) and the
//! synchronous daemon (the full privileged set, which the paper's beacon
//! model guarantees). The experiment suite uses it to show *why* the paper's
//! algorithms target the synchronous model: protocols proved for one daemon
//! need not converge under another.

use crate::kernel::privileged_moves;
use crate::protocol::{InitialState, Protocol};
use crate::sync::{Outcome, Run};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_graph::{Graph, Node};

/// Subset-selection policy for the distributed daemon.
pub enum SubsetPolicy {
    /// Every privileged node fires independently with probability `p`; if
    /// the sampled subset is empty one uniformly random privileged node
    /// fires instead (the daemon must pick a non-empty subset).
    Bernoulli {
        /// Per-node firing probability.
        p: f64,
        /// Seeded RNG.
        rng: StdRng,
    },
    /// All privileged nodes fire: identical to the synchronous daemon.
    All,
    /// A maximal set of privileged nodes no two of which are adjacent fires
    /// (greedy by index). Simultaneous moves by non-adjacent nodes are
    /// serializable, so this "locally central" subset preserves
    /// central-daemon convergence proofs.
    IndependentGreedy,
    /// Each round every privileged node draws a fresh random priority and
    /// fires iff it strictly beats all privileged neighbors (ties, which
    /// have negligible probability over `u64`, block both). This is the
    /// randomized local-mutual-exclusion daemon refinement of Beauquier,
    /// Datta, Gradinariu & Magniette (DISC 2000) that the paper alludes to;
    /// in a real network the priority rides on the beacon message.
    RandomPriority {
        /// Seeded RNG for the per-round priorities.
        rng: StdRng,
    },
}

impl SubsetPolicy {
    /// Seeded Bernoulli policy.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        SubsetPolicy::Bernoulli {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Seeded random-priority local-mutex policy.
    pub fn random_priority(seed: u64) -> Self {
        SubsetPolicy::RandomPriority {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Choose the subset of `privileged` nodes that fires this step.
    /// Public so custom executors (and tests) can reuse the policies.
    pub fn select(&mut self, graph: &Graph, privileged: &[Node]) -> Vec<Node> {
        debug_assert!(!privileged.is_empty());
        match self {
            SubsetPolicy::All => privileged.to_vec(),
            SubsetPolicy::Bernoulli { p, rng } => {
                let mut chosen: Vec<Node> = privileged
                    .iter()
                    .copied()
                    .filter(|_| rng.random_bool(*p))
                    .collect();
                if chosen.is_empty() {
                    chosen.push(privileged[rng.random_range(0..privileged.len())]);
                }
                chosen
            }
            SubsetPolicy::IndependentGreedy => {
                let mut blocked = vec![false; graph.n()];
                let mut chosen = Vec::new();
                for &v in privileged {
                    if !blocked[v.index()] {
                        chosen.push(v);
                        for &u in graph.neighbors(v) {
                            blocked[u.index()] = true;
                        }
                    }
                }
                chosen
            }
            SubsetPolicy::RandomPriority { rng } => {
                let mut priority = vec![None::<u64>; graph.n()];
                for &v in privileged {
                    priority[v.index()] = Some(rng.random());
                }
                privileged
                    .iter()
                    .copied()
                    .filter(|&v| {
                        let mine = priority[v.index()].expect("privileged node has priority");
                        graph
                            .neighbors(v)
                            .iter()
                            .all(|&u| priority[u.index()].is_none_or(|p| mine > p))
                    })
                    .collect()
            }
        }
    }
}

/// Distributed-daemon executor. Reuses [`Run`]/[`Outcome`] from the
/// synchronous module; "rounds" count daemon steps.
pub struct DistributedExecutor<'a, P: Protocol> {
    graph: &'a Graph,
    proto: &'a P,
}

impl<'a, P: Protocol> DistributedExecutor<'a, P> {
    /// New executor on `graph` for `proto`.
    pub fn new(graph: &'a Graph, proto: &'a P) -> Self {
        DistributedExecutor { graph, proto }
    }

    /// Run under the distributed daemon with the given subset policy.
    pub fn run(
        &self,
        init: InitialState<P::State>,
        policy: &mut SubsetPolicy,
        max_steps: usize,
    ) -> Run<P::State> {
        let mut states = init.materialize(self.graph, self.proto);
        let mut moves_per_rule = vec![0u64; self.proto.rule_names().len()];
        let mut step = 0usize;
        loop {
            let privileged = privileged_moves(self.graph, self.proto, &states);
            if privileged.is_empty() {
                return Run {
                    final_states: states,
                    rounds: step,
                    moves_per_rule,
                    outcome: Outcome::Stabilized,
                    trace: None,
                };
            }
            if step >= max_steps {
                return Run {
                    final_states: states,
                    rounds: step,
                    moves_per_rule,
                    outcome: Outcome::RoundLimit,
                    trace: None,
                };
            }
            let nodes: Vec<Node> = privileged.iter().map(|&(v, _)| v).collect();
            let chosen = policy.select(self.graph, &nodes);
            for (v, m) in privileged {
                if chosen.contains(&v) {
                    moves_per_rule[m.rule] += 1;
                    states[v.index()] = m.next;
                }
            }
            step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SyncExecutor;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    #[test]
    fn all_policy_matches_synchronous() {
        let g = generators::grid(4, 4);
        let init = InitialState::Random { seed: 3 };
        let sync_run = SyncExecutor::new(&g, &MaxProto).run(init.clone(), 100);
        let dist_run =
            DistributedExecutor::new(&g, &MaxProto).run(init, &mut SubsetPolicy::All, 100);
        assert_eq!(sync_run.final_states, dist_run.final_states);
        assert_eq!(sync_run.rounds, dist_run.rounds);
    }

    #[test]
    fn bernoulli_converges_for_max() {
        let g = generators::cycle(12);
        let mut policy = SubsetPolicy::bernoulli(0.3, 7);
        let run = DistributedExecutor::new(&g, &MaxProto).run(
            InitialState::Random { seed: 4 },
            &mut policy,
            10_000,
        );
        assert!(run.stabilized());
        let max = *run.final_states.iter().max().unwrap();
        assert!(run.final_states.iter().all(|&s| s == max));
    }

    #[test]
    fn independent_greedy_selects_independent_set() {
        let g = generators::path(6);
        let mut policy = SubsetPolicy::IndependentGreedy;
        let all: Vec<Node> = g.nodes().collect();
        let chosen = policy.select(&g, &all);
        for (i, &u) in chosen.iter().enumerate() {
            for &v in &chosen[i + 1..] {
                assert!(!g.has_edge(u, v), "{u:?} and {v:?} adjacent");
            }
        }
        // Greedy by index on a path picks alternating nodes.
        assert_eq!(chosen, vec![Node(0), Node(2), Node(4)]);
    }

    #[test]
    fn random_priority_selects_independent_set() {
        let g = generators::complete(8);
        let mut policy = SubsetPolicy::random_priority(1);
        let all: Vec<Node> = g.nodes().collect();
        for _ in 0..20 {
            let chosen = policy.select(&g, &all);
            // On a complete graph, at most one node can win.
            assert_eq!(chosen.len(), 1);
        }
    }

    #[test]
    fn random_priority_converges_for_max() {
        let g = generators::grid(5, 5);
        let mut policy = SubsetPolicy::random_priority(9);
        let run = DistributedExecutor::new(&g, &MaxProto).run(
            InitialState::Random { seed: 2 },
            &mut policy,
            100_000,
        );
        assert!(run.stabilized());
    }
}
