//! Anonymous randomized maximal independent set.
//!
//! Section 4 of the paper assumes "no two neighbors have the same ID". The
//! classical way to drop that assumption (the paper cites Shukla,
//! Rosenkrantz & Ravi's "systematic randomization" as ref. 12) is to break
//! symmetry with private coins instead of identifiers. This module
//! implements a synchronous randomized MIS in that spirit:
//!
//! Each node's state is `(x, seed)` where `x` is set-membership and `seed`
//! is the node's private coin stream, advanced deterministically with
//! SplitMix64 *only when the node acts* (so fixpoints stay silent). The
//! current priority of a member is `hash(seed)`. Rules:
//!
//! * **R1 (enter):** `x = 0` and no neighbor has `x = 1` — enter and draw a
//!   fresh seed.
//! * **R2 (resolve):** `x = 1` and some neighbor has `x = 1` with a
//!   **higher (or tying) priority** — leave and draw a fresh seed.
//!
//! Adjacent members fight with priorities: the strict maximum survives, all
//! others leave. Because coins are fresh each fight, two neighbors tie with
//! probability `2⁻⁶⁴`, and any conflict cluster loses all-but-one member
//! per round with high probability; vacated neighborhoods are re-entered by
//! R1. Expected stabilization is `O(log n)` rounds on bounded-degree
//! graphs — and, importantly, **without IDs**.
//!
//! **The impossibility flip side** (tested): if all seeds start equal — the
//! fully symmetric configuration an adversary can always set up — the
//! system is deterministic and symmetric, and on a vertex-transitive graph
//! like `C₄` it livelocks forever. This is exactly why the paper's
//! deterministic algorithms need unique IDs, and why the randomized variant
//! needs genuinely random initial coins.

use rand::rngs::StdRng;
use rand::RngExt;
use selfstab_engine::adversary::splitmix64;
use selfstab_engine::protocol::{Move, Protocol, View};
use selfstab_graph::predicates::is_maximal_independent_set;
use selfstab_graph::{Graph, Node};
use selfstab_json::{FromJson, Json, JsonError, ToJson};

/// Per-node state of the anonymous protocol.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct AnonState {
    /// Set membership.
    pub x: bool,
    /// Private coin stream (advanced on every move).
    pub seed: u64,
}

impl ToJson for AnonState {
    fn to_json(&self) -> Json {
        Json::obj([("x", self.x.to_json()), ("seed", self.seed.to_json())])
    }
}

impl FromJson for AnonState {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(AnonState {
            x: bool::from_json(value.field("x")?)?,
            seed: u64::from_json(value.field("seed")?)?,
        })
    }
}

/// The current fight priority of a state.
fn priority(s: &AnonState) -> u64 {
    splitmix64(s.seed)
}

/// Anonymous randomized MIS. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct AnonMis;

/// Rule indices into [`AnonMis::rule_names`].
pub mod rule {
    /// R1: enter the set.
    pub const ENTER: usize = 0;
    /// R2: lose a priority fight and leave.
    pub const RESOLVE: usize = 1;
}

impl AnonMis {
    /// Construct the protocol (stateless — all state is per node).
    pub fn new() -> Self {
        AnonMis
    }

    /// Membership vector of a global state.
    pub fn members(states: &[AnonState]) -> Vec<bool> {
        states.iter().map(|s| s.x).collect()
    }
}

impl Protocol for AnonMis {
    type State = AnonState;

    fn rule_names(&self) -> &'static [&'static str] {
        &["R1:enter", "R2:resolve"]
    }

    /// NOTE: the all-equal-seed default is the *symmetric* start used by
    /// the impossibility test; real deployments must seed with randomness
    /// (use [`selfstab_engine::protocol::InitialState::Random`]).
    fn default_state(&self) -> AnonState {
        AnonState { x: false, seed: 0 }
    }

    fn arbitrary_state(&self, _: Node, _: &[Node], rng: &mut StdRng) -> AnonState {
        AnonState {
            x: rng.random_bool(0.5),
            seed: rng.random(),
        }
    }

    /// The seed component makes the true local state space unbounded; for
    /// exhaustive checking we quotient to four representatives (in/out ×
    /// two distinct seeds), which is exactly the information the guards
    /// read. Exhaustive runs over this quotient are indicative, not a
    /// proof — the randomized protocol's guarantee is probabilistic anyway.
    fn enumerate_states(&self, node: Node, _: &[Node]) -> Vec<AnonState> {
        vec![
            AnonState {
                x: false,
                seed: node.index() as u64,
            },
            AnonState {
                x: false,
                seed: node.index() as u64 + 1000,
            },
            AnonState {
                x: true,
                seed: node.index() as u64,
            },
            AnonState {
                x: true,
                seed: node.index() as u64 + 1000,
            },
        ]
    }

    fn step(&self, view: View<'_, AnonState>) -> Option<Move<AnonState>> {
        let me = view.own();
        if me.x {
            let my_priority = priority(me);
            let beaten = view
                .neighbor_states()
                .any(|(_, s)| s.x && priority(s) >= my_priority);
            beaten.then(|| Move {
                rule: rule::RESOLVE,
                next: AnonState {
                    x: false,
                    seed: splitmix64(me.seed ^ 0x5e1f),
                },
            })
        } else {
            let dominated = view.neighbor_states().any(|(_, s)| s.x);
            (!dominated).then(|| Move {
                rule: rule::ENTER,
                next: AnonState {
                    x: true,
                    seed: splitmix64(me.seed ^ 0xa11),
                },
            })
        }
    }

    fn is_legitimate(&self, graph: &Graph, states: &[AnonState]) -> bool {
        is_maximal_independent_set(graph, &Self::members(states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_engine::protocol::InitialState;
    use selfstab_engine::sync::{Outcome, SyncExecutor};
    use selfstab_graph::generators;

    #[test]
    fn stabilizes_without_ids_on_suite() {
        for fam in generators::Family::ALL {
            let g = fam.build(24);
            let n = g.n();
            let proto = AnonMis::new();
            let exec = SyncExecutor::new(&g, &proto);
            for seed in 0..20 {
                // Generous O(n) budget; expected stabilization is much faster.
                let run = exec.run(InitialState::Random { seed }, 4 * n);
                assert!(run.stabilized(), "{} seed {seed}", fam.name());
                assert!(
                    proto.is_legitimate(&g, &run.final_states),
                    "{} seed {seed}",
                    fam.name()
                );
            }
        }
    }

    #[test]
    fn randomized_is_fast_in_practice() {
        // On a 256-cycle, expected O(log n)-ish rounds; assert well below
        // the deterministic worst case.
        let g = generators::cycle(256);
        let proto = AnonMis::new();
        let exec = SyncExecutor::new(&g, &proto);
        let mut worst = 0;
        for seed in 0..20 {
            let run = exec.run(InitialState::Random { seed }, 1024);
            assert!(run.stabilized());
            worst = worst.max(run.rounds());
        }
        assert!(worst < 64, "randomized MIS took {worst} rounds on C256");
    }

    #[test]
    fn symmetric_seeds_livelock_on_c4() {
        // The impossibility argument: identical coins on a vertex-transitive
        // graph can never break symmetry.
        let g = generators::cycle(4);
        let proto = AnonMis::new();
        // The seed chains advance deterministically, so the *global state*
        // never literally repeats (the memberships do, the coins don't) —
        // the signature of the livelock is running out of rounds with the
        // membership still flapping in lockstep.
        let exec = SyncExecutor::new(&g, &proto).with_trace();
        let run = exec.run(InitialState::Default, 2_000);
        assert!(
            matches!(run.outcome, Outcome::RoundLimit | Outcome::Cycle { .. }),
            "symmetric start must livelock, got {:?}",
            run.outcome
        );
        // Memberships alternate all-out / all-in, perfectly symmetric.
        let trace = run.trace.as_ref().expect("traced");
        for states in trace.iter().take(50) {
            let members = AnonMis::members(states);
            assert!(
                members.iter().all(|&m| m) || members.iter().all(|&m| !m),
                "symmetry can never break: {members:?}"
            );
        }
    }

    #[test]
    fn distinct_seeds_rescue_the_symmetric_membership() {
        // Same all-out membership, but distinct coins: stabilizes.
        let g = generators::cycle(4);
        let proto = AnonMis::new();
        let init: Vec<AnonState> = (0..4)
            .map(|i| AnonState {
                x: false,
                seed: 0xdead_beef + i as u64,
            })
            .collect();
        let run = SyncExecutor::new(&g, &proto).run(InitialState::Explicit(init), 100);
        assert!(run.stabilized());
        assert!(proto.is_legitimate(&g, &run.final_states));
    }

    #[test]
    fn priorities_only_matter_between_members() {
        let g = generators::path(2);
        let proto = AnonMis::new();
        // Lone member with an out neighbor: silent member, dominated
        // neighbor silent too.
        let states = vec![
            AnonState { x: true, seed: 1 },
            AnonState { x: false, seed: 2 },
        ];
        assert!(proto
            .step(View::new(Node(0), g.neighbors(Node(0)), &states))
            .is_none());
        assert!(proto
            .step(View::new(Node(1), g.neighbors(Node(1)), &states))
            .is_none());
        // Two adjacent members: exactly the lower-priority one leaves.
        let states = vec![
            AnonState { x: true, seed: 7 },
            AnonState { x: true, seed: 8 },
        ];
        let m0 = proto.step(View::new(Node(0), g.neighbors(Node(0)), &states));
        let m1 = proto.step(View::new(Node(1), g.neighbors(Node(1)), &states));
        assert_ne!(m0.is_some(), m1.is_some(), "exactly one loser");
        let loser = m0.or(m1).expect("one move");
        assert_eq!(loser.rule, rule::RESOLVE);
        assert!(!loser.next.x);
    }
}
