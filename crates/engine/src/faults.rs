//! Fault injection: transient state corruption and topology churn.
//!
//! The defining property of a self-stabilizing protocol is recovery from
//! *any* transient fault: corrupted memory is just an arbitrary state, and a
//! topology change (the paper's motivating fault: hosts moving in and out of
//! radio range) leaves the old state vector in place on a new graph. Both
//! are modelled here as transformations of a stabilized state vector, after
//! which the executor is re-run to measure **re-stabilization cost**.

use crate::protocol::{InitialState, Protocol};
use crate::sync::{Run, SyncExecutor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_graph::mutate::{Churn, TopologyEvent};
use selfstab_graph::{Graph, Node};

/// Why a fault-recovery experiment could not run (consistent with the
/// runtime's typed `RuntimeError`: experiment preconditions are reported,
/// not panicked).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// The pre-fault run did not stabilize within the round budget; there
    /// is no legitimate configuration to perturb. Oscillating protocols
    /// (e.g. the clockwise-C4 ablation) land here instead of panicking.
    InitialRunNotStabilized {
        /// The round budget that was exhausted.
        max_rounds: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InitialRunNotStabilized { max_rounds } => write!(
                f,
                "protocol did not stabilize within {max_rounds} rounds before fault injection"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// A crash-restart scheduled *inside* a run, for the in-process executor
/// ([`SyncExecutor`]): entering round `round` (0-based,
/// counting applied rounds — the same clock as the sharded runtime's
/// `CrashSpec`), `ceil(frac · n)` nodes lose their state and rehydrate with
/// arbitrary values, the paper's adversarial-restart fault fired mid-run
/// instead of between runs ([`corrupt_and_recover`]).
///
/// Victims are chosen by a partial Fisher–Yates over a selection stream
/// derived from `seed`, then rehydrated **in ascending node order** from a
/// fresh generator seeded with `seed` itself. With `frac = 1.0` the
/// selection stream is unused and the procedure is exactly the sharded
/// runtime's crash-restart of one shard holding the whole graph, so the
/// equivalence suite pins serial crash semantics against the runtime's at
/// 1 shard by passing `FaultPlan::restart_seed(0, round)` as `seed`.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashAt {
    /// Round at whose top the crash fires (0-based applied-round count).
    pub round: usize,
    /// Fraction of the nodes that crash, in `(0, 1]`.
    pub frac: f64,
    /// Seed for victim selection and state rehydration.
    pub seed: u64,
}

impl CrashAt {
    /// Parse a CLI-style `<round>:<frac>` spec (seed 0; attach one with
    /// [`CrashAt::with_seed`]).
    pub fn parse(spec: &str) -> Result<CrashAt, String> {
        let (round, frac) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad crash spec '{spec}' (expected <round>:<frac>)"))?;
        let round: usize = round
            .parse()
            .map_err(|_| format!("bad crash round '{round}' in '{spec}'"))?;
        let frac: f64 = frac
            .parse()
            .map_err(|_| format!("bad crash fraction '{frac}' in '{spec}'"))?;
        if !(frac > 0.0 && frac <= 1.0) {
            return Err(format!(
                "crash fraction must be in (0, 1], got {frac} in '{spec}'"
            ));
        }
        Ok(CrashAt {
            round,
            frac,
            seed: 0,
        })
    }

    /// Replace the rehydration seed.
    pub fn with_seed(mut self, seed: u64) -> CrashAt {
        self.seed = seed;
        self
    }

    /// Number of victims on an `n`-node graph: `ceil(frac · n)`, clamped
    /// to `1..=n` (for `n > 0`).
    pub fn victims(&self, n: usize) -> usize {
        ((self.frac * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// Fire the crash: overwrite the victims' states with arbitrary ones,
    /// in ascending node order. Returns the victims, sorted.
    pub fn apply<P: Protocol>(
        &self,
        proto: &P,
        graph: &Graph,
        states: &mut [P::State],
    ) -> Vec<Node> {
        assert_eq!(states.len(), graph.n());
        let n = graph.n();
        let k = self.victims(n);
        let mut victims: Vec<Node> = graph.nodes().collect();
        if k < n {
            let mut pick = StdRng::seed_from_u64(self.seed ^ 0x7c7a_15eb_ca5e_5eed);
            for i in 0..k {
                let j = pick.random_range(i..victims.len());
                victims.swap(i, j);
            }
            victims.truncate(k);
            victims.sort();
        }
        // A fresh generator, consumed in node order: with every node a
        // victim this is byte-for-byte the runtime's shard rehydration.
        let mut rng = StdRng::seed_from_u64(self.seed);
        for &v in &victims {
            states[v.index()] = proto.arbitrary_state(v, graph.neighbors(v), &mut rng);
        }
        victims
    }
}

/// Overwrite the states of `k` distinct random nodes with arbitrary states.
/// Returns the corrupted nodes.
pub fn corrupt_random_nodes<P: Protocol>(
    proto: &P,
    graph: &Graph,
    states: &mut [P::State],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Node> {
    assert_eq!(states.len(), graph.n());
    let k = k.min(graph.n());
    let mut victims: Vec<Node> = graph.nodes().collect();
    // Partial Fisher–Yates: choose k distinct victims.
    for i in 0..k {
        let j = rng.random_range(i..victims.len());
        victims.swap(i, j);
    }
    victims.truncate(k);
    for &v in &victims {
        states[v.index()] = proto.arbitrary_state(v, graph.neighbors(v), rng);
    }
    victims
}

/// Result of a fault-recovery experiment.
#[derive(Clone, Debug)]
pub struct Recovery<S> {
    /// The re-stabilization run (starting from the perturbed state).
    pub run: Run<S>,
    /// Nodes whose final state differs from their pre-fault state — a
    /// measure of fault containment ("how far did the disturbance spread").
    pub perturbed_nodes: usize,
}

/// Everything `corrupt_and_recover` produces: the initial (pre-fault) run
/// and the recovery from the corrupted configuration.
pub type CorruptOutcome<S> = (Run<S>, Recovery<S>);

/// Stabilize, corrupt `k` node states, and re-stabilize.
///
/// Returns `(initial_run, recovery)`, or [`FaultError`] if the initial run
/// does not stabilize within `max_rounds` (only stabilizing protocols have
/// a legitimate configuration to perturb).
pub fn corrupt_and_recover<P: Protocol>(
    graph: &Graph,
    proto: &P,
    k: usize,
    seed: u64,
    max_rounds: usize,
) -> Result<CorruptOutcome<P::State>, FaultError> {
    let exec = SyncExecutor::new(graph, proto);
    let initial = exec.run(InitialState::Random { seed }, max_rounds);
    if !initial.stabilized() {
        return Err(FaultError::InitialRunNotStabilized { max_rounds });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut states = initial.final_states.clone();
    corrupt_random_nodes(proto, graph, &mut states, k, &mut rng);
    let run = exec.run(InitialState::Explicit(states), max_rounds);
    let perturbed_nodes = run
        .final_states
        .iter()
        .zip(&initial.final_states)
        .filter(|(a, b)| a != b)
        .count();
    Ok((
        initial,
        Recovery {
            run,
            perturbed_nodes,
        },
    ))
}

/// Everything `churn_and_recover` produces: the post-churn graph, the
/// applied events, the initial (pre-fault) run, and the recovery.
pub type ChurnOutcome<S> = (Graph, Vec<TopologyEvent>, Run<S>, Recovery<S>);

/// Stabilize, apply `k` connectivity-preserving topology changes, and
/// re-stabilize **on the new graph** keeping the old states (the paper's
/// mobility fault). Returns the changed graph, the applied events, and the
/// recovery, or [`FaultError`] if the initial run does not stabilize.
pub fn churn_and_recover<P: Protocol>(
    graph: &Graph,
    proto: &P,
    k: usize,
    seed: u64,
    max_rounds: usize,
) -> Result<ChurnOutcome<P::State>, FaultError> {
    let exec = SyncExecutor::new(graph, proto);
    let initial = exec.run(InitialState::Random { seed }, max_rounds);
    if !initial.stabilized() {
        return Err(FaultError::InitialRunNotStabilized { max_rounds });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
    let mut new_graph = graph.clone();
    let events = Churn::default().apply(&mut new_graph, k, &mut rng);
    let exec2 = SyncExecutor::new(&new_graph, proto);
    let run = exec2.run(
        InitialState::Explicit(initial.final_states.clone()),
        max_rounds,
    );
    let perturbed_nodes = run
        .final_states
        .iter()
        .zip(&initial.final_states)
        .filter(|(a, b)| a != b)
        .count();
    Ok((
        new_graph,
        events,
        initial.clone(),
        Recovery {
            run,
            perturbed_nodes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;
    use selfstab_graph::traversal::is_connected;

    #[test]
    fn crash_at_parses_and_validates() {
        assert_eq!(
            CrashAt::parse("3:0.5"),
            Ok(CrashAt {
                round: 3,
                frac: 0.5,
                seed: 0,
            })
        );
        assert_eq!(CrashAt::parse("7:1").unwrap().with_seed(9).seed, 9);
        assert!(CrashAt::parse("3").is_err());
        assert!(CrashAt::parse("x:0.5").is_err());
        assert!(CrashAt::parse("3:nope").is_err());
        assert!(CrashAt::parse("3:0").is_err());
        assert!(CrashAt::parse("3:1.5").is_err());
        assert!(CrashAt::parse("3:-0.1").is_err());
    }

    #[test]
    fn crash_at_rehydrates_sorted_victims() {
        let g = generators::cycle(10);
        let crash = CrashAt {
            round: 0,
            frac: 0.4,
            seed: 42,
        };
        assert_eq!(crash.victims(10), 4);
        let mut states = vec![9u8; 10];
        let victims = crash.apply(&MaxProto, &g, &mut states);
        assert_eq!(victims.len(), 4);
        assert!(
            victims.windows(2).all(|w| w[0] < w[1]),
            "sorted: {victims:?}"
        );
        // Only victims may change, and the same spec replays identically.
        for v in g.nodes() {
            if !victims.contains(&v) {
                assert_eq!(states[v.index()], 9);
            }
        }
        let mut again = vec![9u8; 10];
        assert_eq!(crash.apply(&MaxProto, &g, &mut again), victims);
        assert_eq!(again, states, "deterministic in the seed");
    }

    #[test]
    fn corruption_hits_exactly_k_distinct_nodes() {
        let g = generators::complete(10);
        let mut states = vec![9u8; 10];
        let mut rng = StdRng::seed_from_u64(1);
        // Corrupt with a protocol whose arbitrary states are < 4, so any
        // corrupted node is identifiable.
        let victims = corrupt_random_nodes(&MaxProto, &g, &mut states, 4, &mut rng);
        assert_eq!(victims.len(), 4);
        let mut unique = victims.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4, "victims must be distinct");
        let changed = states.iter().filter(|&&s| s != 9).count();
        assert!(changed <= 4);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let g = generators::path(3);
        let mut states = vec![9u8; 3];
        let mut rng = StdRng::seed_from_u64(2);
        let victims = corrupt_random_nodes(&MaxProto, &g, &mut states, 100, &mut rng);
        assert_eq!(victims.len(), 3);
    }

    #[test]
    fn recover_from_corruption() {
        let g = generators::grid(4, 4);
        let (initial, recovery) = corrupt_and_recover(&g, &MaxProto, 3, 7, 1_000).unwrap();
        assert!(initial.stabilized());
        assert!(recovery.run.stabilized());
        // MaxProto's legitimate states are constant vectors at the max; the
        // recovered vector must again be constant.
        let m = *recovery.run.final_states.iter().max().unwrap();
        assert!(recovery.run.final_states.iter().all(|&s| s == m));
    }

    #[test]
    fn recover_from_churn() {
        let g = generators::cycle(12);
        let (new_g, events, initial, recovery) =
            churn_and_recover(&g, &MaxProto, 5, 3, 1_000).unwrap();
        assert!(is_connected(&new_g));
        assert!(!events.is_empty());
        assert!(initial.stabilized());
        assert!(recovery.run.stabilized());
    }

    #[test]
    fn unstabilized_initial_run_is_a_typed_error_not_a_panic() {
        // A budget of 0 rounds cannot stabilize from a random start on a
        // grid, so both experiments must report the precondition failure.
        let g = generators::grid(4, 4);
        let err = corrupt_and_recover(&g, &MaxProto, 2, 5, 0).unwrap_err();
        assert_eq!(err, FaultError::InitialRunNotStabilized { max_rounds: 0 });
        assert!(err.to_string().contains("did not stabilize"), "{err}");
        let err = churn_and_recover(&g, &MaxProto, 2, 5, 0).unwrap_err();
        assert_eq!(err, FaultError::InitialRunNotStabilized { max_rounds: 0 });
    }
}
