//! Recording, serializing, and validating executions.
//!
//! A recorded run is the forensic artifact of a distributed-algorithm bug
//! report: the topology, the protocol's rule names, and the full state
//! trace. [`to_json`]/[`from_json`] round-trip it;
//! [`validate_trace`] replays a trace against a protocol and checks every
//! transition obeys the synchronous semantics — so a trace captured
//! elsewhere (another implementation, a testbed log) can be machine-checked
//! against this reference implementation.

use crate::kernel::privileged_moves;
use crate::protocol::Protocol;
use selfstab_graph::{Graph, Node};
use selfstab_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// A self-contained serialized execution.
#[derive(Clone, Debug)]
pub struct RecordedRun<S> {
    /// The topology the run executed on.
    pub graph: Graph,
    /// Rule names of the protocol (for display; not needed to validate).
    pub rule_names: Vec<String>,
    /// `trace[t]` = global state at time `t`.
    pub trace: Vec<Vec<S>>,
    /// Whether the final state is a fixpoint.
    pub stabilized: bool,
}

/// Record an already-executed trace (e.g. `Run::trace`) into a portable
/// structure.
pub fn record<P: Protocol>(
    graph: &Graph,
    proto: &P,
    trace: Vec<Vec<P::State>>,
    stabilized: bool,
) -> RecordedRun<P::State> {
    RecordedRun {
        graph: graph.clone(),
        rule_names: proto.rule_names().iter().map(|s| s.to_string()).collect(),
        trace,
        stabilized,
    }
}

impl<S: ToJson> ToJson for RecordedRun<S> {
    fn to_json(&self) -> Json {
        Json::obj([
            ("graph", self.graph.to_json()),
            ("rule_names", self.rule_names.to_json()),
            ("trace", self.trace.to_json()),
            ("stabilized", self.stabilized.to_json()),
        ])
    }
}

impl<S: FromJson> FromJson for RecordedRun<S> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RecordedRun {
            graph: Graph::from_json(value.field("graph")?)?,
            rule_names: Vec::<String>::from_json(value.field("rule_names")?)?,
            trace: Vec::<Vec<S>>::from_json(value.field("trace")?)?,
            stabilized: bool::from_json(value.field("stabilized")?)?,
        })
    }
}

/// Serialize to JSON.
pub fn to_json<S: ToJson>(run: &RecordedRun<S>) -> String {
    run.to_json().to_string()
}

/// Deserialize from JSON.
pub fn from_json<S: FromJson>(s: &str) -> Result<RecordedRun<S>, JsonError> {
    RecordedRun::from_json(&Json::parse(s)?)
}

/// Why a trace failed validation.
///
/// Every variant names the offending round, and the [`fmt::Display`] output
/// includes it, so a rejected testbed log can be opened at the right line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A node changed state in round `t → t+1` although no rule was
    /// enabled for it at time `t`.
    UnprivilegedMove {
        /// The offending round (transition `t → t+1`).
        round: usize,
        /// The node that moved without privilege.
        node: Node,
    },
    /// A node was privileged at time `t` but its state is unchanged at
    /// `t+1` — illegal under the synchronous daemon, where every
    /// privileged node moves.
    MissedMove {
        /// The offending round (transition `t → t+1`).
        round: usize,
        /// The privileged node that failed to move.
        node: Node,
    },
    /// A privileged node moved, but not to the state its enabled rule
    /// prescribes.
    WrongTransition {
        /// The offending round (`t → t+1`).
        round: usize,
        /// The first offending node.
        node: Node,
    },
    /// The trace claims stabilization but the final state has privileged
    /// nodes (or vice versa).
    WrongTermination {
        /// Index of the final state in the trace.
        round: usize,
    },
    /// A state vector has the wrong length.
    ShapeMismatch {
        /// Index of the malformed state vector.
        round: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnprivilegedMove { round, node } => write!(
                f,
                "round {round}: node {node:?} moved without being privileged"
            ),
            TraceError::MissedMove { round, node } => {
                write!(f, "round {round}: privileged node {node:?} failed to move")
            }
            TraceError::WrongTransition { round, node } => write!(
                f,
                "round {round}: node {node:?} moved to a state its enabled rule does not prescribe"
            ),
            TraceError::WrongTermination { round } => write!(
                f,
                "round {round}: stabilization flag contradicts the final state's privileges"
            ),
            TraceError::ShapeMismatch { round } => write!(
                f,
                "round {round}: state vector length does not match the graph"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Validate that `rec.trace` is a genuine synchronous execution of `proto`
/// on `rec.graph`: at every step, exactly the privileged nodes move, each
/// to its prescribed next state.
pub fn validate_trace<P: Protocol>(
    proto: &P,
    rec: &RecordedRun<P::State>,
) -> Result<(), TraceError> {
    let n = rec.graph.n();
    for (t, states) in rec.trace.iter().enumerate() {
        if states.len() != n {
            return Err(TraceError::ShapeMismatch { round: t });
        }
    }
    for (t, pair) in rec.trace.windows(2).enumerate() {
        let (cur, next) = (&pair[0], &pair[1]);
        let moves = privileged_moves(&rec.graph, proto, cur);
        let mut expected = cur.clone();
        for (v, m) in moves {
            expected[v.index()] = m.next;
        }
        for i in 0..n {
            if expected[i] == next[i] {
                continue;
            }
            let node = Node::from(i);
            let moved = cur[i] != next[i];
            let privileged = expected[i] != cur[i];
            return Err(match (privileged, moved) {
                (false, _) => TraceError::UnprivilegedMove { round: t, node },
                (true, false) => TraceError::MissedMove { round: t, node },
                (true, true) => TraceError::WrongTransition { round: t, node },
            });
        }
    }
    if let Some(last) = rec.trace.last() {
        let quiet = privileged_moves(&rec.graph, proto, last).is_empty();
        if quiet != rec.stabilized {
            return Err(TraceError::WrongTermination {
                round: rec.trace.len() - 1,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::InitialState;
    use crate::sync::SyncExecutor;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    fn traced_run() -> (selfstab_graph::Graph, RecordedRun<u8>) {
        let g = generators::grid(3, 3);
        let run = SyncExecutor::new(&g, &MaxProto)
            .with_trace()
            .run(InitialState::Random { seed: 4 }, 100);
        assert!(run.stabilized());
        let rec = record(&g, &MaxProto, run.trace.clone().unwrap(), run.stabilized());
        (g, rec)
    }

    #[test]
    fn json_roundtrip() {
        let (_, rec) = traced_run();
        let json = to_json(&rec);
        let back: RecordedRun<u8> = from_json(&json).unwrap();
        assert_eq!(back.trace, rec.trace);
        assert_eq!(back.stabilized, rec.stabilized);
        assert_eq!(back.graph, rec.graph);
        assert_eq!(back.rule_names, vec!["copy-max"]);
    }

    #[test]
    fn genuine_traces_validate() {
        let (_, rec) = traced_run();
        assert_eq!(validate_trace(&MaxProto, &rec), Ok(()));
    }

    #[test]
    fn tampered_traces_are_rejected() {
        let (_, mut rec) = traced_run();
        // Tamper with a middle state.
        let mid = rec.trace.len() / 2;
        rec.trace[mid][0] = rec.trace[mid][0].wrapping_add(1);
        let err = validate_trace(&MaxProto, &rec).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::UnprivilegedMove { .. }
                    | TraceError::MissedMove { .. }
                    | TraceError::WrongTransition { .. }
            ),
            "{err:?}"
        );
    }

    /// Satellite: the two asymmetric tamper branches, each surviving a JSON
    /// round-trip, each reporting the exact offending round in `Display`.
    #[test]
    fn unprivileged_move_caught_after_roundtrip() {
        let (g, rec) = traced_run();
        // Find a (round, node) where the node is NOT privileged, then make
        // it move anyway.
        let (t, v) = (0..rec.trace.len() - 1)
            .find_map(|t| {
                let moves = privileged_moves(&g, &MaxProto, &rec.trace[t]);
                (0..g.n())
                    .map(Node::from)
                    .find(|v| moves.iter().all(|(u, _)| u != v))
                    .map(|v| (t, v))
            })
            .expect("some node is unprivileged at some round");
        let mut bad = rec.clone();
        bad.trace[t + 1][v.index()] = bad.trace[t][v.index()].wrapping_add(101);
        let back: RecordedRun<u8> = from_json(&to_json(&bad)).unwrap();
        let err = validate_trace(&MaxProto, &back).unwrap_err();
        assert_eq!(err, TraceError::UnprivilegedMove { round: t, node: v });
        assert!(err.to_string().contains(&format!("round {t}")), "{err}");
        assert!(
            err.to_string().contains("without being privileged"),
            "{err}"
        );
    }

    #[test]
    fn missed_move_caught_after_roundtrip() {
        let (g, rec) = traced_run();
        // Find a (round, node) where the node IS privileged, then freeze it.
        let (t, v) = (0..rec.trace.len() - 1)
            .find_map(|t| {
                privileged_moves(&g, &MaxProto, &rec.trace[t])
                    .first()
                    .map(|(u, _)| (t, *u))
            })
            .expect("a non-final round has a privileged node");
        let mut bad = rec.clone();
        bad.trace[t + 1][v.index()] = bad.trace[t][v.index()];
        let back: RecordedRun<u8> = from_json(&to_json(&bad)).unwrap();
        let err = validate_trace(&MaxProto, &back).unwrap_err();
        assert_eq!(err, TraceError::MissedMove { round: t, node: v });
        assert!(err.to_string().contains(&format!("round {t}")), "{err}");
        assert!(err.to_string().contains("failed to move"), "{err}");
    }

    #[test]
    fn wrong_termination_flag_rejected() {
        let (_, mut rec) = traced_run();
        rec.stabilized = false;
        let last = rec.trace.len() - 1;
        assert_eq!(
            validate_trace(&MaxProto, &rec),
            Err(TraceError::WrongTermination { round: last })
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (_, mut rec) = traced_run();
        rec.trace[0].pop();
        assert_eq!(
            validate_trace(&MaxProto, &rec),
            Err(TraceError::ShapeMismatch { round: 0 })
        );
    }
}
