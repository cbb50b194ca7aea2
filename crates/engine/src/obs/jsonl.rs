//! A line-oriented JSON event log of an execution.
//!
//! [`JsonlEventLog`] writes one self-describing JSON object per line:
//! an `init` event carrying the initial global state, a `move` event per
//! applied move, a `round_end` event per round carrying the post-round
//! state, and a terminal `finish` event. Because the per-round states ride
//! along, a JSONL log is convertible back into the trace representation of
//! the [`crate::record`] module with [`trace_from_jsonl`] — so a log
//! captured from a live observed run can be re-validated offline with
//! [`crate::record::validate_trace`], exactly like a recorded trace.

use super::metrics::{beacon_json, runtime_json};
use super::{profile_json, Observer, RoundStats};
use crate::sync::Outcome;
use selfstab_graph::Node;
use selfstab_json::{FromJson, Json, JsonError, ToJson};

/// Buffers one JSON event per line during a run.
#[derive(Clone, Debug, Default)]
pub struct JsonlEventLog {
    lines: Vec<String>,
}

impl JsonlEventLog {
    /// An empty log.
    pub fn new() -> Self {
        JsonlEventLog::default()
    }

    /// Prepend a `meta` event describing the run (protocol, graph size,
    /// shard count, …) for offline consumers. Values are free-form; the
    /// `analyze` report reads known keys and ignores the rest. Call before
    /// the run so the event lands first in the file.
    pub fn push_meta(&mut self, fields: impl IntoIterator<Item = (String, Json)>) {
        let mut obj = vec![("event".to_string(), "meta".to_json())];
        obj.extend(fields);
        self.lines.insert(0, Json::Object(obj).to_string());
    }

    /// Append a custom event line tagged `event: kind`. Non-executor
    /// producers (e.g. the resident service's telemetry track) use this to
    /// interleave their own records with the observer-emitted ones; offline
    /// consumers that don't know `kind` skip the line.
    pub fn push_event(&mut self, kind: &str, fields: impl IntoIterator<Item = (String, Json)>) {
        let mut obj = vec![("event".to_string(), kind.to_json())];
        obj.extend(fields);
        self.lines.push(Json::Object(obj).to_string());
    }

    /// The buffered lines, in emission order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The whole log as one newline-separated string (trailing newline
    /// included, as expected of a JSONL file).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Write the log to `path`.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    fn push(&mut self, event: Json) {
        self.lines.push(event.to_string());
    }
}

impl<S: ToJson> Observer<S> for JsonlEventLog {
    fn on_round_start(&mut self, round: usize, states: &[S]) {
        if round == 1 {
            self.push(Json::obj([
                ("event", "init".to_json()),
                ("states", states.to_json()),
            ]));
        }
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        self.push(Json::obj([
            ("event", "move".to_json()),
            ("node", (node.index() as u64).to_json()),
            ("rule", rule.to_json()),
            ("next", next.to_json()),
        ]));
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        let mut fields = vec![
            ("event".to_string(), "round_end".to_json()),
            ("round".to_string(), stats.round.to_json()),
            ("privileged".to_string(), stats.privileged.to_json()),
            ("evaluated".to_string(), stats.evaluated.to_json()),
            ("moves_per_rule".to_string(), stats.moves_per_rule.to_json()),
            (
                "duration_micros".to_string(),
                stats.duration_micros.to_json(),
            ),
            ("states".to_string(), states.to_json()),
        ];
        if let Some(b) = &stats.beacon {
            fields.push(("beacon".to_string(), beacon_json(b)));
        }
        if let Some(rt) = &stats.runtime {
            fields.push(("runtime".to_string(), runtime_json(rt)));
        }
        if let Some(p) = &stats.profile {
            fields.push(("profile".to_string(), profile_json(p)));
        }
        self.push(Json::Object(fields));
    }

    fn on_finish(&mut self, outcome: &Outcome, states: &[S]) {
        let label = match outcome {
            Outcome::Stabilized => "stabilized",
            Outcome::Cycle { .. } => "cycle",
            Outcome::RoundLimit => "round-limit",
        };
        self.push(Json::obj([
            ("event", "finish".to_json()),
            ("outcome", label.to_json()),
            ("stabilized", (*outcome == Outcome::Stabilized).to_json()),
            ("states", states.to_json()),
        ]));
    }
}

/// Reconstruct the trace (`trace[t]` = global state at time `t`) and the
/// stabilization flag from a JSONL log, for feeding into
/// [`crate::record::record`] / [`crate::record::validate_trace`].
///
/// The trace is the `init` state followed by every `round_end` state; the
/// flag comes from the `finish` event. Errors if the log has no `init` or
/// no `finish` event, or if any line fails to parse.
pub fn trace_from_jsonl<S: FromJson>(text: &str) -> Result<(Vec<Vec<S>>, bool), JsonError> {
    let mut trace: Vec<Vec<S>> = Vec::new();
    let mut saw_init = false;
    let mut stabilized: Option<bool> = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let event = Json::parse(line)?;
        match event.field("event")?.as_str() {
            Some("init") => {
                saw_init = true;
                trace.insert(0, Vec::<S>::from_json(event.field("states")?)?);
            }
            Some("round_end") => {
                trace.push(Vec::<S>::from_json(event.field("states")?)?);
            }
            Some("finish") => {
                stabilized = Some(bool::from_json(event.field("stabilized")?)?);
                if !saw_init {
                    // A fixpoint run emits only `finish`; its single state
                    // is the whole trace.
                    trace.push(Vec::<S>::from_json(event.field("states")?)?);
                    saw_init = true;
                }
            }
            Some("move") | Some("meta") => {}
            _ => return Err(JsonError::new("unknown event type in JSONL log")),
        }
    }
    match stabilized {
        Some(flag) if saw_init => Ok((trace, flag)),
        _ => Err(JsonError::new("JSONL log has no finish event")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_shape_and_roundtrip() {
        let mut log = JsonlEventLog::new();
        let s0 = [0u8, 5];
        let s1 = [5u8, 5];
        log.on_round_start(1, &s0);
        log.on_move(Node(0), 0, &5u8);
        log.on_round_end(
            &RoundStats {
                round: 1,
                privileged: 1,
                evaluated: 2,
                moves_per_rule: vec![1],
                duration_micros: 2,
                beacon: None,
                runtime: None,
                profile: None,
            },
            &s1,
        );
        log.on_finish(&Outcome::Stabilized, &s1);
        assert_eq!(log.lines().len(), 4);
        let (trace, stabilized) = trace_from_jsonl::<u8>(&log.to_jsonl()).unwrap();
        assert!(stabilized);
        assert_eq!(trace, vec![vec![0, 5], vec![5, 5]]);
    }

    #[test]
    fn meta_runtime_and_profile_ride_along_without_breaking_replay() {
        use super::super::{Phase, PhaseSpans, RoundProfile, RuntimeCounters, ShardProfile};
        let mut log = JsonlEventLog::new();
        let s1 = [1u8];
        log.on_round_start(1, &[0u8]);
        let mut spans = PhaseSpans::new();
        spans.add_micros(Phase::Compute, 5, 1);
        log.on_round_end(
            &RoundStats {
                round: 1,
                privileged: 1,
                evaluated: 1,
                moves_per_rule: vec![1],
                duration_micros: 5,
                beacon: None,
                runtime: Some(RuntimeCounters {
                    shard_moves: vec![1],
                    frames: 3,
                    ..RuntimeCounters::default()
                }),
                profile: Some(RoundProfile {
                    shards: vec![ShardProfile {
                        shard: 0,
                        spans,
                        round_micros: 5,
                        inbox_max_depth: 2,
                        inbox_depth: 0,
                    }],
                }),
            },
            &s1,
        );
        log.on_finish(&Outcome::Stabilized, &s1);
        log.push_meta([
            ("protocol".to_string(), "smm".to_json()),
            ("shards".to_string(), 1u64.to_json()),
        ]);
        // Meta lands first; the round_end carries runtime and profile.
        let first = Json::parse(&log.lines()[0]).unwrap();
        assert_eq!(first.get("event").and_then(Json::as_str), Some("meta"));
        assert_eq!(first.get("protocol").and_then(Json::as_str), Some("smm"));
        let round = Json::parse(&log.lines()[2]).unwrap();
        assert_eq!(
            round
                .get("runtime")
                .and_then(|rt| rt.get("frames"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            round
                .get("profile")
                .and_then(|p| p.get("straggler"))
                .and_then(Json::as_u64),
            Some(0)
        );
        // The replay path tolerates (skips) the meta event.
        let (trace, stabilized) = trace_from_jsonl::<u8>(&log.to_jsonl()).unwrap();
        assert!(stabilized);
        assert_eq!(trace, vec![vec![0], vec![1]]);
    }

    #[test]
    fn fixpoint_run_is_single_state_trace() {
        let mut log = JsonlEventLog::new();
        let s = [1u8, 1];
        log.on_finish(&Outcome::Stabilized, &s);
        let (trace, stabilized) = trace_from_jsonl::<u8>(&log.to_jsonl()).unwrap();
        assert!(stabilized);
        assert_eq!(trace, vec![vec![1, 1]]);
    }

    #[test]
    fn truncated_log_is_rejected() {
        let mut log = JsonlEventLog::new();
        log.on_round_start(1, &[0u8]);
        assert!(trace_from_jsonl::<u8>(&log.to_jsonl()).is_err());
        assert!(trace_from_jsonl::<u8>("{\"event\":\"bogus\"}\n").is_err());
        assert!(trace_from_jsonl::<u8>("not json\n").is_err());
    }
}
