//! Per-round convergence metrics: the paper's quantities, sampled live.
//!
//! [`MetricsCollector`] records, for every observed round, the privileged
//! count, the per-rule move counts, the wall-clock round latency (fed into
//! a log₂-bucketed [`Histogram`]), the beacon-layer counters when present,
//! and a caller-supplied set of [`Gauge`]s evaluated on the post-round
//! global state. Gauges are how protocol-level summaries plug in without
//! the engine depending on any protocol crate: `selfstab-core` provides
//! `smm::types::census_gauges` (the Fig. 2 node-type census and the
//! matched-pair count |M|), and an SMI set-size gauge is a one-line
//! closure.

use super::{BeaconCounters, Observer, RoundProfile, RoundStats, RuntimeCounters, PHASES};
use crate::sync::Outcome;
use selfstab_analysis::Histogram;
use selfstab_json::{Json, ToJson};

/// A named measurement over a global state, evaluated after every round.
pub type Gauge<S> = Box<dyn FnMut(&[S]) -> u64>;

/// One observed round, as recorded by [`MetricsCollector`].
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// 1-based round index.
    pub round: usize,
    /// Privileged nodes at round start.
    pub privileged: usize,
    /// Guard evaluations the round cost (see [`RoundStats::evaluated`]).
    pub evaluated: usize,
    /// Moves applied this round, per rule.
    pub moves_per_rule: Vec<u64>,
    /// Wall-clock (or simulated) duration of the round, µs.
    pub duration_micros: u64,
    /// Gauge values on the post-round state, index-aligned with the
    /// collector's gauge names (the `gauge_names` array of
    /// [`MetricsCollector::to_json`]).
    pub gauges: Vec<u64>,
    /// Beacon-layer counters (simulator runs only).
    pub beacon: Option<BeaconCounters>,
    /// Shard/wire counters (sharded-runtime runs only).
    pub runtime: Option<RuntimeCounters>,
    /// Per-lane phase profile (executors that profile their rounds only).
    pub profile: Option<RoundProfile>,
}

/// Collects per-round convergence metrics during an observed run.
#[derive(Default)]
pub struct MetricsCollector<S> {
    gauge_names: Vec<String>,
    gauge_fns: Vec<Gauge<S>>,
    initial_gauges: Option<Vec<u64>>,
    rounds: Vec<RoundRecord>,
    latency: Histogram,
    outcome: Option<Outcome>,
}

impl<S> MetricsCollector<S> {
    /// A collector with no gauges (privileged counts, per-rule moves and
    /// latencies are always recorded).
    pub fn new() -> Self {
        MetricsCollector {
            gauge_names: Vec::new(),
            gauge_fns: Vec::new(),
            initial_gauges: None,
            rounds: Vec::new(),
            latency: Histogram::new(),
            outcome: None,
        }
    }

    /// Add a named gauge, evaluated on the global state after every round
    /// (and once on the initial state).
    pub fn with_gauge(
        mut self,
        name: impl Into<String>,
        f: impl FnMut(&[S]) -> u64 + 'static,
    ) -> Self {
        self.gauge_names.push(name.into());
        self.gauge_fns.push(Box::new(f));
        self
    }

    /// Add a batch of boxed gauges (e.g. `selfstab-core`'s
    /// `smm::types::census_gauges`).
    pub fn with_gauges(mut self, gauges: impl IntoIterator<Item = (String, Gauge<S>)>) -> Self {
        for (name, f) in gauges {
            self.gauge_names.push(name);
            self.gauge_fns.push(f);
        }
        self
    }

    /// Gauge values on the initial state (recorded when round 1 starts;
    /// `None` if the run was already at a fixpoint).
    pub fn initial_gauges(&self) -> Option<&[u64]> {
        self.initial_gauges.as_deref()
    }

    /// The recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// Why the observed execution ended (`None` until `on_finish`).
    pub fn outcome(&self) -> Option<&Outcome> {
        self.outcome.as_ref()
    }

    /// Histogram of round latencies in log₂ buckets: a round of `d` µs
    /// lands in bucket `⌈log₂(d+1)⌉` (bucket 0 = sub-microsecond rounds).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// The time series of one gauge: its value on the initial state (if
    /// recorded) followed by its value after every round. `None` if the
    /// gauge name is unknown.
    pub fn gauge_series(&self, name: &str) -> Option<Vec<u64>> {
        let idx = self.gauge_names.iter().position(|n| n == name)?;
        let mut series = Vec::with_capacity(self.rounds.len() + 1);
        if let Some(init) = &self.initial_gauges {
            series.push(init[idx]);
        }
        series.extend(self.rounds.iter().map(|r| r.gauges[idx]));
        Some(series)
    }

    fn eval_gauges(&mut self, states: &[S]) -> Vec<u64> {
        self.gauge_fns.iter_mut().map(|f| f(states)).collect()
    }

    /// Rounds between the last observed fault event (dropped, duplicated,
    /// delayed or corrupted frame, or a shard restart) and stabilization —
    /// the re-stabilization time under chaos. `None` when the run recorded
    /// no fault events or did not stabilize.
    pub fn recovery_rounds(&self) -> Option<usize> {
        if self.outcome != Some(Outcome::Stabilized) {
            return None;
        }
        let last_fault = self
            .rounds
            .iter()
            .filter(|r| r.runtime.as_ref().is_some_and(|rt| rt.faults() > 0))
            .map(|r| r.round)
            .max()?;
        let last = self.rounds.last().map(|r| r.round).unwrap_or(0);
        Some(last - last_fault)
    }

    /// Render a per-round Markdown table: round, privileged, moves, then
    /// one column per gauge, plus beacon counters when present.
    pub fn render_table(&self) -> String {
        let has_beacon = self.rounds.iter().any(|r| r.beacon.is_some());
        let has_runtime = self.rounds.iter().any(|r| r.runtime.is_some());
        // Chaos columns appear only when some round actually recorded a
        // fault event, so fault-free runs render byte-identical tables.
        let has_chaos = self
            .rounds
            .iter()
            .any(|r| r.runtime.as_ref().is_some_and(|rt| rt.faults() > 0));
        // Adversary columns likewise appear only when a Byzantine rewrite
        // or a downed link direction was actually recorded.
        let has_adv = self.rounds.iter().any(|r| {
            r.runtime
                .as_ref()
                .is_some_and(|rt| rt.byz_rewrites > 0 || rt.asym_links_down > 0)
        });
        // Skew columns only make sense with more than one lane: a serial
        // (single-lane) profile renders the legacy table unchanged.
        let has_skew = self
            .rounds
            .iter()
            .any(|r| r.profile.as_ref().is_some_and(|p| p.shards.len() > 1));
        let mut out = String::from("| round | privileged | evaluated | moves |");
        for name in &self.gauge_names {
            out.push_str(&format!(" {name} |"));
        }
        if has_beacon {
            out.push_str(" deliveries | losses | stale views |");
        }
        if has_runtime {
            out.push_str(" frames | suppressed | wire bytes | max chan depth |");
        }
        if has_chaos {
            out.push_str(" dropped | duped | delayed | corrupted | restarts |");
        }
        if has_adv {
            out.push_str(" byz rewrites | links down |");
        }
        if has_skew {
            out.push_str(" max lane µs | skew | straggler | barrier share |");
        }
        out.push('\n');
        let extra = if has_beacon { 3 } else { 0 }
            + if has_runtime { 4 } else { 0 }
            + if has_chaos { 5 } else { 0 }
            + if has_adv { 2 } else { 0 }
            + if has_skew { 4 } else { 0 };
        out.push_str(&"|---".repeat(4 + self.gauge_names.len() + extra));
        out.push_str("|\n");
        if let Some(init) = &self.initial_gauges {
            out.push_str("| 0 (init) | — | — | — |");
            for v in init {
                out.push_str(&format!(" {v} |"));
            }
            for _ in 0..extra {
                out.push_str(" — |");
            }
            out.push('\n');
        }
        for r in &self.rounds {
            let moves: u64 = r.moves_per_rule.iter().sum();
            out.push_str(&format!(
                "| {} | {} | {} | {moves} |",
                r.round, r.privileged, r.evaluated
            ));
            for v in &r.gauges {
                out.push_str(&format!(" {v} |"));
            }
            if has_beacon {
                let b = r.beacon.clone().unwrap_or_default();
                out.push_str(&format!(
                    " {} | {} | {} |",
                    b.deliveries, b.losses, b.stale_views
                ));
            }
            if has_runtime {
                let rt = r.runtime.clone().unwrap_or_default();
                out.push_str(&format!(
                    " {} | {} | {} | {} |",
                    rt.frames, rt.frames_suppressed, rt.bytes_on_wire, rt.max_channel_depth
                ));
            }
            if has_chaos {
                let rt = r.runtime.clone().unwrap_or_default();
                out.push_str(&format!(
                    " {} | {} | {} | {} | {} |",
                    rt.frames_dropped,
                    rt.frames_duped,
                    rt.frames_delayed,
                    rt.frames_corrupted,
                    rt.restarts
                ));
            }
            if has_adv {
                let rt = r.runtime.clone().unwrap_or_default();
                out.push_str(&format!(" {} | {} |", rt.byz_rewrites, rt.asym_links_down));
            }
            if has_skew {
                match &r.profile {
                    Some(p) => out.push_str(&format!(
                        " {} | {:.2} | {} | {:.2} |",
                        p.max_round_micros(),
                        p.skew(),
                        p.straggler()
                            .map(|s| s.shard.to_string())
                            .unwrap_or_else(|| "—".to_string()),
                        p.barrier_wait_share(),
                    )),
                    None => out.push_str(" — | — | — | — |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialize everything recorded to JSON.
    pub fn to_json(&self) -> Json {
        let rounds: Vec<Json> = self
            .rounds
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("round".to_string(), r.round.to_json()),
                    ("privileged".to_string(), r.privileged.to_json()),
                    ("evaluated".to_string(), r.evaluated.to_json()),
                    ("moves_per_rule".to_string(), r.moves_per_rule.to_json()),
                    ("duration_micros".to_string(), r.duration_micros.to_json()),
                    ("gauges".to_string(), r.gauges.to_json()),
                ];
                if let Some(b) = &r.beacon {
                    fields.push(("beacon".to_string(), beacon_json(b)));
                }
                if let Some(rt) = &r.runtime {
                    fields.push(("runtime".to_string(), runtime_json(rt)));
                }
                if let Some(p) = &r.profile {
                    fields.push(("profile".to_string(), profile_json(p)));
                }
                Json::Object(fields)
            })
            .collect();
        Json::obj([
            ("gauge_names", self.gauge_names.to_json()),
            (
                "initial_gauges",
                self.initial_gauges
                    .as_ref()
                    .map(|g| g.to_json())
                    .unwrap_or(Json::Null),
            ),
            ("rounds", Json::Array(rounds)),
            ("latency_log2_histogram", self.latency.to_json()),
            (
                "outcome",
                match &self.outcome {
                    None => Json::Null,
                    Some(Outcome::Stabilized) => "stabilized".to_json(),
                    Some(Outcome::Cycle { period, .. }) => {
                        format!("cycle (period {period})").to_json()
                    }
                    Some(Outcome::RoundLimit) => "round limit".to_json(),
                },
            ),
        ])
    }
}

/// Serialize one round's beacon-layer counters. The JSONL event log renders
/// its `beacon` object through this too, so both artifacts share one schema.
pub(crate) fn beacon_json(b: &BeaconCounters) -> Json {
    Json::obj([
        ("deliveries", b.deliveries.to_json()),
        ("losses", b.losses.to_json()),
        ("collisions", b.collisions.to_json()),
        ("stale_views", b.stale_views.to_json()),
        ("jitter_abs_sum_micros", b.jitter_abs_sum_micros.to_json()),
    ])
}

/// Serialize one round's shard/wire counters (the `runtime` object of both
/// [`MetricsCollector::to_json`] and the JSONL event log's `round_end`).
pub(crate) fn runtime_json(rt: &RuntimeCounters) -> Json {
    Json::obj([
        ("shard_moves", rt.shard_moves.to_json()),
        ("frames", rt.frames.to_json()),
        ("bytes_on_wire", rt.bytes_on_wire.to_json()),
        ("max_channel_depth", rt.max_channel_depth.to_json()),
        ("frames_suppressed", rt.frames_suppressed.to_json()),
        ("frames_dropped", rt.frames_dropped.to_json()),
        ("frames_duped", rt.frames_duped.to_json()),
        ("frames_delayed", rt.frames_delayed.to_json()),
        ("frames_corrupted", rt.frames_corrupted.to_json()),
        ("restarts", rt.restarts.to_json()),
        ("byz_rewrites", rt.byz_rewrites.to_json()),
        ("asym_links_down", rt.asym_links_down.to_json()),
    ])
}

/// Serialize a [`RoundProfile`] — per-lane phase spans plus the derived
/// skew summary (max/mean lane time, straggler lane, barrier-wait share).
/// Shared by [`MetricsCollector::to_json`] and the JSONL event log so the
/// offline `analyze` report reads one schema regardless of the artifact.
pub fn profile_json(p: &RoundProfile) -> Json {
    let shards: Vec<Json> = p
        .shards
        .iter()
        .map(|lane| {
            let spans: Vec<(String, Json)> = PHASES
                .iter()
                .filter(|&&ph| lane.spans.micros(ph) > 0 || lane.spans.count(ph) > 0)
                .map(|&ph| {
                    (
                        ph.label().to_string(),
                        Json::obj([
                            ("micros", lane.spans.micros(ph).to_json()),
                            ("count", lane.spans.count(ph).to_json()),
                        ]),
                    )
                })
                .collect();
            Json::obj([
                ("shard", lane.shard.to_json()),
                ("round_micros", lane.round_micros.to_json()),
                ("inbox_max_depth", lane.inbox_max_depth.to_json()),
                ("inbox_depth", lane.inbox_depth.to_json()),
                ("spans", Json::Object(spans)),
            ])
        })
        .collect();
    Json::obj([
        ("shards", Json::Array(shards)),
        ("max_round_micros", p.max_round_micros().to_json()),
        ("mean_round_micros", p.mean_round_micros().to_json()),
        ("skew", p.skew().to_json()),
        (
            "straggler",
            p.straggler()
                .map(|s| s.shard.to_json())
                .unwrap_or(Json::Null),
        ),
        ("barrier_wait_share", p.barrier_wait_share().to_json()),
    ])
}

fn log2_bucket(micros: u64) -> usize {
    (u64::BITS - micros.leading_zeros()) as usize
}

impl<S> Observer<S> for MetricsCollector<S> {
    fn on_round_start(&mut self, round: usize, states: &[S]) {
        if round == 1 {
            let init = self.eval_gauges(states);
            self.initial_gauges = Some(init);
        }
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        let gauges = self.eval_gauges(states);
        self.latency.add(log2_bucket(stats.duration_micros));
        self.rounds.push(RoundRecord {
            round: stats.round,
            privileged: stats.privileged,
            evaluated: stats.evaluated,
            moves_per_rule: stats.moves_per_rule.clone(),
            duration_micros: stats.duration_micros,
            gauges,
            beacon: stats.beacon.clone(),
            runtime: stats.runtime.clone(),
            profile: stats.profile.clone(),
        });
    }

    fn on_finish(&mut self, outcome: &Outcome, _states: &[S]) {
        self.outcome = Some(outcome.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::Node;

    fn stats(round: usize, privileged: usize, micros: u64) -> RoundStats {
        RoundStats {
            round,
            privileged,
            evaluated: privileged,
            moves_per_rule: vec![privileged as u64],
            duration_micros: micros,
            beacon: None,
            runtime: None,
            profile: None,
        }
    }

    #[test]
    fn records_rounds_gauges_and_latency() {
        let mut c: MetricsCollector<u8> =
            MetricsCollector::new().with_gauge("sum", |s: &[u8]| s.iter().map(|&x| x as u64).sum());
        let s0 = [0u8, 2];
        let s1 = [2u8, 2];
        c.on_round_start(1, &s0);
        c.on_move(Node(0), 0, &2);
        c.on_round_end(&stats(1, 1, 3), &s1);
        c.on_finish(&Outcome::Stabilized, &s1);
        assert_eq!(c.initial_gauges(), Some(&[2u64][..]));
        assert_eq!(c.rounds().len(), 1);
        assert_eq!(c.rounds()[0].gauges, vec![4]);
        assert_eq!(c.gauge_series("sum"), Some(vec![2, 4]));
        assert_eq!(c.gauge_series("nope"), None);
        assert_eq!(c.outcome(), Some(&Outcome::Stabilized));
        // 3 µs lands in log2 bucket 2.
        assert_eq!(c.latency_histogram().count(2), 1);
        let table = c.render_table();
        assert!(table.contains("| 0 (init) | — | — | — | 2 |"), "{table}");
        assert!(table.contains("| 1 | 1 | 1 | 1 | 4 |"), "{table}");
        let json = c.to_json();
        assert_eq!(
            json.get("outcome").and_then(Json::as_str),
            Some("stabilized")
        );
        assert_eq!(
            json.get("rounds").and_then(Json::as_array).unwrap().len(),
            1
        );
    }

    #[test]
    fn chaos_columns_appear_only_when_faults_fired() {
        let runtime_stats = |round: usize, dropped: u64, restarts: u64| {
            let mut s = stats(round, 1, 1);
            s.runtime = Some(RuntimeCounters {
                shard_moves: vec![1],
                frames: 2,
                frames_dropped: dropped,
                restarts,
                ..RuntimeCounters::default()
            });
            s
        };

        // A fault-free sharded run keeps the legacy table byte-identical.
        let mut clean: MetricsCollector<u8> = MetricsCollector::new();
        clean.on_round_end(&runtime_stats(1, 0, 0), &[0u8]);
        clean.on_finish(&Outcome::Stabilized, &[0u8]);
        let table = clean.render_table();
        assert!(
            table.contains("| frames | suppressed | wire bytes | max chan depth |"),
            "{table}"
        );
        assert!(!table.contains("dropped"), "{table}");
        assert_eq!(clean.recovery_rounds(), None, "no faults, no recovery");

        // With faults the chaos columns and the recovery measure appear.
        let mut chaotic: MetricsCollector<u8> = MetricsCollector::new();
        chaotic.on_round_end(&runtime_stats(1, 3, 1), &[0u8]);
        chaotic.on_round_end(&runtime_stats(2, 0, 0), &[0u8]);
        chaotic.on_round_end(&runtime_stats(3, 0, 0), &[0u8]);
        chaotic.on_finish(&Outcome::Stabilized, &[0u8]);
        let table = chaotic.render_table();
        assert!(
            table.contains("| dropped | duped | delayed | corrupted | restarts |"),
            "{table}"
        );
        assert!(table.contains("| 3 | 0 | 0 | 0 | 1 |"), "{table}");
        assert_eq!(
            chaotic.recovery_rounds(),
            Some(2),
            "stabilized two rounds after the last fault event"
        );
        let json = chaotic.to_json();
        let rounds = json.get("rounds").and_then(Json::as_array).unwrap();
        let rt = rounds[0].get("runtime").unwrap();
        assert_eq!(rt.get("frames_dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(rt.get("restarts").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn skew_columns_appear_only_with_multiple_lanes() {
        use super::super::{Phase, PhaseSpans, ShardProfile};
        let lane = |shard: usize, micros: u64, barrier: u64| {
            let mut spans = PhaseSpans::new();
            spans.add_micros(Phase::Compute, micros - barrier, 1);
            spans.add_micros(Phase::BarrierWait, barrier, 2);
            ShardProfile {
                shard,
                spans,
                round_micros: micros,
                inbox_max_depth: shard as u64,
                inbox_depth: 0,
            }
        };

        // Single-lane (serial) profile: the legacy table is unchanged.
        let mut serial: MetricsCollector<u8> = MetricsCollector::new();
        let mut s = stats(1, 1, 5);
        s.profile = Some(RoundProfile {
            shards: vec![lane(0, 5, 0)],
        });
        serial.on_round_end(&s, &[0u8]);
        assert!(!serial.render_table().contains("skew"));

        // Two lanes: skew columns name the straggler.
        let mut sharded: MetricsCollector<u8> = MetricsCollector::new();
        let mut s = stats(1, 1, 10);
        s.profile = Some(RoundProfile {
            shards: vec![lane(0, 10, 2), lane(1, 4, 2)],
        });
        sharded.on_round_end(&s, &[0u8]);
        let table = sharded.render_table();
        assert!(
            table.contains("| max lane µs | skew | straggler | barrier share |"),
            "{table}"
        );
        // max 10, mean 7 → skew 1.43; straggler is lane 0.
        assert!(table.contains("| 10 | 1.43 | 0 |"), "{table}");

        let json = sharded.to_json();
        let p = json.get("rounds").and_then(Json::as_array).unwrap()[0]
            .get("profile")
            .unwrap();
        assert_eq!(p.get("straggler").and_then(Json::as_u64), Some(0));
        assert_eq!(p.get("max_round_micros").and_then(Json::as_u64), Some(10));
        let shards = p.get("shards").and_then(Json::as_array).unwrap();
        let spans = shards[0].get("spans").unwrap();
        assert_eq!(
            spans
                .get("compute")
                .and_then(|s| s.get("micros"))
                .and_then(Json::as_u64),
            Some(8)
        );
        assert_eq!(
            spans
                .get("barrier_wait")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1_000_000), 20);
    }
}
