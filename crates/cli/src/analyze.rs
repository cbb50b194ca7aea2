//! The offline `analyze` subcommand.
//!
//! Reads a profiled JSONL artifact (recorded by `run --profile`) and
//! prints, without re-running anything: the critical-path breakdown per
//! phase, a shard-skew table naming the straggler lane, the backpressure
//! hot channels, the chaos recovery timeline, and the paper's bound
//! checks — rounds ≤ n+1 for SMM (Theorem 1), monotone |M| (Lemmas 9–10),
//! and the move total against the Manne et al. O(m) yardstick. Bound
//! violations make the command exit non-zero, so a recorded artifact can
//! gate CI.

use crate::args::Args;
use selfstab_analysis::{Histogram, SkewAccumulator};
use selfstab_engine::obs::PHASES;
use selfstab_json::Json;

/// Everything `analyze` extracts from one `round_end` line.
struct RoundData {
    round: u64,
    moves: u64,
    /// Post-round global state, kept verbatim for the |M| check.
    states: Option<Vec<Json>>,
    profile: Option<Json>,
    runtime: Option<Json>,
}

/// Parsed artifact: the meta header, the rounds, and the finish line.
#[derive(Default)]
struct Artifact {
    protocol: Option<String>,
    topology: Option<String>,
    n: Option<u64>,
    m: Option<u64>,
    shards: Option<u64>,
    max_rounds: Option<u64>,
    faults: bool,
    init_states: Option<Vec<Json>>,
    rounds: Vec<RoundData>,
    outcome: Option<String>,
    stabilized: bool,
}

fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let mut art = Artifact::default();
    let mut saw_finish = false;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let event = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match event.get("event").and_then(Json::as_str) {
            Some("meta") => {
                art.protocol = event
                    .get("protocol")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                art.topology = event
                    .get("topology")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                art.n = event.get("n").and_then(Json::as_u64);
                art.m = event.get("m").and_then(Json::as_u64);
                art.shards = event.get("shards").and_then(Json::as_u64);
                art.max_rounds = event.get("max_rounds").and_then(Json::as_u64);
                art.faults = event.get("faults").and_then(Json::as_bool).unwrap_or(false);
            }
            Some("init") => {
                art.init_states = event
                    .get("states")
                    .and_then(Json::as_array)
                    .map(<[Json]>::to_vec);
            }
            Some("round_end") => {
                art.rounds.push(RoundData {
                    round: event.get("round").and_then(Json::as_u64).unwrap_or(0),
                    moves: event
                        .get("moves_per_rule")
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_u64).sum())
                        .unwrap_or(0),
                    states: event
                        .get("states")
                        .and_then(Json::as_array)
                        .map(<[Json]>::to_vec),
                    profile: event.get("profile").cloned(),
                    runtime: event.get("runtime").cloned(),
                });
            }
            Some("finish") => {
                saw_finish = true;
                art.outcome = event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                art.stabilized = event
                    .get("stabilized")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
            }
            Some("move") => {}
            _ => return Err(format!("line {}: unknown event type", i + 1)),
        }
    }
    if !saw_finish {
        return Err("artifact has no finish event (truncated recording?)".into());
    }
    Ok(art)
}

/// Matched pairs |M| of an SMM state snapshot (nullable pointer per node):
/// pairs `i < j` with `s[i] == j` and `s[j] == i`. `None` when any entry is
/// neither null nor an integer (not an SMM pointer state).
fn matched_pairs(states: &[Json]) -> Option<u64> {
    let ptrs: Vec<Option<u64>> = states
        .iter()
        .map(|s| match s {
            Json::Null => Some(None),
            other => other.as_u64().map(Some),
        })
        .collect::<Option<_>>()?;
    let mut count = 0u64;
    for (i, p) in ptrs.iter().enumerate() {
        if let Some(j) = p {
            let j = *j as usize;
            if j > i && ptrs.get(j).copied().flatten() == Some(i as u64) {
                count += 1;
            }
        }
    }
    Some(count)
}

/// Per-round fault events, read back from the artifact's runtime counters
/// (sharded chaos) or its `rehydrate` spans (serial `--crash-at`).
fn fault_events(r: &RoundData) -> Vec<String> {
    let mut events = Vec::new();
    if let Some(rt) = &r.runtime {
        for key in [
            "frames_dropped",
            "frames_duped",
            "frames_delayed",
            "frames_corrupted",
            "restarts",
            "byz_rewrites",
            "asym_links_down",
        ] {
            if let Some(v) = rt.get(key).and_then(Json::as_u64) {
                if v > 0 {
                    events.push(format!("{key}={v}"));
                }
            }
        }
    }
    if let Some(p) = &r.profile {
        let rehydrated = p
            .get("shards")
            .and_then(Json::as_array)
            .is_some_and(|shards| {
                shards.iter().any(|lane| {
                    lane.get("spans")
                        .and_then(|s| s.get("rehydrate"))
                        .and_then(|s| s.get("count"))
                        .and_then(Json::as_u64)
                        .is_some_and(|c| c > 0)
                })
            });
        if rehydrated && r.runtime.is_none() {
            events.push("crash-at rehydration".to_string());
        }
    }
    events
}

/// A resident-service artifact (`serve --profile-out`) is a JSONL stream
/// whose meta line carries `mode: "service"` — it has per-*event* records
/// and a telemetry track instead of per-round states, and no `finish`
/// line (a daemon has no scripted end). Detect it before the batch-run
/// parser, whose truncation check would otherwise reject it.
fn sniff_service(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| {
            Json::parse(l).ok().is_some_and(|j| {
                j.get("event").and_then(Json::as_str) == Some("meta")
                    && j.get("mode").and_then(Json::as_str) == Some("service")
            })
        })
}

/// One row of the service analysis: an event record, drawn from the
/// telemetry track when present (has drain latency and queue depth) or
/// the meta `service_events` spine otherwise.
struct ServiceRow {
    seq: u64,
    kind: String,
    recovery_rounds: u64,
    moves: u64,
    perturbed: u64,
    drain_micros: Option<u64>,
    queue_depth: Option<u64>,
    converged: bool,
}

impl ServiceRow {
    fn parse(j: &Json) -> ServiceRow {
        let get = |k: &str| j.get(k).and_then(Json::as_u64);
        ServiceRow {
            seq: get("seq").unwrap_or(0),
            kind: j
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            recovery_rounds: get("recovery_rounds").unwrap_or(0),
            moves: get("moves").unwrap_or(0),
            perturbed: get("perturbed").unwrap_or(0),
            drain_micros: get("drain_micros"),
            queue_depth: get("queue_depth"),
            converged: j.get("converged").and_then(Json::as_bool).unwrap_or(false),
        }
    }
}

/// `selfstab analyze` on a `serve --profile-out` artifact: event-stream
/// summary, rolling `--window N` recovery/drain tables (per-window
/// [`Histogram`]s folded into a cumulative one via `merge`), per-client
/// fairness, and the per-event Theorem 1/2 recovery bound as the CI gate.
fn analyze_service(path: &str, text: &str, args: &Args) -> Result<(String, bool), String> {
    let window: usize = match args.get("window") {
        Some(w) => {
            let v: usize = w
                .parse()
                .map_err(|_| format!("--window '{w}' is not an integer"))?;
            if v == 0 {
                return Err("--window must be a positive number of events".into());
            }
            v
        }
        None => 0,
    };

    let mut protocol = None;
    let mut topology = None;
    let (mut n, mut m) = (None, None);
    let mut spine: Vec<Json> = Vec::new();
    let mut track: Vec<ServiceRow> = Vec::new();
    let mut dropped = 0u64;
    let mut track_format = None;
    let mut clients: Vec<(u64, u64)> = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let event = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match event.get("event").and_then(Json::as_str) {
            Some("meta") => {
                protocol = event
                    .get("protocol")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                topology = event
                    .get("topology")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                n = event.get("n").and_then(Json::as_u64);
                m = event.get("m").and_then(Json::as_u64);
                spine = event
                    .get("service_events")
                    .and_then(Json::as_array)
                    .map(<[Json]>::to_vec)
                    .unwrap_or_default();
                dropped = event
                    .get("telemetry_dropped")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                track_format = event
                    .get("telemetry_format")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                clients = event
                    .get("telemetry_clients")
                    .and_then(Json::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(|c| {
                                Some((
                                    c.get("client").and_then(Json::as_u64)?,
                                    c.get("requests").and_then(Json::as_u64)?,
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
            }
            Some("service-telemetry") => track.push(ServiceRow::parse(&event)),
            // Observer round/move lines may interleave; they carry no
            // per-event semantics here.
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "service artifact {path}\nprotocol {} on {}",
        protocol.as_deref().unwrap_or("(unknown)"),
        topology.as_deref().unwrap_or("(unknown topology)"),
    ));
    if let (Some(n), Some(m)) = (n, m) {
        out.push_str(&format!(" (n={n}, m={m})"));
    }
    if let Some(fmt) = &track_format {
        out.push_str(&format!("\ntelemetry track: {fmt}, {} row(s)", track.len()));
        if dropped > 0 {
            out.push_str(&format!(" ({dropped} oldest dropped at the ring cap)"));
        }
    }
    out.push('\n');

    // Rows: the telemetry track when recorded, else the event spine
    // (skipping the seq-0 bootstrap, which is not an ingested event).
    let rows: Vec<ServiceRow> = if track.is_empty() {
        spine
            .iter()
            .map(ServiceRow::parse)
            .filter(|r| r.seq > 0)
            .collect()
    } else {
        track
    };
    if rows.is_empty() {
        out.push_str("no service events recorded\n");
        return Ok((out, true));
    }

    let total_moves: u64 = rows.iter().map(|r| r.moves).sum();
    let settled = rows.iter().filter(|r| r.converged).count();
    let mut kinds: Vec<(String, usize)> = Vec::new();
    for r in &rows {
        match kinds.iter_mut().find(|(k, _)| *k == r.kind) {
            Some((_, c)) => *c += 1,
            None => kinds.push((r.kind.clone(), 1)),
        }
    }
    let kinds = kinds
        .iter()
        .map(|(k, c)| format!("{k}×{c}"))
        .collect::<Vec<_>>()
        .join(" ");
    out.push_str(&format!(
        "events: {} ({} converged at event end; {kinds}), total moves {total_moves}\n",
        rows.len(),
        settled,
    ));

    // Rolling windows: chunk the event stream, histogram each chunk, and
    // fold the chunks into a cumulative histogram with `merge` — the
    // cumulative line must therefore agree with a whole-run histogram.
    let chunk = if window == 0 { rows.len() } else { window };
    out.push_str(&format!(
        "\nrolling recovery latency (window {chunk} event(s))\n"
    ));
    out.push_str("| window | events | p50 | p99 | max | moves | mean drain µs | max queue |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    let mut cumulative = Histogram::new();
    for (w, rows) in rows.chunks(chunk).enumerate() {
        let hist = Histogram::of(rows.iter().map(|r| r.recovery_rounds as usize));
        let moves: u64 = rows.iter().map(|r| r.moves).sum();
        let drains: Vec<u64> = rows.iter().filter_map(|r| r.drain_micros).collect();
        let drain = if drains.is_empty() {
            "—".to_string()
        } else {
            format!(
                "{:.1}",
                drains.iter().sum::<u64>() as f64 / drains.len() as f64
            )
        };
        let queue = rows
            .iter()
            .filter_map(|r| r.queue_depth)
            .max()
            .map_or_else(|| "—".to_string(), |q| q.to_string());
        out.push_str(&format!(
            "| {w} | {} | {} | {} | {} | {moves} | {drain} | {queue} |\n",
            hist.total(),
            hist.quantile(0.5).unwrap_or(0),
            hist.quantile(0.99).unwrap_or(0),
            hist.max_value().unwrap_or(0),
        ));
        cumulative.merge(&hist);
    }
    out.push_str(&format!(
        "cumulative: {} event(s), p50 {} p99 {} max {}\n",
        cumulative.total(),
        cumulative.quantile(0.5).unwrap_or(0),
        cumulative.quantile(0.99).unwrap_or(0),
        cumulative.max_value().unwrap_or(0),
    ));

    // Per-client fairness: how the ingest load spread over connections.
    if !clients.is_empty() {
        let total: u64 = clients.iter().map(|(_, r)| r).sum();
        out.push_str("\nclient fairness\n| client | requests | share |\n|---|---|---|\n");
        for (client, requests) in &clients {
            let share = if total > 0 {
                100.0 * *requests as f64 / total as f64
            } else {
                0.0
            };
            out.push_str(&format!("| {client} | {requests} | {share:.1}% |\n"));
        }
    }

    // The gate: every per-event recovery must sit within the Theorem 1/2
    // budget n+2 (bootstrap and settle always get the full budget, so a
    // larger value can only come from a corrupted or inconsistent
    // artifact).
    let mut violations = Vec::new();
    out.push_str("\nbound checks\n");
    if let Some(n) = n {
        let bound = n + 2;
        let worst = rows.iter().map(|r| r.recovery_rounds).max().unwrap_or(0);
        if worst <= bound {
            out.push_str(&format!(
                "  PASS per-event recovery max {worst} ≤ n+2 = {bound} (Theorems 1–2)\n"
            ));
        } else {
            violations.push(format!(
                "event recovery {worst} rounds exceeds the n+2 = {bound} budget"
            ));
        }
        if let Some(r) = rows.iter().find(|r| r.perturbed > n) {
            violations.push(format!(
                "event seq {} perturbed {} nodes on an n = {n} graph",
                r.seq, r.perturbed
            ));
        }
    } else {
        out.push_str("  SKIP recovery bound (meta lacks n)\n");
    }
    for v in &violations {
        out.push_str(&format!("  FAIL {v}\n"));
    }
    if !violations.is_empty() {
        out.push_str(&format!(
            "\n{} bound violation(s) — artifact is inconsistent with the paper\n",
            violations.len(),
        ));
    }
    Ok((out, violations.is_empty()))
}

/// `selfstab analyze <artifact.jsonl>`: returns the report and whether all
/// bound checks passed (false exits the process non-zero).
pub fn analyze(positional: Option<&str>, args: &Args) -> Result<(String, bool), String> {
    let path = match positional.or_else(|| args.get("input")) {
        Some(p) => p.to_string(),
        None => return Err("analyze needs an artifact path: selfstab analyze <run.jsonl>".into()),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    // Resident-service artifacts have no finish line; route them to the
    // event-stream analyzer before the batch parser's truncation check.
    if sniff_service(&text) {
        return analyze_service(&path, &text, args).map_err(|e| format!("'{path}': {e}"));
    }
    let art = parse_artifact(&text).map_err(|e| format!("'{path}': {e}"))?;
    let mut out = String::new();
    let mut violations: Vec<String> = Vec::new();

    // ---- header -----------------------------------------------------
    out.push_str(&format!(
        "analysis of {path}\nprotocol {} on {}",
        art.protocol.as_deref().unwrap_or("(unknown)"),
        art.topology.as_deref().unwrap_or("(unknown topology)"),
    ));
    if let (Some(n), Some(m)) = (art.n, art.m) {
        out.push_str(&format!(" (n={n}, m={m})"));
    }
    if let Some(k) = art.shards {
        out.push_str(&format!(", {k} shard(s)"));
    }
    let rounds = art.rounds.len();
    out.push_str(&format!(
        "\noutcome: {} after {rounds} recorded round(s); faults injected: {}\n",
        art.outcome.as_deref().unwrap_or("(unknown)"),
        if art.faults { "yes" } else { "no" },
    ));

    // ---- critical path ----------------------------------------------
    // Per round the slowest lane *is* the barrier-synchronized critical
    // path; summing its per-phase spans says where the run's wall clock
    // actually went.
    let mut crit_micros = [0u64; PHASES.len()];
    let mut crit_counts = [0u64; PHASES.len()];
    let mut crit_total = 0u64;
    let mut skew = SkewAccumulator::new();
    let mut profiled_rounds = 0usize;
    for r in &art.rounds {
        let Some(p) = &r.profile else { continue };
        let Some(lanes) = p.get("shards").and_then(Json::as_array) else {
            continue;
        };
        profiled_rounds += 1;
        let samples: Vec<(usize, u64, u64)> = lanes
            .iter()
            .map(|lane| {
                (
                    lane.get("shard").and_then(Json::as_u64).unwrap_or(0) as usize,
                    lane.get("round_micros").and_then(Json::as_u64).unwrap_or(0),
                    lane.get("inbox_max_depth")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                )
            })
            .collect();
        skew.record_round(r.round as usize, &samples);
        let straggler = p.get("straggler").and_then(Json::as_u64).unwrap_or(0);
        if let Some(lane) = lanes
            .iter()
            .find(|l| l.get("shard").and_then(Json::as_u64) == Some(straggler))
        {
            crit_total += lane.get("round_micros").and_then(Json::as_u64).unwrap_or(0);
            if let Some(spans) = lane.get("spans") {
                for (i, phase) in PHASES.iter().enumerate() {
                    if let Some(s) = spans.get(phase.label()) {
                        crit_micros[i] += s.get("micros").and_then(Json::as_u64).unwrap_or(0);
                        crit_counts[i] += s.get("count").and_then(Json::as_u64).unwrap_or(0);
                    }
                }
            }
        }
    }
    out.push_str("\ncritical path (straggler lane, per phase)\n");
    if profiled_rounds == 0 {
        out.push_str("  no per-lane profile in artifact (record with run --profile)\n");
    } else {
        let span_sum: u64 = crit_micros.iter().sum();
        out.push_str("| phase | µs | share | samples |\n|---|---|---|---|\n");
        for (i, phase) in PHASES.iter().enumerate() {
            if crit_micros[i] == 0 && crit_counts[i] == 0 {
                continue;
            }
            let share = if span_sum > 0 {
                100.0 * crit_micros[i] as f64 / span_sum as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "| {} | {} | {share:.1}% | {} |\n",
                phase.label(),
                crit_micros[i],
                crit_counts[i],
            ));
        }
        out.push_str(&format!(
            "straggler-lane time {crit_total} µs over {profiled_rounds} profiled round(s)\n"
        ));
    }

    // ---- shard skew --------------------------------------------------
    out.push_str("\nshard skew\n");
    if skew.lanes().len() < 2 {
        out.push_str("  single lane — no skew to report\n");
    } else {
        out.push_str("| lane | total µs | straggler rounds | max inbox depth | peak round |\n");
        out.push_str("|---|---|---|---|---|\n");
        for (i, lane) in skew.lanes().iter().enumerate() {
            out.push_str(&format!(
                "| {i} | {} | {} | {} | {} |\n",
                lane.total_micros, lane.straggler_rounds, lane.max_inbox_depth, lane.peak_round,
            ));
        }
        if let Some(s) = skew.straggler() {
            out.push_str(&format!(
                "straggler shard: {s} (slowest in {}/{} rounds); mean skew {:.2}\n",
                skew.lanes()[s].straggler_rounds,
                skew.rounds(),
                skew.mean_skew(),
            ));
        }
    }

    // ---- backpressure ------------------------------------------------
    out.push_str("\nbackpressure hot channels\n");
    let hot = skew.hot_channels();
    if hot.is_empty() {
        out.push_str("  no inbox ever held a queued frame at exchange end\n");
    } else {
        for (lane, depth, round) in hot {
            out.push_str(&format!(
                "  lane {lane}: inbox peaked at {depth} (round {round})\n"
            ));
        }
    }

    // ---- chaos recovery timeline ------------------------------------
    out.push_str("\nchaos recovery timeline\n");
    let mut last_fault_round: Option<u64> = None;
    let mut any_fault = false;
    for r in &art.rounds {
        let events = fault_events(r);
        if !events.is_empty() {
            any_fault = true;
            last_fault_round = Some(r.round);
            out.push_str(&format!("  round {}: {}\n", r.round, events.join(", ")));
        }
    }
    if !any_fault {
        out.push_str("  no fault events recorded\n");
    } else if let (Some(last), Some(final_round)) =
        (last_fault_round, art.rounds.last().map(|r| r.round))
    {
        if art.stabilized {
            out.push_str(&format!(
                "  re-stabilized {} round(s) after the last fault event\n",
                final_round.saturating_sub(last),
            ));
        }
    }

    // ---- bound checks ------------------------------------------------
    out.push_str("\nbound checks\n");
    let is_smm = art.protocol.as_deref() == Some("SMM");
    if is_smm && !art.faults {
        // Theorem 1: SMM stabilizes within n+1 rounds from any state.
        if let Some(n) = art.n {
            if art.stabilized {
                let bound = n + 1;
                if rounds as u64 <= bound {
                    out.push_str(&format!(
                        "  PASS rounds {rounds} ≤ n+1 = {bound} (Theorem 1)\n"
                    ));
                } else {
                    violations.push(format!(
                        "rounds {rounds} exceed the Theorem 1 bound n+1 = {bound}"
                    ));
                }
            } else {
                violations.push(format!(
                    "fault-free SMM run did not stabilize ({}) within the budget",
                    art.outcome.as_deref().unwrap_or("unknown outcome"),
                ));
            }
        }
        // Lemmas 9–10: a matched pair never dissolves, so |M| is monotone.
        let snapshots: Vec<&Vec<Json>> = art
            .init_states
            .iter()
            .chain(art.rounds.iter().filter_map(|r| r.states.as_ref()))
            .collect();
        let sizes: Option<Vec<u64>> = snapshots.iter().map(|s| matched_pairs(s)).collect();
        match sizes {
            Some(sizes) if sizes.len() > 1 => {
                match sizes.windows(2).position(|w| w[1] < w[0]) {
                    None => out.push_str(&format!(
                        "  PASS |M| monotone non-decreasing over {} snapshots, final |M| = {} (Lemmas 9–10)\n",
                        sizes.len(),
                        sizes.last().copied().unwrap_or(0),
                    )),
                    Some(i) => violations.push(format!(
                        "|M| decreased from {} to {} at snapshot {} (Lemmas 9–10)",
                        sizes[i],
                        sizes[i + 1],
                        i + 1,
                    )),
                }
            }
            _ => out.push_str("  SKIP |M| check (no pointer-state snapshots in artifact)\n"),
        }
    } else if is_smm {
        out.push_str("  SKIP Theorem 1 / |M| checks (run injected faults)\n");
    } else {
        out.push_str("  SKIP SMM bound checks (artifact is not an SMM run)\n");
    }
    let total_moves: u64 = art.rounds.iter().map(|r| r.moves).sum();
    match art.m {
        Some(m) if m > 0 => out.push_str(&format!(
            "  INFO total moves {total_moves} = {:.2} per edge (Manne et al. O(m) yardstick)\n",
            total_moves as f64 / m as f64,
        )),
        _ => out.push_str(&format!("  INFO total moves {total_moves}\n")),
    }
    for v in &violations {
        out.push_str(&format!("  FAIL {v}\n"));
    }
    if !violations.is_empty() {
        out.push_str(&format!(
            "\n{} bound violation(s) — artifact is inconsistent with the paper\n",
            violations.len(),
        ));
    }
    Ok((out, violations.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_empty() -> Args {
        Args::parse(&[]).unwrap()
    }

    fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("selfstab-analyze-{name}-{}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn matched_pairs_counts_mutual_pointers() {
        let s = |v: &[Option<u64>]| -> Vec<Json> {
            v.iter()
                .map(|p| p.map(Json::U64).unwrap_or(Json::Null))
                .collect()
        };
        assert_eq!(matched_pairs(&s(&[None, None])), Some(0));
        // 0↔1 matched; 2 points at 3 but 3 points back at 2 → second pair.
        assert_eq!(
            matched_pairs(&s(&[Some(1), Some(0), Some(3), Some(2)])),
            Some(2)
        );
        // One-sided pointer is not a pair.
        assert_eq!(matched_pairs(&s(&[Some(1), None])), Some(0));
        // Non-pointer states bail out.
        assert_eq!(matched_pairs(&[Json::Bool(true)]), None);
    }

    #[test]
    fn flags_a_decreasing_matching_as_bound_violation() {
        // Hand-corrupted artifact: |M| goes 1 → 0 between rounds.
        let artifact = concat!(
            "{\"event\":\"meta\",\"protocol\":\"SMM\",\"topology\":\"path\",\"n\":2,\"m\":1,\"shards\":1,\"faults\":false}\n",
            "{\"event\":\"init\",\"states\":[1,0]}\n",
            "{\"event\":\"round_end\",\"round\":1,\"privileged\":1,\"evaluated\":2,\"moves_per_rule\":[1,0,0],\"duration_micros\":3,\"states\":[null,null]}\n",
            "{\"event\":\"finish\",\"outcome\":\"stabilized\",\"stabilized\":true,\"states\":[null,null]}\n",
        );
        let path = write_tmp("corrupt", artifact);
        let (report, ok) = analyze(Some(path.to_str().unwrap()), &args_empty()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!ok, "{report}");
        assert!(report.contains("|M| decreased from 1 to 0"), "{report}");
    }

    fn service_artifact(recovery: u64) -> String {
        let mut text = concat!(
            "{\"event\":\"meta\",\"mode\":\"service\",\"protocol\":\"SMM\",",
            "\"topology\":\"path\",\"n\":8,\"m\":7,",
            "\"telemetry_format\":\"service-telemetry/v1\",\"telemetry_dropped\":0,",
            "\"telemetry_clients\":[{\"client\":1,\"requests\":3},{\"client\":2,\"requests\":1}],",
            "\"service_events\":[]}\n",
        )
        .to_string();
        for seq in 1..=4u64 {
            text.push_str(&format!(
                concat!(
                    "{{\"event\":\"service-telemetry\",\"seq\":{seq},\"t_micros\":{t},",
                    "\"kind\":\"edge-down\",\"recovery_rounds\":{r},\"moves\":2,",
                    "\"perturbed\":4,\"drain_micros\":120,\"queue_depth\":0,",
                    "\"backend\":\"serial\",\"converged\":true}}\n",
                ),
                seq = seq,
                t = seq * 100,
                r = if seq == 4 { recovery } else { 2 },
            ));
        }
        text
    }

    #[test]
    fn service_artifact_renders_windows_and_passes_bounds() {
        let path = write_tmp("service-ok", &service_artifact(3));
        let args = Args::parse(&["--window".into(), "2".into()]).unwrap();
        let (report, ok) = analyze(Some(path.to_str().unwrap()), &args).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(ok, "{report}");
        assert!(report.contains("service artifact"), "{report}");
        assert!(
            report.contains("telemetry track: service-telemetry/v1"),
            "{report}"
        );
        assert!(
            report.contains("rolling recovery latency (window 2 event(s))"),
            "{report}"
        );
        assert!(
            report.contains("| 1 | 2 |"),
            "two windows of two events: {report}"
        );
        assert!(report.contains("cumulative: 4 event(s)"), "{report}");
        assert!(
            report.contains("| 1 | 3 | 75.0% |"),
            "fairness table: {report}"
        );
        assert!(report.contains("PASS per-event recovery max 3"), "{report}");
    }

    #[test]
    fn service_artifact_recovery_over_budget_fails_and_window_zero_errors() {
        // n = 8 → budget n+2 = 10; an event claiming 13 recovery rounds is
        // inconsistent with the paper's theorems.
        let path = write_tmp("service-bad", &service_artifact(13));
        let (report, ok) = analyze(Some(path.to_str().unwrap()), &args_empty()).unwrap();
        assert!(!ok, "{report}");
        assert!(report.contains("FAIL event recovery 13"), "{report}");

        let args = Args::parse(&["--window".into(), "0".into()]).unwrap();
        let err = analyze(Some(path.to_str().unwrap()), &args).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("--window must be a positive"), "{err}");
    }

    #[test]
    fn truncated_artifact_is_an_error() {
        let path = write_tmp("truncated", "{\"event\":\"init\",\"states\":[null]}\n");
        let err = analyze(Some(path.to_str().unwrap()), &args_empty()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("no finish event"), "{err}");
        assert!(analyze(Some("/nonexistent/x.jsonl"), &args_empty()).is_err());
        assert!(analyze(None, &args_empty()).is_err());
    }
}
