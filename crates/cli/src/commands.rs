//! The `run`, `sim`, and `verify` subcommands.

use crate::args::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_adhoc::{BeaconConfig, BeaconSim, Topology};
use selfstab_core::coloring::Coloring;
use selfstab_core::smm::{SelectPolicy, Smm};
use selfstab_core::Smi;
use selfstab_engine::active::Schedule;
use selfstab_engine::chaos::{run_churned_serial_observed, ChurnSchedule};
use selfstab_engine::exhaustive::{all_connected_graphs, verify_all_initial_states};
use selfstab_engine::faults::CrashAt;
use selfstab_engine::obs::{ChromeTraceWriter, Gauge, JsonlEventLog, MetricsCollector};
use selfstab_engine::protocol::{InitialState, Protocol, WireState};
use selfstab_engine::sync::{Outcome, SyncExecutor};
use selfstab_graph::mutate::TopologyEvent;
use selfstab_graph::{dot, generators, Graph, Ids};
use selfstab_json::{Json, ToJson};
use selfstab_runtime::{run_churned_sharded, CrashSpec, FaultPlan, RuntimeExecutor};

/// Usage text shown by `help` and on errors.
pub const USAGE: &str = "\
selfstab — self-stabilizing maximal matching / MIS / coloring (IPDPS 2003 reproduction)

USAGE:
  selfstab run    --protocol smm|smi|coloring (--topology <name> --n <N> | --graph6 <str>)
                  [--ids identity|reversed|random] [--init default|random]
                  [--seed <u64>] [--max-rounds <N>] [--format text|json|dot]
                  [--metrics] [--trace-out <file>]
                  [--profile [--profile-out <file>]]
                  [--crash-at <round>:<frac>]       (serial executors only)
                  [--schedule full|active]
                  [--shards <K>]
                  [--chaos drop=P,dup=P,delay=K,corrupt=P[,delayp=P][,until=R]
                          [,byz=ID+ID+…[,strat=random|mimic|oscillate]][,asym=P]]
                  [--crash-shard S@R[,S@R…]]       (chaos flags require --shards)
                  [--churn-every <N> [--churn-events <K>] [--churn-epochs <E>]]
                  [--propose min-id|max-id|first|clockwise|hashed]   (smm only)
  selfstab sim    --protocol smm|smi|coloring --topology <name> --n <N>
                  [--ids identity|reversed|random]
                  [--jitter <frac>] [--loss <prob>] [--mobility <speed>]
                  [--seconds <N>] [--seed <u64>] [--metrics]
                  [--chaos drop=P,dup=P,delay=K,corrupt=P[,delayp=P][,asym=P]]

  --metrics appends a per-round convergence table (for SMM: the Fig. 2
  node-type census and the matched-pair count |M|); --trace-out writes a
  chrome://tracing-loadable JSON timeline of the run. --schedule active
  (the default) evaluates only nodes whose closed neighborhood changed in
  the previous round — identical results to the full sweep, fewer guard
  evaluations; full re-evaluates everything every round. --shards K
  executes on the sharded message-passing runtime (K mailbox workers,
  one beacon batch per neighbouring shard per round; no cycle
  detection) — identical states and round counts to the in-process
  executor; under the active schedule only moved boundary states are
  re-broadcast (delta beacons).
  --propose overrides SMM's R2 selection (the paper's min-id is what makes
  SMM stabilize; clockwise reproduces the C4 counterexample). --chaos
  injects a seeded fault plan at the shard channel boundary: beacon frames
  are dropped, duplicated, delayed K rounds, or bit-corrupted (detected
  and skipped by the wire layer; receivers fall back to the last cached
  beacon). byz= marks nodes Byzantine: each hot round their state is
  rewritten into an adversarial but well-formed value (strat= picks the
  rewrite strategy; runs with byz nodes also report honest-core
  containment). asym= makes each link direction fail independently with
  probability P, so a link can pass u→v while dropping v→u.
  --crash-shard kills worker S entering round R and respawns it
  from arbitrary states. --churn-every applies connectivity-preserving
  link churn every N rounds on any executor; legitimacy is then judged on
  the final, mutated topology. All chaos is deterministic given --seed.
  --profile records a JSONL artifact of the run (per-round phase spans,
  per-shard skew, mailbox-depth gauges, post-round states) to --profile-out,
  defaulting to the --trace-out stem with a .jsonl extension, else
  selfstab-profile.jsonl. --crash-at <round>:<frac> re-randomizes a seeded
  ⌈frac·n⌉-node subset entering the given round on the serial executor —
  the non-sharded mirror of --crash-shard. `sim --chaos` accepts the same
  spec grammar and applies the same fate hashing to beacon deliveries per
  beacon period (byz= is rejected there: state rewrites need the
  round-synchronous executors).
  selfstab verify --protocol smm|smi|coloring --max-n <N<=5>
  selfstab analyze <artifact.jsonl> [--window <events>]
                  offline report over a --profile
                  artifact: per-phase critical path, shard skew (straggler
                  lane), backpressure hot channels, chaos recovery timeline,
                  and paper bound checks (SMM rounds ≤ n+1, monotone |M|,
                  moves vs. the Manne et al. O(m) yardstick). Exits 1 on a
                  bound violation, 2 on an unreadable artifact. A
                  `serve --profile-out` artifact is detected by its meta
                  line and analyzed as an event stream instead: rolling
                  recovery-latency/drain tables every --window events,
                  per-client fairness, and the per-event n+2 recovery gate.
  selfstab topology --topology <name> --n <N> [--seed <u64>] [--format text|graph6|dot]
  selfstab serve  --protocol smm|smi --topology <name> --n <N>
                  (--script <file> | --socket <path>)
                  [--ids identity|reversed|random] [--init default|random]
                  [--seed <u64>] [--budget <rounds>] [--metrics]
                  [--snapshot-out <file>] [--snapshot-every <N|Ns|Nms>]
                  [--resume <snapshot.json>] [--profile-out <file>]
                  [--telemetry-addr <host:port>]
                  resident overlay-maintenance daemon: stabilizes the
                  protocol, then ingests mutation events (edge-up/down,
                  node-join/leave) and answers queries (membership, census,
                  status, latency) as line-delimited JSON, re-converging
                  only the perturbed closed neighborhoods after each event
                  (budget defaults to the paper bound n+2). --script replays
                  a request file through the deterministic sim environment
                  and prints each reply; --socket listens on a Unix domain
                  socket until a client sends {\"op\":\"shutdown\"} or SIGINT
                  — shutdown drains the queue and settles before exit, so
                  --snapshot-out always captures a legitimate configuration.
                  --metrics appends the per-event recovery table (rounds and
                  moves per mutation); --profile-out writes the JSONL spine
                  plus the service-telemetry/v1 track (one line per drained
                  event). Both read the one bounded event track, which keeps
                  the newest 65536 events and counts the ones it dropped.
                  --telemetry-addr binds a std-only TCP listener serving
                  the live registry in Prometheus text exposition (the
                  same numbers as the {\"op\":\"query\",\"what\":\"telemetry\"}
                  wire query); the bound address is printed to stderr at
                  startup. --snapshot-every writes selfstab-snapshot/v1
                  documents in the background (bare N = every N events,
                  Ns/Nms = on the service clock; requires --snapshot-out;
                  tmp+rename, so a crash never truncates the last good
                  snapshot); --resume boots from such a document instead
                  of generating a topology — a legitimate snapshot
                  re-stabilizes in 0 rounds.
  selfstab client (--socket <path> (--script <file> | --send <line>)
                  | --scrape <host:port>)
                  scripted client for a --socket daemon; prints one reply
                  line per request. --scrape instead fetches one Prometheus
                  exposition from a daemon's --telemetry-addr listener.

Every subcommand rejects a flag it does not read (exit 2).

topologies: path cycle star complete grid binary-tree hypercube
            unit-disk gnp tree petersen";

pub(crate) fn build_topology(name: &str, n: usize, rng: &mut StdRng) -> Result<Graph, String> {
    Ok(match name {
        "path" => generators::path(n),
        "cycle" => generators::cycle(n.max(3)),
        "star" => generators::star(n),
        "complete" => generators::complete(n),
        "grid" => generators::Family::Grid.build(n),
        "binary-tree" => generators::binary_tree(n),
        "hypercube" => generators::Family::Hypercube.build(n.max(2)),
        "unit-disk" => {
            let r = (2.2 * (n as f64).ln() / n as f64).sqrt().min(1.0);
            generators::random_geometric_connected(n, r, rng)
        }
        "gnp" => {
            let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
            generators::erdos_renyi_connected(n, p, rng)
        }
        "tree" => generators::random_tree(n, rng),
        "petersen" => generators::petersen(),
        other => return Err(format!("unknown topology '{other}'")),
    })
}

/// Parse `--shards` into a shard count; `None` means "run on the
/// in-process executor".
fn parse_shards(args: &Args) -> Result<Option<usize>, String> {
    let Some(raw) = args.get("shards") else {
        return Ok(None);
    };
    let shards: usize = raw
        .parse()
        .map_err(|_| format!("flag --shards: cannot parse '{raw}'"))?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(Some(shards))
}

/// Parse `--chaos` / `--crash-shard` into a [`FaultPlan`] seeded from the
/// run's `--seed`; `None` means "no fault injection".
fn parse_chaos(args: &Args, seed: u64) -> Result<Option<FaultPlan>, String> {
    let spec = args.get("chaos");
    let crash = args.get("crash-shard");
    if spec.is_none() && crash.is_none() {
        return Ok(None);
    }
    let mut plan = match spec {
        Some(s) => {
            FaultPlan::parse_spec(s, seed ^ 0xfa17).map_err(|e| format!("flag --chaos: {e}"))?
        }
        None => FaultPlan::new(seed ^ 0xfa17),
    };
    if let Some(specs) = crash {
        for part in specs.split(',') {
            let c =
                CrashSpec::parse(part.trim()).map_err(|e| format!("flag --crash-shard: {e}"))?;
            plan = plan.with_crash(c.shard, c.round);
        }
    }
    Ok(Some(plan))
}

/// Parse `--churn-every`/`--churn-events`/`--churn-epochs` into a seeded
/// [`ChurnSchedule`]; `None` means "static topology".
fn parse_churn(args: &Args, seed: u64) -> Result<Option<ChurnSchedule>, String> {
    let Some(raw) = args.get("churn-every") else {
        for dep in ["churn-events", "churn-epochs"] {
            if args.get(dep).is_some() {
                return Err(format!("--{dep} requires --churn-every"));
            }
        }
        return Ok(None);
    };
    let every: usize = raw
        .parse()
        .map_err(|_| format!("flag --churn-every: cannot parse '{raw}'"))?;
    let schedule = ChurnSchedule::new(every, seed ^ 0xc4c4)
        .with_events(args.parse_or("churn-events", 1)?)
        .with_epochs(args.parse_or("churn-epochs", 1)?);
    schedule
        .validate()
        .map_err(|e| format!("flag --churn-every: {e}"))?;
    Ok(Some(schedule))
}

/// What a churned run leaves behind: the final (mutated) topology, the
/// applied `(round, event)` log, and the re-stabilization round count.
type ChurnedOutcome = (Graph, Vec<(usize, TopologyEvent)>, Option<usize>);

fn parse_propose_policy(args: &Args) -> Result<SelectPolicy, String> {
    Ok(match args.str_or("propose", "min-id") {
        "min-id" => SelectPolicy::MinId,
        "max-id" => SelectPolicy::MaxId,
        "first" => SelectPolicy::FirstIndex,
        "clockwise" => SelectPolicy::Clockwise,
        "hashed" => SelectPolicy::Hashed,
        other => return Err(format!("unknown propose policy '{other}'")),
    })
}

pub(crate) fn build_ids(kind: &str, n: usize, rng: &mut StdRng) -> Result<Ids, String> {
    Ok(match kind {
        "identity" => Ids::identity(n),
        "reversed" => Ids::reversed(n),
        "random" => Ids::random(n, rng),
        other => return Err(format!("unknown id assignment '{other}'")),
    })
}

struct RunReport {
    protocol: String,
    topology: String,
    n: usize,
    m: usize,
    rounds: usize,
    outcome: String,
    moves_per_rule: Vec<(String, u64)>,
    legitimate: bool,
    result_summary: String,
    states: Vec<String>,
    metrics: Option<Json>,
    shards: Option<usize>,
    chaos: Option<String>,
    churn: Option<Json>,
    containment: Option<Json>,
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("protocol".to_string(), self.protocol.to_json()),
            ("topology".to_string(), self.topology.to_json()),
            ("n".to_string(), self.n.to_json()),
            ("m".to_string(), self.m.to_json()),
            ("rounds".to_string(), self.rounds.to_json()),
            ("outcome".to_string(), self.outcome.to_json()),
            ("moves_per_rule".to_string(), self.moves_per_rule.to_json()),
            ("legitimate".to_string(), self.legitimate.to_json()),
            ("result_summary".to_string(), self.result_summary.to_json()),
            ("states".to_string(), self.states.to_json()),
        ];
        if let Some(k) = self.shards {
            fields.push(("shards".to_string(), k.to_json()));
        }
        if let Some(c) = &self.chaos {
            fields.push(("chaos".to_string(), c.to_json()));
        }
        if let Some(c) = &self.churn {
            fields.push(("churn".to_string(), c.clone()));
        }
        if let Some(c) = &self.containment {
            fields.push(("containment".to_string(), c.clone()));
        }
        if let Some(m) = &self.metrics {
            fields.push(("metrics".to_string(), m.clone()));
        }
        Json::Object(fields)
    }
}

// The renderer callbacks are what make the argument list long; bundling
// them into a struct would not make the three call sites clearer.
#[allow(clippy::too_many_arguments)]
fn execute<P: Protocol>(
    proto: &P,
    g: &Graph,
    args: &Args,
    protocol_name: &str,
    topology_name: &str,
    gauges: Vec<(String, Gauge<P::State>)>,
    summarize: impl Fn(&Graph, &[P::State]) -> String,
    render_state: impl Fn(&P::State) -> String,
    highlight: impl Fn(&Graph, &[P::State]) -> (Vec<selfstab_graph::Edge>, Vec<bool>),
) -> Result<String, String>
where
    P::State: WireState + ToJson,
{
    let n = g.n();
    let seed: u64 = args.parse_or("seed", 0)?;
    let max_rounds: usize = args.parse_or("max-rounds", 4 * n + 16)?;
    let init = match args.str_or("init", "random") {
        "default" => InitialState::Default,
        "random" => InitialState::Random { seed },
        other => return Err(format!("unknown init '{other}'")),
    };
    let shards = parse_shards(args)?;
    let chaos = parse_chaos(args, seed)?;
    if chaos.is_some() && shards.is_none() {
        return Err("--chaos/--crash-shard require --shards".into());
    }
    let churn = parse_churn(args, seed)?;
    let crash_at = match args.get("crash-at") {
        Some(spec) => {
            let c = CrashAt::parse(spec).map_err(|e| format!("flag --crash-at: {e}"))?;
            if shards.is_some() {
                return Err(
                    "--crash-at drives the serial executor; use --crash-shard S@R with --shards"
                        .into(),
                );
            }
            if churn.is_some() {
                return Err("--crash-at cannot be combined with --churn-every".into());
            }
            Some(c.with_seed(seed ^ 0xc4a5))
        }
        None => None,
    };
    let schedule = Schedule::parse(args.str_or("schedule", "active"))
        .map_err(|e| format!("flag --schedule: {e}"))?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let profile_out = (args.bool_flag("profile") || args.get("profile-out").is_some()).then(|| {
        match args.get("profile-out") {
            Some(p) => p.to_string(),
            // Default the artifact next to the Chrome trace (same stem,
            // .jsonl), or to a fixed name when no trace was requested.
            None => match &trace_out {
                Some(t) => std::path::Path::new(t)
                    .with_extension("jsonl")
                    .to_string_lossy()
                    .into_owned(),
                None => "selfstab-profile.jsonl".to_string(),
            },
        }
    });
    let mut metrics = args
        .bool_flag("metrics")
        .then(|| MetricsCollector::new().with_gauges(gauges));
    let mut chrome = trace_out
        .as_ref()
        .map(|_| ChromeTraceWriter::with_rule_names(proto.rule_names()));
    let mut jsonl = profile_out.as_ref().map(|_| JsonlEventLog::new());
    // Set for churned runs: the final (mutated) graph, the applied events,
    // and the re-stabilization time after the last event.
    let mut churned: Option<ChurnedOutcome> = None;
    let (run, runtime_note) = match (shards, &churn) {
        (Some(k), Some(sched)) => {
            let out = run_churned_sharded(
                g,
                proto,
                k,
                schedule,
                chaos.as_ref(),
                sched,
                init,
                max_rounds,
                &mut (metrics.as_mut(), (chrome.as_mut(), jsonl.as_mut())),
            )
            .map_err(|e| format!("runtime: {e}"))?;
            let recovery = out.recovery_rounds();
            churned = Some((out.graph, out.events, recovery));
            (out.run, Some(format!("{k} shards")))
        }
        (Some(k), None) => {
            let mut exec = RuntimeExecutor::new(g, proto, k).with_schedule(schedule);
            if let Some(plan) = chaos.clone() {
                exec = exec.with_chaos(plan);
            }
            let cut = exec.partition().cut_edges(g).len();
            let run = exec
                .run_observed(
                    init,
                    max_rounds,
                    &mut (metrics.as_mut(), (chrome.as_mut(), jsonl.as_mut())),
                )
                .map_err(|e| format!("runtime: {e}"))?;
            (run, Some(format!("{k} shards, {cut} cut edges")))
        }
        (None, Some(sched)) => {
            let out = run_churned_serial_observed(
                g,
                proto,
                schedule,
                sched,
                init,
                max_rounds,
                &mut (metrics.as_mut(), (chrome.as_mut(), jsonl.as_mut())),
            )?;
            let recovery = out.recovery_rounds();
            churned = Some((out.graph, out.events, recovery));
            (out.run, None)
        }
        (None, None) => {
            let mut exec = SyncExecutor::new(g, proto)
                .with_cycle_detection()
                .with_schedule(schedule);
            if let Some(c) = crash_at.clone() {
                exec = exec.with_crash(c);
            }
            (
                exec.run_observed(
                    init,
                    max_rounds,
                    &mut (metrics.as_mut(), (chrome.as_mut(), jsonl.as_mut())),
                ),
                None,
            )
        }
    };
    if let (Some(path), Some(writer)) = (&trace_out, &chrome) {
        writer
            .write_to(path)
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
    }
    if let (Some(path), Some(log)) = (&profile_out, jsonl.as_mut()) {
        // The meta line is what lets `analyze` pick the right bound checks
        // (Theorem 1 and the |M| monotonicity only hold fault-free).
        log.push_meta([
            ("protocol".to_string(), protocol_name.to_json()),
            ("topology".to_string(), topology_name.to_json()),
            ("n".to_string(), n.to_json()),
            ("m".to_string(), g.m().to_json()),
            ("shards".to_string(), shards.unwrap_or(1).to_json()),
            ("seed".to_string(), seed.to_json()),
            ("max_rounds".to_string(), max_rounds.to_json()),
            (
                "rules".to_string(),
                Json::Array(proto.rule_names().iter().map(|r| r.to_json()).collect()),
            ),
            (
                "faults".to_string(),
                (chaos.is_some() || crash_at.is_some() || churn.is_some()).to_json(),
            ),
        ]);
        log.write_to(path)
            .map_err(|e| format!("--profile-out {path}: {e}"))?;
    }
    let outcome = match run.outcome {
        Outcome::Stabilized => "stabilized".to_string(),
        Outcome::Cycle { period, .. } => format!("oscillates (period {period})"),
        Outcome::RoundLimit => "round limit hit".to_string(),
    };
    // Legitimacy of the final states is a property of the topology they
    // ended on: for churned runs that is the mutated graph.
    let final_graph: &Graph = churned.as_ref().map(|(fg, _, _)| fg).unwrap_or(g);
    let legitimate = run.stabilized() && proto.is_legitimate(final_graph, &run.final_states);
    let chaos_note = chaos
        .as_ref()
        .map(|plan| {
            let mut parts: Vec<String> = Vec::new();
            if let Some(spec) = args.get("chaos") {
                parts.push(spec.to_string());
            }
            if !plan.crashes.is_empty() {
                parts.push(format!(
                    "crash {}",
                    plan.crashes
                        .iter()
                        .map(|c| format!("{}@{}", c.shard, c.round))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            parts.join(", ")
        })
        .or_else(|| {
            crash_at.as_ref().map(|c| {
                format!(
                    "crash-at round {}: re-randomized {:.0}% of nodes",
                    c.round,
                    c.frac * 100.0
                )
            })
        });
    let churn_note = churned
        .as_ref()
        .zip(churn.as_ref())
        .map(|((fg, events, recovery), sched)| {
            let mut s = format!(
                "{} link events over {} epoch(s), every {} rounds; final m={}",
                events.len(),
                sched.epochs,
                sched.every,
                fg.m()
            );
            if let Some(r) = recovery {
                s.push_str(&format!("; re-stabilized {r} rounds after last event"));
            }
            s
        });
    let fault_recovery = metrics.as_ref().and_then(|m| m.recovery_rounds());
    // Byzantine containment: with compromised nodes in the plan, judge the
    // final states on the *honest* subgraph and report how far from the
    // compromised set the damage reaches (see graph::predicates).
    let containment = chaos.as_ref().filter(|p| !p.byz.is_empty()).and_then(|p| {
        let mut mask = vec![false; final_graph.n()];
        for b in &p.byz {
            if b.index() < mask.len() {
                mask[b.index()] = true;
            }
        }
        proto.containment(final_graph, &run.final_states, &mask)
    });
    match args.str_or("format", "text") {
        "text" => {
            let mut out = format!(
                "protocol {protocol_name} on {topology_name} (n={n}, m={})\n\
                 outcome:   {outcome} after {} rounds (bound-style budget {max_rounds})\n\
                 legitimate: {legitimate}\n\
                 {}\n\
                 moves: {}",
                g.m(),
                run.rounds(),
                summarize(final_graph, &run.final_states),
                proto
                    .rule_names()
                    .iter()
                    .zip(&run.moves_per_rule)
                    .map(|(name, k)| format!("{name}={k}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            if let Some(note) = &runtime_note {
                out.push_str(&format!("\nruntime: {note}"));
            }
            if let Some(p) = &profile_out {
                out.push_str(&format!("\nprofile: {p}"));
            }
            if let Some(c) = &chaos_note {
                out.push_str(&format!("\nchaos: {c}"));
            }
            if let Some(c) = &churn_note {
                out.push_str(&format!("\nchurn: {c}"));
            }
            if let Some(r) = fault_recovery {
                out.push_str(&format!(
                    "\nrecovery: stabilized {r} rounds after the last injected fault"
                ));
            }
            if let Some(c) = &containment {
                let radius = if c.radius == usize::MAX {
                    "unbounded".to_string()
                } else {
                    c.radius.to_string()
                };
                out.push_str(&format!(
                    "\ncontainment: honest core legitimate: {}; perturbed honest nodes: {}; radius: {radius}",
                    c.honest_legitimate(),
                    c.perturbed.len(),
                ));
            }
            if let Some(m) = &metrics {
                out.push_str("\n\nper-round convergence metrics\n");
                out.push_str(&m.render_table());
            }
            Ok(out)
        }
        "json" => {
            let churn_json = churned.as_ref().map(|(fg, events, recovery)| {
                let mut fields = vec![
                    (
                        "events".to_string(),
                        Json::Array(
                            events
                                .iter()
                                .map(|(round, ev)| {
                                    let e = ev.edge();
                                    let kind = if matches!(ev, TopologyEvent::LinkUp { .. }) {
                                        "up"
                                    } else {
                                        "down"
                                    };
                                    Json::Object(vec![
                                        ("round".to_string(), round.to_json()),
                                        ("kind".to_string(), kind.to_json()),
                                        ("a".to_string(), e.a.index().to_json()),
                                        ("b".to_string(), e.b.index().to_json()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("final_m".to_string(), fg.m().to_json()),
                ];
                if let Some(r) = recovery {
                    fields.push(("recovery_rounds".to_string(), r.to_json()));
                }
                Json::Object(fields)
            });
            let report = RunReport {
                protocol: protocol_name.into(),
                topology: topology_name.into(),
                n,
                m: g.m(),
                rounds: run.rounds(),
                outcome,
                moves_per_rule: proto
                    .rule_names()
                    .iter()
                    .map(|s| s.to_string())
                    .zip(run.moves_per_rule.iter().copied())
                    .collect(),
                legitimate,
                result_summary: summarize(final_graph, &run.final_states),
                states: run.final_states.iter().map(&render_state).collect(),
                metrics: metrics.as_ref().map(MetricsCollector::to_json),
                shards,
                chaos: chaos_note,
                churn: churn_json,
                containment: containment.as_ref().map(|c| {
                    Json::Object(vec![
                        (
                            "honest_core_legitimate".to_string(),
                            c.honest_legitimate().to_json(),
                        ),
                        (
                            "perturbed_honest".to_string(),
                            Json::Array(c.perturbed.iter().map(|v| v.index().to_json()).collect()),
                        ),
                        (
                            "radius".to_string(),
                            if c.radius == usize::MAX {
                                Json::Null
                            } else {
                                c.radius.to_json()
                            },
                        ),
                    ])
                }),
            };
            Ok(report.to_json().to_string_pretty())
        }
        "dot" => {
            let (edges, nodes) = highlight(final_graph, &run.final_states);
            Ok(dot::to_dot(final_graph, None, &edges, &nodes))
        }
        other => Err(format!("unknown format '{other}'")),
    }
}

/// `selfstab run …`
pub fn run(args: &Args) -> Result<String, String> {
    let protocol = args.required("protocol")?.to_string();
    let seed: u64 = args.parse_or("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc11);
    let (g, topology) = if let Some(g6) = args.get("graph6") {
        let g = selfstab_graph::graph6::parse(g6).map_err(|e| format!("--graph6: {e}"))?;
        (g, "graph6 input".to_string())
    } else {
        let topology = args.required("topology")?.to_string();
        let n: usize = args.parse_or("n", 16)?;
        (build_topology(&topology, n, &mut rng)?, topology)
    };
    let ids = build_ids(args.str_or("ids", "identity"), g.n(), &mut rng)?;
    match protocol.as_str() {
        "smm" => {
            let proto = Smm::with_policies(ids, SelectPolicy::MinId, parse_propose_policy(args)?);
            execute(
                &proto,
                &g,
                args,
                "SMM",
                &topology,
                selfstab_core::smm::types::census_gauges(&g),
                |g, s| {
                    let m = Smm::matched_edges(g, s);
                    format!("maximal matching with {} edges: {m:?}", m.len())
                },
                |s| format!("{s:?}"),
                |g, s| (Smm::matched_edges(g, s), Smm::matched_nodes(g, s)),
            )
        }
        "smi" => {
            let proto = Smi::new(ids);
            execute(
                &proto,
                &g,
                args,
                "SMI",
                &topology,
                vec![(
                    "set_size".to_string(),
                    Box::new(|s: &[bool]| s.iter().filter(|&&x| x).count() as u64) as Gauge<bool>,
                )],
                |_, s| {
                    let members = Smi::members(s);
                    format!(
                        "maximal independent set with {} members: {members:?}",
                        members.len()
                    )
                },
                |s| if *s { "1".into() } else { "0".into() },
                |_, s| (Vec::new(), s.to_vec()),
            )
        }
        "coloring" => {
            let proto = Coloring::new(ids);
            execute(
                &proto,
                &g,
                args,
                "SC",
                &topology,
                vec![(
                    "palette_size".to_string(),
                    Box::new(|s: &[u32]| Coloring::palette_size(s) as u64) as Gauge<u32>,
                )],
                |_, s| {
                    format!(
                        "proper coloring with {} colors: {s:?}",
                        Coloring::palette_size(s)
                    )
                },
                |s| s.to_string(),
                |_, s| (Vec::new(), s.iter().map(|&c| c == 0).collect()),
            )
        }
        other => Err(format!("unknown protocol '{other}'")),
    }
}

/// `selfstab sim …`
pub fn sim(args: &Args) -> Result<String, String> {
    let protocol = args.required("protocol")?.to_string();
    let topology_name = args.required("topology")?.to_string();
    let n: usize = args.parse_or("n", 16)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let jitter: f64 = args.parse_or("jitter", 0.05)?;
    let loss: f64 = args.parse_or("loss", 0.0)?;
    let mobility: f64 = args.parse_or("mobility", 0.0)?;
    let seconds: u64 = args.parse_or("seconds", 60)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51b);

    let mut config = BeaconConfig {
        seed,
        sample_legitimacy: true,
        ..BeaconConfig::default()
    }
    .with_jitter(jitter);
    if loss > 0.0 {
        config = config.with_loss(loss);
    }
    // Same spec grammar and fate hashing as `run --chaos`, applied per
    // beacon period. Byzantine rewrites need the round-synchronous
    // executors (`run --shards`) and are rejected here.
    let chaos = match args.get("chaos") {
        Some(s) => {
            let plan = FaultPlan::parse_spec(s, seed ^ 0xfa17)
                .map_err(|e| format!("flag --chaos: {e}"))?;
            if !plan.byz.is_empty() {
                return Err(
                    "flag --chaos: byz= needs round-synchronous state rewrites; \
                     use `run --shards N --chaos byz=…` instead of `sim`"
                        .into(),
                );
            }
            Some(plan)
        }
        None => None,
    };
    let (topology, static_graph) = if mobility > 0.0 {
        let model = selfstab_adhoc::mobility::RandomWaypoint::new(
            n,
            selfstab_adhoc::geometry::Region::unit(),
            0.45,
            mobility,
            seed,
        );
        (
            Topology::Mobile {
                model,
                tick: config.beacon_interval,
            },
            None,
        )
    } else {
        let g = build_topology(&topology_name, n, &mut rng)?;
        (Topology::Static(g.clone()), Some(g))
    };
    let ids = build_ids(args.str_or("ids", "identity"), n, &mut rng)?;
    let horizon = seconds * 1_000_000;
    let quiet = if mobility > 0.0 {
        u64::MAX / 1_000_000
    } else {
        10
    };

    fn report_text<S>(label: &str, r: &selfstab_adhoc::SimReport<S>, legitimate: bool) -> String {
        format!(
            "beacon simulation of {label}\n\
             quiesced: {} (stabilization ≈ {:.1} beacon periods)\n\
             beacons {}  deliveries {}  losses {}  evaluations {}\n\
             predicate held in {:.1}% of sampled periods; final state legitimate: {}",
            r.quiesced,
            r.stabilization_periods,
            r.beacons_sent,
            r.deliveries,
            r.losses,
            r.evaluations,
            100.0 * r.legitimacy_fraction(),
            legitimate
        )
    }

    let want_metrics = args.bool_flag("metrics");
    macro_rules! simulate {
        ($proto:expr, $label:expr) => {{
            let proto = $proto;
            let mut sim = BeaconSim::new(&proto, topology, InitialState::Default, config);
            if let Some(plan) = chaos {
                sim = sim.with_chaos(plan);
            }
            let mut metrics = want_metrics.then(MetricsCollector::new);
            let r = sim.run_observed(quiet, horizon, &mut metrics.as_mut());
            let check_graph = static_graph.unwrap_or_else(|| r.final_graph.clone());
            let legit = proto.is_legitimate(&check_graph, &r.final_states);
            let mut out = report_text($label, &r, legit);
            if let Some(m) = &metrics {
                out.push_str("\n\nper-period beacon telemetry\n");
                out.push_str(&m.render_table());
            }
            Ok(out)
        }};
    }
    match protocol.as_str() {
        "smm" => simulate!(Smm::paper(ids), "SMM"),
        "smi" => simulate!(Smi::new(ids), "SMI"),
        "coloring" => simulate!(Coloring::new(ids), "SC (coloring)"),
        other => Err(format!("unknown protocol '{other}'")),
    }
}

/// `selfstab topology …`: inspect a generated topology.
pub fn topology(args: &Args) -> Result<String, String> {
    let name = args.required("topology")?.to_string();
    let n: usize = args.parse_or("n", 16)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x109);
    let g = build_topology(&name, n, &mut rng)?;
    match args.str_or("format", "text") {
        "text" => {
            let degrees = selfstab_analysis::Histogram::of(g.nodes().map(|v| g.degree(v)));
            Ok(format!(
                "topology {name}: n={}, m={}, max degree {}, diameter {:?}\ndegree histogram: {}\ngraph6: {}",
                g.n(),
                g.m(),
                g.max_degree(),
                selfstab_graph::traversal::diameter(&g),
                degrees.render(),
                selfstab_graph::graph6::to_graph6(&g)
            ))
        }
        "graph6" => Ok(selfstab_graph::graph6::to_graph6(&g)),
        "dot" => Ok(dot::to_dot(&g, None, &[], &[])),
        other => Err(format!("unknown format '{other}'")),
    }
}

/// `selfstab verify …`
pub fn verify(args: &Args) -> Result<String, String> {
    let protocol = args.required("protocol")?.to_string();
    let max_n: usize = args.parse_or("max-n", 4)?;
    if max_n > 5 {
        return Err("--max-n above 5 is impractical (state-space explosion)".into());
    }
    let mut out = String::new();
    for n in 2..=max_n {
        let mut graphs = 0u64;
        let mut states = 0u64;
        let mut max_rounds = 0usize;
        for g in all_connected_graphs(n) {
            graphs += 1;
            let (ok, rounds, checked) = match protocol.as_str() {
                "smm" => {
                    let p = Smm::paper(Ids::identity(n));
                    let r = verify_all_initial_states(&g, &p, n + 1, |_, _| true);
                    (r.all_ok(), r.max_rounds, r.states_checked)
                }
                "smi" => {
                    let p = Smi::new(Ids::identity(n));
                    let r = verify_all_initial_states(&g, &p, n + 2, |_, _| true);
                    (r.all_ok(), r.max_rounds, r.states_checked)
                }
                "coloring" => {
                    let p = Coloring::new(Ids::identity(n));
                    let r = verify_all_initial_states(&g, &p, n + 2, |_, _| true);
                    (r.all_ok(), r.max_rounds, r.states_checked)
                }
                other => return Err(format!("unknown protocol '{other}'")),
            };
            if !ok {
                return Err(format!("verification FAILED on a graph with n={n}"));
            }
            states += checked;
            max_rounds = max_rounds.max(rounds);
        }
        out.push_str(&format!(
            "n={n}: {graphs} connected graphs, {states} initial states, max rounds {max_rounds} — all stabilized legitimately\n"
        ));
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn run_smm_text() {
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "16",
        ]))
        .unwrap();
        assert!(out.contains("stabilized"));
        assert!(out.contains("legitimate: true"));
        assert!(out.contains("maximal matching"));
    }

    #[test]
    fn run_smi_json() {
        let out = run(&args(&[
            "--protocol",
            "smi",
            "--topology",
            "cycle",
            "--n",
            "9",
            "--format",
            "json",
        ]))
        .unwrap();
        let v = Json::parse(&out).unwrap();
        assert_eq!(v.get("protocol").and_then(Json::as_str), Some("SMI"));
        assert_eq!(v.get("legitimate").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("states").and_then(Json::as_array).unwrap().len(), 9);
    }

    #[test]
    fn run_coloring_dot_and_defaults() {
        let out = run(&args(&[
            "--protocol",
            "coloring",
            "--topology",
            "petersen",
            "--n",
            "10",
            "--format",
            "dot",
        ]))
        .unwrap();
        assert!(out.starts_with("graph selfstab"));
        let out = run(&args(&[
            "--protocol",
            "coloring",
            "--topology",
            "path",
            "--n",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("proper coloring"));
    }

    #[test]
    fn run_sharded_matches_serial_output() {
        let base = &[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "25",
            "--format",
            "json",
        ];
        let serial = Json::parse(&run(&args(base)).unwrap()).unwrap();
        let mut sharded_args = base.to_vec();
        sharded_args.extend_from_slice(&["--shards", "4"]);
        let sharded = Json::parse(&run(&args(&sharded_args)).unwrap()).unwrap();
        assert_eq!(sharded.get("shards").and_then(Json::as_u64), Some(4));
        assert!(serial.get("shards").is_none());
        for field in [
            "rounds",
            "outcome",
            "legitimate",
            "result_summary",
            "states",
        ] {
            assert_eq!(
                serial.get(field).map(Json::to_string),
                sharded.get(field).map(Json::to_string),
                "field {field} must match"
            );
        }
    }

    #[test]
    fn run_sharded_text_reports_runtime_and_metrics_wire_columns() {
        let out = run(&args(&[
            "--protocol",
            "smi",
            "--topology",
            "cycle",
            "--n",
            "12",
            "--shards",
            "3",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("runtime: 3 shards, "), "{out}");
        assert!(out.contains("cut edges"), "{out}");
        assert!(
            out.contains("| frames | suppressed | wire bytes | max chan depth |"),
            "{out}"
        );
    }

    #[test]
    fn run_schedule_flag_is_equivalent_and_validated() {
        let base = &[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "25",
            "--format",
            "json",
        ];
        let active = Json::parse(&run(&args(base)).unwrap()).unwrap();
        let mut full_args = base.to_vec();
        full_args.extend_from_slice(&["--schedule", "full"]);
        let full = Json::parse(&run(&args(&full_args)).unwrap()).unwrap();
        for field in ["rounds", "outcome", "moves_per_rule", "states"] {
            assert_eq!(
                active.get(field).map(Json::to_string),
                full.get(field).map(Json::to_string),
                "field {field} must not depend on the schedule"
            );
        }
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "4",
            "--schedule",
            "lazy",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown schedule 'lazy'"), "{err}");
    }

    #[test]
    fn run_validates_shard_flags() {
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--shards",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--shards must be at least 1"), "{err}");
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--shards",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn run_propose_policy_selects_counterexample() {
        // The paper's min-id R2 stabilizes C4 within n+1 rounds; the
        // clockwise ablation oscillates (cycle detected serially, round
        // limit on the sharded runtime).
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "4",
            "--init",
            "default",
            "--max-rounds",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("stabilized"), "{out}");
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "4",
            "--init",
            "default",
            "--propose",
            "clockwise",
            "--max-rounds",
            "12",
        ]))
        .unwrap();
        assert!(out.contains("oscillates"), "{out}");
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "4",
            "--init",
            "default",
            "--propose",
            "clockwise",
            "--max-rounds",
            "12",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("round limit hit"), "{out}");
        assert!(run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "4",
            "--propose",
            "xyz",
        ]))
        .is_err());
    }

    #[test]
    fn run_chaos_flags_require_shards_and_validate() {
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--chaos",
            "drop=0.1",
        ]))
        .unwrap_err();
        assert!(err.contains("require --shards"), "{err}");
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--shards",
            "2",
            "--chaos",
            "drop=x",
        ]))
        .unwrap_err();
        assert!(err.contains("--chaos"), "{err}");
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--shards",
            "2",
            "--crash-shard",
            "1-5",
        ]))
        .unwrap_err();
        assert!(err.contains("--crash-shard"), "{err}");
        // Probabilities summing past 1 are rejected when parsing the spec;
        // out-of-range crash shards by the runtime up front.
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--shards",
            "2",
            "--chaos",
            "drop=0.7,corrupt=0.5",
        ]))
        .unwrap_err();
        assert!(err.contains("sum to"), "{err}");
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--shards",
            "2",
            "--crash-shard",
            "5@3",
        ]))
        .unwrap_err();
        assert!(err.contains("runtime"), "{err}");
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--churn-events",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("requires --churn-every"), "{err}");
        let err = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--churn-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--churn-every"), "{err}");
    }

    #[test]
    fn run_chaos_is_deterministic_and_reported() {
        let base = [
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "36",
            "--shards",
            "4",
            "--chaos",
            "drop=0.2,dup=0.05,delay=1",
            "--seed",
            "7",
            "--format",
            "json",
        ];
        let a = run(&args(&base)).unwrap();
        let b = run(&args(&base)).unwrap();
        assert_eq!(a, b, "seeded chaos runs must be bit-identical");
        let v = Json::parse(&a).unwrap();
        assert_eq!(
            v.get("chaos").and_then(Json::as_str),
            Some("drop=0.2,dup=0.05,delay=1")
        );
        assert_eq!(v.get("legitimate").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn run_crash_shard_restarts_and_recovers() {
        let out = run(&args(&[
            "--protocol",
            "smi",
            "--topology",
            "grid",
            "--n",
            "25",
            "--shards",
            "3",
            "--crash-shard",
            "1@3",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("chaos: crash 1@3"), "{out}");
        assert!(out.contains("legitimate: true"), "{out}");
        assert!(out.contains("restarts |"), "{out}");
        assert!(out.contains("recovery: stabilized"), "{out}");
    }

    #[test]
    fn run_churn_serial_and_sharded_agree() {
        let base = [
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "24",
            "--churn-every",
            "4",
            "--churn-events",
            "2",
            "--churn-epochs",
            "2",
            "--seed",
            "3",
            "--format",
            "json",
        ];
        let serial = Json::parse(&run(&args(&base)).unwrap()).unwrap();
        let mut sharded_args = base.to_vec();
        sharded_args.extend_from_slice(&["--shards", "3"]);
        let sharded = Json::parse(&run(&args(&sharded_args)).unwrap()).unwrap();
        for field in ["rounds", "outcome", "legitimate", "states", "churn"] {
            assert_eq!(
                serial.get(field).map(Json::to_string),
                sharded.get(field).map(Json::to_string),
                "field {field} must match between serial and sharded churn"
            );
        }
        let events = serial
            .get("churn")
            .and_then(|c| c.get("events"))
            .and_then(Json::as_array)
            .unwrap();
        assert!(!events.is_empty(), "churn fired at least one event");
        assert_eq!(
            serial.get("legitimate").and_then(Json::as_bool),
            Some(true),
            "legitimate on the final mutated topology"
        );
        // Text format carries the churn note.
        let text_args = base[..base.len() - 2].to_vec();
        let out = run(&args(&text_args)).unwrap();
        assert!(out.contains("churn: "), "{out}");
        assert!(out.contains("final m="), "{out}");
    }

    #[test]
    fn run_rejects_unknowns() {
        assert!(run(&args(&["--protocol", "xyz", "--topology", "path"])).is_err());
        assert!(run(&args(&["--protocol", "smm", "--topology", "xyz"])).is_err());
        assert!(run(&args(&["--topology", "path"])).is_err());
        assert!(run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--format",
            "xyz"
        ]))
        .is_err());
        assert!(run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--init",
            "xyz"
        ]))
        .is_err());
        assert!(run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--ids",
            "xyz"
        ]))
        .is_err());
    }

    #[test]
    fn run_smm_metrics_prints_census_table() {
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "8",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("per-round convergence metrics"), "{out}");
        assert!(
            out.contains("| round | privileged | evaluated | moves | M | A0 | A1 | PA | PM | PP | DANGLING | matched_pairs |"),
            "{out}"
        );
        assert!(out.contains("| 0 (init) |"), "{out}");
    }

    #[test]
    fn run_trace_out_emits_loadable_chrome_trace() {
        let path = std::env::temp_dir().join("selfstab_cli_trace_test.json");
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "4",
            "--trace-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("stabilized"));
        let text = std::fs::read_to_string(&path).unwrap();
        let v = Json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.get("ph").is_some()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_json_metrics_field() {
        let out = run(&args(&[
            "--protocol",
            "smi",
            "--topology",
            "cycle",
            "--n",
            "9",
            "--format",
            "json",
            "--metrics",
        ]))
        .unwrap();
        let v = Json::parse(&out).unwrap();
        let metrics = v.get("metrics").expect("metrics field present");
        assert_eq!(
            metrics.get("outcome").and_then(Json::as_str),
            Some("stabilized")
        );
        assert!(!metrics
            .get("rounds")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        // Without the flag the field is absent.
        let out = run(&args(&[
            "--protocol",
            "smi",
            "--topology",
            "cycle",
            "--n",
            "9",
            "--format",
            "json",
        ]))
        .unwrap();
        assert!(Json::parse(&out).unwrap().get("metrics").is_none());
    }

    #[test]
    fn sim_metrics_prints_beacon_telemetry() {
        let out = sim(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "path",
            "--n",
            "6",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("per-period beacon telemetry"), "{out}");
        assert!(
            out.contains("| deliveries | losses | stale views |"),
            "{out}"
        );
    }

    #[test]
    fn sim_static_and_lossy() {
        let out = sim(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "16",
            "--loss",
            "0.1",
        ]))
        .unwrap();
        assert!(out.contains("quiesced: true"));
        assert!(out.contains("legitimate: true"));
    }

    #[test]
    fn sim_chaos_spec_drives_beacon_losses() {
        let out = sim(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "16",
            "--seed",
            "9",
            "--chaos",
            "drop=0.15,asym=0.1",
        ]))
        .unwrap();
        assert!(out.contains("quiesced: true"), "{out}");
        assert!(out.contains("legitimate: true"), "{out}");
        let losses: u64 = out
            .split("losses ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(losses > 0, "fate hashing must drop beacons: {out}");
        let err = sim(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "16",
            "--chaos",
            "byz=3",
        ]))
        .unwrap_err();
        assert!(err.contains("byz="), "{err}");
    }

    #[test]
    fn sim_mobile() {
        let out = sim(&args(&[
            "--protocol",
            "smi",
            "--topology",
            "unit-disk",
            "--n",
            "12",
            "--mobility",
            "0.02",
            "--seconds",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("predicate held"));
    }

    #[test]
    fn verify_small() {
        let out = verify(&args(&["--protocol", "smi", "--max-n", "3"])).unwrap();
        assert!(out.contains("n=3: 4 connected graphs"));
        assert!(verify(&args(&["--protocol", "smm", "--max-n", "9"])).is_err());
    }

    #[test]
    fn cli_dispatch() {
        let mut buf = Vec::new();
        let code = crate::main_with(&["help".to_string()], &mut buf);
        assert_eq!(code, 0);
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
        let mut buf = Vec::new();
        let code = crate::main_with(&["bogus".to_string()], &mut buf);
        assert_eq!(code, 2);
        // `bench` is not a subcommand: wall-clock benchmarking lives in the
        // repository's separate `benchmark/` package.
        let mut buf = Vec::new();
        let code = crate::main_with(&["bench".to_string(), "--quick".to_string()], &mut buf);
        assert_eq!(code, 2);
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("unknown command 'bench'"));
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn topology_text_and_graph6() {
        let out = topology(&args(&["--topology", "cycle", "--n", "5"])).unwrap();
        assert!(out.contains("n=5, m=5"));
        assert!(out.contains("degree histogram: 2:5"));
        let g6 = topology(&args(&[
            "--topology",
            "cycle",
            "--n",
            "5",
            "--format",
            "graph6",
        ]))
        .unwrap();
        let parsed = selfstab_graph::graph6::parse(&g6).unwrap();
        assert_eq!(parsed.n(), 5);
        assert_eq!(parsed.m(), 5);
    }

    #[test]
    fn topology_dot_and_errors() {
        let out = topology(&args(&[
            "--topology",
            "star",
            "--n",
            "4",
            "--format",
            "dot",
        ]))
        .unwrap();
        assert!(out.starts_with("graph selfstab"));
        assert!(topology(&args(&["--topology", "nope", "--n", "4"])).is_err());
        assert!(topology(&args(&[
            "--topology",
            "star",
            "--n",
            "4",
            "--format",
            "nope"
        ]))
        .is_err());
    }
}

#[cfg(test)]
mod profile_and_crash_tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn profile_artifact_roundtrips_through_analyze() {
        let profile =
            std::env::temp_dir().join(format!("selfstab-cli-profile-{}.jsonl", std::process::id()));
        let path = profile.to_str().unwrap();
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "16",
            "--shards",
            "2",
            "--profile-out",
            path,
        ]))
        .unwrap();
        assert!(out.contains(&format!("profile: {path}")), "{out}");
        let mut buf = Vec::new();
        let code = crate::main_with(&["analyze".to_string(), path.to_string()], &mut buf);
        let report = String::from_utf8(buf).unwrap();
        std::fs::remove_file(&profile).ok();
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("straggler shard:"), "{report}");
        assert!(report.contains("PASS rounds"), "{report}");
        assert!(report.contains("PASS |M| monotone"), "{report}");
        assert!(report.contains("Manne"), "{report}");
    }

    #[test]
    fn analyze_exits_nonzero_on_unreadable_artifact() {
        let mut buf = Vec::new();
        let code = crate::main_with(
            &["analyze".to_string(), "/nonexistent/artifact.jsonl".into()],
            &mut buf,
        );
        assert_eq!(code, 2);

        // A pretty-printed JSON document (not a JSONL event stream, not a
        // service artifact) is unreadable input too, not a report.
        let doc = std::env::temp_dir().join(format!(
            "selfstab-cli-not-jsonl-{}.json",
            std::process::id()
        ));
        std::fs::write(&doc, "{\n  \"records\": []\n}\n").unwrap();
        let mut buf = Vec::new();
        let code = crate::main_with(
            &["analyze".to_string(), doc.to_str().unwrap().to_string()],
            &mut buf,
        );
        std::fs::remove_file(&doc).ok();
        let out = String::from_utf8(buf).unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("error: "), "{out}");
    }

    #[test]
    fn crash_at_serial_recovers_and_is_reported() {
        let out = run(&args(&[
            "--protocol",
            "smm",
            "--topology",
            "grid",
            "--n",
            "16",
            "--crash-at",
            "3:0.5",
        ]))
        .unwrap();
        assert!(out.contains("crash-at round 3"), "{out}");
        assert!(out.contains("legitimate: true"), "{out}");
    }

    #[test]
    fn crash_at_rejects_sharded_and_churned_runs() {
        let base = ["--protocol", "smm", "--topology", "path", "--n", "8"];
        let mut sharded = base.to_vec();
        sharded.extend_from_slice(&["--crash-at", "1:0.5", "--shards", "2"]);
        assert!(run(&args(&sharded)).unwrap_err().contains("--crash-shard"));
        let mut churned = base.to_vec();
        churned.extend_from_slice(&["--crash-at", "1:0.5", "--churn-every", "5"]);
        assert!(run(&args(&churned)).unwrap_err().contains("--churn-every"));
        let mut bad = base.to_vec();
        bad.extend_from_slice(&["--crash-at", "oops"]);
        assert!(run(&args(&bad)).unwrap_err().contains("--crash-at"));
    }
}

#[cfg(test)]
mod graph6_input_tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn run_on_user_supplied_graph6() {
        // Bw = the triangle K3.
        let out = run(&args(&["--protocol", "smm", "--graph6", "Bw"])).unwrap();
        assert!(out.contains("n=3, m=3"));
        assert!(out.contains("legitimate: true"));
        assert!(out.contains("graph6 input"));
    }

    #[test]
    fn bad_graph6_is_reported() {
        let err = run(&args(&["--protocol", "smm", "--graph6", "\u{1}"])).unwrap_err();
        assert!(err.contains("--graph6"));
    }
}
