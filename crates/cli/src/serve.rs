//! The `serve` and `client` subcommands: the resident overlay-maintenance
//! daemon and a scripted line client for it.
//!
//! `serve` builds a topology, stabilizes the chosen protocol on it, and
//! then runs the service loop against one of two backends: `--script FILE`
//! replays a mutation/query script through the deterministic sim
//! environment (virtual clock, captured replies — the CI backend), while
//! `--socket PATH` listens on a Unix domain socket with the real clock
//! until a client sends `shutdown` or the process gets SIGINT. Both paths
//! run the *same* `selfstab_service::serve` loop body.

use crate::args::Args;
use crate::commands::{build_ids, build_topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::{Smi, Smm};
use selfstab_engine::obs::JsonlEventLog;
use selfstab_engine::protocol::{InitialState, WireState};
use selfstab_graph::Graph;
use selfstab_json::{Json, ToJson};
use selfstab_service::telemetry::{TrackRow, TRACK_FORMAT};
use selfstab_service::{
    serve_with as serve_loop, OverlayProtocol, OverlayService, ScrapeServer, ServeHooks,
    ServeSummary, ShutdownFlag, SimClock, SimTransport, Snapshot, SnapshotCadence,
    SnapshotScheduler, Telemetry,
};
use std::sync::Arc;

/// `selfstab serve`: run the resident service against a scripted sim
/// session or a Unix-socket listener.
pub fn serve(args: &Args) -> Result<String, String> {
    let protocol = args.required("protocol")?;
    let n: usize = args.parse_or("n", 16)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // --resume replaces the generated topology and initial state with a
    // snapshot document; the protocol on the command line must match the
    // one that wrote it.
    let resume = match args.get("resume") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--resume {path}: {e}"))?;
            let snap = Snapshot::parse(&text).map_err(|e| format!("--resume {path}: {e}"))?;
            if snap.protocol != protocol {
                return Err(format!(
                    "--resume snapshot was written by protocol '{}', not '{protocol}'",
                    snap.protocol
                ));
            }
            Some(snap)
        }
        None => None,
    };
    let g = match &resume {
        Some(snap) => snap.graph(),
        None => build_topology(args.str_or("topology", "path"), n, &mut rng)?,
    };
    let n = g.n();
    let ids = build_ids(args.str_or("ids", "identity"), n, &mut rng)?;
    match protocol {
        "smm" => serve_with(&Smm::paper(ids), g, args, seed, resume),
        "smi" => serve_with(&Smi::new(ids), g, args, seed, resume),
        other => Err(format!(
            "unknown protocol '{other}' (serve supports smm|smi)"
        )),
    }
}

fn serve_with<P>(
    proto: &P,
    g: Graph,
    args: &Args,
    seed: u64,
    resume: Option<Snapshot>,
) -> Result<String, String>
where
    P: OverlayProtocol,
    P::State: WireState + ToJson,
{
    let init = match &resume {
        Some(snap) => InitialState::Explicit(
            snap.decode_states::<P::State>()
                .map_err(|e| format!("--resume: {e}"))?,
        ),
        None => match args.str_or("init", "default") {
            "default" => InitialState::Default,
            "random" => InitialState::Random { seed },
            other => return Err(format!("unknown init '{other}'")),
        },
    };
    let budget: usize = args.parse_or("budget", 0)?;
    let script = args.get("script");
    let socket = args.get("socket");
    let topology = if resume.is_some() {
        "resumed".to_string()
    } else {
        args.str_or("topology", "path").to_string()
    };
    let (n, m) = (g.n(), g.m());

    let mut jsonl = args.get("profile-out").map(|_| JsonlEventLog::new());

    // The registry exists whenever anything consumes it: a scrape listener
    // (--telemetry-addr), or its event track (the --metrics table and the
    // --profile-out artifact). Otherwise the drain path stays unobserved
    // and clock-free.
    let metrics = args.bool_flag("metrics");
    let telemetry = (args.get("telemetry-addr").is_some() || jsonl.is_some() || metrics)
        .then(|| Arc::new(Telemetry::new()));
    let scrape = match args.get("telemetry-addr") {
        Some(addr) => {
            let registry = telemetry.clone().expect("registry exists for scrape");
            let srv = ScrapeServer::bind(addr, registry)
                .map_err(|e| format!("--telemetry-addr {addr}: {e}"))?;
            // To stderr immediately (not the end-of-run report), so a
            // supervisor or CI smoke can start scraping a live daemon.
            eprintln!("telemetry: listening on {}", srv.addr());
            Some(srv)
        }
        None => None,
    };
    let snapshot_every = args.get("snapshot-every");
    let mut scheduler = match snapshot_every {
        Some(spec) => {
            let cadence = SnapshotCadence::parse(spec)?;
            let path = args
                .get("snapshot-out")
                .ok_or("--snapshot-every requires --snapshot-out PATH")?;
            Some(SnapshotScheduler::to_file(cadence, path))
        }
        None => None,
    };

    let mut svc = OverlayService::new(g, proto, init, budget);
    if let Some(registry) = &telemetry {
        svc = svc.with_telemetry(registry.clone());
    }
    if let Some(snap) = &resume {
        svc = svc.with_clock_rounds(snap.clock_rounds);
    }
    let mut report = Vec::new();
    if let Some(snap) = &resume {
        report.push(format!(
            "resume: protocol={} n={} clock_rounds={}",
            snap.protocol, snap.n, snap.clock_rounds
        ));
    }

    let summary = match (script, socket) {
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--script {path}: {e}"))?;
            let clock = SimClock::new();
            let boot = svc.stabilize(&clock, &mut jsonl.as_mut());
            report.push(format!(
                "service: protocol={} topology={topology} n={n} m={m} backend=sim",
                proto.name()
            ));
            report.push(format!(
                "bootstrap: rounds={} moves={}",
                boot.recovery_rounds, boot.moves
            ));
            let mut transport = SimTransport::scripted(text.lines());
            let shutdown = ShutdownFlag::new();
            let summary = serve_loop(
                &mut svc,
                &mut transport,
                &clock,
                &shutdown,
                1_000,
                &mut jsonl.as_mut(),
                ServeHooks {
                    telemetry: telemetry.clone(),
                    snapshots: scheduler.as_mut(),
                },
            );
            report.extend(transport.replies().iter().cloned());
            summary
        }
        (None, Some(path)) => serve_socket(
            &mut svc,
            proto,
            path,
            &mut jsonl,
            &mut report,
            &topology,
            ServeHooks {
                telemetry: telemetry.clone(),
                snapshots: scheduler.as_mut(),
            },
        )?,
        _ => return Err("serve needs exactly one backend: --script FILE or --socket PATH".into()),
    };

    render_outcome(&mut report, &svc, &summary);
    // One read of the track serves both the table and the artifact.
    let (track, dropped) = telemetry
        .as_ref()
        .map(|registry| registry.take_track())
        .unwrap_or_default();
    if metrics {
        render_track(&mut report, &track, dropped);
    }

    if let Some(registry) = &telemetry {
        report.push(format!(
            "telemetry: events={} scrapes={} snapshots={}",
            registry.events_total(),
            registry.scrapes_total(),
            registry.snapshots_total()
        ));
    }
    if let (Some(sched), Some(spec)) = (&scheduler, snapshot_every) {
        report.push(format!(
            "snapshots: written={} every={spec}",
            sched.written()
        ));
    }
    drop(scrape); // stop the scrape listener before the final report

    if let Some(path) = args.get("snapshot-out") {
        let doc = selfstab_service::snapshot::write_snapshot(
            proto.name(),
            svc.graph(),
            svc.states(),
            svc.clock_rounds(),
        );
        std::fs::write(path, doc).map_err(|e| format!("--snapshot-out {path}: {e}"))?;
        report.push(format!("snapshot: {path}"));
    }
    if let (Some(path), Some(log)) = (args.get("profile-out"), jsonl.as_mut()) {
        let mut meta = vec![
            ("mode".to_string(), "service".to_json()),
            ("protocol".to_string(), proto.name().to_json()),
            ("topology".to_string(), topology.to_json()),
            ("n".to_string(), n.to_json()),
            ("m".to_string(), m.to_json()),
            ("seed".to_string(), seed.to_json()),
            (
                "rules".to_string(),
                Json::Array(proto.rule_names().iter().map(|r| r.to_json()).collect()),
            ),
        ];
        if let Some(registry) = &telemetry {
            // The telemetry track rides inside the same artifact: one
            // `service-telemetry` event line per drained event, plus
            // provenance fields in the meta line for `analyze --window`.
            for row in &track {
                if let Json::Object(fields) = row.to_json() {
                    log.push_event("service-telemetry", fields);
                }
            }
            meta.push(("telemetry_format".to_string(), TRACK_FORMAT.to_json()));
            meta.push(("telemetry_dropped".to_string(), dropped.to_json()));
            meta.push((
                "telemetry_clients".to_string(),
                Json::Array(
                    registry
                        .client_requests()
                        .into_iter()
                        .map(|(client, requests)| {
                            Json::obj([
                                ("client", client.to_json()),
                                ("requests", requests.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        log.push_meta(meta);
        log.write_to(path)
            .map_err(|e| format!("--profile-out {path}: {e}"))?;
        report.push(format!("profile: {path}"));
    }
    Ok(report.join("\n"))
}

#[cfg(unix)]
fn serve_socket<P>(
    svc: &mut OverlayService<'_, P>,
    proto: &P,
    path: &str,
    jsonl: &mut Option<JsonlEventLog>,
    report: &mut Vec<String>,
    topology: &str,
    hooks: ServeHooks<'_>,
) -> Result<ServeSummary, String>
where
    P: OverlayProtocol,
    P::State: WireState + ToJson,
{
    use selfstab_service::{RealClock, UdsTransport};
    selfstab_service::signal::install_sigint();
    let clock = RealClock::new();
    let (n, m) = (svc.graph().n(), svc.graph().m());
    let boot = svc.stabilize(&clock, &mut jsonl.as_mut());
    let (boot_rounds, boot_moves) = (boot.recovery_rounds, boot.moves);
    report.push(format!(
        "service: protocol={} topology={topology} n={n} m={m} backend=uds socket={path}",
        proto.name(),
    ));
    report.push(format!(
        "bootstrap: rounds={boot_rounds} moves={boot_moves}"
    ));
    let mut transport = UdsTransport::bind(std::path::Path::new(path))
        .map_err(|e| format!("--socket {path}: {e}"))?;
    let shutdown = ShutdownFlag::new();
    let summary = serve_loop(
        svc,
        &mut transport,
        &clock,
        &shutdown,
        20_000,
        &mut jsonl.as_mut(),
        hooks,
    );
    // shutdown() severs queued and live clients, joins the acceptor and
    // every reader, and removes the socket file.
    transport.shutdown();
    Ok(summary)
}

#[cfg(not(unix))]
fn serve_socket<P>(
    _svc: &mut OverlayService<'_, P>,
    _proto: &P,
    _path: &str,
    _jsonl: &mut Option<JsonlEventLog>,
    _report: &mut Vec<String>,
    _topology: &str,
    _hooks: ServeHooks<'_>,
) -> Result<ServeSummary, String>
where
    P: OverlayProtocol,
    P::State: WireState + ToJson,
{
    Err("--socket requires a Unix platform (use --script)".into())
}

fn render_outcome<P: OverlayProtocol>(
    report: &mut Vec<String>,
    svc: &OverlayService<'_, P>,
    summary: &ServeSummary,
) {
    report.push(format!(
        "session: outcome={} requests={} mutations={} queries={} errors={} drained={}",
        summary.outcome.name(),
        summary.requests,
        summary.mutations,
        summary.queries,
        summary.errors,
        summary.drained
    ));
    let legitimate = svc.proto().is_legitimate(svc.graph(), svc.states());
    report.push(format!(
        "state: clock_rounds={} events={} converged={} legitimate={}",
        svc.clock_rounds(),
        svc.events_applied(),
        svc.is_converged(),
        legitimate
    ));
    let h = svc.recovery_hist();
    report.push(format!(
        "latency: events={} p50={} p99={} max={}",
        h.total(),
        h.quantile(0.5).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
        h.max_value().unwrap_or(0)
    ));
}

/// The `--metrics` table: the telemetry track's newest events, one row
/// each, after the count of older events the track dropped.
fn render_track(report: &mut Vec<String>, track: &[TrackRow], dropped: u64) {
    report.push(format!(
        "per-event recovery: rows={} dropped={dropped}",
        track.len()
    ));
    report.push(format!(
        "  {:>4}  {:<10}  {:>6}  {:>9}  {:>8}  {:>6}  conv",
        "seq", "kind", "round", "perturbed", "recovery", "moves"
    ));
    for TrackRow { event: r, .. } in track {
        report.push(format!(
            "  {:>4}  {:<10}  {:>6}  {:>9}  {:>8}  {:>6}  {}",
            r.seq, r.kind, r.round, r.perturbed, r.recovery_rounds, r.moves, r.converged
        ));
    }
}

/// `selfstab client`: a scripted session against a running `--socket`
/// daemon. Sends each line of `--script FILE` (or the single `--send`
/// line) and prints one reply line per request. With `--scrape HOST:PORT`
/// instead, fetches one Prometheus exposition from a daemon's
/// `--telemetry-addr` listener and prints the body.
pub fn client(args: &Args) -> Result<String, String> {
    if let Some(addr) = args.get("scrape") {
        return selfstab_service::scrape_once(addr)
            .map(|body| body.trim_end().to_string())
            .map_err(|e| format!("--scrape {addr}: {e}"));
    }
    #[cfg(unix)]
    {
        let socket = args.required("socket")?;
        let lines: Vec<String> = match (args.get("script"), args.get("send")) {
            (Some(path), None) => std::fs::read_to_string(path)
                .map_err(|e| format!("--script {path}: {e}"))?
                .lines()
                .map(str::to_string)
                .collect(),
            (None, Some(line)) => vec![line.to_string()],
            _ => return Err("client needs exactly one of --script FILE or --send LINE".into()),
        };
        let mut replies = Vec::new();
        selfstab_service::uds_client_session(std::path::Path::new(socket), &lines, |r| {
            replies.push(r.to_string())
        })
        .map_err(|e| format!("client session on {socket}: {e}"))?;
        Ok(replies.join("\n"))
    }
    #[cfg(not(unix))]
    {
        let _ = args;
        Err("client requires a Unix platform".into())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn metrics_table_and_profile_track_share_one_read_of_the_track() {
        let dir = std::env::temp_dir();
        let tmp = |name: &str| dir.join(format!("selfstab-serve-{}-{name}", std::process::id()));
        let (script, profile) = (tmp("track.jsonl"), tmp("track-profile.jsonl"));
        std::fs::write(
            &script,
            concat!(
                "{\"op\":\"mutate\",\"kind\":\"edge-down\",\"a\":0,\"b\":1}\n",
                "{\"op\":\"mutate\",\"kind\":\"node-leave\",\"v\":3}\n",
                "{\"op\":\"mutate\",\"kind\":\"node-join\",\"v\":3,\"attach\":[2,4]}\n",
                "{\"op\":\"query\",\"what\":\"census\"}\n",
                "{\"op\":\"shutdown\"}\n",
            ),
        )
        .unwrap();
        let argv: Vec<String> = [
            "serve",
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "6",
            "--script",
            script.to_str().unwrap(),
            "--metrics",
            "--profile-out",
            profile.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        let code = crate::main_with(&argv, &mut out);
        let artifact = std::fs::read_to_string(&profile).unwrap_or_default();
        let _ = std::fs::remove_file(&script);
        let _ = std::fs::remove_file(&profile);
        let out = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{out}");

        // Table rows: the lines under the header whose first field is a seq.
        let table: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("per-event recovery:"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .filter(|l| {
                l.split_whitespace()
                    .next()
                    .is_some_and(|seq| seq.parse::<u64>().is_ok())
            })
            .collect();
        let kinds: Vec<&str> = table
            .iter()
            .filter_map(|l| l.split_whitespace().nth(1))
            .collect();
        assert_eq!(kinds, ["edge-down", "node-leave", "node-join"], "{out}");
        let track_lines = artifact
            .lines()
            .filter(|l| l.contains("\"event\":\"service-telemetry\""))
            .count();
        assert_eq!(track_lines, table.len(), "{artifact}");
    }

    #[test]
    fn serve_rejects_flags_it_does_not_read() {
        let script = std::env::temp_dir().join(format!(
            "selfstab-serve-unknown-flag-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&script, "{\"op\":\"shutdown\"}\n").unwrap();
        let argv: Vec<String> = [
            "serve",
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "6",
            "--shards",
            "4",
            "--script",
            script.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        let code = crate::main_with(&argv, &mut out);
        let _ = std::fs::remove_file(&script);
        let out = String::from_utf8(out).unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown flag --shards for serve"), "{out}");
    }
}
