//! The live-overlay workloads: the real `selfstab-cli serve --socket`
//! daemon under a seeded request stream.
//!
//! The daemon is told only `--protocol/--topology/--n/--ids/--seed` and then
//! receives request lines. A run starts it four times (set-up is spawn →
//! first reply, which covers its graph build and bootstrap stabilization),
//! drives the second one with an open loop at a fixed rate for the whole
//! window, and checks every reply, the final status, and the final round
//! clock against an in-process replay of the same mutations.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use selfstab_core::{Smi, Smm};
use selfstab_engine::InitialState;
use selfstab_graph::{Graph, Ids};
use selfstab_json::Json;
use selfstab_service::{Mutation, OverlayProtocol, OverlayService, Request, SimClock};

use crate::instance::{self, Stream};
use crate::loadgen::{self, Conn};
use crate::report::{peak_rss_mb, quantile, Report};

/// Open-loop arrival rate, requests per second: high enough that ≥ 1000
/// requests land in a run, low enough that the daemon idles between most
/// of them — so its idle-poll floor is part of what the tail measures.
const RATE: f64 = 100.0;
/// How long a daemon may take to answer its first request.
const START_TIMEOUT: Duration = Duration::from_secs(120);

const STATUS: &str = r#"{"op":"query","what":"status"}"#;

/// Run one daemon workload for `seconds` and report its end-to-end metrics.
pub fn run(
    cli: &Path,
    protocol: &str,
    query_share: f64,
    n: usize,
    seed: u64,
    seconds: f64,
) -> Report {
    let mut report = Report::default();
    if let Err(e) = drive(&mut report, cli, protocol, query_share, n, seed, seconds) {
        report.check(false, || format!("daemon session failed: {e}"));
    }
    report
}

fn drive(
    report: &mut Report,
    cli: &Path,
    protocol: &str,
    query_share: f64,
    n: usize,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let (g0, ids) = instance::unit_disk(n, seed);
    let socket = socket_path()?;
    let mut setups = Vec::new();
    let mut start = |report: &mut Report| -> Result<Daemon, String> {
        let t = Instant::now();
        let mut d = Daemon::start(cli, protocol, n, seed, &socket)?;
        let status = d
            .conn
            .call(STATUS)
            .map_err(|e| format!("first status: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        let m = status.get("m").and_then(Json::as_u64);
        report.check(m == Some(g0.m() as u64), || {
            format!(
                "daemon started with m={m:?}, the mirror graph has m={}",
                g0.m()
            )
        });
        Ok(d)
    };
    // Set-up samples straddle the window, since contention from other
    // tenants of the host comes and goes over seconds: one start before the
    // measured daemon's own, and two after it stops.
    Daemon::stop(start(report)?)?;
    let mut daemon = start(report)?;

    let mut stream = Stream::new(g0.clone(), seed, query_share);
    let mut mutations: Vec<Mutation> = Vec::new();
    let mut index = 0u64;
    let mut source = || {
        index += 1;
        let request = stream.next_request(index);
        if let Request::Mutate { mutation, .. } = &request {
            mutations.push(mutation.clone());
        }
        (index, request.to_json().to_string())
    };
    let open = loadgen::open_loop(
        &mut daemon.conn,
        RATE,
        Duration::from_secs_f64(seconds),
        seed,
        &mut source,
    )
    .map_err(|e| format!("open loop: {e}"))?;
    report.attempted += open.sent;
    report.failed += open.failed;
    eprintln!(
        "loadgen: {} sent, {} failed, backlog max {}, late p99 {:.0}µs",
        open.sent,
        open.failed,
        open.backlog_max,
        quantile(&open.late_us, 0.99)
    );

    let rss = peak_rss_mb(daemon.child.id());
    let status = daemon
        .conn
        .call(STATUS)
        .map_err(|e| format!("final status: {e}"))?;
    Daemon::stop(daemon)?;
    for _ in 0..2 {
        Daemon::stop(start(report)?)?;
    }
    let field = |k: &str| status.get(k).cloned().unwrap_or(Json::Null);
    report.check(field("legitimate").as_bool() == Some(true), || {
        format!("final status not legitimate: {status}")
    });
    report.check(field("converged").as_bool() == Some(true), || {
        format!("final status not converged: {status}")
    });
    let mirror_m = stream.mirror().m() as u64;
    report.check(field("m").as_u64() == Some(mirror_m), || {
        format!(
            "daemon ended with m={:?}, the mirror graph has m={mirror_m}",
            field("m")
        )
    });
    let replayed = replay_clock(protocol, ids, g0, &mutations);
    report.check(
        field("clock_rounds").as_u64() == Some(replayed as u64),
        || {
            format!(
                "daemon clock_rounds={:?}, in-process replay {replayed}",
                field("clock_rounds")
            )
        },
    );

    let latency_ms: Vec<f64> = open.samples.iter().map(|&(_, us)| us / 1e3).collect();
    report.end_to_end(&setups, &latency_ms, rss);
    Ok(())
}

/// The round clock an in-process service reaches after bootstrapping the
/// same instance and applying `mutations` in order.
fn replay_clock(protocol: &str, ids: Ids, g: Graph, mutations: &[Mutation]) -> usize {
    fn go<P: OverlayProtocol>(proto: &P, g: Graph, mutations: &[Mutation]) -> usize {
        let clock = SimClock::new();
        let mut svc = OverlayService::new(g, proto, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        for m in mutations {
            svc.enqueue(m.clone());
            svc.drain(&clock, &mut ());
        }
        svc.clock_rounds()
    }
    match protocol {
        "smi" => go(&Smi::new(ids), g, mutations),
        _ => go(&Smm::paper(ids), g, mutations),
    }
}

/// A socket path inside the checkout, short enough for `sun_path`.
fn socket_path() -> Result<PathBuf, String> {
    let dir = Path::new(".bench_build");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("daemon-{}.sock", std::process::id())))
}

/// A running daemon and the benchmark's one connection to it.
struct Daemon {
    child: Child,
    conn: Conn,
}

impl Daemon {
    fn start(
        cli: &Path,
        protocol: &str,
        n: usize,
        seed: u64,
        socket: &Path,
    ) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .args([
                "serve",
                "--protocol",
                protocol,
                "--topology",
                "unit-disk",
                "--ids",
                "random",
            ])
            .args(["--n", &n.to_string(), "--seed", &seed.to_string()])
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(conn) = Conn::connect(socket) {
                return Ok(Daemon { child, conn });
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Ask the daemon to shut down and wait for it to exit cleanly.
    fn stop(mut self) -> Result<(), String> {
        let reply = self.conn.call(r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && reply.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("daemon shutdown: {status}, reply {reply:?}"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on error paths (or after a clean exit, where both
        // calls are no-ops): never leave a daemon running.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
