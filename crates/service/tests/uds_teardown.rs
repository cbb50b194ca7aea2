//! Teardown regression tests for the Unix-socket transport.
//!
//! The transport owns three kinds of threads (acceptor, one reader per
//! client) and a socket file; `shutdown()` must end all of them no matter
//! what state a client is in. The pending-connection test pins the
//! historical deadlock: a client whose `Connected` event was accepted but
//! never polled is in neither `writers` nor anything the old shutdown
//! severed, so its reader blocked forever and `join()` hung the daemon.
//! The over-long-line test pins the reader's line cap: a client that never
//! sends a newline loses its own connection and nothing else.

#![cfg(unix)]

use selfstab_core::Smm;
use selfstab_engine::protocol::InitialState;
use selfstab_graph::{generators, Ids};
use selfstab_json::Json;
use selfstab_service::transport::MAX_LINE_BYTES;
use selfstab_service::{
    serve, uds_client_session, OverlayService, RealClock, ServeOutcome, ShutdownFlag, UdsTransport,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn socket_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "selfstab-teardown-{}-{name}.sock",
        std::process::id()
    ));
    p
}

/// Run `shutdown()` on its own thread under a watchdog deadline, so a
/// regression shows up as a test failure instead of a hung test binary.
fn shutdown_under_deadline(mut transport: UdsTransport, deadline: Duration) -> usize {
    let (tx, rx) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        let joined = transport.shutdown();
        tx.send(joined).expect("report joined count");
        // Dropping the transport here re-runs shutdown; idempotence means
        // that is a no-op rather than a second join pass.
        drop(transport);
    });
    let joined = rx
        .recv_timeout(deadline)
        .expect("shutdown() deadlocked: reader threads never joined");
    watchdog.join().expect("watchdog thread");
    joined
}

#[test]
fn shutdown_with_pending_unpolled_connection_terminates() {
    let path = socket_path("pending");
    let transport = UdsTransport::bind(&path).expect("bind socket");

    // Connect a client and never poll the transport: the acceptor queues
    // the `Connected` event and spawns a reader, but the serve loop side
    // never moves the client into `writers`. Pre-fix, shutdown() could not
    // sever this client's stream and joined its reader forever.
    let client = UnixStream::connect(&path).expect("client connects");
    // Give the (10ms-poll) acceptor ample time to accept and spawn the
    // reader; the assertion below confirms it actually did.
    std::thread::sleep(Duration::from_millis(500));

    let start = Instant::now();
    let joined = shutdown_under_deadline(transport, Duration::from_secs(10));
    assert!(
        joined >= 2,
        "expected acceptor + pending client's reader to join, got {joined}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown exceeded the watchdog deadline"
    );
    assert!(!path.exists(), "socket file removed on shutdown");

    // The severed client observes EOF, not a hang.
    let mut reader = BufReader::new(client);
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("read after sever");
    assert_eq!(read, 0, "severed client sees EOF");
}

#[test]
fn churn_session_joins_every_reader_and_removes_socket() {
    use selfstab_service::{Polled, Transport};

    let path = socket_path("churn");
    let mut transport = UdsTransport::bind(&path).expect("bind socket");
    const CLIENTS: usize = 6;

    // Connect clients one at a time, each sending a line; polling until
    // the line arrives proves the acceptor registered the client and its
    // reader thread is live.
    let mut streams = Vec::new();
    for i in 0..CLIENTS {
        let mut c = UnixStream::connect(&path).expect("client connects");
        writeln!(c, "{{\"probe\":{i}}}").expect("client writes");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match transport.poll() {
                Polled::Request { client, line } => {
                    assert!(line.contains("probe"), "unexpected line {line}");
                    transport.reply(client, "ack");
                    break;
                }
                Polled::Idle => {
                    assert!(Instant::now() < deadline, "client {i}'s line never arrived")
                }
                Polled::Closed => panic!("transport closed during churn"),
            }
        }
        streams.push(c);
    }

    // Half the clients disconnect mid-session (their readers exit on EOF
    // and their `Disconnected` events may or may not be polled — shutdown
    // must not care); the other half stay connected and blocked.
    for c in streams.drain(..CLIENTS / 2) {
        drop(c);
    }

    assert_eq!(transport.accept_failures(), 0);
    let joined = shutdown_under_deadline(transport, Duration::from_secs(10));
    assert_eq!(
        joined,
        1 + CLIENTS,
        "acceptor + every reader (live or exited) joined exactly once"
    );
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Run `f` on its own thread and wait at most `deadline` for its result.
fn within<T: Send + 'static>(deadline: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(deadline)
        .expect("missed the watchdog deadline");
    worker.join().expect("watchdog worker");
    out
}

#[test]
fn an_over_long_line_closes_only_its_own_connection() {
    let path = socket_path("overlong");
    let transport = UdsTransport::bind(&path).expect("bind socket");
    let daemon = std::thread::spawn(move || {
        let mut transport = transport;
        let smm = Smm::paper(Ids::identity(6));
        let clock = RealClock::new();
        let mut svc = OverlayService::new(generators::path(6), &smm, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        let summary = serve(
            &mut svc,
            &mut transport,
            &clock,
            &ShutdownFlag::new(),
            0,
            &mut (),
        );
        (summary.outcome, transport.shutdown())
    });

    // A hostile client sends one byte past the cap and never a newline:
    // the daemon stops buffering and closes the connection, so the client
    // reads EOF.
    let hostile_path = path.clone();
    let hostile_read = within(Duration::from_secs(30), move || {
        let mut hostile = UnixStream::connect(&hostile_path).expect("hostile client connects");
        let _ = hostile.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]);
        let mut rest = Vec::new();
        hostile.read_to_end(&mut rest).map(|_| rest.len())
    });
    assert_eq!(hostile_read.expect("EOF, not an error"), 0);

    // An honest client is still answered, and can stop the daemon.
    let honest_path = path.clone();
    let replies = within(Duration::from_secs(30), move || {
        let lines = [
            r#"{"op":"query","what":"status","tag":"honest"}"#.to_string(),
            r#"{"op":"shutdown"}"#.to_string(),
        ];
        let mut replies = Vec::new();
        uds_client_session(&honest_path, &lines, |r| replies.push(r.to_string())).map(|()| replies)
    })
    .expect("honest session");
    let status = Json::parse(&replies[0]).expect("status reply");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("tag").and_then(Json::as_str), Some("honest"));

    let (outcome, joined) = within(Duration::from_secs(30), move || {
        daemon.join().expect("daemon thread")
    });
    assert_eq!(outcome, ServeOutcome::ClientShutdown);
    assert_eq!(joined, 3, "acceptor + both clients' readers joined");
    assert!(!path.exists(), "socket file removed on shutdown");
}
