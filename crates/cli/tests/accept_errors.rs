//! The socket daemon keeps accepting after `accept()` fails.
//!
//! Under a low descriptor limit, a burst of idle clients uses up the
//! daemon's descriptors, and its accepts fail with EMFILE while the rest of
//! the burst waits in the listen backlog. Once those clients leave, the
//! daemon must accept again, and `status` must count the failed accepts
//! even though no telemetry registry is attached.

#![cfg(unix)]

use selfstab_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Kills the daemon if the test fails before the daemon shuts down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Send one request line on a fresh connection and parse the reply line.
fn request(path: &Path, line: &str) -> Json {
    let mut stream = UnixStream::connect(path).expect("daemon accepts a new client");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    writeln!(stream, "{line}").expect("send request");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("daemon replies within 10 s");
    Json::parse(reply.trim()).expect("reply is JSON")
}

#[test]
fn daemon_accepts_again_after_running_out_of_descriptors() {
    let path = std::env::temp_dir().join(format!("selfstab-accept-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // The shell lowers the limit and then execs the daemon, so the limit
    // applies to the daemon alone.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 24 && exec "$0" "$@""#)
        .arg(env!("CARGO_BIN_EXE_selfstab-cli"))
        .args("serve --protocol smm --topology cycle --n 6 --socket".split(' '))
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the daemon");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut daemon = Daemon(child);
    let (log_tx, log) = mpsc::channel();
    let log_reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = log_tx.send(line);
        }
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    while !path.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Each accepted client holds two of the daemon's 24 descriptors, so
    // most of these 40 stay in the backlog while accept() fails. Drop them
    // once the daemon has logged a failed accept.
    let idle: Vec<UnixStream> = (0..40)
        .map(|_| UnixStream::connect(&path).expect("connect an idle client"))
        .collect();
    loop {
        let line = log
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon logs a failed accept");
        if line.contains("accept failed") {
            break;
        }
    }
    drop(idle);

    let status = request(&path, r#"{"op":"query","what":"status"}"#);
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    let failures = status.get("accept_failures").and_then(Json::as_u64);
    assert!(
        failures.is_some_and(|f| f > 0),
        "status should count the failed accepts, got {failures:?}"
    );
    let bye = request(&path, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
    let exit = daemon.0.wait().expect("wait for the daemon");
    assert!(exit.success(), "daemon exit status {exit}");
    log_reader.join().expect("stderr reader");
}
