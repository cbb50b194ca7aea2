//! An open-loop load generator on one Unix-socket connection.
//!
//! It sends on a seeded Poisson schedule whatever the daemon does, and
//! times every request from the moment it was *due*, so a stall is charged
//! to every request that waited behind it — not only to the one that hit
//! it. Replies are matched to requests by their echoed `tag`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_json::Json;

/// How long replies may trail the end of a phase before the requests still
/// outstanding count as failed.
const GRACE: Duration = Duration::from_secs(10);

/// A reply line and when it arrived.
type Reply = io::Result<(String, Instant)>;

/// One line-JSON connection. Requests are written from the caller's thread;
/// a reader thread blocks on the socket and stamps each reply the moment it
/// arrives, so the sender can wait for "next reply or next due time" on a
/// channel with microsecond timeouts (a socket read timeout is rounded up to
/// kernel ticks of several milliseconds).
pub struct Conn {
    stream: UnixStream,
    replies: Receiver<Reply>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    /// Connect to `path`.
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        let read_half = BufReader::new(stream.try_clone()?);
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in read_half.lines() {
                let stamped = line.map(|l| (l, Instant::now()));
                let failed = stamped.is_err();
                if tx.send(stamped).is_err() || failed {
                    return;
                }
            }
            let _ = tx.send(Err(io::ErrorKind::UnexpectedEof.into()));
        });
        Ok(Conn {
            stream,
            replies,
            reader: Some(reader),
        })
    }

    /// Send one request line.
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// The next reply line and its arrival time, or `None` if none arrives
    /// within `timeout`.
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<(String, Instant)>> {
        match self.replies.recv_timeout(timeout) {
            Ok(reply) => reply.map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Send one request and wait for its reply.
    pub fn call(&mut self, line: &str) -> io::Result<Json> {
        self.send(line)?;
        let (reply, _) = self
            .recv(GRACE)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no reply"))?;
        Json::parse(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Severing the socket ends the reader's blocking read.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A request source: the next request's tag and wire line.
pub type Source<'a> = dyn FnMut() -> (u64, String) + 'a;

/// What an open-loop phase observed.
#[derive(Debug)]
pub struct Phase {
    /// When the phase started.
    pub start: Instant,
    /// Per answered request: seconds from `start` to when it was due, and
    /// its latency in µs from then.
    pub samples: Vec<(f64, f64)>,
    /// How late each send went out after its due time, µs.
    pub late_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Replies that were `ok:false`, `converged:false`, unmatched, or never
    /// arrived.
    pub failed: u64,
    /// Most requests outstanding at once.
    pub backlog_max: usize,
    outstanding: HashMap<u64, Instant>,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            start: Instant::now(),
            samples: Vec::new(),
            late_us: Vec::new(),
            sent: 0,
            failed: 0,
            backlog_max: 0,
            outstanding: HashMap::new(),
        }
    }

    fn send(&mut self, conn: &mut Conn, source: &mut Source, due: Instant) -> io::Result<()> {
        let (tag, line) = source();
        conn.send(&line)?;
        self.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        self.outstanding.insert(tag, due);
        self.sent += 1;
        self.backlog_max = self.backlog_max.max(self.outstanding.len());
        Ok(())
    }

    fn reply(&mut self, line: &str, at: Instant) {
        let (tag, ok) = judge(line);
        match tag.and_then(|t| self.outstanding.remove(&t)) {
            Some(due) => {
                let due_s = due.duration_since(self.start).as_secs_f64();
                let latency_us = at.duration_since(due).as_secs_f64() * 1e6;
                self.samples.push((due_s, latency_us));
                self.failed += u64::from(!ok);
            }
            None => self.failed += 1,
        }
    }

    fn finish(mut self) -> Phase {
        self.failed += self.outstanding.len() as u64;
        self
    }
}

/// The request tag a reply echoes, and whether it reports success: `ok:true`
/// and, for mutations, `converged:true`.
fn judge(reply: &str) -> (Option<u64>, bool) {
    let Ok(v) = Json::parse(reply) else {
        return (None, false);
    };
    let tag = v
        .get("tag")
        .and_then(Json::as_str)
        .and_then(|t| t.parse().ok());
    let ok = v.get("ok").and_then(Json::as_bool) == Some(true)
        && v.get("converged").and_then(Json::as_bool) != Some(false);
    (tag, ok)
}

/// Open loop: Poisson arrivals at `rate` per second for `duration`.
pub fn open_loop(
    conn: &mut Conn,
    rate: f64,
    duration: Duration,
    seed: u64,
    source: &mut Source,
) -> io::Result<Phase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gap = move || Duration::from_secs_f64(-(1.0 - rng.random::<f64>()).ln() / rate);
    let mut phase = Phase::new();
    let end = phase.start + duration;
    let mut due = phase.start + gap();
    loop {
        let now = Instant::now();
        while due <= now && due < end {
            phase.send(conn, source, due)?;
            due += gap();
        }
        let sending = due < end;
        if !sending && (phase.outstanding.is_empty() || now > end + GRACE) {
            return Ok(phase.finish());
        }
        let wait = if sending {
            due - now
        } else {
            end + GRACE - now
        };
        if let Some((line, at)) = conn.recv(wait)? {
            phase.reply(&line, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Stream;
    use selfstab_core::Smi;
    use selfstab_engine::InitialState;
    use selfstab_graph::{generators, Ids};
    use selfstab_service::{
        serve, OverlayService, Polled, RealClock, ShutdownFlag, Transport, UdsTransport,
    };
    use std::sync::{Arc, Mutex};

    const STALL: Duration = Duration::from_millis(50);

    /// A transport that freezes the serve loop once, for [`STALL`], on the
    /// first request polled after `at`, and records when it did.
    struct Stall {
        inner: UdsTransport,
        at: Instant,
        window: Arc<Mutex<Option<(Instant, Instant)>>>,
    }

    impl Transport for Stall {
        fn poll(&mut self) -> Polled {
            let polled = self.inner.poll();
            let mut window = self.window.lock().expect("stall window lock");
            if matches!(polled, Polled::Request { .. })
                && window.is_none()
                && Instant::now() >= self.at
            {
                let from = Instant::now();
                std::thread::sleep(STALL);
                *window = Some((from, Instant::now()));
            }
            polled
        }

        fn reply(&mut self, client: u64, line: &str) {
            self.inner.reply(client, line);
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        let path = std::path::PathBuf::from(format!("loadgen-stall-{}.sock", std::process::id()));
        let n = 64;
        let window = Arc::new(Mutex::new(None));
        let stall = Stall {
            inner: UdsTransport::bind(&path).expect("bind test socket"),
            at: Instant::now() + Duration::from_millis(300),
            window: window.clone(),
        };
        let daemon = std::thread::spawn(move || {
            let mut stall = stall;
            let smi = Smi::new(Ids::identity(n));
            let clock = RealClock::new();
            let mut svc = OverlayService::new(generators::cycle(n), &smi, InitialState::Default, 0);
            svc.stabilize(&clock, &mut ());
            let summary = serve(
                &mut svc,
                &mut stall,
                &clock,
                &ShutdownFlag::new(),
                1_000,
                &mut (),
            );
            stall.inner.shutdown();
            summary
        });

        let mut conn = Conn::connect(&path).expect("connect to the test daemon");
        let mut stream = Stream::new(generators::cycle(n), 11, 0.0);
        let mut index = 0;
        let mut source = || {
            index += 1;
            (index, stream.next_request(index).to_json().to_string())
        };
        let phase = open_loop(&mut conn, 400.0, Duration::from_millis(800), 5, &mut source)
            .expect("open loop runs");
        let bye = conn.call(r#"{"op":"shutdown"}"#).expect("shutdown reply");
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        let summary = daemon.join().expect("serve thread");

        assert_eq!(phase.failed, 0, "failed_frac must be 0");
        assert_eq!(phase.samples.len() as u64, phase.sent);
        assert_eq!(summary.mutations, phase.sent);
        let (from, to) = window
            .lock()
            .expect("stall window lock")
            .expect("the stall fired");
        let stalled: Vec<_> = phase
            .samples
            .iter()
            .filter(|&&(due_s, _)| {
                let due = phase.start + Duration::from_secs_f64(due_s);
                due >= from && due + Duration::from_millis(5) < to
            })
            .collect();
        assert!(
            stalled.len() >= 5,
            "only {} requests fell in the stall",
            stalled.len()
        );
        for &&(due_s, latency_us) in &stalled {
            let due = phase.start + Duration::from_secs_f64(due_s);
            let waited = to.duration_since(due).as_secs_f64() * 1e6;
            assert!(
                latency_us >= waited,
                "request due {due_s:.4}s reports {latency_us:.0}µs but waited {waited:.0}µs"
            );
        }
    }
}
