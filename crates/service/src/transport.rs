//! The swappable I/O backend: where request lines come from and where
//! response lines go.
//!
//! [`SimTransport`] is the deterministic backend — a scripted sequence of
//! request lines with captured replies, used by proptests and the CI
//! smoke. [`UdsTransport`] is the real backend — a non-blocking Unix
//! domain socket listener with one reader thread per client, multiplexed
//! into a single event queue the serve loop polls. Both present the same
//! [`Transport`] surface, so the daemon loop is byte-for-byte identical
//! under test and in production.

use std::collections::VecDeque;

/// Longest request line a socket client may send, in bytes before the
/// `\n`. A longer line closes that client's connection; the daemon keeps
/// serving everyone else.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One poll of the transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Polled {
    /// A client sent a request line.
    Request {
        /// Opaque client id (stable per connection).
        client: u64,
        /// The raw request line (no trailing newline).
        line: String,
    },
    /// Nothing to do right now.
    Idle,
    /// The transport has no clients and will never produce another
    /// request (scripted input exhausted, or listener torn down).
    Closed,
}

/// A source of request lines and sink of response lines.
pub trait Transport {
    /// Poll for the next request. A backend that can idle blocks for a
    /// bounded wait before it returns [`Polled::Idle`], so the serve loop
    /// needs no sleep of its own: the socket backend waits up to 20 ms and
    /// wakes as soon as a request arrives. The bound brings the loop round
    /// to check for shutdown and tick its hooks.
    fn poll(&mut self) -> Polled;

    /// Send one response line to `client`. Errors are swallowed — a client
    /// that disconnected mid-request simply misses its reply.
    fn reply(&mut self, client: u64, line: &str);

    /// Failed accept attempts, or clients dropped after accept, that the
    /// serve loop never saw (0 for backends that cannot fail to accept).
    /// The daemon reads this into the `status` response on every loop
    /// iteration, and into the telemetry registry when one is attached, so
    /// the failure mode is visible instead of silent.
    fn accept_failures(&self) -> u64 {
        0
    }
}

/// The deterministic scripted backend: feed lines in, collect replies.
#[derive(Debug, Default)]
pub struct SimTransport {
    script: VecDeque<String>,
    replies: Vec<String>,
}

impl SimTransport {
    /// A transport that will deliver `lines` in order (blank lines are
    /// skipped, matching the line-delimited wire format), then report
    /// [`Polled::Closed`].
    pub fn scripted(lines: impl IntoIterator<Item = impl Into<String>>) -> Self {
        SimTransport {
            script: lines
                .into_iter()
                .map(Into::into)
                .filter(|l| !l.trim().is_empty())
                .collect(),
            replies: Vec::new(),
        }
    }

    /// The captured response lines, in send order.
    pub fn replies(&self) -> &[String] {
        &self.replies
    }
}

impl Transport for SimTransport {
    fn poll(&mut self) -> Polled {
        match self.script.pop_front() {
            Some(line) => Polled::Request { client: 0, line },
            None => Polled::Closed,
        }
    }

    fn reply(&mut self, _client: u64, line: &str) {
        self.replies.push(line.to_string());
    }
}

#[cfg(unix)]
pub use uds::{uds_client_session, UdsTransport};

#[cfg(unix)]
mod uds {
    use super::{Polled, Transport, MAX_LINE_BYTES};
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::Shutdown;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
    use std::sync::{mpsc, Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::Duration;

    enum Event {
        Connected(u64, UnixStream),
        Line(u64, String),
        Disconnected(u64),
    }

    /// The Unix-domain-socket backend: an acceptor thread plus one reader
    /// thread per client, all funneled into a single event queue. Writes
    /// go directly to the client stream from the serve loop's thread.
    ///
    /// Teardown protocol (see [`UdsTransport::shutdown`]): stop flag →
    /// join acceptor → sever queued-but-unpolled connections → sever live
    /// writers → join every reader → remove the socket file. Each step
    /// makes the next one finite: once the acceptor is joined no new
    /// client can appear, and once every stream is severed every blocked
    /// reader observes EOF.
    pub struct UdsTransport {
        events: Receiver<Event>,
        writers: HashMap<u64, UnixStream>,
        stop: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
        readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
        accept_failures: Arc<AtomicU64>,
        path: PathBuf,
    }

    impl UdsTransport {
        /// Bind `path` (removing a stale socket file first) and start
        /// accepting clients. The socket file is removed again on
        /// [`UdsTransport::shutdown`], so a clean exit leaves no stale
        /// path on disk.
        pub fn bind(path: &Path) -> std::io::Result<UdsTransport> {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let (tx, events) = mpsc::channel();
            let stop = Arc::new(AtomicBool::new(false));
            let readers = Arc::new(Mutex::new(Vec::new()));
            let accept_failures = Arc::new(AtomicU64::new(0));
            let acceptor = spawn_acceptor(
                listener,
                tx,
                stop.clone(),
                readers.clone(),
                accept_failures.clone(),
            );
            Ok(UdsTransport {
                events,
                writers: HashMap::new(),
                stop,
                acceptor: Some(acceptor),
                readers,
                accept_failures,
                path: path.to_path_buf(),
            })
        }

        /// Failed accept attempts (each retried 10 ms later), plus clients
        /// dropped because `try_clone` on their accepted stream failed (each
        /// was closed outright rather than left half-open).
        pub fn accept_failures(&self) -> u64 {
            self.accept_failures.load(Ordering::Relaxed)
        }

        /// Stop accepting, sever every client (which unblocks and ends the
        /// reader threads), join all transport threads, and remove the
        /// socket file. Returns the number of threads joined. Idempotent:
        /// a second call (e.g. from `Drop`) is a no-op returning 0.
        ///
        /// Ordering matters:
        /// 1. joining the acceptor *first* freezes both the event queue
        ///    and the reader-handle list — no `Connected` event or
        ///    `JoinHandle` can be pushed after this point, which is what
        ///    makes steps 2 and 4 exhaustive;
        /// 2. draining `events` severs clients whose `Connected` event the
        ///    serve loop never polled — they are not in `writers`, and
        ///    without this their readers would block on a live stream
        ///    forever (the pre-fix shutdown hang);
        /// 3. severing `writers` unblocks every reader the loop did know
        ///    about;
        /// 4. the handle list is drained under the lock until it stays
        ///    empty, so a reader pushed concurrently with an earlier take
        ///    cannot leak unjoined.
        pub fn shutdown(&mut self) -> usize {
            self.stop.store(true, Ordering::SeqCst);
            let mut joined = 0usize;
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
                joined += 1;
            }
            for event in self.events.try_iter() {
                if let Event::Connected(_, stream) = event {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
            for (_, stream) in self.writers.drain() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            loop {
                let handles: Vec<JoinHandle<()>> =
                    std::mem::take(&mut *self.readers.lock().expect("readers lock"));
                if handles.is_empty() {
                    break;
                }
                for h in handles {
                    let _ = h.join();
                    joined += 1;
                }
            }
            if joined > 0 {
                let _ = std::fs::remove_file(&self.path);
            }
            joined
        }
    }

    impl Drop for UdsTransport {
        fn drop(&mut self) {
            self.shutdown();
        }
    }

    fn spawn_acceptor(
        listener: UnixListener,
        tx: Sender<Event>,
        stop: Arc<AtomicBool>,
        readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
        accept_failures: Arc<AtomicU64>,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut next_id = 1u64;
            // Whether the last accept failed: only the first failure of a
            // run is logged.
            let mut failing = false;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        failing = false;
                        let id = next_id;
                        next_id += 1;
                        match stream.try_clone() {
                            Ok(write_half) => {
                                if tx.send(Event::Connected(id, write_half)).is_err() {
                                    return;
                                }
                                let reader = spawn_reader(id, stream, tx.clone());
                                readers.lock().expect("readers lock").push(reader);
                            }
                            Err(e) => {
                                // No write half means no reply path; close
                                // the connection outright so the peer sees
                                // EOF instead of hanging on a dead socket.
                                let _ = stream.shutdown(Shutdown::Both);
                                accept_failures.fetch_add(1, Ordering::Relaxed);
                                eprintln!("uds: dropped client {id}: try_clone failed: {e}");
                            }
                        }
                    }
                    Err(e) => {
                        // An empty backlog, or a failed accept (EMFILE, say)
                        // that leaves the listener usable: count a failure,
                        // and retry both on the next tick, so the daemon
                        // accepts again once descriptors free up.
                        let failed = e.kind() != std::io::ErrorKind::WouldBlock;
                        if failed {
                            accept_failures.fetch_add(1, Ordering::Relaxed);
                            if !failing {
                                eprintln!("uds: accept failed (retrying every 10 ms): {e}");
                            }
                        }
                        failing = failed;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        })
    }

    /// Read one line of at most [`MAX_LINE_BYTES`], without its `\n` or a
    /// trailing `\r` (as `BufRead::lines` strips them). `None` ends the
    /// connection: end of stream, a read error, an over-long line, or
    /// invalid UTF-8.
    fn read_capped_line(reader: &mut impl BufRead) -> Option<String> {
        let mut buf = Vec::new();
        // One byte past the cap tells an over-long line from a full one.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match reader.take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE_BYTES {
            return None;
        }
        String::from_utf8(buf).ok()
    }

    fn spawn_reader(id: u64, stream: UnixStream, tx: Sender<Event>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let _ = stream.set_nonblocking(false);
            let mut reader = BufReader::new(stream);
            while let Some(line) = read_capped_line(&mut reader) {
                if line.trim().is_empty() {
                    continue;
                }
                if tx.send(Event::Line(id, line)).is_err() {
                    return;
                }
            }
            let _ = tx.send(Event::Disconnected(id));
        })
    }

    impl Transport for UdsTransport {
        fn poll(&mut self) -> Polled {
            loop {
                match self.events.recv_timeout(Duration::from_millis(20)) {
                    Ok(Event::Connected(id, stream)) => {
                        self.writers.insert(id, stream);
                    }
                    Ok(Event::Line(id, line)) => return Polled::Request { client: id, line },
                    Ok(Event::Disconnected(id)) => {
                        self.writers.remove(&id);
                    }
                    Err(RecvTimeoutError::Timeout) => return Polled::Idle,
                    Err(RecvTimeoutError::Disconnected) => return Polled::Closed,
                }
            }
        }

        fn accept_failures(&self) -> u64 {
            UdsTransport::accept_failures(self)
        }

        fn reply(&mut self, client: u64, line: &str) {
            if let Some(stream) = self.writers.get_mut(&client) {
                let ok = stream
                    .write_all(line.as_bytes())
                    .and_then(|()| stream.write_all(b"\n"))
                    .and_then(|()| stream.flush())
                    .is_ok();
                if !ok {
                    self.writers.remove(&client);
                }
            }
        }
    }

    /// A one-shot scripted client session over a Unix socket: connect,
    /// send each line, and hand every response line to `on_reply` (one
    /// call per request, same order). The CLI `client` command and the CI
    /// end-to-end smoke are this function.
    pub fn uds_client_session(
        path: &Path,
        lines: &[String],
        mut on_reply: impl FnMut(&str),
    ) -> std::io::Result<()> {
        let stream = UnixStream::connect(path)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            let mut reply = String::new();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed before replying",
                ));
            }
            on_reply(reply.trim_end_matches('\n'));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_transport_feeds_script_then_closes() {
        let mut t = SimTransport::scripted(["a", "", "b"]);
        assert_eq!(
            t.poll(),
            Polled::Request {
                client: 0,
                line: "a".into()
            }
        );
        t.reply(0, "ra");
        assert_eq!(
            t.poll(),
            Polled::Request {
                client: 0,
                line: "b".into()
            }
        );
        t.reply(0, "rb");
        assert_eq!(t.poll(), Polled::Closed);
        assert_eq!(t.replies(), ["ra", "rb"]);
    }
}
