//! The TCP scrape endpoint: a tiny std-only HTTP responder serving the
//! Prometheus text exposition of a [`Telemetry`] registry.
//!
//! One listener thread accepts connections non-blockingly and answers
//! each with a single `HTTP/1.0 200` response rendering
//! [`Telemetry::render_prometheus`], then closes. There is deliberately
//! no routing, keep-alive, or TLS — a Prometheus scraper (or `curl`)
//! issues one GET per scrape and reads to EOF, and that is the whole
//! protocol. Teardown mirrors the UDS transport's discipline: raise the
//! stop flag, join the listener thread, done — connections in flight are
//! bounded by short read/write timeouts, so [`ScrapeServer::shutdown`]
//! cannot hang on a stalled client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::telemetry::Telemetry;

/// How long one scrape connection may take to send its request or absorb
/// the response before it is dropped.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// The background scrape listener. See the [module docs](self).
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, port 0 for ephemeral) and start
    /// answering scrapes with `registry`'s exposition.
    pub fn bind(addr: &str, registry: Arc<Telemetry>) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Count before rendering so the served body already
                        // reflects this scrape (body == a re-render, which
                        // the round-trip test pins).
                        registry.record_scrape();
                        let _ = serve_one(stream, &registry);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => return,
                }
            }
        });
        Ok(ScrapeServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the listener thread. Idempotent; `Drop`
    /// calls it too.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer one scrape connection: read the request head (discarded — every
/// path serves the same exposition), write one complete HTTP/1.0 response,
/// and close.
fn serve_one(stream: TcpStream, registry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    // Consume header lines until the blank separator, EOF, a timeout, or
    // an 8 KiB cap — whichever comes first. A bare `nc` poke (no headers)
    // still gets an answer.
    let mut consumed = 0usize;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(n) => {
                consumed += n;
                if line.trim().is_empty() || consumed > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = registry.render_prometheus();
    let mut writer = &stream;
    writer.write_all(
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(())
}

/// One client-side scrape: connect to `addr`, issue `GET /metrics`, and
/// return the response body (the exposition text). Used by
/// `selfstab client --scrape`, the CI smoke, and the scrape-under-churn
/// test — no external HTTP client needed.
pub fn scrape_once(addr: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut writer = &stream;
    writer.write_all(b"GET /metrics HTTP/1.0\r\nHost: selfstab\r\n\r\n")?;
    writer.flush()?;
    let mut response = String::new();
    let mut reader = &stream;
    reader.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::other(format!(
            "scrape failed: {}",
            head.lines().next().unwrap_or("empty response")
        ))),
        None => Err(std::io::Error::other("malformed scrape response")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::EventRecord;

    #[test]
    fn scrape_round_trips_the_exposition() {
        let registry = Arc::new(Telemetry::new());
        registry.heartbeat(1000);
        registry.record_event(
            EventRecord {
                seq: 1,
                kind: "edge-up",
                round: 1,
                perturbed: 2,
                recovery_rounds: 1,
                moves: 1,
                converged: true,
            },
            50,
            1000,
            0,
        );
        let mut server = ScrapeServer::bind("127.0.0.1:0", registry.clone()).unwrap();
        let addr = server.addr().to_string();
        let body = scrape_once(&addr).unwrap();
        assert!(body.contains("selfstab_events_total 1"), "{body}");
        assert_eq!(body, registry.render_prometheus());
        // Scrapes count, and shutdown joins cleanly (twice: idempotent).
        assert_eq!(registry.scrapes_total(), 1);
        server.shutdown();
        server.shutdown();
        assert!(scrape_once(&addr).is_err(), "listener is down");
    }
}
