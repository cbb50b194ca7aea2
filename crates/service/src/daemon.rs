//! The serve loop: one poll-dispatch-reply cycle, generic over the
//! environment.
//!
//! This is the code the whole subsystem exists to keep *singular*: the
//! same [`serve`] body runs under ([`SimClock`](crate::env::SimClock) +
//! [`SimTransport`](crate::transport::SimTransport)) in proptests and CI,
//! and under ([`RealClock`](crate::env::RealClock) +
//! [`UdsTransport`](crate::transport::UdsTransport)) behind
//! `selfstab serve`. Only the environment values change; every event's
//! re-convergence runs the engine's round kernel inside
//! [`OverlayService`].

use std::sync::Arc;

use selfstab_engine::obs::Observer;
use selfstab_json::{Json, ToJson};

use crate::env::{Clock, ShutdownFlag};
use crate::overlay::OverlayProtocol;
use crate::proto::{Mutation, QueryKind, Request};
use crate::service::{EventRecord, OverlayService};
use crate::snapshot::SnapshotScheduler;
use crate::telemetry::Telemetry;
use crate::transport::{Polled, Transport};

/// Why the serve loop exited.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServeOutcome {
    /// A client sent the `shutdown` op.
    ClientShutdown,
    /// The shutdown flag (SIGINT or a programmatic request) was raised.
    SignalShutdown,
    /// The transport reported [`Polled::Closed`] (script exhausted, or the
    /// listener died).
    TransportClosed,
}

impl ServeOutcome {
    /// Status-line name.
    pub fn name(self) -> &'static str {
        match self {
            ServeOutcome::ClientShutdown => "client-shutdown",
            ServeOutcome::SignalShutdown => "signal-shutdown",
            ServeOutcome::TransportClosed => "transport-closed",
        }
    }
}

/// What one serve session did.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Request lines dispatched (including malformed ones).
    pub requests: u64,
    /// Mutations successfully applied.
    pub mutations: u64,
    /// Queries answered.
    pub queries: u64,
    /// Error responses sent (parse failures and invalid mutations).
    pub errors: u64,
    /// Pending mutations force-drained at shutdown.
    pub drained: u64,
    /// Why the loop exited.
    pub outcome: ServeOutcome,
}

/// Optional live instrumentation threaded through [`serve_with`]: a
/// telemetry registry (shared with the scrape listener) and a background
/// snapshot scheduler. The default — both absent — is the plain [`serve`]
/// loop, which touches neither the clock nor any registry outside the
/// event drains themselves.
#[derive(Default)]
pub struct ServeHooks<'h> {
    /// Registry to heartbeat and record requests into.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Scheduler to tick every loop iteration.
    pub snapshots: Option<&'h mut SnapshotScheduler>,
}

impl ServeHooks<'_> {
    /// Refresh the accept-failure count (one relaxed atomic load, no
    /// clock read) and, when some hook is configured, the gauges and the
    /// snapshot scheduler. Runs once per loop iteration.
    fn tick<P: OverlayProtocol, T: Transport>(
        &mut self,
        svc: &mut OverlayService<'_, P>,
        transport: &T,
        clock: &dyn Clock,
    ) {
        let accept_failures = transport.accept_failures();
        svc.note_accept_failures(accept_failures);
        if let Some(t) = &self.telemetry {
            t.heartbeat(clock.now_micros());
            t.observe_service(
                svc.pending_len(),
                svc.graph().n(),
                svc.graph().m(),
                svc.is_converged(),
                accept_failures,
            );
        }
        if let Some(scheduler) = self.snapshots.as_deref_mut() {
            if let Err(e) = scheduler.tick(svc, clock, self.telemetry.as_deref()) {
                eprintln!("service: background snapshot failed: {e}");
            }
        }
    }
}

/// Run the service against a transport until shutdown (no live hooks).
///
/// Per request line: parse → dispatch → exactly one response line.
/// Mutations are enqueued and drained immediately (so the response carries
/// the event's recovery metrics); queries drain any pending mutations
/// first (read-your-writes). On any exit path the queue is drained and
/// leftover repair work is settled, so the post-serve service state is
/// legitimate and safe to snapshot.
///
/// `idle_sleep_micros` is an extra sleep after each [`Polled::Idle`], on
/// top of the wait inside [`Transport::poll`]. The CLI passes 0; the
/// parameter is kept only for the benchmark's load-generator stall test
/// (`benchmark/src/loadgen.rs`).
pub fn serve<P, T, O>(
    svc: &mut OverlayService<'_, P>,
    transport: &mut T,
    clock: &dyn Clock,
    shutdown: &ShutdownFlag,
    idle_sleep_micros: u64,
    obs: &mut O,
) -> ServeSummary
where
    P: OverlayProtocol,
    T: Transport,
    O: Observer<P::State>,
{
    serve_with(
        svc,
        transport,
        clock,
        shutdown,
        idle_sleep_micros,
        obs,
        ServeHooks::default(),
    )
}

/// [`serve`] with live hooks: telemetry gauges refresh and the snapshot
/// scheduler ticks once per loop iteration, every request is attributed
/// to its client in the registry, and the `telemetry` query answers from
/// the same registry a TCP scrape reads. `idle_sleep_micros` is as for
/// [`serve`]: an extra sleep after [`Polled::Idle`], 0 from the CLI.
pub fn serve_with<P, T, O>(
    svc: &mut OverlayService<'_, P>,
    transport: &mut T,
    clock: &dyn Clock,
    shutdown: &ShutdownFlag,
    idle_sleep_micros: u64,
    obs: &mut O,
    mut hooks: ServeHooks<'_>,
) -> ServeSummary
where
    P: OverlayProtocol,
    T: Transport,
    O: Observer<P::State>,
{
    let mut summary = ServeSummary {
        requests: 0,
        mutations: 0,
        queries: 0,
        errors: 0,
        drained: 0,
        outcome: ServeOutcome::TransportClosed,
    };
    loop {
        if shutdown.is_set() {
            summary.outcome = ServeOutcome::SignalShutdown;
            break;
        }
        let polled = transport.poll();
        hooks.tick(svc, transport, clock);
        let (client, line) = match polled {
            Polled::Request { client, line } => (client, line),
            Polled::Idle => {
                clock.sleep_micros(idle_sleep_micros);
                continue;
            }
            Polled::Closed => {
                summary.outcome = ServeOutcome::TransportClosed;
                break;
            }
        };
        summary.requests += 1;
        if let Some(t) = &hooks.telemetry {
            t.record_request(client);
        }
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                summary.errors += 1;
                transport.reply(client, &crate::proto::resp_err(&e, None).to_string());
                continue;
            }
        };
        match request {
            Request::Mutate { mutation, tag } => {
                if let Some(t) = &hooks.telemetry {
                    t.record_ingest(clock.now_micros());
                }
                let response =
                    apply_mutation(svc, mutation, clock, obs, &mut summary, tag.as_deref());
                transport.reply(client, &response.to_string());
            }
            Request::Query { query, tag } => {
                for r in svc.drain(clock, obs) {
                    count_drained(&r, &mut summary);
                }
                summary.queries += 1;
                if let Some(t) = &hooks.telemetry {
                    t.record_query();
                }
                let response = match answer(svc, &query) {
                    Ok(fields) => crate::proto::resp_ok(fields, tag.as_deref()),
                    Err(e) => {
                        summary.errors += 1;
                        crate::proto::resp_err(&e, tag.as_deref())
                    }
                };
                transport.reply(client, &response.to_string());
            }
            Request::Shutdown { tag } => {
                let response = crate::proto::resp_ok(
                    vec![("stopping".to_string(), true.to_json())],
                    tag.as_deref(),
                );
                transport.reply(client, &response.to_string());
                summary.outcome = ServeOutcome::ClientShutdown;
                break;
            }
        }
    }
    // Graceful exit: whatever is still queued gets applied, and any
    // budget-capped leftover repair work converges, before the caller
    // snapshots and tears the transport down.
    for r in svc.drain(clock, obs) {
        summary.drained += 1;
        count_drained(&r, &mut summary);
    }
    svc.settle(obs);
    hooks.tick(svc, transport, clock);
    summary
}

fn apply_mutation<P: OverlayProtocol, O: Observer<P::State>>(
    svc: &mut OverlayService<'_, P>,
    mutation: Mutation,
    clock: &dyn Clock,
    obs: &mut O,
    summary: &mut ServeSummary,
    tag: Option<&str>,
) -> Json {
    svc.enqueue(mutation);
    let mut last = None;
    for r in svc.drain(clock, obs) {
        count_drained(&r, summary);
        last = Some(r);
    }
    match last {
        Some(Ok(record)) => crate::proto::resp_ok(fields(record.to_json()), tag),
        Some(Err(e)) => crate::proto::resp_err(&e, tag),
        None => crate::proto::resp_err("mutation queue empty after drain", tag),
    }
}

fn count_drained(result: &Result<EventRecord, String>, summary: &mut ServeSummary) {
    match result {
        Ok(_) => summary.mutations += 1,
        Err(_) => summary.errors += 1,
    }
}

fn answer<P: OverlayProtocol>(
    svc: &OverlayService<'_, P>,
    query: &QueryKind,
) -> Result<Vec<(String, Json)>, String> {
    let body = match query {
        QueryKind::Membership(node) => svc.membership_json(*node)?,
        QueryKind::Census => svc.census_json(),
        QueryKind::Status => svc.status_json(),
        QueryKind::Latency => svc.latency_json(),
        QueryKind::Telemetry => svc.telemetry_json()?,
    };
    Ok(fields(body))
}

/// A reply body's fields: an object's own, anything else as `result`.
fn fields(body: Json) -> Vec<(String, Json)> {
    match body {
        Json::Object(fields) => fields,
        other => vec![("result".to_string(), other)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimClock;
    use crate::transport::SimTransport;
    use selfstab_core::Smm;
    use selfstab_engine::protocol::InitialState;
    use selfstab_graph::{generators, Ids};

    fn run_script(lines: &[&str]) -> (Vec<String>, ServeSummary) {
        let g = generators::path(6);
        let smm = Smm::paper(Ids::identity(6));
        let clock = SimClock::new();
        let mut svc = OverlayService::new(g, &smm, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        let mut transport = SimTransport::scripted(lines.iter().copied());
        let shutdown = ShutdownFlag::new();
        let summary = serve(&mut svc, &mut transport, &clock, &shutdown, 100, &mut ());
        (transport.replies().to_vec(), summary)
    }

    #[test]
    fn scripted_session_mutates_queries_and_stops() {
        let (replies, summary) = run_script(&[
            r#"{"op":"query","what":"status","tag":"s0"}"#,
            r#"{"op":"mutate","kind":"edge-down","a":2,"b":3}"#,
            r#"{"op":"query","what":"census"}"#,
            r#"{"op":"query","what":"latency"}"#,
            r#"{"op":"shutdown","tag":"bye"}"#,
        ]);
        assert_eq!(replies.len(), 5);
        assert_eq!(summary.outcome, ServeOutcome::ClientShutdown);
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.mutations, 1);
        assert_eq!(summary.queries, 3);
        assert_eq!(summary.errors, 0);

        let status = Json::parse(&replies[0]).unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("tag").and_then(Json::as_str), Some("s0"));
        assert_eq!(status.get("legitimate").and_then(Json::as_bool), Some(true));

        let mutated = Json::parse(&replies[1]).unwrap();
        assert_eq!(mutated.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(mutated.get("converged").and_then(Json::as_bool), Some(true));
        assert!(mutated
            .get("recovery_rounds")
            .and_then(Json::as_u64)
            .is_some());

        let bye = Json::parse(&replies[4]).unwrap();
        assert_eq!(bye.get("tag").and_then(Json::as_str), Some("bye"));
    }

    #[test]
    fn a_mutate_reply_is_ok_plus_the_event_record_plus_the_tag() {
        let (replies, _) =
            run_script(&[r#"{"op":"mutate","kind":"edge-down","a":2,"b":3,"tag":"m1"}"#]);
        // The same event, applied to an identical service.
        let smm = Smm::paper(Ids::identity(6));
        let clock = SimClock::new();
        let mut svc = OverlayService::new(generators::path(6), &smm, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        svc.enqueue(Mutation::EdgeDown { a: 2, b: 3 });
        let record = svc.drain(&clock, &mut ()).pop().unwrap().unwrap();
        let Json::Object(event) = record.to_json() else {
            panic!("an event record renders as an object");
        };
        let mut expected = vec![("ok".to_string(), true.to_json())];
        expected.extend(event);
        expected.push(("tag".to_string(), "m1".to_json()));
        let reply = Json::parse(&replies[0]).unwrap();
        assert_eq!(reply.as_object(), Some(&expected[..]));
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("edge-down"));
    }

    #[test]
    fn malformed_lines_get_error_responses_and_do_not_kill_the_loop() {
        let (replies, summary) = run_script(&[
            "not json at all",
            r#"{"op":"mutate","kind":"edge-down","a":0,"b":5}"#, // not an edge
            r#"{"op":"query","what":"status"}"#,
        ]);
        assert_eq!(replies.len(), 3);
        assert_eq!(summary.errors, 2);
        assert_eq!(summary.outcome, ServeOutcome::TransportClosed);
        for r in &replies[..2] {
            let v = Json::parse(r).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
            assert!(v.get("error").and_then(Json::as_str).is_some());
        }
        let status = Json::parse(&replies[2]).unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn a_deeply_nested_line_gets_an_error_and_the_loop_survives() {
        // 100 000 unclosed brackets once overflowed the parser's stack and
        // aborted the whole daemon.
        let hostile = "[".repeat(100_000);
        let (replies, summary) = run_script(&[&hostile, r#"{"op":"query","what":"status"}"#]);
        assert_eq!(replies.len(), 2);
        assert_eq!(summary.errors, 1);
        let err = Json::parse(&replies[0]).unwrap();
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        let message = err.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("nesting deeper than"), "{message}");
        let status = Json::parse(&replies[1]).unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn signal_shutdown_breaks_an_idle_loop() {
        // A transport that idles forever: the shutdown flag must get us out.
        struct IdleForever;
        impl Transport for IdleForever {
            fn poll(&mut self) -> Polled {
                Polled::Idle
            }
            fn reply(&mut self, _client: u64, _line: &str) {}
        }
        let g = generators::path(3);
        let smm = Smm::paper(Ids::identity(3));
        let clock = SimClock::new();
        let mut svc = OverlayService::new(g, &smm, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        let shutdown = ShutdownFlag::new();
        shutdown.request();
        let summary = serve(&mut svc, &mut IdleForever, &clock, &shutdown, 50, &mut ());
        assert_eq!(summary.outcome, ServeOutcome::SignalShutdown);
        assert_eq!(summary.requests, 0);
    }
}
