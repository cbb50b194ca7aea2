//! The live telemetry registry: counters, gauges, and rolling-window
//! quantiles for a resident service, scrapeable while the daemon runs.
//!
//! Everything observable about a serving [`OverlayService`](crate::OverlayService) funnels into
//! one [`Telemetry`] value: per-event recovery rounds/moves/perturbed
//! sizes, queue depth and ingest/drain rates, per-client request counts,
//! and drain latency. The registry is shared by reference between the
//! serve loop (which records), the TCP scrape listener (which renders
//! [`Telemetry::render_prometheus`]) and the UDS `telemetry` query (which
//! renders [`Telemetry::to_json`]), so both export paths read the *same*
//! values.
//!
//! **Threading.** Counters and gauges are relaxed atomics; the rolling
//! windows and the per-client map live behind one `Mutex` that the serve
//! loop takes only while pushing a sample (a ring write) and a scraper
//! takes only while sorting its small window copy. The service `Clock` is
//! *never* captured here — the sim clock is `Cell`-based and not `Sync` —
//! instead the serve loop stamps [`Telemetry::heartbeat`] with its own
//! reading and every rate/age is computed against that stored instant.
//! That keeps the registry `Send + Sync` with zero clock dependencies.
//!
//! **Hot-path discipline.** Nothing here is consulted when telemetry is
//! not attached: `OverlayService` holds an `Option<Arc<Telemetry>>` and
//! takes clock timestamps only inside `if telemetry.is_some()` (the
//! equivalence test pins zero `now_micros` calls on the unobserved drain
//! path). With telemetry attached, recording one event costs two clock
//! reads, a handful of relaxed atomic adds, and one short mutex section.
//!
//! **The track.** The registry also keeps the newest [`TRACK_CAP`] events
//! as plain [`TrackRow`]s in a ring, the daemon's only per-event store.
//! Nothing is rendered while the daemon runs: the CLI takes the rows once,
//! at shutdown, for the `--metrics` table and the profile artifact.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use selfstab_engine::obs::{RateWindow, RollingWindow};
use selfstab_json::{Json, ToJson};

use crate::service::EventRecord;

/// Samples retained per rolling window (events, not time): large enough
/// that p99 over the window is meaningful, small enough that a scrape's
/// sort is trivial.
pub const WINDOW_SAMPLES: usize = 512;

/// Recency half-life (in samples) for the decayed quantiles: the newest
/// sample outweighs one `HALF_LIFE` positions back by 2×.
pub const DECAY_HALF_LIFE: f64 = 64.0;

/// Cap on the buffered `service-telemetry/v1` track (one row per event);
/// beyond it rows are dropped oldest-first and counted.
pub const TRACK_CAP: usize = 1 << 16;

/// Wire format tag for the per-event telemetry rows embedded in profile
/// artifacts (`event: "service-telemetry"` lines).
pub const TRACK_FORMAT: &str = "service-telemetry/v1";

/// The drain backend named in the summary labels and track rows. Every
/// drain runs the serial round kernel; the label stays for wire
/// compatibility with existing scrapers and recorded artifacts.
pub(crate) const BACKEND: &str = "serial";

#[derive(Default)]
struct Windows {
    recovery_rounds: Option<RollingWindow>,
    perturbed: Option<RollingWindow>,
    moves: Option<RollingWindow>,
    drain_micros: Option<RollingWindow>,
    ingest_rate: Option<RateWindow>,
    drain_rate: Option<RateWindow>,
    clients: BTreeMap<u64, u64>,
    track: VecDeque<TrackRow>,
    track_dropped: u64,
}

/// One track row: an applied event plus the drain timing the registry saw
/// for it. Plain data, so a buffered row owns no heap memory.
#[derive(Clone, Copy, Debug)]
pub struct TrackRow {
    /// The event as [`OverlayService::drain`](crate::OverlayService::drain)
    /// reported it.
    pub event: EventRecord,
    /// Service clock reading after the event's drain.
    pub t_micros: u64,
    /// Latency of the event's re-convergence drain.
    pub drain_micros: u64,
    /// Mutations still pending after the drain.
    pub queue_depth: usize,
}

impl TrackRow {
    /// The `service-telemetry/v1` row: the event's
    /// [`EventRecord::to_json`] fields, then the drain timing and backend.
    pub fn to_json(&self) -> Json {
        let mut row = self.event.to_json();
        if let Json::Object(fields) = &mut row {
            fields.extend([
                ("t_micros".to_string(), self.t_micros.to_json()),
                ("drain_micros".to_string(), self.drain_micros.to_json()),
                ("queue_depth".to_string(), self.queue_depth.to_json()),
                ("backend".to_string(), BACKEND.to_json()),
            ]);
        }
        row
    }
}

impl Windows {
    fn rolling(slot: &mut Option<RollingWindow>) -> &mut RollingWindow {
        slot.get_or_insert_with(|| RollingWindow::new(WINDOW_SAMPLES))
    }

    fn rate(slot: &mut Option<RateWindow>) -> &mut RateWindow {
        slot.get_or_insert_with(|| RateWindow::new(WINDOW_SAMPLES))
    }
}

/// The registry. See the [module docs](self).
#[derive(Default)]
pub struct Telemetry {
    // Counters (monotone).
    events_total: AtomicU64,
    mutation_errors_total: AtomicU64,
    rounds_total: AtomicU64,
    moves_total: AtomicU64,
    requests_total: AtomicU64,
    queries_total: AtomicU64,
    ingest_total: AtomicU64,
    snapshots_total: AtomicU64,
    scrapes_total: AtomicU64,
    // Gauges (last observed value).
    now_micros: AtomicU64,
    queue_depth: AtomicU64,
    accept_failures: AtomicU64,
    converged: AtomicU64,
    graph_n: AtomicU64,
    graph_m: AtomicU64,
    snapshot_last_at_micros: AtomicU64,
    snapshot_duration_micros: AtomicU64,
    snapshot_bytes: AtomicU64,
    windows: Mutex<Windows>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    fn add(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn set(gauge: &AtomicU64, value: u64) {
        gauge.store(value, Ordering::Relaxed);
    }

    /// Stamp the registry with the serve loop's current clock reading.
    /// Rates and ages in both export formats are computed against this
    /// instant, which is what lets the scrape thread render without a
    /// clock of its own (and the sim environment render deterministically).
    pub fn heartbeat(&self, now_micros: u64) {
        Self::set(&self.now_micros, now_micros);
    }

    /// A request line arrived from `client` (fairness accounting).
    pub fn record_request(&self, client: u64) {
        Self::add(&self.requests_total, 1);
        let mut w = self.windows.lock().expect("telemetry windows");
        *w.clients.entry(client).or_insert(0) += 1;
    }

    /// A query was answered.
    pub fn record_query(&self) {
        Self::add(&self.queries_total, 1);
    }

    /// A mutation was enqueued at `now_micros` (the ingest rate mark).
    pub fn record_ingest(&self, now_micros: u64) {
        Self::add(&self.ingest_total, 1);
        let mut w = self.windows.lock().expect("telemetry windows");
        Windows::rate(&mut w.ingest_rate).mark(now_micros);
    }

    /// A mutation failed validation (nothing was perturbed).
    pub fn record_mutation_error(&self) {
        Self::add(&self.mutation_errors_total, 1);
    }

    /// One event finished its re-convergence drain. `drain_micros` is the
    /// latency of this event's converge call; `now_micros` the clock after
    /// it; `queue_depth` the post-drain pending count.
    pub fn record_event(
        &self,
        record: EventRecord,
        drain_micros: u64,
        now_micros: u64,
        queue_depth: usize,
    ) {
        Self::add(&self.events_total, 1);
        Self::add(&self.rounds_total, record.recovery_rounds as u64);
        Self::add(&self.moves_total, record.moves);
        Self::set(&self.converged, record.converged as u64);
        Self::set(&self.queue_depth, queue_depth as u64);
        let mut w = self.windows.lock().expect("telemetry windows");
        Windows::rolling(&mut w.recovery_rounds).push(record.recovery_rounds as u64);
        Windows::rolling(&mut w.perturbed).push(record.perturbed as u64);
        Windows::rolling(&mut w.moves).push(record.moves);
        Windows::rolling(&mut w.drain_micros).push(drain_micros);
        Windows::rate(&mut w.drain_rate).mark(now_micros);
        if w.track.len() == TRACK_CAP {
            w.track.pop_front();
            w.track_dropped += 1;
        }
        w.track.push_back(TrackRow {
            event: record,
            t_micros: now_micros,
            drain_micros,
            queue_depth,
        });
    }

    /// A background snapshot was written at `at_micros`, taking
    /// `duration_micros` and `bytes` on disk.
    pub fn record_snapshot(&self, at_micros: u64, duration_micros: u64, bytes: u64) {
        Self::add(&self.snapshots_total, 1);
        Self::set(&self.snapshot_last_at_micros, at_micros);
        Self::set(&self.snapshot_duration_micros, duration_micros);
        Self::set(&self.snapshot_bytes, bytes);
    }

    /// One scrape was served (recorded by the TCP listener).
    pub fn record_scrape(&self) {
        Self::add(&self.scrapes_total, 1);
    }

    /// Refresh the cheap service gauges (queue depth, graph size,
    /// convergence, transport accept failures). The serve loop calls this
    /// once per iteration.
    pub fn observe_service(
        &self,
        queue_depth: usize,
        n: usize,
        m: usize,
        converged: bool,
        accept_failures: u64,
    ) {
        Self::set(&self.queue_depth, queue_depth as u64);
        Self::set(&self.graph_n, n as u64);
        Self::set(&self.graph_m, m as u64);
        Self::set(&self.converged, converged as u64);
        Self::set(&self.accept_failures, accept_failures);
    }

    /// Mutations applied since boot (monotone; the scrape-under-churn test
    /// asserts this never regresses between scrapes).
    pub fn events_total(&self) -> u64 {
        Self::get(&self.events_total)
    }

    /// Scrapes served since boot.
    pub fn scrapes_total(&self) -> u64 {
        Self::get(&self.scrapes_total)
    }

    /// Snapshots written since boot.
    pub fn snapshots_total(&self) -> u64 {
        Self::get(&self.snapshots_total)
    }

    /// Drain and return the buffered track rows (oldest first) plus the
    /// count of rows dropped at [`TRACK_CAP`]. The CLI calls this once at
    /// shutdown, for both the `--metrics` table and the profile artifact.
    pub fn take_track(&self) -> (Vec<TrackRow>, u64) {
        let mut w = self.windows.lock().expect("telemetry windows");
        (std::mem::take(&mut w.track).into(), w.track_dropped)
    }

    /// Per-client request counts (fairness), client id → requests.
    pub fn client_requests(&self) -> Vec<(u64, u64)> {
        let w = self.windows.lock().expect("telemetry windows");
        w.clients.iter().map(|(&c, &n)| (c, n)).collect()
    }

    fn summary_rows(w: &mut Windows) -> Vec<SummaryRow> {
        let now = |slot: &mut Option<RollingWindow>| -> WindowStats {
            let win = Windows::rolling(slot);
            WindowStats {
                count: win.pushed(),
                p50: win.quantile(0.5).unwrap_or(0),
                p99: win.quantile(0.99).unwrap_or(0),
                p99_decayed: win.decayed_quantile(0.99, DECAY_HALF_LIFE).unwrap_or(0),
                max: win.max().unwrap_or(0),
            }
        };
        vec![
            SummaryRow {
                name: "recovery_rounds",
                help: "Per-event re-stabilization latency in rounds (rolling window)",
                stats: now(&mut w.recovery_rounds),
            },
            SummaryRow {
                name: "perturbed",
                help: "Per-event perturbed-region size in nodes (rolling window)",
                stats: now(&mut w.perturbed),
            },
            SummaryRow {
                name: "moves",
                help: "Per-event repair moves (rolling window)",
                stats: now(&mut w.moves),
            },
            SummaryRow {
                name: "drain_micros",
                help: "Per-event drain latency in microseconds (rolling window)",
                stats: now(&mut w.drain_micros),
            },
        ]
    }

    /// Render the whole registry in Prometheus text exposition format
    /// (version 0.0.4). Quantile-less windows render 0, never NaN.
    pub fn render_prometheus(&self) -> String {
        let now = Self::get(&self.now_micros);
        let mut out = String::with_capacity(4096);
        let counters: [(&str, &str, u64); 9] = [
            (
                "selfstab_events_total",
                "Mutations applied since boot",
                Self::get(&self.events_total),
            ),
            (
                "selfstab_mutation_errors_total",
                "Mutations rejected by validation since boot",
                Self::get(&self.mutation_errors_total),
            ),
            (
                "selfstab_rounds_total",
                "Synchronous recovery rounds executed for events since boot",
                Self::get(&self.rounds_total),
            ),
            (
                "selfstab_moves_total",
                "Protocol moves applied for events since boot",
                Self::get(&self.moves_total),
            ),
            (
                "selfstab_requests_total",
                "Request lines dispatched since boot",
                Self::get(&self.requests_total),
            ),
            (
                "selfstab_queries_total",
                "Queries answered since boot",
                Self::get(&self.queries_total),
            ),
            (
                "selfstab_ingest_total",
                "Mutations enqueued since boot",
                Self::get(&self.ingest_total),
            ),
            (
                "selfstab_snapshots_total",
                "Background snapshots written since boot",
                Self::get(&self.snapshots_total),
            ),
            (
                "selfstab_scrapes_total",
                "Telemetry scrape connections accepted since boot",
                Self::get(&self.scrapes_total),
            ),
        ];
        for (name, help, value) in counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        let snapshot_at = Self::get(&self.snapshot_last_at_micros);
        let snapshot_age = if Self::get(&self.snapshots_total) == 0 {
            0
        } else {
            now.saturating_sub(snapshot_at)
        };
        let gauges: [(&str, &str, u64); 7] = [
            (
                "selfstab_queue_depth",
                "Mutations enqueued but not yet applied",
                Self::get(&self.queue_depth),
            ),
            (
                "selfstab_accept_failures",
                "Clients dropped because the transport could not clone their stream",
                Self::get(&self.accept_failures),
            ),
            (
                "selfstab_converged",
                "Whether the structure is at a legitimate fixpoint (0/1)",
                Self::get(&self.converged),
            ),
            (
                "selfstab_graph_nodes",
                "Nodes in the live graph",
                Self::get(&self.graph_n),
            ),
            (
                "selfstab_graph_edges",
                "Edges in the live graph",
                Self::get(&self.graph_m),
            ),
            (
                "selfstab_snapshot_age_micros",
                "Microseconds since the last background snapshot (0 before the first)",
                snapshot_age,
            ),
            (
                "selfstab_snapshot_duration_micros",
                "Time the last background snapshot took to render and write",
                Self::get(&self.snapshot_duration_micros),
            ),
        ];
        for (name, help, value) in gauges {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP selfstab_snapshot_bytes Size of the last background snapshot document\n# TYPE selfstab_snapshot_bytes gauge\nselfstab_snapshot_bytes {}\n",
            Self::get(&self.snapshot_bytes)
        ));
        let mut w = self.windows.lock().expect("telemetry windows");
        for row in Self::summary_rows(&mut w) {
            let name = format!("selfstab_{}", row.name);
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} summary\n",
                help = row.help
            ));
            out.push_str(&format!(
                "{name}{{backend=\"{BACKEND}\",quantile=\"0.5\"}} {}\n",
                row.stats.p50
            ));
            out.push_str(&format!(
                "{name}{{backend=\"{BACKEND}\",quantile=\"0.99\"}} {}\n",
                row.stats.p99
            ));
            out.push_str(&format!(
                "{name}{{backend=\"{BACKEND}\",quantile=\"0.99\",decay=\"recent\"}} {}\n",
                row.stats.p99_decayed
            ));
            out.push_str(&format!(
                "{name}{{backend=\"{BACKEND}\",quantile=\"1\"}} {}\n",
                row.stats.max
            ));
            out.push_str(&format!("{name}_count {}\n", row.stats.count));
        }
        let ingest = Windows::rate(&mut w.ingest_rate).per_sec(now);
        let drain = Windows::rate(&mut w.drain_rate).per_sec(now);
        out.push_str(&format!(
            "# HELP selfstab_ingest_rate Mutations enqueued per second over the rolling window\n# TYPE selfstab_ingest_rate gauge\nselfstab_ingest_rate {ingest:.6}\n"
        ));
        out.push_str(&format!(
            "# HELP selfstab_drain_rate Events drained per second over the rolling window\n# TYPE selfstab_drain_rate gauge\nselfstab_drain_rate {drain:.6}\n"
        ));
        out.push_str(
            "# HELP selfstab_client_requests_total Request lines per client connection\n# TYPE selfstab_client_requests_total counter\n",
        );
        for (client, count) in &w.clients {
            out.push_str(&format!(
                "selfstab_client_requests_total{{client=\"{client}\"}} {count}\n"
            ));
        }
        out
    }

    /// The same values as [`Telemetry::render_prometheus`], as one JSON
    /// object (the `telemetry` UDS query body).
    pub fn to_json(&self) -> Json {
        let now = Self::get(&self.now_micros);
        let snapshot_age = if Self::get(&self.snapshots_total) == 0 {
            0
        } else {
            now.saturating_sub(Self::get(&self.snapshot_last_at_micros))
        };
        let mut w = self.windows.lock().expect("telemetry windows");
        let windows: Vec<(String, Json)> = Self::summary_rows(&mut w)
            .into_iter()
            .map(|row| {
                (
                    row.name.to_string(),
                    Json::obj([
                        ("count", row.stats.count.to_json()),
                        ("p50", row.stats.p50.to_json()),
                        ("p99", row.stats.p99.to_json()),
                        ("p99_decayed", row.stats.p99_decayed.to_json()),
                        ("max", row.stats.max.to_json()),
                    ]),
                )
            })
            .collect();
        let clients: Vec<Json> = w
            .clients
            .iter()
            .map(|(&c, &n)| Json::obj([("client", c.to_json()), ("requests", n.to_json())]))
            .collect();
        let ingest = Windows::rate(&mut w.ingest_rate).per_sec(now);
        let drain = Windows::rate(&mut w.drain_rate).per_sec(now);
        Json::obj([
            ("format", TRACK_FORMAT.to_json()),
            ("events", Self::get(&self.events_total).to_json()),
            (
                "mutation_errors",
                Self::get(&self.mutation_errors_total).to_json(),
            ),
            ("rounds", Self::get(&self.rounds_total).to_json()),
            ("moves", Self::get(&self.moves_total).to_json()),
            ("requests", Self::get(&self.requests_total).to_json()),
            ("queries", Self::get(&self.queries_total).to_json()),
            ("ingest", Self::get(&self.ingest_total).to_json()),
            ("snapshots", Self::get(&self.snapshots_total).to_json()),
            ("scrapes", Self::get(&self.scrapes_total).to_json()),
            ("queue_depth", Self::get(&self.queue_depth).to_json()),
            (
                "accept_failures",
                Self::get(&self.accept_failures).to_json(),
            ),
            ("converged", (Self::get(&self.converged) == 1).to_json()),
            ("n", Self::get(&self.graph_n).to_json()),
            ("m", Self::get(&self.graph_m).to_json()),
            ("snapshot_age_micros", snapshot_age.to_json()),
            (
                "snapshot_duration_micros",
                Self::get(&self.snapshot_duration_micros).to_json(),
            ),
            ("snapshot_bytes", Self::get(&self.snapshot_bytes).to_json()),
            ("ingest_rate", ingest.to_json()),
            ("drain_rate", drain.to_json()),
            ("windows", Json::Object(windows)),
            ("clients", Json::Array(clients)),
        ])
    }
}

struct WindowStats {
    count: u64,
    p50: u64,
    p99: u64,
    p99_decayed: u64,
    max: u64,
}

struct SummaryRow {
    name: &'static str,
    help: &'static str,
    stats: WindowStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, rounds: usize, moves: u64, converged: bool) -> EventRecord {
        EventRecord {
            seq,
            kind: "edge-down",
            round: rounds,
            perturbed: 4,
            recovery_rounds: rounds,
            moves,
            converged,
        }
    }

    #[test]
    fn exposition_has_key_metrics_and_no_nan() {
        let t = Telemetry::new();
        t.heartbeat(1_000_000);
        t.record_ingest(10);
        t.record_request(1);
        t.record_event(record(1, 2, 3, true), 150, 500, 0);
        let text = t.render_prometheus();
        for needle in [
            "# TYPE selfstab_events_total counter",
            "selfstab_events_total 1",
            "selfstab_ingest_total 1",
            "selfstab_queue_depth 0",
            "selfstab_recovery_rounds{backend=\"serial\",quantile=\"0.99\"} 2",
            "selfstab_recovery_rounds_count 1",
            "selfstab_drain_micros{backend=\"serial\",quantile=\"0.5\"} 150",
            "selfstab_client_requests_total{client=\"1\"} 1",
            "selfstab_ingest_rate",
            "selfstab_snapshot_age_micros 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("NaN"), "exposition must not contain NaN");
        assert!(!text.contains("inf"), "exposition must not contain inf");
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line");
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn prometheus_and_json_agree() {
        let t = Telemetry::new();
        t.heartbeat(2_000_000);
        for i in 1..=5 {
            t.record_event(record(i, i as usize, 2 * i, true), 100 * i, 0, 1);
        }
        t.record_snapshot(1_500_000, 42, 1000);
        let text = t.render_prometheus();
        let json = t.to_json();
        assert_eq!(json.get("events").and_then(Json::as_u64), Some(5));
        assert!(text.contains("selfstab_events_total 5"));
        let p99 = json
            .get("windows")
            .and_then(|w| w.get("recovery_rounds"))
            .and_then(|r| r.get("p99"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(text.contains(&format!(
            "selfstab_recovery_rounds{{backend=\"serial\",quantile=\"0.99\"}} {p99}"
        )));
        // Snapshot age is now − last-at under both renderings.
        assert_eq!(
            json.get("snapshot_age_micros").and_then(Json::as_u64),
            Some(500_000)
        );
        assert!(text.contains("selfstab_snapshot_age_micros 500000"));
        assert!(text.contains("selfstab_snapshot_bytes 1000"));
    }

    #[test]
    fn track_buffers_and_drains_rows() {
        let t = Telemetry::new();
        t.record_event(record(1, 1, 1, true), 10, 100, 0);
        t.record_event(record(2, 1, 1, false), 20, 200, 3);
        let (rows, dropped) = t.take_track();
        assert_eq!(rows.len(), 2);
        assert_eq!(dropped, 0);
        assert_eq!(rows[1].event.seq, 2);
        assert_eq!(rows[1].queue_depth, 3);
        assert!(!rows[1].event.converged);
        // The rendered row is the event's fields plus timing and backend.
        let json = rows[1].to_json();
        assert_eq!(json.get("seq").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("drain_micros").and_then(Json::as_u64), Some(20));
        assert_eq!(json.get("backend").and_then(Json::as_str), Some("serial"));
        // Drained: a second take is empty.
        assert!(t.take_track().0.is_empty());
    }

    #[test]
    fn track_keeps_the_newest_cap_rows_and_counts_the_rest() {
        let t = Telemetry::new();
        for seq in 1..=(TRACK_CAP + 3) as u64 {
            t.record_event(record(seq, 1, 1, true), 1, seq, 0);
        }
        let (rows, dropped) = t.take_track();
        assert_eq!(rows.len(), TRACK_CAP);
        assert_eq!(dropped, 3);
        assert_eq!(rows[0].event.seq, 4, "the three oldest rows are evicted");
        assert_eq!(rows[TRACK_CAP - 1].event.seq, (TRACK_CAP + 3) as u64);
    }
}
