//! Durable service snapshots: the live graph + the wire-encoded global
//! state + the round clock, as one JSON document.
//!
//! A snapshot of a converged service is a *legitimate* configuration, so a
//! daemon restarted from one re-stabilizes in zero rounds — that is the
//! self-stabilization story applied to process restarts, and the
//! snapshot-reload test pins it. The per-node states ride as hex-encoded
//! [`WireState`] bytes (the same encoding beacon frames use), keeping the
//! document protocol-agnostic.

use selfstab_engine::protocol::WireState;
use selfstab_graph::{Graph, Node};
use selfstab_json::{Json, ToJson};

/// The format tag written into (and required of) every snapshot document.
pub const FORMAT: &str = "selfstab-snapshot/v1";

/// Render a snapshot document.
pub fn write_snapshot<S: WireState>(
    protocol: &str,
    graph: &Graph,
    states: &[S],
    clock_rounds: usize,
) -> String {
    let mut bytes = Vec::new();
    for s in states {
        s.encode(&mut bytes);
    }
    let edges: Vec<Json> = graph
        .nodes()
        .flat_map(|u| {
            graph
                .neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| Json::Array(vec![u.index().to_json(), v.index().to_json()]))
        })
        .collect();
    Json::obj([
        ("format", FORMAT.to_json()),
        ("protocol", protocol.to_json()),
        ("n", graph.n().to_json()),
        ("clock_rounds", clock_rounds.to_json()),
        ("edges", Json::Array(edges)),
        ("states", hex(&bytes).to_json()),
    ])
    .to_string()
}

/// A parsed (but not yet state-decoded) snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Protocol name the snapshot was taken under.
    pub protocol: String,
    /// Node count.
    pub n: usize,
    /// Absolute round clock at snapshot time.
    pub clock_rounds: usize,
    /// Undirected edge list.
    pub edges: Vec<(usize, usize)>,
    state_bytes: Vec<u8>,
}

impl Snapshot {
    /// Parse a snapshot document.
    ///
    /// `n` is checked against what the rest of the document can back
    /// before anything is sized by it: it must fit a node index (`u32`),
    /// and it may not exceed the number of state bytes, since every state
    /// a service runs encodes to at least one byte.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = Json::parse(text.trim()).map_err(|e| e.to_string())?;
        let format = v
            .get("format")
            .and_then(Json::as_str)
            .ok_or("missing `format`")?;
        if format != FORMAT {
            return Err(format!("unsupported snapshot format '{format}'"));
        }
        let protocol = v
            .get("protocol")
            .and_then(Json::as_str)
            .ok_or("missing `protocol`")?
            .to_string();
        let n = v.get("n").and_then(Json::as_u64).ok_or("missing `n`")?;
        if n > u64::from(u32::MAX) {
            return Err(format!("`n` = {n} exceeds the node index range (u32)"));
        }
        let n = n as usize;
        let clock_rounds = v
            .get("clock_rounds")
            .and_then(Json::as_u64)
            .ok_or("missing `clock_rounds`")? as usize;
        let mut edges = Vec::new();
        for e in v
            .get("edges")
            .and_then(Json::as_array)
            .ok_or("missing `edges` array")?
        {
            let pair = e.as_array().ok_or("edge is not a pair")?;
            let get = |i: usize| -> Result<usize, String> {
                pair.get(i)
                    .and_then(Json::as_u64)
                    .map(|x| x as usize)
                    .ok_or_else(|| "edge endpoint is not an index".to_string())
            };
            if pair.len() != 2 {
                return Err("edge is not a pair".into());
            }
            let (a, b) = (get(0)?, get(1)?);
            if a >= n || b >= n || a == b {
                return Err(format!("invalid edge {a}-{b} (n = {n})"));
            }
            edges.push((a, b));
        }
        let state_bytes = unhex(
            v.get("states")
                .and_then(Json::as_str)
                .ok_or("missing `states` hex string")?,
        )?;
        if n > state_bytes.len() {
            return Err(format!(
                "`n` = {n} exceeds the {} bytes of `states`",
                state_bytes.len()
            ));
        }
        Ok(Snapshot {
            protocol,
            n,
            clock_rounds,
            edges,
            state_bytes,
        })
    }

    /// Rebuild the graph.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::empty(self.n);
        for &(a, b) in &self.edges {
            g.add_edge(Node(a as u32), Node(b as u32));
        }
        g
    }

    /// Decode the per-node states; errors if the byte stream does not hold
    /// exactly `n` values.
    pub fn decode_states<S: WireState>(&self) -> Result<Vec<S>, String> {
        let mut states = Vec::with_capacity(self.n);
        let mut rest: &[u8] = &self.state_bytes;
        for i in 0..self.n {
            let (s, used) = S::decode_prefix(rest).map_err(|e| format!("state {i}: {e}"))?;
            states.push(s);
            rest = &rest[used..];
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing state bytes", rest.len()));
        }
        Ok(states)
    }
}

/// How often the background scheduler snapshots: every `k` applied events
/// or every `d` of service-clock time. Parsed from `--snapshot-every`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotCadence {
    /// Snapshot once `k` further events have been applied.
    Events(u64),
    /// Snapshot once `d` microseconds of service-clock time have passed.
    Micros(u64),
}

impl SnapshotCadence {
    /// Parse a cadence spec: a bare integer means events (`"250"`), an
    /// integer with a `s`/`ms` suffix means service-clock time (`"30s"`,
    /// `"500ms"`). Zero is rejected in every unit.
    pub fn parse(spec: &str) -> Result<SnapshotCadence, String> {
        let spec = spec.trim();
        let (digits, scale) = if let Some(d) = spec.strip_suffix("ms") {
            (d, Some(1_000u64))
        } else if let Some(d) = spec.strip_suffix('s') {
            (d, Some(1_000_000u64))
        } else {
            (spec, None)
        };
        let value: u64 = digits
            .parse()
            .map_err(|_| format!("invalid snapshot cadence '{spec}' (want N, Ns, or Nms)"))?;
        if value == 0 {
            return Err("snapshot cadence must be positive".into());
        }
        Ok(match scale {
            None => SnapshotCadence::Events(value),
            Some(s) => SnapshotCadence::Micros(
                value
                    .checked_mul(s)
                    .ok_or_else(|| format!("snapshot cadence '{spec}' overflows"))?,
            ),
        })
    }
}

/// Where the scheduler writes: a file path (production; tmp + rename so a
/// crash mid-write never truncates the previous snapshot) or an in-memory
/// list (deterministic tests).
enum SnapshotSink {
    File(std::path::PathBuf),
    Memory(Vec<String>),
}

/// The background snapshot scheduler: driven by the serve loop on the
/// service's [`Clock`](crate::env::Clock), so under the sim environment
/// snapshot timing is a pure function of the event/advance script — the
/// determinism the scheduler proptests rely on.
pub struct SnapshotScheduler {
    cadence: SnapshotCadence,
    sink: SnapshotSink,
    last_events: u64,
    last_at_micros: u64,
    written: u64,
}

impl SnapshotScheduler {
    /// A scheduler writing snapshot documents to `path`.
    pub fn to_file(cadence: SnapshotCadence, path: impl Into<std::path::PathBuf>) -> Self {
        SnapshotScheduler {
            cadence,
            sink: SnapshotSink::File(path.into()),
            last_events: 0,
            last_at_micros: 0,
            written: 0,
        }
    }

    /// A scheduler buffering snapshot documents in memory (tests).
    pub fn in_memory(cadence: SnapshotCadence) -> Self {
        SnapshotScheduler {
            cadence,
            sink: SnapshotSink::Memory(Vec::new()),
            last_events: 0,
            last_at_micros: 0,
            written: 0,
        }
    }

    /// Snapshots written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The buffered documents (memory sink only; empty for the file sink).
    pub fn documents(&self) -> &[String] {
        match &self.sink {
            SnapshotSink::Memory(docs) => docs,
            SnapshotSink::File(_) => &[],
        }
    }

    /// One scheduler tick: check due-ness against the cadence, write a
    /// snapshot if due, and refresh the telemetry snapshot gauges. The
    /// serve loop calls this every iteration; a tick that isn't due costs
    /// one clock read and two integer compares (and the loop only ticks a
    /// scheduler that was configured — the unobserved path never gets
    /// here). Returns whether a snapshot was written.
    pub fn tick<P: crate::overlay::OverlayProtocol>(
        &mut self,
        svc: &crate::service::OverlayService<'_, P>,
        clock: &dyn crate::env::Clock,
        telemetry: Option<&crate::telemetry::Telemetry>,
    ) -> Result<bool, String> {
        let now = clock.now_micros();
        let due = match self.cadence {
            SnapshotCadence::Events(k) => {
                svc.events_applied().saturating_sub(self.last_events) >= k
            }
            SnapshotCadence::Micros(d) => now.saturating_sub(self.last_at_micros) >= d,
        };
        if !due {
            return Ok(false);
        }
        let doc = write_snapshot(
            svc.proto().name(),
            svc.graph(),
            svc.states(),
            svc.clock_rounds(),
        );
        let bytes = doc.len() as u64;
        match &mut self.sink {
            SnapshotSink::Memory(docs) => docs.push(doc),
            SnapshotSink::File(path) => {
                // tmp + rename: the previous snapshot survives any crash
                // mid-write, so a resume always sees a complete document.
                let tmp = path.with_extension("tmp");
                std::fs::write(&tmp, &doc)
                    .map_err(|e| format!("snapshot write {}: {e}", tmp.display()))?;
                std::fs::rename(&tmp, &path)
                    .map_err(|e| format!("snapshot rename {}: {e}", path.display()))?;
            }
        }
        self.last_events = svc.events_applied();
        self.last_at_micros = now;
        self.written += 1;
        if let Some(t) = telemetry {
            // Under SimClock render+write advances no virtual time, so the
            // duration gauge is deterministically 0 in tests and a real
            // measurement under the daemon's monotonic clock.
            t.record_snapshot(now, clock.now_micros().saturating_sub(now), bytes);
        }
        Ok(true)
    }
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

fn unhex(text: &str) -> Result<Vec<u8>, String> {
    let raw = text.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("invalid hex byte {other:#04x}")),
        }
    };
    raw.chunks_exact(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use selfstab_core::Pointer;
    use selfstab_graph::generators;

    /// `key`'s value in a written snapshot document.
    fn field<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Object(fields) = doc else {
            panic!("a written snapshot is an object");
        };
        let (_, value) = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("a written field");
        value
    }

    /// A valid SMM snapshot of a graph on up to 12 nodes, then one to three
    /// edits, each replacing `n` (any `u64`, one past `u32`, or small), an
    /// edge endpoint, or the `states` hex (the hex of arbitrary bytes, or
    /// arbitrary characters).
    fn arb_hostile_snapshot() -> impl Strategy<Value = String> {
        (1usize..=12).prop_flat_map(|n| {
            (
                collection::vec(any::<bool>(), n * (n - 1) / 2),
                collection::vec(any::<u32>(), n),
                collection::vec(
                    (0u8..3, any::<u64>(), collection::vec(any::<u8>(), 0..40)),
                    1..4,
                ),
            )
                .prop_map(move |(bits, pointers, edits)| {
                    let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
                    let edges = pairs.zip(bits).filter(|&(_, on)| on).map(|(e, _)| e);
                    let g = Graph::from_edges(n, edges);
                    // Any node, or null one time in n + 1.
                    let states: Vec<Pointer> = pointers
                        .iter()
                        .map(|&t| t % (n as u32 + 1))
                        .map(|p| Pointer((p < n as u32).then_some(Node(p))))
                        .collect();
                    let mut doc = Json::parse(&write_snapshot("smm", &g, &states, 0))
                        .expect("a written snapshot is JSON");
                    for (target, x, bytes) in edits {
                        match target {
                            0 => {
                                let n = match bytes.len() % 3 {
                                    0 => x,
                                    1 => x % (u64::from(u32::MAX) + 2),
                                    _ => x % 64,
                                };
                                *field(&mut doc, "n") = n.to_json();
                            }
                            1 => {
                                if let Json::Array(list) = field(&mut doc, "edges") {
                                    let i = x as usize % list.len().max(1);
                                    if let Some(Json::Array(pair)) = list.get_mut(i) {
                                        let end = if bytes.len() % 2 == 0 { x } else { x % 16 };
                                        pair[bytes.len() / 2 % 2] = end.to_json();
                                    }
                                }
                            }
                            _ => {
                                let states = if x % 2 == 0 {
                                    hex(&bytes)
                                } else {
                                    bytes.iter().map(|&b| char::from(b)).collect()
                                };
                                *field(&mut doc, "states") = states.to_json();
                            }
                        }
                    }
                    doc.to_string()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A hostile document is rejected, or goes through the graph
        /// rebuild and both state decodings without a panic.
        #[test]
        fn hostile_snapshots_are_rejected_or_load_cleanly(doc in arb_hostile_snapshot()) {
            if let Ok(snap) = Snapshot::parse(&doc) {
                prop_assert_eq!(snap.graph().n(), snap.n);
                let _ = snap.decode_states::<Pointer>();
                let _ = snap.decode_states::<bool>();
            }
        }
    }

    #[test]
    fn snapshot_round_trips_graph_and_states() {
        let g = generators::cycle(5);
        let states: Vec<Pointer> = vec![
            Pointer(Some(Node(1))),
            Pointer(Some(Node(0))),
            Pointer(None),
            Pointer(Some(Node(4))),
            Pointer(Some(Node(3))),
        ];
        let doc = write_snapshot("smm", &g, &states, 17);
        let snap = Snapshot::parse(&doc).unwrap();
        assert_eq!(snap.protocol, "smm");
        assert_eq!(snap.n, 5);
        assert_eq!(snap.clock_rounds, 17);
        let g2 = snap.graph();
        assert_eq!(g2.m(), g.m());
        for u in g.nodes() {
            assert_eq!(g2.neighbors(u), g.neighbors(u));
        }
        assert_eq!(snap.decode_states::<Pointer>().unwrap(), states);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let g = generators::path(3);
        let states = vec![false, true, false];
        let doc = write_snapshot("smi", &g, &states, 0);
        Snapshot::parse(&doc.replace("selfstab-snapshot/v1", "v0")).unwrap_err();
        Snapshot::parse("{}").unwrap_err();
        Snapshot::parse("not json").unwrap_err();
        // Truncated state bytes: n bools need n bytes, and no state takes
        // fewer than one, so the parse already rejects the document.
        let snap = Snapshot::parse(&doc).unwrap();
        assert_eq!(snap.decode_states::<bool>().unwrap(), states);
        let bad = doc.replace(&hex(&[0u8, 1, 0]), "00");
        Snapshot::parse(&bad).unwrap_err();
        // Enough bytes for the count, but not a bool each, or one too many.
        for bytes in [[0u8, 2, 0].as_slice(), &[0, 1, 0, 1]] {
            let bad = doc.replace(&hex(&[0u8, 1, 0]), &hex(bytes));
            Snapshot::parse(&bad)
                .unwrap()
                .decode_states::<bool>()
                .unwrap_err();
        }
    }

    #[test]
    fn snapshot_rejects_a_node_count_past_the_index_range() {
        let doc = write_snapshot("smm", &generators::path(2), &[Pointer::NULL; 2], 0);
        let bad = doc.replace("\"n\":2", "\"n\":5000000000");
        let err = Snapshot::parse(&bad).unwrap_err();
        assert!(err.contains("`n`"), "{err}");
    }

    #[test]
    fn snapshot_rejects_a_node_count_the_state_bytes_cannot_back() {
        // n just under u32::MAX and one state byte: rejected before any
        // graph or state vector is sized by n.
        let doc = write_snapshot("smi", &generators::path(1), &[false], 0);
        let bad = doc.replace("\"n\":1", &format!("\"n\":{}", u32::MAX - 1));
        let err = Snapshot::parse(&bad).unwrap_err();
        assert!(err.contains("`n`") && err.contains("`states`"), "{err}");
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
        unhex("0").unwrap_err();
        unhex("zz").unwrap_err();
    }
}
