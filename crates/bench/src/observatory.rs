//! The standing performance observatory behind `selfstab bench`.
//!
//! A pinned measurement matrix — protocol × topology × executor ×
//! schedule — runs over [`Suite`]'s seeded grid and serializes one
//! schema-versioned artifact (`BENCH_<pr>.json` at the repo root) per
//! invocation. Every quantity comes from plumbing that already exists:
//! guard-evaluation counts and round totals from the [`MetricsCollector`],
//! wire bytes / suppressed frames / inbox depth from the sharded runtime's
//! [`RuntimeCounters`], and straggler / barrier-share summaries from the
//! per-lane [`ShardProfile`]s folded through [`SkewAccumulator`] — the
//! observatory adds **no instrumentation to the hot path**.
//!
//! Timing honesty: per cell we do exactly one *observed* run (deterministic
//! counters; never timed — observers pay clock and journal costs) and
//! `reps` *unobserved* runs from the identical initial state, timing only
//! the executor's `run`. Repetitions therefore measure scheduling noise,
//! not workload variation, and their median/IQR (via
//! [`selfstab_analysis::stats::Summary`]) is what the noise-aware
//! comparator in [`compare`] gates on.
//!
//! [`RuntimeCounters`]: selfstab_engine::obs::RuntimeCounters
//! [`ShardProfile`]: selfstab_engine::obs::ShardProfile

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::gate::{Direction, MetricPoint, NoiseGate, Verdict};
use selfstab_analysis::{SkewAccumulator, Summary};
use selfstab_core::hsu_huang::HsuHuang;
use selfstab_core::smi::Smi;
use selfstab_core::smm::Smm;
use selfstab_engine::active::Schedule;
use selfstab_engine::obs::MetricsCollector;
use selfstab_engine::protocol::{InitialState, Protocol, WireState};
use selfstab_engine::sync::SyncExecutor;
use selfstab_graph::{generators, Graph, Ids};
use selfstab_json::{FromJson, Json, JsonError, ToJson};
use selfstab_runtime::RuntimeExecutor;

use crate::suite::Suite;

/// Artifact schema identifier; bump on any incompatible record change.
pub const SCHEMA: &str = "selfstab-bench/v1";

/// Shard counts the runtime executor is measured at.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Measurement tier: how big the instances are and how many repetitions
/// each cell gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// CI tier: small instances, one repetition, full matrix in seconds.
    Quick,
    /// Trajectory tier: the 10⁵-node cells from E18/E21, three timed
    /// repetitions per cell.
    Default,
}

impl Tier {
    /// Instance size the tier pins.
    pub fn n(self) -> usize {
        match self {
            Tier::Quick => 256,
            Tier::Default => 100_000,
        }
    }

    /// Timed repetitions per cell.
    pub fn reps(self) -> usize {
        match self {
            Tier::Quick => 1,
            Tier::Default => 3,
        }
    }

    /// Tier name as stored in the artifact header.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Default => "default",
        }
    }
}

/// Protocol axis of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The paper's maximal-matching protocol (min-ID policies).
    Smm,
    /// The paper's maximal-independent-set protocol.
    Smi,
    /// The Hsu–Huang matching baseline (index policies).
    HsuHuang,
}

impl ProtocolKind {
    /// All protocols in matrix order.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Smm, ProtocolKind::Smi, ProtocolKind::HsuHuang];

    /// Label used in cell ids.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Smm => "smm",
            ProtocolKind::Smi => "smi",
            ProtocolKind::HsuHuang => "hsu-huang",
        }
    }
}

/// Topology axis of the matrix: the two structured extremes plus the
/// paper's ad hoc model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Path: maximum diameter, minimum degree.
    Path,
    /// Star: diameter 2, one hub touching every edge.
    Star,
    /// Connected random geometric graph (the ad hoc model).
    UnitDisk,
}

impl TopologyKind {
    /// All topologies in matrix order.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Path,
        TopologyKind::Star,
        TopologyKind::UnitDisk,
    ];

    /// Label used in cell ids (matches `Suite` instance labels).
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Path => "path",
            TopologyKind::Star => "star",
            TopologyKind::UnitDisk => "unit-disk",
        }
    }

    /// Build the topology at size `n` on `Suite`'s seeded grid.
    pub fn build(self, n: usize, suite: &Suite) -> Graph {
        match self {
            TopologyKind::Path => generators::path(n),
            TopologyKind::Star => generators::star(n),
            TopologyKind::UnitDisk => {
                let mut rng = StdRng::seed_from_u64(suite.rep_seed(self.name(), n, 0));
                // Same radius rule as `Suite::instances`: keeps the random
                // geometric graph connected with few rejections.
                let radius = (2.2 * (n as f64).ln() / n as f64).sqrt().min(1.0);
                generators::random_geometric_connected(n, radius, &mut rng)
            }
        }
    }
}

/// Executor axis of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecKind {
    /// Serial synchronous executor.
    Serial,
    /// Sharded mailbox runtime at the given shard count.
    Runtime(usize),
}

impl ExecKind {
    /// All executor variants in matrix order.
    pub fn all() -> Vec<ExecKind> {
        let mut v = vec![ExecKind::Serial];
        v.extend(SHARD_COUNTS.iter().map(|&k| ExecKind::Runtime(k)));
        v
    }

    /// Label used in cell ids, e.g. `runtime@4`.
    pub fn name(self) -> String {
        match self {
            ExecKind::Serial => "serial".into(),
            ExecKind::Runtime(k) => format!("runtime@{k}"),
        }
    }
}

/// Wire and shard-balance quantities a sharded-runtime cell carries
/// (absent for serial cells, which have no wire).
#[derive(Clone, Debug, PartialEq)]
pub struct WireSummary {
    /// Mean encoded boundary-beacon bytes per round.
    pub bytes_per_round: f64,
    /// Total boundary frames sent.
    pub frames: u64,
    /// Boundary beacons elided by delta suppression (0 under `full`).
    pub frames_suppressed: u64,
    /// Deepest any cross-shard channel ever got.
    pub peak_inbox: u64,
    /// Mean per-round slowest-lane / mean-lane time ratio (1.0 = balanced).
    pub mean_skew: f64,
    /// Mean fraction of summed lane time spent blocked on the barrier.
    pub barrier_share: f64,
    /// Lane that was slowest most often.
    pub straggler: Option<usize>,
    /// Per-lane summed round time, µs (index = lane). Kept so `selfstab
    /// analyze` can re-feed a [`SkewAccumulator`] offline.
    pub lane_micros: Vec<u64>,
    /// Per-lane inbox high-water mark (index = lane).
    pub lane_inbox: Vec<u64>,
}

impl ToJson for WireSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bytes_per_round", self.bytes_per_round.to_json()),
            ("frames", self.frames.to_json()),
            ("frames_suppressed", self.frames_suppressed.to_json()),
            ("peak_inbox", self.peak_inbox.to_json()),
            ("mean_skew", self.mean_skew.to_json()),
            ("barrier_share", self.barrier_share.to_json()),
            ("straggler", self.straggler.to_json()),
            ("lane_micros", self.lane_micros.to_json()),
            ("lane_inbox", self.lane_inbox.to_json()),
        ])
    }
}

impl FromJson for WireSummary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(WireSummary {
            bytes_per_round: value.parse_field("bytes_per_round")?,
            frames: value.parse_field("frames")?,
            frames_suppressed: value.parse_field("frames_suppressed")?,
            peak_inbox: value.parse_field("peak_inbox")?,
            mean_skew: value.parse_field("mean_skew")?,
            barrier_share: value.parse_field("barrier_share")?,
            straggler: value.parse_field("straggler")?,
            lane_micros: value.parse_field("lane_micros")?,
            lane_inbox: value.parse_field("lane_inbox")?,
        })
    }
}

/// One matrix cell's record: identity, deterministic counters, and the
/// timed medians/IQRs the comparator gates on.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Protocol label (`smm` / `smi` / `hsu-huang`).
    pub protocol: String,
    /// Topology label (`path` / `star` / `unit-disk`).
    pub topology: String,
    /// Executor label (`serial` / `parallel` / `runtime@k`).
    pub exec: String,
    /// Schedule label (`full` / `active`).
    pub schedule: String,
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Timed repetitions behind the medians.
    pub reps: usize,
    /// Rounds to stabilization (deterministic in the seed).
    pub rounds: usize,
    /// Whether the run reached a fixpoint within the round budget.
    pub stabilized: bool,
    /// Total guard evaluations over the run (deterministic).
    pub guard_evals: u64,
    /// Rounds per second over the timed repetitions.
    pub rounds_per_sec: MetricPoint,
    /// Guard evaluations per second over the timed repetitions.
    pub guard_evals_per_sec: MetricPoint,
    /// Wire/shard quantities (sharded runtime cells only).
    pub wire: Option<WireSummary>,
}

impl BenchRecord {
    /// The cell's identity within the matrix, used to pair records when
    /// comparing artifacts: `protocol/topology/exec/schedule`.
    pub fn cell_id(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.protocol, self.topology, self.exec, self.schedule
        )
    }
}

impl ToJson for BenchRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("topology", self.topology.to_json()),
            ("exec", self.exec.to_json()),
            ("schedule", self.schedule.to_json()),
            ("n", self.n.to_json()),
            ("m", self.m.to_json()),
            ("reps", self.reps.to_json()),
            ("rounds", self.rounds.to_json()),
            ("stabilized", self.stabilized.to_json()),
            ("guard_evals", self.guard_evals.to_json()),
            ("rounds_per_sec", self.rounds_per_sec.to_json()),
            ("guard_evals_per_sec", self.guard_evals_per_sec.to_json()),
            ("wire", self.wire.to_json()),
        ])
    }
}

impl FromJson for BenchRecord {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(BenchRecord {
            protocol: value.parse_field("protocol")?,
            topology: value.parse_field("topology")?,
            exec: value.parse_field("exec")?,
            schedule: value.parse_field("schedule")?,
            n: value.parse_field("n")?,
            m: value.parse_field("m")?,
            reps: value.parse_field("reps")?,
            rounds: value.parse_field("rounds")?,
            stabilized: value.parse_field("stabilized")?,
            guard_evals: value.parse_field("guard_evals")?,
            rounds_per_sec: value.parse_field("rounds_per_sec")?,
            guard_evals_per_sec: value.parse_field("guard_evals_per_sec")?,
            wire: value.parse_field("wire")?,
        })
    }
}

/// Environment header: enough to know whether two artifacts are even
/// comparable hardware-wise.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineMeta {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism at measurement time.
    pub cpus: usize,
    /// Workspace crate version that produced the artifact.
    pub crate_version: String,
}

impl MachineMeta {
    /// Capture the current environment.
    pub fn capture() -> MachineMeta {
        MachineMeta {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }
}

impl ToJson for MachineMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("os", self.os.to_json()),
            ("arch", self.arch.to_json()),
            ("cpus", self.cpus.to_json()),
            ("crate_version", self.crate_version.to_json()),
        ])
    }
}

impl FromJson for MachineMeta {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(MachineMeta {
            os: value.parse_field("os")?,
            arch: value.parse_field("arch")?,
            cpus: value.parse_field("cpus")?,
            crate_version: value.parse_field("crate_version")?,
        })
    }
}

/// One `BENCH_<pr>.json` artifact: header plus one record per matrix cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArtifact {
    /// Schema identifier (must equal [`SCHEMA`]).
    pub schema: String,
    /// PR number the artifact anchors in the trajectory.
    pub pr: String,
    /// Tier name (`quick` / `default`).
    pub tier: String,
    /// Master seed the matrix spread its per-cell seeds from.
    pub master_seed: u64,
    /// Environment header.
    pub machine: MachineMeta,
    /// One record per matrix cell.
    pub records: Vec<BenchRecord>,
}

impl ToJson for BenchArtifact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", self.schema.to_json()),
            ("pr", self.pr.to_json()),
            ("tier", self.tier.to_json()),
            ("master_seed", self.master_seed.to_json()),
            ("machine", self.machine.to_json()),
            ("records", self.records.to_json()),
        ])
    }
}

impl FromJson for BenchArtifact {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(BenchArtifact {
            schema: value.parse_field("schema")?,
            pr: value.parse_field("pr")?,
            tier: value.parse_field("tier")?,
            master_seed: value.parse_field("master_seed")?,
            machine: value.parse_field("machine")?,
            records: value.parse_field("records")?,
        })
    }
}

impl BenchArtifact {
    /// Parse an artifact from JSON text, validating the schema tag.
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let artifact =
            BenchArtifact::from_json(&json).map_err(|e| format!("invalid bench artifact: {e}"))?;
        if artifact.schema != SCHEMA {
            return Err(format!(
                "schema mismatch: artifact is `{}`, this binary reads `{SCHEMA}`",
                artifact.schema
            ));
        }
        Ok(artifact)
    }

    /// Read and validate an artifact file.
    pub fn read_from(path: &str) -> Result<BenchArtifact, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Self::parse(&text).map_err(|e| format!("`{path}`: {e}"))
    }

    /// Pretty-print and write the artifact.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Does this text look like a bench artifact (vs. a JSONL metrics
    /// stream)? Cheap sniff used by `selfstab analyze` to pick a renderer.
    pub fn sniff(text: &str) -> bool {
        let trimmed = text.trim_start();
        trimmed.starts_with('{')
            && Json::parse(text)
                .ok()
                .and_then(|j| j.get("schema").and_then(|s| s.as_str().map(str::to_string)))
                .is_some_and(|s| s == SCHEMA)
    }
}

/// Everything one cell's measurement produced, before summarization.
struct CellMeasurement {
    rounds: usize,
    stabilized: bool,
    guard_evals: u64,
    wire: Option<WireSummary>,
    elapsed_secs: Vec<f64>,
}

/// Run one cell: one observed pass for the deterministic counters, then
/// `reps` unobserved timed passes from the identical initial state (skipped
/// when the observed run did not stabilize — timing a round-limit hit would
/// measure the budget, not the protocol).
fn measure_cell<P>(
    graph: &Graph,
    proto: &P,
    exec: ExecKind,
    schedule: Schedule,
    init_seed: u64,
    max_rounds: usize,
    reps: usize,
) -> CellMeasurement
where
    P: Protocol,
    P::State: WireState,
{
    let init = InitialState::Random { seed: init_seed };
    let mut metrics = MetricsCollector::new();
    let (rounds, stabilized) = match exec {
        ExecKind::Serial => {
            let e = SyncExecutor::new(graph, proto).with_schedule(schedule);
            let run = e.run_observed(init.clone(), max_rounds, &mut metrics);
            (run.rounds(), run.stabilized())
        }
        ExecKind::Runtime(k) => {
            let e = RuntimeExecutor::new(graph, proto, k).with_schedule(schedule);
            let run = e
                .run_observed(init.clone(), max_rounds, &mut metrics)
                .expect("clean sharded bench run failed");
            (run.rounds(), run.stabilized())
        }
    };

    let guard_evals: u64 = metrics.rounds().iter().map(|r| r.evaluated as u64).sum();
    let wire = fold_wire(&metrics, rounds);

    let mut elapsed_secs = Vec::with_capacity(reps);
    if stabilized {
        for _ in 0..reps {
            let start = Instant::now();
            let got = match exec {
                ExecKind::Serial => {
                    let e = SyncExecutor::new(graph, proto).with_schedule(schedule);
                    e.run(init.clone(), max_rounds).rounds()
                }
                ExecKind::Runtime(k) => {
                    let e = RuntimeExecutor::new(graph, proto, k).with_schedule(schedule);
                    e.run(init.clone(), max_rounds)
                        .expect("clean sharded bench run failed")
                        .rounds()
                }
            };
            elapsed_secs.push(start.elapsed().as_secs_f64());
            debug_assert_eq!(got, rounds, "same seed must replay the same rounds");
        }
    }

    CellMeasurement {
        rounds,
        stabilized,
        guard_evals,
        wire,
        elapsed_secs,
    }
}

/// Fold the observed run's runtime counters and lane profiles into a
/// [`WireSummary`]; `None` when the run carried no runtime counters
/// (serial executor).
fn fold_wire<S>(metrics: &MetricsCollector<S>, rounds: usize) -> Option<WireSummary> {
    let mut any = false;
    let (mut bytes, mut frames, mut suppressed, mut peak) = (0u64, 0u64, 0u64, 0u64);
    let mut acc = SkewAccumulator::new();
    let mut barrier_sum = 0.0;
    let mut profiled = 0usize;
    for (r, rec) in metrics.rounds().iter().enumerate() {
        if let Some(rt) = &rec.runtime {
            any = true;
            bytes += rt.bytes_on_wire;
            frames += rt.frames;
            suppressed += rt.frames_suppressed;
            peak = peak.max(rt.max_channel_depth);
        }
        if let Some(p) = &rec.profile {
            let samples: Vec<(usize, u64, u64)> = p
                .shards
                .iter()
                .map(|s| (s.shard, s.round_micros, s.inbox_max_depth))
                .collect();
            acc.record_round(r + 1, &samples);
            barrier_sum += p.barrier_wait_share();
            profiled += 1;
        }
    }
    if !any {
        return None;
    }
    Some(WireSummary {
        bytes_per_round: bytes as f64 / rounds.max(1) as f64,
        frames,
        frames_suppressed: suppressed,
        peak_inbox: peak,
        mean_skew: acc.mean_skew(),
        barrier_share: if profiled > 0 {
            barrier_sum / profiled as f64
        } else {
            0.0
        },
        straggler: acc.straggler(),
        lane_micros: acc.lanes().iter().map(|l| l.total_micros).collect(),
        lane_inbox: acc.lanes().iter().map(|l| l.max_inbox_depth).collect(),
    })
}

/// Summarize per-rep throughput samples into the record's metric points.
/// An empty sample set (non-stabilized cell) yields NaN medians, which the
/// comparator treats as incomparable rather than regressed.
fn throughput_points(numerator: f64, elapsed_secs: &[f64]) -> MetricPoint {
    let samples: Vec<f64> = elapsed_secs.iter().map(|&s| numerator / s).collect();
    MetricPoint::of(&Summary::of(&samples))
}

/// Measure one cell and assemble its [`BenchRecord`]. This is the single
/// bench runner in the repo: `run_matrix` calls it per matrix cell and the
/// `e7_runtime_throughput` criterion bench calls it for its `BENCH` lines,
/// so every emitted record follows the same schema and timing discipline.
#[allow(clippy::too_many_arguments)]
pub fn measure_record<P>(
    graph: &Graph,
    proto: &P,
    protocol: &str,
    topology: &str,
    exec: ExecKind,
    schedule: Schedule,
    init_seed: u64,
    max_rounds: usize,
    reps: usize,
) -> BenchRecord
where
    P: Protocol,
    P::State: WireState,
{
    let m = measure_cell(graph, proto, exec, schedule, init_seed, max_rounds, reps);
    BenchRecord {
        protocol: protocol.to_string(),
        topology: topology.to_string(),
        exec: exec.name(),
        schedule: schedule.to_string(),
        n: graph.n(),
        m: graph.m(),
        reps,
        rounds: m.rounds,
        stabilized: m.stabilized,
        guard_evals: m.guard_evals,
        rounds_per_sec: throughput_points(m.rounds as f64, &m.elapsed_secs),
        guard_evals_per_sec: throughput_points(m.guard_evals as f64, &m.elapsed_secs),
        wire: m.wire,
    }
}

/// Run the full pinned matrix at `tier` (honoring `n`/`reps` overrides) and
/// assemble the artifact. `progress` fires once per finished cell with a
/// short human-readable line.
pub fn run_matrix(
    tier: Tier,
    n_override: Option<usize>,
    reps_override: Option<usize>,
    pr: &str,
    progress: &mut dyn FnMut(&str),
) -> BenchArtifact {
    let suite = Suite::default();
    let n = n_override.unwrap_or_else(|| tier.n());
    let reps = reps_override.unwrap_or_else(|| tier.reps());
    let max_rounds = 4 * n + 16;
    let mut records = Vec::new();

    for topo in TopologyKind::ALL {
        let graph = topo.build(n, &suite);
        let mut id_rng = StdRng::seed_from_u64(suite.rep_seed(topo.name(), graph.n(), 1));
        let ids = Ids::random(graph.n(), &mut id_rng);
        for proto in ProtocolKind::ALL {
            let cell_label = format!("{}/{}", proto.name(), topo.name());
            let init_seed = suite.rep_seed(&cell_label, graph.n(), 2);
            for exec in ExecKind::all() {
                for schedule in [Schedule::Full, Schedule::Active] {
                    let record = match proto {
                        ProtocolKind::Smm => measure_record(
                            &graph,
                            &Smm::paper(ids.clone()),
                            proto.name(),
                            topo.name(),
                            exec,
                            schedule,
                            init_seed,
                            max_rounds,
                            reps,
                        ),
                        ProtocolKind::Smi => measure_record(
                            &graph,
                            &Smi::new(ids.clone()),
                            proto.name(),
                            topo.name(),
                            exec,
                            schedule,
                            init_seed,
                            max_rounds,
                            reps,
                        ),
                        ProtocolKind::HsuHuang => measure_record(
                            &graph,
                            &HsuHuang::classic(graph.n()),
                            proto.name(),
                            topo.name(),
                            exec,
                            schedule,
                            init_seed,
                            max_rounds,
                            reps,
                        ),
                    };
                    progress(&format!(
                        "{:<40} rounds {:>6}  rounds/s {:>12.1}{}",
                        record.cell_id(),
                        record.rounds,
                        record.rounds_per_sec.median,
                        if record.stabilized {
                            ""
                        } else {
                            "  [round limit]"
                        },
                    ));
                    records.push(record);
                }
            }
        }
    }

    BenchArtifact {
        schema: SCHEMA.to_string(),
        pr: pr.to_string(),
        tier: tier.name().to_string(),
        master_seed: suite.master_seed,
        machine: MachineMeta::capture(),
        records,
    }
}

/// One metric's delta within a paired cell.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Metric name (`rounds_per_sec`, `guard_evals_per_sec`, `rounds`,
    /// `bytes_per_round`).
    pub metric: &'static str,
    /// Baseline point.
    pub base: MetricPoint,
    /// Current point.
    pub current: MetricPoint,
    /// Relative delta `(current − base) / base`.
    pub rel: f64,
    /// The gate's judgement.
    pub verdict: Verdict,
}

/// One paired cell's deltas.
#[derive(Clone, Debug)]
pub struct CellComparison {
    /// Cell id (`protocol/topology/exec/schedule`).
    pub id: String,
    /// Per-metric deltas, in a fixed order.
    pub deltas: Vec<MetricDelta>,
}

/// The comparator's output over two artifacts.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-cell comparisons, in the current artifact's record order.
    pub cells: Vec<CellComparison>,
}

impl CompareReport {
    /// Count of deltas the gate judged `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.cells
            .iter()
            .flat_map(|c| c.deltas.iter())
            .filter(|d| d.verdict == verdict)
            .count()
    }

    /// Deltas the gate flagged (improved or regressed), regressions first,
    /// largest relative magnitude first within each class.
    pub fn flagged(&self) -> Vec<(&str, &MetricDelta)> {
        let mut out: Vec<(&str, &MetricDelta)> = self
            .cells
            .iter()
            .flat_map(|c| c.deltas.iter().map(move |d| (c.id.as_str(), d)))
            .filter(|(_, d)| d.verdict != Verdict::Unchanged)
            .collect();
        out.sort_by(|a, b| {
            let class = |v: Verdict| usize::from(v != Verdict::Regressed);
            class(a.1.verdict).cmp(&class(b.1.verdict)).then(
                b.1.rel
                    .abs()
                    .partial_cmp(&a.1.rel.abs())
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        out
    }
}

/// Diff two artifacts cell-by-cell under the noise gate.
///
/// Errors (the CLI's exit code 2) when the artifacts' matrices do not pair
/// one-to-one — a missing baseline cell means the comparison would silently
/// skip coverage, so it is refused instead.
pub fn compare(
    base: &BenchArtifact,
    current: &BenchArtifact,
    gate: &NoiseGate,
) -> Result<CompareReport, String> {
    let mut base_cells: Vec<(String, &BenchRecord)> =
        base.records.iter().map(|r| (r.cell_id(), r)).collect();
    let mut report = CompareReport::default();
    for cur in &current.records {
        let id = cur.cell_id();
        let Some(pos) = base_cells.iter().position(|(bid, _)| *bid == id) else {
            return Err(format!(
                "mismatched matrix: cell `{id}` has no baseline record (baseline pr {}, current pr {})",
                base.pr, current.pr
            ));
        };
        let (_, b) = base_cells.swap_remove(pos);
        let mut deltas = Vec::new();
        let mut push = |metric, bp: MetricPoint, cp: MetricPoint, dir| {
            deltas.push(MetricDelta {
                metric,
                base: bp,
                current: cp,
                rel: NoiseGate::rel_delta(bp, cp),
                verdict: gate.judge(bp, cp, dir),
            });
        };
        push(
            "rounds_per_sec",
            b.rounds_per_sec,
            cur.rounds_per_sec,
            Direction::HigherIsBetter,
        );
        push(
            "guard_evals_per_sec",
            b.guard_evals_per_sec,
            cur.guard_evals_per_sec,
            Direction::HigherIsBetter,
        );
        let point = |x: f64| MetricPoint {
            median: x,
            iqr: 0.0,
        };
        push(
            "rounds",
            point(b.rounds as f64),
            point(cur.rounds as f64),
            Direction::LowerIsBetter,
        );
        if let (Some(bw), Some(cw)) = (&b.wire, &cur.wire) {
            push(
                "bytes_per_round",
                point(bw.bytes_per_round),
                point(cw.bytes_per_round),
                Direction::LowerIsBetter,
            );
        }
        report.cells.push(CellComparison { id, deltas });
    }
    if let Some((id, _)) = base_cells.first() {
        return Err(format!(
            "mismatched matrix: baseline cell `{id}` ({} total) missing from current artifact",
            base_cells.len()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_artifact() -> BenchArtifact {
        let mut progress = |_: &str| {};
        run_matrix(Tier::Quick, Some(24), Some(1), "test", &mut progress)
    }

    #[test]
    fn matrix_covers_all_axes_and_roundtrips() {
        let a = tiny_artifact();
        // 3 protocols × 3 topologies × (serial + 4 shard counts)
        // × 2 schedules.
        assert_eq!(a.records.len(), 90);
        let ids: std::collections::HashSet<String> =
            a.records.iter().map(|r| r.cell_id()).collect();
        assert_eq!(ids.len(), 90, "cell ids must be unique");
        assert!(ids.contains("smm/path/serial/full"));
        assert!(ids.contains("hsu-huang/unit-disk/runtime@8/active"));
        // Runtime cells carry wire summaries, serial cells don't.
        for r in &a.records {
            assert_eq!(
                r.wire.is_some(),
                r.exec.starts_with("runtime@"),
                "{}",
                r.cell_id()
            );
            assert!(r.stabilized, "{} must stabilize at n=24", r.cell_id());
            assert!(r.guard_evals > 0, "{}", r.cell_id());
        }
        let back = BenchArtifact::parse(&a.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn self_compare_is_all_unchanged() {
        let a = tiny_artifact();
        let report = compare(&a, &a, &NoiseGate::default()).unwrap();
        assert_eq!(report.cells.len(), 90);
        assert_eq!(report.count(Verdict::Regressed), 0);
        assert_eq!(report.count(Verdict::Improved), 0);
        assert!(report.flagged().is_empty());
    }

    #[test]
    fn injected_regression_is_flagged_and_mismatch_is_an_error() {
        let base = tiny_artifact();
        let mut cur = base.clone();
        // Inject a 2× rounds/sec regression into one cell.
        cur.records[0].rounds_per_sec.median /= 2.0;
        let report = compare(&base, &cur, &NoiseGate::default()).unwrap();
        assert_eq!(report.count(Verdict::Regressed), 1);
        let flagged = report.flagged();
        assert_eq!(flagged[0].1.metric, "rounds_per_sec");
        assert_eq!(flagged[0].1.verdict, Verdict::Regressed);

        // A missing baseline cell refuses to compare.
        let mut short = base.clone();
        short.records.pop();
        assert!(compare(&short, &cur, &NoiseGate::default())
            .unwrap_err()
            .contains("mismatched matrix"));
        assert!(compare(&cur, &short, &NoiseGate::default())
            .unwrap_err()
            .contains("mismatched matrix"));
    }

    #[test]
    fn sniff_distinguishes_artifacts_from_jsonl() {
        let a = tiny_artifact();
        assert!(BenchArtifact::sniff(&a.to_json().to_string_pretty()));
        assert!(!BenchArtifact::sniff("{\"round\": 1}\n{\"round\": 2}\n"));
        assert!(!BenchArtifact::sniff("not json"));
        // Wrong schema version parses but is refused.
        let mut wrong = a.clone();
        wrong.schema = "selfstab-bench/v0".into();
        let text = wrong.to_json().to_string_pretty();
        assert!(!BenchArtifact::sniff(&text));
        assert!(BenchArtifact::parse(&text)
            .unwrap_err()
            .contains("schema mismatch"));
    }
}
