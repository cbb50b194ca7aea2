//! The traced pass (`--trace 1`): per-layer metrics.
//!
//! Every workload reports every layer. Each layer is probed on the
//! workload's own instance — its unit-disk graph, protocol, initial state
//! and request stream — through the same public entry points the timed
//! pass uses, with spans recorded around each call into a layer:
//!
//! - `graph`: build, one scan of every adjacency list, and the stream's
//!   mutations replayed on a bare `Graph`;
//! - `core`: one full `Protocol::step` sweep at the initial state, and the
//!   2-way `Partition::coarsened` cut;
//! - `engine`: a serial `SyncExecutor` run, untraced and then observed,
//!   split by its `PhaseSpans`, with the movers replayed through
//!   `ActiveSet` for worklist upkeep;
//! - `runtime`: the same run on the 2-shard `RuntimeExecutor`, split by its
//!   lane spans and wire counters;
//! - `service`: the request stream replayed through an in-process
//!   `OverlayService`, split into parse, drain, query and render.
//!
//! One workload's instance runs a layer's probe the same way every time,
//! so a change to a layer moves its metrics on every workload, and the
//! end-to-end metrics show on which workloads that layer matters.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_core::partition::Partition;
use selfstab_engine::obs::{MetricsCollector, Observer, Phase, RoundRecord, ShardProfile};
use selfstab_engine::{ActiveSet, InitialState, Protocol, Schedule, SyncExecutor, View};
use selfstab_graph::{Graph, Ids, Node};
use selfstab_json::{Json, ToJson};
use selfstab_runtime::RuntimeExecutor;
use selfstab_service::{Mutation, OverlayProtocol, OverlayService, QueryKind, RealClock, Request};

use crate::instance::{self, Stream};
use crate::report::{mean, quantile, Report};

/// Repetitions of the cheap probes (scan, step sweep); the median is kept.
const REPEATS: usize = 5;
/// Point queries timed for `service.membership_us`.
const MEMBERSHIP_PROBES: usize = 200;
/// Worker shards of the runtime probe: one per CPU of the 2-CPU host the
/// benchmark is sized for.
const SHARDS: usize = 2;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Index of the replayed request the span belongs to.
    request: Option<u64>,
}

/// Spans kept in memory and written once, at the end of the pass.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: Option<u64>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e6
    }

    /// Run `f` inside a span; returns its value and duration in seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), request);
        let value = f();
        (value, self.close(id))
    }

    fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", s.name.to_json()),
                    ("start_us", s.start_us.to_json()),
                    ("end_us", s.end_us.to_json()),
                    ("parent", s.parent.to_json()),
                    ("request", s.request.to_json()),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", workload.to_json()),
            ("seed", seed.to_json()),
            ("spans", Json::Array(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string())
    }
}

/// The nodes that moved in each round, in order (fed to the worklist replay).
#[derive(Default)]
struct Movers(Vec<Vec<Node>>);

impl<S> Observer<S> for Movers {
    fn on_round_start(&mut self, _round: usize, _states: &[S]) {
        self.0.push(Vec::new());
    }

    fn on_move(&mut self, node: Node, _rule: usize, _next: &S) {
        self.0.last_mut().expect("a round started").push(node);
    }
}

/// What a traced pass probes: one workload's instance.
pub struct Instance<'a> {
    /// Workload name (for the span file).
    pub workload: &'a str,
    /// Unit-disk node count.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Cold workloads start from a seeded arbitrary state, the daemon from
    /// the default one.
    pub random_init: bool,
    /// Share of membership queries in the request stream.
    pub query_share: f64,
    /// Requests of the stream the service probe replays.
    pub requests: u64,
}

/// The traced pass for `protocol` (`"smm"` or `"smi"`); spans go to `out`.
pub fn trace(protocol: &str, inst: &Instance, out: &Path) -> Report {
    match protocol {
        "smi" => probe(selfstab_core::Smi::new, inst, out),
        _ => probe(selfstab_core::Smm::paper, inst, out),
    }
}

fn probe<P: OverlayProtocol>(make: impl FnOnce(Ids) -> P, inst: &Instance, out: &Path) -> Report {
    let mut r = Report::default();
    let mut sp = Spans::new();
    let root = sp.open("trace", None, None);

    // graph
    let ((g, ids), build_s) = sp.time("graph.build", root, None, || {
        instance::unit_disk(inst.n, inst.seed)
    });
    r.metric("graph.build_ms", build_s * 1e3, "ms");
    let scans: Vec<f64> = (0..REPEATS)
        .map(|_| sp.time("graph.scan", root, None, || scan(&g)).1 * 1e3)
        .collect();
    r.metric("graph.scan_ms", quantile(&scans, 0.5), "ms");
    let mut stream = Stream::new(g.clone(), inst.seed, inst.query_share);
    let lines: Vec<String> = (1..=inst.requests)
        .map(|i| stream.next_request(i).to_json().to_string())
        .collect();
    let mutations: Vec<Mutation> = lines
        .iter()
        .filter_map(|l| match Request::parse(l) {
            Ok(Request::Mutate { mutation, .. }) => Some(mutation),
            _ => None,
        })
        .collect();
    let mut bare = g.clone();
    let ((), mutate_s) = sp.time("graph.mutate", root, None, || {
        for m in &mutations {
            instance::apply(&mut bare, m);
        }
    });
    r.check(&bare == stream.mirror(), || {
        "bare-graph replay diverged from the stream".into()
    });
    r.metric(
        "graph.mutate_us",
        mutate_s * 1e6 / mutations.len() as f64,
        "us",
    );

    // core
    let proto = make(ids);
    let init = if inst.random_init {
        InitialState::Random { seed: inst.seed }
    } else {
        InitialState::Default
    };
    let states = init.materialize(&g, &proto);
    let sweeps: Vec<f64> = (0..REPEATS)
        .map(|_| {
            sp.time("core.step", root, None, || sweep(&g, &proto, &states))
                .1
        })
        .collect();
    r.metric(
        "core.step_ns",
        quantile(&sweeps, 0.5) * 1e9 / g.n() as f64,
        "ns",
    );
    let (partition, part_s) = sp.time("core.partition", root, None, || {
        Partition::coarsened(&g, SHARDS)
    });
    r.metric("core.partition_ms", part_s * 1e3, "ms");
    let cut = partition.cut_edges(&g).len() as f64 / g.m() as f64;
    r.metric("core.cut_frac", cut, "ratio");

    // engine
    let budget = g.n() + 2;
    let exec = SyncExecutor::new(&g, &proto).with_schedule(Schedule::Active);
    let (plain, plain_s) = sp.time("engine.run", root, None, || exec.run(init.clone(), budget));
    let mut obs = (MetricsCollector::new(), Movers::default());
    let (traced, traced_s) = sp.time("engine.run_observed", root, None, || {
        exec.run_observed(init.clone(), budget, &mut obs)
    });
    let serial_ok = plain.stabilized()
        && proto.is_legitimate(&g, &plain.final_states)
        && traced.final_states == plain.final_states
        && traced.rounds == plain.rounds;
    r.op(serial_ok);
    r.check(serial_ok, || {
        format!(
            "serial run: {:?} after {} rounds",
            plain.outcome, plain.rounds
        )
    });
    let (collector, movers) = obs;
    let rounds = collector.rounds();
    let (guard, apply, gauges) = (
        phase_ms(rounds, Phase::GuardEval),
        phase_ms(rounds, Phase::Apply),
        phase_ms(rounds, Phase::Gauges),
    );
    r.metric("engine.guard_eval_ms", guard, "ms");
    r.metric("engine.apply_ms", apply, "ms");
    r.metric("engine.gauges_ms", gauges, "ms");
    let ((), worklist_s) = sp.time("engine.worklist", root, None, || {
        let mut next = ActiveSet::empty(g.n());
        for round in &movers.0 {
            for &v in round {
                next.insert_closed(&g, v);
            }
            next.seal();
            black_box(next.len());
            next.clear();
        }
    });
    r.metric("engine.worklist_ms", worklist_s * 1e3, "ms");
    let (evals, moves) = work(rounds);
    r.metric("engine.rounds", plain.rounds as f64, "count");
    r.metric("engine.evals", evals, "count");
    r.metric("engine.moves", moves, "count");
    r.metric("engine.move_yield", moves / evals, "ratio");
    r.metric(
        "engine.accounted_frac",
        (guard + apply + gauges) / (traced_s * 1e3),
        "ratio",
    );
    r.metric("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");

    // runtime
    let rt = RuntimeExecutor::from_partition(&g, &proto, partition);
    let mut collector = MetricsCollector::new();
    let (sharded, rt_s) = sp.time("runtime.run_observed", root, None, || {
        rt.run_observed(init.clone(), budget, &mut collector)
    });
    let sharded_ok = sharded
        .as_ref()
        .is_ok_and(|run| run.rounds == plain.rounds && run.final_states == plain.final_states);
    r.op(sharded_ok);
    r.check(sharded_ok, || {
        "the 2-shard runtime run differs from the serial run".into()
    });
    runtime_metrics(&mut r, collector.rounds(), rt_s);

    let svc = OverlayService::new(g, &proto, init, 0);
    service_layer(&mut r, &mut sp, root, svc, &lines, inst.seed);

    sp.close(root);
    if let Err(e) = sp.write(out, inst.workload, inst.seed) {
        r.check(false, || format!("{}: {e}", out.display()));
    }
    r
}

/// The service layer: `svc` bootstrapped, then `lines` replayed through it,
/// then point queries on random nodes.
fn service_layer<P: OverlayProtocol>(
    r: &mut Report,
    sp: &mut Spans,
    root: usize,
    mut svc: OverlayService<'_, P>,
    lines: &[String],
    seed: u64,
) {
    let svc_root = sp.open("service.replay", Some(root), None);
    let clock = RealClock::new();
    svc.stabilize(&clock, &mut ());
    let (mut parse, mut drain, mut render, mut queries) = (vec![], vec![], vec![], vec![]);
    let (mut perturbed, mut recovery, mut event_moves) = (vec![], vec![], vec![]);
    for (i, line) in (1u64..).zip(lines) {
        let req = sp.open("request", Some(svc_root), Some(i));
        let (request, t) = sp.time("service.parse", req, Some(i), || Request::parse(line));
        parse.push(t * 1e6);
        let reply = match request {
            Ok(Request::Mutate { mutation, .. }) => {
                svc.enqueue(mutation);
                let (mut records, t) =
                    sp.time("service.drain", req, Some(i), || svc.drain(&clock, &mut ()));
                drain.push(t * 1e6);
                match records.pop() {
                    Some(Ok(rec)) if rec.converged && records.is_empty() => {
                        perturbed.push(rec.perturbed as f64);
                        recovery.push(rec.recovery_rounds as f64);
                        event_moves.push(rec.moves as f64);
                        Some(rec.to_json())
                    }
                    _ => None,
                }
            }
            Ok(Request::Query {
                query: QueryKind::Membership(node),
                ..
            }) => {
                let (answer, t) = sp.time("service.membership", req, Some(i), || {
                    svc.membership_json(node)
                });
                queries.push(t * 1e6);
                answer.ok()
            }
            _ => None,
        };
        r.op(reply.is_some());
        if let Some(json) = reply {
            let (text, t) = sp.time("service.render", req, Some(i), || json.to_string());
            render.push(t * 1e6);
            black_box(text);
        }
        sp.close(req);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..MEMBERSHIP_PROBES {
        let node = rng.random_range(0..svc.graph().n());
        let (answer, t) = sp.time("service.membership", svc_root, None, || {
            svc.membership_json(Some(node))
        });
        r.op(answer.is_ok());
        queries.push(t * 1e6);
    }
    sp.close(svc_root);
    r.check(svc.proto().is_legitimate(svc.graph(), svc.states()), || {
        "in-process service ended illegitimate".into()
    });
    r.metric("service.parse_us", mean(&parse), "us");
    r.metric("service.drain_us_p50", quantile(&drain, 0.5), "us");
    r.metric("service.drain_us_p99", quantile(&drain, 0.99), "us");
    r.metric("service.render_us", mean(&render), "us");
    r.metric("service.membership_us", mean(&queries), "us");
    r.metric("service.perturbed_mean", mean(&perturbed), "count");
    r.metric(
        "service.recovery_rounds_p99",
        quantile(&recovery, 0.99),
        "count",
    );
    r.metric("service.moves_per_event", mean(&event_moves), "count");
}

/// One pass over every adjacency list.
fn scan(g: &Graph) {
    let mut acc = 0u64;
    for v in g.nodes() {
        for &w in g.neighbors(v) {
            acc = acc.wrapping_add(w.index() as u64);
        }
    }
    black_box(acc);
}

/// One guard evaluation per node.
fn sweep<P: Protocol>(g: &Graph, proto: &P, states: &[P::State]) {
    for v in g.nodes() {
        black_box(proto.step(View::new(v, g.neighbors(v), states)));
    }
}

/// Every lane of every observed round (one lane per shard; the serial
/// executor reports a single lane).
fn lanes(rounds: &[RoundRecord]) -> impl Iterator<Item = &ShardProfile> {
    rounds
        .iter()
        .flat_map(|rec| rec.profile.iter().flat_map(|p| &p.shards))
}

/// Time spent in `phase`, summed over every lane of every round, ms.
fn phase_ms(rounds: &[RoundRecord], phase: Phase) -> f64 {
    lanes(rounds).map(|s| s.spans.micros(phase)).sum::<u64>() as f64 / 1e3
}

/// Guard evaluations and moves over the observed rounds.
fn work(rounds: &[RoundRecord]) -> (f64, f64) {
    let evals: usize = rounds.iter().map(|r| r.evaluated).sum();
    let moves: u64 = rounds.iter().flat_map(|r| &r.moves_per_rule).sum();
    (evals as f64, moves as f64)
}

/// The runtime layer's metrics from an observed 2-shard run taking `wall_s`.
fn runtime_metrics(r: &mut Report, rounds: &[RoundRecord], wall_s: f64) {
    r.metric("runtime.compute_ms", phase_ms(rounds, Phase::Compute), "ms");
    r.metric("runtime.encode_ms", phase_ms(rounds, Phase::Encode), "ms");
    r.metric("runtime.send_ms", phase_ms(rounds, Phase::Send), "ms");
    r.metric(
        "runtime.recv_wait_ms",
        phase_ms(rounds, Phase::RecvWait),
        "ms",
    );
    let barrier = phase_ms(rounds, Phase::BarrierWait);
    r.metric("runtime.barrier_wait_ms", barrier, "ms");
    let lane_s = lanes(rounds).map(|s| s.round_micros).sum::<u64>() as f64 / 1e6;
    r.metric(
        "runtime.lane_frac",
        lane_s / (SHARDS as f64 * wall_s),
        "ratio",
    );
    let skews: Vec<f64> = rounds
        .iter()
        .filter_map(|rec| rec.profile.as_ref())
        .map(|p| p.skew())
        .collect();
    r.metric("runtime.skew", mean(&skews), "ratio");
    let counters = || rounds.iter().filter_map(|rec| rec.runtime.as_ref());
    r.metric(
        "runtime.frames",
        counters().map(|c| c.frames).sum::<u64>() as f64,
        "count",
    );
    let suppressed = counters().map(|c| c.frames_suppressed).sum::<u64>();
    r.metric("runtime.frames_suppressed", suppressed as f64, "count");
    r.metric(
        "runtime.bytes",
        counters().map(|c| c.bytes_on_wire).sum::<u64>() as f64,
        "bytes",
    );
}
