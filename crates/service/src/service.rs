//! The resident overlay engine: a live graph plus protocol state, kept
//! continuously legitimate while topology mutations stream in.
//!
//! The paper's self-stabilization guarantee is exactly what makes this
//! service cheap: after a mutation the global state is an *arbitrary*
//! (well, mostly-legitimate) configuration, and Theorem 1/2 promise
//! re-convergence from any such configuration. Because guards are pure
//! functions of closed neighborhoods, only the perturbed region — the
//! closed neighborhoods of the touched edges' endpoints — can become
//! privileged, so each event re-runs the active-set scheduler seeded with
//! just that region instead of restarting from scratch.
//!
//! [`OverlayService`] is deliberately environment-free: it takes a
//! [`Clock`] per call and fires [`Observer`] hooks at an absolute round
//! clock, so the same code runs under the deterministic sim harness
//! (proptests, CI) and under the Unix-socket daemon. Every drain round —
//! bootstrap, event and `settle` alike — is one step of the engine's round
//! kernel, so observed rounds carry the same phase spans as every other
//! in-process executor (timed only when observed; the clock is read only
//! for telemetry).

use std::collections::VecDeque;
use std::sync::Arc;

use selfstab_analysis::Histogram;
use selfstab_engine::active::Schedule;
use selfstab_engine::kernel::Kernel;
use selfstab_engine::obs::Observer;
use selfstab_engine::protocol::InitialState;
use selfstab_graph::Graph;
use selfstab_graph::Node;
use selfstab_json::{Json, ToJson};

use crate::env::Clock;
use crate::overlay::OverlayProtocol;
use crate::proto::Mutation;
use crate::telemetry::{Telemetry, BACKEND};

/// What one ingested event did to the structure: the perturbed-region size,
/// the re-stabilization latency in rounds, and the repair work in moves.
/// This is the per-mutation record the paper's Theorems 1/2 bound: the
/// recovery rounds never exceed the repo's working convergence budget of
/// `n + 2` rounds, however large the perturbation.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// 1-based ingest sequence number (0 = the bootstrap convergence).
    pub seq: u64,
    /// Wire `kind` of the mutation (`"bootstrap"` for seq 0).
    pub kind: &'static str,
    /// Absolute service round at which the event was applied.
    pub round: usize,
    /// Dirty nodes seeded by the event (size of the perturbed region, plus
    /// any still-dirty carry-over from a budget-capped predecessor).
    pub perturbed: usize,
    /// Rounds until the structure re-stabilized (or the budget, if not).
    pub recovery_rounds: usize,
    /// Moves the repair cost.
    pub moves: u64,
    /// Whether the structure was legitimate again when the event finished.
    pub converged: bool,
}

impl EventRecord {
    /// The event's fields as one JSON object: the only place they are
    /// listed. The mutate reply and the telemetry track row are both built
    /// from it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", self.seq.to_json()),
            ("kind", self.kind.to_json()),
            ("round", self.round.to_json()),
            ("perturbed", self.perturbed.to_json()),
            ("recovery_rounds", self.recovery_rounds.to_json()),
            ("moves", self.moves.to_json()),
            ("converged", self.converged.to_json()),
        ])
    }
}

/// The resident engine. See the [module docs](self).
pub struct OverlayService<'a, P: OverlayProtocol> {
    graph: Graph,
    proto: &'a P,
    states: Vec<P::State>,
    /// The round step and its worklist: whatever is dirty and not yet
    /// re-converged (the perturbed region, or a budget-capped carry-over).
    kernel: Kernel<P::State>,
    converged: bool,
    clock_rounds: usize,
    budget_per_event: usize,
    pending: VecDeque<Mutation>,
    /// Mutations applied so far; the last event's `seq`.
    seq: u64,
    recovery_hist: Histogram,
    /// Live telemetry registry; `None` keeps the drain path clock-free
    /// (the registry is the only reason `apply_one` would read the clock).
    telemetry: Option<Arc<Telemetry>>,
    /// Transport accept failures, noted by the daemon loop so the
    /// `status` query surfaces silent client drops.
    accept_failures: u64,
}

impl<'a, P: OverlayProtocol> OverlayService<'a, P> {
    /// A service over `graph` running `proto`, seeded from `init`. The
    /// whole node set starts dirty — call [`OverlayService::stabilize`]
    /// before serving. `budget_per_event = 0` means the Theorem 1/2
    /// convergence budget of `n + 2` rounds per event.
    pub fn new(graph: Graph, proto: &'a P, init: InitialState<P::State>, budget: usize) -> Self {
        let states = init.materialize(&graph, proto);
        let kernel = Kernel::new(Schedule::Active, graph.n(), proto.rule_names().len());
        OverlayService {
            graph,
            proto,
            states,
            kernel,
            converged: false,
            clock_rounds: 0,
            budget_per_event: budget,
            pending: VecDeque::new(),
            seq: 0,
            recovery_hist: Histogram::new(),
            telemetry: None,
            accept_failures: 0,
        }
    }

    /// Attach a live telemetry registry. Only with a registry attached
    /// does the drain path read the clock (to time drain latency); the
    /// unobserved path stays clock-free.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Resume the round clock from a snapshot (`serve --resume`): the
    /// absolute round counter continues where the snapshotted service
    /// stopped instead of restarting at zero.
    pub fn with_clock_rounds(mut self, clock_rounds: usize) -> Self {
        self.clock_rounds = clock_rounds;
        self
    }

    /// The `telemetry` query body; errors when no registry is attached.
    pub fn telemetry_json(&self) -> Result<Json, String> {
        self.telemetry
            .as_ref()
            .map(|t| t.to_json())
            .ok_or_else(|| "telemetry is not enabled on this service".to_string())
    }

    /// Note the transport's accept-failure count (surfaced by `status`).
    pub fn note_accept_failures(&mut self, count: u64) {
        self.accept_failures = count;
    }

    fn budget(&self) -> usize {
        if self.budget_per_event == 0 {
            self.graph.n() + 2
        } else {
            self.budget_per_event
        }
    }

    /// The live graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The live global state vector.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The protocol instance.
    pub fn proto(&self) -> &P {
        self.proto
    }

    /// Absolute service round clock (total synchronous rounds executed).
    pub fn clock_rounds(&self) -> usize {
        self.clock_rounds
    }

    /// Mutations ingested so far (bootstrap excluded).
    pub fn events_applied(&self) -> u64 {
        self.seq
    }

    /// Mutations enqueued but not yet applied.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the structure is currently at a legitimate fixpoint.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// The re-stabilization latency histogram (rounds per event; the
    /// bootstrap convergence is excluded).
    pub fn recovery_hist(&self) -> &Histogram {
        &self.recovery_hist
    }

    /// Run [`Kernel`] rounds over the dirty worklist until it drains or
    /// `budget` rounds pass (the leftover frontier then carries over to the
    /// next event). Returns `(rounds, moves)`.
    fn converge<O: Observer<P::State>>(&mut self, budget: usize, obs: &mut O) -> (usize, u64) {
        let mut rounds = 0usize;
        let mut moves_total = 0u64;
        while rounds < budget && !self.kernel.worklist().is_empty() {
            let privileged =
                self.kernel
                    .evaluate(&self.graph, self.proto, &self.states, None, O::ENABLED);
            if privileged == 0 {
                break;
            }
            self.clock_rounds += 1;
            let stats = self.kernel.apply(
                self.clock_rounds,
                &self.graph,
                &mut self.states,
                &mut Vec::new(),
                obs,
            );
            moves_total += privileged as u64;
            rounds += 1;
            if O::ENABLED {
                obs.on_round_end(&stats, &self.states);
            }
        }
        self.converged = self.kernel.worklist().is_empty();
        (rounds, moves_total)
    }

    /// Bootstrap convergence from the initial (or snapshot-restored) state:
    /// converge the full dirty set under the Theorem 1/2 budget and report
    /// it as event 0. A restored legitimate snapshot converges in 0 rounds.
    pub fn stabilize<O: Observer<P::State>>(
        &mut self,
        _clock: &dyn Clock,
        obs: &mut O,
    ) -> EventRecord {
        let perturbed = self.kernel.worklist().len();
        let budget = self.graph.n() + 2;
        let (rounds, moves) = self.converge(budget, obs);
        EventRecord {
            seq: 0,
            kind: "bootstrap",
            round: self.clock_rounds,
            perturbed,
            recovery_rounds: rounds,
            moves,
            converged: self.converged,
        }
    }

    /// Queue a mutation for ingest. Validation happens at apply time, so
    /// the error (if any) surfaces from [`OverlayService::drain`].
    pub fn enqueue(&mut self, mutation: Mutation) {
        self.pending.push_back(mutation);
    }

    /// Apply one mutation to the graph, returning the endpoints of every
    /// link that actually changed.
    fn apply_topology(&mut self, mutation: &Mutation) -> Result<Vec<(Node, Node)>, String> {
        let n = self.graph.n();
        let check = |i: usize| -> Result<Node, String> {
            if i < n {
                Ok(Node(i as u32))
            } else {
                Err(format!("node {i} out of range (n = {n})"))
            }
        };
        match mutation {
            Mutation::EdgeUp { a, b } => {
                let (a, b) = (check(*a)?, check(*b)?);
                if a == b {
                    return Err("self-loops are not allowed".into());
                }
                if !self.graph.add_edge(a, b) {
                    return Err(format!("edge {}-{} is already up", a.index(), b.index()));
                }
                Ok(vec![(a, b)])
            }
            Mutation::EdgeDown { a, b } => {
                let (a, b) = (check(*a)?, check(*b)?);
                if !self.graph.remove_edge(a, b) {
                    return Err(format!("edge {}-{} is not up", a.index(), b.index()));
                }
                Ok(vec![(a, b)])
            }
            Mutation::NodeLeave { v } => {
                let v = check(*v)?;
                // Batch removal: O(degrees touched), not O(deg(v)^2) — a
                // hub leave at 10^5 nodes must not be quadratic.
                let dropped = self.graph.isolate(v);
                Ok(dropped.into_iter().map(|w| (v, w)).collect())
            }
            Mutation::NodeJoin { v, attach } => {
                let v = check(*v)?;
                // Validate the whole attach list before touching the graph,
                // so an invalid entry leaves the topology unchanged.
                let mut ws = Vec::with_capacity(attach.len());
                for &w in attach {
                    let w = check(w)?;
                    if w == v {
                        return Err("self-loops are not allowed".into());
                    }
                    ws.push(w);
                }
                // Batch insertion mirrors `isolate` (one merge of v's
                // adjacency list); duplicates and present edges are skipped.
                let added = self.graph.attach(v, &ws);
                Ok(added.into_iter().map(|w| (v, w)).collect())
            }
        }
    }

    /// Apply every queued mutation in order, re-converging after each one.
    /// Returns the records of the drained events; a mutation that fails
    /// validation produces an `Err` entry and perturbs nothing.
    pub fn drain<O: Observer<P::State>>(
        &mut self,
        clock: &dyn Clock,
        obs: &mut O,
    ) -> Vec<Result<EventRecord, String>> {
        let mut out = Vec::new();
        while let Some(mutation) = self.pending.pop_front() {
            out.push(self.apply_one(&mutation, clock, obs));
        }
        out
    }

    fn apply_one<O: Observer<P::State>>(
        &mut self,
        mutation: &Mutation,
        clock: &dyn Clock,
        obs: &mut O,
    ) -> Result<EventRecord, String> {
        let touched = match self.apply_topology(mutation) {
            Ok(touched) => touched,
            Err(e) => {
                if let Some(t) = &self.telemetry {
                    t.record_mutation_error();
                }
                return Err(e);
            }
        };
        // Seed the perturbed region: the closed neighborhoods (in the
        // *mutated* graph) of every endpoint of every changed link. Any
        // leftover dirty set from a budget-capped predecessor stays marked,
        // so repair work is never silently dropped.
        // Deduplicate endpoints before seeding: a hub that appears in every
        // touched pair must pay its O(deg) closed-neighborhood walk once,
        // not once per incident link (O(n²) on a star otherwise).
        let mut endpoints: Vec<Node> = touched.iter().flat_map(|&(x, y)| [x, y]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        self.kernel.seed(&self.graph, endpoints);
        self.converged = self.kernel.worklist().is_empty();
        let perturbed = self.kernel.worklist().len();
        self.seq += 1;
        // The only clock reads on the drain path happen here, and only
        // when a telemetry registry is attached — unobserved drains stay
        // clock-free (see the `telemetry` equivalence tests).
        let drain_started = self.telemetry.as_ref().map(|_| clock.now_micros());
        let (rounds, moves) = self.converge(self.budget(), obs);
        let record = EventRecord {
            seq: self.seq,
            kind: mutation.kind(),
            round: self.clock_rounds,
            perturbed,
            recovery_rounds: rounds,
            moves,
            converged: self.converged,
        };
        self.recovery_hist.add(rounds);
        if let (Some(telemetry), Some(started)) = (&self.telemetry, drain_started) {
            let now = clock.now_micros();
            telemetry.record_event(record, now.saturating_sub(started), now, self.pending.len());
        }
        Ok(record)
    }

    /// Finish any carried-over repair work without ingesting an event:
    /// converge the leftover dirty set under the Theorem 1/2 budget. Returns
    /// the rounds spent (0 when already converged). The daemon calls this
    /// on shutdown so the snapshot it writes is legitimate even when a
    /// tight per-event budget left work pending.
    pub fn settle<O: Observer<P::State>>(&mut self, obs: &mut O) -> usize {
        let budget = self.graph.n() + 2;
        self.converge(budget, obs).0
    }

    /// Status facts for the `status` query and shutdown summaries.
    pub fn status_json(&self) -> Json {
        Json::obj([
            ("protocol", self.proto.name().to_json()),
            ("backend", BACKEND.to_json()),
            ("n", self.graph.n().to_json()),
            ("m", self.graph.m().to_json()),
            ("clock_rounds", self.clock_rounds.to_json()),
            ("events", self.seq.to_json()),
            ("pending", self.pending.len().to_json()),
            ("converged", self.converged.to_json()),
            (
                "legitimate",
                self.proto
                    .is_legitimate(&self.graph, &self.states)
                    .to_json(),
            ),
            ("accept_failures", self.accept_failures.to_json()),
        ])
    }

    /// The latency histogram as JSON: quantiles plus the dense counts.
    pub fn latency_json(&self) -> Json {
        let h = &self.recovery_hist;
        Json::obj([
            ("events", h.total().to_json()),
            ("p50", h.quantile(0.5).to_json()),
            ("p99", h.quantile(0.99).to_json()),
            ("max", h.max_value().to_json()),
            ("histogram", h.to_json()),
        ])
    }

    /// Membership answer for the `membership` query.
    pub fn membership_json(&self, node: Option<usize>) -> Result<Json, String> {
        match node {
            None => Ok(self.proto.membership_summary(&self.graph, &self.states)),
            Some(i) if i < self.graph.n() => {
                Ok(self
                    .proto
                    .membership(&self.graph, &self.states, Node(i as u32)))
            }
            Some(i) => Err(format!("node {i} out of range (n = {})", self.graph.n())),
        }
    }

    /// Census answer for the `census` query.
    pub fn census_json(&self) -> Json {
        self.proto.census(&self.graph, &self.states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimClock;
    use selfstab_core::Smm;
    use selfstab_engine::Protocol;
    use selfstab_graph::{generators, Ids};

    fn svc(n: usize) -> (Graph, Smm) {
        (generators::path(n), Smm::paper(Ids::identity(n)))
    }

    #[test]
    fn bootstrap_then_mutations_stay_legitimate() {
        let (g, smm) = svc(8);
        let clock = SimClock::new();
        let mut s = OverlayService::new(g, &smm, InitialState::Default, 0);
        let boot = s.stabilize(&clock, &mut ());
        assert!(boot.converged);
        assert!(boot.recovery_rounds <= 9, "Theorem 1: n + 1 rounds for SMM");

        s.enqueue(Mutation::EdgeDown { a: 3, b: 4 });
        s.enqueue(Mutation::EdgeUp { a: 0, b: 7 });
        let recs = s.drain(&clock, &mut ());
        assert_eq!(recs.len(), 2);
        for rec in recs {
            let rec = rec.unwrap();
            assert!(rec.converged);
            assert!(rec.recovery_rounds <= rec.perturbed + 1);
            assert!(s.proto().is_legitimate(s.graph(), s.states()));
        }
        assert_eq!(s.events_applied(), 2);
        assert_eq!(s.recovery_hist().total(), 2);
    }

    #[test]
    fn node_leave_and_rejoin_round_trip() {
        let (g, smm) = svc(6);
        let clock = SimClock::new();
        let mut s = OverlayService::new(g, &smm, InitialState::Default, 0);
        s.stabilize(&clock, &mut ());

        s.enqueue(Mutation::NodeLeave { v: 2 });
        let rec = s.drain(&clock, &mut ()).pop().unwrap().unwrap();
        assert!(rec.converged);
        assert_eq!(s.graph().degree(selfstab_graph::Node(2)), 0);
        assert!(s.proto().is_legitimate(s.graph(), s.states()));

        s.enqueue(Mutation::NodeJoin {
            v: 2,
            attach: vec![1, 3],
        });
        let rec = s.drain(&clock, &mut ()).pop().unwrap().unwrap();
        assert!(rec.converged);
        assert!(s
            .graph()
            .has_edge(selfstab_graph::Node(2), selfstab_graph::Node(3)));
        assert!(s.proto().is_legitimate(s.graph(), s.states()));
    }

    #[test]
    fn invalid_mutations_report_errors_and_perturb_nothing() {
        let (g, smm) = svc(4);
        let clock = SimClock::new();
        let mut s = OverlayService::new(g, &smm, InitialState::Default, 0);
        s.stabilize(&clock, &mut ());
        let before = s.clock_rounds();

        s.enqueue(Mutation::EdgeUp { a: 0, b: 1 }); // already up on a path
        s.enqueue(Mutation::EdgeDown { a: 0, b: 3 }); // never up
        s.enqueue(Mutation::EdgeUp { a: 0, b: 9 }); // out of range
        s.enqueue(Mutation::EdgeUp { a: 2, b: 2 }); // self-loop
        for rec in s.drain(&clock, &mut ()) {
            rec.unwrap_err();
        }
        assert_eq!(s.clock_rounds(), before, "failed events run no rounds");
        assert_eq!(s.events_applied(), 0);
        assert!(s.is_converged());
    }

    #[test]
    fn budget_cap_carries_dirty_work_forward() {
        let (g, smm) = svc(10);
        let clock = SimClock::new();
        // budget 1: a single round per event, far below what a fresh path
        // needs — the dirty set must carry across events until it drains.
        let mut s = OverlayService::new(g, &smm, InitialState::Default, 1);
        s.stabilize(&clock, &mut ()); // bootstrap always gets the full budget
        assert!(s.is_converged());

        s.enqueue(Mutation::EdgeDown { a: 4, b: 5 });
        let rec = s.drain(&clock, &mut ()).pop().unwrap().unwrap();
        assert!(rec.recovery_rounds <= 1, "budget caps per-event rounds");
        // One round may or may not finish the repair; settle() must always
        // drain the carried-over dirty set to a legitimate fixpoint.
        s.settle(&mut ());
        assert!(s.is_converged());
        assert!(s.proto().is_legitimate(s.graph(), s.states()));
    }

    #[test]
    fn observed_drain_rounds_carry_the_serial_lane_profile() {
        use selfstab_engine::obs::{MetricsCollector, Phase};
        let (g, smm) = svc(10);
        let clock = SimClock::new();
        let mut s = OverlayService::new(g, &smm, InitialState::Default, 0);
        s.stabilize(&clock, &mut ());
        s.enqueue(Mutation::EdgeDown { a: 4, b: 5 });
        s.enqueue(Mutation::EdgeUp { a: 0, b: 9 });
        let mut m = MetricsCollector::new();
        let rounds: usize = s
            .drain(&clock, &mut m)
            .into_iter()
            .map(|r| r.unwrap().recovery_rounds)
            .sum();
        assert!(rounds > 0, "the churn must cost repair rounds");
        assert_eq!(m.rounds().len(), rounds);
        for r in m.rounds() {
            let lanes = &r.profile.as_ref().expect("every round is profiled").shards;
            assert_eq!(lanes.len(), 1, "round {}", r.round);
            assert_eq!(lanes[0].spans.count(Phase::GuardEval), 1);
            assert_eq!(lanes[0].spans.count(Phase::Apply), 1);
        }
    }

    #[test]
    fn status_and_latency_json_shapes() {
        let (g, smm) = svc(5);
        let clock = SimClock::new();
        let mut s = OverlayService::new(g, &smm, InitialState::Default, 0);
        s.stabilize(&clock, &mut ());
        s.enqueue(Mutation::EdgeDown { a: 1, b: 2 });
        s.drain(&clock, &mut ()).pop().unwrap().unwrap();

        let status = s.status_json();
        assert_eq!(status.get("protocol").and_then(Json::as_str), Some("smm"));
        assert_eq!(status.get("converged").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("legitimate").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("events").and_then(Json::as_u64), Some(1));

        let lat = s.latency_json();
        assert_eq!(lat.get("events").and_then(Json::as_u64), Some(1));
        assert!(lat.get("p50").and_then(Json::as_u64).is_some());
        assert!(lat.get("p99").and_then(Json::as_u64).is_some());

        let m = s.membership_json(Some(0)).unwrap();
        assert_eq!(m.get("node").and_then(Json::as_u64), Some(0));
        s.membership_json(Some(99)).unwrap_err();
    }
}
