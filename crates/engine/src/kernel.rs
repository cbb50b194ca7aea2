//! The synchronous round kernel: one transition of the paper's daemon.
//!
//! Under the synchronous daemon a round is a single step: every node that is
//! privileged on the previous round's beacons fires at once. [`Kernel`] owns
//! that step for every in-process round loop — [`crate::sync::SyncExecutor`],
//! the churned loop in [`crate::chaos`], and the resident service's serial
//! drain — so guard evaluation, move application and worklist upkeep are
//! written exactly once:
//!
//! 1. [`Kernel::evaluate`] runs the guards over the current worklist (every
//!    node under [`Schedule::Full`], the paper-literal reference; every node
//!    on its *perceived* view while an asymmetric-link window is live) and
//!    buffers the moves;
//! 2. [`Kernel::apply`] applies them in node order, marks each mover's
//!    closed neighborhood `N[v]` into the next worklist, applies the
//!    caller's post-apply rewrites, seals, and swaps the worklists.
//!
//! A caller decides only what surrounds the step: what to
//! [`Kernel::seed`] into the current worklist before evaluation (crash
//! victims, churned edge endpoints, service mutations), which rewrites to
//! hand to [`Kernel::apply`] (Byzantine writes), and when to stop.
//!
//! The sharded runtime's worker keeps its own compute phase: it exchanges
//! beacons between apply and seal and evaluates only the nodes its shard
//! owns. It is the independent implementation the equivalence suite checks
//! this kernel against.

use std::time::Instant;

use crate::active::{ActiveSet, Schedule};
use crate::adversary::Perception;
use crate::obs::{Observer, Phase, PhaseSpans, RoundProfile, RoundStats, ShardProfile};
use crate::protocol::{Move, Protocol, View};
use selfstab_graph::{Graph, Node};

/// Every privileged node's move on `states`, in node order: one full sweep
/// of the guards (the definition of a synchronous round's movers).
pub(crate) fn privileged_moves<P: Protocol>(
    graph: &Graph,
    proto: &P,
    states: &[P::State],
) -> Vec<(Node, Move<P::State>)> {
    let mut out = Vec::new();
    guards(graph, proto, states, graph.nodes(), &mut out);
    out
}

fn guards<P: Protocol>(
    graph: &Graph,
    proto: &P,
    states: &[P::State],
    nodes: impl Iterator<Item = Node>,
    out: &mut Vec<(Node, Move<P::State>)>,
) {
    out.extend(nodes.filter_map(|v| {
        let view = View::new(v, graph.neighbors(v), states);
        proto.step(view).map(|m| (v, m))
    }));
}

fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The synchronous round step with its ping-pong worklists and a move
/// buffer reused across rounds. See the [module docs](self).
#[derive(Debug)]
pub struct Kernel<S> {
    schedule: Schedule,
    rules: usize,
    cur: ActiveSet,
    next: ActiveSet,
    moves: Vec<(Node, Move<S>)>,
    evaluated: usize,
    /// Guard-evaluation time of the last [`Kernel::evaluate`] (observed
    /// runs only).
    guard_nanos: u64,
    /// Spans the caller recorded before evaluation (crash rehydration),
    /// folded into the next applied round's profile.
    pre: PhaseSpans,
}

impl<S: Clone + PartialEq> Kernel<S> {
    /// A kernel over `n` nodes for a protocol with `rules` rules. The first
    /// worklist holds every node: round 1 evaluates everything.
    pub fn new(schedule: Schedule, n: usize, rules: usize) -> Self {
        Kernel {
            schedule,
            rules,
            cur: ActiveSet::full(n),
            next: ActiveSet::empty(n),
            moves: Vec::new(),
            evaluated: 0,
            guard_nanos: 0,
            pre: PhaseSpans::new(),
        }
    }

    /// The worklist the next [`Kernel::evaluate`] reads (sorted).
    pub fn worklist(&self) -> &ActiveSet {
        &self.cur
    }

    /// Mark the closed neighborhood of every node in `nodes` into the
    /// current worklist: their guards, or their neighbors', may have
    /// changed outside the round step. A no-op under [`Schedule::Full`],
    /// which evaluates everyone anyway.
    pub fn seed(&mut self, graph: &Graph, nodes: impl IntoIterator<Item = Node>) {
        if self.schedule == Schedule::Full {
            return;
        }
        let mut marked = false;
        for v in nodes {
            self.cur.insert_closed(graph, v);
            marked = true;
        }
        if marked {
            self.cur.seal();
        }
    }

    /// Add a span the caller measured before evaluation (e.g.
    /// [`Phase::Rehydrate`]) to the next applied round's profile.
    pub(crate) fn record(&mut self, phase: Phase, nanos: u64) {
        self.pre.add_nanos(phase, nanos);
    }

    /// Evaluate the guards on `states` and buffer the moves; returns the
    /// number of privileged nodes. With `perceived`, every node is
    /// evaluated on what it last heard from each neighbor. A round with no
    /// moves consumes the worklist: the next evaluation sees only what is
    /// seeded before it. `timed` (the caller's [`Observer::ENABLED`]) turns
    /// on the guard-evaluation span.
    pub fn evaluate<P: Protocol<State = S>>(
        &mut self,
        graph: &Graph,
        proto: &P,
        states: &[S],
        perceived: Option<&Perception<S>>,
        timed: bool,
    ) -> usize {
        let t0 = timed.then(Instant::now);
        self.moves.clear();
        match (perceived, self.schedule) {
            (Some(per), _) => {
                self.moves.extend(graph.nodes().filter_map(|v| {
                    let pos = per.position(v).expect("perception tracks every node");
                    let view = View::with_overlay(v, graph.neighbors(v), states, per.row(pos));
                    proto.step(view).map(|m| (v, m))
                }));
                self.evaluated = graph.n();
            }
            (None, Schedule::Full) => {
                guards(graph, proto, states, graph.nodes(), &mut self.moves);
                self.evaluated = graph.n();
            }
            (None, Schedule::Active) => {
                let nodes = self.cur.nodes().iter().copied();
                guards(graph, proto, states, nodes, &mut self.moves);
                self.evaluated = self.cur.len();
            }
        }
        if self.moves.is_empty() {
            // Quiet: consume the worklist and hand the (possibly n-sized)
            // move buffer back, as a resident service idles here between
            // events.
            self.cur.clear();
            self.moves = Vec::new();
        }
        if let Some(t0) = t0 {
            self.guard_nanos = nanos_since(t0);
        }
        self.moves.len()
    }

    /// Apply the buffered moves as round `round` (1-based), in node order,
    /// then `rewrites` (post-apply state overrides; one that leaves the
    /// node's state unchanged is skipped and marks nothing), then seal and
    /// swap the worklists. Fires `on_round_start` and `on_move`; the caller
    /// fires `on_round_end` with the returned stats, which carry the
    /// serial lane's phase spans when `O` is enabled.
    pub fn apply<O: Observer<S>>(
        &mut self,
        round: usize,
        graph: &Graph,
        states: &mut [S],
        rewrites: Vec<(Node, S)>,
        obs: &mut O,
    ) -> RoundStats {
        let timer = O::ENABLED.then(Instant::now);
        // Observer-hook time is kept apart so the `gauges` span reports the
        // observation overhead itself and `apply` stays pure state-writing.
        let mut hook_nanos = 0u64;
        if O::ENABLED {
            let t0 = Instant::now();
            obs.on_round_start(round, states);
            hook_nanos += nanos_since(t0);
        }
        let active = self.schedule == Schedule::Active;
        let privileged = self.moves.len();
        let mut moves_per_rule = vec![0u64; self.rules];
        let apply_timer = O::ENABLED.then(Instant::now);
        for (v, m) in self.moves.iter_mut() {
            moves_per_rule[m.rule] += 1;
            std::mem::swap(&mut states[v.index()], &mut m.next);
            if active {
                self.next.insert_closed(graph, *v);
            }
        }
        // The `on_move` hooks run as one timed batch after the writes (each
        // node moves at most once a round, so every hook still sees its own
        // move's state): two clock reads per round, not two per move.
        let mut move_hook_nanos = 0u64;
        if O::ENABLED {
            let t0 = Instant::now();
            for (v, m) in &self.moves {
                obs.on_move(*v, m.rule, &states[v.index()]);
            }
            move_hook_nanos = nanos_since(t0);
        }
        self.moves.clear();
        for (v, s) in rewrites {
            // Nothing changed, so nobody's view did either. (The runtime's
            // delta beacons suppress such a rewrite; skipping it here keeps
            // the two executors' worklists identical.)
            if states[v.index()] == s {
                continue;
            }
            states[v.index()] = s;
            if active {
                self.next.insert_closed(graph, v);
            }
        }
        if active {
            self.next.seal();
            self.cur.clear();
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        let (duration_micros, profile) = match (timer, apply_timer) {
            (Some(timer), Some(apply_timer)) => {
                let apply_nanos = nanos_since(apply_timer).saturating_sub(move_hook_nanos);
                let duration_micros = timer.elapsed().as_micros() as u64;
                let mut spans = std::mem::take(&mut self.pre);
                let pre_micros = spans.total_micros();
                spans.add_nanos(Phase::GuardEval, self.guard_nanos);
                spans.add_nanos(Phase::Apply, apply_nanos);
                spans.add_nanos(Phase::Gauges, hook_nanos + move_hook_nanos);
                let lane = ShardProfile {
                    shard: 0,
                    spans,
                    // `duration_micros` starts after evaluation; the lane's
                    // wall-clock adds the earlier phases back in.
                    round_micros: duration_micros + pre_micros + self.guard_nanos / 1_000,
                    inbox_max_depth: 0,
                    inbox_depth: 0,
                };
                (duration_micros, Some(RoundProfile { shards: vec![lane] }))
            }
            _ => (0, None),
        };
        RoundStats {
            round,
            privileged,
            evaluated: self.evaluated,
            moves_per_rule,
            duration_micros,
            beacon: None,
            runtime: None,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    /// `N[movers]`, sorted.
    fn closed_union(g: &Graph, movers: &[Node]) -> Vec<Node> {
        let mut s = ActiveSet::empty(g.n());
        for &v in movers {
            s.insert_closed(g, v);
        }
        s.seal();
        s.nodes().to_vec()
    }

    /// One full round: evaluate, then apply with `rewrites`; returns the
    /// round's stats and its movers.
    fn round(
        k: &mut Kernel<u8>,
        g: &Graph,
        states: &mut [u8],
        rewrites: Vec<(Node, u8)>,
    ) -> (RoundStats, Vec<Node>) {
        k.evaluate(g, &MaxProto, states, None, false);
        let movers: Vec<Node> = k.moves.iter().map(|&(v, _)| v).collect();
        (k.apply(1, g, states, rewrites, &mut ()), movers)
    }

    #[test]
    fn evaluated_is_n_under_full_and_the_mover_frontier_under_active() {
        for g in [generators::path(4), generators::cycle(4)] {
            let init = vec![3u8, 0, 0, 0];
            let mut full = Kernel::new(Schedule::Full, 4, 1);
            let mut act = Kernel::new(Schedule::Active, 4, 1);
            let (mut sf, mut sa) = (init.clone(), init);
            let mut frontier = g.nodes().collect::<Vec<_>>();
            loop {
                let (f, _) = round(&mut full, &g, &mut sf, Vec::new());
                let (a, movers) = round(&mut act, &g, &mut sa, Vec::new());
                assert_eq!(f.evaluated, 4, "full sweep evaluates n");
                assert_eq!(a.evaluated, frontier.len(), "active evaluates N[movers]");
                assert_eq!((f.privileged, &sf), (a.privileged, &sa));
                if a.privileged == 0 {
                    break;
                }
                frontier = closed_union(&g, &movers);
                assert_eq!(act.worklist().nodes(), &frontier[..]);
            }
            assert!(sa.iter().all(|&s| s == 3));
        }
    }

    #[test]
    fn seed_enters_the_current_worklist() {
        let g = generators::path(4);
        let mut k = Kernel::new(Schedule::Active, 4, 1);
        let mut states = vec![0u8; 4];
        // A fixpoint: the first evaluation consumes the full worklist.
        assert_eq!(k.evaluate(&g, &MaxProto, &states, None, false), 0);
        assert!(k.worklist().is_empty());
        // An out-of-band write at node 3, seeded before evaluation, makes
        // node 2 privileged in *this* round.
        states[3] = 2;
        k.seed(&g, [Node(3)]);
        assert_eq!(k.worklist().nodes(), &[Node(2), Node(3)]);
        assert_eq!(k.evaluate(&g, &MaxProto, &states, None, false), 1);
        let stats = k.apply(1, &g, &mut states, Vec::new(), &mut ());
        assert_eq!((stats.evaluated, stats.privileged), (2, 1));
        assert_eq!(states, vec![0, 0, 2, 2]);
    }

    #[test]
    fn noop_rewrite_leaves_the_next_worklist_unchanged() {
        let g = generators::path(4);
        let mut plain = Kernel::new(Schedule::Active, 4, 1);
        let mut rewritten = Kernel::new(Schedule::Active, 4, 1);
        let mut sp = vec![1u8, 0, 0, 0];
        let mut sr = sp.clone();
        round(&mut plain, &g, &mut sp, Vec::new());
        // Only node 1 moves, so the next worklist is N[1] = {0, 1, 2}.
        // Rewriting node 3 to the 0 it already holds changes nothing.
        round(&mut rewritten, &g, &mut sr, vec![(Node(3), 0)]);
        assert_eq!(sp, sr);
        assert_eq!(plain.worklist().nodes(), &[Node(0), Node(1), Node(2)]);
        assert_eq!(plain.worklist().nodes(), rewritten.worklist().nodes());
        // A rewrite that changes state marks its closed neighborhood.
        let mut changed = Kernel::new(Schedule::Active, 4, 1);
        let mut sc = vec![1u8, 0, 0, 0];
        round(&mut changed, &g, &mut sc, vec![(Node(3), 2)]);
        assert_eq!(sc[3], 2);
        assert_eq!(changed.worklist().len(), 4);
    }

    #[test]
    fn observed_apply_reports_one_serial_lane() {
        let g = generators::path(4);
        let mut k = Kernel::new(Schedule::Active, 4, 1);
        let mut states = vec![3u8, 0, 0, 0];
        k.evaluate(&g, &MaxProto, &states, None, true);
        k.record(Phase::Rehydrate, 5_000);
        let mut m = crate::obs::MetricsCollector::new();
        let stats = k.apply(1, &g, &mut states, Vec::new(), &mut m);
        let lanes = &stats
            .profile
            .expect("observed rounds carry a profile")
            .shards;
        assert_eq!(lanes.len(), 1);
        let spans = &lanes[0].spans;
        for phase in [Phase::GuardEval, Phase::Apply, Phase::Gauges] {
            assert_eq!(spans.count(phase), 1, "{}", phase.label());
        }
        assert_eq!(spans.micros(Phase::Rehydrate), 5);
        assert_eq!(stats.moves_per_rule, vec![1]);
    }
}
