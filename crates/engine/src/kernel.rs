//! The synchronous round kernel: one transition of the paper's daemon.
//!
//! Under the synchronous daemon a round is a single step: every node that is
//! privileged on the previous round's beacons fires at once. [`Kernel`] owns
//! that step for every round loop — [`crate::sync::SyncExecutor`], the
//! churned loop in [`crate::chaos`], the resident service's serial drain,
//! and each worker of the sharded runtime — so guard evaluation, move
//! application and worklist upkeep are written exactly once:
//!
//! 1. [`Kernel::evaluate`] runs the guards over the current worklist (every
//!    node under [`Schedule::Full`], the paper-literal reference; every
//!    node a [`Perception`] tracks, on its *perceived* view, while an
//!    asymmetric-link window is live) and buffers the moves;
//! 2. [`Kernel::apply`] applies them in node order, marks each mover's
//!    closed neighborhood `N[v]` into the next worklist, applies the
//!    caller's post-apply rewrites, seals, and swaps the worklists.
//!
//! A caller decides only what surrounds the step: what to
//! [`Kernel::seed`] into the current worklist before evaluation (crash
//! victims, churned edge endpoints, service mutations, beacons received
//! from other shards), which rewrites to hand to [`Kernel::apply`]
//! (Byzantine writes), and when to stop.
//!
//! A runtime worker drives a [`Kernel::for_shard`]: the same step, with
//! evaluation restricted to the nodes its shard owns. Everything else a
//! worker does — the termination vote, the beacon exchange, delta-beacon
//! suppression, chaos and crash rehydration — is distribution, not the
//! round. The independent reference the equivalence suite checks every
//! round loop against is the serial [`Schedule::Full`] sweep.

use std::time::Instant;

use crate::active::{ActiveSet, Schedule};
use crate::adversary::Perception;
use crate::obs::{Observer, Phase, PhaseSpans, RoundProfile, RoundStats, ShardProfile};
use crate::protocol::{Move, Protocol, View};
use selfstab_graph::{Graph, Node};

/// Every privileged node's move on `states`, in node order: one full sweep
/// of the guards (the definition of a synchronous round's movers, and the
/// set the central and distributed daemons choose from).
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
    /// The nodes this kernel evaluates, when not every node (a runtime
    /// shard's owned set; see [`Kernel::for_shard`]).
    owned: Option<ActiveSet>,
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
            owned: None,
            cur: ActiveSet::full(n),
            next: ActiveSet::empty(n),
            moves: Vec::new(),
            evaluated: 0,
            guard_nanos: 0,
            pre: PhaseSpans::new(),
        }
    }

    /// A kernel that evaluates only `owned` (a runtime shard's nodes): all
    /// of them under [`Schedule::Full`], `owned ∩ worklist` under
    /// [`Schedule::Active`]. Moves, rewrites and seeds still mark closed
    /// neighborhoods over all `n` nodes, so when each shard seeds the
    /// changes it hears from the others, the owned parts of the per-shard
    /// worklists split the every-node kernel's worklist, round for round.
    pub fn for_shard(schedule: Schedule, n: usize, rules: usize, owned: &[Node]) -> Self {
        let mut set = ActiveSet::empty(n);
        for &v in owned {
            set.insert(v);
        }
        set.seal();
        Kernel {
            owned: Some(set),
            ..Kernel::new(schedule, n, rules)
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
    /// number of privileged nodes. With `perceived`, every node it tracks
    /// is evaluated on what it last heard from each neighbor. A round with no
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
        match (perceived, self.schedule, &self.owned) {
            (Some(per), _, _) => {
                let tracked = per.tracked();
                self.moves
                    .extend(tracked.iter().enumerate().filter_map(|(pos, &v)| {
                        let view = View::with_overlay(v, graph.neighbors(v), states, per.row(pos));
                        proto.step(view).map(|m| (v, m))
                    }));
                self.evaluated = tracked.len();
            }
            (None, Schedule::Full, None) => {
                guards(graph, proto, states, graph.nodes(), &mut self.moves);
                self.evaluated = graph.n();
            }
            (None, Schedule::Full, Some(owned)) => {
                let nodes = owned.nodes().iter().copied();
                guards(graph, proto, states, nodes, &mut self.moves);
                self.evaluated = owned.len();
            }
            (None, Schedule::Active, None) => {
                let nodes = self.cur.nodes().iter().copied();
                guards(graph, proto, states, nodes, &mut self.moves);
                self.evaluated = self.cur.len();
            }
            (None, Schedule::Active, Some(owned)) => {
                let mut evaluated = 0;
                let nodes = self.cur.nodes().iter().copied();
                let nodes = nodes
                    .filter(|&v| owned.contains(v))
                    .inspect(|_| evaluated += 1);
                guards(graph, proto, states, nodes, &mut self.moves);
                self.evaluated = evaluated;
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

    /// The moves the last [`Kernel::evaluate`] buffered, in node order;
    /// [`Kernel::apply`] consumes them.
    pub fn pending(&self) -> &[(Node, Move<S>)] {
        &self.moves
    }

    /// Apply the buffered moves as round `round` (1-based), in node order,
    /// then `rewrites` (post-apply state overrides; one that leaves the
    /// node's state unchanged is skipped, marks nothing and is removed from
    /// `rewrites`, which keeps only the rewrites applied), then seal and
    /// swap the worklists. Fires `on_round_start` and `on_move`; the caller
    /// fires `on_round_end` with the returned stats, which carry the
    /// serial lane's phase spans when `O` is enabled.
    pub fn apply<O: Observer<S>>(
        &mut self,
        round: usize,
        graph: &Graph,
        states: &mut [S],
        rewrites: &mut Vec<(Node, S)>,
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
        rewrites.retain(|(v, s)| {
            // Nothing changed, so nobody's view did either, and no beacon
            // needs to carry it.
            if states[v.index()] == *s {
                return false;
            }
            states[v.index()] = s.clone();
            if active {
                self.next.insert_closed(graph, *v);
            }
            true
        });
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
        mut rewrites: Vec<(Node, u8)>,
    ) -> (RoundStats, Vec<Node>) {
        k.evaluate(g, &MaxProto, states, None, false);
        let movers: Vec<Node> = k.moves.iter().map(|&(v, _)| v).collect();
        (k.apply(1, g, states, &mut rewrites, &mut ()), movers)
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
        let stats = k.apply(1, &g, &mut states, &mut Vec::new(), &mut ());
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
    fn shard_kernels_split_the_serial_worklist_by_owner() {
        use crate::adversary::AsymPlan;
        // Three interleaved shards put an owner boundary on most edges. Node
        // 7 is rewritten every round to a value cycling through 0..4 (a
        // no-op when it already holds it), which keeps a frontier moving.
        let g = generators::grid(5, 4);
        let n = g.n();
        let all: Vec<Node> = g.nodes().collect();
        let owner = |v: Node| v.index() % 3;
        let owned: Vec<Vec<Node>> = (0..3)
            .map(|s| g.nodes().filter(|&v| owner(v) == s).collect())
            .collect();
        let init: Vec<u8> = (0..n).map(|i| [0, 1, 0, 0, 2, 0, 0][i % 7]).collect();
        let asym = AsymPlan::new(0.4, 5).with_until(2);
        for schedule in [Schedule::Full, Schedule::Active] {
            for perceive in [false, true] {
                let mut serial = Kernel::new(schedule, n, 1);
                let mut shards: Vec<Kernel<u8>> = owned
                    .iter()
                    .map(|own| Kernel::for_shard(schedule, n, 1, own))
                    .collect();
                let mut states = init.clone();
                let mut local = vec![init.clone(); 3];
                let mut serial_per = Perception::new(&g, &all, &states);
                let mut shard_per: Vec<Perception<u8>> = owned
                    .iter()
                    .map(|own| Perception::new(&g, own, &states))
                    .collect();
                for round in 0..8 {
                    let live = perceive && asym.hot(round);
                    if live {
                        serial_per.refresh(&g, &asym, round, &states);
                        for per in &mut shard_per {
                            per.refresh(&g, &asym, round, &states);
                        }
                    } else if perceive && asym.sweep(round) {
                        serial.seed(&g, all.iter().copied());
                        for (k, own) in shards.iter_mut().zip(&owned) {
                            k.seed(&g, own.iter().copied());
                        }
                    }
                    let worklist = serial.worklist().nodes().to_vec();
                    serial.evaluate(&g, &MaxProto, &states, live.then_some(&serial_per), false);
                    let mut pending = Vec::new();
                    let mut evaluated = 0;
                    for (s, k) in shards.iter_mut().enumerate() {
                        k.evaluate(
                            &g,
                            &MaxProto,
                            &local[s],
                            live.then_some(&shard_per[s]),
                            false,
                        );
                        let mine = worklist.iter().filter(|&&v| owner(v) == s).count();
                        if schedule == Schedule::Active && !live {
                            assert_eq!(k.evaluated, mine, "round {round} shard {s}");
                        } else {
                            assert_eq!(k.evaluated, owned[s].len(), "round {round} shard {s}");
                        }
                        evaluated += k.evaluated;
                        pending.extend_from_slice(k.pending());
                    }
                    pending.sort_by_key(|&(v, _)| v);
                    assert_eq!(evaluated, serial.evaluated, "round {round}");
                    assert_eq!(pending, serial.pending(), "round {round}");

                    let rewrite = (Node(7), (round % 4) as u8);
                    let mut rewrites = vec![rewrite];
                    serial.apply(round + 1, &g, &mut states, &mut rewrites, &mut ());
                    for (s, k) in shards.iter_mut().enumerate() {
                        let mut mine = vec![rewrite];
                        mine.retain(|&(v, _)| owner(v) == s);
                        k.apply(round + 1, &g, &mut local[s], &mut mine, &mut ());
                        if owner(rewrite.0) == s {
                            assert_eq!(mine, rewrites, "only applied rewrites are kept");
                        }
                    }
                    // Owners hold the serial states; every other shard hears
                    // each change as a beacon and seeds it.
                    for v in g.nodes() {
                        assert_eq!(local[owner(v)][v.index()], states[v.index()]);
                    }
                    for (s, k) in shards.iter_mut().enumerate() {
                        let heard: Vec<Node> = g
                            .nodes()
                            .filter(|&v| local[s][v.index()] != states[v.index()])
                            .collect();
                        local[s].clone_from(&states);
                        k.seed(&g, heard);
                        if schedule == Schedule::Active {
                            let mine = |w: &ActiveSet| {
                                let nodes = w.nodes().iter().copied();
                                nodes.filter(|&v| owner(v) == s).collect::<Vec<_>>()
                            };
                            assert_eq!(
                                mine(k.worklist()),
                                mine(serial.worklist()),
                                "round {round}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn observed_apply_reports_one_serial_lane() {
        let g = generators::path(4);
        let mut k = Kernel::new(Schedule::Active, 4, 1);
        let mut states = vec![3u8, 0, 0, 0];
        k.evaluate(&g, &MaxProto, &states, None, true);
        k.record(Phase::Rehydrate, 5_000);
        let mut m = crate::obs::MetricsCollector::new();
        let stats = k.apply(1, &g, &mut states, &mut Vec::new(), &mut m);
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
