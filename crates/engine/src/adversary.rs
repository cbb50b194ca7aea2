//! Byzantine nodes and asymmetric links: adversarial fault models shared by
//! the serial executor and the sharded runtime.
//!
//! The chaos layer ([`crate::chaos`], `selfstab-runtime`'s `FaultPlan`)
//! covers *benign* faults only — a corrupted frame is always detected and
//! discarded, and a link drops both directions with the same hash. This
//! module adds the two failure modes the ROADMAP carries from the related
//! work:
//!
//! * **Byzantine nodes** ([`ByzPlan`]): a compromised node advertises
//!   arbitrary but *well-formed* states. Each round, the adversary picks a
//!   fresh adversarial state per Byzantine node (splitmix64-deterministic in
//!   `(seed, round, node)` — runs replay exactly), and that state is what
//!   every honest neighbor sees from the next round on. Crucially, the write
//!   is keyed on the round and the node only — never the receiver — so a
//!   Byzantine node still *broadcasts* consistently, and serial ≡ sharded
//!   equality holds at every shard count. The interesting question is then
//!   measured, not assumed: how far does the damage spread into the honest
//!   subgraph (`selfstab-graph`'s containment predicates)?
//! * **Asymmetric links** ([`AsymPlan`]): each *directed* edge `(w → v)`
//!   gets an independent per-round fate hash, so a link can pass `u → v`
//!   while dropping `v → u`. Receivers keep a [`Perception`] buffer of the
//!   last state heard per neighbor; evaluation runs on the perceived states
//!   (a [`crate::protocol::View`] overlay), which lag the true ones while
//!   the inbound direction is down. Masuzawa–Tixeuil prove stabilizing MIS
//!   is hard in unidirectional networks — the deliverable here is measuring
//!   *how* it degrades, with one seeded fault model on both executors.
//!
//! Both plans are **zero-cost when unused**: an empty Byzantine set and
//! `p = 0` take the plain code paths, byte-identical to a plan-free run.

use crate::protocol::Protocol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::{Graph, Node};

// Re-exported for `selfstab-core` and `selfstab-runtime`, which hash with
// it but do not depend on `selfstab-analysis`.
pub use selfstab_analysis::seeds::splitmix64;

/// Map a hash to `[0, 1)` using the top 53 bits (exactly representable).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// How a Byzantine node picks the state it advertises each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzStrategy {
    /// A fresh arbitrary state every round (for SMM: a uniformly random
    /// pointer into the neighborhood or null) — maximal-entropy noise.
    RandomPointer,
    /// Copy a pseudo-randomly chosen neighbor's current state — camouflage:
    /// the advertised state is always one a correct node could hold.
    MimicNeighbor,
    /// Alternate between two fixed arbitrary states by round parity — the
    /// classic livelock probe (can the adversary keep neighbors flapping?).
    Oscillate,
}

impl ByzStrategy {
    /// Parse a CLI spec value (`random` | `mimic` | `oscillate`).
    pub fn parse(s: &str) -> Result<ByzStrategy, String> {
        match s {
            "random" => Ok(ByzStrategy::RandomPointer),
            "mimic" => Ok(ByzStrategy::MimicNeighbor),
            "oscillate" => Ok(ByzStrategy::Oscillate),
            other => Err(format!(
                "unknown byzantine strategy '{other}' (expected random|mimic|oscillate)"
            )),
        }
    }

    /// The spec name (inverse of [`ByzStrategy::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            ByzStrategy::RandomPointer => "random",
            ByzStrategy::MimicNeighbor => "mimic",
            ByzStrategy::Oscillate => "oscillate",
        }
    }
}

/// A seeded Byzantine adversary: which nodes are compromised, how they pick
/// adversarial states, and for how long.
///
/// Execution model (identical on the serial executor and every shard
/// count): in each hot round, after the honest moves of the round are
/// applied, every Byzantine node's state is overwritten with
/// [`ByzPlan::state_for`] computed from the round's *pre-apply* snapshot —
/// "as if the node moved". All readers therefore observe the adversarial
/// value from the next round's evaluation, through the same beacon
/// machinery as any honest move. After `until` the adversary freezes at its
/// last advertised state, making recovery measurable.
#[derive(Clone, Debug)]
pub struct ByzPlan {
    /// Compromised nodes, sorted ascending.
    pub nodes: Vec<Node>,
    /// The per-round state-selection strategy.
    pub strategy: ByzStrategy,
    /// Seed of the adversary's hash chain.
    pub seed: u64,
    /// Last round (inclusive, in absolute-clock rounds) the adversary
    /// rewrites states; `None` = forever (the run then ends at the round
    /// limit — there is no stabilization under a live adversary).
    pub until: Option<usize>,
    /// Absolute-clock offset added to local round numbers (segmented runs).
    pub round_offset: usize,
}

impl ByzPlan {
    /// A plan compromising `nodes` (deduplicated and sorted here).
    pub fn new(mut nodes: Vec<Node>, strategy: ByzStrategy, seed: u64) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        ByzPlan {
            nodes,
            strategy,
            seed,
            until: None,
            round_offset: 0,
        }
    }

    /// Stop rewriting after the given absolute round (inclusive).
    pub fn with_until(mut self, until: usize) -> Self {
        self.until = Some(until);
        self
    }

    /// Shift the round clock (segmented/resumed runs).
    pub fn with_round_offset(mut self, offset: usize) -> Self {
        self.round_offset = offset;
        self
    }

    /// Whether `v` is compromised.
    #[inline]
    pub fn is_byz(&self, v: Node) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Whether the adversary rewrites states in (local) round `round`.
    #[inline]
    pub fn hot(&self, round: usize) -> bool {
        !self.nodes.is_empty() && self.until.is_none_or(|u| round + self.round_offset <= u)
    }

    /// The per-(round, node) hash driving every strategy.
    fn hash(&self, round: usize, b: Node) -> u64 {
        let mut h = splitmix64(self.seed ^ 0xB12A_11CE_0DD5_EEDB);
        h = splitmix64(h ^ (round + self.round_offset) as u64);
        h = splitmix64(h ^ u64::from(b.0));
        h
    }

    /// The adversarial state `b` advertises entering the next round,
    /// computed from the current round's **pre-apply** snapshot `states`.
    /// Deterministic in `(seed, round, b)` — never in the receiver — so a
    /// Byzantine node broadcasts consistently.
    pub fn state_for<P: Protocol>(
        &self,
        proto: &P,
        graph: &Graph,
        b: Node,
        round: usize,
        states: &[P::State],
    ) -> P::State {
        let h = self.hash(round, b);
        let neighbors = graph.neighbors(b);
        match self.strategy {
            ByzStrategy::RandomPointer => {
                proto.arbitrary_state(b, neighbors, &mut StdRng::seed_from_u64(h))
            }
            ByzStrategy::MimicNeighbor => {
                if neighbors.is_empty() {
                    proto.arbitrary_state(b, neighbors, &mut StdRng::seed_from_u64(h))
                } else {
                    let w = neighbors[(h % neighbors.len() as u64) as usize];
                    states[w.index()].clone()
                }
            }
            ByzStrategy::Oscillate => {
                // Two fixed per-node states, alternating by round parity:
                // the hash is keyed on parity instead of the round, so the
                // same pair recurs for the plan's whole lifetime.
                let parity = (round + self.round_offset) % 2;
                let mut ph = splitmix64(self.seed ^ 0x05C1_11A7_E0DD_B175);
                ph = splitmix64(ph ^ u64::from(b.0));
                ph = splitmix64(ph ^ parity as u64);
                proto.arbitrary_state(b, neighbors, &mut StdRng::seed_from_u64(ph))
            }
        }
    }

    /// All Byzantine writes for one round, in ascending node order:
    /// `(node, adversarial state)` pairs ready to apply after the round's
    /// honest moves. Empty when the round is not hot.
    pub fn writes_for<P: Protocol>(
        &self,
        proto: &P,
        graph: &Graph,
        round: usize,
        states: &[P::State],
    ) -> Vec<(Node, P::State)> {
        if !self.hot(round) {
            return Vec::new();
        }
        self.nodes
            .iter()
            .map(|&b| (b, self.state_for(proto, graph, b, round, states)))
            .collect()
    }
}

/// A seeded asymmetric-link model: each *directed* edge `(from → to)` is
/// independently up or down per round, with down-probability `p`.
#[derive(Clone, Debug)]
pub struct AsymPlan {
    /// Per-direction, per-round probability the link is down, in `[0, 1]`.
    pub p: f64,
    /// Seed of the fate-hash chain.
    pub seed: u64,
    /// Last round (inclusive, absolute clock) links may fail; `None` =
    /// forever.
    pub until: Option<usize>,
    /// Absolute-clock offset added to local round numbers.
    pub round_offset: usize,
}

impl AsymPlan {
    /// A plan with down-probability `p` and the given seed.
    pub fn new(p: f64, seed: u64) -> Self {
        AsymPlan {
            p,
            seed,
            until: None,
            round_offset: 0,
        }
    }

    /// Stop failing links after the given absolute round (inclusive).
    pub fn with_until(mut self, until: usize) -> Self {
        self.until = Some(until);
        self
    }

    /// Shift the round clock (segmented/resumed runs).
    pub fn with_round_offset(mut self, offset: usize) -> Self {
        self.round_offset = offset;
        self
    }

    /// Whether links may fail in (local) round `round`.
    #[inline]
    pub fn hot(&self, round: usize) -> bool {
        self.p > 0.0 && self.until.is_none_or(|u| round + self.round_offset <= u)
    }

    /// Whether round `round` must evaluate **every** node rather than the
    /// active worklist. While links may fail — and for one catch-up round
    /// after the window closes — a node's perceived view can change without
    /// any neighbor moving (a down direction coming back up reveals a missed
    /// move), so the active-set invariant does not hold and worklist pruning
    /// would be unsound. Both executors apply the same rule, keeping them
    /// identical.
    #[inline]
    pub fn sweep(&self, round: usize) -> bool {
        self.hot(round) || (round > 0 && self.hot(round - 1))
    }

    /// Whether the directed link `from → to` delivers in `round`. Always
    /// true outside the hot window. Note the asymmetry is the point:
    /// `link_up(r, u, v)` and `link_up(r, v, u)` hash independently.
    #[inline]
    pub fn link_up(&self, round: usize, from: Node, to: Node) -> bool {
        if !self.hot(round) {
            return true;
        }
        let mut h = splitmix64(self.seed ^ 0xA5E7_11D1_2EC7_ED6E);
        h = splitmix64(h ^ (round + self.round_offset) as u64);
        h = splitmix64(h ^ u64::from(from.0));
        h = splitmix64(h ^ u64::from(to.0));
        unit(h) >= self.p
    }
}

/// Per-receiver memory of the last state *heard* from each neighbor, for
/// the asymmetric-link model: CSR-aligned rows over a tracked node set, one
/// slot per neighbor.
///
/// The contract mirrors the beacon receiver: at the top of each hot round,
/// [`Perception::refresh`] copies `states[w]` into `v`'s row for every
/// inbound direction `w → v` that is up; a down direction leaves the last
/// heard value in place (staleness accumulates across consecutive down
/// rounds). Evaluation then reads the row through a
/// [`crate::protocol::View`] overlay. Rows start from the initial states —
/// every node heard the boot beacon.
#[derive(Clone, Debug)]
pub struct Perception<S> {
    /// Row offsets: row `i` (tracked node `i`) is `buf[start[i]..start[i+1]]`.
    start: Vec<usize>,
    /// Tracked nodes, ascending (row index ↔ position here).
    nodes: Vec<Node>,
    /// Perceived neighbor states, CSR-packed.
    buf: Vec<S>,
    /// Whether any perceived state differed from the true one after the
    /// last refresh — the keep-alive signal (stale receivers may still
    /// converge to wrong fixpoints; the run must not report stabilization
    /// while perception lags).
    lagging: bool,
}

impl<S: Clone + PartialEq> Perception<S> {
    /// Build rows for `tracked` (must be sorted ascending), seeded from the
    /// current `states`.
    pub fn new(graph: &Graph, tracked: &[Node], states: &[S]) -> Self {
        debug_assert!(tracked.windows(2).all(|w| w[0] < w[1]));
        let mut start = Vec::with_capacity(tracked.len() + 1);
        let mut buf = Vec::new();
        start.push(0);
        for &v in tracked {
            for &w in graph.neighbors(v) {
                buf.push(states[w.index()].clone());
            }
            start.push(buf.len());
        }
        Perception {
            start,
            nodes: tracked.to_vec(),
            buf,
            lagging: false,
        }
    }

    /// Deliver this round's inbound beacons: for every tracked `v` and
    /// neighbor `w`, copy `states[w]` iff the direction `w → v` is up.
    /// Recomputes the lagging flag and returns how many inbound directions
    /// were down (the runtime's `asym_links_down` counter).
    pub fn refresh(&mut self, graph: &Graph, plan: &AsymPlan, round: usize, states: &[S]) -> u64 {
        let mut lagging = false;
        let mut down = 0u64;
        for (i, &v) in self.nodes.iter().enumerate() {
            let row = &mut self.buf[self.start[i]..self.start[i + 1]];
            for (slot, &w) in row.iter_mut().zip(graph.neighbors(v)) {
                if plan.link_up(round, w, v) {
                    slot.clone_from(&states[w.index()]);
                } else {
                    down += 1;
                    if *slot != states[w.index()] {
                        lagging = true;
                    }
                }
            }
        }
        self.lagging = lagging;
        down
    }

    /// The perceived-neighbor-state row of the tracked node at position
    /// `pos` (aligned with `graph.neighbors(node)`).
    #[inline]
    pub fn row(&self, pos: usize) -> &[S] {
        &self.buf[self.start[pos]..self.start[pos + 1]]
    }

    /// The tracked nodes, ascending: row `pos` belongs to `tracked()[pos]`.
    #[inline]
    pub fn tracked(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether any perceived state lagged the true one at the last refresh.
    #[inline]
    pub fn lagging(&self) -> bool {
        self.lagging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    #[test]
    fn byz_plan_sorts_dedups_and_replays() {
        let g = generators::cycle(6);
        let plan = ByzPlan::new(
            vec![Node(4), Node(1), Node(4)],
            ByzStrategy::RandomPointer,
            7,
        );
        assert_eq!(plan.nodes, vec![Node(1), Node(4)]);
        assert!(plan.is_byz(Node(1)) && !plan.is_byz(Node(0)));
        let states = vec![5u8; 6];
        let a = plan.writes_for(&MaxProto, &g, 3, &states);
        let b = plan.writes_for(&MaxProto, &g, 3, &states);
        assert_eq!(a, b, "deterministic in (seed, round, node)");
        assert_eq!(a.len(), 2);
        // Different rounds draw different hashes (with overwhelming
        // probability two of three consecutive rounds differ for u8 states).
        let c = plan.writes_for(&MaxProto, &g, 4, &states);
        let d = plan.writes_for(&MaxProto, &g, 5, &states);
        assert!(a != c || a != d, "round must enter the hash");
    }

    #[test]
    fn byz_until_freezes_the_adversary() {
        let plan = ByzPlan::new(vec![Node(0)], ByzStrategy::RandomPointer, 1).with_until(4);
        assert!(plan.hot(0) && plan.hot(4));
        assert!(!plan.hot(5));
        let offset = ByzPlan::new(vec![Node(0)], ByzStrategy::RandomPointer, 1)
            .with_until(4)
            .with_round_offset(3);
        assert!(offset.hot(1));
        assert!(!offset.hot(2), "offset shifts the clock");
        let empty = ByzPlan::new(vec![], ByzStrategy::RandomPointer, 1);
        assert!(!empty.hot(0), "no nodes, never hot");
    }

    #[test]
    fn mimic_copies_a_neighbor_and_oscillate_has_period_two() {
        let g = generators::path(4);
        let states = vec![10u8, 20, 30, 40];
        let mimic = ByzPlan::new(vec![Node(1)], ByzStrategy::MimicNeighbor, 3);
        for round in 0..8 {
            let s = mimic.state_for(&MaxProto, &g, Node(1), round, &states);
            assert!(s == 10 || s == 30, "mimic must copy a live neighbor");
        }
        let osc = ByzPlan::new(vec![Node(2)], ByzStrategy::Oscillate, 3);
        let s0 = osc.state_for(&MaxProto, &g, Node(2), 0, &states);
        let s1 = osc.state_for(&MaxProto, &g, Node(2), 1, &states);
        for round in 2..10 {
            let s = osc.state_for(&MaxProto, &g, Node(2), round, &states);
            assert_eq!(s, if round % 2 == 0 { s0 } else { s1 });
        }
    }

    #[test]
    fn strategy_parse_roundtrips() {
        for s in [
            ByzStrategy::RandomPointer,
            ByzStrategy::MimicNeighbor,
            ByzStrategy::Oscillate,
        ] {
            assert_eq!(ByzStrategy::parse(s.name()), Ok(s));
        }
        assert!(ByzStrategy::parse("evil").is_err());
    }

    #[test]
    fn asym_is_directional_and_deterministic() {
        let plan = AsymPlan::new(0.5, 11);
        let mut asym_pairs = 0;
        for round in 0..64 {
            for a in 0..8u32 {
                for b in 0..8u32 {
                    if a == b {
                        continue;
                    }
                    let ab = plan.link_up(round, Node(a), Node(b));
                    let ba = plan.link_up(round, Node(b), Node(a));
                    assert_eq!(ab, plan.link_up(round, Node(a), Node(b)));
                    if ab != ba {
                        asym_pairs += 1;
                    }
                }
            }
        }
        assert!(asym_pairs > 0, "directions must hash independently");
    }

    #[test]
    fn asym_zero_p_and_cold_rounds_always_deliver() {
        let zero = AsymPlan::new(0.0, 5);
        assert!(!zero.hot(0));
        assert!(zero.link_up(0, Node(0), Node(1)));
        let windowed = AsymPlan::new(1.0, 5).with_until(2);
        assert!(!windowed.link_up(1, Node(0), Node(1)), "p=1 drops all");
        assert!(windowed.link_up(3, Node(0), Node(1)), "past until: clean");
    }

    #[test]
    fn perception_lags_down_directions_and_recovers() {
        let g = generators::path(3);
        let tracked: Vec<Node> = g.nodes().collect();
        let states = vec![1u8, 2, 3];
        let mut per = Perception::new(&g, &tracked, &states);
        assert!(!per.lagging());
        // p=1 within the window: nothing refreshes, rows keep boot values.
        let plan = AsymPlan::new(1.0, 9).with_until(0);
        let newer = vec![4u8, 5, 6];
        per.refresh(&g, &plan, 0, &newer);
        assert!(per.lagging(), "all directions down, everyone stale");
        let pos = per.tracked().binary_search(&Node(1)).unwrap();
        assert_eq!(per.row(pos), &[1, 3], "row holds the last heard values");
        // Past the window every direction is up again: rows catch up.
        per.refresh(&g, &plan, 1, &newer);
        assert!(!per.lagging());
        assert_eq!(per.row(pos), &[4, 6]);
    }
}
