//! Active-set (dirty-node) round scheduling.
//!
//! The synchronous daemon's semantics are defined by a full sweep: every
//! round, every node's guards are evaluated against the previous round's
//! states. But a guard is a pure function of the node's *closed
//! neighborhood* `N[v] = {v} ∪ N(v)` — exactly the information a beacon
//! round delivers — so re-evaluating a node whose closed neighborhood did
//! not change must return the same answer it returned last round. Under the
//! synchronous daemon "the same answer" is always *not privileged*: a node
//! that was privileged in round `r` moved in round `r` (every privileged
//! node fires), so it is in its own closed neighborhood's dirty set for
//! round `r + 1`.
//!
//! It follows that the set
//!
//! ```text
//! active(r + 1) = ⋃ { N[u] : u moved in round r },   active(1) = V
//! ```
//!
//! is a superset of the privileged set of round `r + 1`, and evaluating
//! only `active(r + 1)` yields move-for-move, state-for-state, and
//! round-for-round identical executions to the full sweep — this is pure
//! evaluation pruning, not a different daemon. The paper's own analysis
//! says this prunes a lot: after round 1 the `A¹`/`P_A` classes are empty
//! (Lemmas 4–7) and while moves continue only a shrinking frontier is
//! privileged (Lemmas 9–10), so total evaluation work tracks *moves*, not
//! `n · rounds`.
//!
//! [`ActiveSet`] is the worklist of the round kernel ([`crate::kernel`],
//! behind [`crate::sync::SyncExecutor`], the churned loop and the resident
//! service's drain) and of the sharded runtime executor. Marking sets one
//! bit of a `u64` bitmap per closed-neighborhood entry, with no branch and
//! no push; [`ActiveSet::seal`] rebuilds the node-ordered worklist by
//! scanning the words. Cost per round is `O(n/64 + f)` for a frontier of
//! `f` dirty nodes: about 157 words at `n = 10⁴`, with no sort.

use selfstab_graph::{Graph, Node};

/// How an executor decides which nodes to evaluate each round.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Evaluate every node every round (the literal paper semantics).
    Full,
    /// Evaluate only nodes whose closed neighborhood changed in the
    /// previous round. Identical results, provably (and property-tested).
    #[default]
    Active,
}

impl Schedule {
    /// Parse a CLI-style name (`full` / `active`).
    pub fn parse(name: &str) -> Result<Schedule, String> {
        match name {
            "full" => Ok(Schedule::Full),
            "active" => Ok(Schedule::Active),
            other => Err(format!("unknown schedule '{other}' (expected full|active)")),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Full => "full",
            Schedule::Active => "active",
        })
    }
}

/// A deduplicating worklist of dirty nodes, iterated in node order.
///
/// The two-phase protocol per round is: mark (`insert` /
/// [`ActiveSet::insert_closed`]) while applying moves, then [`ActiveSet::seal`]
/// once to rebuild the sorted worklist before the next evaluation pass.
/// Marks land in a bitmap; [`ActiveSet::nodes`], [`ActiveSet::len`] and
/// [`ActiveSet::is_empty`] report the set as of the last `seal`, while
/// [`ActiveSet::contains`] sees every mark at once. Executors keep two sets
/// and ping-pong between them.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    /// Bit `v % 64` of word `v / 64` is set iff `v` is marked.
    bits: Vec<u64>,
    /// The marked nodes in node order, as of the last [`ActiveSet::seal`].
    nodes: Vec<Node>,
}

impl ActiveSet {
    /// An empty set over `n` nodes.
    pub fn empty(n: usize) -> Self {
        ActiveSet {
            bits: vec![0; n.div_ceil(64)],
            nodes: Vec::new(),
        }
    }

    /// The full set over `n` nodes (round 1: every node is dirty).
    pub fn full(n: usize) -> Self {
        let mut set = ActiveSet::empty(n);
        for i in 0..n {
            set.insert(Node(i as u32));
        }
        set.seal();
        set
    }

    /// Mark one node dirty (no-op if already marked).
    #[inline]
    pub fn insert(&mut self, v: Node) {
        self.bits[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Mark the closed neighborhood `N[v]` dirty — the propagation rule for
    /// a node `v` that just moved.
    pub fn insert_closed(&mut self, graph: &Graph, v: Node) {
        self.insert(v);
        for &w in graph.neighbors(v) {
            self.insert(w);
        }
    }

    /// Rebuild the node-ordered worklist from the marks. Call once per
    /// round, before [`ActiveSet::nodes`] feeds the next evaluation pass.
    pub fn seal(&mut self) {
        self.nodes.clear();
        for (i, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                self.nodes.push(Node((i * 64 + bit) as u32));
                rest &= rest - 1;
            }
        }
    }

    /// The dirty nodes in node order, as of the last [`ActiveSet::seal`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether `v` is marked dirty.
    pub fn contains(&self, v: Node) -> bool {
        self.bits[v.index() / 64] & (1 << (v.index() % 64)) != 0
    }

    /// Number of dirty nodes, as of the last [`ActiveSet::seal`].
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node was dirty at the last [`ActiveSet::seal`].
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Unmark everything, in `O(n/64)`.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.nodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use selfstab_graph::generators;
    use std::collections::BTreeSet;

    #[test]
    fn full_set_is_every_node_in_order() {
        let s = ActiveSet::full(4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.nodes(), &[Node(0), Node(1), Node(2), Node(3)]);
        assert!(s.contains(Node(3)));
    }

    #[test]
    fn insert_dedups_and_seal_sorts() {
        let mut s = ActiveSet::empty(5);
        s.insert(Node(3));
        s.insert(Node(1));
        s.insert(Node(3));
        s.seal();
        assert_eq!(s.nodes(), &[Node(1), Node(3)]);
        assert!(s.contains(Node(1)));
        assert!(!s.contains(Node(0)));
    }

    #[test]
    fn insert_closed_marks_the_closed_neighborhood() {
        let g = generators::star(5); // hub 0, leaves 1..=4
        let mut s = ActiveSet::empty(5);
        s.insert_closed(&g, Node(2));
        s.seal();
        assert_eq!(s.nodes(), &[Node(0), Node(2)]);
        let mut s = ActiveSet::empty(5);
        s.insert_closed(&g, Node(0));
        s.seal();
        assert_eq!(s.len(), 5, "hub's closed neighborhood is everything");
    }

    #[test]
    fn clear_resets_flags_for_reuse() {
        let g = generators::cycle(6);
        let mut s = ActiveSet::empty(6);
        s.insert_closed(&g, Node(0));
        s.clear();
        assert!(s.is_empty());
        assert!((0..6).all(|i| !s.contains(Node(i as u32))));
        s.insert(Node(5));
        s.seal();
        assert_eq!(s.nodes(), &[Node(5)]);
    }

    #[test]
    fn schedule_parses_and_displays() {
        assert_eq!(Schedule::parse("full"), Ok(Schedule::Full));
        assert_eq!(Schedule::parse("active"), Ok(Schedule::Active));
        assert!(Schedule::parse("lazy").is_err());
        assert_eq!(Schedule::Active.to_string(), "active");
        assert_eq!(Schedule::Full.to_string(), "full");
        assert_eq!(Schedule::default(), Schedule::Active);
    }

    /// Marks for one phase: single nodes, or closed neighborhoods on `g`.
    fn mark(s: &mut ActiveSet, model: &mut BTreeSet<Node>, g: &Graph, marks: &[(bool, u32)]) {
        for &(closed, v) in marks {
            let v = Node(v % g.n() as u32);
            if closed {
                s.insert_closed(g, v);
                model.extend(g.neighbors(v));
            } else {
                s.insert(v);
            }
            model.insert(v);
        }
    }

    type Phase = Vec<(bool, u32)>;

    fn arb_phases() -> impl Strategy<Value = (usize, u64, Phase, Phase)> {
        let phase = || collection::vec((any::<bool>(), any::<u32>()), 0..40);
        (1usize..=200, any::<u64>(), phase(), phase())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After `seal`, `nodes()` is the sorted, deduplicated set of every
        /// mark so far, also when marks land on a sealed set (the
        /// `Kernel::seed` path); `clear` empties it.
        #[test]
        fn sealed_worklist_is_the_sorted_marked_set((n, seed, first, second) in arb_phases()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi_connected(n, (8.0 / n as f64).min(1.0), &mut rng);
            let mut s = ActiveSet::empty(n);
            let mut model = BTreeSet::new();
            for phase in [&first, &second] {
                mark(&mut s, &mut model, &g, phase);
                s.seal();
                let expect: Vec<Node> = model.iter().copied().collect();
                prop_assert_eq!(s.nodes(), &expect[..]);
                prop_assert_eq!((s.len(), s.is_empty()), (expect.len(), expect.is_empty()));
                for v in g.nodes() {
                    prop_assert_eq!(s.contains(v), model.contains(&v));
                }
            }
            mark(&mut s, &mut model, &g, &first);
            s.clear();
            prop_assert!(s.is_empty());
            prop_assert!(g.nodes().all(|v| !s.contains(v)));
            s.seal();
            prop_assert!(s.nodes().is_empty());
            let mut full = ActiveSet::full(n);
            prop_assert_eq!(full.nodes().len(), n);
            full.seal();
            prop_assert!(full.nodes().iter().copied().eq(g.nodes()));
        }
    }
}
