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
//! service's drain) and of the sharded runtime executor. Cost
//! per round is `O(f log f)` for a frontier of `f` dirty nodes (marking is
//! `O(1)` amortized per closed-neighborhood edge; one sort restores the
//! node order the executors report moves in), independent of `n` after the
//! initial full round.

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
/// once to restore sorted order before the next evaluation pass. Executors
/// keep two sets and ping-pong between them; [`ActiveSet::clear`] is `O(len)`,
/// not `O(n)`.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    in_set: Vec<bool>,
    nodes: Vec<Node>,
}

impl ActiveSet {
    /// An empty set over `n` nodes.
    pub fn empty(n: usize) -> Self {
        ActiveSet {
            in_set: vec![false; n],
            nodes: Vec::new(),
        }
    }

    /// The full set over `n` nodes (round 1: every node is dirty).
    pub fn full(n: usize) -> Self {
        ActiveSet {
            in_set: vec![true; n],
            nodes: (0..n).map(|i| Node(i as u32)).collect(),
        }
    }

    /// Mark one node dirty (no-op if already marked).
    pub fn insert(&mut self, v: Node) {
        if !self.in_set[v.index()] {
            self.in_set[v.index()] = true;
            self.nodes.push(v);
        }
    }

    /// Mark the closed neighborhood `N[v]` dirty — the propagation rule for
    /// a node `v` that just moved.
    pub fn insert_closed(&mut self, graph: &Graph, v: Node) {
        self.insert(v);
        for &w in graph.neighbors(v) {
            self.insert(w);
        }
    }

    /// Restore node order after a marking phase. Call once per round,
    /// before [`ActiveSet::nodes`] feeds the next evaluation pass.
    pub fn seal(&mut self) {
        self.nodes.sort_unstable();
    }

    /// The dirty nodes, in node order if [`ActiveSet::seal`] was called
    /// after the last insertion.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether `v` is marked dirty.
    pub fn contains(&self, v: Node) -> bool {
        self.in_set[v.index()]
    }

    /// Number of dirty nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node is dirty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Unmark everything, in `O(len)`.
    pub fn clear(&mut self) {
        for v in self.nodes.drain(..) {
            self.in_set[v.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;

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
}
