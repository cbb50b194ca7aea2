//! The undirected system graph.
//!
//! Nodes are dense indices `0..n` wrapped in [`Node`]; adjacency lists are
//! kept sorted so membership tests are `O(log deg)` and iteration order is
//! deterministic, which the synchronous engine relies on for reproducible
//! executions.
//!
//! The lists are stored CSR-style (compressed sparse row): one `targets`
//! array holds every list back to back, and each node owns a slot of it (a
//! start, a length and a capacity). [`Graph::neighbors`] is one contiguous
//! slice, with no per-node allocation or pointer chase. Built graphs
//! ([`Graph::from_edges`], [`crate::generators::unit_disk`]) lay the slots
//! out in node order with no spare capacity. Mutation keeps the layout
//! cheap:
//!
//! * a removal shifts entries within the node's slot, which keeps its
//!   capacity (a link that comes back fits again);
//! * an insertion uses the spare capacity, or, when it runs out, moves the
//!   list to the end of the array with doubled capacity and leaves the old
//!   room unused. A slot's capacity never shrinks and at least doubles on
//!   each move, so the room left behind never exceeds the capacity in use.
//!
//! Equality compares the lists, not the layout.

use selfstab_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// A node handle: a dense index into the graph's vertex set.
///
/// `Node` is *positional*; the comparable protocol identifier of a node is
/// assigned separately via [`crate::ids::Ids`] so that experiments can permute
/// IDs adversarially without rebuilding the topology.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub u32);

impl ToJson for Node {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for Node {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        u32::from_json(value).map(Node)
    }
}

impl Node {
    /// The position of this node as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for Node {
    fn from(i: usize) -> Self {
        Node(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

/// An undirected edge, stored with `a <= b` (by index).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Edge {
    /// Smaller endpoint (by index).
    pub a: Node,
    /// Larger endpoint (by index).
    pub b: Node,
}

impl Edge {
    /// Create a normalized edge; panics on self-loops.
    pub fn new(u: Node, v: Node) -> Self {
        assert_ne!(u, v, "self-loops are not allowed");
        if u <= v {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// The endpoint different from `x`; panics if `x` is not an endpoint.
    pub fn other(&self, x: Node) -> Node {
        if x == self.a {
            self.b
        } else if x == self.b {
            self.a
        } else {
            panic!("{x:?} is not an endpoint of {self:?}")
        }
    }
}

/// One node's run of [`Graph`]'s `targets` array: the sorted neighbors fill
/// `start..start + len`, and `start + len..start + cap` is spare capacity.
#[derive(Copy, Clone, Default)]
struct Slot {
    start: usize,
    len: usize,
    cap: usize,
}

/// The capacity a list moves to when it first outgrows its slot, at least.
const MIN_CAP: usize = 4;

/// An undirected simple graph with a fixed vertex set `0..n`.
///
/// The edge set can be mutated (see [`crate::mutate`]) to model link
/// creation/failure caused by host mobility; the node set never changes,
/// matching the system model of the paper ("no node leaves the system and no
/// new node joins").
///
/// Adjacency is CSR with per-node slack: see the [module docs](self).
#[derive(Clone)]
pub struct Graph {
    /// Every node's neighbor list, back to back in its slot.
    targets: Vec<Node>,
    slots: Vec<Slot>,
    m: usize,
}

impl Graph {
    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "too many nodes");
        Graph {
            targets: Vec::new(),
            slots: vec![Slot::default(); n],
            m: 0,
        }
    }

    /// Build a graph on `n` nodes from an edge list. Duplicate edges are
    /// ignored; self-loops panic.
    ///
    /// Sorts and deduplicates the edges, counts the degrees, lays the slots
    /// out in node order, then fills them in edge order, which is already
    /// list order: a node hears from its lower neighbors (ascending) before
    /// its higher ones.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut edges: Vec<Edge> = edges
            .into_iter()
            .map(|(u, v)| {
                let e = Edge::new(Node::from(u), Node::from(v));
                assert!(e.b.index() < n, "node out of range");
                e
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut g = Graph::empty(n);
        for e in &edges {
            g.slots[e.a.index()].cap += 1;
            g.slots[e.b.index()].cap += 1;
        }
        let mut start = 0;
        for s in &mut g.slots {
            s.start = start;
            start += s.cap;
        }
        g.targets = vec![Node(0); start];
        for e in &edges {
            for (v, w) in [(e.a, e.b), (e.b, e.a)] {
                let s = &mut g.slots[v.index()];
                g.targets[s.start + s.len] = w;
                s.len += 1;
            }
        }
        g.m = edges.len();
        g
    }

    /// Build a graph node by node: `fill(v, out)` appends `v`'s neighbors
    /// to `out`, in any order and without duplicates. The caller guarantees
    /// symmetry (`w` is listed for `v` iff `v` is listed for `w`).
    ///
    /// Unlike [`Graph::from_edges`], this holds no edge list beside the
    /// array while it builds. That list takes as much memory as the
    /// finished graph: 8 bytes per edge, against 4 per list entry.
    pub(crate) fn from_lists(n: usize, mut fill: impl FnMut(Node, &mut Vec<Node>)) -> Self {
        let mut g = Graph::empty(n);
        for v in g.nodes() {
            let start = g.targets.len();
            fill(v, &mut g.targets);
            g.targets[start..].sort_unstable();
            let len = g.targets.len() - start;
            g.slots[v.index()] = Slot {
                start,
                len,
                cap: len,
            };
        }
        debug_assert!(
            g.targets.len().is_multiple_of(2),
            "asymmetric adjacency lists"
        );
        g.m = g.targets.len() / 2;
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = Node> + Clone + use<> {
        (0..self.slots.len() as u32).map(Node)
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: Node) -> &[Node] {
        let s = self.slots[v.index()];
        &self.targets[s.start..s.start + s.len]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        self.slots[v.index()].len
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.slots.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Add edge `{u, v}`. Returns `true` if the edge was new.
    pub fn add_edge(&mut self, u: Node, v: Node) -> bool {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            u.index() < self.n() && v.index() < self.n(),
            "node out of range"
        );
        let Err(pos_u) = self.neighbors(u).binary_search(&v) else {
            return false;
        };
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        self.insert_at(u, pos_u, v);
        self.insert_at(v, pos_v, u);
        self.m += 1;
        true
    }

    /// Remove edge `{u, v}`. Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        if u == v {
            return false;
        }
        let Ok(pos_u) = self.neighbors(u).binary_search(&v) else {
            return false;
        };
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect("adjacency lists out of sync");
        self.remove_at(u, pos_u);
        self.remove_at(v, pos_v);
        self.m -= 1;
        true
    }

    /// Remove every edge incident to `v` in one pass; returns the former
    /// neighbors (sorted). Observably equivalent to `remove_edge(v, w)` per
    /// neighbor, but linear in the degrees touched instead of quadratic in
    /// `deg(v)` — the difference between O(n) and O(n²) when a hub leaves.
    /// `v` keeps its slot's capacity for a later [`Graph::attach`].
    pub fn isolate(&mut self, v: Node) -> Vec<Node> {
        assert!(v.index() < self.n(), "node out of range");
        let dropped = self.neighbors(v).to_vec();
        for &w in &dropped {
            let pos = self
                .neighbors(w)
                .binary_search(&v)
                .expect("adjacency lists out of sync");
            self.remove_at(w, pos);
        }
        self.slots[v.index()].len = 0;
        self.m -= dropped.len();
        dropped
    }

    /// Add edges `{v, w}` for every `w` in `ws`, skipping pairs already
    /// linked; returns the endpoints actually attached (sorted, deduplicated).
    /// Observably equivalent to `add_edge(v, w)` per entry, but merges `v`'s
    /// adjacency list once instead of re-inserting into it per edge.
    pub fn attach(&mut self, v: Node, ws: &[Node]) -> Vec<Node> {
        assert!(v.index() < self.n(), "node out of range");
        let mut added: Vec<Node> = Vec::with_capacity(ws.len());
        for &w in ws {
            assert_ne!(w, v, "self-loops are not allowed");
            assert!(w.index() < self.n(), "node out of range");
            if !self.has_edge(v, w) {
                added.push(w);
            }
        }
        added.sort_unstable();
        added.dedup();
        for &w in &added {
            let pos = self
                .neighbors(w)
                .binary_search(&v)
                .expect_err("adjacency lists out of sync");
            self.insert_at(w, pos, v);
        }
        // Merge from the back, within v's slot.
        self.reserve(v, added.len());
        let s = self.slots[v.index()];
        let list = &mut self.targets[s.start..s.start + s.len + added.len()];
        let (mut i, mut j) = (s.len, added.len());
        while j > 0 {
            if i > 0 && list[i - 1] > added[j - 1] {
                list[i + j - 1] = list[i - 1];
                i -= 1;
            } else {
                list[i + j - 1] = added[j - 1];
                j -= 1;
            }
        }
        self.slots[v.index()].len += added.len();
        self.m += added.len();
        added
    }

    /// All edges, each reported once with `a < b`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge { a: u, b: v })
        })
    }

    /// Sum of degrees (= 2m); used in sanity checks.
    pub fn degree_sum(&self) -> usize {
        self.slots.iter().map(|s| s.len).sum()
    }

    /// Insert `w` at position `pos` of `v`'s list.
    fn insert_at(&mut self, v: Node, pos: usize, w: Node) {
        self.reserve(v, 1);
        let s = &mut self.slots[v.index()];
        let at = s.start + pos;
        self.targets.copy_within(at..s.start + s.len, at + 1);
        self.targets[at] = w;
        s.len += 1;
    }

    /// Remove the entry at position `pos` of `v`'s list; the slot keeps its
    /// capacity.
    fn remove_at(&mut self, v: Node, pos: usize) {
        let s = &mut self.slots[v.index()];
        let at = s.start + pos;
        self.targets.copy_within(at + 1..s.start + s.len, at);
        s.len -= 1;
    }

    /// Make room for `extra` more entries in `v`'s slot. Without enough
    /// spare capacity, the list moves to the end of the array with doubled
    /// capacity, and its old room goes unused.
    fn reserve(&mut self, v: Node, extra: usize) {
        let s = self.slots[v.index()];
        if s.len + extra <= s.cap {
            return;
        }
        let cap = (s.len + extra).max(2 * s.cap).max(MIN_CAP);
        let start = self.targets.len();
        self.targets.extend_from_within(s.start..s.start + s.len);
        self.targets.resize(start + cap, Node(0));
        self.slots[v.index()] = Slot {
            start,
            len: s.len,
            cap,
        };
    }
}

/// Two graphs are equal when their neighbor lists are, whatever the layout
/// of their arrays.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n()
            && self.m == other.m
            && self
                .nodes()
                .all(|v| self.neighbors(v) == other.neighbors(v))
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

impl ToJson for Graph {
    /// `{"n": …, "edges": [[a, b], …]}` — the edge list is the canonical
    /// exchange format (adjacency is a derived index).
    fn to_json(&self) -> Json {
        let edges: Vec<(Node, Node)> = self.edges().map(|e| (e.a, e.b)).collect();
        Json::obj([("n", self.n().to_json()), ("edges", edges.to_json())])
    }
}

impl FromJson for Graph {
    /// Rejects what [`Graph::from_edges`] would panic on: more than
    /// `u32::MAX` nodes, an endpoint out of range, or a self-loop.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let n = usize::from_json(value.field("n")?)?;
        if u32::try_from(n).is_err() {
            return Err(JsonError::new(format!("n={n} exceeds u32::MAX nodes")));
        }
        let edges = Vec::<(Node, Node)>::from_json(value.field("edges")?)?;
        for &(a, b) in &edges {
            if a.index() >= n || b.index() >= n {
                return Err(JsonError::new(format!(
                    "edge ({a:?}, {b:?}) out of range for n={n}"
                )));
            }
            if a == b {
                return Err(JsonError::new(format!("self-loop ({a:?}, {b:?})")));
            }
        }
        Ok(Graph::from_edges(
            n,
            edges.into_iter().map(|(a, b)| (a.index(), b.index())),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::empty(4);
        assert!(g.add_edge(Node(0), Node(1)));
        assert!(
            !g.add_edge(Node(1), Node(0)),
            "duplicate edge must be ignored"
        );
        assert!(g.add_edge(Node(1), Node(2)));
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(Node(0), Node(1)));
        assert!(g.has_edge(Node(1), Node(0)));
        assert!(!g.has_edge(Node(0), Node(2)));
        assert!(g.remove_edge(Node(0), Node(1)));
        assert!(!g.remove_edge(Node(0), Node(1)));
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(Node(1)), 1);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(3, 1), (3, 4), (3, 0), (3, 2)]);
        assert_eq!(g.neighbors(Node(3)), &[Node(0), Node(1), Node(2), Node(4)]);
        assert_eq!(g.degree(Node(3)), 4);
        assert_eq!(g.degree_sum(), 2 * g.m());
    }

    #[test]
    fn edges_iterator_normalized() {
        let g = Graph::from_edges(4, [(2, 0), (1, 3), (0, 1)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                Edge::new(Node(0), Node(1)),
                Edge::new(Node(0), Node(2)),
                Edge::new(Node(1), Node(3)),
            ]
        );
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(Node(7), Node(3));
        assert_eq!(e.a, Node(3));
        assert_eq!(e.other(Node(3)), Node(7));
        assert_eq!(e.other(Node(7)), Node(3));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::empty(2);
        g.add_edge(Node(1), Node(1));
    }

    #[test]
    fn isolate_matches_per_edge_removal() {
        let mut batch = Graph::from_edges(6, [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5)]);
        let mut serial = batch.clone();
        let dropped = batch.isolate(Node(0));
        assert_eq!(dropped, vec![Node(1), Node(2), Node(4)]);
        for &w in &dropped {
            assert!(serial.remove_edge(Node(0), w));
        }
        assert_eq!(batch, serial);
        assert_eq!(batch.degree(Node(0)), 0);
        assert_eq!(batch.m(), 2);
        assert!(batch.isolate(Node(0)).is_empty(), "already isolated");
    }

    #[test]
    fn attach_matches_per_edge_addition() {
        let mut batch = Graph::from_edges(6, [(2, 3), (4, 5)]);
        let mut serial = batch.clone();
        // Duplicates and already-present edges are skipped, not errors.
        let ws = [Node(4), Node(1), Node(2), Node(1)];
        let added = batch.attach(Node(3), &ws);
        assert_eq!(added, vec![Node(1), Node(4)]);
        for &w in &ws {
            serial.add_edge(Node(3), w);
        }
        assert_eq!(batch, serial);
        assert_eq!(batch.neighbors(Node(3)), &[Node(1), Node(2), Node(4)]);
        assert_eq!(batch.m(), 4);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn attach_self_loop_panics() {
        let mut g = Graph::empty(3);
        g.attach(Node(1), &[Node(0), Node(1)]);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(Node(0), Node(1)).other(Node(2));
    }

    /// Entries of the array that no slot owns: the room lists left behind
    /// when they moved.
    fn unused(g: &Graph) -> usize {
        g.targets.len() - g.slots.iter().map(|s| s.cap).sum::<usize>()
    }

    #[test]
    fn removal_keeps_capacity_and_a_restored_link_fits_again() {
        let mut g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        let layout = g.targets.len();
        assert!(g.remove_edge(Node(0), Node(2)));
        assert_eq!(g.slots[0].cap, 3, "the hub keeps its capacity");
        assert!(g.add_edge(Node(0), Node(2)));
        assert_eq!(g.targets.len(), layout, "nothing relocated");
        assert_eq!(g.neighbors(Node(0)), &[Node(1), Node(2), Node(3)]);
        g.isolate(Node(0));
        g.attach(Node(0), &[Node(3), Node(1), Node(2)]);
        assert_eq!(g.targets.len(), layout, "a rejoin fits its old slot");
        assert_eq!(g, Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]));
    }

    #[test]
    fn growth_relocates_with_doubled_capacity() {
        let mut g = Graph::from_edges(12, (1..9).map(|i| (0, i)));
        assert_eq!((g.slots[0].cap, unused(&g)), (8, 0));
        // The hub outgrows its slot: it moves to the end of the 16-entry
        // array with capacity 16 (and then leaf 9, which had none, with 4).
        assert!(g.add_edge(Node(0), Node(9)));
        assert_eq!((g.slots[0].start, g.slots[0].cap), (16, 16));
        assert_eq!((g.slots[9].start, g.slots[9].cap), (32, MIN_CAP));
        assert_eq!(unused(&g), 8, "the hub's old room");
        assert_eq!(g, Graph::from_edges(12, (1..10).map(|i| (0, i))));
    }

    #[test]
    fn from_json_rejects_what_from_edges_would_panic_on() {
        let parse = |text: &str| Graph::from_json(&Json::parse(text).unwrap());
        let g = parse(r#"{"n":3,"edges":[[0,1],[2,1],[1,0]]}"#).unwrap();
        assert_eq!(g, Graph::from_edges(3, [(0, 1), (1, 2)]));
        assert_eq!(parse(&g.to_json().to_string()).unwrap(), g);
        let err = parse(r#"{"n":3,"edges":[[1,1]]}"#).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
        let err = parse(r#"{"n":3,"edges":[[0,3]]}"#).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = parse(r#"{"n":4294967296,"edges":[]}"#).unwrap_err();
        assert!(err.to_string().contains("u32::MAX"), "{err}");
    }

    /// One mutation of [`Graph`] (and of the model), on nodes taken mod n.
    #[derive(Clone, Debug)]
    enum Op {
        Add(usize, usize),
        Remove(usize, usize),
        Isolate(usize),
        Attach(usize, Vec<usize>),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (
            0u8..4,
            0usize..64,
            0usize..64,
            collection::vec(0usize..64, 0..6),
        )
            .prop_map(|(kind, a, b, ws)| match kind {
                0 => Op::Add(a, b),
                1 => Op::Remove(a, b),
                2 => Op::Isolate(a),
                _ => Op::Attach(a, ws),
            })
    }

    /// A starting edge list (duplicates and reversed pairs included) and a
    /// sequence of mutations, over `n` nodes.
    fn arb_history() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<Op>)> {
        (2usize..=12).prop_flat_map(|n| {
            (
                Just(n),
                collection::vec((0..n, 0..n), 0..24)
                    .prop_map(|pairs| pairs.into_iter().filter(|&(a, b)| a != b).collect()),
                collection::vec(arb_op(), 0..60),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every mutation leaves the CSR graph equal to a `BTreeSet`
        /// adjacency model and to a `from_edges` rebuild of itself, and
        /// leaves no more room behind than it has in use.
        #[test]
        fn csr_graph_tracks_a_set_model((n, init, ops) in arb_history()) {
            let mut g = Graph::from_edges(n, init.iter().copied());
            let mut model: Vec<BTreeSet<Node>> = vec![BTreeSet::new(); n];
            for &(a, b) in &init {
                model[a].insert(Node::from(b));
                model[b].insert(Node::from(a));
            }
            for op in ops {
                match op {
                    Op::Add(a, b) => {
                        let (a, b) = (a % n, b % n);
                        if a != b {
                            let new = model[a].insert(Node::from(b));
                            model[b].insert(Node::from(a));
                            prop_assert_eq!(g.add_edge(Node::from(a), Node::from(b)), new);
                        }
                    }
                    Op::Remove(a, b) => {
                        let (a, b) = (a % n, b % n);
                        let had = model[a].remove(&Node::from(b));
                        model[b].remove(&Node::from(a));
                        prop_assert_eq!(g.remove_edge(Node::from(a), Node::from(b)), had);
                    }
                    Op::Isolate(a) => {
                        let v = Node::from(a % n);
                        let former = std::mem::take(&mut model[v.index()]);
                        for w in &former {
                            model[w.index()].remove(&v);
                        }
                        prop_assert_eq!(g.isolate(v), former.into_iter().collect::<Vec<_>>());
                    }
                    Op::Attach(a, ws) => {
                        let v = Node::from(a % n);
                        let ws: Vec<Node> = ws
                            .into_iter()
                            .map(|w| Node::from(w % n))
                            .filter(|&w| w != v)
                            .collect();
                        let mut added: Vec<Node> =
                            ws.iter().copied().filter(|w| !model[v.index()].contains(w)).collect();
                        added.sort_unstable();
                        added.dedup();
                        for &w in &added {
                            model[v.index()].insert(w);
                            model[w.index()].insert(v);
                        }
                        prop_assert_eq!(g.attach(v, &ws), added);
                    }
                }
                let cap: usize = g.slots.iter().map(|s| s.cap).sum();
                prop_assert!(unused(&g) <= cap, "{} unused, capacity {}", unused(&g), cap);
            }
            let mut m = 0;
            for v in g.nodes() {
                let expect: Vec<Node> = model[v.index()].iter().copied().collect();
                prop_assert_eq!(g.neighbors(v), &expect[..]);
                prop_assert_eq!(g.degree(v), expect.len());
                m += expect.len();
                for w in g.nodes() {
                    prop_assert_eq!(g.has_edge(v, w), model[v.index()].contains(&w));
                }
            }
            prop_assert_eq!(g.m(), m / 2);
            let edges: Vec<Edge> = g.edges().collect();
            let expect: Vec<Edge> = g
                .nodes()
                .flat_map(|v| {
                    model[v.index()]
                        .iter()
                        .filter(move |&&w| v < w)
                        .map(move |&w| Edge::new(v, w))
                })
                .collect();
            prop_assert_eq!(&edges, &expect);
            let rebuilt = Graph::from_edges(n, edges.iter().map(|e| (e.a.index(), e.b.index())));
            prop_assert_eq!(&rebuilt, &g);
        }
    }
}
