//! **Algorithm SMM** — Synchronous Maximal Matching (Fig. 1 of the paper).
//!
//! Each node `i` maintains a single pointer which is either null (`i → ⊥`)
//! or points to a neighbor (`i → j`). Nodes `i` and `j` are *matched* when
//! `i → j ∧ j → i` (written `i ↔ j`). The rules, evaluated once per
//! synchronous round on the states carried by the latest beacons:
//!
//! * **R1 (accept):** `i → ⊥` and some neighbor points at `i` — point back
//!   at one of them. *(The paper lets `i` "select a node j … among those
//!   that are pointing to it"; the choice is free, see [`SelectPolicy`].)*
//! * **R2 (propose):** `i → ⊥`, nobody points at `i`, and some neighbor has
//!   a null pointer — point at **the minimum-ID** such neighbor. *(The
//!   minimum is load-bearing: with an arbitrary choice SMM need not
//!   stabilize — the C₄ counterexample, reproduced in experiment E5.)*
//! * **R3 (back-off):** `i → j` but `j` points at some third node — reset
//!   to null.
//!
//! **Theorem 1:** from any initial state, SMM stabilizes in at most `n + 1`
//! rounds and the matched pairs form a maximal matching.
//!
//! One addition beyond the paper's pseudocode: rule **R0 (reset)** clears a
//! pointer whose target is no longer a neighbor. The paper's rules implicitly
//! assume `p(i) ∈ N(i) ∪ {⊥}`; after a link failure (host mobility) that
//! assumption breaks, and clearing the dangling pointer is exactly the
//! "readjustment" the paper credits the algorithms with (Section 1). R0 is
//! locally detectable from the neighbor list the link layer already
//! maintains.

pub mod types;

use rand::rngs::StdRng;
use rand::RngExt;
use selfstab_engine::adversary::splitmix64;
use selfstab_engine::protocol::{Move, Protocol, View, WireError, WireState};
use selfstab_graph::predicates::is_maximal_matching;
use selfstab_graph::{Edge, Graph, Ids, Node};
use selfstab_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// The SMM per-node state: a nullable pointer to a neighbor.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Pointer(pub Option<Node>);

impl ToJson for Pointer {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for Pointer {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Option::<Node>::from_json(value).map(Pointer)
    }
}

impl Pointer {
    /// The null pointer (`i → ⊥`).
    pub const NULL: Pointer = Pointer(None);

    /// Whether the pointer is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0.is_none()
    }
}

/// Beacon wire encoding: the pointer is carried exactly as its underlying
/// `Option<Node>` (1 tag byte, plus 4 LE id bytes when non-null).
impl WireState for Pointer {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        Option::<Node>::decode_prefix(bytes).map(|(p, used)| (Pointer(p), used))
    }
}

impl fmt::Debug for Pointer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => write!(f, "→⊥"),
            Some(v) => write!(f, "→{v}"),
        }
    }
}

/// How a node selects among several admissible targets.
///
/// R2 in the paper *requires* [`SelectPolicy::MinId`]; the other policies
/// exist for the ablation experiments (E5) that show what goes wrong without
/// it. R1's choice is genuinely free.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SelectPolicy {
    /// The candidate with the minimum protocol ID (the paper's `min{…}`).
    MinId,
    /// The candidate with the maximum protocol ID.
    MaxId,
    /// The first candidate in neighbor-list (index) order — a fixed
    /// "arbitrary" choice.
    FirstIndex,
    /// The cyclic successor: the smallest candidate index greater than the
    /// chooser's own index, wrapping around. On a cycle graph with
    /// consecutive indices this is "propose to your clockwise neighbor" —
    /// the paper's non-stabilizing counterexample.
    Clockwise,
    /// A fixed pseudo-random choice: the candidate minimizing a hash of the
    /// (chooser, candidate) ID pair. Deterministic and time-invariant, but
    /// uncorrelated with the ID order.
    Hashed,
}

impl SelectPolicy {
    /// The rank of `candidate` when `me` chooses among several admissible
    /// nodes: the candidate with the lowest key is selected. IDs are
    /// distinct, so ties happen only under [`SelectPolicy::Hashed`]; they go
    /// to the lower index.
    #[inline]
    pub fn key(self, ids: &Ids, me: Node, candidate: Node) -> u64 {
        match self {
            SelectPolicy::MinId => ids.id(candidate),
            SelectPolicy::MaxId => !ids.id(candidate),
            SelectPolicy::FirstIndex => u64::from(candidate.0),
            // Indices above `me` first, each half in index order.
            SelectPolicy::Clockwise => {
                u64::from(candidate.index() <= me.index()) << 32 | u64::from(candidate.0)
            }
            SelectPolicy::Hashed => splitmix64(ids.id(me) << 32 | ids.id(candidate)),
        }
    }
}

/// Algorithm SMM. See the [module docs](self).
///
/// ```
/// use selfstab_core::smm::Smm;
/// use selfstab_engine::{InitialState, SyncExecutor, Protocol};
/// use selfstab_graph::{generators, predicates, Ids};
///
/// let g = generators::cycle(10);
/// let smm = Smm::paper(Ids::identity(10));
/// let run = SyncExecutor::new(&g, &smm).run(InitialState::Random { seed: 1 }, 11);
/// assert!(run.stabilized()); // Theorem 1: within n + 1 rounds
/// let matching = Smm::matched_edges(&g, &run.final_states);
/// assert!(predicates::is_maximal_matching(&g, &matching));
/// ```
#[derive(Clone, Debug)]
pub struct Smm {
    ids: Ids,
    accept: SelectPolicy,
    propose: SelectPolicy,
}

/// Rule indices into [`Smm::rule_names`].
pub mod rule {
    /// R1: accept a proposal.
    pub const ACCEPT: usize = 0;
    /// R2: make a proposal.
    pub const PROPOSE: usize = 1;
    /// R3: back off.
    pub const BACK_OFF: usize = 2;
    /// R0: reset a dangling pointer (link-failure readjustment).
    pub const RESET: usize = 3;
}

impl Smm {
    /// SMM exactly as in the paper: R2 proposes to the minimum-ID null
    /// neighbor; R1 (whose choice the paper leaves free) also uses min-ID.
    pub fn paper(ids: Ids) -> Self {
        Smm {
            ids,
            accept: SelectPolicy::MinId,
            propose: SelectPolicy::MinId,
        }
    }

    /// SMM with explicit selection policies (for the E5 ablations).
    pub fn with_policies(ids: Ids, accept: SelectPolicy, propose: SelectPolicy) -> Self {
        Smm {
            ids,
            accept,
            propose,
        }
    }

    /// The ID assignment this instance runs with.
    pub fn ids(&self) -> &Ids {
        &self.ids
    }

    /// The node `v` is matched to (`v ↔ p`), if any: the one definition of
    /// "matched" every other helper reads.
    ///
    /// Only a mutual pointer along a current edge counts; a dangling or
    /// unrequited pointer does not, and neither does one past the end of
    /// `states` (explicit or resumed states can hold one). O(log deg): the
    /// back-pointer is checked first, so most unmatched nodes cost one load.
    #[inline]
    pub fn partner(graph: &Graph, states: &[Pointer], v: Node) -> Option<Node> {
        let p = states[v.index()].0?;
        (states.get(p.index())?.0 == Some(v) && graph.has_edge(v, p)).then_some(p)
    }

    /// The matched pairs `i ↔ j` of a global state, as normalized edges.
    pub fn matched_edges(graph: &Graph, states: &[Pointer]) -> Vec<Edge> {
        graph
            .nodes()
            .filter_map(|i| {
                let j = Self::partner(graph, states, i)?;
                (i < j).then(|| Edge::new(i, j))
            })
            .collect()
    }

    /// Nodes that are matched in the given state.
    pub fn matched_nodes(graph: &Graph, states: &[Pointer]) -> Vec<bool> {
        graph
            .nodes()
            .map(|v| Self::partner(graph, states, v).is_some())
            .collect()
    }
}

impl Protocol for Smm {
    type State = Pointer;

    fn rule_names(&self) -> &'static [&'static str] {
        &["R1:accept", "R2:propose", "R3:back-off", "R0:reset"]
    }

    fn default_state(&self) -> Pointer {
        Pointer::NULL
    }

    fn arbitrary_state(&self, _node: Node, neighbors: &[Node], rng: &mut StdRng) -> Pointer {
        let k = rng.random_range(0..=neighbors.len());
        if k == neighbors.len() {
            Pointer::NULL
        } else {
            Pointer(Some(neighbors[k]))
        }
    }

    fn enumerate_states(&self, _node: Node, neighbors: &[Node]) -> Vec<Pointer> {
        std::iter::once(Pointer::NULL)
            .chain(neighbors.iter().map(|&v| Pointer(Some(v))))
            .collect()
    }

    fn step(&self, view: View<'_, Pointer>) -> Option<Move<Pointer>> {
        let i = view.node();
        match view.own().0 {
            Some(j) => {
                let Some(pj) = view.neighbor_state(j) else {
                    // R0: the link to j is gone; clear the dangling pointer.
                    return Some(Move {
                        rule: rule::RESET,
                        next: Pointer::NULL,
                    });
                };
                match pj.0 {
                    // i ↔ j: matched, no rule enabled (Lemma 1: M is
                    // absorbing).
                    Some(k) if k == i => None,
                    // R3: j points at a third node — back off.
                    Some(_) => Some(Move {
                        rule: rule::BACK_OFF,
                        next: Pointer::NULL,
                    }),
                    // j → ⊥: i waits for j to answer (type P_A, no rule).
                    None => None,
                }
            }
            None => {
                // One pass ranks R1's proposers and, until the first
                // proposer shows up, R2's null neighbors. Strict `<` keeps
                // the lower index on a tie.
                let mut proposer: Option<(u64, Node)> = None;
                let mut null: Option<(u64, Node)> = None;
                for (v, s) in view.neighbor_states() {
                    match s.0 {
                        Some(k) if k == i => {
                            let key = self.accept.key(&self.ids, i, v);
                            if proposer.is_none_or(|(best, _)| key < best) {
                                proposer = Some((key, v));
                            }
                        }
                        None if proposer.is_none() => {
                            let key = self.propose.key(&self.ids, i, v);
                            if null.is_none_or(|(best, _)| key < best) {
                                null = Some((key, v));
                            }
                        }
                        _ => {}
                    }
                }
                if let Some((_, j)) = proposer {
                    // R1: accept a proposal.
                    return Some(Move {
                        rule: rule::ACCEPT,
                        next: Pointer(Some(j)),
                    });
                }
                // R2: propose (to the minimum-ID null neighbor, under the
                // paper's policy).
                null.map(|(_, j)| Move {
                    rule: rule::PROPOSE,
                    next: Pointer(Some(j)),
                })
            }
        }
    }

    /// Lemma 8: at a fixpoint the mutual pointers form a maximal matching
    /// and every unmatched node has a null pointer.
    fn is_legitimate(&self, graph: &Graph, states: &[Pointer]) -> bool {
        let matched = Self::matched_edges(graph, states);
        if !is_maximal_matching(graph, &matched) {
            return false;
        }
        let is_matched = Self::matched_nodes(graph, states);
        graph
            .nodes()
            .all(|v| is_matched[v.index()] || states[v.index()].is_null())
    }

    fn containment(
        &self,
        graph: &Graph,
        states: &[Pointer],
        byz: &[bool],
    ) -> Option<selfstab_graph::predicates::Containment> {
        let pointers: Vec<Option<Node>> = states.iter().map(|p| p.0).collect();
        Some(selfstab_graph::predicates::matching_containment(
            graph, &pointers, byz,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use selfstab_engine::protocol::InitialState;
    use selfstab_engine::sync::SyncExecutor;
    use selfstab_graph::generators;

    fn ptr(v: u32) -> Pointer {
        Pointer(Some(Node(v)))
    }

    /// The candidate among `candidates` (non-empty) that `policy` selects:
    /// the lowest key, the lower index on a tie.
    fn select(policy: SelectPolicy, ids: &Ids, me: Node, candidates: &[Node]) -> Node {
        candidates
            .iter()
            .copied()
            .min_by_key(|&c| policy.key(ids, me, c))
            .expect("non-empty")
    }

    /// Each policy's selection as first written: one rule per policy over
    /// a collected, index-sorted candidate list.
    fn reference_select(policy: SelectPolicy, ids: &Ids, me: Node, candidates: &[Node]) -> Node {
        match policy {
            SelectPolicy::MinId => ids
                .min_by_id(candidates.iter().copied())
                .expect("non-empty"),
            SelectPolicy::MaxId => ids
                .max_by_id(candidates.iter().copied())
                .expect("non-empty"),
            SelectPolicy::FirstIndex => candidates[0],
            SelectPolicy::Clockwise => candidates
                .iter()
                .copied()
                .find(|&c| c.index() > me.index())
                .unwrap_or(candidates[0]),
            SelectPolicy::Hashed => candidates
                .iter()
                .copied()
                .min_by_key(|&c| splitmix64(ids.id(me) << 32 | ids.id(c)))
                .expect("non-empty"),
        }
    }

    /// The null-pointer guard as first written: the proposers, then the
    /// null neighbors, each collected into a fresh `Vec` and selected from.
    /// The reference the one-pass [`Smm::step`] is checked against.
    fn reference_step(smm: &Smm, view: View<'_, Pointer>) -> Option<Move<Pointer>> {
        if view.own().0.is_some() {
            return smm.step(view);
        }
        let i = view.node();
        let proposers: Vec<Node> = view
            .neighbor_states()
            .filter(|(_, s)| s.0 == Some(i))
            .map(|(v, _)| v)
            .collect();
        if !proposers.is_empty() {
            let j = reference_select(smm.accept, &smm.ids, i, &proposers);
            return Some(Move {
                rule: rule::ACCEPT,
                next: Pointer(Some(j)),
            });
        }
        let nulls: Vec<Node> = view
            .neighbor_states()
            .filter(|(_, s)| s.is_null())
            .map(|(v, _)| v)
            .collect();
        if !nulls.is_empty() {
            let j = reference_select(smm.propose, &smm.ids, i, &nulls);
            return Some(Move {
                rule: rule::PROPOSE,
                next: Pointer(Some(j)),
            });
        }
        None
    }

    const POLICIES: [SelectPolicy; 5] = [
        SelectPolicy::MinId,
        SelectPolicy::MaxId,
        SelectPolicy::FirstIndex,
        SelectPolicy::Clockwise,
        SelectPolicy::Hashed,
    ];

    /// An arbitrary graph on up to 12 nodes, an arbitrary pointer per node,
    /// and distinct random IDs. A pointer is null 2 times in 5, else a
    /// neighbor (often the lowest-index one, so that nodes draw several
    /// proposers) or any node at all (so dangling pointers too). In half
    /// the cases the IDs' low words come from a tiny range, so that
    /// `Hashed` keys tie.
    fn arb_smm_case() -> impl Strategy<Value = (Graph, Vec<Pointer>, Ids)> {
        (1usize..=12).prop_flat_map(|n| {
            (
                collection::vec(any::<bool>(), n * (n - 1) / 2),
                collection::vec((0u8..5, any::<u32>()), n),
                collection::vec(any::<u64>(), n),
                any::<bool>(),
            )
                .prop_map(move |(bits, pointers, words, tiny)| {
                    let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
                    let edges = pairs.zip(bits).filter(|&(_, on)| on).map(|(e, _)| e);
                    let g = Graph::from_edges(n, edges);
                    let states = g
                        .nodes()
                        .zip(pointers)
                        .map(|(v, (kind, t))| {
                            let nbrs = g.neighbors(v);
                            Pointer(match kind {
                                0 | 1 => None,
                                2 if !nbrs.is_empty() => Some(nbrs[t as usize % nbrs.len()]),
                                3 if !nbrs.is_empty() => Some(nbrs[0]),
                                _ => Some(Node(t % n as u32)),
                            })
                        })
                        .collect();
                    // The high word is the node's rank in a random order,
                    // which keeps the IDs distinct whatever the low words.
                    let mut order: Vec<(u64, usize)> =
                        words.iter().enumerate().map(|(i, &w)| (w, i)).collect();
                    order.sort_unstable();
                    let mut ids = vec![0u64; n];
                    for (rank, &(w, i)) in order.iter().enumerate() {
                        let low = if tiny { w & 3 } else { w & 0xffff_ffff };
                        ids[i] = (rank as u64) << 32 | low;
                    }
                    (g, states, Ids::from_vec(ids))
                })
        })
    }

    /// A path, cycle (from 3 nodes), star or G(n, 1/4) on up to 40 nodes
    /// with an arbitrary pointer per node: null, a neighbor, a mutual
    /// pointer with a neighbor, any node (non-neighbors and itself), or an
    /// index past the end. Some edges are then removed, leaving pointers
    /// along them dangling.
    fn arb_partner_case() -> impl Strategy<Value = (Graph, Vec<Pointer>)> {
        (0u8..4, 1usize..=40).prop_flat_map(|(family, n)| {
            (
                Just((family, n)),
                collection::vec(0u8..4, n * (n - 1) / 2),
                collection::vec((0u8..6, any::<u32>()), n),
                collection::vec(any::<u32>(), 0..=n),
            )
                .prop_map(|((family, n), bits, pointers, cuts)| {
                    let mut g = match family {
                        0 => generators::path(n),
                        1 if n >= 3 => generators::cycle(n),
                        2 => generators::star(n),
                        _ => {
                            let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
                            let edges = pairs.zip(bits).filter(|&(_, x)| x == 0).map(|(e, _)| e);
                            Graph::from_edges(n, edges)
                        }
                    };
                    let mut states = vec![Pointer::NULL; n];
                    for (v, (kind, t)) in g.nodes().zip(pointers) {
                        let nbrs = g.neighbors(v);
                        let target = match kind {
                            1 | 2 if !nbrs.is_empty() => Some(nbrs[t as usize % nbrs.len()]),
                            3 => Some(Node(t % n as u32)),
                            4 if t % 2 == 0 => Some(Node(n as u32 + t / 2 % 4)),
                            4 => Some(Node(u32::MAX)),
                            _ => None,
                        };
                        states[v.index()] = Pointer(target);
                        if let (2, Some(w)) = (kind, target) {
                            states[w.index()] = Pointer(Some(v));
                        }
                    }
                    for cut in cuts {
                        let edges: Vec<Edge> = g.edges().collect();
                        if let Some(e) = edges.get(cut as usize % edges.len().max(1)) {
                            g.remove_edge(e.a, e.b);
                        }
                    }
                    (g, states)
                })
        })
    }

    /// The partner by brute force over the edge list: the `w` with
    /// `{v, w}` an edge, `p(v) = w` and `p(w) = v`.
    fn reference_partner(edges: &[Edge], states: &[Pointer], v: Node) -> Option<Node> {
        edges
            .iter()
            .filter(|e| e.a == v || e.b == v)
            .map(|e| e.other(v))
            .find(|&w| states[v.index()].0 == Some(w) && states[w.index()].0 == Some(v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `partner` is the brute-force mutual-pointer test for every node,
        /// and `matched_edges` and `matched_nodes` are read off it.
        #[test]
        fn partner_matches_the_edge_list_reference((g, states) in arb_partner_case()) {
            let edges: Vec<Edge> = g.edges().collect();
            let reference: Vec<Option<Node>> = g
                .nodes()
                .map(|v| reference_partner(&edges, &states, v))
                .collect();
            for v in g.nodes() {
                prop_assert_eq!(Smm::partner(&g, &states, v), reference[v.index()], "node {:?}", v);
            }
            let matched: Vec<Edge> = edges
                .iter()
                .copied()
                .filter(|e| reference[e.a.index()] == Some(e.b))
                .collect();
            prop_assert_eq!(Smm::matched_edges(&g, &states), matched);
            let nodes: Vec<bool> = reference.iter().map(Option::is_some).collect();
            prop_assert_eq!(Smm::matched_nodes(&g, &states), nodes);
        }

        /// The one-pass guard returns exactly the reference's move, for
        /// every node and every pair of accept and propose policies.
        #[test]
        fn one_pass_step_matches_the_two_vec_reference((g, states, ids) in arb_smm_case()) {
            for accept in POLICIES {
                for propose in POLICIES {
                    let smm = Smm::with_policies(ids.clone(), accept, propose);
                    for v in g.nodes() {
                        let view = View::new(v, g.neighbors(v), &states);
                        prop_assert_eq!(
                            smm.step(view),
                            reference_step(&smm, view),
                            "node {:?}, accept {:?}, propose {:?}",
                            v,
                            accept,
                            propose
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn select_policies() {
        let ids = Ids::from_vec(vec![50, 40, 30, 20, 10]);
        let cands = [Node(1), Node(2), Node(4)];
        assert_eq!(select(SelectPolicy::MinId, &ids, Node(0), &cands), Node(4));
        assert_eq!(select(SelectPolicy::MaxId, &ids, Node(0), &cands), Node(1));
        assert_eq!(
            select(SelectPolicy::FirstIndex, &ids, Node(0), &cands),
            Node(1)
        );
        assert_eq!(
            select(SelectPolicy::Clockwise, &ids, Node(3), &cands),
            Node(4)
        );
        assert_eq!(
            select(SelectPolicy::Clockwise, &ids, Node(4), &cands),
            Node(1),
            "wraps around"
        );
        let h = select(SelectPolicy::Hashed, &ids, Node(0), &cands);
        assert!(cands.contains(&h));
        assert_eq!(
            select(SelectPolicy::Hashed, &ids, Node(0), &cands),
            h,
            "deterministic"
        );
        for policy in POLICIES {
            for me in [Node(0), Node(3)] {
                assert_eq!(
                    select(policy, &ids, me, &cands),
                    reference_select(policy, &ids, me, &cands),
                    "{policy:?} from {me:?}"
                );
            }
        }
    }

    #[test]
    fn rules_fire_as_in_figure_1() {
        // Path 0-1-2-3. States chosen to enable each rule exactly once.
        let g = generators::path(4);
        let smm = Smm::paper(Ids::identity(4));
        // R1: node 1 null, node 0 points at it.
        let states = vec![ptr(1), Pointer::NULL, Pointer::NULL, Pointer::NULL];
        let mv = smm
            .step(View::new(Node(1), g.neighbors(Node(1)), &states))
            .expect("R1 enabled");
        assert_eq!(mv.rule, rule::ACCEPT);
        assert_eq!(mv.next, ptr(0));
        // R2: node 2 null, nobody points at it, neighbor 3 null => propose
        // min-ID null neighbor. Neighbors of 2 are {1, 3}; 1 points at 0? No:
        // states[1] is NULL here, so both 1 and 3 are null; min ID is 1.
        let mv = smm
            .step(View::new(Node(2), g.neighbors(Node(2)), &states))
            .expect("R2 enabled");
        assert_eq!(mv.rule, rule::PROPOSE);
        assert_eq!(mv.next, ptr(1));
        // R3: node 0 points at 1, 1 points at 2 (a third node).
        let states = vec![ptr(1), ptr(2), ptr(1), Pointer::NULL];
        let mv = smm
            .step(View::new(Node(0), g.neighbors(Node(0)), &states))
            .expect("R3 enabled");
        assert_eq!(mv.rule, rule::BACK_OFF);
        assert_eq!(mv.next, Pointer::NULL);
        // Matched pair is silent.
        let states = vec![ptr(1), ptr(0), Pointer::NULL, Pointer::NULL];
        assert!(smm
            .step(View::new(Node(0), g.neighbors(Node(0)), &states))
            .is_none());
        assert!(smm
            .step(View::new(Node(1), g.neighbors(Node(1)), &states))
            .is_none());
        // P_A waits: node 2 points at null node 3.
        let states = vec![Pointer::NULL, Pointer::NULL, ptr(3), Pointer::NULL];
        assert!(smm
            .step(View::new(Node(2), g.neighbors(Node(2)), &states))
            .is_none());
    }

    #[test]
    fn dangling_pointer_resets() {
        let mut g = generators::path(3);
        let smm = Smm::paper(Ids::identity(3));
        let states = vec![ptr(1), ptr(0), Pointer::NULL];
        g.remove_edge(Node(0), Node(1));
        let mv = smm
            .step(View::new(Node(0), g.neighbors(Node(0)), &states))
            .expect("R0 enabled after link failure");
        assert_eq!(mv.rule, rule::RESET);
        assert_eq!(mv.next, Pointer::NULL);
    }

    #[test]
    fn matched_edges_requires_mutual_current_links() {
        let g = generators::path(4);
        // 0↔1 mutual; 2→3 unrequited.
        let states = vec![ptr(1), ptr(0), ptr(3), Pointer::NULL];
        let m = Smm::matched_edges(&g, &states);
        assert_eq!(m, vec![Edge::new(Node(0), Node(1))]);
        assert_eq!(
            Smm::matched_nodes(&g, &states),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn theorem_1_on_structured_families() {
        for fam in generators::Family::ALL {
            for n in [4usize, 9, 16, 33] {
                let g = fam.build(n);
                let n_actual = g.n();
                let smm = Smm::paper(Ids::identity(n_actual));
                let exec = SyncExecutor::new(&g, &smm);
                for seed in 0..10 {
                    let run = exec.run(InitialState::Random { seed }, n_actual + 1);
                    assert!(
                        run.stabilized(),
                        "SMM must stabilize within n+1={} rounds on {} (seed {seed})",
                        n_actual + 1,
                        fam.name()
                    );
                    assert!(
                        smm.is_legitimate(&g, &run.final_states),
                        "fixpoint must be a maximal matching on {}",
                        fam.name()
                    );
                }
            }
        }
    }

    #[test]
    fn theorem_1_with_adversarial_id_orders() {
        let g = generators::path(12);
        for ids in [Ids::identity(12), Ids::reversed(12)] {
            let smm = Smm::paper(ids);
            let exec = SyncExecutor::new(&g, &smm);
            for seed in 0..20 {
                let run = exec.run(InitialState::Random { seed }, 13);
                assert!(run.stabilized());
                assert!(smm.is_legitimate(&g, &run.final_states));
            }
        }
    }

    #[test]
    fn corrupted_matching_recovers_within_theorem_1_bound() {
        // Theorem 1 holds from any state, so corrupting k nodes of a
        // stabilized matching is repaired within n+1 rounds as well.
        let g = generators::grid(16, 16);
        let n = g.n();
        let smm = Smm::paper(Ids::identity(n));
        for k in [1, 4, 16] {
            for seed in 0..4 {
                let (_, recovery) =
                    selfstab_engine::faults::corrupt_and_recover(&g, &smm, k, seed, n + 1)
                        .expect("the initial run stabilizes within n+1 rounds");
                assert!(recovery.run.stabilized(), "k={k} seed={seed}");
                assert!(smm.is_legitimate(&g, &recovery.run.final_states));
            }
        }
    }

    #[test]
    fn all_null_start_on_even_path_matches_perfectly() {
        // From the all-null state on P4 with identity IDs: 0 and 1 propose
        // to each other (mutual min-ID), as do 2 and 3 after backing off.
        let g = generators::path(4);
        let smm = Smm::paper(Ids::identity(4));
        let run = SyncExecutor::new(&g, &smm).run(InitialState::Default, 5);
        assert!(run.stabilized());
        let m = Smm::matched_edges(&g, &run.final_states);
        assert_eq!(m.len(), 2, "P4 has a perfect matching here: {m:?}");
    }

    #[test]
    fn single_node_and_edgeless_graphs() {
        let g = selfstab_graph::Graph::empty(1);
        let smm = Smm::paper(Ids::identity(1));
        let run = SyncExecutor::new(&g, &smm).run(InitialState::Default, 2);
        assert!(run.stabilized());
        assert_eq!(run.rounds(), 0);
        let g3 = selfstab_graph::Graph::empty(3);
        let smm3 = Smm::paper(Ids::identity(3));
        let run = SyncExecutor::new(&g3, &smm3).run(InitialState::Default, 4);
        assert!(run.stabilized());
        assert!(smm3.is_legitimate(&g3, &run.final_states));
    }

    #[test]
    fn enumerate_states_is_null_plus_neighbors() {
        let g = generators::star(4);
        let smm = Smm::paper(Ids::identity(4));
        let hub = smm.enumerate_states(Node(0), g.neighbors(Node(0)));
        assert_eq!(hub.len(), 4);
        let leaf = smm.enumerate_states(Node(1), g.neighbors(Node(1)));
        assert_eq!(leaf, vec![Pointer::NULL, ptr(0)]);
    }
}
