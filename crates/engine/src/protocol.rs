//! The [`Protocol`] abstraction: guarded rules over a one-hop view.
//!
//! A protocol in the paper's model is *uniform* (every node runs the same
//! rules), *local* (guards read only the node's own state and the states of
//! its current neighbors — exactly the information carried by beacon
//! messages), and *memoryless* across rounds. The trait below captures that:
//! [`Protocol::step`] is a pure function of a [`View`]; the engine owns all
//! scheduling.

use rand::rngs::StdRng;
use selfstab_graph::{Graph, Node};
use std::fmt::Debug;
use std::hash::Hash;

/// A node's one-hop view: its own state plus the states its neighbors
/// advertised in their latest beacons.
#[derive(Copy, Clone)]
pub struct View<'a, S> {
    node: Node,
    neighbors: &'a [Node],
    states: &'a [S],
    /// Perceived neighbor states, aligned with `neighbors` — present only
    /// under the asymmetric-link fault model, where what a node last
    /// *heard* from a neighbor can lag the neighbor's true state (see
    /// [`crate::adversary::Perception`]). `own()` always reads the true
    /// state: a node cannot be stale about itself.
    overlay: Option<&'a [S]>,
}

impl<'a, S> View<'a, S> {
    /// Build a view for `node` from the global state vector. The engine
    /// calls this; protocols only consume it.
    pub fn new(node: Node, neighbors: &'a [Node], states: &'a [S]) -> Self {
        View {
            node,
            neighbors,
            states,
            overlay: None,
        }
    }

    /// Build a view whose neighbor reads come from `overlay` (one perceived
    /// state per entry of `neighbors`, same order) instead of the global
    /// vector. Used by the asymmetric-link fault model.
    pub fn with_overlay(
        node: Node,
        neighbors: &'a [Node],
        states: &'a [S],
        overlay: &'a [S],
    ) -> Self {
        debug_assert_eq!(overlay.len(), neighbors.len());
        View {
            node,
            neighbors,
            states,
            overlay: Some(overlay),
        }
    }

    /// The node whose view this is.
    #[inline]
    pub fn node(&self) -> Node {
        self.node
    }

    /// This node's own state.
    #[inline]
    pub fn own(&self) -> &S {
        &self.states[self.node.index()]
    }

    /// The node's current neighbor list (sorted by index).
    #[inline]
    pub fn neighbors(&self) -> &'a [Node] {
        self.neighbors
    }

    /// Whether `v` is currently a neighbor.
    #[inline]
    pub fn is_neighbor(&self, v: Node) -> bool {
        self.neighbors.binary_search(&v).is_ok()
    }

    /// The advertised state of neighbor `v`; `None` if `v` is not a
    /// neighbor (e.g. a dangling pointer after a link failure).
    #[inline]
    pub fn neighbor_state(&self, v: Node) -> Option<&'a S> {
        let j = self.neighbors.binary_search(&v).ok()?;
        Some(match self.overlay {
            Some(overlay) => &overlay[j],
            None => &self.states[v.index()],
        })
    }

    /// Iterate over `(neighbor, state)` pairs in index order.
    pub fn neighbor_states(&self) -> impl Iterator<Item = (Node, &'a S)> + '_ {
        self.neighbors.iter().enumerate().map(move |(j, &v)| {
            let s = match self.overlay {
                Some(overlay) => &overlay[j],
                None => &self.states[v.index()],
            };
            (v, s)
        })
    }
}

/// The effect of firing one rule: which rule fired (index into
/// [`Protocol::rule_names`]) and the node's next state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Move<S> {
    /// Index of the rule that fired.
    pub rule: usize,
    /// The node's state after the move.
    pub next: S,
}

/// A uniform guarded-rule protocol.
///
/// Implementations must be deterministic: for a given view, at most one rule
/// is enabled (or the implementation picks a canonical one), matching the
/// synchronous model where a node "takes action after receiving beacon
/// messages from all the neighboring nodes".
pub trait Protocol: Sync {
    /// Per-node state carried in beacon messages.
    type State: Clone + PartialEq + Eq + Hash + Debug + Send + Sync;

    /// Human-readable rule names, e.g. `["R1:accept", "R2:propose", "R3:back-off"]`.
    fn rule_names(&self) -> &'static [&'static str];

    /// The canonical "clean" state (used by [`InitialState::Default`]).
    fn default_state(&self) -> Self::State;

    /// An arbitrary state for `node`, drawn uniformly from the node's local
    /// state space. Self-stabilization must cope with *any* of these.
    fn arbitrary_state(&self, node: Node, neighbors: &[Node], rng: &mut StdRng) -> Self::State;

    /// Enumerate the node's entire local state space (used by the exhaustive
    /// verifier on small instances).
    fn enumerate_states(&self, node: Node, neighbors: &[Node]) -> Vec<Self::State>;

    /// Evaluate the guards for `view`'s node: `Some(move)` iff the node is
    /// privileged.
    fn step(&self, view: View<'_, Self::State>) -> Option<Move<Self::State>>;

    /// Whether the global state is a legitimate fixpoint *for this
    /// protocol's target predicate* — used by tests and the exhaustive
    /// verifier to check that silence implies correctness (Lemma 8 / Lemma
    /// 13 of the paper). Default: any fixpoint is accepted.
    fn is_legitimate(&self, _graph: &Graph, _states: &[Self::State]) -> bool {
        true
    }

    /// Containment of a global state against a Byzantine node mask: which
    /// *honest* nodes violate the protocol's target predicate restricted
    /// to the honest subgraph, and how far the damage reaches from the
    /// compromised set (see [`selfstab_graph::predicates::Containment`]).
    /// Default: `None` — the protocol defines no containment semantics.
    fn containment(
        &self,
        _graph: &Graph,
        _states: &[Self::State],
        _byz: &[bool],
    ) -> Option<selfstab_graph::predicates::Containment> {
        None
    }
}

/// How the engine seeds the global state before an execution.
#[derive(Clone, Debug)]
pub enum InitialState<S> {
    /// Every node starts in [`Protocol::default_state`].
    Default,
    /// Every node starts in an independently drawn arbitrary state
    /// (deterministic in the seed).
    Random {
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Explicit states, e.g. a previously stabilized vector after injected
    /// faults.
    Explicit(Vec<S>),
}

impl<S: Clone> InitialState<S> {
    /// Materialize the initial state vector for `graph` under `proto`.
    pub fn materialize<P>(&self, graph: &Graph, proto: &P) -> Vec<S>
    where
        P: Protocol<State = S>,
    {
        use rand::SeedableRng;
        match self {
            InitialState::Default => vec![proto.default_state(); graph.n()],
            InitialState::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                graph
                    .nodes()
                    .map(|v| proto.arbitrary_state(v, graph.neighbors(v), &mut rng))
                    .collect()
            }
            InitialState::Explicit(states) => {
                assert_eq!(states.len(), graph.n(), "explicit state vector length");
                states.clone()
            }
        }
    }
}

/// A decode failure for a wire-encoded state or frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// An enum/option tag byte had an undefined value.
    BadTag(u8),
    /// Bytes left over after the value was fully decoded.
    TrailingBytes,
    /// A frame header field (version, round tag) did not match.
    Header(&'static str),
    /// A value's encoding is too large for the frame field that carries its
    /// length (the payload size in bytes is attached).
    PayloadTooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire payload"),
            WireError::BadTag(t) => write!(f, "undefined tag byte {t:#04x}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::Header(what) => write!(f, "bad frame header: {what}"),
            WireError::PayloadTooLarge(n) => {
                write!(
                    f,
                    "state encoding of {n} bytes exceeds the frame payload field"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A state that can ride in a beacon frame: a compact little-endian binary
/// encoding with a lossless decode. The message-passing runtime
/// (`selfstab-runtime`) requires `Protocol::State: WireState` so neighbor
/// states can cross shard (and eventually process) boundaries as bytes
/// instead of shared memory.
///
/// Contract: `decode(encode(x)) == x`, and `decode` consumes *exactly* the
/// bytes `encode` produced (a frame carries an explicit payload length, so
/// partial consumption indicates a layout mismatch and must error).
pub trait WireState: Sized {
    /// Append the little-endian encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode a value from a prefix of `bytes`; returns the value and the
    /// number of bytes consumed.
    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError>;

    /// Decode a value that must span `bytes` exactly.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (value, used) = Self::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(value)
    }
}

macro_rules! impl_wire_le_int {
    ($($t:ty),*) => {$(
        impl WireState for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
                const W: usize = std::mem::size_of::<$t>();
                let raw: [u8; W] = bytes
                    .get(..W)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .expect("slice length checked");
                Ok((<$t>::from_le_bytes(raw), W))
            }
        }
    )*};
}

impl_wire_le_int!(u8, u16, u32, u64);

impl WireState for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        match bytes.first() {
            None => Err(WireError::Truncated),
            Some(0) => Ok((false, 1)),
            Some(1) => Ok((true, 1)),
            Some(&t) => Err(WireError::BadTag(t)),
        }
    }
}

impl WireState for Node {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let (raw, used) = u32::decode_prefix(bytes)?;
        Ok((Node(raw), used))
    }
}

impl<T: WireState> WireState for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        match bytes.first() {
            None => Err(WireError::Truncated),
            Some(0) => Ok((None, 1)),
            Some(1) => {
                let (v, used) = T::decode_prefix(&bytes[1..])?;
                Ok((Some(v), used + 1))
            }
            Some(&t) => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MaxProto;
    use selfstab_graph::generators;

    #[test]
    fn view_accessors() {
        let g = generators::path(3);
        let states = vec![10u8, 20, 30];
        let v = View::new(Node(1), g.neighbors(Node(1)), &states);
        assert_eq!(v.node(), Node(1));
        assert_eq!(*v.own(), 20);
        assert!(v.is_neighbor(Node(0)));
        assert!(!v.is_neighbor(Node(1)));
        assert_eq!(v.neighbor_state(Node(2)), Some(&30));
        assert_eq!(v.neighbor_state(Node(1)), None);
        let pairs: Vec<_> = v.neighbor_states().collect();
        assert_eq!(pairs, vec![(Node(0), &10), (Node(2), &30)]);
    }

    #[test]
    fn overlay_view_reads_perceived_neighbor_states() {
        let g = generators::path(3);
        let states = vec![10u8, 20, 30];
        // Node 1 perceives stale values for both neighbors.
        let perceived = vec![11u8, 31];
        let v = View::with_overlay(Node(1), g.neighbors(Node(1)), &states, &perceived);
        assert_eq!(*v.own(), 20, "own state is never stale");
        assert_eq!(v.neighbor_state(Node(0)), Some(&11));
        assert_eq!(v.neighbor_state(Node(2)), Some(&31));
        assert_eq!(v.neighbor_state(Node(1)), None);
        let pairs: Vec<_> = v.neighbor_states().collect();
        assert_eq!(pairs, vec![(Node(0), &11), (Node(2), &31)]);
    }

    #[test]
    fn initial_state_materialization() {
        let g = generators::cycle(4);
        let proto = MaxProto;
        assert_eq!(
            InitialState::Default.materialize(&g, &proto),
            vec![0, 0, 0, 0]
        );
        let a = InitialState::<u8>::Random { seed: 1 }.materialize(&g, &proto);
        let b = InitialState::<u8>::Random { seed: 1 }.materialize(&g, &proto);
        assert_eq!(a, b, "same seed, same states");
        let ex = InitialState::Explicit(vec![3, 1, 2, 0]).materialize(&g, &proto);
        assert_eq!(ex, vec![3, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn explicit_wrong_length_panics() {
        let g = generators::cycle(4);
        InitialState::Explicit(vec![1u8]).materialize(&g, &MaxProto);
    }

    #[test]
    fn wire_roundtrip_primitives() {
        fn rt<T: WireState + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(T::decode(&buf).unwrap(), v);
        }
        rt(0u8);
        rt(255u8);
        rt(0xBEEFu16);
        rt(0xDEAD_BEEFu32);
        rt(u64::MAX);
        rt(true);
        rt(false);
        rt(Node(7));
        rt(Option::<Node>::None);
        rt(Some(Node(u32::MAX)));
    }

    #[test]
    fn wire_encoding_is_little_endian() {
        let mut buf = Vec::new();
        0x0102_0304u32.encode(&mut buf);
        assert_eq!(buf, [0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn wire_decode_rejects_malformed() {
        assert_eq!(u32::decode(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(u8::decode(&[1, 2]), Err(WireError::TrailingBytes));
        assert_eq!(bool::decode(&[9]), Err(WireError::BadTag(9)));
        assert_eq!(Option::<u8>::decode(&[2, 0]), Err(WireError::BadTag(2)));
        assert_eq!(Option::<u8>::decode(&[1]), Err(WireError::Truncated));
        assert_eq!(Option::<u8>::decode(&[]), Err(WireError::Truncated));
    }
}
