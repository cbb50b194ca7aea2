//! Failure-path coverage for the sharded runtime: a malformed beacon, an
//! oversized state encoding, or a panicking worker must surface as a typed
//! [`RuntimeError`] from `run` — with every worker joined — rather than
//! aborting the process or hanging peers on the round barrier.

use rand::rngs::StdRng;
use selfstab_engine::protocol::{InitialState, Move, Protocol, View, WireError, WireState};
use selfstab_engine::sync::Outcome;
use selfstab_graph::{generators, Node};
use selfstab_runtime::{RuntimeError, RuntimeExecutor};

/// Flip-once dynamics shared by the adversarial states below: a `false`
/// node moves to `true`, a `true` node is silent. Guarantees exactly one
/// round of moves (and hence boundary beacons) from the default start.
fn flip_step<S: FlipState>(view: View<'_, S>) -> Option<Move<S>> {
    (!view.own().get()).then(|| Move {
        rule: 0,
        next: S::new(true),
    })
}

trait FlipState: Clone + PartialEq + Eq + std::hash::Hash + std::fmt::Debug + Send + Sync {
    fn new(v: bool) -> Self;
    fn get(&self) -> bool;
}

macro_rules! flip_protocol {
    ($proto:ident, $state:ty) => {
        struct $proto;
        impl Protocol for $proto {
            type State = $state;
            fn rule_names(&self) -> &'static [&'static str] {
                &["flip"]
            }
            fn default_state(&self) -> Self::State {
                FlipState::new(false)
            }
            fn arbitrary_state(&self, _: Node, _: &[Node], _: &mut StdRng) -> Self::State {
                FlipState::new(false)
            }
            fn enumerate_states(&self, _: Node, _: &[Node]) -> Vec<Self::State> {
                vec![FlipState::new(false), FlipState::new(true)]
            }
            fn step(&self, view: View<'_, Self::State>) -> Option<Move<Self::State>> {
                flip_step(view)
            }
        }
    };
}

/// A state whose encoding is a byte its own decoder rejects: every frame
/// that crosses a shard boundary is malformed on arrival.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct EvilState(bool);

impl FlipState for EvilState {
    fn new(v: bool) -> Self {
        EvilState(v)
    }
    fn get(&self) -> bool {
        self.0
    }
}

impl WireState for EvilState {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(0x07); // deliberately not a tag `decode_prefix` accepts
    }
    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        match bytes.first() {
            None => Err(WireError::Truncated),
            Some(0) => Ok((EvilState(false), 1)),
            Some(1) => Ok((EvilState(true), 1)),
            Some(&t) => Err(WireError::BadTag(t)),
        }
    }
}

flip_protocol!(EvilProto, EvilState);

/// A state whose encoding overflows the u16 payload-length field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct HugeState(bool);

impl FlipState for HugeState {
    fn new(v: bool) -> Self {
        HugeState(v)
    }
    fn get(&self) -> bool {
        self.0
    }
}

impl WireState for HugeState {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.resize(buf.len() + 70_000, 0xAB);
    }
    fn decode_prefix(_: &[u8]) -> Result<(Self, usize), WireError> {
        unreachable!("encode always fails first")
    }
}

flip_protocol!(HugeProto, HugeState);

#[test]
fn malformed_beacon_is_a_wire_error_not_a_worker_panic() {
    let g = generators::grid(4, 4);
    let err = RuntimeExecutor::new(&g, &EvilProto, 4)
        .run(InitialState::Default, 10)
        .unwrap_err();
    match &err {
        RuntimeError::Wire { error, .. } => assert_eq!(*error, WireError::BadTag(0x07)),
        other => panic!("expected a wire error, got {other:?}"),
    }
    assert!(err.to_string().contains("undefined tag byte"));
}

#[test]
fn malformed_encoding_is_harmless_without_boundaries() {
    // One shard sends no beacons, so the same protocol runs to completion:
    // the failure above is the wire path, not the protocol.
    let g = generators::grid(4, 4);
    let run = RuntimeExecutor::new(&g, &EvilProto, 1)
        .run(InitialState::Default, 10)
        .expect("no boundary traffic, no wire error");
    assert_eq!(run.outcome, Outcome::Stabilized);
    assert_eq!(run.rounds, 1);
    assert!(run.final_states.iter().all(|s| s.0));
}

#[test]
fn oversized_state_encoding_is_a_payload_error() {
    let g = generators::path(8);
    let err = RuntimeExecutor::new(&g, &HugeProto, 2)
        .run(InitialState::Default, 10)
        .unwrap_err();
    match err {
        RuntimeError::Wire { error, .. } => {
            assert_eq!(error, WireError::PayloadTooLarge(70_000))
        }
        other => panic!("expected a payload error, got {other:?}"),
    }
}

/// Guards are pure functions in the model, but an implementation bug can
/// still panic; the runtime must report it, not hang or abort.
struct PanicProto;

impl Protocol for PanicProto {
    type State = bool;
    fn rule_names(&self) -> &'static [&'static str] {
        &["flip"]
    }
    fn default_state(&self) -> bool {
        false
    }
    fn arbitrary_state(&self, _: Node, _: &[Node], _: &mut StdRng) -> bool {
        false
    }
    fn enumerate_states(&self, _: Node, _: &[Node]) -> Vec<bool> {
        vec![false, true]
    }
    fn step(&self, view: View<'_, bool>) -> Option<Move<bool>> {
        if *view.own() && view.node() == Node(0) {
            panic!("injected guard bug on node 0");
        }
        (!view.own()).then_some(Move {
            rule: 0,
            next: true,
        })
    }
}

#[test]
fn panicking_worker_is_reported_and_peers_are_released() {
    // Round 1 flips everyone; round 2 re-evaluates node 0 (it moved, so it
    // stays on the active worklist) and hits the injected panic. The other
    // three workers must shut down instead of deadlocking on the barrier.
    // (The worker's panic message on stderr is expected test output.)
    let g = generators::grid(4, 4);
    let err = RuntimeExecutor::new(&g, &PanicProto, 4)
        .run(InitialState::Default, 10)
        .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err:?}"
    );
}

/// A flip state carrying a `faulty` mark. Exactly one node is marked, and
/// only its post-flip beacon fails to encode: by overflowing the u16
/// payload-length field, or (with `PANIC`) by panicking. Every other
/// beacon is one byte and crosses the wire cleanly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Marked<const PANIC: bool> {
    on: bool,
    faulty: bool,
}

impl<const PANIC: bool> WireState for Marked<PANIC> {
    fn encode(&self, buf: &mut Vec<u8>) {
        if self.faulty && self.on {
            if PANIC {
                panic!("injected encode bug on the marked node");
            }
            buf.resize(buf.len() + 70_000, 0xAB);
        } else {
            buf.push(u8::from(self.on));
        }
    }
    fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        match bytes.first() {
            None => Err(WireError::Truncated),
            Some(&b @ (0 | 1)) => Ok((
                Marked {
                    on: b == 1,
                    faulty: false,
                },
                1,
            )),
            Some(&t) => Err(WireError::BadTag(t)),
        }
    }
}

struct MarkedProto<const PANIC: bool>;

impl<const PANIC: bool> Protocol for MarkedProto<PANIC> {
    type State = Marked<PANIC>;
    fn rule_names(&self) -> &'static [&'static str] {
        &["flip"]
    }
    fn default_state(&self) -> Self::State {
        Marked {
            on: false,
            faulty: false,
        }
    }
    fn arbitrary_state(&self, _: Node, _: &[Node], _: &mut StdRng) -> Self::State {
        self.default_state()
    }
    fn enumerate_states(&self, _: Node, _: &[Node]) -> Vec<Self::State> {
        [false, true]
            .map(|on| Marked { on, faulty: false })
            .to_vec()
    }
    fn step(&self, view: View<'_, Self::State>) -> Option<Move<Self::State>> {
        let own = *view.own();
        (!own.on).then_some(Move {
            rule: 0,
            next: Marked { on: true, ..own },
        })
    }
}

/// Run a 4-shard flip run on a 4×4 grid in which the first boundary node
/// is marked, on its own thread; fail if no result arrives within 30 s.
/// Every node flips in round 1, so the marked node's owner fails while
/// encoding its round-1 batches and each peer expecting one of them is
/// blocked on its mailbox; only the failing worker can wake it.
fn one_worker_fails_mid_exchange<const PANIC: bool>() -> RuntimeError {
    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let g = generators::grid(4, 4);
        let exec = RuntimeExecutor::new(&g, &MarkedProto::<PANIC>, 4);
        let shard_of = &exec.partition().shard_of;
        let marked = g
            .nodes()
            .find(|&v| {
                g.neighbors(v)
                    .iter()
                    .any(|w| shard_of[w.index()] != shard_of[v.index()])
            })
            .expect("four shards on a grid have boundary nodes");
        let init = g
            .nodes()
            .map(|v| Marked {
                on: false,
                faulty: v == marked,
            })
            .collect();
        let outcome = exec.run(InitialState::Explicit(init), 10);
        done.send(outcome.map(|run| run.rounds))
            .expect("watchdog alive");
    });
    let outcome = result
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("watchdog: a peer stayed blocked on the failed worker's batch");
    worker.join().unwrap();
    outcome.expect_err("the marked beacon cannot cross the wire")
}

#[test]
fn one_oversized_beacon_releases_peers_waiting_for_its_batch() {
    match one_worker_fails_mid_exchange::<false>() {
        RuntimeError::Wire {
            error: WireError::PayloadTooLarge(_),
            ..
        } => {}
        other => panic!("expected a payload error, got {other:?}"),
    }
}

#[test]
fn one_panicking_encode_releases_peers_waiting_for_its_batch() {
    // (The worker's panic message on stderr is expected test output.)
    let err = one_worker_fails_mid_exchange::<true>();
    assert!(
        matches!(err, RuntimeError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err:?}"
    );
}
