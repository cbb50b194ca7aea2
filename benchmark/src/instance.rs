//! Seeded inputs: the unit-disk instance and the request stream.
//!
//! Everything here is a pure function of the workload seed. The daemon is
//! started with `--topology unit-disk --n N --ids random --seed S` and builds
//! its graph with exactly the calls in [`unit_disk`], so the benchmark's
//! mirror of the graph is identical to the daemon's without the daemon ever
//! being told more than those flags.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_graph::{generators, Graph, Ids, Node};
use selfstab_service::{Mutation, QueryKind, Request};

/// Salt separating the request stream's generator from the graph's.
const STREAM_SALT: u64 = 0x5e7_ea11;
/// Downed links (and departed nodes) the stream hovers around: with `k`
/// out, the next toggle takes one more down with odds `BACKLOG / (BACKLOG
/// + k)`, otherwise it brings one back.
const BACKLOG: usize = 8;

/// The unit-disk graph and random IDs `selfstab-cli serve|run --topology
/// unit-disk --ids random --seed <seed>` builds: the same radius rule and
/// the same draws from one generator, in the same order.
pub fn unit_disk(n: usize, seed: u64) -> (Graph, Ids) {
    let mut rng = StdRng::seed_from_u64(seed);
    let r = (2.2 * (n as f64).ln() / n as f64).sqrt().min(1.0);
    let g = generators::random_geometric_connected(n, r, &mut rng);
    let ids = Ids::random(g.n(), &mut rng);
    (g, ids)
}

/// Apply `mutation` to a bare graph with the service's semantics. Returns
/// whether any link changed.
pub fn apply(g: &mut Graph, mutation: &Mutation) -> bool {
    match mutation {
        Mutation::EdgeUp { a, b } => g.add_edge(Node::from(*a), Node::from(*b)),
        Mutation::EdgeDown { a, b } => g.remove_edge(Node::from(*a), Node::from(*b)),
        Mutation::NodeLeave { v } => !g.isolate(Node::from(*v)).is_empty(),
        Mutation::NodeJoin { v, attach } => {
            let ws: Vec<Node> = attach.iter().map(|&w| Node::from(w)).collect();
            !g.attach(Node::from(*v), &ws).is_empty()
        }
    }
}

/// A seeded, always-valid request stream over a mirror of the live graph.
///
/// The mutation mix is the E22 churn model (80 % link toggles, 20 % node
/// leaves and rejoins) made stationary: a toggle takes a live link down or
/// brings a previously downed link back up, a rejoin re-attaches a departed
/// node to the links it lost, and the odds lean towards undoing whenever
/// more than [`BACKLOG`] links or nodes are out. The graph therefore keeps
/// its unit-disk shape however long a run lasts, and every mutation is
/// valid against the mirror, which applies it too.
pub struct Stream {
    mirror: Graph,
    rng: StdRng,
    /// Share of requests that are `membership` point queries.
    query_share: f64,
    downed: Vec<(usize, usize)>,
    departed: Vec<(usize, Vec<usize>)>,
}

impl Stream {
    /// A stream over `graph` (the state the daemon starts from).
    pub fn new(graph: Graph, seed: u64, query_share: f64) -> Self {
        Stream {
            mirror: graph,
            rng: StdRng::seed_from_u64(seed ^ STREAM_SALT),
            query_share,
            downed: Vec::new(),
            departed: Vec::new(),
        }
    }

    /// The mirror graph: the daemon's graph after every request so far.
    pub fn mirror(&self) -> &Graph {
        &self.mirror
    }

    /// The next request, tagged with its index in the stream.
    pub fn next_request(&mut self, index: u64) -> Request {
        let tag = Some(index.to_string());
        if self.query_share > 0.0 && self.rng.random_bool(self.query_share) {
            let node = self.rng.random_range(0..self.mirror.n());
            return Request::Query {
                query: QueryKind::Membership(Some(node)),
                tag,
            };
        }
        Request::Mutate {
            mutation: self.next_mutation(),
            tag,
        }
    }

    /// The next mutation, already applied to the mirror.
    fn next_mutation(&mut self) -> Mutation {
        let mutation = if self.rng.random_bool(0.8) {
            match self
                .undo(self.downed.len())
                .then(|| self.pop_downed())
                .flatten()
            {
                Some((a, b)) => Mutation::EdgeUp { a, b },
                None => self.link_down(),
            }
        } else if self.undo(self.departed.len()) {
            let i = self.rng.random_range(0..self.departed.len());
            let (v, attach) = self.departed.swap_remove(i);
            Mutation::NodeJoin { v, attach }
        } else {
            self.leave()
        };
        apply(&mut self.mirror, &mutation);
        mutation
    }

    /// Whether to undo one of `out` outstanding changes rather than make a
    /// new one.
    fn undo(&mut self, out: usize) -> bool {
        out > 0 && self.rng.random_bool(out as f64 / (BACKLOG + out) as f64)
    }

    /// A node with at least one live link (the unit-disk graph has almost
    /// no isolated nodes, so this ends after a draw or two).
    fn linked_node(&mut self) -> usize {
        loop {
            let v = self.rng.random_range(0..self.mirror.n());
            if self.mirror.degree(Node::from(v)) > 0 {
                return v;
            }
        }
    }

    fn link_down(&mut self) -> Mutation {
        let a = self.linked_node();
        let nbrs = self.mirror.neighbors(Node::from(a));
        let b = nbrs[self.rng.random_range(0..nbrs.len())].index();
        self.downed.push((a, b));
        Mutation::EdgeDown { a, b }
    }

    /// A downed link that is still down (a rejoin may have restored it).
    fn pop_downed(&mut self) -> Option<(usize, usize)> {
        while !self.downed.is_empty() {
            let (a, b) = self
                .downed
                .swap_remove(self.rng.random_range(0..self.downed.len()));
            if !self.mirror.has_edge(Node::from(a), Node::from(b)) {
                return Some((a, b));
            }
        }
        None
    }

    fn leave(&mut self) -> Mutation {
        let v = self.linked_node();
        let former = self
            .mirror
            .neighbors(Node::from(v))
            .iter()
            .map(|w| w.index())
            .collect();
        self.departed.push((v, former));
        Mutation::NodeLeave { v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::traversal::is_connected;

    #[test]
    fn unit_disk_is_seeded_and_connected() {
        let (g, ids) = unit_disk(500, 7);
        let (h, ids2) = unit_disk(500, 7);
        assert!(is_connected(&g));
        assert_eq!(g, h);
        assert_eq!(ids, ids2);
        assert_ne!(g, unit_disk(500, 8).0);
    }

    #[test]
    fn stream_mutations_are_valid_and_stationary() {
        use selfstab_core::Smi;
        use selfstab_engine::InitialState;
        use selfstab_service::{OverlayService, SimClock};

        let (g, ids) = unit_disk(500, 3);
        let m0 = g.m();
        let smi = Smi::new(ids);
        let clock = SimClock::new();
        let mut svc = OverlayService::new(g.clone(), &smi, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        let mut stream = Stream::new(g, 3, 0.0);
        for i in 0..4000 {
            let Request::Mutate { mutation, .. } = stream.next_request(i) else {
                panic!("query in a mutation-only stream");
            };
            svc.enqueue(mutation);
            for record in svc.drain(&clock, &mut ()) {
                assert!(record.expect("stream mutations are valid").converged);
            }
        }
        assert_eq!(svc.graph(), stream.mirror());
        let drift = svc.graph().m().abs_diff(m0) as f64 / m0 as f64;
        assert!(drift < 0.1, "m drifted from {m0} to {}", svc.graph().m());
    }
}
