//! Topology generators for the experiment suite.
//!
//! Structured families cover the worst cases the paper's proofs point at
//! (paths and cycles with adversarial ID orders, stars, cliques), while the
//! random families ([`unit_disk`], [`erdos_renyi_connected`],
//! [`random_geometric_connected`]) model ad hoc deployments.

use crate::graph::{Graph, Node};
use crate::traversal::is_connected;
use rand::{Rng, RngExt};

/// Path `P_n`: `0 - 1 - … - n-1`.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i)))
}

/// Cycle `C_n` (requires `n >= 3`).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))))
}

/// Star `K_{1,n-1}` with node 0 at the center.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    Graph::from_edges(n, (1..n).map(|i| (0, i)))
}

/// Wheel: a cycle on nodes `1..n` plus a hub `0` adjacent to all of them
/// (requires `n >= 4`).
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "a wheel needs at least 4 nodes");
    let rim = n - 1;
    let mut g = star(n);
    for i in 0..rim {
        g.add_edge(Node::from(1 + i), Node::from(1 + (i + 1) % rim));
    }
    g
}

/// Complete bipartite graph `K_{a,b}` (left part `0..a`, right part `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    Graph::from_edges(
        a + b,
        (0..a).flat_map(move |i| (a..a + b).map(move |j| (i, j))),
    )
}

/// `w × h` grid graph.
pub fn grid(w: usize, h: usize) -> Graph {
    let idx = move |x: usize, y: usize| y * w + x;
    let mut g = Graph::empty(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_edge(Node::from(idx(x, y)), Node::from(idx(x + 1, y)));
            }
            if y + 1 < h {
                g.add_edge(Node::from(idx(x, y)), Node::from(idx(x, y + 1)));
            }
        }
    }
    g
}

/// `w × h` torus (grid with wrap-around; requires `w, h >= 3`).
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus needs both sides >= 3");
    let idx = move |x: usize, y: usize| y * w + x;
    let mut g = Graph::empty(w * h);
    for y in 0..h {
        for x in 0..w {
            g.add_edge(Node::from(idx(x, y)), Node::from(idx((x + 1) % w, y)));
            g.add_edge(Node::from(idx(x, y)), Node::from(idx(x, (y + 1) % h)));
        }
    }
    g
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut g = Graph::empty(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                g.add_edge(Node::from(v), Node::from(u));
            }
        }
    }
    g
}

/// Complete binary tree on `n` nodes (heap indexing: parent of `i` is
/// `(i-1)/2`).
pub fn binary_tree(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| ((i - 1) / 2, i)))
}

/// Caterpillar: a spine path of length `spine` with `legs` pendant nodes
/// attached to every spine node.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1);
    let n = spine + spine * legs;
    let mut g = Graph::empty(n);
    for i in 1..spine {
        g.add_edge(Node::from(i - 1), Node::from(i));
    }
    for s in 0..spine {
        for l in 0..legs {
            g.add_edge(Node::from(s), Node::from(spine + s * legs + l));
        }
    }
    g
}

/// Ring of `k` cliques of size `c`: clique `i` is joined to clique `i+1 mod k`
/// by a single bridge edge (requires `k >= 3`, `c >= 1`).
pub fn ring_of_cliques(k: usize, c: usize) -> Graph {
    assert!(k >= 3 && c >= 1);
    let mut g = Graph::empty(k * c);
    for q in 0..k {
        let base = q * c;
        for i in 0..c {
            for j in i + 1..c {
                g.add_edge(Node::from(base + i), Node::from(base + j));
            }
        }
        let next_base = ((q + 1) % k) * c;
        g.add_edge(Node::from(base), Node::from(next_base));
    }
    g
}

/// The Petersen graph (10 nodes, 15 edges, 3-regular).
pub fn petersen() -> Graph {
    let mut g = Graph::empty(10);
    for i in 0..5 {
        g.add_edge(Node::from(i), Node::from((i + 1) % 5)); // outer C5
        g.add_edge(Node::from(5 + i), Node::from(5 + (i + 2) % 5)); // inner pentagram
        g.add_edge(Node::from(i), Node::from(5 + i)); // spokes
    }
    g
}

/// Uniformly random labelled tree on `n` nodes via a random Prüfer sequence.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 1);
    if n == 1 {
        return Graph::empty(1);
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut g = Graph::empty(n);
    // Min-heap over leaves (nodes with degree 1 not yet attached).
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &p in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("prufer decode invariant");
        g.add_edge(Node::from(leaf), Node::from(p));
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.push(std::cmp::Reverse(p));
        }
    }
    let std::cmp::Reverse(u) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = leaves.pop().expect("two leaves remain");
    g.add_edge(Node::from(u), Node::from(v));
    g
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: samples until the graph
/// is connected (panics after 10 000 rejected samples — pick a sensible `p`).
pub fn erdos_renyi_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    for _ in 0..10_000 {
        let mut g = Graph::empty(n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.random_bool(p) {
                    g.add_edge(Node::from(i), Node::from(j));
                }
            }
        }
        if is_connected(&g) {
            return g;
        }
    }
    panic!("G({n}, {p}) failed to produce a connected sample in 10000 tries");
}

/// Unit-disk graph on explicit 2-D positions: `{u, v}` is an edge iff the
/// Euclidean distance is at most `radius`. This is the standard connectivity
/// model for ad hoc radio networks.
///
/// Uses a spatial hash with cells of side `radius`: any edge's endpoints
/// fall in the same or adjacent cells, so only the 3×3 cell neighborhood is
/// scanned per point. On bounded-density inputs (uniform points, radius ~
/// √(log n / n)) this is O(n + m) instead of the naive O(n²), which is what
/// makes 10⁵-node geometric instances practical to generate.
///
/// Each node's list is written straight into its slot from its 3×3 cells
/// and then sorted, with no edge list in between. Every pair is tested from
/// both sides, which agree: the squared distance is bit-identical either
/// way.
pub fn unit_disk(positions: &[(f64, f64)], radius: f64) -> Graph {
    let r2 = radius * radius;
    let cell = radius.abs().max(f64::MIN_POSITIVE);
    let key = |p: (f64, f64)| ((p.0 / cell).floor() as i64, (p.1 / cell).floor() as i64);
    let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &p) in positions.iter().enumerate() {
        buckets.entry(key(p)).or_default().push(i);
    }
    Graph::from_lists(positions.len(), |v, out| {
        let i = v.index();
        let p = positions[i];
        let (cx, cy) = key(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(cands) = buckets.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in cands {
                    if j == i {
                        continue;
                    }
                    let ddx = p.0 - positions[j].0;
                    let ddy = p.1 - positions[j].1;
                    if ddx * ddx + ddy * ddy <= r2 {
                        out.push(Node::from(j));
                    }
                }
            }
        }
    })
}

/// Random geometric graph: `n` points uniform in the unit square, unit-disk
/// connectivity with the given radius, resampled until connected (panics
/// after 10 000 rejections).
pub fn random_geometric_connected<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    for _ in 0..10_000 {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let g = unit_disk(&pts, radius);
        if is_connected(&g) {
            return g;
        }
    }
    panic!("random geometric graph (n={n}, r={radius}) failed to connect in 10000 tries");
}

/// The named structured topologies, for iterating experiment suites.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Path `P_n`.
    Path,
    /// Cycle `C_n`.
    Cycle,
    /// Star `K_{1,n-1}`.
    Star,
    /// Complete graph `K_n`.
    Complete,
    /// Near-square grid with ~n nodes.
    Grid,
    /// Complete binary tree.
    BinaryTree,
    /// Hypercube with ~n nodes (n rounded down to a power of two).
    Hypercube,
}

impl Family {
    /// All structured families.
    pub const ALL: [Family; 7] = [
        Family::Path,
        Family::Cycle,
        Family::Star,
        Family::Complete,
        Family::Grid,
        Family::BinaryTree,
        Family::Hypercube,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Star => "star",
            Family::Complete => "complete",
            Family::Grid => "grid",
            Family::BinaryTree => "binary-tree",
            Family::Hypercube => "hypercube",
        }
    }

    /// Build an instance with approximately `n` nodes (exact where possible).
    pub fn build(self, n: usize) -> Graph {
        match self {
            Family::Path => path(n),
            Family::Cycle => cycle(n.max(3)),
            Family::Star => star(n),
            Family::Complete => complete(n),
            Family::Grid => {
                let w = (n as f64).sqrt().round().max(1.0) as usize;
                let h = n.div_ceil(w);
                grid(w, h)
            }
            Family::BinaryTree => binary_tree(n),
            Family::Hypercube => {
                let d = usize::BITS - 1 - n.max(2).leading_zeros();
                hypercube(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_connected};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn structured_sizes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(complete(5).m(), 10);
        assert_eq!(star(5).m(), 4);
        assert_eq!(wheel(5).m(), 8);
        assert_eq!(complete_bipartite(2, 3).m(), 6);
        assert_eq!(grid(3, 4).m(), 17);
        assert_eq!(torus(3, 3).m(), 18);
        assert_eq!(hypercube(3).m(), 12);
        assert_eq!(binary_tree(7).m(), 6);
        assert_eq!(caterpillar(3, 2).n(), 9);
        assert_eq!(caterpillar(3, 2).m(), 8);
        assert_eq!(ring_of_cliques(3, 3).n(), 9);
        assert_eq!(ring_of_cliques(3, 3).m(), 3 * 3 + 3);
    }

    #[test]
    fn petersen_is_cubic() {
        let g = petersen();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert_eq!(diameter(&g), Some(2));
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 10, 57] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn er_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_connected(40, 0.2, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(g.n(), 40);
    }

    #[test]
    fn unit_disk_edges() {
        let pts = [(0.0, 0.0), (0.5, 0.0), (2.0, 0.0)];
        let g = unit_disk(&pts, 1.0);
        assert!(g.has_edge(Node(0), Node(1)));
        assert!(!g.has_edge(Node(0), Node(2)));
        assert!(!g.has_edge(Node(1), Node(2)), "distance 1.5 > 1.0");
    }

    #[test]
    fn unit_disk_bucketing_matches_naive_scan() {
        // The spatial hash must produce exactly the edge set of the
        // all-pairs definition, including points on cell boundaries.
        let mut rng = StdRng::seed_from_u64(17);
        for &radius in &[0.05, 0.2, 0.5, 1.5] {
            let pts: Vec<(f64, f64)> = (0..200)
                .map(|_| (rng.random::<f64>() * 3.0, rng.random::<f64>() * 3.0))
                .collect();
            let fast = unit_disk(&pts, radius);
            let r2 = radius * radius;
            let mut naive = Graph::empty(pts.len());
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                    if dx * dx + dy * dy <= r2 {
                        naive.add_edge(Node::from(i), Node::from(j));
                    }
                }
            }
            assert_eq!(fast.m(), naive.m(), "edge count at r={radius}");
            for e in naive.edges() {
                assert!(fast.has_edge(e.a, e.b), "missing {e:?} at r={radius}");
            }
        }
        // Exact cell-boundary distance is still an edge.
        let g = unit_disk(&[(0.0, 0.0), (1.0, 0.0)], 1.0);
        assert!(g.has_edge(Node(0), Node(1)));
    }

    #[test]
    fn geometric_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_geometric_connected(30, 0.4, &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn family_builds_connected_instances() {
        for fam in Family::ALL {
            let g = fam.build(16);
            assert!(is_connected(&g), "{} not connected", fam.name());
            assert!(g.n() >= 8, "{} too small: {}", fam.name(), g.n());
        }
        assert_eq!(Family::Hypercube.build(16).n(), 16);
        assert_eq!(Family::Hypercube.build(31).n(), 16);
        assert_eq!(Family::Grid.build(16).n(), 16);
    }
}
