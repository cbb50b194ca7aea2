//! The `graph6` exchange format (Brendan McKay's nauty suite).
//!
//! Lets the test- and experiment suites consume externally generated graph
//! catalogues (e.g. `geng`-enumerated connected graphs) and export instances
//! for cross-checking with other tools. Only the standard variant for
//! `n ≤ 62` and the 4-byte extension for `n ≤ 258047` are implemented —
//! ample for protocol experiments.

use crate::graph::{Graph, Node};

/// Errors from graph6 parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Graph6Error {
    /// Input was empty.
    Empty,
    /// A byte outside the printable graph6 range `63..=126`.
    BadByte(u8),
    /// Fewer bit-vector bytes than the header's node count requires.
    Truncated,
    /// Node counts above the supported range.
    TooLarge,
}

impl std::fmt::Display for Graph6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Graph6Error::Empty => write!(f, "empty graph6 string"),
            Graph6Error::BadByte(b) => write!(f, "byte {b} outside graph6 range 63..=126"),
            Graph6Error::Truncated => write!(f, "graph6 string shorter than header requires"),
            Graph6Error::TooLarge => write!(f, "graph6 node count above supported range"),
        }
    }
}

impl std::error::Error for Graph6Error {}

fn check(b: u8) -> Result<u64, Graph6Error> {
    if (63..=126).contains(&b) {
        Ok((b - 63) as u64)
    } else {
        Err(Graph6Error::BadByte(b))
    }
}

/// Parse a graph6 line (without trailing newline) into a [`Graph`].
pub fn parse(s: &str) -> Result<Graph, Graph6Error> {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return Err(Graph6Error::Empty);
    }
    let (n, mut pos) = if bytes[0] == 126 {
        if bytes.len() >= 2 && bytes[1] == 126 {
            return Err(Graph6Error::TooLarge); // 8-byte form (n > 258047)
        }
        if bytes.len() < 4 {
            return Err(Graph6Error::Truncated);
        }
        let n = (check(bytes[1])? << 12) | (check(bytes[2])? << 6) | check(bytes[3])?;
        (n as usize, 4usize)
    } else {
        (check(bytes[0])? as usize, 1usize)
    };
    let pairs = n * n.saturating_sub(1) / 2;
    let mut g = Graph::empty(n);
    let mut bit = 0usize;
    let mut current: u64 = 0;
    let mut remaining_bits = 0u32;
    let mut k = 0usize; // pair index in column-major (j, then i < j) order
    'outer: for j in 1..n {
        for i in 0..j {
            if remaining_bits == 0 {
                if pos >= bytes.len() {
                    return Err(Graph6Error::Truncated);
                }
                current = check(bytes[pos])?;
                pos += 1;
                remaining_bits = 6;
            }
            remaining_bits -= 1;
            if (current >> remaining_bits) & 1 == 1 {
                g.add_edge(Node::from(i), Node::from(j));
            }
            bit += 1;
            k += 1;
            if k == pairs {
                break 'outer;
            }
        }
    }
    let _ = bit;
    Ok(g)
}

/// Serialize a [`Graph`] as a graph6 line (no trailing newline).
pub fn to_graph6(g: &Graph) -> String {
    let n = g.n();
    assert!(
        n <= 258_047,
        "graph too large for the implemented graph6 forms"
    );
    let mut out: Vec<u8> = Vec::new();
    if n <= 62 {
        out.push(n as u8 + 63);
    } else {
        out.push(126);
        out.push(((n >> 12) & 63) as u8 + 63);
        out.push(((n >> 6) & 63) as u8 + 63);
        out.push((n & 63) as u8 + 63);
    }
    let mut current = 0u8;
    let mut bits = 0u32;
    for j in 1..n {
        for i in 0..j {
            current <<= 1;
            if g.has_edge(Node::from(i), Node::from(j)) {
                current |= 1;
            }
            bits += 1;
            if bits == 6 {
                out.push(current + 63);
                current = 0;
                bits = 0;
            }
        }
    }
    if bits > 0 {
        current <<= 6 - bits;
        out.push(current + 63);
    }
    String::from_utf8(out).expect("graph6 bytes are printable ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        // From the nauty documentation: P5 paths etc. Simplest anchors:
        // K0 = "?", K1 = "@", K2 (one edge) = "A_", empty-2 = "A?".
        assert_eq!(to_graph6(&Graph::empty(0)), "?");
        assert_eq!(to_graph6(&Graph::empty(1)), "@");
        assert_eq!(to_graph6(&Graph::empty(2)), "A?");
        assert_eq!(to_graph6(&generators::path(2)), "A_");
        // Triangle K3 = "Bw".
        assert_eq!(to_graph6(&generators::complete(3)), "Bw");
    }

    #[test]
    fn roundtrip_structured_families() {
        for fam in generators::Family::ALL {
            for n in [3usize, 7, 20, 61] {
                let g = fam.build(n);
                let encoded = to_graph6(&g);
                let decoded = parse(&encoded).expect("roundtrip parse");
                assert_eq!(decoded, g, "{} n={n} via {encoded:?}", fam.name());
            }
        }
    }

    #[test]
    fn roundtrip_large_header() {
        let g = generators::cycle(100); // forces the 4-byte header
        let encoded = to_graph6(&g);
        assert_eq!(encoded.as_bytes()[0], 126);
        assert_eq!(parse(&encoded).unwrap(), g);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse(""), Err(Graph6Error::Empty));
        assert_eq!(parse("\u{1}"), Err(Graph6Error::BadByte(1)));
        assert_eq!(parse("C"), Err(Graph6Error::Truncated), "n=4 needs a body");
        assert_eq!(parse("~~"), Err(Graph6Error::TooLarge));
        assert_eq!(parse("~?"), Err(Graph6Error::Truncated));
    }

    #[test]
    fn random_roundtrip() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        for n in [5usize, 13, 33] {
            let g = generators::erdos_renyi_connected(n, 0.3, &mut rng);
            assert_eq!(parse(&to_graph6(&g)).unwrap(), g);
        }
    }

    /// Hostile graph6 lines: one case in four is arbitrary bytes (lossily
    /// made UTF-8); otherwise bytes around the graph6 range `63..=126`, half
    /// of them behind a small-`n` header so that some parse.
    fn hostile_lines() -> impl Strategy<Value = String> {
        let parts = (0u8..4, 0u8..16, collection::vec(any::<u8>(), 0..48));
        parts.prop_map(|(mode, n, mut bytes)| {
            if mode == 0 {
                return String::from_utf8_lossy(&bytes).into_owned();
            }
            for b in &mut bytes {
                *b = 62 + *b % 66;
            }
            if mode >= 2 {
                bytes.insert(0, 63 + n);
            }
            String::from_utf8(bytes).expect("bytes 62..=127 are ASCII")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any line parses to `Ok` or `Err`, never a panic, and every
        /// graph it yields round-trips through `to_graph6`.
        #[test]
        fn hostile_lines_parse_or_err_and_parsed_graphs_round_trip(line in hostile_lines()) {
            if let Ok(g) = parse(&line) {
                prop_assert_eq!(parse(&to_graph6(&g)), Ok(g));
            }
        }
    }
}
