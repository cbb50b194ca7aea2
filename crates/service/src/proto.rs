//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order. The same
//! parser serves the Unix-socket transport and scripted sim sessions, so a
//! CI script file is byte-for-byte a valid client session.
//!
//! Requests:
//!
//! ```text
//! {"op":"mutate","kind":"edge-up","a":0,"b":5}
//! {"op":"mutate","kind":"edge-down","a":0,"b":5}
//! {"op":"mutate","kind":"node-leave","v":3}
//! {"op":"mutate","kind":"node-join","v":3,"attach":[1,2]}
//! {"op":"query","what":"membership","node":4}   // node optional
//! {"op":"query","what":"census"}
//! {"op":"query","what":"status"}
//! {"op":"query","what":"latency"}
//! {"op":"query","what":"telemetry"}
//! {"op":"shutdown"}
//! ```
//!
//! Every request may carry a `"tag"` string, echoed verbatim in the
//! response — the correlation hook for pipelined clients (and the
//! string-escaping round-trip the CI smoke exercises). Responses are
//! objects with `"ok":true` plus op-specific fields, or
//! `{"ok":false,"error":"..."}`.

use selfstab_json::{Json, ToJson};

/// A topology mutation event.
///
/// Node indices are dense `0..n` (the service owns a fixed node universe;
/// *leave* isolates a node, *join* re-attaches it — an isolated node is a
/// legitimate singleton in both SMM and SMI, so membership in the overlay
/// is exactly connectivity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Bring the link `a–b` up.
    EdgeUp {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// Take the link `a–b` down.
    EdgeDown {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// Node `v` leaves: all its incident links go down at once.
    NodeLeave {
        /// The leaving node.
        v: usize,
    },
    /// Node `v` (re-)joins, bringing up links to `attach`.
    NodeJoin {
        /// The joining node.
        v: usize,
        /// Neighbors to link to (may be empty: join as a singleton).
        attach: Vec<usize>,
    },
}

impl Mutation {
    /// The wire `kind` string.
    pub fn kind(&self) -> &'static str {
        match self {
            Mutation::EdgeUp { .. } => "edge-up",
            Mutation::EdgeDown { .. } => "edge-down",
            Mutation::NodeLeave { .. } => "node-leave",
            Mutation::NodeJoin { .. } => "node-join",
        }
    }
}

/// A read-only query against the live structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Membership of one node (`Some`) or the whole structure (`None`).
    Membership(Option<usize>),
    /// The protocol-level census (SMM node types, SMI set size).
    Census,
    /// Convergence/epoch status: clock, events ingested, legitimacy.
    Status,
    /// The per-event re-stabilization latency histogram.
    Latency,
    /// The live telemetry registry (same values as a Prometheus scrape).
    Telemetry,
}

impl QueryKind {
    /// The wire `what` string.
    pub fn what(&self) -> &'static str {
        match self {
            QueryKind::Membership(_) => "membership",
            QueryKind::Census => "census",
            QueryKind::Status => "status",
            QueryKind::Latency => "latency",
            QueryKind::Telemetry => "telemetry",
        }
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Apply a mutation (and re-converge before answering).
    Mutate {
        /// The mutation to apply.
        mutation: Mutation,
        /// Correlation tag, echoed in the response.
        tag: Option<String>,
    },
    /// Answer a query (pending mutations are drained first).
    Query {
        /// What to ask.
        query: QueryKind,
        /// Correlation tag, echoed in the response.
        tag: Option<String>,
    },
    /// Drain, snapshot, and stop serving.
    Shutdown {
        /// Correlation tag, echoed in the response.
        tag: Option<String>,
    },
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(j) => usize::try_from(
            j.as_u64()
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))?,
        )
        .map(Some)
        .map_err(|_| format!("field `{key}` out of range")),
    }
}

fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
    opt_usize(v, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        let tag = match v.get("tag") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err("field `tag` must be a string".into()),
        };
        match op {
            "mutate" => {
                let kind = v
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("missing string field `kind`")?;
                let mutation = match kind {
                    "edge-up" => Mutation::EdgeUp {
                        a: req_usize(&v, "a")?,
                        b: req_usize(&v, "b")?,
                    },
                    "edge-down" => Mutation::EdgeDown {
                        a: req_usize(&v, "a")?,
                        b: req_usize(&v, "b")?,
                    },
                    "node-leave" => Mutation::NodeLeave {
                        v: req_usize(&v, "v")?,
                    },
                    "node-join" => {
                        let attach = match v.get("attach") {
                            None | Some(Json::Null) => Vec::new(),
                            Some(j) => j
                                .as_array()
                                .ok_or("field `attach` must be an array")?
                                .iter()
                                .map(|x| {
                                    x.as_u64().and_then(|n| usize::try_from(n).ok()).ok_or_else(
                                        || "field `attach` must hold node indices".to_string(),
                                    )
                                })
                                .collect::<Result<Vec<_>, _>>()?,
                        };
                        Mutation::NodeJoin {
                            v: req_usize(&v, "v")?,
                            attach,
                        }
                    }
                    other => return Err(format!("unknown mutation kind '{other}'")),
                };
                Ok(Request::Mutate { mutation, tag })
            }
            "query" => {
                let what = v
                    .get("what")
                    .and_then(Json::as_str)
                    .ok_or("missing string field `what`")?;
                let query = match what {
                    "membership" => QueryKind::Membership(opt_usize(&v, "node")?),
                    "census" => QueryKind::Census,
                    "status" => QueryKind::Status,
                    "latency" => QueryKind::Latency,
                    "telemetry" => QueryKind::Telemetry,
                    other => return Err(format!("unknown query '{other}'")),
                };
                Ok(Request::Query { query, tag })
            }
            "shutdown" => Ok(Request::Shutdown { tag }),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    /// Render back to the wire form (scripting and test support; `parse ∘
    /// to_json ∘ to_string` is the identity on the typed request).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let tag = match self {
            Request::Mutate { mutation, tag } => {
                fields.push(("op".into(), "mutate".to_json()));
                fields.push(("kind".into(), mutation.kind().to_json()));
                match mutation {
                    Mutation::EdgeUp { a, b } | Mutation::EdgeDown { a, b } => {
                        fields.push(("a".into(), a.to_json()));
                        fields.push(("b".into(), b.to_json()));
                    }
                    Mutation::NodeLeave { v } => fields.push(("v".into(), v.to_json())),
                    Mutation::NodeJoin { v, attach } => {
                        fields.push(("v".into(), v.to_json()));
                        fields.push(("attach".into(), attach.to_json()));
                    }
                }
                tag
            }
            Request::Query { query, tag } => {
                fields.push(("op".into(), "query".to_json()));
                fields.push(("what".into(), query.what().to_json()));
                if let QueryKind::Membership(Some(node)) = query {
                    fields.push(("node".into(), node.to_json()));
                }
                tag
            }
            Request::Shutdown { tag } => {
                fields.push(("op".into(), "shutdown".to_json()));
                tag
            }
        };
        if let Some(t) = tag {
            fields.push(("tag".into(), t.to_json()));
        }
        Json::Object(fields)
    }
}

/// Build a success response: `{"ok":true, ...fields, "tag":?}`.
pub fn resp_ok(fields: Vec<(String, Json)>, tag: Option<&str>) -> Json {
    let mut all = vec![("ok".to_string(), true.to_json())];
    all.extend(fields);
    if let Some(t) = tag {
        all.push(("tag".to_string(), t.to_json()));
    }
    Json::Object(all)
}

/// Build an error response: `{"ok":false,"error":msg,"tag":?}`.
pub fn resp_err(msg: &str, tag: Option<&str>) -> Json {
    let mut all = vec![
        ("ok".to_string(), false.to_json()),
        ("error".to_string(), msg.to_json()),
    ];
    if let Some(t) = tag {
        all.push(("tag".to_string(), t.to_json()));
    }
    Json::Object(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The request keys.
    const KEYS: [&str; 9] = ["op", "kind", "what", "a", "b", "v", "node", "attach", "tag"];

    /// A value `key` gives meaning to: one of its words (or a word it does
    /// not know), a small node index, or a list of them.
    fn meaningful(key: &str, x: u64) -> Json {
        let words: &[&str] = match key {
            "op" => &["mutate", "query", "shutdown", "warp"],
            "kind" => &["edge-up", "edge-down", "node-leave", "node-join", ""],
            "what" => &[
                "membership",
                "census",
                "status",
                "latency",
                "telemetry",
                "huh",
            ],
            "tag" => &["t1", "q\"uote\\back\nnew é😀", ""],
            "attach" => {
                return Json::Array(
                    (0..x % 4)
                        .map(|i| Json::U64(x >> (8 * i + 2) & 15))
                        .collect(),
                )
            }
            _ => return Json::U64(x % 16),
        };
        Json::Str(words[x as usize % words.len()].to_string())
    }

    /// An arbitrary JSON value for `key`, read off `draws` (null once they
    /// run out) and nested at most `depth` deep. Over half the draws are
    /// [`meaningful`], so that many objects parse.
    fn arb_value(key: &str, draws: &mut impl Iterator<Item = (u8, u64)>, depth: u32) -> Json {
        let Some((kind, x)) = draws.next() else {
            return Json::Null;
        };
        match kind {
            0 => Json::Null,
            1 => Json::Bool(x % 2 == 1),
            2 => Json::U64(x),
            3 => Json::I64(x as i64),
            4 => Json::F64((x % 2001) as f64 / 8.0 - 125.0),
            5 if depth > 0 => Json::Array(
                (0..x % 4)
                    .map(|_| arb_value(key, draws, depth - 1))
                    .collect(),
            ),
            6 if depth > 0 => Json::Object(
                (0..x % 4)
                    .map(|i| {
                        let k = KEYS[(x / 4 + i) as usize % KEYS.len()];
                        (k.to_string(), arb_value(k, draws, depth - 1))
                    })
                    .collect(),
            ),
            _ => meaningful(key, x),
        }
    }

    /// An object holding each request key with probability 3/4, with an
    /// arbitrary value.
    fn arb_object() -> impl Strategy<Value = Json> {
        collection::vec(
            (0u8..4, collection::vec((0u8..16, any::<u64>()), 1..8)),
            KEYS.len(),
        )
        .prop_map(|fields| {
            Json::Object(
                KEYS.iter()
                    .zip(fields)
                    .filter(|(_, (skip, _))| *skip != 0)
                    .map(|(k, (_, draws))| {
                        let value = arb_value(k, &mut draws.into_iter(), 3);
                        (k.to_string(), value)
                    })
                    .collect(),
            )
        })
    }

    /// Fragments spliced into lines: JSON syntax, numbers at the edges of
    /// their ranges, and escapes.
    const PIECES: [&str; 16] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "null",
        "-",
        "1.5e3",
        "18446744073709551616",
        "-9223372036854775809",
        "\\u0000",
        "\\ud800",
        "\r",
    ];

    /// An arbitrary line: an object's rendering with up to five splices,
    /// each replacing up to three characters by a fragment or by any one
    /// character.
    fn arb_line() -> impl Strategy<Value = String> {
        let splices = collection::vec((any::<u32>(), 0usize..PIECES.len() + 1, 0usize..4), 0..6);
        (arb_object(), splices).prop_map(|(object, splices)| {
            let mut line = object.to_string();
            for (at, piece, cut) in splices {
                let bounds: Vec<usize> = line
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([line.len()])
                    .collect();
                let first = at as usize % bounds.len();
                let range = bounds[first]..bounds[(first + cut).min(bounds.len() - 1)];
                let insert = match PIECES.get(piece) {
                    Some(p) => p.to_string(),
                    None => char::from_u32(at % 0x11_0000)
                        .unwrap_or('\u{fffd}')
                        .to_string(),
                };
                line.replace_range(range, &insert);
            }
            line
        })
    }

    /// A parsed request renders back to a line that parses to it again.
    fn check_round_trip(line: &str) -> TestCaseResult {
        if let Ok(request) = Request::parse(line) {
            let again = request.to_json().to_string();
            prop_assert_eq!(Request::parse(&again), Ok(request), "{}", line);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Any line gets `Ok` or `Err`, never a panic.
        #[test]
        fn arbitrary_lines_parse_or_fail_cleanly(line in arb_line()) {
            check_round_trip(&line)?;
        }

        /// So does any object over the request keys, whatever they hold.
        #[test]
        fn arbitrary_request_objects_parse_or_fail_cleanly(object in arb_object()) {
            check_round_trip(&object.to_string())?;
        }
    }

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::Mutate {
                mutation: Mutation::EdgeUp { a: 0, b: 5 },
                tag: None,
            },
            Request::Mutate {
                mutation: Mutation::NodeJoin {
                    v: 3,
                    attach: vec![1, 2],
                },
                tag: Some("t1".into()),
            },
            Request::Mutate {
                mutation: Mutation::NodeLeave { v: 9 },
                tag: None,
            },
            Request::Query {
                query: QueryKind::Membership(Some(4)),
                tag: None,
            },
            Request::Query {
                query: QueryKind::Membership(None),
                tag: Some("all".into()),
            },
            Request::Query {
                query: QueryKind::Status,
                tag: None,
            },
            Request::Query {
                query: QueryKind::Telemetry,
                tag: None,
            },
            Request::Shutdown { tag: None },
        ];
        for req in reqs {
            let line = req.to_json().to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn tags_with_escapes_survive_the_wire() {
        // The correlation tag is the field that carries arbitrary client
        // strings; quotes, backslashes, newlines and non-ASCII must survive
        // a full render→parse cycle.
        let tag = "q\"uote\\back\nnew\tline é😀";
        let req = Request::Query {
            query: QueryKind::Census,
            tag: Some(tag.into()),
        };
        let line = req.to_json().to_string();
        assert!(!line.contains('\n'), "escaped newline keeps it one line");
        match Request::parse(&line).unwrap() {
            Request::Query { tag: Some(t), .. } => assert_eq!(t, tag),
            other => panic!("unexpected parse: {other:?}"),
        }
        let resp = resp_err("bad \"thing\"", Some(tag)).to_string();
        let back = Json::parse(&resp).unwrap();
        assert_eq!(back.get("tag").and_then(Json::as_str), Some(tag));
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "json error"),
            ("{}", "missing string field `op`"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"mutate"}"#, "missing string field `kind`"),
            (r#"{"op":"mutate","kind":"edge-up","a":1}"#, "missing field"),
            (
                r#"{"op":"mutate","kind":"edge-up","a":-1,"b":2}"#,
                "field `a`",
            ),
            (r#"{"op":"query","what":"huh"}"#, "unknown query"),
            (r#"{"op":"query"}"#, "missing string field `what`"),
            (r#"{"op":"shutdown","tag":7}"#, "`tag` must be a string"),
            (
                r#"{"op":"mutate","kind":"node-join","v":1,"attach":"x"}"#,
                "`attach` must be an array",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
