//! Protocol-specific query surfaces.
//!
//! The service core is generic over [`Protocol`]; what "membership" and
//! "census" *mean* differs per overlay structure (matched/partner for SMM,
//! in-set for SMI). [`OverlayProtocol`] is that seam: each paper protocol
//! answers its own queries as JSON fragments the daemon splices into
//! responses.

use selfstab_core::smm::types::{NodeType, TypeCensus};
use selfstab_core::{Pointer, Smi, Smm};
use selfstab_engine::protocol::{Protocol, WireState};
use selfstab_graph::{Graph, Node};
use selfstab_json::{Json, ToJson};

/// A [`Protocol`] that can answer the service's query vocabulary.
///
/// The state must be [`WireState`]-encodable because snapshots
/// (`selfstab-snapshot/v1`) store each node's state in the wire encoding;
/// both paper protocols already are.
pub trait OverlayProtocol: Protocol<State: WireState> {
    /// Short protocol name for status lines (`"smm"`, `"smi"`).
    fn name(&self) -> &'static str;

    /// Membership facts about one node.
    fn membership(&self, graph: &Graph, states: &[Self::State], v: Node) -> Json;

    /// Membership facts about the whole structure.
    fn membership_summary(&self, graph: &Graph, states: &[Self::State]) -> Json;

    /// The protocol-level census (paper Fig. 2 classes for SMM; set size
    /// for SMI).
    fn census(&self, graph: &Graph, states: &[Self::State]) -> Json;
}

impl OverlayProtocol for Smm {
    fn name(&self) -> &'static str {
        "smm"
    }

    fn membership(&self, graph: &Graph, states: &[Pointer], v: Node) -> Json {
        let matched = Smm::matched_nodes(graph, states);
        let partner = match states[v.index()].0 {
            Some(p) if matched[v.index()] => Some(p.index()),
            _ => None,
        };
        Json::obj([
            ("node", v.index().to_json()),
            ("matched", matched[v.index()].to_json()),
            ("partner", partner.to_json()),
        ])
    }

    fn membership_summary(&self, graph: &Graph, states: &[Pointer]) -> Json {
        let edges: Vec<Json> = Smm::matched_edges(graph, states)
            .into_iter()
            .map(|e| Json::Array(vec![e.a.index().to_json(), e.b.index().to_json()]))
            .collect();
        Json::obj([
            ("matched_pairs", edges.len().to_json()),
            ("edges", Json::Array(edges)),
        ])
    }

    fn census(&self, graph: &Graph, states: &[Pointer]) -> Json {
        let census = TypeCensus::of(graph, states);
        let mut fields: Vec<(String, Json)> = NodeType::ALL
            .iter()
            .map(|t| (t.name().to_string(), census.count(*t).to_json()))
            .collect();
        fields.push(("matched_pairs".into(), census.matched_pairs().to_json()));
        Json::Object(fields)
    }
}

impl OverlayProtocol for Smi {
    fn name(&self) -> &'static str {
        "smi"
    }

    fn membership(&self, _graph: &Graph, states: &[bool], v: Node) -> Json {
        Json::obj([
            ("node", v.index().to_json()),
            ("member", states[v.index()].to_json()),
        ])
    }

    fn membership_summary(&self, _graph: &Graph, states: &[bool]) -> Json {
        let members: Vec<Json> = Smi::members(states)
            .into_iter()
            .map(|v| v.index().to_json())
            .collect();
        Json::obj([
            ("set_size", members.len().to_json()),
            ("members", Json::Array(members)),
        ])
    }

    fn census(&self, _graph: &Graph, states: &[bool]) -> Json {
        let inside = states.iter().filter(|&&x| x).count();
        Json::obj([
            ("in_set", inside.to_json()),
            ("out_of_set", (states.len() - inside).to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_engine::{InitialState, SyncExecutor};
    use selfstab_graph::{generators, Ids};

    #[test]
    fn smm_membership_reports_mutual_partners() {
        let g = generators::path(4);
        let smm = Smm::paper(Ids::identity(4));
        let run = SyncExecutor::new(&g, &smm).run(InitialState::Default, 10);
        assert!(run.stabilized());
        let summary = smm.membership_summary(&g, &run.final_states);
        let pairs = summary.get("matched_pairs").and_then(Json::as_u64).unwrap();
        assert_eq!(pairs, 2, "P4 has a perfect matching");
        for v in g.nodes() {
            let m = smm.membership(&g, &run.final_states, v);
            assert_eq!(m.get("matched").and_then(Json::as_bool), Some(true));
            let p = m.get("partner").and_then(Json::as_u64).unwrap() as usize;
            let back = smm.membership(&g, &run.final_states, Node::from(p));
            assert_eq!(
                back.get("partner").and_then(Json::as_u64),
                Some(v.index() as u64),
                "partnership is mutual"
            );
        }
        let census = smm.census(&g, &run.final_states);
        assert_eq!(census.get("M").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn smi_membership_matches_members_list() {
        let g = generators::star(6);
        let smi = Smi::new(Ids::identity(6));
        let run = SyncExecutor::new(&g, &smi).run(InitialState::Default, 10);
        assert!(run.stabilized());
        let summary = smi.membership_summary(&g, &run.final_states);
        let size = summary.get("set_size").and_then(Json::as_u64).unwrap();
        let census = smi.census(&g, &run.final_states);
        assert_eq!(census.get("in_set").and_then(Json::as_u64), Some(size));
        for v in g.nodes() {
            let m = smi.membership(&g, &run.final_states, v);
            assert_eq!(
                m.get("member").and_then(Json::as_bool),
                Some(run.final_states[v.index()]),
            );
        }
    }
}
