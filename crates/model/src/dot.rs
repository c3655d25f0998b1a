//! Graphviz DOT export for task graphs and placements.
//!
//! Feed the returned strings to `dot -Tsvg` to visualize an
//! application's DAG or — most usefully — a finished placement: the
//! computing network with hosts carrying the CTs placed on them and
//! every TT route drawn along its links.
//!
//! Names are escaped, so arbitrary user-provided names are safe.

use crate::ids::CtId;
use crate::network::Network;
use crate::placement::Placement;
use crate::taskgraph::TaskGraph;
use std::fmt::Write as _;

/// Escapes a string for use inside a DOT double-quoted id.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a task graph as a DOT digraph: CTs as nodes (sources and
/// sinks shaded), TTs as labeled edges.
///
/// # Examples
///
/// ```
/// # use sparcle_model::{TaskGraphBuilder, ResourceVec, dot::task_graph_dot};
/// # fn main() -> Result<(), sparcle_model::ModelError> {
/// let mut b = TaskGraphBuilder::new();
/// let s = b.add_ct("src", ResourceVec::new());
/// let t = b.add_ct("sink", ResourceVec::new());
/// b.add_tt("flow", s, t, 42.0)?;
/// let dot = task_graph_dot(&b.build()?);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("\"src\" -> \"sink\""));
/// # Ok(())
/// # }
/// ```
pub fn task_graph_dot(graph: &TaskGraph) -> String {
    let mut out = String::new();
    writeln!(out, "digraph \"{}\" {{", escape(graph.name())).expect("string write");
    out.push_str("  rankdir=LR;\n  node [shape=box];\n");
    for ct in graph.ct_ids() {
        let c = graph.ct(ct);
        let shape = if graph.in_edges(ct).is_empty() || graph.out_edges(ct).is_empty() {
            " style=filled fillcolor=lightgray"
        } else {
            ""
        };
        writeln!(
            out,
            "  \"{}\" [label=\"{}\\n{}\"{shape}];",
            escape(c.name()),
            escape(c.name()),
            c.requirement()
        )
        .expect("string write");
    }
    for tt in graph.tt_ids() {
        let t = graph.tt(tt);
        writeln!(
            out,
            "  \"{}\" -> \"{}\" [label=\"{} ({})\"];",
            escape(graph.ct(t.from()).name()),
            escape(graph.ct(t.to()).name()),
            escape(t.name()),
            t.bits_per_unit()
        )
        .expect("string write");
    }
    out.push_str("}\n");
    out
}

/// Renders a placement: the network with each NCP annotated by the CTs
/// it hosts, and each TT's route listed on the links it crosses.
///
/// # Panics
///
/// Panics if the placement is incomplete.
pub fn placement_dot(graph: &TaskGraph, network: &Network, placement: &Placement) -> String {
    assert!(placement.is_complete(), "placement must be complete");
    let mut hosted: Vec<Vec<CtId>> = vec![Vec::new(); network.ncp_count()];
    for (ct, host) in placement.placed_cts() {
        hosted[host.index()].push(ct);
    }
    let mut link_labels: Vec<Vec<String>> = vec![Vec::new(); network.link_count()];
    for (tt, route) in placement.routed_tts() {
        for &link in route {
            link_labels[link.index()].push(graph.tt(tt).name().to_owned());
        }
    }
    let mut out = String::new();
    writeln!(out, "graph \"placement\" {{").expect("string write");
    out.push_str("  node [shape=record];\n");
    for id in network.ncp_ids() {
        let ncp = network.ncp(id);
        let tasks: Vec<String> = hosted[id.index()]
            .iter()
            .map(|&ct| escape(graph.ct(ct).name()))
            .collect();
        writeln!(
            out,
            "  \"{}\" [label=\"{{{}|{}}}\"];",
            escape(ncp.name()),
            escape(ncp.name()),
            if tasks.is_empty() {
                "-".to_owned()
            } else {
                tasks.join("\\n")
            }
        )
        .expect("string write");
    }
    for id in network.link_ids() {
        let link = network.link(id);
        let label = if link_labels[id.index()].is_empty() {
            String::new()
        } else {
            link_labels[id.index()]
                .iter()
                .map(|l| escape(l))
                .collect::<Vec<_>>()
                .join(", ")
        };
        writeln!(
            out,
            "  \"{}\" -- \"{}\" [label=\"{label}\"];",
            escape(network.ncp(link.a()).name()),
            escape(network.ncp(link.b()).name()),
        )
        .expect("string write");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::resources::ResourceVec;
    use crate::taskgraph::TaskGraphBuilder;

    fn fixture() -> (TaskGraph, Network, Placement) {
        let mut tb = TaskGraphBuilder::new();
        tb.name("app");
        let s = tb.add_ct("src", ResourceVec::new());
        let w = tb.add_ct("work", ResourceVec::cpu(5.0));
        let t = tb.add_ct("out", ResourceVec::new());
        tb.add_tt("in", s, w, 3.0).unwrap();
        tb.add_tt("res", w, t, 1.0).unwrap();
        let graph = tb.build().unwrap();
        let mut nb = NetworkBuilder::new();
        nb.name("net");
        let a = nb.add_ncp("alpha", ResourceVec::cpu(10.0));
        let b = nb.add_ncp("beta", ResourceVec::cpu(20.0));
        nb.add_link("wire", a, b, 7.0).unwrap();
        let net = nb.build().unwrap();
        let mut p = Placement::empty(&graph);
        p.place_ct(s, a);
        p.place_ct(w, b);
        p.place_ct(t, a);
        p.route_tt(crate::ids::TtId::new(0), vec![crate::ids::LinkId::new(0)]);
        p.route_tt(crate::ids::TtId::new(1), vec![crate::ids::LinkId::new(0)]);
        (graph, net, p)
    }

    #[test]
    fn task_graph_dot_structure() {
        let (graph, _, _) = fixture();
        let dot = task_graph_dot(&graph);
        assert!(dot.starts_with("digraph \"app\""));
        assert!(dot.contains("\"src\" -> \"work\" [label=\"in (3)\"]"));
        assert!(dot.contains("\"work\" -> \"out\" [label=\"res (1)\"]"));
        // Source/sink shaded, inner CT not.
        assert_eq!(dot.matches("fillcolor=lightgray").count(), 2);
    }

    #[test]
    fn placement_dot_annotates_hosts_and_routes() {
        let (graph, net, p) = fixture();
        let dot = placement_dot(&graph, &net, &p);
        assert!(dot.contains("{alpha|src\\nout}"), "{dot}");
        assert!(dot.contains("{beta|work}"), "{dot}");
        assert!(dot.contains("label=\"in, res\""), "{dot}");
    }

    #[test]
    fn names_are_escaped() {
        let mut tb = TaskGraphBuilder::new();
        tb.name("a\"b");
        let s = tb.add_ct("s\"rc", ResourceVec::new());
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("e", s, t, 1.0).unwrap();
        let dot = task_graph_dot(&tb.build().unwrap());
        assert!(dot.contains("digraph \"a\\\"b\""));
        assert!(dot.contains("\"s\\\"rc\""));
    }
}
