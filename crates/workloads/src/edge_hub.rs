//! The edge/hub fixture of the online experiments.
//!
//! Four edge hosts, two compute hubs. Every edge host reaches the fast
//! hub over a flaky link and the slower hub over a more reliable one, so
//! element failures displace applications without ever partitioning
//! them, and failures strand applications on the slow hub — the
//! fragmentation the defragmenter exists to repair. The churn runtime,
//! the defragmenter, the admission service and the behaviour baselines
//! all replay their timelines over it, with one of two deterministic
//! per-index application mixes.

use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};

use crate::graphs::linear_task_graph;

/// The edge/hub network: fast-hub links fail with probability `flaky`,
/// slow-hub links with `flaky / 4`.
///
/// # Panics
///
/// Panics if `flaky` is not a valid failure probability.
pub fn network(flaky: f64) -> Network {
    let mut b = NetworkBuilder::new();
    let edges: Vec<NcpId> = (0..4)
        .map(|i| b.add_ncp(format!("edge{i}"), ResourceVec::cpu(20.0)))
        .collect();
    let fast = b.add_ncp("hub-fast", ResourceVec::cpu(2000.0));
    let slow = b.add_ncp("hub-slow", ResourceVec::cpu(1500.0));
    for (i, &e) in edges.iter().enumerate() {
        b.add_link_full(
            format!("fast{i}"),
            e,
            fast,
            2e4,
            LinkDirection::Undirected,
            flaky,
        )
        .expect("valid link");
        b.add_link_full(
            format!("slow{i}"),
            e,
            slow,
            8e3,
            LinkDirection::Undirected,
            flaky / 4.0,
        )
        .expect("valid link");
    }
    b.build().expect("valid network")
}

/// The churn mix: one- and two-stage pipelines alternate, every third
/// arrival is Guaranteed-Rate, Best-Effort priorities cycle 1..=4 and
/// endpoints walk around the edge hosts.
pub fn churn_app(index: u64) -> Application {
    let graph = if index.is_multiple_of(2) {
        linear_task_graph(&[60.0], &[1200.0, 600.0])
    } else {
        linear_task_graph(&[40.0, 40.0], &[1000.0, 800.0, 400.0])
    }
    .expect("valid graph");
    edge_app(graph, index)
}

/// The service mix: every request is the same one-stage pipeline, with
/// the churn mix's QoE classes and endpoints.
pub fn service_app(index: u64) -> Application {
    let graph = linear_task_graph(&[50.0], &[1100.0, 500.0]).expect("valid graph");
    edge_app(graph, index)
}

fn edge_app(graph: sparcle_model::TaskGraph, index: u64) -> Application {
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let qoe = if index.is_multiple_of(3) {
        QoeClass::guaranteed_rate(1.5, 0.5)
    } else {
        QoeClass::best_effort(1.0 + (index % 4) as f64)
    };
    let src_host = NcpId::new((index % 4) as u32);
    let sink_host = NcpId::new(((index + 1) % 4) as u32);
    Application::new(graph, qoe, [(src, src_host), (sink, sink_host)]).expect("valid app")
}
