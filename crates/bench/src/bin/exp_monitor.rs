//! Observability-plane demo: watch one churn run through the monitor.
//!
//! Drives a calm and a stormy flash-crowd timeline over the same
//! edge/hub network with the runtime monitor enabled, then prints what
//! the observability plane saw: ticks, alert edges, the rules still
//! firing at the horizon, and the underlying SLO ledger numbers. This
//! is the smallest end-to-end exercise of DESIGN.md §12 — pair it with
//!
//! ```sh
//! cargo run --release -p sparcle-bench --bin exp_monitor -- \
//!     --trace-out monitor.jsonl --metrics-out metrics.prom
//! cargo run --release -p sparcle-trace-tools --bin sparcle-trace -- \
//!     report monitor.jsonl
//! ```
//!
//! to get the snapshot table + alert timeline, and a Prometheus-style
//! exposition of the final gauges and counters.

use std::path::{Path, PathBuf};

use sparcle_bench::Table;
use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_runtime::{AlertRules, MonitorConfig, ReconcilePolicy, RuntimeConfig, SparcleRuntime};
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::ArrivalTrace;

/// Four edge hosts and two hubs; fast links are the flaky ones.
fn demo_network(flaky: f64) -> Network {
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

/// Every third arrival is Guaranteed-Rate; endpoints walk the edges.
fn demo_app(index: u64) -> Application {
    let graph = linear_task_graph(&[50.0], &[1100.0, 500.0]).expect("valid graph");
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

/// Same workload-tuned detector set as `exp_churn`.
fn monitor_config(metrics_out: Option<PathBuf>) -> MonitorConfig {
    MonitorConfig {
        period: 5.0,
        slots: 6,
        rules: AlertRules {
            slo_violation_budget: 0.4,
            ..AlertRules::default()
        },
        metrics_out,
    }
}

fn main() {
    let harness = sparcle_bench::ExpHarness::new("exp_monitor");
    let horizon = 150.0;
    let trace = ArrivalTrace::FlashCrowd {
        rate: 0.8,
        burst_rate: 4.0,
        burst_start: 60.0,
        burst_end: 80.0,
    };
    let regimes = [("calm", 0.02), ("stormy", 0.10)];

    let mut table = Table::new([
        "regime",
        "ticks",
        "alert_edges",
        "firing_at_end",
        "gr_viol_s",
        "be_integral",
        "events",
    ]);
    let mut total_edges = 0u64;
    for (name, flaky) in &regimes {
        let config = RuntimeConfig {
            horizon,
            failure_seed: 0xc0de,
            hold_seed: 0x601d,
            mean_hold: 25.0,
            policy: ReconcilePolicy::GammaImpact,
            monitor: Some(monitor_config(harness.metrics_out().map(Path::to_path_buf))),
            ..RuntimeConfig::default()
        };
        let arrivals = trace.events(horizon, 0xa11);
        let mut rt = SparcleRuntime::new(demo_network(*flaky), arrivals, demo_app, config);
        let ledger = rt.run_traced(harness.trace()).clone();
        let monitor = rt.monitor().expect("monitor was configured");
        let firing = monitor.firing();
        total_edges += monitor.alerts_total();
        harness
            .trace()
            .counter("exp_monitor.alert_edges", monitor.alerts_total());
        table.row([
            (*name).to_owned(),
            monitor.ticks().to_string(),
            monitor.alerts_total().to_string(),
            if firing.is_empty() {
                "-".to_owned()
            } else {
                firing.join(",")
            },
            format!("{:.2}", ledger.total_gr_violation_seconds()),
            format!("{:.0}", ledger.be_rate_integral()),
            rt.events_processed().to_string(),
        ]);
    }

    println!("{}", table.render());
    println!(
        "observability plane saw {total_edges} alert edge(s) across {} regimes",
        regimes.len()
    );
    let csv = table.write_csv("exp_monitor");
    println!("wrote {}", csv.display());
    harness.finish();
}
