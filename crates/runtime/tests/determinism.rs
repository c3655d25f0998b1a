//! The runtime determinism contract: the same seeds produce a
//! byte-identical `runtime_*` telemetry event log — across repeated
//! runs and across γ-evaluator thread counts — and every emitted event
//! passes the trace schema validator.

use sparcle_core::telemetry::schema::validate_line;
use sparcle_core::telemetry::CollectRecorder;
use sparcle_core::TraceHandle;
use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_runtime::{
    AlertRules, FluctuationConfig, MonitorConfig, ReconcilePolicy, RuntimeConfig, SparcleRuntime,
};
use sparcle_sim::FluctuationModel;
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::ArrivalTrace;

fn two_route_network() -> Network {
    let mut b = NetworkBuilder::new();
    let src = b.add_ncp("src-host", ResourceVec::cpu(10.0));
    let hub = b.add_ncp("hub", ResourceVec::cpu(1000.0));
    let sink = b.add_ncp("sink-host", ResourceVec::cpu(10.0));
    let alt = b.add_ncp("alt", ResourceVec::cpu(800.0));
    b.add_link_full("l0", src, hub, 1e4, LinkDirection::Undirected, 0.15)
        .unwrap();
    b.add_link_full("l1", hub, sink, 1e4, LinkDirection::Undirected, 0.15)
        .unwrap();
    b.add_link("l2", src, alt, 1e4).unwrap();
    b.add_link("l3", alt, sink, 1e4).unwrap();
    b.build().unwrap()
}

fn app_source(index: u64) -> Application {
    let graph = linear_task_graph(&[50.0], &[1000.0, 500.0]).unwrap();
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let qoe = if index.is_multiple_of(3) {
        QoeClass::guaranteed_rate(2.0, 0.5)
    } else {
        QoeClass::best_effort(1.0 + (index % 4) as f64)
    };
    Application::new(graph, qoe, [(src, NcpId::new(0)), (sink, NcpId::new(2))]).unwrap()
}

/// Runs a busy churn timeline and serializes every telemetry event,
/// one JSON line per event.
fn rendered_log(threads: usize) -> String {
    rendered_log_with(threads, None)
}

/// Same timeline with the observability monitor enabled; only the
/// `monitor_*` lines are kept.
fn monitor_log(threads: usize) -> String {
    let monitor = MonitorConfig {
        period: 5.0,
        slots: 4,
        // A tight SLO budget so the flaky-link violations push the burn
        // rate over threshold — the alert path must be exercised too.
        rules: AlertRules {
            slo_violation_budget: 0.005,
            ..AlertRules::default()
        },
        metrics_out: None,
    };
    rendered_log_with(threads, Some(monitor))
        .lines()
        .filter(|l| l.contains("\"type\":\"monitor_"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn rendered_log_with(threads: usize, monitor: Option<MonitorConfig>) -> String {
    let mut config = RuntimeConfig {
        horizon: 60.0,
        failure_seed: 11,
        hold_seed: 7,
        mean_hold: 12.0,
        policy: ReconcilePolicy::GammaImpact,
        fluctuation: Some(FluctuationConfig {
            model: FluctuationModel {
                floor: 0.5,
                step: 0.1,
                seed: 5,
            },
            period: 4.0,
        }),
        ..RuntimeConfig::default()
    };
    config.system.assigner_threads = threads;
    config.monitor = monitor;
    let arrivals = ArrivalTrace::Poisson { rate: 0.8 }.events(config.horizon, 42);
    let mut rt = SparcleRuntime::new(two_route_network(), arrivals, app_source, config);
    let recorder = CollectRecorder::new();
    rt.run_traced(TraceHandle::new(&recorder));
    recorder.render_trace()
}

#[test]
fn event_log_is_byte_identical_across_thread_counts() {
    let single = rendered_log(1);
    assert!(
        single.contains("runtime_arrival") && single.contains("runtime_element_state"),
        "the timeline should exercise arrivals and element churn"
    );
    assert_eq!(single, rendered_log(1), "repeat run diverged");
    assert_eq!(single, rendered_log(8), "thread count changed the log");
}

#[test]
fn monitor_stream_is_byte_identical_across_thread_counts() {
    let single = monitor_log(1);
    assert!(
        single.contains("\"type\":\"monitor_snapshot\""),
        "snapshots must be emitted:\n{single}"
    );
    assert!(
        single.contains("\"type\":\"monitor_alert\""),
        "the tight SLO budget must trip the burn-rate alert:\n{single}"
    );
    assert_eq!(single, monitor_log(1), "repeat run diverged");
    assert_eq!(single, monitor_log(2), "2 threads changed the stream");
    assert_eq!(single, monitor_log(8), "8 threads changed the stream");
}

#[test]
fn every_monitor_event_passes_the_schema() {
    let log = monitor_log(2);
    let mut kinds = std::collections::BTreeSet::new();
    for line in log.lines() {
        kinds.insert(validate_line(line).expect("schema-valid event"));
    }
    assert!(kinds.contains("monitor_snapshot"));
    assert!(kinds.contains("monitor_alert"));
}

#[test]
fn every_runtime_event_passes_the_schema() {
    let log = rendered_log(2);
    let mut kinds = std::collections::BTreeSet::new();
    for line in log.lines() {
        let kind = validate_line(line).expect("schema-valid event");
        kinds.insert(kind);
    }
    assert!(kinds.contains("runtime_arrival"));
    assert!(kinds.contains("runtime_departure"));
    assert!(kinds.contains("runtime_element_state"));
    assert!(kinds.contains("runtime_fluctuation"));
    assert!(kinds.contains("runtime_reconcile"));
}
