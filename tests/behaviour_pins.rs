//! Four machine-independent behaviour pins, each a compact cut of the
//! experiment it is named after, asserted to the exact value.
//!
//! Every number here is sim-time or a counter, so by the determinism
//! contract it repeats to the last bit on every machine and build
//! profile. A change that moves one is a behaviour change: either it is
//! a regression, or it is deliberate and edits the constant here with
//! the diff explained. Wall-clock budgets live elsewhere, as ignored
//! release-only tests (`crates/bench/tests/span_overhead.rs`), and
//! absolute timings only in `benchmark/`.

use sparcle::core::{DynamicRankingAssigner, StateStats, TraceHandle};
use sparcle::model::QoeClass;
use sparcle::runtime::{
    DefragConfig, FluctuationConfig, ReconcilePolicy, RuntimeConfig, SparcleRuntime,
};
use sparcle::service::{AdmissionService, ServiceConfig};
use sparcle::sim::{
    simulate_flows_traced, ArrivalProcess, FlowSimConfig, FluctuationModel, SimApp,
};
use sparcle::workloads::edge_hub::{churn_app, network};
use sparcle::workloads::face_detection::{face_detection_app, testbed_network};
use sparcle::workloads::{ArrivalTrace, RequestStream};
use sparcle_telemetry::{CollectRecorder, Event};

/// Newton steps and warm-started BE solves over a system's lifetime.
fn warm_iters(stats: &StateStats) -> (u64, u64) {
    (stats.inner_iters_warm, stats.warm_solves)
}

/// Figure-6 cut: one long saturating flow simulation of SPARCLE's
/// 0.5 Mbps testbed placement; its peak event-queue depth pins the DES.
#[test]
fn fig6_placement() {
    let app = face_detection_app(QoeClass::best_effort(1.0)).expect("valid workload");
    let network = testbed_network(0.5);
    let placed = DynamicRankingAssigner::new()
        .assign(&app, &network, &network.capacity_map())
        .expect("sparcle places at 0.5 Mbps");
    let rate = 0.9 * placed.rate;
    let recorder = CollectRecorder::new();
    simulate_flows_traced(
        &network,
        &[SimApp {
            graph: app.graph(),
            placement: &placed.placement,
            rate,
        }],
        &FlowSimConfig {
            duration: 12_000.0 / rate.max(1e-3),
            warmup: 600.0 / rate.max(1e-3),
            arrivals: ArrivalProcess::Poisson { seed: 7 },
        },
        TraceHandle::new(&recorder),
    );
    let peak_queue_depth = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::SimQueueDepth { depth, .. } => Some(*depth),
            _ => None,
        })
        .max();
    assert_eq!(peak_queue_depth, Some(27));
}

/// Incremental-state solver cut: the `churn` experiment's determinism
/// timeline (high-rate Poisson arrivals, flaky links, fast capacity
/// fluctuation). Newton steps per warm solve pin the dual phase's warm
/// start from the last prices.
#[test]
fn churn_solver() {
    let config = RuntimeConfig {
        horizon: 600.0,
        failure_seed: 0xfa17,
        hold_seed: 0x401d,
        mean_hold: 20.0,
        policy: ReconcilePolicy::GammaImpact,
        fluctuation: Some(FluctuationConfig {
            model: FluctuationModel {
                floor: 0.6,
                step: 0.05,
                seed: 9,
            },
            period: 0.4,
        }),
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 10.0 }.events(config.horizon, 0xbeef);
    let mut rt = SparcleRuntime::new(network(0.08), arrivals, churn_app, config);
    rt.run();
    let (iters, solves) = warm_iters(rt.system().state_stats());
    assert_eq!((iters, solves), (23_730, 4_785));
    assert_eq!(iters as f64 / solves as f64, 4.959247648902822);
}

/// Admission-service cut: a flash-crowd request stream (every 8th
/// request a snapshot probe) through the micro-batched service over the
/// churn network. The p99 decision latency is in sim time, so it pins
/// the batching and backpressure policy.
#[test]
fn service_admission() {
    let config = ServiceConfig {
        batch_window: 0.5,
        max_batch: 64,
        queue_capacity: 128,
        max_defer_windows: 4,
        ..ServiceConfig::default()
    };
    let requests = RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 2.0,
            burst_rate: 40.0,
            burst_start: 60.0,
            burst_end: 120.0,
        },
        180.0,
        0x5eed,
    )
    .with_probe_every(8);
    let mut service = AdmissionService::new(network(0.05), config, churn_app);
    service.run(requests);
    let (iters, solves) = warm_iters(service.system().state_stats());
    assert_eq!((iters, solves), (328, 60));
    assert_eq!(iters as f64 / solves as f64, 5.466666666666667);
    assert_eq!(
        1000.0 * service.decision_wait_quantile(0.99),
        494.04178376576624
    );
}

/// The BE delivered-work integral of the `defrag` experiment's churn
/// timeline at the stormier 0.08 flake rate.
fn churn_defrag_delivered(defrag: bool) -> f64 {
    let config = RuntimeConfig {
        horizon: 300.0,
        failure_seed: 0xc0de,
        hold_seed: 0x601d,
        mean_hold: 25.0,
        policy: ReconcilePolicy::Fifo,
        defrag: defrag.then(DefragConfig::default),
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 1.2 }.events(config.horizon, 0xa11);
    let mut rt = SparcleRuntime::new(network(0.08), arrivals, churn_app, config);
    rt.run().be_rate_integral()
}

/// Defrag-plane cut: delivered work with the background re-optimizer
/// on over off, at the default migration budget.
#[test]
fn churn_defrag() {
    let uplift = churn_defrag_delivered(true) / churn_defrag_delivered(false);
    assert_eq!(uplift, 1.091870572504986);
}
