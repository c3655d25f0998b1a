//! Audit suite for the incremental system-state core.
//!
//! `SparcleSystem` maintains its derived state (GR residual, BE
//! constraint matrix, priority loads) by **delta**. The contract (see
//! `sparcle_core::state` module docs) is that it stays *bitwise* the
//! full fold over the admitted applications at every transaction
//! boundary; `SystemState::audit` is that contract as code, and every
//! `SystemTxn` commit, rollback and drop `debug_assert!`s it.
//!
//! This suite drives full online runtime histories — three arrival
//! traces × two failure regimes, with capacity fluctuation,
//! displacement, and policy-ordered re-placement all active — so every
//! transactional mutation path crosses the audit thousands of times per
//! run in a build with debug assertions (the default test profile), and
//! audits the final state explicitly in every build.

use sparcle_core::SparcleSystem;
use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_runtime::{
    FluctuationConfig, ReconcilePolicy, RuntimeConfig, SloLedger, SparcleRuntime,
};
use sparcle_sim::FluctuationModel;
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::ArrivalTrace;

/// Four edge hosts and two hubs with flaky hub links — the same shape
/// as the churn experiment, small enough that a full history runs in
/// well under a second.
fn grid_network(flaky: f64) -> Network {
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

/// Deterministic application mix: every third arrival Guaranteed-Rate,
/// BE priorities cycling 1..=4, endpoints walking the edge hosts.
fn grid_app(index: u64) -> Application {
    let graph = if index.is_multiple_of(2) {
        linear_task_graph(&[60.0], &[1200.0, 600.0])
    } else {
        linear_task_graph(&[40.0, 40.0], &[1000.0, 800.0, 400.0])
    }
    .expect("valid graph");
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let qoe = if index.is_multiple_of(3) {
        QoeClass::guaranteed_rate(1.5, 0.5)
    } else {
        QoeClass::best_effort(1.0 + (index % 4) as f64)
    };
    Application::new(
        graph,
        qoe,
        [
            (src, NcpId::new((index % 4) as u32)),
            (sink, NcpId::new(((index + 1) % 4) as u32)),
        ],
    )
    .expect("valid app")
}

/// The trace × regime grid: 3 arrival shapes × calm/stormy failures.
fn grid() -> Vec<(String, ArrivalTrace, f64)> {
    let traces = [
        ("poisson", ArrivalTrace::Poisson { rate: 1.5 }),
        (
            "diurnal",
            ArrivalTrace::Diurnal {
                rate: 1.5,
                depth: 0.8,
                period: 40.0,
            },
        ),
        (
            "flash",
            ArrivalTrace::FlashCrowd {
                rate: 1.0,
                burst_rate: 4.0,
                burst_start: 40.0,
                burst_end: 60.0,
            },
        ),
    ];
    let regimes = [("calm", 0.02), ("stormy", 0.10)];
    let mut out = Vec::new();
    for (tn, trace) in &traces {
        for (rn, flaky) in &regimes {
            out.push((format!("{tn}/{rn}"), *trace, *flaky));
        }
    }
    out
}

/// One full runtime history: its ledger and the system it leaves.
fn run(trace: &ArrivalTrace, flaky: f64) -> (SloLedger, SparcleSystem) {
    let config = RuntimeConfig {
        horizon: 90.0,
        failure_seed: 0xd1ff,
        hold_seed: 0x7e57,
        mean_hold: 15.0,
        policy: ReconcilePolicy::GammaImpact,
        fluctuation: Some(FluctuationConfig {
            model: FluctuationModel {
                floor: 0.6,
                step: 0.05,
                seed: 9,
            },
            period: 2.0,
        }),
        ..RuntimeConfig::default()
    };
    let arrivals = trace.events(config.horizon, 0x5eed);
    let mut rt = SparcleRuntime::new(grid_network(flaky), arrivals, grid_app, config);
    let ledger = rt.run().clone();
    (ledger, rt.into_system())
}

#[test]
fn full_histories_pass_the_per_transaction_audit() {
    for (label, trace, flaky) in grid() {
        let (ledger, system) = run(&trace, flaky);
        assert_eq!(
            system.state().audit(system.network()),
            Ok(()),
            "{label}: final state left canonical form"
        );

        // Useful histories only: every mutation path must actually run,
        // the delta path included.
        assert!(ledger.arrivals() > 0, "{label}: no arrivals");
        assert!(ledger.displacements() > 0, "{label}: no displacements");
        assert!(
            system.state_stats().residual_element_updates > 0,
            "{label}: the residual was never maintained by delta"
        );
    }
}

/// The γ-probe policy drives rollback-only transactions through the
/// incremental constraint maintenance on every reconcile; each of those
/// rollbacks must land back on canonical state.
#[test]
fn gamma_probe_rollbacks_pass_the_per_transaction_audit() {
    let trace = ArrivalTrace::Poisson { rate: 1.5 };
    let config = RuntimeConfig {
        horizon: 80.0,
        failure_seed: 0xfa11,
        hold_seed: 0x0dd,
        mean_hold: 15.0,
        policy: ReconcilePolicy::GammaProbe,
        ..RuntimeConfig::default()
    };
    let arrivals = trace.events(config.horizon, 0xcafe);
    let mut rt = SparcleRuntime::new(grid_network(0.1), arrivals, grid_app, config);
    rt.run();
    let system = rt.into_system();
    assert!(
        system.state_stats().txn_rollbacks > 0,
        "γ-probe policy never probed"
    );
    assert_eq!(system.state().audit(system.network()), Ok(()));
}
