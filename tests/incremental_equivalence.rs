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
use sparcle_runtime::{
    FluctuationConfig, ReconcilePolicy, RuntimeConfig, SloLedger, SparcleRuntime,
};
use sparcle_sim::FluctuationModel;
use sparcle_workloads::edge_hub::{churn_app, network};
use sparcle_workloads::ArrivalTrace;

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
    let mut rt = SparcleRuntime::new(network(flaky), arrivals, churn_app, config);
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
    let mut rt = SparcleRuntime::new(network(0.1), arrivals, churn_app, config);
    rt.run();
    let system = rt.into_system();
    assert!(
        system.state_stats().txn_rollbacks > 0,
        "γ-probe policy never probed"
    );
    assert_eq!(system.state().audit(system.network()), Ok(()));
}
