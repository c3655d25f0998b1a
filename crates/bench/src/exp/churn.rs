//! Online runtime experiment: the SLO ledger under churn, per
//! reconcile policy.
//!
//! An edge/hub network with flaky hub links is driven through three
//! arrival traces (Poisson, diurnal, flash crowd) under two failure
//! regimes (calm / stormy) while the online runtime reacts with
//! admission, displacement, and policy-ordered re-placement. For every
//! `trace × regime × policy` cell the SLO ledger reports GR
//! violation-seconds, the BE delivered-work integral, reaction
//! latencies, and placement churn.
//!
//! A final determinism section replays one ≥10 000-event timeline with
//! 1 and 8 γ-evaluator worker threads and asserts the runs are
//! indistinguishable: byte-identical telemetry event logs.
//!
//! Every cell runs with the observability monitor on, so a traced run
//! carries the monitor snapshots and alert edges `sparcle-trace report`
//! renders, and `--metrics-out` tracks the run tick by tick:
//!
//! ```sh
//! cargo run --release -p sparcle-bench --bin sparcle-exp -- churn \
//!     --trace-out churn.jsonl --metrics-out metrics.prom
//! cargo run --release -p sparcle-trace-tools --bin sparcle-trace -- \
//!     report churn.jsonl
//! ```

use std::path::Path;

use crate::{ExpHarness, ParsedFlags, Table};
use sparcle_core::TraceHandle;
use sparcle_runtime::{
    FluctuationConfig, MonitorConfig, ReconcilePolicy, RuntimeConfig, SloLedger, SparcleRuntime,
};
use sparcle_sim::FluctuationModel;
use sparcle_workloads::edge_hub::{churn_app, network};
use sparcle_workloads::ArrivalTrace;

/// Observability-plane configuration every cell runs under: 5 s ticks,
/// a 30 s window, detectors tuned to this workload. Even the calm
/// regime accrues ~0.09 GR violation-seconds per second, so the budget
/// is set to 0.4 viol-s/s — quiet cells stay an order of magnitude
/// below it while the flash-crowd × stormy cells (~0.9 viol-s/s) burn
/// through it.
fn cell_monitor(metrics_out: Option<std::path::PathBuf>) -> MonitorConfig {
    MonitorConfig {
        period: 5.0,
        slots: 6,
        rules: sparcle_runtime::AlertRules {
            slo_violation_budget: 0.4,
            ..sparcle_runtime::AlertRules::default()
        },
        metrics_out,
    }
}

/// Ledger, events processed, and monitor alert edges of one cell.
fn run_cell(
    trace: &ArrivalTrace,
    flaky: f64,
    policy: ReconcilePolicy,
    horizon: f64,
    metrics_out: Option<std::path::PathBuf>,
    sink: TraceHandle<'_>,
) -> (SloLedger, u64, u64) {
    let config = RuntimeConfig {
        horizon,
        failure_seed: 0xc0de,
        hold_seed: 0x601d,
        mean_hold: 25.0,
        policy,
        fluctuation: Some(FluctuationConfig {
            model: FluctuationModel {
                floor: 0.6,
                step: 0.05,
                seed: 9,
            },
            period: 5.0,
        }),
        monitor: Some(cell_monitor(metrics_out)),
        ..RuntimeConfig::default()
    };
    let arrivals = trace.events(horizon, 0xa11);
    let mut rt = SparcleRuntime::new(network(flaky), arrivals, churn_app, config);
    let ledger = rt.run_traced(sink).clone();
    let alerts = rt.monitor().map_or(0, |m| m.alerts_total());
    (ledger, rt.events_processed(), alerts)
}

/// One high-churn timeline with ≥10 000 events; returns the rendered
/// event log (telemetry builds) or the debug-formatted ledger, plus
/// the system's solver/state work counters.
fn determinism_run(threads: usize) -> (String, u64, sparcle_core::StateStats) {
    let mut config = RuntimeConfig {
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
    config.system.assigner_threads = threads;
    // Monitoring runs during the determinism replay too, so the
    // byte-identical assertion covers the monitor_* event stream.
    config.monitor = Some(cell_monitor(None));
    let arrivals = ArrivalTrace::Poisson { rate: 10.0 }.events(config.horizon, 0xbeef);
    let mut rt = SparcleRuntime::new(network(0.08), arrivals, churn_app, config);

    let recorder = sparcle_telemetry::CollectRecorder::new();
    rt.run_traced(sparcle_core::TraceHandle::new(&recorder));
    let log = recorder.render_trace();
    let stats = rt.system().state_stats().clone();
    (log, rt.events_processed(), stats)
}

pub fn run(_: &ParsedFlags, harness: &ExpHarness) {
    let horizon = 150.0;
    let traces = [
        ("poisson", ArrivalTrace::Poisson { rate: 1.2 }),
        (
            "diurnal",
            ArrivalTrace::Diurnal {
                rate: 1.2,
                depth: 0.8,
                period: 50.0,
            },
        ),
        (
            "flash",
            ArrivalTrace::FlashCrowd {
                rate: 0.8,
                burst_rate: 4.0,
                burst_start: 60.0,
                burst_end: 80.0,
            },
        ),
    ];
    let regimes = [("calm", 0.02), ("stormy", 0.10)];
    let policies = [
        ReconcilePolicy::Fifo,
        ReconcilePolicy::Priority,
        ReconcilePolicy::GammaImpact,
    ];

    let mut table = Table::new([
        "trace",
        "regime",
        "policy",
        "arrivals",
        "admitted",
        "displaced",
        "restores",
        "churn",
        "gr_viol_s",
        "be_integral",
        "mean_latency_s",
        "alerts",
        "events",
    ]);

    let mut quiet_alerts = 0u64;
    let mut storm_flash_alerts = 0u64;
    for (trace_name, trace) in &traces {
        for (regime_name, flaky) in &regimes {
            for policy in &policies {
                let (ledger, events, alerts) = run_cell(
                    trace,
                    *flaky,
                    *policy,
                    horizon,
                    harness.metrics_out().map(Path::to_path_buf),
                    harness.trace(),
                );
                harness.trace().counter("exp_churn.cells", 1);
                harness.trace().counter("exp_churn.alert_edges", alerts);
                match (*trace_name, *regime_name) {
                    ("poisson", "calm") => quiet_alerts += alerts,
                    ("flash", "stormy") => storm_flash_alerts += alerts,
                    _ => {}
                }
                table.row([
                    (*trace_name).to_owned(),
                    (*regime_name).to_owned(),
                    policy.label().to_owned(),
                    ledger.arrivals().to_string(),
                    ledger.admitted().to_string(),
                    ledger.displacements().to_string(),
                    ledger.restores().to_string(),
                    ledger.placement_churn().to_string(),
                    format!("{:.2}", ledger.total_gr_violation_seconds()),
                    format!("{:.0}", ledger.be_rate_integral()),
                    format!("{:.3}", ledger.mean_reaction_latency()),
                    alerts.to_string(),
                    events.to_string(),
                ]);
            }
        }
    }
    println!("{}", table.render());

    // Alerting acceptance: the detectors must stay silent on the quiet
    // Poisson × calm cells and catch the flash-crowd × stormy overload.
    assert_eq!(
        quiet_alerts, 0,
        "the quiet poisson/calm cells must not trip any detector"
    );
    assert!(
        storm_flash_alerts >= 1,
        "the flash/stormy cells must trip at least one alert"
    );
    println!("alerting: OK (poisson/calm quiet, flash/stormy fired {storm_flash_alerts} edges)");
    let csv = table.write_csv("exp_churn");
    println!("wrote {}", csv.display());

    // Determinism acceptance check: the same 10k-event timeline must be
    // indistinguishable whether the γ evaluator uses 1 or 8 workers.
    let (log1, events1, stats) = determinism_run(1);
    let (log8, events8, _) = determinism_run(8);
    assert!(
        events1 >= 10_000,
        "determinism timeline too small: {events1} events"
    );
    assert_eq!(events1, events8, "event counts diverged across threads");
    assert_eq!(log1, log8, "runtime event log diverged across threads");
    println!("determinism: OK ({events1} events, 1 vs 8 threads, identical logs)");
    println!(
        "solver: {} solves ({} warm / {} cold), {:.2} warm iters/solve, \
         {:.3} ms/solve, {} element updates, \
         {} commits, {} rollbacks",
        stats.solves,
        stats.warm_solves,
        stats.cold_solves,
        stats.inner_iters_warm as f64 / (stats.warm_solves.max(1)) as f64,
        stats.solve_nanos as f64 / 1e6 / (stats.solves.max(1)) as f64,
        stats.residual_element_updates,
        stats.txn_commits,
        stats.txn_rollbacks,
    );
}
