//! The defrag plane's differential contract (DESIGN.md §15):
//!
//! * **defrag off is free**: a run with `defrag: None` — and even one
//!   with a defragmenter that never ticks — produces the byte-identical
//!   telemetry log and ledger a pre-defrag build produced, across 1, 2,
//!   and 8 γ-evaluator threads;
//! * **probes are invisible**: a defrag pass that commits nothing (the
//!   gain threshold set unreachably high) leaves the system state and
//!   the SLO ledger bit-equal to the defrag-off run — rollback-only
//!   what-if migrations may not perturb anything they touched;
//! * **committed moves are deterministic**: the defrag-on log is itself
//!   byte-identical across thread counts, and every `runtime_migrate`
//!   line passes the trace schema;
//! * a **property test** drives random churny systems through
//!   `SystemTxn::migrate` + rollback and asserts the state snapshot
//!   never moves — the transactional core's bitwise-rollback guarantee
//!   extended to the migration primitive.

use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_runtime::{DefragConfig, ReconcilePolicy, RuntimeConfig, SparcleRuntime};
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::ArrivalTrace;

/// The determinism suite's two-route fixture: a flaky hub route and a
/// reliable alternative, so displacements strand apps off their best
/// path — the fragmentation defrag exists to repair.
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

fn config(threads: usize, defrag: Option<DefragConfig>) -> RuntimeConfig {
    let mut config = RuntimeConfig {
        horizon: 60.0,
        failure_seed: 11,
        hold_seed: 7,
        mean_hold: 12.0,
        policy: ReconcilePolicy::GammaImpact,
        defrag,
        ..RuntimeConfig::default()
    };
    config.system.assigner_threads = threads;
    config
}

fn run(threads: usize, defrag: Option<DefragConfig>) -> SparcleRuntime<fn(u64) -> Application> {
    let cfg = config(threads, defrag);
    let arrivals = ArrivalTrace::Poisson { rate: 0.8 }.events(cfg.horizon, 42);
    let mut rt = SparcleRuntime::new(
        two_route_network(),
        arrivals,
        app_source as fn(u64) -> Application,
        cfg,
    );
    rt.run();
    rt
}

/// End-of-run fingerprint of everything the defrag plane could have
/// perturbed: the full ledger, the live index set, and the logical
/// state snapshot (rates, reservations, residuals, placements).
///
/// The snapshot — not the raw state — because [`StateStats`] carries
/// wall-clock solve timings and monotone work counters (probe passes
/// legitimately bump `solves`/`txn_rollbacks`), neither of which is
/// part of the determinism contract.
fn fingerprint(rt: &SparcleRuntime<fn(u64) -> Application>) -> String {
    format!(
        "{:?}\n{:?}\n{:?}",
        rt.ledger(),
        rt.live_indices(),
        rt.system().snapshot(),
    )
}

#[test]
fn defrag_off_ledger_is_identical_across_threads() {
    let base = fingerprint(&run(1, None));
    assert_eq!(base, fingerprint(&run(2, None)), "2 threads diverged");
    assert_eq!(base, fingerprint(&run(8, None)), "8 threads diverged");
}

#[test]
fn probe_only_passes_are_invisible() {
    // An unreachable gain bar: every probe rolls back, nothing commits.
    let probe_only = DefragConfig {
        min_gain: f64::INFINITY,
        ..DefragConfig::default()
    };
    let off = run(1, None);
    let probed = run(1, Some(probe_only));
    let d = probed.defrag().expect("defrag was configured");
    assert!(d.passes() > 0, "the pass gate must have opened");
    assert!(d.probes() > 0, "probes must have run to prove invisibility");
    assert_eq!(d.moves(), 0, "nothing may commit past an infinite bar");
    assert_eq!(
        fingerprint(&off),
        fingerprint(&probed),
        "rollback-only probes perturbed the run"
    );
}

#[test]
fn committed_moves_are_identical_across_threads() {
    let on = |threads| run(threads, Some(DefragConfig::default()));
    let base = on(1);
    assert!(
        base.ledger().migrations() > 0,
        "the fixture must actually migrate for this test to bite"
    );
    let base_fp = fingerprint(&base);
    assert_eq!(base_fp, fingerprint(&on(2)), "2 threads diverged");
    assert_eq!(base_fp, fingerprint(&on(8)), "8 threads diverged");
}

mod telemetry {
    use super::*;
    use sparcle_core::telemetry::schema::validate_line;
    use sparcle_core::telemetry::CollectRecorder;
    use sparcle_core::TraceHandle;

    fn rendered_log(threads: usize, defrag: Option<DefragConfig>) -> String {
        let cfg = config(threads, defrag);
        let arrivals = ArrivalTrace::Poisson { rate: 0.8 }.events(cfg.horizon, 42);
        let mut rt = SparcleRuntime::new(two_route_network(), arrivals, app_source, cfg);
        let recorder = CollectRecorder::new();
        rt.run_traced(TraceHandle::new(&recorder));
        recorder.render_trace()
    }

    #[test]
    fn defrag_off_log_is_bitwise_clean_across_threads() {
        let base = rendered_log(1, None);
        assert!(
            !base.contains("runtime_migrate") && !base.contains("defrag"),
            "defrag-off must leave zero trace of the plane"
        );
        assert_eq!(base, rendered_log(1, None), "repeat run diverged");
        assert_eq!(base, rendered_log(2, None), "2 threads changed the log");
        assert_eq!(base, rendered_log(8, None), "8 threads changed the log");
    }

    #[test]
    fn never_ticking_defrag_is_bitwise_invisible() {
        // Period beyond the horizon: the defragmenter exists but its
        // tick is never scheduled — the log must match defrag-off
        // byte for byte.
        let dormant = DefragConfig {
            period: 1e6,
            ..DefragConfig::default()
        };
        assert_eq!(rendered_log(1, None), rendered_log(1, Some(dormant)));
    }

    #[test]
    fn defrag_on_log_is_bitwise_identical_and_schema_valid() {
        let on = |threads| rendered_log(threads, Some(DefragConfig::default()));
        let base = on(1);
        let migrated: Vec<&str> = base
            .lines()
            .filter(|l| l.contains("\"type\":\"runtime_migrate\""))
            .collect();
        assert!(!migrated.is_empty(), "the fixture must migrate");
        for line in &migrated {
            assert_eq!(
                validate_line(line).expect("schema-valid migrate event"),
                "runtime_migrate"
            );
            assert!(
                line.contains("\"cause\":\"defrag_net_gain\""),
                "migrations carry their cause: {line}"
            );
        }
        assert_eq!(base, on(2), "2 threads changed the log");
        assert_eq!(base, on(8), "8 threads changed the log");
    }
}

mod rollback_invisibility {
    use proptest::prelude::*;
    use sparcle_core::SparcleSystem;
    use sparcle_model::{Application, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec};
    use sparcle_workloads::graphs::linear_task_graph;

    /// A hub-and-alt network with proptest-chosen capacities, so
    /// migration probes see genuinely different γ landscapes per case.
    fn network(hub_cpu: f64, alt_cpu: f64, bw: f64) -> Network {
        let mut b = NetworkBuilder::new();
        let src = b.add_ncp("src", ResourceVec::cpu(10.0));
        let hub = b.add_ncp("hub", ResourceVec::cpu(hub_cpu));
        let sink = b.add_ncp("sink", ResourceVec::cpu(10.0));
        let alt = b.add_ncp("alt", ResourceVec::cpu(alt_cpu));
        b.add_link("l0", src, hub, bw).unwrap();
        b.add_link("l1", hub, sink, bw).unwrap();
        b.add_link("l2", src, alt, bw * 0.8).unwrap();
        b.add_link("l3", alt, sink, bw * 0.8).unwrap();
        b.build().unwrap()
    }

    fn app(index: u64, work: f64) -> Application {
        let graph = linear_task_graph(&[50.0], &[work, work * 0.5]).unwrap();
        let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
        let qoe = if index.is_multiple_of(3) {
            QoeClass::guaranteed_rate(1.0, 0.5)
        } else {
            QoeClass::best_effort(1.0 + (index % 4) as f64)
        };
        Application::new(graph, qoe, [(src, NcpId::new(0)), (sink, NcpId::new(2))]).unwrap()
    }

    proptest! {
        /// A migration transaction that rolls back is invisible: the
        /// state snapshot (rates, reservations, residual, placements)
        /// is bit-equal to before the probe — for every placed app,
        /// whether the what-if move was admitted or not. Work counters
        /// (`solves`, `txn_rollbacks`) advance, by design; they are
        /// stats, not state.
        #[test]
        fn rolled_back_migrations_leave_no_trace(
            hub_cpu in 200.0f64..2000.0,
            alt_cpu in 200.0f64..2000.0,
            bw in 100.0f64..5000.0,
            work in 100.0f64..900.0,
            n_apps in 1usize..6,
        ) {
            let mut sys = SparcleSystem::new(network(hub_cpu, alt_cpu, bw));
            for i in 0..n_apps {
                let _ = sys.submit(app(i as u64, work));
            }
            let ids: Vec<_> = sys
                .be_apps()
                .iter()
                .map(|a| a.id)
                .chain(sys.gr_apps().iter().map(|a| a.id))
                .collect();
            let before_snapshot = sys.snapshot();
            for id in ids {
                let mut txn = sys.begin();
                let outcome = txn.migrate(id);
                prop_assert!(outcome.is_some(), "placed apps are probeable");
                txn.rollback();
                prop_assert_eq!(&sys.snapshot(), &before_snapshot);
            }
        }
    }
}
