//! Differential suite for the admission service plane.
//!
//! The service plane promises (see `sparcle_runtime::service` module
//! docs) that micro-batched admission is *decision-equivalent* to
//! sequential admission: the same requests are admitted/rejected, with
//! the same placements and the same post-run GR residual, bit for bit —
//! and the same final BE rates to 1e-9 relative: every solve returns
//! problem (4)'s optimum, so N chained warm solves and one joint batch
//! solve land on the same rates up to the solver's stopping tolerance.
//! This suite holds the service loop to that contract over a pinned
//! flash-crowd stream, and holds its telemetry to the same byte-identity contract
//! the placement engine's trace already obeys: the `service_*` event
//! log must not change with the evaluator thread count.

use sparcle_core::{SparcleSystem, SystemConfig};
use sparcle_model::{NcpId, Network, NetworkBuilder, ResourceVec};
use sparcle_runtime::service::{AdmissionService, ServiceConfig};
use sparcle_workloads::edge_hub::service_app;
use sparcle_workloads::{ArrivalTrace, RequestKind, RequestStream};

/// Four edge hosts behind two hubs — enough capacity contrast that the
/// flash crowd produces both admissions and rejections.
fn service_network() -> Network {
    let mut b = NetworkBuilder::new();
    let edges: Vec<NcpId> = (0..4)
        .map(|i| b.add_ncp(format!("edge{i}"), ResourceVec::cpu(20.0)))
        .collect();
    let fast = b.add_ncp("hub-fast", ResourceVec::cpu(2000.0));
    let slow = b.add_ncp("hub-slow", ResourceVec::cpu(1500.0));
    for (i, &e) in edges.iter().enumerate() {
        b.add_link(format!("fast{i}"), e, fast, 2e4)
            .expect("valid link");
        b.add_link(format!("slow{i}"), e, slow, 8e3)
            .expect("valid link");
    }
    b.build().expect("valid network")
}

/// The pinned flash-crowd stream: steady trickle, 20-second burst, a
/// probe every seventh request.
fn request_stream() -> RequestStream {
    RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 1.0,
            burst_rate: 10.0,
            burst_start: 10.0,
            burst_end: 30.0,
        },
        45.0,
        0x5eed,
    )
    .with_probe_every(7)
}

/// The lossy configs' stream: the same trickle around a half-second
/// burst at 1,000 requests per second, dense enough that requests land
/// inside a batch's counted writer work.
fn burst_stream() -> RequestStream {
    RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 1.0,
            burst_rate: 1000.0,
            burst_start: 10.0,
            burst_end: 10.5,
        },
        45.0,
        0x5eed,
    )
    .with_probe_every(7)
}

/// A config whose writer never exerts backpressure: a window far longer
/// than any batch's counted work and an effectively unbounded
/// queue/batch, so every admit request reaches a batched transaction and
/// the decision sequence is directly comparable to a sequential replay.
fn lossless_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        batch_window: 0.5,
        max_batch: usize::MAX,
        queue_capacity: usize::MAX,
        system: SystemConfig {
            assigner_threads: threads,
        },
        ..ServiceConfig::default()
    }
}

/// The decision contract: batched admission through the service loop
/// admits exactly the applications a sequential `submit` replay admits,
/// with bit-identical placements and GR residual.
#[test]
fn batched_service_matches_sequential_admission_bitwise() {
    let mut service = AdmissionService::new(service_network(), lossless_config(1), service_app);
    service.run(request_stream());

    let mut reference = SparcleSystem::with_config(service_network(), SystemConfig::default());
    let mut ref_admitted = 0u64;
    let mut ref_rejected = 0u64;
    let mut total_admits = 0u64;
    for request in request_stream() {
        if request.kind != RequestKind::Admit {
            continue;
        }
        total_admits += 1;
        match reference
            .submit(service_app(request.index))
            .expect("factory apps are valid")
        {
            sparcle_core::Admission::Admitted(_) => ref_admitted += 1,
            sparcle_core::Admission::Rejected(_) => ref_rejected += 1,
        }
    }
    assert!(total_admits >= 20, "stream too small: {total_admits}");

    let stats = *service.stats();
    assert_eq!(stats.shed, 0, "lossless config must never shed");
    assert_eq!(
        stats.decisions, total_admits,
        "every admit request must get a decision"
    );
    assert_eq!(
        (stats.admitted, stats.rejected),
        (ref_admitted, ref_rejected),
        "batched admission verdict counts diverged from the sequential replay"
    );
    assert!(stats.admitted > 0, "degenerate stream: nothing admitted");
    assert!(stats.probes > 0, "stream must exercise the snapshot reads");

    // Same admitted populations, in the same id order...
    let snap = service.snapshot();
    let ref_snap = reference.snapshot();
    let ids = |s: &sparcle_core::StateSnapshot| -> (Vec<usize>, Vec<usize>) {
        (
            s.be_apps().iter().map(|a| a.id.index()).collect(),
            s.gr_apps().iter().map(|a| a.id.index()).collect(),
        )
    };
    assert_eq!(ids(snap), ids(&ref_snap), "admitted id sequences diverged");
    // ...on the same hosts and routes (the live task assignment paths,
    // standalone rates and GR reservations included)...
    let live = service.system();
    for (a, b) in live.be_apps().iter().zip(reference.be_apps()) {
        assert_eq!(
            a.paths,
            b.paths,
            "placement of app {} diverged",
            a.id.index()
        );
    }
    for (a, b) in live.gr_apps().iter().zip(reference.gr_apps()) {
        assert_eq!(
            a.paths,
            b.paths,
            "placement of app {} diverged",
            a.id.index()
        );
    }
    // ...leaving the same GR reservations behind, bit for bit...
    assert_eq!(
        snap.gr_residual(),
        ref_snap.gr_residual(),
        "GR residual diverged between batched and sequential admission"
    );
    // ...and the same BE rates: both are the optimum of one problem.
    for (a, b) in live.be_apps().iter().zip(reference.be_apps()) {
        let (x, y) = (a.allocated_rate, b.allocated_rate);
        assert!(
            (x - y).abs() <= 1e-9 * y,
            "rate of app {} diverged: batched {x}, sequential {y}",
            a.id.index()
        );
    }
}

/// Replay determinism with a *lossy* config (windows shorter than one
/// batch's counted work, bounded queue): deferrals and sheds are part of the contract too —
/// two runs of the same stream must agree on every counter, every
/// decision wait, and the final snapshot.
#[test]
fn lossy_service_replay_is_deterministic() {
    let run = || {
        let config = ServiceConfig {
            batch_window: 0.00002,
            queue_capacity: 16,
            max_defer_windows: 1,
            ..ServiceConfig::default()
        };
        let mut service = AdmissionService::new(service_network(), config, service_app);
        service.run(burst_stream());
        service
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats(), b.stats(), "run counters diverged on replay");
    assert!(
        a.stats().windows_deferred > 0 && a.stats().shed > 0,
        "config must actually exercise backpressure: {:?}",
        a.stats()
    );
    let bits = |s: &[f64]| -> Vec<u64> { s.iter().map(|w| w.to_bits()).collect() };
    assert_eq!(
        bits(a.decision_waits()),
        bits(b.decision_waits()),
        "decision waits diverged on replay"
    );
    assert_eq!(
        (a.ledger().sheds(), a.ledger().deferrals()),
        (b.ledger().sheds(), b.ledger().deferrals()),
        "ledger backpressure charges diverged on replay"
    );
    assert_eq!(a.snapshot(), b.snapshot(), "final snapshots diverged");
}

/// The service event log obeys the placement engine's byte-identity
/// contract: `service_batch` / `service_decision` / `service_probe` /
/// `monitor_*` lines must be identical whether the γ evaluator fills
/// rows with one worker thread or eight.
#[test]
fn service_logs_byte_identical_across_thread_counts() {
    use sparcle_core::TraceHandle;
    use sparcle_runtime::{AlertRules, MonitorConfig};
    use sparcle_telemetry::{schema, CollectRecorder};

    let run = |threads: usize| -> String {
        let config = ServiceConfig {
            // A ceiling any warm solve exceeds, so the alert half of the
            // monitor emitter the service shares with the churn runtime
            // is exercised too.
            monitor: Some(MonitorConfig {
                rules: AlertRules {
                    warm_iters_ceiling: 1.0,
                    min_solves: 1,
                    ..AlertRules::default()
                },
                ..MonitorConfig::default()
            }),
            batch_window: 0.00002,
            queue_capacity: 16,
            max_defer_windows: 1,
            ..lossless_config(threads)
        };
        let recorder = CollectRecorder::new();
        let mut service = AdmissionService::new(service_network(), config, service_app);
        service.run_traced(burst_stream(), TraceHandle::new(&recorder));
        recorder.render_trace()
    };

    let log_1 = run(1);
    for threads in [2, 8] {
        let log_n = run(threads);
        assert_eq!(
            log_1, log_n,
            "service event log diverged between 1 and {threads} evaluator threads"
        );
    }

    // The shared log must actually carry the plane's events, and every
    // line must satisfy the published trace schema.
    let mut kinds = std::collections::BTreeSet::new();
    for line in log_1.lines() {
        kinds.insert(schema::validate_line(line).unwrap_or_else(|e| {
            panic!("service trace line failed schema validation: {e}\n{line}")
        }));
    }
    for expected in [
        "service_batch",
        "service_decision",
        "service_probe",
        // Backpressure fires, so the work-counted `writer_free` of each
        // deferral is compared across thread counts too.
        "service_defer",
        "monitor_snapshot",
        "monitor_alert",
    ] {
        assert!(kinds.contains(expected), "log carries no {expected} events");
    }
}
