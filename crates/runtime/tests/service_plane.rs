//! Batch-coalescing edge cases and backpressure behaviour of the
//! admission service plane, plus a property test proving that — with
//! shedding disabled — any interleaving of submissions and probes
//! reaches exactly the sequential-admission end state.

use proptest::collection::vec;
use proptest::prelude::*;
use sparcle_core::SparcleSystem;
use sparcle_model::{
    Application, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
};
use sparcle_runtime::service::{AdmissionService, ServiceConfig};
use sparcle_runtime::MonitorConfig;
use sparcle_workloads::{ArrivalTrace, RequestKind, RequestStream, ServiceRequest};
use std::cell::RefCell;

fn star_network() -> Network {
    let mut nb = NetworkBuilder::new();
    let hub = nb.add_ncp("hub", ResourceVec::cpu(50.0));
    for i in 0..4 {
        let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(100.0));
        nb.add_link(format!("l{i}"), hub, leaf, 500.0).unwrap();
    }
    nb.build().unwrap()
}

fn pipeline_app(qoe: QoeClass, cycles: f64, bits: f64) -> Application {
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("s", ResourceVec::new());
    let w = tb.add_ct("w", ResourceVec::cpu(cycles));
    let t = tb.add_ct("t", ResourceVec::new());
    tb.add_tt("sw", s, w, bits).unwrap();
    tb.add_tt("wt", w, t, bits / 10.0).unwrap();
    let graph = tb.build().unwrap();
    Application::new(graph, qoe, [(s, NcpId::new(0)), (t, NcpId::new(0))]).unwrap()
}

/// The default workload: mostly BE with cycling priorities, every 7th
/// request GR with a small guarantee.
fn mixed_app(index: u64) -> Application {
    if (index + 1).is_multiple_of(7) {
        pipeline_app(QoeClass::guaranteed_rate(0.5, 0.0), 20.0, 50.0)
    } else {
        let priority = 1.0 + (index % 5) as f64;
        pipeline_app(QoeClass::best_effort(priority), 10.0, 50.0)
    }
}

#[test]
fn probe_only_stream_commits_nothing() {
    let config = ServiceConfig::default();
    let mut service = AdmissionService::new(star_network(), config, mixed_app);
    let requests =
        RequestStream::new(ArrivalTrace::Poisson { rate: 2.0 }, 20.0, 11).with_probe_every(1);
    service.run(requests);
    let stats = *service.stats();
    assert!(stats.probes > 10, "probe stream produced {stats:?}");
    assert!(
        stats.probes_feasible > 0,
        "an empty network must be feasible"
    );
    assert_eq!(
        (stats.batches, stats.decisions, stats.admitted, stats.shed),
        (0, 0, 0, 0),
        "probes must never form a batch"
    );
    // Empty windows are a no-op right down to the state core.
    assert_eq!(service.system().state_stats().solves, 0);
    assert!(service.system().be_apps().is_empty());
    assert!(service.snapshot().be_apps().is_empty());
    assert!(service.snapshot().gr_apps().is_empty());
}

#[test]
fn windows_of_one_match_sequential_submission_bitwise() {
    let config = ServiceConfig {
        batch_window: 1.0,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config.clone(), mixed_app);
    // One submission per window: every batch has size 1, which the core
    // guarantees is bitwise identical to a plain `submit`.
    let requests = (0..12).map(|i| ServiceRequest {
        time: i as f64 + 0.5,
        index: i,
        kind: RequestKind::Admit,
    });
    service.run(requests);

    let mut reference = SparcleSystem::with_config(star_network(), config.system);
    for i in 0..12 {
        reference.submit(mixed_app(i)).unwrap();
    }

    assert_eq!(service.stats().decisions, 12);
    assert_eq!(
        service.stats().admitted as usize,
        reference.be_apps().len() + reference.gr_apps().len()
    );
    let service_rates: Vec<(usize, f64)> = service
        .system()
        .be_apps()
        .iter()
        .map(|a| (a.id.index(), a.allocated_rate))
        .collect();
    let reference_rates: Vec<(usize, f64)> = reference
        .be_apps()
        .iter()
        .map(|a| (a.id.index(), a.allocated_rate))
        .collect();
    assert_eq!(
        service_rates, reference_rates,
        "size-1 batches must be bitwise"
    );
    assert_eq!(service.system().gr_residual(), reference.gr_residual());
}

/// Regression: the idle fast-forward used to take `floor(t / w)` as the
/// last closed boundary, but `57.9 / 0.1` is `579.0` while
/// `579 × 0.1 = 57.900000000000006 > 57.9`. A lone request at 57.9 s was
/// then decided at 58.0 s instead of at the boundary just past it.
#[test]
fn idle_fast_forward_stops_before_a_boundary_past_the_request() {
    let config = ServiceConfig {
        batch_window: 0.1,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config, mixed_app);
    service.run([ServiceRequest {
        time: 57.9,
        index: 0,
        kind: RequestKind::Admit,
    }]);
    assert_eq!(service.stats().decisions, 1);
    let wait = service.decision_waits()[0];
    assert!(wait < 1e-9, "decided {wait} s after arrival");
}

/// A request due exactly on a boundary `k × w` arrives after that
/// boundary closes: the close handles the requests already queued, and
/// the tied request waits for the next window, `(k + 1) × w`, in a batch
/// of its own.
#[test]
fn a_request_due_on_a_boundary_joins_the_next_window() {
    use sparcle_core::telemetry::{CollectRecorder, Event};
    use sparcle_core::TraceHandle;

    let config = ServiceConfig {
        batch_window: 0.25,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config, mixed_app);
    // Request 0 queues inside window 2 ([0.5, 0.75)); request 1 is due
    // exactly on that window's closing boundary 3 × 0.25.
    let requests = [(0.625, 0), (0.75, 1)].map(|(time, index)| ServiceRequest {
        time,
        index,
        kind: RequestKind::Admit,
    });
    let recorder = CollectRecorder::new();
    service.run_traced(requests, TraceHandle::new(&recorder));

    assert_eq!(service.stats().batches, 2);
    assert_eq!(service.decision_waits(), &[0.125, 0.25]);
    let events = recorder.events();
    let batches: Vec<(f64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::ServiceBatch {
                time, window, size, ..
            } => Some((*time, *window, *size)),
            _ => None,
        })
        .collect();
    assert_eq!(batches, vec![(0.75, 2, 1), (1.0, 3, 1)]);
    let decided: Vec<(u64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::ServiceDecision { request, time, .. } => Some((*request, *time)),
            _ => None,
        })
        .collect();
    assert_eq!(decided, vec![(0, 0.75), (1, 1.0)]);
}

#[test]
fn flash_crowd_batches_share_solves() {
    let config = ServiceConfig {
        batch_window: 2.0,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config, mixed_app);
    let requests = RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 0.5,
            burst_rate: 10.0,
            burst_start: 4.0,
            burst_end: 12.0,
        },
        16.0,
        23,
    );
    let total: u64 = {
        let all: Vec<_> = requests.clone().collect();
        all.len() as u64
    };
    service.run(requests);
    let stats = *service.stats();
    assert_eq!(stats.decisions + stats.shed, total, "every request decided");
    assert_eq!(stats.shed, 0, "default queue absorbs this crowd");
    assert!(stats.batches < stats.decisions, "windows must coalesce");
    let be_admitted = service.system().be_apps().len() as u64;
    let solves = service.system().state_stats().solves;
    assert!(
        solves < be_admitted,
        "batched admission must solve less than once per admitted BE app \
         (solves {solves}, admitted {be_admitted})"
    );
    assert_eq!(service.ledger().arrivals(), total);
    assert_eq!(service.ledger().admitted(), stats.admitted);
}

#[test]
fn overflow_sheds_lowest_priority_first_and_protects_gr() {
    let config = ServiceConfig {
        batch_window: 10.0,
        queue_capacity: 2,
        ..ServiceConfig::default()
    };
    let factory = |index: u64| match index {
        0 => pipeline_app(QoeClass::best_effort(5.0), 10.0, 50.0),
        1 => pipeline_app(QoeClass::guaranteed_rate(0.5, 0.0), 20.0, 50.0),
        2 => pipeline_app(QoeClass::best_effort(1.0), 10.0, 50.0),
        _ => pipeline_app(QoeClass::best_effort(2.0), 10.0, 50.0),
    };
    let mut service = AdmissionService::new(star_network(), config, factory);
    let requests = (0..4).map(|i| ServiceRequest {
        time: 0.5 + i as f64 * 0.1,
        index: i,
        kind: RequestKind::Admit,
    });
    service.run(requests);
    let stats = *service.stats();
    // Queue of 2: priorities 1.0 then 2.0 are shed on arrival; the
    // priority-5 BE app and the (infinitely ranked) GR app survive.
    assert_eq!(stats.shed, 2);
    assert_eq!(stats.decisions, 2);
    assert_eq!(stats.admitted, 2);
    assert_eq!(service.system().gr_apps().len(), 1, "GR must be protected");
    assert_eq!(service.system().be_apps().len(), 1);
    assert_eq!(service.system().be_apps()[0].priority, 5.0);
    assert_eq!(service.ledger().sheds(), 2);
}

#[test]
fn busy_writer_defers_windows_then_sheds_over_budget() {
    // A 0.5 ms window: the first commit into an empty system runs a
    // cold solve whose counted Newton steps hold the writer for well
    // over two windows.
    let config = ServiceConfig {
        batch_window: 0.0005,
        max_defer_windows: 1,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config, mixed_app);
    // First submission commits at t=0.5 ms and occupies the writer past
    // t=1.5 ms; the second (arriving at 0.75 ms) sees its windows at 1 ms
    // and 1.5 ms deferred, exhausting a budget of one deferral — it is
    // shed.
    let requests = [
        ServiceRequest {
            time: 0.00025,
            index: 0,
            kind: RequestKind::Admit,
        },
        ServiceRequest {
            time: 0.00075,
            index: 1,
            kind: RequestKind::Admit,
        },
    ];
    service.run(requests);
    let stats = *service.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.shed, 1, "over-budget request must be shed");
    assert!(stats.windows_deferred >= 2, "stats: {stats:?}");
    assert_eq!(service.ledger().deferrals(), 2);
    assert_eq!(service.ledger().sheds(), 1);
}

/// A stream fed in slices must not multiply the exported counters:
/// each `run_traced` call exports its own share of the cumulative
/// stats, so the recorder's totals equal `stats()`.
#[test]
fn sliced_stream_exports_each_counter_once() {
    use sparcle_core::telemetry::CollectRecorder;
    use sparcle_core::TraceHandle;

    // Windows shorter than one batch's counted work: backpressure
    // defers and sheds.
    let config = ServiceConfig {
        batch_window: 0.0003,
        queue_capacity: 8,
        max_defer_windows: 1,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config.clone(), mixed_app);
    let requests: Vec<ServiceRequest> =
        RequestStream::new(ArrivalTrace::Poisson { rate: 6000.0 }, 0.02, 11)
            .with_probe_every(5)
            .collect();
    let recorder = CollectRecorder::new();
    let (first, second) = requests.split_at(requests.len() / 2);
    service.run_traced(first.iter().copied(), TraceHandle::new(&recorder));
    service.run_traced(second.iter().copied(), TraceHandle::new(&recorder));

    let stats = *service.stats();
    assert!(
        stats.batches > 1 && stats.shed > 0 && stats.probes > 0,
        "the stream must exercise every counter: {stats:?}"
    );
    assert_eq!(stats.deferrals, service.ledger().deferrals());
    let counters = recorder.snapshot();
    for (name, expected) in stats.counters() {
        assert_eq!(counters.counter(name), expected, "{name}");
    }
    // The window closes run on the runtime's event queue, but the
    // `runtime.*` counters belong to the churn timeline alone.
    let runtime: Vec<&String> = counters
        .counters
        .keys()
        .filter(|name| name.starts_with("runtime."))
        .collect();
    assert!(runtime.is_empty(), "service exported {runtime:?}");

    // The state core's `system.*` counters ride the same rule — and a
    // whole-stream run exports the same totals as the sliced one.
    let mut whole = AdmissionService::new(star_network(), config, mixed_app);
    let whole_recorder = CollectRecorder::new();
    whole.run_traced(requests.iter().copied(), TraceHandle::new(&whole_recorder));
    let whole_counters = whole_recorder.snapshot();
    let system = service.system().state_stats().counters();
    assert!(system.iter().any(|&(_, v)| v > 0), "{system:?}");
    for (name, expected) in system {
        assert_eq!(counters.counter(name), expected, "sliced {name}");
        assert_eq!(whole_counters.counter(name), expected, "whole {name}");
    }
}

/// The service calls its source once per request, probes included, in
/// stream order: never again for a deferred window, a shed request or a
/// batch.
#[test]
fn source_is_called_once_per_request_in_stream_order() {
    // Windows shorter than one batch's counted work: backpressure
    // defers and sheds.
    let config = ServiceConfig {
        batch_window: 0.0003,
        queue_capacity: 8,
        max_defer_windows: 1,
        ..ServiceConfig::default()
    };
    // Indices reversed, so stream order is not index order.
    let stream: Vec<ServiceRequest> =
        RequestStream::new(ArrivalTrace::Poisson { rate: 6000.0 }, 0.02, 11)
            .with_probe_every(5)
            .collect();
    let last = stream.len() as u64 - 1;
    let requests: Vec<ServiceRequest> = stream
        .iter()
        .map(|r| ServiceRequest {
            index: last - r.index,
            ..*r
        })
        .collect();

    let calls = RefCell::new(Vec::new());
    let source = |index| {
        calls.borrow_mut().push(index);
        mixed_app(index)
    };
    let mut service = AdmissionService::new(star_network(), config, source);
    service.run(requests.iter().copied());
    let stats = *service.stats();
    assert!(
        stats.batches > 0 && stats.probes > 0 && stats.windows_deferred > 0 && stats.shed > 0,
        "the stream must admit, probe, defer and shed: {stats:?}"
    );
    let expected: Vec<u64> = requests.iter().map(|r| r.index).collect();
    assert_eq!(*calls.borrow(), expected);
}

#[test]
fn rejected_batch_leaves_snapshot_readers_unperturbed() {
    // Index 0 is placeable; every later submission asks for an absurd
    // per-unit cycle count no path can clear, so the whole second batch
    // is rejected and the committed state must be byte-for-byte the
    // state after the first batch.
    let factory = |index: u64| {
        if index == 0 {
            pipeline_app(QoeClass::best_effort(1.0), 10.0, 50.0)
        } else {
            pipeline_app(QoeClass::best_effort(1.0), 1e12, 50.0)
        }
    };
    let config = ServiceConfig {
        batch_window: 1.0,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config, factory);
    service.run([ServiceRequest {
        time: 0.5,
        index: 0,
        kind: RequestKind::Admit,
    }]);
    let snapshot_before = service.snapshot().clone();
    assert_eq!(
        snapshot_before.be_apps().len() + snapshot_before.gr_apps().len(),
        1
    );

    let mut requests: Vec<ServiceRequest> = (1..4)
        .map(|i| ServiceRequest {
            time: 1.0 + i as f64 * 0.1,
            index: i,
            kind: RequestKind::Admit,
        })
        .collect();
    requests.push(ServiceRequest {
        time: 1.4,
        index: 4,
        kind: RequestKind::Probe,
    });
    service.run(requests);

    assert_eq!(service.stats().rejected, 3);
    assert_eq!(
        service.snapshot(),
        &snapshot_before,
        "an all-rejected batch must leave the read snapshot untouched"
    );
}

/// Regression: a request that asks for an availability and whose path
/// crosses more distinct elements than the analyser accepts (128) makes
/// `submit_all` return
/// `Err` for the whole batch. That used to panic the service; it is
/// that request's rejection, and the rest of its window is decided as
/// if it had never been queued.
#[test]
fn submit_error_rejects_one_request_and_the_window_goes_on() {
    // 70 hubs in a chain, a leaf on each: end to end is 70 NCPs and
    // 69 links.
    const HUBS: u32 = 70;
    let mut b = NetworkBuilder::new();
    for h in 0..HUBS {
        b.add_ncp(format!("hub{h}"), ResourceVec::cpu(1000.0));
    }
    for h in 0..HUBS {
        let leaf = b.add_ncp(format!("leaf{h}"), ResourceVec::cpu(100.0));
        b.add_link(format!("drop{h}"), NcpId::new(h), leaf, 1e4)
            .unwrap();
        if h > 0 {
            b.add_link(format!("trunk{h}"), NcpId::new(h - 1), NcpId::new(h), 1e4)
                .unwrap();
        }
    }
    // Request 1 spans the whole chain; 0 and 2 reach one hub over.
    let source = |index: u64| {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(50.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sw", s, w, 1000.0).unwrap();
        tb.add_tt("wt", w, t, 500.0).unwrap();
        let far = if index == 1 { HUBS - 1 } else { 1 };
        let pins = [(s, NcpId::new(0)), (t, NcpId::new(far))];
        let qoe = QoeClass::BestEffort {
            priority: 1.0,
            availability: Some(0.5),
        };
        Application::new(tb.build().unwrap(), qoe, pins).unwrap()
    };
    let config = ServiceConfig {
        batch_window: 1.0,
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(b.build().unwrap(), config, source);
    service.run((0..3).map(|index| ServiceRequest {
        time: 0.1 + 0.1 * index as f64,
        index,
        kind: RequestKind::Admit,
    }));

    let stats = *service.stats();
    assert_eq!(
        (
            stats.batches,
            stats.decisions,
            stats.admitted,
            stats.rejected
        ),
        (1, 3, 2, 1),
        "one window, one offender: {stats:?}"
    );
    let ledger = service.ledger();
    assert_eq!((ledger.arrivals(), ledger.admitted()), (3, 2));
    assert_eq!(ledger.rejections().get("submit_error"), Some(&1));
    assert_eq!(ledger.rejections().len(), 1);
    assert_eq!(service.system().be_apps().len(), 2);
}

/// Regression: the service used to emit its monitor sample and drop
/// `MonitorConfig::metrics_out` on the floor; like the churn runtime it
/// rewrites the exposition at every monitor tick.
#[test]
fn service_monitor_writes_metrics_out() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("service-monitor.prom");
    let _ = std::fs::remove_file(&path);
    let config = ServiceConfig {
        batch_window: 1.0,
        monitor: Some(MonitorConfig {
            metrics_out: Some(path.clone()),
            ..MonitorConfig::default()
        }),
        ..ServiceConfig::default()
    };
    let mut service = AdmissionService::new(star_network(), config, mixed_app);
    // One committed window.
    service.run((0..3).map(|index| ServiceRequest {
        time: 0.1 + 0.1 * index as f64,
        index,
        kind: RequestKind::Admit,
    }));
    assert_eq!(service.stats().batches, 1);
    let text = std::fs::read_to_string(&path).expect("the service writes metrics_out");
    assert!(text.contains("sparcle_live_apps 3"), "{text}");
    let _ = std::fs::remove_file(&path);
}

/// One step of a generated request interleaving.
#[derive(Debug, Clone)]
struct Step {
    gap: f64,
    probe: bool,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        (0.01f64..1.5, 0u32..2).prop_map(|(gap, probe)| Step {
            gap,
            probe: probe == 1,
        }),
        1..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With 1 s windows (far longer than any batch's counted work) and
    /// an unbounded queue (no sheds, no deferrals), ANY interleaving
    /// of submissions and probes reaches the same *decisions* as
    /// sequentially submitting the same applications in arrival order:
    /// identical admitted ids, placements, and GR residual, bitwise.
    /// Probes are pure reads — they must never perturb the outcome.
    /// Final BE rates match to 1e-9 relative, not bitwise: both
    /// schedules reach the same proportional-fair optimum, each to the
    /// solver's stopping tolerance (exact rate equality for size-1
    /// batches is covered above).
    #[test]
    fn any_interleaving_matches_sequential_admission(steps in arb_steps()) {
        let config = ServiceConfig {
            batch_window: 1.0,
            queue_capacity: usize::MAX,
            max_batch: usize::MAX,
            ..ServiceConfig::default()
        };
        let mut t = 0.0;
        let mut requests = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            t += step.gap;
            requests.push(ServiceRequest {
                time: t,
                index: i as u64,
                kind: if step.probe { RequestKind::Probe } else { RequestKind::Admit },
            });
        }
        let mut service = AdmissionService::new(star_network(), config.clone(), mixed_app);
        service.run(requests.clone());

        let mut reference = SparcleSystem::with_config(star_network(), config.system);
        for request in &requests {
            if request.kind == RequestKind::Admit {
                reference.submit(mixed_app(request.index)).unwrap();
            }
        }

        let admits = requests.iter().filter(|r| r.kind == RequestKind::Admit).count() as u64;
        prop_assert_eq!(service.stats().decisions, admits);
        prop_assert_eq!(service.stats().shed, 0);

        let service_be: Vec<usize> =
            service.system().be_apps().iter().map(|a| a.id.index()).collect();
        let reference_be: Vec<usize> =
            reference.be_apps().iter().map(|a| a.id.index()).collect();
        prop_assert_eq!(service_be, reference_be, "admitted BE ids must match");
        let service_gr: Vec<usize> =
            service.system().gr_apps().iter().map(|a| a.id.index()).collect();
        let reference_gr: Vec<usize> =
            reference.gr_apps().iter().map(|a| a.id.index()).collect();
        prop_assert_eq!(service_gr, reference_gr, "admitted GR ids must match");
        prop_assert_eq!(service.system().gr_residual(), reference.gr_residual());
        for (app, twin) in service.system().be_apps().iter().zip(reference.be_apps()) {
            prop_assert_eq!(
                &app.paths,
                &twin.paths,
                "placement of app {} must be bitwise identical",
                app.id.index()
            );
            prop_assert!(
                app.allocated_rate.is_finite() && app.allocated_rate > 0.0,
                "app {} rate {}",
                app.id.index(),
                app.allocated_rate
            );
            prop_assert!(
                (app.allocated_rate - twin.allocated_rate).abs() <= 1e-9 * twin.allocated_rate,
                "app {} rate {} vs sequential {}",
                app.id.index(),
                app.allocated_rate,
                twin.allocated_rate
            );
        }
    }
}
