//! The decision-provenance contract, end to end.
//!
//! Every telemetry event carries a recorder-assigned monotonic `id`,
//! and every caused event lists `causes` whose ids are strictly
//! smaller — so cause chains are acyclic *by construction*, a property
//! this suite checks over seed-varied runtime and service timelines
//! rather than on a fixture. On top of that sits the user-facing
//! guarantee: `sparcle-trace explain` reconstructs a complete,
//! cause-linked lifecycle for any subject (no orphan hops), and its
//! output is byte-identical whether the γ evaluator ran with 1, 2, or
//! 8 worker threads — provenance obeys the same determinism contract
//! as the event log itself.

use proptest::prelude::*;
use sparcle_core::{SystemConfig, TraceHandle};
use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_runtime::service::{AdmissionService, ServiceConfig};
use sparcle_runtime::{FluctuationConfig, ReconcilePolicy, RuntimeConfig, SparcleRuntime};
use sparcle_sim::FluctuationModel;
use sparcle_telemetry::{CollectRecorder, StampedEvent};
use sparcle_trace_tools::explain::{explain, pick_lineage, Selector};
use sparcle_trace_tools::load_trace;
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::{ArrivalTrace, RequestStream};

/// Two routes between the pinned endpoints, flaky links on the primary
/// one so the churn timeline produces displacements and readmissions.
fn churn_network() -> Network {
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

fn churn_app(index: u64) -> Application {
    let graph = linear_task_graph(&[50.0], &[1000.0, 500.0]).unwrap();
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let qoe = if index.is_multiple_of(3) {
        QoeClass::guaranteed_rate(2.0, 0.5)
    } else {
        QoeClass::best_effort(1.0 + (index % 4) as f64)
    };
    Application::new(graph, qoe, [(src, NcpId::new(0)), (sink, NcpId::new(2))]).unwrap()
}

/// One traced churn-runtime run; the γ-impact policy plus capacity
/// fluctuation exercises displace → reconcile → readmit chains.
fn runtime_events(threads: usize, failure_seed: u64, arrival_seed: u64) -> CollectRecorder {
    let mut config = RuntimeConfig {
        horizon: 60.0,
        failure_seed,
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
    let arrivals = ArrivalTrace::Poisson { rate: 0.8 }.events(config.horizon, arrival_seed);
    let mut rt = SparcleRuntime::new(churn_network(), arrivals, churn_app, config);
    let recorder = CollectRecorder::new();
    rt.run_traced(TraceHandle::new(&recorder));
    recorder
}

/// One traced service run under a lossy config (windows shorter than one
/// batch's counted work, bounded queue, one defer window) and a sharp
/// burst, so the stream produces admissions, rejections, deferrals, *and*
/// sheds.
fn service_events(threads: usize, stream_seed: u64) -> CollectRecorder {
    let config = ServiceConfig {
        batch_window: 0.00002,
        queue_capacity: 16,
        max_defer_windows: 1,
        system: SystemConfig {
            assigner_threads: threads,
        },
        ..ServiceConfig::default()
    };
    let stream = RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 1.0,
            burst_rate: 1000.0,
            burst_start: 10.0,
            burst_end: 10.5,
        },
        30.0,
        stream_seed,
    )
    .with_probe_every(7);
    let recorder = CollectRecorder::new();
    let mut service = AdmissionService::new(churn_network(), config, churn_app);
    service.run_traced(stream, TraceHandle::new(&recorder));
    recorder
}

/// The structural invariant behind acyclicity: recorder ids are dense
/// and strictly increasing, and every cause points strictly backward
/// to a real event — no zero, no forward, no self reference.
fn assert_chains_point_backward(stamped: &[StampedEvent]) {
    let mut caused = 0usize;
    for (i, s) in stamped.iter().enumerate() {
        assert_eq!(
            s.id,
            i as u64 + 1,
            "recorder ids must be dense, starting at 1"
        );
        caused += usize::from(!s.causes.is_empty());
        for &cause in &s.causes {
            assert!(
                cause >= 1 && cause < s.id,
                "event #{} ({}) cites cause #{cause}; causes must point \
                 strictly backward",
                s.id,
                s.event.kind()
            );
        }
    }
    assert!(caused > 0, "timeline produced no caused events at all");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cause chains are acyclic on every seed, not just the pinned one:
    /// each cause id is strictly smaller than the event it explains, so
    /// following causes always terminates at a root.
    #[test]
    fn runtime_cause_chains_are_acyclic(
        failure_seed in 1u64..200,
        arrival_seed in 1u64..200,
    ) {
        let recorder = runtime_events(1, failure_seed, arrival_seed);
        assert_chains_point_backward(&recorder.stamped_events());
    }

    /// Same invariant for the service plane, whose chains are longer
    /// (ingest → defer → batch → decision) and include sheds.
    #[test]
    fn service_cause_chains_are_acyclic(stream_seed in 1u64..200) {
        let recorder = service_events(1, stream_seed);
        assert_chains_point_backward(&recorder.stamped_events());
    }
}

/// `explain` output for a churn-runtime subject is byte-identical
/// across γ-evaluator thread counts, and the reconstructed lifecycle is
/// complete: every hop reaches its arrival through cause links.
#[test]
fn runtime_explain_is_byte_identical_across_thread_counts() {
    let render = |threads: usize| -> Vec<String> {
        let events = load_trace(&runtime_events(threads, 11, 42).render_trace()).unwrap();
        ["admitted", "rejected"]
            .iter()
            .filter_map(|outcome| pick_lineage(&events, outcome))
            .map(|lineage| {
                let explanation = explain(&events, Selector::Lineage(lineage)).unwrap();
                assert!(
                    explanation.is_complete(),
                    "orphaned lifecycle for lineage {lineage}:\n{}",
                    explanation.render()
                );
                explanation.render()
            })
            .collect()
    };
    let single = render(1);
    assert!(
        !single.is_empty(),
        "timeline must decide at least one arrival"
    );
    for threads in [2, 8] {
        assert_eq!(
            single,
            render(threads),
            "explain output diverged between 1 and {threads} evaluator threads"
        );
    }
}

/// Same contract for the service plane, explained through both
/// selectors: an admitted request and a shed one (the hard case — a
/// shed's chain must thread through every defer back to its ingest).
#[test]
fn service_explain_is_byte_identical_across_thread_counts() {
    let render = |threads: usize| -> Vec<String> {
        let events = load_trace(&service_events(threads, 0x5eed).render_trace()).unwrap();
        ["admitted", "shed"]
            .iter()
            .map(|outcome| {
                let lineage = pick_lineage(&events, outcome)
                    .unwrap_or_else(|| panic!("stream produced no {outcome} decision"));
                let explanation = explain(&events, Selector::Lineage(lineage)).unwrap();
                assert!(
                    explanation.is_complete(),
                    "orphaned lifecycle for {outcome} lineage {lineage}:\n{}",
                    explanation.render()
                );
                explanation.render()
            })
            .collect()
    };
    let single = render(1);
    for threads in [2, 8] {
        assert_eq!(
            single,
            render(threads),
            "explain output diverged between 1 and {threads} evaluator threads"
        );
    }
}

/// The no-orphan guarantee is universal, not per-picked-subject: every
/// lineage the service ever ingested explains completely.
#[test]
fn every_service_lineage_explains_completely() {
    let events = load_trace(&service_events(1, 0x5eed).render_trace()).unwrap();
    let mut lineages = Vec::new();
    for event in &events {
        if event.get("type").and_then(sparcle_telemetry::Json::as_str) == Some("service_ingest") {
            if let Some(l) = event
                .get("lineage")
                .and_then(sparcle_telemetry::Json::as_num)
            {
                lineages.push(l as u64);
            }
        }
    }
    assert!(lineages.len() >= 20, "stream too small: {}", lineages.len());
    for lineage in lineages {
        let explanation = explain(&events, Selector::Lineage(lineage)).unwrap();
        assert!(
            explanation.is_complete(),
            "orphaned lifecycle for lineage {lineage}:\n{}",
            explanation.render()
        );
    }
}
