//! End-to-end trace analysis: engine-generated traces through the
//! `sparcle-trace-tools` toolkit.
//!
//! The toolkit's own tests use synthetic traces; these drive the real
//! emitters — the placement engine with a `SpanTracker` attached — and
//! assert the analysis side holds up: same-seed traces diff clean,
//! different-seed traces name the first diverging event, and `profile`
//! reconstructs the per-round span tree the engine actually opened.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{DynamicRankingAssigner, TraceHandle};
use sparcle_telemetry::{stamp_json, CollectRecorder, SpanTracker};
use sparcle_trace_tools::{diff, load_trace, profile, validate_line, validate_trace};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

/// Runs one seeded placement with telemetry (optionally spans) and
/// renders the JSONL trace exactly as `--trace-out` would write it.
fn traced_run(seed: u64, spans: bool) -> String {
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 6 },
        TopologyKind::Star,
    );
    let scenario = cfg
        .sample(&mut StdRng::seed_from_u64(seed))
        .expect("valid scenario");
    let caps = scenario.network.capacity_map();
    let recorder = CollectRecorder::new();
    let tracker = SpanTracker::new();
    let trace = if spans {
        TraceHandle::with_spans(&recorder, &tracker)
    } else {
        TraceHandle::new(&recorder)
    };
    DynamicRankingAssigner::new()
        .assign_with_trace(&scenario.app, &scenario.network, &caps, trace)
        .expect("assignable");
    let mut out = recorder.render_trace();
    let next_id = recorder.stamped_events().len() as u64 + 1;
    out.push_str(&stamp_json(recorder.snapshot().to_trace_json(), next_id, &[]).render());
    out.push('\n');
    out
}

#[test]
fn engine_traces_validate_against_the_schema() {
    let trace = traced_run(11, true);
    let count = validate_trace(&trace).expect("span-bearing engine trace validates");
    assert!(count > 4, "expected a non-trivial trace, got {count} lines");
}

#[test]
fn same_seed_traces_diff_clean_even_with_spans() {
    // Two runs, same seed: decisions are deterministic, span wall
    // clocks are not. The semantic diff must see no divergence.
    let a = load_trace(&traced_run(42, true)).unwrap();
    let b = load_trace(&traced_run(42, true)).unwrap();
    assert_eq!(a.len(), b.len(), "same-seed traces have equal event counts");
    assert_eq!(diff::diff_traces(&a, &b), None);
}

#[test]
fn different_seed_traces_name_the_first_diverging_event() {
    let a = load_trace(&traced_run(1, false)).unwrap();
    let b = load_trace(&traced_run(2, false)).unwrap();
    let divergence = diff::diff_traces(&a, &b).expect("different scenarios must diverge");
    // The report localizes the divergence: an index into the trace and
    // the kind(s) at that position.
    let report = divergence.render();
    assert!(
        report.contains(&format!("index {}", divergence.index())),
        "report must name the index: {report}"
    );
    match &divergence {
        diff::Divergence::Event { kind_a, kind_b, .. } => {
            assert!(!kind_a.is_empty() && !kind_b.is_empty());
            assert!(report.contains(kind_a.as_str()));
        }
        diff::Divergence::Length { extra_kind, .. } => {
            assert!(!extra_kind.is_empty());
            assert!(report.contains(extra_kind.as_str()));
        }
    }
}

#[test]
fn profile_reconstructs_the_engine_round_tree() {
    let text = traced_run(7, true);
    // Every span line the engine emitted is schema-valid.
    for line in text.lines().filter(|l| l.contains("\"span_")) {
        validate_line(line).expect("span event validates");
    }
    let events = load_trace(&text).unwrap();
    let forest = profile::SpanForest::build(&events);
    assert!(!forest.nodes.is_empty(), "span run must produce spans");
    assert!(
        forest.nodes.iter().all(|n| n.closed && !n.aborted),
        "successful assignment closes every span cleanly"
    );

    // The assign span is the root; ranking rounds nest under it with
    // their fill/merge children.
    let root = &forest.nodes[forest.roots[0]];
    assert_eq!(root.name, "engine.assign");
    let rounds = forest.round_spans();
    assert!(!rounds.is_empty(), "placement must open rank_round spans");
    for &round in &rounds {
        assert_eq!(forest.nodes[round].parent, Some(root.id));
        for &child in &forest.nodes[round].children {
            let name = forest.nodes[child].name.as_str();
            assert!(
                name == "engine.tree_fill" || name == "engine.rank_merge",
                "unexpected child of rank_round: {name}"
            );
        }
    }

    // The self/total table covers the instrumented hot path and the
    // folded stacks nest rounds under the assign root.
    let stats = profile::aggregate(&forest);
    let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"engine.assign"));
    assert!(names.contains(&"engine.rank_round"));
    let table = profile::render_table(&stats);
    assert!(table.contains("self_ms"), "{table}");
    let folded = forest.folded_stacks();
    assert!(
        folded.contains("engine.assign;engine.rank_round"),
        "folded stacks must show the round under the root:\n{folded}"
    );
    let report = profile::render_rounds(&forest);
    assert!(
        report.contains(&format!("{} round(s)", rounds.len())),
        "{report}"
    );
}

#[test]
fn spanless_traces_stay_byte_identical() {
    // The pre-existing determinism contract: without a tracker, two
    // same-seed traces are byte-for-byte equal, spans never appear.
    let a = traced_run(5, false);
    let b = traced_run(5, false);
    assert_eq!(a, b);
    assert!(!a.contains("span_open"));
}
