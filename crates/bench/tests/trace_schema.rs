//! JSONL trace-schema conformance.
//!
//! Default mode: produce a real trace in-process — a seeded assignment
//! plus a flow simulation recorded through a [`JsonlRecorder`] — and
//! validate every line against the schema table in
//! `sparcle_telemetry::schema`.
//!
//! CI mode: when the `TRACE_FILE` env var is set, validate that file
//! instead. The nightly workflow runs `sparcle-exp fig6 --trace-out
//! <path>` and then this test, so the shipped binary and the schema
//! cannot drift apart without a red build.
//!
//! By default the trace must carry placement-decision events and the
//! γ-cache counters. Traces from experiments that exercise other
//! subsystems set `EXPECT_KINDS` to a comma-separated list of event
//! types that must appear instead (the nightly `sparcle-exp churn` step
//! uses this for the `runtime_*` kinds).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{DynamicRankingAssigner, TraceHandle};
use sparcle_sim::{simulate_flows_traced, FlowSimConfig, SimApp};
use sparcle_telemetry::schema::validate_trace;
use sparcle_telemetry::{Event, JsonlRecorder, Recorder};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

/// Writes a representative trace (engine + sim events) to `path`.
fn produce_trace(path: &std::path::Path) {
    let recorder = JsonlRecorder::create(path).expect("create trace file");
    recorder.event(&Event::RunStart {
        name: "trace-schema-test".to_owned(),
    });
    let trace = TraceHandle::new(&recorder);

    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Diamond,
        TopologyKind::Star,
    );
    let scenario = cfg
        .sample(&mut StdRng::seed_from_u64(11))
        .expect("valid scenario");
    let caps = scenario.network.capacity_map();
    let path_assigned = DynamicRankingAssigner::new()
        .assign_with_trace(&scenario.app, &scenario.network, &caps, trace)
        .expect("feasible scenario");

    simulate_flows_traced(
        &scenario.network,
        &[SimApp {
            graph: scenario.app.graph(),
            placement: &path_assigned.placement,
            rate: 0.5 * path_assigned.rate,
        }],
        &FlowSimConfig::default(),
        trace,
    );
    recorder.finish().expect("flush trace");
}

/// Resolves `TRACE_FILE` against the test's cwd (the package dir) and,
/// failing that, the workspace root — the nightly workflow names traces
/// relative to the checkout (`target/nightly-*.jsonl`) while cargo runs
/// this binary from `crates/bench`.
fn resolve_trace_file(file: &std::path::Path) -> std::path::PathBuf {
    if file.is_relative() && !file.exists() {
        let from_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        if from_root.exists() {
            return from_root;
        }
    }
    file.to_path_buf()
}

#[test]
fn every_trace_line_conforms_to_the_schema() {
    let (contents, source) = match std::env::var_os("TRACE_FILE") {
        Some(file) => (
            std::fs::read_to_string(resolve_trace_file(file.as_ref())).unwrap_or_else(|e| {
                panic!("TRACE_FILE {} unreadable: {e}", file.to_string_lossy())
            }),
            file.to_string_lossy().into_owned(),
        ),
        None => {
            let path = std::env::temp_dir()
                .join(format!("sparcle-trace-schema-{}.jsonl", std::process::id()));
            produce_trace(&path);
            let contents = std::fs::read_to_string(&path).expect("read trace back");
            let _ = std::fs::remove_file(&path);
            (contents, "in-process trace".to_owned())
        }
    };
    match validate_trace(&contents) {
        Ok(lines) => {
            assert!(
                lines >= 3,
                "{source}: suspiciously short trace ({lines} lines)"
            );
            if let Ok(kinds) = std::env::var("EXPECT_KINDS") {
                for kind in kinds.split(',').filter(|k| !k.is_empty()) {
                    assert!(
                        contents.contains(&format!("\"type\":\"{kind}\"")),
                        "{source}: no {kind} events"
                    );
                }
            } else {
                // A placement trace must carry decisions and the snapshot
                // must carry the γ-cache counters the issue promises.
                assert!(
                    contents.contains("\"type\":\"decision\""),
                    "{source}: no decision events"
                );
                assert!(
                    contents.contains("gamma_cache.hits"),
                    "{source}: snapshot lacks γ-cache counters"
                );
            }
        }
        Err((line, why)) => panic!("{source}: line {line}: {why}"),
    }
}
